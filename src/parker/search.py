"""Magic-square-of-squares enumeration over fields and rings Z/nZ.

A carrier is Parker when it admits no 3x3 magic square of nine distinct
squared elements.  msos_field and msos_ring enumerate the full set of magic
tuples up to scaling: fields normalize the center to 0 (with the corner pair
fixed to 1 and -1) or to 1, rings normalize the center to a divisor residue.
The pair kernel serves only these listings.  count_field and count_ring
give their counts by one formula on count vectors of 25 entries, each
distinct count once, that _center_counts builds from a carrier and a
center alone with a mask kernel: a field's at center 1, and for Z/nZ
those of the prime-power factors of n, computed once per process, with
no mask over Z/nZ (see count_ring).  Range scans use the count_*, and
only msos_* (and `parker field`/`ring` with --list) keep tuples.
parker.oracle checks them against an enumeration with no normalization.
"""

from __future__ import annotations

import math
from functools import cache
from operator import itemgetter, mul
from types import MappingProxyType
from typing import NamedTuple

from .algebra import (Carrier, ModularRing, center_offsets, factorize,
                      make_carrier, mask_bits, two_torsion)


class SearchResult(NamedTuple):
    """Outcome of one enumeration: the magic tuples, sorted."""

    carrier: Carrier
    tuples: tuple[tuple[int, ...], ...]

    @property
    def tuple_count(self) -> int:
        return len(self.tuples)

    @property
    def dihedral_class_count(self) -> int:
        """The number of dihedral classes, which is the tuple count.

        Cells are (a, b, c, d, e, f, g, h, i) in row order, and the edge
        cells follow from the corners and the center, so an image of a
        magic tuple is fixed by where its corners go.  The dihedral group
        D4 fixes the center and permutes the corners, keeping the diagonal
        pair {a, i} and the anti-diagonal pair {c, g} as pairs.  The two
        diagonal reflections and the half-turn reverse one pair or both in
        place; the quarter-turns and the two axis reflections exchange the
        pairs.  The eight images thus realize each choice of which pair
        lies on the diagonal and of each pair's orientation once.  The
        kernel emits only the image with the later of its two center pairs
        on the diagonal and both pairs in ascending order, so no two
        emitted tuples with the same center share a class.  In the
        center-0 field case each pair of the center-0 mask is emitted once,
        ascending on the diagonal beside (1, -1), and an image exchanging
        the pairs would need {a, i} = {1, -1}, which repeats a cell.  Distinct
        centers are distinct classes, and msos_ring scans each distinct
        center square once.  parker.oracle.oracle_agreement checks this
        count against dihedral_canonical.
        """
        return len(self.tuples)

    @property
    def parker(self) -> bool:
        return not self.tuples


def _pair_hits(carrier, e2, d_mask):
    """Every magic tuple with center e2 = e^2, as one bitmask per center pair.

    Write each center pair (u, v), u < v, as (e^2 - delta, e^2 + delta);
    d_mask is D_e, the set of these offsets (see center_offsets).
    With the diagonal pair (a, i) at offset alpha and the anti-diagonal pair
    (c, g) at offset gamma, the lines through the center sum to 3e^2, and
    the four derived cells are

        b = e^2 + (alpha + gamma)    h = e^2 - (alpha + gamma)
        d = e^2 + (alpha - gamma)    f = e^2 - (alpha - gamma).

    So the tuple is magic exactly when alpha + gamma and alpha - gamma both
    lie in D_e.  D_e is symmetric, so the condition reads
    gamma in (D_e - alpha) & (D_e + alpha), two translations of one
    bitmask.  Pairs run in ascending order of u and
    each is tested against the running mask of the offsets of all earlier
    pairs, so every unordered combination of two distinct pairs is tested
    once, with the later pair on the diagonal.

    Yields (alpha, hits) for each pair (u, v) = (e^2 - alpha,
    e^2 + alpha) with a hit, where bit gamma of hits marks the magic tuple
    with (c, g) = (e^2 - gamma, e^2 + gamma).  The offsets whose tuple
    repeats a cell are already cleared, and these are exactly gamma = +-2*alpha
    and the solutions of 2*gamma = +-alpha.  Proof: the nine cells lie at
    the offsets 0, +-x from e^2 for x in alpha, gamma, alpha + gamma and
    alpha - gamma, and a hit puts all four x in D_e.  Every offset in D_e
    has 2*delta != 0, since u != v, so no x is 0 or its own negation.  Two
    of the x, say x and y, give a repeated cell when x = +-y:

        alpha = +-gamma              puts 0 = alpha -+ gamma in D_e
        alpha + gamma = +-(alpha - gamma)   needs 2*gamma = 0 or 2*alpha = 0
        alpha = alpha +- gamma       needs gamma = 0
        gamma = +-(alpha + gamma)    needs alpha = 0 or 2*gamma = -alpha
        gamma = +-(alpha - gamma)    needs 2*gamma = alpha or alpha = 0
        alpha = -(alpha +- gamma)    is gamma = -+2*alpha.

    Of these, only 2*gamma = +-alpha and gamma = +-2*alpha can hold, and
    they are the offsets cleared.  The carrier is a field of odd order or a
    Z/nZ, as a field of even order has no center (see _field_centers), so
    the halves of alpha are only ever taken there.

    The lower members u < v are read off D_e + e^2 in ascending order, and
    D_e is translated by Carrier.translate.
    """
    sub, translate = carrier.sub, carrier.translate
    repeats = _repeat_mask(carrier)
    target = carrier.add(e2, e2)
    earlier = 0
    for u in mask_bits(translate(d_mask, e2)):
        v = sub(target, u)
        if u > v:
            continue
        alpha = sub(v, e2)
        hits = translate(d_mask, sub(u, e2)) & earlier
        earlier |= 1 << alpha
        if hits:
            hits &= translate(d_mask, alpha)
        if hits:
            hits ^= hits & repeats(alpha)
        if hits:
            yield alpha, hits


def _center_zero_mask(carrier, d0):
    """T, the offsets alpha of D_0 = d0 whose pair makes a center-0 tuple.

    Center 0 fixes the anti-diagonal to (c, g) = (1, -1), gamma = -1, which
    is in D_0 whenever D_0 is not empty: a pair (u, -u) of nonzero squares
    makes -1 a square.  By _pair_hits alpha hits exactly when alpha - 1 and
    alpha + 1 are in D_0 and alpha is not +-2 or +-1/2, the alphas that
    repeat a cell with gamma = -1; the relation is symmetric, so they are
    _repeat_mask's mask at -1.  So T = D_0 & (D_0 + 1) & (D_0 - 1) without
    them, a symmetric mask, empty exactly when center 0 has no square.
    """
    one = carrier.encode_int(1)
    minus_one = carrier.neg(one)
    mask = d0 & carrier.translate(d0, one) & carrier.translate(d0, minus_one)
    return mask & ~_repeat_mask(carrier)(minus_one)


def _center_zero_hits(carrier, e2, d_mask):
    # the center-0 run, e2 = 0: one bit, gamma = -1, for each alpha of
    # T that is the upper member of its pair, as _pair_hits would yield
    neg = carrier.neg
    hit = 1 << neg(carrier.encode_int(1))
    for alpha in mask_bits(_center_zero_mask(carrier, d_mask)):
        if neg(alpha) < alpha:
            yield alpha, hit


# The most bits _translator's table, which only counting builds, may hold:
# 2 MiB.  A full table, every digit but the top one, makes each translation
# one shift: every odd F_{p^r} up to 5000 may have one, and so may
# every F_{p^2} (1.5 MB at F_181^2), F_19^3 and F_23^3.  Past that a table
# cut short adds the middle digits by Carrier.translate; 3**8 = 6561 is the
# first order cut short, to at most 6 of its 7 low digits.
TABLE_BITS = 2**24


def _translator(carrier, mask, lookups):
    """(table, translate): translate(t) has carrier.translate(mask, t) below
    bit q, the order, and leftover bits above it, for the Frobenius-orbit
    kernel of _center_counts on F_{p^r}, r > 1.

    The additive layout (p, r) splits t into its low h digits, the middle
    digits h..r - 2 and its top digit c.  table holds mask translated by
    every value s of the low h digits, at index s, each held doubled as
    m | m << q, so that translating by c * p**(r - 1) is the one shift
    >> (q - c * p**(r - 1)).  The block of the p**i entries with digit
    i = c is the block of c - 1 translated by p**i, one masked shift pair
    each.  h is the most low digits, at most r - 1, whose p**h entries of
    2q bits fit TABLE_BITS and number at most twice lookups, the
    translations the caller makes.  When that cuts the table short,
    Carrier.translate adds the middle digits, one call per lookup.  Timed
    in process on every odd F_{p^r}, r >= 3, up to 32768, this height was
    within 10% of the fastest one.
    """
    p, r = carrier.additive_layout
    q = carrier.order
    h = r - 1
    while h and (p**h * 2 * q > TABLE_BITS or p**h > 2 * lookups):
        h -= 1
    table = [mask | mask << q]
    weight = 1
    for i in range(h):
        keep = carrier._digit_masks[i, 1]
        keep |= keep << q
        for _ in range(p - 1):
            for m in table[-weight:]:
                low = m & keep
                table.append(low << weight | (m ^ low) >> (p - 1) * weight)
        weight *= p
    top = p ** (r - 1)
    if weight == top:
        def translate(t):
            s = t % top
            return table[s] >> q - t + s
        return table, translate
    full = carrier._digit_masks[0, 0]

    def translate(t):
        s, c = t % weight, t // top
        return carrier.translate(table[s] >> q - c * top & full,
                                 t - s - c * top)
    return table, translate


def _repeat_mask(carrier):
    """alpha -> the mask of the gammas that repeat a cell with alpha.

    Those are +-2*alpha and the solutions of 2*gamma = +-alpha.  With an odd
    additive period p, 2 has the inverse (p + 1)/2 and each sign has the
    one solution +-alpha * (p + 1)/2.  Otherwise the carrier is Z/nZ with
    n even (a field of even order has no center, see _field_centers), where
    2*gamma = alpha has the two solutions alpha/2 and alpha/2 + n/2 when
    alpha is even and none when it is odd, and so has 2*gamma = -alpha.
    alpha is an offset of D_e, so neither 2*alpha nor alpha/2 is 0.
    """
    p = carrier.additive_layout[0]
    if p % 2:
        neg, mul = carrier.neg, carrier.mul
        double, half = carrier.encode_int(2), carrier.encode_int((p + 1) // 2)

        def repeats(alpha):
            two, h = mul(alpha, double), mul(alpha, half)
            return (1 << two) | (1 << neg(two)) | (1 << h) | (1 << neg(h))
        return repeats
    n, m = p, p // 2

    def repeats(alpha):
        two = 2 * alpha % n
        out = (1 << two) | (1 << (n - two))
        if alpha % 2 == 0:
            h = alpha // 2
            out |= (1 << h) | (1 << (h + m)) | (1 << (m - h)) | (1 << (n - h))
        return out
    return repeats


def _carrier(kind, x):
    """x once checked to be a carrier of kind "field" or "ring", or else
    the carrier of that kind and order x; ValueError otherwise.

    Every search entry goes through it, so the kernels below may assume a
    field or a Z/nZ.
    """
    if not isinstance(x, Carrier):
        return make_carrier(kind, x)
    # the kinds prime-field and extension-field, and modular-ring
    if not x.kind.endswith("-" + kind):
        raise ValueError(f"the {kind} search needs a {kind} carrier, got {x}")
    return x


def _odd_field(q):
    """The carrier of q, a field carrier or order, or None, with nothing
    built, for an even one; ValueError as in prefilter_field."""
    carrier = _carrier("field", q) if isinstance(q, Carrier) else None
    order = q if carrier is None else carrier.order
    if order % 2 == 0 and (order < 2 or order & (order - 1)):
        raise ValueError(f"{order} is not a prime power, no field of that "
                         f"order")
    return (carrier or make_carrier("field", order)) if order % 2 else None


def _field_centers(q):
    """(carrier, centers) of the field search: a list of (e^2, run).

    Center 0 fixes the anti-diagonal corners to 1 and -1 and scans corner
    pairs summing to 0 (_center_zero_hits); center 1 scans unordered
    combinations of two distinct pairs summing to 2 (_pair_hits).  A field
    of even order has no center at all, since u + v = 2e^2 = 0 forces
    u = v, so only fields of odd order reach the kernels.
    """
    carrier = _carrier("field", q)
    if carrier.order % 2 == 0:
        return carrier, []
    return carrier, [(0, _center_zero_hits),
                     (carrier.encode_int(1), _pair_hits)]


def _center_squares(n, factors):
    """The set of the squares e^2 of the divisor residues e of n, from
    factors, the factorization of n.

    The ring search normalizes the center to a divisor residue of n (one
    unit orbit per divisor), and depends on the center only through its
    square, so each of these, 0 included, is one center.  They are the
    products mod n of one p**(2i), i <= k, per prime power p**k of n.
    """
    out = {1}
    for p, k in factors.items():
        powers = [p**i for i in range(0, 2 * k + 1, 2)]
        out = {e * x % n for e in out for x in powers}
    return out


def _ring_centers(n):
    """(carrier, centers) of the ring search: a list of (e^2, _pair_hits),
    one per distinct divisor square (see _center_squares)."""
    carrier = _carrier("ring", n)
    n = carrier.order
    return carrier, [(e2, _pair_hits)
                     for e2 in _center_squares(n, factorize(n))]


def _search(carrier, centers) -> SearchResult:
    # decode every hit into its tuple; the cells are the pair members,
    # shared by every tuple that uses them
    add, sub = carrier.add, carrier.sub
    out = []
    for e2, run in centers:
        d_mask = center_offsets(carrier, e2)
        member = {delta: (add(e2, delta), sub(e2, delta))
                  for delta in mask_bits(d_mask)}
        for alpha, hits in run(carrier, e2, d_mask):
            i2, a2 = member[alpha]
            while hits:
                low = hits & -hits
                hits ^= low
                gamma = low.bit_length() - 1
                b, h = member[add(alpha, gamma)]
                d, f = member[sub(alpha, gamma)]
                g2, c2 = member[gamma]
                t = (a2, b, c2, d, e2, f, g2, h, i2)
                if len(set(t)) != 9:
                    raise AssertionError(f"kernel hit {t} repeats a cell")
                out.append(t)
    out.sort()
    return SearchResult(carrier, tuple(out))


def msos_field(q) -> SearchResult:
    """All magic squares of squares over F_q, up to scaling.

    Two cases by center entry: 0 from one offset mask, 1 by the pair
    kernel (see _field_centers).  The tuples come back sorted.
    """
    return _search(*_field_centers(q))


def msos_ring(n) -> SearchResult:
    """All magic squares of squares over Z/nZ, up to unit scaling.

    One pair-kernel scan per distinct divisor square (see _ring_centers).
    The tuples come back sorted.
    """
    return _search(*_ring_centers(n))


def count_field(q) -> int:
    """msos_field(q).tuple_count, with no tuple built and no pair kernel:
    a tuple per +- pair of the center-0 mask T, symmetric and without 0
    (see _center_zero_mask), plus count_ring's formula on the center-1
    vector of _center_counts.  An even order counts 0 with nothing built,
    as u + v = 2e^2 = 0 forces u = v.
    """
    carrier = _odd_field(q)
    if carrier is None:
        return 0
    t_mask = _center_zero_mask(carrier, center_offsets(carrier, 0))
    vector = _center_counts(carrier, carrier.encode_int(1))
    # count_ring's last level, with this one factor
    return t_mask.bit_count() // 2 + _class_total(
        _UNIT_PRODUCT, ((1, vector, vector[9:]),), {1: 1}, carrier)


def count_ring(n) -> int:
    """msos_ring(n).tuple_count, from the prime-power factors of n, with no
    tuple, no square set of Z/nZ and no pair kernel over it.

    *Only the center's gcd matters.*  The count at center c = e^2 counts
    the unordered pairs of distinct center pairs, at offsets alpha and
    gamma, with alpha + gamma and alpha - gamma in D_e and no repeated
    cell (see _pair_hits).  For a unit square s, delta -> s*delta maps the
    center pairs of c onto those of s*c and keeps every linear relation,
    so c and s*c have equal counts.  Two squares c, c' with gcd(c, n) =
    gcd(c', n) differ by a unit square: mod each prime power p**k of n
    both are p**m times a unit square for the same m (or both are 0, when
    m = k), so their quotient there is a unit square, and by the CRT it is
    one mod n.  So count_ring sums over the same distinct center squares
    as msos_ring, one count per gcd class, weighted by the class size.

    *The CRT factorization.*  The count at one center is
    _class_total's T/8 - (2*(O - O5) + O5)/4.  By the CRT, Z/nZ is
    the product of the Z/qZ over the prime powers q of n; so are its
    squares, and with them D' and Z, each the product of its sets mod q.
    D_e = D' minus Z is not, so by inclusion and exclusion over the set S
    of positions (of alpha, gamma, alpha + gamma, alpha - gamma) in Z,

        T = sum over S of (-1)**|S| * prod over q of N_q(S),

    where N_q(S) counts the (alpha, gamma) mod q with all four values in
    D'_q and those at S in Z_q.  N_q(S) is equal on the S that the swaps
    alpha <-> gamma and gamma <-> -gamma exchange, and so is the product
    over q, so the vector holds the 9 distinct values, which _WEIGHTS
    weights by sign and multiplicity.  O and O5 factor the same way over
    the positions x, 2x, 3x, as O_q(S) and O5_q(S); 5x = 0 is a condition
    mod each q.  The vectors depend on c mod q only through its gcd with q
    (the same unit-square argument), and _component_counts caches them
    for each prime power q and its center classes, so a scan computes the
    vectors of q once for all of 4q, 8q, 12q, ...  An order that is not a
    ring modulus of at most MAX_ORDER raises ValueError, as does a carrier
    that is not a ring.

    *The product tree.*  Each center class g takes the vector of q at
    gcd(g, q) for every q, so classes that agree on the first prime powers
    share the product over them.  The class of the divisor d = prod p**i
    is gcd(d**2, n) = prod p**min(2i, k), and the i run independently, so
    the classes of Z/nZ are the products of one class of each Z/qZ.  So
    the products run one prime power at a time, those with the fewest
    classes first, each partial product computed once for all the classes
    that extend it, up to the last prime power, the one with the most
    classes.  Its level builds no product: T and 2*(O - O5) + O5 of a
    class are two dot products of that prime power's vector with the
    partial product (see _class_total), whose divisibility is still
    asserted once per class, naming it.
    """
    n = _carrier("ring", n).order
    return _count_ring(n, factorize(n))


def _count_ring(n, factors):
    """count_ring(n) from factors, the factorization of n."""
    weights = {}
    for e2 in _center_squares(n, factors):
        g = math.gcd(e2, n)
        weights[g] = weights.get(g, 0) + 1
    # p**k has (k + 1)//2 + 1 center classes, and the fewest go first
    *components, last = sorted(factors.items(),
                               key=lambda f: (f[1] + 1) // 2)
    # the product over the prime powers so far, as (h, its first 9 entries,
    # the rest) with h the product of the classes taken so far
    products = (_weighted_counts(*components[0]) if components
                else _UNIT_PRODUCT)
    for p, k in components[1:]:
        products = [(h * r, tuple(map(mul, head, v)),
                     tuple(map(mul, tail, v_tail)))
                    for h, head, tail in products
                    for r, v, v_tail in _split_counts(p, k)]
    return _class_total(products, _split_counts(*last), weights, f"Z/{n}Z")


def _class_total(products, last, weights, label):
    """The sum over the center classes g = h*r of weights[g] times the
    count at g, from products, (h, head, tail) with head and tail the
    first 9 entries and the rest of _WEIGHTS times the count vectors of
    every prime power but the last, and last, (r, v, v[9:]) with v the
    count vector of the last; label names the carrier if a division
    fails.

    At a center c, write D' for the offsets delta with c +- delta both
    squares and Z for the delta with 2*delta = 0, so that D_e = D' minus
    Z.  Let T be the number of ordered (alpha, gamma) with alpha, gamma,
    alpha + gamma and alpha - gamma all in D_e.  A pair of distinct center
    pairs gives 8 of them (which pair is alpha, and a sign for each), and
    alpha = +-gamma would put 0 in D_e, so T/8 counts the unordered pairs
    of pairs that meet the line condition.  By _pair_hits the ones among
    them that repeat a cell are {[x], [2x]}, the pairs of x and 2x, for
    the x with x, 2x and 3x in D_e; let O count these x, and O5 those
    with 5x = 0.  x and -x give the same {[x], [2x]}, and so does y = +-2x
    exactly when 5x = 0 (y = +-2x with 2y = +-x needs 3x = 0, which 3x in
    D_e excludes, or 5x = 0), and then x, 2x, 3x in D_e puts y, 2y, 3y in
    D_e too.  So the repeating pairs number (O - O5)/2 + O5/4 and

        count = T/8 - (2*(O - O5) + O5)/4,

    and both divisions are asserted to be exact, once per class.  T is
    the sum of the first 9 entries of the full product and 2*(O - O5) + O5
    the sum of the rest (see _WEIGHTS), so each is a dot product of those
    entries of h's product and of r's vector; map stops at the shorter.
    """
    total = 0
    for h, head, tail in products:
        for r, v, v_tail in last:
            pairs = sum(map(mul, head, v))
            repeats = sum(map(mul, tail, v_tail))
            if pairs % 8 or repeats % 4:
                raise AssertionError(f"center class {h * r} of {label}: "
                                     f"T = {pairs} and 2(O - O5) + O5 = "
                                     f"{repeats}")
            total += weights[h * r] * (pairs // 8 - repeats // 4)
    return total


def ring_square_count(n) -> int:
    """The number of squares in Z/nZ, the product over the prime powers
    p**k of n of the number mod p**k: x is a square mod n exactly when it
    is one mod each p**k (CRT).  n passes the ring gate of count_ring
    first, so a modulus that is no ring of at most MAX_ORDER raises
    ValueError before it is factored."""
    n = _carrier("ring", n).order
    return _ring_square_count(factorize(n))


def _ring_square_count(factors):
    """ring_square_count(n) from factors, the factorization of n."""
    return math.prod(_square_count(p, k) for p, k in factors.items())


@cache
def _square_count(p, k):
    """The number of squares mod p**k.

    They are the unit squares, (p - 1)*p**(k - 1)/2 of them for odd p and
    1, 1, 2**(k - 3) for p = 2 and k = 1, 2, >= 3, and p**2 times the
    squares mod p**(k - 2), with 0 the one square left mod p**0 and mod p.
    """
    count = 1
    for j in range(2 - k % 2, k + 1, 2):
        count += (p - 1) * p**(j - 1) // 2 if p % 2 else 1 << max(j - 3, 0)
    return count


# The count vector of Z/qZ or a field at one center: N(S) for the subsets
# S of the pair positions alpha, gamma, alpha + gamma and alpha - gamma,
# S as a bitmask of positions, then O(S) and O5(S) for the 8 subsets of
# the positions x, 2x, 3x.  The swaps (alpha, gamma) -> (gamma, alpha)
# and (alpha, gamma) -> (alpha, -gamma) keep D' and Z and exchange bits 0
# and 1 and bits 2 and 3 of S, so N(S) is equal on the orbits {0},
# {1, 2}, {3}, {4, 8}, {5, 6, 9, 10}, {7, 11}, {12}, {13, 14} and {15},
# and so is an entrywise product of vectors.  The vector holds one N(S)
# per orbit, 25 entries in all.  _WEIGHTS holds (-1)**|S| times the orbit
# size for these, 2*(-1)**|S| for O and -(-1)**|S| for O5; count_ring
# starts its product over q from it, so that T is the sum of the product's
# first 9 entries and 2*(O - O5) + O5 the sum of the rest.
_WEIGHTS = (1, -2, 1, -2, 4, -2, 1, -2, 1,
            *(2 * (-1) ** s.bit_count() for s in range(8)),
            *(-(-1) ** s.bit_count() for s in range(8)))


@cache
def _component_counts(p, k):
    """{p**m: the count vector of Z/qZ at center p**m}, q = p**k, read-only.

    The center classes of Z/qZ are the gcds p**m of its squares with q:
    m even below k, and m = k for the center 0.  The vector holds the 9
    distinct N_q(S), then O_q(S) and O5_q(S) (see count_ring and
    _center_counts).  The cache holds one entry of integers per prime
    power up to MAX_ORDER at most; the carrier and its masks are dropped
    once the vectors are counted.
    """
    q = p**k
    carrier = ModularRing(q)
    if carrier.square_set()[0].bit_count() != _square_count(p, k):
        raise AssertionError(f"square count of Z/{q}Z")
    return MappingProxyType({p**m: _center_counts(carrier, p**m % q)
                             for m in (*range(0, k, 2), k)})


# The prime-power data of _count_ring, each cached per prime power like
# _component_counts, so that a modulus reuses what its factors' earlier
# multiples computed: the empty product, the count vectors split as
# _class_total reads them, and the first factor's vectors times _WEIGHTS.
_UNIT_PRODUCT = ((1, _WEIGHTS[:9], _WEIGHTS[9:]),)


@cache
def _split_counts(p, k):
    """((r, v, v[9:]) for the classes r and vectors v of _component_counts)."""
    return tuple((r, v, v[9:]) for r, v in _component_counts(p, k).items())


@cache
def _weighted_counts(p, k):
    """((r, head, tail)): head and tail are the first 9 entries and the
    rest of _WEIGHTS times the vector of r in _component_counts."""
    out = []
    for r, v in _component_counts(p, k).items():
        weighted = tuple(map(mul, _WEIGHTS, v))
        out.append((r, weighted[:9], weighted[9:]))
    return tuple(out)


def _preimage(carrier, mask, k):
    """{t : k*t in mask} over the carrier, k an integer.

    A mask of F_{p^r}, r > 1, and so its preimage, is in log order: bit 0
    for the element 0 and bit j + 1 for g**j.  There k acts as k mod p,
    which is all or nothing if p | k, as 0 is in mask or not.  Otherwise
    k = g**l for l = log(k mod p), and multiplying by k adds l to every
    log, so the units rotate by l and 0 stays in place.

    In Z/qZ and F_q a mask of at most 8 members takes the
    solutions of k*t = w for each member w: with g = gcd(k, q), none unless
    g divides w, else t0 + j*q/g for j < g.  Any other takes one slice of
    its bit string repeated, bit t being bit k*t % q (faster from about 10
    members on at q = 2**11 and 2**15).
    """
    (p, r), q = carrier.additive_layout, carrier.order
    if r > 1:
        if k % p == 0:
            return (1 << q) - 1 if mask & 1 else 0
        n, units = q - 1, mask >> 1
        rotated = (units | units << n) >> carrier._log[k % p]
        return (rotated & (1 << n) - 1) << 1 | mask & 1
    if mask.bit_count() > 8:
        # character i of the string is bit q - 1 - i, and (k - 1) + k*i
        # in k copies is bit k*(q - 1 - i) % q
        return int((format(mask, f"0{q}b") * k)[k - 1::k], 2)
    g = math.gcd(k, q)
    period = q // g
    inverse = pow(k // g, -1, period)
    solutions = sum(1 << j * period for j in range(g))
    out = 0
    while mask:
        w = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if w % g == 0:
            out |= solutions << w // g * inverse % period
    return out


def _center_counts(carrier, c):
    """The count vector of Z/qZ or of a field of odd order at the center
    square c, in F_p for a field: the 9 distinct N(S), then O(S) and O5(S)
    (see _WEIGHTS).

    It is counted from D' = (S - c) & (N + c), with S and N from
    square_set, zd = D' & Z, with Z from two_torsion (0, and q/2 in Z/qZ
    with q even), the preimages of both under t -> 2t and t -> 3t, and
    fives, the mask of the x with 5x = 0.
    N({}) is the mask kernel: alpha contributes the popcount of
    D' & (D' - alpha) & (D' + alpha), the same for -alpha, so the sum runs
    over one member of each +- pair, doubled, and the members of Z once.
    Z/qZ and F_q take the member below q/2 and shift D' held doubled
    inline, F_{p^r} goes through _translator.
    At the center 0 of Z/q, q prime, every unit square fixes the center
    and keeps D' and each summand.  D' is the squares when q = 1 (mod 4),
    so its (q - 1)/4 members below q/2, one orbit, all have alpha = 1's
    summand; otherwise it is {0}, with none, and the same formula gives 0.
    A q with (q + 1)/2 squares is an odd prime: by _square_count an odd
    p**k, k >= 2, has fewer, and by the CRT so has a product of two
    coprime factors.  At its center 1, |D'| = (q - chi(-1))/4 + [chi(2) = 1]
    is asserted: a^2 + b^2 = 2 has q - chi(-1) points, delta = a^2 - 1 =
    1 - b^2, and each delta but +-1 takes four, +-1 two when 2 is a square.
    In F_{p^r} the kernel takes one pair per orbit under Frobenius,
    t -> t**p, weighted by the orbit's size: Frobenius is additive, fixes
    c, which is in F_p, and keeps the squares, so it permutes D' and keeps
    each summand.  With alpha = g**i and half = (q - 1)/2, -alpha =
    g**(i + half), so the pair of alpha is i mod half, and Frobenius maps
    it to p*i mod half; an orbit has at most r pairs.  So the pairs in D'
    are the g**j, j < half, with bit j + 1 set in D' read in log order
    (see below).
    For S not empty, the first position of S is fixed to each z in zd,
    and then the others lie on lines in t:

        alpha = z:          gamma = t, alpha +- gamma = z +- t
        alpha + gamma = z:  alpha = t, gamma = z - t, alpha - gamma = 2t - z

    A position in S must lie in zd, any other in D', so each count is the
    popcount of masks of t: D' or zd, their translations by z, and their
    preimages under t -> 2t + z.  Both sets are symmetric and z = -z, so
    z +- t and t + z are the same condition.  O(S) and O5(S) are the
    popcounts of the preimages of x, 2x and 3x in D' or zd, and the latter
    also in fives.  In F_{p^r}, r > 1 and p odd, Z = {0}, so z = 0 alone,
    where every translation is the identity, and these masks may list the
    elements in any one order: D' is read into log order once, where each
    preimage is a rotation (see _preimage), and zd = {0} is bit 0 in either
    order.
    """
    (p, r), q = carrier.additive_layout, carrier.order
    translate = carrier.translate
    s, negs = carrier.square_set()
    d = translate(s, carrier.neg(c)) & translate(negs, c)
    prime = r == 1 and 2 * s.bit_count() == q + 1
    if prime and c == 1 and d.bit_count() != (q + 1) // 4 + (q % 8 in (1, 7)):
        raise AssertionError(f"|D'| = {d.bit_count()} at the center 1 of "
                             f"{carrier}")
    if d == 1:
        # D' = {0}: only alpha = gamma = 0 and x = 0 count, at every S
        return (1,) * 25
    zd = d & two_torsion(carrier)
    # the kernel; its alpha in Z are the ones N({alpha}) = n1 counts
    if r == 1:
        dd = d | d << q
        lower = d & (1 << (p + 1) // 2) - 2
        pairs = ((q - 1) // 4 * (d & dd >> 1 & dd >> q - 1).bit_count()
                 if c == 0 and prime else
                 sum((d & dd >> alpha & dd >> q - alpha).bit_count()
                     for alpha in mask_bits(lower)))
    else:
        # character x of bits is bit x; bit j + 1 of by_log is g**j
        exp, half = carrier._exp, (q - 1) // 2
        bits = format(d, f"0{q}b")[::-1]
        by_log = int("".join(itemgetter(*exp[q - 2::-1])(bits)) + bits[0], 2)
        # the first j of each orbit, and the orbit's size
        seen, orbits = bytearray(half), []
        for j in mask_bits(by_log >> 1 & (1 << half) - 1):
            if seen[j]:
                continue
            i, size = j, 0
            while not seen[i]:
                seen[i] = 1
                i = i * p % half
                size += 1
            orbits.append((j, size))
        shifted = _translator(carrier, d, 2 * len(orbits))[1]
        pairs = sum(size * (d & shifted(exp[j])
                            & shifted(exp[j + half])).bit_count()
                    for j, size in orbits)
        d = by_log
    d2, d3 = _preimage(carrier, d, 2), _preimage(carrier, d, 3)
    zd2, zd3 = _preimage(carrier, zd, 2), _preimage(carrier, zd, 3)
    n1 = n3 = n4 = n5 = n7 = n12 = n13 = n15 = 0
    # zd holds 0 and at most q/2 besides, so walk its set bits rather
    # than write out its q/2 digits as mask_bits would
    rest = zd
    while rest:
        z = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        # {t : t + z in d or zd}, then {t : 2t + z in d or zd}; at z = 0
        # every translation is the identity
        b, bz, h, hz = d, zd, d2, zd2
        if z:
            b, bz = translate(d, z), translate(zd, z)
            h, hz = (_preimage(carrier, b, 2), _preimage(carrier, bz, 2)) \
                if z % 2 else (translate(d2, -(z // 2) % q),
                               translate(zd2, -(z // 2) % q))
        db = d & b
        n1 += db.bit_count()                # S = {alpha}
        n3 += (zd & b).bit_count()          # {alpha, gamma}
        n5 += (db & bz).bit_count()         # {alpha, alpha + gamma}
        n7 += (zd & b & bz).bit_count()     # and gamma
        n13 += (d & bz).bit_count()         # all but gamma
        n15 += (zd & bz).bit_count()        # all four
        n4 += (db & h).bit_count()          # {alpha + gamma}
        n12 += (db & hz).bit_count()        # {alpha +- gamma}
    triples = [x & y & w for w in (d3, zd3) for y in (d2, zd2)
               for x in (d, zd)]
    fives = _preimage(carrier, 1, 5)
    return (2 * pairs + n1, n1, n3, n4, n5, n7, n12, n13, n15,
            *(m.bit_count() for m in triples),
            *((m & fives).bit_count() for m in triples))


PREFILTER_REASONS = ("even-order", "too-few-squares", "pair-deficit",
                     "no-consecutive-squares")


def prefilter_field(q) -> str | None:
    """A Parker verdict for F_q from necessary conditions, or None.

    The cascade: even order; fewer than nine squares; fewer than four center
    pairs on both the center-0 route (target 0) and the center-1 route
    (target 2); and, when only the center-0 route stays open, an empty
    center-0 mask, which is exact for that route (see _center_zero_mask).
    A magic square needs four disjoint center pairs, so each verdict
    implies the full search comes back empty.  The verdict is one of the
    reason strings in PREFILTER_REASONS.  An order that is not a prime
    power raises ValueError: an even one here, an odd one when its carrier
    is built.  So does a carrier that is not a field, before any verdict.
    """
    carrier = _odd_field(q)
    if carrier is None:
        return "even-order"
    if carrier.square_set()[0].bit_count() < 9:
        return "too-few-squares"
    d0 = center_offsets(carrier, 0)
    e1_pairs = center_offsets(carrier, carrier.encode_int(1)).bit_count() // 2
    if d0.bit_count() // 2 < 4 and e1_pairs < 4:
        return "pair-deficit"
    if e1_pairs < 4 and not _center_zero_mask(carrier, d0):
        return "no-consecutive-squares"
    return None
