"""Counting magic squares of squares over fields and rings Z/nZ.

A carrier is Parker when it admits no 3x3 magic square of nine distinct
squared elements.  count_field and count_ring count the magic tuples up
to scaling that parker.listing's msos_field and msos_ring list, with no
tuple built: one formula on count vectors of 25 entries, each distinct
count once, that _center_counts builds from a carrier and a center alone
with a mask kernel: a field's at center 1, and for Z/nZ those of the
prime-power factors of n, computed once per process, with no mask over
Z/nZ (see count_ring).  Range scans run the count_* and prefilter_field
and never load parker.listing, which holds the pair kernel and the
tuples; only `parker field`/`ring` with --list loads it.  parker.oracle
checks both against an enumeration with no normalization.
"""

from __future__ import annotations

import math
from functools import cache
from operator import itemgetter, mul

from .algebra import (Carrier, ModularRing, center_offsets, factorize,
                      make_carrier, mask_bits, two_torsion)


def _center_zero_mask(carrier, d0):
    """T, the offsets alpha of D_0 = d0 whose pair makes a center-0 tuple.

    Center 0 fixes the anti-diagonal to (c, g) = (1, -1), gamma = -1, which
    is in D_0 whenever D_0 is not empty: a pair (u, -u) of nonzero squares
    makes -1 a square.  By listing._pair_hits alpha hits exactly when
    alpha - 1 and alpha + 1 are in D_0 and alpha is not +-2 or +-1/2, the
    alphas that repeat a cell with gamma = -1; the relation is symmetric,
    so they are _repeat_mask's mask at -1.  So T = D_0 & (D_0 + 1) &
    (D_0 - 1) without them, a symmetric mask, empty exactly when center 0
    has no square.
    """
    one = carrier.encode_int(1)
    minus_one = carrier.neg(one)
    mask = d0 & carrier.translate(d0, one) & carrier.translate(d0, minus_one)
    return mask & ~_repeat_mask(carrier)(minus_one)


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
    n even (a field of even order has no center, see
    listing._field_centers), where 2*gamma = alpha has the two solutions
    alpha/2 and alpha/2 + n/2 when alpha is even and none when it is odd,
    and so has 2*gamma = -alpha.
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

    Every search entry goes through it, so the kernels here and in
    parker.listing may assume a field or a Z/nZ.
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


def count_field(q) -> int:
    """listing.msos_field(q).tuple_count, with no tuple built and no pair
    kernel: a tuple per +- pair of the center-0 mask T, symmetric and
    without 0 (see _center_zero_mask), plus count_ring's formula on the
    center-1 vector of _center_counts.  An even order counts 0 with
    nothing built, as u + v = 2e^2 = 0 forces u = v.
    """
    carrier = _odd_field(q)
    if carrier is None:
        return 0
    t_mask = _center_zero_mask(carrier, center_offsets(carrier, 0))
    row = _count_row(1, _center_counts(carrier, carrier.encode_int(1)))
    # count_ring's last level, with this one factor
    return t_mask.bit_count() // 2 + _class_total(
        _ONES, (row,), {1: 1}, carrier)


def count_ring(n) -> int:
    """listing.msos_ring(n).tuple_count, from the prime-power factors of
    n, with no tuple, no square set of Z/nZ and no pair kernel over it.

    *Only the center's gcd matters.*  The count at center c = e^2 counts
    the unordered pairs of distinct center pairs, at offsets alpha and
    gamma, with alpha + gamma and alpha - gamma in D_e and no repeated
    cell (see listing._pair_hits).  For a unit square s, delta -> s*delta
    maps the center pairs of c onto those of s*c and keeps every linear
    relation, so c and s*c have equal counts.  Two squares c, c' with
    gcd(c, n) = gcd(c', n) differ by a unit square: mod each prime power
    p**k of n both are p**m times a unit square for the same m (or both
    are 0, when m = k), so their quotient there is a unit square, and by
    the CRT it is one mod n.  So count_ring sums over the same distinct
    center squares as listing.msos_ring, one count per gcd class, weighted
    by the class size.

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
    classes.  Every level reads the one cached row per class of its prime
    power (see _count_row): the first takes the row's raw vector as it
    is, each middle one multiplies by it, and the last builds no product:
    T and 2*(O - O5) + O5 of a class are two dot products of the partial
    product with that prime power's vector times _WEIGHTS, so the weights
    enter once, at the last level (see _class_total), and the
    divisibility is still asserted once per class, naming it.
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
    products = ([row[:3] for row in _component_counts(*components[0])]
                if components else _ONES)
    for p, k in components[1:]:
        products = [(h * r, tuple(map(mul, head, v_head)),
                     tuple(map(mul, tail, v_tail)))
                    for h, head, tail in products
                    for r, v_head, v_tail, _, _ in _component_counts(p, k)]
    return _class_total(products, _component_counts(*last), weights,
                        f"Z/{n}Z")


def _class_total(products, last, weights, label):
    """The sum over the center classes g = h*r of weights[g] times the
    count at g, from products, (h, head, tail) with head and tail the
    first 9 entries and the rest of the product of the count vectors of
    every prime power but the last, and last, the rows of _count_row of
    the last; label names the carrier if a division fails.

    At a center c, write D' for the offsets delta with c +- delta both
    squares and Z for the delta with 2*delta = 0, so that D_e = D' minus
    Z.  Let T be the number of ordered (alpha, gamma) with alpha, gamma,
    alpha + gamma and alpha - gamma all in D_e.  A pair of distinct center
    pairs gives 8 of them (which pair is alpha, and a sign for each), and
    alpha = +-gamma would put 0 in D_e, so T/8 counts the unordered pairs
    of pairs that meet the line condition.  By listing._pair_hits the ones
    among them that repeat a cell are {[x], [2x]}, the pairs of x and 2x,
    for the x with x, 2x and 3x in D_e; let O count these x, and O5 those
    with 5x = 0.  x and -x give the same {[x], [2x]}, and so does y = +-2x
    exactly when 5x = 0 (y = +-2x with 2y = +-x needs 3x = 0, which 3x in
    D_e excludes, or 5x = 0), and then x, 2x, 3x in D_e puts y, 2y, 3y in
    D_e too.  So the repeating pairs number (O - O5)/2 + O5/4 and

        count = T/8 - (2*(O - O5) + O5)/4,

    and both divisions are asserted to be exact, once per class.  T is
    the sum of the first 9 entries of _WEIGHTS times the full product and
    2*(O - O5) + O5 the sum of the rest (see _WEIGHTS), so each is a dot
    product of those entries of h's product and of r's weighted vector.
    """
    total = 0
    for h, head, tail in products:
        for r, _, _, w_head, w_tail in last:
            pairs = sum(map(mul, head, w_head))
            repeats = sum(map(mul, tail, w_tail))
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
# size for these, 2*(-1)**|S| for O and -(-1)**|S| for O5, so that T is
# the sum of the first 9 entries of _WEIGHTS times the product over q and
# 2*(O - O5) + O5 the sum of the rest.
_WEIGHTS = (1, -2, 1, -2, 4, -2, 1, -2, 1,
            *(2 * (-1) ** s.bit_count() for s in range(8)),
            *(-(-1) ** s.bit_count() for s in range(8)))
# the empty product, of a modulus with one prime power or of a field
_ONES = ((1, (1,) * 9, (1,) * 16),)


def _count_row(r, v):
    """(r, v[:9], v[9:], w[:9], w[9:]) with w = _WEIGHTS times v: the
    count vector v of the center class r, split where _class_total reads
    it, raw for a product and weighted for the last factor."""
    w = tuple(map(mul, _WEIGHTS, v))
    return r, v[:9], v[9:], w[:9], w[9:]


@cache
def _component_counts(p, k):
    """The _count_row of each center class of Z/qZ, q = p**k.

    The center classes of Z/qZ are the gcds p**m of its squares with q:
    m even below k, and m = k for the center 0.  The vector holds the 9
    distinct N_q(S), then O_q(S) and O5_q(S) (see count_ring and
    _center_counts).  The cache holds one entry of integers per prime
    power up to MAX_ORDER at most; the carrier and its masks are dropped
    once the vectors are counted.  It is the one cache of count data.
    """
    q = p**k
    carrier = ModularRing(q)
    if carrier.square_set()[0].bit_count() != _square_count(p, k):
        raise AssertionError(f"square count of Z/{q}Z")
    return tuple(_count_row(p**m, _center_counts(carrier, p**m % q))
                 for m in (*range(0, k, 2), k))


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
