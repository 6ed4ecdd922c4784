"""Magic-square-of-squares enumeration over fields and rings Z/nZ.

A carrier is Parker when it admits no 3x3 magic square of nine distinct
squared elements.  msos_field and msos_ring enumerate the full set of magic
tuples up to scaling: fields normalize the center to 0 (with the corner pair
fixed to 1 and -1) or to 1, rings normalize the center to a divisor residue.
count_field and count_ring give the same count from the same hit masks by
popcounting them, with no tuple built; range scans use them, and
only msos_* (and `parker field`/`ring` with --list or --json) keep tuples.
brute_force_oracle enumerates with no normalization at all and is used to
check that the normalized searches lose nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (Carrier, ModularRing, center_offsets,
                      divisor_representatives, make_carrier, mask_bits,
                      squares)

# core's dihedral group is imported by the two oracle checks that use it,
# so a search or scan never loads core


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
        center square once.  oracle_agreement checks this count against
        dihedral_canonical.
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
    they are the offsets cleared.  A field of characteristic 2 has no pair
    at all, since u + v = 2e^2 = 0 forces u = v, so the halves of alpha are
    only ever taken in odd characteristic and in Z/nZ.

    Z/nZ and prime fields, additive layout (n, 1), take a path on plain
    residue arithmetic; extension fields translate through a table of D_e
    translated by the low digits (see _translator).  Both yield the same
    sequence for the same D_e.
    """
    kernel = _residue_pair_hits if carrier.additive_layout[1] == 1 \
        else _carrier_pair_hits
    return kernel(carrier, e2, d_mask)


def _residue_pair_hits(carrier, e2, d_mask):
    # D_e is held doubled, D | D << n, so that translating it by t is the
    # one shift doubled >> (n - t), read below bit n; the AND with the
    # running mask, itself below bit n, drops the bits above.  The pair
    # of alpha has u = e^2 - alpha, so its -alpha translation is the shift
    # by alpha.  With t = 2e^2 mod n, the partner of u is t - u for u <= t
    # and t - u + n above, so the lower members u < v are the u in
    # [0, (t + 1)/2) and in (t, (t + n + 1)/2).
    n = carrier.order
    repeats = _repeat_mask(carrier)
    doubled = d_mask | d_mask << n
    t = 2 * e2 % n
    lower = ((1 << (t + 1) // 2) - 1) | ((1 << (t + n + 1) // 2) - (2 << t))
    earlier = 0
    for u in mask_bits((doubled >> (n - e2)) & lower):
        alpha = (e2 - u) % n
        hits = (doubled >> alpha) & earlier
        earlier |= 1 << alpha
        if hits:
            hits &= doubled >> (n - alpha)
        if hits:
            hits &= ~repeats(alpha)
        if hits:
            yield alpha, hits


def _carrier_pair_hits(carrier, e2, d_mask):
    # _residue_pair_hits with the carrier's arithmetic, translating D_e
    # through _translator; D_e is empty in characteristic 2
    if not d_mask:
        return
    sub = carrier.sub
    repeats = _repeat_mask(carrier)
    translate = _translator(carrier, d_mask)[1]
    target = carrier.add(e2, e2)
    earlier = 0
    for u in mask_bits(carrier.translate(d_mask, e2)):
        v = sub(target, u)
        if u > v:
            continue
        alpha = sub(v, e2)
        hits = translate(sub(u, e2)) & earlier
        earlier |= 1 << alpha
        if hits:
            hits &= translate(alpha)
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


# The most bits _translator's table may hold.  A full table, every digit
# but the top one, makes each translation one shift with no call to
# Carrier.translate, and may take FULL_TABLE_BITS = 2**24 bits, 2 MiB:
# every F_{p^2} has one (1.5 MB at F_181^2), and so do F_19^3 and F_23^3.
# A table cut short still calls Carrier.translate for the middle digits,
# so each entry saves less; it keeps to TABLE_BITS = 2**22 bits, 512 KiB.
# Every odd field order up to 5000 has a full table within TABLE_BITS; the
# first order cut short is 3**8 = 6561, whose larger tables measured slower.
FULL_TABLE_BITS = 2**24
TABLE_BITS = 2**22


def _translator(carrier, mask):
    """(table, translate): translate(t) has carrier.translate(mask, t) below
    bit q, the order, and leftover bits above it.

    The additive layout (p, r) splits t into its low h digits, the middle
    digits h..r - 2 and its top digit c.  table holds mask translated by
    every value s of the low h digits, at index s, each held doubled as
    m | m << q the way _residue_pair_hits holds D_e, so that translating by
    c * p**(r - 1) is the one shift >> (q - c * p**(r - 1)).  The block of
    the p**i entries with digit i = c is the block of c - 1 translated by
    p**i, one masked shift pair each.  h is r - 1 when the p**h entries of
    2q bits fit FULL_TABLE_BITS, else the largest that keeps them within
    TABLE_BITS; when that cuts the table short, Carrier.translate adds the
    middle digits.
    """
    p, r = carrier.additive_layout
    q = carrier.order
    h = r - 1
    if p**h * 2 * q > FULL_TABLE_BITS:
        while h and p**h * 2 * q > TABLE_BITS:
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
    one solution +-alpha * (p + 1)/2.  In Z/nZ with n even, 2*gamma = alpha
    has the two solutions alpha/2 and alpha/2 + n/2 when alpha is even and
    none when it is odd, and so has 2*gamma = -alpha.  alpha is an offset
    of D_e, so neither 2*alpha nor alpha/2 is 0.
    """
    p, r = carrier.additive_layout
    if r > 1:
        add, neg, mul = carrier.add, carrier.neg, carrier.mul
        half = carrier.encode_int((p + 1) // 2)

        def repeats(alpha):
            two, h = add(alpha, alpha), mul(alpha, half)
            return (1 << two) | (1 << neg(two)) | (1 << h) | (1 << neg(h))
        return repeats
    n = p
    if n % 2:
        half = (n + 1) // 2

        def repeats(alpha):
            two, h = 2 * alpha % n, alpha * half % n
            return (1 << two) | (1 << (n - two)) | (1 << h) | (1 << (n - h))
        return repeats
    m = n // 2

    def repeats(alpha):
        two = 2 * alpha % n
        out = (1 << two) | (1 << (n - two))
        if alpha % 2 == 0:
            h = alpha // 2
            out |= (1 << h) | (1 << (h + m)) | (1 << (m - h)) | (1 << (n - h))
        return out
    return repeats


def _field(carrier):
    """carrier, once checked to be a field; ValueError otherwise."""
    if carrier.kind not in ("prime-field", "extension-field"):
        raise ValueError(f"the field search needs a field carrier, "
                         f"got {carrier}")
    return carrier


def _field_centers(q):
    """(carrier, centers) of the field search: a list of (e^2, run).

    Center 0 fixes the anti-diagonal corners to 1 and -1 and scans corner
    pairs summing to 0 (_center_zero_hits); center 1 scans unordered
    combinations of two distinct pairs summing to 2 (_pair_hits).
    """
    carrier = _field(q if isinstance(q, Carrier)
                     else make_carrier("field", q))
    return carrier, [(0, _center_zero_hits),
                     (carrier.encode_int(1), _pair_hits)]


def _ring_centers(n):
    """(carrier, centers) of the ring search: a list of (e^2, _pair_hits).

    The center is normalized to a divisor residue of n (one unit orbit per
    divisor).  The scan depends on the center only through its square, so
    each distinct divisor square, 0 included, is scanned once.
    """
    carrier = n if isinstance(n, Carrier) else make_carrier("ring", n)
    if carrier.kind != "modular-ring":
        raise ValueError(f"the ring search needs a ring carrier, "
                         f"got {carrier}")
    e2s = dict.fromkeys(carrier.mul(e, e)
                        for e in divisor_representatives(carrier.order))
    return carrier, [(e2, _pair_hits) for e2 in e2s]


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


def _count(carrier, centers) -> int:
    total = 0
    for e2, run in centers:
        for _, hits in run(carrier, e2, center_offsets(carrier, e2)):
            total += hits.bit_count()
    return total


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
    """msos_field(q).tuple_count, from popcounts, with no tuple built."""
    return _count(*_field_centers(q))


def count_ring(n) -> int:
    """msos_ring(n).tuple_count, from popcounts, with no tuple built."""
    return _count(*_ring_centers(n))


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
    carrier = _field(q) if isinstance(q, Carrier) else None
    order = carrier.order if carrier is not None else q
    if order % 2 == 0:
        if order < 2 or order & (order - 1):
            raise ValueError(f"{order} is not a prime power, no field of "
                             f"that order")
        return "even-order"
    if carrier is None:
        carrier = make_carrier("field", order)
    if carrier.square_set()[0].bit_count() < 9:
        return "too-few-squares"
    d0 = center_offsets(carrier, 0)
    e1_pairs = center_offsets(carrier, carrier.encode_int(1)).bit_count() // 2
    if d0.bit_count() // 2 < 4 and e1_pairs < 4:
        return "pair-deficit"
    if e1_pairs < 4 and not _center_zero_mask(carrier, d0):
        return "no-consecutive-squares"
    return None


def brute_force_oracle(carrier: Carrier, cap: int = 100) -> set[tuple[int, ...]]:
    """Every magic tuple over the carrier, with no normalization.

    Depth-first fill over the square set: the first row fixes the total, the
    remaining cells are forced line by line, duplicates and wrong sums prune.
    Guarded by cap because the cost grows with the fourth power of the square
    count.
    """
    if carrier.order is None or carrier.order > cap:
        raise ValueError(f"oracle refused: order of {carrier} exceeds cap {cap}")
    sq = squares(carrier)
    in_sq = set(sq)
    add, sub = carrier.add, carrier.sub
    found: set[tuple[int, ...]] = set()
    for a in sq:
        for b in sq:
            if b == a:
                continue
            for c in sq:
                if c == a or c == b:
                    continue
                total = add(add(a, b), c)
                rest = sub(total, a)
                for d in sq:
                    g = sub(rest, d)
                    if g not in in_sq:
                        continue
                    e = sub(sub(total, c), g)
                    if e not in in_sq:
                        continue
                    f = sub(sub(total, d), e)
                    if f not in in_sq:
                        continue
                    h = sub(sub(total, b), e)
                    if h not in in_sq:
                        continue
                    i = sub(sub(total, c), f)
                    if i not in in_sq:
                        continue
                    if add(add(g, h), i) != total:
                        continue
                    if add(add(a, e), i) != total:
                        continue
                    t = (a, b, c, d, e, f, g, h, i)
                    if len(set(t)) == 9:
                        found.add(t)
    return found


def _unit_squares(carrier):
    return sorted({carrier.mul(u, u) for u in carrier.units()})


def scaling_closure(carrier: Carrier,
                    tuples) -> set[tuple[int, ...]]:
    """All unit-square scalings of all dihedral images of the given tuples."""
    from .core import dihedral_orbit

    mul = carrier.mul
    closure: set[tuple[int, ...]] = set()
    for t in tuples:
        for img in dihedral_orbit(tuple(t)):
            for s in _unit_squares(carrier):
                closure.add(tuple(mul(s, x) for x in img))
    return closure


def oracle_agreement(carrier: Carrier, cap: int = 100) -> bool:
    """True when the normalized search and the oracle describe the same set.

    Checks that the reported class count and the popcount of count_field
    or count_ring are the number of distinct dihedral classes among the
    normalized tuples, that every normalized tuple is itself magic
    (membership in the oracle set) and that the oracle set equals the
    closure of the normalized set under dihedral symmetry and unit-square
    scaling.
    """
    from .core import dihedral_canonical

    if isinstance(carrier, ModularRing):
        result, count = msos_ring(carrier), count_ring(carrier)
    else:
        result, count = msos_field(carrier), count_field(carrier)
    classes = {dihedral_canonical(t) for t in result.tuples}
    if not len(classes) == result.dihedral_class_count == count:
        return False
    oracle = brute_force_oracle(carrier, cap)
    normalized = set(result.tuples)
    if not normalized <= oracle:
        return False
    return scaling_closure(carrier, normalized) == oracle
