"""Magic-square-of-squares enumeration over fields and rings Z/nZ.

A carrier is Parker when it admits no 3x3 magic square of nine distinct
squared elements.  msos_field and msos_ring enumerate the full set of magic
tuples up to scaling: fields normalize the center to 0 (with the corner pair
fixed to 1 and -1) or to 1, rings normalize the center to a divisor residue.
brute_force_oracle enumerates with no normalization at all and is used to
check that the normalized searches lose nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (Carrier, ModularRing, center_pairs,
                      consecutive_square_triples, divisor_representatives,
                      make_carrier, squares)
from .core import dihedral_canonical, dihedral_orbit


@dataclass(frozen=True)
class SearchResult:
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
        center-0 field case the kernel emits the diagonal pair ascending
        beside the fixed anti-diagonal (1, -1), and an image exchanging the
        pairs would need {a, i} = {1, -1}, which repeats a cell.  Distinct
        centers are distinct classes, and msos_ring scans each distinct
        center square once.  oracle_agreement checks this count against
        dihedral_canonical.
        """
        return len(self.tuples)

    @property
    def parker(self) -> bool:
        return not self.tuples


def _sequences_case(carrier, e, out, anti_diagonal=None):
    """Every magic tuple with center e^2, by bitset over the center pairs.

    Write each center pair (u, v), u < v, as (e^2 - delta, e^2 + delta).
    With the diagonal pair (a, i) at offset alpha and the anti-diagonal pair
    (c, g) at offset gamma, the lines through the center sum to 3e^2, and
    the four derived cells are

        b = e^2 + (alpha + gamma)    h = e^2 - (alpha + gamma)
        d = e^2 + (alpha - gamma)    f = e^2 - (alpha - gamma).

    So the tuple is magic exactly when alpha + gamma and alpha - gamma both
    lie in D_e = {delta : e^2 + delta and e^2 - delta both squares}.  An
    offset with 2*delta == 0, 0 included, makes the two cells equal, and the
    tuple fails distinctness anyway.  Every other offset in D_e is that of a
    center-pair member, so D_e is built from the pairs alone, and every
    derived cell of a survivor is a pair member: the dict `member` maps
    delta to (e^2 + delta, e^2 - delta).  D_e is symmetric, so the
    condition reads gamma in (D_e - alpha) & (D_e + alpha), two
    translations of one bitmask.

    Pairs run in ascending order and each is tested against the running
    mask of the offsets of all earlier pairs, so every unordered
    combination of two distinct pairs is tested once, with the later pair
    on the diagonal.  Only surviving gammas cost carrier operations.

    anti_diagonal, when given, is a fixed mask of anti-diagonal offsets
    used for every pair in place of the running mask.  The center-0 field
    case passes the single bit of gamma = -1, which puts (c, g) = (1, -1).
    Its member entry exists whenever a hit does: a pair (u, -u) of nonzero
    squares makes -1 = -u/u a square, so (1, -1) is itself a pair and
    +-1 lie in D_0; in characteristic 2, u + v = 0 forces u = v, so D_0 has
    no pair and no hit.
    """
    add, sub, translate = carrier.add, carrier.sub, carrier.translate
    e2 = carrier.mul(e, e)
    pairs = center_pairs(carrier, e)
    member = {}
    offsets = []
    d_mask = 0
    for u, v in pairs:
        up, down = sub(v, e2), sub(u, e2)
        member[up] = (v, u)
        member[down] = (u, v)
        d_mask |= (1 << up) | (1 << down)
        offsets.append((up, down))
    earlier = 0 if anti_diagonal is None else anti_diagonal
    for (a2, i2), (alpha, minus_alpha) in zip(pairs, offsets):
        hits = translate(d_mask, minus_alpha) & earlier
        if hits:
            hits &= translate(d_mask, alpha)
        if anti_diagonal is None:
            earlier |= 1 << alpha
        while hits:
            low = hits & -hits
            hits ^= low
            gamma = low.bit_length() - 1
            b, h = member[add(alpha, gamma)]
            d, f = member[sub(alpha, gamma)]
            g2, c2 = member[gamma]
            t = (a2, b, c2, d, e2, f, g2, h, i2)
            if len(set(t)) == 9:
                out.add(t)


def msos_field(q) -> SearchResult:
    """All magic squares of squares over F_q, up to scaling.

    Two cases by center entry, both run by the same pair kernel: center 0
    fixes the anti-diagonal corners to 1 and -1 and scans corner pairs
    summing to 0; center 1 scans unordered combinations of two distinct
    pairs summing to 2.  Iteration is in ascending encoding order, so the
    output is deterministic.
    """
    carrier = q if isinstance(q, Carrier) else make_carrier("field", q)
    if carrier.kind not in ("prime-field", "extension-field"):
        raise ValueError(f"msos_field needs a field carrier, got {carrier}")
    out: set[tuple[int, ...]] = set()
    one = carrier.encode_int(1)
    _sequences_case(carrier, 0, out, 1 << carrier.neg(one))
    _sequences_case(carrier, one, out)
    return SearchResult(carrier, tuple(sorted(out)))


def msos_ring(n) -> SearchResult:
    """All magic squares of squares over Z/nZ, up to unit scaling.

    The center is normalized to a divisor residue of n (one unit orbit per
    divisor).  The scan depends on the center only through its square, so
    each distinct divisor square, 0 included, runs the same
    pair-combination scan as the nonzero-center field case once, with the
    first divisor that gives it.
    """
    carrier = n if isinstance(n, Carrier) else make_carrier("ring", n)
    if carrier.kind != "modular-ring":
        raise ValueError(f"msos_ring needs a ring carrier, got {carrier}")
    centers: dict[int, int] = {}
    for e in divisor_representatives(carrier.order):
        centers.setdefault(carrier.mul(e, e), e)
    out: set[tuple[int, ...]] = set()
    for e in centers.values():
        _sequences_case(carrier, e, out)
    return SearchResult(carrier, tuple(sorted(out)))


def prefilter_field(q) -> str | None:
    """A Parker verdict for F_q from necessary conditions, or None.

    The cascade: even order; fewer than nine squares; fewer than four center
    pairs on both the center-0 route (target 0) and the center-1 route
    (target 2); and, when only the center-0 route stays open, no qualifying
    consecutive-square triple.  A magic square needs four disjoint center
    pairs and a center-0 square scales to a consecutive-square triple, so
    each verdict implies the full search comes back empty.  The verdict is
    the reason string "even-order", "too-few-squares", "pair-deficit" or
    "no-consecutive-squares".
    """
    carrier = q if isinstance(q, Carrier) else None
    order = carrier.order if carrier is not None else q
    if order % 2 == 0:
        return "even-order"
    if carrier is None:
        carrier = make_carrier("field", order)
    sq = squares(carrier)
    if len(sq) < 9:
        return "too-few-squares"
    e0_pairs = len(center_pairs(carrier, 0))
    e1_pairs = len(center_pairs(carrier, carrier.encode_int(1)))
    if e0_pairs < 4 and e1_pairs < 4:
        return "pair-deficit"
    if e1_pairs < 4 and not consecutive_square_triples(carrier):
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
    sq = list(carrier.square_set())
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
    mul = carrier.mul
    closure: set[tuple[int, ...]] = set()
    for t in tuples:
        for img in dihedral_orbit(tuple(t)):
            for s in _unit_squares(carrier):
                closure.add(tuple(mul(s, x) for x in img))
    return closure


def oracle_agreement(carrier: Carrier, cap: int = 100) -> bool:
    """True when the normalized search and the oracle describe the same set.

    Checks that the reported class count is the number of distinct
    dihedral classes among the normalized tuples, that every normalized
    tuple is itself magic (membership in the oracle set) and that the
    oracle set equals the closure of the normalized set under dihedral
    symmetry and unit-square scaling.
    """
    if isinstance(carrier, ModularRing):
        result = msos_ring(carrier)
    else:
        result = msos_field(carrier)
    classes = {dihedral_canonical(t) for t in result.tuples}
    if len(classes) != result.dihedral_class_count:
        return False
    oracle = brute_force_oracle(carrier, cap)
    normalized = set(result.tuples)
    if not normalized <= oracle:
        return False
    return scaling_closure(carrier, normalized) == oracle
