"""Listing magic squares of squares over fields and rings Z/nZ.

msos_field and msos_ring enumerate the full set of magic tuples up to
scaling: fields normalize the center to 0 (with the corner pair fixed to 1
and -1) or to 1, rings normalize the center to a divisor residue.  The
pair kernel serves only these listings, and text_rows and json_rows render
their tuples for `parker field`/`ring` with --list, the one command that
loads this module.  parker.search counts the same tuples without building
them, and parker.oracle checks both against an enumeration with no
normalization.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Carrier, center_offsets, factorize, mask_bits
from .search import _carrier, _center_squares, _center_zero_mask, _repeat_mask


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


def _center_zero_hits(carrier, e2, d_mask):
    # the center-0 run, e2 = 0: one bit, gamma = -1, for each alpha of
    # T that is the upper member of its pair, as _pair_hits would yield
    neg = carrier.neg
    hit = 1 << neg(carrier.encode_int(1))
    for alpha in mask_bits(_center_zero_mask(carrier, d_mask)):
        if neg(alpha) < alpha:
            yield alpha, hit


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


def _ring_centers(n):
    """(carrier, centers) of the ring search: a list of (e^2, _pair_hits),
    one per distinct divisor square (see search._center_squares)."""
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


def text_rows(carrier, tuples):
    """Each tuple as a line of the text listing, its cells in three rows."""
    for t in tuples:
        # an extension-field element such as 6 + 6*x prints with
        # spaces, so it is parenthesized to keep the cells apart
        cells = [carrier.element_repr(x) for x in t]
        cells = [f"({c})" if " " in c else c for c in cells]
        rows = [" ".join(cells[i:i + 3]) for i in (0, 3, 6)]
        yield "  [" + " | ".join(rows) + "]\n"


def json_rows(carrier, tuples):
    """Each tuple as the JSON list of its cells' JSON forms."""
    import json

    for t in tuples:
        yield json.dumps([carrier.element_to_json(x) for x in t])
