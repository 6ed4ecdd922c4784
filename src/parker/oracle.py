"""The brute-force oracle: every magic tuple over a small carrier, found with
no normalization at all, and the check that the normalized searches of
parker.listing and the counts of parker.search lose nothing against it;
and the divisors of n, the reference the tests check the ring search's
centers against.

No command runs this module; it is the ground truth of the tests, and of
library callers that want it.
"""

from __future__ import annotations

from .algebra import Carrier, ModularRing, factorize, squares
from .core import dihedral_canonical, dihedral_orbit
from .listing import msos_field, msos_ring
from .search import count_field, count_ring


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
    mul = carrier.mul
    closure: set[tuple[int, ...]] = set()
    for t in tuples:
        for img in dihedral_orbit(tuple(t)):
            for s in _unit_squares(carrier):
                closure.add(tuple(mul(s, x) for x in img))
    return closure


def oracle_agreement(carrier: Carrier, cap: int = 100) -> bool:
    """True when the normalized search and the oracle describe the same set.

    Checks that the reported class count and the count of count_field or
    count_ring are the number of distinct dihedral classes among the
    normalized tuples, that every normalized tuple is itself magic
    (membership in the oracle set) and that the oracle set equals the
    closure of the normalized set under dihedral symmetry and unit-square
    scaling.
    """
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


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def divisor_representatives(n: int) -> list[int]:
    """Residues of the divisors of n in Z/nZ, ascending by divisor.

    These are orbit representatives for the multiplicative action of the unit
    group: every residue is a unit multiple of exactly one divisor.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return [d % n for d in divisors(n)]
