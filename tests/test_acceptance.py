"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is pinned exactly; the only tolerances are the per-
criterion runtime budgets, asserted at the stated limits.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager

from parker.algebra import make_carrier
from parker.core import magic_from_params, validate_square
from parker.gaussian import (GaussianInt, chi, congruum_triple,
                             hourglass_condition, hourglass_generators,
                             hourglass_guess, pow4_parts)
from parker.hourglass import search_hourglass
from parker.oracle import oracle_agreement
from parker.survey import scan_fields, scan_ring_order, scan_rings

from test_core import all_magic_grids


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s, budget {budget_s}s)")
    assert ok, f"runtime {elapsed:.1f}s exceeded budget {budget_s}s"


def test_01_smallest_non_parker_field():
    with criterion(1, "smallest non-Parker field", 5):
        records, _ = scan_fields(2, 29)
        assert len(records) == 16
        assert [r.order for r in records if not r.parker] == [29]


def test_02_prime_order_parker_list():
    with criterion(2, "prime-order Parker list", 120):
        records, _ = scan_fields(2, 999, "primes-only")
        parker = [r.order for r in records if r.parker]
        assert parker == [2, 3, 5, 7, 11, 13, 17, 19, 23, 31, 43, 47, 67]


def test_03_prime_power_parker_list():
    with criterion(3, "prime-power Parker list", 600):
        records, _ = scan_fields(4, 729, "prime-powers-only")
        orders = [r.order for r in records]
        assert 243 in orders and 729 in orders
        odd_parker = [r.order for r in records if r.parker and r.order % 2]
        assert odd_parker == [9, 25, 27, 243]
        assert all(r.parker for r in records if r.order % 2 == 0)


def test_04_count_tables():
    with criterion(4, "count tables", 300):
        _, breakers = scan_fields(2, 193, "primes-only")
        assert breakers == ((2, 0), (29, 2), (61, 4), (89, 5), (97, 6),
                            (109, 9), (113, 13), (137, 18), (181, 24),
                            (193, 28))
        expected = {27: 3, 29: 7, 37: 9, 53: 13, 54: 36, 58: 56, 74: 72,
                    101: 75, 106: 104, 122: 240, 162: 576, 202: 604}
        for n, count in expected.items():
            assert scan_ring_order(n).msos_count == count, n


def test_05_smallest_non_parker_ring():
    with criterion(5, "smallest non-Parker ring", 10):
        records, _ = scan_rings(2, 30)
        non_parker = [r for r in records if not r.parker]
        assert non_parker[0].order == 27
        assert non_parker[0].msos_count == 3


def test_06_odd_ring_parker_list():
    with criterion(6, "odd-ring Parker list", 600):
        records, _ = scan_rings(101, 999, "odd")
        assert [r.order for r in records if r.parker] == [129, 141, 147, 201]


def test_07_div4_ring_parker_list():
    with criterion(7, "div-4 ring Parker list", 1800):
        records, _ = scan_rings(1001, 2999, (4, 0))
        parker = [r.order for r in records if r.parker]
        assert parker == [1032, 1072, 1104, 1128, 1488, 1608, 2064, 2256]
        assert scan_ring_order(3216).parker


def test_08_oracle_equivalence():
    with criterion(8, "oracle equivalence to order 60", 300):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                  31, 32, 37, 41, 43, 47, 49, 53, 59):
            assert oracle_agreement(make_carrier("field", q)), f"field {q}"
        for n in range(2, 61):
            assert oracle_agreement(make_carrier("ring", n)), f"ring {n}"


def test_09_gaussian_identity_suite():
    with criterion(9, "Gaussian identity properties (1e4 cases each)", 30):
        rng = random.Random(20260810)

        def rand_g(span=10**6):
            return GaussianInt(rng.randint(-span, span),
                               rng.randint(-span, span))

        for _ in range(10**4):
            w = rand_g()
            r, s, t = chi(w)
            assert r * r + t * t == 2 * s * s
            re4, im4 = pow4_parts(w)
            assert re4 == r * t
            assert im4 == r * r - s * s

        for _ in range(10**4):
            m, n = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            k = rng.randint(-100, 100)
            ct = congruum_triple(m, n, k)
            assert ct.r**2 + ct.t**2 == 2 * ct.s**2
            assert ct.congruum == 4 * m * n * (m + n) * (m - n) * k * k
            if k == 1:
                assert chi(GaussianInt(m, n)) == (ct.r, ct.s, ct.t)

        for _ in range(10**4):
            m, n = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            _, im4 = pow4_parts(GaussianInt(m, n))
            assert im4 == 4 * m * n * (m + n) * (m - n)
            assert im4 % 24 == 0

        for _ in range(10**4):
            x, y, z = rand_g(300), rand_g(300), rand_g(300)
            a, b, g = hourglass_generators(x, y, z)
            lhs = pow4_parts(a)[1] + pow4_parts(b)[1] + pow4_parts(g)[1]
            rhs = (x**4 * y**4 * z**4).im \
                + 4 * pow4_parts(x)[1] * pow4_parts(y)[1] * pow4_parts(z)[1]
            assert lhs == rhs


def test_10_hourglass_worked_example():
    with criterion(10, "hourglass worked example", 1):
        cand = hourglass_guess(1105)
        assert cand is not None
        assert tuple(c * c for c in cand.cells) == tuple(
            x * x for x in (367, 1337, 1151, 1105, 1057, 809, 1519))
        assert cand.report.sums_equal_count == 3
        assert cand.report.line_sums.count(3 * 1105**2) == 3
        assert not cand.report.is_magic


def test_11_hourglass_search_sanity():
    with criterion(11, "hourglass search sanity", 120):
        result = search_hourglass("exhaustive", 200)
        assert result.hits == ()
        assert result.triples_tested > 0
        rep = hourglass_condition(GaussianInt(1, 1), GaussianInt(3, 2),
                                  GaussianInt(4, 1))
        assert not rep.holds and rep.real_fourth_powers == ("x",)
        w = GaussianInt(3, 2)
        rep = hourglass_condition(w, w, GaussianInt(4, 1))
        assert not rep.holds and ("x", "y") in rep.proportional_pairs


def test_12_f2_parametrization():
    with criterion(12, "two-element field parametrization", 60):
        f2 = make_carrier("field", 2)
        from_params = {magic_from_params((a, b, c), f2)
                       for a in (0, 1) for b in (0, 1) for c in (0, 1)}
        assert len(from_params) == 8
        assert from_params == all_magic_grids(f2)
        for order in (2, 4):
            carrier = make_carrier("field", order)
            magic = all_magic_grids(carrier)
            params = {magic_from_params((a, b, c), carrier)
                      for a in range(order) for b in range(order)
                      for c in range(order)}
            assert magic == params
            for grid in magic:
                assert len(set(grid)) <= 4
                assert validate_square(grid, carrier).sums_equal_count == 8
