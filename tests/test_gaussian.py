import copy
import logging
import math
import pickle
import re
import types

import pytest
from hypothesis import given, settings, strategies as st

from parker import algebra, gaussian, hourglass
from parker.algebra import is_prime
from parker.gaussian import (GaussianInt, chi, congruum_triple,
                             hourglass_condition, hourglass_generators,
                             hourglass_guess, pow4_parts,
                             square_sum_generators, two_square_reps)
from parker.hourglass import search_hourglass
from parker.limits import MAX_BOUND

gaussians = st.builds(GaussianInt, st.integers(-10**6, 10**6),
                      st.integers(-10**6, 10**6))


class TestGaussianInt:
    def test_fields_cannot_be_assigned(self):
        w = GaussianInt(3, 4)
        for name in ("re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(w, name, 0)
            with pytest.raises(AttributeError):
                delattr(w, name)
        assert (w.re, w.im) == (3, 4)

    def test_arithmetic_is_never_tuple_arithmetic(self):
        w = GaussianInt(3, 4)
        for got, want in ((3 * w, GaussianInt(9, 12)),
                          (w * 3, GaussianInt(9, 12)),
                          (w + w, GaussianInt(6, 8)),
                          (w * w, GaussianInt(-7, 24))):
            assert type(got) is GaussianInt and got == want
        with pytest.raises(TypeError):
            len(w)

    def test_value_semantics(self):
        w = GaussianInt(3, -4)
        assert w == GaussianInt(3, -4) and w != (3, -4)
        assert len({w, GaussianInt(3, -4), w.conj()}) == 2
        assert repr(w) == "GaussianInt(re=3, im=-4)"
        copied = pickle.loads(pickle.dumps(w))
        assert copied == w and copy.deepcopy(w) == w


class TestChi:
    def test_worked_example(self):
        assert chi(GaussianInt(33, 4)) == (1337, 1105, 809)

    def test_real_input_collapses(self):
        assert chi(GaussianInt(1, 0)) == (1, 1, 1)

    def test_negative_third_component(self):
        assert chi(GaussianInt(24, 23)) == (1151, 1105, -1057)

    @given(gaussians)
    def test_progression_identity(self, w):
        r, s, t = chi(w)
        assert r * r + t * t == 2 * s * s
        assert r * r - s * s == s * s - t * t


class TestPow4Parts:
    def test_examples(self):
        assert pow4_parts(GaussianInt(2, 1)) == (-7, 24)
        assert pow4_parts(GaussianInt(1, 1)) == (-4, 0)
        re4, im4 = pow4_parts(GaussianInt(33, 4))
        assert im4 == 566544 == 1337**2 - 1105**2

    @given(gaussians)
    def test_links_to_chi(self, w):
        r, s, t = chi(w)
        re4, im4 = pow4_parts(w)
        assert re4 == r * t
        assert im4 == r * r - s * s

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_divisible_by_24(self, m, n):
        _, im4 = pow4_parts(GaussianInt(m, n))
        assert im4 == 4 * m * n * (m + n) * (m - n)
        assert im4 % 24 == 0


class TestCongruum:
    def test_classic_example(self):
        t = congruum_triple(3, 2, 1)
        assert (t.r, t.s, t.t) == (17, 13, -7)
        assert t.congruum == 120
        assert 17**2 - 13**2 == 13**2 - 7**2 == 120

    def test_degenerate(self):
        t = congruum_triple(1, 0, 5)
        assert (t.r, t.s, t.t) == (5, 5, 5)
        assert t.congruum == 0

    def test_scaled(self):
        t = congruum_triple(2, 1, 3)
        # 21^2 - 15^2 = 216 = 15^2 - 3^2
        assert (t.r, t.s, t.t) == (21, 15, -3)
        assert t.congruum == 216

    @given(st.integers(-500, 500), st.integers(-500, 500),
           st.integers(-500, 500))
    def test_invariants(self, m, n, k):
        t = congruum_triple(m, n, k)
        assert t.r**2 + t.t**2 == 2 * t.s**2
        assert t.r**2 - t.s**2 == t.s**2 - t.t**2 == t.congruum
        assert t.congruum == 4 * m * n * (m + n) * (m - n) * k * k

    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_chi_agrees_for_k_one(self, m, n):
        t = congruum_triple(m, n, 1)
        assert chi(GaussianInt(m, n)) == (t.r, t.s, t.t)

    @given(st.integers(-100, 100), st.integers(-100, 100),
           st.integers(1, 12))
    def test_chi_agrees_for_square_k(self, m, n, j):
        t = congruum_triple(m, n, j * j)
        assert chi(GaussianInt(j * m, j * n)) == (t.r, t.s, t.t)


class TestTwoSquareReps:
    def test_1105_has_four_reps(self):
        # the classic display lists three; (12, 31) completes the set
        assert two_square_reps(1105) == [(4, 33), (9, 32), (12, 31), (23, 24)]

    def test_small_cases(self):
        assert two_square_reps(2) == [(1, 1)]
        assert two_square_reps(25) == [(0, 5), (3, 4)]
        assert two_square_reps(3) == []

    @given(st.integers(0, 20000))
    @settings(max_examples=300)
    def test_complete_and_correct(self, s):
        reps = two_square_reps(s)
        assert all(u * u + v * v == s and 0 <= u <= v for u, v in reps)
        brute = {(min(a, b), max(a, b))
                 for a in range(150) for b in range(150)
                 if a * a + b * b == s}
        if s <= 150 * 150 // 2:
            assert set(reps) == brute


class TestNormPrimes:
    """_norm_primes and _split_prime, through the two-square generators of
    a norm."""

    def test_split_prime_matches_two_square_rep(self):
        for p in range(5, 50_000, 4):
            if is_prime(p):
                (u, v), = two_square_reps(p)
                assert gaussian._split_prime(p) == GaussianInt(v, u)

    @given(st.builds(GaussianInt, st.integers(-31623, 31623),
                     st.integers(-31623, 31623)).filter(bool))
    @settings(max_examples=300, deadline=2000)
    def test_generators_up_to_norm_2e9(self, w):
        # a norm up to 2e9 can have two prime factors above the
        # trial-division limit 10^4, so factorize's Pollard rho runs too
        gens = square_sum_generators(w.norm())
        assert all(g.norm() == w.norm() and g.re >= g.im >= 0 for g in gens)
        u, v = abs(w.re), abs(w.im)
        assert GaussianInt(max(u, v), min(u, v)) in gens

    def test_generators_are_the_two_square_reps(self):
        for s in range(1, 10_001):
            gens, reps = square_sum_generators(s), two_square_reps(s)
            assert len(gens) == len(reps)
            assert {(g.im, g.re) for g in gens} == set(reps)


class TestHourglassCondition:
    def test_ramified_point_is_real(self):
        rep = hourglass_condition(GaussianInt(1, 1), GaussianInt(3, 1),
                                  GaussianInt(3, 2))
        assert not rep.holds
        assert "x" in rep.real_fourth_powers

    def test_equal_inputs_are_proportional(self):
        w = GaussianInt(2, 1)
        rep = hourglass_condition(w, w, w)
        assert not rep.holds
        assert ("x", "y") in rep.proportional_pairs

    def test_identity_numbers_from_worked_triple(self):
        x, y, z = GaussianInt(2, 1), GaussianInt(3, 1), GaussianInt(3, 2)
        assert (x**4 * y**4) == GaussianInt(-2500, 0)
        rep = hourglass_condition(x, y, z)
        assert not rep.identity_holds
        assert (x**4 * y**4 * z**4).im == -300000
        assert -4 * 24 * 96 * 120 == -1105920
        assert not rep.holds
        assert rep.real_fourth_powers == ()
        assert rep.proportional_pairs == ()


class TestHourglassGenerators:
    def test_trivial(self):
        one = GaussianInt(1, 0)
        assert hourglass_generators(one, one, one) == (one, one, one)

    def test_worked_triple(self):
        a, b, g = hourglass_generators(GaussianInt(2, 1), GaussianInt(3, 1),
                                       GaussianInt(3, 2))
        assert (a, b, g) == (GaussianInt(23, 11), GaussianInt(19, 17),
                             GaussianInt(25, 5))
        assert a.norm() == b.norm() == g.norm() == 650
        assert pow4_parts(a)[1] == 412896
        assert pow4_parts(b)[1] == 93024
        assert pow4_parts(g)[1] == 300000
        assert 412896 + 93024 + 300000 == -300000 + 1105920

    def test_repeated_input(self):
        w = GaussianInt(2, 1)
        a, b, g = hourglass_generators(w, w, w)
        assert a == b == g == GaussianInt(10, 5)
        assert a.norm() == 125

    @given(st.builds(GaussianInt, st.integers(-200, 200),
                     st.integers(-200, 200)),
           st.builds(GaussianInt, st.integers(-200, 200),
                     st.integers(-200, 200)),
           st.builds(GaussianInt, st.integers(-200, 200),
                     st.integers(-200, 200)))
    def test_proof_identity(self, x, y, z):
        a, b, g = hourglass_generators(x, y, z)
        lhs = pow4_parts(a)[1] + pow4_parts(b)[1] + pow4_parts(g)[1]
        rhs = (x**4 * y**4 * z**4).im \
            + 4 * pow4_parts(x)[1] * pow4_parts(y)[1] * pow4_parts(z)[1]
        assert lhs == rhs
        assert a.norm() == b.norm() == g.norm() == \
            x.norm() * y.norm() * z.norm()


class TestHourglassGuess:
    def test_1105_reproduces_the_classic_candidate(self):
        cand = hourglass_guess(1105)
        assert cand is not None
        assert cand.cells == (367, 1337, 1151, 1105, -1057, 809, 1519)
        assert cand.report.sums_equal_count == 3
        assert cand.report.line_sums.count(3 * 1105**2) == 3
        assert not cand.report.is_magic
        assert [str(g) for g in cand.generators] == ["32+9i", "24+23i", "33+4i"]

    def test_insufficient_representations(self):
        assert hourglass_guess(25) is None
        assert hourglass_guess(5) is None
        assert hourglass_guess(1) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hourglass_guess(0)

    def test_center_lines_hold_by_construction(self):
        for s in (325, 1105, 5525):
            cand = hourglass_guess(s)
            assert cand is not None
            a, b, c, e, g, h, i = cand.cells
            assert a * a + e * e + i * i == 3 * s * s
            assert b * b + e * e + h * h == 3 * s * s
            assert c * c + e * e + g * g == 3 * s * s

    def test_generators_cover_all_reps(self):
        gens = square_sum_generators(1105)
        reps = {(min(g.re, g.im), max(g.re, g.im)) for g in gens}
        assert reps == set(two_square_reps(1105))

    @pytest.mark.parametrize("s, expected", [
        (1105, [(32, 9), (24, 23), (33, 4), (31, 12)]),
        (325, [(18, 1), (17, 6), (15, 10)]),
        (585, [(21, 12), (24, 3)]),
        (50, [(7, 1), (5, 5)]),
        (32045, [(178, 19), (142, 109), (166, 67), (163, 74), (157, 86),
                 (173, 46), (179, 2), (131, 122)]),
    ])
    def test_generator_order_pinned(self, s, expected):
        # the order fixes which generators hourglass_guess picks
        assert [(g.re, g.im) for g in square_sum_generators(s)] == expected


class TestVerifyHit:
    # no search finds a hit, so these are the only runs of _verify_hit;
    # the generators of the worked triple share the norm 650
    triple = (GaussianInt(2, 1), GaussianInt(3, 1), GaussianInt(3, 2))

    def test_condition_failure_raises(self):
        with pytest.raises(AssertionError,
                           match="fails the hourglass condition"):
            hourglass._verify_hit(*self.triple)

    def test_validation_failure_raises(self, monkeypatch):
        monkeypatch.setattr(gaussian, "hourglass_condition",
                            lambda x, y, z: types.SimpleNamespace(holds=True))
        with pytest.raises(AssertionError,
                           match="passed the condition but fails validation"):
            hourglass._verify_hit(*self.triple)


class TestSearchHourglass:
    def test_exhaustive_small_is_empty(self):
        result = search_hourglass("exhaustive", 50)
        assert result.hits == ()
        assert result.triples_tested > 0

    def test_product_first_is_empty(self):
        result = search_hourglass("product-first", 10**4)
        assert result.hits == ()
        assert result.candidates_enumerated > 0
        assert result.triples_tested > 0

    def test_ramified_points_never_enumerated(self):
        # 1+i has a real fourth power, so no triple containing it is tested
        result = search_hourglass("exhaustive", 2)
        assert result.candidates_enumerated == 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            search_hourglass("sideways", 10)
        with pytest.raises(ValueError):
            search_hourglass("exhaustive", 0)

    @pytest.mark.parametrize("mode, bound", [
        ("exhaustive", 1), ("exhaustive", 5), ("exhaustive", 800),
        ("product-first", 1), ("product-first", 10**4)])
    def test_progress_logged_at_whole_percents(self, caplog, mode, bound):
        with caplog.at_level("INFO", logger="parker.hourglass"):
            search_hourglass(mode, bound)
        rows = re.compile(rf"{mode}: (\d+)/(\d+) rows, (\d+) positive "
                          r"slopes; \d+ rows/s, ETA \d+\.\d s")
        pairs = re.compile(rf"{mode}: (\d+)/(\d+) pairs, "
                           r"0 slope triples; \d+ pairs/s, ETA \d+\.\d s")
        # the walk's rows come first, then the kernel's pairs
        phases = [[rows.fullmatch(m) for m in caplog.messages
                   if m.split()[2] == "rows,"],
                  [pairs.fullmatch(m) for m in caplog.messages
                   if m.split()[2] == "pairs,"]]
        assert [m.split()[2] for m in caplog.messages] \
            == ["rows,"] * len(phases[0]) + ["pairs,"] * len(phases[1])
        for found in phases:
            assert all(found) and 1 <= len(found) <= 101
            pos = [int(m[1]) for m in found]
            assert pos == sorted(set(pos)) and pos[-1] == int(found[0][2])
            total = int(found[0][2])
            # one line per whole percent at most
            assert len({p * 100 // total for p in pos} if total else pos) \
                == len(pos)
        slopes = [int(m[3]) for m in phases[0]]
        assert slopes == sorted(slopes)
        # every row of the walk closes a line while it is one whole percent
        rows_total = int(phases[0][0][2])
        assert rows_total \
            == math.isqrt(bound // 25 if mode == "product-first" else bound)
        assert len(phases[0]) == min(max(rows_total, 1), 100)

    def test_long_row_logs_at_every_percent(self, caplog):
        # row 0 holds 199 of the 205 pairs: the kernel cuts it at each due
        # position, so every line lands on its whole-percent target
        slopes = [(k, 1) for k in range(1, 201)]
        ends = [200, 5, 6]
        total = 199 + 3 + 3
        logged = []

        class Recording(hourglass._Progress):
            def line(self, pos, counters):
                logged.append((pos, self.due))
                super().line(pos, counters)

        with caplog.at_level("INFO", logger="parker.hourglass"):
            hourglass._slope_triples(slopes, set(slopes), ends,
                                    Recording("test", total, "pairs"))
        assert all(pos == due for pos, due in logged)
        assert [pos for pos, _ in logged] \
            == [-(-k * total // 100) for k in range(1, 101)]

    @pytest.mark.parametrize("mode", sorted(MAX_BOUND))
    def test_quiet_search_reads_no_clock(self, mode, monkeypatch, caplog):
        def no_clock():
            raise AssertionError("clock read")

        monkeypatch.setattr(hourglass, "time",
                            types.SimpleNamespace(perf_counter=no_clock))
        with caplog.at_level("WARNING", logger="parker.hourglass"):
            search_hourglass(mode, 500)
        assert caplog.messages == []

    def test_exhaustive_eta_tracks_the_clock(self, monkeypatch, caplog):
        # a clock that ticks once per gcd, the kernel's work per pair and the
        # set-up's per point: the ETA at the 50% line is within 2x of the
        # time actually left
        ticks = [0]

        def gcd(a, b):
            ticks[0] += 1
            return math.gcd(a, b)

        monkeypatch.setattr(hourglass, "math", types.SimpleNamespace(
            gcd=gcd, isqrt=math.isqrt))
        monkeypatch.setattr(hourglass, "time", types.SimpleNamespace(
            perf_counter=lambda: ticks[0] * 1e-6))
        lines = []

        class Recorder(logging.Handler):
            def emit(self, record):
                lines.append((record.getMessage(), ticks[0]))

        log = logging.getLogger("parker.hourglass")
        handler = Recorder()
        log.addHandler(handler)
        try:
            with caplog.at_level("INFO", logger="parker.hourglass"):
                search_hourglass("exhaustive", 5000)
        finally:
            log.removeHandler(handler)
        assert len(lines) > 50
        for message, at in lines:
            match = re.match(r"exhaustive: (\d+)/(\d+) pairs, .* ETA (\S+) s",
                             message)
            if match and int(match[1]) >= int(match[2]) / 2:
                eta = float(match[3])
                break
        left = (ticks[0] - at) * 1e-6
        assert left / 2 <= eta <= 2 * left

    def test_exhaustive_points_in_norm_order(self):
        # one slope triple planted on (2, 1), (6, 1) and (5, 4): within a
        # hit and across hits the points go in (norm, re) order, so (6, 1)
        # of norm 37 comes before (5, 4) of norm 41
        bound = 2000
        pow4 = _planted_pow4({(2, 1): (1, 2), (6, 1): (3, 1),
                              (5, 4): (-9, 7)})
        g = GaussianInt
        assert _search_hits("exhaustive", bound, pow4) \
            == [(g(1, 2), g(1, 6), g(4, 5)), (g(2, 1), g(6, 1), g(5, 4))]
        pts = [(re, im) for re in range(1, 45) for im in range(45)
               if re * re + im * im <= bound and re != im and im]
        result = search_hourglass("exhaustive", bound)
        assert result.candidates_enumerated == len(pts)
        assert result.triples_tested \
            == len(pts) * (len(pts) + 1) * (len(pts) + 2) // 6
        assert len(list(hourglass._candidate_points(bound))) \
            == len({(re, im) for re in range(1, 45) for im in range(45)
                    if re * re + im * im <= bound})

    @pytest.mark.parametrize("mode", sorted(MAX_BOUND))
    def test_bound_above_limit_fails_before_enumeration(self, mode,
                                                        monkeypatch):
        def no_points(bound):
            raise AssertionError("points enumerated")

        monkeypatch.setattr(hourglass, "_candidate_points", no_points)
        for bound in (MAX_BOUND[mode] + 1, 10**30):
            with pytest.raises(ValueError, match="limit"):
                search_hourglass(mode, bound)

    def test_counters_at_benchmark_bounds(self):
        result = search_hourglass("exhaustive", 800)
        assert result.hits == ()
        assert result.triples_tested == 33025784 == 582 * 583 * 584 // 6
        assert result.candidates_enumerated == 582
        result = search_hourglass("product-first", 10**5)
        assert result.hits == ()
        assert result.triples_tested == 1780
        assert result.candidates_enumerated == 3038

    @pytest.mark.parametrize("mode, bound, tested, enumerated", [
        ("exhaustive", 5000, 9195965856, 3806),
        ("product-first", 2000, 14, 48),
        ("product-first", 10**6, 23516, 31066)])
    def test_counters_at_larger_bounds(self, mode, bound, tested,
                                       enumerated):
        result = search_hourglass(mode, bound)
        assert result.hits == ()
        assert result.triples_tested == tested
        assert result.candidates_enumerated == enumerated

    def test_product_first_factors_nothing(self, monkeypatch):
        def no_factoring(n):
            raise AssertionError("factored")

        # gaussian imports factorize from algebra when it factors
        monkeypatch.setattr(algebra, "factorize", no_factoring)
        monkeypatch.setattr(gaussian, "_norm_primes", no_factoring)
        result = search_hourglass("product-first", 10**5)
        assert (result.triples_tested, result.candidates_enumerated) \
            == (1780, 3038)


# ---------------------------------------------------------------------------
# References for the slope kernel, taken from the definition: every triple
# of points (exhaustive) or every triple whose norms multiply to at most the
# bound (product-first), tested against the hourglass condition.


def _passes(x, y, z):
    """The hourglass condition on three fourth powers."""
    return x.im and y.im and z.im \
        and (x * y * z).im == -4 * x.im * y.im * z.im \
        and not any(a.re * b.im == a.im * b.re
                    for a, b in ((x, y), (x, z), (y, z)))


def _hit_key(triple):
    """The order of product-first hits: the product w by (norm, re), then
    the (norm, re) keys of the triple's points, which come sorted."""
    w = (triple[0] * triple[1] * triple[2]).first_quadrant()
    return (w.norm(), w.re) + tuple((v.norm(), v.re) for v in triple)


def _cubic_triples(p4):
    """Every i <= j <= k whose fourth powers pass the hourglass condition;
    the reference for the exhaustive search.

    p4 holds fourth powers as (re, im) pairs.  With X, Y, Z = p4[i], p4[j],
    p4[k] and P = X*Y the identity Im[P*Z] == -4*Im X*Im Y*Im Z reads

        Im P * Re Z == (-4*Im X*Im Y - Re P) * Im Z,

    so a = Im P and b = -4*Im X*Im Y - Re P are computed once per pair, and
    each Z is tested exactly with a * Re Z == b * Im Z.  A pair with a real
    fourth power or two proportional ones is skipped, and so is each Z that
    is real or proportional to X or Y.  The triples come in ascending order.
    """
    out = []
    for i, (xr, xi) in enumerate(p4):
        for j in range(i, len(p4)):
            yr, yi = p4[j]
            if not (xi and yi) or xr * yi == xi * yr:
                continue
            a, b = xr * yi + xi * yr, -3 * xi * yi - xr * yr
            out += [(i, j, k) for k, (zr, zi) in enumerate(p4[j:], j)
                    if zi and a * zr == b * zi
                    and xr * zi != xi * zr and yr * zi != yi * zr]
    return out


def _product_triples(bound, pow4):
    """The product-first hits at bound with fourth powers from pow4: every
    triple x <= y <= z, in (norm, re) order, of first-quadrant points with
    a nonreal fourth power, norms multiplying to at most bound and passing
    the hourglass condition, sorted by _hit_key.

    5 is the least norm of a point with a nonreal fourth power, so each
    point of such a triple has norm <= bound/25.
    """
    pts = sorted((GaussianInt(*w)
                  for w in hourglass._candidate_points(bound // 25)
                  if pow4(*w)[1]), key=lambda v: (v.norm(), v.re))
    p4 = {v: GaussianInt(*pow4(v.re, v.im)) for v in pts}
    out = []
    for i, x in enumerate(pts):
        for j in range(i, len(pts)):
            y = pts[j]
            nxy = x.norm() * y.norm()
            if nxy * y.norm() > bound:  # and so for every later y
                break
            for z in pts[j:]:
                if nxy * z.norm() > bound:
                    break
                if _passes(p4[x], p4[y], p4[z]):
                    out.append((x, y, z))
    return sorted(out, key=_hit_key)


# points re > im >= 1 in (norm, re) order; fourth_power_lists plants on the
# first of them, all of norm <= 50
_PLANT_POINTS = sorted(((re, im) for re in range(2, 8) for im in range(1, re)),
                       key=lambda w: (w[0] ** 2 + w[1] ** 2, w[0]))[:12]


@st.composite
def fourth_power_lists(draw):
    """Nonzero integer pairs, some planted on the identity's line, planted
    on the points of _PLANT_POINTS in a drawn order; mirroring each pair as
    (re, -im) onto its mirror point is _planted_pow4's part."""
    nonzero = st.integers(-40, 40).filter(bool)
    pairs = draw(st.lists(st.tuples(nonzero, nonzero), min_size=1,
                          max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        x = GaussianInt(*draw(st.sampled_from(pairs)))
        y = GaussianInt(*draw(st.sampled_from(pairs)))
        p = x * y
        a, b = p.im, -4 * x.im * y.im - p.re
        if a and b:
            t, g = draw(st.integers(-3, 3).filter(bool)), math.gcd(a, b)
            pairs.insert(draw(st.integers(0, len(pairs))),
                         (t * b // g, t * a // g))
    points = draw(st.permutations(_PLANT_POINTS))
    return dict(zip(points, pairs))


def _planted_pow4(planted, real=hourglass._pow4):
    """_pow4 with the fourth powers in planted on its points, and the
    mirrored (re, -im) on their mirror points (im, re); real gives the
    fourth powers of the other points."""

    def pow4(re, im):
        if (re, im) in planted:
            return planted[re, im]
        if (im, re) in planted:
            r, i = planted[im, re]
            return r, -i
        return real(re, im)

    return pow4


@st.composite
def planted_points(draw, max_norm, bound=None):
    """Fourth powers planted on points re > im >= 1 of norm <= max_norm:
    for each of a few point triples, slopes s_x = a/b and s_y = c/d and
    the third slope -(3 + s_x*s_y)/(s_x + s_y) that completes sigma_2 = -3.
    With a bound, about half the triples have norms multiplying to at most
    bound.
    """
    def norm(w):
        return w[0] ** 2 + w[1] ** 2

    points = [(re, im) for re in range(2, 12) for im in range(1, re)
              if norm((re, im)) <= max_norm]
    planted = {}
    for _ in range(draw(st.integers(1, 3))):
        x, y = draw(st.lists(st.sampled_from(points), min_size=2,
                             max_size=2, unique=True))
        zs = [z for z in points if z not in (x, y)]
        if bound and draw(st.booleans()):
            zs = [z for z in zs if norm(x) * norm(y) * norm(z) <= bound] \
                or zs
        z = draw(st.sampled_from(zs))
        a, b, c, d = (draw(st.integers(1, 6)) for _ in range(4))
        planted.update({x: (a, b), y: (c, d),
                        z: (-(a * c + 3 * b * d), b * c + a * d)})
    return planted


def _search_hits(mode, bound, pow4):
    """search_hourglass's hits as point triples, with fourth powers from
    pow4 and no verification (planted hits are no real hourglasses)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hourglass, "_pow4", pow4)
        mp.setattr(hourglass, "_verify_hit", lambda x, y, z: ())
        return [(h.x, h.y, h.z) for h in search_hourglass(mode, bound).hits]


points = st.builds(GaussianInt, st.integers(-200, 200),
                   st.integers(-200, 200))


class TestSlopeKernel:
    """The search's slope kernel against the direct references: the cubic
    walk over every triple of points, and the product-first enumeration of
    every triple whose norms multiply to at most the bound."""

    def test_planted_hit(self):
        # slopes 1/2, 3 and -9/7: sigma_2 = 3/2 - 27/7 - 9/14 = -3
        planted = {(2, 1): (1, 2), (3, 1): (3, 1), (3, 2): (-9, 7)}
        g = GaussianInt
        assert _search_hits("exhaustive", 50, _planted_pow4(planted)) \
            == [(g(1, 2), g(1, 3), g(2, 3)), (g(2, 1), g(3, 1), g(3, 2))]
        planted[3, 2] = (-9, 8)
        assert _search_hits("exhaustive", 50, _planted_pow4(planted)) == []

    @given(st.one_of(points, st.integers(-200, 200).map(
               lambda k: GaussianInt(k, k))),
           points, points, st.sampled_from(["z", "x", "mirror of y"]))
    def test_cubic_reference_is_the_condition(self, x, y, z, third):
        # the reference's test of one triple, on real points with their
        # true fourth powers, is hourglass_condition.  x is at times k+ki,
        # whose fourth power is real, and z at times x or the mirror of y,
        # whose fourth power is conj(y^4): with a real x^4 the identity
        # holds on (x, y, mirror of y), and the condition fails all the same
        z = {"z": z, "x": x, "mirror of y": GaussianInt(y.im, y.re)}[third]
        p4 = [hourglass._pow4(v.re, v.im) for v in (x, y, z)]
        assert ((0, 1, 2) in _cubic_triples(p4)) \
            == hourglass_condition(x, y, z).holds

    @given(fourth_power_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_cubic_reference(self, planted):
        # every point off the planted ones and their mirrors gets a real
        # fourth power, so the search sees exactly the planted pairs
        bound = 50
        pow4 = _planted_pow4(planted, real=lambda re, im: (1, 0))
        pts = [w for w in hourglass._candidate_points(bound) if pow4(*w)[1]]
        pts.sort(key=lambda w: (w[0] ** 2 + w[1] ** 2, w[0]))
        cubic = _cubic_triples([pow4(*w) for w in pts])
        assert _search_hits("exhaustive", bound, pow4) \
            == [tuple(GaussianInt(*pts[t]) for t in idx) for idx in cubic]

    @given(planted_points(max_norm=200))
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_planted_slopes_match_cubic_reference(self, planted):
        bound, pow4 = 200, _planted_pow4(planted)
        pts = sorted((w for w in hourglass._candidate_points(bound)
                      if pow4(*w)[1]),
                     key=lambda w: (w[0] ** 2 + w[1] ** 2, w[0]))
        expected = [tuple(GaussianInt(*pts[t]) for t in idx)
                    for idx in _cubic_triples([pow4(*w) for w in pts])]
        assert _search_hits("exhaustive", bound, pow4) == expected

    @given(planted_points(max_norm=40, bound=4000))
    @settings(max_examples=40, deadline=None)
    def test_product_first_matches_direct_enumeration(self, planted):
        bound, pow4 = 4000, _planted_pow4(planted)
        assert _search_hits("product-first", bound, pow4) \
            == _product_triples(bound, pow4)

    def test_hits_on_one_product_come_in_split_order(self):
        # w = (2+i)(3+2i)(4+i)(5+2i) = 178+19i splits as a*b*(cd) and as
        # (ab)*c*d over six distinct points; slopes planted on both splits
        # give two hits on w and two on its mirror 19+178i.  On one product
        # the split whose sorted points have the smaller (norm, re) keys
        # comes first: a*b*(cd), with norms 5, 13 and 493, before (ab)*c*d,
        # with norms 17, 29 and 65
        planted = {(2, 1): (1, 1), (3, 2): (2, 1), (18, 13): (-5, 3),
                   (4, 7): (1, 2), (4, 1): (3, 1), (5, 2): (-9, 7)}
        pow4 = _planted_pow4(planted)
        g = GaussianInt
        expected = [(g(1, 2), g(2, 3), g(13, 18)), (g(1, 4), g(2, 5), g(7, 4)),
                    (g(2, 1), g(3, 2), g(18, 13)), (g(4, 1), g(5, 2), g(4, 7))]
        assert _product_triples(32045, pow4) == expected
        assert _search_hits("product-first", 32045, pow4) == expected
        assert _product_triples(32044, pow4) == []
        assert _search_hits("product-first", 32044, pow4) == []
