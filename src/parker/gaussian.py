"""Exact Gaussian-integer arithmetic and the magic-hourglass machinery.

A Gaussian integer w = m + ni maps to a three-term arithmetic progression of
squares through chi(w) = (Re[w^2] + Im[w^2], w*conj(w), Re[w^2] - Im[w^2]),
which always satisfies r^2 + t^2 = 2*s^2.  Triples (x, y, z) whose fourth
powers satisfy Im[x^4 y^4 z^4] = -4*Im[x^4]*Im[y^4]*Im[z^4], with each fourth
power strictly complex and no two of them real multiples of each other, would
yield a full magic hourglass of squares over Z; both search modes below look
for such triples.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

from .algebra import Integers, factorize
from .core import ValidationReport, validate_hourglass

log = logging.getLogger("parker.gaussian")


@dataclass(frozen=True)
class GaussianInt:
    """An element of Z[i] with arbitrary-precision components."""

    re: int
    im: int

    def __add__(self, o):
        return GaussianInt(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GaussianInt(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, o):
        if isinstance(o, int):
            return GaussianInt(self.re * o, self.im * o)
        return GaussianInt(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out, base = GaussianInt(1, 0), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.re or self.im)

    def conj(self):
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def first_quadrant(self) -> "GaussianInt":
        """The unique associate with re > 0 and im >= 0 (re >= 0 for 0)."""
        w = self
        for _ in range(4):
            if w.re > 0 and w.im >= 0:
                return w
            w = GaussianInt(-w.im, w.re)
        return self  # zero

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        mag = abs(self.im)
        imp = "i" if mag == 1 else f"{mag}i"
        if self.re == 0:
            return f"{'-' if self.im < 0 else ''}{imp}"
        return f"{self.re}{sign}{imp}"


ONE = GaussianInt(1, 0)


def chi(w: GaussianInt) -> tuple[int, int, int]:
    """Map w to the square progression (r, s, t) with r^2 + t^2 = 2*s^2."""
    w2 = w * w
    return (w2.re + w2.im, w.norm(), w2.re - w2.im)


def pow4_parts(w: GaussianInt) -> tuple[int, int]:
    """(Re[w^4], Im[w^4]); with (r, s, t) = chi(w) these equal (r*t, r^2 - s^2)."""
    return _pow4(w.re, w.im)


@dataclass(frozen=True)
class CongruumTriple:
    """A three-term arithmetic progression of squares and its parameters."""

    r: int
    s: int
    t: int
    m: int
    n: int
    k: int
    congruum: int


def congruum_triple(m: int, n: int, k: int) -> CongruumTriple:
    """The progression r^2 - s^2 = s^2 - t^2 = 4*m*n*(m+n)*(m-n)*k^2."""
    r = k * (m * m + 2 * m * n - n * n)
    s = k * (m * m + n * n)
    t = k * (m * m - 2 * m * n - n * n)
    return CongruumTriple(r, s, t, m, n, k, r * r - s * s)


def two_square_reps(s: int) -> list[tuple[int, int]]:
    """All unordered pairs {u, v} with u^2 + v^2 = s, 0 <= u <= v, ascending."""
    if s < 0:
        raise ValueError("need a nonnegative integer")
    out = []
    u = 0
    while 2 * u * u <= s:
        v2 = s - u * u
        v = math.isqrt(v2)
        if v * v == v2:
            out.append((u, v))
        u += 1
    return out


# ---------------------------------------------------------------------------
# Factorization.


@dataclass(frozen=True)
class GaussianFactorization:
    """unit * product(prime^exponent) with primes in first-quadrant form."""

    unit: GaussianInt
    factors: tuple[tuple[GaussianInt, int], ...]

    def product(self) -> GaussianInt:
        out = self.unit
        for prime, e in self.factors:
            out = out * prime**e
        return out


def _split_prime(p: int) -> GaussianInt:
    """The Gaussian prime a + bi with a > b > 0 and norm p, p == 1 (mod 4).

    Hermite-Serret: take z with z^2 == -1 (mod p); the first remainder below
    sqrt(p) in Euclid's algorithm on (p, z) in Z is one part of p = a^2 + b^2.
    """
    for g in range(2, p):
        if pow(g, (p - 1) // 2, p) == p - 1:
            z = pow(g, (p - 1) // 4, p)
            break
    else:  # pragma: no cover
        raise ArithmeticError(f"no square root of -1 mod {p}")
    root = math.isqrt(p)
    a, b = p, z
    while b > root:
        a, b = b, a % b
    c = math.isqrt(p - b * b)
    if b * b + c * c != p:  # pragma: no cover
        raise ArithmeticError(f"splitting {p} failed")
    return GaussianInt(max(b, c), min(b, c))


def _norm_primes(n: int):
    """The Gaussian primes over the rational factorization of n >= 1.

    Returns (fixed, split), or None when an inert prime has an odd exponent
    (no Gaussian integer has norm n).  2 ramifies as (1+i)^2 and an inert
    q == 3 (mod 4) has norm q^2, so in every w of norm n their exponents are
    forced: fixed lists (1+i, e) and (q, e/2).  A p == 1 (mod 4) splits into
    pi = _split_prime(p) and its conjugate, and split lists (pi, e) with e
    the exponent of p, shared between the two.
    """
    fixed, split = [], []
    for p, e in factorize(n).items():
        if p == 2:
            fixed.append((GaussianInt(1, 1), e))
        elif p % 4 == 3:
            if e % 2:
                return None
            fixed.append((GaussianInt(p, 0), e // 2))
        else:
            split.append((_split_prime(p), e))
    return fixed, split


def _exact_quotient(w: tuple[int, int], d: GaussianInt) -> tuple[int, int] | None:
    """(re, im) of w / d when d divides w = (re, im) in Z[i], else None.

    w / d = w * conj(d) / norm(d), so d divides w exactly when norm(d)
    divides both parts of w * conj(d).
    """
    re, im = w
    n = d.norm()
    qr, rr = divmod(re * d.re + im * d.im, n)
    qi, ri = divmod(im * d.re - re * d.im, n)
    return None if rr or ri else (qr, qi)


def gaussian_factor(w: GaussianInt) -> GaussianFactorization:
    """Factor a nonzero Gaussian integer into first-quadrant primes and a unit.

    The rational norm is factored first (trial division plus Pollard rho) and
    _norm_primes maps it to Gaussian primes.  The ramified and inert
    exponents are forced; each split prime's exponent is found by trial
    division, and its conjugate (in first-quadrant form) takes the rest.
    The unit is w over the product of the prime powers.
    """
    if not w:
        raise ValueError("cannot factor 0")
    primes = _norm_primes(w.norm())
    if primes is None:  # pragma: no cover
        raise ArithmeticError(f"norm of {w} has an inert prime to an odd power")
    fixed, split = primes
    factors = list(fixed)
    rest = (w.re, w.im)
    for pi, e in split:
        count = 0
        while count < e and (nxt := _exact_quotient(rest, pi)) is not None:
            rest, count = nxt, count + 1
        pj = GaussianInt(pi.im, pi.re)  # conj(pi) in first-quadrant form
        factors += [(q, k) for q, k in ((pi, count), (pj, e - count)) if k]
    factors.sort(key=lambda fe: (fe[0].norm(), fe[0].re, fe[0].im))
    unit = _exact_quotient((w.re, w.im),
                           GaussianFactorization(ONE, tuple(factors)).product())
    if unit is None or unit[0] ** 2 + unit[1] ** 2 != 1:  # pragma: no cover
        raise ArithmeticError(f"factorization of {w} left non-unit {unit}")
    result = GaussianFactorization(GaussianInt(*unit), tuple(factors))
    if result.product() != w:  # pragma: no cover
        raise ArithmeticError(f"factorization of {w} does not multiply back")
    return result


# ---------------------------------------------------------------------------
# The hourglass condition and construction.


@dataclass(frozen=True)
class HourglassConditionReport:
    """Outcome of the product-identity test on a triple (x, y, z)."""

    holds: bool
    identity_holds: bool
    real_fourth_powers: tuple[str, ...]
    proportional_pairs: tuple[tuple[str, str], ...]


def hourglass_condition(x: GaussianInt, y: GaussianInt,
                        z: GaussianInt) -> HourglassConditionReport:
    """Test Im[x^4 y^4 z^4] == -4*Im[x^4]*Im[y^4]*Im[z^4] plus degeneracy.

    The triple qualifies only when the identity holds, every fourth power is
    strictly complex, and no two fourth powers are real multiples of each
    other (tested by cross-multiplication, no division).
    """
    powers = {n: (v * v) ** 2 for n, v in (("x", x), ("y", y), ("z", z))}
    real = tuple(n for n, p4 in powers.items() if p4.im == 0)
    names = ("x", "y", "z")
    prop = tuple(
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
        if powers[a].re * powers[b].im == powers[a].im * powers[b].re)
    lhs = (powers["x"] * powers["y"] * powers["z"]).im
    rhs = -4 * powers["x"].im * powers["y"].im * powers["z"].im
    identity = lhs == rhs
    return HourglassConditionReport(
        holds=identity and not real and not prop,
        identity_holds=identity,
        real_fourth_powers=real,
        proportional_pairs=prop)


def hourglass_generators(x: GaussianInt, y: GaussianInt, z: GaussianInt):
    """The conjugate-product triple sharing one norm: (x~yz, xy~z, xyz~)."""
    return (x.conj() * y * z, x * y.conj() * z, x * y * z.conj())


# ---------------------------------------------------------------------------
# Guess-and-check hourglass candidates.


@dataclass(frozen=True)
class HourglassCandidate:
    """A candidate hourglass built from three square progressions.

    cells holds the pre-square integers (a, b, c, e, g, h, i); signs are
    erased by squaring during validation.  The three center lines sum to
    3*center^2 by construction.
    """

    center: int
    generators: tuple[GaussianInt, ...]
    cells: tuple[int, ...]
    report: ValidationReport


def square_sum_generators(s: int) -> list[GaussianInt]:
    """Generators w with norm(w) = s, one per unordered two-square rep of s.

    Enumeration order follows the conjugation patterns of the split prime
    factors (ascending by norm, last factor varying fastest), which is the
    order the factorization-based guess method explores.  Each generator is
    normalized so that re >= im >= 0.
    """
    primes = _norm_primes(s) if s >= 1 else None
    if primes is None:
        return []
    fixed, split = primes
    base = ONE
    for pi, e in fixed:
        base = base * pi**e
    out, seen = [], set()
    for choice in product(*(range(e + 1) for _, e in split)):
        w = base
        for c, (pi, e) in zip(choice, split):
            w = w * pi**c * pi.conj() ** (e - c)
        u, v = abs(w.re), abs(w.im)
        rep = (max(u, v), min(u, v))
        if rep not in seen:
            seen.add(rep)
            out.append(GaussianInt(*rep))
    return out


def _assemble_cells(progs, s):
    # One progression per center line: (a,e,i), then (c,e,g), then (b,e,h).
    r1, _, t1 = progs[0]
    r2, _, t2 = progs[1]
    r3, _, t3 = progs[2]
    return (t1, r3, r2, s, t2, t3, r1)


def hourglass_guess(s: int) -> HourglassCandidate | None:
    """Build the guess-and-check hourglass candidate centered at s^2.

    Needs at least three two-square representations of s with both parts
    nonzero and distinct; returns None (a normal outcome) otherwise.  The
    three earliest qualifying generators in square_sum_generators order give
    the three center-line progressions.
    """
    if s < 1:
        raise ValueError("center must be a positive integer")
    gens = [g for g in square_sum_generators(s) if g.im > 0 and g.re != g.im]
    if len(gens) < 3:
        return None
    gens = tuple(gens[:3])
    progs = [chi(g) for g in gens]
    cells = _assemble_cells(progs, s)
    report = validate_hourglass(tuple(c * c for c in cells), Integers())
    return HourglassCandidate(s, gens, cells, report)


# ---------------------------------------------------------------------------
# Hourglass search drivers.

# Im[w^4] is divisible by 24 for every w in Z[i], so the product side of the
# identity is divisible by 4 * 24**3.
_PRODUCT_SIEVE = 4 * 24**3


@dataclass(frozen=True)
class HourglassHit:
    x: GaussianInt
    y: GaussianInt
    z: GaussianInt
    cells: tuple[int, ...]


@dataclass(frozen=True)
class HourglassSearchResult:
    mode: str
    bound: int
    hits: tuple[HourglassHit, ...]
    triples_tested: int
    candidates_enumerated: int


def _verify_hit(x, y, z) -> tuple[int, ...]:
    alpha, beta, gamma = hourglass_generators(x, y, z)
    s = alpha.norm()
    if beta.norm() != s or gamma.norm() != s:  # pragma: no cover
        raise AssertionError("generator norms disagree")
    cells = _assemble_cells([chi(alpha), chi(beta), chi(gamma)], s)
    report = validate_hourglass(tuple(c * c for c in cells), Integers())
    if not report.is_magic:
        raise AssertionError(
            f"triple {x}, {y}, {z} passed the condition but fails validation")
    return cells


def _pow4(re: int, im: int) -> tuple[int, int]:
    """(Re, Im) of (re + im*i)^4; Im is 4*re*im*(re^2 - im^2)."""
    d = re * re - im * im
    p = re * im
    return (d * d - 4 * p * p, 4 * p * d)


def _candidate_points(bound: int):
    """First-quadrant (re, im) with re >= 1, im >= 0 and norm <= bound.

    One point per associate class, row by row: re ascending, then im.
    """
    for re in range(1, math.isqrt(bound) + 1):
        for im in range(math.isqrt(bound - re * re) + 1):
            yield re, im


def _count_points(bound: int) -> int:
    """How many points _candidate_points(bound) yields."""
    return sum(math.isqrt(bound - re * re) + 1
               for re in range(1, math.isqrt(bound) + 1))


# Largest accepted bound per mode: at most about two minutes of search on a
# 2-CPU x86 VM (exhaustive 38 s, product-first 142 s, both under 25 MB peak
# RSS).  Exhaustive time grows with the square of its (pi/4)*bound points,
# product-first a little faster than linearly; product-first streams its
# points and the exhaustive point list holds about 15k entries at the limit.
MAX_BOUND = {"exhaustive": 20_000, "product-first": 10_000_000}


class _Progress:
    """INFO lines "mode: pos/total unit, counters; rate, ETA" on log.

    The search calls line() once pos reaches due, the next whole percent of
    total; with INFO off due stays past total and no clock is read.
    """

    def __init__(self, mode: str, total: int, unit: str):
        self.mode, self.total, self.unit = mode, total, unit
        self.due = total + 1
        if log.isEnabledFor(logging.INFO):
            self.start, self.due = time.perf_counter(), -(-total // 100)

    def line(self, pos: int, counters: str):
        elapsed = max(time.perf_counter() - self.start, 1e-9)
        log.info("%s: %d/%d %s, %s; %.0f %s/s, ETA %.1f s", self.mode, pos,
                 self.total, self.unit, counters, pos / elapsed, self.unit,
                 elapsed * (self.total - pos) / pos if pos else 0.0)
        pct = pos * 100 // self.total if self.total else 100
        self.due = -(-(pct + 1) * self.total // 100)


def search_hourglass(mode: str, bound: int) -> HourglassSearchResult:
    """Search for triples satisfying the hourglass condition.

    exhaustive mode scans all first-quadrant triples with
    norm(x) <= norm(y) <= norm(z) <= bound.  product-first mode scans
    candidate products w with norm(w) <= bound whose Im[w^4] passes the
    4*24^3 divisibility sieve, factors each, and tests every split of the
    prime multiset into three parts.  Every hit is re-verified by building
    the hourglass and validating all 5 sums; an empty result is the
    expected outcome.

    triples_tested counts the triples the search decided: in exhaustive
    mode every index triple i <= j <= k of its n points, n(n+1)(n+2)/6,
    each decided exactly by the line lookup of _line_bucket_triples; in
    product-first mode every unordered split.  candidates_enumerated counts
    the exhaustive points (those with a nonreal fourth power) or the sieved
    products.  At INFO each mode logs its progress through its triples
    (exhaustive) or points (product-first) at each whole percent.

    bound must lie in 1..MAX_BOUND[mode]; ValueError is raised before any
    point is enumerated.
    """
    if mode not in MAX_BOUND:
        raise ValueError(f"unknown search mode {mode!r}")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound > MAX_BOUND[mode]:
        raise ValueError(f"{mode} bound {bound} exceeds the limit "
                         f"{MAX_BOUND[mode]}")
    if mode == "exhaustive":
        return _search_exhaustive(bound)
    return _search_product_first(bound)


def _line_bucket_triples(p4):
    """Index triples i <= j <= k of p4 that satisfy the hourglass identity.

    p4 holds fourth powers as (re, im) pairs, every im nonzero.  With
    X, Y, Z = p4[i], p4[j], p4[k] and P = X*Y the identity
    Im[P*Z] == -4*Im X*Im Y*Im Z reads

        Im P * Re Z == (-4*Im X*Im Y - Re P) * Im Z,

    so for a fixed pair (i, j) it holds exactly for the Z with
    Re Z / Im Z == b / a, where a = Im P and b = -4*Im X*Im Y - Re P.  The
    fourth powers are bucketed once by the float re / im, and each pair
    looks its slope up as b / a.  Division of two Python ints is correctly
    rounded, so equal rationals give equal floats and no Z on the line is
    missed; distinct rationals can still round to the same float, so each
    bucket member is checked exactly with b * Im Z == a * Re Z.  Every
    triple i <= j <= k is decided, the ones off the line by the lookup.
    Triples with two proportional fourth powers are dropped.  The triples
    come in ascending order.
    """
    lines: dict[float, list[int]] = {}
    for k, (re, im) in enumerate(p4):
        lines.setdefault(re / im, []).append(k)
    out = []
    n = len(p4)
    progress = _Progress("exhaustive", n * (n + 1) * (n + 2) // 6, "triples")
    tested = 0
    for i, (xr, xi) in enumerate(p4):
        for j in range(i, n):
            yr, yi = p4[j]
            a = xr * yi + xi * yr  # Im P
            b = -3 * xi * yi - xr * yr  # -4*Im X*Im Y - Re P
            if a == 0:
                # a = b = 0 would need xr*yi = -xi*yr and xr*yr = -3*xi*yi,
                # hence yr^2 = 3*yi^2, impossible for a nonzero integer yi;
                # so no Z, whose im is nonzero, satisfies b*Im Z == 0
                assert b, "Im P and -4*Im X*Im Y - Re P are both 0"
                continue
            ks = lines.get(b / a)
            if ks is None:
                continue
            for k in ks[bisect_left(ks, j):]:
                zr, zi = p4[k]
                if b * zi != a * zr or xr * yi == xi * yr \
                        or xr * zi == xi * zr or yr * zi == yi * zr:
                    continue
                out.append((i, j, k))
        tested += (n - i) * (n - i + 1) // 2
        if tested >= progress.due:
            progress.line(tested, f"{len(out)} hits")
    if tested >= progress.due:  # no points: the one line of an empty search
        progress.line(tested, "0 hits")
    return out


def _search_exhaustive(bound):
    # points with a real fourth power (im == 0 or re == im) can never appear
    # in a qualifying triple, so they are skipped up front; the rest go in
    # (norm, re) order, which is (norm, re, im) order
    pts = sorted((w for w in _candidate_points(bound) if _pow4(*w)[1] != 0),
                 key=lambda w: (w[0] * w[0] + w[1] * w[1], w[0]))
    hits = []
    for idx in _line_bucket_triples([_pow4(*w) for w in pts]):
        x, y, z = (GaussianInt(*pts[t]) for t in idx)
        hits.append(HourglassHit(x, y, z, _verify_hit(x, y, z)))
    n = len(pts)
    return HourglassSearchResult("exhaustive", bound, tuple(hits),
                                 n * (n + 1) * (n + 2) // 6, n)


def _divisors(factors) -> dict[tuple[int, ...], tuple[int, int, int]]:
    """Every divisor of prod(prime^e), keyed by its exponent vector.

    Values are (re, im, Im[d^4]) of the product of prime powers, which may
    be any associate; Im[d^4] is the same for all four.
    """
    divs = {(): (1, 0)}
    for prime, e in factors:
        powers = [prime**k for k in range(e + 1)]
        divs = {v + (k,): (re * pk.re - im * pk.im, re * pk.im + im * pk.re)
                for v, (re, im) in divs.items()
                for k, pk in enumerate(powers)}
    return {v: (re, im, _pow4(re, im)[1]) for v, (re, im) in divs.items()}


def _splits(exponents: tuple[int, ...]):
    """Exponent vectors e1 <= e2 <= e3 (lexicographic) summing to exponents.

    Each unordered split of the prime multiset into three factors comes
    exactly once.  e2 runs over the divisors of the complement of e1 in
    ascending order, so e3 descends and the loop stops once e3 < e2.  The
    order forces e1[0] <= e2[0] <= e3[0] on the first coordinates, so e1[0]
    stops at a third of its exponent and e2[0] runs from e1[0] to half of
    what e1 leaves.
    """
    if not exponents:  # a unit: the one split 1 * 1 * 1
        yield (), (), ()
        return
    head, tail = exponents[0], exponents[1:]
    for e1 in product(range(head // 3 + 1), *(range(e + 1) for e in tail)):
        rest = tuple(e - a for e, a in zip(exponents, e1))
        for e2 in product(range(e1[0], rest[0] // 2 + 1),
                          *(range(c + 1) for c in rest[1:])):
            if e2 < e1:
                continue
            e3 = tuple(c - b for c, b in zip(rest, e2))
            if e3 < e2:
                break
            yield e1, e2, e3


def _product_splits(w: GaussianInt, im4: int):
    """(splits tested, splits passing the identity) for the product w.

    x*y*z is w up to a unit and a unit's fourth power is 1, so
    x^4*y^4*z^4 == w^4 and the identity reduces to
    -4*Im[x^4]*Im[y^4]*Im[z^4] == Im[w^4] == im4.  Survivors are
    first-quadrant triples sorted by (norm, re, im).
    """
    factors = gaussian_factor(w).factors
    divs = _divisors(factors)
    tested = 0
    survivors = []
    for split in _splits(tuple(e for _, e in factors)):
        tested += 1
        d1, d2, d3 = (divs[e] for e in split)
        if -4 * d1[2] * d2[2] * d3[2] == im4:
            survivors.append(tuple(sorted(
                (GaussianInt(d[0], d[1]).first_quadrant()
                 for d in (d1, d2, d3)),
                key=lambda v: (v.norm(), v.re, v.im))))
    return tested, survivors


def _search_product_first(bound):
    hits = []
    tested = 0
    candidates = 0
    progress = _Progress("product-first", _count_points(bound), "points")
    for pos, (re, im) in enumerate(_candidate_points(bound), 1):
        im4 = _pow4(re, im)[1]
        if im4 and im4 % _PRODUCT_SIEVE == 0:
            candidates += 1
            count, survivors = _product_splits(GaussianInt(re, im), im4)
            tested += count
            for x, y, z in survivors:
                if hourglass_condition(x, y, z).holds:
                    hits.append((re * re + im * im, re,
                                 HourglassHit(x, y, z, _verify_hit(x, y, z))))
        if pos >= progress.due:
            progress.line(pos, f"{tested} triples tested, {len(hits)} hits")
    # the rows yield the products w out of (norm, re, im) order; a stable
    # sort on (norm(w), re) puts the hits back in it
    hits.sort(key=lambda h: h[:2])
    return HourglassSearchResult("product-first", bound,
                                 tuple(h for _, _, h in hits), tested,
                                 candidates)
