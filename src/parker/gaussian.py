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

import math
import time
from bisect import bisect_right
from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from . import _info_logger
from .limits import MAX_BOUND

if TYPE_CHECKING:  # annotations only
    from .core import ValidationReport

# algebra (factorize, Integers) and core (validate_hourglass) are imported
# inside the functions that use them, so an hourglass search that finds no
# hit loads neither


class GaussianInt:
    """An element of Z[i] with arbitrary-precision components, immutable.

    Not a tuple: w + w, 3 * w and w * 3 are always Gaussian arithmetic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"GaussianInt is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return GaussianInt, (self.re, self.im)

    def __eq__(self, o):
        if o.__class__ is not GaussianInt:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianInt(re={self.re!r}, im={self.im!r})"

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


class CongruumTriple(NamedTuple):
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
# Gaussian primes over a rational norm.


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
    from .algebra import factorize

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


# ---------------------------------------------------------------------------
# The hourglass condition and construction.


class HourglassConditionReport(NamedTuple):
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


class HourglassCandidate(NamedTuple):
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


def _hourglass(gens, s):
    """(cells, report): the hourglass of three generators of norm s, one
    square progression chi(g) per center line, validated over Z."""
    from .algebra import Integers
    from .core import validate_hourglass

    # One progression per center line: (a,e,i), then (c,e,g), then (b,e,h).
    (r1, _, t1), (r2, _, t2), (r3, _, t3) = map(chi, gens)
    cells = (t1, r3, r2, s, t2, t3, r1)
    return cells, validate_hourglass(tuple(c * c for c in cells), Integers())


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
    return HourglassCandidate(s, gens, *_hourglass(gens, s))


# ---------------------------------------------------------------------------
# Hourglass search drivers.

class HourglassHit(NamedTuple):
    x: GaussianInt
    y: GaussianInt
    z: GaussianInt
    cells: tuple[int, ...]


class HourglassSearchResult(NamedTuple):
    mode: str
    bound: int
    hits: tuple[HourglassHit, ...]
    triples_tested: int
    candidates_enumerated: int


def _verify_hit(x, y, z) -> tuple[int, ...]:
    if not hourglass_condition(x, y, z).holds:
        raise AssertionError(
            f"triple {x}, {y}, {z} fails the hourglass condition")
    gens = hourglass_generators(x, y, z)
    s = gens[0].norm()
    if gens[1].norm() != s or gens[2].norm() != s:  # pragma: no cover
        raise AssertionError("generator norms disagree")
    cells, report = _hourglass(gens, s)
    if not report.is_magic:
        raise AssertionError(
            f"triple {x}, {y}, {z} passed the condition but fails validation")
    return cells


def _pow4(re: int, im: int) -> tuple[int, int]:
    """(Re, Im) of (re + im*i)^4; Im is 4*re*im*(re^2 - im^2)."""
    d = re * re - im * im
    p = re * im
    return (d * d - 4 * p * p, 4 * p * d)


def _slope(re4: int, im4: int) -> tuple[int, int]:
    """The slope re4/im4 of a nonreal fourth power, in lowest terms with a
    positive denominator; its sign is the numerator's.

    re4 is never 0 (see _slope_triples), so no slope is 0.
    """
    assert re4, "a fourth power with real part 0"
    g = math.gcd(re4, im4)
    if im4 < 0:
        g = -g
    return re4 // g, im4 // g


def _mirror(triple):
    """The slope triple negated: the slopes of the mirrored points."""
    return tuple((-num, den) for num, den in triple)


def _candidate_points(bound: int):
    """First-quadrant (re, im) with re >= 1, im >= 0 and norm <= bound.

    One point per associate class, row by row: re ascending, then im.
    """
    for re in range(1, math.isqrt(bound) + 1):
        for im in range(math.isqrt(bound - re * re) + 1):
            yield re, im


class _Progress:
    """INFO lines "mode: pos/total unit, counters; rate, ETA" on the
    "parker.gaussian" logger.

    The search calls line() once pos reaches due, the next whole percent of
    total; with INFO off due stays past total and no clock is read.
    """

    def __init__(self, mode: str, total: int, unit: str):
        self.mode, self.total, self.unit = mode, total, unit
        self.due = total + 1
        self.log = _info_logger("parker.gaussian")
        if self.log is not None:
            self.start, self.due = time.perf_counter(), -(-total // 100)

    def line(self, pos: int, counters: str):
        elapsed = max(time.perf_counter() - self.start, 1e-9)
        self.log.info("%s: %d/%d %s, %s; %.0f %s/s, ETA %.1f s", self.mode,
                      pos, self.total, self.unit, counters, pos / elapsed,
                      self.unit,
                      elapsed * (self.total - pos) / pos if pos else 0.0)
        pct = pos * 100 // self.total if self.total else 100
        # past pos, so an empty total gives its one line only once
        self.due = max(-(-(pct + 1) * self.total // 100), pos + 1)


def search_hourglass(mode: str, bound: int) -> HourglassSearchResult:
    """Search for triples satisfying the hourglass condition.

    exhaustive mode covers all first-quadrant triples with
    norm(x) <= norm(y) <= norm(z) <= bound; product-first mode covers every
    split x*y*z of a product w with norm(w) <= bound.  One driver, _search,
    serves both: it walks the disk of radius bound (exhaustive) or bound/25
    (product-first) once for the least norm of each positive slope, pairs
    the slopes with the kernel _slope_triples, and walks the disk again
    only to expand the slope triples it found into point triples.  The
    modes differ in the disk, the pairs tried, a product-first filter on
    norm(x*y*z) <= bound and the counters.  Every hit is re-checked with
    hourglass_condition and re-verified by building the hourglass and
    validating all 5 sums; an empty result is the expected outcome.

    candidates_enumerated counts the walked points with a nonreal fourth
    power, the points the kernel's slopes come from.  triples_tested counts
    the triples the search decided: in exhaustive mode every triple
    x <= y <= z of its n points, n(n+1)(n+2)/6; in product-first mode the
    positive-slope pairs the kernel tries, each of which tests one slope
    triple.  At INFO both modes log their progress at each whole percent,
    first through the rows of the walk, then through the pairs.  Hits come
    in ascending order of the (norm, re) keys of their sorted points;
    product-first puts the (norm, re) of the product w in front.

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
    return _search(mode, bound)


def _slope_triples(slopes, known, ends, progress):
    """Slope triples (s_x, s_y, s_z) with s_x, s_y > 0 and sigma_2 = -3.

    The reduction.  Write a nonreal fourth power as X = Im X * (s_x + i),
    with slope s_x = Re X / Im X.  Then
        Im[X*Y*Z] = Im X * Im Y * Im Z * (s_x*s_y + s_y*s_z + s_z*s_x - 1),
    so with every Im nonzero the identity Im[XYZ] == -4*Im X*Im Y*Im Z
    holds exactly when sigma_2 = s_x*s_y + s_y*s_z + s_z*s_x == -3: it
    depends only on the three slopes.
      - No slope is 0.  Re w^4 = (re^2 - im^2)^2 - 4*re^2*im^2 = 0 needs
        re^2 - im^2 = +-2*re*im, so re/im = +-1 +- sqrt(2), which is
        irrational.
      - sigma_2 < 0 forces the signs (+, +, -) or (-, -, +): three slopes
        of one sign give sigma_2 > 0.
      - (re, im) -> (im, re) keeps the norm and negates the slope, since
        im + re*i = i*conj(re + im*i) has fourth power conj(w^4).  sigma_2
        is even, so the negation of a solution is a solution, and every
        (-, -, +) solution mirrors a (+, +, -) one.  The search walks the
        first-quadrant points of a disk, and those with a nonreal fourth
        power are closed under this mirror.
      - Equal slopes mean proportional fourth powers, which
        hourglass_condition rejects.  So the hits are exactly the point
        triples over slope triples of three distinct slopes with
        sigma_2 = -3.
    Hence it suffices to pair distinct positive slopes s_x = a/b and
    s_y = c/d and to look up the third, -(3 + s_x*s_y)/(s_x + s_y) =
    -(a*c + 3*b*d)/(b*c + a*d), as the positive slope
    (a*c + 3*b*d)/(b*c + a*d) in known; the caller adds each triple's
    mirror.

    slopes lists the positive slopes, reduced as by _slope, and known
    holds at least them.  Row i pairs slopes[i] with slopes[i+1:ends[i]],
    and rows past len(ends) pair with nothing.  progress counts the pairs
    tried; a row is cut into slices that end at progress.due, so a long
    row still logs at each whole percent, and a quiet search (due past the
    total) takes each row as one slice.
    """
    assert all(a > 0 for a, _ in slopes), "a nonpositive slope to pair"
    out = []  # every s_x + s_y below is positive, never 0
    done = 0
    for i, end in enumerate(ends):
        a, b = slopes[i]
        b3 = 3 * b
        j = i + 1
        while j < end:
            k = min(end, j + progress.due - done)
            for c, d in slopes[j:k]:
                num = a * c + b3 * d
                den = b * c + a * d
                g = math.gcd(num, den)
                if (num // g, den // g) in known:
                    out.append(((a, b), (c, d), (-num // g, den // g)))
            done += k - j
            j = k
            if done >= progress.due:
                progress.line(done, f"{len(out)} slope triples")
    if done >= progress.due:  # no rows: the one line of an empty search
        progress.line(done, f"{len(out)} slope triples")
    return out


def _point_triples(found, groups):
    """The point triples over each slope triple in found and its mirror;
    groups maps each of those slopes to its points."""
    for triple in found:
        for t in (triple, _mirror(triple)):
            yield from product(*(groups[s] for s in t))


def _search(mode, bound):
    # a product-first hit's three points have norms of at least 5 each, the
    # least norm of a point with a nonreal fourth power, so each has norm
    # <= bound/25; exhaustive points have norm <= bound.  norms keeps the
    # least norm of each positive slope among the points walked
    product_first = mode == "product-first"
    radius = bound // 25 if product_first else bound
    walk = _Progress(mode, math.isqrt(radius), "rows")
    norms = {}
    candidates = 0
    for re, im in _candidate_points(radius):
        re4, im4 = _pow4(re, im)
        if im4:
            candidates += 1
            if (s := _slope(re4, im4))[0] > 0:
                n = re * re + im * im
                if n < norms.get(s, n + 1):
                    norms[s] = n
        elif not im and re - 1 >= walk.due:
            # each row opens with im = 0, a real fourth power: rows 1..re-1
            # are done
            walk.line(re - 1, f"{len(norms)} positive slopes")

    ranked = sorted(norms.items(), key=itemgetter(1))
    slopes = [s for s, _ in ranked]
    if product_first:
        # row i pairs slopes[i] with the slopes j > i with 5*n_i*n_j <= bound
        # (5 bounds the third norm from below); past the rows with
        # 5*n_i^2 <= bound no pair is left
        least = [n for _, n in ranked]
        ends = [bisect_right(least, bound // (5 * n))
                for n in least if 5 * n * n <= bound]
    else:
        ends = [len(slopes)] * len(slopes)
    pairs = sum(max(end - i - 1, 0) for i, end in enumerate(ends))
    # the walk's closing line also covers the set-up above, so no stretch
    # of the search between its first line and its last goes unlogged
    if walk.total >= walk.due:
        walk.line(walk.total, f"{len(norms)} positive slopes")
    found = _slope_triples(slopes, norms, ends, _Progress(mode, pairs, "pairs"))

    hits = []
    if found:
        wanted = {s for t in found for s in t + _mirror(t)}
        groups: dict[tuple[int, int], list[GaussianInt]] = {}
        for re, im in _candidate_points(radius):
            re4, im4 = _pow4(re, im)
            if im4 and (s := _slope(re4, im4)) in wanted:
                groups.setdefault(s, []).append(GaussianInt(re, im))
        for triple in _point_triples(found, groups):
            x, y, z = sorted(triple, key=lambda v: (v.norm(), v.re))
            key = tuple((v.norm(), v.re) for v in (x, y, z))
            if product_first:
                if x.norm() * y.norm() * z.norm() > bound:
                    continue
                w = (x * y * z).first_quadrant()
                key = (w.norm(), w.re) + key
            hits.append((key, x, y, z))
        hits.sort(key=lambda h: h[0])
    tested = (pairs if product_first
              else candidates * (candidates + 1) * (candidates + 2) // 6)
    return HourglassSearchResult(
        mode, bound, tuple(HourglassHit(x, y, z, _verify_hit(x, y, z))
                           for _, x, y, z in hits), tested, candidates)
