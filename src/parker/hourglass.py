"""The magic-hourglass search over the Gaussian integers.

search_hourglass looks for triples (x, y, z) whose fourth powers satisfy
Im[x^4 y^4 z^4] = -4*Im[x^4]*Im[y^4]*Im[z^4], each strictly complex and no
two real multiples of each other (gaussian.hourglass_condition), in both
search modes.  The search works on the integer parts of the fourth powers
and their slopes alone: it loads parker.gaussian, for GaussianInt and the
checks that rebuild an hourglass, only to expand and verify a hit, and no
search yet has found one.
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
    from .gaussian import GaussianInt


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
    from .gaussian import _hourglass, hourglass_condition, hourglass_generators

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
    "parker.hourglass" logger.

    The search calls line() once pos reaches due, the next whole percent of
    total; with INFO off due stays past total and no clock is read.
    """

    def __init__(self, mode: str, total: int, unit: str):
        self.mode, self.total, self.unit = mode, total, unit
        self.due = total + 1
        self.log = _info_logger("parker.hourglass")
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
        from .gaussian import GaussianInt

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
