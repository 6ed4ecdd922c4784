"""Exact Gaussian-integer arithmetic and the magic-hourglass machinery.

A Gaussian integer w = m + ni maps to a three-term arithmetic progression of
squares through chi(w) = (Re[w^2] + Im[w^2], w*conj(w), Re[w^2] - Im[w^2]),
which always satisfies r^2 + t^2 = 2*s^2.  Triples (x, y, z) whose fourth
powers satisfy Im[x^4 y^4 z^4] = -4*Im[x^4]*Im[y^4]*Im[z^4], with each fourth
power strictly complex and no two of them real multiples of each other, would
yield a full magic hourglass of squares over Z; parker.hourglass searches for
such triples, and checks each hit it finds with the functions here.
"""

from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .hourglass import _pow4

if TYPE_CHECKING:  # annotations only
    from .core import ValidationReport

# algebra (factorize, Integers) and core (validate_hourglass) are imported
# inside the functions that use them, so congruum and chi load neither


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
