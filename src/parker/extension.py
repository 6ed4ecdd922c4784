"""Extension fields F_{p^r}, r >= 2, on log and antilog tables.

An element with coefficient vector (c0, ..., c_{r-1}) over F_p encodes as
sum(c_i * p**i), a bijection onto [0, p**r); only this module knows about
coefficient vectors.  Arithmetic runs on log and antilog tables to a
primitive element; polynomials over F_p are used only to build them.
Addition also reads a Zech table, built from those two on the first add or
sub.  Counting only multiplies, negates and translates masks, so it never
builds one; listing, verification and the oracle do.

make_carrier loads this module only to build a field of order p**r with
r >= 2, so ring scans, prime fields and a field scan's even orders, which
build no carrier, never compile it.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .algebra import Carrier, _bitmask, check_order, factorize, is_prime


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p (little-endian coefficient tuples).


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a, b):
    # the product over Z, left unreduced for _poly_mod
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _poly_mod(a, m, p):
    # m is monic; each coefficient of a is reduced mod p once, as the
    # quotient digit it leads or as a digit of the remainder
    a = list(a)
    dm = len(m) - 1
    low = m[:dm]
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j, y in enumerate(low, i - dm):
                a[j] -= c * y
    return _poly_trim(tuple([x % p for x in a[:dm]]))


def _is_irreducible(poly, p):
    # no root in F_p (Horner), then trial division against every monic
    # polynomial of degree 2..deg/2
    deg = len(poly) - 1
    for x in range(p):
        value = 0
        for c in reversed(poly):
            value = value * x + c
        if not value % p:
            return False
    for d in range(2, deg // 2 + 1):
        for enc in range(p**d):
            div = _digits_of(enc, p, d) + (1,)
            if not _poly_mod(poly, div, p):
                return False
    return True


def find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """The canonical monic irreducible of degree r over F_p.

    Canonical means the lower coefficients (c0, ..., c_{r-1}), read as a
    base-p integer, are smallest.  The scan is exhaustive, so the result is
    deterministic for a given (p, r).
    """
    for enc in range(p**r):
        poly = _digits_of(enc, p, r) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise ArithmeticError(f"no irreducible of degree {r} over F_{p}")  # pragma: no cover


def _digits_of(n, p, width):
    out = []
    for _ in range(width):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def _digit_sum_table(k: int, p: int, r: int) -> list:
    """The table of y -> y + k over F_{p^r}: digitwise addition mod p.

    Built one digit at a time: the table over the low j + 1 digits is p
    blocks, block c the table over the low j digits raised by
    ((c + k_j) mod p) * p**j.
    """
    table = [0]
    weight = 1
    for _ in range(r):
        k, d = divmod(k, p)
        out = []
        for c in range(p):
            out += map(((c + d) % p * weight).__add__, table)
        table = out
        weight *= p
    return table


def _times_table(g, p: int, r: int, modulus_poly) -> list:
    """The table of y -> g*y over F_{p^r} = F_p[x] / modulus_poly.

    Multiplication by g is F_p-linear: g * (c*x^i + y') = g*y' + c*(g*x^i).
    So the table is built a digit at a time, and the block of the
    encodings with digit i = c, the top one so far, is the block of c - 1
    translated by k = g*x^i.  The top digit's p - 1 blocks, most of the
    table, read the full digit-sum table of k.  Digit i below it serves
    only (p - 1)*p**i entries, which add k's low a = r//2 digits and its
    high ones apart, from digit-sum tables of p**a and p**(r - a) entries.
    """
    table = [0]
    g_xi = g
    a = r // 2
    m = p**a
    for i in range(r):
        k = sum(c * p**j for j, c in enumerate(g_xi))
        if i < r - 1:
            low = _digit_sum_table(k % m, p, a)
            high = _digit_sum_table(k // m, p, r - a)
            step = lambda y: low[y % m] + m * high[y // m]
        else:
            step = _digit_sum_table(k, p, r).__getitem__
        block = table
        for _ in range(p - 1):
            block = list(map(step, block))
            table += block
        g_xi = _poly_mod((0,) + g_xi, modulus_poly, p)
    return table


def _primitive_element(p: int, r: int, modulus_poly):
    """g, the smallest encoding >= p of F_{p^r} = F_p[x] / modulus_poly
    with g^((q-1)/l) != 1 for every prime l | q - 1, as a coefficient
    tuple: an element of order q - 1."""
    n = p**r - 1
    one = (1,)

    def power(a, k):
        out = one
        while k:
            if k & 1:
                out = _poly_mod(_poly_mul(out, a), modulus_poly, p)
            a = _poly_mod(_poly_mul(a, a), modulus_poly, p)
            k >>= 1
        return out

    cofactors = [n // l for l in factorize(n)]
    for enc in range(p, n + 1):
        g = _poly_trim(_digits_of(enc, p, r))
        if all(power(g, c) != one for c in cofactors):
            return g


def _log_tables(p: int, r: int, modulus_poly) -> tuple[list, list]:
    """(exp, log) of F_{p^r} = F_p[x] / modulus_poly, q = p**r.

    exp[k] = g^k for g = _primitive_element is stored twice over so that a
    sum of two logs indexes it directly; log inverts exp and holds -1 at
    0.  exp walks the cycle of _times_table from 1, one list index per
    unit, and the walk is asserted to be one cycle of q - 1: it returns to
    1 after step q - 2, and not before, as log[1] is still 0.  So every
    unit gets a log and only 0 keeps -1.  The Zech table, which only
    addition needs, is built from these on first use (ExtensionField._zech).
    """
    q = p**r
    n = q - 1
    times_g = _times_table(_primitive_element(p, r, modulus_poly), p, r,
                           modulus_poly)
    exp = [1] * n
    log = [-1] * q
    log[1] = 0
    x = 1
    for k in range(1, n):
        x = times_g[x]
        exp[k] = x
        log[x] = k
    if times_g[x] != 1 or log[1]:
        raise AssertionError(f"the exp walk of F_{q} is not one cycle of "
                             f"{n} units")
    return exp * 2, log


class ExtensionField(Carrier):
    """F_{p^r} as F_p[x] modulo a monic irreducible of degree r.

    Every operation is a lookup in the tables of _log_tables, with an
    explicit branch for 0.  With a = g^i and b = g^j, a + b = g^i (1 + g^(j-i))
    = g^(i + zech[j - i]), and a - b = a + g^(j + log(-1)) with -1 encoded
    as p - 1.  A negative zech index wraps to the same residue mod q - 1,
    because the table holds two periods.  Only add and sub read the Zech
    table, and it is built on their first call: counting keeps to mul, neg
    and translate, so a count never builds it.
    """

    kind = "extension-field"

    def __init__(self, p: int, r: int, modulus_poly: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if r < 2:
            raise ValueError("extension degree must be at least 2")
        self.characteristic = p
        self.degree = r
        self.order = check_order(p**r)
        if modulus_poly is None:
            modulus_poly = find_irreducible(p, r)
        else:
            modulus_poly = _poly_trim(tuple(c % p for c in modulus_poly))
            if len(modulus_poly) != r + 1 or modulus_poly[-1] != 1:
                raise ValueError("modulus must be monic of the stated degree")
            if not _is_irreducible(modulus_poly, p):
                raise ValueError(f"modulus {modulus_poly} is reducible over F_{p}")
        self.modulus_poly = modulus_poly
        self._exp, self._log = _log_tables(p, r, modulus_poly)
        self._log_minus_one = self._log[p - 1]  # 0 in characteristic 2

    @cached_property
    def _zech(self) -> list:
        """zech[k] = log(1 + g^k), -1 where g^k = -1, over two periods."""
        p, exp = self.characteristic, self._exp[:self.order - 1]
        # x + 1 raises digit 0, and wraps it at p - 1
        bump = map(([1] * (p - 1) + [1 - p]).__getitem__, map(p.__rmod__, exp))
        return list(map(self._log.__getitem__,
                        map(operator.add, exp, bump))) * 2

    def _squares(self):
        # 0 and the even powers of g; exp holds two periods, so the slice
        # meets every even power, and in characteristic 2, where q - 1 is
        # odd, every unit
        return _bitmask(self._exp[::2], self.order) | 1

    @property
    def additive_layout(self):
        return self.characteristic, self.degree

    def coeffs(self, a: int) -> tuple[int, ...]:
        return _digits_of(a, self.characteristic, self.degree)

    def encode_coeffs(self, coeffs) -> int:
        p = self.characteristic
        return sum(c % p * p**i for i, c in enumerate(coeffs))

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def sub(self, a, b):
        if not b:
            return a
        lb = self._log[b] + self._log_minus_one
        if not a:
            return self._exp[lb]
        la = self._log[a]
        z = self._zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a):
        if not a:
            return 0
        return self._exp[self._log[a] + self._log_minus_one]

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def encode_int(self, n):
        return n % self.characteristic

    def units(self):
        return list(range(1, self.order))

    def element_repr(self, a):
        terms = []
        for i, c in enumerate(self.coeffs(a)):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(terms) if terms else "0"

    def element_to_json(self, a):
        return list(self.coeffs(a))

    def element_from_json(self, obj):
        if isinstance(obj, int):
            return self.check_element(obj)
        if isinstance(obj, list) and all(isinstance(c, int) for c in obj):
            if len(obj) > self.degree:
                raise ValueError(f"coefficient vector {obj} too long for {self}")
            p = self.characteristic
            if any(isinstance(c, bool) or not 0 <= c < p for c in obj):
                raise ValueError(f"coefficient vector {obj} is not canonical "
                                 f"for {self}: need integers in 0..{p - 1}")
            return self.encode_coeffs(obj)
        raise ValueError(f"cannot decode {obj!r} as an element of {self}")

    def __str__(self):
        return f"F_{self.order}"

