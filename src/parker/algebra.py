"""Carriers: prime fields, extension fields F_{p^r}, rings Z/nZ, and the integers.

Every element is handled as a canonical integer encoding.  Prime fields and
modular rings encode a residue in [0, order).  An extension field element with
coefficient vector (c0, ..., c_{r-1}) over F_p encodes as sum(c_i * p**i),
a bijection onto [0, p**r).  Only this module knows about coefficient vectors;
everything above works with encodings.

Extension-field arithmetic runs on log and antilog tables to a primitive
element; polynomials over F_p are used only to build them.  Addition also
reads a Zech table, built from those two on the first add or sub.  Counting
only multiplies, negates and translates masks, so it never builds one;
listing, verification and the oracle do.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

from .limits import MAX_ORDER


class NonInvertibleError(ArithmeticError):
    """Inversion was requested for an element that is not a unit."""

    def __init__(self, element, structure):
        self.element = element
        self.structure = structure
        super().__init__(f"{element} is not invertible in {structure}")


# ---------------------------------------------------------------------------
# Integer utilities shared across the package.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant with deterministic restarts; n must be odd composite.
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization failed for {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        # trial division alone settles every m below 183**2, and so every
        # order up to MAX_ORDER; a larger m is tested before it is split
        if m < 183**2 or not is_prime(m):
            f = 17
            while f * f <= m and m % f and f < 10_000:
                f += 2
            if f * f <= m:
                d = f if m % f == 0 else _pollard_rho(m)
                stack += (d, m // d)
                continue
        out[m] = out.get(m, 0) + 1
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def prime_power_base(n: int):
    """(p, r) with n == p**r, or None when n is not a prime power."""
    f = factorize(n) if n >= 2 else {}
    if len(f) != 1:
        return None
    (p, r), = f.items()
    return p, r


def divisor_representatives(n: int) -> list[int]:
    """Residues of the divisors of n in Z/nZ, ascending by divisor.

    These are orbit representatives for the multiplicative action of the unit
    group: every residue is a unit multiple of exactly one divisor.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return [d % n for d in divisors(n)]


def check_order(order: int) -> int:
    """order itself, or ValueError when it exceeds MAX_ORDER."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the limit {MAX_ORDER}")
    return order


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


# ---------------------------------------------------------------------------
# Element bitmasks: bit x stands for the element encoded as x.

def _bitmask(elements, order: int) -> int:
    """The mask with bit x set for each x in elements, all below order."""
    digits = bytearray(b"0") * order
    for x in elements:
        digits[x] = 49  # "1"
    return int(digits[::-1], 2)


def mask_bits(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class _DigitMasks(dict):
    """(i, d) -> the mask of the encodings whose digit i is below p - d.

    Those are the low (p - d) * p**i encodings of every block of
    p**(i + 1), repeated by a repunit, each built on first lookup and
    kept.  (0, 0) is every encoding, the full mask, which every translation
    reads, so it is set at the start and costs no repunit division.
    """

    def __init__(self, p: int, order: int):
        self.p, self.full = p, (1 << order) - 1
        super().__init__({(0, 0): self.full})

    def __missing__(self, key):
        i, d = key
        run = (1 << (self.p - d) * self.p**i) - 1
        mask = self[key] = run * self.full // ((1 << self.p ** (i + 1)) - 1)
        return mask


# ---------------------------------------------------------------------------
# Carriers.


class Carrier:
    """Common interface over the coefficient structures used by the search."""

    kind: str = "abstract"
    order: int | None = None

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def encode_int(self, n: int) -> int:
        """Encoding of the image of the rational integer n."""
        raise NotImplementedError

    @property
    def additive_layout(self) -> tuple[int, int]:
        """(p, r) such that encodings add as r independent base-p digits."""
        raise ValueError(f"{self} has no finite additive layout")

    def elements(self) -> range:
        if self.order is None:
            raise ValueError(f"{self} has no finite element enumeration")
        return range(self.order)

    def check_element(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"{a!r} is not a valid element encoding for {self}")
        if self.order is not None and not 0 <= a < self.order:
            raise ValueError(f"encoding {a} out of range for {self}")
        return a

    def square_set(self) -> tuple[int, int]:
        """(S, N): bit s of S is set for each square s, and bit -s of N.

        Built on first use and kept on the carrier.  An odd field of order
        q has (q + 1)/2 squares and an even one q, which is asserted.  A
        field's _squares gives S alone: -1 is a square when q = 1 (mod 4)
        or q is even, and then -S = S, and otherwise -S is the nonsquares
        and 0.  Z/nZ has no such rule, and its _squares gives (S, N).
        """
        try:
            return self._square_set
        except AttributeError:
            pass
        masks = self._squares()
        if self.kind in ("prime-field", "extension-field"):
            q, count = self.order, masks.bit_count()
            expected = q if q % 2 == 0 else (q + 1) // 2
            if count != expected:  # pragma: no cover
                raise AssertionError(f"square count {count} != {expected} "
                                     f"for {self}")
            masks = masks, masks if q % 4 != 3 else (masks ^ (1 << q) - 1) | 1
        self._square_set = masks
        return masks

    def is_square(self, a: int) -> bool:
        return a >= 0 and bool(self.square_set()[0] >> a & 1)

    def translate(self, mask: int, t: int) -> int:
        """The bitmask of {x + t : x in mask}, with bit x for encoding x.

        The additive layout (p, r) says that an encoding's base-p digits
        add independently mod p: (n, 1) for Z/nZ and prime fields, (p, r)
        for F_{p^r}.  Adding d * p**i to an element whose digit i is below
        p - d raises its encoding by d * p**i; for the others digit i wraps
        and the encoding falls by (p - d) * p**i.  So each nonzero digit of
        t costs one masked shift pair, and the top digit needs no mask: its
        wrapped elements are exactly those the right shift keeps, which
        makes a single-digit layout a rotation.  The masks of the lower
        digits are built on first use and kept on the carrier.
        """
        p, r = self.additive_layout
        masks = self._digit_masks
        full = masks[0, 0]
        weight = 1
        for i in range(r):
            t, d = divmod(t, p)
            if d:
                up, down = d * weight, (p - d) * weight
                if i == r - 1:
                    mask = ((mask << up) & full) | (mask >> down)
                else:
                    low = mask & masks[i, d]
                    mask = (low << up) | ((mask ^ low) >> down)
            weight *= p
        return mask

    @cached_property
    def _digit_masks(self) -> _DigitMasks:
        return _DigitMasks(self.additive_layout[0], self.order)

    def element_repr(self, a: int) -> str:
        return str(a)

    def __str__(self):
        return self.kind

    def __repr__(self):
        return str(self)

    def element_to_json(self, a: int):
        return a

    def element_from_json(self, obj) -> int:
        if not isinstance(obj, int):
            raise ValueError(f"expected integer encoding, got {obj!r}")
        return self.check_element(obj)


class _ResidueCarrier(Carrier):
    """Shared arithmetic for Z/nZ and prime fields."""

    def __init__(self, n: int):
        self.order = check_order(n)

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def mul(self, a, b):
        return (a * b) % self.order

    def neg(self, a):
        return -a % self.order

    def inv(self, a):
        try:
            return pow(a, -1, self.order)
        except ValueError:
            raise NonInvertibleError(a % self.order, str(self)) from None

    @property
    def additive_layout(self):
        return self.order, 1

    def encode_int(self, n):
        return n % self.order

    def units(self):
        n = self.order
        return [u for u in range(1, n) if math.gcd(u, n) == 1]

    def _squares(self):
        # x and n - x have the same square; character x of digits is bit x
        # of S, so bit x of N, bit -x of S, reads S's string rotated; a
        # field's N follows from S
        n = self.order
        digits = bytearray(b"0") * n
        for x in range(n // 2 + 1):
            digits[x * x % n] = 49  # "1"
        s = int(digits[::-1], 2)
        return s if self.kind == "prime-field" else \
            (s, int(digits[1:] + digits[:1], 2))


class PrimeField(_ResidueCarrier):
    kind = "prime-field"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.characteristic = p
        self.degree = 1

    def __str__(self):
        return f"F_{self.order}"


class ModularRing(_ResidueCarrier):
    kind = "modular-ring"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("ring modulus must be at least 2")
        super().__init__(n)

    def __str__(self):
        return f"Z/{self.order}Z"


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

    def inv(self, a):
        if not a:
            raise NonInvertibleError(a, str(self))
        return self._exp[self.order - 1 - self._log[a]]

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


class Integers(Carrier):
    """The rational integers, used to validate grids over Z."""

    kind = "int"
    order = None

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NonInvertibleError(a, "Z")

    def encode_int(self, n):
        return n

    def check_element(self, a):
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"{a!r} is not an integer")
        return a

    def is_square(self, a):
        return a >= 0 and math.isqrt(a) ** 2 == a

    def __str__(self):
        return "Z"


def make_carrier(kind: str, order: int | None = None,
                 modulus_poly=None) -> Carrier:
    """Build a carrier from a kind tag ("field", "ring", or "int") and order.

    Field orders must be prime powers; the extension-field modulus defaults to
    the canonical irreducible from find_irreducible.  A modulus given for any
    other carrier, or given empty, raises ValueError, as do orders above
    MAX_ORDER, before anything is built.
    """
    if modulus_poly is not None and kind != "field":
        raise ValueError(f"a modulus polynomial needs a field, not kind {kind!r}")
    if kind == "int":
        return Integers()
    if order is None or order < 2:
        raise ValueError(f"invalid order {order} for kind {kind!r}")
    check_order(order)
    if kind == "field":
        pr = prime_power_base(order)
        if pr is None:
            raise ValueError(f"{order} is not a prime power, no field of that order")
        p, r = pr
        if r == 1:
            if modulus_poly is not None:
                raise ValueError(f"a modulus polynomial needs an extension "
                                 f"field, not the prime field F_{p}")
            return PrimeField(p)
        return ExtensionField(
            p, r, None if modulus_poly is None else tuple(modulus_poly))
    if kind == "ring":
        return ModularRing(order)
    raise ValueError(f"unknown carrier kind {kind!r}")


# ---------------------------------------------------------------------------
# Structure queries used by the search and its prefilters.


def squares(carrier: Carrier) -> tuple[int, ...]:
    """The carrier's squares, ascending: the set bits of S (square_set)."""
    return tuple(mask_bits(carrier.square_set()[0]))


def two_torsion(carrier: Carrier) -> int:
    """Z as a bitmask: the delta with 2*delta = 0.

    It is {0} when the additive period p is odd, {0, n/2} in Z/nZ with n
    even, and everything in characteristic 2.
    """
    p = carrier.additive_layout[0]
    if p == 2:
        return (1 << carrier.order) - 1
    return 1 if p % 2 else 1 | 1 << p // 2


def center_offsets(carrier: Carrier, e2: int) -> int:
    """D_e as a bitmask: the offsets delta of the center pairs of e2 = e^2.

    delta is in D_e when e2 + delta and e2 - delta are both squares and
    2*delta != 0, so that the pair (e2 - delta, e2 + delta) has two
    members; D_e is symmetric, and delta != -delta, so the center pairs
    number D_e.bit_count() // 2.  With S and N from square_set it is
    (S - e2) & (N + e2), two translations, less two_torsion.  In
    characteristic 2 that is everything, so D_e is empty; the field search
    gives a field of even order no center and never asks for it.
    """
    s, neg = carrier.square_set()
    d_mask = carrier.translate(s, carrier.neg(e2)) & carrier.translate(neg, e2)
    return d_mask & ~two_torsion(carrier)
