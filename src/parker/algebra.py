"""Carriers: prime fields, rings Z/nZ and the integers, and make_carrier.

Every element is handled as a canonical integer encoding.  Prime fields and
modular rings encode a residue in [0, order).  The extension fields
F_{p^r}, r >= 2, live in parker.extension, which make_carrier loads only to
build one, and which alone knows their coefficient vectors; everything
above works with encodings.  This module also holds the integer arithmetic
and the element bitmasks that every carrier and the searches share.
"""

from __future__ import annotations

import math
from functools import cached_property

from .limits import MAX_ORDER


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


def prime_power_base(n: int):
    """(p, r) with n == p**r, or None when n is not a prime power."""
    f = factorize(n) if n >= 2 else {}
    if len(f) != 1:
        return None
    (p, r), = f.items()
    return p, r


def check_order(order: int) -> int:
    """order itself, or ValueError when it exceeds MAX_ORDER."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the limit {MAX_ORDER}")
    return order


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

    def encode_int(self, n: int) -> int:
        """Encoding of the image of the rational integer n."""
        raise NotImplementedError

    @property
    def additive_layout(self) -> tuple[int, int]:
        """(p, r) such that encodings add as r independent base-p digits."""
        raise ValueError(f"{self} has no finite additive layout")

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
    the canonical irreducible from extension.find_irreducible.  Only a field
    order p**r with r >= 2 loads parker.extension.  A modulus given for any
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
        from .extension import ExtensionField

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
