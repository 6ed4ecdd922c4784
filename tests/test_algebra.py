import functools

import pytest
from hypothesis import given, settings, strategies as st

import parker.algebra as algebra
import parker.extension as extension
from parker.algebra import (MAX_ORDER, PrimeField, center_offsets,
                            factorize, is_prime, make_carrier, mask_bits,
                            prime_power_base, squares, two_torsion)
from parker.extension import ExtensionField, find_irreducible
from parker.oracle import divisor_representatives, divisors
from parker.survey import field_orders


def _trial_division(n):
    """{prime: exponent} of n >= 1 by division by every d from 2 on."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestIntegerUtilities:
    def test_is_prime_small(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                          47, 53, 59]

    @given(st.integers(2, 10**9))
    @settings(max_examples=200)
    def test_factorize_multiplies_back(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    @given(st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_factorize_matches_trial_division(self, n):
        assert factorize(n) == _trial_division(n)

    @pytest.mark.parametrize("n", [
        # prime squares and semiprimes below 183**2, where trial division
        # alone decides, and above it, where Miller-Rabin runs first
        179**2, 181**2, 191**2, 193**2, 179 * 181, 173 * 191, 181 * 191,
        191 * 193, 32749, 33487, 33493, 2 * 3 * 5 * 32749, 10007 * 10009])
    def test_factorize_around_the_trial_cutoff(self, n):
        assert factorize(n) == _trial_division(n)

    def test_factorize_past_trial_division(self):
        # a Mersenne prime, alone and with 2**5, and a semiprime with no
        # factor below 10**4, which Pollard rho splits
        m = 2**61 - 1
        assert factorize(m) == {m: 1}
        assert factorize(2**5 * m) == {2: 5, m: 1}
        assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}

    def test_divisors(self):
        assert divisors(27) == [1, 3, 9, 27]
        assert divisors(54) == [1, 2, 3, 6, 9, 18, 27, 54]

    def test_prime_power_base(self):
        assert prime_power_base(729) == (3, 6)
        assert prime_power_base(29) == (29, 1)
        assert prime_power_base(12) is None


class TestMakeCarrier:
    def test_order_9_uses_smallest_modulus(self):
        c = make_carrier("field", 9)
        assert isinstance(c, ExtensionField)
        assert (c.characteristic, c.degree) == (3, 2)
        assert c.modulus_poly == (1, 0, 1)  # x^2 + 1

    def test_order_8_modulus(self):
        c = make_carrier("field", 8)
        assert c.modulus_poly == (1, 1, 0, 1)  # x^3 + x + 1

    def test_order_27_modulus(self):
        # x^3 + 2x + 1, the same field presentation as xbar^3 = xbar + 2
        assert make_carrier("field", 27).modulus_poly == (1, 2, 0, 1)

    def test_non_prime_power_field_rejected(self):
        with pytest.raises(ValueError):
            make_carrier("field", 12)

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            make_carrier("ring", 1)
        with pytest.raises(ValueError):
            make_carrier("field", 0)
        with pytest.raises(ValueError):
            make_carrier("lattice", 5)

    def test_prime_order_gives_prime_field(self):
        assert isinstance(make_carrier("field", 29), PrimeField)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            make_carrier("field", 9, modulus_poly=(2, 0, 1))  # x^2+2=(x+1)(x+2)

    @pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (2, 4), (2, 5),
                                      (2, 6), (3, 2), (3, 3), (3, 4),
                                      (5, 2), (5, 3), (7, 2), (7, 4)])
    def test_irreducible_count_is_gauss(self, p, r):
        # the root test and the trial division from degree 2 accept
        # exactly (1/r) * sum over d | r of mu(d) * p**(r/d) monic
        # polynomials of degree r, Gauss's count of the irreducibles
        def mobius(n):
            f = factorize(n) if n > 1 else {}
            return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)

        expected = sum(mobius(d) * p ** (r // d) for d in divisors(r)) // r
        found = [enc for enc in range(p**r) if extension._is_irreducible(
            extension._digits_of(enc, p, r) + (1,), p)]
        assert len(found) == expected
        assert find_irreducible(p, r) == extension._digits_of(found[0], p, r) \
            + (1,)

    @pytest.mark.parametrize("kind, order, modulus", [
        ("field", 29, [1, 1, 1]), ("ring", 29, [1, 1, 1]), ("int", None, [1]),
        ("field", 9, []), ("ring", 9, [])])
    def test_misplaced_or_empty_modulus_rejected(self, kind, order, modulus):
        with pytest.raises(ValueError):
            make_carrier(kind, order, modulus_poly=modulus)


class TestCarrierOps:
    def test_f9_generator_squares_to_minus_one(self):
        c = make_carrier("field", 9)
        xbar = c.encode_coeffs((0, 1))
        assert xbar == 3
        assert c.mul(xbar, xbar) == c.neg(c.encode_int(1)) == 2

    @pytest.mark.parametrize("kind,order", [("field", 29), ("field", 27),
                                            ("field", 16), ("ring", 54)])
    def test_add_neg_is_zero(self, kind, order):
        c = make_carrier(kind, order)
        assert all(c.add(a, c.neg(a)) == 0 for a in range(c.order))

    @pytest.mark.parametrize("order", [8, 9, 25, 27, 49])
    def test_field_axioms_and_frobenius(self, order):
        c = make_carrier("field", order)
        els = range(order)
        sample = els[:: max(1, len(els) // 12)]
        for a in sample:
            for b in sample:
                assert c.mul(a, b) == c.mul(b, a)
                for d in sample:
                    assert c.mul(a, c.add(b, d)) == c.add(c.mul(a, b), c.mul(a, d))
                    assert c.mul(c.mul(a, b), d) == c.mul(a, c.mul(b, d))
        one = c.encode_int(1)

        # powers by square-and-multiply on c.mul
        def power(a, k):
            out = one
            while k:
                if k & 1:
                    out = c.mul(out, a)
                a, k = c.mul(a, a), k >> 1
            return out
        # every unit has the inverse a^(q - 2), and x^q == x for all x
        # exactly when the modulus defines the field
        assert all(c.mul(a, power(a, order - 2)) == one for a in els[1:])
        assert all(power(a, order) == a for a in els)

    @pytest.mark.parametrize("order", [8, 9, 27, 625])
    def test_extension_encoding_bijective(self, order):
        c = make_carrier("field", order)
        assert all(c.encode_coeffs(c.coeffs(a)) == a for a in range(order))

    def test_element_repr(self):
        c = make_carrier("field", 9)
        assert c.element_repr(0) == "0"
        assert c.element_repr(5) == "2 + x"


# prime fields; F_{p^r} with r = 2, 3, 5, 7 and characteristic 2; rings of
# odd, even and power-of-two modulus
TRANSLATE_CARRIERS = (("field", 29), ("field", 101), ("field", 25),
                      ("field", 1331), ("field", 3125), ("field", 2187),
                      ("field", 16), ("ring", 45), ("ring", 54),
                      ("ring", 64))


@functools.cache
def _carrier(kind, order):
    return make_carrier(kind, order)


class TestTranslate:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_elementwise_add(self, data):
        c = _carrier(*data.draw(st.sampled_from(TRANSLATE_CARRIERS)))
        elements = data.draw(st.sets(st.integers(0, c.order - 1),
                                     max_size=40))
        t = data.draw(st.integers(0, c.order - 1))
        mask = sum(1 << x for x in elements)
        assert c.translate(mask, t) == \
            sum(1 << c.add(x, t) for x in elements)

    def test_layouts(self):
        assert _carrier("field", 29).additive_layout == (29, 1)
        assert _carrier("ring", 54).additive_layout == (54, 1)
        assert _carrier("field", 3125).additive_layout == (5, 5)

    def test_full_mask_is_fixed(self):
        for kind, order in TRANSLATE_CARRIERS:
            c = _carrier(kind, order)
            full = (1 << c.order) - 1
            assert all(c.translate(full, t) == full for t in range(c.order))

    def test_integers_have_no_layout(self):
        with pytest.raises(ValueError):
            make_carrier("int").translate(1, 1)


class TestExtensionArithmetic:
    """The log-table operations against the field's definition: digit-wise
    addition mod p, and polynomial multiplication modulo the modulus."""

    @staticmethod
    def reference(c):
        p, r, m = c.characteristic, c.degree, c.modulus_poly

        def digits(a):
            return extension._digits_of(a, p, r)

        def encode(ds):
            return sum(d % p * p**i for i, d in enumerate(ds))

        def add(a, b):
            return encode(x + y for x, y in zip(digits(a), digits(b)))

        def neg(a):
            return encode(-x for x in digits(a))

        def mul(a, b):
            return encode(extension._poly_mod(
                extension._poly_mul(digits(a), digits(b)), m, p))

        return add, neg, mul

    def check_pair(self, c, a, b):
        add, neg, mul = self.reference(c)
        assert c.add(a, b) == add(a, b)
        assert c.sub(a, b) == add(a, neg(b))
        assert c.mul(a, b) == mul(a, b)

    def check_element(self, c, a):
        _, neg, _ = self.reference(c)
        assert c.neg(a) == neg(a)

    @pytest.mark.parametrize("order,modulus", [
        (4, None), (8, None), (9, None), (16, None), (25, None), (27, None),
        (49, None), (64, None), (81, None), (121, None), (125, None),
        (9, (2, 1, 1)), (8, (1, 0, 1, 1))])
    def test_exhaustive(self, order, modulus):
        c = make_carrier("field", order, modulus)
        if modulus is not None:
            assert c.modulus_poly == modulus
        for a in range(order):
            self.check_element(c, a)
            for b in range(order):
                self.check_pair(c, a, b)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_sampled_large_fields(self, data):
        c = _carrier("field", data.draw(st.sampled_from(
            (2187, 4913, 19683, MAX_ORDER))))
        a, b = (data.draw(st.integers(0, c.order - 1)) for _ in range(2))
        self.check_pair(c, a, b)
        self.check_element(c, a)

    @pytest.mark.parametrize("order", [4, 9, 64, 125, 2187, MAX_ORDER])
    def test_log_tables(self, order):
        c = _carrier("field", order)
        _, _, mul = self.reference(c)
        n = order - 1
        powers = c._exp[:n]
        # exp walks the powers of g = exp[1], which returns to 1 after
        # exactly q - 1 distinct steps, and log inverts it
        g = powers[1]
        assert all(mul(x, g) == y for x, y in zip(powers, c._exp[1:n + 1]))
        assert c._exp[n] == 1 and c._exp[n:] == powers
        assert sorted(powers) == list(range(1, order))
        assert all(c._log[x] == k for k, x in enumerate(powers))


def _polynomial_log_tables(c):
    """exp, log and zech of an extension field by the polynomial walk the
    digit-list walk replaced: powers of the smallest encoding >= p that
    returns to 1 only after q - 1 steps, multiplied by _poly_mul and
    reduced by _poly_mod."""
    p, r, m = c.characteristic, c.degree, c.modulus_poly
    n = c.order - 1
    for enc in range(p, c.order):
        g = extension._poly_trim(extension._digits_of(enc, p, r))
        x, exp = (1,), []
        while not exp or x != (1,):
            exp.append(sum(d * p**i for i, d in enumerate(x)))
            x = extension._poly_mod(extension._poly_mul(x, g), m, p)
        if len(exp) == n:
            break
    log = [-1] * c.order
    for k, x in enumerate(exp):
        log[x] = k
    digits = [extension._digits_of(x, p, r) for x in exp]
    zech = [log[sum((d + (i == 0)) % p * p**i for i, d in enumerate(ds))]
            for ds in digits]
    return exp * 2, log, zech * 2


@pytest.mark.parametrize("order", field_orders(4, 3000, "prime-powers-only"))
def test_log_tables_match_polynomial_walk(order):
    c = make_carrier("field", order)
    assert (c._exp, c._log, c._zech) == _polynomial_log_tables(c)


@pytest.mark.parametrize("order", [9, 49, 2187])
@pytest.mark.parametrize("element", ["square", "zero"])
def test_exp_walk_of_a_non_primitive_element_raises(order, element,
                                                    monkeypatch):
    # g**2 has order (q - 1)/2, so its walk meets 1 again halfway and
    # leaves half the units without a log; 0 never returns to 1.  The
    # assertion names the field
    primitive = extension._primitive_element

    def non_primitive(p, r, modulus_poly):
        g = primitive(p, r, modulus_poly) if element == "square" else ()
        return extension._poly_mod(extension._poly_mul(g, g), modulus_poly, p)

    monkeypatch.setattr(extension, "_primitive_element", non_primitive)
    with pytest.raises(AssertionError, match=f"F_{order} is not one cycle"):
        make_carrier("field", order)


class TestOrderGuard:
    @pytest.fixture
    def nothing_built(self, monkeypatch):
        # the guard must fire before the factorization, the irreducible
        # search and the search for the primitive element with its log
        # tables
        def refuse(*args, **kwargs):
            raise AssertionError("built past the order guard")
        monkeypatch.setattr(algebra, "prime_power_base", refuse)
        for name in ("find_irreducible", "_digits_of", "_log_tables"):
            monkeypatch.setattr(extension, name, refuse)

    @pytest.mark.parametrize("kind", ["field", "ring"])
    def test_make_carrier_just_above_limit(self, nothing_built, kind):
        with pytest.raises(ValueError, match="exceeds the limit"):
            make_carrier(kind, MAX_ORDER + 1)

    def test_constructors(self, nothing_built):
        with pytest.raises(ValueError, match="exceeds the limit"):
            ExtensionField(2, MAX_ORDER.bit_length())
        with pytest.raises(ValueError, match="exceeds the limit"):
            algebra.ModularRing(MAX_ORDER + 1)

    def test_limit_itself_accepted(self):
        assert algebra.check_order(MAX_ORDER) == MAX_ORDER


class TestSquares:
    def test_f17_square_set(self):
        assert list(squares(make_carrier("field", 17))) == \
            [0, 1, 2, 4, 8, 9, 13, 15, 16]

    def test_f29_size(self):
        assert len(squares(make_carrier("field", 29))) == 15

    def test_f2(self):
        assert list(squares(make_carrier("field", 2))) == [0, 1]

    @pytest.mark.parametrize("order", [101, 343, 512, 729, 1000])
    def test_matches_brute_force(self, order):
        kind = "field" if prime_power_base(order) else "ring"
        c = make_carrier(kind, order)
        brute = {c.mul(x, x) for x in range(order)}
        assert set(squares(c)) == brute
        if kind == "field" and order % 2 == 1:
            assert len(brute) == (order + 1) // 2

    @pytest.mark.parametrize("order", field_orders(4, 3000, "prime-powers-only")
                             + [19683, MAX_ORDER])
    def test_extension_squares_are_even_powers(self, order):
        # the masks come from the even powers of g; the reference squares
        # every element
        c = make_carrier("field", order)
        seen = {c.mul(x, x) for x in range(order)}
        s, neg = c.square_set()
        assert set(mask_bits(s)) == seen
        assert set(mask_bits(neg)) == {c.neg(x) for x in seen}

    def test_negations_follow_from_squares(self):
        # a field derives N from S: -S = S when -1 is a square, otherwise
        # the nonsquares and 0; against the negation of every square
        for order in (*field_orders(2, 3000), 32749, 32761):
            c = make_carrier("field", order)
            s, neg = c.square_set()
            assert neg == algebra._bitmask(map(c.neg, mask_bits(s)), order), \
                order

    def test_residue_masks_match_brute_force(self):
        # Z/nZ's S from x <= n/2 and its N read off S's digits rotated,
        # against every x**2 mod n and its negation; a prime field's S too
        for n in (*range(2, 3001), 32749, 32768):
            brute = {x * x % n for x in range(n)}
            s = sum(1 << x for x in brute)
            assert make_carrier("ring", n).square_set() == \
                (s, sum(1 << -x % n for x in brute)), n
            if is_prime(n):
                assert make_carrier("field", n).square_set()[0] == s, n

    def test_ring_squares_direct(self):
        c = make_carrier("ring", 27)
        brute = {x * x % 27 for x in range(27)}
        s, neg = c.square_set()
        assert set(mask_bits(s)) == brute
        assert set(mask_bits(neg)) == {-x % 27 for x in brute}


class TestCenterPairs:
    # the pairs (e^2 - delta, e^2 + delta) as their offsets D_e
    def test_f19_center_one(self):
        # pairs (4, 17) and (5, 16)
        c = make_carrier("field", 19)
        assert mask_bits(center_offsets(c, 1)) == [3, 4, 15, 16]

    def test_f23_center_one_counts_three(self):
        # 0^2 + 5^2 = 3^2 + 4^2 = 6^2 + 9^2 = 2 in F_23
        c = make_carrier("field", 23)
        d_mask = center_offsets(c, 1)
        assert d_mask.bit_count() // 2 == 3
        assert d_mask >> 1 & 1  # the pair (0, 2)

    def test_f17_center_zero(self):
        # pairs (1, 16), (2, 15), (4, 13) and (8, 9)
        c = make_carrier("field", 17)
        assert mask_bits(center_offsets(c, 0)) == [1, 2, 4, 8, 9, 13, 15, 16]

    @pytest.mark.parametrize("kind,order", [("field", 101), ("field", 343),
                                            ("ring", 360), ("ring", 499)])
    def test_completeness_against_double_loop(self, kind, order):
        c = make_carrier(kind, order)
        sq = {c.mul(x, x) for x in range(order)}
        for e in (0, 1, 2):
            e2 = c.mul(e, e)
            brute = [d for d in range(order)
                     if c.add(e2, d) in sq and c.sub(e2, d) in sq
                     and c.add(d, d) != 0]
            assert mask_bits(center_offsets(c, e2)) == brute

    @pytest.mark.parametrize("kind,order", [
        ("field", 2), ("field", 8), ("field", 9), ("field", 101),
        ("ring", 2), ("ring", 27), ("ring", 30), ("ring", 64)])
    def test_two_torsion_is_the_order_two_offsets(self, kind, order):
        c = make_carrier(kind, order)
        assert mask_bits(two_torsion(c)) == \
            [d for d in range(order) if c.add(d, d) == 0]
        assert repr(c) == str(c)


class TestDivisorRepresentatives:
    def test_prime(self):
        assert divisor_representatives(29) == [1, 0]

    def test_prime_power(self):
        assert divisor_representatives(27) == [1, 3, 9, 0]

    def test_composite(self):
        assert divisor_representatives(54) == [1, 2, 3, 6, 9, 18, 27, 0]

    def test_every_residue_is_unit_times_divisor(self):
        c = make_carrier("ring", 54)
        reps = divisor_representatives(54)
        reachable = {c.mul(u, d) for d in reps for u in c.units()} | {0}
        assert reachable == set(range(54))

