import collections
import functools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from parker import algebra, listing, search, survey
from parker.algebra import (MAX_ORDER, Integers, is_prime, make_carrier,
                            mask_bits, prime_power_base)
from parker.core import dihedral_canonical, dihedral_orbit, validate_square
from parker.listing import msos_field, msos_ring
from parker.oracle import (brute_force_oracle, divisor_representatives,
                           oracle_agreement, scaling_closure)
from parker.search import count_field, count_ring, prefilter_field
from parker.survey import field_orders

MOD29_SQUARE = tuple(x * x % 29 for x in (9, 11, 1, 6, 0, 14, 12, 16, 8))
COR71_SQUARE = tuple(x * x % 59 for x in (20, 12, 7, 2, 1, 23, 22, 25, 29))


class TestMsosField:
    def test_f29_count_and_content(self):
        result = msos_field(29)
        assert result.tuple_count == 2
        assert not result.parker
        assert dihedral_orbit(MOD29_SQUARE) & set(result.tuples)

    def test_parker_fields_empty(self):
        assert msos_field(17).tuple_count == 0
        assert msos_field(17).parker
        assert msos_field(4).tuple_count == 0

    def test_f59_contains_printed_construction(self):
        result = msos_field(59)
        assert result.tuple_count > 0
        assert dihedral_orbit(COR71_SQUARE) & set(result.tuples)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            msos_field(12)
        with pytest.raises(ValueError):
            msos_field(make_carrier("ring", 29))

    def test_deterministic(self):
        assert msos_field(61).tuples == msos_field(61).tuples

    @pytest.mark.parametrize("q", [29, 59, 61, 81])
    def test_every_tuple_is_magic_with_expected_structure(self, q):
        carrier = make_carrier("field", q)
        for t in msos_field(carrier).tuples:
            report = validate_square(t, carrier)
            assert report.is_magic
            e2 = t[4]
            # the total is three times the center and each line through the
            # center splits as a pair summing to twice the center
            assert report.common_total == carrier.add(carrier.add(e2, e2), e2)
            two_e2 = carrier.add(e2, e2)
            for u, v in ((t[0], t[8]), (t[2], t[6]), (t[1], t[7]),
                         (t[3], t[5])):
                assert carrier.add(u, v) == two_e2


class TestMsosRing:
    def test_reference_counts(self):
        assert msos_ring(27).tuple_count == 3
        assert msos_ring(29).tuple_count == 7
        assert msos_ring(25).tuple_count == 0
        assert msos_ring(25).parker

    @pytest.mark.parametrize("n", [1032, 2048, 2310])
    def test_one_scan_per_divisor_square(self, n, monkeypatch):
        # divisors with equal squares would scan the same center twice
        scanned = []
        kernel = listing._pair_hits

        def counting(carrier, e2, d_mask):
            scanned.append(e2)
            return kernel(carrier, e2, d_mask)

        monkeypatch.setattr(listing, "_pair_hits", counting)
        result = msos_ring(n)
        divisor_squares = {e * e % n for e in divisor_representatives(n)}
        assert sorted(scanned) == sorted(divisor_squares)
        assert result.tuples == _reference_msos(make_carrier("ring", n))
        # the count comes from the prime-power factors, with no pair
        # kernel over Z/nZ
        scanned.clear()
        assert count_ring(n) == result.tuple_count
        assert scanned == []

    def test_bad_input(self):
        with pytest.raises(ValueError):
            msos_ring(1)
        with pytest.raises(ValueError):
            msos_ring(make_carrier("field", 29))

    @pytest.mark.parametrize("n", [27, 29, 54])
    def test_tuples_are_magic(self, n):
        carrier = make_carrier("ring", n)
        for t in msos_ring(carrier).tuples:
            assert validate_square(t, carrier).is_magic


class TestClassInvariant:
    def test_one_tuple_per_class_to_500(self):
        results = [msos_field(q) for q in field_orders(2, 500)]
        results += [msos_ring(n) for n in range(2, 501)]
        for r in results:
            classes = {dihedral_canonical(t) for t in r.tuples}
            assert len(classes) == r.tuple_count == r.dihedral_class_count, \
                r.carrier


def _reference_emit(out, sub, sq, t3, e2, a2, i2, c2, g2):
    ta, ti = sub(t3, a2), sub(t3, i2)
    b, d, f, h = sub(ta, c2), sub(ta, g2), sub(ti, c2), sub(ti, g2)
    t = (a2, b, c2, d, e2, f, g2, h, i2)
    if {b, d, f, h} <= sq and len(set(t)) == 9:
        out.add(t)


def _reference_msos(carrier):
    """The pair-combination double loop the bitset kernel replaced: every
    later center pair on the diagonal against every earlier one."""
    add, sub = carrier.add, carrier.sub
    sq = set(_square_walk(carrier))
    out = set()
    if carrier.kind == "modular-ring":
        centers = divisor_representatives(carrier.order)
    else:
        one = carrier.encode_int(1)
        for a2, i2 in _legacy_center_pairs(carrier, 0):
            _reference_emit(out, sub, sq, 0, 0, a2, i2, one, carrier.neg(one))
        centers = [one]
    for e in centers:
        e2 = carrier.mul(e, e)
        t3 = add(add(e2, e2), e2)
        pairs = _legacy_center_pairs(carrier, e2)
        for j, (a2, i2) in enumerate(pairs):
            for c2, g2 in pairs[:j]:
                _reference_emit(out, sub, sq, t3, e2, a2, i2, c2, g2)
    return tuple(sorted(out))


def _square_walk(carrier):
    """Every square, ascending, from squaring every element."""
    return sorted({carrier.mul(x, x) for x in range(carrier.order)})


def _legacy_center_pairs(carrier, e2):
    """The center pairs (u, v), u < v, of the center square e2 = e^2, as a
    walk over every square: u pairs with 2e^2 - u."""
    sq = _square_walk(carrier)
    in_sq = set(sq)
    target = carrier.add(e2, e2)
    pairs = []
    for u in sq:
        v = carrier.sub(target, u)
        if u < v and v in in_sq:
            pairs.append((u, v))
    return tuple(pairs)


def _legacy_repeat_mask(carrier):
    add, neg, mul = carrier.add, carrier.neg, carrier.mul
    p = carrier.additive_layout[0]
    if p % 2:
        half = carrier.encode_int((p + 1) // 2)

        def repeats(alpha):
            two, h = add(alpha, alpha), mul(alpha, half)
            return (1 << two) | (1 << neg(two)) | (1 << h) | (1 << neg(h))
        return repeats
    n = carrier.order
    m = n // 2

    def repeats(alpha):
        two = add(alpha, alpha)
        out = (1 << two) | (1 << neg(two))
        if alpha % 2 == 0:
            h = alpha // 2
            out |= (1 << h) | (1 << (h + m)) | (1 << (m - h)) | (1 << (n - h))
        return out
    return repeats


def _legacy_pair_hits(carrier, e2, pairs, anti_diagonal=None):
    """The pair kernel before the residue path: the pairs of the square walk,
    offsets by carrier.sub and every translation by Carrier.translate."""
    if not pairs:
        return
    sub, translate = carrier.sub, carrier.translate
    offsets = [(sub(v, e2), sub(u, e2)) for u, v in pairs]
    d_mask = 0
    for up, down in offsets:
        d_mask |= (1 << up) | (1 << down)
    repeats = _legacy_repeat_mask(carrier)
    earlier = 0 if anti_diagonal is None else anti_diagonal
    for alpha, minus_alpha in offsets:
        hits = translate(d_mask, minus_alpha) & earlier
        if anti_diagonal is None:
            earlier |= 1 << alpha
        if hits:
            hits &= translate(d_mask, alpha)
        if hits:
            hits &= ~repeats(alpha)
        if hits:
            yield alpha, hits


@functools.cache
def _extension_field(order):
    return make_carrier("field", order)


class TestPairKernel:
    def test_matches_legacy_kernel(self):
        # every yield, in order, at every center the searches scan; the
        # center-0 field run yields the hits of the legacy kernel's fixed
        # anti-diagonal in another order, and a field of even order has no
        # center.  F_32749 and F_32761 add center 0 at the order limit,
        # where -1 is a square and D_0 is not empty
        carriers = [make_carrier("field", q) for q in field_orders(2, 500)]
        carriers += [make_carrier("ring", n) for n in range(2, 401)]
        carriers += [make_carrier("ring", n) for n in (1032, 2048, 2310, 3216)]
        carriers += [make_carrier("field", q) for q in (2187, 4913)]
        carriers += [make_carrier("field", q) for q in (32749, 32761)]
        hit_centers = 0
        for c in carriers:
            centers = listing._ring_centers(c) if c.kind == "modular-ring" \
                else listing._field_centers(c)
            for e2, run in centers[1]:
                if c.order > 5000 and e2:
                    continue
                pairs = _legacy_center_pairs(c, e2)
                d_mask = search.center_offsets(c, e2)
                assert d_mask == sum((1 << c.sub(u, e2)) | (1 << c.sub(v, e2))
                                     for u, v in pairs), (c, e2)
                got = list(run(c, e2, d_mask))
                if run is listing._pair_hits:
                    assert got == list(_legacy_pair_hits(c, e2, pairs)), \
                        (c, e2)
                else:
                    assert c.kind != "modular-ring" and e2 == 0
                    fixed = 1 << c.neg(c.encode_int(1))
                    assert sorted(got) == sorted(_legacy_pair_hits(
                        c, e2, pairs, anti_diagonal=fixed)), c
                hit_centers += bool(got)
        assert hit_centers > 500

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_doubled_shift_is_translate(self, data):
        # the counting kernel of a single-digit layout translates D' as
        # doubled >> (n - t), read below bit n (see _center_counts)
        n = data.draw(st.integers(2, 700))
        kind = "field" if data.draw(st.booleans()) and is_prime(n) else "ring"
        c = make_carrier(kind, n)
        mask = data.draw(st.integers(0, (1 << n) - 1))
        t = data.draw(st.integers(0, n - 1))
        doubled = mask | mask << n
        assert (doubled >> (n - t)) & ((1 << n) - 1) == c.translate(mask, t)

    def test_table_lookup_is_translate(self):
        # the extension-field path looks up as many low digits h as fit
        # 2**24 bits of 2q-bit entries, all of them for every F_{p^2} up
        # to F_181^2 and for F_23^3; F_6561 keeps at most 6 of its 7 low
        # digits there, F_19683 5 of 8, F_13^4 2 of 3, F_29^3 and F_31^3 1
        # of 2, and the other digits are added by Carrier.translate.  Below
        # that cap p**h is at most twice the lookups: each height is taken
        # with the fewest lookups that pick it, and one fewer picks h - 1
        for order, low_digits in (
                (25, 1), (1331, 2), (2187, 6), (3125, 4), (6561, 6),
                (19683, 5), (24389, 1), (12167, 2), (16129, 1), (17161, 1),
                (32761, 1), (28561, 2), (29791, 1)):
            c = _extension_field(order)
            p, r = c.additive_layout
            rng = random.Random(order)
            for height in range(low_digits + 1):
                lookups = (p**height + 1) // 2
                for _ in range(4):
                    mask = rng.getrandbits(order)
                    t = rng.randrange(order)
                    table, translate = search._translator(c, mask, lookups)
                    assert len(table) == p**height, (order, height)
                    assert len(table) * 2 * order <= 2**24
                    assert translate(t) & ((1 << order) - 1) == \
                        c.translate(mask, t), (order, height, t)
                if height:
                    table = search._translator(c, mask, lookups - 1)[0]
                    assert len(table) == p**(height - 1), (order, height)
            # lookups of the order get the table capped by TABLE_BITS
            assert len(search._translator(c, mask, order)[0]) == \
                p**low_digits, order

    def test_matches_double_loop(self):
        carriers = [make_carrier("field", q) for q in field_orders(2, 500)]
        carriers += [make_carrier("ring", n) for n in range(2, 301)]
        carriers += [make_carrier("field", 2187), make_carrier("field", 4913),
                     make_carrier("ring", 1032), make_carrier("ring", 2048)]
        nonempty = 0
        for c in carriers:
            result = msos_ring(c) if c.kind == "modular-ring" \
                else msos_field(c)
            assert result.tuples == _reference_msos(c), c
            nonempty += bool(result.tuples)
        assert nonempty > 250

    @pytest.mark.parametrize("kind", ["field", "ring"])
    def test_order_above_limit(self, kind):
        search = msos_field if kind == "field" else msos_ring
        with pytest.raises(ValueError, match="exceeds the limit"):
            search(MAX_ORDER + 1)


class TestCount:
    def test_count_equals_tuple_count_to_1000(self):
        # msos_* decodes every hit and raises AssertionError on a repeated
        # cell, so this also shows the kernel clears every repeating offset
        for n in range(2, 1001):
            assert count_ring(n) == msos_ring(n).tuple_count, n
        for q in field_orders(2, 1000):
            assert count_field(q) == msos_field(q).tuple_count, q

    @pytest.mark.parametrize("kind,order", [("ring", 25), ("field", 25)])
    def test_decode_catches_an_uncleared_repeat(self, monkeypatch, kind,
                                                order):
        # with no offset cleared the kernel hands repeated cells on; the
        # center-0 run reads search's mask and the center-1 runs listing's
        for module in (search, listing):
            monkeypatch.setattr(module, "_repeat_mask",
                                lambda carrier: lambda alpha: 0)
        search_fn = msos_field if kind == "field" else msos_ring
        # the field's center-0 run comes first: alpha = -2, gamma = -1
        center = r"\((\d+, ){4}0, " if kind == "field" else ""
        with pytest.raises(AssertionError, match=center + ".* repeats a cell"):
            search_fn(order)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            count_field(12)
        with pytest.raises(ValueError):
            count_ring(make_carrier("field", 29))
        with pytest.raises(ValueError, match="exceeds the limit"):
            count_ring(MAX_ORDER + 1)
        with pytest.raises(ValueError, match="invalid order"):
            count_ring(1)


def _brute_component(carrier, c):
    """N(S), O(S) and O5(S) at the center square c of a finite carrier, by
    a walk over every (alpha, gamma) and every x in its own arithmetic (see
    search._class_total)."""
    add, sub = carrier.add, carrier.sub
    sq = set(_square_walk(carrier))
    d = [t for t in range(carrier.order)
         if add(c, t) in sq and sub(c, t) in sq]
    in_d = set(d)
    zero = {t for t in d if add(t, t) == 0}

    def in_zero(values):
        return sum(1 << i for i, v in enumerate(values) if v in zero)

    # how many (alpha, gamma), and how many x, hit Z at each set of positions
    pair_hits, triple_hits = collections.Counter(), collections.Counter()
    for a in d:
        for g in d:
            values = (a, g, add(a, g), sub(a, g))
            if values[2] in in_d and values[3] in in_d:
                pair_hits[in_zero(values)] += 1
    for x in d:
        two = add(x, x)
        values = (x, two, add(two, x))
        if values[1] in in_d and values[2] in in_d:
            triple_hits[in_zero(values), add(values[2], two) == 0] += 1
    pairs = [sum(n for hit, n in pair_hits.items() if s & hit == s)
             for s in range(16)]
    triples = [sum(n for (hit, _), n in triple_hits.items() if s & hit == s)
               for s in range(8)]
    fives = [sum(n for (hit, five), n in triple_hits.items()
                 if five and s & hit == s) for s in range(8)]
    return (*pairs, *triples, *fives)


# the sets S of positions of N(S), as bitmasks, in the orbits of the swaps
# alpha <-> gamma (bits 0 and 1) and gamma <-> -gamma (bits 2 and 3)
_N_ORBITS = ((0,), (1, 2), (3,), (4, 8), (5, 6, 9, 10), (7, 11), (12,),
             (13, 14), (15,))


def _distinct_counts(vector):
    """A 32-entry _brute_component vector as the 25 entries of
    search._center_counts, once N(S) is checked equal on each orbit."""
    for orbit in _N_ORBITS:
        assert len({vector[s] for s in orbit}) == 1, (orbit, vector)
    return (*(vector[orbit[0]] for orbit in _N_ORBITS), *vector[16:])


def _kernel_count(carrier, e2, run=listing._pair_hits):
    """The popcount of the hit masks of one center of a search."""
    return sum(hits.bit_count() for _, hits in run(
        carrier, e2, search.center_offsets(carrier, e2)))


def _search_kernel_count(carrier, centers):
    """The popcount of the hit masks of every center of a search, the
    count of its listing."""
    return sum(_kernel_count(carrier, e2, run) for e2, run in centers)


class TestRingCount:
    def test_component_vectors_match_brute_force_to_64(self):
        # every center square, not only the class representative that
        # count_ring uses, so this also checks the gcd lemma mod q
        powers = [q for q in range(2, 65) if prime_power_base(q)]
        assert len(powers) == 27
        for q in powers:
            vectors = {r: head + tail for r, head, tail, _, _
                       in search._component_counts(*prime_power_base(q))}
            centers = {x * x % q for x in range(q)}
            assert set(vectors) == {math.gcd(c, q) for c in centers}, q
            for c in centers:
                assert vectors[math.gcd(c, q)] == _distinct_counts(
                    _brute_component(make_carrier("ring", q), c)), (q, c)
            assert search.ring_square_count(q) == len(centers)

    @pytest.mark.parametrize("kind", ["field", "ring"])
    def test_center_one_offsets_closed_form(self, kind):
        # |D'| = (p - chi(-1))/4 + [chi(2) = 1] at the center 1 of F_p
        # and Z/pZ, asserted by _center_counts, against D' itself
        for p in filter(is_prime, range(3, 2000)):
            c = make_carrier(kind, p)
            d = _center_one_offsets(c)
            chi = {x: 1 if c.is_square(x) else -1 for x in (p - 1, 2)}
            assert d.bit_count() == \
                (p - chi[p - 1]) // 4 + (chi[2] == 1), (kind, p)
            search._center_counts(c, 1)

    @pytest.mark.parametrize("kind", ["field", "ring"])
    def test_center_one_offsets_closed_form_breaks(self, kind):
        # flipping bit -1 of N takes 0 out of D' at the center 1
        for p in (29, 31, 1021):
            c = make_carrier(kind, p)
            s, negs = c.square_set()
            c._square_set = s, negs ^ 1 << p - 1
            with pytest.raises(AssertionError,
                               match=rf"at the center 1 of {re.escape(str(c))}"):
                search._center_counts(c, 1)

    def test_prime_center_zero_is_one_orbit(self):
        # at the center 0 of Z/p the kernel reads alpha = 1 alone, against
        # the plain kernel over every lower member of D' = S & N
        for p in (*filter(is_prime, range(2, 3001)), 10009, 32749):
            c = make_carrier("ring", p)
            s, negs = c.square_set()
            d = s & negs
            dd = d | d << p
            plain = sum((d & dd >> a & dd >> p - a).bit_count()
                        for a in mask_bits(d) if 0 < a < p - a)
            vector = search._center_counts(c, 0)
            assert vector[0] - vector[1] == 2 * plain == \
                (p - 1) // 2 * (d & dd >> 1 & dd >> p - 1).bit_count(), p

    def test_count_depends_only_on_center_gcd_to_600(self):
        # the kernel's count at every center square of Z/nZ
        for n in range(2, 601):
            carrier = make_carrier("ring", n)
            counts = {}
            for c in {x * x % n for x in range(n)}:
                counts.setdefault(math.gcd(c, n), set()).add(
                    _kernel_count(carrier, c))
            assert all(len(v) == 1 for v in counts.values()), (n, counts)

    @pytest.mark.parametrize("orders", [
        range(1004, 3000, 4),
        (1024, 2048, 3125, 16384, 27720, 30030, 32749, 32760, 32764, 32768)])
    def test_equals_kernel_count(self, orders):
        for n in orders:
            assert count_ring(n) == _search_kernel_count(
                *listing._ring_centers(n)), n

    @given(st.integers(2, 6000))
    @settings(max_examples=60, deadline=None)
    def test_equals_kernel_count_property(self, n):
        assert count_ring(n) == _search_kernel_count(*listing._ring_centers(n))

    def test_square_count_is_the_square_set(self):
        for n in (*range(2, 1001), 3216, 27720, 32768):
            assert search.ring_square_count(n) == \
                make_carrier("ring", n).square_set()[0].bit_count(), n

    @pytest.mark.parametrize("n", [
        0, 1, MAX_ORDER + 1,
        pytest.param(make_carrier("field", 29), id="F_29"),
        # two 60-bit primes, which Pollard rho would take far too long on
        1152921504606846883 * 1152921504606846869])
    def test_square_count_passes_the_ring_gate(self, monkeypatch, n):
        def no_factoring(m):
            raise AssertionError(f"factorize({m}) called")

        monkeypatch.setattr(search, "factorize", no_factoring)
        with pytest.raises(ValueError):
            search.ring_square_count(n)

    @staticmethod
    def _faulty(monkeypatch, q, r, fault):
        """Patch _component_counts so that the row of the class r of Z/qZ
        takes the vector fault(v) in place of its own."""
        real = search._component_counts

        def faulty(p, k):
            return tuple(search._count_row(r, fault(row[1] + row[2]))
                         if p**k == q and row[0] == r else row
                         for row in real(p, k))

        monkeypatch.setattr(search, "_component_counts", faulty)

    def test_divisibility_checked_per_class(self, monkeypatch):
        # N_27({}) raised by 2 at the class 9 of Z/27Z moves T by 2 times
        # N_8({}) in each class of Z/216Z that takes it: 1 at the class 9,
        # 4 at the classes 36 and 72, so only the class 9 breaks T = 0 mod 8
        self._faulty(monkeypatch, 27, 9, lambda v: (v[0] + 2, *v[1:]))
        with pytest.raises(AssertionError,
                           match=r"^center class 9 of Z/216Z: T = "):
            count_ring(216)

    def test_repeat_divisibility_checked_per_class(self, monkeypatch):
        # O_27({}) raised by 1 at the class 9 of Z/27Z moves 2(O - O5) + O5
        # by 2 times O_8({}) in each class of Z/216Z that takes it: 1 at the
        # class 9, 2 at the classes 36 and 72, so only the class 9 breaks
        # 2(O - O5) + O5 = 0 mod 4, and T stays as it is
        self._faulty(monkeypatch, 27, 9,
                     lambda v: (*v[:9], v[9] + 1, *v[10:]))
        with pytest.raises(AssertionError,
                           match=r"^center class 9 of Z/216Z: T = \d+ and "
                                 r"2\(O - O5\) \+ O5 = -?\d+$"):
            count_ring(216)

    def test_divisibility_checked_past_a_middle_factor(self, monkeypatch):
        # Z/1080Z runs its factors 5, 8, 27, so Z/8Z is the middle level.
        # N_8({}) raised by 2 and N_8({alpha}) by 1 at the class 4 of Z/8Z
        # move T by 2*N_5({})*N_27({}) - 2*N_5({alpha})*N_27({alpha}) in
        # each class that takes it.  Both N_27 are 1 mod 8 at every class,
        # and the two N_5 are 1, 1 at the class 1 of Z/5Z and 5, 3 at the
        # class 5, so T moves by 0 mod 8 at 4, 36 and 108 and by 4 at 20,
        # 180 and 540; the first of these in the product's order is 20
        self._faulty(monkeypatch, 8, 4,
                     lambda v: (v[0] + 2, v[1] + 1, *v[2:]))
        with pytest.raises(AssertionError,
                           match=r"^center class 20 of Z/1080Z: T = "):
            count_ring(1080)

    def test_cache_holds_integer_vectors_per_prime_power(self):
        search._component_counts.cache_clear()
        for n in (27720, 32764, 4096):
            count_ring(n)
        # 2**3, 3**2, 5, 7, 11, 2**2, 8191, 2**12
        info = search._component_counts.cache_info()
        assert info.currsize == 8 and info.hits
        for q in (8, 9, 5, 7, 11, 4, 8191, 4096):
            for r, *halves in search._component_counts(*prime_power_base(q)):
                assert type(r) is int
                assert [len(h) for h in halves] == [9, 16, 9, 16]
                assert all(isinstance(h, tuple)
                           and all(type(x) is int for x in h)
                           for h in halves)
        assert search._component_counts.cache_info().currsize == 8


class TestFieldCount:
    def test_center_one_vector_matches_brute_force_to_729(self, monkeypatch):
        # the one vector count_field takes, at center 1 of every odd field
        # order, against a walk in the field's own arithmetic
        vectors = []
        real = search._center_counts

        def recording(*args):
            vectors.append(real(*args))
            return vectors[-1]

        monkeypatch.setattr(search, "_center_counts", recording)
        orders = [q for q in field_orders(3, 729) if q % 2]
        assert len(orders) == 143
        for q in orders:
            carrier = make_carrier("field", q)
            vectors.clear()
            count_field(carrier)
            assert vectors == [_distinct_counts(
                _brute_component(carrier, 1))], q

    @pytest.mark.parametrize("orders", [
        [q for q in field_orders(3, 3000) if q % 2],
        (19683, 28561, 29791, 32749, 32761)])
    def test_center_zero_vector_counts_the_mask(self, orders):
        # count_field takes center 0 from the mask T of tuples with
        # (c, g) = (1, -1), while the vector at center 0 counts every
        # unordered pair of center pairs.  The (q - 1)/2 unit squares fix
        # the center 0, and +-1 act trivially, so each orbit has (q - 1)/4
        # pairs of pairs and 2 of them normalized; for q = 3 (mod 4) both
        # sides are 0
        for q in orders:
            carrier = make_carrier("field", q)
            t_mask = search._center_zero_mask(
                carrier, search.center_offsets(carrier, 0))
            row = search._count_row(1, search._center_counts(carrier, 0))
            n0 = search._class_total(search._ONES, (row,), {1: 1}, carrier)
            assert 8 * n0 == (q - 1) * (t_mask.bit_count() // 2), q

    @pytest.mark.parametrize("orders", [
        field_orders(2, 3000),
        # degrees 8, 6, 5, 9, 4, 3 and 2 past the orders above; all but
        # F_181^2 have translation tables cut short, so their center-1
        # kernel also adds the middle digits by Carrier.translate
        (6561, 15625, 16807, 19683, 28561, 29791, 32761)])
    def test_equals_kernel_count(self, orders):
        for q in orders:
            assert count_field(q) == _search_kernel_count(
                *listing._field_centers(q)), q

    def test_even_orders_list_nothing_with_no_kernel(self, monkeypatch):
        # u + v = 2e^2 = 0 forces u = v, so the field search gives a field
        # of even order no center and runs no kernel below it
        def refuse(*args, **kwargs):
            raise AssertionError("ran a kernel")

        for name in ("_pair_hits", "_center_zero_hits", "center_offsets"):
            monkeypatch.setattr(listing, name, refuse)
        for k in range(1, 16):
            result = msos_field(2**k)
            assert result.tuples == () and result.carrier.order == 2**k

    def test_even_orders_count_zero_with_nothing_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a carrier")

        monkeypatch.setattr(search, "make_carrier", refuse)
        assert [count_field(2**k) for k in range(1, 16)] == [0] * 15
        with pytest.raises(ValueError, match="not a prime power"):
            count_field(24)


_EXTENSIONS_TO_3000 = tuple(q for q in field_orders(4, 3000,
                                                   "prime-powers-only")
                            if prime_power_base(q)[1] > 1)


def _center_one_offsets(carrier):
    """D' at the center 1: the delta with 1 + delta and 1 - delta square."""
    s, negs = carrier.square_set()
    return carrier.translate(s, carrier.neg(1)) & carrier.translate(negs, 1)


def _scaled_members(carrier, mask, k):
    """{t : k*t in mask} member by member: the image of mask under the
    inverse of k mod p, or everything or nothing when p | k, as 0 is in
    mask or not."""
    p = carrier.characteristic
    if k % p == 0:
        return (1 << carrier.order) - 1 if mask & 1 else 0
    inverse = carrier.encode_int(pow(k, -1, p))
    return sum(1 << carrier.mul(inverse, w) for w in mask_bits(mask))


def _by_log(carrier, mask):
    """mask in log order: bit 0 for the element 0, bit j + 1 for g**j."""
    log = carrier._log
    return mask & 1 | algebra._bitmask(
        (log[x] + 1 for x in mask_bits(mask) if x), carrier.order)


def _from_log(carrier, mask):
    """The mask of the elements that bits of a log-order mask stand for."""
    exp = carrier._exp
    return mask & 1 | algebra._bitmask(
        (exp[j - 1] for j in mask_bits(mask) if j), carrier.order)


class TestExtensionPreimage:
    # every extension field up to 3000, then F_3^8 and F_181^2; the
    # preimage of a mask in log order, read back, against the member by
    # member image
    ORDERS = (*_EXTENSIONS_TO_3000, 6561, 32761)

    @pytest.mark.parametrize("order", ORDERS)
    def test_center_one_offsets_and_small_masks(self, order):
        c = _extension_field(order)
        d = _center_one_offsets(c)
        rng = random.Random(order)
        masks = [d, 0, 1, (1 << order) - 1]
        masks += [sum(1 << x for x in rng.sample(range(order), size))
                  for size in range(1, min(order, 8) + 1)]
        for k in (2, 3, 5):
            for mask in masks:
                assert _from_log(c, search._preimage(c, _by_log(c, mask), k)) \
                    == _scaled_members(c, mask, k), (order, k, mask)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_mask(self, data):
        order = data.draw(st.sampled_from(self.ORDERS))
        c = _extension_field(order)
        mask = data.draw(st.integers(0, (1 << order) - 1))
        k = data.draw(st.sampled_from((2, 3, 5)))
        assert _from_log(c, search._preimage(c, _by_log(c, mask), k)) == \
            _scaled_members(c, mask, k)


class TestFrobeniusOrbits:
    ORDERS = (*(q for q in _EXTENSIONS_TO_3000 if q % 2),
              6561, 16807, 19683, 28561, 32761)

    @pytest.mark.parametrize("order", ORDERS)
    def test_orbit_sum_is_the_lower_member_sum(self, order):
        # N({}) at center 1 is twice the sum over the lower members alpha
        # of D' (alpha < -alpha) of |D' & (D' - alpha) & (D' + alpha)|,
        # plus |D'| for alpha = 0; _center_counts sums one alpha per orbit
        c = _extension_field(order)
        d = _center_one_offsets(c)
        translate = search._translator(c, d, order)[1]
        plain = sum((d & translate(a) & translate(c.neg(a))).bit_count()
                    for a in mask_bits(d) if a < c.neg(a))
        assert search._center_counts(c, 1)[0] == 2 * plain + d.bit_count()

    @pytest.mark.parametrize("order", ORDERS)
    def test_log_order_counts_match_scaled_members(self, order):
        # the other 24 entries, counted in log order, against the same
        # counts over the elements in their own order, with Z = {0}, so
        # zd = D' & Z = {0}, and every preimage taken member by member
        c = _extension_field(order)
        d = _center_one_offsets(c)
        zd = d & 1
        assert zd == 1
        d2, d3, zd2, zd3, fives = (_scaled_members(c, m, k) for m, k in (
            (d, 2), (d, 3), (zd, 2), (zd, 3), (1, 5)))
        triples = [x & y & w for w in (d3, zd3) for y in (d2, zd2)
                   for x in (d, zd)]
        # S = {alpha}, {alpha, gamma}, {alpha + gamma}, {alpha, alpha +
        # gamma} and with gamma, {alpha +- gamma}, all but gamma, all four
        expected = (d, zd & d, d & d2, d & zd, zd & d & zd, d & zd2,
                    d & zd, zd, *triples, *(m & fives for m in triples))
        assert search._center_counts(c, 1)[1:] == \
            tuple(m.bit_count() for m in expected)


class TestCountingBuildsNoZech:
    @pytest.mark.parametrize("order", [9, 25, 27, 841, 2187, 6561])
    def test_count_prefilter_and_scan(self, order, monkeypatch):
        # counting keeps to mul, neg and translate; only add and sub, for
        # listing, verify and the oracle, build the Zech table
        c = make_carrier("field", order)
        count_field(c)
        prefilter_field(c)
        built = []

        def recording(*args):
            built.append(make_carrier(*args))
            return built[-1]

        monkeypatch.setattr(survey, "make_carrier", recording)
        survey.scan_field_order(order)
        assert len(built) == 1
        for carrier in (c, *built):
            assert "_zech" not in carrier.__dict__, carrier
        msos_field(c)
        assert "_zech" in c.__dict__


class TestPrefilter:
    def test_examples(self):
        assert prefilter_field(16) == "even-order"
        assert prefilter_field(13) == "too-few-squares"
        assert prefilter_field(23) == "pair-deficit"
        assert prefilter_field(29) is None

    def test_consecutive_square_verdicts(self):
        assert prefilter_field(17) == "no-consecutive-squares"
        assert prefilter_field(25) == "no-consecutive-squares"

    def test_non_prime_power_orders_rejected(self):
        # even ones before the even-order verdict, odd ones by the carrier
        for q in (0, 6, 12, 10**9, 15, 2**40 * 3):
            with pytest.raises(ValueError, match="not a prime power"):
                prefilter_field(q)

    def test_non_field_carriers_rejected(self):
        # Z/45Z has squares, so a verdict would be a wrong Parker label;
        # Z/25Z and the integers failed inside the cascade
        assert count_ring(45) == 3
        for carrier in (make_carrier("ring", 45), make_carrier("ring", 25),
                        Integers()):
            with pytest.raises(ValueError, match="needs a field carrier"):
                prefilter_field(carrier)

    def test_powers_of_two_settled_without_carrier(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a carrier")

        monkeypatch.setattr(search, "make_carrier", refuse)
        monkeypatch.setattr(algebra.Carrier, "square_set", refuse)
        for q in (2, 16, 2**40):
            assert prefilter_field(q) == "even-order"

    def test_verdicts_to_2000(self):
        # scans ask the prefilter only about Parker orders, so this pins
        # the cascade on every order
        expected = {2**k: "even-order" for k in range(1, 11)}
        expected.update(dict.fromkeys((3, 5, 7, 9, 11, 13), "too-few-squares"))
        expected.update(dict.fromkeys((17, 25), "no-consecutive-squares"))
        expected.update(dict.fromkeys((19, 23, 27), "pair-deficit"))
        orders = [q for q in range(2, 2001) if prime_power_base(q)]
        assert len(orders) == 333
        verdicts = {q: prefilter_field(q) for q in orders}
        assert {q: v for q, v in verdicts.items() if v} == expected

    def test_sound_for_all_orders_to_1000(self):
        for q in field_orders(2, 1000):
            if prefilter_field(q) is not None:
                assert msos_field(q).tuple_count == 0, q


class TestBruteForceOracle:
    def test_f13_empty(self):
        assert brute_force_oracle(make_carrier("field", 13)) == set()

    def test_f29_contains_printed_square(self):
        oracle = brute_force_oracle(make_carrier("field", 29))
        assert MOD29_SQUARE in oracle

    def test_z27_nonempty(self):
        assert brute_force_oracle(make_carrier("ring", 27))

    def test_cap_refusal(self):
        with pytest.raises(ValueError):
            brute_force_oracle(make_carrier("field", 13), cap=12)
        assert brute_force_oracle(make_carrier("field", 13), cap=13) \
            is not None

    def test_oracle_tuples_are_magic(self):
        carrier = make_carrier("ring", 29)
        for t in brute_force_oracle(carrier):
            assert validate_square(t, carrier).is_magic


class TestOracleAgreement:
    def test_f29(self):
        assert oracle_agreement(make_carrier("field", 29))

    def test_z27(self):
        assert oracle_agreement(make_carrier("ring", 27))

    def test_f17_both_empty(self):
        assert oracle_agreement(make_carrier("field", 17))

    def test_closure_matches_oracle_for_f29(self):
        carrier = make_carrier("field", 29)
        closure = scaling_closure(carrier, msos_field(carrier).tuples)
        assert closure == brute_force_oracle(carrier)

    @pytest.mark.parametrize("kind,order", [("field", 81), ("ring", 96),
                                            ("ring", 100)])
    def test_spot_checks_above_sixty(self, kind, order):
        assert oracle_agreement(make_carrier(kind, order), cap=100)
