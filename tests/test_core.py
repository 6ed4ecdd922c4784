import pytest
from hypothesis import given, strategies as st

from parker.algebra import Integers, make_carrier
from parker.core import (dihedral_orbit, magic_from_params,
                         validate_hourglass, validate_square)
from parker.gaussian import GaussianInt, chi

Z = Integers()

# the published near-miss: seven sums of 3051, one of 4107, three duplicate
# values
PARKER_SQUARE = tuple(x * x for x in (29, 1, 47, 41, 37, 1, 23, 41, 29))

# the mod-29 example square, entries already squared and reduced
MOD29_SQUARE = tuple(x * x % 29 for x in (9, 11, 1, 6, 0, 14, 12, 16, 8))


class TestValidateSquare:
    def test_mod29_example_is_magic(self):
        c = make_carrier("field", 29)
        report = validate_square(MOD29_SQUARE, c)
        assert report.is_magic
        assert report.sums_equal_count == 8
        assert report.common_total == 0
        assert report.distinct_entries == 9
        assert report.all_entries_square

    def test_parker_square_near_miss(self):
        report = validate_square(PARKER_SQUARE, Z)
        assert report.sums_equal_count == 7
        assert report.line_sums.count(3051) == 7
        assert report.line_sums.count(4107) == 1
        assert report.common_total is None
        # 29^2, 1^2, and 41^2 each appear twice, leaving 6 distinct values
        assert report.distinct_entries == 6
        assert report.all_entries_square
        assert not report.is_magic
        assert report.mismatched_lines() == [("anti", 4107)]

    def test_constant_grid(self):
        report = validate_square((1,) * 9, Z)
        assert report.sums_equal_count == 8
        assert report.distinct_entries == 1
        assert not report.is_magic

    def test_carrier_mismatch_rejected(self):
        c = make_carrier("field", 29)
        with pytest.raises(ValueError):
            validate_square((0, 1, 2, 3, 4, 5, 6, 7, 29), c)
        with pytest.raises(ValueError):
            validate_square((0, 1, 2), c)


class TestValidateHourglass:
    def test_guess_and_check_near_miss(self):
        cells = tuple(x * x for x in (367, 1337, 1151, 1105, 1057, 809, 1519))
        report = validate_hourglass(cells, Z)
        assert report.sums_equal_count == 3
        assert report.line_sums.count(3 * 1105**2) == 3
        # the three center lines agree, the top and bottom rows do not
        agreeing = [lbl for lbl, s in zip(report.line_labels, report.line_sums)
                    if s == 3 * 1105**2]
        assert agreeing == ["center-diag", "center-col", "center-anti"]
        assert not report.is_magic

    def test_equal_cells_fail_distinctness(self):
        report = validate_hourglass((4,) * 7, Z)
        assert report.sums_equal_count == 5
        assert report.distinct_entries == 1
        assert not report.is_magic

    def test_hourglass_from_progressions(self):
        # three progressions sharing middle 650; rows cannot agree because
        # the fourth-power imaginary parts sum to 805920, not 0
        progs = [chi(GaussianInt(*p)) for p in ((23, 11), (19, 17), (25, 5))]
        assert all(s == 650 for _, s, _ in progs)
        (r1, _, t1), (r2, _, t2), (r3, _, t3) = progs
        cells = (t1, r3, r2, 650, t2, t3, r1)
        report = validate_hourglass(tuple(x * x for x in cells), Z)
        assert report.sums_equal_count == 3
        assert report.line_sums.count(3 * 650**2) == 3
        assert not report.is_magic


class TestMagicFromParams:
    def test_constant_triple(self):
        grid = magic_from_params((0, 0, 7), Z)
        assert grid == (7,) * 9
        report = validate_square(grid, Z)
        assert report.sums_equal_count == 8
        assert report.common_total == 21

    def test_integer_example(self):
        grid = magic_from_params((1, 2, 0), Z)
        assert grid == (1, -3, 2, 1, 0, -1, -2, 3, -1)
        assert validate_square(grid, Z).sums_equal_count == 8

    def test_f2_yields_the_eight_known_squares(self):
        c = make_carrier("field", 2)
        got = {magic_from_params((a, b, cc), c)
               for a in (0, 1) for b in (0, 1) for cc in (0, 1)}
        expected = {
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (1, 1, 0, 1, 0, 1, 0, 1, 1),
            (0, 1, 1, 1, 0, 1, 1, 1, 0),
            (1, 0, 1, 0, 0, 0, 1, 0, 1),
            (1, 1, 1, 1, 1, 1, 1, 1, 1),
            (0, 0, 1, 0, 1, 0, 1, 0, 0),
            (1, 0, 0, 0, 1, 0, 0, 0, 1),
            (0, 1, 0, 1, 1, 1, 0, 1, 0),
        }
        assert got == expected

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_always_magic_over_z(self, a, b, c):
        report = validate_square(magic_from_params((a, b, c), Z), Z)
        assert report.sums_equal_count == 8
        assert report.common_total == 3 * c

    @pytest.mark.parametrize("kind,order", [("field", 29), ("field", 9),
                                            ("ring", 54), ("field", 8)])
    def test_always_magic_over_finite_carriers(self, kind, order):
        carrier = make_carrier(kind, order)
        for a in range(0, carrier.order, 5):
            for b in range(0, carrier.order, 7):
                for c in range(0, carrier.order, 3):
                    grid = magic_from_params((a, b, c), carrier)
                    report = validate_square(grid, carrier)
                    assert report.sums_equal_count == 8
                    three_c = carrier.add(carrier.add(c, c), c)
                    assert report.common_total == three_c


def all_magic_grids(carrier):
    """Every grid with 8 equal line sums, by forcing cells from (a, b, c, d)."""
    els = range(carrier.order)
    add, sub = carrier.add, carrier.sub
    out = set()
    for a in els:
        for b in els:
            for c in els:
                total = add(add(a, b), c)
                for d in els:
                    g = sub(sub(total, a), d)
                    e = sub(sub(total, c), g)
                    f = sub(sub(total, d), e)
                    h = sub(sub(total, b), e)
                    i = sub(sub(total, c), f)
                    if add(add(g, h), i) != total:
                        continue
                    if add(add(a, e), i) != total:
                        continue
                    out.add((a, b, c, d, e, f, g, h, i))
    return out


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_parametrization_complete_over_even_fields(order):
    carrier = make_carrier("field", order)
    param_grids = {
        magic_from_params((a, b, c), carrier)
        for a in range(order) for b in range(order) for c in range(order)}
    magic = all_magic_grids(carrier)
    assert magic == param_grids
    assert all(len(set(g)) <= 4 for g in magic)


class TestDihedralOrbit:
    def test_constant_tuple_orbit_is_singleton(self):
        assert dihedral_orbit((5,) * 9) == {(5,) * 9}

    def test_mod29_square_orbit_has_eight_images(self):
        orbit = dihedral_orbit(MOD29_SQUARE)
        assert len(orbit) == 8
        assert MOD29_SQUARE in orbit

    def test_orbit_is_closed(self):
        orbit = dihedral_orbit(MOD29_SQUARE)
        for img in orbit:
            assert dihedral_orbit(img) == orbit

    def test_validation_is_dihedral_invariant(self):
        c = make_carrier("field", 29)
        for img in dihedral_orbit(MOD29_SQUARE):
            report = validate_square(img, c)
            assert report.is_magic
            assert report.common_total == 0
