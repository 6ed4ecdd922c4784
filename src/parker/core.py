"""3x3 grids, line-sum validation, and the dihedral symmetry group.

Grid cells are stored row-major as (a, b, c, d, e, f, g, h, i).  A magic
square of squares requires the 3 rows, 3 columns, and both diagonals to share
one total, all 9 entries distinct, and every entry a square in the carrier.
The 7-cell hourglass variant keeps the top and bottom rows plus the three
lines through the center and has 5 sums.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # annotations only: core runs on any carrier's methods
    from .algebra import Carrier

SQUARE_LINE_LABELS = ("row0", "row1", "row2", "col0", "col1", "col2",
                      "diag", "anti")
_SQUARE_LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8),
                 (0, 3, 6), (1, 4, 7), (2, 5, 8),
                 (0, 4, 8), (2, 4, 6))

# Hourglass cells in order (a, b, c, e, g, h, i); lines are the top row,
# bottom row, and the three center lines a-e-i, b-e-h, c-e-g.
HOURGLASS_LINE_LABELS = ("top", "bottom", "center-diag", "center-col",
                         "center-anti")
_HOURGLASS_LINES = ((0, 1, 2), (4, 5, 6), (0, 3, 6), (1, 3, 5), (2, 3, 4))


def _build_dihedral_perms():
    def rot(perm):  # rotate 90 degrees clockwise
        return tuple(perm[3 * (2 - c) + r] for r in range(3) for c in range(3))

    def flip(perm):  # transpose
        return tuple(perm[3 * c + r] for r in range(3) for c in range(3))

    perms = []
    p = tuple(range(9))
    for _ in range(4):
        perms.append(p)
        perms.append(flip(p))
        p = rot(p)
    return tuple(perms)


DIHEDRAL_PERMS = _build_dihedral_perms()


class ValidationReport(NamedTuple):
    """Line sums and the derived verdict for a square or hourglass candidate."""

    line_sums: tuple[int, ...]
    line_labels: tuple[str, ...]
    common_total: int | None
    sums_equal_count: int
    distinct_entries: int
    all_entries_square: bool
    is_magic: bool

    def modal_total(self) -> int:
        """The most frequent line sum (smallest such value on ties)."""
        counts = {v: self.line_sums.count(v) for v in set(self.line_sums)}
        top = max(counts.values())
        return min(v for v, c in counts.items() if c == top)

    def mismatched_lines(self) -> list[tuple[str, int]]:
        """Labels and sums of the lines disagreeing with the modal total."""
        mode = self.modal_total()
        return [(lbl, s) for lbl, s in zip(self.line_labels, self.line_sums)
                if s != mode]


def _validate(cells, carrier, lines, labels):
    cells = tuple(carrier.check_element(x) for x in cells)
    add = carrier.add
    sums = tuple(add(add(cells[i], cells[j]), cells[k]) for i, j, k in lines)
    counts = {}
    for s in sums:
        counts[s] = counts.get(s, 0) + 1
    equal = max(counts.values())
    distinct = len(set(cells))
    all_square = all(carrier.is_square(x) for x in cells)
    magic = equal == len(lines) and distinct == len(cells) and all_square
    total = sums[0] if equal == len(lines) else None
    return ValidationReport(sums, labels, total, equal, distinct, all_square, magic)


def validate_square(grid, carrier: Carrier) -> ValidationReport:
    """Check the 8 line sums, distinctness, and squareness of a 3x3 grid.

    Pure function; takes any 9-sequence of carrier encodings (the squared
    values, not their roots), row-major.
    """
    cells = _cells_of(grid, 9)
    return _validate(cells, carrier, _SQUARE_LINES, SQUARE_LINE_LABELS)


def validate_hourglass(cells, carrier: Carrier) -> ValidationReport:
    """Check the 5 hourglass sums over cells given as (a, b, c, e, g, h, i)."""
    cells = _cells_of(cells, 7)
    return _validate(cells, carrier, _HOURGLASS_LINES, HOURGLASS_LINE_LABELS)


def _cells_of(obj, n):
    cells = tuple(obj)
    if len(cells) != n:
        raise ValueError(f"expected {n} cells, got {len(cells)}")
    return cells


def magic_from_params(params, carrier: Carrier) -> tuple[int, ...]:
    """The magic (not necessarily square-entried) grid for parameters A, B, C.

    params is any 3-sequence (A, B, C) of encodings; the result is the
    row-major 9-tuple, and every row, column, and diagonal sums to 3*C.
    """
    A, B, C = params
    add, sub = carrier.add, carrier.sub
    return (
        add(C, A), sub(sub(C, A), B), add(C, B),
        add(sub(C, A), B), C, sub(add(C, A), B),
        sub(C, B), add(add(C, A), B), sub(C, A),
    )


def dihedral_orbit(t) -> set[tuple[int, ...]]:
    """The orbit of a 9-sequence under the 8 symmetries of the square grid."""
    entries = tuple(t)
    return {tuple(entries[i] for i in perm) for perm in DIHEDRAL_PERMS}


def dihedral_canonical(entries: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically smallest dihedral image, for orbit counting."""
    return min(tuple(entries[i] for i in perm) for perm in DIHEDRAL_PERMS)
