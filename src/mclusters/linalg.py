"""Exact linear algebra over the rationals.

Matrices carry their shape explicitly so that maps in and out of
zero-dimensional spaces (which occur routinely as quiver representation
maps) stay well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

Row = Tuple[Fraction, ...]


@dataclass(frozen=True)
class Mat:
    """Immutable rational matrix with explicit shape."""

    nrows: int
    ncols: int
    rows: Tuple[Row, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("column count mismatch")

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Mat":
        return Mat(nrows, ncols, tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows)))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    def column_block(self, start: int, stop: int) -> "Mat":
        return Mat(self.nrows, stop - start, tuple(r[start:stop] for r in self.rows))

    def row_block(self, start: int, stop: int) -> "Mat":
        return Mat(stop - start, self.ncols, self.rows[start:stop])

    def transpose(self) -> "Mat":
        return Mat(self.ncols, self.nrows,
                   tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)))


def vstack(mats: Iterable[Mat], ncols: int) -> Mat:
    rows: List[Row] = []
    for m in mats:
        if m.ncols != ncols:
            raise ValueError("vstack column mismatch")
        rows.extend(m.rows)
    return Mat(len(rows), ncols, tuple(rows))


def _rref(rows: List[List[Fraction]], ncols: int) -> List[int]:
    """Reduce in place; return the pivot column indices."""
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank_of_rows(rows: Sequence[Sequence], ncols: int) -> int:
    work = [[Fraction(x) for x in r] for r in rows]
    return len(_rref(work, ncols))


def nullspace(m: Mat) -> Mat:
    """Columns form a basis of the right kernel {x : m x = 0}."""
    work = [list(r) for r in m.rows]
    pivots = _rref(work, m.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis_cols = []
    for fc in free:
        vec = [Fraction(0)] * m.ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][fc]
        basis_cols.append(vec)
    rows = tuple(tuple(col[i] for col in basis_cols) for i in range(m.ncols))
    return Mat(m.ncols, len(basis_cols), rows)


def left_nullspace(m: Mat) -> Mat:
    """Rows form a basis of {x : x m = 0}."""
    return nullspace(m.transpose()).transpose()
