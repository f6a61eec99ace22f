"""Tiny exact linear algebra over Fraction, used for affine maps."""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError

Matrix = tuple[tuple[Fraction, ...], ...]


def det(matrix: Matrix) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    for r in rows:
        if len(r) != n:
            raise DimensionError("determinant needs a square matrix")
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return sign * result


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan; raises on singular input."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_vec(matrix: Matrix, vector) -> tuple[Fraction, ...]:
    return tuple(sum((a * b for a, b in zip(row, vector)), Fraction(0)) for row in matrix)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )
