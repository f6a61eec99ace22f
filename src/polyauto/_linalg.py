"""Tiny exact linear algebra for affine maps, by fraction-free elimination on ints: a map
x -> (Ax + u)/den is int rows [A | u] over one den > 0, and so is its inverse, by Bareiss's
rows.  No determinant: A is invertible iff ``_eliminate``'s pivot is nonzero.  ``clear`` makes
int rows of Fraction rows, which only AffineMap's checked constructor does."""

from __future__ import annotations

from math import lcm

from .errors import DimensionError


def clear(rows) -> tuple[list[list[int]], int]:
    """Rational rows as int rows over their one positive lcm denominator."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _eliminate(rows: list[list[int]], augment: bool) -> tuple[int, int, list[list[int]]]:
    # Bareiss (1968) on int rows [A | B], pivoting in A's n columns: each division by
    # the previous pivot is exact.  Returns (sign, pivot, rows), pivot = det(PA) for
    # the row swaps P (0 if singular), det A = sign * pivot.  With augment,
    # Gauss-Jordan ends with rows [pivot*I | pivot*A^-1 B].
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return sign, 0, rows
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for i in range(0 if augment else k + 1, n):
            if i != k:
                row = rows[i]
                rows[i] = [(pivot * a - row[k] * b) // prev for a, b in zip(row, top)]
        prev = pivot
    return sign, prev, rows


def invert_affine(rows: list | tuple, den: int) -> tuple[list[list[int]], int]:
    """The inverse of x -> (Ax + u)/den as int rows over one positive den: x = A^-1 (den*y - u),
    so Gauss-Jordan on [A | den*I | -u] ends with pivot * [I | den*A^-1 | -A^-1 u], and a
    negative pivot's sign moves into the rows.  Raises ZeroDivisionError if A is singular."""
    n = len(rows)
    if any(len(row) != n + 1 for row in rows):
        raise DimensionError("elimination needs a square matrix")
    rows = [[*row[:n], *[den * (i == j) for j in range(n)], -row[n]] for i, row in enumerate(rows)]
    _, pivot, rows = _eliminate(rows, True)
    if not pivot:
        raise ZeroDivisionError("matrix is singular")
    sign = -1 if pivot < 0 else 1
    return [[sign * v for v in row[n:]] for row in rows], sign * pivot
