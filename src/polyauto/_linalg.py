"""Tiny exact linear algebra for affine maps, by fraction-free elimination on ints."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionError

Matrix = tuple[tuple[Fraction, ...], ...]


def _eliminate(matrix: Matrix, augment: bool) -> tuple[int, int, int, list[list[int]]]:
    # Bareiss (1968) on the int matrix A = scale * matrix: each division by the
    # previous pivot is exact.  Returns (sign, pivot, scale, rows), pivot =
    # det(PA) for the row swaps P (0 if singular), det A = sign * pivot.  With
    # augment, Gauss-Jordan on [A | I] ends with rows [pivot*I | pivot*A^-1].
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionError("elimination needs a square matrix")
    scale = lcm(*(v.denominator for row in matrix for v in row))
    unit = range(n) if augment else ()
    rows = [
        [v.numerator * (scale // v.denominator) for v in row] + [int(i == j) for j in unit]
        for i, row in enumerate(matrix)
    ]
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return sign, 0, scale, rows
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
    return sign, prev, scale, rows


def det(matrix: Matrix) -> Fraction:
    """Determinant by fraction-free elimination."""
    sign, pivot, scale, _ = _eliminate(matrix, False)
    return Fraction(sign * pivot, scale ** len(matrix))


def invert(matrix: Matrix) -> Matrix:
    """Exact inverse; raises on singular input."""
    return invert_affine(matrix, [0] * len(matrix))[0]


def invert_affine(matrix: Matrix, vector) -> tuple[Matrix, tuple[Fraction, ...]]:
    """(M^-1, -M^-1 v) for x -> Mx + v, from R = pivot * (scale*M)^-1 on ints:
    M^-1 = scale*R/pivot and, with v = u/L on ints, -M^-1 v = -scale*(R u)/(pivot*L)."""
    _, pivot, scale, rows = _eliminate(matrix, True)
    if not pivot:
        raise ZeroDivisionError("matrix is singular")
    rows = [row[len(rows) :] for row in rows]
    clear = lcm(*(v.denominator for v in vector))
    u = [v.numerator * (clear // v.denominator) for v in vector]
    inverse = tuple(tuple(Fraction(scale * r, pivot) for r in row) for row in rows)
    return inverse, tuple(Fraction(-scale * sum(map(mul, row, u)), pivot * clear) for row in rows)

