"""Independent oracles for the exact linear algebra behind affine maps.

The library keeps no determinant: its invertibility test is elimination's
pivot.  The determinant that the pivot and the row swaps' sign give is checked
against the Leibniz permutation sum over Fractions, and the inverse by
multiplying back to the identity on both sides.
The matrices mix denominators and place zeros so that elimination meets
zero pivots and must swap rows.  A matrix is inverted through the int core,
``invert_affine``, as the linear map x -> mx.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from polyauto import _linalg
from polyauto.errors import DimensionError


def invert(m):
    """m^-1 from invert_affine on m's rows cleared to ints, with a zero translation: the
    result must be int rows over a positive den, with a zero translation again."""
    rows, den = _linalg.invert_affine(*_linalg.clear([row + (0,) for row in m]))
    assert den > 0 and all(type(v) is int for row in rows for v in row)
    assert all(row[-1] == 0 for row in rows)
    return tuple(tuple(Fraction(v, den) for v in row[:-1]) for row in rows)


def pivot_det(m):
    """det m from _eliminate on m's rows cleared to ints over den: sign * pivot / den^n."""
    rows, den = _linalg.clear(m)
    sign, pivot, _ = _linalg._eliminate(rows, False)
    return Fraction(sign * pivot, den ** len(m))


def leibniz_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def product(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def random_matrix(rng, n, zero_share):
    return tuple(
        tuple(
            Fraction(0) if rng.random() < zero_share
            else Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 5, 7, 12)))
            for _ in range(n)
        )
        for _ in range(n)
    )


def as_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


# elimination meets a zero pivot on these, at the first or a later column
SWAP_CASES = [
    as_matrix([[0, 1], [1, 0]]),
    as_matrix([[0, 2, 0], [0, 0, Fraction(1, 3)], [5, 0, 0]]),
    # col 0 is fine, then the (1, 1) entry eliminates to 0
    as_matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
    # mixed denominators: scaled by 42, the (1, 1) entry eliminates to 0
    as_matrix(
        [[Fraction(1, 2), Fraction(1, 3), 1], [1, Fraction(2, 3), 0], [0, 1, Fraction(5, 7)]]
    ),
    as_matrix([[0, 0, 0, 1], [0, 0, -3, 0], [0, Fraction(2, 5), 0, 0], [7, 0, 0, 0]]),
]

SINGULAR_CASES = [
    as_matrix([[0]]),
    as_matrix([[1, 2], [Fraction(1, 2), 1]]),
    as_matrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]),
    as_matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
    as_matrix([[Fraction(1, 3), 1, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
]


def seeded_cases():
    rng = random.Random(4242)
    cases = []
    for n in range(1, 6):
        for zero_share in (0.0, 0.4, 0.7):
            cases += [random_matrix(rng, n, zero_share) for _ in range(12)]
    return cases


def test_det_matches_leibniz():
    cases = seeded_cases() + SWAP_CASES + SINGULAR_CASES
    assert sum(1 for m in cases if leibniz_det(m) == 0) >= len(SINGULAR_CASES)
    for m in cases:
        assert pivot_det(m) == leibniz_det(m)


def test_inverse_multiplies_back_to_identity():
    assert all(leibniz_det(m) for m in SWAP_CASES)
    checked = 0
    for m in seeded_cases() + SWAP_CASES:
        if leibniz_det(m) == 0:
            with pytest.raises(ZeroDivisionError):
                invert(m)
            continue
        inv = invert(m)
        assert product(m, inv) == identity(len(m))
        assert product(inv, m) == identity(len(m))
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("m", SINGULAR_CASES)
def test_singular_matrix(m):
    assert _linalg._eliminate(_linalg.clear(m)[0], False)[1] == 0
    with pytest.raises(ZeroDivisionError):
        invert(m)


def test_non_square_rejected():
    m = as_matrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        invert(m)
