"""Reference checks that share no arithmetic with the package under test.

Everything here reads raw term maps (``Poly.terms()``) and generator data
(matrices, scalings, shift term maps) and recomputes with plain
``Fraction`` loops, so a kernel bug in ``polyauto`` cannot hide itself by
also corrupting its own check.
"""

from __future__ import annotations

from fractions import Fraction


def det(matrix) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    rows = [[Fraction(e) for e in row] for row in matrix]
    n = len(rows)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return result


def solve(matrix, rhs) -> list[Fraction]:
    """The unique x with matrix @ x == rhs (matrix invertible)."""
    n = len(matrix)
    rows = [[Fraction(e) for e in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                for c in range(col, n + 1):
                    rows[r][c] -= factor * rows[col][c]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def raw_eval(terms: dict, point, t_value=None) -> Fraction:
    """Value of a term map (exponent tuples with the t slot last) at a point."""
    total = Fraction(0)
    for key, c in terms.items():
        term = Fraction(c)
        for x, e in zip(point, key):
            if e:
                term *= x**e
        if key[-1]:
            if t_value is None:
                raise ValueError("term map mentions t but no t value was given")
            term *= Fraction(t_value) ** key[-1]
        total += term
    return total


def raw_degree(terms: dict) -> int:
    """Total x-degree of a nonzero term map."""
    return max(sum(key[:-1]) for key in terms)


def unit_key(n: int, i: int) -> tuple:
    """Exponent key of x_{i+1} among n variables (t slot last)."""
    return tuple(int(j == i) for j in range(n)) + (0,)


def endo_eval(endo, point) -> list[Fraction]:
    return [raw_eval(f.terms(), point) for f in endo.components]


def linear_matrix(endo) -> list[list[Fraction]]:
    """Coefficients of x_j in component i, read from the raw term maps."""
    n = endo.n
    return [
        [Fraction(f.terms().get(unit_key(n, j), 0)) for j in range(n)]
        for f in endo.components
    ]


def is_identity(endo, start: int = 0) -> bool:
    """Components start.. are exactly x_{start+1}, ..., x_n."""
    return all(
        f.terms() == {unit_key(endo.n, i): 1}
        for i, f in enumerate(endo.components[start:], start=start)
    )


def letter_eval(gen, exponent: int, point) -> list[Fraction]:
    """Apply one word letter to a point, by the generator's raw data only."""
    n = len(point)
    if hasattr(gen, "matrix"):  # affine: x -> M x + v
        if exponent == 1:
            return [
                sum((gen.matrix[i][j] * point[j] for j in range(n)), Fraction(0))
                + gen.translation[i]
                for i in range(n)
            ]
        return solve(gen.matrix, [point[i] - gen.translation[i] for i in range(n)])
    if hasattr(gen, "scalings"):  # triangular: y_i = a_i x_i + p_i(x_{i+1..n})
        if exponent == 1:
            return [
                gen.scalings[i] * point[i] + raw_eval(gen.shifts[i].terms(), point)
                for i in range(n)
            ]
        out = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            out[i] = (point[i] - raw_eval(gen.shifts[i].terms(), out)) / gen.scalings[i]
        return out
    raise TypeError(f"no reference evaluation for letter {gen!r}")


def word_eval(word, point) -> list[Fraction]:
    """The word acts as letter_1 after ... after letter_k: apply letter_k first."""
    value = [Fraction(v) for v in point]
    for gen, exponent in reversed(word.letters):
        value = letter_eval(gen, exponent, value)
    return value


def word_jacobian(word) -> Fraction:
    """The constant Jacobian of a tame word: the product of its letters' determinants."""
    value = Fraction(1)
    for gen, exponent in word.letters:
        if hasattr(gen, "matrix"):
            d = det(gen.matrix)
        else:
            d = Fraction(1)
            for a in gen.scalings:
                d *= a
        value *= d if exponent == 1 else 1 / d
    return value
