"""Constructive generators of the automorphism group and words over them.

Two generator families are materialized: invertible affine maps (matrix plus
translation) and triangular maps (per-variable scalings plus shifts that only use later
variables).  Automorphisms that should enter words without a known generator
decomposition are wrapped as opaque generators, optionally with a registered inverse.

A word is a sequence of (generator, +1/-1) letters.  Converting a word to an
endomorphism folds the composition from the right, so the substitution work always plugs
a large inner map into a small outer letter; this keeps exact arithmetic tractable for
long words.  From the identity on, each letter acts on the running map through
``gen._apply(exponent, images)``, the components of gen^exponent after images, on ints with
no Fraction: ``endo._combine`` by the int rows [M | v] over one den that an affine letter
builds from its caller's ints (inverted at each use), a step polynomial per slot for a
triangular one.  A letter's own map, either exponent, is its ``_apply`` on the identity, and
a product of letters (``compose``, ``factor_plane``'s merge) is the fold of their word.

Generators and words name what identifies them in ``_fields``; their equality, hashing
and default repr come from ``endo._Value`` alone, as for every value and record type, and
``endo`` says why none is a dataclass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from . import _linalg
from .endo import Endo, _combine, _Value
from .errors import ConsistencyError, DimensionError, MissingInverse
from .poly import _ZERO, Poly, Scalar, _as_fraction, _count, _ratio, _slot, _table, _var_key


class AffineMap(_Value):
    """An invertible map x -> Mx + v; singular matrices are rejected at construction.  Each
    constructor stores ``_int_rows``, [M | v] as int tuple rows over one den > 0 in lowest terms
    (``_linalg.clear`` of the fields), the letter's data: ``__init__`` clears its Fractions,
    ``_from_rows`` starts from int rows and ``_diagonal`` from one int pair (p, q) per slot."""

    __slots__ = ("n", "matrix", "translation", "_int_rows")
    _fields = ("matrix", "translation")

    def __init__(self, matrix: Sequence[Sequence[Scalar]], translation: Sequence[Scalar]):
        rows = tuple(tuple(_as_fraction(e) for e in row) for row in matrix)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionError("affine map needs a square matrix")
        vec = tuple(_as_fraction(v) for v in translation)
        if len(vec) != n:
            raise DimensionError("translation length must match the matrix size")
        ints, den = _linalg.clear([row + (v,) for row, v in zip(rows, vec)])
        if not _linalg._eliminate([row[:n] for row in ints], False)[1]:
            raise DimensionError("affine map needs an invertible linear part")
        self.n, self.matrix, self.translation = n, rows, vec
        self._int_rows = tuple(map(tuple, ints)), den

    @classmethod
    def _make(cls, matrix: tuple, vec: tuple, rows: tuple) -> "AffineMap":
        self = object.__new__(cls)  # trusted: an invertible map, its rows as the class says
        self.n, self.matrix, self.translation, self._int_rows = len(matrix), matrix, vec, rows
        return self

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls.diagonal([1] * n)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "AffineMap":
        """The permutation swapping x_i and x_j (self-inverse)."""
        i, j = _slot(_count(n, "n", 1), i), _slot(n, j)  # 0-based, once checked
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        # the identity's rows [I | 0], permuted, are invertible: no elimination
        return cls._from_rows([[int(c == p) for c in range(n + 1)] for p in perm], 1)

    @classmethod
    def diagonal(cls, scalings: Sequence[Scalar]) -> "AffineMap":
        ratios = [_ratio(a) for a in scalings]
        if not ratios or not all(p for p, _ in ratios):
            raise DimensionError("a diagonal map needs nonzero scalings")
        return cls._diagonal(ratios)

    @classmethod
    def _diagonal(cls, ratios: Sequence[tuple[int, int]]) -> "AffineMap":
        """x_i -> (p_i/q_i) x_i for nonzero int pairs in lowest terms with q_i > 0, invertible,
        so unchecked like ``_make``: rows [M | 0] over lcm(q)."""
        n, den = len(ratios), lcm(*[q for _, q in ratios])
        zero, z = (_ZERO,) * n, (0,) * n
        matrix = tuple([zero[:i] + (Fraction(*r),) + zero[i + 1 :] for i, r in enumerate(ratios)])
        rows = tuple([z[:i] + (p * den // q,) + z[i:] for i, (p, q) in enumerate(ratios)])
        return cls._make(matrix, zero, (rows, den))

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence[int]], den: int) -> "AffineMap":
        """x -> (Ax + u)/den for int rows [A | u] and den > 0, unchecked like ``_make``."""
        g = gcd(den, *map(gcd, *rows))  # lowest terms: the columns' common factor with den
        rows, den = tuple([tuple([c // g for c in row]) for row in rows]), den // g
        frac = [tuple([Fraction(c, den) if c else _ZERO for c in row]) for row in rows]
        return cls._make(tuple([r[:-1] for r in frac]), tuple([r[-1] for r in frac]), (rows, den))

    @classmethod
    def from_endo(cls, sigma: Endo) -> "AffineMap":
        """The affine map of a degree-one endomorphism with an invertible linear part."""
        if not sigma.is_affine():
            raise DimensionError("endomorphism is not an invertible affine map")
        return cls._from_rows(*sigma._affine_rows())

    def _rows(self, exponent: int = 1) -> tuple:
        """The int rows [M | v] and den of self^exponent, exponent +-1: stored, or inverted."""
        return self._int_rows if exponent == 1 else _linalg.invert_affine(*self._int_rows)

    def to_endo(self) -> Endo:
        return generator_to_endo(self)

    def _apply(self, exponent: int, images: Sequence[Poly]) -> tuple:
        return _combine(images, *self._rows(exponent))

    def inverse(self) -> "AffineMap":
        return AffineMap._from_rows(*self._rows(-1))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other, matching the endomorphism composition law: the word fold."""
        return AffineMap._from_rows(*Word([(self, 1), (other, 1)]).to_endo()._affine_rows())


def _component(n: int, i: int, p: Poly, a: int, b: int, c: int) -> Poly:
    # (a*d*x_i + b*P)/(c*d) for p = P/d, in one term map: p never holds x_i's key
    if c < 0:
        a, b, c = -a, -b, -c
    terms = {_var_key(n, i): a * p._den, **{k: v * b for k, v in p._terms.items()}}
    return Poly._make(n, terms, c * p._den)


class TriangularMap(_Value):
    """Component i is a_i*x_i + p_i with a_i != 0 and p_i using only later variables.

    A shift p_i never mentions x_1..x_i, so the x_i term merges into its term dict.
    """

    __slots__ = ("n", "scalings", "shifts")
    _fields = ("scalings", "shifts")

    def __init__(self, scalings: Sequence[Scalar], shifts: Sequence[Poly]):
        scal = tuple(_as_fraction(a) for a in scalings)
        n = len(scal)
        if n == 0:
            raise DimensionError("triangular map needs at least one variable")
        if any(a == 0 for a in scal):
            raise DimensionError("triangular scalings must be nonzero")
        shifts = tuple(shifts)
        if len(shifts) != n:
            raise DimensionError("one shift per variable is required")
        for i, p in enumerate(shifts, start=1):
            if not isinstance(p, Poly) or p.nvars != n:
                raise DimensionError("shifts must be polynomials in the same variables")
            if p.mentions_t():
                raise DimensionError("shifts must not involve t")
            if any(any(k[:i]) for k in p._terms):
                raise DimensionError(
                    f"shift {i} may only use variables of index greater than {i}"
                )
        self.n = n
        self.scalings = scal
        self.shifts = shifts

    @classmethod
    def from_endo(cls, sigma: Endo) -> "TriangularMap":
        """Pop each component's x_i term; the constructor rejects what is not triangular."""
        scalings, shifts = [], []
        for i, f in enumerate(sigma.components, start=1):
            terms = dict(f._terms)
            scalings.append(Fraction(terms.pop(_var_key(sigma.n, i), 0), f._den))
            shifts.append(Poly._make(sigma.n, terms, f._den))
        return cls(scalings, shifts)

    def to_endo(self) -> Endo:
        return generator_to_endo(self)

    def _apply(self, exponent: int, images: Sequence[Poly]) -> tuple:
        # From x_n up, a_i = r/s and p_i = P/d: the step a_i*x_i + p_i for +1, or (x_i - p_i)/a_i
        # = (s*d*x_i - s*P)/(r*d) for -1, substituted into the slots; for -1 slot i then takes
        # the output, so p_i reads the outputs past i (back-substitution).
        n, out, slots = self.n, list(images), [_table(g) for g in images]
        for i in range(n - 1, -1, -1):
            r, s = self.scalings[i].as_integer_ratio()
            abc = (r, s, s) if exponent == 1 else (s, -s, r)
            out[i] = _component(n, i + 1, self.shifts[i], *abc)._substitute(slots)
            if exponent == -1:
                slots[i] = _table(out[i])
        return tuple(out)

    def inverse(self) -> "TriangularMap":
        """The inverse letter: ``from_endo`` of its map, ``_apply(-1)`` on the identity."""
        return TriangularMap.from_endo(generator_to_endo(self, -1))

    def compose(self, other: "TriangularMap") -> "TriangularMap":
        """self after other: the word fold, read back by ``from_endo``."""
        return TriangularMap.from_endo(Word([(self, 1), (other, 1)]).to_endo())


class OpaqueGenerator(_Value):
    """A named automorphism adjoined to words without a generator decomposition.

    An inverse may be registered at construction; only then may word
    letters carry exponent -1 on this generator.
    """

    __slots__ = ("n", "name", "endo", "inverse_endo")
    _fields = ("name", "endo", "inverse_endo")

    def __init__(self, name: str, endo: Endo, inverse_endo: Endo | None = None):
        for value in (endo, inverse_endo):
            if value is not None and not isinstance(value, Endo):
                raise DimensionError(f"an opaque generator wraps Endos, not {type(value).__name__}")
        if inverse_endo is not None:
            if endo.compose(inverse_endo) != Endo.identity(endo.n):
                raise ConsistencyError(
                    f"registered inverse of {name!r} does not compose to the identity"
                )
        self.n, self.name, self.endo, self.inverse_endo = endo.n, name, endo, inverse_endo

    def _apply(self, exponent: int, images: Sequence[Poly]) -> tuple:
        endo = self.endo if exponent == 1 else self.inverse_endo
        if endo is None:
            raise MissingInverse(f"no inverse registered for {self.name!r}")
        return endo.compose(Endo._make(tuple(images))).components

    def __repr__(self):
        return f"OpaqueGenerator({self.name!r})"


Generator = Union[AffineMap, TriangularMap, OpaqueGenerator]


def _check_exponent(exponent) -> None:
    # an exact test: 1.0, "1" and True are not letter exponents
    if type(exponent) is not int or exponent not in (1, -1):
        raise DimensionError(f"letter exponents must be the int +1 or -1, got {exponent!r}")


def generator_to_endo(gen: Generator, exponent: int = 1) -> Endo:
    """The letter gen^exponent: its ``_apply`` on the identity, which for an affine or
    triangular letter works on ints with no inverse generator (see the module)."""
    _check_exponent(exponent)
    return Endo._make(gen._apply(exponent, Poly.variables(gen.n)))


class Word(_Value):
    """A sequence of signed generator letters with exact inversion."""

    __slots__ = ("n", "letters")
    _fields = ("letters",)

    def __init__(self, letters: Iterable[tuple[Generator, int]]):
        letters = tuple(letters)
        if not letters:
            raise DimensionError("a word needs at least one letter")
        for letter in letters:  # the first letter is checked before its n is read
            if not isinstance(letter, (tuple, list)) or len(letter) != 2:
                kind = type(letter).__name__
                raise DimensionError(f"a word letter is a (generator, exponent) pair, not {kind}")
            gen, exp = letter
            if not isinstance(gen, (AffineMap, TriangularMap, OpaqueGenerator)):
                raise DimensionError(f"a word letter needs a generator, not {type(gen).__name__}")
            if gen.n != letters[0][0].n:
                raise DimensionError("all letters must act on the same variables")
            _check_exponent(exp)
            if (
                exp == -1
                and isinstance(gen, OpaqueGenerator)
                and gen.inverse_endo is None
            ):
                raise MissingInverse(
                    f"letter {gen.name!r}^-1 needs an inverse registered at construction"
                )
        self.n, self.letters = letters[0][0].n, tuple((gen, exp) for gen, exp in letters)

    def to_endo(self) -> Endo:
        # Fold from the right, from the identity: each letter acts on the accumulated (large)
        # map through its _apply, which bounds intermediate degrees by the result's true degree.
        images = Poly.variables(self.n)
        for gen, exp in reversed(self.letters):
            images = gen._apply(exp, images)
        return Endo._make(images)

    def inverse(self) -> "Word":
        return Word([(gen, -exp) for gen, exp in reversed(self.letters)])

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return f"Word({format_word(self)!r})"


def format_word(word: Word) -> str:
    """Render a word in the CLI text format.

    Letters are semicolon-separated.  Affine letters print as
    ``A(row,row,...;translation)`` with space-separated entries, triangular
    letters as ``B(scalings;shift,shift,...)``, opaque letters by name; an
    inverted letter carries the suffix ``^-1``.
    """
    chunks = []
    for gen, exp in word.letters:
        if isinstance(gen, AffineMap):
            rows = ",".join(" ".join(str(e) for e in row) for row in gen.matrix)
            vec = " ".join(str(v) for v in gen.translation)
            body = f"A({rows};{vec})"
        elif isinstance(gen, TriangularMap):
            scal = " ".join(str(a) for a in gen.scalings)
            shifts = ",".join(str(p) for p in gen.shifts)
            body = f"B({scal};{shifts})"
        else:
            body = gen.name
        chunks.append(body + ("^-1" if exp == -1 else ""))
    return "; ".join(chunks)


# -- seeded samplers ----------------------------------------------------------
#
# Distributions are frozen so suites are reproducible.  Affine letters draw,
# with equal probability, either a dense matrix with integer entries in
# [-3, 3] (resampling until invertible) or a scaled permutation matrix with
# scalings in {-2, -1, 1, 2}; translations are integers in [-3, 3].  The
# permutation shape keeps long compositions sparse, so exact suites stay
# desk-scale.  Triangular scalings draw from {-2, -1, 1, 2} and each shift
# is a sparse polynomial with at most 4 terms, integer coefficients of
# magnitude at most 10, and degree at most dmax in the allowed later
# variables.


def _rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_affine(n: int, seed: int | random.Random) -> AffineMap:
    _count(n, "n", 1)
    rng = _rng(seed)
    if rng.random() < 0.5:
        while True:
            matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if _linalg._eliminate(list(matrix), False)[1]:  # a copy: elimination edits rows
                break
    else:
        perm = list(range(n))
        rng.shuffle(perm)
        matrix = [
            [rng.choice([-2, -1, 1, 2]) if perm[r] == c else 0 for c in range(n)]
            for r in range(n)
        ]
    translation = [rng.randint(-3, 3) for _ in range(n)]
    return AffineMap(matrix, translation)


def _random_shift(rng: random.Random, n: int, lowest: int, dmax: int) -> Poly:
    """Sparse polynomial in x_lowest..x_n with degree <= dmax."""
    allowed = list(range(lowest, n + 1))
    terms: dict[tuple, Fraction] = {}
    for _ in range(rng.randint(0, 4)):
        key = [0] * (n + 1)
        if allowed:
            for _ in range(rng.randint(0, dmax)):
                key[rng.choice(allowed) - 1] += 1
        coeff = rng.randint(1, 10) * rng.choice([-1, 1])
        terms[tuple(key)] = terms.get(tuple(key), Fraction(0)) + coeff
    return Poly(n, terms)


def random_triangular(n: int, seed: int | random.Random, dmax: int) -> TriangularMap:
    _count(n, "n", 1)
    _count(dmax, "dmax", 1)
    rng = _rng(seed)
    scalings = [Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(n)]
    shifts = [_random_shift(rng, n, i + 1, dmax) for i in range(1, n + 1)]
    return TriangularMap(scalings, shifts)


def random_tame_word(
    n: int, seed: int | random.Random, length: int, dmax: int
) -> Word:
    """A word of alternating affine and triangular letters.

    All letters carry exponent +1, which keeps the degree of the composed
    word at most dmax**length; inverses are exercised through
    :meth:`Word.inverse`, whose triangular letters may have higher degree
    than the originals.
    """
    _count(n, "n", 1)
    _count(length, "word length", 1)
    _count(dmax, "dmax", 1)
    rng = _rng(seed)
    start_affine = rng.random() < 0.5
    letters: list[tuple[Generator, int]] = []
    for k in range(length):
        affine_turn = (k % 2 == 0) == start_affine
        gen: Generator = (
            random_affine(n, rng) if affine_turn else random_triangular(n, rng, dmax)
        )
        letters.append((gen, 1))
    return Word(letters)


# -- gallery -------------------------------------------------------------------


def nagata_delta() -> Poly:
    """The quadric x2^2 + x1*x3 preserved by the Nagata map."""
    x1, x2, x3 = Poly.variables(3)
    return x2**2 + x1 * x3


def nagata() -> tuple[Endo, Endo]:
    """The Nagata automorphism of 3-space and its inverse.

    Both transcriptions are validated at construction by composing to the
    identity in both orders; a failure raises rather than returning a
    corrupt pair.
    """
    x1, x2, x3 = Poly.variables(3)
    delta = nagata_delta()
    forward = Endo([x1 - 2 * x2 * delta - x3 * delta**2, x2 + x3 * delta, x3])
    backward = Endo([x1 + 2 * x2 * delta - x3 * delta**2, x2 - x3 * delta, x3])
    ident = Endo.identity(3)
    if forward.compose(backward) != ident or backward.compose(forward) != ident:
        raise ConsistencyError("Nagata transcription failed its inversion check")
    return forward, backward


def nagata_generator() -> OpaqueGenerator:
    forward, backward = nagata()
    return OpaqueGenerator("nagata", forward, backward)
