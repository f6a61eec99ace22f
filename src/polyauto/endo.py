"""The monoid of polynomial endomorphisms under substitution composition.

An endomorphism is an n-tuple of t-free polynomials (f1, ..., fn) in
x1..xn.  The product ``compose(s, u)`` substitutes the components of u
into those of s, so that as a map on points it acts as "s after u":

    compose(s, u)(a) == s(u(a))

All modules in this package rely on that orientation; the evaluation
homomorphism tests pin it.  Degree-bounded endomorphisms also embed
linearly into coefficient vectors: an n-tuple of polynomials of degree at
most d carries n * C(n+d, d) coefficients (C(n+d, d) monomials per
component), listed in a frozen graded-lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import lshift
from typing import Sequence

from . import _linalg
from .errors import DegenerateInput, DimensionError, FiltrationError
from .poly import NEG_INF, Poly, Scalar, _as_fraction, _layout, _norm_coeff, _packed_product
from .poly import _table, _var_key

# poly_det packs one slot densely only while its degree bound stays within
# this many times the matrix's term count: a dense value holds a field for
# every exponent up to the bound, so a sparse high power such as x1^(10^19)
# must stay in the key.
_DENSE_DEGREE_PER_TERM = 4


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All x-exponent tuples of total degree <= degree, in the frozen order.

    Monomials are listed by increasing total degree; ties are broken by
    increasing lexicographic comparison of the exponent tuple (e1, ..., en),
    which makes later variables come first within each degree block:
    for n = 2, d = 2 the order is 1, x2, x1, x2^2, x1*x2, x1^2.
    """

    def gen(prefix, remaining, slots):
        if slots == 0:
            yield prefix
            return
        for e in range(remaining + 1):
            yield from gen(prefix + (e,), remaining - e, slots - 1)

    found = list(gen((), degree, nvars))
    found.sort(key=lambda key: (sum(key), key))
    return found


class CoeffVector:
    """Coefficient embedding of a degree-bounded endomorphism.

    Entries are the coefficients of the components, concatenated in
    component order 1..n, each listed over ``monomials_upto(n, d)``.  The
    length is always n * C(n+d, d).
    """

    __slots__ = ("n", "d", "entries")

    def __init__(self, n: int, d: int, entries: Sequence[Fraction]):
        expected = n * comb(n + d, d)
        entries = tuple(_as_fraction(e) for e in entries)
        if len(entries) != expected:
            raise FiltrationError(
                f"coefficient vector for n={n}, d={d} needs {expected} entries, got {len(entries)}"
            )
        self.n = n
        self.d = d
        self.entries = entries

    def __eq__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return (self.n, self.d, self.entries) == (other.n, other.d, other.entries)

    def __hash__(self):
        return hash((self.n, self.d, self.entries))

    def __repr__(self):
        return f"CoeffVector(n={self.n}, d={self.d}, len={len(self.entries)})"


class _PolyTuple:
    """A tuple of n polynomials in n variables, compared, hashed and rendered by its
    components; immutable like Poly by convention: no operation mutates one."""

    __slots__ = ("n", "components")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        return "[" + ", ".join(str(f) for f in self.components) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


class Endo(_PolyTuple):
    """An n-tuple of t-free polynomials under substitution composition."""

    __slots__ = ()

    def __init__(self, components: Sequence[Poly]):
        components = tuple(components)
        if not components:
            raise DimensionError("an endomorphism needs at least one component")
        n = len(components)
        for f in components:
            if not isinstance(f, Poly):
                raise DimensionError("components must be Poly values")
            if f.nvars != n:
                raise DimensionError(
                    f"component has {f.nvars} variables, expected {n} (one per component)"
                )
            if f.mentions_t():
                raise DimensionError("endomorphism components must not involve t")
        self.n, self.components = n, components

    @classmethod
    def _make(cls, components: tuple) -> "Endo":
        self = object.__new__(cls)  # trusted: t-free Polys in len(components) variables
        self.n, self.components = len(components), components
        return self

    @classmethod
    def identity(cls, n: int) -> "Endo":
        return cls(Poly.variables(n))

    # -- monoid structure ----------------------------------------------------

    def compose(self, other: "Endo") -> "Endo":
        """Substitution product; acts on points as self after other.  If self is a scaled
        permutation (components c*x_j), component i is c*other_j, scaled by Poly._regrade:
        other_j itself when c = 1.  Every other shape goes through Poly._substitute, with
        one table per component of other and none for t, which no component mentions."""
        if not isinstance(other, Endo):
            raise DimensionError("can only compose with another endomorphism")
        if self.n != other.n:
            raise DimensionError(f"cannot compose maps on {self.n} and {other.n} variables")
        if all(len(f._terms) == 1 and sum(next(iter(f._terms))) == 1 for f in self.components):
            heads = [next(iter(f._terms.items())) for f in self.components]
            images = [(other.components[k.index(1)], c.as_integer_ratio()) for k, c in heads]
            return Endo._make(tuple([g._regrade([], ratio) for g, ratio in images]))
        slots = [_table(g) for g in other.components]
        return Endo._make(tuple([f._substitute(slots) for f in self.components]))

    def __mul__(self, other):
        if isinstance(other, Endo):
            return self.compose(other)
        return NotImplemented

    def is_identity(self) -> bool:
        return self == Endo.identity(self.n)

    # -- degree and structure --------------------------------------------------

    def _top_degree(self):
        """Maximum component degree, NEG_INF for the all-zero map: t-free keys sum to degrees."""
        return max(max(map(sum, f._terms), default=NEG_INF) for f in self.components)

    def degree(self) -> int:
        """Maximum component degree; rejects the all-zero endomorphism."""
        d = self._top_degree()
        if d == NEG_INF:
            raise DegenerateInput("the all-zero endomorphism has no degree")
        return d

    def affine_part(self) -> "Endo":
        """Truncation of each component to its constant and linear terms."""
        return Endo(
            [Poly._make(self.n, {k: c for k, c in f if sum(k) <= 1}) for f in self.components]
        )

    def has_identity_affine_part(self) -> bool:
        """Component i's terms of degree at most one are exactly x_i."""
        return all(
            {k: c for k, c in f if sum(k) <= 1} == {_var_key(self.n, i): 1}
            for i, f in enumerate(self.components, start=1)
        )

    def linear_matrix(self) -> _linalg.Matrix:
        """The n x n matrix of linear coefficients (row i: component i)."""
        keys = [_var_key(self.n, j) for j in range(1, self.n + 1)]
        return tuple(
            tuple(_as_fraction(f._terms.get(k, 0)) for k in keys) for f in self.components
        )

    def translation(self) -> tuple[Fraction, ...]:
        return tuple(f.constant_term() for f in self.components)

    def is_affine(self) -> bool:
        """Degree one with invertible linear part."""
        return self._top_degree() == 1 and _linalg.det(self.linear_matrix()) != 0

    def is_triangular(self) -> bool:
        """Component i must be a_i*x_i + p_i with a_i != 0 and p_i in later variables."""
        for i, f in enumerate(self.components, start=1):
            key = _var_key(self.n, i)
            if key not in f._terms or any(k != key and any(k[:i]) for k in f._terms):
                return False
        return True

    # -- calculus ---------------------------------------------------------------

    def jacobian_matrix(self) -> tuple[tuple[Poly, ...], ...]:
        return tuple(
            tuple(f.partial_derivative(j) for j in range(1, self.n + 1))
            for f in self.components
        )

    def jacobian_det(self) -> Poly:
        return poly_det(self.jacobian_matrix())

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(point) != self.n:
            raise DimensionError(f"expected a point of length {self.n}")
        coords = [_as_fraction(v) for v in point]
        return tuple(f.evaluate(coords) for f in self.components)

    __call__ = evaluate

    # -- coefficient embedding ------------------------------------------------------

    def coeff_vector(self, d: int) -> CoeffVector:
        """Linear encoding of an endomorphism of degree <= d."""
        if (top := self._top_degree()) > d:  # the all-zero map's NEG_INF is in every filtration
            raise FiltrationError(
                f"degree {top} endomorphism does not lie in the degree-{d} filtration"
            )
        order = monomials_upto(self.n, d)
        entries: list[Fraction] = []
        for f in self.components:
            entries.extend(f.coefficient(key) for key in order)
        return CoeffVector(self.n, d, entries)

    @classmethod
    def from_coeff_vector(cls, vector: CoeffVector) -> "Endo":
        order = monomials_upto(vector.n, vector.d)
        per = len(order)
        components = []
        for i in range(vector.n):
            chunk = vector.entries[i * per : (i + 1) * per]
            components.append(
                Poly(vector.n, {key: c for key, c in zip(order, chunk) if c})
            )
        return cls(components)


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Dynamic programming over column subsets (Laplace expansion with shared
    minors): n * 2^(n-1) entry-by-minor products instead of the n! of a
    naive permanent-style expansion, with rows taken sparsest first so the
    dense rows only multiply the final minors.  Each product's sign is its
    Leibniz inversion count against the entries already taken, so that row
    order needs no correcting sign at the end.  The expansion runs on
    Kronecker-packed integers (:class:`_Packing`, whose fields ``poly._layout``
    places) and multiplies them in ``poly._packed_product``: each row is multiplied
    by the lcm of its denominators, the coefficients of one dense slot (the
    one of largest degree bound) share one int in B-bit fields, the other
    slots' exponents pack into the dict key, and the determinant is decoded
    once, in balanced digits, then divided by the product of the row lcms.
    Packing the dense slot evaluates it at y = 2^B, a ring homomorphism, so
    products and sums of packed values are exact without decoding.  The
    decoding is unique for B = bits(P) + 2, with P the product over rows of
    the row's l1 norm (the sum of its entries' absolute coefficients): by
    the Leibniz expansion every partial minor, partial sum and the
    determinant itself is a signed sum of products taking one entry from
    each of some rows, so its l1 norm is at most P < 2^(B-2), and every
    coefficient lies inside the balanced digit range (-2^(B-1), 2^(B-1)).
    Key fields are as wide as a bound on every minor's degree in their slot
    (n times the matrix's largest exponent there, since a minor multiplies
    at most one entry per row), so no key sum carries into the next field.
    """
    n = len(rows)
    if n == 0:
        raise DimensionError("empty matrix")
    if any(len(row) != n for row in rows):
        raise DimensionError("determinant needs a square matrix")
    nvars = rows[0][0].nvars
    if {entry.nvars for row in rows for entry in row} != {nvars}:
        raise DimensionError("matrix entries must share nvars")
    packing = _Packing(rows, nvars)
    order = sorted(range(n), key=lambda i: sum(map(len, packing.rows[i])))
    # minors[S] = det of the submatrix on the first k ordered rows, kept in
    # index order, and the columns in the bit set S
    minors: dict[int, dict[int, int]] = {0: {0: 1}}
    for k, i in enumerate(order):
        below = sum(r < i for r in order[:k])
        new: dict[int, dict[int, int]] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(packing.rows[i]):
                bit = 1 << j
                if cols & bit or not entry:
                    continue
                # Leibniz sign: (i, j) against each taken (r, c), the parity of
                # [r < i] + [c < j] equals that of the inversion [r < i] != [c < j]
                negate = (below + (cols & (bit - 1)).bit_count()) & 1
                terms = [(key, -c) for key, c in entry.items()] if negate else entry.items()
                _packed_product(new.setdefault(cols | bit, {}), terms, minor.items())
        minors = {}
        for cols, acc in new.items():
            acc = {key: c for key, c in acc.items() if c}
            if acc:
                minors[cols] = acc
        if not minors:
            return Poly.zero(nvars)
    return packing.unpack(minors[(1 << n) - 1])


class _Packing:
    """Kronecker packing of one matrix's entries, and its inverse.

    After its row is made integral, a term c * x^e of an entry (t is the last
    slot of e) is read as the int E = sum(e[s] << offset[s]) over all slots,
    with the fields of ``poly._layout``.  The key fields sit below bit ``top``
    and the dense slot's field at ``top``, so the term goes to the key E mod
    2^top and adds c << (width * (E >> top)) to that key's value.  No slot is
    dense when the dense degree bound exceeds _DENSE_DEGREE_PER_TERM times the
    matrix's term count: then E >> top is 0 and values are plain coefficients.
    """

    def __init__(self, rows: Sequence[Sequence[Poly]], nvars: int):
        self.nvars = nvars
        scaled = []
        self.divisor = norm = 1
        for row in rows:
            row = [entry.terms() for entry in row]
            m = lcm(*{c.denominator for entry in row for c in entry.values()})
            if m > 1:
                self.divisor *= m
                row = [
                    {key: c.numerator * (m // c.denominator) for key, c in entry.items()}
                    for entry in row
                ]
            scaled.append(row)
            norm *= sum([abs(c) for entry in row for c in entry.values()])
        self.width = norm.bit_length() + 2
        keys = [key for row in scaled for entry in row for key in entry]
        bounds = [len(rows) * max(column) for column in zip(*keys)] or [0] * (nvars + 1)
        dense = max(range(nvars + 1), key=bounds.__getitem__)
        if bounds[dense] > _DENSE_DEGREE_PER_TERM * len(keys):
            dense = None
        self.fields, offsets, self.top = _layout(bounds, dense)
        low, top, width = (1 << self.top) - 1, self.top, self.width
        self.rows = []
        for row in scaled:
            packed_row = []
            for entry in row:
                out: dict[int, int] = {}
                for key, c in entry.items():
                    e = sum(map(lshift, key, offsets))
                    out[e & low] = out.get(e & low, 0) + (c << width * (e >> top))
                packed_row.append(out)
            self.rows.append(packed_row)

    def unpack(self, packed: dict[int, int]) -> Poly:
        """The polynomial of packed terms, divided by the rows' lcms."""
        width = self.width
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        out = {}
        for p, value in packed.items():
            e = 0
            while value:
                c = value & mask
                if not c:
                    # balanced digits: the lowest set bit is in the lowest nonzero field
                    skip = ((value & -value).bit_length() - 1) // width
                    value >>= skip * width
                    e += skip
                    c = value & mask
                if c >= half:
                    c -= mask + 1
                key = p | e << self.top
                out[tuple((key >> offset) & field for offset, field in self.fields)] = (
                    c if self.divisor == 1 else _norm_coeff(Fraction(c, self.divisor))
                )
                value = (value - c) >> width
                e += 1
        return Poly._make(self.nvars, out)

