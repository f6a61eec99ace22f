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

Value identity lives in ``_Value`` alone: maps, letters, words, coefficient vectors and
the pipeline's records name their identifying attributes in ``_fields``.  No type is a
dataclass, since importing ``dataclasses`` costs over 10 ms, a seventh of a light CLI
verb's run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import lshift
from typing import Sequence

from . import _linalg
from .errors import DegenerateInput, DimensionError, FiltrationError
from .poly import NEG_INF, Poly, Scalar, _as_fraction, _layout, _packed_product
from .poly import _count, _table, _var_key

# poly_det packs one slot densely only while its degree bound stays within
# this many times the matrix's term count: a dense value holds a field for
# every exponent up to the bound, so a sparse high power such as x1^(10^19)
# must stay in the key.
_DENSE_DEGREE_PER_TERM = 4


def _affine_keys(n: int) -> list[tuple]:
    """The keys of x1..xn, then of the constant: the columns of an affine row."""
    return [_var_key(n, j) for j in range(1, n + 1)] + [(0,) * (n + 1)]


def _combine(images: Sequence[Poly], rows: Sequence[Sequence[int]], den: int) -> tuple:
    """(A g + u)/den for int rows [A | u], den > 0: per row one int sum of a_j * m/d_j times
    the numerator of each image g_j over d_j, plus u * m, over den * m for m = lcm(d_j)."""
    nvars, m, out = images[0].nvars, lcm(*(g._den for g in images)), []
    for *coeffs, u in rows:
        picked = [(a, g) for a, g in zip(coeffs, images) if a]
        if not u and len(picked) == 1 and picked[0][0] == den:  # the row den * e_j: g_j itself
            out.append(picked[0][1])
            continue
        acc = {}
        for a, g in picked:
            a *= m // g._den
            if acc:  # a later image: its sums may cancel, and zeros are dropped below
                get = acc.get
                for k, c in g._terms.items():
                    acc[k] = get(k, 0) + a * c
            else:  # the first image with terms: each product a*c is nonzero
                acc = {k: a * c for k, c in g._terms.items()}
        if u:  # the translation may cancel a constant term
            zero = (0,) * (nvars + 1)
            acc[zero] = acc.get(zero, 0) + u * m
        if u or len(picked) > 1:
            acc = {k: c for k, c in acc.items() if c}
        out.append(Poly._make(nvars, acc, den * m))
    return tuple(out)


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


class _Value:
    """Equal to a value of exactly its type with equal _fields, hashed as their tuple,
    rendered as Name(field=value, ...)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class CoeffVector(_Value):
    """Coefficient embedding of a degree-bounded endomorphism.

    Entries are the coefficients of the components, concatenated in
    component order 1..n, each listed over ``monomials_upto(n, d)``.  The
    length is always n * C(n+d, d).
    """

    __slots__ = ("n", "d", "entries")
    _fields = ("n", "d", "entries")

    def __init__(self, n: int, d: int, entries: Sequence[Fraction]):
        expected = _count(n, "n", 1) * comb(n + _count(d, "d", 0), d)
        entries = tuple(_as_fraction(e) for e in entries)
        if len(entries) != expected:
            raise FiltrationError(
                f"coefficient vector for n={n}, d={d} needs {expected} entries, got {len(entries)}"
            )
        self.n = n
        self.d = d
        self.entries = entries

    def __repr__(self):
        return f"CoeffVector(n={self.n}, d={self.d}, len={len(self.entries)})"


class _PolyTuple(_Value):
    """A tuple of n polynomials in n variables, compared, hashed and rendered by its
    components; immutable like Poly by convention: no operation mutates one."""

    __slots__ = ("n", "components")
    _fields = ("components",)

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
        """Substitution product; acts on points as self after other.  If self has degree at most
        one (affine, constant or zero components), each component is one int linear combination
        of other's components by its affine row (``_combine``); otherwise Poly._substitute runs
        with one table per component of other and none for t, which no component mentions."""
        if not isinstance(other, Endo):
            raise DimensionError("can only compose with another endomorphism")
        if self.n != other.n:
            raise DimensionError(f"cannot compose maps on {self.n} and {other.n} variables")
        if self._top_degree() <= 1:
            return Endo._make(_combine(other.components, *self._affine_rows()))
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
        return Endo._from_affine_rows(*self._affine_rows())

    def has_identity_affine_part(self) -> bool:
        """Component i's terms of degree at most one are exactly x_i: row i is den * e_i."""
        rows, den = self._affine_rows()
        return rows == [[den * (i == j) for j in range(self.n + 1)] for i in range(self.n)]

    def _affine_rows(self) -> tuple[list[list[int]], int]:
        """Row i holds component i's coefficients of x1..xn, then its constant: int rows
        [A | u] over one positive den, the affine part being x -> (Ax + u)/den."""
        den, keys = lcm(*(f._den for f in self.components)), _affine_keys(self.n)
        return [[f._terms.get(k, 0) * (den // f._den) for k in keys] for f in self.components], den

    @classmethod
    def _from_affine_rows(cls, rows: list[list[int]], den: int) -> "Endo":
        """x -> (Ax + u)/den for int rows [A | u] and den > 0; zero entries are dropped."""
        n, keys = len(rows), _affine_keys(len(rows))
        return cls._make(
            tuple([Poly._make(n, {k: c for k, c in zip(keys, row) if c}, den) for row in rows])
        )

    def is_affine(self) -> bool:
        """Degree one with invertible linear part."""
        rows, _ = self._affine_rows()
        return self._top_degree() == 1 and _linalg._eliminate([r[:-1] for r in rows], False)[1] != 0

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
        _count(d, "d", 0)
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
    places) and multiplies them in ``poly._packed_product``: each row is put
    over one denominator, the lcm of its entries' dens, and packs its int
    numerators; the coefficients of one dense slot (the one of largest degree
    bound) share one int in B-bit fields, the other slots' exponents pack into
    the dict key, and the determinant is decoded once, in balanced digits, over
    the product of the row denominators, reduced once.
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
        row = packing.rows[i]
        negated: dict[int, list] = {}  # entry j's negated terms, built at most once per row
        new: dict[int, dict[int, int]] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                bit = 1 << j
                if cols & bit or not entry:
                    continue
                # Leibniz sign: (i, j) against each taken (r, c), the parity of
                # [r < i] + [c < j] equals that of the inversion [r < i] != [c < j]
                terms = entry.items()
                if (below + (cols & (bit - 1)).bit_count()) & 1:
                    terms = negated.get(j) or negated.setdefault(j, [(key, -c) for key, c in terms])
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

    After its row is put over one denominator, a term c * x^e of an entry, c
    its int numerator and t the last slot of e, is read as the int
    E = sum(e[s] << offset[s]) over all slots, with the fields of
    ``poly._layout``.  The key fields sit below bit ``top`` and the dense
    slot's field at ``top``, so the term goes to the key E mod 2^top and adds
    c << (width * (E >> top)) to that key's value.  No slot is dense when the
    dense degree bound exceeds _DENSE_DEGREE_PER_TERM times the matrix's term
    count: then E >> top is 0 and values are plain coefficients.
    """

    def __init__(self, rows: Sequence[Sequence[Poly]], nvars: int):
        self.nvars = nvars
        scaled = []
        self.divisor = norm = 1
        for row in rows:
            m = 1  # the lcm of the row's dens
            for entry in row:
                m *= entry._den // gcd(m, entry._den)
            self.divisor *= m
            row = [(entry._terms, m // entry._den) for entry in row]
            row = [terms if s == 1 else {k: c * s for k, c in terms.items()} for terms, s in row]
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
        """The polynomial of packed terms, over the product of the row denominators."""
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
                out[tuple((key >> offset) & field for offset, field in self.fields)] = c
                value = (value - c) >> width
                e += 1
        return Poly._make(self.nvars, out, self.divisor)

