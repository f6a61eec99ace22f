"""Sparse multivariate polynomials over exact rationals.

A polynomial in x1..xn, optionally involving one distinguished parameter named
t, is stored as a dictionary mapping exponent tuples to nonzero exact rational
coefficients: an ``int`` where the value is integral, otherwise a
:class:`fractions.Fraction`.  Keys have length ``nvars + 1``; the last slot
holds the exponent of t.  The zero polynomial has an empty term map, zero
coefficients are never stored, and equality is structural (a constant also
equals its value), so canonical forms are unique.  Products add Kronecker-packed
keys laid out by ``_layout`` in ``_packed_product``, as ``endo.poly_det`` does.
Substitution (so composition) and setting t run on ints.  Scaling skips
``_substitute``: ``_regrade`` multiplies each term c*x^e by prod a_j^e_j and an
outer factor on ints, divided once, or flips signs where every factor is +-1;
setting t also drops t's exponent.  It serves products by a constant,
``with_t_set``, composition after a scaled permutation and the torus
conjugation, whose check reads its int sums (``_is_quotient``).

Values are immutable by convention: no operation mutates one and no setter
guards it; every operation is a pure function, so values can be shared freely.

    >>> x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    >>> str((x2 + x1) * (x2 - x1))
    '-x1^2 + x2^2'
    >>> (x1 + x2 ** 2).total_degree()
    2

Degrees always refer to the x-variables only: t never counts toward the
total degree, and substitution leaves t fixed unless an explicit image for
it is supplied.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter, lshift
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import AlgebraError, DimensionError, UndefinedValuation

#: Degree of the zero polynomial.  A genuine minus infinity (never -1), so
#: degree arithmetic like deg(p*q) == deg(p) + deg(q) stays exceptionless.
NEG_INF = float("-inf")

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _as_fraction(value: Scalar) -> Fraction:
    # int first: isinstance(int, Fraction) runs ABCMeta.__instancecheck__
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _norm_coeff(value):
    # ints are much cheaper than Fractions; demote exact integers (an exact
    # type test: isinstance(int, Fraction) runs ABCMeta.__instancecheck__)
    if type(value) is not int and value.denominator == 1:
        return value.numerator
    return value


def _slot(nvars: int, index: int) -> int:
    """The key slot of the variable x_index, 1-based, once index is checked."""
    if not 1 <= index <= nvars:
        raise DimensionError(f"variable index {index} out of range 1..{nvars}")
    return index - 1


def _layout(bounds: Sequence[int], dense: int | None = None) -> tuple[list, list, int]:
    """(offset, mask) of each slot's field in a Kronecker-packed key sum(e[s] << offset[s]),
    the offsets, and the key width.  A field holds its slot's bound, so keys whose slot sums
    stay within the bounds add without carry; the dense slot's field is unbounded, on top."""
    fields, top = [], 0
    for s, bound in enumerate(bounds):
        bits = 0 if s == dense else bound.bit_length()
        fields.append((top, (1 << bits) - 1))
        top += bits
    if dense is not None:
        fields[dense] = (top, -1)
    return fields, [offset for offset, _ in fields], top


def _packed_product(acc: dict, a: Iterable[tuple], b: Iterable[tuple]) -> dict:
    """acc plus the product of a and b, (packed key, coefficient) pairs under one _layout,
    where a product's key is the sum of its factors' keys.  A sum that cancels stays in acc
    as a zero, for the caller to drop; a test per sum would cost every product."""
    get = acc.get
    for ka, ca in a:
        for kb, cb in b:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    return acc


def _var_key(nvars: int, index: int) -> tuple:
    """The exponent key of x_index (1-based) among nvars variables, t slot last."""
    return (0,) * (index - 1) + (1,) + (0,) * (nvars + 1 - index)


def _power(table: dict[int, "Poly"], e: int) -> "Poly":
    # table maps exponents to known powers of table[1].  The chain steps down
    # from e, to e - 1 when e is odd and to e // 2 when even, until it meets a
    # known power; the powers on it are then built back up and stored.  A loop:
    # a k-bit exponent's chain has up to 2k steps, past the recursion limit.
    chain = []
    while e not in table:
        chain.append(e)
        e = e - 1 if e & 1 else e >> 1
    for e in reversed(chain):
        table[e] = table[e - 1] * table[1] if e & 1 else table[e >> 1] * table[e >> 1]
    return table[e]


def _table(g: "Poly") -> tuple:
    """The substitution slot of image g (see _substitute)."""
    terms = g._terms
    d = lcm(*[c.denominator for c in terms.values() if type(c) is not int])
    if d != 1:
        g = Poly._make(g.nvars, {k: c.numerator * (d // c.denominator) for k, c in terms.items()})
    return d, {1: g}


def _quotient(nvars: int, acc: dict, total: int) -> "Poly":
    """The Poly of acc's nonzero int sums, each divided exactly by total."""
    out = {k: Fraction(v, total) if v % total else v // total for k, v in acc.items() if v}
    return Poly._make(nvars, out)


def _is_quotient(g: "Poly", acc: dict, total: int) -> bool:
    """g == _quotient(g.nvars, acc, total), with no Fraction built: g's coefficient num/den
    (den 1 for an int) at each nonzero sum v's key has num*total == v*den, and no other key."""
    terms, nonzero = g._terms, 0
    for k, v in acc.items():
        if v:
            nonzero += 1
            c = terms.get(k)
            if c is None or c.numerator * total != v * c.denominator:
                return False
    return nonzero == len(terms)


class Poly:
    """Sparse polynomial in x1..xn and the parameter t, immutable by convention: no
    operation mutates one, no setter guards it."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Scalar] | None = None):
        if nvars < 0:
            raise DimensionError("nvars must be non-negative")
        clean: dict[tuple, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) == nvars:
                    key = key + (0,)  # t-free input: pad the t slot
                elif len(key) != nvars + 1:
                    raise DimensionError(
                        f"exponent tuple {key} does not fit {nvars} variables"
                    )
                if any(type(e) is not int or e < 0 for e in key):
                    raise DimensionError(f"exponents must be non-negative integers: {key}")
                c = _norm_coeff(_as_fraction(coeff))
                if c:
                    acc = clean.get(key)
                    c = c if acc is None else acc + c
                    if c:
                        clean[key] = c
                    else:
                        del clean[key]
        self.nvars = nvars
        self._terms = clean

    @classmethod
    def _make(cls, nvars: int, terms: dict) -> "Poly":
        # Trusted fast path: terms already canonical (int values where
        # integral, Fraction otherwise, no zeros, full-length keys).
        self = object.__new__(cls)
        self.nvars, self._terms = nvars, terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._make(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "Poly":
        c = value if type(value) is int else _norm_coeff(_as_fraction(value))
        if not c:
            return cls.zero(nvars)
        return cls._make(nvars, {(0,) * (nvars + 1): c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial x_index, with 1-based index."""
        _slot(nvars, index)
        return cls._make(nvars, {_var_key(nvars, index): 1})

    @classmethod
    def t(cls, nvars: int) -> "Poly":
        """The parameter t as a polynomial."""
        key = (0,) * nvars + (1,)
        return cls._make(nvars, {key: 1})

    @classmethod
    def variables(cls, nvars: int) -> list["Poly"]:
        return [cls.variable(nvars, i) for i in range(1, nvars + 1)]

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[tuple, Fraction]:
        """A copy of the term map (exponent tuple, t slot last -> coefficient)."""
        return dict(self._terms)

    def __iter__(self) -> Iterator[tuple[tuple, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def mentions_t(self) -> bool:
        return any(key[-1] for key in self._terms)

    def is_constant(self) -> bool:
        return all(not any(key) for key in self._terms)

    def constant_term(self) -> Fraction:
        return _as_fraction(self._terms.get((0,) * (self.nvars + 1), 0))

    def coefficient(self, xexps: Sequence[int], t_exp: int = 0) -> Fraction:
        """Coefficient of the monomial with the given x-exponents and t-exponent."""
        if len(xexps) != self.nvars:
            raise DimensionError("exponent tuple length must equal nvars")
        return _as_fraction(self._terms.get(tuple(xexps) + (t_exp,), 0))

    # -- degrees and valuations -------------------------------------------

    def total_degree(self):
        """Maximum total degree in the x-variables; NEG_INF for zero. t is ignored."""
        if not self._terms:
            return NEG_INF
        return max(sum(key[:-1]) for key in self._terms)

    def degree_in(self, index: int):
        """Maximum exponent of x_index; NEG_INF for the zero polynomial."""
        i = _slot(self.nvars, index)
        return max((key[i] for key in self._terms), default=NEG_INF)

    def t_degree(self):
        if not self._terms:
            return NEG_INF
        return max(key[-1] for key in self._terms)

    def t_valuation(self) -> int:
        """Minimum exponent of t over all terms.  Undefined for zero."""
        if not self._terms:
            raise UndefinedValuation("the zero polynomial has no t-valuation")
        return min(key[-1] for key in self._terms)

    def valuation_in(self, indices: Iterable[int]) -> int:
        """Minimum, over terms, of the summed exponents of the given x-variables.

        This is the (x_i)_{i in indices}-adic valuation.  Raises
        UndefinedValuation for the zero polynomial (the valuation would be
        infinite).
        """
        idx = [_slot(self.nvars, i) for i in sorted(set(indices))]
        if not self._terms:
            raise UndefinedValuation("the zero polynomial has no valuation")
        return min(sum(key[i] for i in idx) for key in self._terms)

    def homogeneous_component(self, indices: Iterable[int], weight: int) -> "Poly":
        """Sum of the terms whose summed exponent over the given variables is weight."""
        idx = [_slot(self.nvars, i) for i in sorted(set(indices))]
        picked = {
            key: c for key, c in self._terms.items() if sum(key[i] for i in idx) == weight
        }
        return Poly._make(self.nvars, picked)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DimensionError(
                    f"variable counts differ: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in q._terms.items():
            acc = out.get(key)
            s = c if acc is None else acc + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Poly._make(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self._terms, q._terms
        if len(a) > len(b):
            a, b, q = b, a, self
        if not a:
            return Poly.zero(self.nvars)
        if len(a) == 1:
            # a monomial shifts every key of b: no collisions, no cancellation
            [(ka, ca)] = a.items()
            if not any(ka):
                return q._regrade([], ca.as_integer_ratio())
            return Poly._make(
                self.nvars,
                {tuple(map(int.__add__, ka, kb)): _norm_coeff(ca * cb) for kb, cb in b.items()},
            )
        # every exponent of the product is at most the sum of the operands' largest exponents
        fields, offsets, _ = _layout([max(map(max, a)) + max(map(max, b))] * (self.nvars + 1))
        pa, pb = ([(sum(map(lshift, k, offsets)), c) for k, c in t.items()] for t in (a, b))
        acc = _packed_product({}, pa, pb)
        out = {tuple((p >> s) & m for s, m in fields): _norm_coeff(c) for p, c in acc.items() if c}
        return Poly._make(self.nvars, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self._regrade([], (1 / c).as_integer_ratio())
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers need a non-negative integer exponent")
        return _power({0: Poly.const(self.nvars, 1), 1: self}, exponent)

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, index: int) -> "Poly":
        """Formal partial derivative with respect to x_index (1-based)."""
        i = _slot(self.nvars, index)
        out: dict[tuple, Fraction] = {}
        for key, c in self._terms.items():
            e = key[i]
            if e:
                nk = list(key)
                nk[i] = e - 1
                c *= e
                out[tuple(nk)] = _norm_coeff(c) if type(c) is Fraction else c
        return Poly._make(self.nvars, out)

    def substitute(self, images: Sequence["Poly"], t_image: "Poly | None" = None) -> "Poly":
        """Replace x_i by images[i-1]; t is left fixed unless t_image is given.

        Images must all share this polynomial's variable count; they may
        mention t.
        """
        if len(images) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} substitution images, got {len(images)}"
            )
        for g in images:
            if not isinstance(g, Poly) or g.nvars != self.nvars:
                raise DimensionError("every substitution image must share nvars")
        if t_image is not None and t_image.nvars != self.nvars:
            raise DimensionError("t image must share nvars")
        t_base = t_image if t_image is not None else Poly.t(self.nvars)
        return self._substitute([_table(g) for g in [*images, t_base]])

    def _substitute(self, slots: Sequence[tuple]) -> "Poly":
        # slots[i] = _table(image of slot i): (d, powers of the int image d*g)
        # with d the lcm of g's denominators; slots past the last table (t, for a
        # t-free self) must carry exponent 0.  With clear*self integral and m the
        # top exponent per slot, c*x^e adds the int c*clear * prod d^(m-e) *
        # prod (d*g)^e to one accumulator; each sum is divided once by total =
        # clear * prod d^m.  A zero image's powers are zero, so the terms that use
        # it add nothing.  The slots' power tables are shared by every polynomial
        # they substitute into.
        source = self._terms
        zero_key = (0,) * (self.nvars + 1)
        clear = lcm(*[c.denominator for c in source.values() if type(c) is not int])
        scaled = [
            (i, d, max((k[i] for k in source), default=0), {0: 1})
            for i, (d, _) in enumerate(slots)
            if d != 1
        ]
        total = clear * prod(d**m for _, d, m, _ in scaled)
        acc: dict[tuple, int] = {}
        get = acc.get
        for key, c in source.items():
            c = c * clear if type(c) is int else c.numerator * (clear // c.denominator)
            for i, d, m, dpow in scaled:
                k = m - key[i]
                if k not in dpow:
                    dpow[k] = d**k
                c *= dpow[k]
            product = None
            for e, (_, table) in zip(key, slots):
                if e:
                    power = _power(table, e)
                    product = power if product is None else product * power
            if product is None:
                items = ((zero_key, c),)
            else:
                items = [(k, c * v) for k, v in product._terms.items()]
            for k, v in items:
                old = get(k)
                acc[k] = v if old is None else old + v
        return _quotient(self.nvars, acc, total)

    def _regrade(self, moved: Sequence[tuple], outer=(1, 1), drop_t=False, sums=False):
        """a/b * self for outer = (a, b), with c*x^e scaled by prod a_j^e_j for moved =
        [(j, p, q)], a_j = p/q != 1 the factor of slot j (x1..xn, t); with drop_t, t's
        exponent goes to 0 and colliding keys are summed.  If every factor is +-1, signs
        flip by parity; else, on ints, c*clear*a * prod p^e_j q^(m_j - e_j) over
        total = clear*b * prod q^m_j is one _quotient.  With sums, that integer path
        returns (acc, total) before _quotient, for _is_quotient to compare."""
        terms, acc = self._terms, {}
        a, b = outer
        if not terms or (not drop_t and not moved and a == b):
            return self
        get = acc.get
        flips = [j for j, p, q in moved if p == -1 and q == 1]
        if len(flips) == len(moved) and b == 1 and a * a == 1:
            odd, one, neg = itemgetter(*flips) if flips else None, len(flips) == 1, a == -1
            for key, c in terms.items():
                if (odd is not None and (odd(key) if one else sum(odd(key))) & 1) != neg:
                    c = -c
                if drop_t:
                    key = key[:-1] + (0,)
                old = get(key)
                acc[key] = c if old is None else old + c
            if len(acc) < len(terms):  # collided: drop zero sums, demote integral ones
                acc = {k: _norm_coeff(v) for k, v in acc.items() if v}
            return Poly._make(self.nvars, acc)
        clear = lcm(*[c.denominator for c in terms.values() if type(c) is not int])
        scaled, a = [], a * clear
        for j, p, q in moved:
            exps = {k[j] for k in terms}
            m = max(exps)
            scaled.append((j, {e: p**e * q ** (m - e) for e in exps}))
            b *= q**m
        for key, c in terms.items():
            c = c * a if type(c) is int else c.numerator * (a // c.denominator)
            for j, powers in scaled:
                c *= powers[key[j]]
            if drop_t:
                key = key[:-1] + (0,)
            old = get(key)
            acc[key] = c if old is None else old + c
        return (acc, clear * b) if sums else _quotient(self.nvars, acc, clear * b)

    def with_t_set(self, value: Scalar) -> "Poly":
        """Specialize t to an exact rational t0: scale t's slot by t0 and drop its exponent."""
        p, q = (value if type(value) is int else _as_fraction(value)).as_integer_ratio()
        return self._regrade([] if p == q else [(self.nvars, p, q)], drop_t=True)

    def divide_t(self, power: int) -> "Poly":
        """Exact division by t**power; every term must carry at least that power."""
        if power < 0:
            raise ValueError(f"cannot divide by t^{power}: the power must be non-negative")
        if power == 0 or not self._terms:
            return self
        out: dict[tuple, Fraction] = {}
        for key, c in self._terms.items():
            if key[-1] < power:
                raise ValueError(f"term with t-exponent {key[-1]} is not divisible by t^{power}")
            out[key[:-1] + (key[-1] - power,)] = c
        return Poly._make(self.nvars, out)

    def evaluate(self, point: Sequence[Scalar], t_value: Scalar | None = None) -> Fraction:
        """Exact value at a rational point; t_value is required iff t occurs."""
        if len(point) != self.nvars:
            raise DimensionError(f"expected a point of length {self.nvars}")
        coords = [_as_fraction(v) for v in point]
        tv: Fraction | None = None if t_value is None else _as_fraction(t_value)
        total = _ZERO
        for key, c in self._terms.items():
            term = c
            for i in range(self.nvars):
                e = key[i]
                if e:
                    term *= coords[i] ** e
            et = key[-1]
            if et:
                if tv is None:
                    raise DimensionError("polynomial mentions t but no t value was given")
                term *= tv**et
            total += term
        return total

    # -- equality, hashing, rendering ---------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly) and self.nvars == other.nvars:
            return self._terms == other._terms
        if isinstance(other, Poly):  # only constants compare equal across variable counts
            return self.is_constant() and other.is_constant() and self == other.constant_term()
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant():  # equal to its coefficient (see __eq__), so hashed alike
            return hash(self.constant_term())
        return hash((self.nvars, frozenset(self._terms.items())))

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in descending graded-lexicographic order, x1 > ... > xn > t."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        try:
            for key, coeff in self.sorted_terms():
                factors = []
                for i in range(self.nvars):
                    e = key[i]
                    if e == 1:
                        factors.append(f"x{i + 1}")
                    elif e:
                        factors.append(f"x{i + 1}^{e}")
                et = key[-1]
                if et == 1:
                    factors.append("t")
                elif et:
                    factors.append(f"t^{et}")
                mono = "*".join(factors)
                mag = abs(coeff)
                if not mono:
                    body = str(mag)
                elif mag == 1:
                    body = mono
                else:
                    body = f"{mag}*{mono}"
                if not chunks:
                    chunks.append(body if coeff > 0 else f"-{body}")
                else:
                    chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        except ValueError:  # an int past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise AlgebraError(f"cannot render a number of more than {limit} digits") from None
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r}, nvars={self.nvars})"
