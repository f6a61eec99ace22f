"""Sparse multivariate polynomials over exact rationals.

A polynomial in x1..xn, optionally involving one distinguished parameter named
t, is stored as one positive int denominator ``_den`` over a dictionary
``_terms`` mapping exponent tuples to nonzero int numerators, with
gcd(den, every numerator) = 1, so den = 1 for an integral polynomial: the
layout of FLINT's ``fmpq_poly``.  Keys have length ``nvars + 1``; the last
slot holds the exponent of t.  The zero polynomial has an empty term map over
den 1, zero numerators are never stored, and ``_make`` divides out any common
factor of den and the numerators, so canonical forms are unique and equality
is structural (a constant also equals its value).  Fractions are built only
at the API boundary: ``terms()``, iteration, ``coefficient``,
``constant_term``, ``evaluate`` and rendering, which give an ``int`` where a
coefficient is integral, otherwise a :class:`fractions.Fraction`.  Products
add Kronecker-packed keys laid out by ``_layout`` in ``_packed_product``, as
``endo.poly_det`` does.  Substitution (so composition) and setting t run on
the numerators.  Scaling skips ``_substitute``: ``_regrade`` multiplies each
term c*x^e by prod a_j^e_j and an outer factor on ints, over one denominator,
or flips signs where every factor is +-1; setting t also drops t's exponent.
It serves products by a constant, ``with_t_set`` and the torus conjugation.

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
from math import gcd, prod
from operator import itemgetter, lshift
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import AlgebraError, DimensionError, UndefinedValuation

#: Degree of the zero polynomial.  A genuine minus infinity (never -1), so
#: degree arithmetic like deg(p*q) == deg(p) + deg(q) stays exceptionless.
NEG_INF = float("-inf")

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _as_fraction(value: Scalar) -> Fraction:
    # int first: isinstance(int, Fraction) runs ABCMeta.__instancecheck__; a bool is no scalar
    if isinstance(value, int) and type(value) is not bool:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _ratio(value: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational in lowest terms, the denominator positive."""
    return (value, 1) if type(value) is int else _as_fraction(value).as_integer_ratio()


def _count(value: int, name: str, least: int) -> int:
    """A structural int such as nvars, once checked: an int (not 2.0 or True), >= least."""
    if type(value) is not int:
        raise DimensionError(f"{name} must be an int, got {value!r}")
    if value < least:
        bound = f"at least {least}" if least else "non-negative"
        raise DimensionError(f"{name} must be {bound}")
    return value


def _slot(nvars: int, index: int) -> int:
    """The key slot of x_index, 1-based, once index is checked: an int (not 1.0) in range."""
    if type(index) is int and 1 <= index <= nvars:
        return index - 1
    if type(index) is not int:
        raise DimensionError(f"variable index must be an int, got {index!r}")
    raise DimensionError(f"variable index {index} out of range 1..{nvars}")


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
    return g._den, {1: g if g._den == 1 else Poly._make(g.nvars, g._terms)}


def _from_ratios(nvars: int, triples: Iterable[tuple]) -> "Poly":
    """The Poly of the sum of num/den * x^key over (key, num, den) triples, den > 0: the
    numerators are summed per key over the lcm of the dens seen so far."""
    den, terms = 1, {}
    for key, num, d in triples:
        if den % d:
            scale = d // gcd(den, d)
            den *= scale
            terms = {k: c * scale for k, c in terms.items()}
        terms[key] = terms.get(key, 0) + num * (den // d)
    return Poly._make(nvars, {k: c for k, c in terms.items() if c}, den)


class Poly:
    """Sparse polynomial in x1..xn and the parameter t, immutable by convention: no
    operation mutates one, no setter guards it."""

    __slots__ = ("nvars", "_den", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Scalar] | None = None):
        _count(nvars, "nvars", 0)
        triples = []
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) == nvars:
                key = key + (0,)  # t-free input: pad the t slot
            elif len(key) != nvars + 1:
                raise DimensionError(
                    f"exponent tuple {key} does not fit {nvars} variables"
                )
            if any(type(e) is not int or e < 0 for e in key):
                raise DimensionError(f"exponents must be non-negative integers: {key}")
            triples.append((key, *_ratio(coeff)))
        p = _from_ratios(nvars, triples)
        self.nvars, self._den, self._terms = nvars, p._den, p._terms

    @classmethod
    def _make(cls, nvars: int, terms: dict, den: int = 1) -> "Poly":
        # Trusted fast path: nonzero int numerators, full-length keys, den > 0.  A den
        # other than 1 is reduced against the numerators here, so callers may drop or
        # sum terms freely.
        if den != 1 and (g := gcd(den, *terms.values())) != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
        self = object.__new__(cls)
        self.nvars, self._den, self._terms = nvars, den, terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._make(_count(nvars, "nvars", 0), {})

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "Poly":
        num, den = _ratio(value)
        return cls._make(_count(nvars, "nvars", 0), {(0,) * (nvars + 1): num} if num else {}, den)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial x_index, with 1-based index."""
        _slot(_count(nvars, "nvars", 0), index)
        return cls._make(nvars, {_var_key(nvars, index): 1})

    @classmethod
    def t(cls, nvars: int) -> "Poly":
        """The parameter t as a polynomial."""
        key = (0,) * _count(nvars, "nvars", 0) + (1,)
        return cls._make(nvars, {key: 1})

    @classmethod
    def variables(cls, nvars: int) -> list["Poly"]:
        return [cls.variable(nvars, i) for i in range(1, nvars + 1)]

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[tuple, Scalar]:
        """The term map (exponent tuple, t slot last -> coefficient), an int where integral."""
        den = self._den
        return {k: Fraction(c, den) if c % den else c // den for k, c in self._terms.items()}

    def __iter__(self) -> Iterator[tuple[tuple, Scalar]]:
        return iter(self.terms().items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def mentions_t(self) -> bool:
        return any(key[-1] for key in self._terms)

    def is_constant(self) -> bool:
        return all(not any(key) for key in self._terms)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((0,) * (self.nvars + 1), 0), self._den)

    def coefficient(self, xexps: Sequence[int], t_exp: int = 0) -> Fraction:
        """Coefficient of the monomial with the given x-exponents and t-exponent."""
        if len(xexps) != self.nvars:
            raise DimensionError("exponent tuple length must equal nvars")
        return Fraction(self._terms.get(tuple(xexps) + (t_exp,), 0), self._den)

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
        idx = sorted({_slot(self.nvars, i) for i in indices})
        if not self._terms:
            raise UndefinedValuation("the zero polynomial has no valuation")
        return min(sum(key[i] for i in idx) for key in self._terms)

    def homogeneous_component(self, indices: Iterable[int], weight: int) -> "Poly":
        """Sum of the terms whose summed exponent over the given variables is weight."""
        idx = sorted({_slot(self.nvars, i) for i in indices})
        picked = {
            key: c for key, c in self._terms.items() if sum(key[i] for i in idx) == weight
        }
        return Poly._make(self.nvars, picked, self._den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                # an equal constant acts as its coefficient; None has the operator of a
                # constant self rerun from other's side, in other's variables
                if other.is_constant():
                    return Poly.const(self.nvars, other.constant_term())
                if self.is_constant():
                    return None
                raise DimensionError(
                    f"variable counts differ: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return Poly.const(self.nvars, other)
        return None

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return other + self if isinstance(other, Poly) else NotImplemented
        # both over lcm(den): self's numerators times sa, q's times sb
        g = gcd(self._den, q._den)
        sa, sb = q._den // g, self._den // g
        out = dict(self._terms) if sa == 1 else {k: c * sa for k, c in self._terms.items()}
        for key, c in q._terms.items():
            s = out.get(key, 0) + c * sb
            if s:
                out[key] = s
            else:
                del out[key]
        return Poly._make(self.nvars, out, self._den * sa)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, {k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return -other + self if isinstance(other, Poly) else NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return other * self if isinstance(other, Poly) else NotImplemented
        p = self
        if len(p._terms) > len(q._terms) or (len(q._terms) == 1 and q.is_constant()):
            p, q = q, p
        a, b, den = p._terms, q._terms, p._den * q._den
        if not a:
            return Poly.zero(self.nvars)
        if len(a) == 1 and not any(key := next(iter(a))):
            return q._regrade([], (a[key], p._den))  # a constant scales the values: p * 1 is p
        # every other product is packed; each exponent of it is at most the sum of the
        # operands' largest exponents
        fields, offsets, _ = _layout([max(map(max, a)) + max(map(max, b))] * (self.nvars + 1))
        pa, pb = ([(sum(map(lshift, k, offsets)), c) for k, c in t.items()] for t in (a, b))
        acc = _packed_product({}, pa, pb)
        out = {tuple((key >> s) & m for s, m in fields): c for key, c in acc.items() if c}
        return Poly._make(self.nvars, out, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            if not num:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self._regrade([], (den, num) if num > 0 else (-den, -num))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        if type(exponent) is not int or exponent < 0:
            raise ValueError("polynomial powers need a non-negative integer exponent")
        return _power({0: Poly.const(self.nvars, 1), 1: self}, exponent)

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, index: int) -> "Poly":
        """Formal partial derivative with respect to x_index (1-based)."""
        i = _slot(self.nvars, index)
        out: dict[tuple, int] = {}
        for key, c in self._terms.items():
            e = key[i]
            if e:
                nk = list(key)
                nk[i] = e - 1
                out[tuple(nk)] = c * e
        return Poly._make(self.nvars, out, self._den)

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
        if t_image is not None and not (isinstance(t_image, Poly) and t_image.nvars == self.nvars):
            raise DimensionError("t image must share nvars")
        t_base = t_image if t_image is not None else Poly.t(self.nvars)
        return self._substitute([_table(g) for g in [*images, t_base]])

    def _substitute(self, slots: Sequence[tuple]) -> "Poly":
        # slots[i] = _table(image of slot i): (d, powers of the int numerator d*g)
        # with d g's den; slots past the last table (t, for a t-free self) must
        # carry exponent 0.  With m the top exponent per slot, the numerator c of
        # c*x^e adds the int c * prod d^(m-e) * prod (d*g)^e to one accumulator,
        # and the sums are over total = self's den * prod d^m, reduced once by
        # _make.  A zero image's powers are zero, so the terms that use it add
        # nothing.  The slots' power tables are shared by every polynomial they
        # substitute into.
        source = self._terms
        zero_key = (0,) * (self.nvars + 1)
        scaled = [
            (i, d, max((k[i] for k in source), default=0), {0: 1})
            for i, (d, _) in enumerate(slots)
            if d != 1
        ]
        total = self._den * prod(d**m for _, d, m, _ in scaled)
        acc: dict[tuple, int] = {}
        get = acc.get
        for key, c in source.items():
            for i, d, m, dpow in scaled:
                k = m - key[i]
                if k not in dpow:
                    dpow[k] = d**k
                c *= dpow[k]
            product = None
            for e, (_, table) in zip(key, slots):
                if e:
                    power = table[e] if e in table else _power(table, e)
                    product = power if product is None else product * power
            for k, v in ((zero_key, 1),) if product is None else product._terms.items():
                old = get(k)
                acc[k] = c * v if old is None else old + c * v
        return Poly._make(self.nvars, {k: v for k, v in acc.items() if v}, total)

    def _regrade(self, moved: Sequence[tuple], outer=(1, 1), drop_t=False) -> "Poly":
        """a/b * self for outer = (a, b) in lowest terms, b > 0, with c*x^e scaled by
        prod a_j^e_j for moved = [(j, p, q)], a_j = p/q != 1 (q > 0) the factor of slot j
        (x1..xn, t); with drop_t, t's exponent goes to 0 and colliding keys are summed.  If
        every factor is +-1, signs flip by parity; else the numerator c of c*x^e becomes
        c*a * prod p^e_j q^(m_j - e_j), over den*b * prod q^m_j."""
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
            if len(acc) < len(terms):  # collided: drop zero sums
                acc = {k: v for k, v in acc.items() if v}
            return Poly._make(self.nvars, acc, self._den)
        scaled = []
        for j, p, q in moved:
            exps = {k[j] for k in terms}
            m = max(exps)
            scaled.append((j, {e: p**e * q ** (m - e) for e in exps}))
            b *= q**m
        for key, c in terms.items():
            c *= a
            for j, powers in scaled:
                c *= powers[key[j]]
            if drop_t:
                key = key[:-1] + (0,)
            old = get(key)
            acc[key] = c if old is None else old + c
        return Poly._make(self.nvars, {k: v for k, v in acc.items() if v}, self._den * b)

    def with_t_set(self, value: Scalar) -> "Poly":
        """Specialize t to an exact rational t0: scale t's slot by t0 and drop its exponent."""
        p, q = _ratio(value)
        return self._regrade([] if p == q else [(self.nvars, p, q)], drop_t=True)

    def divide_t(self, power: int) -> "Poly":
        """Exact division by t**power; every term must carry at least that power."""
        if type(power) is not int:
            raise ValueError(f"cannot divide by t^{power!r}: the power must be an int")
        if power < 0:
            raise ValueError(f"cannot divide by t^{power}: the power must be non-negative")
        if power == 0 or not self._terms:
            return self
        out: dict[tuple, int] = {}
        for key, c in self._terms.items():
            if key[-1] < power:
                raise ValueError(f"term with t-exponent {key[-1]} is not divisible by t^{power}")
            out[key[:-1] + (key[-1] - power,)] = c
        return Poly._make(self.nvars, out, self._den)

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
        return total / self._den

    # -- equality, hashing, rendering ---------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly) and self.nvars == other.nvars:
            return self._den == other._den and self._terms == other._terms
        if isinstance(other, Poly):  # only constants compare equal across variable counts
            return self.is_constant() and other.is_constant() and self == other.constant_term()
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant():  # equal to its coefficient (see __eq__), so hashed alike
            return hash(self.constant_term())
        return hash((self.nvars, self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        try:
            terms = sorted(self.terms().items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
            for key, coeff in terms:  # descending graded-lexicographic order, x1 > ... > xn > t
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
