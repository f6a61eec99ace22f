"""Text formats: polynomial grammar, endomorphism brackets, rational lists.

Grammar (whitespace insignificant)::

    endo  := '[' expr (',' expr)* ']'
    expr  := ['-'] term (('+'|'-') term)*
    term  := factor ('*'? factor)*
    factor:= primary ('^' natural)*
    primary := coefficient | var | '(' expr ')'
    var   := 'x' natural | 't' | 'x' | 'y' | 'z'
    coefficient := natural | natural '/' positive-natural

The bare names x, y, z are aliases for x1, x2, x3 and are only accepted
when the endomorphism has at most three components.  A leading minus sign
is accepted so that every canonically printed polynomial parses back.
The number of variables of an endomorphism is its component count; any
explicit index beyond that is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .endo import Endo
from .errors import DimensionError, ParseError
from .poly import Poly

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^(),\[\]]))"
)

_ALIASES = {"x": 1, "y": 2, "z": 3}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None:
                rest = text[pos:]
                if not rest.strip():
                    break
                at = pos + len(rest) - len(rest.lstrip())
                raise ParseError(f"unexpected character {rest.lstrip()[0]!r}", at)
            if match.lastgroup is not None:
                self.items.append(
                    (match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup))
                )
            pos = match.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.items):
            return self.items[self.index]
        return ("end", "", len(self.text))

    def next(self):
        item = self.peek()
        self.index += 1
        return item

    def expect_op(self, op: str):
        kind, value, at = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value or 'end of input'!r}", at)


class _RawPoly:
    """Terms keyed by sparse (variable index or 't') -> exponent mappings."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def constant(cls, value: Fraction) -> "_RawPoly":
        return cls({(): value} if value else {})

    @classmethod
    def variable(cls, key) -> "_RawPoly":
        return cls({((key, 1),): Fraction(1)})

    def add(self, other: "_RawPoly") -> "_RawPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _RawPoly(out)

    def negate(self) -> "_RawPoly":
        return _RawPoly({key: -c for key, c in self.terms.items()})

    def multiply(self, other: "_RawPoly") -> "_RawPoly":
        out = {}
        for k1, c1 in self.terms.items():
            e1 = dict(k1)
            for k2, c2 in other.terms.items():
                merged = dict(e1)
                for var, e in k2:
                    merged[var] = merged.get(var, 0) + e
                # canonical key order: x-variables by index, then t
                key = tuple(
                    sorted(
                        merged.items(),
                        key=lambda item: (1, 0) if item[0] == "t" else (0, item[0]),
                    )
                )
                c = c1 * c2
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _RawPoly(out)

    def power(self, exponent: int) -> "_RawPoly":
        # repeated squaring: log2(exponent) products, so x1^(10^19) parses at once
        result = _RawPoly.constant(Fraction(1))
        base = self
        while exponent:
            if exponent & 1:
                result = result.multiply(base)
            exponent >>= 1
            if exponent:
                base = base.multiply(base)
        return result

    def max_index(self) -> int:
        best = 0
        for key in self.terms:
            for var, _ in key:
                if var != "t":
                    best = max(best, var)
        return best

    def mentions_t(self) -> bool:
        return any(var == "t" for key in self.terms for var, _ in key)

    def to_poly(self, nvars: int) -> Poly:
        out = {}
        for key, c in self.terms.items():
            exps = [0] * (nvars + 1)
            for var, e in key:
                slot = nvars if var == "t" else var - 1
                exps[slot] += e
            out[tuple(exps)] = out.get(tuple(exps), 0) + c
        return Poly(nvars, out)


class _PolyParser:
    def __init__(self, tokens: _Tokens):
        self.tokens = tokens
        self.alias_positions: list[int] = []

    def parse_expr(self) -> _RawPoly:
        kind, value, _ = self.tokens.peek()
        negate_first = kind == "op" and value == "-"
        if negate_first:
            self.tokens.next()
        result = self.parse_term()
        if negate_first:
            result = result.negate()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "+-":
                self.tokens.next()
                term = self.parse_term()
                result = result.add(term.negate() if value == "-" else term)
            else:
                return result

    def parse_term(self) -> _RawPoly:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value == "*":
                self.tokens.next()
                result = result.multiply(self.parse_factor())
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                result = result.multiply(self.parse_factor())
            else:
                return result

    def parse_factor(self) -> _RawPoly:
        result = self.parse_primary()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value == "^":
                self.tokens.next()
                kind, value, at = self.tokens.next()
                if kind != "int":
                    raise ParseError("exponent must be a natural number", at)
                result = result.power(int(value))
            else:
                return result

    def parse_primary(self) -> _RawPoly:
        kind, value, at = self.tokens.next()
        if kind == "int":
            numerator = int(value)
            nk, nv, _ = self.tokens.peek()
            if nk == "op" and nv == "/":
                self.tokens.next()
                dk, dv, dat = self.tokens.next()
                if dk != "int" or int(dv) == 0:
                    raise ParseError("denominator must be a positive integer", dat)
                return _RawPoly.constant(Fraction(numerator, int(dv)))
            return _RawPoly.constant(Fraction(numerator))
        if kind == "name":
            return _RawPoly.variable(self._variable_key(value, at))
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.tokens.expect_op(")")
            return inner
        raise ParseError(f"expected a coefficient, variable, or '(', found {value or 'end of input'!r}", at)

    def _variable_key(self, name: str, at: int):
        if name == "t":
            return "t"
        body = re.fullmatch(r"x(\d+)", name)
        if body:
            index = int(body.group(1))
            if index == 0:
                raise ParseError("variable indices start at 1", at)
            return index
        if name in _ALIASES:
            self.alias_positions.append(at)
            return _ALIASES[name]
        raise ParseError(f"unknown variable {name!r}", at)


def parse_poly(text: str, nvars: int | None = None, allow_t: bool = True) -> Poly:
    """Parse one polynomial; nvars defaults to the highest index used (min 1)."""
    tokens = _Tokens(text)
    parser = _PolyParser(tokens)
    raw = parser.parse_expr()
    kind, value, at = tokens.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", at)
    if not allow_t and raw.mentions_t():
        raise ParseError("the parameter t is not allowed here", 0)
    needed = max(raw.max_index(), 1)
    if nvars is None:
        nvars = needed
    if needed > nvars:
        raise ParseError(f"variable index {needed} exceeds {nvars} variables", 0)
    if parser.alias_positions and nvars > 3:
        raise ParseError(
            "aliases x, y, z are only allowed with at most 3 variables",
            parser.alias_positions[0],
        )
    return raw.to_poly(nvars)


def parse_endo(text: str) -> Endo:
    """Parse '[' poly (',' poly)* ']'; n is the component count.

    Components must be t-free; any variable index above the component
    count, or an alias used with more than three components, is an error.
    """
    tokens = _Tokens(text)
    tokens.expect_op("[")
    parser = _PolyParser(tokens)
    raws = [parser.parse_expr()]
    while True:
        kind, value, at = tokens.next()
        if kind == "op" and value == ",":
            raws.append(parser.parse_expr())
        elif kind == "op" and value == "]":
            break
        else:
            raise ParseError(f"expected ',' or ']', found {value or 'end of input'!r}", at)
    kind, value, at = tokens.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", at)
    n = len(raws)
    for raw in raws:
        if raw.mentions_t():
            raise ParseError("endomorphism components must not involve t", 0)
        if raw.max_index() > n:
            raise ParseError(
                f"variable index {raw.max_index()} exceeds the component count {n}", 0
            )
    if parser.alias_positions and n > 3:
        raise ParseError(
            "aliases x, y, z are only allowed with at most 3 components",
            parser.alias_positions[0],
        )
    return Endo([raw.to_poly(n) for raw in raws])


def parse_rational(text: str) -> Fraction:
    """Parse an integer or integer/positive-integer ratio, with optional sign."""
    body = text.strip()
    match = re.fullmatch(r"(-?\d+)(?:/(\d+))?", body)
    if not match:
        raise ParseError(f"not a rational number: {text!r}", 0)
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    if denominator == 0:
        raise ParseError("denominator must be positive", 0)
    return Fraction(numerator, denominator)


def parse_rational_list(text: str) -> list[Fraction]:
    """Comma-separated rationals, e.g. '1,-1,1/2'."""
    parts = [chunk for chunk in text.split(",") if chunk.strip()]
    if not parts:
        raise ParseError("expected at least one rational number", 0)
    return [parse_rational(chunk) for chunk in parts]
