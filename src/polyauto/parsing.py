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

The number of variables is fixed from the token list before parsing: an
endomorphism has as many as it has components (1 plus the commas before
the first ']'); a lone polynomial has ``nvars`` if given, else the highest
index named (at least 1).  Any explicit index beyond that count is a
ParseError at the token that names it, even if its terms cancel later.
The parser then builds each monomial as an exponent key and a coefficient,
an int numerator over an int denominator: ``^k`` scales a key, a product
adds keys, and an expression sums its terms over one denominator, as a Poly
stores them.  Only a parenthesized factor is a :class:`Poly`, combined by
Poly's own arithmetic.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .endo import Endo
from .errors import ParseError
from .poly import Poly, _count, _from_ratios, _var_key

_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^(),\[\]])|(?P<bad>\S)"
)

_ALIASES = {"x": 1, "y": 2, "z": 3}
_INDEXED = re.compile(r"x(\d+)")


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, str, int]] = []
        for match in _TOKEN.finditer(text):  # whitespace matches no group and is skipped
            kind, value, at = match.lastgroup, match.group(), match.start()
            if kind == "bad":
                raise ParseError(f"unexpected character {value!r}", at)
            self.items.append((kind, value, at))
        self.items.append(("end", "", len(text)))  # consumed only by a rule that then fails
        self.index = 0

    def peek(self):
        return self.items[self.index]

    def next(self):
        item = self.peek()
        self.index += 1
        return item

    def expect_op(self, op: str):
        kind, value, at = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value or 'end of input'!r}", at)

    def expect_end(self):
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", at)

    def component_count(self) -> int:
        """1 plus the commas before the first ']'."""
        count = 1
        for kind, value, _ in self.items:
            if kind == "op":
                if value == "]":
                    break
                count += value == ","
        return count

    def highest_index(self) -> int:
        """The largest variable index named in the text, at least 1."""
        return max(
            [1] + [_index(value, at) or 1 for kind, value, at in self.items if kind == "name"]
        )


def _index(name: str, at: int) -> int | None:
    """The index of x<k> or of an alias; None for t and unknown names."""
    match = _INDEXED.fullmatch(name)
    return _int(match.group(1), at) if match else _ALIASES.get(name)


def _int(digits: str, at: int) -> int:
    """The value of a digit string, or a ParseError at ``at`` when it has
    more digits than Python converts (``sys.get_int_max_str_digits()``)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"a number of {len(digits)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits",
            at,
        ) from None


class _PolyParser:
    """Recursive descent that builds :class:`Poly` values in ``nvars`` variables.

    ``noun`` says what ``nvars`` counts ("variable" or "component") in error
    messages; ``t_error`` is the error for the name t, or None where t is
    allowed.
    """

    def __init__(self, tokens: _Tokens, nvars: int, noun: str, t_error: str | None):
        self.tokens = tokens
        self.nvars = nvars
        self.noun = noun
        self.t_error = t_error
        self.constant = (0,) * (_count(nvars, "nvars", 0) + 1)  # the key of a constant

    def parse_expr(self) -> Poly:
        """The sum of the terms as (key, numerator, denominator) triples, summed over one
        denominator by poly._from_ratios, which drops zeros and reduces once, at the end."""
        tokens, triples = self.tokens, []
        kind, value, _ = tokens.peek()
        negate = kind == "op" and value == "-"
        if negate:
            tokens.next()
        while True:
            term = self.parse_term()
            if type(term) is Poly:
                items = [(key, c, term._den) for key, c in term._terms.items()]
            else:
                items = (term,)
            triples += [(key, -c if negate else c, d) for key, c, d in items]
            kind, value, _ = tokens.peek()
            if kind != "op" or value not in "+-":
                return _from_ratios(self.nvars, triples)
            tokens.next()
            negate = value == "-"

    def parse_term(self):
        """A monomial (key, numerator, denominator), its factors' keys added; a Poly once a
        factor is."""
        term = self.parse_factor()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value == "*":
                self.tokens.next()
            elif kind not in ("int", "name") and (kind != "op" or value != "("):
                return term
            factor = self.parse_factor()
            if type(term) is tuple and type(factor) is tuple:
                key = tuple(map(int.__add__, term[0], factor[0]))
                term = (key, term[1] * factor[1], term[2] * factor[2])
            else:
                term = self._poly(term) * self._poly(factor)

    def parse_factor(self):
        """A primary raised by each ^k: a monomial's key scaled by k, a Poly by Poly powers."""
        factor = self.parse_primary()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind != "op" or value != "^":
                return factor
            self.tokens.next()
            kind, value, at = self.tokens.next()
            if kind != "int":
                raise ParseError("exponent must be a natural number", at)
            e = _int(value, at)
            if type(factor) is Poly:
                factor = factor**e
            else:
                key, c, d = factor
                factor = (tuple([k * e for k in key]), c**e, d**e)

    def parse_primary(self):
        """A coefficient or a variable as a monomial (key, numerator, denominator); '(' expr ')'
        as a Poly."""
        kind, value, at = self.tokens.next()
        if kind == "int":
            numerator = _int(value, at)
            nk, nv, _ = self.tokens.peek()
            if nk == "op" and nv == "/":
                self.tokens.next()
                dk, dv, dat = self.tokens.next()
                if dk != "int" or _int(dv, dat) == 0:
                    raise ParseError("denominator must be a positive integer", dat)
                return self.constant, numerator, _int(dv, dat)
            return self.constant, numerator, 1
        if kind == "name":
            return self._variable(value, at), 1, 1
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.tokens.expect_op(")")
            return inner
        raise ParseError(f"expected a coefficient, variable, or '(', found {value or 'end of input'!r}", at)

    def _poly(self, term) -> Poly:
        return term if type(term) is Poly else _from_ratios(self.nvars, [term])

    def _variable(self, name: str, at: int) -> tuple:
        """The exponent key of x<k>, an alias or t, once the name is checked."""
        if name == "t":
            if self.t_error:
                raise ParseError(self.t_error, at)
            return self.constant[:-1] + (1,)
        index = _index(name, at)
        if index is None:
            raise ParseError(f"unknown variable {name!r}", at)
        if name in _ALIASES and self.nvars > 3:
            raise ParseError(f"aliases x, y, z are only allowed with at most 3 {self.noun}s", at)
        if index == 0:
            raise ParseError("variable indices start at 1", at)
        if index > self.nvars:
            raise ParseError(
                f"variable index {index} exceeds the {self.noun} count {self.nvars}", at
            )
        return _var_key(self.nvars, index)


def parse_poly(text: str, nvars: int | None = None, allow_t: bool = True) -> Poly:
    """Parse one polynomial; nvars defaults to the highest index named (min 1)."""
    tokens = _Tokens(text)
    if nvars is None:
        nvars = tokens.highest_index()
    t_error = None if allow_t else "the parameter t is not allowed here"
    poly = _PolyParser(tokens, nvars, "variable", t_error).parse_expr()
    tokens.expect_end()
    return poly


def parse_endo(text: str) -> Endo:
    """Parse '[' poly (',' poly)* ']'; n is the component count.

    Components must be t-free; any variable index above the component
    count, or an alias used with more than three components, is an error.
    """
    tokens = _Tokens(text)
    tokens.expect_op("[")
    parser = _PolyParser(
        tokens, tokens.component_count(), "component", "endomorphism components must not involve t"
    )
    components = [parser.parse_expr()]
    while True:
        kind, value, at = tokens.next()
        if kind == "op" and value == ",":
            components.append(parser.parse_expr())
        elif kind == "op" and value == "]":
            break
        else:
            raise ParseError(f"expected ',' or ']', found {value or 'end of input'!r}", at)
    tokens.expect_end()
    return Endo(components)


def parse_rational(text: str, offset: int = 0) -> Fraction:
    """Parse an integer or integer/positive-integer ratio, with optional sign.

    ``offset`` is where ``text`` starts in a longer input; error positions
    count from there.
    """
    match = re.fullmatch(r"\s*(-?\d+)(?:/(\d+))?\s*", text)
    if not match:
        raise ParseError(f"not a rational number: {text!r}", offset)
    numerator = _int(match.group(1), offset + match.start(1))
    denominator = _int(match.group(2), offset + match.start(2)) if match.group(2) else 1
    if denominator == 0:
        raise ParseError("denominator must be positive", offset + match.start(2))
    return Fraction(numerator, denominator)


def parse_rational_list(text: str) -> list[Fraction]:
    """Comma-separated rationals, e.g. '1,-1,1/2'; an empty or blank field fails at its start."""
    fields = re.finditer(r"(?:^|,)([^,]*)", text)
    return [parse_rational(field.group(1), field.start(1)) for field in fields]
