"""Tests for the polynomial/endomorphism text formats."""

import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from polyauto import Poly
from polyauto.endo import Endo
from polyauto.errors import DimensionError, ParseError
import polyauto.parsing
from polyauto.groups import nagata, random_tame_word
from polyauto.parsing import (
    _PolyParser,
    parse_endo,
    parse_poly,
    parse_rational,
    parse_rational_list,
)


def x(nvars, i):
    return Poly.variable(nvars, i)


# one digit more than Python converts from a string by default
LONG = "9" * 5000


# -- a stdlib oracle: random expression trees rendered to text and evaluated
# with Fractions, independently of Poly

_NAMES = {"x1": 0, "x2": 1, "x3": 2, "x": 0, "y": 1, "z": 2}


def random_expr(rng, depth):
    """(text, value) of a random expr; value maps (point, t) to a Fraction."""
    terms = []
    for k in range(rng.randint(1, 3)):
        sign = rng.choice("+-") if k or rng.random() < 0.3 else "+"
        terms.append((sign, random_term(rng, depth)))
    text = " ".join(
        (("-" if sign == "-" else "") if k == 0 else f"{sign} ") + body
        for k, (sign, (body, _)) in enumerate(terms)
    )

    def value(point, t):
        total = Fraction(0)
        for sign, (_, term) in terms:
            total += -term(point, t) if sign == "-" else term(point, t)
        return total

    return text, value


def random_term(rng, depth):
    factors = [random_factor(rng, depth) for _ in range(rng.randint(1, 3))]
    # implicit products need a separator so that 2 3 and x1 2 stay two tokens
    text = factors[0][0]
    for body, _ in factors[1:]:
        text += rng.choice(["*", " * ", " ", "" if body.startswith("(") else " "]) + body

    def value(point, t):
        product = Fraction(1)
        for _, factor in factors:
            product *= factor(point, t)
        return product

    return text, value


def random_factor(rng, depth):
    text, primary = random_primary(rng, depth)
    exponents = [rng.randint(0, 3) for _ in range(rng.choice((0, 0, 1, 2)))]
    text += "".join(f"^{e}" for e in exponents)

    def value(point, t):
        v = primary(point, t)
        for e in exponents:  # a ^ chain associates to the left
            v **= e
        return v

    return text, value


def random_primary(rng, depth):
    kind = rng.random()
    if depth and kind < 0.3:
        text, inner = random_expr(rng, depth - 1)
        return f"({text})", inner
    if kind < 0.55:
        numerator, denominator = rng.randint(0, 12), rng.choice((1, 1, 2, 3, 7))
        c = Fraction(numerator, denominator)
        text = str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
        return text, lambda point, t: c
    name = rng.choice(list(_NAMES) + ["t"])
    if name == "t":
        return name, lambda point, t: t
    return name, lambda point, t: point[_NAMES[name]]


class TestParsePoly:
    def test_simple(self):
        assert parse_poly("x1 + x2^2", nvars=2) == x(2, 1) + x(2, 2) ** 2

    def test_implicit_multiplication(self):
        assert parse_poly("2x1(x1+1)", nvars=1) == 2 * x(1, 1) ** 2 + 2 * x(1, 1)

    def test_fraction_coefficient(self):
        assert parse_poly("1/2*x1 - 3", nvars=1) == x(1, 1) / 2 - 3

    def test_leading_minus(self):
        assert parse_poly("-x1^2 + 1", nvars=1) == -(x(1, 1) ** 2) + 1

    def test_power_chains_left(self):
        assert parse_poly("x1^2^3", nvars=1) == x(1, 1) ** 6

    def test_integer_powers(self):
        assert parse_poly("2^3", nvars=1) == Poly.const(1, 8)

    def test_t_parameter(self):
        assert parse_poly("t^2*x1", nvars=1) == Poly.t(1) ** 2 * x(1, 1)

    def test_t_rejectable(self):
        with pytest.raises(ParseError):
            parse_poly("t*x1", nvars=1, allow_t=False)
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + t - t", nvars=1, allow_t=False)
        assert info.value.position == 5

    def test_aliases(self):
        assert parse_poly("x*y*z", nvars=3) == x(3, 1) * x(3, 2) * x(3, 3)

    def test_alias_limit(self):
        with pytest.raises(ParseError):
            parse_poly("y + x4", nvars=4)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0", nvars=1)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + @", nvars=1)
        assert info.value.position == 5

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_poly("(x1 + 1", nvars=1)

    def test_variable_slash_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x1/2", nvars=1)

    def test_random_expressions_match_fraction_oracle(self):
        rng = random.Random(1962)
        values = [Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(2, 3), Fraction(5)]
        for _ in range(300):
            text, value = random_expr(rng, 2)
            poly = parse_poly(text, nvars=3)
            for _ in range(3):
                point = [rng.choice(values) for _ in range(3)]
                t = rng.choice(values)
                assert poly.evaluate(point, t) == value(point, t), text

    def test_nvars_defaults_to_the_highest_index(self):
        assert parse_poly("x3 - 1").nvars == 3
        assert parse_poly("y").nvars == 2
        assert parse_poly("7").nvars == 1

    @pytest.mark.parametrize("nvars", [2.0, True])
    def test_nvars_is_an_int(self, nvars):
        with pytest.raises(DimensionError) as info:
            parse_poly("x1 + 1", nvars)
        assert str(info.value) == f"nvars must be an int, got {nvars!r}"

    def test_index_beyond_nvars_fails_at_its_token(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + x5 - x5", nvars=2)
        assert info.value.position == 5


class TestParseEndo:
    def test_simple(self):
        assert parse_endo("[x1 + x2^2, x2]") == Endo([x(2, 1) + x(2, 2) ** 2, x(2, 2)])

    def test_nagata_aliases(self):
        text = "[x - 2*y*(y^2+x*z) - z*(y^2+x*z)^2, y + z*(y^2+x*z), z]"
        forward, _ = nagata()
        assert parse_endo(text) == forward

    def test_non_automorphism_is_still_parsable(self):
        assert parse_endo("[x1, x1]") == Endo([x(2, 1), x(2, 1)])

    def test_index_exceeding_component_count(self):
        with pytest.raises(ParseError):
            parse_endo("[x1 + x3, x2]")
        # even when its terms cancel, at the token that names it
        with pytest.raises(ParseError) as info:
            parse_endo("[x1 + x3 - x3, x2]")
        assert info.value.position == 6

    def test_huge_index_fails_at_once(self):
        # the count comes from the brackets, so no width is taken from x99999999
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_endo("[x99999999]")
        assert time.perf_counter() - start < 1
        assert info.value.position == 1
        assert "99999999" in str(info.value)

    def test_digit_strings_past_the_int_limit_fail_at_their_token(self):
        cases = [
            (f"[x1^{LONG}, x2]", 4),
            (f"[{LONG}*x1, x2]", 1),
            (f"[1/{LONG}*x1, x2]", 3),
            (f"[x{LONG}, x2]", 1),
        ]
        for text, position in cases:
            with pytest.raises(ParseError) as info:
                parse_endo(text)
            assert info.value.position == position
            assert f"limit of {sys.get_int_max_str_digits()} digits" in str(info.value)
        # a lone polynomial reads every index before parsing
        with pytest.raises(ParseError) as info:
            parse_poly(f"x1 + x{LONG}")
        assert info.value.position == 5

    def test_power_of_a_sum(self):
        start = time.perf_counter()
        sigma = parse_endo("[(x1+x2)^1000, x2]")
        assert time.perf_counter() - start < 5
        expected = {(k, 1000 - k, 0): comb(1000, k) for k in range(1001)}
        assert sigma.components[0].terms() == expected
        assert sigma.components[1] == x(2, 2)

    def test_alias_with_too_many_components(self):
        with pytest.raises(ParseError):
            parse_endo("[y, x2, x3, x4]")

    def test_t_rejected(self):
        with pytest.raises(ParseError):
            parse_endo("[x1 + t, x2]")
        with pytest.raises(ParseError) as info:
            parse_endo("[x1 + t - t, x2]")
        assert info.value.position == 6

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_endo("[x1, x2] extra")

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("[x1^x2, x2]", 4, "exponent must be a natural number"),
            ("[a, x2]", 1, "unknown variable 'a'"),
            ("[x0, x2]", 1, "variable indices start at 1"),
            ("[x1, x2", 7, "expected ',' or ']', found 'end of input'"),
        ],
    )
    def test_malformed_token_is_named_at_its_position(self, text, position, message):
        with pytest.raises(ParseError) as info:
            parse_endo(text)
        assert info.value.position == position
        assert str(info.value) == f"{message} (at position {position})"

    def test_trailing_whitespace_accepted(self):
        # piped input usually ends with a newline
        assert parse_endo("[x1, x2]\n") == Endo.identity(2)
        assert parse_endo("  [x1, x2]  \n\t") == Endo.identity(2)

    def test_round_trip_on_corpus(self):
        corpus = [
            Endo.identity(2),
            Endo([x(2, 1) + x(2, 2) ** 2, x(2, 2)]),
            nagata()[0],
            nagata()[1],
            Endo([2 * x(2, 1) + x(2, 2) ** 3 / 4 - 1, x(2, 2) / 3 + 5]),
        ]
        for seed in range(10):
            n = 2 + seed % 3
            corpus.append(random_tame_word(n, seed, 1 + seed % 4, 3).to_endo())
        for sigma in corpus:
            assert parse_endo(str(sigma)) == sigma

    def test_round_trip_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def endos(draw):
            n = draw(st.integers(1, 4))
            keys = st.tuples(*[st.integers(0, 6)] * n)
            coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
            return Endo(
                [Poly(n, draw(st.dictionaries(keys, coeffs, max_size=6))) for _ in range(n)]
            )

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(endos())
        def round_trip(sigma):
            assert parse_endo(str(sigma)) == sigma

        round_trip()


class _ArithmeticParser(_PolyParser):
    """The reference for the key-building parser, on valid texts: every primary is a Poly,
    and sums, products and powers are Poly arithmetic.  Names are checked as in the parser."""

    def parse_expr(self):
        result, sign = Poly.zero(self.nvars), "+"
        if self.tokens.peek()[1] == "-":
            sign = self.tokens.next()[1]
        while True:
            term = self.parse_term()
            result = result - term if sign == "-" else result + term
            kind, sign, _ = self.tokens.peek()
            if kind != "op" or sign not in "+-":
                return result
            self.tokens.next()

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, value, _ = self.tokens.peek()
            if value == "*":
                self.tokens.next()
            elif kind not in ("int", "name") and value != "(":
                return result
            result = result * self.parse_factor()

    def parse_factor(self):
        result = self.parse_primary()
        while self.tokens.peek()[1] == "^":
            self.tokens.next()
            result = result ** int(self.tokens.next()[1])
        return result

    def parse_primary(self):
        kind, value, at = self.tokens.next()
        if kind == "name":
            return Poly(self.nvars, {self._variable(value, at): 1})
        if value == "(":
            inner = self.parse_expr()
            self.tokens.next()
            return inner
        if self.tokens.peek()[1] == "/":
            self.tokens.next()
            return Poly.const(self.nvars, Fraction(int(value), int(self.tokens.next()[1])))
        return Poly.const(self.nvars, int(value))


def exact(p):
    """A Poly's variable count and terms, each coefficient with its type: an integral
    coefficient must be an int, as Poly keeps it."""
    return p.nvars, {k: (type(c), c) for k, c in p.terms().items()}


class TestKeyBuildingParser:
    """Monomials are built as (key, coefficient) and summed into one dict; the result must
    be exactly the Poly that Poly arithmetic builds, and every error must keep its text."""

    HAND = [
        "[(x1+x2)^3*x3, x2, x3]",
        "[x1 - x1, x2]",
        "[x1 - x1 + x2 - 3/4*x2^2, x2]",
        "[3/4*x2^2, x1]",
        "[4/2*x1 + 2/4*x2 - 1/2*x2, x2]",
        "[x1*x1*2*x2 3/4 x2^0, x2]",
        "[x1^2^3 + 0*x2 + 0^0, x2]",
        "[-x1^2*(x2 + 1) + ((x1) + 2*(x2 - 1/3))^2*(x1), x2]",
        "[x1^9999999999999999999, x2]",
        "[x - 2*y*(y^2+x*z) - z*(y^2+x*z)^2, y + z*(y^2+x*z), z]",
    ]
    POLYS = ["t*x1 + t^2 - 2*t", "3/4*t^2*x2^2 - (t + x1)^2 + t*t", "-(t) + 1/3*t", "0"]

    def both(self, monkeypatch, parse, *args):
        new = parse(*args)
        with monkeypatch.context() as patched:
            patched.setattr(polyauto.parsing, "_PolyParser", _ArithmeticParser)
            old = parse(*args)
        return new, old

    def test_tame_word_texts(self, monkeypatch):
        for seed in range(24):
            text = str(random_tame_word(2 + seed % 3, 500 + seed, 1 + seed % 5, 3).to_endo())
            new, old = self.both(monkeypatch, parse_endo, text)
            assert [exact(f) for f in new.components] == [exact(f) for f in old.components]

    @pytest.mark.parametrize("text", HAND)
    def test_hand_endo_texts(self, monkeypatch, text):
        new, old = self.both(monkeypatch, parse_endo, text)
        assert [exact(f) for f in new.components] == [exact(f) for f in old.components]

    @pytest.mark.parametrize("text", POLYS)
    def test_hand_poly_texts_with_t(self, monkeypatch, text):
        new, old = self.both(monkeypatch, parse_poly, text, 2)
        assert exact(new) == exact(old)

    def test_cancelled_and_huge_terms(self):
        assert parse_endo("[x1 - x1, x2]").components[0].is_zero
        big = parse_endo("[x1^9999999999999999999, x2]").components[0]
        assert big.terms() == {(9999999999999999999, 0, 0): 1}
        assert exact(parse_poly("3/4*x2^2")) == (2, {(0, 2, 0): (Fraction, Fraction(3, 4))})
        # integral sums and products are ints, as Poly's own + and * leave them
        assert exact(parse_poly("1/2*x1 + 1/2*x1 + 2*3/4*x2*2/3")) == (
            2, {(1, 0, 0): (int, 1), (0, 1, 0): (int, 1)}
        )

    # every message and position as the parser printed them before it built keys
    ERRORS = [
        ("x1 + @", 1, "unexpected character '@' (at position 5)"),
        ("(x1 + 1", 1, "expected ')', found 'end of input' (at position 7)"),
        ("x1/2", 1, "unexpected trailing input '/' (at position 2)"),
        ("1/0", 1, "denominator must be a positive integer (at position 2)"),
        ("x1 + x5 - x5", 2, "variable index 5 exceeds the variable count 2 (at position 5)"),
        ("x1 +", None, "expected a coefficient, variable, or '(', found 'end of input' (at position 4)"),
        ("3 x1 ^ -2", None, "exponent must be a natural number (at position 7)"),
        ("[x1 + x3 - x3, x2]", 0, "variable index 3 exceeds the component count 2 (at position 6)"),
        ("[x99999999]", 0, "variable index 99999999 exceeds the component count 1 (at position 1)"),
        ("[x1^x2, x2]", 0, "exponent must be a natural number (at position 4)"),
        ("[a, x2]", 0, "unknown variable 'a' (at position 1)"),
        ("[x0, x2]", 0, "variable indices start at 1 (at position 1)"),
        ("[x1, x2", 0, "expected ',' or ']', found 'end of input' (at position 7)"),
        ("[y, x2, x3, x4]", 0,
            "aliases x, y, z are only allowed with at most 3 components (at position 1)"),
        ("[x1 + t - t, x2]", 0, "endomorphism components must not involve t (at position 6)"),
        ("[x1, x2] extra", 0, "unexpected trailing input 'extra' (at position 9)"),
        ("[x1 + , x2]", 0, "expected a coefficient, variable, or '(', found ',' (at position 6)"),
        ("[x1 + * x2]", 0, "expected a coefficient, variable, or '(', found '*' (at position 6)"),
        ("[x1 + \u00e9, x2]", 0, "unexpected character '\u00e9' (at position 6)"),
        ("[x1 + x2\u00b2, x2]", 0, "unknown variable 'x2\u00b2' (at position 6)"),
        ("[]", 0, "expected a coefficient, variable, or '(', found ']' (at position 1)"),
        ("[(x1 + x2], x2]", 0, "variable index 2 exceeds the component count 1 (at position 7)"),
        ("x1, x2]", 0, "expected '[', found 'x1' (at position 0)"),
        ("[x1 + 2/x2, x2]", 0, "denominator must be a positive integer (at position 8)"),
        ("[x1 (x2 - 1) ^, x2]", 0, "exponent must be a natural number (at position 14)"),
    ]

    @pytest.mark.parametrize("text, nvars, message", ERRORS, ids=[e[0] for e in ERRORS])
    def test_error_messages_and_positions(self, text, nvars, message):
        with pytest.raises(ParseError) as info:
            parse_endo(text) if nvars == 0 else parse_poly(text, nvars)
        assert str(info.value) == message

    def test_t_error_message(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + t", allow_t=False)
        assert str(info.value) == "the parameter t is not allowed here (at position 5)"


class TestParseRational:
    def test_integers(self):
        assert parse_rational("42") == 42
        assert parse_rational("-7") == -7

    def test_fractions(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("-3/4") == Fraction(-3, 4)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("1.5")
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_list(self):
        assert parse_rational_list("1,-1,1/2") == [1, -1, Fraction(1, 2)]
        with pytest.raises(ParseError):
            parse_rational_list(",")

    @pytest.mark.parametrize(
        "text, position",
        [(",", 0), ("", 0), ("1,,2,3", 2), ("2,,1/2,", 2), ("1,2,", 4), (" ,1", 0), ("1, ", 2)],
    )
    def test_list_rejects_empty_fields_at_their_start(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_rational_list(text)
        assert info.value.position == position

    def test_digit_strings_past_the_int_limit(self):
        for text, position in ((f"1/{LONG}", 2), (f" {LONG}", 1)):
            with pytest.raises(ParseError) as info:
                parse_rational(text)
            assert info.value.position == position
        # positions count across the whole list
        with pytest.raises(ParseError) as info:
            parse_rational_list(f"1, -{LONG}")
        assert info.value.position == 3
        with pytest.raises(ParseError) as info:
            parse_rational_list("1,2/0")
        assert info.value.position == 4
