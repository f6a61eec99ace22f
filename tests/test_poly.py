"""Tests for the sparse polynomial core.

Derived expected values were computed by hand expansion first and are
frozen here; each one is additionally cross-checked against an independent
oracle (evaluation at random rational points, exponent scans, or an exact
finite-difference quotient built from the t parameter).
"""

import random
import sys
from fractions import Fraction
from operator import add

import pytest

from polyauto import NEG_INF, Poly
from polyauto.errors import AlgebraError, DimensionError, UndefinedValuation
from polyauto.parsing import parse_poly


def x(nvars, i):
    return Poly.variable(nvars, i)


def random_poly(rng, nvars, max_degree, max_terms, with_t=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = [0] * (nvars + 1)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            key[rng.randrange(nvars)] += 1
        if with_t:
            key[-1] = rng.randint(0, 2)
        terms[tuple(key)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly(nvars, terms)


def to_sympy(sympy, p):
    """p as a sympy expression in x1..xn and t."""
    symbols = sympy.symbols(f"x1:{p.nvars + 1}") + (sympy.Symbol("t"),)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(v**e for v, e in zip(symbols, key)))
            for key, c in p.terms().items()
        )
    )


def random_point(rng, nvars):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)]


def nagata_first_component():
    # x1 - 2*x2*D - x3*D^2 with D = x2^2 + x1*x3
    x1, x2, x3 = Poly.variables(3)
    delta = x2**2 + x1 * x3
    return x1 - 2 * x2 * delta - x3 * delta**2


def nagata_second_component():
    x1, x2, x3 = Poly.variables(3)
    delta = x2**2 + x1 * x3
    return x2 + x3 * delta


class TestRingOperations:
    def test_additive_inverse_cancels(self):
        p = x(2, 1)
        assert (p + (-p)).is_zero
        assert (p + (-p)).terms() == {}

    def test_product_of_sum_and_difference(self):
        # hand expansion: (x2 + x3)(x2 - x3) = x2^2 - x3^2
        p = x(3, 2) + x(3, 3)
        q = x(3, 2) - x(3, 3)
        expected = x(3, 2) ** 2 - x(3, 3) ** 2
        product = p * q
        assert product == expected
        rng = random.Random(101)
        for _ in range(20):
            a = random_point(rng, 3)
            assert product.evaluate(a) == p.evaluate(a) * q.evaluate(a)

    def test_multiplicative_identity(self):
        rng = random.Random(7)
        p = random_poly(rng, 3, 5, 6)
        assert p * Poly.const(3, 1) == p
        assert p * 1 == p

    def test_scalar_coercion(self):
        p = x(2, 1) + 3
        assert p.constant_term() == 3
        assert (2 * p).coefficient((1, 0)) == 2
        assert (p / 2).constant_term() == Fraction(3, 2)

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(DimensionError):
            x(2, 1) + x(3, 1)
        with pytest.raises(DimensionError):
            x(2, 1) * x(3, 1)

    @pytest.mark.parametrize("exponent", ["a", None, True, 1.0, -1])
    def test_bad_exponent_rejected(self, exponent):
        # the type is tested before the sign: no str/None comparison, no bool key
        with pytest.raises(DimensionError):
            Poly(1, {(exponent,): 1})

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(2024)
        for _ in range(50):
            p = random_poly(rng, 3, 4, 4)
            q = random_poly(rng, 3, 4, 4)
            r = random_poly(rng, 3, 4, 4)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(5)
        p = random_poly(rng, 2, 3, 4)
        assert p**0 == Poly.const(2, 1)
        assert p**3 == p * p * p

    def test_power_against_repeated_products(self):
        # negative and Fraction coefficients, t, and every exponent 0..12
        rng = random.Random(512)
        for case in range(12):
            p = random_poly(rng, 1 + case % 3, 2, 3, with_t=True)
            expected = Poly.const(p.nvars, 1)
            for e in range(13):
                assert p**e == expected
                expected = expected * p


def dict_convolution(a, b):
    """Reference product on plain term dicts: keys add slot by slot."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(map(add, ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def dict_substitute(p, images, t_image=None):
    """Reference substitution on plain term dicts over Fractions: each term
    c*x^e becomes c times e_i copies of image i, multiplied by
    dict_convolution alone, and the terms are summed."""
    n = p.nvars
    slots = [g.terms() for g in images]
    slots.append({(0,) * n + (1,): 1} if t_image is None else t_image.terms())
    out = {}
    for key, c in p.terms().items():
        term = {(0,) * (n + 1): Fraction(c)}
        for e, image in zip(key, slots):
            for _ in range(e):
                term = dict_convolution(term, image)
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def assert_canonical(p):
    """Every coefficient is an int where integral and a Fraction otherwise."""
    for c in p.terms().values():
        assert type(c) is (int if c.denominator == 1 else Fraction)


# small exponents, both sides of 16-bit fields, and one past 64 bits
WIDE_EXPONENTS = (0, 1, 2, 3, 2**15 - 1, 2**15, 2**16, 10**19)


class TestScalarProduct:
    """p * c scales the values in one pass (Poly._regrade with no moved slot),
    for an int, a Fraction or a constant Poly c, on either side."""

    @pytest.mark.parametrize("c", [0, 1, -1, 3, Fraction(-2, 7)], ids=repr)
    def test_matches_dict_convolution(self, c):
        rng = random.Random(2027)
        for case in range(40):
            p = random_poly(rng, 1 + case % 4, 4, 6, with_t=case % 2 == 0)
            if case % 5 == 0:
                p = p * 12  # denominators are at most 4: integral, so int coefficients
            constant = {(0,) * (p.nvars + 1): c} if c else {}
            expected = dict_convolution(p.terms(), constant)
            for product in (p * c, c * p, p * Poly.const(p.nvars, c)):
                assert product.terms() == expected
                assert_canonical(product)

    def test_integral_results_are_ints(self):
        p = Poly(2, {(1, 0, 0): Fraction(7, 2), (0, 1, 0): Fraction(1, 3), (0, 0, 0): 5})
        scaled = p * Fraction(6, 7)
        expected = {(1, 0, 0): 3, (0, 1, 0): Fraction(2, 7), (0, 0, 0): Fraction(30, 7)}
        assert scaled.terms() == expected
        assert_canonical(scaled)
        assert_canonical(p / Fraction(1, 6))
        assert p * 1 is p


class TestPackedProduct:
    def random_operand(self, rng, nvars):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            key = tuple(rng.choice(WIDE_EXPONENTS) for _ in range(nvars + 1))
            terms[key] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
        return Poly(nvars, terms)

    def test_matches_dict_convolution(self):
        rng = random.Random(404)
        cancelled = 0
        for case in range(400):
            nvars = 1 + case % 4
            p = self.random_operand(rng, nvars)
            q = self.random_operand(rng, nvars)
            if case % 3 == 0:
                # (m + r)(m - r): the cross terms cancel
                q = p - 2 * Poly(nvars, dict(list(p.terms().items())[1:]))
            expected = dict_convolution(p.terms(), q.terms())
            product = p * q
            assert product.terms() == expected
            assert_canonical(product)
            keys = {tuple(map(add, ka, kb)) for ka in p.terms() for kb in q.terms()}
            cancelled += len(expected) < len(keys)
        assert cancelled > 50

    def test_wide_exponent_square(self):
        p = parse_poly("x1^40000*(x1+x2)") ** 2
        assert p.terms() == {(80002, 0, 0): 1, (80001, 1, 0): 2, (80000, 2, 0): 1}


class TestDegrees:
    def test_zero_degree_marker(self):
        assert Poly.zero(2).total_degree() == NEG_INF
        assert Poly.zero(2).total_degree() != -1
        assert Poly.zero(2).t_degree() == NEG_INF

    def test_total_degree(self):
        assert (x(2, 1) + x(2, 2) ** 3).total_degree() == 3
        assert (x(3, 3) * x(3, 2) ** 4).total_degree() == 5
        assert Poly.const(2, 5).total_degree() == 0

    def test_degree_excludes_t(self):
        p = x(2, 1) * Poly.t(2) ** 4
        assert p.total_degree() == 1
        assert p.t_degree() == 4

    def test_degree_in_variable(self):
        assert (x(2, 1) ** 2 * x(2, 2) + x(2, 1)).degree_in(1) == 2
        assert (x(2, 2) ** 3).degree_in(1) == 0
        assert Poly.zero(2).degree_in(1) == NEG_INF

    def test_degree_in_variable_nagata(self):
        # the D^2 term contributes x1^2*x3^3
        f1 = nagata_first_component()
        assert f1.degree_in(1) == 2
        assert f1.coefficient((2, 0, 3)) == -1

    def test_degree_is_additive_under_multiplication(self):
        rng = random.Random(99)
        for _ in range(30):
            p = random_poly(rng, 2, 4, 3)
            q = random_poly(rng, 2, 4, 3)
            assert (p * q).total_degree() == p.total_degree() + q.total_degree()


class TestValuationsAndComponents:
    def test_valuation_simple(self):
        p = x(3, 2) ** 2 + x(3, 2) ** 3
        assert p.valuation_in({2, 3}) == 2

    def test_valuation_nagata_slice(self):
        # g0 for the Nagata map: -2*x2^3 - x3*x2^4
        x2, x3 = x(3, 2), x(3, 3)
        g0 = -2 * x2**3 - x3 * x2**4
        assert g0.valuation_in({2, 3}) == 3
        # oracle: the homogeneous pieces below the valuation vanish
        assert g0.homogeneous_component({2, 3}, 0).is_zero
        assert g0.homogeneous_component({2, 3}, 1).is_zero
        assert g0.homogeneous_component({2, 3}, 2).is_zero
        assert not g0.homogeneous_component({2, 3}, 3).is_zero

    def test_valuation_nonzero_constant(self):
        assert Poly.const(3, 5).valuation_in({2, 3}) == 0

    def test_valuation_of_zero_is_undefined(self):
        with pytest.raises(UndefinedValuation):
            Poly.zero(3).valuation_in({2, 3})

    def test_homogeneous_component(self):
        p = x(3, 2) ** 2 + x(3, 2) ** 3
        assert p.homogeneous_component({2, 3}, 2) == x(3, 2) ** 2
        g0 = -2 * x(3, 2) ** 3 - x(3, 3) * x(3, 2) ** 4
        assert g0.homogeneous_component({2, 3}, 3) == -2 * x(3, 2) ** 3
        assert (x(3, 2) ** 2).homogeneous_component({2, 3}, 3).is_zero

    def test_components_sum_back_and_valuation_is_min_weight(self):
        rng = random.Random(314)
        for _ in range(40):
            p = random_poly(rng, 3, 6, 5)
            if p.is_zero:
                continue
            indices = {1, 2} if rng.random() < 0.5 else {2, 3}
            top = p.total_degree()
            pieces = [p.homogeneous_component(indices, w) for w in range(0, top + 1)]
            total = Poly.zero(3)
            for piece in pieces:
                total = total + piece
            assert total == p
            weights = [w for w, piece in enumerate(pieces) if not piece.is_zero]
            assert p.valuation_in(indices) == min(weights)


class TestCalculus:
    def test_simple_partials(self):
        p = x(2, 1) ** 2 * x(2, 2)
        assert p.partial_derivative(1) == 2 * x(2, 1) * x(2, 2)
        assert (x(2, 2) ** 3).partial_derivative(1).is_zero

    def test_nagata_second_component_partial(self):
        # d/dx3 of x2 + x3*(x2^2 + x1*x3) = x2^2 + 2*x1*x3
        f2 = nagata_second_component()
        expected = x(3, 2) ** 2 + 2 * x(3, 1) * x(3, 3)
        assert f2.partial_derivative(3) == expected

    def test_partial_matches_exact_difference_quotient(self):
        # (p(x3+t) - p(x3))/t at t=0 equals the x3-partial, computed exactly
        rng = random.Random(2718)
        for _ in range(15):
            p = random_poly(rng, 3, 5, 5)
            shifted = p.substitute(
                [x(3, 1), x(3, 2), x(3, 3) + Poly.t(3)]
            )
            quotient = (shifted - p).divide_t(1) if shifted != p else Poly.zero(3)
            assert quotient.with_t_set(0) == p.partial_derivative(3)


class TestSubstitution:
    def test_kills_variable(self):
        p = x(2, 1) ** 2 + x(2, 2)
        assert p.substitute([x(2, 2), Poly.zero(2)]) == x(2, 2) ** 2

    def test_hand_expansion(self):
        # x1*x2 + x2^2 at (x1+x2, x1) = (x1+x2)*x1 + x1^2 = 2*x1^2 + x1*x2
        p = x(2, 1) * x(2, 2) + x(2, 2) ** 2
        images = [x(2, 1) + x(2, 2), x(2, 1)]
        result = p.substitute(images)
        assert result == 2 * x(2, 1) ** 2 + x(2, 1) * x(2, 2)
        rng = random.Random(11)
        for _ in range(20):
            a = random_point(rng, 2)
            assert result.evaluate(a) == p.evaluate([g.evaluate(a) for g in images])

    def test_identity_substitution(self):
        rng = random.Random(13)
        p = random_poly(rng, 3, 5, 6)
        assert p.substitute(Poly.variables(3)) == p

    def test_t_is_left_fixed(self):
        p = x(2, 1) * Poly.t(2)
        out = p.substitute([x(2, 2), x(2, 1)])
        assert out == x(2, 2) * Poly.t(2)

    def test_wrong_image_count(self):
        with pytest.raises(DimensionError):
            x(2, 1).substitute([x(2, 1)])

    def test_exponent_past_the_recursion_limit(self):
        # the power chain of a 400-digit exponent is over 2000 steps long
        e = "9" * 400
        p = parse_poly(f"x1^{e}", 2)
        assert p.substitute([x(2, 2), x(2, 1)]) == parse_poly(f"x2^{e}", 2)

    @pytest.mark.parametrize("with_t_image", [False, True])
    def test_matches_sympy(self, with_t_image):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(606 + with_t_image)
        for case in range(30):
            nvars = 1 + case % 3
            p = random_poly(rng, nvars, 4, 5, with_t=True)
            images = [random_poly(rng, nvars, 2, 3, with_t=True) for _ in range(nvars)]
            t_image = random_poly(rng, nvars, 1, 2, with_t=True) if with_t_image else None
            symbols = sympy.symbols(f"x1:{nvars + 1}")
            t = sympy.Symbol("t")
            mapping = {v: to_sympy(sympy, g) for v, g in zip(symbols, images)}
            if with_t_image:
                mapping[t] = to_sympy(sympy, t_image)
            expected = to_sympy(sympy, p).xreplace(mapping)
            result = p.substitute(images, t_image)
            assert sympy.expand(expected - to_sympy(sympy, result)) == 0

    def test_matches_dict_oracle(self):
        x1, x2, x3 = Poly.variables(3)
        t = Poly.t(3)
        g = x2 + Fraction(1, 2) * x3 * t
        cases = [
            # x1 - x2 at equal images: the source's terms cancel each other
            (x1 - x2, [g, g, x3], None),
            (x1 * x3 - x2 * x3 + 5, [g, g, x1], None),
            # zero images, a constant term and a t image
            (x1**2 * x2 + 3 * x2 * t**2 - 7, [Poly.zero(3), x1 + x2, x3], x1 - 2),
            # Fraction coefficients whose products come out integral
            (x1 / 2 + x2**2 / 3 + x3 * t / 4, [2 * x2, 3 * x1 + x3, 2 * x1], 2 * t),
            # one-term images only: negative and Fraction factors, powers > 1
            (
                x1**3 * x2 - 4 * x2**2 * x3 * t + x3**5 / 7 + 2,
                [-2 * x2 * t, Fraction(3, 5) * x1 * x3, Fraction(-1, 3) * x3 * t**2],
                None,
            ),
            # a one-term t image
            (x1 * t**3 + x2**2 * t - t, [x3, x2, -x1], Fraction(-3, 2) * x1 * t),
            # one-term images that collide and cancel
            (x1 - x2, [x2, x2, x3], None),
            (3 * x1**2 * x3 - 3 * x2**2 * x3 + x3, [2 * x2, -2 * x2, x3], None),
            # a zero image next to one-term ones
            (x1 * x2 + x2**2 * x3 - x3**3 + 1, [Poly.zero(3), 2 * x1, x3 * t], None),
            # one-term and polynomial images in one substitution
            (x1**2 * x2 * x3 + x2**3 - x1 * t, [Fraction(1, 2) * x2, g, -x1 * t], x1 + t),
            # a distinct denominator per slot; Fraction source coefficients; the
            # x2 and constant terms have zero exponents beside x1's top power
            (
                Fraction(3, 4) * x1**3 - Fraction(5, 6) * x2 * x3**2 + x2 + 1,
                [x2 / 2 + x3, 2 * x1 / 3 - x3, Fraction(5, 7) * x2 * x3 + 1],
                None,
            ),
            # one-term images with distinct denominators, and a Fraction t image
            (
                x1**2 * x3 + Fraction(2, 9) * x2 * t**2 - x3**3 * t,
                [x2 / 2, Fraction(2, 3) * x1, Fraction(5, 7) * x3],
                Fraction(2, 3) * x1 + t / 5,
            ),
            (x1 * t - x2, [x1, x2, x3], Fraction(-1, 4) * t),
            # the denominators cancel: integral results, and a zero one
            (4 * x1**2 + 9 * x2 * x3, [x1 / 2 + x2 / 2, x1 / 3, 2 * x2 / 3], None),
            (x1**2 / 4 - x2, [x1 + x2, (x1 + x2) ** 2 / 4, x3], None),
            (x1 - x2, [x2 / 2 + x3 / 3, x2 / 2 + x3 / 3, x1 / 5], None),
        ]
        rng = random.Random(808)
        for case in range(60):
            nvars = 1 + case % 3
            p = random_poly(rng, nvars, 4, 5, with_t=True)
            images = [
                random_poly(rng, nvars, 2, 3, with_t=True) if rng.random() < 0.8
                else Poly.zero(nvars)
                for _ in range(nvars)
            ]
            t_image = random_poly(rng, nvars, 1, 2, with_t=True) if case % 2 else None
            cases.append((p, images, t_image))
        for case in range(60):
            # each image, the t image included, is one random term half the time
            nvars = 1 + case % 3
            p = random_poly(rng, nvars, 4, 5, with_t=True)
            images = [
                random_poly(rng, nvars, 2, 1 if rng.random() < 0.5 else 3, with_t=True)
                for _ in range(nvars + 1)
            ]
            cases.append((p, images[:-1], images[-1]))
        for case in range(30):
            # every slot, t included, scaled by its own denominator
            nvars = 1 + case % 3
            p = random_poly(rng, nvars, 4, 5, with_t=True)
            images = [
                random_poly(rng, nvars, 2, 1 + case % 3, with_t=True) / rng.choice((2, 3, 5, 7))
                for _ in range(nvars + 1)
            ]
            cases.append((p, images[:-1], images[-1]))
        for p, images, t_image in cases:
            result = p.substitute(images, t_image)
            assert result.terms() == dict_substitute(p, images, t_image)
            assert_canonical(result)
        assert (x1 - x2).substitute([g, g, x3]).is_zero
        integral = (4 * x1**2 + 9 * x2 * x3).substitute([x1 / 2 + x2 / 2, x1 / 3, 2 * x2 / 3])
        assert integral.terms() == {(2, 0, 0, 0): 1, (1, 1, 0, 0): 4, (0, 2, 0, 0): 1}
        assert (x1 / 2).substitute([2 * x2, x2, x3]).terms() == {(0, 1, 0, 0): 1}

    def test_substitute_then_evaluate_commutes(self):
        rng = random.Random(404)
        for _ in range(25):
            p = random_poly(rng, 2, 4, 4)
            g = [random_poly(rng, 2, 3, 3) for _ in range(2)]
            a = random_point(rng, 2)
            assert p.substitute(g).evaluate(a) == p.evaluate([gi.evaluate(a) for gi in g])


class TestEvaluation:
    def test_trivial(self):
        p = x(2, 1) + x(2, 2) ** 2
        assert p.evaluate([1, 2]) == 5
        assert Poly.zero(2).evaluate([3, 4]) == 0

    def test_rational_point(self):
        p = x(2, 1) * x(2, 2) - Fraction(1, 2)
        assert p.evaluate([Fraction(1, 3), 3]) == Fraction(1, 2)

    def test_missing_t_value(self):
        p = Poly.t(1) * x(1, 1)
        with pytest.raises(DimensionError):
            p.evaluate([1])
        assert p.evaluate([2], t_value=3) == 6

    def test_evaluation_is_ring_homomorphism(self):
        rng = random.Random(55)
        for _ in range(25):
            p = random_poly(rng, 3, 4, 4)
            q = random_poly(rng, 3, 4, 4)
            r = random_poly(rng, 3, 4, 4)
            a = random_point(rng, 3)
            lhs = (p * q + r).evaluate(a)
            assert lhs == p.evaluate(a) * q.evaluate(a) + r.evaluate(a)


class TestTParameter:
    def test_with_t_set(self):
        p = x(1, 1) + Poly.t(1) * x(1, 1) ** 2
        assert p.with_t_set(0) == x(1, 1)
        assert p.with_t_set(1) == x(1, 1) + x(1, 1) ** 2
        assert p.with_t_set(Fraction(1, 2)) == x(1, 1) + x(1, 1) ** 2 / 2

    @staticmethod
    def with_t_set_oracle(p, value):
        """with_t_set on plain term dicts: each term times a Fraction power of value."""
        v = Fraction(value)
        out = {}
        for key, c in p.terms().items():
            k = key[:-1] + (0,)
            out[k] = out.get(k, 0) + Fraction(c) * v ** key[-1]
        return {k: c for k, c in out.items() if c}

    # Fraction(4, 2) and Fraction(-6, 3) are integral Fractions; integral
    # outputs must still be ints
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 2, Fraction(1, 2), Fraction(4, 2)]
        + [Fraction(-1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-6, 3)],
        ids=repr,
    )
    def test_with_t_set_matches_dict_oracle(self, value):
        v = Fraction(value)
        x1, x2, t = x(2, 1), x(2, 2), Poly.t(2)
        # x1*t - v*x1 cancels at t = v; the x2 term comes out as exactly 1
        cases = [x1 * t - v * x1 + x2 * t**2 / (v**2 if v else 1) + Fraction(3, 2)]
        rng = random.Random(909)
        for case in range(40):
            cases.append(random_poly(rng, 1 + case % 3, 4, 6, with_t=True))
        cases.append(Poly.t(0) ** 3 - 3 * Poly.t(0) + Fraction(1, 2))  # no x-variables
        for p in cases:
            result = p.with_t_set(value)
            assert result.terms() == self.with_t_set_oracle(p, value)
            assert_canonical(result)
        expected = {(0, 0, 0): Fraction(3, 2), (0, 1, 0): 1} if v else {(0, 0, 0): Fraction(3, 2)}
        assert cases[0].with_t_set(value).terms() == expected

    @pytest.mark.parametrize("value", [1, -1])
    def test_with_t_set_at_unit_values(self, value):
        # at t0 = +-1 only signs change: no clearing, no final division
        x1, x2, t = x(2, 1), x(2, 2), Poly.t(2)
        assert (x1 * t + x1).with_t_set(-1) == 0
        p = x1 * t + x1 * t**2 + Fraction(1, 3) * x2 * t**3 + Fraction(2, 3) * x2 - x1**2 * t**4
        expected = x1 * (value + 1) + x2 * (Fraction(value**3, 3) + Fraction(2, 3)) - x1**2
        result = p.with_t_set(value)
        assert result == expected
        assert result.terms() == self.with_t_set_oracle(p, value)
        assert_canonical(result)
        # odd and even t-powers of one monomial take opposite signs at -1
        q = Fraction(5, 2) * x1 * x2 * t**3 + 7 * x2**2 * t**2
        assert q.with_t_set(-1) == -Fraction(5, 2) * x1 * x2 + 7 * x2**2
        # keys that collide once t is dropped are summed: 1/2 + 1/2 is the int 1
        r = Fraction(1, 2) * x1 * t**2 + Fraction(1, 2) * x1 + x2 * t - x2
        assert r.with_t_set(value).terms() == self.with_t_set_oracle(r, value)
        assert_canonical(r.with_t_set(value))
        assert r.with_t_set(-1).terms() == {(1, 0, 0): 1, (0, 1, 0): -2}
        rng = random.Random(4141)
        for case in range(60):
            p = random_poly(rng, 1 + case % 4, 4, 8, with_t=True)
            assert p.with_t_set(value).terms() == self.with_t_set_oracle(p, value)
            assert_canonical(p.with_t_set(value))

    def test_with_t_set_sparse_top_power(self):
        # t^0 beside t^60: the untouched term is scaled by q^60 and divided back
        x1, x2, t = x(2, 1), x(2, 2), Poly.t(2)
        p = 7 * x1 + Fraction(5, 4) * x2 * t**60 - Fraction(1, 3) * t**60 + x1 * x2 * t
        value = Fraction(2, 3)
        result = p.with_t_set(value)
        assert result.terms() == self.with_t_set_oracle(p, value)
        assert result.coefficient((1, 0)) == 7
        assert result.coefficient((0, 1)) == Fraction(5, 4) * value**60
        assert_canonical(result)

    @pytest.mark.parametrize("outer", [(1, 1), (-1, 1), (3, 1), (-2, 7), (5, 3)], ids=str)
    def test_regrade_outer_factor(self, outer):
        # _regrade's outer a/b scales the result: a joins the clearing multiplier and b
        # the divisor; where every factor is +-1 and a/b = -1 only signs flip; drop_t
        # sends t's exponent to 0 and sums the keys that collide
        rng = random.Random(5150)
        factor_sets = [[], [-1], [-1, -1], [2], [-1, Fraction(-3, 5)], [Fraction(1, 2), 3]]
        for case in range(30):
            nvars = 1 + case % 3
            p = random_poly(rng, nvars, 4, 6, with_t=True)
            for factors in factor_sets:
                if len(factors) > nvars + 1:
                    continue
                slots = rng.sample(range(nvars + 1), len(factors))
                moved = [(j, *Fraction(a).as_integer_ratio()) for j, a in zip(slots, factors)]
                for drop_t in (False, True):
                    expected = {}
                    for key, c in p.terms().items():
                        v = Fraction(c) * Fraction(*outer)
                        for j, a in zip(slots, factors):
                            v *= Fraction(a) ** key[j]
                        k = key[:-1] + (0,) if drop_t else key
                        expected[k] = expected.get(k, 0) + v
                    result = p._regrade(moved, outer, drop_t)
                    assert result.terms() == {k: v for k, v in expected.items() if v}
                    assert_canonical(result)

    def test_divide_t_exact(self):
        p = Poly.t(1) ** 2 * x(1, 1) + Poly.t(1) ** 3
        q = p.divide_t(2)
        assert q == x(1, 1) + Poly.t(1)

    def test_divide_t_rejects_low_valuation(self):
        p = Poly.t(1) + Poly.const(1, 1)
        with pytest.raises(ValueError):
            p.divide_t(1)
        # a negative power would multiply
        with pytest.raises(ValueError) as info:
            (x(1, 1) + Poly.t(1)).divide_t(-1)
        assert str(info.value) == "cannot divide by t^-1: the power must be non-negative"

    def test_with_t_set_and_divide_t_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(707)
        for case in range(40):
            p = random_poly(rng, 1 + case % 3, 4, 6, with_t=True)
            value = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            expected = to_sympy(sympy, p).subs(t, sympy.Rational(value.numerator, value.denominator))
            assert sympy.expand(expected - to_sympy(sympy, p.with_t_set(value))) == 0
            k = p.t_valuation() if p else 0
            expected = sympy.cancel(to_sympy(sympy, p) / t**k)
            assert sympy.expand(expected - to_sympy(sympy, p.divide_t(k))) == 0

    def test_t_valuation(self):
        p = Poly.t(1) ** 2 * x(1, 1) + Poly.t(1) ** 5
        assert p.t_valuation() == 2
        with pytest.raises(UndefinedValuation):
            Poly.zero(1).t_valuation()


class TestCanonicalForm:
    def test_structural_equality_and_hash(self):
        p = x(2, 1) + x(2, 2)
        q = x(2, 2) + x(2, 1)
        assert p == q
        assert hash(p) == hash(q)

    def test_no_zero_coefficients_stored(self):
        p = x(2, 1) - x(2, 1) + x(2, 2)
        assert len(p.terms()) == 1

    def test_constructor_merges_and_drops_zeros(self):
        p = Poly(2, {(1, 0): 1, (0, 1, 0): 0})
        assert p == x(2, 1)
        # a t-free key and its padded form are one key, so their terms cancel
        assert Poly(2, {(1, 0): 1, (1, 0, 0): -1}).terms() == {}

    def test_rendering_is_deterministic_graded_lex(self):
        f1 = nagata_first_component()
        assert str(f1) == "-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 - 2*x1*x2*x3 - 2*x2^3 + x1"
        assert str(Poly.zero(3)) == "0"
        assert str(Poly.const(2, Fraction(-1, 2))) == "-1/2"

    def test_one_term_products_keep_the_coefficient_invariant(self):
        half_x1 = x(2, 1) / 2
        product = half_x1 * (2 * x(2, 2) + Fraction(4, 3))
        assert product.terms() == {(1, 1, 0): 1, (1, 0, 0): Fraction(2, 3)}
        assert type(product.terms()[(1, 1, 0)]) is int
        assert product == (2 * x(2, 2) + Fraction(4, 3)) * half_x1
        for p in (product, Poly.const(2, Fraction(3, 2)) * (x(2, 1) * 2 + 4)):
            for c in p.terms().values():
                assert type(c) is (int if c.denominator == 1 else Fraction)
        # a monomial product never cancels and shifts every key
        assert x(2, 1) * (x(2, 1) - x(2, 2)) == x(2, 1) ** 2 - x(2, 1) * x(2, 2)

    @pytest.mark.parametrize(
        "p",
        [
            (2 * x(2, 1)) ** 15000,
            (x(2, 1) / 3) ** 10000,
            x(2, 1) ** (10**4300),
        ],
        ids=["coefficient", "denominator", "exponent"],
    )
    def test_numbers_past_the_int_string_limit(self, p):
        with pytest.raises(AlgebraError, match=str(sys.get_int_max_str_digits())):
            str(p)
