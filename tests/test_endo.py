"""Tests for the composition monoid of polynomial endomorphisms."""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from polyauto import Poly, selfcheck
from polyauto.degeneration import (
    ParamEndo, TorusAction, degeneration_data, normalize, torus_conjugate
)
from polyauto.endo import CoeffVector, Endo, monomials_upto, poly_det
from polyauto.errors import DegenerateInput, DimensionError, FiltrationError
from polyauto.groups import AffineMap, random_affine, random_triangular
from test_degeneration import sample_suite_case
from test_poly import assert_canonical, dict_substitute


def x(nvars, i):
    return Poly.variable(nvars, i)


def shear2():
    return Endo([x(2, 1) + x(2, 2) ** 2, x(2, 2)])


def nagata_endo():
    x1, x2, x3 = Poly.variables(3)
    delta = x2**2 + x1 * x3
    return Endo([x1 - 2 * x2 * delta - x3 * delta**2, x2 + x3 * delta, x3])


def random_endo(rng, n, max_degree=3, max_terms=3):
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            key = [0] * (n + 1)
            for _ in range(rng.randint(0, max_degree)):
                key[rng.randrange(n)] += 1
            terms[tuple(key)] = Fraction(rng.randint(-5, 5))
        comps.append(Poly(n, terms))
    if all(c.is_zero for c in comps):
        comps[0] = x(n, 1)
    return Endo(comps)


def affine_selves(rng, n):
    """Maps of degree at most one: rational rows, a zero row, a constant-only row, rows that
    each take one image, and the zero map."""

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    def row():
        return sum((entry() * v for v in Poly.variables(n)), Poly.const(n, entry()))

    return [
        Endo([row() for _ in range(n)]),
        Endo([row() for _ in range(n)]),
        Endo([Poly.zero(n)] + [row() for _ in range(n - 1)]),
        Endo([Poly.const(n, entry() or 1)] + [row() for _ in range(n - 1)]),
        Endo([(entry() or 1) * x(n, rng.randint(1, n)) for _ in range(n)]),
        Endo([Poly.zero(n)] * n),
    ]


def random_point(rng, n):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]


def numeric_det(rows):
    # independent plain cofactor expansion over Fractions, test-local oracle
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * numeric_det(minor)
    return total


def leibniz_det(rows):
    """Test-local oracle: the signed sum over permutations, on plain term dicts."""
    n = len(rows)
    width = rows[0][0].nvars + 1
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        product = {(0,) * width: Fraction(-1 if inversions % 2 else 1)}
        for i, j in enumerate(perm):
            step = {}
            for k1, c1 in product.items():
                for k2, c2 in rows[i][j].terms().items():
                    key = tuple(a + b for a, b in zip(k1, k2))
                    step[key] = step.get(key, 0) + c1 * c2
            product = step
        for key, c in product.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def random_entry(rng, n, with_t):
    terms = {}
    for _ in range(rng.choice((0, 1, 1, 2, 3, 5))):
        key = tuple(rng.randint(0, 3) for _ in range(n)) + (rng.randint(0, 2) if with_t else 0,)
        terms[key] = rng.choice(
            (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        )
    return Poly(n, terms)


class TestComposition:
    def test_identity_is_neutral(self):
        sigma = shear2()
        ident = Endo.identity(2)
        assert ident.compose(sigma) == sigma
        assert sigma.compose(ident) == sigma
        assert ident.is_identity()
        assert not sigma.is_identity()
        assert not Endo([x(2, 2), x(2, 1)]).is_identity()

    def test_hand_composition(self):
        # (x1+x2^2, x2) after (x1, x1+x2): f1 = x1 + (x1+x2)^2
        sigma = shear2()
        tau = Endo([x(2, 1), x(2, 1) + x(2, 2)])
        composed = sigma.compose(tau)
        expected_f1 = x(2, 1) + (x(2, 1) + x(2, 2)) ** 2
        assert composed == Endo([expected_f1, x(2, 1) + x(2, 2)])
        rng = random.Random(21)
        for _ in range(20):
            a = random_point(rng, 2)
            assert composed(a) == sigma(tau(a))

    def test_mul_operator_is_compose(self):
        sigma, tau = shear2(), Endo([x(2, 1), x(2, 1) + x(2, 2)])
        assert sigma * tau == sigma.compose(tau)
        assert tau * sigma == Endo([x(2, 1) + x(2, 2) ** 2, x(2, 1) + x(2, 2) ** 2 + x(2, 2)])
        assert sigma.__mul__(2) is NotImplemented
        with pytest.raises(TypeError):
            sigma * 2

    def test_inverse_shear(self):
        sigma = shear2()
        tau = Endo([x(2, 1) - x(2, 2) ** 2, x(2, 2)])
        assert sigma.compose(tau) == Endo.identity(2)

    def test_orientation_is_after(self):
        # compose(s, u) must act as s after u, never u after s
        swap = Endo([x(2, 2), x(2, 1)])
        composed = swap.compose(shear2())
        assert composed == Endo([x(2, 2), x(2, 1) + x(2, 2) ** 2])

    def test_mismatched_n(self):
        with pytest.raises(DimensionError, match="^cannot compose maps on 2 and 3 variables$"):
            Endo.identity(2).compose(Endo.identity(3))
        with pytest.raises(DimensionError, match="^can only compose with another endomorphism$"):
            Endo.identity(2).compose(AffineMap.identity(2))

    def test_associativity_seeded(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.choice([2, 3])
            s, u, v = (random_endo(rng, n) for _ in range(3))
            assert s.compose(u).compose(v) == s.compose(u.compose(v))

    def test_matches_substitution_per_component(self):
        # compose shares one power table per image across the components
        rng = random.Random(99)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            s, u = random_endo(rng, n, 5, 5), random_endo(rng, n, 3, 3)
            images = list(u.components)
            assert s.compose(u) == Endo([f.substitute(images) for f in s.components])

    def test_matches_dict_oracle(self):
        x1, x2, x3 = Poly.variables(3)
        g = x2 / 2 + x3
        # equal images cancel x1 - x2; 3*x1 squared over 3 comes out integral
        hand = Endo([x1 - x2 + 1, x1 * x3 / 2, x3**2 / 3 + x1 * x2])
        cases = [(hand, Endo([g, g, 3 * x1])), (hand, Endo([Poly.zero(3), x2, x1 + x3]))]
        rng = random.Random(111)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            cases.append(
                tuple(
                    Endo([f / rng.randint(1, 3) for f in random_endo(rng, n, 4, 4).components])
                    for _ in range(2)
                )
            )
        # inverse affine letters carry their determinant as a denominator;
        # compose them with triangular letters on either side
        letters = [AffineMap([[2, 1, 0], [1, 1, 1], [0, 3, 1]], [1, 0, -2])]
        letters += [random_affine(n, seed) for n in (2, 3, 4) for seed in range(4)]
        for seed, alpha in enumerate(letters):
            a = alpha.inverse().to_endo()
            b = random_triangular(alpha.n, seed, 2).to_endo()
            cases += [(a, b), (b, a), (a, b.compose(a))]
        # a self of degree at most one combines other's components by its int rows, here
        # over images with different dens, n = 1..4
        for k in range(60):
            u = Endo([f / rng.randint(1, 6) for f in random_endo(rng, 1 + k % 4, 3, 4).components])
            cases += [(s, u) for s in affine_selves(rng, u.n)]
        # rows that cancel to the zero component: x1/2 - x2/3 + 1 after (2h/5 - 2, 3h/5) is
        # h/5 - 1 - h/5 + 1, and x1 - 2*x2 after (2h, h) is 0 with no constant
        h = x1 * x3 / 7 + x2**2
        cancelling = Endo([x1 / 2 - x2 / 3 + 1, x1 - 2 * x2, x3 + 5])
        cases.append((cancelling, Endo([2 * h / 5 - 2, 3 * h / 5, x1 * x2 / 3])))
        cases.append((cancelling, Endo([2 * h, h, x3 / 4])))
        for s, u in cases:
            for f, h in zip(s.components, s.compose(u).components):
                assert h.terms() == dict_substitute(f, u.components)
                assert_canonical(h)
        assert hand.compose(Endo([g, g, 3 * x1])).components[0] == 1
        assert [s.compose(u).components[0].is_zero for s, u in cases[-2:]] == [True, False]
        assert cancelling.compose(cases[-1][1]).components[1].is_zero

    def test_affine_self_takes_no_substitution(self, monkeypatch):
        rng = random.Random(5)
        cases = [(s, random_endo(rng, 3, 3, 4)) for s in affine_selves(rng, 3)]
        expected = [s.compose(u) for s, u in cases]

        def refused(*args):
            raise AssertionError("a self of degree at most one went through _substitute")

        monkeypatch.setattr(Poly, "_substitute", refused)
        assert [s.compose(u) for s, u in cases] == expected

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(101)
        for _ in range(20):
            n = rng.choice([2, 3])
            s, u = (
                Endo([f / rng.randint(1, 4) for f in random_endo(rng, n, 4, 4).components])
                for _ in range(2)
            )
            symbols = sympy.symbols(f"x1:{n + 1}")

            def to_sympy(f):
                return sympy.Add(
                    *(
                        sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*(v**e for v, e in zip(symbols, key)))
                        for key, c in f.terms().items()
                    )
                )

            mapping = {v: to_sympy(g) for v, g in zip(symbols, u.components)}
            for f, h in zip(s.components, s.compose(u).components):
                assert sympy.expand(to_sympy(f).xreplace(mapping) - to_sympy(h)) == 0

    def test_degree_submultiplicative(self):
        rng = random.Random(88)
        for _ in range(30):
            s, u = random_endo(rng, 2), random_endo(rng, 2)
            try:
                ds, du = s.degree(), u.degree()
            except DegenerateInput:
                continue
            composed = s.compose(u)
            if any(not c.is_zero for c in composed.components):
                assert composed.degree() <= ds * du


# the scalings of the monomial maps below: signs, ints and Fractions
SCALINGS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7))


class TestMonomialComposition:
    """compose scales other's components when self is a scaled permutation and
    substitutes otherwise, also where every component of other is one term;
    each result must equal the generic substitution and the dict oracle."""

    @staticmethod
    def check(s, u):
        r = s.compose(u)
        for f, h in zip(s.components, r.components):
            assert h == f.substitute(list(u.components))
            assert h.terms() == dict_substitute(f, u.components)
            assert_canonical(h)
        assert type(r.components) is tuple
        assert Endo(list(r.components)) == r
        return r

    @staticmethod
    def monomial_maps(rng, n):
        def scaling():
            return rng.choice(SCALINGS)

        def monomial():
            key = [0] * (n + 1)
            for _ in range(rng.randint(0, 3)):
                key[rng.randrange(n)] += 1
            return Poly(n, {tuple(key): scaling()})

        perm = rng.sample(range(1, n + 1), n)
        i, j = rng.randint(1, n), rng.randint(1, n)
        return [
            Endo([scaling() * x(n, k) for k in range(1, n + 1)]),  # diagonal
            Endo([scaling() * x(n, k) for k in perm]),  # scaled permutation
            AffineMap.transposition(n, i, j).to_endo(),
            # images that share a slot, so keys collide and may cancel
            Endo([scaling() * x(n, rng.randint(1, n)) for _ in range(n)]),
            # constant one-term images
            Endo([Poly.const(n, scaling()) if rng.random() < 0.5 else x(n, k) for k in perm]),
            Endo([monomial() for _ in range(n)]),  # one-term products of variables
            Endo.identity(n),
            # a zero image: the terms that use its slot drop out
            Endo([Poly.zero(n) if k == i else x(n, k) for k in perm]),
        ]

    def test_matches_generic_substitution(self):
        rng = random.Random(1414)
        for case in range(60):
            n = 1 + case % 4
            s = Endo([f / rng.randint(1, 3) for f in random_endo(rng, n, 4, 5).components])
            maps = self.monomial_maps(rng, n)
            for m in maps:
                self.check(s, m)  # substituted
                self.check(m, s)  # scaled when m is a scaled permutation
            for a in maps:
                for b in maps:
                    self.check(a, b)

    def test_collisions_sum_and_cancel(self):
        x1, x2 = x(2, 1), x(2, 2)
        assert self.check(Endo([x1 + x2, x2]), Endo([x2, -x2])) == Endo([Poly.zero(2), -x2])
        r = self.check(Endo([x1 + x2, x2]), Endo([2 * x2, -2 * x2]))
        assert r == Endo([Poly.zero(2), -2 * x2])
        # 1/2 + 1/2 collide into the int 1
        half = Endo([x1 / 2 + x2 / 2, x1 * x2 / 2])
        r = self.check(half, Endo([x2, x2]))
        assert r.components[0].terms() == {(0, 1, 0): 1}
        r = self.check(half, Endo([-x2, -x2]))
        assert r.components == (-x2, x2**2 / 2)
        # odd and even exponents of one slot take opposite signs
        r = self.check(Endo([x1**3 + x1**2 * x2, x2]), Endo([-x1, x2]))
        assert r.components[0] == -(x1**3) + x1**2 * x2
        # affine rows: a zero row and a translation alone; two images that cancel with the
        # translation's constant, and one image whose constant the translation cancels
        u = Endo([1 + x2, 1 - x2 / 3])
        r = self.check(Endo([Poly.zero(2), Poly.const(2, Fraction(5, 2))]), u)
        assert r.components == (Poly.zero(2), Poly.const(2, Fraction(5, 2)))
        r = self.check(Endo([x1 + 3 * x2 - 4, x1 - 1]), u)
        assert r.components == (Poly.zero(2), x2)

    def test_zero_image_at_a_huge_exponent(self):
        # the powers of a zero image are zero, also at an exponent past 64 bits
        x1, x2 = x(2, 1), x(2, 2)
        huge = Endo([x2**2 + x1 ** (10**19) * x2, x2 - x1 ** (10**19)])
        assert huge.compose(Endo([Poly.zero(2), x2])) == Endo([x2**2, x2])

    def test_scaled_permutation_shares_components(self):
        rng = random.Random(7)
        s = random_endo(rng, 3, 4, 5)
        swap = AffineMap.transposition(3, 1, 3).to_endo()
        r = self.check(swap, s)
        assert r.components[0] is s.components[2] and r.components[1] is s.components[1]
        r = self.check(Endo([x(3, 2), -x(3, 3), Fraction(2, 3) * x(3, 1)]), s)
        assert r.components[0] is s.components[1]
        assert r.components[1] == -s.components[2]
        assert r.components[2] == Fraction(2, 3) * s.components[0]


class TestDegreeAndParts:
    def test_degree_examples(self):
        assert Endo([x(2, 1) + x(2, 2) ** 3, x(2, 2)]).degree() == 3
        assert Endo.identity(4).degree() == 1

    def test_nagata_degree(self):
        nagata = nagata_endo()
        assert nagata.degree() == 5
        # oracle: scan all terms of all components for the max
        scanned = max(
            sum(key[:-1]) for f in nagata.components for key in f.terms()
        )
        assert scanned == 5

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            Endo([Poly.zero(2), Poly.zero(2)]).degree()

    def test_key_sums_match_total_degree(self):
        # degree and the other degree readings sum whole keys (an Endo is t-free);
        # the oracle is the per-component total_degree, which drops the t slot
        sources = [selfcheck.sample_tame_case(k) for k in range(100)]
        maps = sources + [normalize(phi).result for phi in sources]
        maps.append(Endo([Poly.zero(3), x(3, 2) ** 4 + x(3, 1), x(3, 3)]))
        for sigma in maps:
            expected = max(f.total_degree() for f in sigma.components)
            assert sigma._top_degree() == sigma.degree() == expected
            assert not sigma.is_affine()
        zero = Endo([Poly.zero(2), Poly.zero(2)])
        assert zero._top_degree() == float("-inf")
        assert not zero.is_affine()
        with pytest.raises(DimensionError):
            AffineMap.from_endo(zero)
        affine = Endo([x(2, 2) + 1, 2 * x(2, 1)])
        assert affine._top_degree() == affine.degree() == 1 and affine.is_affine()
        assert AffineMap.from_endo(affine).to_endo() == affine

    def test_affine_part(self):
        sigma = Endo([x(2, 1) + 3 + 2 * x(2, 2) + x(2, 2) ** 2, x(2, 2)])
        assert sigma.affine_part() == Endo([x(2, 1) + 2 * x(2, 2) + 3, x(2, 2)])

    def test_nagata_affine_part_is_identity(self):
        assert nagata_endo().affine_part() == Endo.identity(3)
        assert nagata_endo().has_identity_affine_part()

    def test_affine_part_fixes_affine_maps(self):
        alpha = Endo([x(2, 1) + x(2, 2), x(2, 2) + 1])
        assert alpha.affine_part() == alpha

    def test_has_identity_affine_part(self):
        assert shear2().has_identity_affine_part()
        assert not Endo([2 * x(2, 1), x(2, 2)]).has_identity_affine_part()

    def test_identity_affine_part_matches_truncation(self):
        # the key test agrees with comparing the truncated map to the identity
        # on each map and on its copy with the affine part replaced by the identity
        rng = random.Random(4242)
        agree = set()
        for _ in range(200):
            sigma = selfcheck.random_endo(rng, rng.randint(1, 4))
            n = sigma.n
            parts = zip(sigma.components, sigma.affine_part().components, Poly.variables(n))
            tau = Endo([f - a + v for f, a, v in parts])
            for rho in (sigma, tau):
                expected = rho.affine_part() == Endo.identity(n)
                assert rho.has_identity_affine_part() == expected
                agree.add(expected)
        assert agree == {True, False}

    @pytest.mark.parametrize(
        "components, expected",
        [
            ([x(3, 1) + x(3, 2) ** 2, x(3, 2) + x(3, 1) * x(3, 3), x(3, 3)], True),
            ([x(3, 1), 2 * x(3, 2) + x(3, 1) ** 2, x(3, 3)], False),  # 2*x2
            ([x(3, 1), x(3, 2) + x(3, 3), x(3, 3) + x(3, 1) ** 2], False),  # extra x3
            ([x(3, 1) + 1 + x(3, 2) ** 2, x(3, 2), x(3, 3)], False),  # constant
            ([x(3, 2) ** 2, x(3, 2), x(3, 3)], False),  # x1 missing
            ([x(3, 1), Poly.zero(3), x(3, 3) + x(3, 2) ** 2], False),  # zero component
        ],
    )
    def test_identity_affine_part_by_hand(self, components, expected):
        sigma = Endo(components)
        assert sigma.has_identity_affine_part() is expected
        assert (sigma.affine_part() == Endo.identity(3)) is expected

    def test_components_must_be_t_free(self):
        with pytest.raises(DimensionError):
            Endo([Poly.t(1)])


class TestTrustedResults:
    """compose and ParamEndo.specialize build their results past the
    constructor's checks; the public constructor keeps every check."""

    @pytest.mark.parametrize(
        "cls, components, message",
        [
            (Endo, [x(2, 1) + Poly.t(2), x(2, 2)], "endomorphism components must not involve t"),
            (Endo, [x(3, 1), x(3, 2)], "component has 3 variables, expected 2 (one per component)"),
            (Endo, [x(2, 1), "x2"], "components must be Poly values"),
            (Endo, [], "an endomorphism needs at least one component"),
            (ParamEndo, [], "a parametric map needs at least one component"),
            (ParamEndo, [x(3, 1), x(3, 2)], "components must be polynomials in n variables and t"),
        ],
        ids=["t-component", "nvars-mismatch", "not-a-poly", "empty", "param-empty", "param-nvars"],
    )
    def test_public_constructor_still_checks(self, cls, components, message):
        with pytest.raises(DimensionError) as info:
            cls(components)
        assert str(info.value) == message

    def test_results_survive_revalidation(self):
        results = []
        for k in range(24):
            psi = normalize(sample_suite_case(k)).result
            valuation = degeneration_data(psi).valuation
            curve = torus_conjugate(psi, valuation)
            action = TorusAction(psi.n, valuation)
            for t0 in (1, -1, Fraction(1, 2), Fraction(-2, 3)):
                results.append(curve.specialize(t0))
                inner = psi.compose(action.at(t0).to_endo())
                results += [inner, action.at(1 / Fraction(t0)).to_endo().compose(inner)]
        for r in results:
            assert type(r.components) is tuple
            assert Endo(list(r.components)) == r


class TestPredicates:
    def test_is_triangular(self):
        sigma = Endo([x(3, 1) + x(3, 2) ** 3, 2 * x(3, 2) + 5, x(3, 3)])
        assert sigma.is_triangular()

    def test_is_triangular_rejects_earlier_variable(self):
        assert not Endo([x(2, 1), x(2, 2) + x(2, 1) ** 2]).is_triangular()

    def test_is_triangular_needs_nonzero_scaling(self):
        assert not Endo([x(2, 2), x(2, 2)]).is_triangular()

    def test_is_affine(self):
        assert Endo([x(2, 1) + x(2, 2), x(2, 2) + 1]).is_affine()
        assert not shear2().is_affine()
        assert not Endo([x(2, 1) + x(2, 2), x(2, 1) + x(2, 2)]).is_affine()


class TestJacobian:
    def test_identity(self):
        assert Endo.identity(3).jacobian_det() == Poly.const(3, 1)

    def test_two_by_two(self):
        sigma = Endo([x(2, 1) * x(2, 2), x(2, 2)])
        assert sigma.jacobian_det() == x(2, 2)

    def test_nagata_jacobian_is_one(self):
        nagata = nagata_endo()
        assert nagata.jacobian_det() == Poly.const(3, 1)
        # oracle: numeric determinants of the evaluated matrix at random points
        rng = random.Random(31)
        matrix = nagata.jacobian_matrix()
        for _ in range(10):
            a = random_point(rng, 3)
            rows = [[entry.evaluate(a) for entry in row] for row in matrix]
            assert numeric_det(rows) == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "empty matrix"),
            ([[x(2, 1), x(2, 2)]], "determinant needs a square matrix"),
            ([[x(2, 1), x(2, 2)], [x(3, 1), x(2, 2)]], "matrix entries must share nvars"),
        ],
        ids=["empty", "not-square", "mixed-nvars"],
    )
    def test_poly_det_rejects_malformed_matrices(self, rows, message):
        with pytest.raises(DimensionError) as info:
            poly_det(rows)
        assert str(info.value) == message

    def test_poly_det_matches_numeric_det_on_random_matrices(self):
        rng = random.Random(63)
        for n in (2, 3, 4):
            for _ in range(8):
                rows = [
                    [Poly.const(n, Fraction(rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)
                ]
                numeric = numeric_det([[e.constant_term() for e in row] for row in rows])
                assert poly_det(rows) == Poly.const(n, numeric)

    def test_poly_det_matches_leibniz_oracle(self):
        rng = random.Random(2009)
        zeros = 0
        for trial in range(160):
            n = 1 + trial % 4
            with_t = trial % 3 == 0
            rows = [[random_entry(rng, n, with_t) for _ in range(n)] for _ in range(n)]
            if trial % 10 == 9:
                rows[rng.randrange(n)] = [Poly.zero(n)] * n
            det = poly_det(rows)
            zeros += det.is_zero
            assert det.terms() == leibniz_det(rows)
        assert 16 <= zeros < 100  # the zero rows, and some that vanish by chance

    def test_poly_det_at_the_coefficient_bound(self):
        # Single-term entries in a permuted diagonal: the determinant's one
        # coefficient is the product of the rows' l1 norms, the largest value
        # the packed fields are sized for.  Dense rows of +-(2^k - 1) put
        # full-size coefficients of both signs next to each other.
        rng = random.Random(1609)
        for trial in range(60):
            n = 1 + trial % 4
            k = rng.choice((1, 2, 7, 31, 64))
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[Poly.zero(n)] * n for _ in range(n)]
            for i, j in enumerate(perm):
                key = tuple(rng.randint(0, 4) for _ in range(n + 1))
                rows[i][j] = Poly(n, {key: rng.choice((-1, 1)) * (2**k - 1)})
            assert poly_det(rows).terms() == leibniz_det(rows)
            corner = 2**k - 1
            dense = [
                [
                    Poly(n, {(e,) + (0,) * n: rng.choice((-corner, corner)) for e in range(3)})
                    if rng.random() < 0.7
                    else Poly.zero(n)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert poly_det(dense).terms() == leibniz_det(dense)

    def test_poly_det_of_a_dense_power(self):
        # the determinant's 800 coefficients sit in one packed int between
        # long runs of empty fields, which the decode must skip quickly
        sigma = Endo([(x(2, 1) + x(2, 2)) ** 800, x(2, 2)])
        (a, b), (c, d) = sigma.jacobian_matrix()
        start = time.perf_counter()
        det = poly_det([[a, b], [c, d]])
        assert time.perf_counter() - start < 5
        assert det == a * d - b * c
        assert det == 800 * (x(2, 1) + x(2, 2)) ** 799

    def test_jacobian_det_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(271)
        checked = 0
        for trial in range(30):
            n = 2 + trial % 3
            sigma = selfcheck.random_endo(rng, n)
            jacobian = sigma.jacobian_det()
            if jacobian.is_constant():
                continue
            symbols = sympy.symbols(f"x1:{n + 1}")

            def to_sympy(f):
                return sum(
                    sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(v**e for v, e in zip(symbols, key)))
                    for key, c in f.terms().items()
                )

            matrix = sympy.Matrix([to_sympy(f) for f in sigma.components]).jacobian(symbols)
            assert sympy.expand(matrix.det() - to_sympy(jacobian)) == 0
            checked += 1
        assert checked >= 15

    def test_chain_rule_at_points(self):
        rng = random.Random(47)
        for _ in range(15):
            s, u = random_endo(rng, 2), random_endo(rng, 2)
            composed = s.compose(u)
            jc, js, ju = composed.jacobian_det(), s.jacobian_det(), u.jacobian_det()
            for _ in range(5):
                a = random_point(rng, 2)
                assert jc.evaluate(a) == js.evaluate(u(a)) * ju.evaluate(a)


class TestEvaluation:
    def test_identity(self):
        a = (Fraction(1), Fraction(2, 3))
        assert Endo.identity(2)(a) == a

    def test_simple(self):
        assert shear2()((1, 2)) == (5, 2)

    def test_point_of_the_wrong_length(self):
        for point in ((1,), (1, 2, 3)):
            with pytest.raises(DimensionError) as info:
                shear2().evaluate(point)
            assert str(info.value) == "expected a point of length 2"

    def test_composition_evaluation_property(self):
        rng = random.Random(505)
        for _ in range(25):
            n = rng.choice([2, 3])
            s, u = random_endo(rng, n), random_endo(rng, n)
            a = random_point(rng, n)
            assert s.compose(u)(a) == s(u(a))


class TestCoeffVector:
    def test_monomial_order_frozen(self):
        assert monomials_upto(2, 2) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
        ]

    def test_univariate_example(self):
        sigma = Endo([3 * x(1, 1) + 2])
        assert sigma.coeff_vector(1).entries == (Fraction(2), Fraction(3))

    def test_vector_length(self):
        rng = random.Random(3)
        sigma = random_endo(rng, 2, max_degree=2)
        vec = sigma.coeff_vector(2)
        assert len(vec.entries) == 2 * comb(4, 2) == 12

    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.choice([1, 2, 3])
            sigma = random_endo(rng, n, max_degree=3)
            d = max(sigma.degree(), 1)
            assert Endo.from_coeff_vector(sigma.coeff_vector(d)) == sigma

    def test_filtration_error(self):
        with pytest.raises(FiltrationError) as info:
            shear2().coeff_vector(1)
        assert str(info.value) == "degree 2 endomorphism does not lie in the degree-1 filtration"

    def test_zero_map_lies_in_every_filtration(self):
        zero = Endo([Poly.zero(2), Poly.zero(2)])
        for d in (0, 1, 3):
            vector = zero.coeff_vector(d)
            assert vector.entries == (0,) * (2 * comb(2 + d, d))
            assert Endo.from_coeff_vector(vector) == zero

    def test_bad_entry_count(self):
        with pytest.raises(FiltrationError):
            CoeffVector(2, 1, [Fraction(1)] * 5)

    @pytest.mark.parametrize("bad", [True, 2.0, -1], ids=repr)
    def test_coeff_vector_degree_is_an_exact_int(self, bad):
        # True and 2.0 would build d=True and d=2.0; -1 fits no filtration, not even zero's
        message = "^d must be non-negative$" if bad == -1 else f"^d must be an int, got {bad!r}$"
        for sigma in (Endo.identity(2), Endo([Poly.zero(2), Poly.zero(2)])):
            with pytest.raises(DimensionError, match=message):
                sigma.coeff_vector(bad)

    @pytest.mark.parametrize("bad", [True, 2.0], ids=repr)
    @pytest.mark.parametrize("slot", ["n", "d"])
    def test_coeff_vector_fields_are_exact_ints(self, slot, bad):
        args = {"n": 1, "d": 1, "entries": [0, 1], slot: bad}
        with pytest.raises(DimensionError, match=f"^{slot} must be an int, got {bad!r}$"):
            CoeffVector(**args)


class TestDegreeUnderConjugation:
    def test_linear_conjugation_preserves_degree(self):
        rng = random.Random(220)
        alpha = Endo([x(2, 1) + 2 * x(2, 2), x(2, 2) - x(2, 1)])
        alpha_inv = Endo([
            (x(2, 1) - 2 * x(2, 2)) / 3,
            (x(2, 1) + x(2, 2)) / 3,
        ])
        assert alpha.compose(alpha_inv) == Endo.identity(2)
        for _ in range(10):
            sigma = random_endo(rng, 2)
            try:
                d = sigma.degree()
            except DegenerateInput:
                continue
            conj = alpha_inv.compose(sigma).compose(alpha)
            assert conj.degree() == d


class TestRendering:
    def test_str_round_shape(self):
        assert str(Endo.identity(2)) == "[x1, x2]"
        assert str(shear2()) == "[x2^2 + x1, x2]"
