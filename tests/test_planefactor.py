"""Tests for the plane degree-reduction factorization."""

import json
import random
from fractions import Fraction
from hashlib import sha256

import pytest

from polyauto import Poly, parse_endo, selfcheck
from polyauto.endo import Endo
from polyauto.errors import DegenerateInput, DimensionError, NotAnAutomorphism
from polyauto.groups import (
    AffineMap,
    OpaqueGenerator,
    TriangularMap,
    Word,
    format_word,
    random_tame_word,
)
from polyauto.planefactor import (
    PlaneFactorization,
    factor_plane,
    is_plane_automorphism,
    leading_form,
)


def x(i):
    return Poly.variable(2, i)


class TestLeadingForm:
    def test_picks_top_degree(self):
        assert leading_form(x(1) + x(2) ** 3) == x(2) ** 3

    def test_mixed_terms(self):
        p = x(1) ** 2 * x(2) + x(1) * x(2) + 1
        assert leading_form(p) == x(1) ** 2 * x(2)

    def test_constant(self):
        assert leading_form(Poly.const(2, 7)) == Poly.const(2, 7)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            leading_form(Poly.zero(2))


class TestFactorPlane:
    def test_affine_input_single_letter(self):
        sigma = Endo([x(1) + x(2), x(2) + 1])
        fac = factor_plane(sigma)
        assert len(fac.word) == 1
        assert isinstance(fac.word.letters[0][0], AffineMap)
        assert fac.word.to_endo() == sigma

    def test_identity(self):
        fac = factor_plane(Endo.identity(2))
        assert fac.word.to_endo() == Endo.identity(2)

    def test_swapped_shear(self):
        sigma = Endo([x(2) + x(1) ** 2, x(1)])
        fac = factor_plane(sigma)
        assert fac.word.to_endo() == sigma
        kinds = [type(gen).__name__ for gen, _ in fac.word.letters]
        assert kinds == ["TriangularMap", "AffineMap"]
        assert len(fac.steps) == 1

    def test_triangular_input(self):
        sigma = Endo([2 * x(1) + x(2) ** 3 + 1, x(2) - 5])
        fac = factor_plane(sigma)
        assert fac.word.to_endo() == sigma

    def test_non_automorphism_product(self):
        with pytest.raises(NotAnAutomorphism) as info:
            factor_plane(Endo([x(1), x(1) * x(2)]))
        assert info.value.certificate["reason"] == "jacobian"
        assert info.value.certificate["jacobian"] == "x1"

    def test_non_automorphism_square(self):
        with pytest.raises(NotAnAutomorphism) as info:
            factor_plane(Endo([x(1) ** 2, x(2)]))
        assert info.value.certificate["reason"] == "jacobian"

    def test_equal_degree_non_proportional_rejected(self):
        sigma = Endo([x(1) + x(2) ** 2, x(2) + x(1) ** 2])
        ok, certificate = is_plane_automorphism(sigma)
        assert not ok
        # jacobian 1 - 4*x1*x2 is non-constant, so the fast path certifies it
        assert certificate.reason == "jacobian"

    def test_wrong_dimension(self):
        for decide in (factor_plane, is_plane_automorphism):
            with pytest.raises(DimensionError) as info:
                decide(Endo.identity(3))
            assert str(info.value) == "plane factorization is defined for n = 2 only"

    def test_degree_sums_strictly_decrease(self):
        word = random_tame_word(2, 97, 5, 3)
        sigma = word.to_endo()
        fac = factor_plane(sigma)
        sums = [sum(step.before) for step in fac.steps] + (
            [sum(fac.steps[-1].after)] if fac.steps else []
        )
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_multidegrees_chain_down_to_affine(self):
        for seed in (3, 11, 97):
            sigma = random_tame_word(2, seed, 5, 3).to_endo()
            fac = factor_plane(sigma)
            if fac.steps:
                assert fac.steps[-1].after == (1, 1)
                for step in fac.steps:
                    d1, d2 = step.before
                    assert max(d1, d2) % min(d1, d2) == 0

    def test_alternation_enforced_by_type(self):
        beta = TriangularMap([1, 1], [x(2) ** 2, Poly.zero(2)])
        word = Word([(beta, 1), (beta, -1)])
        with pytest.raises(DegenerateInput):
            PlaneFactorization(word, Endo.identity(2))

    def test_opaque_letter_rejected(self):
        sigma = Endo([x(1) + x(2) ** 2, x(2)])
        with pytest.raises(DegenerateInput) as info:
            PlaneFactorization(Word([(OpaqueGenerator("phi", sigma), 1)]), sigma)
        assert str(info.value) == "plane factorizations use only affine/triangular letters"


class TestIsPlaneAutomorphism:
    def test_true_with_certificate(self):
        ok, fac = is_plane_automorphism(Endo([x(1) + x(2) ** 2, x(2)]))
        assert ok
        assert fac.word.to_endo() == Endo([x(1) + x(2) ** 2, x(2)])
        assert len(fac.word) == 1  # the identity affine letter that ends it is dropped

    def test_false_with_certificate(self):
        ok, certificate = is_plane_automorphism(Endo([x(1) ** 2, x(2)]))
        assert not ok
        assert certificate.reason == "jacobian"
        assert certificate.jacobian == 2 * x(1)

    def test_rejection_soundness_on_corpus(self):
        # every rejected map here has a non-constant Jacobian or fails
        # injectivity at sampled rational points
        rejected = [
            Endo([x(1), x(1) * x(2)]),
            Endo([x(1) ** 2, x(2)]),
            Endo([x(1) * x(2), x(2) ** 2]),
            Endo([x(1) + x(2) ** 2, x(2) + x(1) ** 2]),
        ]
        for sigma in rejected:
            ok, certificate = is_plane_automorphism(sigma)
            assert not ok
            jac = sigma.jacobian_det()
            if jac.is_constant() and not jac.is_zero:
                points = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))]
                values = {sigma(p) for p in points}
                assert len(values) < len(points)


EQUAL = "equal degrees but leading forms are not proportional"


class TestRejectionsBehindTheJacobian:
    """The reduction's own rejections, reached by forcing the Jacobian pre-check
    to pass: with a true Jacobian each of these maps fails that pre-check first."""

    @pytest.mark.parametrize(
        "text, reason, detail, stage, multidegree",
        [
            ("[x1 + x2^3, x2 + x1^2]", "divisibility",
             "deg f = 3 is not a multiple of deg g = 2", 0, ["3", "2"]),
            ("[x1 + x2^2, x2 + x1^3]", "divisibility",
             "deg g = 3 is not a multiple of deg f = 2", 0, ["2", "3"]),
            ("[x1 + x2^2, x2 + x1^2]", "non-proportional", EQUAL, 0, ["2", "2"]),
            ("[x1 + x1*x2^3, x2 + x1^2]", "non-proportional",
             "leading form of f is not proportional to the power of that of g", 0, ["4", "2"]),
            ("[x1 + x2^2, x2 + x1^3*x2]", "non-proportional",
             "leading form of g is not proportional to the power of that of f", 0, ["2", "4"]),
            ("[x1^2, 5]", "constant-component",
             "a component is constant while the other has degree >= 2", 0, ["2", "0"]),
            ("[x1 + x2, x1 + x2]", "singular-affine",
             "reduction ended in a singular affine map", 0, ["1", "1"]),
            ("[x1 + x2^3 + (x2 + x1^2)^2, x2 + x1^2]", "divisibility",
             "deg f = 3 is not a multiple of deg g = 2", 1, ["3", "2"]),
        ],
    )
    def test_certificate(self, monkeypatch, text, reason, detail, stage, multidegree):
        monkeypatch.setattr(Endo, "jacobian_det", lambda self: Poly.const(2, 1))
        with pytest.raises(NotAnAutomorphism) as info:
            factor_plane(parse_endo(text))
        assert str(info.value) == f"not an automorphism: {detail}"
        assert info.value.certificate == {
            "reason": reason,
            "stage": stage,
            "multidegree": multidegree,
            "detail": detail,
            "jacobian": "1",
        }

    def test_golden(self, monkeypatch):
        # Byte pin of the words, steps and certificates past a forced pre-check:
        # 400 random maps and 400 near-miss plane words, a tame map whose first
        # component gains a*x2^max(2, deg).  Every reason but ``jacobian`` fires,
        # at stage 0 and later, and about 100 maps factor.
        monkeypatch.setattr(Endo, "jacobian_det", lambda self: Poly.const(2, 1))
        rng = random.Random(34)
        maps = [selfcheck.random_endo(rng, 2) for _ in range(400)]
        for s in range(400):
            sigma = random_tame_word(2, 34_000 + s, 1 + s % 6, 2).to_endo()
            f, g = sigma.components
            maps.append(Endo([f + rng.choice([-2, -1, 1, 3]) * x(2) ** max(2, sigma.degree()), g]))
        digest = sha256()

        def put(text):
            digest.update(text.encode() + b"\n")

        for sigma in maps:
            try:
                fac = factor_plane(sigma)
            except NotAnAutomorphism as error:
                put(str(error))
                put(json.dumps(error.certificate))
            else:
                put(format_word(fac.word))
                for step in fac.steps:
                    put(str(step))
        assert digest.hexdigest().startswith("317ce4b1")


class TestRoundTrip:
    def test_seeded_plane_words_recompose(self):
        for k in range(40):
            word = random_tame_word(2, 40_000 + k, 1 + k % 6, 3)
            sigma = word.to_endo()
            fac = factor_plane(sigma)
            assert fac.word.to_endo() == sigma

    def test_recovered_word_letters_are_plane_generators(self):
        word = random_tame_word(2, 4242, 4, 3)
        sigma = word.to_endo()
        fac = factor_plane(sigma)
        for gen, exp in fac.word.letters:
            assert isinstance(gen, (AffineMap, TriangularMap))
            assert exp in (1, -1)

    def test_corpus_golden(self):
        # Byte pin of the words, steps and rejections over a fixed corpus: 800
        # seeded plane words (their letters fuse, some to the identity) and 300
        # random maps (mostly Jacobian rejections); the sha256 prefix pins the bytes.
        digest = sha256()

        def put(text):
            digest.update(text.encode() + b"\n")

        for s in range(400):
            for d in (2, 3):
                fac = factor_plane(random_tame_word(2, s, 1 + s % 6, d).to_endo())
                put(format_word(fac.word))
                for step in fac.steps:
                    put(str(step))
        rng = random.Random(5)
        for _ in range(300):
            try:
                fac = factor_plane(selfcheck.random_endo(rng, 2))
            except NotAnAutomorphism as error:
                put(str(error))
                put(json.dumps(error.certificate))
            else:
                put(format_word(fac.word))
        assert digest.hexdigest().startswith("3074949f")
