"""Tests for normalization, torus conjugation, limits, and closure witnesses.

Frozen expected values for the Nagata map were derived by hand before the
module was written: substituting (t^3 x1, t x2, t x3) into the components,
dividing by t^3 (resp. t), and reading off the t = 0 limit.
"""

import random
from fractions import Fraction
from math import inf

import pytest

import polyauto._linalg
import polyauto.degeneration
from polyauto import Poly
from polyauto.degeneration import (
    ClosureSample,
    DegenerationData,
    NormalizationRecord,
    ParamEndo,
    TorusAction,
    WitnessReport,
    closure_witness,
    degenerate,
    degeneration_data,
    normalize,
    specialize,
    torus_conjugate,
    triangular_witness,
    verify_limit,
    witness_report,
)
from polyauto.endo import Endo
from polyauto.errors import (
    ConsistencyError,
    DimensionError,
    InvalidSample,
    NormalizationRequired,
    NotACoordinate,
    NothingToNormalize,
    OverringViolation,
    SingularAffinePart,
)
from polyauto.groups import AffineMap, nagata, random_tame_word
from polyauto.parsing import parse_endo
from polyauto.selfcheck import sample_tame_case
from test_poly import assert_canonical


def x(nvars, i):
    return Poly.variable(nvars, i)


def shear_xy():
    return Endo([x(2, 1) + x(2, 2) ** 2, x(2, 2)])


def nagata_curve_components():
    # hand-derived: (x1 - 2 x2 (x2^2 + t^2 x1 x3) - t^2 x3 (x2^2 + t^2 x1 x3)^2,
    #                x2 + t^2 x3 (x2^2 + t^2 x1 x3), x3)
    x1, x2, x3 = Poly.variables(3)
    t = Poly.t(3)
    delta_t = x2**2 + t**2 * x1 * x3
    return (
        x1 - 2 * x2 * delta_t - t**2 * x3 * delta_t**2,
        x2 + t**2 * x3 * delta_t,
        x3,
    )


def nagata_limit():
    x1, x2, x3 = Poly.variables(3)
    return Endo([x1 - 2 * x2**3, x2, x3])


class TestNormalize:
    def test_already_normalized_is_untouched(self):
        record = normalize(shear_xy())
        assert record.affine_inverse is None
        assert record.transposition is None
        assert record.result == shear_xy()

    def test_transposition_case(self):
        phi = Endo([x(2, 1), x(2, 2) + x(2, 1) ** 2])
        record = normalize(phi)
        assert record.affine_inverse is None
        assert record.transposition == (1, 2)
        assert record.result == shear_xy()

    def test_affine_correction_case(self):
        phi = Endo([2 * x(2, 1) + x(2, 2) ** 2, x(2, 2)])
        record = normalize(phi)
        assert record.transposition is None
        assert record.affine_inverse is not None
        assert record.result == Endo([x(2, 1) + x(2, 2) ** 2 / 2, x(2, 2)])

    def test_affine_input_rejected(self):
        with pytest.raises(NothingToNormalize):
            normalize(Endo([x(2, 1) + x(2, 2), x(2, 2) + 1]))
        with pytest.raises(NothingToNormalize) as info:
            normalize(Endo([Poly.zero(2), Poly.zero(2)]))
        assert str(info.value) == "the all-zero map cannot be normalized"
        assert info.value.certificate == {"endo": "[0, 0]"}

    def test_singular_affine_part_certified(self):
        phi = Endo([x(2, 1) + x(2, 2), x(2, 1) + x(2, 2) + x(2, 1) ** 2])
        with pytest.raises(SingularAffinePart) as info:
            normalize(phi)
        assert str(info.value) == "the affine part is singular, so the input is not an automorphism"
        assert info.value.certificate == {
            "endo": "[x1 + x2, x1^2 + x1 + x2]",
            "affine_part": "[x1 + x2, x1 + x2]",
        }

    def test_affine_correction_eliminates_once(self, monkeypatch):
        calls = []
        eliminate = polyauto._linalg._eliminate

        def counted(matrix, augment):
            calls.append(augment)
            return eliminate(matrix, augment)

        monkeypatch.setattr(polyauto._linalg, "_eliminate", counted)
        phi = parse_endo("[2*x1 + x2 + 3 + x2^2, x1 - 1/3*x2 + x1^2*x2]")
        record = normalize(phi)
        assert calls == [True]  # one Gauss-Jordan pass inverts; no determinant first
        alpha = AffineMap.from_endo(phi.affine_part())
        assert record.affine_inverse == alpha.inverse()
        assert record.affine_inverse.to_endo().compose(alpha.to_endo()) == Endo.identity(2)

    @pytest.mark.parametrize(
        "text",
        [
            "[x1 + x2^2, 1 + x1^2]",  # affine part [x1, 1]: rank one
            "[1 + x1^2, x2^2]",  # affine part constant
            "[x1^2, x2^2]",  # affine part zero
        ],
    )
    def test_degenerate_affine_parts_certified(self, text):
        phi = parse_endo(text)
        with pytest.raises(SingularAffinePart) as info:
            normalize(phi)
        assert info.value.certificate == {"endo": str(phi), "affine_part": str(phi.affine_part())}

    def test_result_invariants_enforced(self):
        with pytest.raises(ConsistencyError, match="^normalization must leave a moving first"):
            NormalizationRecord(None, None, Endo.identity(2))
        with pytest.raises(ConsistencyError) as info:
            NormalizationRecord(None, None, Endo([2 * x(2, 1) + x(2, 2) ** 2, x(2, 2)]))
        assert str(info.value) == "normalization must yield identity affine part"


class TestDegenerationData:
    def test_simple_shear(self):
        data = degeneration_data(shear_xy())
        assert data.obstruction == x(2, 2) ** 2
        assert data.valuation == 2
        assert data.limit_shear == x(2, 2) ** 2
        assert data.source_degree == 2

    def test_nagata(self):
        forward, _ = nagata()
        data = degeneration_data(forward)
        x2, x3 = x(3, 2), x(3, 3)
        assert data.obstruction == -2 * x2**3 - x3 * x2**4
        assert data.valuation == 3
        assert data.limit_shear == -2 * x2**3
        assert data.source_degree == 5

    def test_not_a_coordinate(self):
        # first component x1*x2 + x1 is divisible by x1
        psi = Endo([x(2, 1) * x(2, 2) + x(2, 1), x(2, 2)])
        with pytest.raises(NotACoordinate) as info:
            degeneration_data(psi)
        assert "first_component" in info.value.certificate

    def test_normalization_required(self):
        with pytest.raises(NormalizationRequired):
            degeneration_data(Endo([2 * x(2, 1) + x(2, 2) ** 2, x(2, 2)]))
        with pytest.raises(NormalizationRequired):
            degeneration_data(Endo([x(2, 1), x(2, 2) + x(2, 1) ** 2]))
        affine = Endo([x(2, 1) + x(2, 2), x(2, 2)])
        with pytest.raises(NormalizationRequired) as info:
            degeneration_data(affine)
        assert str(info.value) == "degeneration needs degree at least 2"
        assert info.value.certificate == {"endo": str(affine), "degree": 1}

    def test_data_invariants_enforced(self):
        with pytest.raises(ConsistencyError):
            DegenerationData(Poly.zero(2), 2, Poly.zero(2), 3)
        with pytest.raises(ConsistencyError):
            DegenerationData(x(2, 2) ** 2, 1, x(2, 2) ** 2, 2)
        for shear in (x(2, 2) ** 3, Poly.zero(2)):  # not the obstruction's degree-2 part
            with pytest.raises(ConsistencyError) as info:
                DegenerationData(x(2, 2) ** 2 + x(2, 2) ** 3, 2, shear, 3)
            assert str(info.value) == "limit shear disagrees with the obstruction"


class TestTorusConjugate:
    def test_homogeneous_shear_is_fixed(self):
        curve = torus_conjugate(shear_xy(), 2)
        assert curve.components == tuple(shear_xy().components)
        assert not any(f.mentions_t() for f in curve.components)

    def test_mixed_shear_gains_t(self):
        psi = Endo([x(2, 1) + x(2, 2) ** 2 + x(2, 2) ** 3, x(2, 2)])
        curve = torus_conjugate(psi, 2)
        expected = x(2, 1) + x(2, 2) ** 2 + Poly.t(2) * x(2, 2) ** 3
        assert curve.components == (expected, x(2, 2))

    def test_nagata_curve_frozen(self):
        forward, _ = nagata()
        curve = torus_conjugate(forward, 3)
        assert curve.components == nagata_curve_components()
        assert curve.specialize(1) == forward

    def test_values_compare_and_hash_by_content(self):
        forward, _ = nagata()
        for other in (parse_endo(str(forward)), Endo.identity(3).compose(forward)):
            assert other == forward and hash(other) == hash(forward)
        curves = [torus_conjugate(psi, 3) for psi in (forward, parse_endo(str(forward)))]
        assert curves[0] == curves[1] and hash(curves[0]) == hash(curves[1])
        assert str(curves[0]) == str(curves[1])
        assert repr(curves[0]) == f"ParamEndo({str(curves[1])!r})"
        # unequal content, and a map against a curve, compare unequal either way round
        other_curve = ParamEndo(curves[0].components[::-1])
        for a, b in [(forward, Endo.identity(3)), (curves[0], other_curve), (forward, curves[0])]:
            assert a != b and b != a and not a == b and not b == a
        x1 = x(2, 1)
        assert 1 - x1 == -(x1 - 1)
        # a constant equals its coefficient, so it must hash as one too
        for p, c in [(Poly.const(2, 1), 1), (Poly.const(2, Fraction(-1, 2)), Fraction(-1, 2)),
                     (Poly.zero(2), 0)]:
            assert p == c and hash(p) == hash(c)
            assert len({p, c}) == 1 and c in {p}
        # so every constant of one value is equal, whatever its variable count
        assert len({Poly.const(2, 1), 1, Poly.const(3, 1)}) == 1
        assert len({1, Poly.const(3, 1), Poly.const(2, 1)}) == 1
        assert Poly.zero(2) == Poly.zero(3) and Poly.const(2, 1) != Poly.const(3, 2)
        assert x(2, 1) != x(3, 1) and x(3, 1) != Poly.variable(3, 2)

    def test_wrong_weight_trips_overring_check(self):
        psi = Endo([x(2, 1) + x(2, 2) ** 2 + x(2, 2) ** 3, x(2, 2)])
        with pytest.raises(OverringViolation) as info:
            torus_conjugate(psi, 3)
        assert info.value.certificate["component"] == 1
        assert info.value.certificate["required_power"] == 3

    def test_weight_below_two_rejected(self):
        with pytest.raises(DimensionError):
            torus_conjugate(shear_xy(), 1)
        with pytest.raises(DimensionError, match="^torus weight must be at least 2$"):
            TorusAction(2, 1)
        with pytest.raises(DimensionError, match="^torus action needs at least one variable$"):
            TorusAction(0, 2)

    @pytest.mark.parametrize("weight", [2.0, 2.5, "2", True])
    def test_weight_must_be_an_int(self, weight):
        with pytest.raises(DimensionError):
            torus_conjugate(shear_xy(), weight)
        with pytest.raises(DimensionError):
            TorusAction(2, weight)
        with pytest.raises(DimensionError):
            TorusAction(weight, 3)

    def test_pole_in_a_later_component_certified(self):
        psi = Endo([x(2, 1) + x(2, 2) ** 2, x(2, 2) + 1])
        with pytest.raises(OverringViolation) as info:
            torus_conjugate(psi, 2)
        assert info.value.certificate == {
            "component": 2,
            "required_power": 1,
            "residual": "1",
        }

    def test_action_at_the_reciprocal_is_the_inverse(self):
        values = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 5)]
        for n in range(2, 5):
            for w in range(2, 6):
                action = TorusAction(n, w)
                for v in values:
                    assert action.at(1 / Fraction(v)) == action.at(v).inverse()

    @pytest.mark.parametrize("t0", [-2, Fraction(-1, 2), Fraction(3, 7)], ids=str)
    def test_action_is_the_checked_diagonal(self, t0):
        # at() skips elimination; the checked constructor and inverse must agree
        for n in range(1, 5):
            for w in (2, 3, 5):
                alpha = TorusAction(n, w).at(t0)
                scalings = [Fraction(t0) ** w] + [Fraction(t0)] * (n - 1)
                dense = AffineMap(
                    [[scalings[i] if i == j else 0 for j in range(n)] for i in range(n)],
                    [0] * n,
                )
                assert alpha == dense and hash(alpha) == hash(dense)
                assert alpha.inverse() == TorusAction(n, w).at(1 / Fraction(t0))


class TestSpecialize:
    def test_t_one_is_source(self):
        psi = Endo([x(2, 1) + x(2, 2) ** 2 + x(2, 2) ** 3, x(2, 2)])
        curve = torus_conjugate(psi, 2)
        assert specialize(curve, 1) == psi

    def test_t_zero_is_limit(self):
        psi = Endo([x(2, 1) + x(2, 2) ** 2 + x(2, 2) ** 3, x(2, 2)])
        curve = torus_conjugate(psi, 2)
        assert specialize(curve, 0) == shear_xy()

    def test_nagata_limit(self):
        forward, _ = nagata()
        curve = torus_conjugate(forward, 3)
        assert specialize(curve, 0) == nagata_limit()


class TestDegenerate:
    def test_fixed_point(self):
        assert degenerate(shear_xy()) == shear_xy()

    def test_nagata(self):
        forward, _ = nagata()
        assert degenerate(forward) == nagata_limit()

    def test_low_component_selected(self):
        psi = Endo(
            [x(3, 1) + x(3, 2) ** 2 * x(3, 3) + x(3, 2) ** 5, x(3, 2), x(3, 3)]
        )
        expected = Endo([x(3, 1) + x(3, 2) ** 2 * x(3, 3), x(3, 2), x(3, 3)])
        assert degenerate(psi) == expected

    def test_idempotence(self):
        forward, _ = nagata()
        once = degenerate(forward)
        assert degenerate(once) == once


class TestTriangularWitness:
    def test_transposed_shear(self):
        phi = Endo([x(2, 1), x(2, 2) + x(2, 1) ** 2])
        assert triangular_witness(phi) == shear_xy()

    def test_nagata(self):
        forward, _ = nagata()
        witness = triangular_witness(forward)
        assert witness == nagata_limit()
        assert witness.is_triangular()
        assert not witness.is_affine()

    def test_affine_correction_scales_shear(self):
        phi = Endo([2 * x(2, 1) + x(2, 2) ** 2, x(2, 2)])
        assert triangular_witness(phi) == Endo([x(2, 1) + x(2, 2) ** 2 / 2, x(2, 2)])

    def test_degree_bounds(self):
        forward, _ = nagata()
        witness = triangular_witness(forward)
        assert 2 <= witness.degree() <= forward.degree()


class TestVerifyLimit:
    def test_nagata_valuations(self):
        forward, _ = nagata()
        curve = torus_conjugate(forward, 3)
        report = verify_limit(curve, nagata_limit())
        assert report.passed
        assert report.valuations == (2, 2, inf)

    def test_zero_difference(self):
        curve = torus_conjugate(shear_xy(), 2)
        report = verify_limit(curve, shear_xy())
        assert report.passed
        assert report.valuations == (inf, inf)

    def test_limit_on_other_variables(self):
        with pytest.raises(DimensionError) as info:
            verify_limit(torus_conjugate(shear_xy(), 2), Endo.identity(3))
        assert str(info.value) == "curve and limit act on different variable counts"

    def test_wrong_limit_detected(self):
        forward, _ = nagata()
        curve = torus_conjugate(forward, 3)
        report = verify_limit(curve, Endo.identity(3))
        assert not report.passed
        assert report.valuations[0] == 0


FUSED_T0 = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 5), Fraction(-7, 3)]


def composed_conjugate(action, psi, t0):
    """at(1/t0) after psi after at(t0), by composing with the two diagonal maps."""
    return action.at(1 / Fraction(t0)).to_endo().compose(psi).compose(action.at(t0).to_endo())


def conjugate_terms(psi, weight, t0):
    """The conjugate on plain term dicts over Fractions: c*x^e in component i becomes
    c * t0^(weight*e1 + e2 + ... + en) / s_i, with s_1 = t0^weight and s_i = t0 after."""
    t0 = Fraction(t0)
    out = []
    for i, f in enumerate(psi.components):
        s = t0**weight if i == 0 else t0
        out.append({k: c * t0 ** (weight * k[0] + sum(k[1:-1])) / s for k, c in f.terms().items()})
    return out


def assert_fused_conjugate(psi, weight, t0):
    action = TorusAction(psi.n, weight)
    fused = action.conjugate(psi, t0)
    assert fused == composed_conjugate(action, psi, t0)
    assert [f.terms() for f in fused.components] == conjugate_terms(psi, weight, t0)
    for f in fused.components:
        assert_canonical(f)


class TestFusedConjugate:
    """TorusAction.conjugate, the closure check's regrade, against composition and
    against plain term dicts."""

    @pytest.fixture(scope="class")
    def fixture_sources(self):
        return [normalize(sample_tame_case(k)).result for k in range(100)]

    @pytest.mark.parametrize("t0", FUSED_T0, ids=str)
    def test_fixture_sources(self, t0, fixture_sources):
        # weights 2-4 cover odd w at t0 = -1, where the x1 factor and the first
        # component's outer factor are both -1
        for psi in fixture_sources:
            for weight in (2, 3, 4):
                assert_fused_conjugate(psi, weight, t0)

    def test_random_tame_words(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        t0s = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)

        @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
        @hypothesis.given(
            st.integers(2, 4), st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 5), t0s
        )
        def agrees(n, seed, length, weight, t0):
            assert_fused_conjugate(random_tame_word(n, seed, length, 2).to_endo(), weight, t0)

        agrees()

    def test_uses_no_curve_stage(self, monkeypatch):
        psi = normalize(sample_tame_case(7)).result
        expected = {t0: conjugate_terms(psi, 3, t0) for t0 in FUSED_T0}

        def forbidden(*args, **kwargs):
            raise AssertionError("the check must not follow the curve's path")

        monkeypatch.setattr(polyauto.degeneration, "torus_conjugate", forbidden)
        monkeypatch.setattr(ParamEndo, "specialize", forbidden)
        monkeypatch.setattr(Poly, "with_t_set", forbidden)
        for t0, terms in expected.items():
            fused = TorusAction(psi.n, 3).conjugate(psi, t0)
            assert [f.terms() for f in fused.components] == terms

    def test_zero_and_mismatched_maps_rejected(self):
        with pytest.raises(InvalidSample):
            TorusAction(2, 2).conjugate(shear_xy(), 0)
        with pytest.raises(DimensionError):
            TorusAction(3, 2).conjugate(shear_xy(), 2)


class TestClosureWitness:
    def test_nagata_samples(self):
        forward, _ = nagata()
        samples = closure_witness(forward, [1, -1])
        assert [s.t0 for s in samples] == [1, -1]
        for sample in samples:
            assert sample.image.degree() == 5
        assert samples[0].image == forward

    def test_homogeneous_shear_sample(self):
        samples = closure_witness(shear_xy(), [1])
        assert samples[0].image == shear_xy()

    def test_half_sample(self):
        phi = Endo([x(2, 1) + x(2, 2) ** 2 + x(2, 2) ** 3, x(2, 2)])
        samples = closure_witness(phi, [Fraction(1, 2)])
        expected = Endo([x(2, 1) + x(2, 2) ** 2 + x(2, 2) ** 3 / 2, x(2, 2)])
        assert samples[0].image == expected

    def test_zero_sample_rejected(self):
        with pytest.raises(InvalidSample):
            closure_witness(shear_xy(), [0])
        with pytest.raises(InvalidSample):
            closure_witness(witness_report(shear_xy()), [2, 0])

    def test_report_is_sampled_without_running_a_stage(self, monkeypatch):
        phi = parse_endo("[2*x1 + x2 + x2^3 + x1*x3^2, x2 - 1, x3 + x2^2]")
        report = witness_report(phi)
        expected = closure_witness(phi, FUSED_T0)
        assert [s.t0 for s in expected] == FUSED_T0
        for s in expected:
            assert s.torus_map == TorusAction(3, report.data.valuation).at(s.t0)

        def forbidden(*args, **kwargs):
            raise AssertionError("a report holds every stage that sampling needs")

        stages = ("normalize", "degeneration_data", "torus_conjugate", "_checked_limit", "verify_limit")
        for name in stages:
            monkeypatch.setattr(polyauto.degeneration, name, forbidden)
        assert closure_witness(report, FUSED_T0) == expected

    def test_map_runs_no_limit_stage(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sampling a map needs no limit")

        monkeypatch.setattr(polyauto.degeneration, "_checked_limit", forbidden)
        monkeypatch.setattr(polyauto.degeneration, "verify_limit", forbidden)
        forward, _ = nagata()
        assert [s.image.degree() for s in closure_witness(forward, [2, -1])] == [5, 5]

    @pytest.mark.parametrize("t0", [2, -1, Fraction(-1, 2), Fraction(3, 5)], ids=str)
    def test_corrupted_curve_is_caught(self, t0):
        report = witness_report(nagata()[0])
        terms = report.curve.components[0].terms()
        key = next(k for k in terms if k[:-1] + (k[-1] + 1,) not in terms)
        terms[key[:-1] + (key[-1] + 1,)] = terms.pop(key)  # one t-exponent off by one
        curve = ParamEndo([Poly(3, terms), *report.curve.components[1:]])
        with pytest.raises(ConsistencyError, match="not the expected conjugate"):
            corrupted = WitnessReport(
                report.source, report.normalization, report.data, curve, report.witness,
                report.limit_report,
            )
            closure_witness(corrupted, [t0])


ZERO_SAMPLE = "closure samples must be nonzero; t = 0 is the limit, not a sample"


class TestSingleOwners:
    """TorusAction._scalings alone rejects t0 = 0 and owns the int factors; _curve alone
    pairs degeneration_data with torus_conjugate."""

    @pytest.mark.parametrize("zero", [0, Fraction(0)], ids=repr)
    def test_zero_sample_is_one_error_raised_before_any_specialization(self, monkeypatch, zero):
        forward = nagata()[0]
        report = witness_report(forward)
        specialize = ParamEndo.specialize

        def guarded(curve, value):
            # the map's pipeline specializes its curve at t = 1 only
            if value != 1:
                raise AssertionError(f"the curve was specialized at t = {value}")
            return specialize(curve, value)

        monkeypatch.setattr(ParamEndo, "specialize", guarded)
        action = TorusAction(3, 3)
        entry_points = {
            "at": lambda: action.at(zero),
            "conjugate": lambda: action.conjugate(forward, zero),
            "closure_witness(map)": lambda: closure_witness(forward, [zero]),
            "closure_witness(report)": lambda: closure_witness(report, [zero]),
        }
        for name, call in entry_points.items():
            with pytest.raises(InvalidSample) as info:
                call()
            assert (str(info.value), info.value.certificate) == (ZERO_SAMPLE, {"sample": "0"}), name

    def test_the_action_is_the_only_zero_check(self, monkeypatch):
        # with the action's factors replaced, closure_witness reaches them at t0 = 0 unchecked
        class Reached(Exception):
            pass

        def scalings(action, t0):
            raise Reached(t0)

        forward = nagata()[0]
        report = witness_report(forward)
        monkeypatch.setattr(TorusAction, "_scalings", scalings)
        for source in (forward, report):
            with pytest.raises(Reached):
                closure_witness(source, [0])

    @pytest.mark.parametrize(
        "t0", [2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 5)], ids=str
    )
    @pytest.mark.parametrize("weight", [2, 3, 4])
    def test_scalings_are_the_powers_as_int_pairs(self, t0, weight):
        action = TorusAction(3, weight)
        pairs = action._scalings(t0)
        powers = [Fraction(t0) ** w for w in (weight, 1, 1)]
        assert pairs == [power.as_integer_ratio() for power in powers]
        assert all(type(a) is int and type(b) is int for a, b in pairs)
        assert action.at(t0) == AffineMap.diagonal(powers)

    def test_every_entry_point_pairs_the_stages_through_curve(self, monkeypatch):
        calls = []
        pair = polyauto.degeneration._curve

        def counted(psi):
            calls.append(psi)
            return pair(psi)

        monkeypatch.setattr(polyauto.degeneration, "_curve", counted)
        forward = nagata()[0]
        degenerate(forward)
        witness_report(forward)
        closure_witness(forward, [2])
        closure_witness(witness_report(forward), [2])
        assert calls == [forward] * 4


class TestNumeratorCheck:
    """closure_witness compares each sample image with the conjugate regraded on psi's int
    numerators, over one denominator; every corrupted image must fail that comparison."""

    NAGATA_T0 = [2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 5)]

    def sample_corrupted(self, monkeypatch, t0, corrupt):
        """closure_witness of the Nagata report at t0, with corrupt(terms, total) applied to
        the terms of the image's first component; total is that component's denominator."""
        report = witness_report(nagata()[0])
        psi = report.normalization.result
        first = TorusAction(3, report.data.valuation).conjugate(psi, t0).components[0]
        total = first._den
        specialize = ParamEndo.specialize

        def corrupted(curve, value):
            image = specialize(curve, value)
            terms = image.components[0].terms()
            corrupt(terms, total)
            return Endo([Poly(3, terms), *image.components[1:]])

        monkeypatch.setattr(ParamEndo, "specialize", corrupted)
        return closure_witness(report, [t0])

    @pytest.mark.parametrize("t0", NAGATA_T0, ids=str)
    def test_untouched_image_passes(self, monkeypatch, t0):
        [sample] = self.sample_corrupted(monkeypatch, t0, lambda terms, total: None)
        assert sample.image == TorusAction(3, 3).conjugate(nagata()[0], t0)

    @pytest.mark.parametrize("t0", NAGATA_T0, ids=str)
    def test_coefficient_off_by_one_over_total(self, monkeypatch, t0):
        def nudge(terms, total):
            key = max(terms)
            terms[key] += Fraction(1, total)

        with pytest.raises(ConsistencyError, match="not the expected conjugate"):
            self.sample_corrupted(monkeypatch, t0, nudge)

    @pytest.mark.parametrize("t0", NAGATA_T0, ids=str)
    def test_dropped_term(self, monkeypatch, t0):
        with pytest.raises(ConsistencyError, match="not the expected conjugate"):
            self.sample_corrupted(monkeypatch, t0, lambda terms, total: terms.pop(min(terms)))

    @pytest.mark.parametrize("t0", [*NAGATA_T0, -1], ids=str)
    def test_extra_term(self, monkeypatch, t0):
        # a constant term keeps the degree, so only the conjugate check can see it
        def extra(terms, total):
            assert (0, 0, 0, 0) not in terms
            terms[(0, 0, 0, 0)] = Fraction(1, total)

        with pytest.raises(ConsistencyError, match="not the expected conjugate"):
            self.sample_corrupted(monkeypatch, t0, extra)

    @pytest.mark.parametrize("t0", [-1, -2, Fraction(-1, 2), Fraction(-3, 5)], ids=str)
    def test_x1_factor_sign_at_odd_weight(self, monkeypatch, t0):
        # at odd w and negative t0 the x1 factor t0^w is negative; an image conjugated by
        # -t0^w in its place keeps every t-free term and the degree, but not the signs
        forward = nagata()[0]
        report = witness_report(forward)
        wrong = AffineMap.diagonal([-(Fraction(t0) ** 3), t0, t0])
        image = wrong.inverse().to_endo().compose(forward).compose(wrong.to_endo())
        assert image != TorusAction(3, 3).conjugate(forward, t0)
        assert image.degree() == forward.degree()
        monkeypatch.setattr(ParamEndo, "specialize", lambda curve, value: image)
        with pytest.raises(ConsistencyError, match="not the expected conjugate"):
            closure_witness(report, [t0])


class TestWitnessReport:
    def test_bundles_everything(self):
        forward, _ = nagata()
        report = witness_report(forward)
        assert report.witness == nagata_limit()
        assert report.data.valuation == 3
        assert report.limit_report.passed
        assert report.normalization.result == forward

    def test_exponent_past_the_recursion_limit(self):
        # conjugating x2^E takes a power chain of over 2000 steps
        e = 10**400 - 1
        report = witness_report(parse_endo(f"[x1 + x2^{e}, x2]"))
        assert report.data.valuation == e


def sample_suite_case(k, cap=800):
    """One seeded non-affine tame word, redrawn while above the term cap."""
    n = 2 + k % 3
    length = 1 + (k // 3) % 6
    for attempt in range(200):
        word = random_tame_word(n, 20_000 + 1000 * k + attempt, length, 3)
        endo = word.to_endo()
        try:
            degree = endo.degree()
        except Exception:
            continue
        if degree < 2:
            continue
        if max(len(f.terms()) for f in endo.components) > cap:
            continue
        return endo
    raise AssertionError(f"case {k}: sampler failed")


class TestSeededPipeline:
    def test_pipeline_invariants_on_random_tame_words(self):
        for k in range(0, 30):
            phi = sample_suite_case(k)
            record = normalize(phi)
            psi = record.result
            data = degeneration_data(psi)
            assert not data.obstruction.is_zero
            assert 2 <= data.valuation <= data.source_degree
            curve = torus_conjugate(psi, data.valuation)
            witness = degenerate(psi)
            report = verify_limit(curve, witness)
            assert report.passed
            assert witness.is_triangular()
            assert not witness.is_affine()

    def test_degree_rigidity_samples(self):
        for k in range(0, 12):
            phi = sample_suite_case(k)
            psi = normalize(phi).result
            data = degeneration_data(psi)
            curve = torus_conjugate(psi, data.valuation)
            for t0 in (1, -1, 2, Fraction(1, 2)):
                assert curve.specialize(t0).degree() == data.source_degree
            assert curve.specialize(0).degree() == data.valuation

    def test_shear_fixed_points_seeded(self):
        rng = random.Random(777)
        for _ in range(10):
            n = rng.choice([2, 3, 4])
            weight = rng.randint(2, 4)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                key = [0] * (n + 1)
                for _ in range(weight):
                    key[rng.randrange(1, n)] += 1  # trailing variables only
                terms[tuple(key)] = rng.randint(1, 5) * rng.choice([-1, 1])
            shear_poly = Poly(n, terms)
            if shear_poly.is_zero:
                continue
            shear = Endo(
                [x(n, 1) + shear_poly] + [x(n, i) for i in range(2, n + 1)]
            )
            assert degenerate(shear) == shear


def substituted_torus_conjugate(psi, weight):
    """The torus stage by substitution: x1 -> t^w x1, xi -> t xi, then divide by t^k."""
    n = psi.n
    t = Poly.t(n)
    images = [t**weight * x(n, 1)] + [t * x(n, i) for i in range(2, n + 1)]
    components = []
    for index, f in enumerate(psi.components, start=1):
        required = weight if index == 1 else 1
        numerator = f.substitute(images)
        if not numerator.is_zero and numerator.t_valuation() < required:
            low = {k: c for k, c in numerator.terms().items() if k[-1] < required}
            raise OverringViolation(
                f"component {index} keeps a genuine t^-{required} pole; "
                "the input cannot be an automorphism with identity affine part",
                {"component": index, "required_power": required, "residual": str(Poly(n, low))},
            )
        components.append(numerator.divide_t(required))
    return tuple(components)


class TestTorusStageOracle:
    def test_matches_substitution(self):
        violations = 0
        for k in range(24):
            psi = normalize(sample_suite_case(k)).result
            valuation = degeneration_data(psi).valuation
            for weight in (valuation, valuation + 1, valuation + 2):
                try:
                    expected = substituted_torus_conjugate(psi, weight)
                except OverringViolation as error:
                    violations += 1
                    with pytest.raises(OverringViolation) as info:
                        torus_conjugate(psi, weight)
                    assert info.value.certificate == error.certificate
                    assert str(info.value) == str(error)
                    continue
                assert torus_conjugate(psi, weight).components == expected
        assert violations > 0

    def test_obstruction_is_the_restriction(self):
        for k in range(24):
            psi = normalize(sample_suite_case(k)).result
            n = psi.n
            images = [Poly.zero(n)] + [x(n, i) for i in range(2, n + 1)]
            expected = psi.components[0].substitute(images)
            assert degeneration_data(psi).obstruction == expected
