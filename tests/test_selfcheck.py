"""Tests for the selfcheck suites: one pipeline run per input, and the faults
that each suite still reports through the library's own checks.

Each fault test breaks one value that a library check guards (the witness
shape, the curve at t = 1, the source degree, a factorization word, the
Nagata inversion) and asserts that the suite which used to check that value
itself still fails, now as ``raised <Error>: ...``.
"""

from collections import Counter
from fractions import Fraction

import pytest

import polyauto.degeneration
import polyauto.planefactor
import polyauto.selfcheck
from polyauto.degeneration import (
    DegenerationData,
    ParamEndo,
    closure_witness,
    triangular_witness,
    witness_report,
)
from polyauto.endo import Endo
from polyauto.errors import DimensionError
from polyauto.groups import nagata
from polyauto.selfcheck import (
    SuiteResult,
    degeneration_suites,
    nagata_golden,
    plane_roundtrip_suite,
    sample_tame_case,
    word_inversion_suite,
)

STAGES = ("normalize", "degeneration_data", "torus_conjugate")
SAMPLES = (-1, 2, Fraction(1, 2))


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts calls of the three stages and of ParamEndo.specialize, in every
    module namespace that holds a stage."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in STAGES:
        original = getattr(polyauto.degeneration, name)
        for module in (polyauto.degeneration, polyauto.selfcheck):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(ParamEndo, "specialize", counted("specialize", ParamEndo.specialize))
    return calls


def stage_counts(calls):
    return tuple(calls[name] for name in (*STAGES, "specialize"))


class TestOneRunPerInput:
    """Each stage runs once per input; the curve is specialized at t = 1 (the
    source check), at t = 0 (the limit) and at each closure sample."""

    def test_witness_report(self, stage_calls):
        witness_report(sample_tame_case(4))
        assert stage_counts(stage_calls) == (1, 1, 1, 2)

    def test_triangular_witness(self, stage_calls):
        triangular_witness(sample_tame_case(4))
        assert stage_counts(stage_calls) == (1, 1, 1, 2)

    def test_closure_witness_of_a_map(self, stage_calls):
        closure_witness(sample_tame_case(4), SAMPLES)
        assert stage_counts(stage_calls) == (1, 1, 1, 1 + len(SAMPLES))

    def test_closure_witness_of_a_report(self, stage_calls):
        report = witness_report(sample_tame_case(4))
        stage_calls.clear()
        closure_witness(report, SAMPLES)
        assert stage_counts(stage_calls) == (0, 0, 0, len(SAMPLES))

    def test_nagata_golden(self, stage_calls):
        assert nagata_golden().passed
        assert stage_counts(stage_calls) == (1, 1, 1, 2)

    def test_degeneration_suites(self, stage_calls):
        cases = 3
        pipeline, rigidity = degeneration_suites(cases)
        assert pipeline.passed and rigidity.passed
        # per case: t = 1, t = 0 and the three rigidity samples
        assert stage_counts(stage_calls) == (cases, cases, cases, 5 * cases)


def assert_raised(failures, text):
    assert failures
    assert all("raised" in failure and text in failure for failure in failures), failures


class TestFaultsStillFail:
    @pytest.mark.parametrize("method, value", [("is_triangular", False), ("is_affine", True)])
    def test_witness_shape(self, monkeypatch, method, value):
        monkeypatch.setattr(Endo, method, lambda self: value)
        pipeline, rigidity = degeneration_suites(2)
        assert_raised(pipeline.failures, "witness must be triangular and non-affine")
        # a case whose pipeline fails has no curve to sample, so rigidity fails too
        assert rigidity.failures == [f"case {k}: not sampled: the pipeline raised" for k in range(2)]
        assert_raised(nagata_golden().failures, "witness must be triangular and non-affine")

    def test_curve_at_one(self, monkeypatch):
        specialize = ParamEndo.specialize

        def moved_at_one(curve, t0):
            image = specialize(curve, t0)
            if t0 != 1:
                return image
            return Endo([image.components[0] + 1, *image.components[1:]])

        monkeypatch.setattr(ParamEndo, "specialize", moved_at_one)
        pipeline, _ = degeneration_suites(2)
        assert_raised(pipeline.failures, "at t = 1 must return the source")

    def test_source_degree(self, monkeypatch):
        data_of = polyauto.degeneration.degeneration_data

        def one_degree_high(psi):
            data = data_of(psi)
            return DegenerationData(
                data.obstruction, data.valuation, data.limit_shear, data.source_degree + 1
            )

        monkeypatch.setattr(polyauto.degeneration, "degeneration_data", one_degree_high)
        pipeline, rigidity = degeneration_suites(2)
        assert pipeline.passed
        assert_raised(rigidity.failures, "changed the degree")

    def test_factorization_word(self, monkeypatch):
        merge = polyauto.planefactor._merge_letters
        monkeypatch.setattr(polyauto.planefactor, "_merge_letters", lambda letters: merge(letters)[1:])
        suite = plane_roundtrip_suite(3)
        assert_raised(suite.failures, "does not recompose")
        assert len(suite.failures) == 3

    def test_nagata_inversion(self, monkeypatch):
        forward, backward = nagata()
        compose = Endo.compose

        def broken(left, right):
            result = compose(left, right)
            if left == forward and right == backward:
                return Endo([result.components[0] + 1, *result.components[1:]])
            return result

        monkeypatch.setattr(Endo, "compose", broken)
        suite = word_inversion_suite(2)
        assert_raised(suite.failures, "inversion check")
        assert suite.failures[0].startswith("nagata: ")


def injected(*args, **kwargs):
    raise DimensionError("injected")


class TestSuiteErrorPolicy:
    """Every library error inside a suite, wherever it is raised, becomes one
    labelled ``raised <Error>: ...`` failure instead of escaping the suite."""

    def test_reject_corpus(self, monkeypatch):
        monkeypatch.setattr(Endo, "jacobian_det", injected)
        suite = plane_roundtrip_suite(2)
        assert suite.failures == [
            "reject corpus: raised DimensionError: injected",
            "case 0: raised DimensionError: injected",
            "case 1: raised DimensionError: injected",
        ]

    def test_word_sampler(self, monkeypatch):
        monkeypatch.setattr(polyauto.selfcheck, "random_tame_word", injected)
        suite = word_inversion_suite(2)
        assert suite.failures == [f"case {k}: raised DimensionError: injected" for k in range(2)]

    def test_status_line_counts_failed_checks(self, monkeypatch):
        # the reject corpus and both cases fail: three failure lines over two cases
        monkeypatch.setattr(Endo, "jacobian_det", injected)
        assert plane_roundtrip_suite(2).line() == "FAIL plane-factorization: 0/2 cases"
        # a check that writes several failures fails once
        suite = SuiteResult("monoid-laws", 3, ["case 1: associativity", "case 1: identity law"])
        assert suite.line() == "FAIL monoid-laws: 2/3 cases"

    def test_status_line_carries_no_seconds(self):
        suite = SuiteResult("monoid-laws", 3, ["case 1: associativity"], seconds=2.5)
        assert suite.line() == "FAIL monoid-laws: 2/3 cases"
        assert SuiteResult("monoid-laws", 3).line() == "PASS monoid-laws: 3/3 cases"

    def test_suite_results_compare_by_value_and_stay_unhashable(self):
        # _run adds to a result's failures list and seconds, so no result may hash
        suite = SuiteResult("monoid-laws", 3)
        assert suite == SuiteResult("monoid-laws", 3, [], 0.0)
        assert suite != SuiteResult("monoid-laws", 3, ["case 1: associativity"])
        assert suite.failures is not SuiteResult("monoid-laws", 3).failures
        with pytest.raises(TypeError):
            hash(suite)
