"""Seeded verification suites, shared by the CLI selfcheck and the test suite.

Every suite is deterministic: case k of a suite derives its seed from a
fixed base, and samplers that must reject a draw (affine words, oversized
compositions) walk sub-seeds in a fixed order.  Tame-word cases cycle
n through 2, 3, 4 and the word length through 1..6; draws whose composed
components exceed a term cap are redrawn, which keeps the exact arithmetic
desk-scale without touching the distributions of the letters themselves.

Every suite is a list of labelled checks that one runner, ``_run``, drives.
A check returns its failure texts, which the runner writes as
``label: text``.  The runner alone owns the clock, so ``SuiteResult.seconds``
is the suite's own work summed over its checks, and it turns every
AlgebraError that a check raises into that check's one failure
``label: raised <Error>: ...``: no library error escapes a suite.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import partial

from .degeneration import closure_witness, degenerate, witness_report
from .endo import Endo, _Value
from .errors import AlgebraError, DegenerateInput, NotAnAutomorphism
from .groups import nagata, random_tame_word
from .planefactor import factor_plane
from .poly import Poly

TAME_SUITE_BASE = 20_000
PLANE_SUITE_BASE = 40_000
MONOID_SUITE_BASE = 60_000
INVERSION_SUITE_BASE = 80_000
SHEAR_SUITE_BASE = 90_000

TERM_CAP = 800


class SuiteResult(_Value):
    """Outcome of one suite: failures carry a short per-case description.  ``_run`` adds
    to its failures list and seconds, and the list leaves it unhashable."""

    __slots__ = _fields = ("name", "cases", "failures", "seconds")

    def __init__(self, name: str, cases: int, failures: list | None = None, seconds: float = 0.0):
        self.name, self.cases, self.seconds = name, cases, seconds
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        """The status line; it carries no seconds, so equal runs print equal bytes."""
        status = "PASS" if self.passed else "FAIL"
        failed = {failure.split(": ", 1)[0] for failure in self.failures}  # one per check
        ok = max(self.cases - len(failed), 0)
        return f"{status} {self.name}: {ok}/{self.cases} cases"


def sample_tame_case(k: int) -> Endo:
    """Case k of the tame-automorphism schedule: non-affine, desk-scale."""
    n = 2 + k % 3
    length = 1 + (k // 3) % 6
    for attempt in range(200):
        word = random_tame_word(n, TAME_SUITE_BASE + 1000 * k + attempt, length, 3)
        endo = word.to_endo()
        try:
            degree = endo.degree()
        except DegenerateInput:
            continue
        if degree >= 2 and max(len(f) for f in endo.components) <= TERM_CAP:
            return endo
    raise AlgebraError(f"tame sampler exhausted its attempts for case {k}")


def random_endo(rng: random.Random, n: int) -> Endo:
    """A sparse random endomorphism (not necessarily invertible): each component
    has 1 to 4 terms of degree at most 4."""
    components = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = [0] * (n + 1)
            for _ in range(rng.randint(0, 4)):
                key[rng.randrange(n)] += 1
            terms[tuple(key)] = Fraction(rng.randint(-5, 5))
        components.append(Poly(n, terms))
    if all(f.is_zero for f in components):
        components[0] = Poly.variable(n, 1)
    return Endo(components)


def random_rational_point(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]


def _run(name: str, cases: int, checks: list) -> SuiteResult:
    """Run labelled checks into one suite result.

    ``checks`` holds (label, check) pairs; each check returns its failure
    texts.  The clock covers the checks only, and an AlgebraError raised
    inside one becomes its single failure ``raised <Error>: ...``.
    """
    result = SuiteResult(name, cases)
    for label, check in checks:
        start = time.perf_counter()
        try:
            failures = check()
        except AlgebraError as error:
            failures = [f"raised {type(error).__name__}: {error}"]
        result.seconds += time.perf_counter() - start
        result.failures.extend(f"{label}: {text}" for text in failures)
    return result


def _cases(check, cases: int) -> list:
    """check(k) for each case k, labelled ``case k``."""
    return [(f"case {k}", partial(check, k)) for k in range(cases)]


def nagata_golden() -> SuiteResult:
    """The frozen degeneration of the Nagata map, read off one witness_report.

    The limit path is the report's witness, the curve at t = 0, which the
    report has already checked against the formula path and for its
    triangular, non-affine shape.
    """

    def check():
        forward, _ = nagata()
        x1, x2, x3 = Poly.variables(3)
        expected = Endo([x1 - 2 * x2**3, x2, x3])
        report = witness_report(forward)
        data = report.data
        failures = []
        if data.obstruction != -2 * x2**3 - x3 * x2**4:
            failures.append(f"obstruction {data.obstruction}")
        if data.valuation != 3:
            failures.append(f"valuation {data.valuation}")
        if data.limit_shear != -2 * x2**3:
            failures.append(f"shear {data.limit_shear}")
        formula_path = Endo([x1 + data.limit_shear, x2, x3])
        if formula_path != expected:
            failures.append(f"formula path {formula_path}")
        if report.witness != expected:
            failures.append(f"limit path {report.witness}")
        return failures

    return _run("nagata-golden", 1, [("nagata", check)])


def degeneration_suites(cases: int = 100) -> tuple[SuiteResult, SuiteResult]:
    """One pipeline run per case: pipeline checks, then curve rigidity.

    The first result covers :func:`witness_report`, which raises on a bad
    normalization, a zero obstruction, a valuation out of bounds, inexact
    clearing of the parameter powers, a curve that is not the source at
    t = 1, disagreeing limit paths, a witness that is not triangular and
    non-affine, or a failed limit verification.  The second samples each
    report's curve through :func:`closure_witness` at t0 in {-1, 2, 1/2},
    which raises unless each image has the source's degree and is the
    expected conjugate; each image's Jacobian must equal the source's, and
    the witness must have degree w.  A case whose pipeline raised has no
    curve to sample, so it fails both suites.
    """
    reports = {}

    def pipeline(k):
        reports[k] = witness_report(sample_tame_case(k))
        return []

    def rigidity(k):
        report = reports.pop(k, None)
        if report is None:
            return ["not sampled: the pipeline raised"]
        source_jacobian = report.normalization.result.jacobian_det()
        for sample in closure_witness(report, (-1, 2, Fraction(1, 2))):
            if sample.image.jacobian_det() != source_jacobian:
                return [f"jacobian drift at t={sample.t0}"]
        return [] if report.witness.degree() == report.data.valuation else ["limit degree"]

    return (
        _run("degeneration-pipeline", cases, _cases(pipeline, cases)),
        _run("curve-rigidity", cases, _cases(rigidity, cases)),
    )


def monoid_suite(cases: int = 100) -> SuiteResult:
    """Associativity, identity, evaluation homomorphism, Jacobian chain rule."""

    def check(k):
        rng = random.Random(MONOID_SUITE_BASE + k)
        n = 2 + k % 2
        sigma, tau, rho = (random_endo(rng, n) for _ in range(3))
        if sigma.compose(tau).compose(rho) != sigma.compose(tau.compose(rho)):
            return ["associativity"]
        ident = Endo.identity(n)
        if sigma.compose(ident) != sigma or ident.compose(sigma) != sigma:
            return ["identity law"]
        composed = sigma.compose(tau)
        jac_composed, jac_sigma, jac_tau = (e.jacobian_det() for e in (composed, sigma, tau))
        for _ in range(20):
            a = random_rational_point(rng, n)
            if composed(a) != sigma(tau(a)):
                return ["evaluation homomorphism"]
            if jac_composed.evaluate(a) != jac_sigma.evaluate(tau(a)) * jac_tau.evaluate(a):
                return ["jacobian chain rule"]
        return []

    return _run("monoid-laws", cases, _cases(check, cases))


def word_inversion_suite(cases: int = 100) -> SuiteResult:
    """Words concatenated with their inverses compose to the identity.

    Also builds the Nagata pair, whose constructor raises unless both
    composition orders give the identity, and checks that its Jacobian is
    exactly 1.
    """

    def nagata_check():
        forward, _ = nagata()
        return [] if forward.jacobian_det() == Poly.const(3, 1) else ["jacobian"]

    def check(k):
        n = 2 + k % 3
        word = random_tame_word(n, INVERSION_SUITE_BASE + k, 1 + k % 4, 2)
        return [] if word.concat(word.inverse()).to_endo() == Endo.identity(n) else ["round trip"]

    return _run("word-inversion", cases, [("nagata", nagata_check), *_cases(check, cases)])


def plane_roundtrip_suite(cases: int = 100) -> SuiteResult:
    """Plane words factor, and known rejects stay rejected.

    A factorization is returned only if its word recomposes exactly to the
    source (PlaneFactorization checks it on construction).
    """

    def reject_corpus():
        failures = []
        x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
        for sigma in (Endo([x1, x1 * x2]), Endo([x1**2, x2])):
            try:
                factor_plane(sigma)
                failures.append(f"{sigma} was accepted")
            except NotAnAutomorphism as error:
                if not error.certificate:
                    failures.append(f"{sigma} lacks a certificate")
        return failures

    def check(k):
        factor_plane(random_tame_word(2, PLANE_SUITE_BASE + k, 1 + k % 6, 3).to_endo())
        return []

    checks = [("reject corpus", reject_corpus), *_cases(check, cases)]
    return _run("plane-factorization", cases, checks)


def shear_fixed_point_suite(cases: int = 25) -> SuiteResult:
    """Degeneration fixes every elementary homogeneous shear."""

    def check(k):
        rng = random.Random(SHEAR_SUITE_BASE + k)
        n = 2 + k % 3
        weight = 2 + k % 3
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = [0] * (n + 1)
            for _ in range(weight):
                key[rng.randrange(1, n)] += 1
            terms[tuple(key)] = rng.randint(1, 9) * rng.choice([-1, 1])
        xs = Poly.variables(n)
        shear_poly = Poly(n, terms) or xs[-1] ** weight
        shear = Endo([xs[0] + shear_poly, *xs[1:]])
        return [] if degenerate(shear) == shear else ["moved by degeneration"]

    return _run("shear-fixed-points", cases, _cases(check, cases))


def run_all(cases: int = 100, shear_cases: int = 25) -> list[SuiteResult]:
    """Every suite, in reporting order."""
    pipeline, rigidity = degeneration_suites(cases)
    return [
        nagata_golden(),
        pipeline,
        rigidity,
        monoid_suite(cases),
        word_inversion_suite(cases),
        plane_roundtrip_suite(cases),
        shear_fixed_point_suite(shear_cases),
    ]
