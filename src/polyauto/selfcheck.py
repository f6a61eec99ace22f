"""Seeded verification suites, shared by the CLI selfcheck and the test suite.

Every suite is deterministic: case k of a suite derives its seed from a
fixed base, and samplers that must reject a draw (affine words, oversized
compositions) walk sub-seeds in a fixed order.  Tame-word cases cycle
n through 2, 3, 4 and the word length through 1..6; draws whose composed
components exceed a term cap are redrawn, which keeps the exact arithmetic
desk-scale without touching the distributions of the letters themselves.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .degeneration import closure_witness, degenerate, witness_report
from .endo import Endo
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


@dataclass
class SuiteResult:
    """Outcome of one suite: failures carry a short per-case description."""

    name: str
    cases: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        ok = self.cases - len(self.failures)
        return f"{status} {self.name}: {ok}/{self.cases} cases ({self.seconds:.1f}s)"


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
        if degree < 2:
            continue
        if max(len(f.terms()) for f in endo.components) > TERM_CAP:
            continue
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


def nagata_golden() -> SuiteResult:
    """The frozen degeneration of the Nagata map, read off one witness_report.

    The limit path is the report's witness, the curve at t = 0, which the
    report has already checked against the formula path and for its
    triangular, non-affine shape.
    """
    start = time.perf_counter()
    result = SuiteResult("nagata-golden", 1)
    failures = []
    try:
        forward, _ = nagata()
        x1, x2, x3 = Poly.variables(3)
        expected = Endo([x1 - 2 * x2**3, x2, x3])
        report = witness_report(forward)
        data = report.data
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
    except AlgebraError as error:
        failures.append(f"raised {type(error).__name__}: {error}")
    result.failures = failures
    result.seconds = time.perf_counter() - start
    return result


def degeneration_suites(cases: int = 100) -> tuple[SuiteResult, SuiteResult]:
    """One pass over the tame schedule: pipeline checks, then curve rigidity.

    The first result covers :func:`witness_report`, which raises on a bad
    normalization, a zero obstruction, a valuation out of bounds, inexact
    clearing of the parameter powers, a curve that is not the source at
    t = 1, disagreeing limit paths, a witness that is not triangular and
    non-affine, or a failed limit verification.  The second samples the
    report's curve through :func:`closure_witness` at t0 in {-1, 2, 1/2},
    which raises unless each image has the source's degree and is the
    expected conjugate; each image's Jacobian must equal the source's, and
    the witness must have degree w.  A case whose pipeline raised has no
    curve to sample, so it fails both suites.
    """
    pipeline = SuiteResult("degeneration-pipeline", cases)
    rigidity = SuiteResult("curve-rigidity", cases)
    start = time.perf_counter()
    for k in range(cases):
        try:
            report = witness_report(sample_tame_case(k))
        except AlgebraError as error:
            pipeline.failures.append(f"case {k}: raised {type(error).__name__}: {error}")
            rigidity.failures.append(f"case {k}: not sampled: the pipeline raised")
            continue
        mid = time.perf_counter()
        pipeline.seconds += mid - start
        start = mid
        try:
            source_jacobian = report.normalization.result.jacobian_det()
            for sample in closure_witness(report, (-1, 2, Fraction(1, 2))):
                if sample.image.jacobian_det() != source_jacobian:
                    rigidity.failures.append(f"case {k}: jacobian drift at t={sample.t0}")
                    break
            else:
                if report.witness.degree() != report.data.valuation:
                    rigidity.failures.append(f"case {k}: limit degree")
        except AlgebraError as error:
            rigidity.failures.append(f"case {k}: raised {type(error).__name__}: {error}")
        mid = time.perf_counter()
        rigidity.seconds += mid - start
        start = mid
    return pipeline, rigidity


def monoid_suite(cases: int = 100) -> SuiteResult:
    """Associativity, identity, evaluation homomorphism, Jacobian chain rule."""
    result = SuiteResult("monoid-laws", cases)
    start = time.perf_counter()
    for k in range(cases):
        rng = random.Random(MONOID_SUITE_BASE + k)
        n = 2 + k % 2
        sigma = random_endo(rng, n)
        tau = random_endo(rng, n)
        rho = random_endo(rng, n)
        try:
            left = sigma.compose(tau).compose(rho)
            right = sigma.compose(tau.compose(rho))
            if left != right:
                result.failures.append(f"case {k}: associativity")
                continue
            ident = Endo.identity(n)
            if sigma.compose(ident) != sigma or ident.compose(sigma) != sigma:
                result.failures.append(f"case {k}: identity law")
                continue
            composed = sigma.compose(tau)
            jac_composed = composed.jacobian_det()
            jac_sigma = sigma.jacobian_det()
            jac_tau = tau.jacobian_det()
            ok = True
            for _ in range(20):
                a = random_rational_point(rng, n)
                if composed(a) != sigma(tau(a)):
                    result.failures.append(f"case {k}: evaluation homomorphism")
                    ok = False
                    break
                lhs = jac_composed.evaluate(a)
                rhs = jac_sigma.evaluate(tau(a)) * jac_tau.evaluate(a)
                if lhs != rhs:
                    result.failures.append(f"case {k}: jacobian chain rule")
                    ok = False
                    break
            if not ok:
                continue
        except AlgebraError as error:
            result.failures.append(f"case {k}: raised {type(error).__name__}: {error}")
    result.seconds = time.perf_counter() - start
    return result


def word_inversion_suite(cases: int = 100) -> SuiteResult:
    """Words concatenated with their inverses compose to the identity.

    Also builds the Nagata pair, whose constructor raises unless both
    composition orders give the identity, and checks that its Jacobian is
    exactly 1.
    """
    result = SuiteResult("word-inversion", cases)
    start = time.perf_counter()
    try:
        forward, _ = nagata()
        if forward.jacobian_det() != Poly.const(3, 1):
            result.failures.append("nagata: jacobian")
    except AlgebraError as error:
        result.failures.append(f"nagata: raised {type(error).__name__}: {error}")
    for k in range(cases):
        n = 2 + k % 3
        length = 1 + k % 4
        word = random_tame_word(n, INVERSION_SUITE_BASE + k, length, 2)
        try:
            if word.concat(word.inverse()).to_endo() != Endo.identity(n):
                result.failures.append(f"case {k}: round trip")
        except AlgebraError as error:
            result.failures.append(f"case {k}: raised {type(error).__name__}: {error}")
    result.seconds = time.perf_counter() - start
    return result


def plane_roundtrip_suite(cases: int = 100) -> SuiteResult:
    """Plane words factor, and known rejects stay rejected.

    A factorization is returned only if its word recomposes exactly to the
    source (PlaneFactorization checks it on construction).
    """
    result = SuiteResult("plane-factorization", cases)
    start = time.perf_counter()
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    for sigma in (Endo([x1, x1 * x2]), Endo([x1**2, x2])):
        try:
            factor_plane(sigma)
            result.failures.append(f"reject corpus: {sigma} was accepted")
        except NotAnAutomorphism as error:
            if not error.certificate:
                result.failures.append(f"reject corpus: {sigma} lacks a certificate")
    for k in range(cases):
        word = random_tame_word(2, PLANE_SUITE_BASE + k, 1 + k % 6, 3)
        sigma = word.to_endo()
        try:
            factor_plane(sigma)
        except AlgebraError as error:
            result.failures.append(f"case {k}: raised {type(error).__name__}: {error}")
    result.seconds = time.perf_counter() - start
    return result


def shear_fixed_point_suite(cases: int = 25) -> SuiteResult:
    """Degeneration fixes every elementary homogeneous shear."""
    result = SuiteResult("shear-fixed-points", cases)
    start = time.perf_counter()
    for k in range(cases):
        rng = random.Random(SHEAR_SUITE_BASE + k)
        n = 2 + k % 3
        weight = 2 + k % 3
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = [0] * (n + 1)
            for _ in range(weight):
                key[rng.randrange(1, n)] += 1
            terms[tuple(key)] = rng.randint(1, 9) * rng.choice([-1, 1])
        shear_poly = Poly(n, terms)
        if shear_poly.is_zero:
            shear_poly = Poly.variable(n, n) ** weight
        shear = Endo(
            [Poly.variable(n, 1) + shear_poly]
            + [Poly.variable(n, i) for i in range(2, n + 1)]
        )
        try:
            if degenerate(shear) != shear:
                result.failures.append(f"case {k}: moved by degeneration")
        except AlgebraError as error:
            result.failures.append(f"case {k}: raised {type(error).__name__}: {error}")
    result.seconds = time.perf_counter() - start
    return result


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
