"""Torus-action degeneration of non-affine automorphisms.

Given a non-affine map, :func:`normalize` conjugates away its affine part
(and, if needed, swaps a variable into the first slot) so that every
component is x_i plus higher-order terms and the first component moves.
For such a map psi the restriction of the first component to the
hyperplane x1 = 0 is a nonzero polynomial in the trailing variables
x2..xn; its minimal degree w in those variables is at least 2, and its
degree-w homogeneous part is a shear polynomial h.

Conjugating psi by the diagonal parameter action (t^w x1, t x2, ..., t xn)
and clearing the resulting powers of t exactly yields a curve of maps with
polynomial entries in x and t.  Every specialization at t0 != 0 is a
conjugate of psi (same degree, same Jacobian), while the value at t = 0 is
the elementary shear (x1 + h, x2, ..., xn).  The module computes the curve
and its limit, cross-checks the limit against the shear formula, and
produces exact verification reports and per-sample closure witnesses.

Failure modes are informative by design: a vanishing restriction at x1 = 0
or an inexact division by t certifies that the input was not an
automorphism, and the raised error carries that evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import mul
from typing import Sequence

from .endo import Endo, _PolyTuple
from .errors import (
    ConsistencyError,
    DegenerateInput,
    DimensionError,
    InvalidSample,
    NormalizationRequired,
    NotACoordinate,
    NothingToNormalize,
    OverringViolation,
    SingularAffinePart,
)
from ._linalg import invert_affine
from .groups import AffineMap
from .poly import Poly, Scalar, _as_fraction, _is_quotient


def tail_indices(n: int) -> set[int]:
    """The trailing variable indices 2..n."""
    return set(range(2, n + 1))


@dataclass(frozen=True)
class TorusAction:
    """The diagonal parameter action (t^weight x1, t x2, ..., t xn)."""

    n: int
    weight: int

    def __post_init__(self):
        # exact types first, as for letter exponents: 2.0, "2" and True are rejected
        if type(self.n) is not int or type(self.weight) is not int:
            raise DimensionError(f"torus n and weight must be ints: {self.n!r}, {self.weight!r}")
        if self.n < 1:
            raise DimensionError("torus action needs at least one variable")
        if self.weight < 2:
            raise DimensionError("torus weight must be at least 2")

    @property
    def _weights(self) -> tuple[int, ...]:
        """The exponent of t in each slot's factor: (weight, 1, ..., 1)."""
        return (self.weight,) + (1,) * (self.n - 1)

    def _scalings(self, t0: Scalar) -> list[Fraction]:
        value = _as_fraction(t0)
        if value == 0:
            raise InvalidSample("the torus action is not invertible at t = 0", {"sample": "0"})
        return [value if w == 1 else value**w for w in self._weights]  # no Fraction for t0**1

    def at(self, t0: Scalar) -> AffineMap:
        """The invertible diagonal map at a nonzero parameter value."""
        return AffineMap.diagonal(self._scalings(t0))

    def _regraded(self, psi: Endo, t0: Scalar, sums=False) -> list:
        """Component i of psi with each x_j times s_j (t0^weight, then t0), over s_i, by one
        Poly._regrade of its keys; with sums, a +-1 regrade's Poly or an int one's (acc, total)."""
        if psi.n != self.n:
            raise DimensionError(f"torus on {self.n} variables, map on {psi.n}")
        scalings = self._scalings(t0)
        moved = [(j, *s.as_integer_ratio()) for j, s in enumerate(scalings) if s != 1]
        over = [(1 / s).as_integer_ratio() for s in scalings]
        return [f._regrade(moved, o, sums=sums) for f, o in zip(psi.components, over)]

    def conjugate(self, psi: Endo, t0: Scalar) -> Endo:
        """at(t0)^-1 after psi after at(t0), with no map built (see _regraded)."""
        return Endo._make(tuple(self._regraded(psi, t0)))


class ParamEndo(_PolyTuple):
    """A one-parameter family of maps with components in x1..xn and t.

    Produced by :func:`torus_conjugate`; specializing the parameter at t = 1 returns the
    source map exactly, and t = 0 is defined because construction cleared all denominators.
    """

    __slots__ = ()

    def __init__(self, components: Sequence[Poly]):
        components = tuple(components)
        if not components:
            raise DimensionError("a parametric map needs at least one component")
        n = len(components)
        for f in components:
            if not isinstance(f, Poly) or f.nvars != n:
                raise DimensionError("components must be polynomials in n variables and t")
        self.n, self.components = n, components

    def specialize(self, t0: Scalar) -> Endo:
        return Endo._make(tuple([f.with_t_set(t0) for f in self.components]))


@dataclass(frozen=True)
class DegenerationData:
    """Invariants extracted from a normalized map.

    obstruction   -- first component restricted to x1 = 0 (nonzero)
    valuation     -- its minimal degree w in the trailing variables, 2 <= w <= d
    limit_shear   -- the degree-w homogeneous part of the obstruction
    source_degree -- the degree d of the normalized source
    """

    obstruction: Poly
    valuation: int
    limit_shear: Poly
    source_degree: int

    def __post_init__(self):
        if self.obstruction.is_zero:
            raise ConsistencyError("degeneration data needs a nonzero obstruction")
        if not 2 <= self.valuation <= self.source_degree:
            raise ConsistencyError(
                f"valuation {self.valuation} outside [2, {self.source_degree}]"
            )
        n = self.obstruction.nvars
        expected = self.obstruction.homogeneous_component(
            tail_indices(n), self.valuation
        )
        if self.limit_shear != expected or self.limit_shear.is_zero:
            raise ConsistencyError("limit shear disagrees with the obstruction")


@dataclass(frozen=True)
class NormalizationRecord:
    """How an input was brought to identity affine part with a moving x1.

    ``affine_inverse`` is the inverse of the original affine part if one was
    applied; ``transposition`` records the swapped index pair when the least
    moving component was not the first.
    """

    affine_inverse: AffineMap | None
    transposition: tuple[int, int] | None
    result: Endo

    def __post_init__(self):
        if not self.result.has_identity_affine_part():
            raise ConsistencyError("normalization must yield identity affine part")
        first = self.result.components[0]
        if first == Poly.variable(self.result.n, 1):
            raise ConsistencyError("normalization must leave a moving first component")


@dataclass(frozen=True)
class LimitReport:
    """Exact per-component t-valuations of (curve - limit); passes when all >= 1.

    A component whose difference is identically zero reports an infinite
    valuation (math.inf).
    """

    valuations: tuple
    passed: bool


@dataclass(frozen=True)
class ClosureSample:
    """One specialization of the curve with its conjugation certificate."""

    t0: Fraction
    image: Endo
    torus_map: AffineMap


def normalize(phi: Endo) -> NormalizationRecord:
    """Bring a non-affine map to identity affine part with a moving first slot.

    Composes with the inverse of the affine part when that part is not the
    identity, then conjugates by the transposition x1 <-> xi for the least i
    whose component moved.  Affine inputs have nothing to normalize and are
    rejected; a singular affine part certifies the input was not an
    automorphism.
    """
    try:
        degree = phi.degree()
    except DegenerateInput:
        raise NothingToNormalize(
            "the all-zero map cannot be normalized", {"endo": str(phi)}
        )
    if degree < 2:
        raise NothingToNormalize(
            "input is affine; only maps of degree at least 2 degenerate",
            {"endo": str(phi), "degree": degree},
        )
    affine_inverse = None
    corrected = phi
    if not phi.has_identity_affine_part():
        try:  # one elimination inverts the affine part or finds it singular
            affine_inverse = AffineMap._make(*invert_affine(phi.linear_matrix(), phi.translation()))
        except ZeroDivisionError:
            raise SingularAffinePart(
                "the affine part is singular, so the input is not an automorphism",
                {"endo": str(phi), "affine_part": str(phi.affine_part())},
            )
        corrected = affine_inverse.to_endo().compose(phi)
    moving = next(
        (i for i, f in enumerate(corrected.components, 1) if f != Poly.variable(phi.n, i)), None
    )
    if moving is None:
        raise DegenerateInput("input reduced to the identity; inconsistent degrees")
    transposition = None
    result = corrected
    if moving != 1:
        swap = AffineMap.transposition(phi.n, 1, moving).to_endo()
        result = swap.compose(corrected).compose(swap)
        transposition = (1, moving)
    return NormalizationRecord(affine_inverse, transposition, result)


def _check_normalized(psi: Endo) -> int:
    """Validate degeneration preconditions; returns the degree."""
    degree = psi.degree()
    if degree < 2:
        raise NormalizationRequired(
            "degeneration needs degree at least 2",
            {"endo": str(psi), "degree": degree},
        )
    if not psi.has_identity_affine_part():
        raise NormalizationRequired(
            "degeneration needs identity affine part; call normalize first",
            {"endo": str(psi), "affine_part": str(psi.affine_part())},
        )
    if psi.components[0] == Poly.variable(psi.n, 1):
        raise NormalizationRequired(
            "degeneration needs a moving first component; conjugate by a transposition",
            {"endo": str(psi)},
        )
    return degree


def degeneration_data(psi: Endo) -> DegenerationData:
    """Extract (obstruction, valuation, shear) from a normalized map.

    The obstruction is the first component at x1 = 0.  If it vanishes, x1
    divides the first component, which is impossible for a coordinate of an
    automorphism with identity affine part; the error carries that
    certificate.
    """
    degree = _check_normalized(psi)
    n = psi.n
    # the restriction to x1 = 0 keeps the terms free of x1
    obstruction = Poly._make(n, {k: c for k, c in psi.components[0] if k[0] == 0})
    if obstruction.is_zero:
        raise NotACoordinate(
            "first component vanishes at x1 = 0, so it is divisible by x1 "
            "and cannot be a coordinate; the input is not an automorphism",
            {"endo": str(psi), "first_component": str(psi.components[0])},
        )
    tail = tail_indices(n)
    valuation = obstruction.valuation_in(tail)
    shear = obstruction.homogeneous_component(tail, valuation)
    return DegenerationData(obstruction, valuation, shear, degree)


def torus_conjugate(psi: Endo, weight: int) -> ParamEndo:
    """Conjugate by the diagonal action of the given weight and clear t exactly.

    The action (t^w x1, t x2, ..., t xn) only regrades monomials: it sends c*x^e to
    c*t^(w*e1 + e2 + ... + en)*x^e.  Component i is then divided by t^k, with k the
    weight of slot i in the action's (w, 1, ..., 1), by shifting the t-exponents of its
    keys.  A term whose t-exponent stays below k is a genuine pole; those terms are
    returned, before the division, as an overring-violation certificate.  For
    experimentation the weight need not come from :func:`degeneration_data`; a wrong
    weight either trips the violation or yields a different limit.  The curve holds its
    components only; the source's degree is :attr:`DegenerationData.source_degree`.
    """
    n = psi.n
    weights = TorusAction(n, weight)._weights  # the action checks the weight
    components = []
    for index, (f, required) in enumerate(zip(psi.components, weights), start=1):
        # the x-exponents are unchanged, so the keys stay distinct and canonical
        terms = {k[:-1] + (k[-1] + sum(map(mul, weights, k)) - required,): c for k, c in f}
        residual = {k[:-1] + (k[-1] + required,): c for k, c in terms.items() if k[-1] < 0}
        if residual:
            raise OverringViolation(
                f"component {index} keeps a genuine t^-{required} pole; "
                "the input cannot be an automorphism with identity affine part",
                {
                    "component": index,
                    "required_power": required,
                    "residual": str(Poly._make(n, residual)),
                },
            )
        components.append(Poly._make(n, terms))
    curve = ParamEndo(components)
    if curve.specialize(1) != psi:
        raise ConsistencyError("specializing the curve at t = 1 must return the source")
    return curve


def specialize(curve: ParamEndo, t0: Scalar) -> Endo:
    """Evaluate the parameter exactly; t0 = 0 yields the limit."""
    return curve.specialize(t0)


def degenerate(psi: Endo) -> Endo:
    """The limit map (x1 + shear, x2, ..., xn), computed twice and cross-checked.

    The shear formula path and the t -> 0 specialization of the conjugated
    curve must agree exactly; disagreement would mean the congruence
    underlying the construction failed, so it raises instead of returning.
    """
    data = degeneration_data(psi)
    return _checked_limit(data, torus_conjugate(psi, data.valuation))


def _checked_limit(data: DegenerationData, curve: ParamEndo) -> Endo:
    """The curve at t = 0, which must equal the shear formula's limit map and be
    triangular and non-affine.  Every limit passes through here: degenerate and
    witness_report, hence triangular_witness and the CLI verbs."""
    n = curve.n
    formula = Endo(
        [Poly.variable(n, 1) + data.limit_shear]
        + [Poly.variable(n, i) for i in range(2, n + 1)]
    )
    limit = curve.specialize(0)
    if formula != limit:
        raise ConsistencyError(
            "formula path and t -> 0 path disagree: "
            f"{formula} vs {limit}"
        )
    if not limit.is_triangular() or limit.is_affine():
        raise ConsistencyError("witness must be triangular and non-affine")
    return limit


def triangular_witness(phi: Endo) -> Endo:
    """The witness of witness_report(phi): a triangular, non-affine limit of conjugates."""
    return witness_report(phi).witness


def verify_limit(curve: ParamEndo, limit: Endo) -> LimitReport:
    """Check that curve == limit modulo t, reporting exact t-valuations.

    The difference of each component must be divisible by t; components
    that agree identically report an infinite valuation.
    """
    if curve.n != limit.n:
        raise DimensionError("curve and limit act on different variable counts")
    valuations = []
    for f, g in zip(curve.components, limit.components):
        difference = f - g
        valuations.append(inf if difference.is_zero else difference.t_valuation())
    return LimitReport(tuple(valuations), all(v >= 1 for v in valuations))


def closure_witness(phi: Endo | WitnessReport, samples: Sequence[Scalar]) -> list[ClosureSample]:
    """Specializations of the normalized conjugate curve at nonzero samples.

    phi is a raw map, or a WitnessReport whose normalized map psi, data and curve
    are sampled as they stand, with no stage run again.  Each sample is checked
    before it is emitted: its image must have the degree of psi and must equal
    torus_map^-1 after psi after torus_map, which is checked from psi alone, not
    from the curve: the image's coefficients times one divisor must give the sums
    of one integer regrade per component, so no Fraction of the conjugate is built.
    """
    if isinstance(phi, WitnessReport):
        psi, data, curve = phi.normalization.result, phi.data, phi.curve
    else:
        psi = normalize(phi).result
        data = degeneration_data(psi)
        curve = torus_conjugate(psi, data.valuation)
    action = TorusAction(psi.n, data.valuation)
    out = []
    for raw in samples:
        value = _as_fraction(raw)
        if value == 0:
            raise InvalidSample(
                "closure samples must be nonzero; t = 0 is the limit, not a sample",
                {"sample": str(raw)},
            )
        image = curve.specialize(value)
        # a second way to the image: regrade psi's x-slots by t0^w and t0, over slot i's factor
        # in component i, and compare integer sums with coefficients times one divisor; the
        # curve's t-exponents come from torus_conjugate, and with_t_set sets t = t0
        pairs = zip(image.components, action._regraded(psi, value, sums=True))
        if not all(g == r if type(r) is Poly else _is_quotient(g, *r) for g, r in pairs):
            raise ConsistencyError(
                f"specialization at t = {value} is not the expected conjugate"
            )
        if image.degree() != data.source_degree:
            raise ConsistencyError(
                f"specialization at t = {value} changed the degree"
            )
        out.append(ClosureSample(value, image, action.at(value)))
    return out


@dataclass(frozen=True)
class WitnessReport:
    """Everything the front end needs to render one degeneration run."""

    source: Endo
    normalization: NormalizationRecord
    data: DegenerationData
    curve: ParamEndo
    witness: Endo
    limit_report: LimitReport


def witness_report(phi: Endo) -> WitnessReport:
    """Run the full pipeline on a raw map and bundle the results."""
    record = normalize(phi)
    psi = record.result
    data = degeneration_data(psi)
    curve = torus_conjugate(psi, data.valuation)
    witness = _checked_limit(data, curve)
    report = verify_limit(curve, witness)
    if not report.passed:
        raise ConsistencyError("limit verification failed for a computed witness")
    return WitnessReport(phi, record, data, curve, witness, report)
