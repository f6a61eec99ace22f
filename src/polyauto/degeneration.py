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
(``_curve``, the one place that pairs those two stages) and its limit,
cross-checks the limit against the shear formula, and produces exact
verification reports and per-sample closure witnesses.  :class:`TorusAction`
alone rejects the sample t0 = 0; it holds each factor t0^w as an int pair.

Failure modes are informative by design: a vanishing restriction at x1 = 0
or an inexact division by t certifies that the input was not an
automorphism, and the raised error carries that evidence.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from operator import mul
from typing import Sequence

from .endo import Endo, _combine, _PolyTuple, _Value
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
from .poly import Poly, Scalar, _as_fraction, _ratio


class TorusAction(_Value):
    """The diagonal parameter action (t^weight x1, t x2, ..., t xn)."""

    __slots__ = _fields = ("n", "weight")

    def __init__(self, n: int, weight: int):
        # exact types first, as for letter exponents: 2.0, "2" and True are rejected
        if type(n) is not int or type(weight) is not int:
            raise DimensionError(f"torus n and weight must be ints: {n!r}, {weight!r}")
        if n < 1:
            raise DimensionError("torus action needs at least one variable")
        if weight < 2:
            raise DimensionError("torus weight must be at least 2")
        self.n, self.weight = n, weight

    @property
    def _weights(self) -> tuple[int, ...]:
        """The exponent of t in each slot's factor: (weight, 1, ..., 1)."""
        return (self.weight,) + (1,) * (self.n - 1)

    def _scalings(self, t0: Scalar) -> list[tuple[int, int]]:
        """Each slot's factor t0^w as an int pair (p^w, q^w), for t0 = p/q in lowest terms
        with q > 0, so again in lowest terms; the one place that rejects t0 = 0."""
        p, q = _ratio(t0)
        if p == 0:
            message = "closure samples must be nonzero; t = 0 is the limit, not a sample"
            raise InvalidSample(message, {"sample": "0"})
        return [(p**w, q**w) for w in self._weights]

    def at(self, t0: Scalar) -> AffineMap:
        """The invertible diagonal map at a nonzero parameter value."""
        return AffineMap._diagonal(self._scalings(t0))

    def conjugate(self, psi: Endo, t0: Scalar) -> Endo:
        """at(t0)^-1 after psi after at(t0), with no map built: component i of psi with each
        x_j times s_j (t0^weight, then t0), over s_i, by one Poly._regrade of its keys."""
        if psi.n != self.n:
            raise DimensionError(f"torus on {self.n} variables, map on {psi.n}")
        scalings = self._scalings(t0)
        moved = [(j, a, b) for j, (a, b) in enumerate(scalings) if a != b]
        over = [(b, a) if a > 0 else (-b, -a) for a, b in scalings]  # 1/s_i, denominator > 0
        return Endo._make(tuple([f._regrade(moved, o) for f, o in zip(psi.components, over)]))


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


class DegenerationData(_Value):
    """Invariants extracted from a normalized map.

    obstruction   -- first component restricted to x1 = 0 (nonzero)
    valuation     -- its minimal degree w in the trailing variables, 2 <= w <= d
    limit_shear   -- the degree-w homogeneous part of the obstruction
    source_degree -- the degree d of the normalized source
    """

    __slots__ = _fields = ("obstruction", "valuation", "limit_shear", "source_degree")

    def __init__(self, obstruction: Poly, valuation: int, limit_shear: Poly, source_degree: int):
        if obstruction.is_zero:
            raise ConsistencyError("degeneration data needs a nonzero obstruction")
        if not 2 <= valuation <= source_degree:
            raise ConsistencyError(f"valuation {valuation} outside [2, {source_degree}]")
        expected = obstruction.homogeneous_component(range(2, obstruction.nvars + 1), valuation)
        if limit_shear != expected or limit_shear.is_zero:
            raise ConsistencyError("limit shear disagrees with the obstruction")
        self.obstruction, self.valuation = obstruction, valuation
        self.limit_shear, self.source_degree = limit_shear, source_degree


class NormalizationRecord(_Value):
    """How an input was brought to identity affine part with a moving x1.

    ``affine_inverse`` is the inverse of the original affine part if one was
    applied; ``transposition`` records the swapped index pair when the least
    moving component was not the first.
    """

    __slots__ = _fields = ("affine_inverse", "transposition", "result")

    def __init__(
        self, affine_inverse: AffineMap | None, transposition: tuple[int, int] | None, result: Endo
    ):
        if not result.has_identity_affine_part():
            raise ConsistencyError("normalization must yield identity affine part")
        if result.components[0] == Poly.variable(result.n, 1):
            raise ConsistencyError("normalization must leave a moving first component")
        self.affine_inverse, self.transposition, self.result = affine_inverse, transposition, result


class LimitReport(_Value):
    """Exact per-component t-valuations of (curve - limit); passes when all >= 1.

    A component whose difference is identically zero reports an infinite
    valuation (math.inf).
    """

    __slots__ = _fields = ("valuations", "passed")

    def __init__(self, valuations: tuple, passed: bool):
        self.valuations, self.passed = valuations, passed


class ClosureSample(_Value):
    """One specialization of the curve with its conjugation certificate."""

    __slots__ = _fields = ("t0", "image", "torus_map")

    def __init__(self, t0: Fraction, image: Endo, torus_map: AffineMap):
        self.t0, self.image, self.torus_map = t0, image, torus_map


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
        try:  # one elimination on ints inverts the affine part or finds it singular
            rows = invert_affine(*phi._affine_rows())
        except ZeroDivisionError:
            raise SingularAffinePart(
                "the affine part is singular, so the input is not an automorphism",
                {"endo": str(phi), "affine_part": str(phi.affine_part())},
            )
        affine_inverse = AffineMap._from_rows(*rows)
        corrected = Endo._make(_combine(phi.components, *rows))
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
    # the restriction to x1 = 0 keeps the terms free of x1
    obstruction = psi.components[0].homogeneous_component([1], 0)
    if obstruction.is_zero:
        raise NotACoordinate(
            "first component vanishes at x1 = 0, so it is divisible by x1 "
            "and cannot be a coordinate; the input is not an automorphism",
            {"endo": str(psi), "first_component": str(psi.components[0])},
        )
    tail = range(2, psi.n + 1)
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
        terms = {
            k[:-1] + (k[-1] + sum(map(mul, weights, k)) - required,): c for k, c in f._terms.items()
        }
        residual = {k[:-1] + (k[-1] + required,): c for k, c in terms.items() if k[-1] < 0}
        if residual:
            raise OverringViolation(
                f"component {index} keeps a genuine t^-{required} pole; "
                "the input cannot be an automorphism with identity affine part",
                {
                    "component": index,
                    "required_power": required,
                    "residual": str(Poly._make(n, residual, f._den)),
                },
            )
        components.append(Poly._make(n, terms, f._den))
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
    return _checked_limit(*_curve(psi))


def _curve(psi: Endo) -> tuple[DegenerationData, ParamEndo]:
    """The data of a normalized map and its torus curve: the one place the stages pair."""
    data = degeneration_data(psi)
    return data, torus_conjugate(psi, data.valuation)


def _checked_limit(data: DegenerationData, curve: ParamEndo) -> Endo:
    """The curve at t = 0, which must equal the shear formula's limit map and be
    triangular and non-affine.  Every limit passes through here: degenerate and
    witness_report, hence triangular_witness and the CLI verbs."""
    n = curve.n
    formula = Endo([Poly.variable(n, 1) + data.limit_shear, *Poly.variables(n)[1:]])
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

    phi is a raw map, taken through normalize and _curve (not the limit stages), or
    a WitnessReport whose normalized map psi, data and curve are sampled as they
    stand, with no stage run again.  Each sample is checked before it is emitted:
    its image must have the degree of psi and equal torus_map^-1 after psi after
    torus_map, computed first and from psi alone by TorusAction.conjugate on psi's
    int numerators, which raises InvalidSample on t0 = 0 before the curve is touched.
    """
    if isinstance(phi, WitnessReport):
        psi, data, curve = phi.normalization.result, phi.data, phi.curve
    else:
        psi = normalize(phi).result
        data, curve = _curve(psi)
    action = TorusAction(psi.n, data.valuation)
    out = []
    for raw in samples:
        value = _as_fraction(raw)
        # a second way to the image: regrade psi's x-slots by t0^w and t0, over slot i's factor
        # in component i; the curve's t-exponents come from torus_conjugate, and with_t_set
        # sets t = t0
        expected = action.conjugate(psi, value)
        image = curve.specialize(value)
        if image != expected:
            raise ConsistencyError(f"specialization at t = {value} is not the expected conjugate")
        if image.degree() != data.source_degree:
            raise ConsistencyError(f"specialization at t = {value} changed the degree")
        out.append(ClosureSample(value, image, action.at(value)))
    return out


class WitnessReport(_Value):
    """Everything the front end needs to render one degeneration run."""

    __slots__ = _fields = ("source", "normalization", "data", "curve", "witness", "limit_report")

    def __init__(
        self,
        source: Endo,
        normalization: NormalizationRecord,
        data: DegenerationData,
        curve: ParamEndo,
        witness: Endo,
        limit_report: LimitReport,
    ):
        self.source, self.normalization, self.data = source, normalization, data
        self.curve, self.witness, self.limit_report = curve, witness, limit_report


def witness_report(phi: Endo) -> WitnessReport:
    """Run the full pipeline on a raw map and bundle the results."""
    record = normalize(phi)
    data, curve = _curve(record.result)
    witness = _checked_limit(data, curve)
    report = verify_limit(curve, witness)
    if not report.passed:
        raise ConsistencyError("limit verification failed for a computed witness")
    return WitnessReport(phi, record, data, curve, witness, report)
