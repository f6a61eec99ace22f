"""Constructive factorization of plane (n = 2) automorphisms.

The classical degree-reduction loop: while the map (f, g) is not affine,
the smaller component degree must divide the larger and the smaller
leading form's power must be proportional to the larger leading form;
composing on the left with the elementary map that cancels the top form
strictly reduces deg f + deg g.  A successful run terminates in an
invertible affine map and assembles a word of affine and triangular
letters that recomposes exactly to the input, which proves the input is an
automorphism.  Any failing step is returned as a rejection certificate,
sound because plane automorphisms always admit such a reduction.

A constant-Jacobian pre-check fast-fails inputs whose Jacobian determinant
is not a nonzero constant (with the determinant as evidence); it is only a
shortcut, never the acceptance path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .endo import Endo
from .errors import DegenerateInput, DimensionError, NotAnAutomorphism
from .groups import AffineMap, Generator, TriangularMap, Word, generator_to_endo
from .poly import NEG_INF, Poly


def leading_form(f: Poly) -> Poly:
    """The homogeneous component of top total degree; rejects zero."""
    if f.is_zero:
        raise DegenerateInput("the zero polynomial has no leading form")
    return f.homogeneous_component(range(1, f.nvars + 1), f.total_degree())


def _proportionality(p: Poly, q: Poly) -> Fraction | None:
    """The constant c with p == c * q, or None if no such constant exists."""
    anchor = max(q.terms())
    denom = q.terms()[anchor]
    c = Fraction(p.terms().get(anchor, 0)) / Fraction(denom)
    if c == 0:
        return None
    return c if p == c * q else None


@dataclass(frozen=True)
class ReductionStep:
    """One line of the reduction log."""

    before: tuple
    after: tuple
    letter: str

    def __str__(self):
        return f"{self.before} -> {self.after} via {self.letter}"


@dataclass(frozen=True)
class RejectionCertificate:
    """Why the reduction loop stopped without reaching an affine map."""

    reason: str
    stage: int
    multidegree: tuple
    detail: str
    jacobian: Poly | None = None

    def as_dict(self) -> dict:
        payload = {
            "reason": self.reason,
            "stage": self.stage,
            "multidegree": [str(d) for d in self.multidegree],
            "detail": self.detail,
        }
        if self.jacobian is not None:
            payload["jacobian"] = str(self.jacobian)
        return payload


@dataclass(frozen=True)
class PlaneFactorization:
    """A word over affine/triangular letters recomposing exactly to the source."""

    word: Word
    source: Endo
    steps: tuple[ReductionStep, ...] = ()

    def __post_init__(self):
        if self.word.to_endo() != self.source:
            raise DegenerateInput("factorization word does not recompose to the source")
        types = [type(gen) for gen, _ in self.word.letters]
        if not {AffineMap, TriangularMap}.issuperset(types):
            raise DegenerateInput("plane factorizations use only affine/triangular letters")
        if any(a is b for a, b in zip(types, types[1:])):
            raise DegenerateInput("letters must alternate between affine and triangular")


def _merge_letters(letters: list[tuple[Generator, int]]) -> list[tuple[Generator, int]]:
    """Fuse adjacent letters of one type and drop identities; types then alternate."""
    merged: list[tuple[Generator, int]] = []
    for gen, exp in letters:
        if gen.to_endo().is_identity():  # a letter is the identity iff its inverse is
            continue
        if merged and type(merged[-1][0]) is type(gen):
            fused = generator_to_endo(*merged.pop()).compose(generator_to_endo(gen, exp))
            if not fused.is_identity():
                merged.append((type(gen).from_endo(fused), 1))
        else:
            merged.append((gen, exp))
    return merged


def factor_plane(sigma: Endo) -> PlaneFactorization:
    """Factor a plane automorphism into affine and triangular letters.

    Raises NotAnAutomorphism with a step certificate when the reduction
    cannot continue; succeeding is itself the proof of invertibility.
    """
    if sigma.n != 2:
        raise DimensionError("plane factorization is defined for n = 2 only")

    jacobian = sigma.jacobian_det()
    current = sigma
    stage = 0

    def reject(reason: str, detail: str, summary: str | None = None) -> NotAnAutomorphism:
        certificate = RejectionCertificate(
            reason=reason,
            stage=stage,
            multidegree=tuple(f.total_degree() for f in current.components),
            detail=detail,
            jacobian=jacobian,
        )
        message = f"not an automorphism: {summary or detail}"
        error = NotAnAutomorphism(message, certificate.as_dict())
        error.rejection = certificate
        return error

    if not jacobian.is_constant() or jacobian.is_zero:
        raise reject(
            "jacobian",
            "the Jacobian determinant is not a nonzero constant",
            "non-constant Jacobian determinant",
        )

    inverse_letters: list[tuple[Generator, int]] = []
    steps: list[ReductionStep] = []
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    swap = AffineMap.transposition(2, 1, 2)

    while True:
        f, g = current.components
        d1, d2 = f.total_degree(), g.total_degree()
        if d1 <= 1 and d2 <= 1:
            try:
                final = AffineMap.from_endo(current)
            except DimensionError:
                raise reject("singular-affine", "reduction ended in a singular affine map")
            letters = _merge_letters(inverse_letters + [(final, 1)])
            if not letters:
                letters = [(AffineMap.identity(2), 1)]
            word = Word(letters)
            return PlaneFactorization(word, sigma, tuple(steps))

        if min(d1, d2) < 1:
            raise reject(
                "constant-component",
                "a component is constant while the other has degree >= 2",
            )

        before = (d1, d2)
        if d1 == d2:
            c = _proportionality(leading_form(g), leading_form(f))
            if c is None:
                raise reject(
                    "non-proportional",
                    "equal degrees but leading forms are not proportional",
                )
            # affine mix g <- g - c*f
            mix = AffineMap([[1, 0], [-c, 1]], [0, 0])
            current = mix.to_endo().compose(current)
            inverse_letters.append((mix, -1))
            letter_text = f"mix g -= {c}*f"
        elif d1 > d2:
            if d1 % d2 != 0:
                raise reject("divisibility", f"deg f = {d1} is not a multiple of deg g = {d2}")
            k = d1 // d2
            c = _proportionality(leading_form(f), leading_form(g) ** k)
            if c is None:
                raise reject(
                    "non-proportional",
                    "leading form of f is not proportional to the power of that of g",
                )
            beta = TriangularMap([1, 1], [-c * x2**k, Poly.zero(2)])
            current = beta.to_endo().compose(current)
            inverse_letters.append((beta, -1))
            letter_text = f"elementary f -= {c}*g^{k}"
        else:
            if d2 % d1 != 0:
                raise reject("divisibility", f"deg g = {d2} is not a multiple of deg f = {d1}")
            k = d2 // d1
            c = _proportionality(leading_form(g), leading_form(f) ** k)
            if c is None:
                raise reject(
                    "non-proportional",
                    "leading form of g is not proportional to the power of that of f",
                )
            # transposed elementary: conjugate the shear by the swap
            beta = TriangularMap([1, 1], [-c * x2**k, Poly.zero(2)])
            transposed = swap.to_endo().compose(beta.to_endo()).compose(swap.to_endo())
            current = transposed.compose(current)
            inverse_letters.extend([(swap, 1), (beta, -1), (swap, 1)])
            letter_text = f"transposed elementary g -= {c}*f^{k}"

        after = tuple(p.total_degree() for p in current.components)
        steps.append(ReductionStep(before, after, letter_text))
        if sum(after) >= sum(before):
            raise reject("no-decrease", "a reduction step failed to lower the degree sum")
        stage += 1


def is_plane_automorphism(sigma: Endo):
    """Decide invertibility for n = 2, with a certificate either way.

    Returns (True, PlaneFactorization) or (False, RejectionCertificate).
    """
    if sigma.n != 2:
        raise DimensionError("plane decision procedure is defined for n = 2 only")
    try:
        return True, factor_plane(sigma)
    except NotAnAutomorphism as error:
        return False, error.rejection
