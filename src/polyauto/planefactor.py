"""Constructive factorization of plane (n = 2) automorphisms.

The classical degree-reduction loop: while the map (f, g) is not affine,
the smaller degree must divide the larger, k times.  A step subtracts c
times the smaller component's k-th power from the larger (g on a tie), c
read off one top monomial of that power, and stands iff the larger degree
drops, i.e. iff the two leading forms are proportional.  It is an affine
mix when k = 1, else the elementary shear, conjugated by the swap when it
acts on g; deg f + deg g falls by construction.  A successful run ends in
an invertible affine map and assembles a word of affine and triangular
letters that recomposes exactly to the input, which proves the input is an
automorphism.  Any failing step is returned as a rejection certificate,
sound because plane automorphisms always admit such a reduction.

A constant-Jacobian pre-check fast-fails inputs whose Jacobian determinant
is not a nonzero constant (with the determinant as evidence); it is only a
shortcut, never the acceptance path.  Past it, ``constant-component`` and
``singular-affine`` cannot fire (either would make the Jacobian 0), and
``divisibility`` and ``non-proportional`` fire only on a counterexample to
the plane Jacobian conjecture.  The checks stay: they are the sound decision.
"""

from __future__ import annotations

from .endo import Endo, _Value
from .errors import DegenerateInput, DimensionError, NotAnAutomorphism
from .groups import AffineMap, Generator, TriangularMap, Word
from .poly import Poly


def leading_form(f: Poly) -> Poly:
    """The homogeneous component of top total degree; rejects zero."""
    if f.is_zero:
        raise DegenerateInput("the zero polynomial has no leading form")
    return f.homogeneous_component(range(1, f.nvars + 1), f.total_degree())


class ReductionStep(_Value):
    """One line of the reduction log."""

    __slots__ = _fields = ("before", "after", "letter")

    def __init__(self, before: tuple, after: tuple, letter: str):
        self.before, self.after, self.letter = before, after, letter

    def __str__(self):
        return f"{self.before} -> {self.after} via {self.letter}"


class RejectionCertificate(_Value):
    """Why the reduction loop stopped without reaching an affine map."""

    __slots__ = _fields = ("reason", "stage", "multidegree", "detail", "jacobian")

    def __init__(
        self, reason: str, stage: int, multidegree: tuple, detail: str, jacobian: Poly | None = None
    ):
        self.reason, self.stage, self.multidegree = reason, stage, multidegree
        self.detail, self.jacobian = detail, jacobian

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


class PlaneFactorization(_Value):
    """A word over affine/triangular letters recomposing exactly to the source."""

    __slots__ = _fields = ("word", "source", "steps")

    def __init__(self, word: Word, source: Endo, steps: tuple[ReductionStep, ...] = ()):
        if word.to_endo() != source:
            raise DegenerateInput("factorization word does not recompose to the source")
        types = [type(gen) for gen, _ in word.letters]
        if not {AffineMap, TriangularMap}.issuperset(types):
            raise DegenerateInput("plane factorizations use only affine/triangular letters")
        if any(a is b for a, b in zip(types, types[1:])):
            raise DegenerateInput("letters must alternate between affine and triangular")
        self.word, self.source, self.steps = word, source, steps


def _merge_letters(letters: list[tuple[Generator, int]]) -> list[tuple[Generator, int]]:
    """Fuse adjacent letters of one type, dropping fusions that give the identity;
    types then alternate.  No letter passed in may be the identity."""
    merged: list[tuple[Generator, int]] = []
    for gen, exp in letters:
        if merged and type(merged[-1][0]) is type(gen):
            fused = Word([merged.pop(), (gen, exp)]).to_endo()
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
    x2 = Poly.variable(2, 2)
    swap = AffineMap.transposition(2, 1, 2)

    while True:
        f, g = current.components
        d1, d2 = f.total_degree(), g.total_degree()
        if d1 <= 1 and d2 <= 1:
            try:
                final = AffineMap.from_endo(current)
            except DimensionError:
                raise reject("singular-affine", "reduction ended in a singular affine map")
            if final != AffineMap.identity(2):
                inverse_letters.append((final, 1))
            letters = _merge_letters(inverse_letters)
            word = Word(letters or [(AffineMap.identity(2), 1)])
            return PlaneFactorization(word, sigma, tuple(steps))

        if min(d1, d2) < 1:
            raise reject(
                "constant-component",
                "a component is constant while the other has degree >= 2",
            )

        # cancel the top form of the larger component (g on a tie) by c times
        # the k-th power of the other's top form
        before = (d1, d2)
        on_g = d2 >= d1
        big, small = "gf" if on_g else "fg"
        top, other = (g, f) if on_g else (f, g)
        low, high = sorted(before)
        k, rest = divmod(high, low)
        if rest:
            detail = f"deg {big} = {high} is not a multiple of deg {small} = {low}"
            raise reject("divisibility", detail)
        # c matches top to the power at one top monomial of the power; the step
        # stands iff the degree drops, which c = 0 never does
        power = other**k
        anchor = max(leading_form(power).terms())[:-1]
        c = top.coefficient(anchor) / power.coefficient(anchor)
        reduced = top - c * power
        if reduced.total_degree() >= high:
            raise reject(
                "non-proportional",
                f"leading form of {big} is not proportional to the power of that of {small}"
                if k > 1
                else "equal degrees but leading forms are not proportional",
            )
        current = Endo._make((f, reduced) if on_g else (reduced, g))
        if k == 1:  # affine mix g <- g - c*f
            letters, letter_text = [(AffineMap([[1, 0], [-c, 1]], [0, 0]), -1)], f"mix g -= {c}*f"
        else:  # the shear f <- f - c*g^k, conjugated by the swap when it acts on g
            letters = [(TriangularMap([1, 1], [-c * x2**k, Poly.zero(2)]), -1)]
            letter_text = f"elementary {big} -= {c}*{small}^{k}"
            if on_g:
                letters = [(swap, 1), *letters, (swap, 1)]
                letter_text = f"transposed {letter_text}"
        inverse_letters.extend(letters)

        after = tuple(p.total_degree() for p in current.components)
        steps.append(ReductionStep(before, after, letter_text))
        stage += 1


def is_plane_automorphism(sigma: Endo):
    """Decide invertibility for n = 2, with a certificate either way.

    Returns (True, PlaneFactorization) or (False, RejectionCertificate); other n raise.
    """
    try:
        return True, factor_plane(sigma)
    except NotAnAutomorphism as error:
        return False, error.rejection
