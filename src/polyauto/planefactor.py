"""Constructive factorization of plane (n = 2) automorphisms.

The classical degree-reduction loop: while the map (f, g) is not affine,
the smaller component degree must divide the larger and the smaller
leading form's k-th power must be proportional to the larger leading form.
One step cancels that top form (g's on a tie): an affine mix when k = 1,
else the elementary shear, conjugated by the swap when it acts on g.  Each
step strictly reduces deg f + deg g.  A successful run terminates in an
invertible affine map and assembles a word of affine and triangular
letters that recomposes exactly to the input, which proves the input is an
automorphism.  Any failing step is returned as a rejection certificate,
sound because plane automorphisms always admit such a reduction.

A constant-Jacobian pre-check fast-fails inputs whose Jacobian determinant
is not a nonzero constant (with the determinant as evidence); it is only a
shortcut, never the acceptance path.  Past it, ``constant-component`` and
``singular-affine`` cannot fire (either would make the Jacobian 0), nor can
``no-decrease`` (each step cancels the top form exactly); ``divisibility``
and ``non-proportional`` fire only on a counterexample to the plane
Jacobian conjecture.  The checks stay, because they are the sound decision.
"""

from __future__ import annotations

from fractions import Fraction

from .endo import Endo, _Value
from .errors import DegenerateInput, DimensionError, NotAnAutomorphism
from .groups import AffineMap, Generator, TriangularMap, Word
from .poly import Poly


def leading_form(f: Poly) -> Poly:
    """The homogeneous component of top total degree; rejects zero."""
    if f.is_zero:
        raise DegenerateInput("the zero polynomial has no leading form")
    return f.homogeneous_component(range(1, f.nvars + 1), f.total_degree())


def _proportionality(p: Poly, q: Poly) -> Fraction | None:
    """The constant c with p == c * q, or None if no such constant exists."""
    anchor = max(q._terms)
    c = Fraction(p._terms.get(anchor, 0) * q._den, q._terms[anchor] * p._den)
    if c == 0:
        return None
    return c if p == c * q else None


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
    """Fuse adjacent letters of one type and drop identities; types then alternate."""
    merged: list[tuple[Generator, int]] = []
    for gen, exp in letters:
        if gen.to_endo().is_identity():  # a letter is the identity iff its inverse is
            continue
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
            letters = _merge_letters(inverse_letters + [(final, 1)])
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
        c = _proportionality(leading_form(top), leading_form(other) ** k)
        if c is None:
            raise reject(
                "non-proportional",
                f"leading form of {big} is not proportional to the power of that of {small}"
                if k > 1
                else "equal degrees but leading forms are not proportional",
            )
        reduced = top - c * other**k
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
        if sum(after) >= sum(before):
            raise reject("no-decrease", "a reduction step failed to lower the degree sum")
        stage += 1


def is_plane_automorphism(sigma: Endo):
    """Decide invertibility for n = 2, with a certificate either way.

    Returns (True, PlaneFactorization) or (False, RejectionCertificate); other n raise.
    """
    try:
        return True, factor_plane(sigma)
    except NotAnAutomorphism as error:
        return False, error.rejection
