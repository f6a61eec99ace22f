"""The four benchmark workloads: inputs from a seed, one op, one oracle each.

Each workload is built from the freshly imported polyauto modules and a
seed.  ``items`` are the op inputs of one pass, in run order.  ``run`` is
the program's work and is the only part on the clock; ``check`` compares
its result with an oracle from ``oracle.py`` that does not reuse the code
under test.

degeneration and jacobian take the acceptance fixture's 100 tame sources
for every seed, less the seven with more than 220 terms in a component
(k = 35, 50, 53, 68, 70, 71, 88), and the seed draws the signs and order
of the curve samples t0.  A few heavy cases hold most of their time, so
sources redrawn per seed swung the cost of a pass by a third.  The seven
left out hold 64% of a degeneration pass and 85% of a jacobian pass (one
determinant of theirs takes 0.5-3.1 s): with them a 20-second run on a
loaded host could time each op only three times, too few for a steady
median.  The sources at 100-220 terms that stay (0.17-0.56 s per
determinant) carry the same ``poly_det`` work at a size a run can repeat.
words and cli likewise take fixed inputs, which the seed conjugates by
signs (see Words and Cli).

Why these four, and which layer each stresses:

* degeneration -- the in-process ``polyauto curve`` path on tame sources:
  ``substitute``/``__mul__``/``compose`` with the parameter t, and every
  pipeline stage (which today runs several times per op).  No ``poly_det``.
* jacobian -- exact ``Endo.jacobian_det`` on the normalized n = 3, 4 tame
  sources and their curve specializations: ``poly_det`` products of tens
  of thousands of terms, no composition.
* words -- tame words, their round trip word * word^-1 and, for n = 2, the
  plane factorization: composition without t, ``groups`` and
  ``planefactor``.
* cli -- one subprocess per op over a fixed verb mix: interpreter start
  and import set the median, parsing of ~10k-char maps sets the tail.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import oracle
import reference

# The curve samples of the acceptance fixture (selfcheck.degeneration_suites).
FIXTURE_T0 = (1, -1, 2, Fraction(1, 2))
FIXTURE_CASES = 100
SOURCE_TERM_CAP = 220

def curve_samples(seed: int) -> tuple:
    """The four t0 of a seed: the fixture's 1, -1, 2, 1/2 for seed 0, else
    1, -1, +-2, +-1/2 in a seeded order.  Only signs and order vary, so the
    coefficient sizes, and with them the cost of a pass, do not depend on
    the seed; drawing |t0| up to 3 swung a degeneration pass by a third.
    """
    if seed == 0:
        return FIXTURE_T0
    rng = random.Random(f"t0-{seed}")
    samples = [1, -1, 2 * rng.choice((1, -1)), Fraction(rng.choice((1, -1)), 2)]
    rng.shuffle(samples)
    return tuple(samples)


def fixture_sources(pa) -> dict:
    """The fixture's tame sources selfcheck.sample_tame_case(k), k < 100, by
    k, less those with more than SOURCE_TERM_CAP terms in a component."""
    sources = {}
    for k in range(FIXTURE_CASES):
        phi = pa.selfcheck.sample_tame_case(k)
        if max(len(f.terms()) for f in phi.components) <= SOURCE_TERM_CAP:
            sources[k] = phi
    return sources


class Workload:
    name = ""
    trace_passes = 1  # a traced pass covers trace_items this many times
    reference_s = reference.REFERENCE_S

    def reference_burst(self) -> list:
        """Times of reference work taken between ops; run.py scales op times
        by reference_s over their median."""
        return reference.burst()

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def run_traced(self, item):
        return self.run(item)

    @property
    def trace_items(self) -> list:
        return self.items


class Degeneration(Workload):
    """One op: a tame source through witness_report, then closure_witness at the seed's t0."""

    name = "degeneration"

    def __init__(self, pa, seed: int):
        self.pa = pa
        self.samples = curve_samples(seed)
        self.items = list(fixture_sources(pa).values())

    def run(self, phi):
        degeneration = self.pa.degeneration
        report = degeneration.witness_report(phi)
        samples = degeneration.closure_witness(phi, self.samples)
        return report, samples

    def check(self, phi, result) -> bool:
        report, samples = result
        record = report.normalization
        psi = record.result
        n = phi.n
        if not report.limit_report.passed:
            return False
        # psi has identity affine part and equals S A^-1 phi S, S the
        # recorded transposition and A^-1 the recorded affine correction
        for i, f in enumerate(psi.components):
            if {k: c for k, c in f.terms().items() if sum(k) <= 1} != {oracle.unit_key(n, i): 1}:
                return False
        swap = list(range(n))
        if record.transposition is not None:
            i, j = record.transposition
            swap[i - 1], swap[j - 1] = j - 1, i - 1
        point = [Fraction(v) for v in (2, -1, 3, -2)[:n]]
        value = oracle.endo_eval(phi, [point[i] for i in swap])
        if record.affine_inverse is not None:
            value = oracle.letter_eval(record.affine_inverse, 1, value)
        if [value[i] for i in swap] != oracle.endo_eval(psi, point):
            return False
        # the witness is (x1 + h, x2, ..., xn), h the lowest-degree form of
        # psi_1 at x1 = 0, of degree w >= 2: triangular and not affine
        obstruction = {k: c for k, c in psi.components[0].terms().items() if k[0] == 0}
        w = min(sum(k) for k in obstruction)
        shear = {k: c for k, c in obstruction.items() if sum(k) == w}
        if w < 2 or report.witness.components[0].terms() != {oracle.unit_key(n, 0): 1, **shear}:
            return False
        if not oracle.is_identity(report.witness, start=1):
            return False
        # the curve is the witness modulo t
        for f, g in zip(report.curve.components, report.witness.components):
            at_zero = {k[:-1]: c for k, c in f.terms().items() if k[-1] == 0}
            if at_zero != {k[:-1]: c for k, c in g.terms().items()}:
                return False
        # each closure sample is the torus conjugate a^-1 psi a, with
        # a = (t0^w x1, t0 x2, ..., t0 xn), and keeps the source degree
        if [s.t0 for s in samples] != list(self.samples):
            return False
        degree = max(oracle.raw_degree(f.terms()) for f in phi.components)
        for sample in samples:
            scale = [sample.t0**w] + [sample.t0] * (n - 1)
            image = oracle.endo_eval(psi, [a * c for a, c in zip(point, scale)])
            if oracle.endo_eval(sample.image, point) != [v / c for v, c in zip(image, scale)]:
                return False
            if max(oracle.raw_degree(f.terms()) for f in sample.image.components) != degree:
                return False
        return True


class Jacobian(Workload):
    """One op: one exact Endo.jacobian_det of a source or of a specialization of its curve."""

    name = "jacobian"
    HEAVY_TERMS = 100

    def __init__(self, pa, seed: int):
        degeneration = pa.degeneration
        rng = random.Random(f"jacobian-{seed}")
        samples = curve_samples(seed)
        self.pa = pa
        self.sources = fixture_sources(pa)
        self.expected = {}  # source index -> oracle determinant, filled by check
        self.items = []
        for k, phi in self.sources.items():
            if phi.n < 3:
                continue
            psi = degeneration.normalize(phi).result
            data = degeneration.degeneration_data(psi)
            curve = degeneration.torus_conjugate(psi, data.valuation)
            # The five heavy sources (100 terms or more) hold ~65% of the
            # determinant time, so each gives one determinant, of its curve
            # at t0 = 1 or -1 (drawn by the seed): the same cost for every
            # seed, and a pass near 2.5 s.  Light sources give psi and the
            # curve at all four t0.
            if max(len(f.terms()) for f in psi.components) >= self.HEAVY_TERMS:
                variants = [curve.specialize(rng.choice((1, -1)))]
            else:
                variants = [psi] + [curve.specialize(t0) for t0 in samples]
            self.items.extend((endo, k) for endo in variants)

    def run(self, item):
        return item[0].jacobian_det()

    def check(self, item, result) -> bool:
        endo, k = item
        if k not in self.expected:
            phi = self.sources[k]
            word = tame_word(self.pa, k, phi)
            self.expected[k] = oracle.word_jacobian(word) / oracle.det(oracle.linear_matrix(phi))
        return result.terms() == {(0,) * (endo.n + 1): self.expected[k]}


class Words(Workload):
    """One op: word.to_endo, the word * word^-1 round trip, and factor_plane for n = 2."""

    name = "words"
    # Enough distinct words that the tail rank lies among many heavy words,
    # few enough that a run times each one about six times.
    POOL = 600
    # The words come from this fixed base for every seed, and the seed draws
    # a sign change D = diag(+-1) to conjugate each one by, D w D, and the
    # oracle's points.  D w D has the supports and coefficient sizes of w,
    # so every seed costs the same; words drawn per seed moved the tail, the
    # 11th-heaviest of 600 heavy-tailed costs, by a third from seed to seed.
    POOL_BASE = "words-pool"
    TRACE_OPS = 200
    DMAX = 2
    # Inverting a triangular letter raises its degree (up to dmax^(n-1)), and
    # the round trip composes the whole inverse word first.  Words whose
    # inverse letters' degree bounds multiply past this cap are redrawn, the
    # same policy as the selfcheck's term cap.  Uncapped, one n = 4 word of
    # length 5 took 100 s; at cap 8 the n = 4 words still reach 0.26 s and
    # the tail rank doubled or halved from seed to seed.
    INVERSE_DEGREE_CAP = 4

    def __init__(self, pa, seed: int):
        self.pa = pa
        pool = random.Random(self.POOL_BASE)
        rng = random.Random(f"words-{seed}")
        self.items = []
        for i in range(self.POOL):
            n = 2 + i % 3
            length = 1 + (i // 3) % 6
            while True:
                word = pa.groups.random_tame_word(n, pool.getrandbits(48), length, self.DMAX)
                if inverse_degree_bound(word) <= self.INVERSE_DEGREE_CAP:
                    break
            word = sign_conjugate(pa, word, [rng.choice((1, -1)) for _ in range(n)])
            points = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(2)
            ]
            self.items.append((word, points))

    def run(self, item):
        word, _ = item
        endo = word.to_endo()
        round_trip = word.concat(word.inverse()).to_endo()
        factorization = self.pa.planefactor.factor_plane(endo) if word.n == 2 else None
        return endo, round_trip, factorization

    def check(self, item, result) -> bool:
        word, points = item
        endo, round_trip, factorization = result
        if not oracle.is_identity(round_trip):
            return False
        for point in points:
            value = oracle.word_eval(word, point)
            if oracle.endo_eval(endo, point) != value:
                return False
            if factorization is not None and oracle.word_eval(factorization.word, point) != value:
                return False
        return True

    @property
    def trace_items(self) -> list:
        return self.items[: self.TRACE_OPS]


class Cli(Workload):
    """One op: one ``python -m polyauto.cli`` subprocess from a fixed verb mix."""

    name = "cli"
    trace_passes = 2
    NAGATA = "[x - 2*y*(y^2+x*z) - z*(y^2+x*z)^2, y + z*(y^2+x*z), z]"
    REJECTED = "[x1, x1*x2]"
    MALFORMED = "[x1 + * x2]"
    # The maps come from this fixed base for every seed, and the seed draws
    # the signs to conjugate each by (see sign_conjugate): the same sizes,
    # so every seed costs the same.  With maps drawn per seed the tail, here
    # the slowest of nine verbs, moved by a third from seed to seed.
    INPUT_BASE = "cli-inputs"
    # random_tame_word(3, LARGE_SEED, 5, 3) prints to 9-11k characters.
    LARGE_SEED = 94
    LARGE_CHARS = (9000, 11000)
    # The over-budget input [x1^9999999999999999999, x2] is left out: it
    # does not terminate today, and an input budget is still to come.
    # The reference work for cli is a bare interpreter start with two
    # stdlib imports.  Process start-up sets the median of a cli op, and on
    # a loaded host it slows unlike in-process work: scaled by the
    # in-process kernel, the cli median spread 0.11-0.29 over runs.
    REFERENCE_ARGV = ("-c", "import argparse, fractions")
    reference_s = 0.040

    def __init__(self, pa, seed: int):
        self.pa = pa
        base = random.Random(self.INPUT_BASE)
        rng = random.Random(f"cli-{seed}")
        groups = pa.groups

        def shaped(word, degree: int, low: int, high: int) -> bool:
            endo = word.to_endo()
            terms = max(len(f.terms()) for f in endo.components)
            return endo.degree() >= degree and low <= terms <= high

        def conjugated(word):
            return sign_conjugate(pa, word, [rng.choice((1, -1)) for _ in range(word.n)]).to_endo()

        witness = conjugated(_first(
            lambda: groups.random_tame_word(3, base.getrandbits(48), 3, 3),
            lambda w: shaped(w, 2, 20, 60),
        ))
        plane = conjugated(_first(
            lambda: groups.random_tame_word(2, base.getrandbits(48), 4, 3),
            lambda w: shaped(w, 3, 5, 60),
        ))
        large = conjugated(groups.random_tame_word(3, self.LARGE_SEED, 5, 3))
        if not self.LARGE_CHARS[0] <= len(str(large)) <= self.LARGE_CHARS[1]:
            raise RuntimeError(f"large cli input has {len(str(large))} characters")
        affine = conjugated(groups.Word([(groups.random_affine(3, base.getrandbits(48)), 1)]))
        large_text = str(large)
        mix = [
            (("nagata",), None, 0),
            (("curve", self.NAGATA), None, 0),
            (("witness", str(witness)), None, 0),
            (("factor2", str(plane)), None, 0),
            (("factor2", self.REJECTED), None, 2),
            (("info", "-"), large_text, 0),
            (("compose", str(affine), "-"), large_text, 0),
            (("random-tame", "--n", "3", "--seed", str(base.randrange(10**6)), "--length", "4"), None, 0),
            (("info", self.MALFORMED), None, 1),
        ]
        self.items = []
        for argv, stdin, expected_code in mix:
            code, stdout = self._in_process(argv, stdin)
            if code != expected_code:
                raise RuntimeError(f"golden run of {argv[0]} exited {code}, expected {expected_code}")
            self.items.append((argv, stdin, code, stdout))
        # the subprocesses import the same sources as this process
        src = os.path.dirname(os.path.dirname(os.path.abspath(pa.cli.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)

    def _in_process(self, argv, stdin):
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.pa.cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue().encode()

    def run(self, item):
        argv, stdin, _, _ = item
        done = subprocess.run(
            [sys.executable, "-m", "polyauto.cli", *argv],
            input=None if stdin is None else stdin.encode(),
            stdin=subprocess.DEVNULL if stdin is None else None,
            capture_output=True,
            env=self.env,
            timeout=120,
        )
        return done.returncode, done.stdout

    def run_traced(self, item):
        argv, stdin, _, _ = item
        return self._in_process(argv, stdin)

    def reference_burst(self) -> list:
        # one sample: every fresh process starts cold, so none is dropped
        start = perf_counter()
        subprocess.run(
            [sys.executable, *self.REFERENCE_ARGV],
            stdin=subprocess.DEVNULL,
            env=self.env,
            capture_output=True,
            check=True,
            timeout=60,
        )
        return [perf_counter() - start]

    def check(self, item, result) -> bool:
        _, _, code, stdout = item
        return result == (code, stdout)


def _first(draw, accept, attempts: int = 5000):
    for _ in range(attempts):
        value = draw()
        if accept(value):
            return value
    raise RuntimeError("input generator exhausted its attempts")


def tame_word(pa, k: int, phi):
    """The word behind selfcheck.sample_tame_case(k), found by its schedule."""
    n = 2 + k % 3
    length = 1 + (k // 3) % 6
    for attempt in range(200):
        word = pa.groups.random_tame_word(
            n, pa.selfcheck.TAME_SUITE_BASE + 1000 * k + attempt, length, 3
        )
        if word.to_endo() == phi:
            return word
    raise RuntimeError(f"no schedule word reproduces tame case {k}")


def sign_conjugate(pa, word, signs):
    """The word D w D, D = diag(signs) with signs +-1 (so D = D^-1), built
    letter by letter: D M D and D v for an affine letter (M, v); the same
    scalings and shifts c_i p_i(D x) for a triangular one."""
    groups = pa.groups
    n = len(signs)
    letters = []
    for gen, exponent in word.letters:
        if hasattr(gen, "matrix"):
            matrix = [[signs[i] * gen.matrix[i][j] * signs[j] for j in range(n)] for i in range(n)]
            gen = groups.AffineMap(matrix, [c * v for c, v in zip(signs, gen.translation)])
        else:
            shifts = []
            for c, shift in zip(signs, gen.shifts):
                terms = {}
                for key, coeff in shift.terms().items():
                    for e, sign in zip(key, signs):
                        if e % 2:
                            coeff = -coeff if sign < 0 else coeff
                    terms[key] = c * coeff
                shifts.append(pa.poly.Poly(n, terms))
            gen = groups.TriangularMap(gen.scalings, shifts)
        letters.append((gen, exponent))
    return groups.Word(letters)


def inverse_degree_bound(word) -> int:
    """Product over letters of a bound on the inverse letter's degree.

    Back-substitution gives deg(y_i) <= max(1, deg(p_i) * max_{j>i} deg(y_j))
    for a triangular letter with shifts p_i; affine letters have degree 1.
    """
    bound = 1
    for gen, _ in word.letters:
        if not hasattr(gen, "shifts"):
            continue
        later = 0
        for shift in reversed(gen.shifts):
            terms = shift.terms()
            d = oracle.raw_degree(terms) if terms else 0
            later = max(later, 1, d * later)
        bound *= later
    return bound


WORKLOADS = {cls.name: cls for cls in (Degeneration, Jacobian, Words, Cli)}
