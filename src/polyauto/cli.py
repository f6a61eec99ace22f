"""Command-line front end.

Verbs map onto the library: ``degenerate`` and ``witness`` run the
normalization + torus-limit pipeline, ``curve`` adds per-sample closure
witnesses, ``factor2`` runs the plane factorization, ``nagata`` prints the
gallery pair, ``random-tame`` samples seeded tame words, and ``selfcheck``
runs the seeded verification suites.  Output is deterministic for a fixed
invocation; ``--json`` renders the same data as one JSON object.

Exit codes: 0 success, 1 parse or usage error, 2 a certified failure
(the certificate is printed, machine-checkable, never just a message;
one JSON object under ``--json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf

# Each verb imports the modules it needs beyond these, so a process pays
# only for the verb it runs.
from .endo import Endo
from .errors import (
    AlgebraError,
    CertificateError,
    ConsistencyError,
    MissingInverse,
    ParseError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for certified
    # mathematical failures, so usage errors are rerouted to exit 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyauto", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="verb", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the record as one JSON object")

    def verb(name, summary, handler):
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(run=handler)
        return p

    def endo_operand(p):
        p.add_argument("endo", help="endomorphism text '[f1, ..., fn]', or '-' for stdin")
        return p

    endo_operand(verb("info", "degree, affine/triangular flags, Jacobian", _cmd_info))

    p = verb("compose", "compose endomorphisms left to right", _cmd_compose)
    p.add_argument("endos", nargs="+", help="two or more endomorphism texts")

    p = endo_operand(verb("apply", "evaluate an endomorphism at a rational point", _cmd_apply))
    p.add_argument("point", help="comma-separated rationals, e.g. 1,-2/3")

    endo_operand(verb("degenerate", "normalized triangular limit witness", _cmd_degenerate))
    endo_operand(verb("witness", "full degeneration report", _cmd_witness))

    p = endo_operand(verb("curve", "specializations of the conjugation curve", _cmd_curve))
    p.add_argument("--samples", default="1,-1,2,1/2", help="nonzero rationals, comma-separated")

    endo_operand(verb("factor2", "factor a plane automorphism into generators", _cmd_factor2))

    p = verb("nagata", "print the Nagata automorphism", _cmd_nagata)
    p.add_argument("--inverse", action="store_true", help="print the inverse instead")

    p = verb("random-tame", "sample a seeded tame word", _cmd_random_tame)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--length", type=int, default=4)
    p.add_argument("--dmax", type=int, default=3)

    p = verb("selfcheck", "run the seeded verification suites", _cmd_selfcheck)
    p.add_argument("--cases", type=int, default=100, help="cases per suite")
    p.add_argument("--shear-cases", type=int, default=25)

    return parser


def _load_endo(text: str) -> Endo:
    from .parsing import parse_endo

    if text == "-":
        text = sys.stdin.read()
    return parse_endo(text)


def _valuations_json(valuations):
    return [None if v == inf else v for v in valuations]


def _report_json(report) -> dict:
    return {
        "w": report.data.valuation,
        "d": report.data.source_degree,
        "h": str(report.data.limit_shear),
        "valuations": _valuations_json(report.limit_report.valuations),
        "pass": report.limit_report.passed,
        "witness": str(report.witness),
        "g0": str(report.data.obstruction),
        "normalized": str(report.normalization.result),
        "curve": [str(f) for f in report.curve.components],
    }


def _cmd_info(args) -> tuple:
    sigma = _load_endo(args.endo)
    jacobian = sigma.jacobian_det()
    payload = {
        "endo": str(sigma),
        "n": sigma.n,
        "degree": str(sigma._top_degree()),  # "-inf" for the all-zero map
        "affine": sigma.is_affine(),
        "triangular": sigma.is_triangular(),
        "identity_affine_part": sigma.has_identity_affine_part(),
        "jacobian": str(jacobian),
    }
    return payload, [
        f"endo: {payload['endo']}",
        f"n = {payload['n']}",
        f"degree = {payload['degree']}",
        f"affine: {payload['affine']}",
        f"triangular: {payload['triangular']}",
        f"identity affine part: {payload['identity_affine_part']}",
        f"jacobian determinant: {payload['jacobian']}",
    ]


def _cmd_compose(args) -> tuple:
    if len(args.endos) < 2:
        raise _UsageError("compose needs at least two endomorphisms")
    endos = [_load_endo(text) for text in args.endos]
    result = endos[0]
    for other in endos[1:]:
        result = result.compose(other)
    text = str(result)
    return {"endo": text}, [text]


def _cmd_apply(args) -> tuple:
    from .parsing import parse_rational_list

    sigma = _load_endo(args.endo)
    point = parse_rational_list(args.point)
    image = sigma(point)
    values = [str(v) for v in image]
    return {"image": values}, ["(" + ", ".join(values) + ")"]


def _cmd_degenerate(args) -> tuple:
    from .degeneration import witness_report

    report = witness_report(_load_endo(args.endo))
    return _report_json(report), [f"witness: {report.witness}", f"w = {report.data.valuation}"]


def _cmd_witness(args) -> tuple:
    from .degeneration import witness_report

    report = witness_report(_load_endo(args.endo))
    record = report.normalization
    lines = [
        f"source: {report.source}",
        f"normalized: {record.result}",
        "affine correction: "
        + ("applied" if record.affine_inverse is not None else "none"),
        "transposition: "
        + (
            f"x{record.transposition[0]} <-> x{record.transposition[1]}"
            if record.transposition
            else "none"
        ),
        f"g0 = {report.data.obstruction}",
        f"w = {report.data.valuation}",
        f"d = {report.data.source_degree}",
        f"h = {report.data.limit_shear}",
        f"curve: {report.curve}",
        f"witness: {report.witness}",
        "t-valuations of curve - witness: "
        + ", ".join("inf" if v == inf else str(v) for v in report.limit_report.valuations),
        f"pass: {report.limit_report.passed}",
    ]
    return _report_json(report), lines


def _cmd_curve(args) -> tuple:
    from .degeneration import closure_witness, witness_report
    from .parsing import parse_rational_list

    sigma = _load_endo(args.endo)
    samples = parse_rational_list(args.samples)
    report = witness_report(sigma)
    witnesses = closure_witness(report, samples)
    payload = _report_json(report)
    payload["samples"] = [
        {"t0": str(s.t0), "endo": str(s.image), "degree": s.image.degree()}
        for s in witnesses
    ]
    lines = []
    for s in witnesses:
        lines.append(f"t = {s.t0}: {s.image} (degree {s.image.degree()})")
    lines.append(f"limit: {report.witness}")
    lines.append(f"w = {report.data.valuation}, d = {report.data.source_degree}")
    lines.append(f"verify_limit pass: {report.limit_report.passed}")
    return payload, lines


def _cmd_factor2(args) -> tuple:
    from .groups import format_word
    from .planefactor import factor_plane

    sigma = _load_endo(args.endo)
    factorization = factor_plane(sigma)
    word_text = format_word(factorization.word)
    payload = {
        "endo": str(sigma),
        "word": word_text,
        "letters": len(factorization.word),
        "steps": [str(step) for step in factorization.steps],
        "ok": True,
    }
    lines = [f"word: {word_text}"]
    lines.extend(f"step {i + 1}: {step}" for i, step in enumerate(factorization.steps))
    lines.append(f"letters: {len(factorization.word)}")
    return payload, lines


def _cmd_nagata(args) -> tuple:
    from .groups import nagata

    forward, backward = map(str, nagata())
    return {"nagata": forward, "inverse": backward}, [backward if args.inverse else forward]


def _cmd_random_tame(args) -> tuple:
    from .groups import format_word, random_tame_word

    word = random_tame_word(args.n, args.seed, args.length, args.dmax)
    endo = word.to_endo()
    payload = {
        "n": args.n,
        "seed": args.seed,
        "length": args.length,
        "dmax": args.dmax,
        "word": format_word(word),
        "endo": str(endo),
    }
    return payload, [f"word: {payload['word']}", f"endo: {payload['endo']}"]


def _cmd_selfcheck(args) -> tuple:
    if args.cases < 1 or args.shear_cases < 1:
        raise _UsageError("--cases and --shear-cases must be at least 1")
    from .selfcheck import run_all

    # neither the payload nor SuiteResult.line carries timings: identical
    # invocations must produce byte-identical output
    results = run_all(args.cases, args.shear_cases)
    payload = {
        "suites": [
            {"name": r.name, "cases": r.cases, "failures": list(r.failures), "passed": r.passed}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
    lines = []
    for r in results:
        lines += [r.line(), *(f"  {failure}" for failure in r.failures)]
    lines.append("all suites passed" if payload["pass"] else "FAILURES present")
    return payload, lines, 0 if payload["pass"] else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines, *code = args.run(args)  # selfcheck adds its exit code
    except _UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 1
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 1
    except CertificateError as error:
        name, certificate = type(error).__name__, error.certificate
        payload = {"error": name, "message": str(error), **certificate}
        lines = [f"{name}: {error}", *(f"  {key}: {value}" for key, value in certificate.items())]
        code = [2]
    except (ConsistencyError, MissingInverse):
        raise
    except AlgebraError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
