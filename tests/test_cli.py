"""Tests for the command-line front end."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from hashlib import sha256

import pytest

import polyauto
from polyauto import Poly
from polyauto.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NAGATA_TEXT = "[x - 2*y*(y^2+x*z) - z*(y^2+x*z)^2, y + z*(y^2+x*z), z]"


class TestInfo:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "info", "[x1 + x2^2, x2]")
        assert code == 0
        assert "degree = 2" in out
        assert "triangular: True" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "info", NAGATA_TEXT, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == "5"
        assert payload["jacobian"] == "1"
        assert payload["identity_affine_part"] is True

    @pytest.mark.parametrize("text, degree", [("[0, 0]", "-inf"), ("[0, x1^3 + 1]", "3")])
    def test_degree_with_zero_components(self, capsys, text, degree):
        code, out, _ = run_cli(capsys, "info", text, "--json")
        assert code == 0
        assert json.loads(out)["degree"] == degree

    def test_huge_exponent_is_fast_and_exact(self, capsys):
        # one sparse power: the parser squares, and the determinant keeps
        # the exponent in a key field instead of a dense coefficient range
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "info", "[x1^9999999999999999999, x2]")
        elapsed = time.perf_counter() - start
        assert code == 0
        expected = "jacobian determinant: 9999999999999999999*x1^9999999999999999998"
        assert expected in out.splitlines()
        assert elapsed < 5

    def test_dense_power_is_fast_and_exact(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "info", "[(x1+x2)^800, x2]")
        elapsed = time.perf_counter() - start
        assert code == 0
        x1, x2 = Poly.variables(2)
        assert f"jacobian determinant: {800 * (x1 + x2) ** 799}" in out.splitlines()
        assert elapsed < 5

    def test_huge_index_fails_at_its_token(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "info", "[x99999999]")
        assert code == 1
        assert out == ""
        assert "(at position 1)" in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "argv, position",
        [
            (("info", "[x1^" + "9" * 5000 + ", x2]"), 4),
            (("info", "[" + "9" * 5000 + "*x1, x2]"), 1),
            (("info", "[x" + "9" * 5000 + ", x2]"), 1),
            (("apply", "[x1, x2]", "1/" + "9" * 5000), 2),
        ],
    )
    def test_digit_strings_past_the_int_limit(self, capsys, argv, position):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("parse error:")
        assert f"(at position {position})" in err
        assert "Traceback" not in err


class TestIntStringLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ("info", "[(2*x1)^15000, x2]"),
            ("info", "[(1/3*x1)^10000, x2]"),
            ("compose", "[x1^2, x2]", "[x1^" + "9" * 4300 + ", x2]"),
        ],
        ids=["coefficient", "denominator", "exponent"],
    )
    @pytest.mark.parametrize("as_json", [False, True])
    def test_rendering_fails_with_one_error_line(self, capsys, argv, as_json):
        code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert str(sys.get_int_max_str_digits()) in err


class TestCompose:
    def test_orientation(self, capsys):
        code, out, _ = run_cli(capsys, "compose", "[x2, x1]", "[x1 + x2^2, x2]")
        assert code == 0
        assert out.strip() == "[x2, x2^2 + x1]"

    def test_exponent_past_the_recursion_limit(self, capsys):
        e = "9" * 400
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "compose", f"[x1^{e}, x2]", "[x2, x1]")
        assert code == 0
        assert out == f"[x2^{e}, x1]\n"
        assert time.perf_counter() - start < 5

    def test_needs_two(self, capsys):
        code, _, err = run_cli(capsys, "compose", "[x1, x2]")
        assert code == 1
        assert "usage error" in err


class TestApply:
    def test_point(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "[x1 + x2^2, x2]", "1,2")
        assert code == 0
        assert out.strip() == "(5, 2)"

    def test_rational_point_json(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "[x1*x2, x2]", "1/3,3", "--json")
        assert code == 0
        assert json.loads(out)["image"] == ["1", "3"]

    def test_empty_field_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "apply", "[x1, x2, x3]", "1,,2,3")
        assert (code, out) == (1, "")
        assert err == "parse error: not a rational number: '' (at position 2)\n"


class TestDegenerate:
    def test_spec_example(self, capsys):
        code, out, _ = run_cli(capsys, "degenerate", "[x1, x2 + x1^2]")
        assert code == 0
        assert "witness: [x2^2 + x1, x2]" in out
        assert "w = 2" in out

    def test_exponent_past_the_recursion_limit(self, capsys):
        e = "9" * 400
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "degenerate", f"[x1 + x2^{e}, x2]")
        assert code == 0
        assert f"w = {e}" in out.splitlines()
        assert time.perf_counter() - start < 5

    def test_affine_input_is_certified_failure(self, capsys):
        code, out, _ = run_cli(capsys, "degenerate", "[x1 + x2, x2]")
        assert code == 2
        assert "NothingToNormalize" in out

    @pytest.mark.parametrize("flag", ["--js", "--j"])
    def test_abbreviated_json_flag_prints_the_json_certificate(self, capsys, flag):
        expected = run_cli(capsys, "degenerate", "[x1 + x2, x2]", "--json")
        assert expected[0] == 2
        assert json.loads(expected[1])["error"] == "NothingToNormalize"
        assert run_cli(capsys, "degenerate", "[x1 + x2, x2]", flag) == expected

    def test_not_a_coordinate_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "degenerate", "[x1*x2 + x1, x2]")
        assert code == 2
        assert "NotACoordinate" in out
        assert "first_component" in out

    def test_json_keys(self, capsys):
        code, out, _ = run_cli(capsys, "degenerate", NAGATA_TEXT, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["w"] == 3
        assert payload["d"] == 5
        assert payload["h"] == "-2*x2^3"
        assert payload["valuations"] == [2, 2, None]
        assert payload["pass"] is True
        assert payload["witness"] == "[-2*x2^3 + x1, x2, x3]"


class TestWitness:
    def test_report_lines(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "[x1, x2 + x1^2]")
        assert code == 0
        assert "transposition: x1 <-> x2" in out
        assert "g0 = x2^2" in out
        assert "pass: True" in out


class TestCurve:
    def test_nagata_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--samples", "1,-1,1/2", NAGATA_TEXT
        )
        assert code == 0
        assert out.count("degree 5") == 3
        assert "limit: [-2*x2^3 + x1, x2, x3]" in out
        assert "verify_limit pass: True" in out

    # Byte goldens of stdout at t0 = 1, -1, 2, 1/2, -2/3, 3/7, for an integral and
    # a fractional source; the sha256 prefixes pin the bytes the texts were taken from.
    GOLDEN_SAMPLES = "1,-1,2,1/2,-2/3,3/7"
    NAGATA_GOLDEN = (
        "t = 1: [-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 - 2*x1*x2*x3"
        " - 2*x2^3 + x1, x1*x3^2 + x2^2*x3 + x2, x3] (degree 5)\n"
        "t = -1: [-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 - 2*x1*x2*x3"
        " - 2*x2^3 + x1, x1*x3^2 + x2^2*x3 + x2, x3] (degree 5)\n"
        "t = 2: [-64*x1^2*x3^3 - 32*x1*x2^2*x3^2 - 4*x2^4*x3 - 8*x1*x2*x3"
        " - 2*x2^3 + x1, 16*x1*x3^2 + 4*x2^2*x3 + x2, x3] (degree 5)\n"
        "t = 1/2: [-1/64*x1^2*x3^3 - 1/8*x1*x2^2*x3^2 - 1/4*x2^4*x3 - 1/2*x1*x2*x3"
        " - 2*x2^3 + x1, 1/16*x1*x3^2 + 1/4*x2^2*x3 + x2, x3] (degree 5)\n"
        "t = -2/3: [-64/729*x1^2*x3^3 - 32/81*x1*x2^2*x3^2 - 4/9*x2^4*x3 - 8/9*x1*x2*x3"
        " - 2*x2^3 + x1, 16/81*x1*x3^2 + 4/9*x2^2*x3 + x2, x3] (degree 5)\n"
        "t = 3/7: [-729/117649*x1^2*x3^3 - 162/2401*x1*x2^2*x3^2 - 9/49*x2^4*x3"
        " - 18/49*x1*x2*x3 - 2*x2^3 + x1, 81/2401*x1*x3^2 + 9/49*x2^2*x3 + x2, x3] (degree 5)\n"
        "limit: [-2*x2^3 + x1, x2, x3]\n"
        "w = 3, d = 5\n"
        "verify_limit pass: True\n"
    )
    FRACTIONAL_SOURCE = "[2*x1 + 1/3*x2^2 + x2^3, x2]"
    FRACTIONAL_GOLDEN = (
        "t = 1: [1/2*x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
        "t = -1: [-1/2*x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
        "t = 2: [x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
        "t = 1/2: [1/4*x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
        "t = -2/3: [-1/3*x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
        "t = 3/7: [3/14*x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
        "limit: [1/6*x2^2 + x1, x2]\n"
        "w = 2, d = 3\n"
        "verify_limit pass: True\n"
    )

    def test_nagata_golden(self, capsys):
        _, nagata_text, _ = run_cli(capsys, "nagata")
        code, out, _ = run_cli(capsys, "curve", "--samples", self.GOLDEN_SAMPLES, nagata_text)
        assert code == 0
        assert out == self.NAGATA_GOLDEN
        assert sha256(out.encode()).hexdigest().startswith("d2497943")

    def test_fractional_source_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--samples", self.GOLDEN_SAMPLES, self.FRACTIONAL_SOURCE
        )
        assert code == 0
        assert out == self.FRACTIONAL_GOLDEN
        assert sha256(out.encode()).hexdigest().startswith("67a171f8")

    @pytest.mark.parametrize("samples, position", [("2,,1/2,", 2), ("1,-1,", 5)])
    def test_empty_sample_is_a_parse_error(self, capsys, samples, position):
        code, out, err = run_cli(capsys, "curve", "--samples", samples, "[x1 + x2^2, x2]")
        assert (code, out) == (1, "")
        assert err.startswith("parse error:") and f"(at position {position})" in err

    def test_zero_sample_rejected(self, capsys):
        # the certificate of TorusAction._scalings, the one zero check, as the library raises it
        for samples in ("0", "0/7", "2,0"):
            code, out, _ = run_cli(capsys, "curve", "--samples", samples, "[x1 + x2^2, x2]")
            assert code == 2
            assert out == (
                "InvalidSample: closure samples must be nonzero; t = 0 is the limit, not a sample\n"
                "  sample: 0\n"
            )

    def test_json_contains_report_keys(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--samples", "1,-1", NAGATA_TEXT, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("w", "d", "h", "valuations", "pass", "samples"):
            assert key in payload
        assert all(s["degree"] == 5 for s in payload["samples"])


class TestFactor2:
    def test_accepts_automorphism(self, capsys):
        code, out, _ = run_cli(capsys, "factor2", "[x2 + x1^2, x1]")
        assert code == 0
        assert "word:" in out

    def test_spec_rejection(self, capsys):
        code, out, _ = run_cli(capsys, "factor2", "[x1, x1*x2]")
        assert code == 2
        assert "NotAnAutomorphism" in out
        assert "jacobian: x1" in out

    def test_rejection_json_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "factor2", "[x1^2, x2]", "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "NotAnAutomorphism"
        assert payload["jacobian"] == "2*x1"


class TestNagata:
    def test_prints(self, capsys):
        code, out, _ = run_cli(capsys, "nagata")
        assert code == 0
        assert "x1" in out

    def test_inverse_composes(self, capsys):
        code, out, _ = run_cli(capsys, "nagata", "--json")
        payload = json.loads(out)
        forward = payload["nagata"]
        code2, out2, _ = run_cli(capsys, "compose", forward, payload["inverse"])
        assert code2 == 0
        assert out2.strip() == "[x1, x2, x3]"


class TestRandomTame:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "random-tame", "--n", "3", "--seed", "7", "--length", "4"
        )
        code2, out2, _ = run_cli(
            capsys, "random-tame", "--n", "3", "--seed", "7", "--length", "4"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, "random-tame", "--n", "3", "--seed", "7")
        _, out2, _ = run_cli(capsys, "random-tame", "--n", "3", "--seed", "8")
        assert out1 != out2

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_dimension_below_one_is_an_error_naming_n(self, capsys, n):
        code, out, err = run_cli(capsys, "random-tame", "--n", n, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "error: n must be at least 1\n"

    @pytest.mark.parametrize(
        "flag, message",
        [("--length", "word length must be at least 1"), ("--dmax", "dmax must be at least 1")],
    )
    def test_length_or_dmax_below_one_is_an_error_naming_it(self, capsys, flag, message):
        code, out, err = run_cli(capsys, "random-tame", "--n", "3", flag, "0", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestStdinAndErrors:
    def test_stdin_operand(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("[x1 + x2^2, x2]"))
        code, out, _ = run_cli(capsys, "info", "-")
        assert code == 0
        assert "degree = 2" in out

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "info", "[x1 + , x2]")
        assert code == 1
        assert "parse error" in err

    def test_unknown_verb_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1


class TestSelfcheckSmoke:
    def test_reduced_cases(self, capsys):
        code, out, _ = run_cli(
            capsys, "selfcheck", "--cases", "6", "--shear-cases", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        names = [suite["name"] for suite in payload["suites"]]
        assert "degeneration-pipeline" in names
        assert "curve-rigidity" in names

    @pytest.mark.parametrize(
        "counts",
        [
            ["--cases", "-3", "--shear-cases", "-1"],
            ["--cases", "-1"],
            ["--shear-cases", "-1"],
            ["--cases", "0"],
            ["--shear-cases", "0"],
        ],
    )
    def test_negative_counts_are_usage_errors(self, capsys, counts):
        code, out, err = run_cli(capsys, "selfcheck", *counts)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("usage error:")


class TestTranscript:
    """Exit code, stderr and stdout of every verb, plain and --json, byte for byte."""

    ROWS = [
        ("info", ("info", "[x1 + x2^2, x2]"), 0, "",
            "endo: [x2^2 + x1, x2]\n"
            "n = 2\n"
            "degree = 2\n"
            "affine: False\n"
            "triangular: True\n"
            "identity affine part: True\n"
            "jacobian determinant: 1\n"),
        ("info-json", ("info", "[x1 + x2^2, x2]", "--json"), 0, "",
            "{\n"
            '  "endo": "[x2^2 + x1, x2]",\n'
            '  "n": 2,\n'
            '  "degree": "2",\n'
            '  "affine": false,\n'
            '  "triangular": true,\n'
            '  "identity_affine_part": true,\n'
            '  "jacobian": "1"\n'
            "}\n"),
        ("compose", ("compose", "[x2, x1]", "[x1 + x2^2, x2]"), 0, "",
            "[x2, x2^2 + x1]\n"),
        ("compose-json", ("compose", "[x2, x1]", "[x1 + x2^2, x2]", "--json"), 0, "",
            "{\n"
            '  "endo": "[x2, x2^2 + x1]"\n'
            "}\n"),
        ("apply", ("apply", "[x1*x2 + x1, x2]", "1/3,3"), 0, "",
            "(4/3, 3)\n"),
        ("apply-json", ("apply", "[x1*x2 + x1, x2]", "1/3,3", "--json"), 0, "",
            "{\n"
            '  "image": [\n'
            '    "4/3",\n'
            '    "3"\n'
            "  ]\n"
            "}\n"),
        ("degenerate", ("degenerate", "[x1, x2 + x1^2]"), 0, "",
            "witness: [x2^2 + x1, x2]\n"
            "w = 2\n"),
        ("degenerate-json", ("degenerate", "[x1, x2 + x1^2]", "--json"), 0, "",
            "{\n"
            '  "w": 2,\n'
            '  "d": 2,\n'
            '  "h": "x2^2",\n'
            '  "valuations": [\n'
            "    null,\n"
            "    null\n"
            "  ],\n"
            '  "pass": true,\n'
            '  "witness": "[x2^2 + x1, x2]",\n'
            '  "g0": "x2^2",\n'
            '  "normalized": "[x2^2 + x1, x2]",\n'
            '  "curve": [\n'
            '    "x2^2 + x1",\n'
            '    "x2"\n'
            "  ]\n"
            "}\n"),
        ("witness", ("witness", "[2*x1 + x2^2, x2]"), 0, "",
            "source: [x2^2 + 2*x1, x2]\n"
            "normalized: [1/2*x2^2 + x1, x2]\n"
            "affine correction: applied\n"
            "transposition: none\n"
            "g0 = 1/2*x2^2\n"
            "w = 2\n"
            "d = 2\n"
            "h = 1/2*x2^2\n"
            "curve: [1/2*x2^2 + x1, x2]\n"
            "witness: [1/2*x2^2 + x1, x2]\n"
            "t-valuations of curve - witness: inf, inf\n"
            "pass: True\n"),
        ("witness-json", ("witness", "[2*x1 + x2^2, x2]", "--json"), 0, "",
            "{\n"
            '  "w": 2,\n'
            '  "d": 2,\n'
            '  "h": "1/2*x2^2",\n'
            '  "valuations": [\n'
            "    null,\n"
            "    null\n"
            "  ],\n"
            '  "pass": true,\n'
            '  "witness": "[1/2*x2^2 + x1, x2]",\n'
            '  "g0": "1/2*x2^2",\n'
            '  "normalized": "[1/2*x2^2 + x1, x2]",\n'
            '  "curve": [\n'
            '    "1/2*x2^2 + x1",\n'
            '    "x2"\n'
            "  ]\n"
            "}\n"),
        ("curve", ("curve", "--samples", "1,-1/2", "[2*x1 + 1/3*x2^2 + x2^3, x2]"), 0, "",
            "t = 1: [1/2*x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
            "t = -1/2: [-1/4*x2^3 + 1/6*x2^2 + x1, x2] (degree 3)\n"
            "limit: [1/6*x2^2 + x1, x2]\n"
            "w = 2, d = 3\n"
            "verify_limit pass: True\n"),
        ("curve-json", ("curve", "--samples", "1,-1/2", "[2*x1 + 1/3*x2^2 + x2^3, x2]", "--json"), 0, "",
            "{\n"
            '  "w": 2,\n'
            '  "d": 3,\n'
            '  "h": "1/6*x2^2",\n'
            '  "valuations": [\n'
            "    1,\n"
            "    null\n"
            "  ],\n"
            '  "pass": true,\n'
            '  "witness": "[1/6*x2^2 + x1, x2]",\n'
            '  "g0": "1/2*x2^3 + 1/6*x2^2",\n'
            '  "normalized": "[1/2*x2^3 + 1/6*x2^2 + x1, x2]",\n'
            '  "curve": [\n'
            '    "1/2*x2^3*t + 1/6*x2^2 + x1",\n'
            '    "x2"\n'
            "  ],\n"
            '  "samples": [\n'
            "    {\n"
            '      "t0": "1",\n'
            '      "endo": "[1/2*x2^3 + 1/6*x2^2 + x1, x2]",\n'
            '      "degree": 3\n'
            "    },\n"
            "    {\n"
            '      "t0": "-1/2",\n'
            '      "endo": "[-1/4*x2^3 + 1/6*x2^2 + x1, x2]",\n'
            '      "degree": 3\n'
            "    }\n"
            "  ]\n"
            "}\n"),
        ("factor2-accepted", ("factor2", "[x2 + x1^2, x1]"), 0, "",
            "word: B(1 1;-x2^2,0)^-1; A(0 1,1 0;0 0)\n"
            "step 1: (2, 1) -> (1, 1) via elementary f -= 1*g^2\n"
            "letters: 2\n"),
        ("factor2-accepted-json", ("factor2", "[x2 + x1^2, x1]", "--json"), 0, "",
            "{\n"
            '  "endo": "[x1^2 + x2, x1]",\n'
            '  "word": "B(1 1;-x2^2,0)^-1; A(0 1,1 0;0 0)",\n'
            '  "letters": 2,\n'
            '  "steps": [\n'
            '    "(2, 1) -> (1, 1) via elementary f -= 1*g^2"\n'
            "  ],\n"
            '  "ok": true\n'
            "}\n"),
        ("factor2-rejected", ("factor2", "[x1, x1*x2]"), 2, "",
            "NotAnAutomorphism: not an automorphism: non-constant Jacobian determinant\n"
            "  reason: jacobian\n"
            "  stage: 0\n"
            "  multidegree: ['1', '2']\n"
            "  detail: the Jacobian determinant is not a nonzero constant\n"
            "  jacobian: x1\n"),
        ("factor2-rejected-json", ("factor2", "[x1, x1*x2]", "--json"), 2, "",
            "{\n"
            '  "error": "NotAnAutomorphism",\n'
            '  "message": "not an automorphism: non-constant Jacobian determinant",\n'
            '  "reason": "jacobian",\n'
            '  "stage": 0,\n'
            '  "multidegree": [\n'
            '    "1",\n'
            '    "2"\n'
            "  ],\n"
            '  "detail": "the Jacobian determinant is not a nonzero constant",\n'
            '  "jacobian": "x1"\n'
            "}\n"),
        ("nagata", ("nagata",), 0, "",
            "[-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 - 2*x1*x2*x3 - 2*x2^3 + x1, x1*x3^2 + x2^2*x3 + x2, x3]\n"),
        ("nagata-json", ("nagata", "--json"), 0, "",
            "{\n"
            '  "nagata": "[-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 - 2*x1*x2*x3 - 2*x2^3 + x1, x1*x3^2 + x2^2*x3 + x2, x3]",\n'
            '  "inverse": "[-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 + 2*x1*x2*x3 + 2*x2^3 + x1, -x1*x3^2 - x2^2*x3 + x2, x3]"\n'
            "}\n"),
        ("nagata-inverse", ("nagata", "--inverse"), 0, "",
            "[-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 + 2*x1*x2*x3 + 2*x2^3 + x1, -x1*x3^2 - x2^2*x3 + x2, x3]\n"),
        ("nagata-inverse-json", ("nagata", "--inverse", "--json"), 0, "",
            "{\n"
            '  "nagata": "[-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 - 2*x1*x2*x3 - 2*x2^3 + x1, x1*x3^2 + x2^2*x3 + x2, x3]",\n'
            '  "inverse": "[-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 + 2*x1*x2*x3 + 2*x2^3 + x1, -x1*x3^2 - x2^2*x3 + x2, x3]"\n'
            "}\n"),
        ("random-tame", ("random-tame", "--n", "2", "--seed", "7", "--length", "2", "--dmax", "2"), 0, "",
            "word: A(2 -3,-3 3;1 -3); B(1 -2;-2*x2 - 2,-10)\n"
            "endo: [2*x1 + 2*x2 + 27, -3*x1 - 27]\n"),
        ("random-tame-json", ("random-tame", "--n", "2", "--seed", "7", "--length", "2", "--dmax", "2", "--json"), 0, "",
            "{\n"
            '  "n": 2,\n'
            '  "seed": 7,\n'
            '  "length": 2,\n'
            '  "dmax": 2,\n'
            '  "word": "A(2 -3,-3 3;1 -3); B(1 -2;-2*x2 - 2,-10)",\n'
            '  "endo": "[2*x1 + 2*x2 + 27, -3*x1 - 27]"\n'
            "}\n"),
        ("selfcheck", ("selfcheck", "--cases", "3", "--shear-cases", "2"), 0, "",
            "PASS nagata-golden: 1/1 cases\n"
            "PASS degeneration-pipeline: 3/3 cases\n"
            "PASS curve-rigidity: 3/3 cases\n"
            "PASS monoid-laws: 3/3 cases\n"
            "PASS word-inversion: 3/3 cases\n"
            "PASS plane-factorization: 3/3 cases\n"
            "PASS shear-fixed-points: 2/2 cases\n"
            "all suites passed\n"),
        ("selfcheck-json", ("selfcheck", "--cases", "3", "--shear-cases", "2", "--json"), 0, "",
            "{\n"
            '  "suites": [\n'
            "    {\n"
            '      "name": "nagata-golden",\n'
            '      "cases": 1,\n'
            '      "failures": [],\n'
            '      "passed": true\n'
            "    },\n"
            "    {\n"
            '      "name": "degeneration-pipeline",\n'
            '      "cases": 3,\n'
            '      "failures": [],\n'
            '      "passed": true\n'
            "    },\n"
            "    {\n"
            '      "name": "curve-rigidity",\n'
            '      "cases": 3,\n'
            '      "failures": [],\n'
            '      "passed": true\n'
            "    },\n"
            "    {\n"
            '      "name": "monoid-laws",\n'
            '      "cases": 3,\n'
            '      "failures": [],\n'
            '      "passed": true\n'
            "    },\n"
            "    {\n"
            '      "name": "word-inversion",\n'
            '      "cases": 3,\n'
            '      "failures": [],\n'
            '      "passed": true\n'
            "    },\n"
            "    {\n"
            '      "name": "plane-factorization",\n'
            '      "cases": 3,\n'
            '      "failures": [],\n'
            '      "passed": true\n'
            "    },\n"
            "    {\n"
            '      "name": "shear-fixed-points",\n'
            '      "cases": 2,\n'
            '      "failures": [],\n'
            '      "passed": true\n'
            "    }\n"
            "  ],\n"
            '  "pass": true\n'
            "}\n"),
        ("apply-wrong-length", ("apply", "[x1+x2^2, x2]", "1,2,3"), 1,
            "error: expected a point of length 2\n", ""),
        ("parse-error", ("info", "[x1 + , x2]"), 1, "parse error: expected a coefficient, variable, or '(', found ',' (at position 6)\n",
            ""),
        ("parse-error-json", ("info", "[x1 + , x2]", "--json"), 1, "parse error: expected a coefficient, variable, or '(', found ',' (at position 6)\n",
            ""),
        ("certificate", ("degenerate", "[x1 + x2, x2]"), 2, "",
            "NothingToNormalize: input is affine; only maps of degree at least 2 degenerate\n"
            "  endo: [x1 + x2, x2]\n"
            "  degree: 1\n"),
        ("certificate-json", ("degenerate", "[x1 + x2, x2]", "--json"), 2, "",
            "{\n"
            '  "error": "NothingToNormalize",\n'
            '  "message": "input is affine; only maps of degree at least 2 degenerate",\n'
            '  "endo": "[x1 + x2, x2]",\n'
            '  "degree": 1\n'
            "}\n"),
    ]

    @pytest.mark.parametrize("argv, code, err, out", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
    def test_matches_recorded_output(self, capsys, argv, code, err, out):
        assert run_cli(capsys, *argv) == (code, out, err)


def readme_commands() -> dict:
    """Each polyauto line of README's command-line block, mapped to (argv per pipeline stage,
    expected exit code, expected stdout lines): a comment saying "exit 2" expects 2, and the
    comment lines indented under a command ("#   ...") are its stdout."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as readme:
        section = readme.read().split("## Command-line usage", 1)[1]
    commands, lines = {}, []
    for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines():
        if line.startswith("polyauto "):
            stages = [shlex.split(stage, comments=True) for stage in line.split(" | ")]
            assert all(argv[0] == "polyauto" for argv in stages), line
            lines = []
            commands[line] = ([argv[1:] for argv in stages], 2 if "# exit 2" in line else 0, lines)
        elif line.startswith("#   "):
            lines.append(line[len("#   ") :])
    return commands


README_COMMANDS = readme_commands()


class TestReadme:
    """README's command-line block runs as documented through cli.main, each stage's stdout
    piped into the next stage's stdin; CI's smoke step runs it through the console script."""

    def test_block_is_found(self):
        assert len(README_COMMANDS) == 9
        assert [code for _, code, _ in README_COMMANDS.values()].count(2) == 1
        assert README_COMMANDS['polyauto degenerate "[x1, x2 + x1^2]"'] == (
            [["degenerate", "[x1, x2 + x1^2]"]], 0, ["witness: [x2^2 + x1, x2]", "w = 2"]
        )
        assert README_COMMANDS["polyauto nagata | polyauto curve --samples 1,-1,1/2 -"][0] == (
            [["nagata"], ["curve", "--samples", "1,-1,1/2", "-"]]
        )

    @pytest.mark.parametrize("line", list(README_COMMANDS))
    def test_command_runs_as_documented(self, capsys, monkeypatch, line):
        stages, code, lines = README_COMMANDS[line]
        out = ""
        for argv in stages:
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, "")
        assert out.endswith("\n") and out.strip()
        if lines:
            assert out.splitlines() == lines


class TestImportIsolation:
    """A verb loads only the modules it uses."""

    SCRIPT = """
import contextlib, io, json, sys
from polyauto.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""
    HEAVY = {"polyauto.degeneration", "polyauto.planefactor", "polyauto.selfcheck", "dataclasses"}

    def loaded_by(self, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(polyauto.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argv)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
            text=True,
            timeout=60,
            check=True,
        )
        code, modules = json.loads(done.stdout)
        assert code == 0
        return set(modules)

    @pytest.mark.parametrize(
        "argv",
        [
            ("info", "[x1 + x2^2, x2]"),
            ("compose", "[x2, x1]", "[x1 + x2^2, x2]"),
            ("nagata",),
            ("random-tame", "--n", "3", "--seed", "1"),
        ],
    )
    def test_light_verbs_skip_heavy_modules(self, argv):
        loaded = self.loaded_by(*argv)
        assert "polyauto.endo" in loaded
        assert sorted(loaded & self.HEAVY) == []
        if argv[0] == "info":
            assert "polyauto.groups" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "[x1 + x2^2, x2]"),
            ("witness", "[x1 + x2^2, x2]"),
            ("factor2", "[x1 + x2^2, x2]"),
        ],
    )
    def test_pipeline_verbs_skip_dataclasses(self, argv):
        # their records are endo._Value types, like every map, letter and word
        loaded = self.loaded_by(*argv)
        assert {"polyauto.degeneration", "polyauto.planefactor"} & loaded
        assert "dataclasses" not in loaded


class TestHashSeedBytes:
    """stdout is byte-deterministic: no term-dict insertion order may reach it, so each
    run prints the same bytes in fresh interpreters under PYTHONHASHSEED 0 and 1."""

    FACTOR2_MAP = (  # random_tame_word(2, 273, 4, 3): a transposed step, a mix, an elementary step
        "[-8*x2^2 - 2*x1 - 2, 256*x2^4 + 128*x1*x2^2 + 16*x1^2 + 80*x2^2 + 20*x1 + 4*x2 - 18]"
    )
    RUNS = {
        "selfcheck": [("selfcheck", "--cases", "5", "--shear-cases", "3", "--json")],
        "nagata-curve": [("nagata",), ("curve", "--samples", "1,-1,2,1/2,-2/3,3/7", "-")],
        # valuation w = 3: at negative t0 the closure check's x1 factor t0^w is negative
        "curve-odd": [("curve", "--samples=-1,-2,-1/2,3/5", "[x1 + x2^3 + x1*x2^4, x2]")],
        "witness": [("witness", "[2*x1 + x2^2, x2]", "--json")],
        # a permutation on the right runs Poly._substitute
        "compose": [("compose", "[x1 + x2^3 + x1*x2, x2]", "[x2, -x1]")],
        "factor2": [("factor2", FACTOR2_MAP)],
        # a certificate is one JSON object under --json and an abbreviation argparse accepts
        "certificate-json": [("degenerate", "[x1 + x2, x2]", "--json")],
        "certificate-js": [("degenerate", "[x1 + x2, x2]", "--js")],
    }

    @staticmethod
    def pipeline(steps, seed):
        """Each step's stdout is the next step's stdin; returns the last (code, stdout)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(polyauto.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        out = b""
        for argv in steps:
            done = subprocess.run(
                [sys.executable, "-m", "polyauto.cli", *argv],
                input=out,
                capture_output=True,
                env=env,
                timeout=120,
            )
            out = done.stdout
        return done.returncode, out

    @pytest.mark.parametrize("name", list(RUNS))
    def test_same_bytes_under_two_hash_seeds(self, name):
        (code, out), again = (self.pipeline(self.RUNS[name], seed) for seed in (0, 1))
        assert again == (code, out)
        if name.startswith("certificate"):
            assert code == 2
            assert isinstance(json.loads(out), dict)
        else:
            assert code == 0 and out
