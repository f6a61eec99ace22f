"""Tests for the package's public names, which resolve on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import polyauto

PUBLIC = {
    "errors": ["errors"],
    "poly": ["NEG_INF", "Poly"],
    "endo": ["CoeffVector", "Endo", "monomials_upto", "poly_det"],
    "parsing": ["parse_endo", "parse_poly", "parse_rational", "parse_rational_list"],
    "groups": [
        "AffineMap",
        "OpaqueGenerator",
        "TriangularMap",
        "Word",
        "format_word",
        "nagata",
        "nagata_delta",
        "nagata_generator",
        "random_affine",
        "random_tame_word",
        "random_triangular",
    ],
    "degeneration": [
        "ClosureSample",
        "DegenerationData",
        "LimitReport",
        "NormalizationRecord",
        "ParamEndo",
        "TorusAction",
        "WitnessReport",
        "closure_witness",
        "degenerate",
        "degeneration_data",
        "normalize",
        "specialize",
        "torus_conjugate",
        "triangular_witness",
        "verify_limit",
        "witness_report",
    ],
    "planefactor": [
        "PlaneFactorization",
        "RejectionCertificate",
        "factor_plane",
        "is_plane_automorphism",
        "leading_form",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_public_names():
    assert len(NAMES) == 43
    assert set(polyauto.__all__) == {name for _, name in NAMES} | {"__version__"}
    assert len(polyauto.__all__) == len(set(polyauto.__all__))


@pytest.mark.parametrize("module, name", NAMES)
def test_name_is_its_submodules_object(module, name):
    submodule = importlib.import_module(f"polyauto.{module}")
    expected = submodule if name == module else getattr(submodule, name)
    assert getattr(polyauto, name) is expected


def test_star_import_binds_every_name():
    namespace = {}
    exec("from polyauto import *", namespace)
    for _, name in NAMES:
        assert namespace[name] is getattr(polyauto, name)
    assert namespace["__version__"] == polyauto.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyauto.no_such_name
    assert not hasattr(polyauto, "no_such_name")


def test_import_loads_no_submodule():
    code = "import sys, polyauto; print(sorted(k for k in sys.modules if k.startswith('polyauto')))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(polyauto.__file__)))),
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "['polyauto']"
