"""Tests for the package's public names, which resolve on first use, and for its imports."""

import ast
import importlib
import importlib.util
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


def test_documented_examples_run():
    # poly's doctests and README's library sketch run nowhere else, and what they show
    # depends on how a Poly stores and renders its coefficients
    import doctest

    import polyauto.poly

    assert doctest.testmod(polyauto.poly) == (0, 3)
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as readme:
        sketch = readme.read().split("## Library sketch", 1)[1]
    namespace = {}
    exec(sketch.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    assert str(namespace["witness"]) == "[-2*x2^3 + x1, x2, x3]"  # as the sketch's comment says


def test_bench_trace_targets_resolve():
    # the tracer replaces each target in its owner's __dict__, so a renamed or deleted
    # target would only fail a bench run with tracing on
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attribute_path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, name = attribute_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert name in vars(owner), f"{module_name}.{attribute_path}"


def test_no_module_imports_a_name_it_never_reads():
    # a stdlib lint for dead imports: each name that a module of the package imports is read
    # somewhere in that module; a name read only in a quoted annotation does not count
    package = os.path.dirname(os.path.abspath(polyauto.__file__))
    dead = []
    for filename in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, filename)) as source:
            tree = ast.parse(source.read())
        nodes = list(ast.walk(tree))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                dead += [f"{filename}:{node.lineno} {name}" for name in names if name not in read]
    assert dead == []
