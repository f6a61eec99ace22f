"""Exact computation in polynomial automorphism groups.

The package provides sparse rational polynomial arithmetic, the
composition monoid of polynomial endomorphisms, constructive tame
automorphisms (affine/triangular words), the torus-action degeneration
pipeline with its limit witnesses, and a plane-automorphism factorization
procedure, plus a command-line front end (``polyauto``).

``import polyauto`` loads no submodule: each public name is imported from
its submodule on first use (PEP 562), so a caller pays only for the
modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; ``errors`` is the module itself
_SUBMODULE = {
    name: module
    for module, names in {
        "errors": "errors",
        "poly": "NEG_INF Poly",
        "endo": "CoeffVector Endo monomials_upto poly_det",
        "parsing": "parse_endo parse_poly parse_rational parse_rational_list",
        "groups": "AffineMap OpaqueGenerator TriangularMap Word format_word nagata"
        " nagata_delta nagata_generator random_affine random_tame_word random_triangular",
        "degeneration": "ClosureSample DegenerationData LimitReport NormalizationRecord"
        " ParamEndo TorusAction WitnessReport closure_witness degenerate degeneration_data"
        " normalize specialize torus_conjugate triangular_witness verify_limit witness_report",
        "planefactor": "PlaneFactorization RejectionCertificate factor_plane"
        " is_plane_automorphism leading_form",
    }.items()
    for name in names.split()
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
