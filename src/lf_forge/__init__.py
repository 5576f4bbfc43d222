"""Explicit combinatorial models of the genus-one Lefschetz fibrations on
disk cotangent bundles of closed surfaces, with homological certification.

Each exported name is looked up in its submodule when it is used, so that
importing the package loads no layer, and a command loads only the layers
it calls."""

import importlib

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "NonOrientableError": "ribbon",
    "RibbonGraph": "ribbon",
    "SurfaceError": "ribbon",
    "SurfaceInvariants": "ribbon",
    "CurveOnSurface": "curves",
    "HomologyClass": "homology",
    "curve_class": "homology",
    "homology_basis": "homology",
    "AdmissibilityReport": "divides",
    "Checkerboard": "divides",
    "ColoringError": "divides",
    "Divide": "divides",
    "DivideError": "divides",
    "check_admissible": "divides",
    "checkerboard_coloring": "divides",
    "standard_divide": "divides",
    "FinAbGroup": "invariants",
    "fibration_homology": "invariants",
    "open_book_h1": "invariants",
    "smith_normal_form": "invariants",
    "total_space_euler": "invariants",
    "total_space_homology": "invariants",
    "DivideFiberModel": "builders",
    "LefschetzFibration": "builders",
    "PlumbingPattern": "builders",
    "divide_fiber_model": "builders",
    "ishikawa_fibration": "builders",
    "johns_fibration": "builders",
    "johns_pattern": "builders",
    "realize_plumbing": "builders",
    "simultaneous_surgery": "builders",
    "sphere_planar_fibration": "builders",
    "FibrationIso": "equivalence",
    "find_isomorphism": "equivalence",
    "isomorphism_certificate": "equivalence",
    "expected_boundary_group": "certify",
    "fibration_certificate": "certify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """The exported ``name``, read from its submodule on every access (PEP
    562), so that a rebinding there, by a tracer or a monkeypatch, is seen."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
