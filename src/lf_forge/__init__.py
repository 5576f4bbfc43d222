"""Explicit combinatorial models of the genus-one Lefschetz fibrations on
disk cotangent bundles of closed surfaces, with homological certification."""

from .ribbon import (
    NonOrientableError,
    RibbonGraph,
    SurfaceError,
    SurfaceInvariants,
)
from .curves import CurveOnSurface, TransversalityError
from .homology import (
    HomologyClass,
    algebraic_intersection,
    curve_class,
    dehn_twist_on_class,
    dehn_twist_on_path,
    homology_basis,
    signed_crossings,
)
from .divides import (
    AdmissibilityReport,
    Checkerboard,
    ColoringError,
    Divide,
    DivideError,
    check_admissible,
    checkerboard_coloring,
    morse_data,
    standard_divide,
)
from .invariants import (
    FinAbGroup,
    OpenBook,
    boundary_open_book,
    cokernel,
    open_book_h1,
    smith_normal_form,
    total_space_euler,
    total_space_homology,
)
from .builders import (
    DivideFiberModel,
    LefschetzFibration,
    PlumbingPattern,
    divide_fiber_model,
    ishikawa_fibration,
    johns_fibration,
    johns_pattern,
    realize_plumbing,
    simultaneous_surgery,
    sphere_planar_fibration,
)
from .equivalence import (
    FibrationIso,
    find_isomorphism,
    isomorphism_certificate,
)
from .certify import (
    expected_boundary_group,
    fibration_certificate,
)

__all__ = [
    "AdmissibilityReport",
    "Checkerboard",
    "ColoringError",
    "CurveOnSurface",
    "Divide",
    "DivideError",
    "DivideFiberModel",
    "FibrationIso",
    "FinAbGroup",
    "HomologyClass",
    "LefschetzFibration",
    "NonOrientableError",
    "OpenBook",
    "PlumbingPattern",
    "RibbonGraph",
    "SurfaceError",
    "SurfaceInvariants",
    "TransversalityError",
    "algebraic_intersection",
    "boundary_open_book",
    "check_admissible",
    "checkerboard_coloring",
    "cokernel",
    "curve_class",
    "dehn_twist_on_class",
    "dehn_twist_on_path",
    "divide_fiber_model",
    "expected_boundary_group",
    "fibration_certificate",
    "find_isomorphism",
    "homology_basis",
    "ishikawa_fibration",
    "isomorphism_certificate",
    "johns_fibration",
    "johns_pattern",
    "morse_data",
    "open_book_h1",
    "realize_plumbing",
    "signed_crossings",
    "simultaneous_surgery",
    "smith_normal_form",
    "sphere_planar_fibration",
    "standard_divide",
    "total_space_euler",
    "total_space_homology",
]
