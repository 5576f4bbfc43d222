"""Certificate reports: every stated invariant of a fibration, checked.

A certificate is a flat list of named checks with expected and computed
values, so a failing run says exactly which invariant broke.  Expectations
are closed-form in the genus; the boundary group comes from the disk-bundle
picture (Euler number 2 - 2g), the total-space groups from the cycle class
matrix.  This is the one place a build is checked against them.
"""

from __future__ import annotations

from .builders import LefschetzFibration, closing_smoothing
from .invariants import FinAbGroup, fibration_homology, total_space_euler
from .ribbon import SurfaceError, checked_count

def expected_fiber_profile(construction: str, genus: int) -> dict:
    """Fiber and word-shape expectations per construction: johns and
    ishikawa at any genus >= 0, sphere at genus 0."""
    if construction not in ("johns", "ishikawa", "sphere"):
        raise SurfaceError(f"no closed-form expectations for construction {construction!r}")
    checked_count(genus)
    if construction == "sphere":
        if genus != 0:
            raise SurfaceError("the annulus-page model exists only at genus 0")
        return {"genus": 0, "boundary": 2, "euler": 0, "word_length": 2}
    return {
        "genus": 1,
        "boundary": 4 * genus + 4,
        "euler": -4 * genus - 4,
        "word_length": 2 * genus + 6,
    }


def expected_boundary_group(genus: int) -> FinAbGroup:
    """First homology of the unit cotangent circle bundle: Z^2g plus a cyclic
    factor of order |2 - 2g| (a free factor when that vanishes)."""
    e = abs(2 - 2 * checked_count(genus))
    if e == 0:
        return FinAbGroup(2 * genus + 1, ())
    return FinAbGroup(2 * genus, (e,))


def _check(name: str, expected, actual) -> dict:
    return {
        "name": name,
        "passed": expected == actual,
        "expected": str(expected),
        "actual": str(actual),
    }


def fibration_certificate(fib: LefschetzFibration) -> dict:
    """Check every stated invariant of one fibration; schema certificate/1."""
    if not isinstance(fib, LefschetzFibration):
        raise SurfaceError(f"can certify only fibrations, got {type(fib).__name__}")
    g = fib.genus
    want = expected_fiber_profile(fib.construction, g)
    inv = fib.fiber.invariants()
    h1, h2, boundary = fibration_homology(fib.fiber, fib.word)
    checks = [
        _check("fiber_genus", want["genus"], inv.genus),
        _check("fiber_boundary_components", want["boundary"], inv.boundary_components),
        _check("fiber_euler", want["euler"], inv.euler),
        _check("fiber_orientable", True, fib.fiber.is_orientable()),
        _check("word_length", want["word_length"], len(fib.word)),
        _check("total_space_euler", 2 - 2 * g, total_space_euler(fib.fiber, fib.word)),
        _check("total_space_h1", FinAbGroup.free(2 * g), h1),
        _check("total_space_h2", FinAbGroup.free(1), h2),
        _check("boundary_h1", expected_boundary_group(g), boundary),
    ]
    replay = closing_smoothing(fib)
    if replay is not None:
        ok, expected, actual = replay
        checks.append({"name": "closing_smoothing", "passed": ok, "expected": expected, "actual": actual})
    return {
        "schema": "certificate/1",
        "construction": fib.construction,
        "genus": g,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
