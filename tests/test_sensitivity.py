"""Where a corrupted build or document is caught.

The builders check nothing about what they build; ``fibration_certificate``
checks every build against the closed forms.  Each case here corrupts a
sound build in one way and names exactly the certificate checks that fail.
"""

import pytest

from lf_forge import builders, homology, invariants
from lf_forge.builders import LefschetzFibration, johns_fibration, realize_plumbing
from lf_forge.certify import fibration_certificate
from lf_forge.curves import CurveOnSurface
from lf_forge.invariants import FinAbGroup
from lf_forge.ribbon import RibbonGraph


def failed_checks(fib: LefschetzFibration) -> list[tuple[str, str, str]]:
    """(name, expected, actual) of each failed check, in certificate order."""
    return [(c["name"], c["expected"], c["actual"]) for c in fibration_certificate(fib)["checks"]
            if not c["passed"]]


def circle_bundle_h1(genus: int, euler: int) -> FinAbGroup:
    """H1 of the circle bundle of Euler number ``euler`` over the closed
    surface of genus ``genus``: Z^2g plus Z/|e|, or Z when e is 0."""
    return FinAbGroup(2 * genus, (abs(euler),)) if euler else FinAbGroup(2 * genus + 1, ())


def test_a_corrupted_plumbing_fiber_builds_and_fails_its_certificate(monkeypatch):
    """Reversing the rotation at one square joins two boundary circles and
    adds a handle; the build goes through and its certificate says so."""

    def corrupted(pattern):
        fiber, a_curves, b_curves = realize_plumbing(pattern)
        v = fiber.vertices[0]
        rotation = dict(fiber.rotation, **{v: fiber.rotation[v][::-1]})
        bad = RibbonGraph(fiber.vertices, fiber.edges, rotation, fiber.twists)

        def moved(curves):
            return tuple(CurveOnSurface(bad, c.name, c.walk) for c in curves)

        return bad, moved(a_curves), moved(b_curves)

    monkeypatch.setattr(builders, "realize_plumbing", corrupted)
    for genus in range(9):
        fib = johns_fibration(genus)
        assert failed_checks(fib) == [
            ("fiber_genus", "1", "2"),
            ("fiber_boundary_components", str(4 * genus + 4), str(4 * genus + 2)),
            ("boundary_h1", str(circle_bundle_h1(genus, 2 - 2 * genus)),
             str(circle_bundle_h1(genus, 4 - 2 * genus))),
        ]


# -- corrupted documents -------------------------------------------------------


def _mirror(doc):
    doc["fiber"]["rotation"] = {v: hs[::-1] for v, hs in doc["fiber"]["rotation"].items()}


def _duplicate_a0(doc):
    """A copy of a0's walk, named as the next a-cycle, after the a family."""
    cycles = doc["vanishing_cycles"]
    n = sum(1 for rec in cycles if rec["name"].rstrip("0123456789") == "a")
    cycles.insert(n, {"name": f"a{n}", "walk": list(cycles[0]["walk"])})


def _cycle(doc, name):
    return next(rec for rec in doc["vanishing_cycles"] if rec["name"] == name)


def _reverse_c0(doc):
    c0 = _cycle(doc, "c0")
    c0["walk"] = [t[1:] if t.startswith("-") else f"-{t}" for t in reversed(c0["walk"])]


def _b0_walk_as_c0(doc):
    _cycle(doc, "c0")["walk"] = list(_cycle(doc, "b0")["walk"])


def _reverse_a_branch_vertex(doc):
    """Reverse the rotation of the least vertex of degree >= 3; reversing a
    degree-2 rotation changes nothing."""
    rotation = doc["fiber"]["rotation"]
    v = min(v for v, hs in rotation.items() if len(hs) >= 3)
    rotation[v] = rotation[v][::-1]


# Each corruption and the checks it fails at genus g, in certificate order.
CORRUPTIONS = {
    "mirrored": (_mirror, lambda g: ["boundary_h1"]),
    "a0-duplicated": (_duplicate_a0, lambda g: ["word_length", "total_space_euler", "total_space_h2",
                                                "boundary_h1", "closing_smoothing"]),
    "c0-reversed": (_reverse_c0, lambda g: ["closing_smoothing"]),
    "b0-walk-as-c0": (_b0_walk_as_c0, lambda g: ["boundary_h1"] * (g % 2) + ["closing_smoothing"]),
    "rotation-reversed": (_reverse_a_branch_vertex, lambda g: ["fiber_genus", "fiber_boundary_components",
                                                               "boundary_h1"]),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_each_corrupted_document_fails_exactly_its_checks(built, construction, corruption):
    corrupt, expected = CORRUPTIONS[corruption]
    for genus in range(4):
        doc = built(construction, genus).to_json_dict()
        corrupt(doc)
        fib = LefschetzFibration.from_json_dict(doc)
        assert [name for name, _, _ in failed_checks(fib)] == expected(genus)


# -- corrupted production seams ----------------------------------------------------


def _flip_u_block(monkeypatch):
    """Negate every pairing entry that the boundary matrix receives: the U
    block of B with its sign flipped."""
    boundary_matrix = invariants._boundary_matrix

    def flipped(rows, ops, kernel, pairs):
        return boundary_matrix(rows, ops, kernel, [{a: -u for a, u in p.items()} for p in pairs])

    monkeypatch.setattr(invariants, "_boundary_matrix", flipped)


def _unsigned_sparse_class(monkeypatch):
    """Count every co-tree traversal as +1 in the sparse word classes:
    ``abs(s)`` in ``homology._sparse_class``, which reads the darts each
    word cycle keeps (a forward step arrives on an odd dart)."""

    def unsigned(basis_index, heads):
        counts = {}
        for d in heads:
            i = basis_index[d >> 1]
            if i >= 0:
                counts[i] = counts.get(i, 0) + abs(1 if d & 1 else -1)
        return {i: x for i, x in counts.items() if x}

    monkeypatch.setattr(homology, "_sparse_class", unsigned)
    monkeypatch.setattr(invariants, "_sparse_class", unsigned)


# Each corrupted seam and the checks it fails, the same at every genus.  The
# unsigned classes fail none: a blind spot, which the intersection-form
# checks of ROADMAP items 2 and 12 must catch.
SEAMS = {
    "u-block-flipped": (_flip_u_block, {"boundary_h1"}),
    "unsigned-sparse-class": (_unsigned_sparse_class, set()),
}


@pytest.mark.parametrize("seam", sorted(SEAMS))
@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_each_corrupted_seam_fails_exactly_its_checks(built, monkeypatch, construction, seam):
    corrupt, expected = SEAMS[seam]
    fibs = [built(construction, genus) for genus in range(9)]
    docs = [LefschetzFibration.from_json_dict(fib.to_json_dict()) for fib in fibs]
    corrupt(monkeypatch)
    for fib in fibs + docs:
        assert {name for name, _, _ in failed_checks(fib)} == expected
