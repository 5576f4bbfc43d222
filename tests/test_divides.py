"""Divides: validation, faces, coloring, admissibility, Morse counts."""

import pytest

from lf_forge.builders import divide_fiber_model
from lf_forge.divides import (
    Checkerboard,
    ColoringError,
    Divide,
    DivideError,
    check_admissible,
    checkerboard_coloring,
    standard_divide,
)
from lf_forge.ribbon import RibbonGraph, SurfaceError

from oracles import components, morse_data


def figure_eight():
    # one crossing, the loop's own ends adjacent in the rotation
    return Divide(("x",), ("e", "f"), {"x": (("e", 0), ("e", 1), ("f", 0), ("f", 1))})


def three_chain(rotation_overrides=None):
    """Closed chain of three circles, consecutive ones crossing once."""
    rotation = {}
    for i in range(3):
        p = (i - 1) % 3
        rotation[f"v{i}"] = ((f"a{p}", 1), (f"a{i}", 0), (f"b{p}", 1), (f"b{i}", 0))
    rotation.update(rotation_overrides or {})
    vertices = tuple(rotation)
    edges = tuple(f"{fam}{i}" for fam in "ab" for i in range(3))
    return Divide(vertices, edges, rotation)


# -- construction and validation --------------------------------------------------


def test_rejects_wrong_valence():
    with pytest.raises(DivideError):
        Divide(("x",), ("e",), {"x": (("e", 0), ("e", 1))})


def test_rejects_duplicate_slot():
    with pytest.raises(DivideError):
        Divide(
            ("x",),
            ("e", "f"),
            {"x": (("e", 0), ("e", 0), ("f", 0), ("f", 1))},
        )


_X = (("e", 0), ("e", 1), ("f", 0), ("f", 1))


@pytest.mark.parametrize("vertices, edges, rotation, message", [
    (("x", "x"), ("e", "f"), {"x": _X}, "duplicate vertex ids"),
    (("x",), ("e", "f", "f"), {"x": _X}, "duplicate edge ids"),
    (("x",), ("-e", "f"), {"x": (("-e", 0), ("-e", 1), ("f", 0), ("f", 1))},
     "edge id may not start with '-': '-e'"),
    (("x",), ("e", "f"), {"y": _X}, "rotation keys must match vertex set"),
    (("x", "y"), ("e", "f", "g", "h"),
     {"x": (("e", 0), ("e", 1), ("f", 0)), "y": (("f", 1), ("g", 0), ("g", 1), ("h", 0), ("h", 1))},
     "crossing 'x' has 3 slots, divides need exactly 4"),
    (("x",), ("e", "f"), {"x": (("e", 0), ("e", 0), ("f", 0), ("f", 1))},
     "half-edge ('e', 0) attached twice"),
    (("x",), ("e", "f"), {"x": (("e", 0), ("e", 1), ("f", 0), ("g", 1))},
     "half-edge mismatch: missing [('f', 1)], unknown [('g', 1)]"),
    (("x",), ("e", "f"), {"x": (("e", 0), ("e", 1), ("f", 0))},
     "crossing 'x' has 3 slots, divides need exactly 4"),
    ((), (), {}, "empty divide description"),
    (("x", "y"), ("e", "f", "g", "h"),
     {"x": (("zz", 0), ("e", 1), ("f", 0), ("f", 1)), "y": (("g", 0), ("g", 1), ("h", 0), ("h", 0))},
     "half-edge ('h', 0) attached twice"),
    (("x",), ("e", "f"), {"x": (("e", 0), ("e", 1), ("f", 0), ("f", 2))},
     "half-edge mismatch: missing [('f', 1)], unknown [('f', 2)]"),
    (("x",), ("e", "f"), {"x": (("e", False), ("e", True), ("f", False), ("g", True))},
     "half-edge mismatch: missing [('f', 1)], unknown [('g', 1)]"),
    (("x", 1), ("e", "f", "g", "h"), {"x": _X, 1: (("g", 0), ("g", 1), ("h", 0), ("h", 1))},
     "vertex id must be a string, got 1"),
    (("x",), ("e", "f"), {"x": None}, "None is not an (id, integer) pair"),
    (("x",), ("e", "f"), {"x": 3}, "3 is not an (id, integer) pair"),
], ids=["duplicate-vertex", "duplicate-edge", "minus-edge", "rotation-keys",
        "three-slots", "attached-twice", "missing-and-unknown", "lone-three-slots", "empty",
        "unknown-then-attached-twice", "end-two", "bool-end-rebuilt", "int-crossing",
        "slots-none", "slots-int"])
def test_constructor_names_each_fault(vertices, edges, rotation, message):
    """One fault per input, except that a lone odd crossing always leaves a
    half-edge unpaired too: the valence is named first.  Slots with no
    length are left to the graph, which names them.  The last rows pin
    the order of the half-edge faults: a half-edge attached twice is named
    before an unknown one met earlier, an end other than 0 or 1 is unknown,
    and a ``bool`` end is read as the integer it equals."""
    with pytest.raises(DivideError) as err:
        Divide(vertices, edges, rotation)
    assert str(err.value) == message


def test_faces_partition_half_edges():
    """The faces hold every half-edge once, and the boundary trace names
    the index of the face that holds it."""
    for genus in range(9):
        d = standard_divide(genus)
        faces = d.graph.faces()
        seen = [h for face in faces for h in face]
        assert len(seen) == len(set(seen)) == 2 * len(d.edges)
        for i, face in enumerate(faces):
            for h in face:
                assert d.graph._boundary()[1][d.graph._dart(h)] == i


# -- the necklace family ----------------------------------------------------------


@pytest.mark.parametrize("genus", range(6))
def test_necklace_counts(genus):
    d = standard_divide(genus)
    rep = check_admissible(d)
    assert rep.admissible
    assert rep.crossings == 2 * genus + 2
    assert rep.arcs == 4 * genus + 4
    assert rep.faces == 4
    assert rep.euler == 2 - 2 * genus
    assert rep.ambient_genus == genus


def test_admissibility_traces_the_faces_once(monkeypatch):
    """``check_admissible``, ``divide_fiber_model`` and the graph's own
    invariants share one trace of the divide's faces, as the dart orbits
    ``RibbonGraph._boundary`` caches on the graph: the ambient genus, the
    coloring, the fiber's cycles and the boundary count all read it."""
    traced = []
    boundary = RibbonGraph._boundary

    def counted(self):
        if "boundary" not in self._cache:
            traced.append(self)
        return boundary(self)

    monkeypatch.setattr(RibbonGraph, "_boundary", counted)
    divides = [standard_divide(genus) for genus in range(9)]
    reports = [check_admissible(d) for d in divides]
    for d in divides:
        divide_fiber_model(d)
    genera = [d.graph.invariants().genus for d in divides]
    monkeypatch.undo()
    assert traced == [d.graph for d in divides]
    assert [rep.ambient_genus for rep in reports] == genera == list(range(9))


def test_admissibility_and_the_fiber_model_colour_once(monkeypatch):
    """``divide_fiber_model`` colours its divide once, through
    ``check_admissible``, and reads the coloring off the report."""
    made = []
    init = Checkerboard.__init__

    def counted(self, white, black):
        made.append(self)
        init(self, white, black)

    monkeypatch.setattr(Checkerboard, "__init__", counted)
    for genus in range(9):
        made.clear()
        model = divide_fiber_model(standard_divide(genus))
        assert len(made) == 1
        assert len(model.white_cycles) == len(made[0].white)
        assert len(model.black_cycles) == len(made[0].black)


@pytest.mark.parametrize("genus", range(6))
def test_necklace_morse_counts(genus):
    d = standard_divide(genus)
    minima, saddles, maxima = morse_data(d)
    assert (minima, saddles, maxima) == (2, 2 * genus + 2, 2)
    assert minima - saddles + maxima == d.euler_characteristic()


@pytest.mark.parametrize("genus, message", [
    (-1, "genus must be nonnegative, got -1"),
    ("x", "genus must be an integer, got 'x'"),
    (1.5, "genus must be an integer, got 1.5"),
    (None, "genus must be an integer, got None"),
    (True, "genus must be an integer, got True"),
], ids=["negative", "string", "float", "none", "bool"])
def test_necklace_rejects_negative_genus(genus, message):
    with pytest.raises(SurfaceError) as err:
        standard_divide(genus)
    assert str(err.value) == message


# -- coloring ---------------------------------------------------------------------


def test_figure_eight_is_admissible():
    rep = check_admissible(figure_eight())
    assert rep.admissible
    assert (rep.crossings, rep.arcs, rep.faces) == (1, 2, 3)
    assert rep.ambient_genus == 0
    minima, saddles, maxima = morse_data(figure_eight())
    assert saddles == 1
    assert sorted((minima, maxima)) == [1, 2]
    assert minima - saddles + maxima == 2


def test_three_chain_torus_embedding_is_colorable():
    rep = check_admissible(three_chain())
    assert rep.admissible
    assert (rep.faces, rep.ambient_genus) == (3, 1)


def test_odd_dual_cycle_is_rejected():
    # genus-1 embedding of the 3-chain whose three faces are pairwise
    # adjacent: the dual triangle has no 2-coloring.  On the sphere this
    # cannot happen (4-valent maps are Eulerian, their duals bipartite).
    d = three_chain(
        {
            "v0": (("a2", 1), ("a0", 0), ("b0", 0), ("b2", 1)),
            "v1": (("a0", 1), ("b0", 1), ("a1", 0), ("b1", 0)),
            "v2": (("a1", 1), ("b1", 1), ("b2", 0), ("a2", 0)),
        }
    )
    rep = check_admissible(d)
    assert rep.connected and rep.coloring is None and not rep.admissible
    assert (rep.faces, rep.ambient_genus) == (3, 1)
    assert rep.problem.startswith("odd face chain")
    for _ in range(2):  # every call raises again
        with pytest.raises(ColoringError, match="odd face chain"):
            checkerboard_coloring(d)


def test_self_adjacent_face_is_rejected():
    d = three_chain(
        {"v0": (("a2", 1), ("b2", 1), ("a0", 0), ("b0", 0))}
    )
    rep = check_admissible(d)
    assert not rep.admissible
    assert "touches both sides" in rep.problem


def test_disconnected_divide_is_rejected():
    d = Divide(
        ("x", "y"),
        ("e", "f", "g", "h"),
        {
            "x": (("e", 0), ("e", 1), ("f", 0), ("f", 1)),
            "y": (("g", 0), ("g", 1), ("h", 0), ("h", 1)),
        },
    )
    rep = check_admissible(d)
    assert not rep.connected and not rep.admissible
    assert rep.problem == "divide is not connected"


def test_coloring_classes_cover_all_faces():
    d = standard_divide(2)
    coloring = check_admissible(d).coloring
    faces = set(range(len(d.graph.faces())))
    assert set(coloring.white) | set(coloring.black) == faces
    assert not set(coloring.white) & set(coloring.black)
    for e in d.edges:
        sides = {d.graph._boundary()[1][d.graph._dart((e, i))] in coloring.white for i in (0, 1)}
        assert sides == {True, False}


# -- components and serialization --------------------------------------------------


def test_necklace_component_count():
    for genus in range(3):
        d = standard_divide(genus)
        assert len(components(d)) == 2 * genus + 2


def test_text_round_trip():
    d = standard_divide(1)
    back = Divide.from_text(d.to_text())
    assert back.vertices == d.vertices
    assert back.edges == d.edges
    assert back.rotation == d.rotation


def test_json_round_trip():
    d = figure_eight()
    doc = d.to_json_dict()
    assert doc["schema"] == "divide/1"
    back = Divide.from_json_dict(doc)
    assert back.vertices == d.vertices
    assert back.edges == d.edges
    assert back.rotation == d.rotation


def test_dot_export_mentions_every_crossing():
    d = standard_divide(0)
    dot = d.to_dot()
    assert dot.startswith("graph")
    for v in d.vertices:
        assert v in dot
