"""JSON documents: schemas, round-trips, and byte-level determinism."""

import json
import re

import pytest

from lf_forge.builders import LefschetzFibration, johns_fibration, sphere_planar_fibration
from lf_forge.certify import fibration_certificate
from lf_forge.curves import curve_from_json, parse_signed_edge_id
from lf_forge.divides import Divide, DivideError, standard_divide
from lf_forge.equivalence import isomorphism_certificate
from lf_forge.ribbon import RibbonGraph, SurfaceError

from oracles import signed_edge_id


def test_signed_edge_tokens():
    assert signed_edge_id(("e", 1)) == "e"
    assert signed_edge_id(("e", -1)) == "-e"
    assert parse_signed_edge_id("e") == ("e", 1)
    assert parse_signed_edge_id("-e") == ("e", -1)


def test_curve_json_round_trip(punctured_torus):
    from lf_forge.curves import CurveOnSurface

    curve = CurveOnSurface(punctured_torus, "w", (("a", 1), ("b", -1)))
    rec = curve.to_json_dict()
    assert rec == {"name": "w", "walk": ["a", "-b"]}
    back = curve_from_json(punctured_torus, rec["name"], rec["walk"])
    assert back.name == curve.name and back.walk == curve.walk


def test_fibration_json_round_trip(built):
    fib = built("johns", 1)
    doc = fib.to_json_dict()
    assert doc["schema"] == "lefschetz-fibration/1"
    assert doc["construction"] == "johns" and doc["genus"] == 1
    assert len(doc["vanishing_cycles"]) == 8
    back = LefschetzFibration.from_json_dict(doc)
    assert back.construction == fib.construction
    assert back.genus == fib.genus
    assert back.fiber.rotation == fib.fiber.rotation
    assert back.fiber.twists == fib.fiber.twists
    assert back.names() == fib.names()
    for old, new in zip(fib.word, back.word):
        assert old.walk == new.walk


def test_fibration_json_is_deterministic():
    one = json.dumps(johns_fibration(1).to_json_dict(), indent=2)
    two = json.dumps(johns_fibration(1).to_json_dict(), indent=2)
    assert one == two


def test_ribbon_graph_schema_guard():
    import pytest

    from lf_forge.ribbon import SurfaceError

    with pytest.raises(SurfaceError, match="schema"):
        RibbonGraph.from_json_dict({"schema": "nope/9"})


def test_fibration_schema_guard():
    import pytest

    from lf_forge.ribbon import SurfaceError

    with pytest.raises(SurfaceError, match="schema"):
        LefschetzFibration.from_json_dict({"schema": "nope/9"})


DELETE = object()


def _edited(doc, path, value):
    """``doc`` with the field at ``path`` replaced (or deleted when
    ``value`` is DELETE)."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _edit(path, value):
    """A johns g=1 document with the field at ``path`` edited."""
    return _edited(json.loads(json.dumps(johns_fibration(1).to_json_dict())), path, value)


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("fiber", "edges"), DELETE, "ribbon-graph is missing field 'edges'"),
        (("fiber", "edges", 0, "id"), 7, "ribbon-graph edge field 'id' must be a string, got 7"),
        (("fiber", "edges", 0, "twist"), "no", "edge 'a0e0' field 'twist' must be a boolean, got 'no'"),
        (("genus",), "two", "field 'genus' must be an integer, got 'two'"),
        (("genus",), True, "field 'genus' must be an integer, got True"),
        (("fiber", "vertices"), "ab", "field 'vertices' must be a list, got 'ab'"),
        (("fiber", "vertices", 0), 3, "field 'vertices' has an entry that is not a string: 3"),
        (("fiber", "rotation"), [], "field 'rotation' must be an object"),
        (("fiber", "rotation", "s1_0"), "a0e0.0", "rotation field 's1_0' must be a list"),
        (("fiber",), None, "field 'fiber' must be an object, got None"),
        (("vanishing_cycles", 0, "walk"), "a0e0", "cycle 'a0' field 'walk' must be a list"),
        (("vanishing_cycles", 1), ["a1"], "field 'vanishing_cycles' has an entry that is not an object"),
        (("construction",), DELETE, "lefschetz-fibration is missing field 'construction'"),
        (("fiber", "edges", 0, "half_edges"), DELETE, "edge 'a0e0' is missing field 'half_edges'"),
        (("fiber", "edges", 0, "half_edges"), ["zz.0", "qq.7"],
         "edge 'a0e0' field 'half_edges' must be ['a0e0.0', 'a0e0.1'], got ['zz.0', 'qq.7']"),
        (("fiber", "rotation", "ghost"), [], "rotation keys must match vertex set"),
        (("fiber", "rotation", "s1_0"), DELETE, "rotation keys must match vertex set"),
        (("fiber", "edges", 0, "half_edges"), "a0e0.0",
         "edge 'a0e0' field 'half_edges' must be a list, got 'a0e0.0'"),
        (("fiber", "edges", 0, "twist"), 1, "edge 'a0e0' field 'twist' must be a boolean, got 1"),
        (("fiber", "rotation", "s1_0", 0), 5, "rotation field 's1_0' has an entry that is not a string: 5"),
        (("fiber", "rotation", "s1_0", 0), "zz.0",
         "half-edge mismatch: missing [('a0e0', 0)], unknown [('zz', 0)]"),
        (("fiber", "rotation", "s1_0", 0), "a0e0.2", "bad half-edge id 'a0e0.2'"),
        (("fiber", "edges", 0, "id"), DELETE, "ribbon-graph edge is missing field 'id'"),
        (("vanishing_cycles", 0, "walk", 0), 3, "cycle 'a0' field 'walk' has an entry that is not a string: 3"),
        (("vanishing_cycles", 0, "walk", 0), "zz", "walk step ('zz', 1) is not on the surface"),
        (("vanishing_cycles", 0, "walk", 0), "-zz", "walk step ('zz', -1) is not on the surface"),
        (("vanishing_cycles", 0, "walk", 0), "", "walk step ('', 1) is not on the surface"),
        (("vanishing_cycles", 0, "name"), DELETE, "vanishing cycle is missing field 'name'"),
    ],
)
def test_malformed_documents_raise_surface_error(path, value, message):
    with pytest.raises(SurfaceError, match=re.escape(message)):
        LefschetzFibration.from_json_dict(_edit(path, value))


def test_edge_records_read_a_missing_twist_as_false_and_name_the_first_fault():
    """``json_records`` takes a field's default where its key is missing,
    and of two mistyped records names the first in record order."""
    doc = johns_fibration(1).to_json_dict()
    _, second, third = doc["fiber"]["edges"][:3]
    for rec in doc["fiber"]["edges"]:
        del rec["twist"]
    second["twist"] = True
    assert RibbonGraph.from_json_dict(doc["fiber"]).twists == {second["id"]}
    second["twist"], third["twist"] = "no", 1
    with pytest.raises(SurfaceError) as err:
        RibbonGraph.from_json_dict(doc["fiber"])
    assert str(err.value) == f"ribbon-graph edge {second['id']!r} field 'twist' must be a boolean, got 'no'"


def test_divide_document_with_an_unlisted_crossing_raises_divide_error():
    doc = standard_divide(1).to_json_dict()
    doc["rotation"]["ghost"] = []
    with pytest.raises(DivideError, match="rotation keys must match vertex set"):
        Divide.from_json_dict(doc)


def _divide_edit(path, value):
    return _edited(standard_divide(1).to_json_dict(), path, value)


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"schema": "divide/1"}, "divide is missing field 'vertices'"),
        ([], "unsupported schema None"),
        (_divide_edit(("edges",), 5), "divide field 'edges' must be a list, got 5"),
        (_divide_edit(("edges", 0, "tail"), DELETE), "divide edge 'a0' is missing field 'tail'"),
        (_divide_edit(("edges", 1, "head"), 7), "divide edge 'a1' field 'head' must be a string, got 7"),
        (_divide_edit(("rotation", "v0", 0), "a0"), "bad half-edge id 'a0'"),
        (_divide_edit(("rotation", "v0"), "a0.1"), "divide rotation field 'v0' must be a list, got 'a0.1'"),
        ({"schema": "divide/1", "vertices": [], "edges": [], "rotation": {}}, "empty divide description"),
        (_edited(_divide_edit(("edges", 0, "tail"), "v1"), ("edges", 0, "head"), "v0"),
         "edge 'a0' endpoints disagree with rotation placement"),
    ],
)
def test_malformed_divide_documents_raise_divide_error(doc, message):
    with pytest.raises(DivideError) as err:
        Divide.from_json_dict(doc)
    assert str(err.value) == message


def test_divide_text_with_a_bad_half_edge_raises_divide_error():
    with pytest.raises(DivideError, match="bad half-edge id 'a0.2'"):
        Divide.from_text("v0: a0.0 a0.2 b0.0 b0.1\n")


@pytest.mark.parametrize("text,message", [
    ("v0 a0.0 a0.1 b0.0 b0.1\n", "expected 'vertex: h h h h', got 'v0 a0.0 a0.1 b0.0 b0.1'"),
    ("v0: a0.0 a0.1 b0.0 b0.1\nv0: a1.0 a1.1 b1.0 b1.1\n", "crossing 'v0' listed twice"),
    (None, "divide text must be a string, got NoneType"),
], ids=["no-colon", "listed-twice", "not-a-string"])
def test_malformed_divide_text_raises_divide_error(text, message):
    with pytest.raises(DivideError) as err:
        Divide.from_text(text)
    assert str(err.value) == message


def test_divide_text_without_crossings_raises_divide_error():
    with pytest.raises(DivideError) as err:
        Divide.from_text("# no crossings\n")
    assert str(err.value) == "empty divide description"


def test_sphere_document_of_another_genus_raises_surface_error():
    doc = sphere_planar_fibration().to_json_dict()
    doc["genus"] = 1
    fib = LefschetzFibration.from_json_dict(doc)
    with pytest.raises(SurfaceError) as err:
        fibration_certificate(fib)
    assert str(err.value) == "the annulus-page model exists only at genus 0"


def test_an_empty_fiber_has_no_surface_invariants():
    """The empty graph has no components, so it is not connected: neither it
    nor a genus-0 johns document with an empty fiber reports genus 1."""
    with pytest.raises(SurfaceError) as err:
        RibbonGraph([], [], {}).invariants()
    assert str(err.value) == "surface invariants require a connected graph"
    doc = johns_fibration(0).to_json_dict()
    doc["fiber"].update(vertices=[], edges=[], rotation={})
    doc["vanishing_cycles"] = []
    with pytest.raises(SurfaceError) as err:
        fibration_certificate(LefschetzFibration.from_json_dict(doc))
    assert str(err.value) == "surface invariants require a connected graph"


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("construction", "banana", "no closed-form expectations for construction 'banana'"),
        ("genus", -1, "genus must be nonnegative, got -1"),
    ],
)
def test_certificate_needs_a_known_construction_and_genus(field, value, message):
    """A document parses whatever construction and genus it names, but only
    johns, ishikawa and sphere at genus >= 0 have expectations to certify
    against; any other pair raises instead of passing or failing checks."""
    fib = LefschetzFibration.from_json_dict(_edit((field,), value))
    with pytest.raises(SurfaceError) as err:
        fibration_certificate(fib)
    assert str(err.value) == message


def test_non_object_documents_raise_surface_error():
    with pytest.raises(SurfaceError, match="schema"):
        LefschetzFibration.from_json_dict([])
    with pytest.raises(SurfaceError, match="schema"):
        RibbonGraph.from_json_dict("ribbon-graph/1")


def test_certificate_document_shape(built):
    cert = fibration_certificate(built("ishikawa", 0))
    assert cert["schema"] == "certificate/1"
    assert cert["construction"] == "ishikawa" and cert["genus"] == 0
    assert cert["passed"] is True
    names = [c["name"] for c in cert["checks"]]
    assert names == [
        "fiber_genus",
        "fiber_boundary_components",
        "fiber_euler",
        "fiber_orientable",
        "word_length",
        "total_space_euler",
        "total_space_h1",
        "total_space_h2",
        "boundary_h1",
        "closing_smoothing",
    ]
    for c in cert["checks"]:
        assert set(c) == {"name", "passed", "expected", "actual"}
        assert c["passed"] is True


def test_certificate_json_is_deterministic(built):
    fib = built("johns", 2)
    assert json.dumps(fibration_certificate(fib)) == json.dumps(fibration_certificate(fib))


def test_isomorphism_document_is_json_serializable(built):
    doc = isomorphism_certificate(built("johns", 0), built("ishikawa", 0))
    text = json.dumps(doc, indent=2)
    assert json.loads(text) == doc
