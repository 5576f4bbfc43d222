"""Random inputs end in a result or in a named error.

Random plumbing patterns and randomly corrupted documents of both builds go
the whole library path: build or parse, certify, and compare both ways with
sound builds.  Each step ends in a model, a certificate or a comparison, or
in a named ``SurfaceError`` or ``DivideError``; never in ``KeyError``,
``IndexError``, ``AttributeError`` or any other exception, which the test
lets through.  A sweep gives every public callable malformed arguments too.
"""

import copy
import inspect

import pytest
from hypothesis import given, settings, strategies as st

import lf_forge
from lf_forge.builders import (LefschetzFibration, PlumbingPattern, johns_fibration, johns_pattern, realize_plumbing,
                               simultaneous_surgery, word_families)
from lf_forge.certify import fibration_certificate
from lf_forge.divides import Divide, DivideError, standard_divide
from lf_forge.equivalence import isomorphism_certificate
from lf_forge.homology import class_from_steps, curve_class
from lf_forge.ribbon import RibbonGraph, SurfaceError

NAMED = (SurfaceError, DivideError)


def certify_and_compare(fib: LefschetzFibration, built) -> None:
    """Certify ``fib`` and compare it both ways with both sound builds of
    its genus; each step may end in a named error, and a finished one
    returns a well-formed document."""
    try:
        cert = fibration_certificate(fib)
        assert cert["schema"] == "certificate/1" and cert["passed"] in (True, False)
    except NAMED:
        pass
    for construction in ("johns", "ishikawa"):
        other = built(construction, fib.genus)
        for lf1, lf2 in ((fib, other), (other, fib)):
            try:
                found = isomorphism_certificate(lf1, lf2)["found"]
            except NAMED:
                continue
            assert found in (True, False)


# -- plumbing patterns -----------------------------------------------------------


@st.composite
def plumbing_families(draw):
    """Both families of a pattern on 1-7 squares: each a random order of the
    squares split into loops, then, one time in four each, one square
    repeated in a loop and one square dropped from a loop (which can leave a
    loop empty)."""
    n = draw(st.integers(1, 7))
    squares = [f"s{i}" for i in range(n)]
    families = []
    for _ in range(2):
        order = draw(st.permutations(squares))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        loops = [list(order[i:j]) for i, j in zip([0, *cuts], [*cuts, n])]
        if draw(st.integers(0, 3)) == 0:
            loop = loops[draw(st.integers(0, len(loops) - 1))]
            loop.insert(draw(st.integers(0, len(loop))), draw(st.sampled_from(squares)))
        if draw(st.integers(0, 3)) == 0:
            loop = loops[draw(st.integers(0, len(loops) - 1))]
            if loop:
                del loop[draw(st.integers(0, len(loop) - 1))]
        families.append(tuple(tuple(loop) for loop in loops))
    return families, draw(st.integers(0, 3))


@settings(max_examples=300)
@given(plumbing_families())
def test_random_plumbing_patterns_end_in_a_result_or_a_named_error(built, data):
    (loops_a, loops_b), genus = data
    try:
        pattern = PlumbingPattern(loops_a, loops_b)
        fiber, a_curves, b_curves = realize_plumbing(pattern)
        c_curves = simultaneous_surgery(fiber, a_curves, b_curves)
        fib = LefschetzFibration("johns", genus, fiber, (*a_curves, *b_curves, *c_curves))
    except NAMED:
        return
    assert {c.name for c in c_curves} == {f"c{i}" for i in range(len(c_curves))}
    certify_and_compare(fib, built)


# -- corrupted documents -----------------------------------------------------------


def _flip(token: str) -> str:
    return token[1:] if token.startswith("-") else f"-{token}"


def corrupt(draw, doc: dict) -> None:
    """Apply one random corruption to a fibration document in place."""
    fiber = doc["fiber"]
    rotation = fiber["rotation"]
    cycles = doc["vanishing_cycles"]
    kind = draw(st.sampled_from(("shuffle", "swap", "twist", "reverse", "drop", "replace", "double",
                                 "swap_cycles", "rename")))
    if kind == "shuffle":  # one vertex's slots in another order
        v = draw(st.sampled_from(sorted(rotation)))
        rotation[v] = draw(st.permutations(rotation[v]))
    elif kind == "swap":  # two slots exchanged, at one vertex or across two
        slots = [(v, k) for v in sorted(rotation) for k in range(len(rotation[v]))]
        (v, k), (w, m) = draw(st.sampled_from(slots)), draw(st.sampled_from(slots))
        rotation[v][k], rotation[w][m] = rotation[w][m], rotation[v][k]
    elif kind == "twist":
        rec = draw(st.sampled_from(fiber["edges"]))
        rec["twist"] = not rec["twist"]
    else:
        rec = draw(st.sampled_from(cycles))
        walk = rec["walk"]
        if kind == "reverse":
            rec["walk"] = [_flip(t) for t in reversed(walk)]
        elif kind == "drop" and walk:
            del walk[draw(st.integers(0, len(walk) - 1))]
        elif kind == "replace" and walk:
            edge = draw(st.sampled_from(fiber["edges"]))["id"]
            walk[draw(st.integers(0, len(walk) - 1))] = draw(st.sampled_from((edge, f"-{edge}")))
        elif kind == "double":
            rec["walk"] = walk + walk
        elif kind == "swap_cycles":
            i, j = draw(st.integers(0, len(cycles) - 1)), draw(st.integers(0, len(cycles) - 1))
            cycles[i], cycles[j] = cycles[j], cycles[i]
        elif kind == "rename":
            others = [c["name"] for c in cycles] + ["a", "b9", "c", "d0"]
            rec["name"] = draw(st.sampled_from(others))


@settings(max_examples=300)
@given(st.data())
def test_corrupted_documents_end_in_a_result_or_a_named_error(built, data):
    construction = data.draw(st.sampled_from(("johns", "ishikawa")))
    genus = data.draw(st.integers(0, 3))
    doc = copy.deepcopy(built(construction, genus).to_json_dict())
    for _ in range(data.draw(st.integers(1, 3))):
        corrupt(data.draw, doc)
    try:
        fib = LefschetzFibration.from_json_dict(doc)
    except NAMED:
        return
    certify_and_compare(fib, built)


# -- malformed values in every document reader ---------------------------------------


def _paths(node, path=()):
    """Every field path of a JSON document, the document itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _text_lines(text: str) -> list:
    """A divide text as a list of lines, each a list of its tokens."""
    return [line.split() for line in text.splitlines()]


READERS = {
    "lefschetz-fibration": lambda built, g: (built("johns" if g % 2 else "ishikawa", g).to_json_dict(),
                                             LefschetzFibration.from_json_dict),
    "ribbon-graph": lambda built, g: (built("johns" if g % 2 else "ishikawa", g).fiber.to_json_dict(),
                                      RibbonGraph.from_json_dict),
    "divide": lambda built, g: (standard_divide(g).to_json_dict(), Divide.from_json_dict),
    "divide-text": lambda built, g: (_text_lines(standard_divide(g).to_text()),
                                     lambda lines: Divide.from_text(_render(lines))),
}


def _render(lines):
    """``lines`` joined back into a divide text; a line or token that a
    malformed value replaced is written with ``str``, and a document that
    one replaced whole is passed on as it is."""
    if not isinstance(lines, list):
        return lines
    return "".join((" ".join(map(str, line)) if isinstance(line, list) else str(line)) + "\n" for line in lines)


@st.composite
def malformed_values(draw, old):
    """None, an integer, a string, a nested list, a list one entry too short
    or too long, or a name that no document uses."""
    kind = draw(st.sampled_from(("none", "int", "string", "nested", "length", "unknown")))
    if kind == "none":
        return None
    if kind == "int":
        return draw(st.integers(-2, 3) | st.booleans())
    if kind == "string":
        return draw(st.text(max_size=4))
    if kind == "nested":
        return [[old]] if draw(st.booleans()) else [[]]
    if kind == "length":
        seq = old if isinstance(old, list) else [old]
        return seq[:-1] if draw(st.booleans()) else seq + seq[-1:]
    return draw(st.sampled_from(("ghost", "-ghost", "ghost.0", "ghost: a0.0 a0.1 b0.0 b0.1")))


@settings(max_examples=400)
@given(st.data())
def test_malformed_values_in_documents_end_in_a_document_or_a_named_error(built, data):
    """A malformed value at a random field path of a valid document (in
    place of the whole document, or of a divide text's line or token, too),
    or a field moved to an unknown name, is parsed, or raises a named
    error, by each of the four readers."""
    reader = data.draw(st.sampled_from(sorted(READERS)))
    doc, parse = READERS[reader](built, data.draw(st.integers(0, 2)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = data.draw(malformed_values(doc))
    else:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, dict) and data.draw(st.integers(0, 5)) == 0:  # the field under an unknown name
            node["ghost"] = node.pop(path[-1])
        else:
            node[path[-1]] = data.draw(malformed_values(node[path[-1]]))
    try:
        parse(doc)
    except NAMED:
        pass


# -- malformed arguments to every public callable ------------------------------------


def _well_formed(callable_name: str) -> dict:
    """A well-formed value per required parameter name of the public
    callables: a ``johns_fibration(1)`` build with its fiber, word and first
    cycle, ``standard_divide(1)``, ``johns_pattern(1)``, genus 1 and
    ``[[2]]``.  A graph's vertices, edges and rotation are the divide's for
    ``Divide`` and the fiber's otherwise.  Built afresh for every call, so
    that no call sees what an earlier one left in a cache."""
    fib, divide, pattern = johns_fibration(1), standard_divide(1), johns_pattern(1)
    fams, c0 = word_families(fib), fib.word[0]
    graph = divide if callable_name == "Divide" else fib.fiber
    return {
        "host": fib.fiber, "surface": fib.fiber, "page": fib.fiber, "fiber": fib.fiber,
        "vertices": graph.vertices, "edges": graph.edges, "rotation": graph.rotation,
        "construction": "johns", "genus": 1, "fib": fib, "lf1": fib, "lf2": fib,
        "word": fib.word, "cycles": fib.word, "curve": c0, "name": c0.name, "walk": c0.walk,
        "family_x": fams["a"], "family_y": fams["b"], "divide": divide, "pattern": pattern,
        "loops_a": pattern.loops_a, "loops_b": pattern.loops_b,
        "free_rank": 1, "vector": curve_class(fib.fiber, c0).vector, "matrix": [[2]],
    }


MALFORMED = (None, 3, "zz", [None], ("x",), [["x"]])
CALLABLES = [name for name in lf_forge.__all__
             if not (isinstance(obj := getattr(lf_forge, name), type) and issubclass(obj, Exception))]


def _positional(name: str, optional: bool) -> list[str]:
    """The names of the required (or the optional) positional parameters of the public callable ``name``."""
    return [p.name for p in inspect.signature(getattr(lf_forge, name)).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and (p.default is not p.empty) == optional]


@pytest.mark.parametrize("name", CALLABLES)
def test_public_callables_name_malformed_arguments(name):
    """Each required positional argument of a public callable replaced in
    turn by each malformed value, the others well formed: every call
    returns, or raises a named error."""
    func = getattr(lf_forge, name)
    params = _positional(name, optional=False)
    for i in range(len(params)):
        for bad in MALFORMED:
            good = _well_formed(name)
            try:
                func(*[bad if j == i else good[p] for j, p in enumerate(params)])
            except NAMED:
                pass


@pytest.mark.parametrize("name", [name for name in CALLABLES if _positional(name, optional=True)])
def test_public_callables_name_malformed_optional_arguments(name):
    """Each optional positional argument of a public callable given, in
    turn, each malformed value, the required ones well formed and the other
    optional ones left at their defaults: every call returns, or raises a
    named error."""
    func = getattr(lf_forge, name)
    required = _positional(name, optional=False)
    for param in _positional(name, optional=True):
        for bad in MALFORMED:
            good = _well_formed(name)
            try:
                func(*[good[p] for p in required], **{param: bad})
            except NAMED:
                pass


@pytest.mark.parametrize("call, error, message", [
    (lambda f: lf_forge.CurveOnSurface(None, "y", f.word[0].walk), SurfaceError, "host must be a RibbonGraph, got None"),
    (lambda f: lf_forge.HomologyClass(3, ()), SurfaceError, "host must be a RibbonGraph, got 3"),
    (lambda f: lf_forge.homology_basis("zz"), SurfaceError, "surface must be a RibbonGraph, got 'zz'"),
    (lambda f: lf_forge.curve_class(f.fiber, None), SurfaceError, "curve must be a CurveOnSurface, got None"),
    (lambda f: lf_forge.curve_class(None, f.word[0]), SurfaceError, "surface must be a RibbonGraph, got None"),
    (lambda f: lf_forge.HomologyClass(f.fiber, (True,) * 9), SurfaceError,
     "class vector entry must be an integer, got True"),
    (lambda f: class_from_steps(f.fiber, None), SurfaceError, "None is not an (id, integer) pair"),
    (lambda f: lf_forge.fibration_homology(f.fiber, None), SurfaceError,
     "word must be a tuple or list of curves, got NoneType"),
    (lambda f: lf_forge.open_book_h1(f.fiber, [None]), SurfaceError, "word entry None is not a curve"),
    (lambda f: lf_forge.total_space_euler(f.fiber, 3), SurfaceError,
     "cycles must be a tuple or list of curves, got int"),
    (lambda f: lf_forge.simultaneous_surgery(f.fiber, "zz", ()), SurfaceError,
     "family_x must be a tuple or list of curves, got str"),
    (lambda f: lf_forge.realize_plumbing(None), SurfaceError, "pattern must be a PlumbingPattern, got None"),
    (lambda f: lf_forge.fibration_certificate(f.fiber), SurfaceError, "can certify only fibrations, got RibbonGraph"),
    (lambda f: lf_forge.check_admissible(None), DivideError, "divide must be a Divide, got None"),
    (lambda f: lf_forge.Divide(None, (), {}), DivideError, "vertices must be an iterable of ids, got None"),
    (lambda f: lf_forge.Divide([["x"]], (), {}), DivideError, "vertex id must be a string, got ['x']"),
    (lambda f: lf_forge.RibbonGraph(f.fiber.vertices, 3, f.fiber.rotation), SurfaceError,
     "edges must be an iterable of ids, got 3"),
    (lambda f: lf_forge.RibbonGraph(f.fiber.vertices, f.fiber.edges, [None]), SurfaceError,
     "rotation must be a Mapping, got [None]"),
    (lambda f: lf_forge.RibbonGraph(f.fiber.vertices, f.fiber.edges, f.fiber.rotation, 3), SurfaceError,
     "twists must be an iterable of ids, got 3"),
    (lambda f: lf_forge.RibbonGraph(f.fiber.vertices, f.fiber.edges, f.fiber.rotation, [["x"]]), SurfaceError,
     "twist id must be a string, got ['x']"),
    (lambda f: lf_forge.FinAbGroup(True), SurfaceError, "free rank must be an integer, got True"),
    (lambda f: lf_forge.FinAbGroup(-1), SurfaceError, "free rank must be nonnegative, got -1"),
    (lambda f: lf_forge.FinAbGroup(1, 3), SurfaceError, "torsion must be a sequence of integers, got 3"),
    (lambda f: lf_forge.FinAbGroup(1, ("x",)), SurfaceError, "torsion must be a sequence of integers, got ('x',)"),
    (lambda f: lf_forge.PlumbingPattern([None], ()), SurfaceError,
     "family a must be a sequence of loops of squares, got [None]"),
    (lambda f: lf_forge.smith_normal_form([[1, 2], [3]]), SurfaceError, "matrix rows must have equal lengths"),
    (lambda f: lf_forge.smith_normal_form([[1.5]]), SurfaceError, "matrix must be a list of integer rows, got [[1.5]]"),
])
def test_a_malformed_argument_is_named_by_its_role(call, error, message):
    """The named errors of the sweep word the argument's role and what it
    got; a bool is no free rank or class vector entry, a float no matrix
    entry, steps must be a sequence of pairs, and an unhashable id is
    named before any set is made of the ids."""
    with pytest.raises(error) as err:
        call(johns_fibration(1))
    assert type(err.value) is error and str(err.value) == message
