"""Ribbon graph structure, classification invariants, and rewriting."""

import itertools
import time

import pytest
from hypothesis import given, strategies as st

from lf_forge.builders import johns_fibration
from lf_forge.divides import Divide
from lf_forge.homology import workspace
from lf_forge.ribbon import NonOrientableError, RibbonGraph, SurfaceError, as_pairs, spanning_forest

import oracles


# -- random ribbon graphs ---------------------------------------------------------


@st.composite
def ribbon_graphs(draw, max_vertices=4, max_edges=7, allow_twists=True):
    """Connected ribbon graph: random endpoints, then a spanning chain of
    extra edges so connectivity never has to be rejected."""
    nv = draw(st.integers(1, max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    ne = draw(st.integers(max(1, nv - 1), max_edges))
    attach = {v: [] for v in vertices}
    names = []
    for j in range(ne):
        e = f"e{j}"
        names.append(e)
        if j < nv - 1:
            t, h = vertices[j], vertices[j + 1]
        else:
            t = vertices[draw(st.integers(0, nv - 1))]
            h = vertices[draw(st.integers(0, nv - 1))]
        attach[t].append((e, 0))
        attach[h].append((e, 1))
    rotation = {}
    for v in vertices:
        halves = list(attach[v])
        perm = draw(st.permutations(range(len(halves))))
        rotation[v] = tuple(halves[i] for i in perm)
    twists = ()
    if allow_twists:
        twists = tuple(e for e in names if draw(st.booleans()))
    return RibbonGraph(vertices, names, rotation, twists)


@st.composite
def loose_ribbon_graphs(draw, max_vertices=6, max_edges=8):
    """Ribbon graph with every edge end placed at random and no spanning
    chain: often disconnected, with degree-2 chains, pure degree-2 cycles,
    isolated vertices and non-orientable twist placements."""
    nv = draw(st.integers(1, max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    names = [f"e{j}" for j in range(draw(st.integers(0, max_edges)))]
    attach = {v: [] for v in vertices}
    for e in names:
        for end in (0, 1):
            attach[vertices[draw(st.integers(0, nv - 1))]].append((e, end))
    rotation = {v: tuple(draw(st.permutations(attach[v]))) for v in vertices}
    twists = tuple(e for e in names if draw(st.booleans()))
    return RibbonGraph(vertices, names, rotation, twists)


def surface_type(g):
    """``g.invariants()`` when g is orientable.  When it is not, None, once
    ``invariants``, ``faces`` and ``num_boundary_components`` are seen to
    raise NonOrientableError."""
    if g.is_orientable():
        return g.invariants()
    for method in (g.invariants, g.faces, g.num_boundary_components):
        with pytest.raises(NonOrientableError):
            method()
    return None


# -- frozen classification table --------------------------------------------------


def test_annulus_profile(annulus):
    inv = annulus.invariants()
    assert (inv.euler, inv.boundary_components, inv.genus) == (0, 2, 0)
    assert annulus.is_orientable()


def test_mobius_profile(mobius):
    assert mobius.euler_characteristic() == 0
    assert len(oracles.boundary_walks(mobius)) == 1
    assert mobius.local_orientations() is None
    assert surface_type(mobius) is None
    with pytest.raises(NonOrientableError):
        mobius.normalized()


def test_punctured_torus_profile(punctured_torus):
    inv = punctured_torus.invariants()
    assert (inv.euler, inv.boundary_components, inv.genus) == (-1, 1, 1)
    assert punctured_torus.is_orientable()


def test_pants_profile(pants):
    inv = pants.invariants()
    assert (inv.euler, inv.boundary_components, inv.genus) == (-1, 3, 0)
    assert pants.is_orientable()


@given(ribbon_graphs())
def test_cached_invariants_match_a_rebuilt_graph(g):
    first = surface_type(g)
    assert surface_type(RibbonGraph.from_json_dict(g.to_json_dict())) == first


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_cached_fiber_invariants_match_a_rebuilt_fiber(built, construction):
    fiber = built(construction, 3).fiber
    assert RibbonGraph.from_json_dict(fiber.to_json_dict()).invariants() == fiber.invariants()


def test_theta_with_uniform_far_end_is_punctured_torus():
    # same attachment order at both ends turns two of the bands into a handle
    g = RibbonGraph(
        ("u", "v"),
        ("e", "f", "g"),
        {"u": (("e", 0), ("f", 0), ("g", 0)), "v": (("e", 1), ("f", 1), ("g", 1))},
    )
    inv = g.invariants()
    assert (inv.euler, inv.boundary_components, inv.genus) == (-1, 1, 1)
    assert g.is_orientable()


def test_one_vertex_genus_two():
    rot = (("a", 0), ("b", 0), ("a", 1), ("b", 1), ("c", 0), ("d", 0), ("c", 1), ("d", 1))
    g = RibbonGraph(("v",), ("a", "b", "c", "d"), {"v": rot})
    inv = g.invariants()
    assert (inv.euler, inv.boundary_components, inv.genus) == (-3, 1, 2)
    assert g.is_orientable()


# -- constructor validation -------------------------------------------------------


def test_rejects_duplicate_vertex_ids():
    with pytest.raises(SurfaceError):
        RibbonGraph(("v", "v"), ("e",), {"v": (("e", 0), ("e", 1))})


def test_rejects_missing_half_edge():
    with pytest.raises(SurfaceError, match="half-edge"):
        RibbonGraph(("u", "v"), ("e",), {"u": (("e", 0),), "v": ()})


def test_rejects_reattached_half_edge():
    with pytest.raises(SurfaceError, match="attached twice"):
        RibbonGraph(
            ("u", "v"), ("e",), {"u": (("e", 0), ("e", 0)), "v": (("e", 1),)}
        )


def test_rejects_unknown_twist():
    with pytest.raises(SurfaceError, match="twist"):
        RibbonGraph(("v",), ("e",), {"v": (("e", 0), ("e", 1))}, twists=("zz",))


def test_rejects_sign_prefixed_edge_id():
    with pytest.raises(SurfaceError, match="'-'"):
        RibbonGraph(("v",), ("-e",), {"v": (("-e", 0), ("-e", 1))})


@pytest.mark.parametrize("vertices, edges, rotation, message", [
    (("v",), (5,), {"v": ((5, 0), (5, 1))}, "edge id must be a string, got 5"),
    (("v", 3), ("e",), {"v": (("e", 0), ("e", 1)), 3: ()}, "vertex id must be a string, got 3"),
    ((None,), ("e",), {None: (("e", 0), ("e", 1))}, "vertex id must be a string, got None"),
], ids=["int-edge", "mixed-vertices", "none-vertex"])
def test_rejects_non_string_ids(vertices, edges, rotation, message):
    with pytest.raises(SurfaceError, match=f"^{message}$"):
        RibbonGraph(vertices, edges, rotation)


# Rotations that are not lists or tuples of (str, int) tuples are rebuilt
# entry by entry as (str(e), int(end)); these are the results of that rebuild.
ODD_ROTATIONS = [
    {"u": [["e", 0], ["f", 0], ["g", 0]], "v": [["g", 1], ["f", 1], ["e", 1]]},
    {"u": (("e", False), ("f", False), ("g", False)), "v": (("g", True), ("f", True), ("e", True))},
    {"u": (("e", "0"), ("f", "0"), ("g", "0")), "v": (("g", "1"), ("f", "1"), ("e", "1"))},
    {"u": iter([("e", 0), ("f", 0), ("g", 0)]), "v": iter([("g", 1), ("f", 1), ("e", 1)])},
]


@pytest.mark.parametrize("rotation", ODD_ROTATIONS, ids=range(len(ODD_ROTATIONS)))
def test_odd_typed_rotation_entries_are_stored_as_str_int_tuples(pants, rotation):
    g = RibbonGraph(("u", "v"), ("e", "f", "g"), rotation)
    assert g.rotation == pants.rotation
    halves = [h for rot in g.rotation.values() for h in rot] + g._half
    assert all(type(h) is tuple and type(h[0]) is str and type(h[1]) is int for h in halves)
    assert g.to_json_dict() == pants.to_json_dict()  # half-edge ids read e.0, never e.False
    assert g.invariants() == pants.invariants()


def test_exact_typed_rotation_entries_are_kept(pants):
    rot = (("e", 0), ("f", 0), ("g", 0))
    g = RibbonGraph(("u", "v"), ("e", "f", "g"), {"u": rot, "v": [("g", 1), ("f", 1), ("e", 1)]})
    assert g.rotation == pants.rotation


def test_a_constructor_keeps_no_rotation_until_it_is_read():
    """``RibbonGraph(...)``, also under ``Divide(...)``, keeps only the dart
    tables: ``rotation`` enters ``vars()`` when read, and equals the input
    rebuilt by ``as_pairs``."""
    pants_input = {"u": [["e", 0], ["f", False], ["g", "0"]], "v": (("g", 1), ("f", True), ("e", 1))}
    eight_input = {"x": [("e", 0), ["e", 1], ("f", False), ("f", "1")]}
    for graph, rotation in ((RibbonGraph(("u", "v"), ("e", "f", "g"), pants_input, ("f",)), pants_input),
                            (Divide(("x",), ("e", "f"), eight_input).graph, eight_input)):
        assert "rotation" not in vars(graph)
        assert graph.rotation == {v: as_pairs(rot) for v, rot in rotation.items()}
        assert "rotation" in vars(graph)


@pytest.mark.parametrize("lookup, message", [
    (lambda g: g.vertex_of(("zz", 0)), "half-edge ('zz', 0) is not on the surface"),
    (lambda g: g.vertex_of(("a0e0", 2)), "half-edge ('a0e0', 2) is not on the surface"),
    (lambda g: g.vertex_of("a0e0"), "half-edge 'a0e0' is not on the surface"),
    (lambda g: g.vertex_of((["a0e0"], 0)), "half-edge (['a0e0'], 0) is not on the surface"),
    (lambda g: g.vertex_of(("a0e0", 0.0)), "half-edge ('a0e0', 0.0) is not on the surface"),
    (lambda g: g.edge_endpoints("zz"), "edge 'zz' is not on the surface"),
    (lambda g: g.edge_endpoints(["a0e0"]), "edge ['a0e0'] is not on the surface"),
    (lambda g: workspace(g).tree_path("zz", g.vertices[0]), "vertex 'zz' is not on the surface"),
    (lambda g: workspace(g).tree_path(g.vertices[0], "zz"), "vertex 'zz' is not on the surface"),
    (lambda g: workspace(g).tree_path([g.vertices[0]], "zz"), "vertex ['s1_0'] is not on the surface"),
], ids=["unknown-edge", "end-two", "not-a-pair", "unhashable-edge", "float-end", "unknown-endpoints-edge",
        "unhashable-endpoints-edge", "unknown-path-start", "unknown-path-end", "unhashable-path-start"])
def test_graph_lookups_name_what_is_not_on_the_surface(lookup, message):
    """A half-edge, edge or vertex that the graph does not have ends in a
    SurfaceError that names it, never a KeyError or an unpacking error."""
    fiber = johns_fibration(1).fiber
    with pytest.raises(SurfaceError) as err:
        lookup(fiber)
    assert str(err.value) == message
    assert fiber.vertex_of(("a0e0", 1)) == fiber.edge_endpoints("a0e0")[1]


def test_rotation_next_prev_are_inverse(punctured_torus):
    for v in punctured_torus.vertices:
        for h in punctured_torus.rotation[v]:
            assert oracles.rotation_prev(punctured_torus, oracles.rotation_next(punctured_torus, h)) == h


# -- properties on random graphs --------------------------------------------------


@given(ribbon_graphs())
def test_rotation_steps_follow_the_cyclic_order(g):
    for v in g.vertices:
        rot = g.rotation[v]
        for i, h in enumerate(rot):
            assert oracles.rotation_next(g, h) == rot[(i + 1) % len(rot)]
            assert oracles.rotation_prev(g, h) == rot[(i - 1) % len(rot)]


@given(ribbon_graphs())
def test_dart_tables_match_the_half_edge_oracle(g):
    """On a graph and on its normalized form: edge k has darts 2k and 2k + 1,
    so dart order is sorted half-edge order and the partner of dart d is
    d ^ 1, and every dart's vertex number (its index in ``vertices``),
    successor, predecessor and rotation index are those of its half-edge in
    the rebuilt reference; ``_deg`` holds each vertex's rotation length."""
    for graph in [g] + ([g.normalized()] if g.is_orientable() else []):
        vertex_of, nxt, prv, pos = oracles.half_edge_tables(graph)
        half = graph._half
        assert graph._eid == {e: k for k, e in enumerate(graph.edges)}
        assert graph._deg == [len(graph.rotation[v]) for v in graph.vertices]
        assert half == sorted(vertex_of) == [(e, i) for e in graph.edges for i in (0, 1)]
        for d, h in enumerate(half):
            assert half[d ^ 1] == oracles.partner(h)
            assert graph.vertices.index(vertex_of[h]) == graph._dv[d]
            assert half[graph._dn[d]] == nxt[h]
            assert half[graph._dp[d]] == prv[h]
            assert graph._dpos[d] == pos[h]


@given(ribbon_graphs())
def test_euler_characteristic_is_vertices_minus_edges(g):
    assert g.euler_characteristic() == len(g.vertices) - len(g.edges)
    inv = surface_type(g)
    if inv is not None:
        assert inv.euler == g.euler_characteristic()


@given(ribbon_graphs())
def test_boundary_walks_cover_every_edge_side_once(g):
    steps = [s for walk in oracles.boundary_walks(g) for s in walk]
    assert len(steps) == 2 * len(g.edges)


@given(ribbon_graphs())
def test_boundary_count_matches_the_traced_walks(g):
    for h in (g, oracles.mirrored(g)):
        if surface_type(h) is not None:
            assert h.num_boundary_components() == len(oracles.boundary_walks(h))


@given(ribbon_graphs())
def test_faces_are_the_sorted_orbits_of_next_after_partner(g):
    if surface_type(g) is None:
        return
    faces = g.faces()
    norm = g.normalized()
    halves = [h for face in faces for h in face]
    assert sorted(halves) == [(e, i) for e in g.edges for i in (0, 1)]
    assert [face[0] for face in faces] == sorted(min(face) for face in faces)
    for face in faces:
        assert face[0] == min(face)
        for h, k in zip(face, face[1:] + face[:1]):
            assert oracles.rotation_next(norm, oracles.partner(h)) == k
    orbits, face_of = g._boundary()
    for i, orbit in enumerate(orbits):
        for d in orbit:
            assert face_of[d] == i


@given(ribbon_graphs())
def test_orientable_genus_parity(g):
    inv = surface_type(g)
    if inv is not None:
        assert 2 - 2 * inv.genus - inv.boundary_components == inv.euler


@given(ribbon_graphs(allow_twists=False))
def test_untwisted_graphs_are_orientable(g):
    eps = g.local_orientations()
    assert eps is not None
    assert set(eps.values()) <= {1, -1}
    assert g.is_orientable()
    assert g.invariants().genus >= 0


@given(ribbon_graphs())
def test_normalization_clears_twists_and_preserves_type(g):
    if surface_type(g) is None:
        with pytest.raises(NonOrientableError):
            g.normalized()
        return
    norm = g.normalized()
    assert not norm.twists
    assert norm.invariants() == g.invariants()


def tables(g):
    """Every table a ribbon graph holds."""
    return g.vertices, g.edges, g.twists, g.rotation, g._eid, g._half, g._dv, g._deg, g._dn, g._dp, g._dpos


@given(ribbon_graphs())
def test_normalization_derives_the_constructors_tables(g):
    if not g.is_orientable():
        with pytest.raises(NonOrientableError):
            g.normalized()
        return
    norm = g.normalized()
    assert tables(norm) == tables(oracles.normalized(g))
    assert norm.normalized() is norm


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_normalized_builds_match_the_constructor(built, relabelled, mirrored, construction):
    for genus in range(9):
        fib = built(construction, genus)
        for lf in (fib, relabelled(fib, genus), mirrored(fib)):
            norm = lf.fiber.normalized()
            assert tables(norm) == tables(oracles.normalized(lf.fiber))
            assert norm.normalized() is norm


@given(ribbon_graphs())
def test_mirror_is_an_involution_preserving_type(g):
    m = oracles.mirrored(g)
    assert surface_type(m) == surface_type(g)
    back = oracles.mirrored(m)
    assert back.rotation == g.rotation and back.twists == g.twists


@given(ribbon_graphs())
def test_smoothing_preserves_type_and_removes_valence_two(g):
    # suppressible: valence two with two distinct incident edges
    deg2 = {
        v
        for v in g.vertices
        if len(g.rotation[v]) == 2 and g.rotation[v][0][0] != g.rotation[v][1][0]
    }
    if deg2 == set(g.vertices):
        with pytest.raises(SurfaceError):
            g.smoothed()
        return
    smooth, edge_map = g.smoothed()
    assert surface_type(smooth) == surface_type(g)
    assert set(edge_map) == set(g.edges)
    assert set(smooth.vertices) == set(g.vertices) - deg2
    for new, sign in edge_map.values():
        assert new in smooth.edges and sign in (1, -1)


def test_smoothing_merges_a_chain_through_an_anchor():
    g = RibbonGraph(
        ("m1", "m2", "v"),
        ("e0", "e1", "e2", "e3"),
        {
            "v": (("e0", 0), ("e2", 1), ("e3", 0), ("e3", 1)),
            "m1": (("e0", 1), ("e1", 0)),
            "m2": (("e1", 1), ("e2", 0)),
        },
    )
    smooth, edge_map = g.smoothed()
    assert smooth.vertices == ("v",)
    assert set(smooth.edges) == {"e0", "e3"}
    # the whole chain runs forward out of the anchor half-edge
    assert edge_map == {"e0": ("e0", 1), "e1": ("e0", 1), "e2": ("e0", 1), "e3": ("e3", 1)}
    assert smooth.invariants() == g.invariants()


def test_json_round_trip_is_exact():
    g = RibbonGraph(
        ("u", "v"),
        ("e", "f", "g"),
        {"u": (("e", 0), ("f", 0), ("g", 0)), "v": (("g", 1), ("f", 1), ("e", 1))},
        twists=("f",),
    )
    doc = g.to_json_dict()
    assert doc["schema"] == "ribbon-graph/1"
    back = RibbonGraph.from_json_dict(doc)
    assert back.vertices == g.vertices
    assert back.edges == g.edges
    assert back.rotation == g.rotation
    assert back.twists == g.twists


# -- orientation signs and the reduction -------------------------------------------


def brute_force_orientations(g):
    """Oracle for the signs of ``spanning_forest``: the sign vector, found by trying
    them all, that every band accepts and that puts +1 on the least vertex
    of each component (None when there is none), and the component count."""
    root = {}
    for v in g.vertices:
        if v in root:
            continue
        root[v] = v
        stack = [v]
        while stack:
            u = stack.pop()
            for e, i in g.rotation[u]:
                w = g.vertex_of((e, 1 - i))
                if w not in root:
                    root[w] = v
                    stack.append(w)
    roots = set(root.values())
    for signs in itertools.product((1, -1), repeat=len(g.vertices)):
        eps = dict(zip(g.vertices, signs))
        if all(eps[r] == 1 for r in roots) and all(
            (eps[t] != eps[h]) == (e in g.twists) for e in g.edges for t, h in [g.edge_endpoints(e)]
        ):
            return eps, len(roots)
    return None, len(roots)


@given(loose_ribbon_graphs())
def test_orientation_signs_match_the_oracle(g):
    """``spanning_forest`` on the vertex numbers of the dart tables: its
    signs and component count are the brute-force ones, and its co-tree
    positions those of the lexicographic tree over vertex names."""
    eps, components = brute_force_orientations(g)
    twisted = {k for k, e in enumerate(g.edges) if e in g.twists}
    signs, count, index = spanning_forest(len(g.vertices), g._dv, twisted)
    assert signs == (None if eps is None else [eps[v] for v in g.vertices])
    assert count == components
    basis_index = oracles.lexicographic_tree(g)[2]
    assert index == [basis_index.get(e, -1) for e in g.edges]
    assert g._forest() == (signs, count, index)
    assert g.local_orientations() == eps
    assert g.is_connected() == (components == 1)


def test_a_path_joined_from_its_far_end_inward_takes_linear_time():
    """50,000 vertices on a path whose edges, in order, join vertex n - 2 - k
    to n - 1 - k, every other one twisted.  Hanging the grown tree under the
    new vertex at each join, as a union that ignored sizes could, would
    leave one path 50,000 deep, and finding every vertex's root for its
    sign would take quadratic time."""
    n = 50_000
    ends = [v for k in range(n - 1) for v in (n - 2 - k, n - 1 - k)]
    start = time.perf_counter()
    signs, components, index = spanning_forest(n, ends, {k for k in range(0, n - 1, 2)})
    assert time.perf_counter() - start < 10
    assert components == 1 and index == [-1] * (n - 1)
    expected = [1]
    for u in range(n - 1):  # the edge from u to u + 1 is edge n - 2 - u, twisted when that is even
        expected.append(-expected[-1] if (n - 2 - u) % 2 == 0 else expected[-1])
    assert signs == expected


def chain_reduction(g):
    """Oracle for the reduction ``normalized().smoothed()``: smooth, then
    orient every kept vertex by the page's own sign.  Those signs must
    orient the smoothed graph: a merged band is twisted exactly when its
    ends' signs differ."""
    smooth, edge_map = g.smoothed()
    eps = g.local_orientations()
    if eps is None:
        raise NonOrientableError("cannot orient a non-orientable surface")
    for e in smooth.edges:
        t, h = smooth.edge_endpoints(e)
        assert (eps[t] != eps[h]) == (e in smooth.twists)
    rotation = {v: rot if eps[v] == 1 else rot[::-1] for v, rot in smooth.rotation.items()}
    return RibbonGraph(smooth.vertices, smooth.edges, rotation, ()), edge_map


def reduction(g):
    """The reduction ``equivalence.reduced_word`` applies to a fiber."""
    return g.normalized().smoothed()


def reduction_outcome(reduce, g):
    """Everything a reduction shows: the graph's tables and the edge map,
    or the type and text of the error it raises."""
    try:
        r, edge_map = reduce(g)
    except SurfaceError as exc:
        return type(exc), str(exc)
    return r.vertices, r.edges, r.rotation, r.twists, edge_map


@given(loose_ribbon_graphs())
def test_reduction_matches_the_smooth_then_orient_chain(g):
    """On an orientable graph the reduction equals the chain exactly.  A
    non-orientable one raises NonOrientableError, also where the chain
    raises a smoothing error first: the comparisons never reach that
    order, as their gate's ``invariants()`` rejects such a fiber."""
    if not g.is_orientable():
        with pytest.raises(NonOrientableError):
            reduction(g)
        return
    assert reduction_outcome(reduction, g) == reduction_outcome(chain_reduction, g)


def test_reduction_orients_each_component_by_the_page():
    """Vertex a carries loop x; b and c are joined by twisted y and z, and
    c carries loop w.  Smoothing b leaves c, which the page orients -1, in a
    component of its own: the reduced page reverses c as ``normalized``
    does, rather than taking the smoothed component's own anchor."""
    g = RibbonGraph(("a", "b", "c"), ("w", "x", "y", "z"), {
        "a": (("x", 0), ("x", 1)),
        "b": (("y", 0), ("z", 0)),
        "c": (("y", 1), ("w", 0), ("z", 1), ("w", 1)),
    }, twists=("y", "z"))
    assert g.local_orientations() == {"a": 1, "b": 1, "c": -1}
    reduced, edge_map = reduction(g)
    assert edge_map == {"y": ("y", -1), "z": ("y", 1), "w": ("w", 1), "x": ("x", 1)}
    assert reduced.rotation == {"a": (("x", 0), ("x", 1)), "c": (("w", 1), ("y", 1), ("w", 0), ("y", 0))}
    assert reduced.twists == frozenset()


def test_a_chain_through_one_anchor_runs_out_of_its_lesser_half_edge():
    """The chain p, q leaves anchor v and re-enters it through m.  v's
    rotation lists the greater end ("q", 1) first, and the twisted band t
    orients v -1, so orienting reverses v.  The merged edge still runs out
    of ("p", 0) whether v is oriented before or after smoothing."""
    g = RibbonGraph(("a", "m", "v"), ("p", "q", "t", "x"), {
        "a": (("t", 0), ("x", 0), ("x", 1)),
        "m": (("p", 1), ("q", 0)),
        "v": (("q", 1), ("t", 1), ("p", 0)),
    }, twists=("t",))
    assert g.local_orientations() == {"a": 1, "m": -1, "v": -1}
    smooth, edge_map = g.smoothed()
    assert edge_map == {"p": ("p", 1), "q": ("p", 1), "t": ("t", 1), "x": ("x", 1)}
    assert smooth.rotation["v"] == (("p", 1), ("t", 1), ("p", 0))
    reduced, _ = reduction(g)
    assert reduced.rotation == {"a": (("t", 0), ("x", 0), ("x", 1)), "v": (("p", 0), ("t", 1), ("p", 1))}
    assert reduction_outcome(reduction, g) == reduction_outcome(chain_reduction, g)


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_reduction_of_the_builds_matches_the_chain(built, relabelled, mirrored, construction):
    for genus in range(4):
        fib = built(construction, genus)
        for lf in (fib, relabelled(fib, genus), mirrored(fib)):
            assert reduction_outcome(reduction, lf.fiber) == reduction_outcome(chain_reduction, lf.fiber)
