"""First homology of surfaces: basis, pairing, and Dehn twist action."""

import collections
import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lf_forge.builders import ishikawa_fibration, johns_fibration
from lf_forge.certify import fibration_certificate
from lf_forge.curves import CurveOnSurface
from lf_forge.equivalence import isomorphism_certificate
from lf_forge.homology import (
    DisconnectedError,
    HomologyClass,
    Workspace,
    _CORNER_SIGNS,
    _CornerSigns,
    _sparse_class,
    class_from_steps,
    curve_class,
    homology_basis,
    pairing_matrix,
    pairings,
    workspace,
)
from lf_forge.invariants import fibration_homology, open_book_h1
from lf_forge.ribbon import RibbonGraph, SurfaceError

from oracles import (
    TransversalityError,
    algebraic_intersection,
    chord_crossing,
    dehn_twist_on_class,
    dehn_twist_on_path,
    edge_set,
    is_zero,
    lexicographic_tree,
    reversed_step,
    scaled,
    step_head,
    step_head_half,
    step_tail_half,
)
from test_ribbon import ribbon_graphs


def loop(surface, edge, name=None):
    return CurveOnSurface(surface, name or edge, ((edge, 1),))


@pytest.fixture(scope="module")
def genus_two():
    rot = (("a", 0), ("b", 0), ("a", 1), ("b", 1), ("c", 0), ("d", 0), ("c", 1), ("d", 1))
    return RibbonGraph(("v",), ("a", "b", "c", "d"), {"v": rot})


# -- basis and classes ------------------------------------------------------------


def test_basis_ranks(annulus, punctured_torus, pants, genus_two):
    assert len(homology_basis(annulus)) == 1
    assert len(homology_basis(punctured_torus)) == 2
    assert len(homology_basis(pants)) == 2
    assert len(homology_basis(genus_two)) == 4


def test_homology_of_a_disconnected_page_raises():
    """Two loops on separate vertices: the workspace refuses the page."""
    page = RibbonGraph(("u", "v"), ("e", "f"), {"u": (("e", 0), ("e", 1)), "v": (("f", 0), ("f", 1))})
    for compute in (lambda: fibration_homology(page, ()), lambda: homology_basis(page)):
        with pytest.raises(DisconnectedError, match="^homology requires a connected surface$") as err:
            compute()
        assert isinstance(err.value, SurfaceError)


@pytest.mark.parametrize("build", [johns_fibration, ishikawa_fibration], ids=["johns", "ishikawa"])
def test_certificate_leaves_the_tree_adjacency_unbuilt(build):
    """Only ``tree_path`` reads the tree adjacency, and it builds it."""
    fib = build(3)
    assert fibration_certificate(fib)["passed"]
    ws = workspace(fib.fiber)
    assert ws._tree_adj is None
    cycle = ws.basis_cycle(ws.basis[0])
    assert ws._tree_adj is not None
    assert _sparse_class(ws._basis_index, cycle._heads) == {0: 1}


def test_one_vertex_basis_cycles_are_unit_classes(punctured_torus):
    basis = homology_basis(punctured_torus)
    for i, e in enumerate(basis):
        vec = curve_class(punctured_torus, loop(punctured_torus, e)).vector
        assert vec == tuple(int(j == i) for j in range(len(basis)))


def test_commutator_walk_is_null_homologous(punctured_torus):
    walk = (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    cls = curve_class(punctured_torus, CurveOnSurface(punctured_torus, "comm", walk))
    assert is_zero(cls)


def test_class_from_steps_matches_curve_class(punctured_torus):
    walk = (("a", 1), ("b", 1), ("a", 1))
    by_curve = curve_class(punctured_torus, CurveOnSurface(punctured_torus, "w", walk))
    assert class_from_steps(punctured_torus, walk) == by_curve


def test_sparse_class_is_the_nonzero_part_of_curve_class(built):
    # The reversals make every count negative, which no built word has.
    for construction in ("johns", "ishikawa"):
        fib = built(construction, 3)
        reversals = tuple(
            CurveOnSurface(c.host, c.name, tuple(reversed_step(s) for s in reversed(c.walk)))
            for c in fib.word
        )
        for c in fib.word + reversals:
            vector = curve_class(fib.fiber, c).vector
            assert _sparse_class(workspace(fib.fiber)._basis_index, c._heads) == {
                i: x for i, x in enumerate(vector) if x}
    # _sparse_class trusts its caller with the host: fibration_homology checks it
    with pytest.raises(SurfaceError, match="different surface"):
        fibration_homology(built("johns", 1).fiber, built("johns", 2).word[:1])


@pytest.mark.parametrize("call, outcome", [
    (lambda f, g: workspace(f.fiber).basis_cycle("a0e0"), "'a0e0' is not a basis (co-tree) edge"),
    (lambda f, g: HomologyClass(f.fiber, (1,)), "class vector has length 1, basis has 9"),
    (lambda f, g: HomologyClass(f.fiber, (0,) * 9) + HomologyClass(g.fiber, (0,) * 5),
     "homology classes live on different surfaces"),
    (lambda f, g: curve_class(f.fiber, g.word[0]), "curve lives on a different surface"),
    (lambda f, g: HomologyClass(f.fiber, None), "class vector must be a tuple, got None"),
    (lambda f, g: CurveOnSurface(f.fiber, "y", (("a0e0",),)), "('a0e0',) is not an (id, integer) pair"),
    (lambda f, g: CurveOnSurface(f.fiber, "y", (("a0e0", 1), ("a0e0", "x"))),
     "('a0e0', 'x') is not an (id, integer) pair"),
    (lambda f, g: CurveOnSurface(f.fiber, "y", None), "None is not an (id, integer) pair"),
    (lambda f, g: f.word[0].cyclically_equal(f.word[6]), False),
], ids=["tree-edge-basis-cycle", "class-vector-length", "classes-on-two-surfaces", "foreign-curve-class",
        "class-vector-none", "step-not-a-pair", "sign-not-an-integer", "walk-not-a-sequence",
        "cyclically-equal-lengths-differ"])
def test_named_raises_and_early_returns(call, outcome):
    """The named faults of the homology layer and of ``ribbon.as_pairs``,
    and ``cyclically_equal``'s answer for walks of different lengths, on
    the ``johns`` g = 1 build (H1 rank 9) and the g = 0 one (rank 5)."""
    f, g = johns_fibration(1), johns_fibration(0)
    if isinstance(outcome, str):
        with pytest.raises(SurfaceError) as err:
            call(f, g)
        assert str(err.value) == outcome
    else:
        assert call(f, g) is outcome


# -- the workspace ----------------------------------------------------------------


def test_certifying_and_comparing_leave_no_cyclic_garbage(relabelled, mirrored):
    """Graphs are freed by reference counting: nothing caches a workspace,
    and an oriented graph's ``normalized()`` caches a marker, not the graph
    itself."""
    gc.collect()
    gc.disable()
    try:
        for genus in range(5):
            lf1, lf2 = johns_fibration(genus), ishikawa_fibration(genus)
            for fib in (lf1, lf2, relabelled(lf1, genus), relabelled(lf2, genus)):
                fibration_certificate(fib)
                assert gc.collect() == 0
            for pair in ((lf1, lf2), (lf2, lf1), (mirrored(lf1), lf2)):
                assert isomorphism_certificate(*pair)["found"]
                assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_certificate_builds_one_workspace(constructions, monkeypatch):
    """A certificate makes one workspace and holds it: every class and the
    pairing come from it, with no cache to serve a second."""
    fib = ishikawa_fibration(3)
    made = constructions(Workspace)
    fibration_certificate(fib)
    monkeypatch.undo()
    assert len(made) == 1


# -- intersection pairing ---------------------------------------------------------


def test_punctured_torus_symplectic_pairing(punctured_torus):
    a = curve_class(punctured_torus, loop(punctured_torus, "a"))
    b = curve_class(punctured_torus, loop(punctured_torus, "b"))
    assert abs(algebraic_intersection(punctured_torus, a, b)) == 1
    assert algebraic_intersection(punctured_torus, a, b) == -algebraic_intersection(
        punctured_torus, b, a
    )
    assert algebraic_intersection(punctured_torus, a, a) == 0


def test_genus_two_pairing_is_two_hyperbolic_blocks(genus_two):
    classes = {e: curve_class(genus_two, loop(genus_two, e)) for e in "abcd"}
    pair = lambda x, y: algebraic_intersection(genus_two, classes[x], classes[y])
    assert abs(pair("a", "b")) == 1
    assert abs(pair("c", "d")) == 1
    for x, y in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        assert pair(x, y) == 0


def test_pants_pairing_vanishes(pants):
    # planar surface: the form is identically zero
    basis = homology_basis(pants)
    ws = workspace(pants)
    for e in basis:
        for f in basis:
            x = curve_class(pants, ws.basis_cycle(e))
            y = curve_class(pants, ws.basis_cycle(f))
            assert algebraic_intersection(pants, x, y) == 0


@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(-3, 3),
)
def test_pairing_is_bilinear_and_antisymmetric(u, v, w, k):
    surface = RibbonGraph(
        ("v",), ("a", "b"), {"v": (("a", 0), ("b", 0), ("a", 1), ("b", 1))}
    )
    x = HomologyClass(surface, u)
    y = HomologyClass(surface, v)
    z = HomologyClass(surface, w)
    pairing = lambda p, q: algebraic_intersection(surface, p, q)
    assert pairing(x, y) == -pairing(y, x)
    assert pairing(x + scaled(z, k), y) == pairing(x, y) + k * pairing(z, y)


def random_tree_cycles(surface, rng):
    """Fundamental cycles of a spanning tree grown from shuffled edges."""
    edges = list(surface.edges)
    rng.shuffle(edges)
    root = {v: v for v in surface.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    adj = {v: [] for v in surface.vertices}
    cotree = []
    for e in edges:
        t, h = surface.edge_endpoints(e)
        rt, rh = find(t), find(h)
        if rt == rh:
            cotree.append(e)
        else:
            root[rt] = rh
            adj[t].append((e, 1, h))
            adj[h].append((e, -1, t))

    def tree_path(a, b):
        prev = {a: None}
        stack = [a]
        while stack:
            v = stack.pop()
            for e, s, w in adj[v]:
                if w not in prev:
                    prev[w] = (e, s, v)
                    stack.append(w)
        steps = []
        while b != a:
            e, s, b = prev[b]
            steps.append((e, s))
        return tuple(reversed(steps))

    cycles = []
    for e in cotree:
        t, h = surface.edge_endpoints(e)
        cycles.append(CurveOnSurface(surface, f"t[{e}]", ((e, 1),) + tree_path(h, t)))
    return cycles


@settings(max_examples=80, deadline=None)
@given(
    construction=st.sampled_from(["johns", "ishikawa"]),
    genus=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pushed_crossings_equal_class_pairing_on_random_tree_cycles(
    built, construction, genus, seed
):
    # The certificate pairs the word cycles by the corner rule alone; this
    # checks that rule against the basis Gram matrix on edge-simple cycles
    # that share bands, from a spanning tree unrelated to the basis.
    fiber = built(construction, genus).fiber
    rng = random.Random(seed)
    cycles = random_tree_cycles(fiber, rng)
    x = rng.choice(cycles)
    sharing = [c for c in cycles if c is not x and edge_set(c) & edge_set(x)]
    y = rng.choice(sharing or cycles)
    pushed = pairing_matrix(fiber, [x, y])[0][1]
    assert pushed == algebraic_intersection(
        fiber, curve_class(fiber, x), curve_class(fiber, y)
    )


def test_crossings_that_cancel_leave_no_pairing_entry(built):
    """An edge-simple walk on the johns g = 1 page that crosses itself in a
    vertex disk (ROADMAP item 21) meets a copy of itself with signs that sum
    to 0; like every 0, that pairing has no entry."""
    page = built("johns", 1).fiber
    tokens = ["a1e2", "-b3e0", "-a0e2", "-a0e1", "-b1e1", "-b1e0", "-a0e0", "-a0e3", "-b3e1", "a1e3", "a1e0", "a1e1"]
    walk = tuple((t.lstrip("-"), -1 if t.startswith("-") else 1) for t in tokens)
    curves = [CurveOnSurface(page, "w", walk).require_edge_simple(), CurveOnSurface(page, "copy", walk)]
    assert pairings(page, curves) == [{}, {}]


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_word_pairing_equals_class_pairing(built, relabelled, construction):
    for genus in range(9):
        fib = built(construction, genus)
        for f in (fib, relabelled(fib, genus)):
            classes = [curve_class(f.fiber, c) for c in f.word]
            assert pairing_matrix(f.fiber, f.word) == [
                [algebraic_intersection(f.fiber, x, y) for y in classes] for x in classes
            ]


def reference_pairing(surface, curves):
    """Oracle for ``homology.pairing_matrix``: the corner rule with the
    marked points of each vertex disk of the normalized presentation keyed
    by (half-edge, point), where "R" lies just before the attachment, "S"
    is the attachment and "L" lies just after it, at 3k, 3k + 1 and 3k + 2
    for rotation position k.  Every pass of each curve is held against
    every pass of each other curve; p's chord runs from S to S and q's,
    pushed off, from L to R."""
    norm = surface.normalized()
    slots = {}
    for rot in norm.rotation.values():
        for k, h in enumerate(rot):
            slots[(h, "R")], slots[(h, "S")], slots[(h, "L")] = 3 * k, 3 * k + 1, 3 * k + 2

    def chords(curve):
        """(vertex, arriving half-edge, departing half-edge) per pass."""
        walk = curve.walk
        return [(step_head(surface, step), step_head_half(step), step_tail_half(nxt))
                for step, nxt in zip(walk, walk[1:] + walk[:1])]

    m = [[0] * len(curves) for _ in curves]
    for i, x in enumerate(curves):
        for j, y in enumerate(curves):
            if i == j:
                continue
            for v, x_in, x_out in chords(x):
                for w, y_in, y_out in chords(y):
                    if v != w:
                        continue
                    n = 3 * len(norm.rotation[v])
                    start = slots[(x_in, "S")]
                    r_out = (slots[(x_out, "S")] - start) % n
                    r_qin = (slots[(y_in, "L")] - start) % n
                    r_qout = (slots[(y_out, "R")] - start) % n
                    if 0 < r_qin < r_out < r_qout:
                        m[i][j] += 1
                    elif 0 < r_qout < r_out < r_qin:
                        m[i][j] -= 1
    return m


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_word_pairing_equals_the_named_point_reference(built, relabelled, mirrored, construction):
    for genus in range(9):
        fib = built(construction, genus)
        for f in (fib, relabelled(fib, genus), mirrored(fib)):
            assert pairing_matrix(f.fiber, f.word) == reference_pairing(f.fiber, f.word)


def test_corner_sign_lookup_is_the_chord_geometry():
    """Every key of the sign tables at degrees 1..6, both passes at every
    arrival and departure position: the looked-up sign is the crossing of
    the two chords drawn on the circle, and a second lookup gives it too."""
    for n in range(1, 7):
        signs = _CornerSigns(n)
        for pa, pd, qa, qd in itertools.product(range(n), repeat=4):
            key = (pa * n + pd) * n * n + qa * n + qd
            assert signs[key] == chord_crossing(n, True, pa, pd, qa, qd) == signs[key]
        assert len(signs) == n ** 4


def test_a_vertex_of_degree_200_pairs_in_little_memory():
    """A bouquet of 100 loops is one vertex of degree 200 at which every two
    loops interleave.  Pairing two of them evaluates two pairs of passes, so
    the sign table holds two signs, not one per position quadruple."""
    loops = [f"l{i:03d}" for i in range(100)]
    g = RibbonGraph(("v",), loops, {"v": tuple([(e, 0) for e in loops] + [(e, 1) for e in loops])})
    a, b = (CurveOnSurface(g, e, ((e, 1),)) for e in loops[:2])
    g.normalized()
    tracemalloc.start()
    try:
        matrix = pairing_matrix(g, [a, b])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix in ([[0, 1], [-1, 0]], [[0, -1], [1, 0]])
    assert peak < 16_000


@given(ribbon_graphs())
def test_the_dart_spanning_tree_is_the_lexicographic_one(g):
    """The workspace's tree, basis and basis index, taken from the graph's
    ``spanning_forest`` on vertex numbers, are those of the scan over
    vertex names."""
    if not g.is_orientable():
        return
    ws = Workspace(g)
    tree, basis, index = lexicographic_tree(g)
    assert (ws.tree, ws.basis, ws.index) == (tree, basis, index)
    assert ws._basis_index == [index.get(e, -1) for e in g.edges]


def test_open_book_rejects_a_pairing_that_is_not_antisymmetric(built, monkeypatch):
    """Sign tables by which every two passes at a vertex cross positively,
    both ways round: the first pair of cycles that meet is named."""
    fib = built("johns", 1)
    for rot in fib.fiber.normalized().rotation.values():
        monkeypatch.setitem(_CORNER_SIGNS, len(rot), collections.defaultdict(lambda: 1))
    with pytest.raises(SurfaceError, match=r"antisymmetry: <'a0', 'b0'> = 1 but <'b0', 'a0'> = 1"):
        open_book_h1(fib.fiber, fib.word)


# -- Dehn twists ------------------------------------------------------------------


def test_twist_formula_on_punctured_torus(punctured_torus):
    a_curve = loop(punctured_torus, "a")
    a = curve_class(punctured_torus, a_curve)
    b = curve_class(punctured_torus, loop(punctured_torus, "b"))
    image = dehn_twist_on_class(punctured_torus, a_curve, b)
    assert image == b + scaled(a, algebraic_intersection(punctured_torus, b, a))
    assert dehn_twist_on_class(punctured_torus, a_curve, a) == a


def test_twist_on_path_agrees_with_class_action(punctured_torus):
    a_curve = loop(punctured_torus, "a")
    b_curve = loop(punctured_torus, "b")
    twisted = dehn_twist_on_path(punctured_torus, a_curve, b_curve)
    want = dehn_twist_on_class(
        punctured_torus, a_curve, curve_class(punctured_torus, b_curve)
    )
    assert curve_class(punctured_torus, twisted) == want


def test_twist_rejects_shared_edge_traversal(punctured_torus):
    a_curve = loop(punctured_torus, "a")
    path = CurveOnSurface(punctured_torus, "w", (("a", 1), ("b", 1)))
    with pytest.raises(TransversalityError):
        dehn_twist_on_path(punctured_torus, a_curve, path)


def test_twist_preserves_pairing_on_genus_two(genus_two):
    curves = {e: loop(genus_two, e) for e in "abcd"}
    classes = {e: curve_class(genus_two, c) for e, c in curves.items()}
    for t in "abcd":
        for x in "abcd":
            for y in "abcd":
                tx = dehn_twist_on_class(genus_two, curves[t], classes[x])
                ty = dehn_twist_on_class(genus_two, curves[t], classes[y])
                assert algebraic_intersection(genus_two, tx, ty) == algebraic_intersection(
                    genus_two, classes[x], classes[y]
                )


def test_twist_fixes_null_homologous_walk_class(punctured_torus):
    comm = CurveOnSurface(
        punctured_torus, "comm", (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    )
    cls = curve_class(punctured_torus, comm)
    assert is_zero(cls)
    for e in ("a", "b"):
        assert is_zero(dehn_twist_on_class(punctured_torus, loop(punctured_torus, e), cls))
