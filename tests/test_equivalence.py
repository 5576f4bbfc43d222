"""Reduced-presentation comparison and the isomorphism search."""

import itertools
import random

import pytest
from hypothesis import assume, given, strategies as st

from lf_forge import equivalence, homology
from lf_forge.builders import (
    LefschetzFibration,
    closing_smoothing,
    ishikawa_fibration,
    johns_fibration,
    johns_pattern,
    realize_plumbing,
    word_families,
)
from lf_forge.certify import fibration_certificate
from lf_forge.curves import CurveOnSurface
from lf_forge.equivalence import (
    FibrationIso,
    _maps,
    _match_families,
    _propagate,
    _Reduction,
    _rotation_index,
    _search,
    _triple_product,
    find_isomorphism,
    isomorphism_certificate,
    reduced_word,
)
from lf_forge.homology import (
    HomologyClass,
    class_from_steps,
    homology_basis,
    pairing_matrix,
    workspace,
)
from lf_forge.ribbon import NonOrientableError, RibbonGraph, SurfaceError

import oracles
from oracles import dehn_twist_on_class, mapped_surgery_commutes
from test_ribbon import loose_ribbon_graphs, reduction, ribbon_graphs


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def half_image(edge_map, h):
    e, i = h
    new, sign = edge_map[e]
    return (new, i if sign == 1 else 1 - i)


def cyclic_shifts(seq):
    return [seq[i:] + seq[:i] for i in range(len(seq))]


# -- the reduction: smoothing read off the oriented fiber's darts ---------------------


def loop_chain_fiber():
    """Vertex v with a loop chain v, m1, m2, v (edges e0, e1, e2) and a
    loop e3."""
    return RibbonGraph(
        ("m1", "m2", "v"),
        ("e0", "e1", "e2", "e3"),
        {
            "v": (("e0", 0), ("e2", 1), ("e3", 0), ("e3", 1)),
            "m1": (("e0", 1), ("e1", 0)),
            "m2": (("e1", 1), ("e2", 0)),
        },
    )


def one_cycle_word(fiber, walk, name="w"):
    return LefschetzFibration("walk", 0, fiber, (CurveOnSurface(fiber, name, walk),))


def test_reduced_word_collapses_merged_runs():
    g = loop_chain_fiber()
    reduced, curves = reduced_word(one_cycle_word(g, (("e0", 1), ("e1", 1), ("e2", 1), ("e3", 1))))
    assert reduced.rotation == {"v": (("e0", 0), ("e0", 1), ("e3", 0), ("e3", 1))}
    assert curves["w"].walk == (("e0", 1), ("e3", 1))
    assert curves["w"].name == "w"


def test_reduced_word_keeps_each_pass_and_each_turn_back():
    """A walk twice around the loop chain passes the kept vertex v twice,
    so it reduces to two steps, not one.  A walk that turns back at m2 runs
    on to v and comes back; its class is the loop e3's, as before."""
    g = loop_chain_fiber()
    chain = (("e0", 1), ("e1", 1), ("e2", 1))
    reduced, curves = reduced_word(one_cycle_word(g, chain * 2))
    assert curves["w"].walk == (("e0", 1), ("e0", 1))
    back = (("e0", 1), ("e1", 1), ("e1", -1), ("e0", -1), ("e3", 1))
    reduced, curves = reduced_word(one_cycle_word(g, back))
    assert curves["w"].walk == (("e0", 1), ("e0", -1), ("e3", 1))
    assert class_from_steps(reduced, curves["w"].walk) == class_from_steps(reduced, [("e3", 1)])


def test_a_word_twice_around_a_loop_chain_is_not_the_word_once_around():
    """One cycle once around the loop chain against the same cycle twice
    around: no isomorphism, in either order."""
    once = one_cycle_word(loop_chain_fiber(), (("e0", 1), ("e1", 1), ("e2", 1)), "a0")
    twice = one_cycle_word(loop_chain_fiber(), (("e0", 1), ("e1", 1), ("e2", 1)) * 2, "a0")
    for pair in ((once, twice), (twice, once)):
        assert isomorphism_certificate(*pair)["found"] is False
        assert find_isomorphism(*pair) is None


@given(loose_ribbon_graphs())
def test_reduction_labels_are_the_smoothed_rotations(g):
    """Where ``normalized().smoothed()`` succeeds, the labels of the darts
    at each kept vertex, in the oriented rotation, are that vertex's
    rotation on the smoothed graph, and ``far`` is the partner there.  Both
    raise SurfaceError with the same message on the same graphs,
    NonOrientableError on the non-orientable ones."""
    if not g.is_orientable():
        for reduce in (reduction, _Reduction):
            with pytest.raises(NonOrientableError):
                reduce(g)
        return
    try:
        smooth, _ = reduction(g)
    except SurfaceError as exc:
        with pytest.raises(SurfaceError) as caught:
            _Reduction(g)
        assert str(caught.value) == str(exc)
        return
    red = _Reduction(g)
    norm, label = red.norm, red.label
    assert red.kept == list(smooth.vertices)
    assert sorted(label[d] for d in red.anchors) == sorted((e, end) for e in smooth.edges for end in (0, 1))
    for v in smooth.vertices:
        assert tuple(label[norm._dart(h)] for h in norm.rotation[v]) == smooth.rotation[v]
    for d in red.anchors:
        assert label[red.far[d]] == oracles.partner(label[d])


def test_a_pure_degree_two_cycle_beside_a_kept_vertex_cannot_be_smoothed():
    """One component keeps a vertex, with a loop; the other is a cycle of
    two degree-2 vertices.  Smoothing and the reduction name the cycle."""
    g = RibbonGraph(("a", "p", "q"), ("l", "c", "t"),
                    {"a": (("l", 0), ("l", 1)), "p": (("c", 0), ("t", 0)), "q": (("t", 1), ("c", 1))})
    for reduce in (RibbonGraph.smoothed, reduction, _Reduction):
        with pytest.raises(SurfaceError, match="^cannot smooth a pure cycle of degree-2 vertices$"):
            reduce(g)


def random_closed_walk(g, rng):
    """A random walk of up to a dozen steps from a random vertex, turn-backs
    included, closed by a shortest path back to its start."""
    start = rng.choice([v for v in g.vertices if g.rotation[v]])
    walk, v = [], start
    for _ in range(rng.randrange(1, 13)):
        e, end = rng.choice(g.rotation[v])
        walk.append((e, 1 if end == 0 else -1))
        v = g.vertex_of((e, 1 - end))
    came_by = {v: None}
    queue = [v]
    while start not in came_by:
        u = queue.pop(0)
        for e, end in g.rotation[u]:
            w = g.vertex_of((e, 1 - end))
            if w not in came_by:
                came_by[w] = (u, (e, 1 if end == 0 else -1))
                queue.append(w)
    back, w = [], start
    while came_by[w] is not None:
        w, step = came_by[w]
        back.append(step)
    return tuple(walk + back[::-1])


@given(ribbon_graphs(max_vertices=6, max_edges=8), st.randoms(use_true_random=False))
def test_a_reduced_walk_keeps_the_class_of_the_walk(g, rng):
    """A random closed walk, turn-backs included, reduces to a walk whose
    class is the original walk's read through the smoothing's edge map,
    counting only the steps on the edge that names each chain.  A
    non-orientable graph loses its twists."""
    if not g.is_orientable():
        g = RibbonGraph(g.vertices, g.edges, g.rotation)
    try:
        _, edge_map = reduction(g)
    except SurfaceError:
        assume(False)
    walk = random_closed_walk(g, rng)
    reduced, curves = reduced_word(one_cycle_word(g, walk))
    naming = [(new, s * sign) for e, s in walk for new, sign in [edge_map[e]] if new == e]
    assert class_from_steps(reduced, curves["w"].walk) == class_from_steps(reduced, naming)


def test_reduced_word_keeps_families_and_type(built):
    for construction in ("johns", "ishikawa"):
        fib = built(construction, 1)
        reduced, curves = reduced_word(fib)
        assert reduced.invariants() == fib.fiber.invariants()
        assert list(curves) == list(fib.names())
        for c in curves.values():
            assert c.is_edge_simple()
        # no suppressible vertices remain
        for v in reduced.vertices:
            assert len(reduced.rotation[v]) != 2


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_reduced_word_builds_at_most_one_ribbon_graph(built, relabelled, mirrored, constructions,
                                                      monkeypatch, construction):
    for genus in range(4):
        fib = built(construction, genus)
        for lf in (fib, relabelled(fib, genus), mirrored(fib)):
            made = constructions(RibbonGraph)
            reduced_word(lf)
            monkeypatch.undo()
            assert len(made) <= 1


def test_comparing_fresh_builds_makes_no_graph_and_no_curve(built, relabelled, mirrored, constructions,
                                                          monkeypatch):
    """Once both sides exist, comparing them builds no ribbon graph and no
    curve: johns and ishikawa both ways, a relabelled ishikawa document
    against johns and a mirrored johns document against ishikawa, at
    g = 0..8.  The mirrored pairs make the search compute the triple
    product, and the fresh ishikawa builds replay their closing smoothing."""
    for genus in range(9):
        johns, ishikawa = johns_fibration(genus), ishikawa_fibration(genus)
        pairs = ((johns, ishikawa), (ishikawa, johns), (relabelled(ishikawa, genus), johns),
                 (mirrored(johns), ishikawa))
        graphs, curves = constructions(RibbonGraph), constructions(CurveOnSurface)
        found = [isomorphism_certificate(*pair)["found"] for pair in pairs]
        monkeypatch.undo()
        assert found == [True] * 4
        assert graphs == [] and curves == []


# -- isomorphism search ---------------------------------------------------------------


def test_self_isomorphism_is_identity(built):
    fib = built("johns", 1)
    iso = find_isomorphism(fib, fib)
    assert iso is not None
    assert iso.orientation_preserving
    assert iso.cycle_map == {n: n for n in fib.names()}


@pytest.mark.parametrize("genus", range(3))
def test_constructions_are_isomorphic(built, genus):
    """The reduced Johns fiber is the realized Johns pattern, and the map
    carries family a onto a and b onto b, so Ishikawa's a/b cores realize
    that pattern too."""
    johns = built("johns", genus)
    assert reduced_word(johns)[0].rotation == realize_plumbing(johns_pattern(genus))[0].rotation
    iso = find_isomorphism(johns, built("ishikawa", genus))
    assert iso is not None
    assert iso.orientation_preserving
    for name, image in iso.cycle_map.items():
        assert name.rstrip("0123456789") == image.rstrip("0123456789")


def pairwise_match(curves1, curves2, backs2, fams1, fams2, g2, edge_map):
    """Oracle for _match_families: every mapped source cycle against every
    target cycle of its family and that cycle's reversal (``backs2``), then
    the first injective choice with options taken in word order."""
    cycle_map = {}
    for fam, sources in fams1.items():
        options = []
        for c in sources:
            image = CurveOnSurface(g2, c.name, tuple(
                (edge_map[e][0], s * edge_map[e][1]) for e, s in curves1[c.name].walk))
            opts = [t.name for t in fams2[fam]
                    if image.cyclically_equal(curves2[t.name]) or image.cyclically_equal(backs2[t.name])]
            if not opts:
                return None
            options.append(opts)
        choice = next((names for names in itertools.product(*options)
                       if len(set(names)) == len(names)), None)
        if choice is None:
            return None
        cycle_map.update(zip((c.name for c in sources), choice))
    return cycle_map


def first_seed(r1, lf1):
    """The dart the search seeds from: where the first step of the first
    cycle of the first family departs."""
    return r1.far[r1.walk(next(iter(word_families(lf1).values()))[0])[0]]


def grown_maps(r1, r2, seed1):
    """(preserve, phi) for every anchor dart of ``r2``, in label order, and
    both orientations, whose propagation from ``seed1`` grows a map."""
    for preserve in (True, False):
        for seed2 in sorted(r2.anchors, key=r2.label.__getitem__):
            phi = _propagate(r1, r2, seed1, seed2, preserve)
            if phi is not None:
                yield preserve, phi


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_rotation_index_matches_pairwise_oracle(built, relabelled, mirrored, construction):
    """Every seed of every preference that propagates to a full map gets
    the oracle's verdict on the reduced word, not only the first that
    succeeds."""
    other = "ishikawa" if construction == "johns" else "johns"
    verdicts = {True: 0, False: 0}
    for genus in range(6):
        fib = built(construction, genus)
        lf2 = built(other, genus)
        r2 = _Reduction(lf2.fiber)
        g2, curves2 = reduced_word(lf2)
        fams2 = word_families(lf2)
        index = _rotation_index({c.name: r2.walk(c) for c in lf2.word}, r2.far, fams2)
        backs2 = {n: CurveOnSurface(g2, n, tuple((e, -s) for e, s in reversed(c.walk)))
                  for n, c in curves2.items()}
        mirror = mirrored(fib)
        for lf1 in (fib, relabelled(fib, genus), mirror):
            r1 = _Reduction(lf1.fiber)
            _, curves1 = reduced_word(lf1)
            fams1 = word_families(lf1)
            walks1 = {c.name: r1.walk(c) for c in lf1.word}
            for _, phi in grown_maps(r1, r2, first_seed(r1, lf1)):
                edge_map = _maps(r1, r2, phi)[1]
                expected = pairwise_match(curves1, curves2, backs2, fams1, fams2, g2, edge_map)
                assert _match_families(walks1, index, fams1, phi) == expected
                verdicts[expected is not None] += 1
            iso = find_isomorphism(lf1, lf2)
            assert iso is not None
            if lf1 is mirror:
                assert iso.orientation_preserving is False
    assert verdicts[True] and verdicts[False]


def with_walk(fib, name, walk):
    """``fib`` with the cycle called ``name`` running along ``walk``."""
    word = tuple(CurveOnSurface(fib.fiber, c.name, walk) if c.name == name else c for c in fib.word)
    return LefschetzFibration(fib.construction, fib.genus, fib.fiber, word)


def reversed_walk(walk):
    return tuple((e, -s) for e, s in reversed(walk))


def corrupted(fib, corruption):
    """``fib`` with c0 run the other way, or with b0's walk in c0's place."""
    fams = word_families(fib)
    walk = reversed_walk(fams["c"][0].walk) if corruption == "reversed" else fams["b"][0].walk
    return with_walk(fib, "c0", walk)


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
@pytest.mark.parametrize("genus", range(9))
def test_a_reversed_closing_cycle_is_rejected_by_the_surgery_check(built, monkeypatch, construction, genus):
    """A build with c0 reversed against the other, sound build, in both
    orders; or both sides with b0's walk in c0's place, so that the
    families match at all.  The rotation index holds reversals, so the
    cycles still match; only each word's own closing smoothing sees the
    wrong closing family.  A search replays each word at most once, and
    stops at the first word that fails."""
    other = "ishikawa" if construction == "johns" else "johns"
    calls = []

    def smoothing_spy(lf):
        replay = closing_smoothing(lf)
        calls.append((lf, replay[0]))
        return replay

    monkeypatch.setattr(equivalence, "closing_smoothing", smoothing_spy)
    sound = built(other, genus)
    for corruption in ("reversed", "b_cycle"):
        bad = corrupted(built(construction, genus), corruption)
        lf2 = sound if corruption == "reversed" else corrupted(sound, corruption)
        for pair in ((bad, lf2), (lf2, bad)):
            calls.clear()
            assert find_isomorphism(*pair) is None
            assert [lf for lf, _ in calls] == list(pair[:len(calls)])
            assert [ok for _, ok in calls] == [True] * (len(calls) - 1) + [False]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 20: a reversed vanishing cycle fails closing_smoothing and compares found: false")
def test_reversing_one_cycle_changes_no_check_and_no_verdict(built):
    """A Dehn twist does not depend on the direction of its curve: with any
    one cycle of either build at g = 1..3 run the other way (60 words), the
    fibration still certifies and still compares with the johns build."""
    wrong = []
    for construction in ("johns", "ishikawa"):
        for genus in range(1, 4):
            fib = built(construction, genus)
            for c in fib.word:
                lf = with_walk(fib, c.name, reversed_walk(c.walk))
                if not fibration_certificate(lf)["passed"]:
                    wrong.append((construction, genus, c.name, "certificate"))
                if not isomorphism_certificate(lf, built("johns", genus))["found"]:
                    wrong.append((construction, genus, c.name, "compare"))
    assert wrong == []


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_a_failed_search_names_the_check_that_failed(built, construction):
    """Against the other, sound build, in both orders, a word with c0
    reversed has a bijection whose cycle images match, and only its own
    closing smoothing fails; a word with b0's walk in c0's place has a
    bijection whose cycle images do not match.  The certificate names that
    check rather than denying the bijection."""
    other = "ishikawa" if construction == "johns" else "johns"
    for genus in range(9):
        for corruption, searched in (
            ("reversed", [("ribbon_graph_bijection", True), ("cycle_images_match", True), ("surgery_commutes", False)]),
            ("b_cycle", [("ribbon_graph_bijection", True), ("cycle_images_match", False)]),
        ):
            bad, sound = corrupted(built(construction, genus), corruption), built(other, genus)
            for pair in ((bad, sound), (sound, bad)):
                assert find_isomorphism(*pair) is None
                cert = isomorphism_certificate(*pair)
                assert cert["found"] is False
                assert [(c["name"], c["passed"]) for c in cert["checks"]] == [
                    ("fiber_invariants", True),
                    ("word_families", True),
                    *searched,
                ]


def test_one_replay_decides_every_seed(built, relabelled, mirrored, flipped):
    """On every map that propagates, in both orientations, replaying the
    smoothing on the mapped reduced word agrees with the word's own replay
    on its own fiber (``closing_smoothing``), for sound and corrupted words
    alike."""
    verdicts = {True: 0, False: 0}
    for genus in range(4):
        targets = [(_Reduction(lf.fiber), reduced_word(lf)[0])
                   for lf in (built(c, genus) for c in ("johns", "ishikawa"))]
        for construction in ("johns", "ishikawa"):
            fib = built(construction, genus)
            fams = word_families(fib)
            inputs = (fib, LefschetzFibration.from_json_dict(fib.to_json_dict()), relabelled(fib, genus),
                      mirrored(fib), flipped(fib, genus), corrupted(fib, "reversed"), corrupted(fib, "b_cycle"),
                      with_walk(fib, "a0", reversed_walk(fams["a"][0].walk)))
            for lf1 in inputs:
                r1 = _Reduction(lf1.fiber)
                _, curves1 = reduced_word(lf1)
                fams1 = word_families(lf1)
                expected = closing_smoothing(lf1)[0]
                for r2, g2 in targets:
                    for _, phi in grown_maps(r1, r2, first_seed(r1, lf1)):
                        edge_map = _maps(r1, r2, phi)[1]
                        assert mapped_surgery_commutes(fams1, curves1, edge_map, g2) == expected
                        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


# -- the triple-product invariant and the seeds it skips ------------------------------


def triple_product(lf):
    return _triple_product(lf.fiber, word_families(lf))


def reduced_triple_product(lf):
    """Oracle for ``_triple_product``: T of the word carried onto the
    reduced fiber, paired there."""
    g, curves = reduced_word(lf)
    fams = word_families(lf)
    a, b, c = ([curves[x.name] for x in fams[f]] for f in ("a", "b", "c"))
    p = pairing_matrix(g, a + b + c)
    ai, bi = range(len(a)), range(len(a), len(a) + len(b))
    return sum(p[i][j] * p[j][k] * p[k][i] for i in ai for j in bi for k in range(len(a) + len(b), len(p)))


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_triple_product_closed_form(built, relabelled, mirrored, construction):
    """T = 8(g+1)^2 for every build, negated by mirroring.  A relabelled
    twisted fiber can come back mirrored (see the fixture); its T carries
    the orientation that the scan without T finds."""
    for genus in range(9):
        fib = built(construction, genus)
        expected = 8 * (genus + 1) ** 2
        assert triple_product(fib) == expected
        assert triple_product(mirrored(fib)) == -expected
        renamed = relabelled(fib, genus)
        sign = 1 if exhaustive_search(renamed, fib).orientation_preserving else -1
        assert triple_product(renamed) == sign * expected


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_triple_product_on_the_fiber_is_the_reduced_pairing(built, relabelled, mirrored, flipped, construction):
    """T paired on each word's own fiber, degree-2 vertices and twisted
    bands included, equals T of the word carried onto the reduced fiber."""
    for genus in range(9):
        fib = built(construction, genus)
        for lf in (fib, relabelled(fib, genus), mirrored(fib), flipped(fib, genus)):
            assert triple_product(lf) == reduced_triple_product(lf)


def test_triple_product_is_unknown_without_three_families_or_a_pairing(built, monkeypatch):
    fib = built("johns", 2)
    fams = word_families(fib)
    assert _triple_product(fib.fiber, {f: fams[f] for f in ("a", "b")}) is None

    def unpairable(surface, curves):
        raise SurfaceError("intersection pairing failed antisymmetry")

    monkeypatch.setattr(homology, "pairing_matrix", unpairable)
    assert _triple_product(fib.fiber, fams) is None


def test_triple_product_is_unknown_when_a_cycle_repeats_an_edge(built):
    """A cycle of the three families that runs an edge twice has no
    pushed-off pairing to trust: T decides nothing."""
    fib = built("johns", 2)
    walk = word_families(fib)["c"][0].walk
    assert triple_product(fib) is not None
    assert triple_product(with_walk(fib, "c0", walk + walk)) is None


def exhaustive_search(lf1, lf2):
    """Oracle for _search: the same seeds in the same order, none skipped,
    taken from the edges of the reduced first-family targets."""
    r1, r2 = _Reduction(lf1.fiber), _Reduction(lf2.fiber)
    _, curves1 = reduced_word(lf1)
    g2, curves2 = reduced_word(lf2)
    fams1, fams2 = word_families(lf1), word_families(lf2)
    walks1 = {c.name: r1.walk(c) for c in lf1.word}
    index = _rotation_index({c.name: r2.walk(c) for c in lf2.word}, r2.far, fams2)
    dart_of = {r2.label[d]: d for d in r2.anchors}
    candidates = sorted({(e, end) for c in fams2["a"]
                         for e in oracles.edge_set(curves2[c.name]) for end in (0, 1)})
    seed1 = first_seed(r1, lf1)
    for preserve in (True, False):
        for seed2 in candidates:
            phi = _propagate(r1, r2, seed1, dart_of[seed2], preserve)
            if phi is None:
                continue
            vertex_map, edge_map = _maps(r1, r2, phi)
            cycle_map = _match_families(walks1, index, fams1, phi)
            if cycle_map is not None and mapped_surgery_commutes(fams1, curves1, edge_map, g2):
                return FibrationIso(lf1, lf2, vertex_map, edge_map, preserve, cycle_map)
    return None


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_skipping_seeds_keeps_the_full_scan_result(built, relabelled, mirrored,
                                                   monkeypatch, construction):
    """_search returns the map of a scan that skips nothing, and a pair
    related by orientation reversal makes exactly one orientation-preserving
    propagation."""
    preserving = []

    def counted(r1, r2, d1, d2, preserve):
        preserving.append(preserve)
        return _propagate(r1, r2, d1, d2, preserve)

    other = "ishikawa" if construction == "johns" else "johns"
    for genus in range(6):
        fib, lf2 = built(construction, genus), built(other, genus)
        mirror = mirrored(fib)
        for lf1 in (fib, relabelled(fib, genus), mirror):
            expected = exhaustive_search(lf1, lf2)
            assert expected is not None
            preserving.clear()
            monkeypatch.setattr(equivalence, "_propagate", counted)
            found, failed = _search(lf1, lf2)
            monkeypatch.undo()
            assert failed is None
            preserve, cycle_map, r1, r2, phi = found
            assert preserve == expected.orientation_preserving
            assert _maps(r1, r2, phi) == (expected.vertex_map, expected.edge_map)
            assert cycle_map == expected.cycle_map
            if lf1 is mirror:
                assert not expected.orientation_preserving
            if not expected.orientation_preserving:
                assert preserving.count(True) == 1


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_reversing_edge_directions_changes_no_certificate(built, flipped, construction):
    """An edge's direction is a naming convention: reversing a random half
    of the edges leaves the fibration certificate and the isomorphism
    certificate against the other build as they are."""
    other = "ishikawa" if construction == "johns" else "johns"
    for genus in range(9):
        fib, lf2 = built(construction, genus), built(other, genus)
        cert = fibration_certificate(fib)
        iso = isomorphism_certificate(fib, lf2)
        for seed in range(3):
            lf1 = flipped(fib, seed)
            assert lf1.fiber.rotation != fib.fiber.rotation
            assert fibration_certificate(lf1) == cert
            assert isomorphism_certificate(lf1, lf2) == iso


def _with_reversed_cycles(fib, seed):
    """``fib`` rebuilt from its document with a seeded half of its vanishing
    cycles run the other way."""
    doc = fib.to_json_dict()
    cycles = doc["vanishing_cycles"]
    for rec in random.Random(seed).sample(cycles, len(cycles) // 2):
        rec["walk"] = [t[1:] if t.startswith("-") else f"-{t}" for t in reversed(rec["walk"])]
    return LefschetzFibration.from_json_dict(doc)


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_reversing_vanishing_cycles_changes_no_invariant(built, flipped, construction):
    """A Dehn twist does not depend on the direction of its curve, so
    reversing cycles changes no check of the certificate but the closing
    smoothing, which follows the orientations by design.  The builds run
    every edge of their cycles one way; reversed cycles, on plain and on
    flipped documents, run edges against their direction."""
    for genus in range(9):
        fib = built(construction, genus)
        want = [c for c in fibration_certificate(fib)["checks"] if c["name"] != "closing_smoothing"]
        for seed in range(3):
            for plain in (fib, flipped(fib, seed)):
                lf = _with_reversed_cycles(plain, seed)
                checks = fibration_certificate(lf)["checks"]
                assert [c for c in checks if c["name"] != "closing_smoothing"] == want


def test_unreducible_fiber_raises_instead_of_no_isomorphism(built):
    sphere = built("sphere", 0)
    with pytest.raises(SurfaceError, match="cannot smooth a pure cycle of degree-2 vertices"):
        isomorphism_certificate(sphere, sphere)
    with pytest.raises(SurfaceError, match="cannot smooth a pure cycle of degree-2 vertices"):
        find_isomorphism(sphere, sphere)


def test_non_orientable_input_raises_instead_of_no_isomorphism():
    """A twisted band on one edge of a plumbing fiber leaves a surface with
    no orientation: it has no invariants, so certifying it and comparing it
    with a sound build, in either order, raise NonOrientableError."""
    good = johns_fibration(1)
    doc = good.to_json_dict()
    doc["fiber"]["edges"][0]["twist"] = True
    bad = LefschetzFibration.from_json_dict(doc)
    assert not bad.fiber.is_orientable()
    for call in (bad.fiber.invariants, bad.fiber.faces, lambda: fibration_certificate(bad),
                 lambda: isomorphism_certificate(bad, good), lambda: isomorphism_certificate(good, bad),
                 lambda: find_isomorphism(bad, good), lambda: find_isomorphism(good, bad)):
        with pytest.raises(NonOrientableError):
            call()


def test_an_argument_that_is_not_a_fibration_raises_instead_of_no_isomorphism(built):
    fib = built("johns", 1)
    for compare in (find_isomorphism, isomorphism_certificate):
        for pair, got in (((fib, None), "NoneType"), (("x", fib), "str")):
            with pytest.raises(SurfaceError) as err:
                compare(*pair)
            assert str(err.value) == f"can compare only fibrations, got {got}"


def test_empty_words_raise_instead_of_no_isomorphism():
    empty = LefschetzFibration("johns", 1, johns_fibration(1).fiber, ())
    with pytest.raises(SurfaceError, match="cannot compare fibrations with an empty word"):
        isomorphism_certificate(empty, empty)
    with pytest.raises(SurfaceError, match="cannot compare fibrations with an empty word"):
        find_isomorphism(empty, empty)


def test_family_matching_needs_no_recursion_at_large_genus():
    # Family b has 2g + 2 cycles; one nested call per cycle would exceed
    # the interpreter's recursion limit from g = 495.
    iso = find_isomorphism(johns_fibration(500), ishikawa_fibration(500))
    assert iso is not None
    assert iso.orientation_preserving


def test_isomorphism_is_symmetric(built, relabelled, mirrored, flipped):
    """For every ordered pair of sixteen variants per genus (both builds,
    each plain, relabelled, mirrored, edge-flipped, with c0 reversed, with
    a0 reversed, with b0's walk in c0's place and with half its cycles
    reversed), an isomorphism exists one way exactly when it exists the
    other way, with the same orientation."""
    found = 0
    for genus in range(5):
        variants = []
        for fib in (built("johns", genus), built("ishikawa", genus)):
            a0_reversed = with_walk(fib, "a0", reversed_walk(word_families(fib)["a"][0].walk))
            variants += [fib, relabelled(fib, genus), mirrored(fib), flipped(fib, genus),
                         corrupted(fib, "reversed"), a0_reversed, corrupted(fib, "b_cycle"),
                         _with_reversed_cycles(fib, genus)]
        isos = {(i, j): find_isomorphism(x, y)
                for (i, x), (j, y) in itertools.permutations(enumerate(variants), 2)}
        for (i, j), iso in isos.items():
            back = isos[j, i]
            assert (iso is None) == (back is None), (genus, i, j)
            if iso is not None:
                found += 1
                assert iso.orientation_preserving == back.orientation_preserving, (genus, i, j)
    assert found


def test_no_isomorphism_across_genus(built):
    assert find_isomorphism(built("johns", 1), built("johns", 2)) is None
    cert = isomorphism_certificate(built("johns", 1), built("johns", 2))
    assert cert["schema"] == "isomorphism/1"
    assert cert["found"] is False
    failed = {c["name"] for c in cert["checks"] if not c["passed"]}
    assert failed


def _contracted(doc, edge):
    """``doc`` with the fiber edge ``edge`` contracted: the rotation at its
    head, read cyclically from just after the head, takes the tail's place
    in the rotation at its tail; the head vertex, the edge record and every
    walk token of the edge are dropped."""
    fiber = doc["fiber"]
    rotation = fiber["rotation"]
    tail = next(v for v, halves in rotation.items() if f"{edge}.0" in halves)
    head = next(v for v, halves in rotation.items() if f"{edge}.1" in halves)
    around, at = rotation.pop(head), rotation[tail]
    i, j = around.index(f"{edge}.1"), at.index(f"{edge}.0")
    rotation[tail] = at[:j] + around[i + 1:] + around[:i] + at[j + 1:]
    fiber["vertices"].remove(head)
    fiber["edges"] = [rec for rec in fiber["edges"] if rec["id"] != edge]
    for rec in doc["vanishing_cycles"]:
        rec["walk"] = [t for t in rec["walk"] if t not in (edge, f"-{edge}")]
    return doc


def test_compare_rejects_pages_of_different_size():
    """Compare matches presentations: contracting edge b0e0 of the johns
    g = 1 page keeps the fiber invariants and family blocks, yet leaves
    fewer vertices to smooth, so the search stops at its size check, in
    either order, with ``ribbon_graph_bijection`` failed.  The contracted
    page's own certificate fails only ``closing_smoothing``, which is a
    presentation check too."""
    johns = johns_fibration(1)
    contracted = LefschetzFibration.from_json_dict(_contracted(johns.to_json_dict(), "b0e0"))
    failed = [c["name"] for c in fibration_certificate(contracted)["checks"] if not c["passed"]]
    assert failed == ["closing_smoothing"]
    assert contracted.fiber.invariants() == johns.fiber.invariants()
    assert equivalence._compare(contracted, johns)[0][:2] == [("fiber_invariants", True), ("word_families", True)]
    assert len(_Reduction(contracted.fiber).kept) != len(_Reduction(johns.fiber).kept)
    for lf1, lf2 in ((contracted, johns), (johns, contracted)):
        cert = isomorphism_certificate(lf1, lf2)
        assert cert["found"] is False
        assert [c["name"] for c in cert["checks"] if not c["passed"]] == ["ribbon_graph_bijection"]
        assert _search(lf1, lf2) == (None, "ribbon_graph_bijection")


def test_found_certificate_shape(built):
    cert = isomorphism_certificate(built("johns", 0), built("ishikawa", 0))
    assert cert["found"] is True
    assert cert["orientation_preserving"] is True
    assert set(cert["cycle_map"]) == set(built("johns", 0).names())
    assert all(c["passed"] for c in cert["checks"])


def test_word_families_group_by_name_prefix(built):
    fams = word_families(built("johns", 1))
    assert {k: len(v) for k, v in fams.items()} == {"a": 2, "b": 4, "c": 2}


def _swapped(fib, x, y):
    """``fib`` as a document with the cycles named x and y trading places in
    the word."""
    doc = fib.to_json_dict()
    cycles = doc["vanishing_cycles"]
    i, j = (next(k for k, c in enumerate(cycles) if c["name"] == n) for n in (x, y))
    cycles[i], cycles[j] = cycles[j], cycles[i]
    return LefschetzFibration.from_json_dict(doc)


def test_compare_matches_family_blocks_in_word_order(built):
    """With b1 and c1 trading places, the johns word at genus 1 keeps its
    family counts but not its family blocks (a, a, b, c, b, b, c, b); it
    fails its own certificate, and it compares with neither sound build,
    in either order, at ``word_families``.  Two cycles trading places
    inside one block leave the blocks, and the comparison, as they were."""
    swapped = _swapped(built("johns", 1), "b1", "c1")
    assert [c.name for c in swapped.word] == ["a0", "a1", "b0", "c1", "b2", "b3", "c0", "b1"]
    assert not fibration_certificate(swapped)["passed"]
    inside = _swapped(built("johns", 1), "b1", "b2")
    for construction in ("johns", "ishikawa"):
        sound = built(construction, 1)
        for pair in ((swapped, sound), (sound, swapped)):
            assert find_isomorphism(*pair) is None
            cert = isomorphism_certificate(*pair)
            assert cert["found"] is False
            assert [(c["name"], c["passed"]) for c in cert["checks"]] == [
                ("fiber_invariants", True),
                ("word_families", False),
            ]
        for pair in ((inside, sound), (sound, inside)):
            assert isomorphism_certificate(*pair)["found"] is True


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 24: compare matches the two words cycle for cycle, in order")
@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
@pytest.mark.parametrize("genus", range(4))
def test_a_rotated_word_compares_with_its_own_build(built, construction, genus):
    """Moving the first cycle to the end of the word is a sequence of
    Hurwitz moves followed by a conjugation by its twist: the same
    fibration, whose word passes its own certificate.  ``found: false``
    means only that no relabeling carries one word onto the other word for
    word, so today compare stops at ``word_families``."""
    fib = built(construction, genus)
    rotated = LefschetzFibration(fib.construction, fib.genus, fib.fiber, fib.word[1:] + fib.word[:1])
    assert fibration_certificate(rotated)["passed"]
    assert isomorphism_certificate(rotated, fib)["found"] is True


# -- the map really is a ribbon graph isomorphism ------------------------------------


def test_iso_maps_rotations_to_rotations(built):
    lf1, lf2 = built("johns", 1), built("ishikawa", 1)
    iso = find_isomorphism(lf1, lf2)
    r1, _ = reduced_word(lf1)
    r2, _ = reduced_word(lf2)
    assert set(iso.vertex_map) == set(r1.vertices)
    assert sorted(iso.vertex_map.values()) == sorted(r2.vertices)
    for v, w in iso.vertex_map.items():
        mapped = [half_image(iso.edge_map, h) for h in r1.rotation[v]]
        images = list(r2.rotation[w])
        if not iso.orientation_preserving:
            images = images[::-1]
        assert mapped in cyclic_shifts(images)


def renamed_graph(g, rng):
    """The same untwisted ribbon graph as ``g`` under fresh vertex and edge
    names, with some edges run the other way and every rotation started at
    a random slot."""
    vnames = dict(zip(g.vertices, rng.sample([f"w{i}" for i in range(len(g.vertices))], len(g.vertices))))
    enames = dict(zip(g.edges, rng.sample([f"f{j}" for j in range(len(g.edges))], len(g.edges))))
    flip = {e: rng.random() < 0.5 for e in g.edges}
    rotation = {}
    for v, rot in g.rotation.items():
        k = rng.randrange(len(rot))
        rotation[vnames[v]] = tuple((enames[e], 1 - end if flip[e] else end) for e, end in rot[k:] + rot[:k])
    return RibbonGraph(list(vnames.values()), list(enames.values()), rotation)


@given(loose_ribbon_graphs(), st.randoms(use_true_random=False))
def test_propagate_grows_only_ribbon_graph_isomorphisms(loose, rng):
    """From the least anchor dart to every anchor dart of a renamed copy
    and of a renamed mirror, both ways: every map grown, read off the
    labels (``_maps``), is a vertex bijection and an edge bijection of the
    smoothed graphs whose signs carry endpoints to endpoints, under which
    the rotations are all preserved or all reversed as asked.  The true
    isomorphism is found from some seed."""
    g1 = RibbonGraph(loose.vertices, loose.edges, loose.rotation)
    assume(g1.edges and g1.is_connected())
    try:
        s1, _ = g1.smoothed()
    except SurfaceError:  # a pure cycle of degree-2 vertices
        assume(False)
    r1 = _Reduction(g1)
    seed1 = min(r1.anchors, key=r1.label.__getitem__)
    for g2, wanted in ((renamed_graph(g1, rng), True), (renamed_graph(oracles.mirrored(g1), rng), False)):
        s2, _ = g2.smoothed()
        found = set()
        for preserve, phi in grown_maps(r1, _Reduction(g2), seed1):
            found.add(preserve)
            vertex_map, edge_map = _maps(r1, _Reduction(g2), phi)
            assert sorted(vertex_map) == sorted(s1.vertices)
            assert sorted(vertex_map.values()) == sorted(s2.vertices)
            assert sorted(edge_map) == sorted(s1.edges)
            assert sorted(e2 for e2, _ in edge_map.values()) == sorted(s2.edges)
            for h in ((e, end) for e in s1.edges for end in (0, 1)):
                assert s2.vertex_of(half_image(edge_map, h)) == vertex_map[s1.vertex_of(h)]
            for v, rot in s1.rotation.items():
                images = list(s2.rotation[vertex_map[v]])
                if not preserve:
                    images = images[::-1]
                assert [half_image(edge_map, h) for h in rot] in cyclic_shifts(images)
        assert wanted in found


def test_propagate_rejects_a_map_that_is_not_injective():
    """Two loops at one vertex wrap twice around one loop at one vertex:
    the closure is consistent and total, and only its injectivity test
    rejects it."""
    two_loops = RibbonGraph(("v",), ("a", "b"), {"v": (("a", 0), ("a", 1), ("b", 0), ("b", 1))})
    one_loop = RibbonGraph(("w",), ("l",), {"w": (("l", 0), ("l", 1))})
    assert _propagate(_Reduction(two_loops), _Reduction(one_loop), two_loops._dart(("a", 0)),
                      one_loop._dart(("l", 0)), True) is None


def test_iso_intertwines_twist_actions(built):
    """Transported twist matrices agree: the map is homologically natural."""
    lf1, lf2 = built("johns", 1), built("ishikawa", 1)
    iso = find_isomorphism(lf1, lf2)
    assert iso is not None and iso.orientation_preserving
    r1, curves1 = reduced_word(lf1)
    r2, curves2 = reduced_word(lf2)
    basis1 = homology_basis(r1)
    n = len(basis1)
    assert n == len(homology_basis(r2))

    ws1 = workspace(r1)
    transport = []
    for e in basis1:
        cyc = ws1.basis_cycle(e)
        mapped = tuple(
            (iso.edge_map[e2][0], s * iso.edge_map[e2][1]) for e2, s in cyc.walk
        )
        transport.append(class_from_steps(r2, mapped).vector)
    p = [[transport[j][i] for j in range(n)] for i in range(n)]

    def twist_matrix(surface, curve):
        cols = []
        for j in range(n):
            unit = HomologyClass(surface, tuple(int(k == j) for k in range(n)))
            cols.append(dehn_twist_on_class(surface, curve, unit).vector)
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    total1 = [[int(i == j) for j in range(n)] for i in range(n)]
    total2 = [[int(i == j) for j in range(n)] for i in range(n)]
    for name in built("johns", 1).names():
        m1 = twist_matrix(r1, curves1[name])
        m2 = twist_matrix(r2, curves2[iso.cycle_map[name]])
        assert matmul(p, m1) == matmul(m2, p)
        total1 = matmul(m1, total1)
        total2 = matmul(m2, total2)
    assert matmul(p, total1) == matmul(total2, p)
