"""Reduced-presentation comparison and the isomorphism search."""

import itertools
import random

import pytest

from lf_forge import equivalence
from lf_forge.builders import (
    LefschetzFibration,
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
    _match_families,
    _propagate,
    _rotation_index,
    _search,
    _surgery_commutes,
    _triple_product,
    carry_curve,
    find_isomorphism,
    isomorphism_certificate,
    reduced_word,
)
from lf_forge.homology import (
    HomologyClass,
    class_from_steps,
    Workspace,
    homology_basis,
    workspace,
)
from lf_forge.ribbon import RibbonGraph, SurfaceError

from oracles import dehn_twist_on_class, mapped_surgery_commutes


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


# -- curve transport through smoothing ----------------------------------------------


def test_carry_curve_collapses_merged_runs():
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
    curve = CurveOnSurface(g, "w", (("e0", 1), ("e1", 1), ("e2", 1), ("e3", 1)))
    carried = carry_curve(curve, smooth, edge_map)
    assert carried.walk == (("e0", 1), ("e3", 1))
    assert carried.name == "w"


def test_reduced_word_keeps_families_and_type(built):
    for construction in ("johns", "ishikawa"):
        fib = built(construction, 1)
        reduced, curves = reduced_word(fib)
        assert reduced.invariants() == fib.fiber.invariants()
        assert set(curves) == set(fib.names())
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


def test_reduced_word_of_a_plumbing_fiber_builds_nothing(built, relabelled, mirrored, constructions,
                                                        monkeypatch):
    """A fiber that is its own reduction keeps its word: no graph and no
    curve is built, and the curves are the word's own objects."""
    for genus in range(4):
        fib = built("johns", genus)
        for lf in (fib, mirrored(fib), relabelled(fib, genus)):
            graphs, curves = constructions(RibbonGraph), constructions(CurveOnSurface)
            reduced, carried = reduced_word(lf)
            monkeypatch.undo()
            assert graphs == [] and curves == []
            assert reduced is lf.fiber
            assert list(carried) == list(lf.names())
            assert all(carried[c.name] is c for c in lf.word)


def test_comparing_fresh_builds_makes_no_workspace_on_an_unreduced_fiber(mirrored, constructions,
                                                                         monkeypatch):
    """Building both sides and comparing them pairs cycles only on reduced
    fibers: no twisted band, no degree-2 vertex.  The mirrored pairs make
    the search compute the triple product, which does pair cycles."""
    for genus in range(4):
        made = constructions(Workspace)
        lf1, lf2 = johns_fibration(genus), ishikawa_fibration(genus)
        for pair in ((lf1, lf2), (lf2, lf1), (mirrored(lf1), lf2), (mirrored(lf2), lf1)):
            assert isomorphism_certificate(*pair)["found"]
        monkeypatch.undo()
        assert made
        for g in (ws.graph for ws in made):
            assert not g.twists
            assert all(len(g.rotation[v]) != 2 for v in g.vertices)


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


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_rotation_index_matches_pairwise_oracle(built, relabelled, mirrored, construction):
    """Every seed of every preference that propagates to a full map gets
    the oracle's verdict, not only the first that succeeds."""
    other = "ishikawa" if construction == "johns" else "johns"
    verdicts = {True: 0, False: 0}
    for genus in range(6):
        fib = built(construction, genus)
        lf2 = built(other, genus)
        g2, curves2 = reduced_word(lf2)
        fams2 = word_families(lf2)
        index = _rotation_index(curves2, fams2)
        backs2 = {n: CurveOnSurface(g2, n, tuple((e, -s) for e, s in reversed(c.walk)))
                  for n, c in curves2.items()}
        halves2 = sorted((e, end) for e in g2.edges for end in (0, 1))
        mirror = mirrored(fib)
        for lf1 in (fib, relabelled(fib, genus), mirror):
            g1, curves1 = reduced_word(lf1)
            fams1 = word_families(lf1)
            e0, s0 = curves1[fams1["a"][0].name].walk[0]
            seed1 = (e0, 0 if s0 > 0 else 1)
            for preserve in (True, False):
                for seed2 in halves2:
                    grown = _propagate(g1, g2, seed1, seed2, preserve)
                    if grown is None:
                        continue
                    _, edge_map = grown
                    expected = pairwise_match(curves1, curves2, backs2, fams1, fams2, g2, edge_map)
                    assert _match_families(curves1, index, fams1, edge_map) == expected
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
    """A source with c0 reversed, against the other, sound build; or both
    sides with b0's walk in c0's place, so that the families match at all.
    The rotation index holds reversals, so the cycles still match; only
    replaying the smoothing on the source word sees the wrong closing
    family, and it is replayed once per search."""
    other = "ishikawa" if construction == "johns" else "johns"
    verdicts = []

    def surgery_spy(*args):
        verdicts.append(_surgery_commutes(*args))
        return verdicts[-1]

    monkeypatch.setattr(equivalence, "_surgery_commutes", surgery_spy)
    for corruption in ("reversed", "b_cycle"):
        verdicts.clear()
        lf1 = corrupted(built(construction, genus), corruption)
        lf2 = built(other, genus) if corruption == "reversed" else corrupted(built(other, genus), corruption)
        assert find_isomorphism(lf1, lf2) is None
        assert verdicts == [False]  # one replay per search, and it rejects


def test_one_replay_decides_every_seed(built, relabelled, mirrored, flipped):
    """On every map that propagates, in both orientations, replaying the
    smoothing on the mapped word agrees with the one replay on the source
    word, for sound and corrupted words alike."""
    verdicts = {True: 0, False: 0}
    for genus in range(4):
        targets = [reduced_word(built(c, genus))[0] for c in ("johns", "ishikawa")]
        for construction in ("johns", "ishikawa"):
            fib = built(construction, genus)
            fams = word_families(fib)
            inputs = (fib, LefschetzFibration.from_json_dict(fib.to_json_dict()), relabelled(fib, genus),
                      mirrored(fib), flipped(fib, genus), corrupted(fib, "reversed"), corrupted(fib, "b_cycle"),
                      with_walk(fib, "a0", reversed_walk(fams["a"][0].walk)))
            for lf1 in inputs:
                g1, curves1 = reduced_word(lf1)
                fams1 = word_families(lf1)
                expected = _surgery_commutes(fams1, curves1, g1)
                e0, s0 = curves1[fams1["a"][0].name].walk[0]
                seed1 = (e0, 0 if s0 > 0 else 1)
                for g2 in targets:
                    for preserve in (True, False):
                        for seed2 in sorted((e, end) for e in g2.edges for end in (0, 1)):
                            grown = _propagate(g1, g2, seed1, seed2, preserve)
                            if grown is None:
                                continue
                            assert mapped_surgery_commutes(fams1, curves1, grown[1], g2) == expected
                            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


# -- the triple-product invariant and the seeds it skips ------------------------------


def triple_product(lf):
    return _triple_product(*reduced_word(lf), word_families(lf))


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


def test_triple_product_is_unknown_without_three_families_or_a_pairing(built, monkeypatch):
    fib = built("johns", 2)
    g, curves = reduced_word(fib)
    fams = word_families(fib)
    assert _triple_product(g, curves, {f: fams[f] for f in ("a", "b")}) is None

    def unpairable(self, curves, push=True):
        raise SurfaceError("intersection pairing failed antisymmetry")

    monkeypatch.setattr(Workspace, "pairing_matrix", unpairable)
    assert _triple_product(g, curves, fams) is None


def exhaustive_search(lf1, lf2):
    """Oracle for _search: the same seeds in the same order, none skipped."""
    g1, curves1 = reduced_word(lf1)
    g2, curves2 = reduced_word(lf2)
    fams1, fams2 = word_families(lf1), word_families(lf2)
    index = _rotation_index(curves2, fams2)
    e0, s0 = curves1[fams1["a"][0].name].walk[0]
    seed1 = (e0, 0 if s0 > 0 else 1)
    candidates = sorted({(e, end) for c in fams2["a"]
                         for e in curves2[c.name].edge_set() for end in (0, 1)})
    for preserve in (True, False):
        for seed2 in candidates:
            grown = _propagate(g1, g2, seed1, seed2, preserve)
            if grown is None:
                continue
            vertex_map, edge_map = grown
            cycle_map = _match_families(curves1, index, fams1, edge_map)
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

    def counted(g1, g2, seed1, seed2, preserve):
        preserving.append(preserve)
        return _propagate(g1, g2, seed1, seed2, preserve)

    other = "ishikawa" if construction == "johns" else "johns"
    for genus in range(6):
        fib, lf2 = built(construction, genus), built(other, genus)
        mirror = mirrored(fib)
        for lf1 in (fib, relabelled(fib, genus), mirror):
            expected = exhaustive_search(lf1, lf2)
            assert expected is not None
            preserving.clear()
            monkeypatch.setattr(equivalence, "_propagate", counted)
            iso = _search(lf1, lf2)
            monkeypatch.undo()
            assert iso.orientation_preserving == expected.orientation_preserving
            assert iso.vertex_map == expected.vertex_map
            assert iso.edge_map == expected.edge_map
            assert iso.cycle_map == expected.cycle_map
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


def test_isomorphism_is_symmetric(built):
    assert find_isomorphism(built("ishikawa", 1), built("johns", 1)) is not None


def test_no_isomorphism_across_genus(built):
    assert find_isomorphism(built("johns", 1), built("johns", 2)) is None
    cert = isomorphism_certificate(built("johns", 1), built("johns", 2))
    assert cert["schema"] == "isomorphism/1"
    assert cert["found"] is False
    failed = {c["name"] for c in cert["checks"] if not c["passed"]}
    assert failed


def test_found_certificate_shape(built):
    cert = isomorphism_certificate(built("johns", 0), built("ishikawa", 0))
    assert cert["found"] is True
    assert cert["orientation_preserving"] is True
    assert set(cert["cycle_map"]) == set(built("johns", 0).names())
    assert all(c["passed"] for c in cert["checks"])


def test_word_families_group_by_name_prefix(built):
    fams = word_families(built("johns", 1))
    assert {k: len(v) for k, v in fams.items()} == {"a": 2, "b": 4, "c": 2}


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
