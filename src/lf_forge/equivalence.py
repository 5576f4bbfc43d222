"""Deciding whether two fibrations are the same up to relabeling.

The two builders present the same surface differently: the divide fiber
carries subdivision points and twist bits that the plumbing fiber does not.
Comparison therefore happens on the reduced presentation (degree-two vertices
suppressed, twist bits cleared), read off each oriented fiber's own darts
(``_Reduction``) with no reduced graph or curve built.  There an isomorphism
is a vertex/edge bijection that preserves every rotation or reverses every
rotation, carries each named cycle of one word onto a cycle of the other
within the same family, and commutes with the closing smoothing move.  That
last condition is each word's own ``closing_smoothing``, the check a
certificate makes, replayed once per word on its own fiber: the smoothing is
resolved at 4-valent crossings by the interleaving of the strands, so
suppressing degree-two vertices, clearing twist bits or reversing every
rotation does not change it, and a bijection of either orientation carries
one word's smoothing onto the other's.  The two words must have the same
family blocks (maximal runs of one family) in word order; the cycles of one
family are matched as a set.

Both entries read one comparison, ``_compare``: the gate's checks and the
search's in certificate order, and the search's match as data, from which
only ``find_isomorphism`` builds maps.  The search is anchored: the image of
the first first-family core must run along a first-family core of the
target, so only half-edges on those cores seed the propagation, and each
seed extends to at most one full map.  Seeds are scanned in a fixed order
(orientation-preserving first, then by reduced half-edge), making the
result deterministic, and those of an orientation that the words' triple
product (``_triple_product``) rules out are skipped.
"""

from __future__ import annotations

from itertools import groupby

from .builders import LefschetzFibration, closing_smoothing, cycle_family, word_families
from .curves import CurveOnSurface, canonical_rotation
from .ribbon import Record, RibbonGraph, SurfaceError

class _Reduction:
    """``graph.normalized().smoothed()`` read off the oriented fiber's own
    dart tables.  ``anchors`` are the darts at the vertices smoothing keeps
    (``kept``).  For an anchor dart d, ``far[d]`` is the anchor dart at the
    other end of its chain (``d ^ 1`` on an edge with no degree-2 vertex)
    and ``label[d]`` its half-edge on the smoothed graph: a chain is named
    by its least edge id, end 0 at the end whose (vertex, half-edge) is
    lesser; an unmerged edge keeps its own.  Other darts: -1 and None.
    """

    __slots__ = ("norm", "kept", "anchors", "far", "label")

    def __init__(self, graph: RibbonGraph):
        norm = self.norm = graph.normalized()
        dv, dn, edges = norm._dv, norm._dn, norm.edges
        # by vertex number: of degree 2 and no loop; mid: by dart
        gone = [k == 2 for k in norm._deg]
        for d in range(0, len(dn), 2):
            if dn[d] == d + 1:  # a loop, so its vertex is no chain vertex
                gone[dv[d]] = False
        mid = [gone[v] for v in dv]
        far, label = self.far, self.label = [-1] * len(dv), [None] * len(dv)
        passed = 0
        for a, at_mid in enumerate(mid):
            if at_mid or far[a] >= 0:  # reached from the other end of its chain
                continue
            b, least = a ^ 1, a >> 1
            while mid[b]:
                b = dn[b] ^ 1  # leave by the degree-2 vertex's other dart
                least = min(least, b >> 1)
                passed += 1
            far[a], far[b] = b, a
            if b == a ^ 1:
                label[a], label[b] = (edges[a >> 1], a & 1), (edges[b >> 1], b & 1)
            else:  # dart order is half-edge order
                e = edges[least]
                label[a], label[b] = ((e, 0), (e, 1)) if (dv[a], a) < (dv[b], b) else ((e, 1), (e, 0))
        if passed != gone.count(True):
            raise SurfaceError("cannot smooth a pure cycle of degree-2 vertices")
        self.kept = [v for v, smoothed in zip(norm.vertices, gone) if not smoothed]
        self.anchors = [d for d, at_mid in enumerate(mid) if not at_mid]

    def walk(self, curve: CurveOnSurface) -> tuple[int, ...]:
        """The curve's walk on the smoothed graph, as the anchor darts its
        steps arrive on: one step ends at each arrival at a kept vertex, and
        one at each turn-back at a degree-2 vertex (the next step leaves by
        the dart it arrived on), running on to the anchor ahead."""
        far, dn, heads = self.far, self.norm._dn, curve._heads
        steps = []
        for h, nxt in zip(heads, heads[1:] + heads[:1]):
            if far[h] >= 0:
                steps.append(h)
            elif nxt ^ 1 == h:
                while far[h] < 0:
                    h = dn[h] ^ 1
                steps.append(h)
        return tuple(steps)


def reduced_word(fib: LefschetzFibration) -> tuple[RibbonGraph, dict[str, CurveOnSurface]]:
    """The fiber oriented by its own signs and then smoothed, with the word
    carried onto it, built from ``_Reduction``.  A non-orientable fiber
    raises NonOrientableError before any smoothing error."""
    red = _Reduction(fib.fiber)
    norm, label = red.norm, red.label
    rotation = {v: tuple(label[norm._dart(h)] for h in norm.rotation[v]) for v in red.kept}
    graph = RibbonGraph(red.kept, {label[d][0] for d in red.anchors}, rotation)
    return graph, {c.name: CurveOnSurface(graph, c.name, tuple(
        (label[d][0], 1 if label[d][1] else -1) for d in red.walk(c))) for c in fib.word}


# -- isomorphism search --------------------------------------------------------------


class FibrationIso(Record):
    """A certified identification of ``source`` and ``target`` on their reduced fibers.

    vertex_map and edge_map form a ribbon-graph bijection; edge_map values
    carry the direction sign.  orientation_preserving reports whether all
    rotations are preserved (True) or all reversed (False).  cycle_map pairs
    vanishing cycle names family by family.  Two isomorphisms are equal only
    when they are the same object.
    """

    __slots__ = ("source", "target", "vertex_map", "edge_map", "orientation_preserving", "cycle_map")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _propagate(r1: _Reduction, r2: _Reduction, d1: int, d2: int, preserve: bool) -> list[int] | None:
    """Grow a correspondence of anchor darts from one each, or fail: the
    image ``phi[d]`` of every anchor dart d.  Rotation-next maps to
    rotation-next (or -previous when reversing) and ``far`` to ``far``; on a
    connected graph the closure is total, and a conflict or a closure that
    is not injective kills the seed.  An injective closure carries each
    rotation cycle onto a whole one, so it is a ribbon-graph bijection of
    the smoothed graphs (``_maps``).  This is the search's inner loop.
    """
    far1, far2 = r1.far, r2.far
    dn1, succ2 = r1.norm._dn, (r2.norm._dn if preserve else r2.norm._dp)
    phi = [-1] * len(dn1)
    stack = [d1]
    phi[d1] = d2
    while stack:
        d = stack.pop()
        img = phi[d]
        for nxt, nxt_img in ((far1[d], far2[img]), (dn1[d], succ2[img])):
            known = phi[nxt]
            if known < 0:
                phi[nxt] = nxt_img
                stack.append(nxt)
            elif known != nxt_img:
                return None
    images = [phi[d] for d in r1.anchors]
    if len(set(images)) != len(images):  # also when the closure is not total: -1 repeats
        return None
    return phi


def _maps(r1: _Reduction, r2: _Reduction, phi: list[int]) -> tuple[dict[str, str], dict[str, tuple[str, int]]]:
    """The vertex and edge maps of a bijection grown by ``_propagate``, on
    the smoothed graphs' names, keyed in their half-edge order."""
    order = sorted(r1.anchors, key=r1.label.__getitem__)
    names1, dv1, names2, dv2 = r1.norm.vertices, r1.norm._dv, r2.norm.vertices, r2.norm._dv
    vertex_map = dict(zip([names1[dv1[d]] for d in order], [names2[dv2[phi[d]]] for d in order]))
    labels = [(r1.label[d], r2.label[phi[d]]) for d in order]
    return vertex_map, {e: (f, 1 if end2 == 0 else -1) for (e, end), (f, end2) in labels if end == 0}


def _triple_product(fiber: RibbonGraph, fams) -> int | None:
    """T = sum of P_ij P_jk P_ki over a-cycles i, b-cycles j and c-cycles k,
    where P is the intersection pairing of the word on its own fiber.

    Reversing a cycle flips the sign of two factors of each of its terms and
    relabelling inside the families permutes the terms, so T is preserved by
    every orientation-preserving isomorphism and negated by every reversing
    one.  An edge-simple pass crosses nothing at a degree-2 vertex, so T is
    also that of the word carried onto the smoothed fiber.  None when the
    word lacks the three families, has a cycle among them that is not
    edge-simple or cannot be paired; then T decides nothing.
    """
    from .homology import pairing_matrix  # here, the only user, so that a compare that needs no T does not load it

    if not {"a", "b", "c"} <= set(fams):
        return None
    a, b, c = (fams[f] for f in ("a", "b", "c"))
    if not all(x.is_edge_simple() for x in (*a, *b, *c)):
        return None
    try:
        p = pairing_matrix(fiber, (*a, *b, *c))
    except SurfaceError:
        return None
    na, nab = len(a), len(a) + len(b)
    return sum(p[i][j] * p[j][k] * p[k][i] for i in range(na) for j in range(na, nab) for k in range(nab, len(p)))


def _rotation_index(walks2: dict[str, tuple[int, ...]], far2: list[int],
                    fams2) -> dict[str, dict[tuple, list[str]]]:
    """Per family, the canonical rotation of every target walk
    (``_Reduction.walk``) and of its reversal (the far ends, reversed),
    mapped to the target names having it, each listed once in word order."""
    index: dict[str, dict[tuple, list[str]]] = {}
    for fam, targets in fams2.items():
        rotations: dict[tuple, list[str]] = {}
        for t in targets:
            walk = walks2[t.name]
            for w in (walk, tuple([far2[d] for d in reversed(walk)])):
                names = rotations.setdefault(canonical_rotation(w), [])
                if not names or names[-1] != t.name:
                    names.append(t.name)
        index[fam] = rotations
    return index


def _match_families(walks1: dict[str, tuple[int, ...]], index, fams1, phi: list[int]) -> dict[str, str] | None:
    """Pair each mapped source cycle with an equal target cycle, family by
    family, up to cyclic rotation and reversal; the name bijection, or None.

    A mapped walk is looked up in the rotation index of the target word by
    its canonical rotation, so it is accepted only as a rotation of a target
    walk already validated on the target surface.

    Each source takes the first unused target in word order.  Two option
    lists are equal or disjoint (sources with one key share a list, and a
    walk and its reversal share one), so the targets of one list are
    interchangeable and first-fit succeeds exactly when any matching
    exists."""
    cycle_map: dict[str, str] = {}
    for fam, sources in fams1.items():
        rotations = index[fam]
        used: set[str] = set()
        for c in sources:
            image = tuple([phi[d] for d in walks1[c.name]])
            t = next((t for t in rotations.get(canonical_rotation(image), ()) if t not in used), None)
            if t is None:
                return None
            used.add(t)
            cycle_map[c.name] = t
    return cycle_map


def find_isomorphism(lf1: LefschetzFibration, lf2: LefschetzFibration) -> FibrationIso | None:
    """Search for an isomorphism of fibrations, None when there is none.

    A fiber that cannot be reduced, or a pair of empty words, raises
    SurfaceError: that is a failure to compare, not a missing isomorphism.
    A non-orientable fiber has no invariants, so it raises
    NonOrientableError at the gate, whichever side it is on.  Only here are
    the vertex and edge maps built, from the match ``_compare`` returns.
    """
    found = _compare(lf1, lf2)[1]
    if found is None:
        return None
    preserve, cycle_map, r1, r2, phi = found
    return FibrationIso(lf1, lf2, *_maps(r1, r2, phi), preserve, cycle_map)


def isomorphism_certificate(lf1: LefschetzFibration, lf2: LefschetzFibration) -> dict:
    """Certificate document for a comparison, found or not: ``_compare``'s
    checks and match."""
    checks, found = _compare(lf1, lf2)
    return {
        "schema": "isomorphism/1",
        "genus": lf1.genus,
        "found": found is not None,
        "orientation_preserving": found[0] if found else None,
        "cycle_map": dict(sorted(found[1].items())) if found else None,
        "checks": [{"name": n, "passed": ok} for n, ok in checks],
    }


def _compare(lf1: LefschetzFibration, lf2: LefschetzFibration) -> tuple[list[tuple[str, bool]], tuple | None]:
    """The (name, passed) checks in certificate order, and the search's
    match or None: both gate checks, then, if both pass, the search's up to
    and including the one that failed.  An argument that is not a
    fibration raises SurfaceError first."""
    for lf in (lf1, lf2):
        if not isinstance(lf, LefschetzFibration):
            raise SurfaceError(f"can compare only fibrations, got {type(lf).__name__}")
    shape1, shape2 = ([(f, len(list(run))) for f, run in groupby(map(cycle_family, lf.names()))] for lf in (lf1, lf2))
    checks = [("fiber_invariants", lf1.fiber.invariants() == lf2.fiber.invariants()),
              ("word_families", shape1 == shape2)]
    if not all(ok for _, ok in checks):
        return checks, None
    found, failed = _search(lf1, lf2)
    for name in ("ribbon_graph_bijection", "cycle_images_match", "surgery_commutes"):
        checks.append((name, name != failed))
        if name == failed:
            break
    return checks, found


def _search(lf1: LefschetzFibration, lf2: LefschetzFibration) -> tuple[tuple | None, str | None]:
    """The search behind ``_compare``, for a pair that passed the gate:
    (orientation_preserving, cycle_map, r1, r2, phi) and None, ``_maps``
    building the vertex and edge maps, or None and the check that failed.

    Each placement of the first first-family core onto a target first-family
    core propagates to at most one full map, checked against the word; the
    first match in scan order is returned if both words pass their own
    ``closing_smoothing``, which no later seed would change.  When the first
    orientation-preserving seed fails the word, the words' ``_triple_product``
    leaves the ``allowed`` orientations (both if unknown), and seeds of any
    other are skipped.  Seeds are scanned in the smoothed graph's half-edge
    order (``label``).  It matches presentations: smoothed graphs of
    different sizes fail ``ribbon_graph_bijection``, even when one page
    contracts the other's edge.
    """
    r1, r2 = _Reduction(lf1.fiber), _Reduction(lf2.fiber)
    if len(r1.anchors) != len(r2.anchors) or len(r1.kept) != len(r2.kept):
        return None, "ribbon_graph_bijection"
    fams1, fams2 = word_families(lf1), word_families(lf2)
    if not fams1:
        raise SurfaceError("cannot compare fibrations with an empty word")
    walks1, walks2 = ({c.name: r.walk(c) for c in lf.word} for r, lf in ((r1, lf1), (r2, lf2)))
    index = _rotation_index(walks2, r2.far, fams2)
    first_family = next(iter(fams1))
    seed1 = r1.far[walks1[fams1[first_family][0].name][0]]  # where the first step departs
    candidates = sorted({x for c in fams2[first_family] for h in walks2[c.name] for x in (h, r2.far[h])},
                        key=r2.label.__getitem__)
    allowed = None  # until the first orientation-preserving seed fails the word
    failed = "ribbon_graph_bijection"
    for preserve in (True, False):
        for seed2 in candidates:
            if allowed is not None and preserve not in allowed:
                break
            phi = _propagate(r1, r2, seed1, seed2, preserve)
            if phi is None:
                continue
            failed = "cycle_images_match"
            cycle_map = _match_families(walks1, index, fams1, phi)
            if cycle_map is None:
                if preserve and allowed is None:
                    t1, t2 = (_triple_product(lf.fiber, fams) for lf, fams in ((lf1, fams1), (lf2, fams2)))
                    allowed = {o for o in (True, False) if None in (t1, t2) or t1 == (t2 if o else -t2)}
                continue
            if any(replay is not None and not replay[0] for replay in map(closing_smoothing, (lf1, lf2))):
                return None, "surgery_commutes"
            return (preserve, cycle_map, r1, r2, phi), None
    return None, failed
