"""Deciding whether two fibrations are the same up to relabeling.

The two builders present the same surface differently: the divide fiber
carries subdivision points and twist bits that the plumbing fiber does not.
Comparison therefore happens on the reduced presentation (degree-two vertices
suppressed, twist bits cleared), where an isomorphism is a vertex/edge
bijection that preserves every rotation or reverses every rotation, carries
each named cycle of one word onto a cycle of the other within the same
family, and commutes with the closing smoothing move.  That last condition
is each word's own ``closing_smoothing``, the check a certificate makes,
replayed once per word on its own fiber.  The smoothing is resolved at
4-valent crossing vertices by the interleaving of the strands, so its
answer does not change when degree-two vertices are suppressed, twist bits
are cleared or every rotation is reversed; and a bijection of either
orientation carries one word's smoothing onto the other word's.  So the
two replays decide the condition for every map, whichever word is the
source; a fresh plumbing build answers from the smoothing its fiber keeps,
and any other word traces its own once.  The two words must have the same
family blocks (maximal runs of one family) in word order; the cycles of one
family are matched as a set.

The search is anchored: the image of the first first-family core must run
along a first-family core of the target, so only half-edges on those cores
seed the propagation, and each seed extends to at most one full map.  Seeds
are scanned in a fixed order (orientation-preserving first, then by half-edge
id), making the result deterministic, and those of an orientation that the
words' triple product (``_triple_product``) rules out are skipped.
"""

from __future__ import annotations

from itertools import groupby

from .builders import LefschetzFibration, closing_smoothing, cycle_family, word_families
from .curves import CurveOnSurface, canonical_rotation
from .ribbon import HalfEdge, Record, RibbonGraph, SurfaceError

__all__ = [
    "FibrationIso",
    "carry_curve",
    "find_isomorphism",
    "isomorphism_certificate",
    "reduced_word",
]


def carry_curve(curve: CurveOnSurface, target: RibbonGraph,
                edge_map: dict[str, tuple[str, int]]) -> CurveOnSurface:
    """Rewrite a closed walk through the edge map of a smoothing.

    Consecutive steps that land on the same merged edge with the same
    direction are one traversal of a suppressed chain and collapse to a
    single step, wrapping around the basepoint too.  An immediately repeated
    loop edge is kept: there the old edge ids coincide, on a chain they
    cannot.
    """
    runs: list[list] = []  # [new edge, direction, first old edge, last old edge]
    for e, s in curve.walk:
        new, sign = edge_map[e]
        d = s * sign
        if runs and runs[-1][0] == new and runs[-1][1] == d and runs[-1][3] != e:
            runs[-1][3] = e
        else:
            runs.append([new, d, e, e])
    if len(runs) > 1:
        first, last = runs[0], runs[-1]
        if first[0] == last[0] and first[1] == last[1] and last[3] != first[2]:
            runs.pop()
    walk = tuple((new, d) for new, d, _, _ in runs)
    return CurveOnSurface(target, curve.name, walk)


def reduced_word(fib: LefschetzFibration) -> tuple[RibbonGraph, dict[str, CurveOnSurface]]:
    """The fiber with degree-two vertices suppressed and twists cleared
    (``RibbonGraph._reduced``, each kept vertex oriented by the full
    fiber's own sign), with the word carried onto it.  When that is the
    fiber itself (every plumbing fiber, either orientation), the word's own
    curves are returned: the identity edge map would carry each onto an
    equal walk on that graph.
    """
    norm, edge_map = fib.fiber._reduced()
    if norm is fib.fiber:
        return norm, {c.name: c for c in fib.word}
    return norm, {c.name: carry_curve(c, norm, edge_map) for c in fib.word}


# -- isomorphism search --------------------------------------------------------------


class FibrationIso(Record):
    """A certified identification of two fibrations on their reduced fibers.

    vertex_map and edge_map form a ribbon-graph bijection; edge_map values
    carry the direction sign.  orientation_preserving reports whether all
    rotations are preserved (True) or all reversed (False).  cycle_map pairs
    vanishing cycle names family by family.  Two isomorphisms are equal only
    when they are the same object.
    """

    __slots__ = ("source", "target", "vertex_map", "edge_map", "orientation_preserving", "cycle_map")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, source: LefschetzFibration, target: LefschetzFibration, vertex_map: dict[str, str],
                 edge_map: dict[str, tuple[str, int]], orientation_preserving: bool, cycle_map: dict[str, str]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "vertex_map", vertex_map)
        object.__setattr__(self, "edge_map", edge_map)
        object.__setattr__(self, "orientation_preserving", orientation_preserving)
        object.__setattr__(self, "cycle_map", cycle_map)

    def to_json_dict(self) -> dict:
        return {
            "schema": "isomorphism/1",
            "genus": self.source.genus,
            "found": True,
            "orientation_preserving": self.orientation_preserving,
            "cycle_map": dict(sorted(self.cycle_map.items())),
            "checks": [{"name": n, "passed": True} for n in _CHECK_NAMES],
        }


_CHECK_NAMES = (
    "fiber_invariants",
    "word_families",
    "ribbon_graph_bijection",
    "cycle_images_match",
    "surgery_commutes",
)


def _gate(lf1: LefschetzFibration, lf2: LefschetzFibration) -> list[tuple[str, bool]]:
    shape1, shape2 = ([(fam, len(list(run))) for fam, run in groupby(cycle_family(c.name) for c in lf.word)]
                      for lf in (lf1, lf2))
    return [
        ("fiber_invariants", lf1.fiber.invariants() == lf2.fiber.invariants()),
        ("word_families", shape1 == shape2),
    ]


def _propagate(g1: RibbonGraph, g2: RibbonGraph, seed1: HalfEdge, seed2: HalfEdge,
               preserve: bool) -> tuple[dict[str, str], dict[str, tuple[str, int]]] | None:
    """Grow a dart correspondence from one seed half-edge each, or fail.

    Rotation-next maps to rotation-next (or -previous when reversing) and
    partner to partner; on a connected graph the closure is total, and a
    conflict or a closure that is not injective kills the seed.  An
    injective closure carries each rotation cycle onto a whole one, so the
    darts' vertices give the vertex bijection.  This is the search's inner
    loop, so it reads the graphs' dart tables directly.
    """
    dn1, succ2 = g1._dn, (g2._dn if preserve else g2._dp)
    phi = [-1] * len(dn1)  # phi[d]: the image of dart d
    stack = [g1._dart(seed1)]
    phi[stack[0]] = g2._dart(seed2)
    while stack:
        d = stack.pop()
        img = phi[d]
        for nxt, nxt_img in ((d ^ 1, img ^ 1), (dn1[d], succ2[img])):
            known = phi[nxt]
            if known < 0:
                phi[nxt] = nxt_img
                stack.append(nxt)
            elif known != nxt_img:
                return None
    if len(set(phi)) != len(phi):  # also when the closure is not total: -1 repeats
        return None
    dv2, half2 = g2._dv, g2._half
    vertex_map = dict(zip(g1._dv, [dv2[x] for x in phi]))
    edge_map = {e: (half2[x][0], 1 if half2[x][1] == 0 else -1) for (e, end), x in zip(g1._half, phi) if end == 0}
    return vertex_map, edge_map


def _triple_product(g: RibbonGraph, curves: dict[str, CurveOnSurface], fams) -> int | None:
    """T = sum of P_ij P_jk P_ki over a-cycles i, b-cycles j and c-cycles k,
    where P is the intersection pairing of the word carried onto ``g``.

    Reversing a cycle flips the sign of two factors of each of its terms and
    relabelling inside the families permutes the terms, so T is preserved by
    every orientation-preserving isomorphism and negated by every reversing
    one.  None when the word lacks the three families or cannot be paired;
    then T decides nothing.
    """
    from .homology import workspace  # here, the only user, so that a compare that needs no T does not load it

    if not {"a", "b", "c"} <= set(fams):
        return None
    a, b, c = ([curves[x.name] for x in fams[f]] for f in ("a", "b", "c"))
    try:
        p = workspace(g).pairing_matrix(a + b + c)
    except SurfaceError:
        return None
    ai = range(len(a))
    bi = range(len(a), len(a) + len(b))
    ci = range(len(a) + len(b), len(p))
    return sum(p[i][j] * p[j][k] * p[k][i] for i in ai for j in bi for k in ci)


def _rotation_index(curves2: dict[str, CurveOnSurface],
                    fams2) -> dict[str, dict[tuple, list[str]]]:
    """Per family, the canonical rotation of every target walk and of its
    reversal, mapped to the target names having it, each listed once in
    word order."""
    index: dict[str, dict[tuple, list[str]]] = {}
    for fam, targets in fams2.items():
        rotations: dict[tuple, list[str]] = {}
        for t in targets:
            walk = curves2[t.name].walk
            for w in (walk, tuple((e, -s) for e, s in reversed(walk))):
                names = rotations.setdefault(canonical_rotation(w), [])
                if not names or names[-1] != t.name:
                    names.append(t.name)
        index[fam] = rotations
    return index


def _match_families(curves1: dict[str, CurveOnSurface], index, fams1, edge_map) -> dict[str, str] | None:
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
            image = tuple((edge_map[e][0], s * edge_map[e][1]) for e, s in curves1[c.name].walk)
            t = next((t for t in rotations.get(canonical_rotation(image), ()) if t not in used), None)
            if t is None:
                return None
            used.add(t)
            cycle_map[c.name] = t
    return cycle_map


def find_isomorphism(lf1: LefschetzFibration, lf2: LefschetzFibration) -> FibrationIso | None:
    """Search for an isomorphism of fibrations, None when there is none.

    Cheap invariants gate the search (``_search``).  A fiber that cannot be
    reduced, or a pair of empty words, raises SurfaceError: that is a
    failure to compare, not a missing isomorphism.  A non-orientable fiber
    has no invariants, so it raises NonOrientableError at the gate,
    whichever side it is on.
    """
    if not all(ok for _, ok in _gate(lf1, lf2)):
        return None
    return _search(lf1, lf2)[0]


def _search(lf1: LefschetzFibration, lf2: LefschetzFibration) -> tuple[FibrationIso | None, str | None]:
    """The search behind find_isomorphism, for a pair that passed the gate:
    the isomorphism and None, or None and the check that failed.

    Each placement of the first first-family core onto a target first-family
    core propagates to at most one full map, checked against the word; the
    first match in scan order is returned if both words pass their own
    ``closing_smoothing``, which no later seed would change.  Once an
    orientation-preserving seed fails the word, seeds of an orientation that
    the words' ``_triple_product`` rules out are skipped (none if unknown).
    """
    g1, curves1 = reduced_word(lf1)
    g2, curves2 = reduced_word(lf2)
    if len(g1.edges) != len(g2.edges) or len(g1.vertices) != len(g2.vertices):
        return None, "ribbon_graph_bijection"
    fams1, fams2 = word_families(lf1), word_families(lf2)
    if not fams1:
        raise SurfaceError("cannot compare fibrations with an empty word")
    index = _rotation_index(curves2, fams2)
    first_family = next(iter(fams1))
    anchor = curves1[fams1[first_family][0].name]
    e0, s0 = anchor.walk[0]
    seed1 = (e0, 0 if s0 > 0 else 1)
    candidates = sorted({(e, end)
                         for c in fams2[first_family]
                         for e in curves2[c.name].edge_set()
                         for end in (0, 1)})
    possible = {True: True, False: True}
    decided = False
    failed = "ribbon_graph_bijection"
    for preserve in (True, False):
        for seed2 in candidates:
            if not possible[preserve]:
                break
            grown = _propagate(g1, g2, seed1, seed2, preserve)
            if grown is None:
                continue
            failed = "cycle_images_match"
            vertex_map, edge_map = grown
            cycle_map = _match_families(curves1, index, fams1, edge_map)
            if cycle_map is None:
                if preserve and not decided:
                    decided = True
                    t1 = _triple_product(g1, curves1, fams1)
                    t2 = _triple_product(g2, curves2, fams2)
                    if t1 is not None and t2 is not None:
                        possible = {True: t1 == t2, False: t1 == -t2}
                continue
            for lf in (lf1, lf2):
                replay = closing_smoothing(lf)
                if replay is not None and not replay[0]:
                    return None, "surgery_commutes"
            return FibrationIso(lf1, lf2, vertex_map, edge_map, preserve, cycle_map), None
    return None, failed


def isomorphism_certificate(lf1: LefschetzFibration, lf2: LefschetzFibration) -> dict:
    """Certificate document for a comparison, found or not; a search that
    fails lists its checks up to the one that failed."""
    gate = _gate(lf1, lf2)
    passed = all(ok for _, ok in gate)
    iso, failed = _search(lf1, lf2) if passed else (None, None)
    if iso is not None:
        return iso.to_json_dict()
    checks = [{"name": n, "passed": ok} for n, ok in gate]
    if passed:
        searched = _CHECK_NAMES[len(gate):_CHECK_NAMES.index(failed) + 1]
        checks += [{"name": n, "passed": n != failed} for n in searched]
    return {
        "schema": "isomorphism/1",
        "genus": lf1.genus,
        "found": False,
        "orientation_preserving": None,
        "cycle_map": None,
        "checks": checks,
    }
