"""Test oracles: reference versions of what the package computes another way.

No command runs any of these.  Each one traces or enumerates directly
(boundary walks one state at a time, the pairing of classes through the Gram
matrix of the basis, Dehn twists on classes and on walks, the closing
smoothing on the mapped word, divide curves one crossing at a time), so the
tests can hold the package's faster or more indirect code against it.
"""

from lf_forge.builders import LefschetzFibration, closing_smoothing
from lf_forge.curves import CurveOnSurface, reversed_step
from lf_forge.divides import Divide, checkerboard_coloring
from lf_forge.homology import HomologyClass, curve_class, workspace
from lf_forge.invariants import FinAbGroup, _cokernel_from_diagonal, _sparse_snf_diagonal
from lf_forge.ribbon import RibbonGraph, SurfaceError, _oriented_rotation


class TransversalityError(SurfaceError):
    """Two objects share an edge traversal where a crossing rule needs them
    to meet only at vertices.  Refine one of them off the shared band."""


# -- ribbon graphs ------------------------------------------------------------------

# Boundary-walk states are (half_edge, side).  Side 0 is the band side that
# meets the corner *before* the attachment in the vertex's cyclic order, side 1
# the one after.  A state means "enter the band of this half-edge at this side".
SIDE_R = 0
SIDE_L = 1


def _advance(g: RibbonGraph, state):
    """One step of the boundary walk.

    Entering the band of half-edge h at side R runs along the side that
    (untwisted) exits at the partner's L end, after which the walk wraps
    the next corner counterclockwise; a twist swaps the exit side and
    reverses the corner direction.  The map is a bijection on states.
    """
    h, side = state
    k = g.partner(h)
    twisted = h[0] in g.twists
    if side == SIDE_R:
        if not twisted:
            return (g.rotation_next(k), SIDE_R)
        return (g.rotation_prev(k), SIDE_L)
    if not twisted:
        return (g.rotation_prev(k), SIDE_L)
    return (g.rotation_next(k), SIDE_R)


def _reverse_state(g: RibbonGraph, state):
    """The same band side entered from its other end."""
    h, side = state
    k = g.partner(h)
    if h[0] in g.twists:
        return (k, side)
    return (k, 1 - side)


def boundary_walks(g: RibbonGraph):
    """Boundary circles as state cycles, one orbit per circle.

    The oracle for ``RibbonGraph.num_boundary_components``: it traces the
    states one ``_advance`` at a time.  Each circle is traversed by two
    direction-reversed state orbits; the one whose minimal state is smaller
    is kept, so positions along the returned walks are canonical.
    """
    states = [((e, i), s) for e in g.edges for i in (0, 1) for s in (0, 1)]
    seen = set()
    orbits = []
    for start in sorted(states):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = _advance(g, start)
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = _advance(g, cur)
        orbits.append(tuple(orbit))
    kept = []
    for o in orbits:
        partner_min = min(_reverse_state(g, s) for s in o)
        if min(o) < partner_min:
            kept.append(o)
    if 2 * len(kept) != len(orbits):
        raise SurfaceError("boundary tracing produced unpaired orbits")
    return tuple(sorted(kept))


def mirrored(g: RibbonGraph) -> RibbonGraph:
    """The same surface with the opposite global orientation convention:
    every rotation reversed."""
    rotation = {v: tuple(reversed(rot)) for v, rot in g.rotation.items()}
    return RibbonGraph(g.vertices, g.edges, rotation, g.twists)


def half_edge_tables(g: RibbonGraph) -> tuple[dict, dict, dict, dict]:
    """The reference for the dart tables, keyed by half-edge and rebuilt
    from ``g.rotation``: each half-edge's vertex, its successor and
    predecessor in that vertex's rotation, and its index there."""
    vertex_of, nxt, prv, pos = {}, {}, {}, {}
    for v, rot in g.rotation.items():
        for i, h in enumerate(rot):
            vertex_of[h] = v
            nxt[h] = rot[(i + 1) % len(rot)]
            prv[h] = rot[i - 1]
            pos[h] = i
    return vertex_of, nxt, prv, pos


def normalized(g: RibbonGraph) -> RibbonGraph:
    """The reference for ``RibbonGraph.normalized``: the constructor run on
    the oriented rotation, so every table is built and checked afresh."""
    return RibbonGraph(g.vertices, g.edges, _oriented_rotation(g.rotation, g.local_orientations()), ())


# -- steps of walks -----------------------------------------------------------------


def step_head(surface: RibbonGraph, step) -> str:
    """The vertex a step arrives at."""
    e, s = step
    return surface.vertex_of((e, 1 if s > 0 else 0))


def step_head_half(step):
    """Half-edge at the head vertex, where the traversal arrives."""
    e, s = step
    return (e, 1 if s > 0 else 0)


def step_tail_half(step):
    """Half-edge at the tail vertex, where the traversal departs."""
    e, s = step
    return (e, 0 if s > 0 else 1)


def check_walk(surface: RibbonGraph, walk) -> None:
    """The reference for ``curves.check_walk``: list every step's tail and
    head first, then compare the heads with the next tails."""
    if not walk:
        raise SurfaceError("empty walk")
    tails, heads = [], []
    for e, s in walk:
        if e not in surface.edges or s not in (1, -1):
            raise SurfaceError(f"walk step ({e!r}, {s}) is not on the surface")
        ends = surface.edge_endpoints(e)
        tails.append(ends[s < 0])
        heads.append(ends[s > 0])
    tails.append(tails[0])
    for i, (h, t) in enumerate(zip(heads, tails[1:])):
        if h != t:
            raise SurfaceError(f"walk breaks between {walk[i]} and {walk[(i + 1) % len(walk)]}")


def rebased(curve: CurveOnSurface, index: int):
    """The cyclic walk of ``curve`` starting at step ``index``."""
    return curve.walk[index:] + curve.walk[:index]


# -- homology classes and Dehn twists ---------------------------------------------


def algebraic_intersection(surface: RibbonGraph, x: HomologyClass, y: HomologyClass) -> int:
    """Skew-symmetric intersection pairing on H1, through the Gram matrix of
    the basis cycles."""
    if x.host is not surface or y.host is not surface:
        raise SurfaceError("classes live on a different surface")
    gram = workspace(surface).gram_matrix()
    return sum(
        xi * gram[i][j] * yj
        for i, xi in enumerate(x.vector) if xi
        for j, yj in enumerate(y.vector) if yj
    )


def dehn_twist_on_class(surface: RibbonGraph, curve: CurveOnSurface, x: HomologyClass) -> HomologyClass:
    """Action of the positive Dehn twist along ``curve``: x + <x, c> [c]."""
    c = curve_class(surface, curve.require_edge_simple())
    return x + c.scaled(algebraic_intersection(surface, x, c))


def _crossings_with_curve(surface: RibbonGraph, walk, curve: CurveOnSurface):
    """All signed (pass index in host walk, detour steps) crossings of a
    closed walk's vertex passes with an edge-simple closed curve."""
    out = []
    for i, t, _, u, s in workspace(surface)._corner_crossings([walk, curve.walk], push=False):
        if i:
            continue
        detour = list(rebased(curve, (u + 1) % len(curve.walk)))
        if s < 0:
            detour = [reversed_step(st) for st in reversed(detour)]
        out.append((t, s, detour))
    return out


def dehn_twist_on_path(surface: RibbonGraph, curve: CurveOnSurface, path: CurveOnSurface) -> CurveOnSurface:
    """Positive Dehn twist along ``curve`` applied to a closed walk.

    At every signed crossing the result detours around a full copy of the
    twist curve (reversed at negative crossings), so the homology effect
    matches ``dehn_twist_on_class`` exactly.  The walk must meet the curve
    only at vertices; sharing an edge traversal raises TransversalityError.
    """
    curve.require_edge_simple()
    if not isinstance(path, CurveOnSurface):
        raise SurfaceError(f"cannot twist object of type {type(path).__name__}")
    if path.host is not surface or curve.host is not surface:
        raise SurfaceError("twist inputs live on different surfaces")
    shared = path.edge_set() & curve.edge_set()
    if shared:
        raise TransversalityError(
            f"walk shares edges {sorted(shared)} with twist curve {curve.name!r}; "
            "refine the walk off those bands first"
        )
    by_idx: dict[int, list] = {}
    for host_idx, _, detour in _crossings_with_curve(surface, path.walk, curve):
        by_idx.setdefault(host_idx, []).append(detour)
    new_walk = []
    for i, step in enumerate(path.walk):
        new_walk.append(step)
        for detour in by_idx.get(i, ()):
            new_walk.extend(detour)
    return CurveOnSurface(surface, path.name, tuple(new_walk))


# -- maps of fibrations -------------------------------------------------------------


def mapped_surgery_commutes(fams1, curves1, edge_map, g2: RibbonGraph) -> bool:
    """The reference for the one replay of a word on its own fiber
    (``closing_smoothing``) that the search makes: build the images of the
    source's a/b/c cycles under ``edge_map`` as a word on the target ``g2``
    and check its closing smoothing there, for this one map."""
    mapped = tuple(CurveOnSurface(g2, x.name, tuple((edge_map[e][0], s * edge_map[e][1])
                                                    for e, s in curves1[x.name].walk))
                   for cs in fams1.values() for x in cs)
    replay = closing_smoothing(LefschetzFibration("mapped", 0, g2, mapped))
    return replay is None or replay[0]


# -- divides ------------------------------------------------------------------------


def components(divide: Divide):
    """The immersed curves of a divide as closed signed-edge walks.

    Each walk starts at its least edge, traversed forward; walks are ordered
    by that edge.  Every edge appears in exactly one walk.
    """
    nxt = divide.graph.rotation_next
    claimed = set()
    walks = []
    for e in divide.edges:
        if e in claimed:
            continue
        walk = []
        step = (e, 1)
        while True:
            walk.append(step)
            claimed.add(step[0])
            # the curve leaves through the slot opposite the arriving one
            depart = nxt(nxt((step[0], 1 if step[1] == 1 else 0)))
            step = (depart[0], 1 if depart[1] == 0 else -1)
            if step == (e, 1):
                break
        walks.append(tuple(walk))
    return tuple(walks)


def morse_data(divide: Divide) -> tuple[int, int, int]:
    """(minima, saddles, maxima) of the induced height function.

    One minimum per white face, one saddle per crossing, one maximum per
    black face; the alternating sum is the ambient Euler characteristic.
    """
    coloring = checkerboard_coloring(divide)
    return (len(coloring.white), len(divide.vertices), len(coloring.black))


# -- abelian groups -----------------------------------------------------------------


def cokernel(matrix: list[list[int]], ambient_rank: int) -> FinAbGroup:
    """Z^ambient_rank modulo the column span of the dense ``matrix``, by the
    package's sparse elimination on its rows."""
    if not matrix or not matrix[0]:
        return FinAbGroup.free(ambient_rank)
    if len(matrix) != ambient_rank:
        raise ValueError("matrix rows must match ambient rank")
    rows = [{j: x for j, x in enumerate(r) if x} for r in matrix]
    return _cokernel_from_diagonal(_sparse_snf_diagonal(rows), ambient_rank)


def _bordered_presentation(n: int, classes, pair) -> list[dict[int, int]]:
    """Sparse rows of B = [[0, C], [-C^T, (I - U)^T]], (n + m) x (n + m), the
    presentation of boundary H1 that ``fibration_homology`` reduces without
    building it.  (I - U)^T is unitriangular, so unimodular row and column
    operations turn B into diag(R, I_m), with R the arc relations of
    ``monodromy_arc_relations``: coker B = coker R.

    ``classes`` are the m columns of C as sparse ``{row: entry}`` maps with
    rows below n and no zero entries, and U_jk is ``pair[j][k]`` for j < k;
    entries on and below the diagonal of ``pair`` are not read.
    """
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for k, col in enumerate(classes):
        row = {n + k: 1}
        for i, x in col.items():
            rows[i][n + k] = x
            row[i] = -x
        for j in range(k):
            if pair[j][k]:
                row[n + j] = -pair[j][k]
        rows.append(row)
    return rows
