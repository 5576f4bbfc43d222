"""Test oracles: reference versions of what the package computes another way.

No command runs any of these.  Each one traces or enumerates directly
(boundary walks one state at a time, the spanning tree over vertex names,
corner signs from chords drawn on the circle, the pairing of classes through
the Gram matrix of the basis, Dehn twists on classes and on walks, the
closing smoothing on the mapped word, divide curves one crossing at a time),
so the tests can hold the package's faster or more indirect code against it.
"""

import math
from fractions import Fraction

from lf_forge.builders import LefschetzFibration, closing_smoothing
from lf_forge.curves import CurveOnSurface
from lf_forge.divides import Divide, checkerboard_coloring
from lf_forge.homology import HomologyClass, _sparse_class, curve_class, pairing_matrix, workspace
from lf_forge.invariants import FinAbGroup, _cokernel_from_diagonal, _sparse_snf_diagonal
from lf_forge.ribbon import RibbonGraph, SurfaceError


class TransversalityError(SurfaceError):
    """Two objects share an edge traversal where a crossing rule needs them
    to meet only at vertices.  Refine one of them off the shared band."""


# -- ribbon graphs ------------------------------------------------------------------

# Boundary-walk states are (half_edge, side).  Side 0 is the band side that
# meets the corner *before* the attachment in the vertex's cyclic order, side 1
# the one after.  A state means "enter the band of this half-edge at this side".
SIDE_R = 0
SIDE_L = 1


def partner(half_edge):
    """The other end of ``half_edge``'s edge: (e, 1 - i) for (e, i)."""
    e, i = half_edge
    return (e, 1 - i)


def signed_edge_id(step) -> str:
    """The token of a walk step: ``e`` for (e, +1), ``-e`` for (e, -1)."""
    e, s = step
    return e if s > 0 else f"-{e}"


def rotation_next(g: RibbonGraph, half_edge):
    """The half-edge after ``half_edge`` in its vertex's rotation."""
    return g._half[g._dn[g._dart(half_edge)]]


def rotation_prev(g: RibbonGraph, half_edge):
    """The half-edge before ``half_edge`` in its vertex's rotation."""
    return g._half[g._dp[g._dart(half_edge)]]


def _advance(g: RibbonGraph, state):
    """One step of the boundary walk.

    Entering the band of half-edge h at side R runs along the side that
    (untwisted) exits at the partner's L end, after which the walk wraps
    the next corner counterclockwise; a twist swaps the exit side and
    reverses the corner direction.  The map is a bijection on states.
    """
    h, side = state
    k = partner(h)
    twisted = h[0] in g.twists
    if side == SIDE_R:
        if not twisted:
            return (rotation_next(g, k), SIDE_R)
        return (rotation_prev(g, k), SIDE_L)
    if not twisted:
        return (rotation_prev(g, k), SIDE_L)
    return (rotation_next(g, k), SIDE_R)


def _reverse_state(g: RibbonGraph, state):
    """The same band side entered from its other end."""
    h, side = state
    k = partner(h)
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
    eps = g.local_orientations()
    rotation = {v: rot if eps[v] == 1 else rot[::-1] for v, rot in g.rotation.items()}
    return RibbonGraph(g.vertices, g.edges, rotation, ())


# -- steps of walks -----------------------------------------------------------------


def reversed_step(step):
    """The step along the same edge the other way."""
    return (step[0], -step[1])


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


def edge_set(curve: CurveOnSurface) -> frozenset:
    """The edge ids that ``curve`` runs along."""
    return frozenset(e for e, _ in curve.walk)


def rebased(curve: CurveOnSurface, index: int):
    """The cyclic walk of ``curve`` starting at step ``index``."""
    return curve.walk[index:] + curve.walk[:index]


# -- homology classes and Dehn twists ---------------------------------------------


def scaled(x: HomologyClass, k: int) -> HomologyClass:
    """The class k x."""
    return HomologyClass(x.host, tuple(k * a for a in x.vector))


def is_zero(x: HomologyClass) -> bool:
    """Whether every coordinate of x is 0."""
    return not any(x.vector)


def lexicographic_tree(surface: RibbonGraph) -> tuple[set, tuple, dict]:
    """The reference for the spanning forest of ``ribbon.spanning_forest``
    and ``homology.Workspace``: scan the edge ids in order and keep every
    edge whose ends lie in different components, the components kept as a
    union-find over vertex names.  Twist bits play no part, and orienting
    moves no edge end.  Returns (tree, basis, index) as the workspace names
    them."""
    root = {v: v for v in surface.vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree = set()
    for e in surface.edges:
        t, h = surface.edge_endpoints(e)
        rt, rh = find(t), find(h)
        if rt != rh:
            root[rt] = rh
            tree.add(e)
    basis = tuple(e for e in surface.edges if e not in tree)
    return tree, basis, {e: i for i, e in enumerate(basis)}


def chord_crossing(n: int, push: bool, pa: int, pd: int, qa: int, qd: int) -> int:
    """The reference for one corner-rule sign, by plane geometry: the 3n
    marked points of a vertex of degree n sit evenly on the unit circle,
    counterclockwise, attachment k at point 3k + 1.  Pass p is the segment
    from its arriving attachment pa to its departing one pd; pass q runs
    from just after qa (3qa + 2) to just before qd (3qd) when ``push``, else
    between the attachments.  Segments that share an end or do not meet give
    0; else +1 when q starts on the right of p (seen along p), -1 when on its
    left."""
    m = 3 * n
    ends = [3 * pa + 1, 3 * pd + 1, *((3 * qa + 2, 3 * qd) if push else (3 * qa + 1, 3 * qd + 1))]
    if len({k % m for k in ends}) < 4:
        return 0
    (px, py), (qx, qy), (rx, ry), (sx, sy) = [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m))
                                              for k in ends]

    def side(ax, ay, bx, by, cx, cy):  # > 0 when c lies left of the line from a to b
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    s_in, s_out = side(px, py, qx, qy, rx, ry), side(px, py, qx, qy, sx, sy)
    if s_in * s_out > 0 or side(rx, ry, sx, sy, px, py) * side(rx, ry, sx, sy, qx, qy) > 0:
        return 0
    return 1 if s_in < 0 else -1


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
    return x + scaled(c, algebraic_intersection(surface, x, c))


def _crossings_with_curve(surface: RibbonGraph, path: CurveOnSurface, curve: CurveOnSurface):
    """All signed (pass index in host walk, detour steps) crossings of a
    closed walk's vertex passes with an edge-simple closed curve: each pass
    is the chord between its rotation positions on the reference oriented
    presentation, and two passes at one vertex cross by ``chord_crossing``,
    neither pushed off."""
    norm = normalized(surface)
    pos = half_edge_tables(norm)[3]

    def passes(c):
        """(vertex, arriving position, departing position) per pass."""
        walk = c.walk
        return [(step_head(surface, st), pos[step_head_half(st)], pos[step_tail_half(nxt)])
                for st, nxt in zip(walk, walk[1:] + walk[:1])]

    out = []
    curve_passes = passes(curve)
    for t, (v, pa, pd) in enumerate(passes(path)):
        for u, (w, qa, qd) in enumerate(curve_passes):
            s = chord_crossing(len(norm.rotation[v]), False, pa, pd, qa, qd) if v == w else 0
            if s:
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
    shared = edge_set(path) & edge_set(curve)
    if shared:
        raise TransversalityError(
            f"walk shares edges {sorted(shared)} with twist curve {curve.name!r}; "
            "refine the walk off those bands first"
        )
    by_idx: dict[int, list] = {}
    for host_idx, _, detour in _crossings_with_curve(surface, path, curve):
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
    def nxt(h):
        return rotation_next(divide.graph, h)

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


# -- the total space ----------------------------------------------------------------


def intersection_form(fiber: RibbonGraph, word) -> list[list[int]]:
    """The intersection form of the total space, whose 2-handles are
    attached along ``word`` with page framing -1 (Gompf-Stipsicz, section
    8.2), on the basis of H2 that the peel leaves: the word's classes are
    peeled by ``_sparse_snf_diagonal`` with ops from the identity, and each
    row that ends with no entry and no pivot gives its ops row v, so
    C v = 0.  Q(v, w) = -sum v_i w_i + sum_{i<j} v_i w_j P_ij, with P the
    word's pairing matrix.  A row left in the residue, whose kernel the peel
    does not give, and a form that is not symmetric raise ValueError."""
    index = workspace(fiber)._basis_index
    rows = [_sparse_class(index, c._heads) for c in word]
    ops = [{i: 1} for i in range(len(rows))]
    _sparse_snf_diagonal(rows, ops)
    if any(rows):
        raise ValueError("the peel left a residue: its kernel needs smith_normal_form's operations")
    n = len(rows)
    basis = [[op.get(i, 0) for i in range(n)] for op in ops if op]
    p = pairing_matrix(fiber, word)

    def q(v, w):
        return -sum(x * y for x, y in zip(v, w)) + sum(v[i] * w[j] * p[i][j] for i in range(n) for j in range(i + 1, n))

    form = [[q(v, w) for w in basis] for v in basis]
    if any(form[i][j] != form[j][i] for i in range(len(form)) for j in range(i)):
        raise ValueError(f"the intersection form is not symmetric: {form}")
    return form


def self_intersection(fib: LefschetzFibration) -> int:
    """Q(v, v) of the generator v of H2 of the total space: the 1 x 1
    ``intersection_form``, so H2 must be Z.  DT*Sigma_g has Q(v, v) =
    2g - 2, the tangent disk bundle 2 - 2g."""
    ((q,),) = intersection_form(fib.fiber, fib.word)
    return q


def lattice(form: list[list[int]]) -> dict:
    """The rank, signature, nullity, parity and |det| of the symmetric
    integer matrix ``form``, by symmetric elimination over the rationals.
    Each step pivots on a nonzero diagonal entry of what is left, clearing
    its row and column; when every diagonal entry left is 0 but some entry
    a_ij is not, row and column j are first added to i, which puts 2 a_ij on
    the diagonal.  These are congruences of determinant 1, so the pivots'
    signs count the positive and negative eigenvalues (Sylvester's law of
    inertia) and their product is det; the rows left once every entry left
    is 0 span the radical, and their count is the nullity.  The form is even
    when every diagonal entry Q(v, v) is."""
    a = [[Fraction(x) for x in row] for row in form]
    live, pivots = list(range(len(a))), []
    while live:
        p = next((i for i in live if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break
            p, j = pair
            for k in live:
                a[p][k] += a[j][k]
            for k in live:
                a[k][p] += a[k][j]
        live.remove(p)
        d = a[p][p]
        pivots.append(d)
        for i in live:
            f = a[i][p] / d
            for k in live:
                a[i][k] -= f * a[p][k]
    det = math.prod(pivots) if not live else 0
    return {"rank": len(a), "signature": sum(d > 0 for d in pivots) - sum(d < 0 for d in pivots),
            "nullity": len(live), "even": all(row[i] % 2 == 0 for i, row in enumerate(form)), "det": abs(int(det))}


# -- stabilization ------------------------------------------------------------------


def stabilize(fib: LefschetzFibration, rng) -> LefschetzFibration:
    """A positive stabilization of ``fib`` (ROADMAP item 25), which changes
    neither the total space nor its boundary.  On the twist-free
    ``normalized()`` page, a new edge goes in at two corners of one boundary
    orbit of ``_boundary()``, its end 0 at the corner after orbit dart a and
    its end 1 after dart b; the new cycle runs the edge forward, then the
    orbit's darts from b + 1 back to a.  A pair whose stretch repeats an
    edge is skipped, so the cycle is edge-simple.  ``rng`` picks the pair
    and the cycle's place in the word."""
    page = fib.fiber.normalized()
    half = page._half
    pairs = [(orbit, a, b) for orbit in page._boundary()[0] for a in range(len(orbit)) for b in range(len(orbit))
             if a != b and len({d >> 1 for d in _stretch(orbit, b, a)}) == (a - b) % len(orbit)]
    orbit, a, b = rng.choice(pairs)
    new = "stab" + "~" * max(map(len, page.edges))  # longer than, so unlike, every edge id
    rotation = {v: [half[d] for d in ds] for v, ds in zip(page.vertices, page._darts())}
    for corner, end in ((a, 0), (b, 1)):
        arrived = half[orbit[corner] ^ 1]
        rot = rotation[page.vertex_of(arrived)]
        rot.insert(rot.index(arrived) + 1, (new, end))
    fiber = RibbonGraph(page.vertices, page.edges + (new,), rotation)
    walk = ((new, 1),) + tuple((page.edges[d >> 1], -1 if d & 1 else 1) for d in _stretch(orbit, b, a))
    word = [CurveOnSurface(fiber, c.name, c.walk) for c in fib.word]
    word.insert(rng.randrange(len(word) + 1), CurveOnSurface(fiber, f"s{len(word)}", walk))
    return LefschetzFibration(fib.construction, fib.genus, fiber, tuple(word))


def _stretch(orbit: list[int], b: int, a: int) -> list[int]:
    """The orbit's darts from position b + 1 on, cyclically, through a."""
    n = len(orbit)
    return [orbit[(b + 1 + k) % n] for k in range((a - b) % n)]
