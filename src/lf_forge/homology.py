"""First homology of an oriented thickened ribbon graph.

The surface deformation-retracts to its graph, so H1 is free on the co-tree
edges of a spanning tree.  The intersection pairing is evaluated at vertex
disks: every curve through a vertex is a chord of that disk, and two chords
cross according to how their endpoints interleave in the cyclic order.  When
two cycles share edges, one is pushed off to the right of its own direction
of travel; on an oriented, twist-free presentation this keeps shared bands
crossing-free and moves all decisions into the vertex disks, where arrival
endpoints land just after the attachment and departure endpoints just before
it.  All of this lives on the normalized (twist-free, globally
counterclockwise) presentation of the surface.
"""

from __future__ import annotations

from functools import cached_property

from .curves import CurveOnSurface, Step, checked_curves
from .ribbon import Record, RibbonGraph, SurfaceError, as_pairs, checked_kind


class DisconnectedError(SurfaceError):
    """Homology helpers here only handle connected surfaces."""


class _CornerSigns(dict):
    """The corner rule at vertices of degree ``n``: the sign of a pass q,
    arriving at rotation position qa and departing at qd, against a pass p at
    pa and pd, keyed by (pa * n + pd) * n * n + qa * n + qd.  A vertex disk's
    marked points are 0..3n-1 counterclockwise, 3k + 1 at attachment k with
    3k just before and 3k + 2 just after it.  p's chord runs between its
    attachments and q's, pushed off, from 3qa + 2 to 3qd: +1 when q's crosses
    p's from p's right to its left, -1 the other way, else 0.  Each sign is
    computed on first lookup: a table holds only the pairs met."""

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, key: int) -> int:
        n = self.n
        (pa, pd), (qa, qd) = (divmod(x, n) for x in divmod(key, n * n))
        m, start = 3 * n, 3 * pa + 1
        r_out = (3 * pd + 1 - start) % m
        r_qin, r_qout = (3 * qa + 2 - start) % m, (3 * qd - start) % m
        sign = self[key] = 1 if 0 < r_qin < r_out < r_qout else -1 if 0 < r_qout < r_out < r_qin else 0
        return sign


# By degree; kept for the process, as tables per pairing would recompute ~50 signs per certificate.
_CORNER_SIGNS: dict[int, _CornerSigns] = {}


def pairings(surface: RibbonGraph, curves) -> list[dict[int, int]]:
    """Intersection pairing of edge-simple closed curves on ``surface``, as
    sparse rows: ``rows[i][j]`` is <curve i, curve j>, the signed crossings
    of curve i with a copy of curve j pushed off to the right of its own
    direction, with no entry for 0.  Evaluated by the corner rule on the
    oriented presentation, from the darts each curve keeps: the passes are
    grouped by vertex once, and each pair's sign is looked up in the
    ``_CornerSigns`` of the vertex's degree.  It must be antisymmetric; the
    first pair (i < j, row by row) that is not is raised."""
    norm = surface.normalized()  # raises NonOrientableError if needed
    pos, dv, deg = norm._dpos, norm._dv, norm._deg
    at: dict[int, list] = {}  # vertex number -> (curve, pa * n + pd) of each pass there
    for i, c in enumerate(curves):
        heads = c._heads
        for head, nxt in zip(heads, heads[1:] + heads[:1]):
            v = dv[head]
            at.setdefault(v, []).append((i, pos[head] * deg[v] + pos[nxt ^ 1]))
    rows: list[dict[int, int]] = [{} for _ in curves]
    for v, chords in at.items():
        if len(chords) < 2:
            continue
        n = deg[v]
        signs = _CORNER_SIGNS[n] if n in _CORNER_SIGNS else _CORNER_SIGNS.setdefault(n, _CornerSigns(n))
        nn = n * n
        for i, cp in chords:
            row, cp = rows[i], cp * nn
            for j, cq in chords:
                if j != i:
                    s = signs[cp + cq]
                    if s:
                        if x := row.get(j, 0) + s:
                            row[j] = x
                        else:  # two passes that cancel leave no entry
                            del row[j]
    bad = [(min(i, j), max(i, j)) for i, row in enumerate(rows)
           for j, x in row.items() if rows[j].get(i, 0) != -x]
    if bad:
        i, j = min(bad)
        x, y = curves[i].name, curves[j].name
        raise SurfaceError(f"intersection pairing failed antisymmetry: "
                           f"<{x!r}, {y!r}> = {rows[i].get(j, 0)} but <{y!r}, {x!r}> = {rows[j].get(i, 0)}")
    return rows


def pairing_matrix(surface: RibbonGraph, curves) -> list[list[int]]:
    """``pairings`` as a dense matrix."""
    return [[row.get(j, 0) for j in range(len(curves))] for row in pairings(surface, curves)]


class Workspace:
    """One connected ribbon graph with its oriented presentation ``norm``
    and co-tree basis: ``_basis_index`` gives each edge number's position
    among the co-tree edges of the graph's ``spanning_forest``, -1 on its
    lexicographically greedy spanning tree, and ``rank`` their count.  The
    named views ``tree``, ``basis`` and ``index`` are built on request.  The
    Gram matrix of the whole basis is the pairing of the tests' class-level
    oracles.  Nothing caches a workspace: a caller that reads it more than
    once holds it.  Treat as read-only."""

    def __init__(self, surface: RibbonGraph):
        if not surface.is_connected():
            raise DisconnectedError("homology requires a connected surface")
        self.graph = surface
        self.norm = surface.normalized()  # raises NonOrientableError if needed
        self._basis_index = index = surface._forest()[2]
        self.rank = _rank(index)
        self._tree_adj: dict[str, list[tuple[str, int, str]]] | None = None  # built by the first tree_path

    tree = cached_property(lambda self: {e for e, i in zip(self.graph.edges, self._basis_index) if i < 0})
    basis = cached_property(lambda self: tuple([e for e, i in zip(self.graph.edges, self._basis_index) if i >= 0]))
    index = cached_property(lambda self: {e: i for e, i in zip(self.graph.edges, self._basis_index) if i >= 0})

    # -- basis cycles -------------------------------------------------------

    def tree_path(self, a: str, b: str) -> list[Step]:
        """Steps along tree edges from vertex a to vertex b, found breadth
        first with each vertex's tree edges in edge order."""
        if self._tree_adj is None:
            self._tree_adj = {v: [] for v in self.norm.vertices}
            for e in sorted(self.tree):
                t, h = self.norm.edge_endpoints(e)
                self._tree_adj[t].append((e, 1, h))
                self._tree_adj[h].append((e, -1, t))
        for v in (a, b):
            if not isinstance(v, str) or v not in self._tree_adj:  # vertex ids are strings
                raise SurfaceError(f"vertex {v!r} is not on the surface")
        prev: dict[str, tuple | None] = {a: None}
        queue = [a]
        for v in queue:
            if v == b:
                break
            for e, s, w in self._tree_adj[v]:
                if w not in prev:
                    prev[w] = (e, s, v)
                    queue.append(w)
        steps: list[Step] = []
        while prev[b] is not None:
            e, s, b = prev[b]
            steps.append((e, s))
        return steps[::-1]

    def basis_cycle(self, edge: str) -> CurveOnSurface:
        """Fundamental cycle of a co-tree edge: the edge plus the tree path
        closing it up."""
        if edge not in self.index:
            raise SurfaceError(f"{edge!r} is not a basis (co-tree) edge")
        t, h = self.norm.edge_endpoints(edge)
        walk = [(edge, 1)] + self.tree_path(h, t)
        return CurveOnSurface(self.graph, f"z[{edge}]", tuple(walk))

    def gram_matrix(self) -> list[list[int]]:
        """Intersection pairing of the basis cycles, computed on each call."""
        return pairing_matrix(self.graph, [self.basis_cycle(e) for e in self.basis])


def _rank(basis_index: list[int]) -> int:
    """The rank of H1: the co-tree edges of a ``_basis_index``."""
    return len(basis_index) - basis_index.count(-1)


def workspace(surface: RibbonGraph) -> Workspace:
    """A new ``Workspace`` of the surface; the one function that makes one,
    so that a trace can time it and read its size."""
    return Workspace(checked_kind(surface, RibbonGraph, "surface"))


class HomologyClass(Record):
    """Element of H1 of the thickened surface in the co-tree basis: a tuple
    of integers (``int``, no ``bool``), any sign.  The vector's length is
    checked against the host's cached spanning forest, without a
    workspace; ``class_from_steps`` builds one first, and that rejects a
    disconnected or non-orientable host."""

    __slots__ = ("host", "vector")

    def __init__(self, host: RibbonGraph, vector: tuple[int, ...]):
        n = _rank(checked_kind(host, RibbonGraph, "host")._forest()[2])
        if not isinstance(vector, tuple):
            raise SurfaceError(f"class vector must be a tuple, got {vector!r}")
        if len(vector) != n:
            raise SurfaceError(f"class vector has length {len(vector)}, basis has {n}")
        for x in vector:
            if not isinstance(x, int) or isinstance(x, bool):
                raise SurfaceError(f"class vector entry must be an integer, got {x!r}")
        super().__init__(host, vector)

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        if self.host is not other.host:
            raise SurfaceError("homology classes live on different surfaces")
        return HomologyClass(self.host, tuple(a + b for a, b in zip(self.vector, other.vector)))


def homology_basis(surface: RibbonGraph) -> tuple[str, ...]:
    """Co-tree edges indexing the H1 basis, in lexicographic order."""
    return workspace(surface).basis


def curve_class(surface: RibbonGraph, curve: CurveOnSurface) -> HomologyClass:
    """Homology class of a closed walk."""
    checked_kind(surface, RibbonGraph, "surface")
    checked_curves((checked_kind(curve, CurveOnSurface, "curve"),), surface, "curve")
    return class_from_steps(surface, curve.walk)


def class_from_steps(surface: RibbonGraph, steps) -> HomologyClass:
    """Net signed co-tree traversal counts of a sequence of steps, read by
    ``as_pairs`` and counted by edge name: the reference that the tests hold
    ``_sparse_class`` against.  A step off the surface, or with a sign other
    than +-1, raises SurfaceError as ``RibbonGraph.head_darts`` words it."""
    ws = workspace(surface)
    eid, index = surface._eid, ws.index
    vec = [0] * ws.rank
    for e, s in as_pairs(steps):
        if e not in eid or s != 1 and s != -1:
            raise SurfaceError(f"walk step ({e!r}, {s}) is not on the surface")
        if e in index:
            vec[index[e]] += s
    return HomologyClass(surface, tuple(vec))


def _sparse_class(basis_index: list[int], heads) -> dict[int, int]:
    """``curve_class`` of the walk that arrives on the darts ``heads``, as a
    sparse ``{basis index: count}`` map without zero counts, read through
    the host workspace's ``_basis_index``: dart d runs edge d >> 1, forward
    when d is odd.  The caller checks the host."""
    counts: dict[int, int] = {}
    for d in heads:
        i = basis_index[d >> 1]
        if i >= 0:
            counts[i] = counts.get(i, 0) + (1 if d & 1 else -1)
    return {i: x for i, x in counts.items() if x}
