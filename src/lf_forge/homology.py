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

import weakref
from collections import deque

from .curves import CurveOnSurface, Step
from .ribbon import Record, RibbonGraph, SurfaceError


class DisconnectedError(SurfaceError):
    """Homology helpers here only handle connected surfaces."""


class Workspace:
    """Oriented homology workspace for one ribbon graph.

    Holds the normalized presentation, the lexicographic spanning tree and
    the co-tree basis, and evaluates the intersection pairing of edge-simple
    cycles by the pushed-off corner rule (``pairings``).  Certificates
    pair only the cycles they need that way; the Gram matrix of the whole
    basis is the pairing of the tests' class-level oracles, which they hold
    the corner rule against.  Cached weakly on the graph instance
    (``workspace``); treat as read-only.
    """

    def __init__(self, surface: RibbonGraph):
        if not surface.is_connected():
            raise DisconnectedError("homology requires a connected surface")
        self.graph = surface
        self.norm = surface.normalized()  # raises NonOrientableError if needed
        # Lexicographically greedy spanning tree: scan edge ids in order and
        # keep every edge joining two components (Kruskal).
        root = {v: v for v in self.norm.vertices}

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        self.tree: set[str] = set()
        for e in self.norm.edges:
            t, h = self.norm.edge_endpoints(e)
            rt, rh = find(t), find(h)
            if rt != rh:
                root[rt] = rh
                self.tree.add(e)
        self.basis: tuple[str, ...] = tuple(e for e in self.norm.edges if e not in self.tree)
        self.index = {e: i for i, e in enumerate(self.basis)}
        self._tree_adj: dict[str, list[tuple[str, str]]] | None = None  # built by the first tree_path
        self._gram: list[list[int]] | None = None

    # -- basis cycles -------------------------------------------------------

    def tree_path(self, a: str, b: str) -> list[Step]:
        """Steps along tree edges from vertex a to vertex b."""
        if self._tree_adj is None:
            self._tree_adj = {v: [] for v in self.norm.vertices}
            for e in self.tree:
                t, h = self.norm.edge_endpoints(e)
                self._tree_adj[t].append((e, h))
                self._tree_adj[h].append((e, t))
            for adj in self._tree_adj.values():
                adj.sort()
        prev: dict[str, tuple[str, str]] = {a: ("", "")}
        queue = deque([a])
        while queue:
            v = queue.popleft()
            if v == b:
                break
            for e, w in self._tree_adj[v]:
                if w not in prev:
                    prev[w] = (e, v)
                    queue.append(w)
        steps: list[Step] = []
        v = b
        while v != a:
            e, u = prev[v]
            steps.append((e, 1 if self.norm.edge_endpoints(e) == (u, v) else -1))
            v = u
        steps.reverse()
        return steps

    def basis_cycle(self, edge: str) -> CurveOnSurface:
        """Fundamental cycle of a co-tree edge: the edge plus the tree path
        closing it up."""
        if edge not in self.index:
            raise SurfaceError(f"{edge!r} is not a basis (co-tree) edge")
        t, h = self.norm.edge_endpoints(edge)
        walk = [(edge, 1)] + self.tree_path(h, t)
        return CurveOnSurface(self.graph, f"z[{edge}]", tuple(walk))

    def _corner_crossings(self, walks, push: bool):
        """The corner rule: yield (i, t, j, u, sign) for every crossing of
        the pass of walk i after its step t with the pass of walk j != i
        after its step u at a common vertex.

        Each pass is the chord from a step's arriving half-edge to the next
        step's departing one; chords are grouped by vertex once.  The marked
        points of a vertex disk with d attachments are numbered 0..3d-1
        counterclockwise: the attachment at rotation position k is 3k + 1,
        with 3k just before it and 3k + 2 just after it.  The chord of the
        pass u is pushed off to the right of its own direction when ``push``
        (it starts just after its arrival and ends just before its
        departure).  The sign is +1 when it crosses t's chord from that
        chord's right to its left.
        """
        pos, dv = self.norm._dpos, self.norm._dv
        q_in, q_out = (2, 0) if push else (1, 1)
        at: dict[str, list] = {}
        for i, walk in enumerate(walks):
            heads = self.norm.head_darts(walk)
            for t, (head, nxt) in enumerate(zip(heads, heads[1:] + heads[:1])):
                a, d = 3 * pos[head], 3 * pos[nxt ^ 1]
                at.setdefault(dv[head], []).append((i, t, a + 1, d + 1, a + q_in, d + q_out))
        rotation = self.norm.rotation
        for v, chords in at.items():
            if len(chords) < 2:
                continue
            n = 3 * len(rotation[v])
            for i, p, pi, po, _, _ in chords:
                r_out = (po - pi) % n
                for j, q, _, _, qi, qo in chords:
                    if j == i:
                        continue
                    r_qin = (qi - pi) % n
                    r_qout = (qo - pi) % n
                    if 0 < r_qin < r_out < r_qout:
                        yield i, p, j, q, 1
                    elif 0 < r_qout < r_out < r_qin:
                        yield i, p, j, q, -1

    def pairings(self, curves, push: bool = True) -> list[dict[int, int]]:
        """Intersection pairing of edge-simple closed curves on this surface,
        as sparse rows: ``rows[i][j]`` is <curve i, curve j> for each pair
        that crosses at all; the other pairs pair to 0 and have no entry.

        Entry (i, j) counts signed crossings of curve i with a copy of curve
        j pushed off to the right of its own direction; shared segments stay
        parallel inside the bands, so only vertex corners contribute.  The
        diagonal is zero.  With ``push`` false the copies are not pushed off,
        which counts the crossings of walks that share no edges.  The pairing
        must be antisymmetric; the first pair (i < j, row by row) that is not
        is raised.
        """
        rows: list[dict[int, int]] = [{} for _ in curves]
        for i, _, j, _, s in self._corner_crossings([c.walk for c in curves], push):
            row = rows[i]
            row[j] = row.get(j, 0) + s
        bad = [(min(i, j), max(i, j)) for i, row in enumerate(rows)
               for j, x in row.items() if rows[j].get(i, 0) != -x]
        if bad:
            i, j = min(bad)
            x, y = curves[i].name, curves[j].name
            raise SurfaceError(
                f"intersection pairing failed antisymmetry: "
                f"<{x!r}, {y!r}> = {rows[i].get(j, 0)} but <{y!r}, {x!r}> = {rows[j].get(i, 0)}"
            )
        return rows

    def pairing_matrix(self, curves, push: bool = True) -> list[list[int]]:
        """``pairings`` as a dense matrix."""
        m = [[0] * len(curves) for _ in curves]
        for i, row in enumerate(self.pairings(curves, push)):
            for j, x in row.items():
                m[i][j] = x
        return m

    def gram_matrix(self) -> list[list[int]]:
        """Intersection pairing of the basis cycles."""
        if self._gram is None:
            self._gram = self.pairing_matrix([self.basis_cycle(e) for e in self.basis])
        return self._gram


def workspace(surface: RibbonGraph) -> Workspace:
    """The surface's ``Workspace``, cached weakly: the workspace holds the
    surface, so a strong cache entry would make a reference cycle.  It lives
    as long as a caller holds it."""
    ref = surface._cache.get("homology")
    ws = ref() if ref is not None else None
    if ws is None:
        ws = Workspace(surface)
        surface._cache["homology"] = weakref.ref(ws)
    return ws


class HomologyClass(Record):
    """Element of H1 of the thickened surface in the co-tree basis."""

    __slots__ = ("host", "vector")

    def __init__(self, host: RibbonGraph, vector: tuple[int, ...]):
        n = len(workspace(host).basis)
        if len(vector) != n:
            raise SurfaceError(f"class vector has length {len(vector)}, basis has {n}")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "vector", vector)

    def _require_same_host(self, other: "HomologyClass"):
        if self.host is not other.host:
            raise SurfaceError("homology classes live on different surfaces")

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        self._require_same_host(other)
        return HomologyClass(self.host, tuple(a + b for a, b in zip(self.vector, other.vector)))

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        self._require_same_host(other)
        return HomologyClass(self.host, tuple(a - b for a, b in zip(self.vector, other.vector)))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.host, tuple(-a for a in self.vector))

    def scaled(self, k: int) -> "HomologyClass":
        return HomologyClass(self.host, tuple(k * a for a in self.vector))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.vector)


def homology_basis(surface: RibbonGraph) -> tuple[str, ...]:
    """Co-tree edges indexing the H1 basis, in lexicographic order."""
    return workspace(surface).basis


def curve_class(surface: RibbonGraph, curve: CurveOnSurface) -> HomologyClass:
    """Homology class of a closed walk."""
    if curve.host is not surface:
        raise SurfaceError("curve lives on a different surface")
    return class_from_steps(surface, curve.walk)


def class_from_steps(surface: RibbonGraph, steps) -> HomologyClass:
    """Net signed co-tree traversal counts of a sequence of steps."""
    ws = workspace(surface)
    vec = [0] * len(ws.basis)
    for e, s in steps:
        i = ws.index.get(e)
        if i is not None:
            vec[i] += s
    return HomologyClass(surface, tuple(vec))


def _sparse_class(surface: RibbonGraph, curve: CurveOnSurface) -> dict[int, int]:
    """``curve_class`` as a sparse ``{basis index: count}`` map without
    zero counts.  The caller checks the host."""
    index = workspace(surface).index
    counts: dict[int, int] = {}
    for e, s in curve.walk:
        i = index.get(e)
        if i is not None:
            counts[i] = counts.get(i, 0) + s
    return {i: x for i, x in counts.items() if x}
