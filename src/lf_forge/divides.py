"""Immersed curve systems on closed oriented surfaces, crossings only.

A divide is the image of a curve system whose only singularities are
transverse double points.  It is stored as an untwisted 4-valent ribbon
graph: crossings are vertices, the arcs between consecutive crossings are
edges, and each crossing lists its four half-edge slots counterclockwise.
The curves themselves are recovered by entering a crossing and leaving
through the opposite slot.  The complementary faces are the boundary circles
of the graph's thickening; capping them with disks gives the closed oriented
ambient surface, whose genus is the thickening's.

Admissibility asks for connectedness plus a checkerboard coloring of the
faces.  The coloring decides, downstream, which corners of each crossing
carry band attachments in the fiber construction.
"""

from __future__ import annotations

from .ribbon import (Record, RibbonGraph, SurfaceError, check_graph_arguments, checked_count, checked_kind, json_field,
                     json_records, json_schema)


class DivideError(ValueError):
    """Input does not describe a valid divide."""


class ColoringError(DivideError):
    """The faces of the divide admit no checkerboard coloring."""


VALENCE = 4


class Divide:
    """Immutable divide: an untwisted 4-valent ``RibbonGraph``, ``graph``.

    ``rotation`` maps each crossing to its four half-edges in counterclockwise
    order, and every half-edge (e, 0), (e, 1) must occur exactly once overall.
    The graph validates that and holds the dart tables; the faces are
    the boundary circles of its thickening, ``graph.faces()``; each dart's
    face is read from the graph's boundary trace (``graph._boundary()``).
    ``standard_divide`` links its darts straight through ``_linked``; ids
    and the on-request ``rotation`` view are the graph's.
    """

    def __init__(self, vertices, edges, rotation):
        try:
            check_graph_arguments(vertices, edges, rotation)
            vertices = tuple(vertices)
            if not vertices:
                raise DivideError("empty divide description")
            # before the graph's checks: an odd crossing also leaves a half-edge
            # unpaired, and the graph would name only that
            if set(rotation) == set(vertices):
                for v in sorted(rotation, key=str):  # a non-string id, or unsized slots, are the graph's to name
                    if hasattr(rotation[v], "__len__") and len(rotation[v]) != VALENCE:
                        raise DivideError(f"crossing {v!r} has {len(rotation[v])} slots, "
                                          f"divides need exactly {VALENCE}")
            self.graph = RibbonGraph(vertices, edges, rotation)
        except SurfaceError as exc:  # the divide's own DivideErrors are no SurfaceError and pass through
            raise DivideError(str(exc)) from exc

    @classmethod
    def _linked(cls, vertices, edges, darts, eid) -> "Divide":
        """The divide on ``RibbonGraph._linked``'s untwisted graph; each crossing must list four darts."""
        divide = object.__new__(cls)
        divide.graph = RibbonGraph._linked(vertices, edges, darts, (), eid)
        return divide

    vertices = property(lambda self: self.graph.vertices)
    edges = property(lambda self: self.graph.edges)
    rotation = property(lambda self: self.graph.rotation)

    def euler_characteristic(self) -> int:
        """Of the closed surface: the graph's plus one disk per face."""
        return self.graph.euler_characteristic() + self.graph.num_boundary_components()

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "divide/1",
            "vertices": list(self.vertices),
            "edges": [
                {"id": e, "tail": self.graph.vertex_of((e, 0)), "head": self.graph.vertex_of((e, 1))}
                for e in self.edges
            ],
            "rotation": {v: [RibbonGraph.half_edge_id(h) for h in self.rotation[v]] for v in self.vertices},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Divide":
        """Parse a ``divide/1`` document through ``ribbon.json_field`` and,
        for the edges, ``json_records``; every fault raises DivideError."""
        try:
            json_schema(doc, "divide/1")
            vertices = json_field(doc, "vertices", list, "divide", str)
            edges, tails, heads = json_records(json_field(doc, "edges", list, "divide", dict), "divide edge",
                                               ("id", str, None), ("tail", str, None), ("head", str, None))
            rotation = json_field(doc, "rotation", dict, "divide")
            parsed = {v: [RibbonGraph.parse_half_edge(h) for h in json_field(rotation, v, list, "divide rotation", str)]
                      for v in rotation}
        except SurfaceError as exc:
            raise DivideError(str(exc)) from exc
        divide = cls(vertices, edges, parsed)
        for e, tail, head in zip(edges, tails, heads):
            if divide.graph.edge_endpoints(e) != (tail, head):
                raise DivideError(f"edge {e!r} endpoints disagree with rotation placement")
        return divide

    def to_text(self) -> str:
        """One line per crossing: ``vertex: h h h h`` counterclockwise."""
        lines = [
            f"{v}: " + " ".join(RibbonGraph.half_edge_id(h) for h in self.rotation[v])
            for v in self.vertices
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Divide":
        """Parse the plain-text format; '#' comments and blank lines allowed."""
        if not isinstance(text, str):
            raise DivideError(f"divide text must be a string, got {type(text).__name__}")
        rotation = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, colon, rest = line.partition(":")
            v = name.strip()
            tokens = rest.split()
            if not colon or not v or len(tokens) != VALENCE:
                raise DivideError(f"expected 'vertex: h h h h', got {raw!r}")
            if v in rotation:
                raise DivideError(f"crossing {v!r} listed twice")
            try:
                rotation[v] = tuple(RibbonGraph.parse_half_edge(t) for t in tokens)
            except SurfaceError as exc:
                raise DivideError(str(exc)) from exc
        edges = {h[0] for rot in rotation.values() for h in rot}
        return cls(rotation.keys(), edges, rotation)

    def to_dot(self, name: str = "divide") -> str:
        return self.graph.to_dot(name)

    def __repr__(self):
        return f"Divide(V={len(self.vertices)}, E={len(self.edges)})"


# -- checkerboard coloring -----------------------------------------------------


class Checkerboard(Record):
    """Face indices split into the two color classes ``white`` and ``black``.

    White is, by convention, the class containing the face that holds the
    overall least half-edge.
    """

    __slots__ = ("white", "black")


def checkerboard_coloring(divide: Divide) -> Checkerboard:
    """2-color the faces so the two sides of every edge differ.

    Raises ColoringError when impossible, naming an odd closed chain of
    faces as the witness.  The two sides of edge k are the faces of darts
    2k and 2k + 1, read from the graph's boundary trace.
    """
    checked_kind(divide, Divide, "divide", DivideError)
    face, n = divide.graph._boundary()[1], divide.graph.num_boundary_components()
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for k, e in enumerate(divide.edges):
        i, j = face[2 * k], face[2 * k + 1]
        if i == j:
            raise ColoringError(f"face {i} touches both sides of edge {e!r}")
        adjacency[i].add(j)
        adjacency[j].add(i)
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in range(n):
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = [root]
        for u in queue:
            for w in sorted(adjacency[u]):
                if w not in color:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    raise ColoringError("odd face chain " + _odd_chain(parent, u, w))
    anchor = color[face[0]] if face else 0
    white = tuple(i for i in range(n) if color[i] == anchor)
    black = tuple(i for i in range(n) if color[i] != anchor)
    return Checkerboard(white, black)


def _odd_chain(parent: dict[int, int | None], u: int, w: int) -> str:
    def chain(x):
        out = [x]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    cu, cw = chain(u), chain(w)
    junction = None
    while cu and cw and cu[-1] == cw[-1]:
        junction = cu.pop()
        cw.pop()
    cycle = cu + [junction] + list(reversed(cw))
    return " - ".join(f"F{i}" for i in cycle)


# -- admissibility ----------------------------------------------------------------


class AdmissibilityReport(Record):
    """``check_admissible``'s counts, its ``coloring`` (a ``Checkerboard``, or
    None) and the ``problem`` that makes the divide inadmissible, or None."""

    __slots__ = ("connected", "crossings", "arcs", "faces", "euler", "ambient_genus", "coloring", "problem")

    @property
    def admissible(self) -> bool:
        return self.connected and self.coloring is not None


def check_admissible(divide: Divide) -> AdmissibilityReport:
    """Connectedness plus the checkerboard coloring, with the counts."""
    checked_kind(divide, Divide, "divide", DivideError)
    connected = divide.graph.is_connected()
    chi = divide.euler_characteristic()
    genus, coloring, problem = None, None, None
    if not connected:
        problem = "divide is not connected"
    else:
        genus = (2 - chi) // 2
        try:
            coloring = checkerboard_coloring(divide)
        except ColoringError as exc:
            problem = str(exc)
    return AdmissibilityReport(connected, len(divide.vertices), len(divide.edges),
                               divide.graph.num_boundary_components(), chi, genus, coloring, problem)


# -- the necklace family ----------------------------------------------------------


def standard_divide(genus: int) -> Divide:
    """Necklace divide filling the closed surface of the given genus.

    2g+2 circle components in a cyclic chain, consecutive ones crossing
    exactly once.  Crossing ``v{i}`` joins circle i to circle i+1 and lists
    its slots as (arriving a, departing a, arriving b, departing b), which
    yields four faces: two bounded by parallel strands (the white class) and
    two by alternating strands.
    """
    n = 2 * checked_count(genus) + 2
    w = len(str(n - 1))  # pad indices so id order equals cyclic order
    vertices = [f"v{i:0{w}d}" for i in range(n)]
    a = [f"a{i:0{w}d}" for i in range(n)]
    b = [f"b{i:0{w}d}" for i in range(n)]
    edges = sorted(a + b)
    eid = {e: k for k, e in enumerate(edges)}
    darts = {v: (2 * eid[a[i - 1]] + 1, 2 * eid[a[i]], 2 * eid[b[i - 1]] + 1, 2 * eid[b[i]])
             for i, v in enumerate(vertices)}
    return Divide._linked(vertices, edges, darts, eid)
