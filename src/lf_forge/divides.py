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

from .ribbon import HalfEdge, Record, RibbonGraph, SurfaceError, json_field


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
    the boundary circles of its thickening.
    """

    def __init__(self, vertices, edges, rotation):
        vertices = tuple(vertices)
        if not vertices:
            raise DivideError("empty divide description")
        # before the graph's checks: an odd crossing also leaves a half-edge
        # unpaired, and the graph would name only that
        if set(rotation) == set(vertices):
            for v in sorted(rotation):
                if len(rotation[v]) != VALENCE:
                    raise DivideError(f"crossing {v!r} has {len(rotation[v])} slots, divides need exactly {VALENCE}")
        try:
            self.graph = RibbonGraph(vertices, edges, rotation)
        except SurfaceError as exc:
            raise DivideError(str(exc)) from exc
        self.vertices, self.edges, self.rotation = self.graph.vertices, self.graph.edges, self.graph.rotation
        self._cache = {}

    # -- faces -----------------------------------------------------------------

    def faces(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Complementary disks: the boundary circles of the graph's
        thickening, ``RibbonGraph.faces``.  Each orbit of next-after-partner
        starts at its least half-edge and the orbits come sorted, so face
        indices are canonical.
        """
        return self.graph.faces()

    def face_of(self, half_edge: HalfEdge) -> int:
        if "face_of" not in self._cache:
            self._cache["face_of"] = {h: i for i, orbit in enumerate(self.faces()) for h in orbit}
        try:
            return self._cache["face_of"][half_edge]
        except (KeyError, TypeError):  # not a half-edge of this divide, or unhashable
            raise DivideError(f"no half-edge {half_edge!r} in the divide") from None

    def corner_face(self, vertex: str, slot: int) -> int:
        """Face filling the corner between ``slot`` and the next slot."""
        try:
            rot = self.rotation[vertex]
        except (KeyError, TypeError):  # not a crossing of this divide, or unhashable
            raise DivideError(f"no crossing {vertex!r} in the divide") from None
        if type(slot) is not int or not 0 <= slot < VALENCE:
            raise DivideError(f"slot {slot!r} is not one of 0..{VALENCE - 1}")
        return self.face_of(rot[(slot + 1) % VALENCE])

    def euler_characteristic(self) -> int:
        """Of the closed surface: the graph's plus one disk per face."""
        return self.graph.euler_characteristic() + len(self.faces())

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
        """Parse a ``divide/1`` document.  Fields are validated by
        ``ribbon.json_field``; every fault raises DivideError."""
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != "divide/1":
            raise DivideError(f"unsupported schema {schema!r}")
        try:
            vertices = json_field(doc, "vertices", list, "divide", str)
            records = json_field(doc, "edges", list, "divide", dict)
            edges = [json_field(rec, "id", str, "divide edge") for rec in records]
            declared = [tuple(json_field(rec, k, str, f"divide edge {e!r}") for k in ("tail", "head"))
                        for e, rec in zip(edges, records)]
            rotation = json_field(doc, "rotation", dict, "divide")
            parsed = {v: [RibbonGraph.parse_half_edge(h) for h in json_field(rotation, v, list, "divide rotation", str)]
                      for v in rotation}
        except SurfaceError as exc:
            raise DivideError(str(exc)) from exc
        divide = cls(vertices, edges, parsed)
        for e, ends in zip(edges, declared):
            if divide.graph.edge_endpoints(e) != ends:
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
    """Face indices split into the two color classes.

    White is, by convention, the class containing the face that holds the
    overall least half-edge.
    """

    __slots__ = ("white", "black")

    def __init__(self, white: tuple[int, ...], black: tuple[int, ...]):
        object.__setattr__(self, "white", white)
        object.__setattr__(self, "black", black)

    def color_of(self, face: int) -> str:
        if face in self.white:
            return "white"
        if face in self.black:
            return "black"
        raise DivideError(f"no face {face!r}")


def checkerboard_coloring(divide: Divide) -> Checkerboard:
    """2-color the faces so the two sides of every edge differ.

    Raises ColoringError when impossible, naming an odd closed chain of
    faces as the witness.  The coloring is cached on the divide, as its
    faces are on its graph; an error is not.
    """
    if "coloring" in divide._cache:
        return divide._cache["coloring"]
    faces = divide.faces()
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(faces))}
    for e in divide.edges:
        i = divide.face_of((e, 0))
        j = divide.face_of((e, 1))
        if i == j:
            raise ColoringError(f"face {i} touches both sides of edge {e!r}")
        adjacency[i].add(j)
        adjacency[j].add(i)
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in range(len(faces)):
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
    anchor = color[divide.face_of((divide.edges[0], 0))] if divide.edges else 0
    white = tuple(i for i in range(len(faces)) if color[i] == anchor)
    black = tuple(i for i in range(len(faces)) if color[i] != anchor)
    result = Checkerboard(white, black)
    divide._cache["coloring"] = result
    return result


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
    __slots__ = ("connected", "crossings", "arcs", "faces", "euler", "ambient_genus", "colorable", "problem")

    def __init__(self, connected: bool, crossings: int, arcs: int, faces: int, euler: int,
                 ambient_genus: int | None, colorable: bool, problem: str | None = None):
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "ambient_genus", ambient_genus)
        object.__setattr__(self, "colorable", colorable)
        object.__setattr__(self, "problem", problem)

    @property
    def admissible(self) -> bool:
        return self.connected and self.colorable


def check_admissible(divide: Divide) -> AdmissibilityReport:
    """Connectedness plus checkerboard colorability, with the counts."""
    connected = divide.graph.is_connected()
    faces = divide.faces()
    chi = divide.euler_characteristic()
    genus = None
    colorable = False
    problem = None
    if not connected:
        problem = "divide is not connected"
    else:
        genus = (2 - chi) // 2
        try:
            checkerboard_coloring(divide)
            colorable = True
        except ColoringError as exc:
            problem = str(exc)
    return AdmissibilityReport(
        connected=connected,
        crossings=len(divide.vertices),
        arcs=len(divide.edges),
        faces=len(faces),
        euler=chi,
        ambient_genus=genus,
        colorable=colorable,
        problem=problem,
    )


# -- the necklace family ----------------------------------------------------------


def standard_divide(genus: int) -> Divide:
    """Necklace divide filling the closed surface of the given genus.

    2g+2 circle components in a cyclic chain, consecutive ones crossing
    exactly once.  Crossing ``v{i}`` joins circle i to circle i+1 and lists
    its slots as (arriving a, departing a, arriving b, departing b), which
    yields four faces: two bounded by parallel strands (the white class) and
    two by alternating strands.
    """
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")
    n = 2 * genus + 2
    w = len(str(n - 1))  # pad indices so id order equals cyclic order
    vertices = [f"v{i:0{w}d}" for i in range(n)]
    a = [f"a{i:0{w}d}" for i in range(n)]
    b = [f"b{i:0{w}d}" for i in range(n)]
    rotation = {v: ((a[i - 1], 1), (a[i], 0), (b[i - 1], 1), (b[i], 0)) for i, v in enumerate(vertices)}
    return Divide(vertices, a + b, rotation)
