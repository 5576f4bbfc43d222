"""Ribbon graphs with twist bits and the compact surfaces they thicken into.

A ribbon graph is a finite graph together with a cyclic order of half-edge
attachments around every vertex and a twist bit per edge.  Thickening vertices
to disks and edges to (half-twisted, when flagged) bands produces a compact
surface with boundary.  Orientability is read off the twist bits and the
edge ends alone (``orientation_signs``).  The boundary circles, and with them
the boundary count and genus, are traced on the oriented presentation
(``normalized``), so only an orientable surface has them; a non-orientable
one raises NonOrientableError.

Half-edges are pairs ``(edge_id, end)`` with ``end`` 0 or 1.  Traversing an
edge "forward" (sign +1) runs from end 0 to end 1.
"""

from __future__ import annotations


class SurfaceError(ValueError):
    """Input does not describe the object an operation requires."""


class NonOrientableError(SurfaceError):
    """Raised by operations defined only over oriented surfaces."""


HalfEdge = tuple[str, int]


def as_pairs(items) -> tuple:
    """``items`` as a tuple of ``(str, int)`` pairs; a tuple or list of
    exactly such tuples, as every producer here builds, is not rebuilt."""
    if type(items) is tuple or type(items) is list:
        for x in items:
            if type(x) is not tuple:
                break
            a, b = x  # a wrong length raises what the rebuild would raise
            if type(a) is not str or type(b) is not int:
                break
        else:
            return tuple(items)
    return tuple([(str(a), int(b)) for a, b in items])


_JSON_TYPE_NAMES = {
    str: "a string", int: "an integer", bool: "a boolean", list: "a list", dict: "an object",
}


def json_field(doc, key: str, kind: type, where: str, item: type | None = None):
    """``doc[key]`` of JSON type ``kind`` (a list whose entries are ``item``
    when given).  A non-object document or a missing or mistyped field
    raises SurfaceError naming ``where``."""
    if not isinstance(doc, dict):
        raise SurfaceError(f"{where} must be an object, got {type(doc).__name__}")
    if key not in doc:
        raise SurfaceError(f"{where} is missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise SurfaceError(f"{where} field {key!r} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    if item is not None:
        for x in value:
            if not isinstance(x, item):
                raise SurfaceError(
                    f"{where} field {key!r} has an entry that is not {_JSON_TYPE_NAMES[item]}: {x!r}"
                )
    return value


class Record:
    """Base of the package's immutable record types.

    A record lists its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, and its ``__init__`` writes them through
    ``object.__setattr__``; assigning or deleting a field afterwards raises
    AttributeError.  Records are equal, and hash alike, when they have the
    same type and equal fields, and repr as ``Name(field=value, ...)``.
    The methods are written out once here rather than generated per class
    at import: generating them loads ``inspect`` and ``ast`` and runs
    dozens of ``exec`` calls, which cost every short CLI process more than
    the work of most of its commands.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class SurfaceInvariants(Record):
    """Homeomorphism data of the thickened surface, which is orientable:
    ``RibbonGraph.invariants`` raises on a non-orientable one."""

    __slots__ = ("euler", "boundary_components", "genus")

    def __init__(self, euler: int, boundary_components: int, genus: int):
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "boundary_components", boundary_components)
        object.__setattr__(self, "genus", genus)


class RibbonGraph:
    """Immutable ribbon graph.

    Parameters:
        vertices: iterable of vertex ids (strings).
        edges: iterable of edge ids (strings).
        rotation: dict vertex -> sequence of half-edges, the cyclic
            counterclockwise order of attachments at that vertex; one
            entry per vertex and no other keys.
        twists: collection of edge ids whose band carries a half twist.

    Every half-edge (e, 0) and (e, 1) must occur exactly once in the
    rotations.  Instances are treated as immutable after construction.
    """

    def __init__(self, vertices, edges, rotation, twists=()):
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(sorted(edges))
        self.twists = frozenset(twists)
        self._check(rotation)
        self._cache = {}

    def _check(self, rotation) -> None:
        """Validate the data and build the dart tables in one pass: the
        k-th edge (``_eid``) has darts 2k and 2k + 1 for its ends 0 and 1,
        so d ^ 1 is the partner of dart d and dart order is half-edge order.
        ``_half`` holds each dart's half-edge as ``rotation`` lists it, and
        ``_dv``, ``_dn``, ``_dp`` and ``_dpos`` its vertex, the next and
        previous darts there and its index in that rotation.  The first
        anomaly hands over to ``_half_edge_fault``."""
        if len(set(self.vertices)) != len(self.vertices):
            raise SurfaceError("duplicate vertex ids")
        if len(set(self.edges)) != len(self.edges):
            raise SurfaceError("duplicate edge ids")
        for e in self.edges:
            if e.startswith("-"):
                raise SurfaceError(f"edge id may not start with '-': {e!r}")
        if set(rotation) != set(self.vertices):
            raise SurfaceError("rotation keys must match vertex set")
        self.rotation = {v: as_pairs(rotation[v]) for v in self.vertices}
        eid = self._eid = {e: k for k, e in enumerate(self.edges)}
        n = 2 * len(eid)
        self._half, self._dv, self._dn, self._dp, self._dpos = half, dv, dn, dp, dpos = (
            [None] * n, [None] * n, [0] * n, [0] * n, [-1] * n)
        for v, rot in self.rotation.items():
            darts = []
            for i, h in enumerate(rot):
                k, end = eid.get(h[0]), h[1]
                if k is None or end != 0 and end != 1 or dpos[d := 2 * k + end] >= 0:
                    self._half_edge_fault()
                half[d], dv[d], dpos[d] = h, v, i
                darts.append(d)
            prev = darts[-1] if darts else 0
            for d in darts:
                dn[prev], dp[d] = d, prev
                prev = d
        if -1 in dpos:
            self._half_edge_fault()
        if not self.twists <= set(self.edges):
            raise SurfaceError("twist set contains unknown edges")

    def _half_edge_fault(self):
        """Raise the first fault of the half-edges in ``rotation``: one
        attached twice, else the missing and unknown ones."""
        seen = set()
        for h in (h for rot in self.rotation.values() for h in rot):
            if h in seen:
                raise SurfaceError(f"half-edge {h} attached twice")
            seen.add(h)
        expected = {(e, i) for e in self.edges for i in (0, 1)}
        raise SurfaceError(f"half-edge mismatch: missing {sorted(expected - seen)}, unknown {sorted(seen - expected)}")

    def _dart(self, half_edge: HalfEdge) -> int:
        """The dart of a half-edge; KeyError when it is not on this graph."""
        e, end = half_edge
        if end != 0 and end != 1:
            raise KeyError(half_edge)
        return 2 * self._eid[e] + end

    def head_darts(self, walk) -> list[int]:
        """The dart every step of ``walk`` arrives on: (e, 1) for a forward
        step (e, +1), (e, 0) for (e, -1); the step departs from its partner.
        The first step that is not on this graph raises SurfaceError."""
        eid = self._eid
        darts = []
        for e, s in walk:
            k = eid.get(e)
            if k is None or s != 1 and s != -1:
                raise SurfaceError(f"walk step ({e!r}, {s}) is not on the surface")
            darts.append(2 * k + (s > 0))
        return darts

    # -- basic structure ---------------------------------------------------

    def vertex_of(self, half_edge: HalfEdge) -> str:
        return self._dv[self._dart(half_edge)]

    def edge_endpoints(self, edge: str) -> tuple[str, str]:
        """(tail, head) for the forward traversal of ``edge``."""
        k = 2 * self._eid[edge]
        return self._dv[k], self._dv[k + 1]

    def rotation_next(self, half_edge: HalfEdge) -> HalfEdge:
        return self._half[self._dn[self._dart(half_edge)]]

    def rotation_prev(self, half_edge: HalfEdge) -> HalfEdge:
        return self._half[self._dp[self._dart(half_edge)]]

    @staticmethod
    def partner(half_edge: HalfEdge) -> HalfEdge:
        e, i = half_edge
        return (e, 1 - i)

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges)

    def is_connected(self) -> bool:
        return self._orientation()[1] <= 1

    # -- boundary tracing --------------------------------------------------

    def faces(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Boundary circles of the thickened surface, traced once on the
        oriented presentation ``normalized()``, where no band is twisted:
        the orbits of rotation-next after partner, each starting at its
        least half-edge and listed in half-edge order.  Cached; raises
        NonOrientableError on a non-orientable graph.  ``boundary_walks`` in
        ``tests/oracles.py`` traces the twisted presentation instead.
        """
        if "faces" not in self._cache:
            dn, half = self.normalized()._dn, self._half
            seen = [False] * len(dn)
            orbits = []
            for start in range(len(dn)):
                orbit, cur = [], start
                while not seen[cur]:
                    seen[cur] = True
                    orbit.append(half[cur])
                    cur = dn[cur ^ 1]
                if orbit:
                    orbits.append(tuple(orbit))
            self._cache["faces"] = tuple(orbits)
        return self._cache["faces"]

    def num_boundary_components(self) -> int:
        """Number of boundary circles: the orbits of ``faces``."""
        return len(self.faces())

    # -- orientation -------------------------------------------------------

    def local_orientations(self) -> dict[str, int] | None:
        """Consistent +-1 per vertex, or None if the surface is non-orientable.

        The signs of ``orientation_signs`` over this graph's bands: each
        component is rooted at its lexicographically least vertex, set to +1.
        """
        return self._orientation()[0]

    def _orientation(self) -> tuple[dict[str, int] | None, int]:
        """``orientation_signs`` of this graph, cached: the signs and the
        number of components."""
        if "orientation" not in self._cache:
            dv = self._dv
            self._cache["orientation"] = orientation_signs(self.vertices, self.edges, zip(dv[0::2], dv[1::2]),
                                                           self.twists)
        return self._cache["orientation"]

    def is_orientable(self) -> bool:
        return self.local_orientations() is not None

    def normalized(self) -> "RibbonGraph":
        """Equivalent presentation with every twist bit cleared.

        Reverses the rotation at every vertex carrying local orientation -1;
        this toggles the twist bit of every edge with exactly one flipped
        endpoint and leaves the surface unchanged.  Only defined for
        orientable graphs.  Vertex, edge and half-edge ids are preserved.

        The dart tables come from this validated graph rather than from the
        constructor, which could not fail on them: the darts sit at the same
        vertices, and at a reversed vertex successor and predecessor swap
        and the index i of a rotation of length d becomes d - 1 - i.
        ``tests/oracles.py`` holds the constructor-built reference.
        """
        if "normalized" in self._cache:
            return self._cache["normalized"] or self
        eps = self.local_orientations()
        if eps is None:
            raise NonOrientableError("cannot orient a non-orientable surface")
        if not self.twists and all(s == 1 for s in eps.values()):
            self._cache["normalized"] = None  # already oriented; caching self would make a cycle
            return self
        norm = object.__new__(RibbonGraph)
        norm.vertices, norm.edges, norm.twists, norm._cache = self.vertices, self.edges, frozenset(), {}
        norm.rotation = _oriented_rotation(self.rotation, eps)
        norm._eid, norm._half, norm._dv = self._eid, self._half, self._dv
        dn, dp, dpos = self._dn, self._dp, self._dpos
        norm._dn, norm._dp, norm._dpos = ndn, ndp, ndpos = dn[:], dp[:], dpos[:]
        for d, v in enumerate(self._dv):
            if eps[v] < 0:
                ndn[d], ndp[d], ndpos[d] = dp[d], dn[d], len(self.rotation[v]) - 1 - dpos[d]
        self._cache["normalized"] = norm
        return norm

    # -- invariants ----------------------------------------------------------

    def invariants(self) -> SurfaceInvariants:
        """Euler characteristic, boundary count and genus, from
        chi = 2 - 2h - b.  Requires a connected graph; a non-orientable one
        raises NonOrientableError.
        """
        if "invariants" in self._cache:
            return self._cache["invariants"]
        if not self.is_connected():
            raise SurfaceError("surface invariants require a connected graph")
        chi = self.euler_characteristic()
        b = self.num_boundary_components()
        result = SurfaceInvariants(chi, b, (2 - chi - b) // 2)
        self._cache["invariants"] = result
        return result

    # -- degree-two smoothing ------------------------------------------------

    def smoothed(self) -> tuple["RibbonGraph", dict[str, tuple[str, int]]]:
        """Suppress all degree-2 vertices, merging their edge pairs.

        Returns the reduced graph and a map old edge -> (new edge, sign):
        traversing the old edge forward corresponds to traversing the new
        edge with that sign.  A component that is entirely a cycle of
        degree-2 vertices cannot be smoothed and raises.  Returns this graph
        itself when no vertex is suppressible.  ``_reduced`` orients the same
        tables (``_smoothing_tables``) by this graph's signs without building
        this graph, and is tested against smoothing and then orienting.
        """
        tables = self._smoothing_tables()
        if tables is None:
            return self, {e: (e, 1) for e in self.edges}
        vertices, edges, rotation, twists, edge_map = tables
        return RibbonGraph(vertices, edges, rotation, twists), edge_map

    def _smoothing_tables(self):
        """The data of ``smoothed`` before construction: (kept vertices,
        edges, rotation, twists, edge map), or None when no vertex is
        suppressible.  Raises the smoothing's own errors; the constructor's
        are left to whoever builds the graph."""
        deg2 = {v for v in self.vertices if len(self.rotation[v]) == 2
                and self.rotation[v][0][0] != self.rotation[v][1][0]}
        if not deg2:
            return None
        # Walk each maximal chain of degree-2 vertices from its anchored ends.
        edge_map: dict[str, tuple[str, int]] = {}
        new_edges, new_twists, consumed = [], set(), set()
        half_replacement: dict[HalfEdge, HalfEdge] = {}
        dv, dn, half = self._dv, self._dn, self._half

        def hops(d):
            """Follow a chain starting into dart d's edge, away from it: the
            half-edges passed and the far anchor's half-edge."""
            path = []
            while True:  # d sits at the anchor or a chain vertex, pointing into the chain
                path.append(half[d])
                d ^= 1
                if dv[d] not in deg2:
                    return path, half[d]
                d = dn[d]  # the degree-2 vertex's other dart

        for v in sorted(set(self.vertices) - deg2):
            for h in self.rotation[v]:
                if h[0] in consumed or dv[(d := self._dart(h)) ^ 1] not in deg2:
                    continue
                path, far = hops(d)
                chain = [k[0] for k in path]
                consumed.update(chain)
                new_id = min(chain)
                twist = sum(1 for e in chain if e in self.twists) % 2
                # Forward orientation of the merged edge follows the walk
                # direction out of the first anchor.
                new_edges.append(new_id)
                if twist:
                    new_twists.add(new_id)
                half_replacement[h] = (new_id, 0)
                half_replacement[far] = (new_id, 1)
                for k in path:
                    sign = 1 if k[1] == 0 else -1
                    edge_map[k[0]] = (new_id, sign)
        for e in self.edges:
            if e not in edge_map:
                edge_map[e] = (e, 1)
                new_edges.append(e)
                if e in self.twists:
                    new_twists.add(e)
        kept = sorted(set(self.vertices) - deg2)
        if not kept:
            raise SurfaceError("cannot smooth a pure cycle of degree-2 vertices")
        rotation = {v: tuple(half_replacement.get(h, h) for h in self.rotation[v]) for v in kept}
        return kept, new_edges, rotation, new_twists, edge_map

    def _reduced(self) -> tuple["RibbonGraph", dict[str, tuple[str, int]]]:
        """``smoothed`` and then every kept vertex oriented by this graph's
        own signs (``local_orientations``), in one construction.  Orienting
        the smoothed graph by its own signs could anchor a component at
        another vertex and so mirror it against this page.  Returns the
        reduced graph and the smoothing's edge map; the smoothing's errors
        come first, then the smoothed graph's, then NonOrientableError,
        which ``tests/test_ribbon.py`` keeps as the oracle.
        """
        tables = self._smoothing_tables()
        if tables is None:
            return self.normalized(), {e: (e, 1) for e in self.edges}
        vertices, edges, rotation, twists, edge_map = tables
        eps = self.local_orientations()
        if eps is None:
            RibbonGraph(vertices, edges, rotation, twists)  # the smoothed graph's errors come first
            raise NonOrientableError("cannot orient a non-orientable surface")
        return RibbonGraph(vertices, edges, _oriented_rotation(rotation, eps), ()), edge_map

    # -- serialization -------------------------------------------------------

    @staticmethod
    def half_edge_id(h: HalfEdge) -> str:
        return f"{h[0]}.{h[1]}"

    @staticmethod
    def parse_half_edge(s: str) -> HalfEdge:
        edge, _, end = s.rpartition(".")
        if end not in ("0", "1") or not edge:
            raise SurfaceError(f"bad half-edge id {s!r}")
        return (edge, int(end))

    def to_json_dict(self) -> dict:
        return {
            "schema": "ribbon-graph/1",
            "vertices": list(self.vertices),
            "edges": [
                {
                    "id": e,
                    "half_edges": [self.half_edge_id((e, 0)), self.half_edge_id((e, 1))],
                    "twist": e in self.twists,
                }
                for e in self.edges
            ],
            "rotation": {v: [self.half_edge_id(h) for h in self.rotation[v]] for v in self.vertices},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RibbonGraph":
        """Parse a ``ribbon-graph/1`` document.

        A field whose value has exactly its JSON type is taken as it is;
        any other value goes to ``json_field``, which accepts it or raises
        the field's message.  Rotation ids are looked up among the edges'
        ``half_edges``; an id not there goes to ``parse_half_edge`` and then
        to the constructor, which name the malformed id or the unknown edge.
        """
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != "ribbon-graph/1":
            raise SurfaceError(f"unsupported schema {schema!r}")
        vertices = json_field(doc, "vertices", list, "ribbon-graph", str)
        records = json_field(doc, "edges", list, "ribbon-graph", dict)
        edges = [rec["id"] if type(rec.get("id")) is str else json_field(rec, "id", str, "ribbon-graph edge")
                 for rec in records]
        half_edge_of = {}
        for e, rec in zip(edges, records):
            halves = rec.get("half_edges")
            if type(halves) is not list:
                halves = json_field(rec, "half_edges", list, f"ribbon-graph edge {e!r}")
            expected = [f"{e}.0", f"{e}.1"]
            if halves != expected:
                raise SurfaceError(
                    f"ribbon-graph edge {e!r} field 'half_edges' must be {expected}, got {halves!r}"
                )
            if e:  # parse_half_edge rejects the ids of an empty edge id
                half_edge_of[expected[0]] = (e, 0)
                half_edge_of[expected[1]] = (e, 1)
        twists = []
        for e, rec in zip(edges, records):
            twist = rec.get("twist", False)
            if type(twist) is not bool:
                twist = json_field(rec, "twist", bool, f"ribbon-graph edge {e!r}")
            if twist:
                twists.append(e)
        rotation = json_field(doc, "rotation", dict, "ribbon-graph")
        parsed = {}
        for v, halves in rotation.items():
            if type(halves) is list:
                try:
                    parsed[v] = [half_edge_of[h] for h in halves]
                    continue
                except (KeyError, TypeError):  # an unknown id or a non-string entry
                    pass
            halves = json_field(rotation, v, list, "ribbon-graph rotation", str)
            parsed[v] = [cls.parse_half_edge(h) for h in halves]
        return cls(vertices, edges, parsed, twists)

    def to_dot(self, name: str = "surface") -> str:
        """Graphviz rendering of the underlying graph; diagnostic only."""
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for e in self.edges:
            t, h = self.edge_endpoints(e)
            mark = "~" if e in self.twists else ""
            lines.append(f'  "{t}" -- "{h}" [label="{e}{mark}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RibbonGraph(V={len(self.vertices)}, E={len(self.edges)}, twists={len(self.twists)})"


def orientation_signs(vertices, edges, ends, twists) -> tuple[dict[str, int] | None, int]:
    """Consistent +-1 per vertex from the bands alone, and the number of
    connected components.

    ``ends`` gives the (tail, head) pair of every edge, in the order of
    ``edges``.  An untwisted band (edge not in ``twists``) asks for
    equal signs at its ends, a twisted one for opposite signs, so a loop
    must be untwisted.  Each component's least vertex gets +1.  The signs
    are None when some band disagrees; the components are counted in full
    either way.
    """
    adj: dict[str, list[tuple[str, bool]]] = {v: [] for v in vertices}
    for e, (t, h) in zip(edges, ends):
        flip = e in twists
        adj[t].append((h, flip))
        adj[h].append((t, flip))
    eps: dict[str, int] = {}
    consistent = True
    components = 0
    for root in sorted(vertices):
        if root in eps:
            continue
        components += 1
        eps[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for w, flip in adj[v]:
                want = -eps[v] if flip else eps[v]
                if w not in eps:
                    eps[w] = want
                    stack.append(w)
                elif eps[w] != want:
                    consistent = False
    return (eps if consistent else None), components


def _oriented_rotation(rotation, signs):
    """``rotation`` with every vertex of sign -1 reversed.

    The signs come from ``orientation_signs``, so they clear every twist: a
    band is twisted exactly when its ends' signs differ."""
    return {v: rot if signs[v] == 1 else rot[::-1] for v, rot in rotation.items()}
