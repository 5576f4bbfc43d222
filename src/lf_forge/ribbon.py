"""Ribbon graphs with twist bits and the compact surfaces they thicken into.

A ribbon graph is a finite graph together with a cyclic order of half-edge
attachments around every vertex and a twist bit per edge.  Thickening vertices
to disks and edges to (half-twisted, when flagged) bands produces a compact
surface with boundary.  Orientability is read off the twist bits and the
edge ends alone (``spanning_forest``).  The boundary circles, and with them
the boundary count and genus, are traced on the oriented presentation
(``normalized``), so only an orientable surface has them; a non-orientable
one raises NonOrientableError.

Half-edges are pairs ``(edge_id, end)`` with ``end`` 0 or 1.  Traversing an
edge "forward" (sign +1) runs from end 0 to end 1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from functools import cached_property


class SurfaceError(ValueError):
    """Input does not describe the object an operation requires."""


class NonOrientableError(SurfaceError):
    """Raised by operations defined only over oriented surfaces."""


HalfEdge = tuple[str, int]
_ENDS = {0: 0, 1: 1}  # the valid ends of an edge


def as_pairs(items) -> tuple:
    """The sequence ``items`` as ``(str(a), int(b))`` pairs, ``b`` an integer's text or a number equal to its ``int``
    (``True``, ``1.0``, not ``0.5``); SurfaceError names the first item that is not."""
    if not isinstance(items, (tuple, list, str)):
        try:
            items = list(items)  # read once, so that the fallback names an iterator's entry
        except TypeError:
            pass
    try:
        return tuple([(str(a), b if b.__class__ is int else _whole(b)) for a, b in items])
    except (TypeError, ValueError, OverflowError):
        for item in items if isinstance(items, (tuple, list)) else [items]:
            try:
                _, end = item
                _whole(end)
            except (TypeError, ValueError, OverflowError):
                raise SurfaceError(f"{item!r} is not an (id, integer) pair") from None
        raise


def _whole(x) -> int:
    """``int(x)`` unless that truncates: ValueError for a number ``x`` that differs from it."""
    if (n := int(x)) != x and not isinstance(x, str):
        raise ValueError(x)
    return n


def sorted_ids(ids, kind: str) -> tuple:
    """``ids`` sorted; the first that is not a string raises SurfaceError.
    Only a sort that fails or puts a non-string first reads each id."""
    ids = list(ids)
    try:
        ordered = tuple(sorted(ids))
        if not ordered or isinstance(ordered[0], str):
            return ordered
    except TypeError:
        pass
    raise SurfaceError(f"{kind} id must be a string, got {next(x for x in ids if not isinstance(x, str))!r}")


def numbered_ids(ids, kind: str) -> tuple[tuple, dict]:
    """``sorted_ids(ids, kind)`` and each id's number, its index there: the
    one numbering of vertices and edges.  Edge k has darts 2k and 2k + 1
    for its ends 0 and 1."""
    ordered = sorted_ids(ids, kind)
    return ordered, {e: k for k, e in enumerate(ordered)}


def padded_ids(prefix: str, n: int) -> list[str]:
    """``prefix`` followed by each of 0..n-1, zero-padded to one width so
    that id order is index order."""
    w = len(str(n - 1))
    return [f"{prefix}{i:0{w}d}" for i in range(n)]


def checked_count(value, role: str = "genus") -> int:
    """``value`` itself if it is an int, not a bool, and >= 0; else
    SurfaceError naming ``role``: the one rule of a genus or a free rank."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SurfaceError(f"{role} must be an integer, got {value!r}")
    if value < 0:
        raise SurfaceError(f"{role} must be nonnegative, got {value}")
    return value


def checked_kind(value, kind: type, role: str, error: type = SurfaceError):
    """``value`` itself if it is a ``kind``; else ``error`` naming ``role``,
    the one wording of a public argument of the wrong kind."""
    if not isinstance(value, kind):
        raise error(f"{role} must be a {kind.__name__}, got {value!r}")
    return value


def check_graph_arguments(vertices, edges, rotation, twists=()) -> None:
    """SurfaceError unless the ids are iterables and ``rotation`` a mapping:
    the kinds that ``RibbonGraph`` and ``Divide`` check before reading any."""
    for ids, role in ((vertices, "vertices"), (edges, "edges"), (twists, "twists")):
        if not isinstance(ids, Iterable):
            raise SurfaceError(f"{role} must be an iterable of ids, got {ids!r}")
    checked_kind(rotation, Mapping, "rotation")


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
    if item is not None and not set(map(type, value)) <= {item}:
        for x in value:
            if not isinstance(x, item):
                raise SurfaceError(
                    f"{where} field {key!r} has an entry that is not {_JSON_TYPE_NAMES[item]}: {x!r}"
                )
    return value


def json_schema(doc, schema: str) -> None:
    """The one schema gate of the document readers: SurfaceError naming the
    schema found unless ``doc`` is an object whose ``schema`` is ``schema``."""
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise SurfaceError(f"unsupported schema {found!r}")


def json_records(records, where: str, *fields) -> list[list]:
    """One column per ``(key, kind, default)`` field of the JSON objects ``records`` (default None: required),
    all of type ``kind``; else ``json_field`` names the first fault, and its record by the first field's value."""
    columns = []
    for key, kind, default in fields:
        column = [rec.get(key, default) for rec in records]
        if not set(map(type, column)) <= {kind}:
            for k, rec in enumerate(records):
                if default is None or key in rec:
                    json_field(rec, key, kind, f"{where} {columns[0][k]!r}" if columns else where)
        columns.append(column)
    return columns


class Record:
    """Base of the package's immutable record types.

    A record's fields are the public names in its ``__slots__`` after its
    parent's, then the ``views`` its class statement names
    (``class C(Record, views=("walk",))``), read once into ``_names``.  A
    private slot holds state derived from the fields; a view is a field
    read off the slots each time (a property), so a class with views
    writes its own ``__init__``.  ``__init__`` takes one value per field,
    in that order, and writes it past the frozen ``__setattr__``.
    Records are equal, and hash alike, when they have the same type and
    equal fields, and repr as ``Name(field=value, ...)``.  These methods
    are written out once rather than generated per class at import, which
    loads ``inspect`` and ``ast`` and costs every short CLI process more
    than the work of most of its commands.
    """

    __slots__ = ()
    _names = ()

    def __init_subclass__(cls, views: tuple[str, ...] = ()):
        cls._names += tuple(n for n in cls.__dict__.get("__slots__", ()) if n[0] != "_") + views

    def __init__(self, *values):
        if len(values) != len(self._names):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._names)} field values, got {len(values)}")
        for name, value in zip(self._names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class SurfaceInvariants(Record):
    """``euler``, ``boundary_components`` and ``genus`` of the thickened
    surface; ``RibbonGraph.invariants`` raises on a non-orientable one."""

    __slots__ = ("euler", "boundary_components", "genus")


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
    Every producer links numbered darts once (``_check``); the parser, both
    builders and ``standard_divide`` number the edges by ``numbered_ids``,
    as the constructor does, and hand the darts over through ``_linked``.
    No graph keeps its input: the name views ``rotation`` and ``_half``,
    which no check reads, are built on request from the dart tables.
    ``_cache`` holds ``"forest"``, ``"normalized"`` and ``"boundary"``.  Two
    keys are written in ``builders``: ``divide_fiber_model`` leaves the
    ``"forest"`` it joined on the fiber's numbering, and ``_surgery_walks``
    keeps the last smoothing (``"smoothing"``) for a certificate to replay.
    """

    def __init__(self, vertices, edges, rotation, twists=()):
        check_graph_arguments(vertices, edges, rotation, twists)
        self._check(vertices, edges, rotation, sorted_ids(twists, "twist"))  # an unhashable id is named

    @classmethod
    def _linked(cls, vertices, edges, darts, twists, eid) -> "RibbonGraph":
        """The graph whose vertex v lists the darts ``darts[v]``, dart 2k + end
        being end ``end`` of edge k in ``eid``: ``edges, eid`` are
        ``numbered_ids(..., "edge")``."""
        graph = object.__new__(cls)
        graph._check(vertices, edges, darts, twists, eid)
        return graph

    def _check(self, vertices, edges, rotation, twists, eid=None) -> None:
        """Validate the data and link the dart tables in one pass: the
        k-th edge (``_eid``, from ``numbered_ids``) has darts 2k and 2k + 1
        for its ends 0 and 1, so d ^ 1 is the partner of dart d and dart
        order is half-edge order.  ``_dv``, ``_dn``, ``_dp`` and ``_dpos``
        hold each dart's vertex number (its index in ``vertices``), next and
        previous darts there and rotation index; ``_deg`` each vertex's
        degree.  Given ``eid``, ``edges`` are its sorted ids and ``rotation``
        lists darts (``_linked``); else half-edges, rebuilt by ``as_pairs``
        and looked up as darts.  The link pass checks nothing;
        one check after it finds every dart placed and no more placements
        than darts, so each dart is attached once, or hands the attachments
        to ``_half_edge_fault``, which names the first fault."""
        linked = eid is not None
        self.vertices = sorted_ids(vertices, "vertex")
        self.edges, self._eid = (edges, eid) if linked else numbered_ids(edges, "edge")
        self.twists = frozenset(twists)
        self._cache = {}
        vset, eset = set(self.vertices), set(self.edges)
        if len(vset) != len(self.vertices):
            raise SurfaceError("duplicate vertex ids")
        if len(eset) != len(self.edges):
            raise SurfaceError("duplicate edge ids")
        i = bisect_left(self.edges, "-")  # the ids that start with '-' sort from here on
        if i < len(self.edges) and self.edges[i].startswith("-"):
            raise SurfaceError(f"edge id may not start with '-': {self.edges[i]!r}")
        if set(rotation) != vset:
            raise SurfaceError("rotation keys must match vertex set")
        named = None
        if linked:
            darts = [rotation[v] for v in self.vertices]
        else:
            eid, named = self._eid, [as_pairs(rotation[v]) for v in self.vertices]
            try:
                darts = [[2 * eid[e] + _ENDS[end] for e, end in rot] for rot in named]
            except KeyError:  # a half-edge whose edge or end is unknown
                self._half_edge_fault(named)
        n = 2 * len(self.edges)
        self._dv, self._dn, self._dp, self._dpos = dv, dn, dp, dpos = [0] * n, [0] * n, [0] * n, [-1] * n
        for vi, ds in enumerate(darts):
            i, prev = 0, ds[-1] if ds else 0
            for d in ds:  # pairwise stores: enumerate, or one four-way tuple store, costs a third more
                dv[d], dpos[d] = vi, i
                dn[prev], dp[d] = d, prev
                prev, i = d, i + 1
        self._deg = deg = list(map(len, darts))
        if -1 in dpos or sum(deg) != n:  # a dart never placed, or more placements than darts
            self._half_edge_fault(named, darts)
        if not self.twists <= eset:
            raise SurfaceError("twist set contains unknown edges")

    def _half_edge_fault(self, named, darts=()):
        """Raise the first fault of the attachments, by vertex, of ``named``,
        the constructor's half-edge lists, or when it is None of ``darts``
        named: a half-edge attached twice, else the missing and unknown ones."""
        halves = named if named is not None else [[self._half[d] for d in ds] for ds in darts]
        seen = set()
        for h in (h for rot in halves for h in rot):
            if h in seen:
                raise SurfaceError(f"half-edge {h} attached twice")
            seen.add(h)
        expected = {(e, i) for e in self.edges for i in (0, 1)}
        raise SurfaceError(f"half-edge mismatch: missing {sorted(expected - seen)}, unknown {sorted(seen - expected)}")

    _half = cached_property(lambda self: [(e, end) for e in self.edges for end in (0, 1)])

    @cached_property
    def rotation(self) -> dict[str, tuple[HalfEdge, ...]]:
        """Each vertex's half-edges in rotation order, from ``_darts``."""
        half = self._half
        return {v: tuple([half[d] for d in ds]) for v, ds in zip(self.vertices, self._darts())}

    def _darts(self) -> list[list[int]]:
        """Each vertex's darts in rotation order, by vertex number."""
        rot = [[0] * k for k in self._deg]
        for d, (v, i) in enumerate(zip(self._dv, self._dpos)):
            rot[v][i] = d
        return rot

    def _dart(self, half_edge: HalfEdge) -> int:
        """The dart of a half-edge, read as a rotation entry is (``as_pairs``);
        SurfaceError when it is not on this graph."""
        try:
            ((e, end),) = as_pairs((half_edge,))
            return 2 * self._eid[e] + _ENDS[end]
        except (SurfaceError, KeyError):  # not an (edge, end) pair, no such edge, or an end other than 0 or 1
            raise SurfaceError(f"half-edge {half_edge!r} is not on the surface") from None

    def head_darts(self, walk) -> tuple[int, ...]:
        """The dart every step of ``walk``, read by ``as_pairs``, arrives on:
        (e, 1) for a forward step (e, +1), (e, 0) for (e, -1); the step
        departs from its partner.  The first step that is not on this graph
        raises SurfaceError."""
        eid = self._eid
        darts = []
        for e, s in as_pairs(walk):
            k = eid.get(e)
            if k is None or s != 1 and s != -1:
                raise SurfaceError(f"walk step ({e!r}, {s}) is not on the surface")
            darts.append(2 * k + (s > 0))
        return tuple(darts)

    # -- basic structure ---------------------------------------------------

    def vertex_of(self, half_edge: HalfEdge) -> str:
        return self.vertices[self._dv[self._dart(half_edge)]]

    def edge_endpoints(self, edge: str) -> tuple[str, str]:
        """(tail, head) for the forward traversal of ``edge``."""
        try:
            k = 2 * self._eid[edge]
        except (KeyError, TypeError):  # no such edge, or an unhashable id
            raise SurfaceError(f"edge {edge!r} is not on the surface") from None
        return self.vertices[self._dv[k]], self.vertices[self._dv[k + 1]]

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges)

    def is_connected(self) -> bool:
        return self._forest()[1] == 1

    # -- boundary tracing --------------------------------------------------

    def faces(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Boundary circles of the thickened surface: the orbits of
        ``_boundary`` as half-edges, named on each call.  ``boundary_walks``
        in ``tests/oracles.py`` traces the twisted presentation instead."""
        half = self._half
        return tuple([tuple([half[d] for d in orbit]) for orbit in self._boundary()[0]])

    def _boundary(self) -> tuple[list[list[int]], list[int]]:
        """The boundary circles as dart orbits, traced once on ``normalized()``
        (no band twisted; NonOrientableError if there is none): the orbits of
        rotation-next after partner, each from its least dart, in dart order;
        and each dart's face, the index of its orbit.  Cached."""
        if "boundary" not in self._cache:
            dn = self.normalized()._dn
            face = [-1] * len(dn)  # -1 until the dart's orbit is traced
            orbits = []
            for start in range(len(dn)):
                if face[start] < 0:
                    orbit, cur, i = [], start, len(orbits)
                    while face[cur] < 0:
                        face[cur] = i
                        orbit.append(cur)
                        cur = dn[cur ^ 1]
                    orbits.append(orbit)
            self._cache["boundary"] = orbits, face
        return self._cache["boundary"]

    def num_boundary_components(self) -> int:
        """Number of boundary circles: the orbits of ``_boundary``."""
        return len(self._boundary()[0])

    # -- orientation -------------------------------------------------------

    def local_orientations(self) -> dict[str, int] | None:
        """Consistent +-1 per vertex, or None if the surface is non-orientable.

        The signs of ``spanning_forest`` over this graph's bands: each
        component's lexicographically least vertex gets +1.
        """
        signs = self._forest()[0]
        return None if signs is None else dict(zip(self.vertices, signs))

    def _forest(self) -> tuple[list[int] | None, int, list[int]]:
        """``spanning_forest`` of this graph, by vertex and edge number, cached."""
        if "forest" not in self._cache:
            self._cache["forest"] = spanning_forest(len(self.vertices), self._dv, {self._eid[e] for e in self.twists})
        return self._cache["forest"]

    def is_orientable(self) -> bool:
        return self._forest()[0] is not None

    def normalized(self) -> "RibbonGraph":
        """Equivalent presentation with every twist bit cleared.

        Reverses the rotation at every vertex carrying local orientation -1;
        this toggles the twist bit of every edge with exactly one flipped
        endpoint and leaves the surface unchanged.  Only defined for
        orientable graphs.  Vertex, edge and half-edge ids are preserved.

        The dart tables come from this validated graph rather than from the
        constructor, which could not fail on them: the darts sit at the same
        vertices, and at a reversed vertex successor and predecessor swap
        and the index i of a rotation of length d becomes d - 1 - i.  It
        keeps no reference to this graph and builds ``rotation`` on request.
        ``tests/oracles.py`` holds the constructor-built reference.
        """
        if "normalized" in self._cache:
            return self._cache["normalized"] or self
        if not self.twists:  # every sign is +1: the graph is already oriented
            self._cache["normalized"] = None  # caching self would make a cycle
            return self
        signs = self._forest()[0]
        if signs is None:
            raise NonOrientableError("cannot orient a non-orientable surface")
        norm = object.__new__(RibbonGraph)
        norm.vertices, norm.edges, norm.twists, norm._cache = self.vertices, self.edges, frozenset(), {}
        norm._eid, norm._dv, norm._deg = self._eid, self._dv, self._deg
        dn, dp, dpos, deg = self._dn, self._dp, self._dpos, self._deg
        norm._dn, norm._dp, norm._dpos = ndn, ndp, ndpos = dn[:], dp[:], dpos[:]
        for d, v in enumerate(self._dv):
            if signs[v] < 0:
                ndn[d], ndp[d], ndpos[d] = dp[d], dn[d], deg[v] - 1 - dpos[d]
        self._cache["normalized"] = norm
        return norm

    # -- invariants ----------------------------------------------------------

    def invariants(self) -> SurfaceInvariants:
        """Euler characteristic, boundary count and genus, from
        chi = 2 - 2h - b.  Requires a connected graph; a non-orientable one
        raises NonOrientableError.
        """
        if not self.is_connected():
            raise SurfaceError("surface invariants require a connected graph")
        chi = self.euler_characteristic()
        b = self.num_boundary_components()
        return SurfaceInvariants(chi, b, (2 - chi - b) // 2)

    # -- degree-two smoothing ------------------------------------------------

    def smoothed(self) -> tuple["RibbonGraph", dict[str, tuple[str, int]]]:
        """Suppress all degree-2 vertices, merging their edge pairs.

        Returns the reduced graph and a map old edge -> (new edge, sign):
        traversing the old edge forward corresponds to traversing the new
        edge with that sign.  Each merged edge runs forward out of the first
        anchor half-edge that starts its chain, the anchors taken in vertex
        order and each anchor's half-edges in half-edge order, so reversing
        a rotation does not change the direction of a chain that leaves and
        re-enters one anchor: smoothing ``normalized()`` equals smoothing
        and then orienting.  A component that is entirely a cycle of
        degree-2 vertices cannot be smoothed and raises.
        """
        deg2 = {v for v, rot in self.rotation.items() if len(rot) == 2 and rot[0][0] != rot[1][0]}
        # Walk each maximal chain of degree-2 vertices from its anchored ends.
        edge_map: dict[str, tuple[str, int]] = {}
        new_edges, new_twists, passed = [], set(), 0
        half_replacement: dict[HalfEdge, HalfEdge] = {}
        dv, dn, half, names = self._dv, self._dn, self._half, self.vertices

        def hops(d):
            """Follow a chain starting into dart d's edge, away from it: the
            half-edges passed and the far anchor's half-edge."""
            path = []
            while True:  # d sits at the anchor or a chain vertex, pointing into the chain
                path.append(half[d])
                d ^= 1
                if names[dv[d]] not in deg2:
                    return path, half[d]
                d = dn[d]  # the degree-2 vertex's other dart

        kept = sorted(set(self.vertices) - deg2)
        for v in kept:
            for h in sorted(self.rotation[v]):
                if h[0] in edge_map or names[dv[(d := self._dart(h)) ^ 1]] not in deg2:  # walked, or no chain
                    continue
                path, far = hops(d)
                passed += len(path) - 1  # the degree-2 vertices between its edges
                new_id = min(e for e, _ in path)
                new_edges.append(new_id)
                if sum(e in self.twists for e, _ in path) % 2:
                    new_twists.add(new_id)
                half_replacement[h], half_replacement[far] = (new_id, 0), (new_id, 1)
                edge_map.update((e, (new_id, 1 - 2 * end)) for e, end in path)
        if passed != len(deg2):  # the others lie on cycles that meet no kept vertex
            raise SurfaceError("cannot smooth a pure cycle of degree-2 vertices")
        for e in self.edges:
            if e not in edge_map:
                edge_map[e] = (e, 1)
                new_edges.append(e)
                if e in self.twists:
                    new_twists.add(e)
        rotation = {v: tuple(half_replacement.get(h, h) for h in self.rotation[v]) for v in kept}
        return RibbonGraph(kept, new_edges, rotation, new_twists), edge_map

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
        """Parse a ``ribbon-graph/1`` document: the edges by ``json_records``,
        each rotation id as a dart among their ``half_edges``.  At the first id
        not there the rotation goes through ``json_field``, ``parse_half_edge``
        and the constructor, which name the first fault in rotation order."""
        json_schema(doc, "ribbon-graph/1")
        vertices = json_field(doc, "vertices", list, "ribbon-graph", str)
        edges, halves, twisted = json_records(json_field(doc, "edges", list, "ribbon-graph", dict), "ribbon-graph edge",
                                              ("id", str, None), ("half_edges", list, None), ("twist", bool, False))
        order, eid = numbered_ids(edges, "edge")  # the constructor raises duplicates before reading a dart
        dart_of = {}
        for e, pair in zip(edges, halves):
            expected = [f"{e}.0", f"{e}.1"]
            if pair != expected:
                raise SurfaceError(f"ribbon-graph edge {e!r} field 'half_edges' must be {expected}, got {pair!r}")
            if e:  # parse_half_edge rejects the ids of an empty edge id
                dart_of[expected[0]] = d = 2 * eid[e]
                dart_of[expected[1]] = d + 1
        twists = [e for e, t in zip(edges, twisted) if t]
        rotation = json_field(doc, "rotation", dict, "ribbon-graph")
        darts, dart = {}, dart_of.__getitem__
        for v, ids in rotation.items():
            if type(ids) is list:
                try:
                    darts[v] = list(map(dart, ids))  # a list comprehension per short rotation costs a tenth more
                    continue
                except (KeyError, TypeError):  # an unknown id or a non-string entry
                    pass
            return cls(vertices, edges, {u: [cls.parse_half_edge(h) for h in json_field(  # names the first fault
                rotation, u, list, "ribbon-graph rotation", str)] for u in rotation}, twists)
        return cls._linked(vertices, order, darts, twists, eid)

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


def spanning_forest(n: int, ends, twisted) -> tuple[list[int] | None, int, list[int]]:
    """One union-find pass over the bands of a graph on vertices 0..n-1.

    ``ends`` lists the tail and head vertex numbers of every edge in turn,
    as ``RibbonGraph._dv`` does, and ``twisted`` holds the numbers of the
    half-twisted edges.  An untwisted band asks for equal signs at its ends,
    a twisted one for opposite signs, so a loop must be untwisted.  The
    edges are joined in order, by union by size with path halving; each
    vertex keeps its parity against its parent (Tarjan, J. ACM 22, 1975).
    Returns the +-1 sign of every vertex, +1 at each component's least
    vertex, or None when some band disagrees; the number of components; and
    each edge's position among the co-tree edges, -1 for an edge of the
    lexicographically first spanning forest.
    """
    parent, size, parity = list(range(n)), [1] * n, [0] * n
    index, cotree, consistent = [], 0, True
    it = iter(ends)
    for k, (t, h) in enumerate(zip(it, it)):
        flip = k in twisted  # xor both ends' parities to their roots: h's root against t's
        while (u := parent[t]) != t:
            parity[t] ^= parity[u]  # now against u's parent; a root's parity is 0
            flip ^= parity[t]
            parent[t] = t = parent[u]  # halve the path
        while (u := parent[h]) != h:
            parity[h] ^= parity[u]
            flip ^= parity[h]
            parent[h] = h = parent[u]
        if t == h:
            consistent = consistent and not flip
            index.append(cotree)
            cotree += 1
        else:
            if size[t] > size[h]:
                t, h = h, t
            parent[t], parity[t] = h, flip
            size[h] += size[t]
            index.append(-1)
    components = n - len(index) + cotree
    if not consistent:
        return None, components, index
    if not twisted:
        return [1] * n, components, index
    signs, anchor = [], {}  # anchor: the parity of each root's least vertex
    for v in range(n):
        r, p = v, 0
        while (u := parent[r]) != r:
            p ^= parity[r]
            r = u
        signs.append(1 if p == anchor.setdefault(r, p) else -1)
    return signs, components, index
