"""Closed curves carried by a ribbon graph.

A closed curve is a cyclic walk of directed edge traversals.
"""

from __future__ import annotations

from .ribbon import Record, RibbonGraph, SurfaceError, checked_kind, json_field


Step = tuple[str, int]  # (edge id, +1 forward / -1 backward)


def check_walk(surface: RibbonGraph, walk, heads=None) -> tuple[int, ...]:
    """The darts the steps of ``walk`` arrive on (the one call of
    ``RibbonGraph.head_darts``), or ``heads`` when ``curve_on_darts`` has
    them in place of a walk.  SurfaceError unless the walk is a nonempty
    chain of steps on ``surface`` that closes up: a step off the surface
    beats any break.  One pass checks that each step departs where the one before
    arrived, steps 1..n-1 and then the closing step, last to first, and
    raises the first break, naming its two steps as ``(edge, sign)`` pairs
    built from the darts only then."""
    if heads is None:
        heads = surface.head_darts(walk)
    if not heads:
        raise SurfaceError("empty walk")
    dv, n = surface._dv, len(heads)
    for i in range(1, n + 1):
        if dv[heads[i - 1]] != dv[heads[i % n] ^ 1]:
            steps = _steps(surface.edges, heads)
            raise SurfaceError(f"walk breaks between {steps[i - 1]} and {steps[i % n]}")
    return heads


def _steps(edges, heads: tuple[int, ...]) -> tuple[Step, ...]:
    """The ``(edge id, sign)`` steps that arrive on the darts ``heads``:
    dart 2k + 1 of the k-th edge for +1, dart 2k for -1."""
    return tuple([(edges[d >> 1], 1 if d & 1 else -1) for d in heads])


class CurveOnSurface(Record, views=("walk",)):
    """A named closed walk on a ribbon graph, kept as the darts its steps
    arrive on (``_heads``), which every layer reads in place of edge ids.
    Its fields are ``host``, ``name`` and ``walk``.  ``walk`` is a view: the
    ``(str, int)`` steps, named from ``host.edges`` each time it is read,
    so only equality, hash, repr, pickling and the tests' oracles build
    them.  The constructor takes a host ``RibbonGraph``, a string name and
    a walk, and checks the walk (``check_walk``), whose steps
    ``head_darts`` reads as ``(str, int)`` pairs (``as_pairs``);
    ``curve_on_darts`` is the one entry that takes darts in place of it,
    and its name unchecked.  The walk need not be edge-simple (Dehn-twisted
    images repeat edges); operations that require an embedded curve, the
    surgery among them, check that first with ``require_edge_simple``.
    """

    __slots__ = ("host", "name", "_heads")

    def __init__(self, host: RibbonGraph, name: str, walk: tuple[Step, ...]):
        object.__setattr__(self, "host", checked_kind(host, RibbonGraph, "host"))
        object.__setattr__(self, "name", checked_kind(name, str, "name"))
        object.__setattr__(self, "_heads", check_walk(host, walk))

    @property
    def walk(self) -> tuple[Step, ...]:
        return _steps(self.host.edges, self._heads)

    def is_edge_simple(self) -> bool:
        return len({d >> 1 for d in self._heads}) == len(self._heads)

    def require_edge_simple(self) -> "CurveOnSurface":
        if not self.is_edge_simple():
            raise SurfaceError(f"curve {self.name!r} repeats an edge")
        return self

    def cyclically_equal(self, other: "CurveOnSurface") -> bool:
        """Same walk up to the choice of basepoint; direction counts.

        Test oracle, trying every rotation: production code compares
        ``canonical_rotation`` keys."""
        walk, other_walk = self.walk, other.walk
        if len(walk) != len(other_walk):
            return False
        doubled = other_walk + other_walk
        n = len(walk)
        return any(walk == doubled[i:i + n] for i in range(n))

    def to_json_dict(self) -> dict:
        """The walk's tokens, ``e`` or ``-e`` per step, written from the darts."""
        edges = self.host.edges
        return {"name": self.name, "walk": [edges[d >> 1] if d & 1 else "-" + edges[d >> 1] for d in self._heads]}


def checked_curves(curves, host, role):
    """``curves`` as a tuple if it is a tuple or list of curves on ``host``;
    else SurfaceError naming ``role``: its kind or its first entry that is
    no ``CurveOnSurface``, or the curve's name when it lives on another
    surface.  The one check of a word or family argument, and the one host
    test of a curve."""
    if not isinstance(curves, (tuple, list)):
        raise SurfaceError(f"{role} must be a tuple or list of curves, got {type(curves).__name__}")
    for c in curves:
        if not isinstance(c, CurveOnSurface):
            raise SurfaceError(f"{role} entry {c!r} is not a curve")
        if c.host is not host:
            raise SurfaceError(f"curve {c.name!r} lives on a different surface")
    return tuple(curves)


def curve_on_darts(surface: RibbonGraph, name: str, heads: tuple[int, ...]) -> CurveOnSurface:
    """The curve ``name`` whose steps arrive on the darts ``heads`` of
    ``surface``, built without naming a step: ``check_walk`` checks that it
    closes, and only a break names the steps.  The builders and the
    document reader's fast path call it with darts they numbered on
    ``surface``, so it skips the constructor's host and name checks."""
    # Written directly: Record.__init__ made a curve ~10% slower, and a compare-search pass builds ~3,400.
    curve = object.__new__(CurveOnSurface)
    object.__setattr__(curve, "host", surface)
    object.__setattr__(curve, "name", name)
    object.__setattr__(curve, "_heads", check_walk(surface, None, heads))
    return curve


def canonical_rotation(walk: tuple[Step, ...]) -> tuple[Step, ...]:
    """The least rotation of a nonempty cyclic walk, so that two walks are
    equal up to basepoint exactly when their canonical rotations are.

    Only the rotations that start at the least step compete.  When the
    least step occurs once, as in every edge-simple walk, the key is that
    one rotation, cut with one slice pair at ``walk.index``; otherwise the
    least of the competing rotations."""
    least = min(walk)
    if walk.count(least) == 1:
        i = walk.index(least)
        return walk[i:] + walk[:i]
    return min(walk[i:] + walk[:i] for i, step in enumerate(walk) if step == least)


def parse_signed_edge_id(token: str) -> Step:
    if token.startswith("-"):
        return (token[1:], -1)
    return (token, 1)


def curve_from_json(surface: RibbonGraph, name: str, walk: list) -> CurveOnSurface:
    """The ``vanishing_cycles`` entry ``name`` on ``surface``: token ``e`` of ``walk`` arrives on dart 2k + 1 of
    edge k (``_eid``), ``-e`` on dart 2k; any other token goes on to ``json_field`` and the checks that name it."""
    eid = surface._eid
    try:
        heads = tuple([2 * eid[t[1:]] if t[0] == "-" else 2 * eid[t] + 1 for t in walk])  # t[:1] is a sixth slower
    except (KeyError, IndexError, TypeError):  # a token off the surface, empty or not a string
        walk = json_field({"walk": walk}, "walk", list, f"vanishing cycle {name!r}", str)
        return CurveOnSurface(surface, name, tuple([parse_signed_edge_id(t) for t in walk]))
    return curve_on_darts(surface, name, heads)
