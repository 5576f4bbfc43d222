"""Closed curves carried by a ribbon graph.

A closed curve is a cyclic walk of directed edge traversals.
"""

from __future__ import annotations

from .ribbon import Record, RibbonGraph, SurfaceError, as_pairs, json_field


Step = tuple[str, int]  # (edge id, +1 forward / -1 backward)


def reversed_step(step: Step) -> Step:
    return (step[0], -step[1])


def check_walk(surface: RibbonGraph, walk) -> None:
    """Raise SurfaceError unless ``walk`` is a nonempty chain of steps on
    ``surface`` that closes up from its last step to its first.

    Every step is looked up first (``RibbonGraph.head_darts``), so a step
    that is not on the surface beats any break.  Then each step's tail is
    compared with the head before it; on a mismatch the first break in walk
    order is raised, the closing one, from the last step to the first, last.
    """
    if not walk:
        raise SurfaceError("empty walk")
    heads = surface.head_darts(walk)
    dv = surface._dv
    head = dv[heads[-1]]
    for d in heads:
        if dv[d ^ 1] != head:
            break
        head = dv[d]
    else:
        return
    for i in (*range(1, len(heads)), 0):
        if dv[heads[i - 1]] != dv[heads[i] ^ 1]:
            raise SurfaceError(f"walk breaks between {walk[i - 1]} and {walk[i]}")


class CurveOnSurface(Record):
    """A named closed walk on a ribbon graph, checked by ``check_walk`` and
    stored as ``(str, int)`` steps (``as_pairs``: an exact-typed walk is
    kept as it is).  The walk need not be edge-simple (Dehn-twisted images
    repeat edges); operations that require an embedded curve call
    ``require_edge_simple`` first.
    """

    __slots__ = ("host", "name", "walk")

    def __init__(self, host: RibbonGraph, name: str, walk: tuple[Step, ...]):
        walk = as_pairs(walk)
        check_walk(host, walk)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "walk", walk)

    def is_edge_simple(self) -> bool:
        edges = [e for e, _ in self.walk]
        return len(edges) == len(set(edges))

    def require_edge_simple(self) -> "CurveOnSurface":
        if not self.is_edge_simple():
            raise SurfaceError(f"curve {self.name!r} repeats an edge")
        return self

    def edge_set(self) -> frozenset[str]:
        return frozenset(e for e, _ in self.walk)

    def cyclically_equal(self, other: "CurveOnSurface") -> bool:
        """Same walk up to the choice of basepoint; direction counts.

        Test oracle, trying every rotation: production code compares
        ``canonical_rotation`` keys."""
        if len(self.walk) != len(other.walk):
            return False
        doubled = other.walk + other.walk
        n = len(self.walk)
        return any(self.walk == doubled[i:i + n] for i in range(n))

    def to_json_dict(self) -> dict:
        return {"name": self.name, "walk": [signed_edge_id(s) for s in self.walk]}


def canonical_rotation(walk: tuple[Step, ...]) -> tuple[Step, ...]:
    """The least rotation of a nonempty cyclic walk, so that two walks are
    equal up to basepoint exactly when their canonical rotations are.

    Only the rotations that start at the least step compete; an edge-simple
    walk has one, which makes the key linear in the walk's length."""
    least = min(walk)
    return min(walk[i:] + walk[:i] for i, step in enumerate(walk) if step == least)


def signed_edge_id(step: Step) -> str:
    e, s = step
    return e if s > 0 else f"-{e}"


def parse_signed_edge_id(token: str) -> Step:
    if token.startswith("-"):
        return (token[1:], -1)
    return (token, 1)


def curve_from_json(surface: RibbonGraph, rec: dict) -> CurveOnSurface:
    """A ``vanishing_cycles`` entry on ``surface``.  As in
    ``RibbonGraph.from_json_dict``, only a field whose value has not exactly
    its JSON type goes to ``json_field``."""
    name = rec.get("name") if type(rec) is dict else None
    if type(name) is not str:
        name = json_field(rec, "name", str, "vanishing cycle")
    walk = rec.get("walk")
    if type(walk) is not list or not all(type(t) is str for t in walk):
        walk = json_field(rec, "walk", list, f"vanishing cycle {name!r}", str)
    return CurveOnSurface(surface, name, tuple([parse_signed_edge_id(t) for t in walk]))
