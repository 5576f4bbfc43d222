"""Closed curves and arcs carried by a ribbon graph.

A closed curve is a cyclic walk of directed edge traversals; an arc is an
open path whose endpoints sit on boundary walks.  Arc steps may also cross a
band transversally (a "rung"), which is how the cutting system dual to the
homology basis is represented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ribbon import HalfEdge, RibbonGraph, SurfaceError, json_field


class TransversalityError(SurfaceError):
    """Two objects share an edge traversal where a crossing rule needs them
    to meet only at vertices.  Refine one of them off the shared band."""


Step = tuple[str, int]  # (edge id, +1 forward / -1 backward)


def step_tail(surface: RibbonGraph, step: Step) -> str:
    e, s = step
    return surface.vertex_of((e, 0 if s > 0 else 1))

def step_head(surface: RibbonGraph, step: Step) -> str:
    e, s = step
    return surface.vertex_of((e, 1 if s > 0 else 0))

def step_head_half(step: Step) -> HalfEdge:
    """Half-edge at the head vertex, i.e. where the traversal arrives."""
    e, s = step
    return (e, 1 if s > 0 else 0)

def step_tail_half(step: Step) -> HalfEdge:
    e, s = step
    return (e, 0 if s > 0 else 1)

def reversed_step(step: Step) -> Step:
    return (step[0], -step[1])


def check_walk(surface: RibbonGraph, walk, closed: bool) -> None:
    if not walk:
        raise SurfaceError("empty walk")
    known = set(surface.edges)
    for e, s in walk:
        if e not in known or s not in (1, -1):
            raise SurfaceError(f"walk step ({e!r}, {s}) is not on the surface")
    pairs = zip(walk, walk[1:] + walk[:1]) if closed else zip(walk, walk[1:])
    for a, b in pairs:
        if step_head(surface, a) != step_tail(surface, b):
            raise SurfaceError(f"walk breaks between {a} and {b}")


@dataclass(frozen=True)
class CurveOnSurface:
    """A named closed walk on a ribbon graph.

    The walk need not be edge-simple in general (Dehn-twisted images repeat
    edges); operations that require an embedded curve call
    ``require_edge_simple`` first.
    """

    host: RibbonGraph
    name: str
    walk: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "walk", tuple((str(e), int(s)) for e, s in self.walk))
        check_walk(self.host, list(self.walk), closed=True)

    def is_edge_simple(self) -> bool:
        edges = [e for e, _ in self.walk]
        return len(edges) == len(set(edges))

    def require_edge_simple(self) -> "CurveOnSurface":
        if not self.is_edge_simple():
            raise SurfaceError(f"curve {self.name!r} repeats an edge")
        return self

    def edge_set(self) -> frozenset[str]:
        return frozenset(e for e, _ in self.walk)

    def passes(self) -> list[tuple[str, HalfEdge, HalfEdge, int]]:
        """Vertex passes as (vertex, arriving half-edge, departing half-edge,
        index of the arriving step)."""
        out = []
        n = len(self.walk)
        for i, step in enumerate(self.walk):
            nxt = self.walk[(i + 1) % n]
            out.append((step_head(self.host, step), step_head_half(step), step_tail_half(nxt), i))
        return out

    def reversed_curve(self, name: str | None = None) -> "CurveOnSurface":
        walk = tuple(reversed_step(s) for s in reversed(self.walk))
        return CurveOnSurface(self.host, name or self.name, walk)

    def rebased(self, index: int) -> tuple[Step, ...]:
        """The cyclic walk starting at step ``index``."""
        return self.walk[index:] + self.walk[:index]

    def cyclically_equal(self, other: "CurveOnSurface") -> bool:
        """Same walk up to the choice of basepoint; direction counts."""
        if len(self.walk) != len(other.walk):
            return False
        doubled = other.walk + other.walk
        n = len(self.walk)
        return any(self.walk == doubled[i:i + n] for i in range(n))

    def to_json_dict(self) -> dict:
        return {"name": self.name, "walk": [signed_edge_id(s) for s in self.walk]}


def signed_edge_id(step: Step) -> str:
    e, s = step
    return e if s > 0 else f"-{e}"


def parse_signed_edge_id(token: str) -> Step:
    if token.startswith("-"):
        return (token[1:], -1)
    return (token, 1)


def curve_from_json(surface: RibbonGraph, rec: dict) -> CurveOnSurface:
    name = json_field(rec, "name", str, "vanishing cycle")
    walk = json_field(rec, "walk", list, f"vanishing cycle {name!r}", str)
    return CurveOnSurface(surface, name, tuple(parse_signed_edge_id(t) for t in walk))


# -- arcs ---------------------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    """One step of an arc: ``kind`` is "edge" (run along the band) or
    "cross" (cross the band transversally, side to side)."""

    kind: str
    edge: str
    sign: int

    def __post_init__(self):
        if self.kind not in ("edge", "cross") or self.sign not in (1, -1):
            raise SurfaceError(f"bad path step {self!r}")


@dataclass(frozen=True)
class BoundaryPosition:
    walk: int
    offset: int


@dataclass(frozen=True)
class CombPath:
    """An arc with endpoints on the boundary.

    Consecutive "edge" steps must chain head-to-tail; corner passages at the
    intermediate vertices are implicit in the pair of half-edges there, which
    is all the crossing rules need.  A "cross" step records a transverse
    crossing of one band and carries no graph traversal.
    """

    host: RibbonGraph
    steps: tuple[PathStep, ...]
    start: BoundaryPosition
    end: BoundaryPosition

    def __post_init__(self):
        if not self.steps:
            raise SurfaceError("empty path")
        known = set(self.host.edges)
        for st in self.steps:
            if st.edge not in known:
                raise SurfaceError(f"path step {st} is not on the surface")
        prev = None
        for st in self.steps:
            if prev is not None and prev.kind == "edge" and st.kind == "edge":
                a = step_head(self.host, (prev.edge, prev.sign))
                b = step_tail(self.host, (st.edge, st.sign))
                if a != b:
                    raise SurfaceError(f"path breaks between {prev} and {st}")
            prev = st

    def traversed_edges(self) -> frozenset[str]:
        return frozenset(st.edge for st in self.steps if st.kind == "edge")

    def interior_passes(self) -> list[tuple[str, HalfEdge, HalfEdge, int]]:
        """Corner passages between consecutive edge steps, as in
        CurveOnSurface.passes (open: no wrap-around)."""
        out = []
        prev = None
        for i, st in enumerate(self.steps):
            if st.kind != "edge":
                prev = None
                continue
            if prev is not None:
                j, pst = prev
                out.append((
                    step_head(self.host, (pst.edge, pst.sign)),
                    step_head_half((pst.edge, pst.sign)),
                    step_tail_half((st.edge, st.sign)),
                    j,
                ))
            prev = (i, st)
        return out
