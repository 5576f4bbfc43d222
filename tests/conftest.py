"""Shared fixtures: canonical small surfaces and a per-session build cache.

Fibrations are pure functions of (construction, genus), so one build per key
is shared across the whole run to keep the suite fast.
"""

import random

import pytest
from hypothesis import settings

from lf_forge import (
    LefschetzFibration,
    ishikawa_fibration,
    johns_fibration,
    sphere_planar_fibration,
)
from lf_forge.ribbon import RibbonGraph

# Property tests check results, not speed; a per-example deadline only
# measures how busy the host is.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

_BUILDERS = {
    "johns": johns_fibration,
    "ishikawa": ishikawa_fibration,
    "sphere": lambda genus: sphere_planar_fibration(),
}


@pytest.fixture(scope="session")
def built():
    cache = {}

    def get(construction, genus):
        key = (construction, genus)
        if key not in cache:
            cache[key] = _BUILDERS[construction](genus)
        return cache[key]

    return get


def _relabelled(fib, seed):
    """The same fibration as a document with seeded fresh vertex and edge
    names, so the spanning tree and the basis change."""
    rng = random.Random(seed)
    doc = fib.to_json_dict()
    fiber = doc["fiber"]

    def fresh(prefix, ids):
        numbers = rng.sample(range(10 * len(ids)), len(ids))
        return {old: f"{prefix}{n}" for old, n in zip(ids, numbers)}

    vname = fresh("v", fiber["vertices"])
    ename = fresh("e", [rec["id"] for rec in fiber["edges"]])

    def half(token):
        edge, _, end = token.rpartition(".")
        return f"{ename[edge]}.{end}"

    def step(token):
        return f"-{ename[token[1:]]}" if token.startswith("-") else ename[token]

    doc["fiber"] = {
        "schema": "ribbon-graph/1",
        "vertices": [vname[v] for v in fiber["vertices"]],
        "edges": [
            {"id": ename[rec["id"]], "half_edges": [half(h) for h in rec["half_edges"]],
             "twist": rec["twist"]}
            for rec in fiber["edges"]
        ],
        "rotation": {vname[v]: [half(t) for t in hs] for v, hs in fiber["rotation"].items()},
    }
    doc["vanishing_cycles"] = [
        {"name": rec["name"], "walk": [step(t) for t in rec["walk"]]}
        for rec in doc["vanishing_cycles"]
    ]
    return LefschetzFibration.from_json_dict(doc)


@pytest.fixture(scope="session")
def relabelled():
    """``relabelled(fib, seed)``: ``fib`` rebuilt from a document with
    seeded fresh vertex and edge names.  Rotations are kept as they are, so
    on a fiber with twisted bands a new least vertex can leave the reduced
    fiber mirrored."""
    return _relabelled


def _flipped(fib, seed):
    """The same fibration as a document in which a seeded random half of
    the fiber's edges run the other way: their two ends swap places in the
    rotations and every walk step along them changes sign.  All names are
    kept."""
    rng = random.Random(seed)
    doc = fib.to_json_dict()
    fiber = doc["fiber"]
    ids = [rec["id"] for rec in fiber["edges"]]
    flip = set(rng.sample(ids, len(ids) // 2))

    def half(token):
        edge, _, end = token.rpartition(".")
        return f"{edge}.{1 - int(end)}" if edge in flip else token

    def step(token):
        edge = token.lstrip("-")
        if edge not in flip:
            return token
        return edge if token.startswith("-") else f"-{edge}"

    fiber["rotation"] = {v: [half(t) for t in hs] for v, hs in fiber["rotation"].items()}
    doc["vanishing_cycles"] = [
        {"name": rec["name"], "walk": [step(t) for t in rec["walk"]]}
        for rec in doc["vanishing_cycles"]
    ]
    return LefschetzFibration.from_json_dict(doc)


@pytest.fixture(scope="session")
def flipped():
    """``flipped(fib, seed)``: ``fib`` with a seeded half of its edges
    reversed and every name kept."""
    return _flipped


def _mirrored(fib):
    """``fib`` rebuilt from its document with every rotation reversed: the
    same fibration, opposite orientation."""
    doc = fib.to_json_dict()
    doc["fiber"]["rotation"] = {v: hs[::-1] for v, hs in doc["fiber"]["rotation"].items()}
    return LefschetzFibration.from_json_dict(doc)


@pytest.fixture(scope="session")
def mirrored():
    """``mirrored(fib)``: ``fib`` with the opposite orientation."""
    return _mirrored


@pytest.fixture
def constructions(monkeypatch):
    """``constructions(cls)``: a list that receives every ``cls`` instance
    built from then on, until ``monkeypatch.undo()``: through ``__init__``
    or through the class's numbered-dart entry ``_linked``, which the
    parser, the builders and ``standard_divide`` use."""

    def start(cls):
        made = []
        init = cls.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", counted)
        if "_linked" in vars(cls):
            linked = cls._linked

            def counted_linked(*args):
                made.append(linked(*args))
                return made[-1]

            monkeypatch.setattr(cls, "_linked", staticmethod(counted_linked))
        return made

    return start


@pytest.fixture(scope="session")
def annulus():
    return RibbonGraph(("v",), ("e",), {"v": (("e", 0), ("e", 1))})


@pytest.fixture(scope="session")
def mobius():
    return RibbonGraph(("v",), ("e",), {"v": (("e", 0), ("e", 1))}, twists=("e",))


@pytest.fixture(scope="session")
def punctured_torus():
    # one vertex, two interleaved loops
    return RibbonGraph(("v",), ("a", "b"), {"v": (("a", 0), ("b", 0), ("a", 1), ("b", 1))})


@pytest.fixture(scope="session")
def pants():
    # two vertices joined by three parallel bands, far end reversed
    return RibbonGraph(
        ("u", "v"),
        ("e", "f", "g"),
        {"u": (("e", 0), ("f", 0), ("g", 0)), "v": (("g", 1), ("f", 1), ("e", 1))},
    )
