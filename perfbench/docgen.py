"""Seeded re-presentations of `lefschetz-fibration/1` documents.

`relabel` renames vertices and edges, shuffles their lists, flips edge
directions and rotates every rotation list and every cycle basepoint, while
keeping the oriented fibration.  The library orients a surface from its
lexicographically least vertex, so when the vertex that becomes least had
local sign -1 the rotations are all reversed to undo the implied mirror.
The signs are computed here from the twist bits, not by the library.

`mirror` reverses every rotation: the same fibration, opposite orientation.
"""

from __future__ import annotations

import random


def _half(token: str) -> tuple[str, int]:
    edge, _, end = token.rpartition(".")
    return edge, int(end)


def local_signs(fiber: dict) -> dict[str, int]:
    """+-1 per vertex, +1 at the least vertex; a twisted band flips the sign."""
    twisted = {rec["id"] for rec in fiber["edges"] if rec.get("twist")}
    ends: dict[str, list[str]] = {}
    for v, tokens in fiber["rotation"].items():
        for token in tokens:
            ends.setdefault(_half(token)[0], []).append(v)
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in fiber["vertices"]}
    for e, (t, h) in ends.items():
        flip = -1 if e in twisted else 1
        adj[t].append((h, flip))
        adj[h].append((t, flip))
    root = min(fiber["vertices"])
    sign = {root: 1}
    stack = [root]
    while stack:
        v = stack.pop()
        for w, flip in adj[v]:
            if w not in sign:
                sign[w] = sign[v] * flip
                stack.append(w)
    if len(sign) != len(adj):
        raise ValueError("fiber is not connected")
    return sign


def _fresh_names(rng: random.Random, prefix: str, count: int) -> list[str]:
    width = len(str(8 * count))
    return [f"{prefix}{n:0{width}d}" for n in rng.sample(range(10 ** width), count)]


def relabel(doc: dict, rng: random.Random) -> dict:
    """An isomorphic, orientation-preserving presentation of ``doc``."""
    fiber = doc["fiber"]
    vertices = list(fiber["vertices"])
    edges = [rec["id"] for rec in fiber["edges"]]
    twisted = {rec["id"] for rec in fiber["edges"] if rec.get("twist")}
    vname = dict(zip(vertices, _fresh_names(rng, "v", len(vertices))))
    ename = dict(zip(edges, _fresh_names(rng, "e", len(edges))))
    flipped = {e for e in edges if rng.random() < 0.5}

    def half(token: str) -> str:
        e, end = _half(token)
        return f"{ename[e]}.{end ^ (e in flipped)}"

    signs = local_signs(fiber)
    new_root = min(vertices, key=vname.__getitem__)
    reverse = signs[new_root] == -1
    rotation = {}
    for v in rng.sample(vertices, len(vertices)):
        rot = [half(t) for t in fiber["rotation"][v]]
        if reverse:
            rot.reverse()
        k = rng.randrange(len(rot)) if rot else 0
        rotation[vname[v]] = rot[k:] + rot[:k]
    edge_recs = []
    for e in rng.sample(edges, len(edges)):
        new = ename[e]
        edge_recs.append({"id": new, "half_edges": [f"{new}.0", f"{new}.1"],
                          "twist": e in twisted})

    def step(token: str) -> str:
        e, back = (token[1:], True) if token.startswith("-") else (token, False)
        back ^= e in flipped
        return f"-{ename[e]}" if back else ename[e]

    cycles = []
    for rec in doc["vanishing_cycles"]:
        walk = [step(t) for t in rec["walk"]]
        k = rng.randrange(len(walk))
        cycles.append({"name": rec["name"], "walk": walk[k:] + walk[:k]})
    return {
        "schema": doc["schema"],
        "construction": doc["construction"],
        "genus": doc["genus"],
        "fiber": {
            "schema": fiber["schema"],
            "vertices": [vname[v] for v in rng.sample(vertices, len(vertices))],
            "edges": edge_recs,
            "rotation": rotation,
        },
        "vanishing_cycles": cycles,
    }


def mirror(doc: dict) -> dict:
    """The same document with every rotation reversed."""
    fiber = dict(doc["fiber"])
    fiber["rotation"] = {v: list(reversed(rot)) for v, rot in fiber["rotation"].items()}
    return {**doc, "fiber": fiber}
