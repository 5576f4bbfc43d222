"""How fast the host runs Python at the moment, from a fixed task that uses
nothing of lf_forge.

A shared host's speed drifts by a third or more within seconds and over
minutes, while the benchmark's operations are deterministic.  The worker
times `reference_task` before every operation and after the last one, and
run.py does the same around every set-up sample.  `adjust` scales a sample by
the speed those two timings show, so that end-to-end times read in seconds of
a host that runs the reference task in REFERENCE_SECONDS.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Median time of one reference task on the reference machine (2 cores,
# Python 3.11) in a quiet spell.
REFERENCE_SECONDS = 0.011


def reference_task() -> int:
    """Breadth-first search over a fixed graph and integer row reduction of a
    fixed matrix: the dict, list, tuple and small-integer work that the
    package's ribbon graphs and Smith normal forms are made of."""
    n = 12000
    adj = {v: [(v * 7 + 1) % n, (v * 13 + 5) % n, (v + 1) % n] for v in range(n)}
    seen = {0: None}
    queue = [0]
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen[w] = (v, w)
                queue.append(w)
    rows = [[(i * 31 + j * 17) % 11 - 5 for j in range(36)] for i in range(36)]
    for c in range(36):
        pivot = next((r for r in range(c, 36) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c][c]
        for r in range(c + 1, 36):
            f = rows[r][c]
            if f:
                rows[r] = [p * x - f * y for x, y in zip(rows[r], rows[c])]
    return len(seen) + sum(len(str(x)) for x in rows[-1])


def time_reference() -> float:
    """Seconds for one reference task, with the cyclic collector off so that
    its time does not depend on what the caller keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_task()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def adjust(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between reference timings `before` and `after`,
    scaled to the reference speed."""
    return seconds * REFERENCE_SECONDS / ((before + after) / 2)
