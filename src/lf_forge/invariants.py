"""Homological invariants of a fibration's total space and boundary.

Everything is exact integer linear algebra.  The total space of a fibration
with fiber F and vanishing cycles c_1..c_m deformation-retracts to F with m
disks attached, so H1 = coker C and H2 = ker C for the map C: Z^m -> H1(F)
sending each cycle to its class.  The boundary is an open book with page F
and monodromy the product of positive Dehn twists along the word; its H1 is
coker B, B = [[0, C], [-C^T, (I - U)^T]], U_jk = <c_j, c_k> for j < k.  One
peel of the rows of C^T, with its row operations recorded, gives all three
groups without building B (``fibration_homology``).
"""

from __future__ import annotations

from operator import index

from .curves import checked_curves
from .homology import _sparse_class, curve_class, homology_basis, pairing_matrix, pairings, workspace
from .ribbon import Record, RibbonGraph, SurfaceError, checked_count, checked_kind


# -- finitely generated abelian groups ------------------------------------------


class FinAbGroup(Record):
    """Z^free_rank plus cyclic torsion factors in a divisibility chain, kept
    as a tuple; a malformed argument raises SurfaceError."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        checked_count(free_rank, "free rank")
        if not isinstance(torsion, (tuple, list)) or not all(isinstance(t, int) for t in torsion):
            raise SurfaceError(f"torsion must be a sequence of integers, got {torsion!r}")
        for t in torsion:
            if t < 2:
                raise SurfaceError(f"torsion factor {t} must be at least 2 (Z/0 is never stored)")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise SurfaceError(f"torsion {torsion} is not a divisibility chain")
        super().__init__(free_rank, tuple(torsion))

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    def __str__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank > 1 else (["Z"] if self.free_rank else [])
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


# -- Smith normal form -----------------------------------------------------------


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix,
    exact over Python ints.  SurfaceError unless ``matrix`` is a list of
    equal-length rows of integers."""
    try:
        a = [list(map(index, r)) for r in matrix]
    except TypeError:  # not a list of rows, or an entry that is no integer
        raise SurfaceError(f"matrix must be a list of integer rows, got {matrix!r}") from None
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise SurfaceError("matrix rows must have equal lengths")
    t = 0
    while t < min(rows, cols):
        # Pivot: smallest nonzero magnitude in the remaining block.
        pivot = min(((abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]), default=None)
        if pivot is None:
            break
        _, pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        p = a[t][t]
        for i in range(t + 1, rows):
            k = a[i][t] // p
            a[i] = [x - k * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, cols):
            k = a[t][j] // p
            for r in a:
                r[j] -= k * r[t]
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][j] for j in range(t + 1, cols)):
            continue  # remainders surfaced; redo this pivot
        # Divisibility: fold in any entry the pivot does not divide.
        offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % p), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        t += 1
    return [a[i][i] for i in range(t)]


def _sparse_snf_diagonal(rows: list[dict[int, int]], ops: list[dict[int, int]] | None = None) -> list[int]:
    """Nonzero invariant factors of the matrix whose rows are the sparse
    ``{column: entry}`` dicts ``rows`` (consumed).

    Unit pivots are peeled first on sparse rows: a +-1 entry of a row clears
    its column by row operations, after which column operations clear its
    row without touching anything else, so the pivot splits off as a factor
    1 and its row and column drop out.  The rows are visited in a worklist,
    each row pivoting on its first unit entry; a row that an elimination
    changes is appended again, so the work is bounded by the eliminations
    made.  Only the residue, which has no unit entry left, goes to
    ``smith_normal_form``.  A pivot row ends empty.  ``ops`` (sparse, the
    identity to start with) repeats each row operation, so non-pivot row i
    ends as sum_j ops[i][j] * (row j as given); a pivot row's ops end empty.
    """
    cols: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
    todo = list(range(len(rows)))
    ones = 0
    for p in todo:
        prow = rows[p]
        c = next((j for j, x in prow.items() if x == 1 or x == -1), None)
        if c is None:
            continue
        pc = prow.pop(c)
        for i in cols.pop(c):
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c) * pc
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                    cols[j].add(i)
                elif y == f * x:
                    del row[j]
                    cols[j].remove(i)
                else:
                    row[j] = y - f * x
            if row:
                todo.append(i)
            if ops is not None:
                op = ops[i]
                for j, x in ops[p].items():
                    y = op.pop(j, 0) - f * x
                    if y:
                        op[j] = y
        for j in prow:
            cols[j].discard(p)
        rows[p] = {}
        if ops is not None:
            ops[p] = {}
        ones += 1
    residue_cols = sorted(j for j, rs in cols.items() if rs)
    residue = [[r.get(j, 0) for j in residue_cols] for r in rows if r]
    return [1] * ones + smith_normal_form(residue)


def _cokernel_from_diagonal(diag: list[int], ambient_rank: int) -> FinAbGroup:
    return FinAbGroup(ambient_rank - len(diag), tuple(x for x in diag if x > 1))


# -- fibration-level invariants and open books ------------------------------------


def total_space_euler(fiber: RibbonGraph, cycles) -> int:
    """chi of the 4-manifold: chi(F) x chi(disk) + one per critical point."""
    checked_kind(fiber, RibbonGraph, "fiber")
    if not hasattr(cycles, "__len__"):
        raise SurfaceError(f"cycles must have a length, got {cycles!r}")
    return fiber.euler_characteristic() + len(cycles)


def fibration_homology(page: RibbonGraph, word) -> tuple[FinAbGroup, FinAbGroup, FinAbGroup]:
    """(H1, H2) of the total space and H1 of its boundary open book; the word's
    cycles must be edge-simple cycles on the page, as the corner rule assumes."""
    for c in checked_curves(word, "word"):
        if c.host is not page:
            raise SurfaceError("cycle lives on a different surface")
        c.require_edge_simple()
    ws = workspace(page)
    classes = [_sparse_class(ws._basis_index, c._heads) for c in word]
    return _peeled_homology(ws.rank, classes, pairings(page, word))


def _peeled_homology(n: int, rows, pairs) -> tuple[FinAbGroup, FinAbGroup, FinAbGroup]:
    """(coker C, ker C, coker B) from one peel of the sparse word classes
    ``rows`` (consumed) as the rows of C^T, and the sparse pairing ``pairs``.

    With P and Q the peel's row and column operations, diag(Q^T, P) B
    diag(Q, P^T) has P C^T Q in its corners, where each of the s pivots is a
    lone unit: 2s factors 1 split off.  A basis column left with no pivot
    and no entry is a free Z, and the square ``_boundary_matrix`` is the rest.
    """
    m = len(rows)
    ops = [{i: 1} for i in range(m)]
    diag = _sparse_snf_diagonal(rows, ops)
    kernel = [i for i in range(m) if ops[i]]
    square = _boundary_matrix(rows, ops, kernel, pairs)
    boundary = _cokernel_from_diagonal(_sparse_snf_diagonal(square), n - m + 2 * len(kernel))
    return _cokernel_from_diagonal(diag, n), FinAbGroup.free(m - len(diag)), boundary


def _boundary_matrix(rows, ops, kernel, pairs) -> list[dict[int, int]]:
    """Sparse rows of the square matrix that is left of B after the peel,
    from the peel's ``rows`` and ``ops`` and its non-pivot rows ``kernel`` (K).

    Columns: x_c per residue column c, then z_k per k in K.  Row x_c holds
    rows[k][c] at z_k; row z_i holds -rows[i][c] at x_c and (P (I - U)^T P^T)_ik
    = ops_i.ops_k - sum_{b<a} U_ba ops_i[a] ops_k[b] at z_k.
    """
    cols = sorted({c for k in kernel for c in rows[k]})
    z0 = len(cols)
    square = [{z0 + t: rows[k][c] for t, k in enumerate(kernel) if c in rows[k]} for c in cols]
    for i in kernel:
        row = {s: -rows[i][c] for s, c in enumerate(cols) if c in rows[i]}
        w = dict(ops[i])  # (I - U) ops_i
        for b, paired in enumerate(pairs):
            for a, u in paired.items():
                if a > b and a in ops[i]:
                    w[b] = w.get(b, 0) - u * ops[i][a]
        for t, k in enumerate(kernel):
            a_ik = sum(y * w.get(j, 0) for j, y in ops[k].items())
            if a_ik:
                row[z0 + t] = a_ik
        square.append(row)
    return square


def total_space_homology(fiber: RibbonGraph, cycles) -> tuple[FinAbGroup, FinAbGroup]:
    """(H1, H2) of the total space, from ``fibration_homology``."""
    return fibration_homology(fiber, cycles)[:2]


def open_book_h1(page: RibbonGraph, word) -> FinAbGroup:
    """H1 of the 3-manifold the open book describes (``fibration_homology``)."""
    return fibration_homology(page, word)[2]


def monodromy_arc_relations(page: RibbonGraph, word) -> list[list[int]]:
    """Relation matrix R of H1 of the open book on the page basis; the
    oracle the tests hold ``open_book_h1`` against.

    For the cutting arc dual to co-tree edge e, the word's twists insert n_k
    detour copies of c_k, n_k the running arc's signed crossings with c_k; a
    pushed-off copy of c_j meets c_k <c_j, c_k> times, and the base arc meets
    c_k once per signed traversal of e, so the relation is sum_k n_k [c_k].
    All arcs at once: counts[k] = [c_k] + sum_{j<k} <c_j, c_k> counts[j] and
    R = sum_k [c_k] counts[k]^T.  With U as in the module docstring the counts
    are N = C (I - U)^-1, so R = C (I - U)^-T C^T: dense n x n, built only here.
    """
    n = len(homology_basis(page))
    vecs = [curve_class(page, c).vector for c in word]
    pair = pairing_matrix(page, word)
    counts: list[list[int]] = []
    for k, vec in enumerate(vecs):
        nk = list(vec)
        for j in range(k):
            if pair[j][k]:
                nk = [a + pair[j][k] * b for a, b in zip(nk, counts[j])]
        counts.append(nk)
    rel = [[0] * n for _ in range(n)]
    for vec, nk in zip(vecs, counts):
        for r, v in enumerate(vec):
            if v:
                rel[r] = [a + v * b for a, b in zip(rel[r], nk)]
    return rel
