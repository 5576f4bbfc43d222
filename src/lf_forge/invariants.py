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

from .curves import CurveOnSurface
from .homology import _sparse_class, curve_class, homology_basis, workspace
from .ribbon import Record, RibbonGraph, SurfaceError


# -- finitely generated abelian groups ------------------------------------------


class FinAbGroup(Record):
    """Z^free_rank plus cyclic torsion factors in a divisibility chain."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        for t in torsion:
            if t < 2:
                raise ValueError(f"torsion factor {t} must be at least 2 (Z/0 is never stored)")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    def __str__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank > 1 else (["Z"] if self.free_rank else [])
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}


# -- Smith normal form -----------------------------------------------------------


def smith_normal_form(matrix: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(D, U, V) with D = U * matrix * V, U and V unimodular, D diagonal with
    d_1 | d_2 | ... Exact over Python ints."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [list(map(int, r)) for r in matrix]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i += k * row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, k):  # col_i += k * col_j
        for r in a:
            r[i] += k * r[j]
        for r in v:
            r[i] += k * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # Pivot: smallest nonzero magnitude in the remaining block.
        pivot = min(((abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]), default=None)
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
        if a[t][t] < 0:
            negate_row(t)
        for i in range(t + 1, rows):
            row_op(i, t, -(a[i][t] // a[t][t]))
        for j in range(t + 1, cols):
            col_op(j, t, -(a[t][j] // a[t][t]))
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][j] for j in range(t + 1, cols)):
            continue  # remainders surfaced; redo this pivot
        # Divisibility: fold in any entry the pivot does not divide.
        offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
        if offender is not None:
            row_op(t, offender, 1)
            continue
        t += 1
    return a, u, v


def _sparse_snf_diagonal(rows: list[dict[int, int]], ops: list[dict[int, int]] | None = None) -> list[int]:
    """Nonzero invariant factors of the matrix whose rows are the sparse
    ``{column: entry}`` dicts ``rows`` (consumed).

    Unit pivots are peeled first on sparse rows: a +-1 entry in a shortest
    row clears its column by row operations, after which column operations
    clear its row without touching anything else, so the pivot splits off as
    a factor 1 and its row and column drop out.  The pivot row is the
    shortest row with a unit entry, lowest index first; a heap keyed by
    (length, index) holds every row, a row is pushed again whenever an
    elimination changes it, and entries whose length is out of date are
    skipped.  Only the residue, which has no unit entry left, goes to
    ``smith_normal_form``.  A pivot row ends empty.  ``ops`` (sparse, the
    identity to start with) repeats each row operation, so non-pivot row i
    ends as sum_j ops[i][j] * (row j as given); a pivot row's ops end empty.
    """
    import heapq  # here, so that importing the package does not load it

    cols: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in enumerate(rows) if r]
    heapq.heapify(heap)
    ones = 0
    while heap:
        length, p = heapq.heappop(heap)
        prow = rows[p]
        if len(prow) != length:
            continue
        c = -1  # the unit entry in the shortest column, lowest index first
        for j, x in prow.items():
            if x == 1 or x == -1:
                k = len(cols[j])
                if c < 0 or k < best or k == best and j < c:
                    c, best = j, k
        if c < 0:
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
                heapq.heappush(heap, (len(row), i))
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
    if not residue_cols:
        return [1] * ones
    residue = [[r.get(j, 0) for j in residue_cols] for r in rows if r]
    d, _, _ = smith_normal_form(residue)
    return [1] * ones + [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i]]


def _cokernel_from_diagonal(diag: list[int], ambient_rank: int) -> FinAbGroup:
    return FinAbGroup(ambient_rank - len(diag), tuple(x for x in diag if x > 1))


# -- fibration-level invariants and open books ------------------------------------


def total_space_euler(fiber: RibbonGraph, cycles) -> int:
    """chi of the 4-manifold: chi(F) x chi(disk) + one per critical point."""
    return fiber.euler_characteristic() + len(cycles)


class OpenBook(Record):
    """Boundary open book: page plus the ordered word of positive twists."""

    __slots__ = ("page", "word")

    def __init__(self, page: RibbonGraph, word: tuple[CurveOnSurface, ...]):
        object.__setattr__(self, "page", page)
        object.__setattr__(self, "word", word)


def boundary_open_book(fiber: RibbonGraph, cycles) -> OpenBook:
    for c in cycles:
        if c.host is not fiber:
            raise SurfaceError("cycle lives on a different surface")
        c.require_edge_simple()
    return OpenBook(fiber, tuple(cycles))


def fibration_homology(book: OpenBook) -> tuple[FinAbGroup, FinAbGroup, FinAbGroup]:
    """(H1, H2) of the total space and H1 of its boundary."""
    ws = workspace(book.page)  # held, so that every _sparse_class finds it in the weak cache
    classes = [_sparse_class(book.page, c) for c in book.word]
    return _peeled_homology(len(ws.basis), classes, ws.pairings(book.word))


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
    return fibration_homology(boundary_open_book(fiber, cycles))[:2]


def open_book_h1(book: OpenBook) -> FinAbGroup:
    """H1 of the 3-manifold the open book describes (``fibration_homology``)."""
    return fibration_homology(book)[2]


def monodromy_arc_relations(book: OpenBook) -> list[list[int]]:
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
    page = book.page
    n = len(homology_basis(page))
    vecs = [curve_class(page, c).vector for c in book.word]
    pair = workspace(page).pairing_matrix(book.word)
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
