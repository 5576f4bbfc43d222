"""Integer linear algebra and the homology of total spaces and boundaries."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lf_forge.builders import johns_fibration, sphere_planar_fibration, word_families
from lf_forge import homology
from lf_forge.curves import CurveOnSurface
from lf_forge.homology import _sparse_class, curve_class, homology_basis, pairing_matrix, pairings, workspace
from lf_forge.invariants import (
    FinAbGroup,
    _boundary_matrix,
    _peeled_homology,
    _sparse_snf_diagonal,
    fibration_homology,
    monodromy_arc_relations,
    open_book_h1,
    smith_normal_form,
    total_space_euler,
    total_space_homology,
)

from lf_forge.ribbon import SurfaceError

from oracles import _bordered_presentation, cokernel


def det(m):
    """Cofactor expansion; fine for the sizes hypothesis generates."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


# -- groups -----------------------------------------------------------------------


def test_group_strings():
    assert str(FinAbGroup(0, ())) == "0"
    assert str(FinAbGroup.free(1)) == "Z"
    assert str(FinAbGroup.free(3)) == "Z^3"
    assert str(FinAbGroup(1, (2,))) == "Z + Z/2"
    assert str(FinAbGroup(0, (2, 6))) == "Z/2 + Z/6"


def test_group_validation():
    with pytest.raises(ValueError):
        FinAbGroup(-1, ())
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FinAbGroup(0, (0,))
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 2))


def test_torsion_given_as_a_list_is_kept_as_a_tuple():
    """A group is a record: equal to, and hashing like, the same group with
    its torsion given as a tuple."""
    group = FinAbGroup(1, [2, 4])
    assert group.torsion == (2, 4)
    assert group == FinAbGroup(1, (2, 4)) and hash(group) == hash(FinAbGroup(1, (2, 4)))


# -- Smith normal form -------------------------------------------------------------


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def determinantal_factors(m):
    """Oracle for ``smith_normal_form``: d_k = D_k / D_(k-1) for every k with
    D_k != 0, where D_k is the gcd of the k x k minors and D_0 = 1."""
    factors, prev = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        dk = 0
        for rs in combinations(range(len(m)), k):
            for cs in combinations(range(len(m[0])), k):
                dk = gcd(dk, det([[m[i][j] for j in cs] for i in rs]))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return factors


@given(matrices)
def test_smith_normal_form_properties(m):
    d = smith_normal_form(m)
    assert d == determinantal_factors(m)
    assert all(x > 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0


def test_smith_normal_form_known_case():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


# Tall and wide matrices that look like relation matrices: mostly 0 and +-1,
# with the odd larger entry so that a residue is left after the unit pivots.
sparse_entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.integers(-4, 4),
)
sparse_matrices = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: st.lists(
        st.lists(sparse_entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


def snf_diagonal(m):
    """``_sparse_snf_diagonal`` on the sparse rows of the dense matrix ``m``."""
    return _sparse_snf_diagonal([{j: x for j, x in enumerate(r) if x} for r in m])


@given(matrices)
def test_snf_diagonal_matches_smith_normal_form(m):
    assert snf_diagonal(m) == smith_normal_form(m)


@given(sparse_matrices)
def test_snf_diagonal_matches_smith_normal_form_on_sparse_unit_matrices(m):
    assert snf_diagonal(m) == smith_normal_form(m)


@given(sparse_matrices)
def test_sparse_peel_gives_a_matrix_and_its_transpose_the_same_factors(m):
    # total_space_homology eliminates the rows of C^T for the factors of C.
    rows = [{j: x for j, x in enumerate(r) if x} for r in m]
    columns = [{i: r[j] for i, r in enumerate(m) if r[j]} for j in range(len(m[0]))]
    assert _sparse_snf_diagonal(rows) == _sparse_snf_diagonal(columns) == smith_normal_form(m)


def test_snf_diagonal_known_cases():
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert snf_diagonal([[1, 2], [3, 4]]) == [1, 2]
    assert snf_diagonal([[0, 0], [0, 0]]) == []
    assert snf_diagonal([[], []]) == []


# -- cokernels ---------------------------------------------------------------------


def test_cokernel_cases():
    assert cokernel([[2]], 1) == FinAbGroup(0, (2,))
    assert cokernel([[1]], 1) == FinAbGroup(0, ())
    assert cokernel([[0, 0], [0, 0]], 2) == FinAbGroup.free(2)
    assert cokernel([[2, 0], [0, 3]], 2) == FinAbGroup(0, (6,))
    assert cokernel([[2, 0], [0, 0]], 2) == FinAbGroup(1, (2,))


# -- annulus open books: lens space ladder ------------------------------------------


def annulus_book(word_length):
    from lf_forge.ribbon import RibbonGraph

    page = RibbonGraph(("v",), ("e",), {"v": (("e", 0), ("e", 1))})
    core = (("e", 1),)
    word = tuple(
        CurveOnSurface(page, f"c{i}", core) for i in range(word_length)
    )
    return page, word


@pytest.mark.parametrize(
    "word_length,expected",
    [
        (0, FinAbGroup.free(1)),
        (1, FinAbGroup(0, ())),
        (2, FinAbGroup(0, (2,))),
        (3, FinAbGroup(0, (3,))),
        (5, FinAbGroup(0, (5,))),
    ],
)
def test_annulus_books_give_cyclic_groups(word_length, expected):
    assert open_book_h1(*annulus_book(word_length)) == expected


def test_punctured_torus_two_twist_book_is_a_sphere(punctured_torus):
    a = CurveOnSurface(punctured_torus, "a", (("a", 1),))
    b = CurveOnSurface(punctured_torus, "b", (("b", 1),))
    assert open_book_h1(punctured_torus, (a, b)) == FinAbGroup(0, ())
    # conjugate word, homeomorphic total space
    assert open_book_h1(punctured_torus, (b, a)) == FinAbGroup(0, ())


def test_punctured_torus_single_twist_book(punctured_torus):
    a = CurveOnSurface(punctured_torus, "a", (("a", 1),))
    assert open_book_h1(punctured_torus, (a,)) == FinAbGroup.free(1)


def test_empty_word_book_keeps_page_homology(punctured_torus):
    assert open_book_h1(punctured_torus, ()) == FinAbGroup.free(2)


# -- total spaces ------------------------------------------------------------------


def test_total_space_euler_counts_only_curves_on_the_fiber(built):
    """The cycles are a word of curves on the fiber (``checked_curves``):
    anything with a length was counted once, so "zz" read as two critical
    points, [None] as one, and another build's word as its own length."""
    fib = built("johns", 1)
    for cycles, message in (("zz", "cycles must be a tuple or list of curves, got str"),
                            ([None], "cycles entry None is not a curve"),
                            (built("johns", 2).word, "curve 'a0' lives on a different surface")):
        with pytest.raises(SurfaceError) as err:
            total_space_euler(fib.fiber, cycles)
        assert str(err.value) == message
    assert total_space_euler(fib.fiber, list(fib.word)) == total_space_euler(fib.fiber, fib.word) == 0


def test_sphere_model_total_space():
    fib = sphere_planar_fibration()
    assert total_space_euler(fib.fiber, fib.word) == 2
    h1, h2 = total_space_homology(fib.fiber, fib.word)
    assert h1 == FinAbGroup(0, ())
    assert h2 == FinAbGroup.free(1)
    # its boundary open book doubles the core twist
    assert open_book_h1(fib.fiber, fib.word) == FinAbGroup(0, (2,))


@pytest.mark.parametrize("entry_point", [fibration_homology, open_book_h1, total_space_homology],
                         ids=["fibration_homology", "open_book_h1", "total_space_homology"])
def test_homology_entry_points_refuse_a_word_the_corner_rule_cannot_read(built, entry_point):
    """A cycle that runs a0 twice repeats an edge, and a1 of another build's
    fiber lives on a different surface.  The word's kind, entries and hosts
    are read first (``checked_curves``), then each cycle's edges in word
    order, so a foreign cycle is named before a doubled one wherever it
    stands."""
    fib = built("johns", 1)
    a0 = fib.word[0]
    doubled = CurveOnSurface(fib.fiber, "a0", a0.walk + a0.walk)
    foreign = johns_fibration(1).word[1]
    with pytest.raises(SurfaceError, match=r"^curve 'a0' repeats an edge$"):
        entry_point(fib.fiber, (doubled, *fib.word[1:]))
    with pytest.raises(SurfaceError, match=r"^curve 'a1' lives on a different surface$"):
        entry_point(fib.fiber, (a0, foreign, *fib.word[2:]))
    with pytest.raises(SurfaceError, match=r"^curve 'a1' lives on a different surface$"):
        entry_point(fib.fiber, (doubled, foreign))
    with pytest.raises(SurfaceError, match=r"^curve 'a1' lives on a different surface$"):
        entry_point(fib.fiber, (foreign, doubled))


def test_total_space_homology_with_empty_word(punctured_torus):
    h1, h2 = total_space_homology(punctured_torus, ())
    assert h1 == FinAbGroup.free(2)
    assert h2 == FinAbGroup(0, ())


def dense_total_space_homology(fiber, cycles):
    """Oracle for ``total_space_homology``: the dense n x m matrix C whose
    columns are the cycle classes, with H1 = coker C and H2 = ker C of rank
    m minus the number of nonzero factors ``smith_normal_form`` finds."""
    n = len(homology_basis(fiber))
    cols = [curve_class(fiber, c).vector for c in cycles]
    matrix = [[col[i] for col in cols] for i in range(n)]
    rank = len(smith_normal_form(matrix))
    return cokernel(matrix, n), FinAbGroup.free(len(cycles) - rank)


@pytest.mark.parametrize("construction", ["johns", "ishikawa", "sphere"])
def test_total_space_homology_equals_the_dense_class_matrix(built, relabelled, construction):
    for g in [0] if construction == "sphere" else range(9):
        fib = built(construction, g)
        for f in (fib, relabelled(fib, g)):
            assert total_space_homology(f.fiber, f.word) == dense_total_space_homology(f.fiber, f.word)


# -- open-book relations -------------------------------------------------------------


def per_arc_relations(page, word):
    vecs = [curve_class(page, c).vector for c in word]
    return recurrence_relations(
        len(homology_basis(page)), vecs, pairing_matrix(page, word)
    )


def recurrence_relations(n, vecs, pair):
    """The recurrence of ``monodromy_arc_relations``' docstring, one arc at a
    time: n_k = [c_k]_i + sum_{j<k} n_j <c_j, c_k>, relation sum_k n_k [c_k];
    only the entries of ``pair`` above the diagonal are read."""
    columns = []
    for i in range(n):
        counts = []
        for k in range(len(vecs)):
            counts.append(vecs[k][i] + sum(counts[j] * pair[j][k] for j in range(k)))
        columns.append([sum(nk * vecs[k][r] for k, nk in enumerate(counts)) for r in range(n)])
    return [[columns[i][r] for i in range(n)] for r in range(n)]


def test_arc_relations_build_one_workspace_per_curve_and_one_for_the_basis(monkeypatch):
    """A class's vector length is checked against the host's spanning forest,
    so each ``curve_class`` builds only its own workspace."""
    fib = johns_fibration(8)
    built = []
    init = homology.Workspace.__init__

    def counted(self, surface):
        built.append(surface)
        init(self, surface)

    monkeypatch.setattr(homology.Workspace, "__init__", counted)
    monodromy_arc_relations(fib.fiber, fib.word)
    assert len(fib.word) == 22 and len(built) == 1 + len(fib.word)


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_arc_relations_equal_the_per_arc_recurrence(built, construction):
    for g in range(7):
        fib = built(construction, g)
        assert monodromy_arc_relations(fib.fiber, fib.word) == per_arc_relations(fib.fiber, fib.word)


# -- the bordered presentation ------------------------------------------------------


@st.composite
def classes_and_pairings(draw):
    """Random integer C (n x m) and strictly upper-triangular U (m x m)."""
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 8))
    entries = st.integers(-2, 2)
    classes = [tuple(draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(m)]
    pair = [[draw(entries) if j < k else 0 for k in range(m)] for j in range(m)]
    return n, classes, pair


@settings(max_examples=200, deadline=None)
@given(classes_and_pairings())
def test_bordered_presentation_has_the_cokernel_of_the_arc_relations(data):
    n, classes, pair = data
    m = len(classes)
    sparse = [{i: x for i, x in enumerate(vec) if x} for vec in classes]
    rows = _bordered_presentation(n, sparse, pair)
    dense = [[r.get(j, 0) for j in range(n + m)] for r in rows]
    assert cokernel(dense, n + m) == cokernel(recurrence_relations(n, classes, pair), n)


def test_open_book_h1_equals_the_cokernel_of_the_arc_relations(built, relabelled):
    for construction in ("johns", "ishikawa"):
        for g in range(9):
            fib = built(construction, g)
            for f in (fib, relabelled(fib, g)):
                n = len(homology_basis(f.fiber))
                assert open_book_h1(f.fiber, f.word) == cokernel(monodromy_arc_relations(f.fiber, f.word), n)


# -- one peel for all three groups -----------------------------------------------------


@st.composite
def degenerate_classes_and_pairings(draw):
    """C with a kernel of rank at least 2 and a residue with no unit entry.

    Base classes are doubled in a nonempty set of columns, which then never
    hold a unit; 2 e_j for one of those columns stays a residue row to the
    end, since no pivot column meets it.  Two or more repeated base classes
    and doubled copies exceed the rank of C by at least 2."""
    n = draw(st.integers(1, 6))
    even = draw(st.sets(st.integers(0, n - 1), min_size=1))
    base = [
        tuple(2 * x if i in even else x for i, x in enumerate(draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))))
        for _ in range(draw(st.integers(0, 5)))
    ]
    j = draw(st.sampled_from(sorted(even)))
    base.append(tuple(2 if i == j else 0 for i in range(n)))
    repeated = draw(st.lists(st.sampled_from(base), min_size=2, max_size=4))
    doubled = [tuple(2 * x for x in c) for c in draw(st.lists(st.sampled_from(base), max_size=2))]
    classes = draw(st.permutations(base + repeated + doubled))
    m = len(classes)
    pair = [[draw(st.integers(-2, 2)) if j < k else 0 for k in range(m)] for j in range(m)]
    return n, classes, pair


def sparse(vectors):
    return [{i: x for i, x in enumerate(vec) if x} for vec in vectors]


def antisymmetric_pairs(pair):
    """A strictly upper-triangular ``pair`` completed to an antisymmetric
    pairing, as the sparse rows ``Workspace.pairings`` gives."""
    return [
        {k: pair[j][k] if j < k else -pair[k][j] for k in range(len(pair)) if pair[min(j, k)][max(j, k)] and j != k}
        for j in range(len(pair))
    ]


def peel(classes):
    """(rows, ops, diagonal) as ``_sparse_snf_diagonal`` leaves them on
    copies of the sparse ``classes``, with ops from the identity."""
    rows = [dict(c) for c in classes]
    ops = [{i: 1} for i in range(len(rows))]
    return rows, ops, _sparse_snf_diagonal(rows, ops)


def dense_groups(n, classes, pair):
    """Oracle for ``_peeled_homology``: coker C and ker C from the dense C,
    and the cokernel of the per-arc relations."""
    matrix = [[vec[i] for vec in classes] for i in range(n)]
    rank = len(smith_normal_form(matrix))
    return (
        cokernel(matrix, n),
        FinAbGroup.free(len(classes) - rank),
        cokernel(recurrence_relations(n, classes, pair), n),
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(classes_and_pairings(), degenerate_classes_and_pairings()))
def test_one_peel_gives_the_groups_of_the_class_matrix_and_the_arc_relations(data):
    n, classes, pair = data
    groups = _peeled_homology(n, sparse(classes), antisymmetric_pairs(pair))
    assert groups == dense_groups(n, classes, pair)


@settings(max_examples=100, deadline=None)
@given(degenerate_classes_and_pairings())
def test_degenerate_classes_leave_a_residue_without_units_and_a_kernel(data):
    n, classes, pair = data
    rows, ops, diag = peel(sparse(classes))
    assert len(classes) - len(diag) >= 2
    residue = [x for r in rows for x in r.values()]
    assert residue and all(abs(x) != 1 for x in residue)
    assert _peeled_homology(n, sparse(classes), antisymmetric_pairs(pair)) == dense_groups(n, classes, pair)


@settings(max_examples=200, deadline=None)
@given(st.one_of(classes_and_pairings(), degenerate_classes_and_pairings()))
def test_recorded_row_operations_witness_every_row_the_peel_left(data):
    """Every non-pivot row i ends as sum_j ops[i][j] * class_j, a residue
    row or an empty one; pivot rows end with no row and no ops."""
    _, classes, _ = data
    rows, ops, diag = peel(sparse(classes))
    assert sum(1 for o in ops if not o) <= len(diag)
    for row, op in zip(rows, ops):
        if not op:
            assert row == {}
            continue
        combined = {}
        for j, f in op.items():
            for c, x in enumerate(classes[j]):
                combined[c] = combined.get(c, 0) + f * x
        assert {c: x for c, x in combined.items() if x} == row


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_the_peel_pins_the_h2_generator(built, relabelled, construction):
    """On both builds the peel leaves one kernel row and no residue, and
    its recorded combination is v = -1 on every a- and b-cycle and +1 on
    every c-cycle, up to sign, whatever the names.  On fresh builds the
    square that is left of B is [2 - 2g]."""
    for g in range(9):
        fib = built(construction, g)
        for f in (fib, relabelled(fib, g)):
            rows, ops, _ = peel([_sparse_class(workspace(f.fiber)._basis_index, c._heads) for c in f.word])
            kernel = [i for i, o in enumerate(ops) if o]
            assert len(kernel) == 1
            assert all(r == {} for r in rows)
            assert set(word_families(f)) == {"a", "b", "c"}
            v = {i: 1 if c.name.startswith("c") else -1 for i, c in enumerate(f.word)}
            assert ops[kernel[0]] in (v, {i: -x for i, x in v.items()})
            if f is fib:
                square = _boundary_matrix(rows, ops, kernel, pairings(f.fiber, f.word))
                assert square == [{0: 2 - 2 * g} if g != 1 else {}]


def entry_point_books(built, relabelled, punctured_torus):
    for construction in ("johns", "ishikawa"):
        for g in range(9):
            fib = built(construction, g)
            for f in (fib, relabelled(fib, g)):
                yield f.fiber, f.word
    sphere = sphere_planar_fibration()
    yield sphere.fiber, sphere.word
    for length in (0, 1, 2, 3, 5):
        yield annulus_book(length)
    a = CurveOnSurface(punctured_torus, "a", (("a", 1),))
    b = CurveOnSurface(punctured_torus, "b", (("b", 1),))
    for word in ((a, b), (b, a), (a,), ()):
        yield punctured_torus, word


def test_one_answer_from_three_entry_points(built, relabelled, punctured_torus):
    """``fibration_homology`` gives what ``total_space_homology`` and
    ``open_book_h1`` give, and what the dense class matrix and the arc
    relations give."""
    for page, word in entry_point_books(built, relabelled, punctured_torus):
        groups = fibration_homology(page, word)
        assert groups == (*total_space_homology(page, word), open_book_h1(page, word))
        n = len(homology_basis(page))
        oracle = dense_total_space_homology(page, word)
        assert groups == (*oracle, cokernel(monodromy_arc_relations(page, word), n))

