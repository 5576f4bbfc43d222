"""Integer linear algebra and the homology of total spaces and boundaries."""

import pytest
from hypothesis import given, settings, strategies as st

from lf_forge.builders import sphere_planar_fibration
from lf_forge.curves import CurveOnSurface
from lf_forge.homology import curve_class, homology_basis, workspace
from lf_forge.invariants import (
    FinAbGroup,
    _bordered_presentation,
    _sparse_snf_diagonal,
    boundary_open_book,
    monodromy_arc_relations,
    open_book_h1,
    smith_normal_form,
    total_space_euler,
    total_space_homology,
)

from oracles import cokernel


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


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


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


def test_group_json():
    assert FinAbGroup(2, (6,)).to_json_dict() == {"rank": 2, "torsion": [6]}


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


@given(matrices)
def test_smith_normal_form_properties(m):
    d, u, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


def test_smith_normal_form_known_case():
    d, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]


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


def snf_oracle_diagonal(m):
    d, _, _ = smith_normal_form(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i]]


def snf_diagonal(m):
    """``_sparse_snf_diagonal`` on the sparse rows of the dense matrix ``m``."""
    return _sparse_snf_diagonal([{j: x for j, x in enumerate(r) if x} for r in m])


@given(matrices)
def test_snf_diagonal_matches_smith_normal_form(m):
    assert snf_diagonal(m) == snf_oracle_diagonal(m)


@given(sparse_matrices)
def test_snf_diagonal_matches_smith_normal_form_on_sparse_unit_matrices(m):
    assert snf_diagonal(m) == snf_oracle_diagonal(m)


@given(sparse_matrices)
def test_sparse_peel_gives_a_matrix_and_its_transpose_the_same_factors(m):
    # total_space_homology eliminates the rows of C^T for the factors of C.
    rows = [{j: x for j, x in enumerate(r) if x} for r in m]
    columns = [{i: r[j] for i, r in enumerate(m) if r[j]} for j in range(len(m[0]))]
    assert _sparse_snf_diagonal(rows) == _sparse_snf_diagonal(columns) == snf_oracle_diagonal(m)


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
    return boundary_open_book(page, word)


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
    assert open_book_h1(annulus_book(word_length)) == expected


def test_punctured_torus_two_twist_book_is_a_sphere(punctured_torus):
    a = CurveOnSurface(punctured_torus, "a", (("a", 1),))
    b = CurveOnSurface(punctured_torus, "b", (("b", 1),))
    book = boundary_open_book(punctured_torus, (a, b))
    assert open_book_h1(book) == FinAbGroup(0, ())
    # conjugate word, homeomorphic total space
    assert open_book_h1(boundary_open_book(punctured_torus, (b, a))) == FinAbGroup(0, ())


def test_punctured_torus_single_twist_book(punctured_torus):
    a = CurveOnSurface(punctured_torus, "a", (("a", 1),))
    book = boundary_open_book(punctured_torus, (a,))
    assert open_book_h1(book) == FinAbGroup.free(1)


def test_empty_word_book_keeps_page_homology(punctured_torus):
    book = boundary_open_book(punctured_torus, ())
    assert open_book_h1(book) == FinAbGroup.free(2)


# -- total spaces ------------------------------------------------------------------


def test_sphere_model_total_space():
    fib = sphere_planar_fibration()
    assert total_space_euler(fib.fiber, fib.word) == 2
    h1, h2 = total_space_homology(fib.fiber, fib.word)
    assert h1 == FinAbGroup(0, ())
    assert h2 == FinAbGroup.free(1)
    # its boundary open book doubles the core twist
    assert open_book_h1(boundary_open_book(fib.fiber, fib.word)) == FinAbGroup(0, (2,))


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
    d, _, _ = smith_normal_form(matrix)
    rank = sum(1 for i in range(min(n, len(cols))) if d[i][i])
    return cokernel(matrix, n), FinAbGroup.free(len(cycles) - rank)


@pytest.mark.parametrize("construction", ["johns", "ishikawa", "sphere"])
def test_total_space_homology_equals_the_dense_class_matrix(built, relabelled, construction):
    for g in [0] if construction == "sphere" else range(9):
        fib = built(construction, g)
        for f in (fib, relabelled(fib, g)):
            assert total_space_homology(f.fiber, f.word) == dense_total_space_homology(f.fiber, f.word)


# -- open-book relations -------------------------------------------------------------


def per_arc_relations(book):
    page = book.page
    vecs = [curve_class(page, c).vector for c in book.word]
    return recurrence_relations(
        len(homology_basis(page)), vecs, workspace(page).pairing_matrix(book.word)
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


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_arc_relations_equal_the_per_arc_recurrence(built, construction):
    for g in range(7):
        fib = built(construction, g)
        book = boundary_open_book(fib.fiber, fib.word)
        assert monodromy_arc_relations(book) == per_arc_relations(book)


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
                book = boundary_open_book(f.fiber, f.word)
                n = len(homology_basis(f.fiber))
                assert open_book_h1(book) == cokernel(monodromy_arc_relations(book), n)
