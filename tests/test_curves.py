"""Closed walks on a ribbon graph: validation messages and rotations."""

import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

from lf_forge.builders import (
    LefschetzFibration,
    ishikawa_fibration,
    johns_fibration,
    simultaneous_surgery,
    word_families,
)
from lf_forge.certify import fibration_certificate
from lf_forge.curves import CurveOnSurface, canonical_rotation, check_walk, curve_on_darts
from lf_forge.equivalence import isomorphism_certificate, reduced_word
from lf_forge.ribbon import RibbonGraph, SurfaceError

import oracles

# On the pants fixture every band e, f, g runs forward from u to v.
MALFORMED = [
    ([], "empty walk"),
    ([("zz", 1)], "walk step ('zz', 1) is not on the surface"),
    ([("e", 0)], "walk step ('e', 0) is not on the surface"),
    ([("e", 2)], "walk step ('e', 2) is not on the surface"),
    ([("e", -2)], "walk step ('e', -2) is not on the surface"),
    # every step is validated before the chain is followed
    ([("e", 1), ("f", 1), ("zz", 1)], "walk step ('zz', 1) is not on the surface"),
    ([("e", 1), ("f", 1)], "walk breaks between ('e', 1) and ('f', 1)"),
    ([("e", 1), ("f", -1), ("g", -1)], "walk breaks between ('f', -1) and ('g', -1)"),
    # the walk must also close up from its last step to its first
    ([("e", 1)], "walk breaks between ('e', 1) and ('e', 1)"),
    ([("e", 1), ("f", -1), ("g", 1)], "walk breaks between ('g', 1) and ('e', 1)"),
]


@pytest.mark.parametrize("walk,message", MALFORMED)
def test_malformed_walks_name_the_first_fault(pants, walk, message):
    with pytest.raises(SurfaceError) as err:
        check_walk(pants, walk)
    assert str(err.value) == message


def _fault(check, surface, walk):
    try:
        check(surface, walk)
    except SurfaceError as exc:
        return str(exc)
    return None


@given(st.lists(st.tuples(st.sampled_from(["e", "f", "g", "zz"]), st.sampled_from([1, -1, 0])), max_size=6))
def test_one_pass_walk_check_names_the_oracles_fault(pants, walk):
    """Random short walks on the pants, most of them broken somewhere and
    some off the surface: the first fault reported is the reference's."""
    assert _fault(check_walk, pants, walk) == _fault(oracles.check_walk, pants, walk)


def test_closed_curves_validate_their_walk(pants):
    with pytest.raises(SurfaceError) as err:
        CurveOnSurface(pants, "open", (("e", 1),))
    assert str(err.value) == "walk breaks between ('e', 1) and ('e', 1)"


# Walks that are not a tuple of (str, int) tuples are rebuilt step by step
# as (str(e), int(s)); these are the results of that rebuild.
COERCED = [
    [["e", 1], ["f", -1]],
    (["e", 1], ["f", -1]),
    [("e", 1), ("f", -1)],
    (("e", True), ("f", -1)),
    (("e", 1.0), ("f", -1)),
    (("e", "1"), ("f", -1)),
    iter([("e", 1), ("f", -1)]),
]


@pytest.mark.parametrize("walk", COERCED, ids=range(len(COERCED)))
def test_odd_typed_steps_are_stored_as_str_int_tuples(pants, walk):
    curve = CurveOnSurface(pants, "w", walk)
    assert curve.walk == (("e", 1), ("f", -1))
    assert all(type(st) is tuple and type(st[0]) is str and type(st[1]) is int for st in curve.walk)
    assert curve.to_json_dict() == {"name": "w", "walk": ["e", "-f"]}


@pytest.mark.parametrize("walk,message", [
    (((["c"], 1),), "walk step (\"['c']\", 1) is not on the surface"),
    (((5, 1),), "walk step ('5', 1) is not on the surface"),
])
def test_odd_typed_edge_ids_are_not_on_the_surface(pants, walk, message):
    with pytest.raises(SurfaceError) as err:
        CurveOnSurface(pants, "w", walk)
    assert str(err.value) == message


def test_an_exact_typed_walk_is_kept_as_it_is(pants):
    walk = (("e", 1), ("f", -1))
    assert CurveOnSurface(pants, "w", walk).walk == walk


@pytest.mark.parametrize(
    "walk",
    [
        [("e", 1), ("f", -1)],
        [("g", -1), ("e", 1), ("f", -1), ("e", 1)],
    ],
)
def test_well_formed_walks_pass(pants, walk):
    check_walk(pants, walk)


walks = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), min_size=1, max_size=9).map(tuple)


@given(walks)
def test_canonical_rotation_is_the_least_of_all_rotations(walk):
    """Short walks over three edges repeat edges and steps, so several
    rotations start at the least step and the tie has to be broken."""
    rotations = [walk[i:] + walk[:i] for i in range(len(walk))]
    assert canonical_rotation(walk) == min(rotations)
    assert all(canonical_rotation(r) == canonical_rotation(walk) for r in rotations)


dart_walks = st.one_of(
    st.lists(st.integers(0, 99), min_size=1, max_size=12, unique=True),  # edge-simple, as production keys
    st.lists(st.integers(0, 3), min_size=1, max_size=12),  # the least dart repeats
).map(tuple)


@given(dart_walks)
def test_canonical_rotation_of_a_dart_walk_is_the_least_of_all_rotations(walk):
    """The one-slice key of a walk whose least step occurs once, and the
    competition of a walk whose least step repeats, both give the oracle's
    least rotation."""
    assert canonical_rotation(walk) == min(walk[i:] + walk[:i] for i in range(len(walk)))


# -- the darts a curve keeps ----------------------------------------------------------


@pytest.mark.parametrize("construction", ["johns", "ishikawa"])
def test_every_curve_keeps_the_darts_of_its_walk(built, relabelled, mirrored, flipped, construction):
    """Built, parsed, relabelled, mirrored and edge-flipped words, their
    closing smoothing and their reduced words: each curve's kept darts are
    the ones ``head_darts`` looks up for its walk, the walk is the steps
    named from those darts, and the document's tokens are those steps'."""
    for genus in range(9):
        fib = built(construction, genus)
        parsed = LefschetzFibration.from_json_dict(fib.to_json_dict())
        for lf in (fib, parsed, relabelled(fib, genus), mirrored(fib), flipped(fib, genus)):
            fams = word_families(lf)
            curves = [*lf.word, *simultaneous_surgery(lf.fiber, fams["a"], fams["b"]), *reduced_word(lf)[1].values()]
            for c in curves:
                assert type(c._heads) is tuple
                assert c._heads == c.host.head_darts(c.walk)
                edges = c.host.edges
                assert c.walk == tuple((edges[d >> 1], 1 if d & 1 else -1) for d in c._heads)
                assert c.to_json_dict()["walk"] == [oracles.signed_edge_id(step) for step in c.walk]


def test_no_parse_build_or_certificate_reads_a_walk(relabelled, monkeypatch):
    """Building, parsing, certifying and comparing read the kept darts
    only: with a counting ``walk`` patched in, both builds, their
    relabelled documents (``from_json_dict``), both certificates and the
    comparisons at g = 0..8 read no walk."""
    reads = []
    view = CurveOnSurface.walk
    monkeypatch.setattr(CurveOnSurface, "walk", property(lambda c: reads.append(c.name) or view.fget(c)))
    for genus in range(9):
        johns, ishikawa = johns_fibration(genus), ishikawa_fibration(genus)
        docs = relabelled(johns, genus), relabelled(ishikawa, genus)
        for fib in (johns, ishikawa, *docs):
            fibration_certificate(fib)
        for a, b in ((johns, ishikawa), (ishikawa, johns), docs, (docs[0], ishikawa)):
            isomorphism_certificate(a, b)
    assert reads == []


def test_a_curve_on_darts_that_breaks_names_its_steps(pants):
    """A curve built from darts alone is still checked; the break names its
    steps as ``(edge, sign)`` pairs, as for a walk."""
    with pytest.raises(SurfaceError, match=r"^walk breaks between \('e', 1\) and \('f', 1\)$"):
        curve_on_darts(pants, "w", pants.head_darts([("e", 1), ("f", 1)]))
    with pytest.raises(SurfaceError, match="^empty walk$"):
        curve_on_darts(pants, "w", ())


def test_steps_have_one_constructor_and_darts_one_entry(pants):
    """``CurveOnSurface(host, name, walk)`` takes steps and nothing else;
    ``curve_on_darts`` is the one entry that takes darts, and both build
    the same curve."""
    assert list(inspect.signature(CurveOnSurface).parameters) == ["host", "name", "walk"]
    walk = (("e", 1), ("f", -1))
    assert curve_on_darts(pants, "w", pants.head_darts(walk)) == CurveOnSurface(pants, "w", walk)


def test_kept_darts_are_not_a_field():
    """A curve compares, hashes, reprs and pickles by its three fields only,
    and its darts come back from the walk when it is unpickled.  The graph is
    built here, so no other test's cache entries ride along in the pickle."""
    pants = RibbonGraph(("u", "v"), ("e", "f", "g"),
                        {"u": (("e", 0), ("f", 0), ("g", 0)), "v": (("g", 1), ("f", 1), ("e", 1))})
    walk = (("e", 1), ("f", -1))
    curve = CurveOnSurface(pants, "w", walk)
    assert CurveOnSurface._names == ("host", "name", "walk")
    assert repr(curve) == f"CurveOnSurface(host={pants!r}, name='w', walk=(('e', 1), ('f', -1)))"
    assert "_heads" not in repr(curve)
    assert curve == CurveOnSurface(pants, "w", [["e", 1], ["f", -1]])
    assert hash(curve) == hash((pants, "w", walk))
    assert curve.__reduce__() == (CurveOnSurface, (pants, "w", walk))
    back = pickle.loads(pickle.dumps(curve))
    assert (back.name, back.walk, back._heads) == ("w", walk, curve._heads)
    assert back._heads == back.host.head_darts(walk)
