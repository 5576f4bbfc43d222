"""Acceptance gate: the nine headline guarantees, one test per criterion.

Each test covers genus 0 through 8 where applicable and ends by printing a
single pass line, so a bare run with -s reads as a checklist.  Everything
here is exact integer equality; there are no tolerances.
"""

import random

import pytest

from lf_forge.builders import simultaneous_surgery, word_families
from lf_forge.certify import expected_boundary_group
from lf_forge.curves import CurveOnSurface
from lf_forge.divides import check_admissible, standard_divide
from lf_forge.equivalence import find_isomorphism
from lf_forge.homology import (
    HomologyClass,
    class_from_steps,
    curve_class,
    homology_basis,
)
from lf_forge.invariants import (
    FinAbGroup,
    open_book_h1,
    total_space_euler,
    total_space_homology,
)
from lf_forge.ribbon import RibbonGraph

from oracles import algebraic_intersection, dehn_twist_on_class, dehn_twist_on_path, edge_set, morse_data

GENERA = range(9)
CONSTRUCTIONS = ("johns", "ishikawa")


def test_criterion_1_fiber_invariants(built):
    for construction in CONSTRUCTIONS:
        for g in GENERA:
            fiber = built(construction, g).fiber
            inv = fiber.invariants()
            assert inv.genus == 1
            assert inv.boundary_components == 4 * g + 4
            assert inv.euler == -4 * g - 4
            assert fiber.is_orientable()
    print("criterion 1 PASS: fiber is (genus 1, 4g+4 boundary), chi = -4g-4, "
          "orientable, both builders, g = 0..8")


def test_criterion_2_word_length_and_order(built):
    for construction in CONSTRUCTIONS:
        for g in GENERA:
            fib = built(construction, g)
            assert len(fib.word) == 2 * g + 6
            pad = len(str(2 * g + 1))  # short-family indices are zero-padded
            expected = (
                ("a0", "a1")
                + tuple(f"b{i:0{pad}d}" for i in range(2 * g + 2))
                + ("c0", "c1")
            )
            assert fib.names() == expected
    print("criterion 2 PASS: word is exactly 2g+6 cycles in family order "
          "(2 long, 2g+2 short, 2 closing), g = 0..8")


def test_criterion_3_surgery_components_and_conservation(built):
    for construction in CONSTRUCTIONS:
        for g in GENERA:
            fib = built(construction, g)
            fams = word_families(fib)
            outs = simultaneous_surgery(fib.fiber, fams["a"], fams["b"])
            assert len(outs) == 2
            total_in = None
            for c in list(fams["a"]) + list(fams["b"]):
                cls = curve_class(fib.fiber, c)
                total_in = cls if total_in is None else total_in + cls
            total_out = curve_class(fib.fiber, outs[0]) + curve_class(fib.fiber, outs[1])
            assert total_in == total_out
            # the closing family is exactly the surgery output
            by_min = {min(edge_set(c)): c for c in fams["c"]}
            for out in outs:
                target = by_min[min(edge_set(out))]
                assert out.cyclically_equal(target)
    print("criterion 3 PASS: smoothing the first two families gives exactly 2 "
          "closed curves, conserves the total class, and reproduces the "
          "closing family, g = 0..8")


def test_criterion_4_total_space_homology(built):
    for construction in CONSTRUCTIONS:
        for g in GENERA:
            fib = built(construction, g)
            assert total_space_euler(fib.fiber, fib.word) == 2 - 2 * g
            h1, h2 = total_space_homology(fib.fiber, fib.word)
            assert h1 == FinAbGroup.free(2 * g)
            assert h2 == FinAbGroup.free(1)
    print("criterion 4 PASS: total space has chi = 2-2g, H1 = Z^2g "
          "torsion-free, H2 = Z, both builders, g = 0..8")


def test_criterion_5_boundary_homology(built):
    assert expected_boundary_group(0) == FinAbGroup(0, (2,))
    assert expected_boundary_group(1) == FinAbGroup(3, ())
    for construction in CONSTRUCTIONS:
        for g in GENERA:
            fib = built(construction, g)
            assert open_book_h1(fib.fiber, fib.word) == expected_boundary_group(g)
    print("criterion 5 PASS: boundary open book has H1 = Z^2g + Z/|2-2g| "
          "(Z/2 at g=0, Z^3 at g=1), both builders, g = 0..8")


def test_criterion_6_open_book_unit_oracles(annulus, punctured_torus):
    core = (("e", 1),)

    def annulus_word(n):
        return tuple(CurveOnSurface(annulus, f"c{i}", core) for i in range(n))

    assert open_book_h1(annulus, annulus_word(0)) == FinAbGroup.free(1)
    assert open_book_h1(annulus, annulus_word(1)) == FinAbGroup(0, ())
    assert open_book_h1(annulus, annulus_word(2)) == FinAbGroup(0, (2,))
    a = CurveOnSurface(punctured_torus, "a", (("a", 1),))
    b = CurveOnSurface(punctured_torus, "b", (("b", 1),))
    assert open_book_h1(punctured_torus, (a, b)) == FinAbGroup(0, ())
    print("criterion 6 PASS: annulus words 0/1/2 give Z / 0 / Z/2 and the "
          "punctured-torus two-twist book gives 0")


def test_criterion_7_isomorphism_with_negative_control(built):
    for g in GENERA:
        iso = find_isomorphism(built("johns", g), built("ishikawa", g))
        assert iso is not None, f"no isomorphism at genus {g}"
        assert iso.orientation_preserving
        names = set(built("johns", g).names())
        assert set(iso.cycle_map) == names
        assert set(iso.cycle_map.values()) == names
        for name, image in iso.cycle_map.items():
            assert name.rstrip("0123456789") == image.rstrip("0123456789")
    assert find_isomorphism(built("johns", 1), built("johns", 2)) is None
    print("criterion 7 PASS: the two constructions are isomorphic with a "
          "family-preserving cycle bijection for g = 0..8; the cross-genus "
          "control finds nothing")


def test_criterion_8_twist_algebra_randomized():
    rng = random.Random(7540991)
    cases = 0
    while cases < 1000:
        ne = rng.randint(2, 6)
        edges = [f"e{j}" for j in range(ne)]
        halves = [(e, i) for e in edges for i in (0, 1)]
        rng.shuffle(halves)
        surface = RibbonGraph(("v",), edges, {"v": tuple(halves)})
        basis = homology_basis(surface)
        n = len(basis)
        twist_edge = rng.choice(edges)
        twist_curve = CurveOnSurface(surface, "t", ((twist_edge, 1),))
        c = curve_class(surface, twist_curve)
        x = HomologyClass(surface, tuple(rng.randint(-3, 3) for _ in range(n)))
        y = HomologyClass(surface, tuple(rng.randint(-3, 3) for _ in range(n)))

        tx = dehn_twist_on_class(surface, twist_curve, x)
        ty = dehn_twist_on_class(surface, twist_curve, y)
        assert algebraic_intersection(surface, tx, ty) == algebraic_intersection(
            surface, x, y
        )
        assert dehn_twist_on_class(surface, twist_curve, c) == c

        others = [e for e in edges if e != twist_edge]
        k = rng.randint(1, len(others))
        walk = tuple((e, rng.choice((1, -1))) for e in rng.sample(others, k))
        path = CurveOnSurface(surface, "w", walk)
        twisted = dehn_twist_on_path(surface, twist_curve, path)
        assert curve_class(surface, twisted) == dehn_twist_on_class(
            surface, twist_curve, class_from_steps(surface, walk)
        )
        cases += 1
    assert cases == 1000
    print("criterion 8 PASS: 1000 randomized cases; the twist preserves the "
          "pairing, fixes its own class, and the walk rewriting matches the "
          "class formula")


def test_criterion_9_divide_suite():
    for g in GENERA:
        d = standard_divide(g)
        rep = check_admissible(d)
        assert rep.admissible
        assert rep.crossings == 2 * g + 2
        assert rep.arcs == 4 * g + 4
        assert rep.faces == 4
        minima, saddles, maxima = morse_data(d)
        assert (minima, saddles, maxima) == (2, 2 * g + 2, 2)
        assert minima - saddles + maxima == d.euler_characteristic() == 2 - 2 * g
    print("criterion 9 PASS: necklace divides are admissible with V = 2g+2, "
          "E = 4g+4, F = 4 and Morse data (2, 2g+2, 2) meeting the Morse "
          "equality, g = 0..8")
