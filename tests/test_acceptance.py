"""End-to-end checks, one test per published acceptance requirement.

Each test prints as a single pass/fail line under ``pytest -v``; together
they cover the presentation fixtures, cover topology, winding tables,
equivalence verdicts, crossed-product isomorphisms, deformation maps,
round trips, complex soundness and the cover/quotient asymmetry.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import euler_characteristic, iso_presentations, twice_crossed
from skewgentle import (
    CombinatorialCurve,
    Passage,
    ValidationError,
    build_complex,
    canonical_windings,
    cover_invariant_tuple,
    decide_ghat_equiv,
    decide_tilting_equiv,
    double_cover,
    dual_dissection,
    graded_arcs_from_solution,
    grading_solver,
    invariant_tuple,
    lift_curve,
    make_presentation,
    one_orbifold_disc,
    quiver_from_dissection,
    quotient,
    random_gentle_pair,
    random_x_dissection,
    special_chain_triple,
    split_presentation,
    surface_from_gentle,
    surfaces_isomorphic,
    topology,
    triple_from_x_dissection,
    two_hole_torus_surface,
    two_orbifold_disc,
    verify_d2,
    verify_deformation_map,
    verify_dual_reduction,
    verify_iterated_skew_group,
    verify_skew_group_reduction,
)
from skewgentle.linefield import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT
from skewgentle.presentations import Arrow

ORBIFOLD = "orbifold"


def _star_chain(tips_in: int, chain: int, tips_out: int):
    """Tree quiver: ``tips_in`` sources into a chain of ``chain`` vertices
    with ``tips_out`` sinks hanging off its far end."""
    vertices = [f"t{i}" for i in range(tips_in)]
    vertices += [f"c{i}" for i in range(chain)]
    vertices += [f"s{i}" for i in range(tips_out)]
    arrows = [Arrow(f"in{i}", f"t{i}", "c0") for i in range(tips_in)]
    arrows += [Arrow(f"mid{i}", f"c{i}", f"c{i+1}") for i in range(chain - 1)]
    last = f"c{chain - 1}"
    arrows += [Arrow(f"out{i}", last, f"s{i}") for i in range(tips_out)]
    return make_presentation(vertices, arrows, [])


def test_01_split_shapes_of_disc_dissections():
    d5 = split_presentation(triple_from_x_dissection(one_orbifold_disc(4))).presentation
    assert iso_presentations(d5, _star_chain(2, 3, 0)) is not None
    d4 = split_presentation(triple_from_x_dissection(one_orbifold_disc(3))).presentation
    assert iso_presentations(d4, _star_chain(2, 2, 0)) is not None
    affine = split_presentation(triple_from_x_dissection(two_orbifold_disc())).presentation
    assert iso_presentations(affine, _star_chain(2, 3, 2)) is not None
    garland = split_presentation(special_chain_triple()).presentation
    assert len(garland.relations) == 8
    assert all(len(r) == 2 for r in garland.relations)
    assert all(len(path) == 2 for r in garland.relations for path in r)


def test_02_cylinder_triple_and_split_relations(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    assert triple.relations == ((("1.2", "2.3"),), (("2.3", "3.4"),))
    assert sorted(triple.special) == ["2.2", "3.3"]
    split = split_presentation(triple).presentation
    assert len(split.relations) == 4
    assert all(len(r) == 2 for r in split.relations)
    assert all(len(path) == 2 for r in split.relations for path in r)


def test_03_cover_topology_and_euler_counts(cylinders, disc_x4, disc_xx):
    expected = {1: (0, 4), 2: (0, 4), 3: (1, 2), 4: (1, 2)}
    fixtures = list(cylinders.values()) + [disc_x4, disc_xx]
    for variant, surface in cylinders.items():
        top = topology(double_cover(surface).total)
        assert (top.genus, len(top.boundary)) == expected[variant]
    for surface in fixtures:
        cov = double_cover(surface)
        assert euler_characteristic(cov.total) == 2 * euler_characteristic(
            surface
        ) - len(cov.branch_points)
    rng = random.Random(2024)
    for _ in range(1000):
        surface = random_x_dissection(rng)
        cov = double_cover(surface)
        n_branch = sum(1 for p in surface.points if p.kind == ORBIFOLD)
        assert len(cov.branch_points) == n_branch
        assert euler_characteristic(cov.total) == 2 * euler_characteristic(
            surface
        ) - n_branch


def test_04_winding_tables(cylinders, disc_x4, disc_xx):
    base_expect = {1: [-2, 0], 2: [-1, -1], 3: [-1, -1], 4: [-2, 0]}
    cover_expect = {
        1: [-2, -2, 0, 0],
        2: [-1, -1, -1, -1],
        3: [-2, -2],
        4: [-4, 0],
    }
    for variant, surface in cylinders.items():
        ws = sorted(
            w for cid, w in canonical_windings(surface) if cid.startswith("boundary.")
        )
        assert ws == base_expect[variant]
        cover_ws = sorted(
            e[0] for e in cover_invariant_tuple(surface).entries
        )
        assert cover_ws == cover_expect[variant]
    for surface in list(cylinders.values()) + [disc_x4, disc_xx]:
        windings = dict(canonical_windings(surface))
        for p in surface.points:
            if p.kind == ORBIFOLD:
                assert windings[f"loop.{p.id}"] == -1


def test_05_equivalence_verdicts(cylinders):
    assert decide_tilting_equiv(cylinders[1], cylinders[4]).verdict == EQUIVALENT
    assert decide_tilting_equiv(cylinders[2], cylinders[3]).verdict == EQUIVALENT
    assert (
        decide_tilting_equiv(cylinders[1], cylinders[2]).verdict == NOT_EQUIVALENT
    )
    for i, j in ((1, 2), (1, 3), (2, 4), (3, 4)):
        assert (
            decide_ghat_equiv(cylinders[i], cylinders[j]).verdict
            == NOT_EQUIVALENT
        )


def test_06_skew_group_isomorphisms(cylinders, disc_x4, disc_xx):
    for surface in list(cylinders.values()) + [disc_x4, disc_xx]:
        red = verify_skew_group_reduction(double_cover(surface))
        assert red.skew.dimension == 2 * red.cover_algebra.dimension
        assert red.verdict.is_isomorphism
    surface, inv = two_hole_torus_surface()
    torus = verify_skew_group_reduction(quotient(surface, inv))
    assert torus.skew.dimension == 2 * torus.cover_algebra.dimension == 40
    assert torus.verdict.is_isomorphism
    disc = verify_skew_group_reduction(double_cover(two_orbifold_disc()))
    # sign-sensitive lifts: the twisted cover forces a minus-sheet image
    # with a group twist, the slit cover takes plus-sheet lifts plainly
    assert torus.survivors == {"1+.4+": ("1-.4+", 0)}
    assert not all(torus.swap_compat.values())
    assert disc.survivors == {"2.3": ("2+.3+", 0), "3.4": ("3+.4+", 0)}
    assert all(disc.swap_compat.values())
    for cov in (quotient(surface, inv), double_cover(two_orbifold_disc())):
        dual = verify_dual_reduction(cov)
        assert dual.verdict.is_isomorphism
        assert all(dual.equivariant.values())
    for red in (torus, disc):
        rr = verify_iterated_skew_group(red.cover_algebra.algebra, red.deck_action)
        assert rr.ok
        assert twice_crossed(rr.once).dimension == 4 * red.cover_algebra.dimension
    assert twice_crossed(
        verify_iterated_skew_group(torus.cover_algebra.algebra, torus.deck_action).once
    ).dimension == 80


def test_07_deformation_scaling_maps():
    triple = triple_from_x_dissection(one_orbifold_disc(4))
    for t in (2, 3, -1):
        verdict = verify_deformation_map(triple, Fraction(t))
        assert verdict.is_homomorphism
        assert verdict.is_isomorphism
    degenerate = verify_deformation_map(triple, Fraction(0))
    assert not degenerate.is_surjective
    assert not degenerate.is_isomorphism


def test_08_round_trips(cylinders, disc_x4, disc_xx):
    for surface in list(cylinders.values()) + [disc_x4, disc_xx]:
        cov = double_cover(surface)
        assert surfaces_isomorphic(quotient(cov.total, cov.deck).base, surface)
    rng = random.Random(777)
    for _ in range(1000):
        surface = random_x_dissection(rng)
        cov = double_cover(surface)
        assert (
            surfaces_isomorphic(quotient(cov.total, cov.deck).base, surface)
            is not None
        )
    rng = random.Random(778)
    for _ in range(200):
        pair = random_gentle_pair(rng)
        rebuilt = quiver_from_dissection(surface_from_gentle(pair))
        assert iso_presentations(pair, rebuilt) is not None


def test_09_complex_soundness(cylinders, disc_x4, disc_xx):
    for surface in list(cylinders.values()) + [disc_x4, disc_xx]:
        duals = dual_dissection(surface)
        grades = grading_solver(surface, duals)
        assert set(grades.values()) == {0}
        for garc in graded_arcs_from_solution(duals, grades):
            assert verify_d2(build_complex(garc, surface))
    stair = CombinatorialCurve(
        "stair",
        False,
        (
            Passage("upper", 0, 1, "right"),
            Passage("lower", 1, 2, "left"),
            Passage("lower", 3, 4, "left"),
            Passage("lower", 5, 0, "right"),
        ),
    )
    solved = grading_solver(cylinders[1], [stair])
    (garc,) = graded_arcs_from_solution([stair], solved)
    assert verify_d2(build_complex(garc, cylinders[1]))
    perturbed = CombinatorialCurve(
        "perturbed",
        False,
        (
            Passage("lower", 0, 1, "right"),
            Passage("upper", 1, 2, "left"),
            Passage("lower", 6, 0, "right"),
        ),
    )
    with pytest.raises(ValidationError) as exc:
        grading_solver(cylinders[1], [perturbed])
    assert "INCONSISTENT" in [d.code for d in exc.value.diagnostics]


def test_10_cover_quotient_asymmetry(cylinders, torus_with_involution):
    surface, inv = torus_with_involution
    assert topology(surface).genus == 1
    q = quotient(surface, inv)
    assert surfaces_isomorphic(q.base, cylinders[1]) is not None
    cov = double_cover(cylinders[1])
    assert topology(cov.total).genus == 0
    assert surfaces_isomorphic(cov.total, surface) is None
