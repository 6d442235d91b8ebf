from __future__ import annotations

import ast
import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from oracles import (
    BOUNDARY_POINT,
    boundary_curves,
    invariant_tuple_by_curves,
    one_point_discs,
    poincare_hopf_total,
    puncture_loop,
    reverse_curve,
)

from skewgentle import (
    BOUNDARY,
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    ORBIFOLD,
    PUNCTURE,
    Arc,
    CombinatorialCurve,
    ComplexPresentation,
    GradedArc,
    MarkedPoint,
    Passage,
    ValidationError,
    boundary_components,
    build_complex,
    canonical_windings,
    cover_invariant_tuple,
    curve_crossings,
    decide_ghat_equiv,
    decide_tilting_equiv,
    double_cover,
    dual_dissection,
    extract_quiver,
    fixture_path,
    graded_arcs_from_solution,
    grading_solver,
    graded_path_algebra,
    invariant_tuple,
    is_dual_dissection,
    make_presentation,
    make_surface,
    map_graded_arc,
    one_orbifold_disc,
    parse_surface_file,
    random_gentle_pair,
    random_x_dissection,
    surface_from_gentle,
    surface_from_triple,
    surfaces_isomorphic,
    topology,
    triple_from_x_dissection,
    two_hole_torus_surface,
    two_marked_disc,
    two_orbifold_cylinder,
    two_orbifold_disc,
    verify_d2,
    winding,
)
from skewgentle import linefield
from skewgentle.linefield import DECIDERS
from skewgentle.diagnostics import (
    BAD_INPUT,
    BAD_INVOLUTION,
    INCONSISTENT,
    NOT_A_COMPLEX,
    UNKNOWN_ID,
    WINDING_MISMATCH,
)
from skewgentle.presentations import Arrow
from skewgentle.surface import chord_bseg_side

TESTS = Path(__file__).resolve().parent
FIXTURE_NAMES = ["cylinder1", "cylinder2", "cylinder3", "cylinder4", "disc", "torus"]

EXPECTED_BOUNDARY_WINDINGS = {
    1: {"b_bot": 0, "b_top": -2},
    2: {"b_bot": -1, "b_top": -1},
    3: {"b_bot": -1, "b_top": -1},
    4: {"b_bot": -2, "b_top": 0},
}


def test_cylinder_boundary_windings(cylinders):
    for variant, surface in cylinders.items():
        curves = {c.id: c for c in boundary_curves(surface)}
        counted = dict(canonical_windings(surface))
        for bseg, expected in EXPECTED_BOUNDARY_WINDINGS[variant].items():
            assert winding(surface, curves[f"boundary.{bseg}"]) == expected
            assert counted[f"boundary.{bseg}"] == expected


def test_orbifold_loop_windings(cylinders):
    for surface in cylinders.values():
        counted = dict(canonical_windings(surface))
        for x in ("X1", "X2"):
            assert winding(surface, puncture_loop(surface, x)) == -1
            assert counted[f"loop.{x}"] == -1


def test_plain_disc_boundary_winding():
    disc = two_marked_disc()
    (curve,) = boundary_curves(disc)
    assert winding(disc, curve) == 2
    assert canonical_windings(disc) == [(curve.id, 2)]


def test_orbifold_disc_boundary_winding(disc_x4):
    (curve,) = boundary_curves(disc_x4)
    assert winding(disc_x4, curve) == 1
    assert canonical_windings(disc_x4)[0] == (curve.id, 1)


def test_winding_negates_under_reversal(cylinders, disc_x4, disc_xx):
    for surface in list(cylinders.values()) + [disc_x4, disc_xx]:
        loops = [
            puncture_loop(surface, p.id)
            for p in surface.points
            if p.kind == ORBIFOLD
        ]
        for curve in boundary_curves(surface) + loops:
            assert winding(surface, reverse_curve(curve)) == -winding(
                surface, curve
            )


def test_loops_require_interior_points(cylinders):
    with pytest.raises(ValidationError) as err:
        puncture_loop(cylinders[1], "B")
    assert any(d.code == BOUNDARY_POINT for d in err.value.diagnostics)


def test_canonical_duals_pass_their_own_check(
    cylinders, disc_x4, disc_xx, torus_with_involution
):
    surfaces = list(cylinders.values()) + [disc_x4, disc_xx]
    surfaces.append(torus_with_involution[0])
    for surface in surfaces:
        duals = dual_dissection(surface)
        assert len(duals) == len(surface.arcs)
        assert is_dual_dissection(surface, duals).ok


def test_dual_check_rejects_missing_curve(cylinders):
    duals = dual_dissection(cylinders[1])
    assert not is_dual_dissection(cylinders[1], duals[1:]).ok


def test_dual_check_rejects_closed_curve(cylinders):
    duals = dual_dissection(cylinders[1])
    closed = CombinatorialCurve(
        "core", True, (Passage("lower", 1, 6, "left"), Passage("upper", 2, 1, "right"))
    )
    report = is_dual_dissection(cylinders[1], duals + [closed])
    assert BAD_INPUT in report.codes()


def test_dual_check_names_a_curve_crossing_several_arcs(cylinders):
    # Every arc is crossed once, yet the staircase crosses three of them.
    surface = cylinders[1]
    stair = _staircase()
    assert curve_crossings(surface, stair) == ["1", "2", "3"]
    (dual4,) = [c for c in dual_dissection(surface) if c.id == "dual.4"]
    report = is_dual_dissection(surface, [stair, dual4])
    assert [(d.code, d.where) for d in report.diagnostics] == [(BAD_INPUT, ("stair",))]
    assert not one_point_discs(surface, [stair, dual4])


def _walk_system(surface, rng: random.Random) -> list[CombinatorialCurve]:
    """Open curves that together cross every arc once.  Each starts at the
    midpoint of a polygon with an uncrossed arc side, and after each
    crossing ends at the midpoint of the polygon it entered or, by a coin
    flip, crosses another uncrossed arc side of that polygon."""
    free = set(surface.arc_by_id)
    curves = []
    while free:
        starts = sorted(loc for (a, _), loc in surface.occurrences.items() if a in free)
        pid, i = rng.choice(starts)
        passages = [Passage(pid, 0, i, "right")]
        while True:
            side = surface.polygon_by_id[pid].sides[i]
            free.discard(side.ref)
            pid, u = surface.occurrences[(side.ref, -side.direction)]
            onward = [
                j for j, s in enumerate(surface.polygon_by_id[pid].sides)
                if s.is_arc and s.ref in free
            ]
            if not onward or rng.random() < 0.5:
                passages.append(Passage(pid, u, 0, "right"))
                break
            i = rng.choice(onward)
            passages.append(Passage(pid, u, i, chord_bseg_side(u, i)))
        curves.append(CombinatorialCurve(f"walk.{len(curves)}", False, tuple(passages)))
    return curves


def test_dual_check_agrees_with_face_tracing(disc, disc_x4, disc_xx, cylinders, torus_with_involution):
    """The crossing count gives the verdict of tracing the overlay faces on
    the canonical duals, with some reversed, one dropped or one doubled,
    and on walk systems crossing every arc once."""
    rng = random.Random(22)
    surfaces = [disc, disc_x4, disc_xx, *cylinders.values(), torus_with_involution[0]]
    for _ in range(50):
        surfaces.append(random_x_dissection(rng))
        surfaces.append(surface_from_gentle(random_gentle_pair(rng)))
    tally = {}
    for surface in surfaces:
        duals = dual_dissection(surface)
        k = rng.randrange(len(duals))
        systems = [
            ("dual", duals),
            ("reversed", [reverse_curve(c) if rng.random() < 0.5 else c for c in duals]),
            ("reversed", [reverse_curve(c) if rng.random() < 0.5 else c for c in duals]),
            ("dropped", duals[:k] + duals[k + 1:]),
            ("doubled", duals + [duals[k]]),
        ]
        for _ in range(6):
            walk = _walk_system(surface, rng)
            several = any(len(curve_crossings(surface, c)) > 1 for c in walk)
            systems.append(("several" if several else "walk", walk))
        for kind, curves in systems:
            verdict = is_dual_dissection(surface, curves).ok
            assert verdict == one_point_discs(surface, curves), (surface.name, kind)
            tally[kind, verdict] = tally.get((kind, verdict), 0) + 1
    assert sum(tally.values()) >= 1000
    assert tally[("several", False)] >= 300
    assert set(tally) == {
        ("dual", True), ("reversed", True), ("dropped", False), ("doubled", False),
        ("walk", True), ("several", False),
    }


def test_grading_of_canonical_duals_is_zero(cylinders, disc_x4):
    for surface in list(cylinders.values()) + [disc_x4]:
        duals = dual_dissection(surface)
        assert set(grading_solver(surface, duals).values()) == {0}


# returns to its starting segment after a net turn, so no grading exists
PERTURBED = CombinatorialCurve(
    "perturbed",
    False,
    (
        Passage("lower", 0, 1, "right"),
        Passage("upper", 1, 2, "left"),
        Passage("lower", 6, 0, "right"),
    ),
)


def test_grading_detects_contradiction(cylinders):
    with pytest.raises(ValidationError) as exc:
        grading_solver(cylinders[1], [PERTURBED])
    assert [d.code for d in exc.value.diagnostics].count(INCONSISTENT) == 2


def test_graded_arcs_from_failed_grading_raise_its_findings(cylinders):
    # the solver raises every clash it met, in the order it met them,
    # before any grade reaches graded_arcs_from_solution
    with pytest.raises(ValidationError) as exc:
        graded_arcs_from_solution([PERTURBED], grading_solver(cylinders[1], [PERTURBED]))
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [
        (INCONSISTENT, (("perturbed", 1), 0, 1)),
        (INCONSISTENT, (("perturbed", 0), 1, 0)),
    ]


def test_grading_flags_unanchored_block(disc_x4):
    span = CombinatorialCurve(
        "span",
        False,
        (
            Passage("F1", 0, 1, "right"),
            Passage("big", 3, 4, "left"),
            Passage("F2", 1, 0, "right"),
        ),
    )
    hook = CombinatorialCurve(
        "d4", False, (Passage("F3", 0, 1, "right"), Passage("big", 5, 0, "right"))
    )
    # two blocks that share no constraint, each pinned at 0 on its
    # smallest variable
    assert grading_solver(disc_x4, [span, hook]) == {
        ("span", 0): 0, ("span", 1): 1, ("d4", 0): 0
    }


def test_symmetric_pair_constraint_can_contradict(cylinders):
    # grade profiles (a, a-1) and (b, b+1); endpoint ties allow a = b+1,
    # the crossing-by-crossing symmetry demands a = b: contradiction
    falling = CombinatorialCurve(
        "falling",
        False,
        (
            Passage("lower", 0, 2, "right"),
            Passage("lower", 3, 1, "right"),
            Passage("upper", 1, 0, "right"),
        ),
    )
    rising = CombinatorialCurve(
        "rising",
        False,
        (
            Passage("upper", 0, 1, "right"),
            Passage("lower", 1, 2, "left"),
            Passage("lower", 3, 0, "right"),
        ),
    )
    assert len(grading_solver(cylinders[1], [falling, rising])) == 4
    with pytest.raises(ValidationError) as exc:
        grading_solver(
            cylinders[1],
            [falling, rising],
            symmetric_pairs=[("falling", "rising")],
        )
    assert INCONSISTENT in [d.code for d in exc.value.diagnostics]


def test_graded_arc_maps_through_involution(torus_with_involution):
    surface, inv = torus_with_involution
    duals = dual_dissection(surface)
    garcs = graded_arcs_from_solution(duals, grading_solver(surface, duals))
    for garc in garcs:
        moved = map_graded_arc(surface, inv, garc)
        assert moved.curve.id == garc.curve.id + ".inv"
        assert moved.grades == garc.grades
        back = map_graded_arc(surface, inv, moved)
        assert back.curve.passages == garc.curve.passages


def test_graded_arc_refuses_an_involution_of_another_surface(cylinders):
    # the deck involution of the cover names the cover's polygons
    surface = cylinders[1]
    garc = GradedArc(dual_dissection(surface)[0], (0,))
    with pytest.raises(ValidationError) as exc:
        map_graded_arc(surface, double_cover(surface).deck, garc)
    assert {d.code for d in exc.value.diagnostics} == {BAD_INVOLUTION}


def _staircase() -> CombinatorialCurve:
    return CombinatorialCurve(
        "stair",
        False,
        (
            Passage("upper", 0, 1, "right"),
            Passage("lower", 1, 2, "left"),
            Passage("lower", 3, 4, "left"),
            Passage("lower", 5, 0, "right"),
        ),
    )


def test_staircase_curve_complex(cylinders):
    stair = _staircase()
    surface = cylinders[1]
    assert curve_crossings(surface, stair) == ["1", "2", "3"]
    garcs = graded_arcs_from_solution([stair], grading_solver(surface, [stair]))
    assert garcs[0].grades == (0, 1, 2)
    cx = build_complex(garcs[0], surface)
    assert cx.summands == (("1", 0), ("2", 1), ("3", 2))
    assert set(cx.differential) == {(1, 0), (2, 1)}
    assert all(cx.differential.values())
    assert verify_d2(cx)


def test_complex_rejects_wrong_grade_count(cylinders):
    from skewgentle import GradedArc

    stair = _staircase()
    with pytest.raises(ValidationError):
        build_complex(GradedArc(stair, (0, 1)), cylinders[1])


def test_complex_whose_differential_squares_nonzero_is_refused(cylinders, monkeypatch):
    from skewgentle import linefield

    surface = cylinders[1]
    stair = _staircase()
    (garc,) = graded_arcs_from_solution([stair], grading_solver(surface, [stair]))
    monkeypatch.setattr(linefield, "verify_d2", lambda cx, algebra=None: False)
    with pytest.raises(ValidationError) as exc:
        build_complex(garc, surface)
    assert [d.code for d in exc.value.diagnostics] == [NOT_A_COMPLEX]


def test_verify_d2_spots_nonvanishing_square():
    pres = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3")],
        [],
    )
    alg = graded_path_algebra(pres)
    cx = ComplexPresentation(
        alg,
        (("1", 0), ("2", 1), ("3", 2)),
        {(1, 0): alg.arrow("a"), (2, 1): alg.arrow("b")},
    )
    assert not verify_d2(cx)


def test_invariant_tuple_of_first_cylinder(cylinders):
    t = invariant_tuple(cylinders[1])
    assert t.genus == 0
    assert t.entries == (
        (-2, 1, BOUNDARY),
        (-1, 0, ORBIFOLD),
        (-1, 0, ORBIFOLD),
        (0, 1, BOUNDARY),
    )


def test_invariant_tuple_matches_for_equivalent_variants(cylinders):
    assert invariant_tuple(cylinders[1]) == invariant_tuple(cylinders[4])
    assert invariant_tuple(cylinders[2]) == invariant_tuple(cylinders[3])
    assert invariant_tuple(cylinders[1]) != invariant_tuple(cylinders[2])


def test_invariant_tuple_survives_reconstruction(cylinders):
    rebuilt = surface_from_triple(triple_from_x_dissection(cylinders[2]))
    assert invariant_tuple(rebuilt) == invariant_tuple(cylinders[2])


def test_orbifold_to_puncture_degeneration_keeps_windings(cylinders):
    base = cylinders[1]
    points = [
        MarkedPoint(p.id, PUNCTURE if p.kind == ORBIFOLD else p.kind)
        for p in base.points
    ]
    degenerate = make_surface(
        "degenerate", points, list(base.arcs), list(base.bsegs), list(base.polygons)
    )
    t = invariant_tuple(degenerate)
    swapped = tuple(
        sorted(
            (w, m, PUNCTURE if kind == ORBIFOLD else kind)
            for w, m, kind in invariant_tuple(base).entries
        )
    )
    assert t.entries == swapped


EXPECTED_COVER_WINDINGS = {
    1: [-2, -2, 0, 0],
    2: [-1, -1, -1, -1],
    3: [-2, -2],
    4: [-4, 0],
}
EXPECTED_COVER_GENUS = {1: 0, 2: 0, 3: 1, 4: 1}


def test_cover_invariant_tuples(cylinders):
    tuples = {}
    for variant, surface in cylinders.items():
        t = cover_invariant_tuple(surface)
        assert t.genus == EXPECTED_COVER_GENUS[variant]
        assert sorted(e[0] for e in t.entries) == EXPECTED_COVER_WINDINGS[variant]
        assert all(kind == BOUNDARY for _, _, kind in t.entries)
        tuples[variant] = t
    assert len(set(tuples.values())) == 4


def test_cover_invariant_tuple_rejects_a_lift_with_another_winding(
    cylinders, monkeypatch
):
    true_winding = linefield.winding

    def skewed(surface, curve):
        shift = 1 if curve.id.endswith(".lift") else 0
        return true_winding(surface, curve) + shift

    monkeypatch.setattr(linefield, "winding", skewed)
    with pytest.raises(ValidationError) as exc:
        cover_invariant_tuple(cylinders[1])
    codes = [d.code for d in exc.value.diagnostics]
    assert set(codes) == {WINDING_MISMATCH}
    # each base boundary of the first cylinder has two closed lifts
    witnesses = {d.where for d in exc.value.diagnostics if len(d.where) == 3}
    assert witnesses == {(("b_bot",), 0, 1), (("b_top",), -2, -1)}


def test_cover_invariant_tuple_rejects_cover_counts_that_miss_the_lifts(
    cylinders, monkeypatch
):
    # Skewing the corner counts on the cover only leaves each lift equal
    # to its base count, so only the comparison with the cover's own
    # boundary windings can catch it.
    base = cylinders[1]
    true_windings = linefield._boundary_windings

    def skewed(surface, components):
        windings = true_windings(surface, components)
        return windings if surface is base else [w + 1 for w in windings]

    monkeypatch.setattr(linefield, "_boundary_windings", skewed)
    with pytest.raises(ValidationError) as exc:
        cover_invariant_tuple(base)
    (diag,) = exc.value.diagnostics
    assert diag.code == WINDING_MISMATCH
    assert "differ from the cover's own" in diag.message
    assert diag.where == ((-2, -2, 0, 0), (-1, -1, 1, 1))


def _fixture_surfaces():
    surfaces = [parse_surface_file(fixture_path(n).read_text()).surface for n in FIXTURE_NAMES]
    surfaces += [two_orbifold_cylinder(v) for v in (1, 2, 3, 4)]
    surfaces += [two_marked_disc(), two_orbifold_disc(), two_hole_torus_surface()[0]]
    surfaces += [one_orbifold_disc(n) for n in range(2, 15)]
    return surfaces + [
        double_cover(s).total for s in surfaces if any(p.kind == ORBIFOLD for p in s.points)
    ]


def test_corner_counts_equal_the_curve_windings():
    surfaces = _fixture_surfaces()
    rng = random.Random(1912)
    for _ in range(1000):
        base = random_x_dissection(rng)
        surfaces += [base, double_cover(base).total]
    surfaces += [surface_from_gentle(random_gentle_pair(rng)) for _ in range(300)]
    for surface in surfaces:
        assert invariant_tuple(surface) == invariant_tuple_by_curves(surface), surface.name


def test_a_boundary_that_meets_no_arc_is_refused_as_the_walk_refuses_it():
    text = "surface mono\npoint B kind=boundary\nbseg b from=B to=B\npoly P sides=b:b\n"
    surface = parse_surface_file(text).surface
    expected = [(BAD_INPUT, "boundary component of 'b' meets no arc", ("b",))]
    for compute in (invariant_tuple, invariant_tuple_by_curves):
        with pytest.raises(ValidationError) as exc:
            compute(surface)
        assert [(d.code, d.message, d.where) for d in exc.value.diagnostics] == expected


def test_invariant_tuples_trace_only_the_curves_they_lift(count_calls):
    traced = count_calls("skewgentle.linefield", "_trace_boundary")
    checked = count_calls("skewgentle.surface", "validate_curve")
    wound = count_calls("skewgentle.linefield", "winding")
    for variant in (1, 2, 3, 4):
        surface = two_orbifold_cylinder(variant)
        invariant_tuple(surface)
        canonical_windings(surface)
    invariant_tuple(double_cover(one_orbifold_disc(6)).total)
    assert (traced, checked, wound) == ([], [], [])
    for surface in (two_orbifold_cylinder(1), one_orbifold_disc(6), two_orbifold_disc()):
        traced.clear()
        cover_invariant_tuple(surface)
        assert len(traced) == len(boundary_components(surface))
        assert all(s is surface for s, _ in traced)


_TWO_COPIES = (
    BAD_INPUT,
    "the canonical double cover of 'disc' is two disjoint copies of it: "
    "it has no orbifold point",
    ("disc",),
)


def test_the_cover_tuple_of_a_plain_dissection_names_its_two_copies(disc):
    for decide in (cover_invariant_tuple, lambda s: decide_ghat_equiv(s, s)):
        with pytest.raises(ValidationError) as exc:
            decide(disc)
        assert [(d.code, d.message, d.where) for d in exc.value.diagnostics] == [_TWO_COPIES]


def test_the_cover_tuple_raises_the_input_findings_first(disc):
    broken = dataclasses.replace(disc, arcs=disc.arcs + (Arc("zz", "nowhere", "P1"),))
    with pytest.raises(ValidationError) as exc:
        cover_invariant_tuple(broken)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(UNKNOWN_ID, ("zz",))]


def _entries_satisfy_poincare_hopf(surface) -> bool:
    t = invariant_tuple(surface)
    return sum(w + 2 for w, _, _ in t.entries) == poincare_hopf_total(surface)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_poincare_hopf_on_packaged_fixtures(name):
    surface = parse_surface_file(fixture_path(name).read_text()).surface
    assert _entries_satisfy_poincare_hopf(surface)


def test_poincare_hopf_on_random_bases_and_their_covers():
    rng = random.Random(1801)
    for _ in range(150):
        base = random_x_dissection(rng)
        assert _entries_satisfy_poincare_hopf(base)
        assert _entries_satisfy_poincare_hopf(double_cover(base).total)


def test_tilting_decider_on_cylinder_pairs(cylinders):
    assert decide_tilting_equiv(cylinders[1], cylinders[4]).verdict == EQUIVALENT
    assert decide_tilting_equiv(cylinders[2], cylinders[3]).verdict == EQUIVALENT
    assert (
        decide_tilting_equiv(cylinders[1], cylinders[2]).verdict == NOT_EQUIVALENT
    )


def test_tilting_decider_is_symmetric(cylinders):
    for i in cylinders:
        for j in cylinders:
            assert (
                decide_tilting_equiv(cylinders[i], cylinders[j]).verdict
                == decide_tilting_equiv(cylinders[j], cylinders[i]).verdict
            )


def test_tilting_decider_on_identical_discs():
    assert (
        decide_tilting_equiv(two_marked_disc(), two_marked_disc()).verdict
        == EQUIVALENT
    )


def test_tilting_decider_is_inconclusive_above_genus_zero(torus_with_involution):
    surface, _ = torus_with_involution
    verdict = decide_tilting_equiv(surface, surface)
    assert verdict.verdict == INCONCLUSIVE


def test_cover_decider_separates_all_cylinder_pairs(cylinders):
    for i in cylinders:
        for j in cylinders:
            verdict = decide_ghat_equiv(cylinders[i], cylinders[j]).verdict
            assert verdict == (INCONCLUSIVE if i == j else NOT_EQUIVALENT)


def test_equivalent_dissections_with_distinct_covers(cylinders):
    # the pair that the one-surface invariant identifies but the cover
    # invariant separates
    assert decide_tilting_equiv(cylinders[1], cylinders[4]).verdict == EQUIVALENT
    assert decide_ghat_equiv(cylinders[1], cylinders[4]).verdict == NOT_EQUIVALENT


def test_verdict_details_mention_both_sides(cylinders):
    # the reason, and each side's compared invariants in full
    left, right = cylinders[1], cylinders[2]
    verdict = decide_ghat_equiv(left, right)
    assert verdict.reason == "COVER_TUPLE_DIFFERS"
    assert verdict.witness == tuple(
        (("cover genus", c.genus), ("branch points", 2), ("cover entries", c.entries))
        for c in map(cover_invariant_tuple, (left, right))
    )
    assert verdict.witness[0][2] != verdict.witness[1][2]
    verdict = decide_tilting_equiv(left, right)
    assert verdict.reason == "TUPLE_DIFFERS"
    assert verdict.witness == tuple(
        (("genus", t.genus), ("entries", t.entries)) for t in map(invariant_tuple, (left, right))
    )


def _reason_codes() -> set[str]:
    """The reason codes the deciders write: the upper-case string
    constants in the ``decide_*`` functions of linefield.py."""
    tree = ast.parse(Path(linefield.__file__).read_text())
    return {
        node.value
        for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name.startswith("decide_")
        for node in ast.walk(f)
        if isinstance(node, ast.Constant) and re.fullmatch(r"[A-Z][A-Z0-9_]+", str(node.value))
    }


def _fixture(name: str):
    return parse_surface_file(fixture_path(name).read_text()).surface


# (mode, verdict, reason) of each step, and a fixture pair that reaches it
REACHED_BY = {
    ("tilting", NOT_EQUIVALENT, "GENUS_DIFFERS"): ("torus", "cylinder1"),
    ("tilting", NOT_EQUIVALENT, "TUPLE_DIFFERS"): ("cylinder1", "cylinder2"),
    ("tilting", EQUIVALENT, "GENUS_0_THEOREM"): ("cylinder1", "cylinder4"),
    ("tilting", INCONCLUSIVE, "INVARIANTS_MATCH"): ("torus", "torus"),
    ("ghat", NOT_EQUIVALENT, "COVER_GENUS_DIFFERS"): ("cylinder1", "cylinder4"),
    ("ghat", NOT_EQUIVALENT, "BRANCH_COUNT_DIFFERS"): ("one_orbifold_disc", "two_orbifold_disc"),
    ("ghat", NOT_EQUIVALENT, "COVER_TUPLE_DIFFERS"): ("cylinder1", "cylinder2"),
    ("ghat", INCONCLUSIVE, "INVARIANTS_MATCH"): ("cylinder1", "cylinder1"),
}


def test_every_reason_code_is_reached_on_the_fixtures():
    made = {"one_orbifold_disc": one_orbifold_disc(4), "two_orbifold_disc": two_orbifold_disc()}
    for (mode, verdict, reason), names in REACHED_BY.items():
        s1, s2 = (made.get(n) or _fixture(n) for n in names)
        got = DECIDERS[mode](s1, s2)
        assert (got.verdict, got.reason) == (verdict, reason), (mode, names)
        flipped = DECIDERS[mode](s2, s1)
        assert (flipped.verdict, flipped.reason) == (verdict, reason)
        assert flipped.witness == got.witness[::-1]
    assert {reason for _, _, reason in REACHED_BY} == _reason_codes()
    assert set(DECIDERS) == {mode for mode, _, _ in REACHED_BY}


def test_every_reason_code_is_named_by_a_test():
    codes = _reason_codes()
    assert len(codes) == 7
    text = "\n".join(path.read_text() for path in sorted(TESTS.glob("test_*.py")))
    assert [c for c in sorted(codes) if not re.search(rf"\b{c}\b", text)] == []


def _deduplicated(draws):
    kept = []
    for s in draws:
        if not any(surfaces_isomorphic(s, k) for k in kept):
            kept.append(s)
    return kept


def _equal_rank_pairs(surfaces):
    """The pairs of equal rank: arcs plus orbifold points."""
    ranks = [len(s.arcs) + sum(1 for p in s.points if p.kind == ORBIFOLD) for s in surfaces]
    return [
        (surfaces[i], surfaces[j])
        for i in range(len(surfaces))
        for j in range(i + 1, len(surfaces))
        if ranks[i] == ranks[j]
    ]


def test_decision_counts_on_the_puzzle_corpora():
    """Pinned counts by (mode, verdict, reason) on two seeded corpora, so a
    change to either decider shows.

    Skew-gentle: 400 ``random_x_dissection`` draws of seed 2026, less
    isomorphic repeats, leave 164 dissections and 2 113 pairs of equal rank
    (arcs plus orbifold points); both modes decide each.  The draws that
    ``CURVE_THROUGH_BRANCH`` refuses are all one rank-2 dissection, which
    has no partner, so no pair raises.  Gentle: 400 surfaces of
    ``random_gentle_pair`` draws of seed 2027 leave 121 and 1 320 pairs of
    equal arc count; tilting mode decides each.

    Five skew-gentle pairs are tilting ``EQUIVALENT`` and ghat
    ``NOT_EQUIVALENT``.  That is no contradiction: ghat refutes only the
    pair of canonical slit covers, and these are the disputed pairs of the
    orbifold's own genus-0 verdict, so the test sets no gate across modes.
    """
    rng = random.Random(2026)
    skew = _deduplicated([random_x_dissection(rng) for _ in range(400)])
    rng = random.Random(2027)
    gentle = _deduplicated([surface_from_gentle(random_gentle_pair(rng)) for _ in range(400)])
    assert (len(skew), len(gentle)) == (164, 121)
    skew_pairs, gentle_pairs = _equal_rank_pairs(skew), _equal_rank_pairs(gentle)
    assert (len(skew_pairs), len(gentle_pairs)) == (2113, 1320)
    counts = Counter()
    for corpus, pairs, modes in (
        ("skew", skew_pairs, ("tilting", "ghat")),
        ("gentle", gentle_pairs, ("tilting",)),
    ):
        for mode in modes:
            for s, t in pairs:
                v = DECIDERS[mode](s, t)
                counts[corpus, mode, v.verdict, v.reason] += 1
    assert counts == {
        ("skew", "tilting", EQUIVALENT, "GENUS_0_THEOREM"): 186,
        ("skew", "tilting", NOT_EQUIVALENT, "GENUS_DIFFERS"): 130,
        ("skew", "tilting", NOT_EQUIVALENT, "TUPLE_DIFFERS"): 1797,
        ("skew", "ghat", INCONCLUSIVE, "INVARIANTS_MATCH"): 181,
        ("skew", "ghat", NOT_EQUIVALENT, "COVER_GENUS_DIFFERS"): 662,
        ("skew", "ghat", NOT_EQUIVALENT, "BRANCH_COUNT_DIFFERS"): 500,
        ("skew", "ghat", NOT_EQUIVALENT, "COVER_TUPLE_DIFFERS"): 770,
        ("gentle", "tilting", EQUIVALENT, "GENUS_0_THEOREM"): 67,
        ("gentle", "tilting", INCONCLUSIVE, "INVARIANTS_MATCH"): 7,
        ("gentle", "tilting", NOT_EQUIVALENT, "GENUS_DIFFERS"): 333,
        ("gentle", "tilting", NOT_EQUIVALENT, "TUPLE_DIFFERS"): 913,
    }


def _reject_curves(monkeypatch, suffix="", module=linefield):
    """Make the curve check inside ``module`` report a finding for every
    curve whose id ends with ``suffix``."""
    from skewgentle.diagnostics import INVALID_CURVE, Report

    original = module.validate_curve

    def check(surface, curve):
        report = Report(list(original(surface, curve).diagnostics))
        if curve.id.endswith(suffix):
            report.add(INVALID_CURVE, "refused by the test", (curve.id,))
        return report

    monkeypatch.setattr(module, "validate_curve", check)


def test_boundary_curve_check_is_a_diagnostic(cylinders, monkeypatch):
    _reject_curves(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        boundary_curves(cylinders[1])
    assert [d.code for d in exc.value.diagnostics] == ["INVALID_CURVE"]


def test_puncture_loop_check_is_a_diagnostic(cylinders, monkeypatch):
    _reject_curves(monkeypatch, module=oracles)
    with pytest.raises(ValidationError) as exc:
        puncture_loop(cylinders[1], "X1")
    assert [d.code for d in exc.value.diagnostics] == ["INVALID_CURVE"]


def test_mapped_graded_arc_check_is_a_diagnostic(torus_with_involution, monkeypatch):
    surface, inv = torus_with_involution
    duals = dual_dissection(surface)
    garc = graded_arcs_from_solution(duals, grading_solver(surface, duals))[0]
    _reject_curves(monkeypatch, suffix=".inv")
    with pytest.raises(ValidationError) as exc:
        map_graded_arc(surface, inv, garc)
    assert [d.code for d in exc.value.diagnostics] == ["INVALID_CURVE"]


def test_complex_refuses_an_algebra_that_kills_a_corner_path(monkeypatch):
    # The A3 disc: the passage through F2 walks the corner path 1.2 then 2.3.
    surface = surface_from_gentle(
        make_presentation(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    )
    curve = CombinatorialCurve(
        "c",
        False,
        (
            Passage("F1", 0, 1, "right"),
            Passage("F2", 1, 3, "left"),
            Passage("F4", 1, 0, "right"),
        ),
    )
    (garc,) = graded_arcs_from_solution([curve], grading_solver(surface, [curve]))
    assert build_complex(garc, surface).differential
    pres = extract_quiver(surface).presentation
    assert pres.relations == ()
    killed = graded_path_algebra(
        make_presentation(pres.vertices, pres.arrows, [(("1.2", "2.3"),)])
    )
    monkeypatch.setattr(linefield, "graded_path_algebra", lambda pres: killed)
    with pytest.raises(ValidationError) as exc:
        build_complex(garc, surface)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(BAD_INPUT, ("c", 1))]


def test_invariant_tuple_genus_check_is_a_diagnostic(disc):
    # ``topology`` gives no genus only to a disconnected surface, which is
    # refused with its name, by the library and by the curve oracle, also
    # under ``python -O``.
    cover = double_cover(disc).total
    top = topology(cover)
    assert (top.connected, top.genus) == (False, None)
    expected = [
        (
            BAD_INPUT,
            "surface 'disc.cover' is disconnected: invariant tuples are defined "
            "for connected surfaces",
            ("disc.cover",),
        )
    ]
    for compute in (invariant_tuple, invariant_tuple_by_curves):
        with pytest.raises(ValidationError) as exc:
            compute(cover)
        assert [(d.code, d.message, d.where) for d in exc.value.diagnostics] == expected
