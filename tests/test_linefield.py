from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import poincare_hopf_total

from skewgentle import (
    BOUNDARY,
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    ORBIFOLD,
    PUNCTURE,
    CombinatorialCurve,
    ComplexPresentation,
    MarkedPoint,
    Passage,
    ValidationError,
    boundary_curve,
    boundary_curves,
    build_complex,
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
    parse_surface_file,
    puncture_loop,
    random_x_dissection,
    reverse_curve,
    surface_from_gentle,
    surface_from_triple,
    triple_from_x_dissection,
    two_marked_disc,
    verify_d2,
    winding,
)
from skewgentle import linefield
from skewgentle.diagnostics import (
    BAD_INPUT,
    BOUNDARY_POINT,
    INCONSISTENT,
    NOT_A_COMPLEX,
    NOT_CONNECTED_TO_ANCHOR,
    WINDING_MISMATCH,
)
from skewgentle.presentations import Arrow

FIXTURE_NAMES = ["cylinder1", "cylinder2", "cylinder3", "cylinder4", "disc", "torus"]

EXPECTED_BOUNDARY_WINDINGS = {
    1: {"b_bot": 0, "b_top": -2},
    2: {"b_bot": -1, "b_top": -1},
    3: {"b_bot": -1, "b_top": -1},
    4: {"b_bot": -2, "b_top": 0},
}


def test_cylinder_boundary_windings(cylinders):
    for variant, surface in cylinders.items():
        for bseg, expected in EXPECTED_BOUNDARY_WINDINGS[variant].items():
            assert winding(surface, boundary_curve(surface, bseg)) == expected


def test_orbifold_loop_windings(cylinders):
    for surface in cylinders.values():
        for x in ("X1", "X2"):
            assert winding(surface, puncture_loop(surface, x)) == -1


def test_plain_disc_boundary_winding():
    disc = two_marked_disc()
    (curve,) = boundary_curves(disc)
    assert winding(disc, curve) == 2


def test_orbifold_disc_boundary_winding(disc_x4):
    (curve,) = boundary_curves(disc_x4)
    assert winding(disc_x4, curve) == 1


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


def test_grading_of_canonical_duals_is_zero(cylinders, disc_x4):
    for surface in list(cylinders.values()) + [disc_x4]:
        duals = dual_dissection(surface)
        result = grading_solver(surface, duals)
        assert result.report.ok
        assert result.values is not None
        assert set(result.values.values()) == {0}


def test_grading_anchor_translates_whole_block(cylinders):
    duals = dual_dissection(cylinders[1])
    result = grading_solver(
        cylinders[1], duals, anchors={(duals[0].id, 0): 7}
    )
    assert result.values is not None
    assert set(result.values.values()) == {7}


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
    result = grading_solver(cylinders[1], [PERTURBED])
    assert result.values is None
    assert result.report.codes().count(INCONSISTENT) == 2


def test_graded_arcs_from_failed_grading_raise_its_findings(cylinders):
    result = grading_solver(cylinders[1], [PERTURBED])
    with pytest.raises(ValidationError) as exc:
        graded_arcs_from_solution(cylinders[1], [PERTURBED], result)
    assert exc.value.diagnostics == result.report.diagnostics
    assert [d.code for d in exc.value.diagnostics] == [INCONSISTENT, INCONSISTENT]


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
    anchored = grading_solver(
        disc_x4, [span, hook], anchors={("d4", 0): 0}
    )
    assert anchored.values is None
    assert NOT_CONNECTED_TO_ANCHOR in anchored.report.codes()
    free = grading_solver(disc_x4, [span, hook])
    assert free.values is not None


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
    plain = grading_solver(cylinders[1], [falling, rising])
    assert plain.values is not None
    paired = grading_solver(
        cylinders[1],
        [falling, rising],
        symmetric_pairs=[("falling", "rising")],
    )
    assert paired.values is None
    assert INCONSISTENT in paired.report.codes()


def test_graded_arc_maps_through_involution(torus_with_involution):
    surface, inv = torus_with_involution
    duals = dual_dissection(surface)
    result = grading_solver(surface, duals)
    garcs = graded_arcs_from_solution(surface, duals, result)
    for garc in garcs:
        moved = map_graded_arc(surface, inv, garc)
        assert moved.curve.id == garc.curve.id + ".inv"
        assert moved.grades == garc.grades
        back = map_graded_arc(surface, inv, moved)
        assert back.curve.passages == garc.curve.passages


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
    result = grading_solver(surface, [stair])
    garcs = graded_arcs_from_solution(surface, [stair], result)
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
    result = grading_solver(surface, [stair])
    (garc,) = graded_arcs_from_solution(surface, [stair], result)
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
    verdict = decide_ghat_equiv(cylinders[1], cylinders[2])
    assert any("left" in line for line in verdict.details)
    assert any("right" in line for line in verdict.details)


def _reject_curves(monkeypatch, suffix=""):
    """Make the curve check inside ``linefield`` report a finding for every
    curve whose id ends with ``suffix``."""
    from skewgentle import linefield
    from skewgentle.diagnostics import INVALID_CURVE, Report

    original = linefield.validate_curve

    def check(surface, curve):
        report = Report(list(original(surface, curve).diagnostics))
        if curve.id.endswith(suffix):
            report.add(INVALID_CURVE, "refused by the test", (curve.id,))
        return report

    monkeypatch.setattr(linefield, "validate_curve", check)


def test_boundary_curve_check_is_a_diagnostic(cylinders, monkeypatch):
    _reject_curves(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        boundary_curve(cylinders[1], "b_bot")
    assert [d.code for d in exc.value.diagnostics] == ["INVALID_CURVE"]


def test_puncture_loop_check_is_a_diagnostic(cylinders, monkeypatch):
    _reject_curves(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        puncture_loop(cylinders[1], "X1")
    assert [d.code for d in exc.value.diagnostics] == ["INVALID_CURVE"]


def test_mapped_graded_arc_check_is_a_diagnostic(torus_with_involution, monkeypatch):
    surface, inv = torus_with_involution
    duals = dual_dissection(surface)
    garc = graded_arcs_from_solution(surface, duals, grading_solver(surface, duals))[0]
    _reject_curves(monkeypatch, suffix=".inv")
    with pytest.raises(ValidationError) as exc:
        map_graded_arc(surface, inv, garc)
    assert [d.code for d in exc.value.diagnostics] == ["INVALID_CURVE"]


def test_complex_refuses_an_algebra_that_kills_a_corner_path():
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
    (garc,) = graded_arcs_from_solution(surface, [curve], grading_solver(surface, [curve]))
    assert build_complex(garc, surface).differential
    pres = extract_quiver(surface).presentation
    assert pres.relations == ()
    killed = graded_path_algebra(
        make_presentation(pres.vertices, pres.arrows, [(("1.2", "2.3"),)])
    )
    with pytest.raises(ValidationError) as exc:
        build_complex(garc, surface, algebra=killed)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(BAD_INPUT, ("c", 1))]
