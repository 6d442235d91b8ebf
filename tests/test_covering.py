from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from oracles import boundary_circle_count, euler_characteristic, genus_from_counts
from skewgentle import (
    Arc,
    CombinatorialCurve,
    Passage,
    Polygon,
    ValidationError,
    boundary_curves,
    double_cover,
    lift_curve,
    one_orbifold_disc,
    quotient,
    random_x_dissection,
    topology,
    surfaces_isomorphic,
    transport_curve,
    two_hole_torus_surface,
    two_orbifold_disc,
    validate_involution,
    winding,
)
from skewgentle import covering
from skewgentle.cli import main
from skewgentle.diagnostics import CURVE_THROUGH_BRANCH, Report
from skewgentle.fixtures import fixture_path

EXPECTED_COVER_SHAPE = {1: (0, 4), 2: (0, 4), 3: (1, 2), 4: (1, 2)}


def _bottom_curve(cylinder):
    """The curve parallel to the boundary component of ``b_bot``."""
    return next(c for c in boundary_curves(cylinder) if c.id == "boundary.b_bot")


def test_cover_topology_of_cylinder_fixtures(cylinder_covers):
    for variant, cov in cylinder_covers.items():
        top = topology(cov.total)
        assert (top.genus, len(top.boundary)) == EXPECTED_COVER_SHAPE[variant]
        assert top.orbifold_points == ()
        assert top.connected


def test_cover_euler_characteristic_against_oracle(cylinder_covers, disc_x4):
    for cov in list(cylinder_covers.values()) + [double_cover(disc_x4)]:
        chi_base = euler_characteristic(cov.base)
        chi_total = euler_characteristic(cov.total)
        assert chi_total == 2 * chi_base - len(cov.branch_points)
        nb = boundary_circle_count(cov.total)
        assert genus_from_counts(chi_total, nb) == topology(cov.total).genus


def test_cover_of_orbifold_disc_is_a_disc(disc_x4):
    cov = double_cover(disc_x4)
    top = topology(cov.total)
    assert (top.genus, len(top.boundary)) == (0, 1)
    assert cov.branch_points == ("X",)
    # each of the four boundary marked points downstairs has two lifts
    marked_down = sum(len(b.marked) for b in topology(cov.base).boundary)
    marked_up = sum(len(b.marked) for b in top.boundary)
    assert (marked_down, marked_up) == (4, 8)


def test_deck_symmetry_is_a_valid_involution(cylinder_covers):
    for cov in cylinder_covers.values():
        assert validate_involution(cov.total, cov.deck).ok
        assert {a for a, b in cov.deck.arcs.items() if a == b} == cov.slit_arcs
        for pid, img in cov.deck.polygons.items():
            assert cov.deck.polygons[img] == pid
            assert img != pid  # sheet swap moves every polygon


def test_branch_points_of_cylinder_covers(cylinder_covers):
    for cov in cylinder_covers.values():
        assert sorted(cov.branch_points) == ["X1", "X2"]
        # branch points disappear upstairs
        assert all(p not in cov.total.point_by_id for p in cov.branch_points)


def _check_derived_maps(cov):
    base, total = cov.base, cov.total
    orbifold = {p.id for p in base.points if p.kind == "orbifold"}
    assert set(cov.branch_points) == orbifold
    assert cov.slit_arcs == {a.id for a in base.arcs if {a.tail, a.head} & orbifold}
    for poly in base.polygons:
        slit_slots = {c + d for c in cov.cuts[poly.id] for d in (0, 1)}
        for i, side in enumerate(poly.sides):
            if not side.is_arc or i in slit_slots:
                continue
            lifts = {cov.arc_image[(side.ref, sheet)] for sheet in (1, -1)}
            for eps in (1, -1):
                pid, u = cov.slot_image[(poly.id, i, eps)]
                up = total.polygon_by_id[pid].sides[u]
                assert up.ref in lifts and up.direction == side.direction
    owners = Counter(cov.arc_image.values()) + Counter(cov.slit_arcs)
    assert owners == Counter(a.id for a in total.arcs)


def test_derived_maps_follow_the_parity_rule(
    cylinders, disc_x4, disc_xx, disc, torus_with_involution
):
    covers = [quotient(*torus_with_involution)]
    surfaces = list(cylinders.values()) + [disc_x4, disc_xx, disc]
    rng = random.Random(8080)
    surfaces += [random_x_dissection(rng) for _ in range(200)]
    for surface in surfaces:
        cov = double_cover(surface)
        # the canonical cover names the lift of arc a on sheet ±1 "a±"
        assert all(
            lift == f"{a}{'+' if sheet == 1 else '-'}"
            for (a, sheet), lift in cov.arc_image.items()
        )
        covers += [cov, quotient(cov.total, cov.deck)]
    for cov in covers:
        _check_derived_maps(cov)


def test_cover_builders_hand_over_their_cuts(cylinders, torus_with_involution, monkeypatch):
    """``double_cover`` and ``quotient`` compute the cuts and slit counts of
    the base once and store them on the cover they return."""
    calls = []
    cuts = covering._cuts

    def counted(base):
        calls.append(base.name)
        return cuts(base)

    monkeypatch.setattr(covering, "_cuts", counted)
    covers = [double_cover(s) for s in cylinders.values()]
    covers.append(quotient(*torus_with_involution))
    assert len(calls) == len(covers)
    for cov in covers:
        assert (cov.cuts, cov.pieces) == cuts(cov.base)
        _check_derived_maps(cov)
        assert cov.arrow_lifts
    assert len(calls) == len(covers)


def test_quotient_undoes_cover_on_fixtures(cylinders, disc_x4, disc_xx):
    for surface in list(cylinders.values()) + [disc_x4, disc_xx]:
        cov = double_cover(surface)
        back = quotient(cov.total, cov.deck)
        assert surfaces_isomorphic(back.base, surface) is not None


def test_quotient_undoes_cover_on_random_dissections():
    rng = random.Random(424242)
    for _ in range(150):
        surface = random_x_dissection(rng)
        cov = double_cover(surface)
        chi_base = euler_characteristic(surface)
        chi_total = euler_characteristic(cov.total)
        assert chi_total == 2 * chi_base - len(cov.branch_points)
        back = quotient(cov.total, cov.deck)
        assert surfaces_isomorphic(back.base, surface) is not None


def test_twisted_torus_quotient_is_first_cylinder(
    torus_with_involution, cylinders
):
    surface, inv = torus_with_involution
    q = quotient(surface, inv)
    assert sorted(q.base.point_by_id) == ["Pb1", "Pt1", "X_2", "X_3"]
    maps = surfaces_isomorphic(q.base, cylinders[1])
    assert maps is not None
    assert maps["points"]["X_2"] == "X2"
    assert maps["points"]["X_3"] == "X1"


def test_twisted_quotient_differs_from_slit_cover(
    torus_with_involution, cylinder_covers
):
    # the genus-one double cover of the cylinder is not the slit cover
    surface, _ = torus_with_involution
    assert surfaces_isomorphic(surface, cylinder_covers[1].total) is None


def test_boundary_curves_lift_to_two_components(cylinders):
    cov = double_cover(cylinders[1])
    for base_curve in boundary_curves(cylinders[1]):
        lift = lift_curve(cov, base_curve)
        assert not lift.doubled
        assert lift.curve.closed
        assert len(lift.curve.passages) == len(base_curve.passages)
        assert winding(cov.total, lift.curve) == winding(cylinders[1], base_curve)
        other = transport_curve(cov, lift.curve)
        assert other.passages != lift.curve.passages
        assert winding(cov.total, other) == winding(cov.total, lift.curve)


def test_curve_around_one_branch_point_lifts_doubled(cylinders):
    # encircles X2 only: crossing arcs 1, 3, 4 of the first cylinder
    curve = CombinatorialCurve(
        "around_x2",
        True,
        (
            Passage("lower", 1, 4, "left"),
            Passage("lower", 5, 6, "left"),
            Passage("upper", 2, 1, "right"),
        ),
    )
    cov = double_cover(cylinders[1])
    lift = lift_curve(cov, curve)
    assert lift.doubled
    assert len(lift.curve.passages) == 2 * len(curve.passages)


def test_core_curve_around_both_branch_points_lifts_split(cylinders):
    curve = CombinatorialCurve(
        "core",
        True,
        (Passage("lower", 1, 6, "left"), Passage("upper", 2, 1, "right")),
    )
    cov = double_cover(cylinders[1])
    lift = lift_curve(cov, curve)
    assert not lift.doubled


def test_open_curve_lifts_to_open_curve(cylinders):
    curve = CombinatorialCurve(
        "crossing",
        False,
        (Passage("lower", 0, 1, "right"), Passage("upper", 1, 0, "right")),
    )
    cov = double_cover(cylinders[1])
    lift = lift_curve(cov, curve)
    assert not lift.doubled
    assert not lift.curve.closed
    assert len(lift.curve.passages) == 2


def test_orbifold_loop_cannot_be_lifted(cylinders):
    loop = CombinatorialCurve(
        "x2_loop", True, (Passage("lower", 2, 3, "left"),)
    )
    cov = double_cover(cylinders[1])
    with pytest.raises(ValidationError) as err:
        lift_curve(cov, loop)
    assert any(d.code == CURVE_THROUGH_BRANCH for d in err.value.diagnostics)


def test_boundary_lifts_on_twisted_cover_are_doubled(torus_with_involution):
    surface, inv = torus_with_involution
    q = quotient(surface, inv)
    for curve in boundary_curves(q.base):
        lift = lift_curve(q, curve)
        assert lift.doubled


def test_two_orbifold_disc_cover_shape(disc_xx):
    cov = double_cover(disc_xx)
    top = topology(cov.total)
    assert len(cov.branch_points) == 2
    assert euler_characteristic(cov.total) == 2 * euler_characteristic(disc_xx) - 2
    assert top.orbifold_points == ()


def test_unbranched_cover_of_plain_disc_splits():
    from skewgentle import two_marked_disc

    disc = two_marked_disc()
    cov = double_cover(disc)
    top = topology(cov.total)
    assert cov.branch_points == ()
    assert len(top.components) == 2
    assert not top.connected
    assert all(c.genus == 0 and len(c.boundary) == 1 for c in top.components)


def _failing(code: str) -> Report:
    report = Report()
    report.add(code, "injected finding")
    return report


def _codes(err) -> list[str]:
    return [d.code for d in err.value.diagnostics]


def test_invalid_double_cover_raises_and_cli_exits_2(monkeypatch, cylinders, capsys):
    original = covering.validate
    monkeypatch.setattr(
        covering,
        "validate",
        lambda s: _failing("BAD_EULER") if s.name.endswith(".cover") else original(s),
    )
    with pytest.raises(ValidationError) as err:
        double_cover(cylinders[1])
    assert _codes(err) == ["BAD_EULER"]
    assert main(["cover", str(fixture_path("cylinder1"))]) == 2
    assert "[BAD_EULER]" in capsys.readouterr().err


def test_invalid_deck_symmetry_raises(monkeypatch, cylinders):
    monkeypatch.setattr(
        covering,
        "validate_involution",
        lambda surface, inv: _failing("ORIENTATION_REVERSED"),
    )
    with pytest.raises(ValidationError) as err:
        double_cover(cylinders[1])
    assert _codes(err) == ["ORIENTATION_REVERSED"]


def test_invalid_quotient_raises(monkeypatch, torus_with_involution):
    original = covering.validate
    monkeypatch.setattr(
        covering,
        "validate",
        lambda s: _failing("CORNER_MISMATCH") if s.name.endswith(".quotient") else original(s),
    )
    with pytest.raises(ValidationError) as err:
        quotient(*torus_with_involution)
    assert _codes(err) == ["CORNER_MISMATCH"]


def test_invalid_lift_raises(monkeypatch, cylinders):
    cov = double_cover(cylinders[1])
    original = covering.validate_curve
    monkeypatch.setattr(
        covering,
        "validate_curve",
        lambda s, c: _failing("INVALID_CURVE") if s is cov.total else original(s, c),
    )
    with pytest.raises(ValidationError) as err:
        lift_curve(cov, _bottom_curve(cylinders[1]))
    assert _codes(err) == ["INVALID_CURVE"]


def _bad_lift(err) -> tuple:
    (diagnostic,) = err.value.diagnostics
    assert diagnostic.code == "BAD_LIFT"
    return diagnostic.where


def test_colliding_arrow_lifts_raise(cylinders):
    cov = double_cover(cylinders[1])
    # both sheets of the first base arrow read the sheet +1 slot upstairs
    aid, (poly, i) = next(iter(cov.base_quiver.corner_of_arrow.items()))
    for sheet in (1, -1):
        cov.slot_image[(poly, i, sheet)] = cov.slot_image[(poly, i, 1)]
    with pytest.raises(ValidationError) as err:
        assert cov.arrow_lifts
    (arrow,) = _bad_lift(err)
    assert arrow in cov.total_quiver.presentation.arrow_by_id


def test_lift_into_a_foreign_polygon_raises(cylinders):
    cov = double_cover(cylinders[1])
    # the boundary curve passes from "lower" into "upper"
    cov.poly_instance[("upper", 1)] = cov.poly_instance[("upper", -1)] = "nowhere"
    with pytest.raises(ValidationError) as err:
        lift_curve(cov, _bottom_curve(cylinders[1]))
    assert _bad_lift(err) == ("boundary.b_bot", 0)


def test_lift_through_a_wrong_slot_raises(cylinders):
    cov = double_cover(cylinders[1])
    curve = _bottom_curve(cylinders[1])
    nxt = curve.passages[1]
    for sheet in (1, -1):
        pid, slot = cov.slot_image[(nxt.polygon, nxt.entry, sheet)]
        cov.slot_image[(nxt.polygon, nxt.entry, sheet)] = (pid, slot + 1)
    with pytest.raises(ValidationError) as err:
        lift_curve(cov, curve)
    assert _bad_lift(err) == ("boundary.b_bot", 0)


def _cover_unchecked(monkeypatch, surface, corrupted):
    """``double_cover`` of ``corrupted`` with the input checks reading
    ``surface`` instead, so the cover construction meets the defect."""
    monkeypatch.setattr(covering, "validate", lambda s: Report())
    kind = covering.classify_dissection(surface)
    monkeypatch.setattr(covering, "classify_dissection", lambda s: kind)
    with pytest.raises(ValidationError) as err:
        double_cover(corrupted)
    (diagnostic,) = err.value.diagnostics
    assert diagnostic.code == "BAD_INPUT"
    return diagnostic.where


def _with_big_polygon(surface, order):
    """``surface`` with the sides of its polygon ``big`` reordered."""
    polygons = tuple(
        Polygon(p.id, tuple(p.sides[i] for i in order)) if p.id == "big" else p
        for p in surface.polygons
    )
    return dataclasses.replace(surface, polygons=polygons)


def test_arc_between_two_orbifold_points_is_bad_input(monkeypatch, disc_xx):
    arcs = tuple(Arc(a.id, a.tail, "X2") if a.id == "1" else a for a in disc_xx.arcs)
    corrupted = dataclasses.replace(disc_xx, arcs=arcs)
    assert _cover_unchecked(monkeypatch, disc_xx, corrupted) == ("1",)


def test_slit_corner_at_the_boundary_segment_is_bad_input(monkeypatch, disc_x4):
    # big is b4, 1⁻, 1⁺, 2, 3, 4: move 1⁻ last, so the orbifold corner is
    # the last one, next to the boundary segment
    corrupted = _with_big_polygon(disc_x4, (0, 2, 3, 4, 5, 1))
    assert _cover_unchecked(monkeypatch, disc_x4, corrupted) == ("big", 5)


def test_orbifold_corner_without_a_slit_pair_is_bad_input(monkeypatch, disc_x4):
    # 1⁻, 2, 1⁺: the side after the orbifold corner is not the slit's return
    corrupted = _with_big_polygon(disc_x4, (0, 1, 3, 2, 4, 5))
    assert _cover_unchecked(monkeypatch, disc_x4, corrupted) == ("big", 1)
