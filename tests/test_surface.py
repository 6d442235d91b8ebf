from __future__ import annotations

import dataclasses
import random

import pytest

from oracles import (
    boundary_circle_count,
    boundary_curves,
    check_surface,
    euler_characteristic,
    genus_from_counts,
    is_dissection_isomorphism,
    reverse_curve,
)
from skewgentle import (
    BOUNDARY,
    ORBIFOLD,
    PUNCTURE,
    Arc,
    BoundarySegment,
    CombinatorialCurve,
    MarkedPoint,
    Passage,
    Polygon,
    SurfaceInvolution,
    arc_side,
    boundary_components,
    bseg_side,
    classify_dissection,
    complete_involution,
    crossing_steps,
    curve_crossings,
    double_cover,
    fixture_path,
    invariant_tuple,
    make_surface,
    one_orbifold_disc,
    parse_surface_file,
    passage_winding,
    quiver_from_dissection,
    random_gentle_pair,
    random_x_dissection,
    surface_from_gentle,
    surfaces_isomorphic,
    topology,
    triple_from_x_dissection,
    two_hole_torus_surface,
    two_marked_disc,
    two_orbifold_disc,
    validate,
    validate_curve,
    validate_involution,
)
from skewgentle.cli import main
from skewgentle.diagnostics import (
    BAD_INPUT,
    BAD_INVOLUTION,
    BSEG_NOT_FIRST,
    BSEG_OCCURRENCE,
    CORNER_MISMATCH,
    FIXED_MARKED_POINT,
    FIXED_POLYGON,
    NOT_ORDER_TWO,
    ORIENTATION_REVERSED,
    UNKNOWN_ID,
    UNREVERSED_FIXED_ARC,
    X_DEGREE,
    ValidationError,
)
from skewgentle.surface import chord_bseg_side


def _two_gon():
    points = [MarkedPoint("P1", BOUNDARY), MarkedPoint("P2", BOUNDARY)]
    bsegs = [BoundarySegment("b1", "P1", "P2"), BoundarySegment("b2", "P2", "P1")]
    arcs = [Arc("a", "P1", "P2")]
    polygons = [
        Polygon("F1", (bseg_side("b1"), arc_side("a", -1))),
        Polygon("F2", (bseg_side("b2"), arc_side("a", 1))),
    ]
    return points, arcs, bsegs, polygons


def test_make_surface_rotates_bseg_first():
    points, arcs, bsegs, polygons = _two_gon()
    rotated = [Polygon("F1", (arc_side("a", -1), bseg_side("b1"))), polygons[1]]
    s = make_surface("d", points, arcs, bsegs, rotated)
    assert not s.polygon_by_id["F1"].sides[0].is_arc
    assert s.polygon_by_id["F1"].sides[0].ref == "b1"


def test_validate_accepts_disc(disc):
    assert validate(disc).ok


def test_validate_rejects_single_arc_occurrence():
    points, arcs, bsegs, polygons = _two_gon()
    arcs.append(Arc("stray", "P1", "P2"))
    s = make_surface("bad", points, arcs, bsegs, polygons)
    assert "ARC_OCCURRENCE" in validate(s).codes()


def test_validate_rejects_same_direction_gluing():
    points, arcs, bsegs, polygons = _two_gon()
    polygons[1] = Polygon("F2", (bseg_side("b2"), arc_side("a", -1)))
    s = make_surface("bad", points, arcs, bsegs, polygons)
    codes = validate(s).codes()
    assert "NONORIENTABLE_GLUING" in codes or "CORNER_MISMATCH" in codes


def test_validate_rejects_multiple_bsegs_in_polygon():
    points = [MarkedPoint("P1", BOUNDARY), MarkedPoint("P2", BOUNDARY)]
    bsegs = [BoundarySegment("b1", "P1", "P2"), BoundarySegment("b2", "P2", "P1")]
    polygons = [Polygon("F1", (bseg_side("b1"), bseg_side("b2")))]
    s = make_surface("bad", points, [], bsegs, polygons)
    assert "MULTIPLE_BSEG" in validate(s).codes()


def _rotated(surface, polygon: str):
    polygons = tuple(
        dataclasses.replace(p, sides=p.sides[1:] + p.sides[:1]) if p.id == polygon else p
        for p in surface.polygons
    )
    return dataclasses.replace(surface, polygons=polygons)


def test_validate_rejects_a_word_not_starting_with_its_boundary_segment(
    cylinders, cylinder_covers
):
    # every reader of a polygon word takes slot 0 as its boundary segment
    rotated = _rotated(cylinders[1], "lower")
    assert [(d.code, d.where) for d in validate(rotated).diagnostics] == [
        (BSEG_NOT_FIRST, ("lower",))
    ]
    with pytest.raises(ValidationError) as exc:
        surfaces_isomorphic(rotated, cylinders[1])
    assert exc.value.diagnostics[0].code == BSEG_NOT_FIRST
    # the involution check names the surface's fault, not the involution
    cov = cylinder_covers[1]
    rotated = _rotated(cov.total, "lower+")
    assert [(d.code, d.where) for d in validate_involution(rotated, cov.deck).diagnostics] == [
        (BSEG_NOT_FIRST, ("lower+",))
    ]


def test_validate_rejects_corner_mismatch():
    points = [
        MarkedPoint("P1", BOUNDARY),
        MarkedPoint("P2", BOUNDARY),
        MarkedPoint("P3", BOUNDARY),
    ]
    bsegs = [
        BoundarySegment("b1", "P1", "P2"),
        BoundarySegment("b2", "P2", "P3"),
        BoundarySegment("b3", "P3", "P1"),
    ]
    arcs = [Arc("a", "P1", "P1")]
    polygons = [
        Polygon("F1", (bseg_side("b1"), arc_side("a", 1))),
        Polygon("F2", (bseg_side("b2"), bseg_side("b3"), arc_side("a", -1))),
    ]
    s = make_surface("bad", points, arcs, bsegs, polygons)
    rep = validate(s)
    assert not rep.ok


def test_cylinder_topology_matches_cell_count_oracle(cylinders):
    for s in cylinders.values():
        top = topology(s)
        assert top.euler_char == euler_characteristic(s)
        assert len(top.boundary) == boundary_circle_count(s)
        assert top.connected
        chi_surface = top.euler_char - len(top.orbifold_points)
        assert top.genus == genus_from_counts(chi_surface + len(top.orbifold_points), len(top.boundary))


def test_cylinder_topology_values(cylinders):
    for s in cylinders.values():
        top = topology(s)
        assert top.genus == 0
        assert len(top.boundary) == 2
        assert len(top.orbifold_points) == 2
        assert len(top.punctures) == 0


def test_torus_topology(torus_with_involution):
    s, _ = torus_with_involution
    top = topology(s)
    assert top.genus == 1
    assert len(top.boundary) == 2
    assert top.euler_char == euler_characteristic(s) == -2


def test_classification_kinds(cylinders, disc, torus_with_involution):
    assert classify_dissection(cylinders[1]) == "x"
    assert classify_dissection(disc) == "bullet"
    assert classify_dissection(torus_with_involution[0]) == "bullet"


def test_boundary_components_order(cylinders):
    comps = boundary_components(cylinders[1])
    assert [c.bsegs for c in comps] == [("b_bot",), ("b_top",)]
    assert comps[0].marked == ("B",)


def test_complete_involution_rejects_odd_point_map(cylinders):
    s = cylinders[1]
    # The maps complete; the check then finds the orbifold points and
    # every arc and polygon that does not map onto its image.
    inv = complete_involution(
        s, {"B": "T", "T": "B", "X1": "X2", "X2": "X1"}, {"1": "4", "4": "1", "2": "3", "3": "2"}, []
    )
    report = validate_involution(s, inv)
    assert [(d.code, d.where) for d in report.diagnostics] == [
        (BAD_INPUT, ("X1",)),
        (BAD_INPUT, ("X2",)),
        *[(BAD_INVOLUTION, (a,)) for a in ("1", "2", "3", "4")],
        (BAD_INVOLUTION, ("lower",)),
        (BAD_INVOLUTION, ("upper",)),
    ]


def test_torus_involution_valid(torus_with_involution):
    s, inv = torus_with_involution
    assert validate_involution(s, inv).ok
    assert sorted(a for a, b in inv.arcs.items() if a == b) == ["2", "3"]


def test_chord_side_rule():
    assert chord_bseg_side(1, 2) == "left"
    assert chord_bseg_side(1, 5) == "left"
    assert chord_bseg_side(2, 1) == "right"
    assert chord_bseg_side(0, 1) == "right"
    assert chord_bseg_side(5, 0) == "right"
    with pytest.raises(ValueError):
        chord_bseg_side(2, 2)


def test_passage_winding_signs():
    assert passage_winding(Passage("F", 1, 2, "left")) == 1
    assert passage_winding(Passage("F", 2, 1, "right")) == -1


def _staircase():
    return CombinatorialCurve(
        "st",
        False,
        (
            Passage("upper", 0, 1, "right"),
            Passage("lower", 1, 2, "left"),
            Passage("lower", 3, 4, "left"),
            Passage("lower", 5, 0, "right"),
        ),
    )


def test_validate_curve_accepts_staircase(cylinders):
    assert validate_curve(cylinders[1], _staircase()).ok


def test_validate_curve_rejects_wrong_side(cylinders):
    bad = CombinatorialCurve(
        "bad",
        False,
        (
            Passage("upper", 0, 1, "left"),
            Passage("lower", 1, 0, "right"),
        ),
    )
    assert "INVALID_CURVE" in validate_curve(cylinders[1], bad).codes()


def test_validate_curve_rejects_mismatched_consecutive(cylinders):
    bad = CombinatorialCurve(
        "bad",
        False,
        (
            Passage("upper", 0, 1, "right"),
            Passage("lower", 3, 0, "right"),
        ),
    )
    assert not validate_curve(cylinders[1], bad).ok


def test_curve_crossings(cylinders):
    assert curve_crossings(cylinders[1], _staircase()) == ["1", "2", "3"]
    # four passages: three crossings, and the two inner passages step
    assert crossing_steps(_staircase()) == (3, [(1, 0, 1), (2, 1, 2)])
    loop = {c.id: c for c in boundary_curves(cylinders[1])}["boundary.b_bot"]
    n = len(loop.passages)
    assert crossing_steps(loop) == (n, [(0, n - 1, 0)] + [(j, j - 1, j) for j in range(1, n)])
    assert len(curve_crossings(cylinders[1], loop)) == n


def test_reverse_curve_is_involutive(cylinders):
    c = _staircase()
    r = reverse_curve(c)
    assert validate_curve(cylinders[1], r).ok
    rr = reverse_curve(r)
    assert rr.passages == c.passages


def test_reverse_curve_flips_slots():
    c = _staircase()
    r = reverse_curve(c)
    assert r.passages[0].entry == c.passages[-1].exit
    assert r.passages[0].exit == c.passages[-1].entry


def test_surfaces_isomorphic_relabeling(cylinders):
    s = cylinders[1]
    relabeled = make_surface(
        "other",
        [MarkedPoint(f"p.{p.id}", p.kind) for p in s.points],
        [Arc(f"a.{a.id}", f"p.{a.tail}", f"p.{a.head}") for a in s.arcs],
        [BoundarySegment(f"s.{b.id}", f"p.{b.tail}", f"p.{b.head}") for b in s.bsegs],
        [
            Polygon(
                f"f.{poly.id}",
                tuple(
                    bseg_side(f"s.{x.ref}") if not x.is_arc else arc_side(f"a.{x.ref}", x.direction)
                    for x in poly.sides
                ),
            )
            for poly in s.polygons
        ],
    )
    assert surfaces_isomorphic(s, relabeled)


def test_surfaces_isomorphic_distinguishes_variants(cylinders):
    assert surfaces_isomorphic(cylinders[1], cylinders[2]) is None
    assert surfaces_isomorphic(cylinders[1], cylinders[4]) is None


def _relabelled(s, rng: random.Random):
    """A copy of ``s`` with fresh ids, about half its arcs reversed, each
    polygon word rotated and every list of records shuffled."""
    def fresh(cells, prefix):
        ids = [c.id for c in cells]
        return dict(zip(ids, rng.sample([f"{prefix}{k}" for k in range(len(ids))], len(ids))))

    pt, arc, bseg, poly = (
        fresh(cells, prefix)
        for cells, prefix in ((s.points, "q"), (s.arcs, "r"), (s.bsegs, "c"), (s.polygons, "g"))
    )
    reversed_arcs = {a.id for a in s.arcs if rng.random() < 0.5}
    points = [MarkedPoint(pt[p.id], p.kind) for p in s.points]
    arcs = []
    for a in s.arcs:
        tail, head = (a.head, a.tail) if a.id in reversed_arcs else (a.tail, a.head)
        arcs.append(Arc(arc[a.id], pt[tail], pt[head]))
    bsegs = [BoundarySegment(bseg[b.id], pt[b.tail], pt[b.head]) for b in s.bsegs]
    polygons = []
    for p in s.polygons:
        word = tuple(
            arc_side(arc[x.ref], -x.direction if x.ref in reversed_arcs else x.direction)
            if x.is_arc
            else bseg_side(bseg[x.ref])
            for x in p.sides
        )
        k = rng.randrange(len(word))
        polygons.append(Polygon(poly[p.id], word[k:] + word[:k]))
    for records in (points, arcs, bsegs, polygons):
        rng.shuffle(records)
    return make_surface("relabelled", points, arcs, bsegs, polygons)


def _assert_isomorphic_to_relabelled_copies(surfaces, rng):
    for s in surfaces:
        for other in (s, _relabelled(s, rng)):
            maps = surfaces_isomorphic(s, other)
            assert maps is not None
            assert is_dissection_isomorphism(s, other, maps)


def test_isomorphisms_of_the_fixtures_are_isomorphisms(cylinders, cylinder_covers):
    ladder = [one_orbifold_disc(n) for n in range(2, 15)]
    fixtures = [two_marked_disc(), two_orbifold_disc(), two_hole_torus_surface()[0]]
    fixtures += list(cylinders.values())
    covers = [cov.total for cov in cylinder_covers.values()]
    covers += [double_cover(s).total for s in ladder + fixtures[:2]]
    _assert_isomorphic_to_relabelled_copies(ladder + fixtures + covers, random.Random(31))


def test_isomorphisms_of_random_dissections_are_isomorphisms():
    rng = random.Random(32)
    _assert_isomorphic_to_relabelled_copies([random_x_dissection(rng) for _ in range(200)], rng)


def test_isomorphisms_of_disconnected_covers_are_isomorphisms():
    """A surface without orbifold points is covered by two copies of itself;
    each copy is a component matched on its own."""
    rng = random.Random(33)
    covers = [double_cover(surface_from_gentle(random_gentle_pair(rng))).total for _ in range(50)]
    assert all(len(topology(c).components) == 2 for c in covers)
    _assert_isomorphic_to_relabelled_copies(covers, rng)


def test_the_isomorphism_oracle_refuses_a_broken_map(cylinders):
    s = cylinders[1]
    other = _relabelled(s, random.Random(34))
    maps = surfaces_isomorphic(s, other)
    a, b = sorted(maps["points"])[:2]
    swapped = dict(maps, points={**maps["points"], a: maps["points"][b], b: maps["points"][a]})
    assert not is_dissection_isomorphism(s, other, swapped)
    assert not is_dissection_isomorphism(s, other, dict(maps, arcs={}))


def test_isomorphism_of_a_long_fan_disc_does_not_recurse():
    disc = one_orbifold_disc(1200)
    other = _relabelled(disc, random.Random(35))
    maps = surfaces_isomorphic(disc, other)
    assert maps is not None
    assert is_dissection_isomorphism(disc, other, maps)


def test_point_kinds_exist():
    assert {BOUNDARY, PUNCTURE, ORBIFOLD} == {"boundary", "puncture", "orbifold"}


# ---------------------------------------------------------------------------
# Every finding of the surface and involution checks, pinned by (code, where)
# in report order on one malformed input each.


def _text(name: str) -> str:
    return fixture_path(name).read_text()


def _edit(name: str, *edits: tuple[str, str], append: str = "") -> str:
    text = _text(name)
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text + append


def _findings(text: str) -> list[tuple]:
    with pytest.raises(ValidationError) as exc:
        parse_surface_file(text)
    return [(d.code, d.where) for d in exc.value.diagnostics]


def test_unknown_ids_of_arc_bseg_and_polygon_side():
    text = _edit(
        "disc",
        ("arc a from=P1 to=P2", "arc a from=P1 to=Q"),
        ("bseg b2 from=P2 to=P1", "bseg b2 from=Q2 to=P1"),
        ("poly F2 sides=b:b2,a:a:+", "poly F2 sides=b:b2,a:z:+"),
    )
    assert _findings(text) == [
        (UNKNOWN_ID, ("a",)),
        (UNKNOWN_ID, ("b2",)),
        (UNKNOWN_ID, ("F2",)),
    ]


@pytest.mark.parametrize(
    "read", [classify_dissection, topology, quiver_from_dissection, triple_from_x_dissection]
)
def test_readers_of_a_surface_raise_its_findings(cylinders, read):
    # An arc ending at a point the surface does not have.
    base = cylinders[1]
    surface = dataclasses.replace(base, arcs=base.arcs + (Arc("zz", "nowhere", "B"),))
    with pytest.raises(ValidationError) as exc:
        read(surface)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(UNKNOWN_ID, ("zz",))]


def test_bseg_occurrences_are_counted():
    text = _edit("disc", ("poly F2 sides=b:b2,a:a:+", "poly F2 sides=b:b1,a:a:+"))
    assert _findings(text) == [(BSEG_OCCURRENCE, ("b1",)), (BSEG_OCCURRENCE, ("b2",))]


def test_duplicate_ids_are_bad_input():
    text = _edit("disc", append="point P1 kind=boundary\narc a from=P2 to=P1\n")
    assert _findings(text) == [(BAD_INPUT, ("P1",)), (BAD_INPUT, ("a",))]


def test_bseg_at_an_interior_point_is_bad_input():
    text = _edit("disc", ("point P2 kind=boundary", "point P2 kind=puncture"))
    assert _findings(text) == [(BAD_INPUT, ("b1",)), (BAD_INPUT, ("b2",))]


def test_a_point_of_unknown_kind_is_bad_input():
    # Every reader tells the three kinds apart by name, and the file format
    # has no word for another kind, so validate refuses it.
    disc = one_orbifold_disc(4)
    points = tuple(
        dataclasses.replace(p, kind="weird") if p.id == "X" else p for p in disc.points
    )
    surface = dataclasses.replace(disc, points=points)
    finding = (BAD_INPUT, "point 'X' has unknown kind 'weird'", ("X",))
    assert [(d.code, d.message, d.where) for d in validate(surface).diagnostics] == [finding]
    for read in (classify_dissection, double_cover, invariant_tuple):
        with pytest.raises(ValidationError) as exc:
            read(surface)
        assert [(d.code, d.message, d.where) for d in exc.value.diagnostics] == [finding]


def test_a_surface_with_no_polygon_is_bad_input(tmp_path, capsys):
    """A surface with no polygon has no cell to glue: ``validate`` and the
    ray-tuple oracle refuse it with one ``BAD_INPUT`` naming it, whatever
    else it lists, where ``topology`` read it as a connected surface of
    genus 1, and the CLI exits 2."""
    empty = make_surface("empty", [], [], [], [])
    stray = make_surface("stray", [MarkedPoint("p", BOUNDARY)], [], [], [])
    for surface in (empty, stray):
        finding = (BAD_INPUT, f"surface {surface.name!r} has no polygon", (surface.name,))
        for report in (validate(surface), check_surface(surface)):
            assert [(d.code, d.message, d.where) for d in report.diagnostics] == [finding]
        for read in (topology, boundary_components, classify_dissection, invariant_tuple):
            with pytest.raises(ValidationError) as exc:
                read(surface)
            assert [(d.code, d.message, d.where) for d in exc.value.diagnostics] == [finding]
    path = tmp_path / "empty.surf"
    path.write_text("surface empty\n")
    for command in ("validate", "invariants"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: [BAD_INPUT] at ('empty',) surface 'empty' has no polygon\n"


def test_occurrences_are_the_record_of_the_one_walk(cylinders, torus_with_involution):
    surfaces = [*cylinders.values(), torus_with_involution[0], one_orbifold_disc(6)]
    rng = random.Random(40)
    surfaces += [random_x_dissection(rng) for _ in range(50)]
    for surface in surfaces:
        arcs, bsegs = {}, {}
        for poly in surface.polygons:
            for i, side in enumerate(poly.sides):
                if side.is_arc:
                    arcs[(side.ref, side.direction)] = (poly.id, i)
                else:
                    bsegs[side.ref] = (poly.id, i)
        assert surface.occurrences == arcs
        assert surface.bseg_occurrence == bsegs
        assert surface.occurrences is surface._walk.occurrences
        assert surface.bseg_occurrence is surface._walk.bseg_occurrence


def test_sides_meeting_at_two_points_are_a_corner_mismatch():
    text = _edit("disc", ("arc a from=P1 to=P2", "arc a from=P2 to=P1"))
    assert _findings(text) == [
        (CORNER_MISMATCH, ("F1", 0)),
        (CORNER_MISMATCH, ("F1", 1)),
        (CORNER_MISMATCH, ("F2", 0)),
        (CORNER_MISMATCH, ("F2", 1)),
    ]


@pytest.mark.parametrize(
    "text, point",
    [
        # a boundary point with no boundary segment
        (_edit("disc", append="point P3 kind=boundary\n"), "P3"),
        # an orbifold point merged into B: B's rays are a chain and a cycle
        (
            _edit("cylinder1", ("point X1 kind=orbifold\n", ""), ("to=X1", "to=B")),
            "B",
        ),
        # an interior point with no arc end
        (_edit("disc", append="point Q kind=puncture\n"), "Q"),
        # two orbifold points merged into X1: its rays form two cycles
        (
            _edit("cylinder1", ("point X2 kind=orbifold\n", ""), ("to=X2", "to=X1")),
            "X1",
        ),
    ],
    ids=["boundary-segments", "boundary-chain", "interior-empty", "interior-cycle"],
)
def test_rotation_check_branches(text, point):
    assert _findings(text) == [(CORNER_MISMATCH, (point,))]


def test_orbifold_point_with_two_arc_ends_is_x_degree():
    text = "\n".join(
        [
            "surface xd",
            "point P1 kind=boundary",
            "point P2 kind=boundary",
            "point X kind=orbifold",
            "bseg b1 from=P1 to=P2",
            "bseg b2 from=P2 to=P1",
            "arc a from=P1 to=X",
            "arc c from=P2 to=X",
            "poly F1 sides=b:b1,a:c:+,a:a:-",
            "poly F2 sides=b:b2,a:a:+,a:c:-",
        ]
    )
    with pytest.raises(ValidationError) as exc:
        classify_dissection(parse_surface_file(text).surface)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(X_DEGREE, ("X",))]


def test_involution_that_is_not_of_order_two():
    sf = parse_surface_file(_text("torus"))
    cycle = {"Pb1": "Pb2", "Pb2": "Pt1", "Pt1": "Pb1", "Pt2": "Pt2"}
    report = validate_involution(sf.surface, dataclasses.replace(sf.involution, points=cycle))
    assert [(d.code, d.where) for d in report.diagnostics] == [(NOT_ORDER_TWO, ())] * 3


def test_involution_fixing_marked_points():
    text = _edit("torus", ("Pt1<->Pt2", "Pt1<->Pt1 Pt2<->Pt2"))
    assert _findings(text) == [
        (FIXED_MARKED_POINT, ("Pt1",)),
        (FIXED_MARKED_POINT, ("Pt2",)),
        *[(BAD_INVOLUTION, (a,)) for a in ("1+", "1-", "2", "3", "4+", "4-")],
        (ORIENTATION_REVERSED, ("Bt+",)),
        (ORIENTATION_REVERSED, ("Bt-",)),
    ]


def test_involution_fixing_polygons():
    sf = parse_surface_file(_text("torus"))
    polygons = {**sf.involution.polygons, "lowM": "lowM", "lowP": "lowP"}
    report = validate_involution(sf.surface, dataclasses.replace(sf.involution, polygons=polygons))
    assert [(d.code, d.where) for d in report.diagnostics] == [
        (FIXED_POLYGON, ("lowM",)),
        (FIXED_POLYGON, ("lowP",)),
    ]


def test_involution_fixing_an_arc_without_reversing_it():
    text = _edit("torus", ("2~rev", "2<->2"))
    assert _findings(text) == [
        (BAD_INVOLUTION, ("2",)),
        (UNREVERSED_FIXED_ARC, ("2",)),
        (BAD_INVOLUTION, ("lowM",)),
        (BAD_INVOLUTION, ("lowP",)),
    ]


def test_involution_onto_the_mirror_image_reverses_orientation(disc):
    """The disjoint union of the disc and its mirror image, each part sent
    onto the other: every polygon word maps onto the reversed image word."""

    def m(x: str) -> str:
        return x + "'"

    def swap(items) -> dict:
        return {**{x.id: m(x.id) for x in items}, **{m(x.id): x.id for x in items}}

    mirror = [
        Polygon(m(p.id), tuple(
            arc_side(m(s.ref), -s.direction) if s.is_arc else bseg_side(m(s.ref))
            for s in reversed(p.sides)
        ))
        for p in disc.polygons
    ]
    union = make_surface(
        "mirrored",
        list(disc.points) + [MarkedPoint(m(p.id), p.kind) for p in disc.points],
        list(disc.arcs) + [Arc(m(a.id), m(a.tail), m(a.head)) for a in disc.arcs],
        list(disc.bsegs) + [BoundarySegment(m(b.id), m(b.head), m(b.tail)) for b in disc.bsegs],
        list(disc.polygons) + mirror,
    )
    assert validate(union).ok
    inv = SurfaceInvolution(
        points=swap(disc.points), arcs=swap(disc.arcs), reversed_arcs=frozenset(),
        bsegs=swap(disc.bsegs), polygons=swap(disc.polygons),
    )
    found = [(d.code, d.where) for d in validate_involution(union, inv).diagnostics]
    polygons = [(ORIENTATION_REVERSED, (p.id,)) for p in union.polygons]
    assert found[-len(polygons):] == polygons
    assert {code for code, _ in found} == {ORIENTATION_REVERSED}


def test_involution_check_is_kept_until_a_map_changes(count_calls):
    sf = parse_surface_file(_text("torus"))
    checks = count_calls("skewgentle.surface", "_check_involution")
    inv = dataclasses.replace(sf.involution, polygons=dict(sf.involution.polygons))
    assert validate_involution(sf.surface, inv).ok
    assert validate_involution(sf.surface, inv).ok
    assert len(checks) == 1
    inv.polygons["lowM"] = "lowM"
    inv.polygons["lowP"] = "lowP"
    assert validate_involution(sf.surface, inv).codes() == [FIXED_POLYGON, FIXED_POLYGON]
    assert len(checks) == 2
