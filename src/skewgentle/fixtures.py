"""Ready-made dissections, involutions and presentations.

These are the worked examples the package documentation and test-suite
refer to: four dissected cylinders with two orbifold points each, small
dissected discs, and a two-holed torus whose quotient by an involution
is the first cylinder.
"""
from __future__ import annotations

from importlib import resources

from .diagnostics import BAD_INPUT, BAD_INVOLUTION, error, raise_on_error
from .presentations import (
    Arrow,
    Presentation,
    glue_puzzle,
    linear_piece,
    make_presentation,
    special_piece,
)
from .surface import (
    BOUNDARY,
    ORBIFOLD,
    Arc,
    BoundarySegment,
    DissectedSurface,
    MarkedPoint,
    Polygon,
    SurfaceInvolution,
    arc_side,
    bseg_side,
    complete_involution,
    make_surface,
    validate,
)

__all__ = [
    "fixture_path",
    "one_orbifold_disc",
    "special_chain_triple",
    "two_hole_torus_pair",
    "two_hole_torus_surface",
    "two_marked_disc",
    "two_orbifold_cylinder",
    "two_orbifold_disc",
]


def _checked(surface: DissectedSurface) -> DissectedSurface:
    raise_on_error(validate(surface))
    return surface


def two_orbifold_cylinder(variant: int = 1) -> DissectedSurface:
    """A cylinder with one marked point per boundary circle and two
    orbifold points, dissected by four arcs.  The four variants differ in
    which boundary circle the orbifold arcs and the second cross-arc hang
    from; all four give skew-gentle presentations with the same vertex
    count."""
    if variant not in (1, 2, 3, 4):
        raise ValueError(f"variant must be 1..4, got {variant}")
    points = [
        MarkedPoint("B", BOUNDARY),
        MarkedPoint("T", BOUNDARY),
        MarkedPoint("X1", ORBIFOLD),
        MarkedPoint("X2", ORBIFOLD),
    ]
    bsegs = [BoundarySegment("b_bot", "B", "B"), BoundarySegment("b_top", "T", "T")]
    ends = {
        1: {"2": ("T", "X2"), "3": ("T", "X1")},
        2: {"2": ("T", "X2"), "3": ("B", "X1")},
        3: {"2": ("T", "X2"), "3": ("B", "X1")},
        4: {"2": ("B", "X2"), "3": ("B", "X1")},
    }[variant]
    arcs = [
        Arc("1", "B", "T"),
        Arc("2", *ends["2"]),
        Arc("3", *ends["3"]),
        Arc("4", "B", "T"),
    ]
    words = {
        1: (
            ["b_bot", "1+", "2+", "2-", "3+", "3-", "4-"],
            ["b_top", "1-", "4+"],
        ),
        2: (
            ["b_bot", "1+", "2+", "2-", "4-", "3+", "3-"],
            ["b_top", "1-", "4+"],
        ),
        3: (
            ["b_bot", "1+", "2+", "2-", "4-"],
            ["b_top", "1-", "3+", "3-", "4+"],
        ),
        4: (
            ["b_bot", "1+", "4-", "2+", "2-"],
            ["b_top", "1-", "3+", "3-", "4+"],
        ),
    }[variant]

    def side(token: str):
        if token.startswith("b_"):
            return bseg_side(token)
        return arc_side(token[:-1], 1 if token[-1] == "+" else -1)

    polygons = [
        Polygon("lower", tuple(side(t) for t in words[0])),
        Polygon("upper", tuple(side(t) for t in words[1])),
    ]
    return _checked(
        make_surface(f"cylinder{variant}", points, arcs, bsegs, polygons)
    )


def two_marked_disc() -> DissectedSurface:
    """A disc with two boundary marked points split into two bigons by a
    single arc."""
    points = [MarkedPoint("P1", BOUNDARY), MarkedPoint("P2", BOUNDARY)]
    bsegs = [BoundarySegment("b1", "P1", "P2"), BoundarySegment("b2", "P2", "P1")]
    arcs = [Arc("a", "P1", "P2")]
    polygons = [
        Polygon("F1", (bseg_side("b1"), arc_side("a", -1))),
        Polygon("F2", (bseg_side("b2"), arc_side("a", 1))),
    ]
    return _checked(make_surface("disc", points, arcs, bsegs, polygons))


def one_orbifold_disc(marked: int = 4) -> DissectedSurface:
    """A disc with ``marked`` boundary points and one orbifold point,
    dissected by a fan: one arc from the orbifold point to the boundary
    and a chain of boundary-to-boundary arcs."""
    if marked < 2:
        raise ValueError("need at least two boundary marked points")
    n = marked
    points = [MarkedPoint(f"P{i}", BOUNDARY) for i in range(1, n + 1)]
    points.append(MarkedPoint("X", ORBIFOLD))
    bsegs = [
        BoundarySegment(f"b{i}", f"P{i}", f"P{i % n + 1}") for i in range(1, n + 1)
    ]
    arcs = [Arc("1", "X", "P1")]
    arcs += [Arc(str(i), f"P{i - 1}", f"P{i}") for i in range(2, n + 1)]
    polygons = [
        Polygon(f"F{i}", (bseg_side(f"b{i}"), arc_side(str(i + 1), -1)))
        for i in range(1, n)
    ]
    big = [bseg_side(f"b{n}"), arc_side("1", -1), arc_side("1", 1)]
    big += [arc_side(str(i), 1) for i in range(2, n + 1)]
    polygons.append(Polygon("big", tuple(big)))
    return _checked(make_surface(f"disc_x{n}", points, arcs, bsegs, polygons))


def two_orbifold_disc() -> DissectedSurface:
    """A disc with four boundary marked points and two orbifold points:
    the fan dissection of :func:`one_orbifold_disc` plus a second slit
    arc hanging into the big polygon."""
    base = one_orbifold_disc(4)
    points = [p for p in base.points if p.id != "X"]
    points += [MarkedPoint("X1", ORBIFOLD), MarkedPoint("X2", ORBIFOLD)]
    arcs = [Arc("1", "X1", "P1") if a.id == "1" else a for a in base.arcs]
    arcs.append(Arc("5", "X2", "P4"))
    polygons = []
    for poly in base.polygons:
        if poly.id != "big":
            polygons.append(poly)
            continue
        word = poly.sides + (arc_side("5", -1), arc_side("5", 1))
        polygons.append(Polygon("big", word))
    return _checked(
        make_surface("disc_xx", points, arcs, list(base.bsegs), polygons)
    )


def two_hole_torus_surface() -> tuple[DissectedSurface, SurfaceInvolution]:
    """A genus-one surface with two boundary circles (two marked points
    each) dissected by six arcs, and the sheet-swapping involution whose
    quotient is ``two_orbifold_cylinder(1)``."""
    points = [
        MarkedPoint("Pb1", BOUNDARY),
        MarkedPoint("Pb2", BOUNDARY),
        MarkedPoint("Pt1", BOUNDARY),
        MarkedPoint("Pt2", BOUNDARY),
    ]
    bsegs = [
        BoundarySegment("Bb+", "Pb1", "Pb2"),
        BoundarySegment("Bb-", "Pb2", "Pb1"),
        BoundarySegment("Bt+", "Pt1", "Pt2"),
        BoundarySegment("Bt-", "Pt2", "Pt1"),
    ]
    arcs = [
        Arc("1+", "Pb2", "Pt2"),
        Arc("1-", "Pb1", "Pt1"),
        Arc("2", "Pt2", "Pt1"),
        Arc("3", "Pt1", "Pt2"),
        Arc("4+", "Pb1", "Pt2"),
        Arc("4-", "Pb2", "Pt1"),
    ]
    polygons = [
        Polygon(
            "lowP",
            (
                bseg_side("Bb+"),
                arc_side("1+", 1),
                arc_side("2", 1),
                arc_side("3", 1),
                arc_side("4+", -1),
            ),
        ),
        Polygon(
            "lowM",
            (
                bseg_side("Bb-"),
                arc_side("1-", 1),
                arc_side("2", -1),
                arc_side("3", -1),
                arc_side("4-", -1),
            ),
        ),
        Polygon(
            "upP", (bseg_side("Bt+"), arc_side("1+", -1), arc_side("4-", 1))
        ),
        Polygon(
            "upM", (bseg_side("Bt-"), arc_side("1-", -1), arc_side("4+", 1))
        ),
    ]
    surface = _checked(
        make_surface("torus", points, arcs, bsegs, polygons)
    )
    inv, report = complete_involution(
        surface,
        point_map={"Pb1": "Pb2", "Pb2": "Pb1", "Pt1": "Pt2", "Pt2": "Pt1"},
        arc_map={
            "1+": "1-",
            "1-": "1+",
            "2": "2",
            "3": "3",
            "4+": "4-",
            "4-": "4+",
        },
        reversed_arcs=["2", "3"],
    )
    raise_on_error(report)
    if inv is None:
        raise error(BAD_INVOLUTION, "the torus involution could not be completed", ("torus",))
    return surface, inv


def two_hole_torus_pair() -> tuple[Presentation, dict[str, str]]:
    """The gentle pair presented by :func:`two_hole_torus_surface` (a
    20-dimensional algebra) together with the label involution induced by
    the surface involution."""
    vertices = ["1+", "1-", "2", "3", "4+", "4-"]
    arrows = [
        Arrow("a+", "1+", "2"),
        Arrow("a-", "1-", "2"),
        Arrow("b+", "2", "3"),
        Arrow("b-", "2", "3"),
        Arrow("c+", "3", "4+"),
        Arrow("c-", "3", "4-"),
        Arrow("d+", "1+", "4-"),
        Arrow("d-", "1-", "4+"),
    ]
    relations = [
        (("a+", "b+"),),
        (("a-", "b-"),),
        (("b+", "c+"),),
        (("b-", "c-"),),
    ]
    pres = make_presentation(vertices, arrows, relations)
    swap = {}
    for x in vertices + [a.id for a in arrows]:
        if x.endswith("+"):
            swap[x] = x[:-1] + "-"
        elif x.endswith("-"):
            swap[x] = x[:-1] + "+"
        else:
            swap[x] = x
    return pres, swap


def special_chain_triple() -> Presentation:
    """A five-vertex chain with special loops at the three middle
    vertices; its split presentation has 12 arrows and 8 two-term
    relations."""
    pieces = [linear_piece(5, "c")]
    matchings = []
    for k in (2, 3, 4):
        pieces.append(special_piece(f"s{k}"))
        matchings.append((f"c.{k}", f"s{k}.v"))
    glued, report = glue_puzzle(pieces, matchings)
    raise_on_error(report)
    if glued is None:
        raise error(BAD_INPUT, "the special chain pieces did not glue", tuple(matchings))
    return glued


def fixture_path(name: str):
    """Path of a bundled ``.surf`` data file (for the CLI and tests)."""
    return resources.files("skewgentle") / "data" / f"{name}.surf"
