"""Ready-made dissections, involutions and presentations.

These are the worked examples the package documentation and test-suite
refer to: four dissected cylinders with two orbifold points each, small
dissected discs, and a two-holed torus whose quotient by an involution
is the first cylinder.  The cylinders, the two-marked disc and the torus
are read from the bundled ``.surf`` files, so each has one source.
"""
from __future__ import annotations

from importlib import resources

from .diagnostics import BAD_INPUT, _require_int, error
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
    SurfaceFile,
    SurfaceInvolution,
    _require_valid,
    arc_side,
    bseg_side,
    make_surface,
    parse_surface_file,
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


def _load(name: str) -> SurfaceFile:
    return parse_surface_file(fixture_path(name).read_text(encoding="utf-8"))


def _checked(surface: DissectedSurface) -> DissectedSurface:
    _require_valid(surface)
    return surface


def two_orbifold_cylinder(variant: int = 1) -> DissectedSurface:
    """A cylinder with one marked point per boundary circle and two
    orbifold points, dissected by four arcs (the bundled file
    ``cylinder<variant>.surf``).  The four variants differ in which
    boundary circle the orbifold arcs and the second cross-arc hang from;
    all four give skew-gentle presentations with the same vertex count.
    Any other ``variant`` raises ``BAD_INPUT``."""
    _require_int("variant", variant, 1, 4)
    return _load(f"cylinder{variant}").surface


def two_marked_disc() -> DissectedSurface:
    """A disc with two boundary marked points split into two bigons by a
    single arc (the bundled file ``disc.surf``)."""
    return _load("disc").surface


def one_orbifold_disc(marked: int = 4) -> DissectedSurface:
    """A disc with ``marked`` boundary points and one orbifold point,
    dissected by a fan: one arc from the orbifold point to the boundary
    and a chain of boundary-to-boundary arcs.  ``marked`` must be an
    ``int`` of 2 or more, or ``BAD_INPUT`` is raised."""
    _require_int("marked", marked, 2)
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
    quotient is ``two_orbifold_cylinder(1)`` (the bundled file
    ``torus.surf``)."""
    sf = _load("torus")
    return sf.surface, sf.involution


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
    return glue_puzzle(pieces, matchings)


def fixture_path(name: str):
    """Path of the bundled data file ``<name>.surf`` (for the CLI and
    tests); ``BAD_INPUT`` when no bundled file has that name."""
    data = resources.files("skewgentle") / "data"
    if name not in [p.name[:-5] for p in data.iterdir() if p.name.endswith(".surf")]:
        raise error(BAD_INPUT, f"no bundled data file is named {name!r}", (name,))
    return data / f"{name}.surf"
