"""Combinatorial model of dissected oriented surfaces with marked points.

A surface is encoded by a finite set of polygons glued along arcs.  Each
polygon is a counterclockwise cyclic word of sides; exactly one side is a
boundary segment and the rest are directed occurrences of arcs.  Every arc
occurs exactly twice with opposite directions, every boundary segment exactly
once.  Marked points come in three kinds: ``boundary`` points (on the
boundary), ``puncture`` points (interior), and ``orbifold`` points (interior,
carrying a local half-turn symmetry; drawn as a cross).

The rotation system around every point is recovered from the corners of the
polygons; :func:`validate` checks that it is globally consistent, and
:func:`topology` computes Euler characteristic, genus and the boundary
structure.  The module also models half-turn symmetries of a surface
(:class:`SurfaceInvolution`) and combinatorial curves crossing the arcs
(:class:`CombinatorialCurve`), which later modules use for double covers,
quotients and winding numbers.

Surfaces are read and written as plain text by :func:`parse_surface_file`
and :func:`format_surface_file`.  The format has one record per line;
blank lines and ``#`` comments are ignored::

    surface NAME
    point ID kind=boundary|puncture|orbifold
    bseg ID from=POINT to=POINT
    arc ID from=POINT to=POINT
    poly ID sides=b:BSEG,a:ARC:+,a:ARC:-
    involution points A<->B ... arcs C<->D E~rev ...
    curve ID closed|open passages=(POLY,ENTRY,EXIT,left|right);...

Polygon words are counterclockwise with the interior on the left; the
printer emits the canonical form (boundary segment first, records sorted
by id), and parsing that output reproduces it byte for byte.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .diagnostics import (
    ARC_OCCURRENCE,
    BAD_EULER,
    BAD_INPUT,
    BAD_INVOLUTION,
    BSEG_OCCURRENCE,
    CORNER_MISMATCH,
    FIXED_MARKED_POINT,
    FIXED_POLYGON,
    INVALID_CURVE,
    MULTIPLE_BSEG,
    NONORIENTABLE_GLUING,
    NOT_ORDER_TWO,
    ORIENTATION_REVERSED,
    SYNTAX,
    UNKNOWN_ID,
    UNREVERSED_FIXED_ARC,
    X_DEGREE,
    Diagnostic,
    Report,
    ValidationError,
    error,
    raise_on_error,
)

BOUNDARY = "boundary"
PUNCTURE = "puncture"
ORBIFOLD = "orbifold"
POINT_KINDS = (BOUNDARY, PUNCTURE, ORBIFOLD)


@dataclass(frozen=True)
class MarkedPoint:
    id: str
    kind: str  # one of POINT_KINDS


@dataclass(frozen=True)
class Arc:
    """An arc of the dissection, oriented from ``tail`` to ``head``."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class BoundarySegment:
    """A boundary segment, oriented so the surface lies on its left."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Side:
    """One side of a polygon: an arc occurrence or a boundary segment.

    ``direction`` is ``+1`` when the side traverses the arc from tail to
    head, ``-1`` for the reverse; boundary segments always use ``+1``.
    """

    kind: str  # "a" or "b"
    ref: str
    direction: int = 1

    def __post_init__(self):
        if self.kind not in ("a", "b"):
            raise ValueError(f"bad side kind {self.kind!r}")
        if self.kind == "b" and self.direction != 1:
            raise ValueError("boundary segment sides are always forward")
        if self.direction not in (1, -1):
            raise ValueError(f"bad direction {self.direction!r}")

    @property
    def is_arc(self) -> bool:
        return self.kind == "a"

    def reversed(self) -> "Side":
        if self.kind == "b":
            raise ValueError("cannot reverse a boundary segment side")
        return Side("a", self.ref, -self.direction)


def arc_side(ref: str, direction: int = 1) -> Side:
    return Side("a", ref, direction)


def bseg_side(ref: str) -> Side:
    return Side("b", ref, 1)


@dataclass(frozen=True)
class Polygon:
    """A counterclockwise cyclic word of sides with exactly one bseg.

    Words are stored rotated so the boundary segment sits at slot 0; the
    :func:`make_surface` helper performs this normalization.
    """

    id: str
    sides: tuple[Side, ...]

    def bseg_slots(self) -> list[int]:
        return [i for i, s in enumerate(self.sides) if s.kind == "b"]


# A ray is one end of an arc or boundary segment sticking out of a point:
# ("a"|"b", id, "tail"|"head").
Ray = tuple[str, str, str]


def head_ray(side: Side) -> Ray:
    """The ray at the endpoint where a traversal of ``side`` arrives."""
    if side.kind == "b" or side.direction == 1:
        return (side.kind, side.ref, "head")
    return ("a", side.ref, "tail")


def tail_ray(side: Side) -> Ray:
    """The ray at the endpoint where a traversal of ``side`` starts."""
    if side.kind == "b" or side.direction == 1:
        return (side.kind, side.ref, "tail")
    return ("a", side.ref, "head")


@dataclass(frozen=True)
class DissectedSurface:
    name: str
    points: tuple[MarkedPoint, ...]
    arcs: tuple[Arc, ...]
    bsegs: tuple[BoundarySegment, ...]
    polygons: tuple[Polygon, ...]

    # ----- lookups -------------------------------------------------------

    @cached_property
    def point_by_id(self) -> dict[str, MarkedPoint]:
        return {p.id: p for p in self.points}

    @cached_property
    def arc_by_id(self) -> dict[str, Arc]:
        return {a.id: a for a in self.arcs}

    @cached_property
    def bseg_by_id(self) -> dict[str, BoundarySegment]:
        return {b.id: b for b in self.bsegs}

    @cached_property
    def polygon_by_id(self) -> dict[str, Polygon]:
        return {p.id: p for p in self.polygons}

    def ray_point(self, ray: Ray) -> str:
        kind, ref, end = ray
        cell = self.arc_by_id[ref] if kind == "a" else self.bseg_by_id[ref]
        return cell.tail if end == "tail" else cell.head

    @cached_property
    def occurrences(self) -> dict[tuple[str, int], tuple[str, int]]:
        """Directed arc occurrence -> (polygon id, slot)."""
        occ: dict[tuple[str, int], tuple[str, int]] = {}
        for poly in self.polygons:
            for i, s in enumerate(poly.sides):
                if s.is_arc:
                    occ[(s.ref, s.direction)] = (poly.id, i)
        return occ

    @cached_property
    def bseg_occurrence(self) -> dict[str, tuple[str, int]]:
        occ: dict[str, tuple[str, int]] = {}
        for poly in self.polygons:
            for i, s in enumerate(poly.sides):
                if not s.is_arc:
                    occ[s.ref] = (poly.id, i)
        return occ

    @cached_property
    def ccw_next_ray(self) -> dict[Ray, Ray]:
        """Counterclockwise successor of each ray around its point.

        For the corner between consecutive sides ``s_in, s_out`` of a
        polygon, the outgoing ray of ``s_out`` is immediately followed,
        counterclockwise, by the incoming ray of ``s_in``.
        """
        succ: dict[Ray, Ray] = {}
        for poly in self.polygons:
            n = len(poly.sides)
            for i in range(n):
                s_in = poly.sides[i]
                s_out = poly.sides[(i + 1) % n]
                succ[tail_ray(s_out)] = head_ray(s_in)
        return succ

    @cached_property
    def rays_at_point(self) -> dict[str, list[Ray]]:
        rays: dict[str, list[Ray]] = {p.id: [] for p in self.points}
        for a in self.arcs:
            rays[a.tail].append(("a", a.id, "tail"))
            rays[a.head].append(("a", a.id, "head"))
        for b in self.bsegs:
            rays[b.tail].append(("b", b.id, "tail"))
            rays[b.head].append(("b", b.id, "head"))
        return rays

    @cached_property
    def _findings(self) -> tuple[Diagnostic, ...]:
        return tuple(_check_surface(self).diagnostics)

    def arc_ray_count(self, point_id: str) -> int:
        return sum(1 for r in self.rays_at_point[point_id] if r[0] == "a")


def make_surface(
    name: str,
    points: Iterable[MarkedPoint],
    arcs: Iterable[Arc],
    bsegs: Iterable[BoundarySegment],
    polygons: Iterable[Polygon],
) -> DissectedSurface:
    """Build a surface, rotating each polygon word so its bseg leads.

    Polygons without exactly one boundary segment are kept as given and
    reported by :func:`validate`.
    """
    normalized = []
    for poly in polygons:
        slots = poly.bseg_slots()
        if len(slots) == 1 and slots[0] != 0:
            k = slots[0]
            poly = Polygon(poly.id, poly.sides[k:] + poly.sides[:k])
        normalized.append(poly)
    return DissectedSurface(
        name=name,
        points=tuple(points),
        arcs=tuple(arcs),
        bsegs=tuple(bsegs),
        polygons=tuple(normalized),
    )


# ---------------------------------------------------------------------------
# Validation


def validate(surface: DissectedSurface) -> Report:
    """Check that the polygon gluing defines an oriented dissected surface.

    The findings are kept on the surface; each call returns a fresh report."""
    return Report(list(surface._findings))


def _check_surface(surface: DissectedSurface) -> Report:
    report = Report()
    seen: set[str] = set()
    for category, items in (
        ("point", surface.points),
        ("arc", surface.arcs),
        ("bseg", surface.bsegs),
        ("polygon", surface.polygons),
    ):
        ids = [x.id for x in items]
        for i in ids:
            key = f"{category}:{i}"
            if key in seen:
                report.add(BAD_INPUT, f"duplicate {category} id {i!r}", (i,))
            seen.add(key)

    point_ids = {p.id for p in surface.points}
    for a in surface.arcs:
        for end in (a.tail, a.head):
            if end not in point_ids:
                report.add(UNKNOWN_ID, f"arc {a.id!r} endpoint {end!r} unknown", (a.id,))
    for b in surface.bsegs:
        for end in (b.tail, b.head):
            if end not in point_ids:
                report.add(UNKNOWN_ID, f"bseg {b.id!r} endpoint {end!r} unknown", (b.id,))
        for end in (b.tail, b.head):
            if end in point_ids and surface.point_by_id[end].kind != BOUNDARY:
                report.add(
                    BAD_INPUT,
                    f"bseg {b.id!r} endpoint {end!r} is not a boundary point",
                    (b.id,),
                )
    arc_ids = {a.id for a in surface.arcs}
    bseg_ids = {b.id for b in surface.bsegs}
    for poly in surface.polygons:
        for s in poly.sides:
            pool = arc_ids if s.is_arc else bseg_ids
            if s.ref not in pool:
                report.add(UNKNOWN_ID, f"polygon {poly.id!r} refers to unknown side {s.ref!r}", (poly.id,))
    if not report.ok:
        return report

    # Occurrence counts.
    arc_occ: dict[str, list[int]] = {a.id: [] for a in surface.arcs}
    bseg_count: dict[str, int] = {b.id: 0 for b in surface.bsegs}
    for poly in surface.polygons:
        nb = 0
        for s in poly.sides:
            if s.is_arc:
                arc_occ[s.ref].append(s.direction)
            else:
                bseg_count[s.ref] += 1
                nb += 1
        if nb != 1:
            report.add(
                MULTIPLE_BSEG,
                f"polygon {poly.id!r} has {nb} boundary segments (need exactly 1)",
                (poly.id,),
            )
    for aid, dirs in arc_occ.items():
        if len(dirs) != 2:
            report.add(ARC_OCCURRENCE, f"arc {aid!r} occurs {len(dirs)} times (need 2)", (aid,))
        elif dirs[0] == dirs[1]:
            report.add(
                NONORIENTABLE_GLUING,
                f"arc {aid!r} occurs twice with the same direction",
                (aid,),
            )
    for bid, cnt in bseg_count.items():
        if cnt != 1:
            report.add(BSEG_OCCURRENCE, f"bseg {bid!r} occurs {cnt} times (need 1)", (bid,))
    if not report.ok:
        return report

    # Corner consistency: consecutive sides of a polygon meet at one point.
    for poly in surface.polygons:
        n = len(poly.sides)
        for i in range(n):
            s_in = poly.sides[i]
            s_out = poly.sides[(i + 1) % n]
            p_in = surface.ray_point(head_ray(s_in))
            p_out = surface.ray_point(tail_ray(s_out))
            if p_in != p_out:
                report.add(
                    CORNER_MISMATCH,
                    f"polygon {poly.id!r} corner {i}: sides meet at {p_in!r} vs {p_out!r}",
                    (poly.id, i),
                )
    if not report.ok:
        return report

    # Rotation structure at every point.
    succ = surface.ccw_next_ray
    for point in surface.points:
        rays = surface.rays_at_point[point.id]
        if point.kind == BOUNDARY:
            outs = [r for r in rays if r[0] == "b" and r[2] == "tail"]
            ins = [r for r in rays if r[0] == "b" and r[2] == "head"]
            if len(outs) != 1 or len(ins) != 1:
                report.add(
                    CORNER_MISMATCH,
                    f"boundary point {point.id!r} has {len(outs)} outgoing and "
                    f"{len(ins)} incoming boundary segments (need 1 and 1)",
                    (point.id,),
                )
                continue
            chain = [outs[0]]
            ok = True
            while chain[-1] != ins[0]:
                nxt = succ.get(chain[-1])
                if nxt is None or nxt in chain or len(chain) > len(rays):
                    ok = False
                    break
                chain.append(nxt)
            if not ok or set(chain) != set(rays):
                report.add(
                    CORNER_MISMATCH,
                    f"rays at boundary point {point.id!r} do not form a single chain",
                    (point.id,),
                )
        else:
            if not rays:
                report.add(
                    CORNER_MISMATCH,
                    f"interior point {point.id!r} has no incident arc ends",
                    (point.id,),
                )
                continue
            if any(r[0] == "b" for r in rays):
                report.add(
                    CORNER_MISMATCH,
                    f"interior point {point.id!r} touches a boundary segment",
                    (point.id,),
                )
                continue
            start = rays[0]
            chain = [start]
            ok = True
            while True:
                nxt = succ.get(chain[-1])
                if nxt is None or (nxt in chain and nxt != start) or len(chain) > len(rays):
                    ok = False
                    break
                if nxt == start:
                    break
                chain.append(nxt)
            if not ok or set(chain) != set(rays):
                report.add(
                    CORNER_MISMATCH,
                    f"rays at interior point {point.id!r} do not form a single cycle",
                    (point.id,),
                )
    return report


@dataclass(frozen=True)
class Classification:
    kind: Optional[str]  # "bullet" (no orbifold points) or "x"
    report: Report


def classify_dissection(surface: DissectedSurface) -> Classification:
    """Decide whether a valid surface is a plain or an orbifold dissection.

    A plain ("bullet") dissection has no orbifold points.  An orbifold
    ("x") dissection requires every orbifold point to carry exactly one
    incident arc end; violations are reported as ``X_DEGREE``.
    """
    report = Report()
    orbifold = [p for p in surface.points if p.kind == ORBIFOLD]
    for p in orbifold:
        deg = surface.arc_ray_count(p.id)
        if deg != 1:
            report.add(
                X_DEGREE,
                f"orbifold point {p.id!r} has {deg} incident arc ends (need 1)",
                (p.id,),
            )
    if not report.ok:
        return Classification(None, report)
    return Classification("x" if orbifold else "bullet", report)


# ---------------------------------------------------------------------------
# Topology


@dataclass(frozen=True)
class BoundaryComponent:
    """A boundary circle: its segments and marked points in cyclic order."""

    bsegs: tuple[str, ...]
    marked: tuple[str, ...]


@dataclass(frozen=True)
class ComponentTopology:
    euler_char: int
    genus: int
    boundary: tuple[BoundaryComponent, ...]
    punctures: tuple[str, ...]
    orbifold_points: tuple[str, ...]


@dataclass(frozen=True)
class Topology:
    euler_char: int
    connected: bool
    genus: Optional[int]  # None when disconnected; see components
    boundary: tuple[BoundaryComponent, ...]
    punctures: tuple[str, ...]
    orbifold_points: tuple[str, ...]
    components: tuple[ComponentTopology, ...]


def boundary_components(surface: DissectedSurface) -> list[BoundaryComponent]:
    out_bseg: dict[str, str] = {}
    for b in surface.bsegs:
        out_bseg[b.tail] = b.id
    seen: set[str] = set()
    comps = []
    for b in sorted(surface.bsegs, key=lambda x: x.id):
        if b.id in seen:
            continue
        cyc = [b.id]
        seen.add(b.id)
        cur = b
        while True:
            nxt_id = out_bseg[cur.head]
            if nxt_id == cyc[0]:
                break
            cyc.append(nxt_id)
            seen.add(nxt_id)
            cur = surface.bseg_by_id[nxt_id]
        marked = tuple(surface.bseg_by_id[x].tail for x in cyc)
        comps.append(BoundaryComponent(tuple(cyc), marked))
    return comps


def _component_labels(surface: DissectedSurface) -> dict[str, int]:
    """Connected-component label for every point id."""
    parent: dict[str, str] = {p.id: p.id for p in surface.points}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a in surface.arcs:
        union(a.tail, a.head)
    for b in surface.bsegs:
        union(b.tail, b.head)
    for poly in surface.polygons:
        pts = set()
        for i, s in enumerate(poly.sides):
            pts.add(surface.ray_point(tail_ray(s)))
        pts = sorted(pts)
        for p in pts[1:]:
            union(pts[0], p)
    roots = sorted({find(p.id) for p in surface.points})
    index = {r: i for i, r in enumerate(roots)}
    return {p.id: index[find(p.id)] for p in surface.points}


def topology(surface: DissectedSurface) -> Topology:
    """Euler characteristic, genus and boundary data of a valid surface."""
    labels = _component_labels(surface)
    ncomp = (max(labels.values()) + 1) if labels else 1
    bcomps = boundary_components(surface)

    def comp_of_boundary(bc: BoundaryComponent) -> int:
        return labels[surface.bseg_by_id[bc.bsegs[0]].tail]

    comps = []
    for c in range(ncomp):
        pts = [p for p in surface.points if labels[p.id] == c]
        arcs = [a for a in surface.arcs if labels[a.tail] == c]
        bsegs = [b for b in surface.bsegs if labels[b.tail] == c]
        polys = [
            poly
            for poly in surface.polygons
            if labels[surface.ray_point(tail_ray(poly.sides[0]))] == c
        ]
        chi = len(pts) - (len(arcs) + len(bsegs)) + len(polys)
        bdry = tuple(bc for bc in bcomps if comp_of_boundary(bc) == c)
        twice_genus = 2 - chi - len(bdry)
        if twice_genus < 0 or twice_genus % 2 != 0:
            raise error(
                BAD_EULER,
                f"component {c}: euler characteristic {chi} with "
                f"{len(bdry)} boundary circles gives no valid genus",
            )
        comps.append(
            ComponentTopology(
                euler_char=chi,
                genus=twice_genus // 2,
                boundary=bdry,
                punctures=tuple(sorted(p.id for p in pts if p.kind == PUNCTURE)),
                orbifold_points=tuple(sorted(p.id for p in pts if p.kind == ORBIFOLD)),
            )
        )
    total_chi = sum(c.euler_char for c in comps)
    return Topology(
        euler_char=total_chi,
        connected=ncomp == 1,
        genus=comps[0].genus if ncomp == 1 else None,
        boundary=tuple(bcomps),
        punctures=tuple(sorted(p.id for p in surface.points if p.kind == PUNCTURE)),
        orbifold_points=tuple(
            sorted(p.id for p in surface.points if p.kind == ORBIFOLD)
        ),
        components=tuple(comps),
    )


# ---------------------------------------------------------------------------
# Involutions


@dataclass(frozen=True)
class SurfaceInvolution:
    """A half-turn symmetry: permutations of every cell category.

    ``reversed_arcs`` lists the arcs whose image traversal is reversed
    (orientation of the arc flipped); in particular every fixed arc must be
    reversed in place.
    """

    points: Mapping[str, str]
    arcs: Mapping[str, str]
    reversed_arcs: frozenset
    bsegs: Mapping[str, str]
    polygons: Mapping[str, str]

    def side_image(self, side: Side) -> Side:
        if side.kind == "b":
            return bseg_side(self.bsegs[side.ref])
        d = side.direction
        if side.ref in self.reversed_arcs:
            d = -d
        return arc_side(self.arcs[side.ref], d)


def complete_involution(
    surface: DissectedSurface,
    point_map: Mapping[str, str],
    arc_map: Mapping[str, str],
    reversed_arcs: Iterable[str],
) -> tuple[Optional[SurfaceInvolution], Report]:
    """Derive the bseg and polygon permutations from point and arc data."""
    report = Report()
    reversed_arcs = frozenset(reversed_arcs)
    partial = SurfaceInvolution(
        points=dict(point_map),
        arcs=dict(arc_map),
        reversed_arcs=reversed_arcs,
        bsegs={},
        polygons={},
    )
    poly_map: dict[str, str] = {}
    bseg_map: dict[str, str] = {}
    for poly in surface.polygons:
        arc_sides = [s for s in poly.sides if s.is_arc]
        if arc_sides:
            try:
                img = partial.side_image(arc_sides[0])
            except KeyError as exc:
                report.add(BAD_INVOLUTION, f"arc map misses {exc}", (poly.id,))
                continue
            loc = surface.occurrences.get((img.ref, img.direction))
            if loc is None:
                report.add(
                    BAD_INVOLUTION,
                    f"image side of polygon {poly.id!r} not found in any polygon",
                    (poly.id,),
                )
                continue
            poly_map[poly.id] = loc[0]
        else:
            b = surface.bseg_by_id[poly.sides[0].ref]
            try:
                pt, ph = point_map[b.tail], point_map[b.head]
            except KeyError as exc:
                report.add(BAD_INVOLUTION, f"point map misses {exc}", (poly.id,))
                continue
            cands = [x for x in surface.bsegs if x.tail == pt and x.head == ph]
            if len(cands) != 1:
                report.add(
                    BAD_INVOLUTION,
                    f"cannot identify image of bare polygon {poly.id!r}",
                    (poly.id,),
                )
                continue
            poly_map[poly.id] = surface.bseg_occurrence[cands[0].id][0]
    if not report.ok:
        return None, report
    for poly in surface.polygons:
        img_poly = surface.polygon_by_id[poly_map[poly.id]]
        own_b = next(s.ref for s in poly.sides if not s.is_arc)
        img_b = next(s.ref for s in img_poly.sides if not s.is_arc)
        bseg_map[own_b] = img_b
    return (
        SurfaceInvolution(
            points=dict(point_map),
            arcs=dict(arc_map),
            reversed_arcs=reversed_arcs,
            bsegs=bseg_map,
            polygons=poly_map,
        ),
        report,
    )


def validate_involution(
    surface: DissectedSurface, inv: SurfaceInvolution
) -> tuple[Report, list[str]]:
    """Check a half-turn symmetry; return the report and the fixed arcs.

    Requirements: every map is an order-two permutation of the matching id
    set, arc endpoints transform consistently (with reversal flags), no
    marked point / puncture / bseg / polygon is fixed, every fixed arc is
    reversed in place, and each polygon word maps to the image polygon word
    by an orientation-preserving (rotation-only) match.
    """
    report = Report()
    for mapping, items, label in (
        (inv.points, surface.points, "point"),
        (inv.arcs, surface.arcs, "arc"),
        (inv.bsegs, surface.bsegs, "bseg"),
        (inv.polygons, surface.polygons, "polygon"),
    ):
        ids = {x.id for x in items}
        if set(mapping.keys()) != ids or set(mapping.values()) != ids:
            report.add(BAD_INVOLUTION, f"{label} map is not a permutation of the {label} ids")
            continue
        for x, y in mapping.items():
            if mapping[y] != x:
                report.add(NOT_ORDER_TWO, f"{label} map sends {x!r}->{y!r}->{mapping[y]!r}")
    if not report.ok:
        return report, []

    for p in surface.points:
        if p.kind == ORBIFOLD:
            report.add(BAD_INPUT, f"orbifold point {p.id!r} present; symmetries act on plain dissections", (p.id,))
        elif inv.points[p.id] == p.id:
            report.add(FIXED_MARKED_POINT, f"point {p.id!r} is fixed", (p.id,))

    fixed_arcs = []
    for a in surface.arcs:
        img = inv.arcs[a.id]
        rev = a.id in inv.reversed_arcs
        if rev != (img in inv.reversed_arcs):
            report.add(BAD_INVOLUTION, f"reversal flag of arc {a.id!r} not symmetric", (a.id,))
        img_arc = surface.arc_by_id[img]
        want_tail = inv.points[a.head] if rev else inv.points[a.tail]
        want_head = inv.points[a.tail] if rev else inv.points[a.head]
        if (img_arc.tail, img_arc.head) != (want_tail, want_head):
            report.add(
                BAD_INVOLUTION,
                f"arc {a.id!r} endpoints map to ({want_tail!r},{want_head!r}) "
                f"but image arc {img!r} runs {img_arc.tail!r}->{img_arc.head!r}",
                (a.id,),
            )
        if img == a.id:
            if not rev:
                report.add(UNREVERSED_FIXED_ARC, f"arc {a.id!r} is fixed but not reversed", (a.id,))
            else:
                fixed_arcs.append(a.id)

    for b in surface.bsegs:
        img = inv.bsegs[b.id]
        if img == b.id:
            report.add(BAD_INVOLUTION, f"bseg {b.id!r} is fixed", (b.id,))
            continue
        img_b = surface.bseg_by_id[img]
        if (img_b.tail, img_b.head) != (inv.points[b.tail], inv.points[b.head]):
            report.add(
                ORIENTATION_REVERSED,
                f"bseg {b.id!r} image {img!r} does not follow the boundary orientation",
                (b.id,),
            )

    for poly in surface.polygons:
        img_id = inv.polygons[poly.id]
        if img_id == poly.id:
            report.add(FIXED_POLYGON, f"polygon {poly.id!r} is fixed", (poly.id,))
            continue
        img_poly = surface.polygon_by_id[img_id]
        if len(img_poly.sides) != len(poly.sides):
            report.add(BAD_INVOLUTION, f"polygon {poly.id!r} image has different length", (poly.id,))
            continue
        try:
            mapped = tuple(inv.side_image(s) for s in poly.sides)
        except KeyError:
            report.add(BAD_INVOLUTION, f"polygon {poly.id!r} sides do not all map", (poly.id,))
            continue
        n = len(mapped)
        rotations = [img_poly.sides[k:] + img_poly.sides[:k] for k in range(n)]
        if mapped not in rotations:
            rev_word = tuple(
                s if s.kind == "b" else s.reversed() for s in reversed(mapped)
            )
            if rev_word in rotations:
                report.add(
                    ORIENTATION_REVERSED,
                    f"polygon {poly.id!r} maps to {img_id!r} orientation-reversingly",
                    (poly.id,),
                )
            else:
                report.add(
                    BAD_INVOLUTION,
                    f"polygon {poly.id!r} word does not map onto polygon {img_id!r}",
                    (poly.id,),
                )
    return report, sorted(fixed_arcs)


# ---------------------------------------------------------------------------
# Combinatorial curves


@dataclass(frozen=True)
class Passage:
    """One traversal of a polygon by a curve.

    ``entry`` and ``exit`` are slot indices into the polygon word.  For the
    inner passages of a curve both slots are arc sides; the first (last)
    passage of an open curve enters (exits) through slot 0, the boundary
    segment, where the curve ends at the segment's midpoint.  ``bseg_side``
    records on which side of the directed chord the polygon's boundary
    segment lies; it is determined by the slots whenever ``entry != exit``
    and is authoritative data for same-slot passages.
    """

    polygon: str
    entry: int
    exit: int
    bseg_side: str  # "left" | "right"


@dataclass(frozen=True)
class CombinatorialCurve:
    id: str
    closed: bool
    passages: tuple[Passage, ...]


def chord_bseg_side(entry: int, exit: int) -> str:
    """Side of the bseg (slot 0) relative to the chord entry -> exit.

    The sides strictly between exit and entry in counterclockwise word
    order lie on the left of the chord.  With the bseg at slot 0 this
    reduces to slot comparison: the open interval from exit forward to
    entry wraps past slot 0 exactly when ``entry >= 1`` and ``exit >
    entry``.  Chords with an endpoint at slot 0 (open-curve ends) always
    leave the bseg on the right.
    """
    if entry == exit:
        raise ValueError("side of a same-slot passage is free data")
    return "left" if (entry >= 1 and exit > entry) else "right"


def passage_winding(p: Passage) -> int:
    return 1 if p.bseg_side == "left" else -1


def reverse_curve(curve: CombinatorialCurve) -> CombinatorialCurve:
    # Distinct slots get the side dictated by the slot order; only a
    # same-slot passage carries the side as free data, and there the side
    # flips with the orientation.
    flipped = tuple(
        Passage(
            p.polygon,
            p.exit,
            p.entry,
            ("right" if p.bseg_side == "left" else "left")
            if p.entry == p.exit
            else chord_bseg_side(p.exit, p.entry),
        )
        for p in reversed(curve.passages)
    )
    return CombinatorialCurve(curve.id + ".rev", curve.closed, flipped)


def validate_curve(surface: DissectedSurface, curve: CombinatorialCurve) -> Report:
    """Check that a curve is a coherent chain of polygon passages."""
    report = Report()
    ps = curve.passages
    if not ps:
        report.add(INVALID_CURVE, f"curve {curve.id!r} has no passages", (curve.id,))
        return report
    for k, p in enumerate(ps):
        poly = surface.polygon_by_id.get(p.polygon)
        if poly is None:
            report.add(UNKNOWN_ID, f"curve {curve.id!r} passage {k}: unknown polygon {p.polygon!r}", (curve.id, k))
            continue
        n = len(poly.sides)
        for slot in (p.entry, p.exit):
            if not 0 <= slot < n:
                report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k}: slot {slot} out of range", (curve.id, k))
        if p.bseg_side not in ("left", "right"):
            report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k}: bad bseg side {p.bseg_side!r}", (curve.id, k))
    if not report.ok:
        return report

    def side_at(p: Passage, slot: int) -> Side:
        return surface.polygon_by_id[p.polygon].sides[slot]

    for k, p in enumerate(ps):
        first, last = k == 0, k == len(ps) - 1
        entry_is_b = not side_at(p, p.entry).is_arc
        exit_is_b = not side_at(p, p.exit).is_arc
        if curve.closed or not first:
            if entry_is_b:
                report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k} enters through the bseg", (curve.id, k))
        else:
            if not entry_is_b:
                report.add(INVALID_CURVE, f"open curve {curve.id!r} must start at a bseg midpoint", (curve.id, k))
        if curve.closed or not last:
            if exit_is_b:
                report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k} exits through the bseg", (curve.id, k))
        else:
            if not exit_is_b:
                report.add(INVALID_CURVE, f"open curve {curve.id!r} must end at a bseg midpoint", (curve.id, k))
        if p.entry != p.exit:
            want = chord_bseg_side(p.entry, p.exit)
            if p.bseg_side != want:
                report.add(
                    INVALID_CURVE,
                    f"curve {curve.id!r} passage {k}: declared bseg side "
                    f"{p.bseg_side!r} contradicts the polygon word ({want!r})",
                    (curve.id, k),
                )
    if not report.ok:
        return report

    # Consecutive passages must cross the two occurrences of one arc.
    pairs = list(range(len(ps) - 1))
    if curve.closed:
        pairs.append(len(ps) - 1)
    else:
        if len(ps) < 2:
            report.add(INVALID_CURVE, f"open curve {curve.id!r} crosses no arc", (curve.id,))
            return report
    for k in pairs:
        p, q = ps[k], ps[(k + 1) % len(ps)]
        s_out = side_at(p, p.exit)
        s_in = side_at(q, q.entry)
        if not (s_out.is_arc and s_in.is_arc):
            continue
        same_arc = s_out.ref == s_in.ref
        other_occurrence = (p.polygon, p.exit) != (q.polygon, q.entry)
        if not (same_arc and other_occurrence and s_out.direction == -s_in.direction):
            report.add(
                INVALID_CURVE,
                f"curve {curve.id!r}: passages {k}->{(k + 1) % len(ps)} do not "
                "cross matching occurrences of one arc",
                (curve.id, k),
            )
    return report


def curve_crossings(
    surface: DissectedSurface, curve: CombinatorialCurve
) -> list[str]:
    """The arcs crossed, in curve order (one entry per crossing)."""
    ps = curve.passages
    out = []
    count = len(ps) if curve.closed else len(ps) - 1
    for k in range(count):
        p = ps[k]
        side = surface.polygon_by_id[p.polygon].sides[p.exit]
        out.append(side.ref)
    return out


# ---------------------------------------------------------------------------
# Isomorphism of dissected surfaces


def surfaces_isomorphic(
    s1: DissectedSurface, s2: DissectedSurface
) -> Optional[dict[str, dict[str, str]]]:
    """Search for an orientation-preserving isomorphism of dissections.

    Returns a mapping with keys ``points``, ``arcs``, ``bsegs``,
    ``polygons`` or ``None``.  Polygon words may match up to rotation; arcs
    may be matched with reversed orientation.
    """
    if (
        len(s1.points) != len(s2.points)
        or len(s1.arcs) != len(s2.arcs)
        or len(s1.bsegs) != len(s2.bsegs)
        or len(s1.polygons) != len(s2.polygons)
    ):
        return None
    kinds1 = sorted(p.kind for p in s1.points)
    kinds2 = sorted(p.kind for p in s2.points)
    if kinds1 != kinds2:
        return None

    polys1 = sorted(s1.polygons, key=lambda p: (-len(p.sides), p.id))
    by_len: dict[int, list[Polygon]] = {}
    for p in s2.polygons:
        by_len.setdefault(len(p.sides), []).append(p)

    state: dict[str, dict[str, str]] = {
        "points": {},
        "arcs": {},
        "bsegs": {},
        "polygons": {},
    }
    arc_flip: dict[str, int] = {}
    used_polys: set[str] = set()

    def try_assign(cat: str, a: str, b: str, undo: list) -> bool:
        cur = state[cat].get(a)
        if cur is not None:
            return cur == b
        if b in state[cat].values():
            return False
        state[cat][a] = b
        undo.append((cat, a))
        return True

    def match_polygon(p1: Polygon, p2: Polygon, rot: int, undo: list) -> bool:
        n = len(p1.sides)
        word2 = p2.sides[rot:] + p2.sides[:rot]
        for sa, sb in zip(p1.sides, word2):
            if sa.kind != sb.kind:
                return False
            if sa.kind == "b":
                if not try_assign("bsegs", sa.ref, sb.ref, undo):
                    return False
            else:
                flip = sa.direction * sb.direction
                if sa.ref in arc_flip:
                    if arc_flip[sa.ref] != flip or state["arcs"].get(sa.ref) != sb.ref:
                        return False
                else:
                    if not try_assign("arcs", sa.ref, sb.ref, undo):
                        return False
                    arc_flip[sa.ref] = flip
                    undo.append(("flip", sa.ref))
        for i in range(n):
            pa = s1.ray_point(tail_ray(p1.sides[i]))
            pb = s2.ray_point(tail_ray(word2[i]))
            if s1.point_by_id[pa].kind != s2.point_by_id[pb].kind:
                return False
            if not try_assign("points", pa, pb, undo):
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(polys1):
            return True
        p1 = polys1[i]
        for p2 in by_len.get(len(p1.sides), []):
            if p2.id in used_polys:
                continue
            for rot in range(len(p2.sides)):
                if p2.sides[rot].kind != p1.sides[0].kind:
                    continue
                undo: list = []
                state["polygons"][p1.id] = p2.id
                used_polys.add(p2.id)
                if match_polygon(p1, p2, rot, undo) and backtrack(i + 1):
                    return True
                for tag, key in reversed(undo):
                    if tag == "flip":
                        del arc_flip[key]
                    else:
                        del state[tag][key]
                del state["polygons"][p1.id]
                used_polys.discard(p2.id)
        return False

    if backtrack(0):
        return state
    return None


# ---------------------------------------------------------------------------
# File format


@dataclass
class SurfaceFile:
    surface: DissectedSurface
    involution: Optional[SurfaceInvolution] = None
    curves: dict[str, CombinatorialCurve] = field(default_factory=dict)


_KINDS = {
    "boundary": BOUNDARY,
    "boundary_marked": BOUNDARY,
    "puncture": PUNCTURE,
    "orbifold": ORBIFOLD,
}
_PASSAGE_RE = re.compile(r"^\(([^,()\s]+),(\d+),(\d+),(left|right)\)$")


def _syntax(ln: int, message: str) -> ValidationError:
    return error(SYNTAX, f"line {ln}: {message}", (ln,))


def _keyed(ln: int, token: str, key: str) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise _syntax(ln, f"expected {key}=..., got {token!r}")
    return token[len(prefix) :]


def _parse_side(ln: int, token: str):
    parts = token.split(":")
    if parts[0] == "b" and len(parts) == 2:
        return bseg_side(parts[1])
    if parts[0] == "a" and len(parts) == 3 and parts[2] in ("+", "-"):
        return arc_side(parts[1], 1 if parts[2] == "+" else -1)
    raise _syntax(ln, f"bad polygon side {token!r}")


def _parse_involution(ln: int, tokens: list[str]):
    points: dict[str, str] = {}
    arcs: dict[str, str] = {}
    rev: list[str] = []
    mode = None
    for tok in tokens:
        if tok in ("points", "arcs"):
            mode = tok
            continue
        if mode is None:
            raise _syntax(ln, "involution entries must follow 'points' or 'arcs'")
        target = points if mode == "points" else arcs
        if "<->" in tok:
            a, b = tok.split("<->", 1)
            target[a], target[b] = b, a
        elif tok.endswith("~rev") and mode == "arcs":
            a = tok[: -len("~rev")]
            arcs[a] = a
            rev.append(a)
        else:
            raise _syntax(ln, f"bad involution entry {tok!r}")
    return points, arcs, rev


def parse_surface_file(text: str) -> SurfaceFile:
    name: Optional[str] = None
    points: list[MarkedPoint] = []
    arcs: list[Arc] = []
    bsegs: list[BoundarySegment] = []
    polygons: list[Polygon] = []
    inv_data = None
    curves: dict[str, CombinatorialCurve] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "surface":
            if len(tokens) != 2:
                raise _syntax(ln, "surface takes exactly one name")
            name = tokens[1]
        elif head == "point":
            if len(tokens) != 3:
                raise _syntax(ln, "point needs an id and kind=...")
            kind = _keyed(ln, tokens[2], "kind")
            if kind not in _KINDS:
                raise _syntax(ln, f"unknown point kind {kind!r}")
            points.append(MarkedPoint(tokens[1], _KINDS[kind]))
        elif head in ("bseg", "arc"):
            if len(tokens) != 4:
                raise _syntax(ln, f"{head} needs an id, from=... and to=...")
            tail = _keyed(ln, tokens[2], "from")
            headpt = _keyed(ln, tokens[3], "to")
            if head == "bseg":
                bsegs.append(BoundarySegment(tokens[1], tail, headpt))
            else:
                arcs.append(Arc(tokens[1], tail, headpt))
        elif head == "poly":
            if len(tokens) != 3:
                raise _syntax(ln, "poly needs an id and sides=...")
            word = _keyed(ln, tokens[2], "sides")
            sides = tuple(_parse_side(ln, t) for t in word.split(",") if t)
            if not sides:
                raise _syntax(ln, "polygon has no sides")
            polygons.append(Polygon(tokens[1], sides))
        elif head == "involution":
            if inv_data is not None:
                raise _syntax(ln, "more than one involution line")
            inv_data = _parse_involution(ln, tokens[1:])
        elif head == "curve":
            if len(tokens) != 4 or tokens[2] not in ("closed", "open"):
                raise _syntax(ln, "curve needs an id, closed|open and passages=...")
            body = _keyed(ln, tokens[3], "passages")
            passages = []
            for item in body.split(";"):
                m = _PASSAGE_RE.match(item)
                if not m:
                    raise _syntax(ln, f"bad passage {item!r}")
                passages.append(
                    Passage(m.group(1), int(m.group(2)), int(m.group(3)), m.group(4))
                )
            if tokens[1] in curves:
                raise _syntax(ln, f"duplicate curve id {tokens[1]!r}")
            curves[tokens[1]] = CombinatorialCurve(
                tokens[1], tokens[2] == "closed", tuple(passages)
            )
        else:
            raise _syntax(ln, f"unknown record {head!r}")
    if name is None:
        raise _syntax(0, "missing 'surface NAME' line")
    surface = make_surface(name, points, arcs, bsegs, polygons)
    raise_on_error(validate(surface))
    involution = None
    if inv_data is not None:
        pmap, amap, rev = inv_data
        involution, report = complete_involution(surface, pmap, amap, rev)
        raise_on_error(report)
        if involution is None:
            raise error(
                BAD_INVOLUTION,
                f"the involution of {name!r} could not be completed",
                (name,),
            )
        inv_report, _ = validate_involution(surface, involution)
        raise_on_error(inv_report)
    for curve in curves.values():
        raise_on_error(validate_curve(surface, curve))
    return SurfaceFile(surface, involution, curves)


def _format_side(side) -> str:
    if not side.is_arc:
        return f"b:{side.ref}"
    return f"a:{side.ref}:{'+' if side.direction == 1 else '-'}"


def format_surface_file(sf: SurfaceFile) -> str:
    s = sf.surface
    lines = [f"surface {s.name}"]
    for p in sorted(s.points, key=lambda x: x.id):
        lines.append(f"point {p.id} kind={p.kind}")
    for b in sorted(s.bsegs, key=lambda x: x.id):
        lines.append(f"bseg {b.id} from={b.tail} to={b.head}")
    for a in sorted(s.arcs, key=lambda x: x.id):
        lines.append(f"arc {a.id} from={a.tail} to={a.head}")
    for poly in sorted(s.polygons, key=lambda x: x.id):
        word = ",".join(_format_side(x) for x in poly.sides)
        lines.append(f"poly {poly.id} sides={word}")
    if sf.involution is not None:
        inv = sf.involution
        point_pairs = sorted({tuple(sorted((a, b))) for a, b in inv.points.items()})
        arc_pairs = sorted(
            {
                tuple(sorted((a, b)))
                for a, b in inv.arcs.items()
                if a not in inv.reversed_arcs
            }
        )
        parts = ["involution", "points"]
        parts += [f"{a}<->{b}" for a, b in point_pairs]
        parts.append("arcs")
        parts += [f"{a}<->{b}" for a, b in arc_pairs]
        parts += [f"{a}~rev" for a in sorted(inv.reversed_arcs)]
        lines.append(" ".join(parts))
    for cid in sorted(sf.curves):
        c = sf.curves[cid]
        body = ";".join(
            f"({p.polygon},{p.entry},{p.exit},{p.bseg_side})" for p in c.passages
        )
        shape = "closed" if c.closed else "open"
        lines.append(f"curve {c.id} {shape} passages={body}")
    return "\n".join(lines) + "\n"
