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
from typing import Iterable, Mapping, NamedTuple, Optional

from .diagnostics import (
    ARC_OCCURRENCE,
    BAD_EULER,
    BAD_INPUT,
    BAD_INVOLUTION,
    BSEG_NOT_FIRST,
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


def tail_ray(side: Side) -> Ray:
    """The ray at the endpoint where a traversal of ``side`` starts."""
    if side.kind == "b" or side.direction == 1:
        return (side.kind, side.ref, "tail")
    return ("a", side.ref, "head")


class _Walk(NamedTuple):
    """What one walk over the polygon words finds; see
    ``DissectedSurface._walk``."""

    arc_sides: dict[str, int]  # arc id -> number of its sides
    arc_balance: dict[str, int]  # arc id -> sum of its sides' directions
    bseg_sides: dict[str, int]  # bseg id -> number of its sides
    bsegs_per_polygon: list[int]
    unknown_sides: list[tuple[str, str]]  # (polygon id, ref) naming no cell
    succ: dict[Ray, Ray]  # counterclockwise successor of each ray
    points: dict[str, tuple]  # polygon id -> point where side i ends
    mismatches: list[tuple]  # (polygon id, corner, point in, point out)


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
                if s.kind == "a":
                    occ[(s.ref, s.direction)] = (poly.id, i)
        return occ

    @cached_property
    def bseg_occurrence(self) -> dict[str, tuple[str, int]]:
        occ: dict[str, tuple[str, int]] = {}
        for poly in self.polygons:
            for i, s in enumerate(poly.sides):
                if s.kind == "b":
                    occ[s.ref] = (poly.id, i)
        return occ

    @cached_property
    def _walk(self) -> _Walk:
        """One walk over the polygon words: the sides of every cell, the
        successor of every ray and the point at every corner.

        Corner ``i`` of a polygon lies between side ``i`` (arriving) and
        side ``i + 1`` (leaving, cyclically).  A side that names no arc or
        boundary segment is listed, and its endpoints read as ``None``.
        """
        arc_ends = {a.id: (a.tail, a.head) for a in self.arcs}
        bseg_ends = {b.id: (b.tail, b.head) for b in self.bsegs}
        walk = _Walk(
            dict.fromkeys(arc_ends, 0), dict.fromkeys(arc_ends, 0),
            dict.fromkeys(bseg_ends, 0), [], [], {}, {}, [],
        )
        arc_sides, arc_balance, bseg_sides = walk.arc_sides, walk.arc_balance, walk.bseg_sides
        succ, mismatches = walk.succ, walk.mismatches
        for poly in self.polygons:
            pid = poly.id
            heads = []
            nb = 0
            for i, s in enumerate(poly.sides):
                kind, ref, d = s.kind, s.ref, s.direction
                if kind == "a":
                    ends = arc_ends.get(ref)
                    if ends is not None:
                        arc_sides[ref] += 1
                        arc_balance[ref] += d
                else:
                    nb += 1
                    ends = bseg_ends.get(ref)
                    if ends is not None:
                        bseg_sides[ref] += 1
                if ends is None:
                    walk.unknown_sides.append((pid, ref))
                    ends = (None, None)
                if d == 1:
                    tail, head = ends
                    ray_out, ray_next = (kind, ref, "tail"), (kind, ref, "head")
                else:
                    head, tail = ends
                    ray_out, ray_next = (kind, ref, "head"), (kind, ref, "tail")
                if i:  # corner i - 1
                    succ[ray_out] = ray_in
                    heads.append(p_in)
                    if p_in != tail:
                        mismatches.append((pid, i - 1, p_in, tail))
                else:
                    first_out, first_tail = ray_out, tail
                ray_in, p_in = ray_next, head
            if poly.sides:  # the last corner, back to side 0
                succ[first_out] = ray_in
                heads.append(p_in)
                if p_in != first_tail:
                    mismatches.append((pid, len(heads) - 1, p_in, first_tail))
            walk.points[pid] = tuple(heads)
            walk.bsegs_per_polygon.append(nb)
        return walk

    @property
    def corner_points(self) -> dict[str, tuple]:
        """Polygon id -> the point at each corner ``i``, where side ``i`` ends."""
        return self._walk.points

    @cached_property
    def corners_at_point(self) -> dict[str, list[tuple[str, int]]]:
        """The corners ``(polygon id, i)`` at each point of a valid surface,
        in polygon order; corner ``i`` is where side ``i`` ends."""
        index: dict[str, list[tuple[str, int]]] = {}
        for pid, heads in self.corner_points.items():
            for i, point in enumerate(heads):
                index.setdefault(point, []).append((pid, i))
        return index

    @cached_property
    def _findings(self) -> tuple[Diagnostic, ...]:
        return tuple(_check_surface(self).diagnostics)

    @cached_property
    def _curve_findings(self) -> dict:
        """Curve -> the findings of :func:`validate_curve` on this surface."""
        return {}

    @cached_property
    def _involution_findings(self) -> dict:
        """``id(inv)`` -> ``(inv, its maps, findings)`` of
        :func:`validate_involution`; holding ``inv`` keeps its id unique."""
        return {}


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
        if poly.sides and poly.sides[0].kind != "b":
            slots = poly.bseg_slots()
            if len(slots) == 1:
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
    for category, items in (
        ("point", surface.points),
        ("arc", surface.arcs),
        ("bseg", surface.bsegs),
        ("polygon", surface.polygons),
    ):
        seen: set[str] = set()
        for x in items:
            if x.id in seen:
                report.add(BAD_INPUT, f"duplicate {category} id {x.id!r}", (x.id,))
            seen.add(x.id)

    # Endpoints, with the number of rays at each point, one arc ray at each
    # point, and the boundary rays leaving and entering each point.
    kind_of = {p.id: p.kind for p in surface.points}
    degree = dict.fromkeys(kind_of, 0)
    arc_ray: dict[str, Ray] = {}
    for a in surface.arcs:
        for end, label in ((a.tail, "tail"), (a.head, "head")):
            if end not in kind_of:
                report.add(UNKNOWN_ID, f"arc {a.id!r} endpoint {end!r} unknown", (a.id,))
                continue
            degree[end] += 1
            if end not in arc_ray:
                arc_ray[end] = ("a", a.id, label)
    outs: dict[str, list[Ray]] = {}
    ins: dict[str, list[Ray]] = {}
    for b in surface.bsegs:
        for end in (b.tail, b.head):
            if end not in kind_of:
                report.add(UNKNOWN_ID, f"bseg {b.id!r} endpoint {end!r} unknown", (b.id,))
        for end in (b.tail, b.head):
            if end in kind_of and kind_of[end] != BOUNDARY:
                report.add(
                    BAD_INPUT,
                    f"bseg {b.id!r} endpoint {end!r} is not a boundary point",
                    (b.id,),
                )
        if b.tail in degree:
            degree[b.tail] += 1
            outs.setdefault(b.tail, []).append(("b", b.id, "tail"))
        if b.head in degree:
            degree[b.head] += 1
            ins.setdefault(b.head, []).append(("b", b.id, "head"))
    walk = surface._walk
    for pid, ref in walk.unknown_sides:
        report.add(UNKNOWN_ID, f"polygon {pid!r} refers to unknown side {ref!r}", (pid,))
    if not report.ok:
        return report

    # Occurrence counts, and the boundary segment at slot 0, where the
    # boundary walks, the chord sides and the cover read it.
    for poly, nb in zip(surface.polygons, walk.bsegs_per_polygon):
        if nb != 1:
            report.add(
                MULTIPLE_BSEG,
                f"polygon {poly.id!r} has {nb} boundary segments (need exactly 1)",
                (poly.id,),
            )
        elif poly.sides[0].is_arc:
            report.add(
                BSEG_NOT_FIRST,
                f"polygon {poly.id!r} word does not start with its boundary segment",
                (poly.id,),
            )
    for aid, count in walk.arc_sides.items():
        if count != 2:
            report.add(ARC_OCCURRENCE, f"arc {aid!r} occurs {count} times (need 2)", (aid,))
        elif walk.arc_balance[aid]:
            report.add(
                NONORIENTABLE_GLUING,
                f"arc {aid!r} occurs twice with the same direction",
                (aid,),
            )
    for bid, cnt in walk.bseg_sides.items():
        if cnt != 1:
            report.add(BSEG_OCCURRENCE, f"bseg {bid!r} occurs {cnt} times (need 1)", (bid,))
    if not report.ok:
        return report

    # Corner consistency: consecutive sides of a polygon meet at one point.
    for pid, i, p_in, p_out in walk.mismatches:
        report.add(
            CORNER_MISMATCH,
            f"polygon {pid!r} corner {i}: sides meet at {p_in!r} vs {p_out!r}",
            (pid, i),
        )
    if not report.ok:
        return report

    # Rotation structure at every point: the successors run from the
    # outgoing to the incoming boundary ray, or round one cycle, through
    # every ray at the point.  Every ray they reach lies at the point, since
    # the corners are consistent; so counting the rays reached suffices.
    # Interior points touch no boundary segment here: a bseg endpoint that
    # is not a boundary point was reported above.
    succ = walk.succ
    for point in surface.points:
        pid = point.id
        if point.kind == BOUNDARY:
            out, into = outs.get(pid, ()), ins.get(pid, ())
            if len(out) != 1 or len(into) != 1:
                report.add(
                    CORNER_MISMATCH,
                    f"boundary point {pid!r} has {len(out)} outgoing and "
                    f"{len(into)} incoming boundary segments (need 1 and 1)",
                    (pid,),
                )
            elif _rays_reached(succ, out[0], into[0]) != degree[pid]:
                report.add(
                    CORNER_MISMATCH,
                    f"rays at boundary point {pid!r} do not form a single chain",
                    (pid,),
                )
        elif not degree[pid]:
            report.add(
                CORNER_MISMATCH,
                f"interior point {pid!r} has no incident arc ends",
                (pid,),
            )
        elif _rays_reached(succ, arc_ray[pid], arc_ray[pid]) != degree[pid]:
            report.add(
                CORNER_MISMATCH,
                f"rays at interior point {pid!r} do not form a single cycle",
                (pid,),
            )
    return report


def _rays_reached(succ: dict[Ray, Ray], first: Ray, last: Ray) -> int:
    """The rays on the successor path from ``first`` to ``last`` (back to
    ``first`` for a cycle); 0 when the path breaks off or meets itself
    before."""
    seen = {first}
    cur = first
    while True:
        cur = succ.get(cur)
        if cur == last:
            return len(seen) + (last != first)
        if cur is None or cur in seen:
            return 0
        seen.add(cur)


def classify_dissection(surface: DissectedSurface) -> str:
    """Decide whether a valid surface is a plain or an orbifold dissection.

    A plain (``"bullet"``) dissection has no orbifold points.  An orbifold
    (``"x"``) dissection requires every orbifold point to carry exactly one
    incident arc end; violations raise ``X_DEGREE``.
    """
    raise_on_error(validate(surface))
    report = Report()
    orbifold = [p for p in surface.points if p.kind == ORBIFOLD]
    for p in orbifold:
        deg = sum((a.tail, a.head).count(p.id) for a in surface.arcs)
        if deg != 1:
            report.add(
                X_DEGREE,
                f"orbifold point {p.id!r} has {deg} incident arc ends (need 1)",
                (p.id,),
            )
    raise_on_error(report)
    return "x" if orbifold else "bullet"


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
    raise_on_error(validate(surface))
    leaving = {b.tail: b for b in surface.bsegs}
    seen: set[str] = set()
    comps = []
    for b in sorted(surface.bsegs, key=lambda x: x.id):
        if b.id in seen:
            continue
        cyc = [b]
        nxt = leaving[b.head]
        while nxt.id != b.id:
            cyc.append(nxt)
            nxt = leaving[nxt.head]
        ids = tuple(x.id for x in cyc)
        seen.update(ids)
        comps.append(BoundaryComponent(ids, tuple(x.tail for x in cyc)))
    return comps


def _component_labels(surface: DissectedSurface) -> dict[str, int]:
    """Connected-component label for every point id.

    Union-find over the arcs, then the boundary segments; a label is the
    rank of its component's root among the sorted roots.  The corners of a
    polygon of a valid surface are joined by its sides already, so they add
    no links.
    """
    parent: dict[str, str] = {p.id: p.id for p in surface.points}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cell in (*surface.arcs, *surface.bsegs):
        rx, ry = find(cell.tail), find(cell.head)
        if rx != ry:
            parent[rx] = ry
    roots = {p.id: find(p.id) for p in surface.points}
    index = {r: i for i, r in enumerate(sorted(set(roots.values())))}
    return {p: index[r] for p, r in roots.items()}


def topology(surface: DissectedSurface) -> Topology:
    """Euler characteristic, genus and boundary data of a valid surface."""
    raise_on_error(validate(surface))
    labels = _component_labels(surface)
    ncomp = (max(labels.values()) + 1) if labels else 1
    bcomps = boundary_components(surface)

    # Euler characteristic and boundary circles of each component, one pass
    # over each kind of cell.
    chis = [0] * ncomp
    for p in surface.points:
        chis[labels[p.id]] += 1
    for cell in (*surface.arcs, *surface.bsegs):
        chis[labels[cell.tail]] -= 1
    corners = surface.corner_points
    for poly in surface.polygons:
        # the last corner is where side 0 starts
        chis[labels[corners[poly.id][-1]]] += 1
    circles: list[list[BoundaryComponent]] = [[] for _ in range(ncomp)]
    for bc in bcomps:
        circles[labels[bc.marked[0]]].append(bc)

    comps = []
    for c, chi in enumerate(chis):
        pts = [p for p in surface.points if labels[p.id] == c]
        bdry = tuple(circles[c])
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
) -> SurfaceInvolution:
    """Derive the bseg and polygon permutations from point and arc data;
    an image that cannot be found raises ``BAD_INVOLUTION``."""
    raise_on_error(validate(surface))
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
    raise_on_error(report)
    for poly in surface.polygons:
        img_poly = surface.polygon_by_id[poly_map[poly.id]]
        own_b = next(s.ref for s in poly.sides if not s.is_arc)
        img_b = next(s.ref for s in img_poly.sides if not s.is_arc)
        bseg_map[own_b] = img_b
    return SurfaceInvolution(
        points=dict(point_map),
        arcs=dict(arc_map),
        reversed_arcs=reversed_arcs,
        bsegs=bseg_map,
        polygons=poly_map,
    )


def validate_involution(surface: DissectedSurface, inv: SurfaceInvolution) -> Report:
    """Check a half-turn symmetry.

    Requirements: every map is an order-two permutation of the matching id
    set, arc endpoints transform consistently (with reversal flags), no
    marked point / puncture / bseg / polygon is fixed, every fixed arc is
    reversed in place, and each polygon word maps onto the image polygon
    word slot by slot, orientation preserved.  The words are compared from
    their boundary segments, so a surface that fails :func:`validate` gets
    its own findings back.

    The findings are kept on the surface for this involution object, with
    a copy of its maps: a map changed since is checked again.  Each call
    returns a fresh report.
    """
    maps = (inv.points, inv.arcs, inv.reversed_arcs, inv.bsegs, inv.polygons)
    memo = surface._involution_findings
    entry = memo.get(id(inv))
    if entry is None or entry[1] != maps:
        report = _check_involution(surface, inv)
        copies = (
            dict(inv.points), dict(inv.arcs), frozenset(inv.reversed_arcs),
            dict(inv.bsegs), dict(inv.polygons),
        )
        entry = (inv, copies, tuple(report.diagnostics))
        memo[id(inv)] = entry
    return Report(list(entry[2]))


def _check_involution(surface: DissectedSurface, inv: SurfaceInvolution) -> Report:
    report = validate(surface)
    if not report.ok:
        return report
    for mapping, items, label in (
        (inv.points, surface.points, "point"),
        (inv.arcs, surface.arcs, "arc"),
        (inv.bsegs, surface.bsegs, "bseg"),
        (inv.polygons, surface.polygons, "polygon"),
    ):
        ids = {x.id for x in items}
        if mapping.keys() != ids or set(mapping.values()) != ids:
            report.add(BAD_INVOLUTION, f"{label} map is not a permutation of the {label} ids")
            continue
        for x, y in mapping.items():
            if mapping[y] != x:
                report.add(NOT_ORDER_TWO, f"{label} map sends {x!r}->{y!r}->{mapping[y]!r}")
    if not report.ok:
        return report

    point_map, reversed_arcs = inv.points, inv.reversed_arcs
    for p in surface.points:
        if p.kind == ORBIFOLD:
            report.add(BAD_INPUT, f"orbifold point {p.id!r} present; symmetries act on plain dissections", (p.id,))
        elif point_map[p.id] == p.id:
            report.add(FIXED_MARKED_POINT, f"point {p.id!r} is fixed", (p.id,))

    for a in surface.arcs:
        img = inv.arcs[a.id]
        rev = a.id in reversed_arcs
        if rev != (img in reversed_arcs):
            report.add(BAD_INVOLUTION, f"reversal flag of arc {a.id!r} not symmetric", (a.id,))
        img_arc = surface.arc_by_id[img]
        want_tail = point_map[a.head] if rev else point_map[a.tail]
        want_head = point_map[a.tail] if rev else point_map[a.head]
        if (img_arc.tail, img_arc.head) != (want_tail, want_head):
            report.add(
                BAD_INVOLUTION,
                f"arc {a.id!r} endpoints map to ({want_tail!r},{want_head!r}) "
                f"but image arc {img!r} runs {img_arc.tail!r}->{img_arc.head!r}",
                (a.id,),
            )
        if img == a.id and not rev:
            report.add(UNREVERSED_FIXED_ARC, f"arc {a.id!r} is fixed but not reversed", (a.id,))

    for b in surface.bsegs:
        img = inv.bsegs[b.id]
        if img == b.id:
            report.add(BAD_INVOLUTION, f"bseg {b.id!r} is fixed", (b.id,))
            continue
        img_b = surface.bseg_by_id[img]
        if (img_b.tail, img_b.head) != (point_map[b.tail], point_map[b.head]):
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
        # Words compare as (kind, ref, direction) keys.
        try:
            mapped = tuple(
                ("b", inv.bsegs[s.ref], 1)
                if s.kind == "b"
                else ("a", inv.arcs[s.ref], -s.direction if s.ref in reversed_arcs else s.direction)
                for s in poly.sides
            )
        except KeyError:
            report.add(BAD_INVOLUTION, f"polygon {poly.id!r} sides do not all map", (poly.id,))
            continue
        # Both words start with their boundary segment, so an orientation-
        # preserving match is the identity on slots; the reversed word ends
        # with its boundary segment and is rotated by one to start there.
        target = tuple((x.kind, x.ref, x.direction) for x in img_poly.sides)
        if mapped != target:
            rev_word = tuple(
                (kind, ref, 1 if kind == "b" else -d) for kind, ref, d in reversed(mapped)
            )
            if rev_word[-1:] + rev_word[:-1] == target:
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
    return report


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


def _moved_passages(
    inv: SurfaceInvolution, passages: Iterable[Passage]
) -> tuple[Passage, ...]:
    """Passages pushed through an involution.  Polygon words of an
    involution pair are slot-aligned, so slots and declared sides stay."""
    return tuple(
        Passage(inv.polygons[p.polygon], p.entry, p.exit, p.bseg_side) for p in passages
    )


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


def validate_curve(surface: DissectedSurface, curve: CombinatorialCurve) -> Report:
    """Check that a curve is a coherent chain of polygon passages; a
    surface that fails :func:`validate` gets its own findings back.

    The findings are kept on the surface, keyed by the curve value; each
    call returns a fresh report."""
    memo = surface._curve_findings
    found = memo.get(curve)
    if found is None:
        found = memo[curve] = tuple(_check_curve(surface, curve).diagnostics)
    return Report(list(found))


def _check_curve(surface: DissectedSurface, curve: CombinatorialCurve) -> Report:
    report = validate(surface)
    if not report.ok:
        return report
    ps = curve.passages
    if not ps:
        report.add(INVALID_CURVE, f"curve {curve.id!r} has no passages", (curve.id,))
        return report
    sides_at = []  # per passage: the sides at its entry and exit slots
    for k, p in enumerate(ps):
        poly = surface.polygon_by_id.get(p.polygon)
        if poly is None:
            report.add(UNKNOWN_ID, f"curve {curve.id!r} passage {k}: unknown polygon {p.polygon!r}", (curve.id, k))
            continue
        sides = poly.sides
        n = len(sides)
        for slot in (p.entry, p.exit):
            if not 0 <= slot < n:
                report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k}: slot {slot} out of range", (curve.id, k))
        if p.bseg_side not in ("left", "right"):
            report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k}: bad bseg side {p.bseg_side!r}", (curve.id, k))
        if report.ok:
            sides_at.append((sides[p.entry], sides[p.exit]))
    if not report.ok:
        return report

    closed, last = curve.closed, len(ps) - 1
    for k, (p, (s_entry, s_exit)) in enumerate(zip(ps, sides_at)):
        entry_is_b = s_entry.kind == "b"
        exit_is_b = s_exit.kind == "b"
        if closed or k != 0:
            if entry_is_b:
                report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k} enters through the bseg", (curve.id, k))
        else:
            if not entry_is_b:
                report.add(INVALID_CURVE, f"open curve {curve.id!r} must start at a bseg midpoint", (curve.id, k))
        if closed or k != last:
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
    if not closed and len(ps) < 2:
        report.add(INVALID_CURVE, f"open curve {curve.id!r} crosses no arc", (curve.id,))
        return report
    for k in range(crossing_steps(curve)[0]):
        nxt = (k + 1) % len(ps)
        p, q = ps[k], ps[nxt]
        s_out = sides_at[k][1]
        s_in = sides_at[nxt][0]
        if s_out.kind == "b" or s_in.kind == "b":
            continue
        same_arc = s_out.ref == s_in.ref
        other_occurrence = (p.polygon, p.exit) != (q.polygon, q.entry)
        if not (same_arc and other_occurrence and s_out.direction == -s_in.direction):
            report.add(
                INVALID_CURVE,
                f"curve {curve.id!r}: passages {k}->{nxt} do not "
                "cross matching occurrences of one arc",
                (curve.id, k),
            )
    return report


def crossing_steps(curve: CombinatorialCurve) -> tuple[int, list[tuple[int, int, int]]]:
    """The number of crossings of a curve and its steps between them.

    Crossing ``k`` is where passage ``k`` exits: a closed curve crosses
    once per passage, an open one once fewer.  A step ``(j, before,
    after)`` is passage ``j`` running from crossing ``before`` to crossing
    ``after``.  The first and last passage of an open curve lie between
    no two crossings and give no step.
    """
    n = len(curve.passages)
    if curve.closed:
        return n, [(j, (j - 1) % n, j) for j in range(n)]
    return n - 1, [(j, j - 1, j) for j in range(1, n - 1)]


def curve_crossings(
    surface: DissectedSurface, curve: CombinatorialCurve
) -> list[str]:
    """The arcs crossed, in curve order (one entry per crossing)."""
    raise_on_error(validate(surface))
    ps = curve.passages
    count, _ = crossing_steps(curve)
    return [surface.polygon_by_id[p.polygon].sides[p.exit].ref for p in ps[:count]]


# ---------------------------------------------------------------------------
# Isomorphism of dissected surfaces


def surfaces_isomorphic(
    s1: DissectedSurface, s2: DissectedSurface
) -> Optional[dict[str, dict[str, str]]]:
    """Search for an orientation-preserving isomorphism of dissections.

    Returns a mapping with keys ``points``, ``arcs``, ``bsegs``,
    ``polygons`` or ``None``.  Both surfaces must be valid, so polygon
    words match slot by slot from their boundary segments; arcs may be
    matched with reversed orientation.

    The image of one polygon forces the whole map on its connected
    component, so each component is matched from its first polygon by
    ``(-len(sides), id)`` onto the first fitting polygon of ``s2`` in
    order.  A component is never rematched: if it fits two components of
    ``s2``, those two are isomorphic, so the first fit is as good as any.
    """
    raise_on_error(validate(s1))
    raise_on_error(validate(s2))
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

    state: dict[str, dict[str, str]] = {"points": {}, "arcs": {}, "bsegs": {}, "polygons": {}}
    for p1 in sorted(s1.polygons, key=lambda p: (-len(p.sides), p.id)):
        if p1.id in state["polygons"]:
            continue
        taken = set(state["polygons"].values())
        fits = (
            _match_component(s1, s2, p1, p2)
            for p2 in s2.polygons
            if p2.id not in taken and len(p2.sides) == len(p1.sides)
        )
        component = next((maps for maps in fits if maps is not None), None)
        if component is None:
            return None
        for cat, pairs in component.items():
            state[cat].update(pairs)
    return state


def _match_component(
    s1: DissectedSurface, s2: DissectedSurface, p1: Polygon, p2: Polygon
) -> Optional[dict[str, dict[str, str]]]:
    """The isomorphism of the component of ``p1`` that sends ``p1`` to
    ``p2``, pushed across the arcs slot by slot, or ``None``."""
    maps: dict[str, dict[str, str]] = {"points": {}, "arcs": {}, "bsegs": {}, "polygons": {}}
    images: dict[str, set[str]] = {cat: set() for cat in maps}

    def assign(cat: str, a: str, b: str) -> bool:
        if a in maps[cat]:
            return maps[cat][a] == b
        if b in images[cat]:
            return False
        maps[cat][a] = b
        images[cat].add(b)
        return True

    assign("polygons", p1.id, p2.id)
    todo = [(p1, p2)]
    while todo:
        q1, q2 = todo.pop()
        if len(q1.sides) != len(q2.sides):
            return None
        for sa, sb in zip(q1.sides, q2.sides):
            if sa.is_arc:
                # The other side of the arc lands on the other side of its
                # image, in the same slot of the neighbouring polygon.
                n1, i1 = s1.occurrences[(sa.ref, -sa.direction)]
                n2, i2 = s2.occurrences[(sb.ref, -sb.direction)]
                if n1 not in maps["polygons"]:
                    todo.append((s1.polygon_by_id[n1], s2.polygon_by_id[n2]))
                fits = i1 == i2 and assign("arcs", sa.ref, sb.ref) and assign("polygons", n1, n2)
            else:
                fits = assign("bsegs", sa.ref, sb.ref)
            pa, pb = s1.ray_point(tail_ray(sa)), s2.ray_point(tail_ray(sb))
            if not (
                fits
                and s1.point_by_id[pa].kind == s2.point_by_id[pb].kind
                and assign("points", pa, pb)
            ):
                return None
    return maps


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
    name, eq, value = token.partition("=")
    if name != key or not eq:
        raise _syntax(ln, f"expected {key}=..., got {token!r}")
    return value


def _parse_word(ln: int, word: str) -> tuple[Side, ...]:
    sides = []
    for token in word.split(","):
        if not token:
            continue
        parts = token.split(":")
        if parts[0] == "b" and len(parts) == 2:
            sides.append(Side("b", parts[1], 1))
        elif parts[0] == "a" and len(parts) == 3 and parts[2] in ("+", "-"):
            sides.append(Side("a", parts[1], 1 if parts[2] == "+" else -1))
        else:
            raise _syntax(ln, f"bad polygon side {token!r}")
    return tuple(sides)


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
            if name is not None:
                raise _syntax(ln, "more than one surface line")
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
            sides = _parse_word(ln, word)
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
        involution = complete_involution(surface, *inv_data)
        raise_on_error(validate_involution(surface, involution))
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
