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
by id), and parsing that output reproduces it byte for byte.  An id holds
no whitespace and none of the separators of the records that name it:
the parser refuses such an id on its own line and the printer refuses to
write it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
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


class _cached_property:
    """A value computed on its first read and kept in the instance's
    ``__dict__``, where later reads find it without calling this
    descriptor: :class:`functools.cached_property` without the lock that
    Python 3.11 takes on every first read, which a surface pays a dozen
    times."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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
            raise error(BAD_INPUT, f"bad side kind {self.kind!r}", (self.ref,))
        if self.kind == "b" and self.direction != 1:
            raise error(BAD_INPUT, "boundary segment sides are always forward", (self.ref,))
        if self.direction not in (1, -1):
            raise error(BAD_INPUT, f"bad direction {self.direction!r}", (self.ref,))

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
    ``DissectedSurface._walk``.

    Cells are numbered by position: cell ``c`` is arc ``c``, or boundary
    segment ``c - len(arcs)`` from ``len(arcs)`` on, and one more cell
    stands for every side that names no cell.  Ray ``2c`` is the tail end
    of cell ``c`` and ray ``2c + 1`` its head end.  A side leaves the
    corner before it by the ray where its traversal starts, so those rays
    spell the polygon word.
    """

    point_pos: dict[str, int]  # point id -> position (the last of a repeated id)
    arc_ray: dict[str, int]  # arc id -> its tail ray (the last of a repeated id)
    bseg_ray: dict[str, int]  # bseg id -> its tail ray (the last of a repeated id)
    ray_point: list[int]  # ray -> position of its point, -1 when unknown
    succ: list[int]  # ray -> its counterclockwise successor, -1 for none
    words: dict[str, tuple[int, ...]]  # polygon id -> the ray each side leaves by
    bsegs_per_polygon: list[int]
    unknown_sides: list[tuple[str, str]]  # (polygon id, ref) naming no cell
    points: dict[str, tuple]  # polygon id -> point where side i ends
    mismatches: list[tuple]  # (polygon id, corner, point in, point out)
    occurrences: dict[tuple[str, int], tuple[str, int]]  # (arc, direction) -> (polygon, slot)
    bseg_occurrence: dict[str, tuple[str, int]]  # bseg id -> (polygon id, slot)


@dataclass(frozen=True)
class DissectedSurface:
    name: str
    points: tuple[MarkedPoint, ...]
    arcs: tuple[Arc, ...]
    bsegs: tuple[BoundarySegment, ...]
    polygons: tuple[Polygon, ...]

    # ----- lookups -------------------------------------------------------

    @_cached_property
    def point_by_id(self) -> dict[str, MarkedPoint]:
        return {p.id: p for p in self.points}

    @_cached_property
    def arc_by_id(self) -> dict[str, Arc]:
        return {a.id: a for a in self.arcs}

    @_cached_property
    def bseg_by_id(self) -> dict[str, BoundarySegment]:
        return {b.id: b for b in self.bsegs}

    @_cached_property
    def polygon_by_id(self) -> dict[str, Polygon]:
        return {p.id: p for p in self.polygons}

    def ray_point(self, ray: Ray) -> str:
        kind, ref, end = ray
        cell = self.arc_by_id[ref] if kind == "a" else self.bseg_by_id[ref]
        return cell.tail if end == "tail" else cell.head

    @_cached_property
    def occurrences(self) -> dict[tuple[str, int], tuple[str, int]]:
        """Directed arc occurrence -> (polygon id, slot), recorded by the walk."""
        return self._walk.occurrences

    @_cached_property
    def bseg_occurrence(self) -> dict[str, tuple[str, int]]:
        """Boundary segment -> (polygon id, slot), recorded by the walk."""
        return self._walk.bseg_occurrence

    @_cached_property
    def _walk(self) -> _Walk:
        """One walk over the polygon words, on positions: where each arc
        and boundary segment occurs, the rays that spell each word, the
        successor of every ray and the point at every corner.

        Corner ``i`` of a polygon lies between side ``i`` (arriving) and
        side ``i + 1`` (leaving, cyclically).  A side that names no arc or
        boundary segment is listed, and its endpoints read as ``None``.
        """
        arcs, bsegs = self.arcs, self.bsegs
        point_pos = {p.id: i for i, p in enumerate(self.points)}
        arc_ray = {a.id: 2 * c for c, a in enumerate(arcs)}
        first = 2 * len(arcs)
        bseg_ray = {b.id: first + 2 * j for j, b in enumerate(bsegs)}
        ends = [end for cell in (*arcs, *bsegs) for end in (cell.tail, cell.head)]
        ray_point = [point_pos.get(end, -1) for end in ends]
        unknown = len(ends)  # the tail ray of the cell of unknown sides
        ends += (None, None)
        succ = [-1] * (unknown + 2)
        walk = _Walk(
            point_pos, arc_ray, bseg_ray, ray_point, succ, {}, [], [], {}, [], {}, {}
        )
        words, bsegs_per_polygon, unknown_sides = walk.words, walk.bsegs_per_polygon, walk.unknown_sides
        corner_points, mismatches = walk.points, walk.mismatches
        occurrences, bseg_occurrence = walk.occurrences, walk.bseg_occurrence
        for poly in self.polygons:
            pid = poly.id
            word, heads = [], []
            nb = 0
            for i, s in enumerate(poly.sides):
                ref = s.ref
                if s.kind == "a":
                    d = s.direction
                    occurrences[(ref, d)] = (pid, i)
                    try:
                        r = arc_ray[ref]
                    except KeyError:
                        r = unknown
                        unknown_sides.append((pid, ref))
                    if d != 1:
                        r += 1
                else:
                    nb += 1
                    bseg_occurrence[ref] = (pid, i)
                    try:
                        r = bseg_ray[ref]
                    except KeyError:
                        r = unknown
                        unknown_sides.append((pid, ref))
                word.append(r)
                tail = ends[r]
                if i:  # corner i - 1
                    succ[r] = r_in
                    heads.append(p_in)
                    if p_in != tail:
                        mismatches.append((pid, i - 1, p_in, tail))
                r_in = r ^ 1
                p_in = ends[r_in]
            if word:  # the last corner, back to side 0
                r = word[0]
                succ[r] = r_in
                heads.append(p_in)
                if p_in != ends[r]:
                    mismatches.append((pid, len(heads) - 1, p_in, ends[r]))
            words[pid] = tuple(word)
            corner_points[pid] = tuple(heads)
            bsegs_per_polygon.append(nb)
        return walk

    @property
    def corner_points(self) -> dict[str, tuple]:
        """Polygon id -> the point at each corner ``i``, where side ``i`` ends."""
        return self._walk.points

    @_cached_property
    def corners_at_point(self) -> dict[str, list[tuple[str, int]]]:
        """The corners ``(polygon id, i)`` at each point of a valid surface,
        in polygon order; corner ``i`` is where side ``i`` ends."""
        index: dict[str, list[tuple[str, int]]] = {}
        for pid, heads in self.corner_points.items():
            for i, point in enumerate(heads):
                index.setdefault(point, []).append((pid, i))
        return index

    @_cached_property
    def _findings(self) -> tuple[Diagnostic, ...]:
        return tuple(_check_surface(self).diagnostics)

    @_cached_property
    def _boundary(self) -> tuple[BoundaryComponent, ...]:
        """The boundary circles of a valid surface; see
        :func:`boundary_components`."""
        return _boundary_circles(self)

    @_cached_property
    def _topology(self) -> Topology:
        """The topology of a valid surface; see :func:`topology`."""
        return _surface_topology(self)

    @_cached_property
    def _curve_findings(self) -> dict:
        """Curve -> the findings of :func:`validate_curve` on this surface."""
        return {}

    @_cached_property
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


def _require_valid(surface: DissectedSurface) -> None:
    """Raise the findings kept on ``surface``, if it has any: what
    ``raise_on_error(validate(surface))`` does, without a report."""
    if surface._findings:
        raise ValidationError(surface._findings)


def _check_surface(surface: DissectedSurface) -> Report:
    """The findings of :func:`validate`, in a fixed order.  Each stage
    first asks whether anything is wrong, with a few whole-list tests, and
    only then goes cell by cell to name the findings."""
    report = Report()
    if not surface.polygons:  # no cell to glue: not a surface at all
        report.add(BAD_INPUT, f"surface {surface.name!r} has no polygon", (surface.name,))
        return report
    walk = surface._walk
    points, arcs, bsegs, polygons = surface.points, surface.arcs, surface.bsegs, surface.polygons
    for category, items, by_id in (
        ("point", points, walk.point_pos),
        ("arc", arcs, walk.arc_ray),
        ("bseg", bsegs, walk.bseg_ray),
        ("polygon", polygons, walk.points),
    ):
        if len(by_id) == len(items):
            continue
        seen: set[str] = set()
        for x in items:
            if x.id in seen:
                report.add(BAD_INPUT, f"duplicate {category} id {x.id!r}", (x.id,))
            seen.add(x.id)
    for p in points:
        if p.kind not in POINT_KINDS:
            report.add(BAD_INPUT, f"point {p.id!r} has unknown kind {p.kind!r}", (p.id,))

    # Endpoints: each is a known point, and the boundary segments run
    # between boundary points, one leaving and one arriving at each.  A
    # point id repeated reads as its last point.
    ray_point = walk.ray_point
    first, unknown = 2 * len(arcs), len(ray_point)
    known = -1 not in ray_point
    boundary = [at for at, p in enumerate(points) if p.kind == BOUNDARY]
    chained = (
        known
        and sorted(ray_point[first::2]) == boundary
        and sorted(ray_point[first + 1 :: 2]) == boundary
    )
    if not known:
        for c, a in enumerate(arcs):
            if ray_point[2 * c] < 0:
                report.add(UNKNOWN_ID, f"arc {a.id!r} endpoint {a.tail!r} unknown", (a.id,))
            if ray_point[2 * c + 1] < 0:
                report.add(UNKNOWN_ID, f"arc {a.id!r} endpoint {a.head!r} unknown", (a.id,))
    if not chained:
        for j, b in enumerate(bsegs):
            ends = ((b.tail, ray_point[first + 2 * j]), (b.head, ray_point[first + 2 * j + 1]))
            for end, at in ends:
                if at < 0:
                    report.add(UNKNOWN_ID, f"bseg {b.id!r} endpoint {end!r} unknown", (b.id,))
            for end, at in ends:
                if at >= 0 and points[at].kind != BOUNDARY:
                    report.add(
                        BAD_INPUT,
                        f"bseg {b.id!r} endpoint {end!r} is not a boundary point",
                        (b.id,),
                    )
    for pid, ref in walk.unknown_sides:
        report.add(UNKNOWN_ID, f"polygon {pid!r} refers to unknown side {ref!r}", (pid,))
    if not report.ok:
        return report

    # Occurrence counts, and the boundary segment at slot 0, where the
    # boundary walks, the chord sides and the cover read it.  Boundary
    # segment sides leave by their tail rays only; so every arc ray and
    # every tail ray of a boundary segment has a successor, and there are
    # just as many sides, exactly when each arc occurs once in each
    # direction and each boundary segment once.
    words, succ = walk.words, walk.succ
    for poly, nb in zip(polygons, walk.bsegs_per_polygon):
        if nb != 1:
            report.add(
                MULTIPLE_BSEG,
                f"polygon {poly.id!r} has {nb} boundary segments (need exactly 1)",
                (poly.id,),
            )
        elif words[poly.id][0] < first:
            report.add(
                BSEG_NOT_FIRST,
                f"polygon {poly.id!r} word does not start with its boundary segment",
                (poly.id,),
            )
    if (
        -1 in succ[:first]
        or -1 in succ[first:unknown:2]
        or sum(map(len, words.values())) != (first + unknown) // 2
    ):
        leaves = [0] * unknown  # ray -> number of sides leaving by it
        for word in words.values():
            for r in word:
                leaves[r] += 1
        for c, a in enumerate(arcs):
            plus, minus = leaves[2 * c], leaves[2 * c + 1]
            if plus + minus != 2:
                report.add(
                    ARC_OCCURRENCE, f"arc {a.id!r} occurs {plus + minus} times (need 2)", (a.id,)
                )
            elif plus != minus:
                report.add(
                    NONORIENTABLE_GLUING,
                    f"arc {a.id!r} occurs twice with the same direction",
                    (a.id,),
                )
        for j, b in enumerate(bsegs):
            count = leaves[first + 2 * j]
            if count != 1:
                report.add(BSEG_OCCURRENCE, f"bseg {b.id!r} occurs {count} times (need 1)", (b.id,))
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

    # Rotation structure at every point: the rays at a point form one
    # successor orbit, a chain from the leaving to the arriving boundary
    # ray, or a cycle.  Every side leaves by one ray and arrives by
    # another, so the successor map is one to one; it is undefined only at
    # the arriving boundary rays, and no ray leads to the leaving ones.  So
    # each chain starts at a leaving boundary ray, every other orbit is a
    # cycle, and consistent corners keep each orbit at one point.  Every
    # point has one orbit exactly when there are as many orbits as points
    # and no point lacks a ray.  Interior points touch no boundary segment
    # here: a bseg endpoint that is not a boundary point was reported
    # above.
    seen = bytearray(unknown)
    for r in range(first, unknown, 2):
        while r >= 0:
            seen[r] = 1
            r = succ[r]
    cycles = []  # the first ray of every cycle
    for start in range(first):
        if not seen[start]:
            cycles.append(start)
            r = start
            while not seen[r]:
                seen[r] = 1
                r = succ[r]
    if chained and (unknown - first) // 2 + len(cycles) == len(points) == len(set(ray_point)):
        return report
    orbits, leaving, arriving = [0] * len(points), [0] * len(points), [0] * len(points)
    for r in range(first, unknown, 2):
        orbits[ray_point[r]] += 1
        leaving[ray_point[r]] += 1
        arriving[ray_point[r + 1]] += 1
    for r in cycles:
        orbits[ray_point[r]] += 1
    for at, point in enumerate(points):
        pid = point.id
        if point.kind == BOUNDARY:
            if leaving[at] != 1 or arriving[at] != 1:
                report.add(
                    CORNER_MISMATCH,
                    f"boundary point {pid!r} has {leaving[at]} outgoing and "
                    f"{arriving[at]} incoming boundary segments (need 1 and 1)",
                    (pid,),
                )
            elif orbits[at] != 1:
                report.add(
                    CORNER_MISMATCH,
                    f"rays at boundary point {pid!r} do not form a single chain",
                    (pid,),
                )
        elif not orbits[at]:
            report.add(
                CORNER_MISMATCH,
                f"interior point {pid!r} has no incident arc ends",
                (pid,),
            )
        elif orbits[at] != 1:
            report.add(
                CORNER_MISMATCH,
                f"rays at interior point {pid!r} do not form a single cycle",
                (pid,),
            )
    return report


def classify_dissection(surface: DissectedSurface) -> str:
    """Decide whether a valid surface is a plain or an orbifold dissection.

    A plain (``"bullet"``) dissection has no orbifold points.  An orbifold
    (``"x"``) dissection requires every orbifold point to carry exactly one
    incident arc end; violations raise ``X_DEGREE``.
    """
    _require_valid(surface)
    report = Report()
    ray_point = surface._walk.ray_point  # no boundary segment ends at an orbifold point
    orbifold = False
    for at, p in enumerate(surface.points):
        if p.kind != ORBIFOLD:
            continue
        orbifold = True
        degree = ray_point.count(at)
        if degree != 1:
            report.add(
                X_DEGREE,
                f"orbifold point {p.id!r} has {degree} incident arc ends (need 1)",
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
    """The boundary circles, each from its least segment id, in that
    order; they are kept on the surface, and each call returns a new list."""
    _require_valid(surface)
    return list(surface._boundary)


def _boundary_circles(surface: DissectedSurface) -> tuple[BoundaryComponent, ...]:
    """Follow the boundary segments of a valid surface, head to the tail of
    the next: each boundary point has one leaving and one arriving."""
    bsegs, ray_point = surface.bsegs, surface._walk.ray_point
    first = 2 * len(surface.arcs)
    leaving = {ray_point[r]: j for j, r in enumerate(range(first, len(ray_point), 2))}
    seen = bytearray(len(bsegs))
    comps = []
    for j in sorted(range(len(bsegs)), key=[b.id for b in bsegs].__getitem__):
        if seen[j]:
            continue
        cyc = []
        while not seen[j]:
            seen[j] = 1
            cyc.append(bsegs[j])
            j = leaving[ray_point[first + 2 * j + 1]]
        comps.append(BoundaryComponent(tuple([b.id for b in cyc]), tuple([b.tail for b in cyc])))
    return tuple(comps)


def _root(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _component_labels(surface: DissectedSurface) -> list[int]:
    """Connected-component label of every point position.

    Union-find over the arcs, then the boundary segments; a label is the
    rank of its component's root among the roots sorted by id.  The corners
    of a polygon of a valid surface are joined by its sides already, so
    they add no links.
    """
    points, ray_point = surface.points, surface._walk.ray_point
    parent = list(range(len(points)))
    for r in range(0, len(ray_point), 2):
        rx, ry = _root(parent, ray_point[r]), _root(parent, ray_point[r + 1])
        if rx != ry:
            parent[rx] = ry
    roots = [_root(parent, x) for x in range(len(points))]
    if not roots or roots.count(roots[0]) == len(roots):
        return [0] * len(roots)
    rank = {r: i for i, r in enumerate(sorted(set(roots), key=lambda r: points[r].id))}
    return [rank[r] for r in roots]


def topology(surface: DissectedSurface) -> Topology:
    """Euler characteristic, genus and boundary data of a valid surface,
    kept on the surface."""
    _require_valid(surface)
    return surface._topology


def _surface_topology(surface: DissectedSurface) -> Topology:
    """The topology of a valid surface, read off the positions of its walk."""
    labels = _component_labels(surface)
    ncomp = (max(labels) + 1) if labels else 1
    ray_point = surface._walk.ray_point

    # Euler characteristic V - E + F of each component.  Every polygon
    # holds one boundary segment, which ends where the polygon's last
    # corner is, so polygons and boundary segments cancel: V minus the
    # arcs.
    chis = [0] * ncomp
    punctures: list[list[str]] = [[] for _ in range(ncomp)]
    orbifold: list[list[str]] = [[] for _ in range(ncomp)]
    for p, label in zip(surface.points, labels):
        chis[label] += 1
        if p.kind == PUNCTURE:
            punctures[label].append(p.id)
        elif p.kind == ORBIFOLD:
            orbifold[label].append(p.id)
    for r in range(0, 2 * len(surface.arcs), 2):
        chis[labels[ray_point[r]]] -= 1
    circles: list[list[BoundaryComponent]] = [[] for _ in range(ncomp)]
    point_pos = surface._walk.point_pos
    for bc in surface._boundary:
        circles[labels[point_pos[bc.marked[0]]]].append(bc)

    comps = []
    for c, chi in enumerate(chis):
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
                punctures=tuple(sorted(punctures[c])),
                orbifold_points=tuple(sorted(orbifold[c])),
            )
        )
    return Topology(
        euler_char=sum(chis),
        connected=ncomp == 1,
        genus=comps[0].genus if ncomp == 1 else None,
        boundary=surface._boundary,
        punctures=tuple(sorted(p for ids in punctures for p in ids)),
        orbifold_points=tuple(sorted(p for ids in orbifold for p in ids)),
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
    _require_valid(surface)
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
    if surface._findings:
        return Report(list(surface._findings))
    report = Report()
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

    walk = surface._walk
    arcs, bsegs = surface.arcs, surface.bsegs
    point_map, reversed_arcs = inv.points, inv.reversed_arcs
    for p in surface.points:
        if p.kind == ORBIFOLD:
            report.add(BAD_INPUT, f"orbifold point {p.id!r} present; symmetries act on plain dissections", (p.id,))
        elif point_map[p.id] == p.id:
            report.add(FIXED_MARKED_POINT, f"point {p.id!r} is fixed", (p.id,))

    # image[r]: the ray by which the image of a side leaving by ray r leaves
    image = [0] * len(walk.ray_point)
    for c, a in enumerate(arcs):
        img = inv.arcs[a.id]
        rev = a.id in reversed_arcs
        r = walk.arc_ray[img]
        image[2 * c], image[2 * c + 1] = (r + 1, r) if rev else (r, r + 1)
        if rev != (img in reversed_arcs):
            report.add(BAD_INVOLUTION, f"reversal flag of arc {a.id!r} not symmetric", (a.id,))
        img_arc = arcs[r >> 1]
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

    n_arc_rays = 2 * len(arcs)
    for j, b in enumerate(bsegs):
        img = inv.bsegs[b.id]
        r = walk.bseg_ray[img]
        image[n_arc_rays + 2 * j] = r
        if img == b.id:
            report.add(BAD_INVOLUTION, f"bseg {b.id!r} is fixed", (b.id,))
            continue
        img_b = bsegs[(r - n_arc_rays) >> 1]
        if (img_b.tail, img_b.head) != (point_map[b.tail], point_map[b.head]):
            report.add(
                ORIENTATION_REVERSED,
                f"bseg {b.id!r} image {img!r} does not follow the boundary orientation",
                (b.id,),
            )

    # Words compare as the rays their sides leave by, which name the side:
    # an arc ray flips with the direction, a boundary segment always
    # leaves by its tail.
    words = walk.words
    for poly in surface.polygons:
        img_id = inv.polygons[poly.id]
        if img_id == poly.id:
            report.add(FIXED_POLYGON, f"polygon {poly.id!r} is fixed", (poly.id,))
            continue
        target = words[img_id]
        if len(target) != len(poly.sides):
            report.add(BAD_INVOLUTION, f"polygon {poly.id!r} image has different length", (poly.id,))
            continue
        mapped = [image[r] for r in words[poly.id]]
        if tuple(mapped) == target:
            continue
        # Both words start with their boundary segment, so an orientation-
        # preserving match is the identity on slots; the reversed word ends
        # with its boundary segment and is rotated by one to start there.
        rev_word = [r ^ 1 if r < n_arc_rays else r for r in reversed(mapped)]
        if tuple(rev_word[-1:] + rev_word[:-1]) == target:
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

    def __hash__(self) -> int:
        # The hash of the field values, kept after the first call: every
        # surface keys its curve findings by the curve.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.id, self.closed, self.passages))
            object.__setattr__(self, "_hash", h)
        return h


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
    if surface._findings:
        return Report(list(surface._findings))
    report = Report()
    ps = curve.passages
    if not ps:
        report.add(INVALID_CURVE, f"curve {curve.id!r} has no passages", (curve.id,))
        return report
    # A side reads as the ray it leaves by: the boundary segment rays come
    # after every arc ray, and the two occurrences of an arc leave by its
    # two rays.
    words = surface._walk.words
    rays_at = []  # per passage: the rays of the sides at its entry and exit slots
    for k, p in enumerate(ps):
        word = words.get(p.polygon)
        if word is None:
            report.add(UNKNOWN_ID, f"curve {curve.id!r} passage {k}: unknown polygon {p.polygon!r}", (curve.id, k))
            continue
        n = len(word)
        for slot in (p.entry, p.exit):
            if not 0 <= slot < n:
                report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k}: slot {slot} out of range", (curve.id, k))
        if p.bseg_side not in ("left", "right"):
            report.add(INVALID_CURVE, f"curve {curve.id!r} passage {k}: bad bseg side {p.bseg_side!r}", (curve.id, k))
        if not report.diagnostics:
            rays_at.append((word[p.entry], word[p.exit]))
    if not report.ok:
        return report

    closed, last = curve.closed, len(ps) - 1
    arc_rays = 2 * len(surface.arcs)
    for k, (p, (r_entry, r_exit)) in enumerate(zip(ps, rays_at)):
        entry_is_b = r_entry >= arc_rays
        exit_is_b = r_exit >= arc_rays
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

    # Consecutive passages must cross the two occurrences of one arc: the
    # side entered leaves by the other ray of the arc of the side exited.
    if not closed and len(ps) < 2:
        report.add(INVALID_CURVE, f"open curve {curve.id!r} crosses no arc", (curve.id,))
        return report
    for k in range(len(ps) if closed else last):
        nxt = (k + 1) % len(ps)
        r_out, r_in = rays_at[k][1], rays_at[nxt][0]
        if r_out >= arc_rays or r_in >= arc_rays:
            continue
        if r_in != r_out ^ 1:
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
    _require_valid(surface)
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
    _require_valid(s1)
    _require_valid(s2)
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

# What each kind of id may not hold: whitespace, and the separators of the
# records that name it, in polygon words (``,`` and ``:``), curve passages
# (``,``, ``;`` and parentheses) and the involution entries (``<->``, and
# ``~rev`` at the end of an arc id).
_UNWRITABLE = {
    "point": re.compile(r"\s|<->"),
    "bseg": re.compile(r"[\s,:]"),
    "arc": re.compile(r"[\s,:]|<->|~rev\Z"),
    "poly": re.compile(r"[\s,;()]"),
}
_WHITESPACE = re.compile(r"\s")


def _id_fault(kind: str, ident: str) -> Optional[str]:
    """Why the file format cannot carry ``ident`` as the id of a ``kind``
    record, or ``None`` when it can."""
    if not ident:
        return f"{kind} id is empty"
    found = _UNWRITABLE.get(kind, _WHITESPACE).search(ident)
    return f"{kind} id {ident!r} holds {found.group()!r}" if found else None


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
        unwritable = _UNWRITABLE.get(head)
        if unwritable and len(tokens) > 1 and unwritable.search(tokens[1]):
            raise _syntax(ln, _id_fault(head, tokens[1]))
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
    _require_valid(surface)
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
    """The file text of ``sf``.  ``BAD_INPUT`` names each id that the
    format cannot carry: an empty one, or one holding whitespace or a
    separator of the records that name it."""
    s = sf.surface
    named = [("surface", s.name)]
    for kind, records in (
        ("point", s.points),
        ("bseg", s.bsegs),
        ("arc", s.arcs),
        ("poly", s.polygons),
        ("curve", sf.curves.values()),
    ):
        named += [(kind, r.id) for r in records]
    report = Report()
    for kind, ident in named:
        fault = _id_fault(kind, ident)
        if fault:
            report.add(BAD_INPUT, fault, (ident,))
    raise_on_error(report)
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
