"""Winding numbers along curves transverse to a dissection, the windings
of the canonical boundary and point curves, dual arc systems with integer
gradings, the projective presentations graded arcs encode, and
derived-equivalence deciders built from these winding invariants.

Curves are chains of polygon :class:`~skewgentle.surface.Passage` records;
each passage contributes ``+1`` when the polygon's boundary segment lies
left of the directed chord and ``-1`` when right.  The orientation
conventions are fixed package-wide: boundary curves keep the boundary on
their left, point loops run counterclockwise.  A global sign flip of all
winding numbers describes the same line field, so deciders only ever
compare values produced under this one convention.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import PathAlgebra, Vector, graded_path_algebra, vadd
from .covering import double_cover, lift_curve
from .diagnostics import (
    BAD_INPUT,
    INCONSISTENT,
    INVALID_CURVE,
    NOT_A_COMPLEX,
    UNKNOWN_ID,
    WINDING_MISMATCH,
    Report,
    error,
    raise_on_error,
)
from .presentations import extract_quiver
from .surface import (
    BOUNDARY,
    ORBIFOLD,
    PUNCTURE,
    BoundaryComponent,
    CombinatorialCurve,
    DissectedSurface,
    Passage,
    Polygon,
    SurfaceInvolution,
    _moved_passages,
    _require_valid,
    boundary_components,
    crossing_steps,
    curve_crossings,
    passage_winding,
    topology,
    validate,
    validate_curve,
    validate_involution,
)

__all__ = [
    "ComplexPresentation",
    "EquivalenceVerdict",
    "EQUIVALENT",
    "GradedArc",
    "INCONCLUSIVE",
    "InvariantTuple",
    "NOT_EQUIVALENT",
    "build_complex",
    "canonical_windings",
    "cover_invariant_tuple",
    "decide_ghat_equiv",
    "decide_tilting_equiv",
    "dual_dissection",
    "graded_arcs_from_solution",
    "grading_solver",
    "invariant_tuple",
    "is_dual_dissection",
    "map_graded_arc",
    "verify_d2",
    "winding",
]


# ---------------------------------------------------------------------------
# Winding numbers


def winding(surface: DissectedSurface, curve: CombinatorialCurve) -> int:
    """Total winding of a closed transverse curve: the sum of the
    per-passage contributions (+1 bseg left, -1 bseg right)."""
    raise_on_error(validate_curve(surface, curve))
    if not curve.closed:
        raise error(
            INVALID_CURVE,
            f"winding needs a closed curve, got open {curve.id!r}",
            (curve.id,),
        )
    return sum(passage_winding(p) for p in curve.passages)


# ---------------------------------------------------------------------------
# Canonical windings: boundary parallels and point loops


def _bseg_polygon(surface: DissectedSurface, bseg: str) -> Polygon:
    """The polygon of boundary segment ``bseg``; ``BAD_INPUT`` when the
    segment is its only side, as its boundary component then meets no
    arc."""
    poly = surface.polygon_by_id[surface.bseg_occurrence[bseg][0]]
    if len(poly.sides) == 1:
        raise error(BAD_INPUT, f"boundary component of {bseg!r} meets no arc", (bseg,))
    return poly


def _trace_boundary(surface: DissectedSurface, start_bseg: str) -> CombinatorialCurve:
    """Closed curve parallel to the boundary component of ``start_bseg``,
    oriented with the boundary on its left.

    Per boundary segment one chord between the sides flanking it; per
    marked point a fan of corner passages walking its arc rays.  From
    each passage the walk crosses its exit arc to the other occurrence,
    then turns right around the corner behind it.  The corner behind
    side 1 is the boundary segment's, passed by the chord from side 1 to
    the last side with the segment on its left.
    """
    polygon_by_id, occurrences = surface.polygon_by_id, surface.occurrences
    first = _bseg_polygon(surface, start_bseg)
    home = (first.id, 1, len(first.sides) - 1, "left")
    passages = [Passage(*home)]
    pid, exit = first.id, home[2]
    while True:
        side = polygon_by_id[pid].sides[exit]
        pid, u = occurrences[(side.ref, -side.direction)]
        if u == 1:
            step = (pid, 1, len(polygon_by_id[pid].sides) - 1, "left")
        else:
            step = (pid, u, u - 1, "right")
        if step == home:
            break
        passages.append(Passage(*step))
        exit = step[2]
    curve = CombinatorialCurve(f"boundary.{start_bseg}", True, tuple(passages))
    raise_on_error(validate_curve(surface, curve))
    return curve


def _boundary_windings(
    surface: DissectedSurface, components: Sequence[BoundaryComponent]
) -> list[int]:
    """The winding of each component's parallel curve: its boundary
    segments minus the corners between two arc sides at its marked points
    (see :func:`invariant_tuple`).  A component that meets no arc is
    refused as :func:`_trace_boundary` refuses it."""
    corners, polygon_by_id = surface.corners_at_point, surface.polygon_by_id
    windings = []
    for bc in components:
        _bseg_polygon(surface, min(bc.bsegs))
        turns = 0
        for m in bc.marked:
            for pid, i in corners[m]:
                if 0 < i < len(polygon_by_id[pid].sides) - 1:
                    turns += 1
        windings.append(len(bc.bsegs) - turns)
    return windings


def canonical_windings(surface: DissectedSurface) -> list[tuple[str, int]]:
    """``(curve id, winding)`` of the canonical curves: ``boundary.<least
    boundary segment>`` per boundary component, in
    :func:`~skewgentle.surface.boundary_components` order, then
    ``loop.<point>`` per interior point, sorted by id.  The windings are
    read off corner counts as :func:`invariant_tuple` reads them, with no
    curve traced; a disconnected surface is read too."""
    _require_valid(surface)
    components = boundary_components(surface)
    pairs = [
        (f"boundary.{min(bc.bsegs)}", w)
        for bc, w in zip(components, _boundary_windings(surface, components))
    ]
    corners = surface.corners_at_point
    interior = sorted(p.id for p in surface.points if p.kind != BOUNDARY)
    return pairs + [(f"loop.{p}", -len(corners[p])) for p in interior]


# ---------------------------------------------------------------------------
# Dual arc systems


def dual_dissection(surface: DissectedSurface) -> list[CombinatorialCurve]:
    """The canonical dual arc system: one open curve per dissection arc,
    joining the midpoints of the boundary segments of its two flanking
    polygons through a single crossing of that arc (a dual system in the
    sense of :func:`is_dual_dissection`)."""
    _require_valid(surface)
    out = []
    for a in sorted(surface.arc_by_id):
        p1, i1 = surface.occurrences[(a, 1)]
        p2, i2 = surface.occurrences[(a, -1)]
        out.append(
            CombinatorialCurve(
                f"dual.{a}",
                False,
                (Passage(p1, 0, i1, "right"), Passage(p2, i2, 0, "right")),
            )
        )
    return out


def _green_of(surface: DissectedSurface, poly_id: str) -> str:
    """The boundary segment (green midpoint) of a polygon."""
    return surface.polygon_by_id[poly_id].sides[0].ref


def is_dual_dissection(
    surface: DissectedSurface, curves: Sequence[CombinatorialCurve]
) -> Report:
    """Check that open curves form a dual system for the dissection: they
    cut the surface into discs that each hold one dissection point
    (Opper--Plamondon--Schroll, arXiv 1801.09659).

    Requirements: every curve is valid and open with its own id, crosses
    exactly one arc, and every arc is crossed exactly once.  When the C
    curves cross each of the n arcs once, one arc per curve is the disc
    condition: in their overlay with the boundary (vertices the boundary
    marked points, segment midpoints and crossings) marked points and
    midpoints are equally many and a crossing adds a vertex and an edge,
    so V - E = -C and there are chi + C regions.  One point per disc
    makes that P, the number of dissection points, and chi = P - n, so
    C = n and each curve crosses exactly one arc.  Such a curve is the
    canonical dual of its arc up to direction, and the canonical duals
    cut out the stars of the points.
    """
    report = validate(surface)
    if not report.ok:
        return report
    seen: set[str] = set()
    for c in curves:
        report.extend(validate_curve(surface, c))
        if c.closed:
            report.add(BAD_INPUT, f"curve {c.id!r} must be open", (c.id,))
        if c.id in seen:
            report.add(BAD_INPUT, f"duplicate curve id {c.id!r}", (c.id,))
        seen.add(c.id)
    if not report.ok:
        return report
    crossing_count = {a.id: 0 for a in surface.arcs}
    for c in curves:
        crossed = curve_crossings(surface, c)
        if len(crossed) != 1:
            report.add(
                BAD_INPUT, f"curve {c.id!r} crosses {len(crossed)} arcs (need one)", (c.id,)
            )
        for a in crossed:
            crossing_count[a] += 1
    for a, k in sorted(crossing_count.items()):
        if k != 1:
            report.add(BAD_INPUT, f"arc {a!r} is crossed {k} times (need exactly once)", (a,))
    return report


# ---------------------------------------------------------------------------
# Graded arcs and the grading solver


@dataclass(frozen=True)
class GradedArc:
    """An open or closed transverse curve with an integer grade at each
    crossing; along the curve consecutive grades differ by the winding
    contribution of the passage between them."""

    curve: CombinatorialCurve
    grades: tuple[int, ...]


def grading_solver(
    surface: DissectedSurface,
    curves: Sequence[CombinatorialCurve],
    symmetric_pairs: Optional[Sequence[tuple[str, str]]] = None,
) -> dict[tuple[str, int], int]:
    """Solve for compatible integer grades at all crossings, keyed by
    ``(curve id, crossing index)``.

    Constraints: along each curve consecutive crossing grades differ by
    the winding of the passage between them; open curves ending at the
    same segment midpoint have equal terminal crossing grades; curves
    listed in ``symmetric_pairs`` carry equal grades crossing by
    crossing.  Each connected constraint block is pinned at 0 on its
    smallest variable; a caller may shift a block's grades together.
    Contradictory constraints raise an ``INCONSISTENT`` diagnostic with
    the clashing values, all of them together.
    """
    report = Report()
    _require_valid(surface)
    by_id: dict[str, CombinatorialCurve] = {}
    for c in curves:
        raise_on_error(validate_curve(surface, c))
        if c.id in by_id:
            raise error(BAD_INPUT, f"duplicate curve id {c.id!r}", (c.id,))
        by_id[c.id] = c

    variables: list[tuple[str, int]] = []
    constraints: list[tuple[tuple[str, int], tuple[str, int], int, str]] = []
    ends: dict[str, list[tuple[str, int]]] = {}
    for c in curves:
        ps = c.passages
        m, steps = crossing_steps(c)
        variables.extend((c.id, k) for k in range(m))
        constraints.extend(
            ((c.id, before), (c.id, after), passage_winding(ps[j]), f"passage {j} of {c.id!r}")
            for j, before, after in steps
        )
        if not c.closed:
            ends.setdefault(_green_of(surface, ps[0].polygon), []).append((c.id, 0))
            ends.setdefault(_green_of(surface, ps[-1].polygon), []).append(
                (c.id, m - 1)
            )
    for g, vs in sorted(ends.items()):
        for u, v in zip(vs, vs[1:]):
            constraints.append((u, v, 0, f"shared endpoint on segment {g!r}"))
    for ida, idb in symmetric_pairs or []:
        ca, cb = by_id.get(ida), by_id.get(idb)
        if ca is None or cb is None:
            raise error(UNKNOWN_ID, f"unknown curve in pair {(ida, idb)!r}", (ida, idb))
        ma = crossing_steps(ca)[0]
        if ma != crossing_steps(cb)[0]:
            raise error(
                BAD_INPUT,
                f"symmetric pair {(ida, idb)!r} crossing counts differ",
                (ida, idb),
            )
        constraints.extend(
            ((ida, k), (idb, k), 0, f"symmetry of {ida!r} and {idb!r}")
            for k in range(ma)
        )

    adjacency: dict[tuple[str, int], list[tuple[tuple[str, int], int, str]]] = {
        v: [] for v in variables
    }
    for u, v, delta, why in constraints:
        adjacency[u].append((v, delta, why))
        adjacency[v].append((u, -delta, why))

    values: dict[tuple[str, int], int] = {}

    def flood(root: tuple[str, int], val: int) -> None:
        values[root] = val
        queue = [root]
        while queue:
            u = queue.pop()
            for v, delta, why in adjacency[u]:
                want = values[u] + delta
                if v in values:
                    if values[v] != want:
                        report.add(
                            INCONSISTENT,
                            f"crossing {v!r}: {why} forces grade {want} but "
                            f"{values[v]} was already derived",
                            (v, want, values[v]),
                        )
                else:
                    values[v] = want
                    queue.append(v)

    for var in sorted(variables):
        if var not in values:
            flood(var, 0)

    raise_on_error(report)
    return values


def graded_arcs_from_solution(
    curves: Sequence[CombinatorialCurve], values: dict[tuple[str, int], int]
) -> list[GradedArc]:
    """Attach the grades of :func:`grading_solver` to their curves;
    ``BAD_INPUT`` names a crossing that ``values`` has no grade for."""
    out = []
    for c in curves:
        keys = [(c.id, k) for k in range(crossing_steps(c)[0])]
        missing = next((key for key in keys if key not in values), None)
        if missing is not None:
            raise error(BAD_INPUT, f"no grade for crossing {missing!r}", missing)
        out.append(GradedArc(c, tuple(values[key] for key in keys)))
    return out


def map_graded_arc(
    surface: DissectedSurface, involution: SurfaceInvolution, garc: GradedArc
) -> GradedArc:
    """Push a graded arc through a surface involution; passages keep their
    slots and declared sides, and grades travel with the crossings."""
    raise_on_error(validate_involution(surface, involution))
    raise_on_error(validate_curve(surface, garc.curve))
    moved = CombinatorialCurve(
        garc.curve.id + ".inv",
        garc.curve.closed,
        _moved_passages(involution, garc.curve.passages),
    )
    raise_on_error(validate_curve(surface, moved))
    return GradedArc(moved, garc.grades)


# ---------------------------------------------------------------------------
# Complex presentations


@dataclass
class ComplexPresentation:
    """Projective data read off a graded arc over the dissection algebra:
    one summand (vertex, shift) per crossing and corner-path differential
    entries keyed ``(target summand, source summand)``."""

    algebra: PathAlgebra
    summands: tuple[tuple[str, int], ...]
    differential: dict[tuple[int, int], Vector]


def build_complex(garc: GradedArc, surface: DissectedSurface) -> ComplexPresentation:
    """Presentation carried by a graded arc: each crossing contributes the
    projective at the crossed arc, shifted by its grade, and each passage
    between two crossings contributes the path of corner arrows walked
    inside the polygon on the side away from the boundary segment.  The
    entry sits over the passage's winding sign: grade-raising passages map
    the later crossing to the earlier, grade-lowering ones the reverse.

    Around a closed curve the grade differences sum to its winding, so
    only a closed curve of winding 0 can be graded."""
    curve = garc.curve
    raise_on_error(validate_curve(surface, curve))
    if curve.closed:
        total = winding(surface, curve)
        if total:
            raise error(
                BAD_INPUT,
                f"closed curve {curve.id!r} has winding {total}; "
                "only a curve of winding 0 can be graded",
                (curve.id,),
            )
    crossings = curve_crossings(surface, curve)
    if len(garc.grades) != len(crossings):
        raise error(
            BAD_INPUT,
            f"graded arc {curve.id!r} has {len(garc.grades)} grades "
            f"for {len(crossings)} crossings",
            (curve.id,),
        )
    ext = extract_quiver(surface)
    alg = graded_path_algebra(ext.presentation)
    arrow_at = {corner: aid for aid, corner in ext.corner_of_arrow.items()}

    ps = curve.passages
    _, steps = crossing_steps(curve)
    for j, prev, nxt in steps:
        if garc.grades[nxt] - garc.grades[prev] != passage_winding(ps[j]):
            raise error(
                BAD_INPUT,
                f"grades of {curve.id!r} do not follow the winding "
                f"of passage {j}",
                (curve.id, j),
            )

    differential: dict[tuple[int, int], Vector] = {}
    for j, prev, nxt in steps:
        p = ps[j]
        e, x = p.entry, p.exit
        if e == x:
            raise error(
                BAD_INPUT,
                f"same-slot passage {j} of {curve.id!r} has no corner "
                "path",
                (curve.id, j),
            )
        if passage_winding(p) == 1:
            lo, hi, row, col = e, x, nxt, prev
        else:
            lo, hi, row, col = x, e, prev, nxt
        arrows = tuple(arrow_at[(p.polygon, i)] for i in range(lo, hi))
        src = surface.polygon_by_id[p.polygon].sides[lo].ref
        value = alg.reduce((src, arrows))
        if not value:
            raise error(
                BAD_INPUT,
                f"corner path of passage {j} of {curve.id!r} vanishes "
                "in the algebra",
                (curve.id, j),
            )
        differential[(row, col)] = value

    cx = ComplexPresentation(
        alg, tuple(zip(crossings, garc.grades)), differential
    )
    if not verify_d2(cx):
        raise error(
            NOT_A_COMPLEX,
            f"differential of {curve.id!r} does not square to zero",
            (curve.id,),
        )
    return cx


def verify_d2(cx: ComplexPresentation) -> bool:
    """True iff the differential squares to zero in the algebra."""
    alg = cx.algebra.algebra
    n = len(cx.summands)
    for i in range(n):
        for j in range(n):
            total: Vector = {}
            for k in range(n):
                left = cx.differential.get((i, k))
                right = cx.differential.get((k, j))
                if left and right:
                    total = vadd(total, alg.mul(left, right))
            if any(total.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# Invariant tuples and deciders


@dataclass(frozen=True)
class InvariantTuple:
    """Genus plus the sorted multiset of (winding, marked-point count,
    kind) entries over boundary components and interior points."""

    genus: int
    entries: tuple[tuple[int, int, str], ...]


def invariant_tuple(surface: DissectedSurface) -> InvariantTuple:
    """Winding invariants of the dissection's line field: per boundary
    component the winding of its parallel curve and its marked-point
    count; per interior point the winding of its loop.

    Each winding is read off the corners the surface walk records, with
    no curve traced.  A boundary component winds by its number of
    boundary segments minus the number of corners between two arc sides
    (slots 1 to k - 2 of a k-gon) at its marked points; an interior
    point winds by minus its number of corners.  This is the sum over the
    canonical curves (``+1`` per ``left`` passage, ``-1`` per ``right``):
    the boundary curve passes one ``left`` chord per boundary segment and
    one ``right`` passage per arc-arc corner at its points, and the point
    loop one ``right`` passage per corner at its point, each corner once,
    since on a valid surface the rays at a point form one chain or
    cycle."""
    _require_valid(surface)
    top = topology(surface)
    if not top.connected:
        raise error(BAD_INPUT, "invariant tuples are defined for connected surfaces")
    entries = [
        (w, len(bc.marked), BOUNDARY)
        for bc, w in zip(top.boundary, _boundary_windings(surface, top.boundary))
    ]
    corners = surface.corners_at_point
    for kind, pts in ((PUNCTURE, top.punctures), (ORBIFOLD, top.orbifold_points)):
        entries.extend((-len(corners[p]), 0, kind) for p in pts)
    if top.genus is None:
        raise error(
            BAD_INPUT, f"connected surface {surface.name!r} has no genus", (surface.name,)
        )
    return InvariantTuple(top.genus, tuple(sorted(entries)))


def cover_invariant_tuple(surface: DissectedSurface) -> InvariantTuple:
    """Invariant tuple of the canonical branched double cover, with the
    boundary windings cross-checked against lifts of the base boundary
    curves (closed lifts keep the winding; a doubled lift carries twice
    the base winding).  The base and cover windings are read off corner
    counts, the lifted ones summed along the traced and lifted curves, so
    the two routes are independent.  A disagreement raises
    ``WINDING_MISMATCH``.

    A dissection without orbifold points is refused with ``BAD_INPUT``,
    after its own findings: its canonical cover is two disjoint copies of
    it, which have no invariant tuple."""
    _require_valid(surface)
    if all(p.kind != ORBIFOLD for p in surface.points):
        raise error(
            BAD_INPUT,
            f"the canonical double cover of {surface.name!r} is two disjoint "
            "copies of it: it has no orbifold point",
            (surface.name,),
        )
    cov = double_cover(surface)
    direct = invariant_tuple(cov.total)
    report = Report()
    lifted: list[int] = []
    components = boundary_components(surface)
    for bc, w in zip(components, _boundary_windings(surface, components)):
        lift = lift_curve(cov, _trace_boundary(surface, min(bc.bsegs)))
        wl = winding(cov.total, lift.curve)
        expected = 2 * w if lift.doubled else w
        if wl != expected:
            report.add(
                WINDING_MISMATCH,
                f"boundary {bc.bsegs} has winding {w}, its "
                f"{'doubled' if lift.doubled else 'closed'} lift {wl} "
                f"(expected {expected})",
                (bc.bsegs, w, wl),
            )
        lifted.extend([wl] if lift.doubled else [wl, wl])
    lifted.sort()
    direct_ws = sorted(e[0] for e in direct.entries if e[2] == BOUNDARY)
    if lifted != direct_ws:
        report.add(
            WINDING_MISMATCH,
            f"lifted boundary windings {lifted} differ from the cover's own "
            f"{direct_ws}",
            (tuple(lifted), tuple(direct_ws)),
        )
    raise_on_error(report)
    return direct


EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str
    details: tuple[str, ...]


def decide_tilting_equiv(
    s1: DissectedSurface, s2: DissectedSurface
) -> EquivalenceVerdict:
    """Compare the winding invariant tuples of two dissections.

    Genus 0: the tuple is a complete invariant, so matching tuples decide
    EQUIVALENT.  Higher genus: a mismatch decides NOT_EQUIVALENT, a match
    is INCONCLUSIVE (the tuple is only a partial invariant there).
    """
    t1, t2 = invariant_tuple(s1), invariant_tuple(s2)
    notes = (
        f"left: genus {t1.genus}, entries {t1.entries}",
        f"right: genus {t2.genus}, entries {t2.entries}",
    )
    if t1.genus != t2.genus:
        return EquivalenceVerdict(NOT_EQUIVALENT, (*notes, "genus differs"))
    if t1.entries != t2.entries:
        return EquivalenceVerdict(
            NOT_EQUIVALENT, (*notes, "winding invariants differ")
        )
    if t1.genus == 0:
        return EquivalenceVerdict(
            EQUIVALENT, (*notes, "genus 0: matching invariants decide")
        )
    return EquivalenceVerdict(
        INCONCLUSIVE,
        (*notes, "matching invariants do not decide above genus 0"),
    )


def decide_ghat_equiv(
    s1: DissectedSurface, s2: DissectedSurface
) -> EquivalenceVerdict:
    """Necessary-condition check on the canonical double covers: compare
    cover invariant tuples and branch-point counts.  Any mismatch decides
    NOT_EQUIVALENT; a full match is only ever INCONCLUSIVE.

    NOT_EQUIVALENT is a statement about the two canonical slit covers, the
    ones :func:`~skewgentle.covering.double_cover` builds from the
    dissections' slits: no derived equivalence lifts to that pair of
    covers.  It is not a proof that the two algebras are not derived
    equivalent, since an orbifold of genus 0 with b boundary components
    has 2^(b-1) branched double covers and two dissections may double
    different boundary components."""
    c1, c2 = cover_invariant_tuple(s1), cover_invariant_tuple(s2)
    n1 = sum(1 for p in s1.points if p.kind == ORBIFOLD)
    n2 = sum(1 for p in s2.points if p.kind == ORBIFOLD)
    notes = (
        f"left cover: genus {c1.genus}, entries {c1.entries}, "
        f"{n1} branch points",
        f"right cover: genus {c2.genus}, entries {c2.entries}, "
        f"{n2} branch points",
    )
    if c1.genus != c2.genus:
        return EquivalenceVerdict(NOT_EQUIVALENT, (*notes, "cover genus differs"))
    if n1 != n2:
        return EquivalenceVerdict(
            NOT_EQUIVALENT, (*notes, "branch point counts differ")
        )
    if c1.entries != c2.entries:
        return EquivalenceVerdict(
            NOT_EQUIVALENT, (*notes, "cover winding invariants differ")
        )
    return EquivalenceVerdict(
        INCONCLUSIVE, (*notes, "necessary conditions all match")
    )
