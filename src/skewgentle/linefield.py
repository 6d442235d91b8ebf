"""Winding numbers along curves transverse to a dissection, the canonical
boundary and point curves, dual arc systems with integer gradings, the
projective presentations graded arcs encode, and derived-equivalence
deciders built from these winding invariants.

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
    BOUNDARY_POINT,
    INCONSISTENT,
    INVALID_CURVE,
    NOT_A_COMPLEX,
    NOT_CONNECTED_TO_ANCHOR,
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
    CombinatorialCurve,
    DissectedSurface,
    Passage,
    SurfaceInvolution,
    _moved_passages,
    boundary_components,
    crossing_steps,
    curve_crossings,
    passage_winding,
    topology,
    validate,
    validate_curve,
)

__all__ = [
    "ComplexPresentation",
    "EquivalenceVerdict",
    "EQUIVALENT",
    "GradedArc",
    "INCONCLUSIVE",
    "InvariantTuple",
    "NOT_EQUIVALENT",
    "boundary_curves",
    "build_complex",
    "cover_invariant_tuple",
    "decide_ghat_equiv",
    "decide_tilting_equiv",
    "dual_dissection",
    "graded_arcs_from_solution",
    "grading_solver",
    "invariant_tuple",
    "is_dual_dissection",
    "map_graded_arc",
    "puncture_loop",
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
# Canonical curves: boundary parallels and point loops


def _trace_boundary(surface: DissectedSurface, start_bseg: str) -> CombinatorialCurve:
    """Closed curve parallel to the boundary component of ``start_bseg``,
    oriented with the boundary on its left.

    Per boundary segment one chord between the sides flanking it; per
    marked point a fan of corner passages walking its arc rays.
    """
    start_poly, _ = surface.bseg_occurrence[start_bseg]
    first = surface.polygon_by_id[start_poly]
    n = len(first.sides) - 1
    if n == 0:
        raise error(
            BAD_INPUT,
            f"boundary component of {start_bseg!r} meets no arc",
            (start_bseg,),
        )
    passages = [Passage(first.id, 1, n, "left")]
    while True:
        last = passages[-1]
        s_out = surface.polygon_by_id[last.polygon].sides[last.exit]
        pid, u = surface.occurrences[(s_out.ref, -s_out.direction)]
        if u == 1:
            if pid == first.id:
                break
            m = len(surface.polygon_by_id[pid].sides) - 1
            passages.append(Passage(pid, 1, m, "left"))
        else:
            passages.append(Passage(pid, u, u - 1, "right"))
    curve = CombinatorialCurve(f"boundary.{start_bseg}", True, tuple(passages))
    raise_on_error(validate_curve(surface, curve))
    return curve


def boundary_curves(surface: DissectedSurface) -> list[CombinatorialCurve]:
    """One canonical parallel curve per boundary component."""
    raise_on_error(validate(surface))
    return [
        _trace_boundary(surface, min(bc.bsegs))
        for bc in boundary_components(surface)
    ]


def puncture_loop(surface: DissectedSurface, point_id: str) -> CombinatorialCurve:
    """Counterclockwise loop around an interior dissection point.

    One corner passage per arc ray at the point; a point carrying a single
    arc end (the slit case) yields one passage hugging that arc.
    """
    raise_on_error(validate(surface))
    pt = surface.point_by_id.get(point_id)
    if pt is None:
        raise error(UNKNOWN_ID, f"unknown point {point_id!r}", (point_id,))
    if pt.kind == BOUNDARY:
        raise error(
            BOUNDARY_POINT,
            f"point {point_id!r} lies on the boundary; loops surround "
            "interior points only",
            (point_id,),
        )
    corners = surface.corners_at_point[point_id]
    start = min(corners)
    passages = []
    cur = start
    while True:
        pid, i = cur
        passages.append(Passage(pid, i + 1, i, "right"))
        s_i = surface.polygon_by_id[pid].sides[i]
        qid, u = surface.occurrences[(s_i.ref, -s_i.direction)]
        cur = (qid, u - 1)
        if cur == start:
            break
    if len(passages) != len(corners):
        raise error(
            BAD_INPUT,
            f"the loop around {point_id!r} passes {len(passages)} of its "
            f"{len(corners)} corners",
            (point_id,),
        )
    curve = CombinatorialCurve(f"loop.{point_id}", True, tuple(passages))
    raise_on_error(validate_curve(surface, curve))
    return curve


# ---------------------------------------------------------------------------
# Dual arc systems


def dual_dissection(surface: DissectedSurface) -> list[CombinatorialCurve]:
    """The canonical dual arc system: one open curve per dissection arc,
    joining the midpoints of the boundary segments of its two flanking
    polygons through a single crossing.  The output is checked to be a
    dual system (see :func:`is_dual_dissection`)."""
    raise_on_error(validate(surface))
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
    raise_on_error(is_dual_dissection(surface, out))
    return out


def _green_of(surface: DissectedSurface, poly_id: str) -> str:
    """The boundary segment (green midpoint) of a polygon."""
    return surface.polygon_by_id[poly_id].sides[0].ref


def is_dual_dissection(
    surface: DissectedSurface, curves: Sequence[CombinatorialCurve]
) -> Report:
    """Check that open curves form a dual system for the dissection.

    Requirements: every curve is open and valid, every dissection arc is
    crossed exactly once over all curves, and each region the curves and
    the boundary cut the surface into is a disc containing exactly one
    dissection point (on its boundary walk or swept at a crossing).  The
    regions are found by tracing the faces of the overlay graph whose
    vertices are boundary marked points, segment midpoints, and crossings.
    """
    report = Report()
    raise_on_error(validate(surface))
    crossing_count = {a.id: 0 for a in surface.arcs}
    crossings_by_curve: dict[str, list[str]] = {}
    for c in curves:
        sub = validate_curve(surface, c)
        if not sub.ok:
            report.extend(sub)
            continue
        if c.closed:
            report.add(BAD_INPUT, f"curve {c.id!r} must be open", (c.id,))
            continue
        if c.id in crossings_by_curve:
            report.add(BAD_INPUT, f"duplicate curve id {c.id!r}", (c.id,))
            continue
        crossed = curve_crossings(surface, c)
        crossings_by_curve[c.id] = crossed
        for a in crossed:
            crossing_count[a] += 1
    if not report.ok:
        return report
    for a, k in sorted(crossing_count.items()):
        if k != 1:
            report.add(
                BAD_INPUT,
                f"arc {a!r} is crossed {k} times (need exactly once)",
                (a,),
            )
    if not report.ok:
        return report

    # Overlay graph.  Nodes: ("m", point) boundary marked points, ("g",
    # bseg) segment midpoints, ("c", curve, k) crossings.  Edges: two
    # halves per boundary segment and the chord segments of each curve.
    edges: list[tuple[tuple, tuple]] = []
    edge_kind: list[str] = []  # "bh" (boundary half, directed 0 -> 1) | "seg"
    rot: dict[tuple, list[tuple[int, int]]] = {}
    side_of_germ: dict[tuple[int, int], int] = {}
    crossing_arc: dict[tuple, str] = {}

    green_germs: dict[str, list[tuple[int, tuple[int, int]]]] = {}
    bseg_germs: dict[str, dict[str, tuple[int, int]]] = {}
    for b in surface.bsegs:
        e1 = len(edges)
        edges.append((("m", b.tail), ("g", b.id)))
        edge_kind.append("bh")
        e2 = len(edges)
        edges.append((("g", b.id), ("m", b.head)))
        edge_kind.append("bh")
        green_germs[b.id] = []
        bseg_germs[b.id] = {"fwd": (e2, 0), "bwd": (e1, 1)}

    for c in curves:
        ps = c.passages
        m = len(ps) - 1
        chain: list[tuple] = [("g", _green_of(surface, ps[0].polygon))]
        chain += [("c", c.id, k) for k in range(m)]
        chain.append(("g", _green_of(surface, ps[-1].polygon)))
        for k in range(m):
            crossing_arc[("c", c.id, k)] = crossings_by_curve[c.id][k]
        for t in range(len(chain) - 1):
            e = len(edges)
            edges.append((chain[t], chain[t + 1]))
            edge_kind.append("seg")
            poly = surface.polygon_by_id[ps[t].polygon]
            if t == 0:
                green_germs[chain[0][1]].append((ps[0].exit, (e, 0)))
            else:
                side_of_germ[(e, 0)] = poly.sides[ps[t].entry].direction
            if t == len(chain) - 2:
                green_germs[chain[-1][1]].append((ps[-1].entry, (e, 1)))
            else:
                side_of_germ[(e, 1)] = poly.sides[ps[t].exit].direction

    # Rotations (counterclockwise germ order at each node).
    for b in surface.bsegs:
        duals = [g for _, g in sorted(green_germs[b.id])]
        rot[("g", b.id)] = [bseg_germs[b.id]["fwd"], *duals, bseg_germs[b.id]["bwd"]]
    for e, (n0, n1) in enumerate(edges):
        for end, node in ((0, n0), (1, n1)):
            if node[0] in ("m", "c"):
                rot.setdefault(node, []).append((e, end))
    for node, germs in rot.items():
        if len(germs) != 2 and node[0] != "g":
            report.add(BAD_INPUT, f"overlay node {node!r} has {len(germs)} germs, not 2", node)
    if not report.ok:
        return report

    # Left-face tracing: leave a node along a germ, arrive at the far end,
    # and continue along the clockwise-next (rotation predecessor) germ.
    visited: set[tuple[int, int]] = set()
    faces: list[list[tuple[int, int]]] = []
    for e0 in range(len(edges)):
        for s0 in (0, 1):
            if (e0, s0) in visited:
                continue
            walk = []
            cur = (e0, s0)
            while cur not in visited:
                visited.add(cur)
                walk.append(cur)
                e, s = cur
                node = edges[e][1 - s]
                germs = rot[node]
                r = germs.index((e, 1 - s))
                cur = germs[(r - 1) % len(germs)]
            if cur != walk[0]:
                report.add(
                    BAD_INPUT, f"overlay face from germ {walk[0]!r} closes at {cur!r}", walk[0]
                )
                return report
            faces.append(walk)

    n_interior = 0
    claimed = {p.id: 0 for p in surface.points}
    for walk in faces:
        exterior = any(edge_kind[e] == "bh" and s == 1 for e, s in walk)
        if exterior:
            continue
        n_interior += 1
        claims = set()
        for e, s in walk:
            node_from = edges[e][s]
            if node_from[0] == "m":
                claims.add(node_from[1])
            node_to = edges[e][1 - s]
            if node_to[0] == "c":
                # The face sweeps past the crossing on one side of the
                # crossed arc; it claims the arc end lying in that sector.
                arc = surface.arc_by_id[crossing_arc[node_to]]
                direction = side_of_germ[(e, 1 - s)]
                claims.add(arc.tail if direction == -1 else arc.head)
        if len(claims) != 1:
            report.add(
                BAD_INPUT,
                f"an overlay region contains {sorted(claims)!r} dissection "
                "points (need exactly 1)",
                tuple(sorted(claims)),
            )
            continue
        for p in claims:
            claimed[p] += 1
    if report.ok:
        for p, k in sorted(claimed.items()):
            if k != 1:
                report.add(
                    BAD_INPUT,
                    f"dissection point {p!r} lies in {k} overlay regions "
                    "(need exactly 1)",
                    (p,),
                )
    if report.ok:
        top = topology(surface)
        chi = sum(2 - 2 * ct.genus - len(ct.boundary) for ct in top.components)
        if len(rot) - len(edges) + n_interior != chi:
            report.add(
                BAD_INPUT,
                "overlay regions are not all discs "
                "(euler characteristic mismatch)",
                (),
            )
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
    anchors: Optional[dict[tuple[str, int], int]] = None,
    symmetric_pairs: Optional[Sequence[tuple[str, str]]] = None,
) -> dict[tuple[str, int], int]:
    """Solve for compatible integer grades at all crossings, keyed by
    ``(curve id, crossing index)``.

    Constraints: along each curve consecutive crossing grades differ by
    the winding of the passage between them; open curves ending at the
    same segment midpoint have equal terminal crossing grades; curves
    listed in ``symmetric_pairs`` carry equal grades crossing by
    crossing.  ``anchors`` pin named crossings to given values; without
    anchors each connected constraint block is pinned at its smallest
    variable.  Contradictory constraints raise an ``INCONSISTENT``
    diagnostic with the clashing values; with explicit anchors, blocks
    no anchor reaches raise ``NOT_CONNECTED_TO_ANCHOR``.  All findings
    are raised together.
    """
    report = Report()
    raise_on_error(validate(surface))
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

    if anchors:
        for var in sorted(anchors):
            if var not in adjacency:
                raise error(UNKNOWN_ID, f"unknown anchor {var!r}", var)
            if var in values:
                if values[var] != anchors[var]:
                    report.add(
                        INCONSISTENT,
                        f"anchor {var!r}={anchors[var]} clashes with derived "
                        f"value {values[var]}",
                        (var, anchors[var], values[var]),
                    )
            else:
                flood(var, anchors[var])
        for var in sorted(set(variables) - set(values)):
            if var not in values:
                report.add(
                    NOT_CONNECTED_TO_ANCHOR,
                    f"crossing {var!r} is not connected to any anchor",
                    var,
                )
                flood(var, 0)  # label the whole block to report it once
    else:
        for var in sorted(variables):
            if var not in values:
                flood(var, 0)

    raise_on_error(report)
    return values


def graded_arcs_from_solution(
    curves: Sequence[CombinatorialCurve], values: dict[tuple[str, int], int]
) -> list[GradedArc]:
    """Attach the grades of :func:`grading_solver` to their curves."""
    return [
        GradedArc(c, tuple(values[(c.id, k)] for k in range(crossing_steps(c)[0])))
        for c in curves
    ]


def map_graded_arc(
    surface: DissectedSurface, involution: SurfaceInvolution, garc: GradedArc
) -> GradedArc:
    """Push a graded arc through a surface involution; passages keep their
    slots and declared sides, and grades travel with the crossings."""
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
    count; per interior point the winding of its loop."""
    raise_on_error(validate(surface))
    top = topology(surface)
    if not top.connected:
        raise error(BAD_INPUT, "invariant tuples are defined for connected surfaces")
    entries = []
    for bc in top.boundary:
        w = winding(surface, _trace_boundary(surface, min(bc.bsegs)))
        entries.append((w, len(bc.marked), BOUNDARY))
    for kind, pts in ((PUNCTURE, top.punctures), (ORBIFOLD, top.orbifold_points)):
        for p in pts:
            entries.append((winding(surface, puncture_loop(surface, p)), 0, kind))
    if top.genus is None:
        raise error(
            BAD_INPUT, f"connected surface {surface.name!r} has no genus", (surface.name,)
        )
    return InvariantTuple(top.genus, tuple(sorted(entries)))


def cover_invariant_tuple(surface: DissectedSurface) -> InvariantTuple:
    """Invariant tuple of the canonical branched double cover, with the
    boundary windings cross-checked against lifts of the base boundary
    curves (closed lifts keep the winding; a doubled lift carries twice
    the base winding).  A disagreement raises ``WINDING_MISMATCH``."""
    cov = double_cover(surface)
    direct = invariant_tuple(cov.total)
    report = Report()
    lifted: list[int] = []
    for bc in boundary_components(surface):
        base = _trace_boundary(surface, min(bc.bsegs))
        w = winding(surface, base)
        lift = lift_curve(cov, base)
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
    NOT_EQUIVALENT; a full match is only ever INCONCLUSIVE."""
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
