"""Quivers with quadratic relations and their dissected-surface models.

A :class:`Presentation` is a finite quiver together with a set of quadratic
relations (each a formal sum of one or two length-two paths, all with
coefficient one) and an optional set of *special* loops.  Three shapes play
a role:

* gentle pairs -- monomial relations, no special loops
  (:func:`check_gentle`);
* skew-gentle triples -- monomial relations plus special loops whose
  squares are added when checking the underlying gentle shape
  (:func:`check_skew_gentle`);
* split presentations -- the special vertices are split in two and the
  relations through them become two-term sums
  (:func:`split_presentation`).

The module also converts between presentations and dissected surfaces:
:func:`quiver_from_dissection` / :func:`triple_from_x_dissection` read a
presentation off a dissection, and :func:`surface_from_gentle` /
:func:`surface_from_triple` rebuild the unique dissection realizing a
presentation.  Paths are written in application order: the tuple
``(a, b)`` is the path that first traverses ``a`` and then ``b``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .diagnostics import (
    BAD_INPUT,
    DEGREE_EXCEEDED,
    INFINITE_DIMENSIONAL,
    NOT_GENTLE,
    OVERGLUED_VERTEX,
    SUCCESSOR_CLASH,
    UNKNOWN_ID,
    Report,
    ValidationError,
    error,
    raise_on_error,
)
from .surface import (
    BOUNDARY,
    ORBIFOLD,
    PUNCTURE,
    Arc,
    BoundarySegment,
    DissectedSurface,
    MarkedPoint,
    Polygon,
    arc_side,
    bseg_side,
    classify_dissection,
    make_surface,
    validate,
)

Path = tuple[str, str]
Relation = tuple[Path, ...]  # one or two paths, summed with coefficient one


@dataclass(frozen=True, slots=True)
class Arrow:
    id: str
    source: str
    target: str


_NO_SPECIAL: frozenset = frozenset()  # shared by every presentation without loops


@dataclass(frozen=True)
class Presentation:
    """A quiver with relations; its cached lookups hold tuples."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]
    special: frozenset = _NO_SPECIAL

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def outgoing(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out.setdefault(a.source, []).append(a)
        return {v: tuple(sorted(lst, key=lambda a: a.id)) for v, lst in out.items()}

    @cached_property
    def incoming(self) -> dict[str, tuple[Arrow, ...]]:
        inc: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            inc.setdefault(a.target, []).append(a)
        return {v: tuple(sorted(lst, key=lambda a: a.id)) for v, lst in inc.items()}

    @cached_property
    def monomial_pairs(self) -> frozenset:
        """The length-two paths appearing as single-term relations."""
        return frozenset(r[0] for r in self.relations if len(r) == 1)


def make_presentation(
    vertices: Iterable[str],
    arrows: Iterable[Arrow],
    relations: Iterable[Sequence[Path]] = (),
    special: Iterable[str] = (),
) -> Presentation:
    """Normalize and freeze presentation data (sorted, deduplicated)."""
    rels = sorted({tuple(sorted(tuple(map(tuple, r)))) for r in relations})
    return Presentation(
        vertices=tuple(sorted(set(vertices))),
        arrows=tuple(sorted(set(arrows), key=lambda a: a.id)),
        relations=tuple(rels),
        special=frozenset(special) or _NO_SPECIAL,
    )


# ---------------------------------------------------------------------------
# Shape checks


def _check_ids(pres: Presentation, report: Report) -> None:
    seen_v: set[str] = set()
    for v in pres.vertices:
        if v in seen_v:
            report.add(BAD_INPUT, f"duplicate vertex id {v!r}", (v,))
        seen_v.add(v)
    seen_a: set[str] = set()
    for a in pres.arrows:
        if a.id in seen_a:
            report.add(BAD_INPUT, f"duplicate arrow id {a.id!r}", (a.id,))
        seen_a.add(a.id)
        for end in (a.source, a.target):
            if end not in seen_v:
                report.add(UNKNOWN_ID, f"arrow {a.id!r} endpoint {end!r} unknown", (a.id,))
    for rel in pres.relations:
        if len(rel) not in (1, 2):
            report.add(BAD_INPUT, f"relation {rel!r} is not a sum of one or two paths", (rel,))
            continue
        for path in rel:
            if len(path) != 2:
                report.add(BAD_INPUT, f"relation path {path!r} is not quadratic", (path,))
                continue
            for aid in path:
                if aid not in seen_a:
                    report.add(UNKNOWN_ID, f"relation mentions unknown arrow {aid!r}", (aid,))
    for s in pres.special:
        if s not in seen_a:
            report.add(UNKNOWN_ID, f"special arrow {s!r} unknown", (s,))


def _check_composability(pres: Presentation, report: Report) -> None:
    """Each relation path composes; a two-term relation sums parallel paths."""
    by_id = pres.arrow_by_id
    for rel in pres.relations:
        for a1, a2 in rel:
            if by_id[a1].target != by_id[a2].source:
                report.add(
                    BAD_INPUT,
                    f"relation path ({a1!r},{a2!r}) is not composable",
                    (a1, a2),
                )
        ends = {(by_id[p[0]].source, by_id[p[-1]].target) for p in rel}
        if len(ends) > 1:
            report.add(BAD_INPUT, f"relation {rel!r} sums paths that are not parallel", (rel,))


def _threads(
    ids: Sequence[str], succ: dict[str, str]
) -> tuple[list[list[str]], list[list[str]]]:
    """The maximal chains and the cycles of a successor map in which no
    arrow has two predecessors.

    Every arrow of ``ids`` lies on exactly one thread.  A chain starts at
    its arrow without a predecessor and a cycle at its first arrow in
    ``ids``; both lists follow the order of ``ids``.
    """
    has_pred = set(succ.values())
    chains: list[list[str]] = []
    for aid in ids:
        if aid not in has_pred:
            chain = [aid]
            while chain[-1] in succ:
                chain.append(succ[chain[-1]])
            chains.append(chain)
    seen = {aid for chain in chains for aid in chain}
    cycles: list[list[str]] = []
    for aid in ids:
        if aid not in seen:
            cycle = [aid]
            while succ[cycle[-1]] != aid:
                cycle.append(succ[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return chains, cycles


def _gentle_core(pres: Presentation, report: Report) -> None:
    """Degree, successor and finiteness conditions for a monomial pair."""
    pairs = pres.monomial_pairs
    for v in pres.vertices:
        if len(pres.outgoing[v]) > 2:
            report.add(DEGREE_EXCEEDED, f"vertex {v!r} has {len(pres.outgoing[v])} outgoing arrows", (v,))
        if len(pres.incoming[v]) > 2:
            report.add(DEGREE_EXCEEDED, f"vertex {v!r} has {len(pres.incoming[v])} incoming arrows", (v,))
    free_succ: dict[str, str] = {}
    for a in pres.arrows:
        ahead = [(a.id, b.id) for b in pres.outgoing[a.target]]
        behind = [(b.id, a.id) for b in pres.incoming[a.source]]
        for side, paths, other in (("successors", ahead, 1), ("predecessors", behind, 0)):
            for kind, killed in (("relation", True), ("relation-free", False)):
                ids = [path[other] for path in paths if (path in pairs) == killed]
                if len(ids) > 1:
                    report.add(
                        SUCCESSOR_CLASH,
                        f"arrow {a.id!r} has several {kind} {side} {ids!r}",
                        (a.id,),
                    )
        free_succ.update(path for path in ahead if path not in pairs)
    if not report.ok:
        return
    # A relation-free composable cycle makes the path algebra infinite
    # dimensional.
    _, cycles = _threads([a.id for a in pres.arrows], free_succ)
    if cycles:
        report.add(
            INFINITE_DIMENSIONAL,
            f"relation-free composable cycle {cycles[0]!r}",
            tuple(cycles[0]),
        )


def check_gentle(pres: Presentation) -> Report:
    """Validate a gentle pair: monomial relations, no special loops."""
    report = Report()
    _check_ids(pres, report)
    if not report.ok:
        return report
    if pres.special:
        report.add(BAD_INPUT, "special loops present; use check_skew_gentle", ())
    for rel in pres.relations:
        if len(rel) != 1:
            report.add(BAD_INPUT, f"two-term relation {rel!r} in a gentle pair", (rel,))
    if not report.ok:
        return report
    _check_composability(pres, report)
    if not report.ok:
        return report
    _gentle_core(pres, report)
    if not report.ok:
        report.add(NOT_GENTLE, "presentation is not a gentle pair", ())
    return report


def companion_pair(triple: Presentation) -> Presentation:
    """The gentle pair whose relations add the square of each special loop."""
    extra = tuple(((e, e),) for e in sorted(triple.special))
    return make_presentation(
        triple.vertices, triple.arrows, triple.relations + extra, special=()
    )


def check_skew_gentle(triple: Presentation) -> Report:
    """Validate a skew-gentle triple via its companion gentle pair."""
    report = Report()
    _check_ids(triple, report)
    if not report.ok:
        return report
    for rel in triple.relations:
        if len(rel) != 1:
            report.add(BAD_INPUT, f"two-term relation {rel!r} in a triple", (rel,))
    for e in sorted(triple.special):
        a = triple.arrow_by_id[e]
        if a.source != a.target:
            report.add(BAD_INPUT, f"special arrow {e!r} is not a loop", (e,))
        if ((e, e),) in triple.relations:
            report.add(BAD_INPUT, f"square of special loop {e!r} already in the relations", (e,))
    if not report.ok:
        return report
    report.extend(check_gentle(companion_pair(triple)))
    return report


def is_connected(pres: Presentation) -> bool:
    if not pres.vertices:
        return True
    parent = {v: v for v in pres.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in pres.arrows:
        rx, ry = find(a.source), find(a.target)
        if rx != ry:
            parent[rx] = ry
    return len({find(v) for v in pres.vertices}) == 1


# ---------------------------------------------------------------------------
# Split presentations


def split_vertex_ids(vertex: str) -> tuple[str, str]:
    return (f"{vertex}_0", f"{vertex}_1")


def _split_arrow_id(aid: str, src_dec: Optional[int], tgt_dec: Optional[int]) -> str:
    out = aid
    if src_dec is not None:
        out = f"{out}^{src_dec}"
    if tgt_dec is not None:
        out = f"^{tgt_dec}{out}"
    return out


@dataclass(frozen=True)
class Split:
    """The split presentation of a triple with the bookkeeping that maps it
    back: ``origin`` sends each split arrow to ``(arrow id, source
    decoration, target decoration)``, ``swap`` is the half-swapping
    relabelling of the split generators, and ``special_vertices`` are the
    vertices of the triple that were doubled."""

    presentation: Presentation
    origin: dict[str, tuple[str, Optional[int], Optional[int]]]
    swap: dict[str, str]
    special_vertices: frozenset[str]


def split_presentation(triple: Presentation) -> Split:
    """Resolve the special loops of a triple into split vertices.

    Every special vertex ``v`` becomes two vertices ``v_0, v_1``; its loop
    disappears.  An ordinary arrow gains a right superscript for each
    choice at a special source and a left superscript for a special
    target.  A monomial relation through an ordinary middle vertex stays a
    family of monomials; one through a special middle vertex becomes the
    family of two-term sums pairing the middle decorations.  The swap
    exchanges the two halves of every doubled vertex and flips every
    arrow decoration.
    """
    raise_on_error(check_skew_gentle(triple))
    special_vertices = frozenset(triple.arrow_by_id[e].source for e in triple.special)

    def decorations(v: str) -> tuple[Optional[int], ...]:
        return (0, 1) if v in special_vertices else (None,)

    def image_vertex(v: str, dec: Optional[int]) -> str:
        return v if dec is None else split_vertex_ids(v)[dec]

    def flip(dec: Optional[int]) -> Optional[int]:
        return None if dec is None else 1 - dec

    vertices: list[str] = []
    swap: dict[str, str] = {}
    for v in triple.vertices:
        if v in special_vertices:
            lo, hi = split_vertex_ids(v)
            vertices += (lo, hi)
            swap[lo], swap[hi] = hi, lo
        else:
            vertices.append(v)
            swap[v] = v

    arrows: list[Arrow] = []
    origin: dict[str, tuple[str, Optional[int], Optional[int]]] = {}
    for a in triple.arrows:
        if a.id in triple.special:
            continue
        for s in decorations(a.source):
            for t in decorations(a.target):
                sid = _split_arrow_id(a.id, s, t)
                origin[sid] = (a.id, s, t)
                swap[sid] = _split_arrow_id(a.id, flip(s), flip(t))
                arrows.append(Arrow(sid, image_vertex(a.source, s), image_vertex(a.target, t)))

    relations: list[Relation] = []
    for rel in triple.relations:
        ((a1, a2),) = rel  # validated monomial
        first, second = triple.arrow_by_id[a1], triple.arrow_by_id[a2]
        middle = first.target
        for s in decorations(first.source):
            for t in decorations(second.target):
                if middle in special_vertices:
                    relations.append(
                        (
                            (_split_arrow_id(a1, s, 0), _split_arrow_id(a2, 0, t)),
                            (_split_arrow_id(a1, s, 1), _split_arrow_id(a2, 1, t)),
                        )
                    )
                else:
                    relations.append(
                        ((_split_arrow_id(a1, s, None), _split_arrow_id(a2, None, t)),)
                    )
    presentation = make_presentation(vertices, arrows, relations, special=())
    return Split(presentation, origin, swap, special_vertices)


# ---------------------------------------------------------------------------
# Puzzle-piece gluing


def linear_piece(n: int, prefix: str) -> Presentation:
    """A chain of ``n`` vertices with all composites in the relations."""
    vertices = [f"{prefix}.{k}" for k in range(1, n + 1)]
    arrows = [
        Arrow(f"{prefix}.a{k}", f"{prefix}.{k}", f"{prefix}.{k + 1}")
        for k in range(1, n)
    ]
    relations = [
        ((f"{prefix}.a{k}", f"{prefix}.a{k + 1}"),) for k in range(1, n - 1)
    ]
    return make_presentation(vertices, arrows, relations)


def cycle_piece(n: int, prefix: str) -> Presentation:
    """A cyclic quiver on ``n`` vertices with all composites killed."""
    vertices = [f"{prefix}.{k}" for k in range(1, n + 1)]
    arrows = [
        Arrow(
            f"{prefix}.a{k}",
            f"{prefix}.{k}",
            f"{prefix}.{k % n + 1}",
        )
        for k in range(1, n + 1)
    ]
    relations = [
        ((f"{prefix}.a{k}", f"{prefix}.a{k % n + 1}"),) for k in range(1, n + 1)
    ]
    return make_presentation(vertices, arrows, relations)


def special_piece(prefix: str) -> Presentation:
    """A single vertex carrying one special loop."""
    return make_presentation(
        [f"{prefix}.v"],
        [Arrow(f"{prefix}.e", f"{prefix}.v", f"{prefix}.v")],
        [],
        special=[f"{prefix}.e"],
    )


def glue_puzzle(
    pieces: Sequence[Presentation],
    matchings: Sequence[tuple[str, str]],
) -> Presentation:
    """Glue presentations by identifying vertex pairs.

    In a matching pair ``(a, b)`` the vertex ``b`` is merged into ``a``
    (keeping the id ``a``).  Every vertex may appear in at most one
    matching pair.  The result is validated as a skew-gentle triple, and
    every finding raises.
    """
    report = Report()
    all_vertices: list[str] = []
    all_arrows: list[Arrow] = []
    all_relations: list[Relation] = []
    all_special: set[str] = set()
    for p in pieces:
        all_vertices.extend(p.vertices)
        all_arrows.extend(p.arrows)
        all_relations.extend(p.relations)
        all_special.update(p.special)
    if len(set(all_vertices)) != len(all_vertices) or len(
        {a.id for a in all_arrows}
    ) != len(all_arrows):
        raise error(BAD_INPUT, "piece ids overlap; give the pieces distinct prefixes")

    used: set[str] = set()
    vset = set(all_vertices)
    merge: dict[str, str] = {}
    for a, b in matchings:
        for x in (a, b):
            if x not in vset:
                report.add(UNKNOWN_ID, f"matching mentions unknown vertex {x!r}", (x,))
            elif x in used:
                report.add(OVERGLUED_VERTEX, f"vertex {x!r} appears in several matchings", (x,))
            used.add(x)
        if a == b:
            report.add(BAD_INPUT, f"matching glues {a!r} to itself", (a,))
    raise_on_error(report)
    for a, b in matchings:
        merge[b] = a

    def rep(v: str) -> str:
        return merge.get(v, v)

    vertices = [v for v in all_vertices if v not in merge]
    arrows = [Arrow(x.id, rep(x.source), rep(x.target)) for x in all_arrows]
    glued = make_presentation(vertices, arrows, all_relations, special=all_special)
    raise_on_error(check_skew_gentle(glued))
    return glued


# ---------------------------------------------------------------------------
# Presentation from a dissection


@dataclass(frozen=True)
class QuiverExtraction:
    presentation: Presentation
    corner_of_arrow: dict[str, tuple[str, int]]


def extract_quiver(surface: DissectedSurface) -> QuiverExtraction:
    """Read the presentation off a valid dissected surface.

    Vertices are the arcs.  Every corner between two arc sides yields an
    arrow from the incoming side's arc to the outgoing side's arc.  A
    composite of two arrows dies exactly when the exit side of the first
    corner and the entry side of the second are different occurrences of
    their common arc (the composite turns around at a point).  Loop arrows
    at orbifold points form the special set; their squares are left out of
    the relation list.
    """
    raise_on_error(validate(surface))
    arrows: list[Arrow] = []
    corner_of_arrow: dict[str, tuple[str, int]] = {}
    point_of_arrow: dict[str, str] = {}
    id_count: dict[tuple[str, str], int] = {}
    for poly in surface.polygons:
        n = len(poly.sides)
        for i in range(n):
            s_in = poly.sides[i]
            s_out = poly.sides[(i + 1) % n]
            if not (s_in.is_arc and s_out.is_arc):
                continue
            src, tgt = s_in.ref, s_out.ref
            id_count[(src, tgt)] = id_count.get((src, tgt), 0) + 1
            aid = f"{src}.{tgt}"
            if id_count[(src, tgt)] > 1:
                aid = f"{aid}#{id_count[(src, tgt)]}"
            arrows.append(Arrow(aid, src, tgt))
            corner_of_arrow[aid] = (poly.id, i)
            point_of_arrow[aid] = surface.ray_point(
                ("a", src, "head") if s_in.direction == 1 else ("a", src, "tail")
            )

    def exit_occ(aid: str) -> tuple[str, int]:
        poly_id, i = corner_of_arrow[aid]
        n = len(surface.polygon_by_id[poly_id].sides)
        return (poly_id, (i + 1) % n)

    def entry_occ(aid: str) -> tuple[str, int]:
        return corner_of_arrow[aid]

    special = {
        a.id
        for a in arrows
        if a.source == a.target
        and surface.point_by_id[point_of_arrow[a.id]].kind == ORBIFOLD
    }
    relations: list[Relation] = []
    by_source: dict[str, list[Arrow]] = {}
    for a in arrows:
        by_source.setdefault(a.source, []).append(a)
    for first in arrows:
        for second in by_source.get(first.target, []):
            if exit_occ(first.id) != entry_occ(second.id):
                if first.id == second.id and first.id in special:
                    continue
                relations.append(((first.id, second.id),))
    pres = make_presentation(
        [a.id for a in surface.arcs], arrows, relations, special=special
    )
    return QuiverExtraction(pres, corner_of_arrow)


def algebra_dimension(surface: DissectedSurface) -> int:
    """Dimension of the algebra of a valid dissection, read off its polygons.

    In the polygon model of Opper--Plamondon--Schroll (arXiv 1801.09659)
    a basis is the arcs together with the runs of consecutive corners inside
    one polygon, so a polygon with ``m`` arc sides adds ``C(m, 2)``.  A slit
    at an orbifold point counts as two sides, which gives the dimension of
    both the skew-gentle algebra of the triple and its split algebra.
    """
    raise_on_error(validate(surface))
    return len(surface.arcs) + sum(
        math.comb(len(p.sides) - 1, 2) for p in surface.polygons
    )


def quiver_from_dissection(surface: DissectedSurface) -> Presentation:
    """The gentle pair of a dissection without orbifold points."""
    if classify_dissection(surface) != "bullet":
        raise error(
            BAD_INPUT, "surface has orbifold points; use triple_from_x_dissection"
        )
    return extract_quiver(surface).presentation


def triple_from_x_dissection(surface: DissectedSurface) -> Presentation:
    """The skew-gentle triple of a dissection with orbifold points."""
    if classify_dissection(surface) != "x":
        raise error(
            BAD_INPUT, "surface has no orbifold points; use quiver_from_dissection"
        )
    return extract_quiver(surface).presentation


# ---------------------------------------------------------------------------
# Dissection from a presentation


def _assign_ends(pres: Presentation) -> tuple[dict, dict, dict]:
    """Distribute the arrows at each vertex onto the two ends of its arc.

    Returns ``(ends, out_end, in_end)`` where ``ends[v][k]`` is a dict
    with keys ``"in"``/``"out"`` and ``out_end[a]`` / ``in_end[a]`` give
    the end ``(v, k)`` hosting the arrow ``a`` on its source / target
    side.  An incoming and an outgoing arrow share an end exactly when
    their composite lies in the relations.
    """
    pairs = pres.monomial_pairs
    ends: dict[str, list[dict]] = {
        v: [{"in": None, "out": None}, {"in": None, "out": None}]
        for v in pres.vertices
    }
    out_end: dict[str, tuple[str, int]] = {}
    in_end: dict[str, tuple[str, int]] = {}
    for v in pres.vertices:
        for k, a in enumerate(pres.outgoing[v]):
            ends[v][k]["out"] = a.id
            out_end[a.id] = (v, k)
        for b in pres.incoming[v]:
            partners = [
                k
                for k in (0, 1)
                if ends[v][k]["out"] is not None and (b.id, ends[v][k]["out"]) in pairs
            ]
            if partners:
                k = partners[0]
            else:
                free = [
                    k
                    for k in (0, 1)
                    if ends[v][k]["out"] is None and ends[v][k]["in"] is None
                ]
                if not free:
                    raise error(
                        BAD_INPUT, f"no free end for arrow {b.id!r} at vertex {v!r}", (v, b.id)
                    )
                k = free[0]
            if ends[v][k]["in"] is not None:
                raise error(
                    BAD_INPUT,
                    f"arrows {ends[v][k]['in']!r} and {b.id!r} end at the same end of {v!r}",
                    (v, k),
                )
            ends[v][k]["in"] = b.id
            in_end[b.id] = (v, k)
    return ends, out_end, in_end


def _reconstruct(
    companion: Presentation, special: frozenset, name: str
) -> DissectedSurface:
    """Build the dissected surface realizing a validated companion pair."""
    pairs = companion.monomial_pairs
    ends, out_end, in_end = _assign_ends(companion)

    # Threads: maximal chains and cycles of relation-composable arrows.
    succ: dict[str, str] = {}
    has_pred: set[str] = set()
    for a1, a2 in pairs:
        if a1 in succ or a2 in has_pred:
            raise error(
                BAD_INPUT, f"relation ({a1!r}, {a2!r}) shares an arrow with another", (a1, a2)
            )
        succ[a1] = a2
        has_pred.add(a2)
    chains, cycles = _threads(sorted(a.id for a in companion.arrows), succ)

    point_of_end: dict[tuple[str, int], str] = {}
    points: list[MarkedPoint] = []

    def claim(end: tuple[str, int], pid: str) -> None:
        if end in point_of_end:
            raise error(
                BAD_INPUT, f"end {end!r} claimed by {point_of_end[end]!r} and {pid!r}", end
            )
        point_of_end[end] = pid

    def joined(prv: str, nxt: str) -> None:
        if in_end[prv] != out_end[nxt]:
            raise error(
                BAD_INPUT,
                f"arrows {prv!r}, {nxt!r} follow each other in a relation "
                f"but meet at ends {in_end[prv]!r}, {out_end[nxt]!r}",
                (prv, nxt),
            )

    counter = 0
    for chain in chains:
        counter += 1
        pid = f"P{counter}"
        points.append(MarkedPoint(pid, BOUNDARY))
        claim(out_end[chain[0]], pid)
        for aid in chain:
            claim(in_end[aid], pid)
        for prv, nxt in zip(chain, chain[1:]):
            joined(prv, nxt)
    solo_ends = sorted(
        (v, k)
        for v in companion.vertices
        for k in (0, 1)
        if ends[v][k]["in"] is None and ends[v][k]["out"] is None
    )
    for end in solo_ends:
        counter += 1
        pid = f"P{counter}"
        points.append(MarkedPoint(pid, BOUNDARY))
        claim(end, pid)
    puncture_counter = 0
    for cyc in cycles:
        if len(cyc) == 1 and cyc[0] in special:
            pid = f"X_{cyc[0]}"
            points.append(MarkedPoint(pid, ORBIFOLD))
        else:
            puncture_counter += 1
            pid = f"U{puncture_counter}"
            points.append(MarkedPoint(pid, PUNCTURE))
        for aid in cyc:
            claim(in_end[aid], pid)
        for prv, nxt in zip(cyc, cyc[1:] + cyc[:1]):
            joined(prv, nxt)
    for v in companion.vertices:
        for k in (0, 1):
            if (v, k) not in point_of_end:
                raise error(BAD_INPUT, f"end ({v!r}, {k}) has no marked point", (v, k))

    # Arcs: end 0 is the tail, end 1 the head.
    arcs = [
        Arc(v, point_of_end[(v, 0)], point_of_end[(v, 1)]) for v in companion.vertices
    ]

    def head_end(side: tuple[str, int]) -> tuple[str, int]:
        v, d = side
        return (v, 1 if d == 1 else 0)

    def tail_end(side: tuple[str, int]) -> tuple[str, int]:
        v, d = side
        return (v, 0 if d == 1 else 1)

    def next_side(side: tuple[str, int]) -> Optional[tuple[str, int]]:
        v, k = head_end(side)
        out = ends[v][k]["out"]
        if out is None:
            return None
        w, kk = in_end[out]
        return (w, 1 if kk == 0 else -1)

    all_sides = sorted(
        ((v, d) for v in companion.vertices for d in (1, -1)),
        key=lambda s: (s[0], -s[1]),
    )
    starts = [s for s in all_sides if ends[tail_end(s)[0]][tail_end(s)[1]]["in"] is None]
    placed: set[tuple[str, int]] = set()
    polygons: list[Polygon] = []
    bsegs: list[BoundarySegment] = []
    fcount = 0
    for start in starts:
        if start in placed:
            continue
        run = [start]
        placed.add(start)
        while True:
            nxt = next_side(run[-1])
            if nxt is None:
                break
            if nxt in placed:
                raise error(BAD_INPUT, f"face tracing revisited side {nxt!r}", nxt)
            run.append(nxt)
            placed.add(nxt)
        fcount += 1
        bid = f"b{fcount}"
        bsegs.append(
            BoundarySegment(
                bid,
                point_of_end[head_end(run[-1])],
                point_of_end[tail_end(run[0])],
            )
        )
        polygons.append(
            Polygon(
                f"F{fcount}",
                (bseg_side(bid),) + tuple(arc_side(v, d) for v, d in run),
            )
        )
    missed = sorted(set(all_sides) - placed)
    if missed:
        raise error(BAD_INPUT, f"face tracing missed side {missed[0]!r}", missed[0])
    surf = make_surface(name, points, arcs, bsegs, polygons)
    raise_on_error(validate(surf))
    return surf


def surface_from_gentle(pair: Presentation, name: str = "reconstructed") -> DissectedSurface:
    """The dissected surface whose quiver is the given gentle pair."""
    raise_on_error(check_gentle(pair))
    return _reconstruct(pair, frozenset(), name)


def surface_from_triple(triple: Presentation, name: str = "reconstructed") -> DissectedSurface:
    """The orbifold dissection whose triple is the given skew-gentle triple."""
    raise_on_error(check_skew_gentle(triple))
    return _reconstruct(companion_pair(triple), triple.special, name)


# ---------------------------------------------------------------------------
# Random generators (seeded; used by the property tests)


def _random_pieces(rng: random.Random, n_special: int) -> list[Presentation]:
    pieces: list[Presentation] = []
    n_ordinary = rng.randint(1, 3)
    for i in range(n_ordinary):
        size = rng.randint(1, 4)
        if rng.random() < 0.25:
            pieces.append(cycle_piece(size, f"c{i}"))
        else:
            pieces.append(linear_piece(size, f"l{i}"))
    for j in range(n_special):
        pieces.append(special_piece(f"s{j}"))
    return pieces


def _degree_ok(p: Presentation, u: str, v: str) -> bool:
    def deg(v0: str) -> tuple[int, int]:
        return (len(p.incoming[v0]), len(p.outgoing[v0]))

    du, dv = deg(u), deg(v)
    return du[0] + dv[0] <= 2 and du[1] + dv[1] <= 2


def random_triple(
    rng: random.Random, max_special: int = 3, max_arrows: int = 16
) -> Presentation:
    """A random connected skew-gentle triple built by puzzle gluing, with
    between one and ``max_special`` special loops (none when it is 0)."""
    while True:
        n_special = rng.randint(min(1, max_special), max_special)
        pieces = _random_pieces(rng, n_special)
        joint = make_presentation(
            [v for p in pieces for v in p.vertices],
            [a for p in pieces for a in p.arrows],
            [r for p in pieces for r in p.relations],
            special={e for p in pieces for e in p.special},
        )
        if len(joint.arrows) > max_arrows:
            continue
        free = [v for v in joint.vertices]
        rng.shuffle(free)
        matchings: list[tuple[str, str]] = []
        used: set[str] = set()

        def try_match(a: str, b: str) -> bool:
            if a == b or a in used or b in used:
                return False
            if not _degree_ok(joint, a, b):
                return False
            matchings.append((a, b))
            used.update((a, b))
            return True

        ok = True
        for j, p in enumerate(pieces):
            if not p.special:
                continue
            sp_v = p.vertices[0]
            candidates = [v for v in free if not v.startswith("s") and v not in used]
            rng.shuffle(candidates)
            if not any(try_match(c, sp_v) for c in candidates):
                ok = False
                break
        if not ok:
            continue
        extra = rng.randint(0, 4)
        for _ in range(extra):
            avail = [v for v in free if v not in used]
            if len(avail) < 2:
                break
            a, b = rng.sample(avail, 2)
            try_match(a, b)
        try:
            triple = glue_puzzle(pieces, matchings)
        except ValidationError:
            continue
        if not is_connected(triple):
            continue
        return triple


def random_gentle_pair(rng: random.Random) -> Presentation:
    """A random connected gentle pair with at most 12 arrows."""
    return random_triple(rng, max_special=0, max_arrows=12)


def random_x_dissection(rng: random.Random) -> DissectedSurface:
    """A random orbifold dissection, via a random skew-gentle triple."""
    return surface_from_triple(random_triple(rng), name="random")
