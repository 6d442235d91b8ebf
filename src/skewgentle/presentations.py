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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .diagnostics import (
    BAD_INPUT,
    DEGREE_EXCEEDED,
    INFINITE_DIMENSIONAL,
    NOT_GENTLE,
    OVERGLUED_VERTEX,
    SUCCESSOR_CLASH,
    UNKNOWN_ID,
    Diagnostic,
    Report,
    _require_int,
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
    _cached_property,
    _require_valid,
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
    """A quiver with relations; its cached lookups hold tuples, and it keeps
    the findings of :func:`check_gentle` and :func:`check_skew_gentle`."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]
    special: frozenset = _NO_SPECIAL

    @_cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @_cached_property
    def outgoing(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out.setdefault(a.source, []).append(a)
        return {v: tuple(sorted(lst, key=lambda a: a.id)) for v, lst in out.items()}

    @_cached_property
    def incoming(self) -> dict[str, tuple[Arrow, ...]]:
        inc: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            inc.setdefault(a.target, []).append(a)
        return {v: tuple(sorted(lst, key=lambda a: a.id)) for v, lst in inc.items()}

    @_cached_property
    def monomial_pairs(self) -> frozenset:
        """The length-two paths appearing as single-term relations."""
        return frozenset(r[0] for r in self.relations if len(r) == 1)

    @_cached_property
    def _shape_findings(self) -> tuple[tuple[Diagnostic, ...], tuple[Diagnostic, ...]]:
        """The findings of ``_check_ids``, and those of
        ``_check_composability`` on the relations in order when the ids
        pass (none when they do not)."""
        report = Report()
        _check_ids(self, report)
        if not report.ok:
            return tuple(report.diagnostics), ()
        _check_composability(self, report)
        return (), tuple(report.diagnostics)

    @_cached_property
    def _gentle_findings(self) -> tuple[Diagnostic, ...]:
        return tuple(_check_gentle(self).diagnostics)

    @_cached_property
    def _triple_findings(self) -> tuple[Diagnostic, ...]:
        return tuple(_check_triple(self).diagnostics)


def make_presentation(
    vertices: Iterable[str],
    arrows: Iterable[Arrow],
    relations: Iterable[Sequence[Path]] = (),
    special: Iterable[str] = (),
) -> Presentation:
    """Normalize and freeze presentation data (sorted, deduplicated).  The
    arrows sort by ``(id, source, target)``, so arrows that share an id
    keep an order that does not depend on the string hash."""
    rels = sorted({tuple(sorted(tuple(map(tuple, r)))) for r in relations})
    return Presentation(
        vertices=tuple(sorted(set(vertices))),
        arrows=tuple(sorted(set(arrows), key=lambda a: (a.id, a.source, a.target))),
        relations=tuple(rels),
        special=frozenset(special) or _NO_SPECIAL,
    )


# ---------------------------------------------------------------------------
# Shape checks


def _check_ids(pres: Presentation, report: Report) -> None:
    """Duplicate and unknown ids, in the order of the presentation.  No id
    may name both a vertex and an arrow: the generator maps key both in
    one dict."""
    seen_v: set[str] = set()
    for v in pres.vertices:
        if v in seen_v:
            report.add(BAD_INPUT, f"duplicate vertex id {v!r}", (v,))
        seen_v.add(v)
    seen_a: set[str] = set()
    for a in pres.arrows:
        if a.id in seen_a:
            report.add(BAD_INPUT, f"duplicate arrow id {a.id!r}", (a.id,))
        if a.id in seen_v:
            report.add(BAD_INPUT, f"id {a.id!r} names both a vertex and an arrow", (a.id,))
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
    for s in sorted(pres.special):
        if s not in seen_a:
            report.add(UNKNOWN_ID, f"special arrow {s!r} unknown", (s,))


def _check_composability(
    pres: Presentation, report: Report, relations: Optional[Iterable[Relation]] = None
) -> None:
    """Each relation path composes; a two-term relation sums parallel paths.
    The relations are those of ``pres`` unless ``relations`` is given."""
    by_id = pres.arrow_by_id
    for rel in pres.relations if relations is None else relations:
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


def _gentle_core(pres: Presentation, vertices, arrows, pairs: frozenset, report: Report) -> None:
    """Degree, successor and finiteness conditions for the quiver of
    ``pres`` with the monomial relations ``pairs``, walked in the order of
    ``vertices`` and ``arrows``; any finding closes with ``NOT_GENTLE``."""
    for v in vertices:
        if len(pres.outgoing[v]) > 2:
            report.add(DEGREE_EXCEEDED, f"vertex {v!r} has {len(pres.outgoing[v])} outgoing arrows", (v,))
        if len(pres.incoming[v]) > 2:
            report.add(DEGREE_EXCEEDED, f"vertex {v!r} has {len(pres.incoming[v])} incoming arrows", (v,))
    free_succ: dict[str, str] = {}
    for a in arrows:
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
    if report.ok:
        # A relation-free composable cycle makes the path algebra infinite
        # dimensional.
        _, cycles = _threads([a.id for a in arrows], free_succ)
        if cycles:
            report.add(
                INFINITE_DIMENSIONAL,
                f"relation-free composable cycle {cycles[0]!r}",
                tuple(cycles[0]),
            )
    if not report.ok:
        report.add(NOT_GENTLE, "presentation is not a gentle pair", ())


def check_gentle(pres: Presentation) -> Report:
    """Validate a gentle pair: monomial relations, no special loops.

    The findings are kept on the presentation; each call returns a fresh
    report."""
    return Report(list(pres._gentle_findings))


def _check_gentle(pres: Presentation) -> Report:
    ids, composable = pres._shape_findings
    if ids:
        return Report(list(ids))
    report = Report()
    if pres.special:
        report.add(BAD_INPUT, "special loops present; use check_skew_gentle", ())
    for rel in pres.relations:
        if len(rel) != 1:
            report.add(BAD_INPUT, f"two-term relation {rel!r} in a gentle pair", (rel,))
    if not report.ok:
        return report
    report.diagnostics.extend(composable)
    if report.ok:
        _gentle_core(pres, pres.vertices, pres.arrows, pres.monomial_pairs, report)
    return report


def _companion_pairs(triple: Presentation) -> frozenset:
    """The monomial relations of a triple's companion gentle pair: its own
    and the square of each special loop."""
    if not triple.special:
        return triple.monomial_pairs
    return triple.monomial_pairs.union((e, e) for e in triple.special)


def check_skew_gentle(triple: Presentation) -> Report:
    """Validate a skew-gentle triple: its relations and the squares of its
    special loops make a gentle pair, the companion pair.

    The companion is not built: the gentle checks walk the triple with the
    loop squares added to its monomial pairs, in sorted order as if built.
    The findings are kept on the triple; each call returns a fresh report."""
    return Report(list(triple._triple_findings))


def _check_triple(triple: Presentation) -> Report:
    ids, _ = triple._shape_findings
    if ids:
        return Report(list(ids))
    report = Report()
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
    # The companion pair's checks, in the order make_presentation gives it.
    _check_composability(triple, report, sorted(set(triple.relations)))
    if report.ok:
        arrows = sorted(triple.arrows, key=lambda a: a.id)
        _gentle_core(triple, sorted(triple.vertices), arrows, _companion_pairs(triple), report)
    return report


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
    arrow decoration.  A derived id that names another vertex or arrow of
    the split (when the triple has a vertex ``v_0``, say) raises
    ``BAD_INPUT`` naming it.
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
    ids = Counter(vertices)
    ids.update(a.id for a in arrows)
    clashes = sorted(i for i, count in ids.items() if count > 1)
    if clashes:
        msg = f"the split ids {clashes!r} name more than one vertex or arrow"
        raise error(BAD_INPUT, msg, tuple(clashes))
    presentation = make_presentation(vertices, arrows, relations, special=())
    return Split(presentation, origin, swap, special_vertices)


# ---------------------------------------------------------------------------
# Puzzle-piece gluing


def linear_piece(n: int, prefix: str) -> Presentation:
    """A chain of ``n`` vertices with all composites in the relations;
    ``BAD_INPUT`` names ``n`` unless it is an ``int`` of at least 1."""
    _require_int("n", n, 1)
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
    """A cyclic quiver on ``n`` vertices with all composites killed;
    ``BAD_INPUT`` names ``n`` unless it is an ``int`` of at least 1."""
    _require_int("n", n, 1)
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
    matching pair, and a matching that is not a pair of vertex ids raises
    ``BAD_INPUT`` naming it.  The result is validated as a skew-gentle
    triple, which keeps the findings, and every finding raises.
    """
    glued = _merge(pieces, matchings)
    raise_on_error(check_skew_gentle(glued))
    return glued


def _merge(
    pieces: Sequence[Presentation],
    matchings: Sequence[tuple[str, str]],
) -> Presentation:
    """The glued presentation of :func:`glue_puzzle`, not yet checked;
    raises on overlapping pieces and on bad matchings."""
    for m in matchings:
        pair = isinstance(m, (tuple, list)) and len(m) == 2
        if not (pair and all(isinstance(x, str) for x in m)):
            raise error(BAD_INPUT, f"matching {m!r} is not a pair of vertex ids", (m,))
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
    return make_presentation(vertices, arrows, all_relations, special=all_special)


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
    the relation list.  An arrow id ``src.tgt`` that names an arc or an
    earlier arrow takes the first free suffix ``#k`` instead.
    """
    _require_valid(surface)
    arrows: list[Arrow] = []
    corner_of_arrow: dict[str, tuple[str, int]] = {}
    point_of_arrow: dict[str, str] = {}
    id_count: dict[tuple[str, str], int] = {}
    taken = {a.id for a in surface.arcs}
    for poly in surface.polygons:
        n = len(poly.sides)
        for i in range(n):
            s_in = poly.sides[i]
            s_out = poly.sides[(i + 1) % n]
            if not (s_in.is_arc and s_out.is_arc):
                continue
            src, tgt = s_in.ref, s_out.ref
            k = id_count.get((src, tgt), 0) + 1
            aid = f"{src}.{tgt}" if k == 1 else f"{src}.{tgt}#{k}"
            while aid in taken:
                k += 1
                aid = f"{src}.{tgt}#{k}"
            id_count[(src, tgt)] = k
            taken.add(aid)
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
    _require_valid(surface)
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


def _assign_ends(pres: Presentation, succ: dict[str, str]) -> tuple[dict, dict]:
    """Distribute the arrows at each vertex of a checked presentation onto
    the two ends ``(v, 0)`` (tail) and ``(v, 1)`` (head) of its arc.

    Returns ``(out_end, in_end)``: the end hosting each arrow on its source
    and on its target side.  The outgoing arrows take the ends in id order.
    An incoming arrow shares the end of its relation successor in ``succ``;
    one without takes the next end that no outgoing arrow holds, in id
    order.  So an incoming and an outgoing arrow share an end exactly when
    their composite is a relation.
    """
    out_end: dict[str, tuple[str, int]] = {}
    in_end: dict[str, tuple[str, int]] = {}
    for v in pres.vertices:
        outs = pres.outgoing[v]
        out_end.update((a.id, (v, k)) for k, a in enumerate(outs))
        free = iter(range(len(outs), 2))
        for b in pres.incoming[v]:
            in_end[b.id] = out_end[succ[b.id]] if b.id in succ else (v, next(free))
    return out_end, in_end


def _reconstruct(pres: Presentation, name: str) -> DissectedSurface:
    """Build the dissected surface of a presentation that
    :func:`check_gentle` or :func:`check_skew_gentle` accepted: one arc per
    vertex in sorted order, with the companion pair's relations (those of
    ``pres`` and the special loop squares) and an orbifold point on each
    special loop.

    The maximal chains and the cycles of relations are the marked points;
    an arc end that no arrow reaches is a boundary point of its own.  A
    side is named by its tail end ``(v, k)``, so it runs forwards along
    ``v`` when ``k`` is 0.  Each polygon is walked from a side that no
    arrow enters at its tail end, along the arrow that leaves the head end
    of each side in turn, until none does; its boundary segment closes it.
    """
    vertices = sorted(pres.vertices)
    succ = dict(_companion_pairs(pres))
    out_end, in_end = _assign_ends(pres, succ)
    chains, cycles = _threads(sorted(a.id for a in pres.arrows), succ)

    # (id, kind, ends) of each marked point: chains, lone ends, cycles.
    marks = [
        (f"P{i}", BOUNDARY, [out_end[chain[0]]] + [in_end[a] for a in chain])
        for i, chain in enumerate(chains, 1)
    ]
    reached = {*out_end.values(), *in_end.values()}
    lone = [(v, k) for v in vertices for k in (0, 1) if (v, k) not in reached]
    marks += [(f"P{i}", BOUNDARY, [end]) for i, end in enumerate(lone, len(chains) + 1)]
    punctures = 0
    for cyc in cycles:
        if len(cyc) == 1 and cyc[0] in pres.special:
            pid, kind = f"X_{cyc[0]}", ORBIFOLD
        else:
            punctures += 1
            pid, kind = f"U{punctures}", PUNCTURE
        marks.append((pid, kind, [in_end[a] for a in cyc]))
    point_of_end = {end: pid for pid, _, ends in marks for end in ends}
    points = [MarkedPoint(pid, kind) for pid, kind, _ in marks]
    arcs = [Arc(v, point_of_end[(v, 0)], point_of_end[(v, 1)]) for v in vertices]

    leaving = {end: a for a, end in out_end.items()}
    entered = set(in_end.values())
    tails = [(v, k) for v in vertices for k in (0, 1) if (v, k) not in entered]
    bsegs: list[BoundarySegment] = []
    polygons: list[Polygon] = []
    for f, tail in enumerate(tails, 1):
        run = [tail]
        head = (tail[0], 1 - tail[1])
        while head in leaving:
            run.append(in_end[leaving[head]])
            head = (run[-1][0], 1 - run[-1][1])
        bsegs.append(BoundarySegment(f"b{f}", point_of_end[head], point_of_end[tail]))
        sides = tuple(arc_side(v, 1 - 2 * k) for v, k in run)
        polygons.append(Polygon(f"F{f}", (bseg_side(f"b{f}"),) + sides))
    surf = make_surface(name, points, arcs, bsegs, polygons)
    raise_on_error(validate(surf))
    return surf


def surface_from_gentle(pair: Presentation, name: str = "reconstructed") -> DissectedSurface:
    """The dissected surface whose quiver is the given gentle pair."""
    raise_on_error(check_gentle(pair))
    return _reconstruct(pair, name)


def surface_from_triple(triple: Presentation, name: str = "reconstructed") -> DissectedSurface:
    """The orbifold dissection whose triple is the given skew-gentle triple:
    that of its companion pair, read off the triple and its loop squares
    without building the pair, with an orbifold point on each loop."""
    raise_on_error(check_skew_gentle(triple))
    return _reconstruct(triple, name)


# ---------------------------------------------------------------------------
# Random generators (seeded; used by the property tests)


class _Piece(NamedTuple):
    """A puzzle piece of ``random_triple``, with the in- and out-degree of
    each of its vertices, which every attempt that places it reads."""

    presentation: Presentation
    degree: dict[str, tuple[int, int]]


# Bounded: 24 ordinary pieces, and as many special ones as max_special reaches.
@lru_cache(maxsize=256)
def _piece(kind: str, size: int, index: int) -> _Piece:
    """The puzzle piece ``random_triple`` places at ``index``: a linear
    (``"l"``) or cyclic (``"c"``) piece of ``size`` vertices, or a special
    (``"s"``) one.  Pieces are frozen, so every attempt shares one build."""
    if kind == "s":
        pres = special_piece(f"s{index}")
    else:
        pres = (cycle_piece if kind == "c" else linear_piece)(size, f"{kind}{index}")
    indegree = Counter(a.target for a in pres.arrows)
    outdegree = Counter(a.source for a in pres.arrows)
    return _Piece(pres, {v: (indegree[v], outdegree[v]) for v in pres.vertices})


def _pieces_connected(
    pieces: Sequence[Presentation], matchings: Sequence[tuple[str, str]]
) -> bool:
    """Whether gluing ``pieces``, each connected, along ``matchings`` gives
    a connected quiver: a union-find over the piece indices."""
    owner = {v: k for k, p in enumerate(pieces) for v in p.vertices}
    parent = list(range(len(pieces)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    components = len(pieces)
    for a, b in matchings:
        ra, rb = find(owner[a]), find(owner[b])
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components <= 1


def random_triple(
    rng: random.Random, max_special: int = 3, max_arrows: int = 16
) -> Presentation:
    """A random connected skew-gentle triple built by puzzle gluing, with
    between one and ``max_special`` special loops (none when it is 0) and
    at most ``max_arrows`` arrows.  An attempt whose piece shapes hold too
    many arrows is drawn again before any piece is taken, each piece is
    built once per shape and position and shared by every attempt, and
    connectedness is decided on the graph of pieces and matchings, so
    only a connected attempt is glued and checked.

    ``BAD_INPUT`` names an ``rng`` that is not a ``random.Random``, a
    bound that is not an ``int`` (a ``bool`` is not), ``max_special`` when
    it is negative and ``max_arrows`` when it is below
    ``min(max_special, 1)``: a special loop is an arrow, so no draw fits."""
    if not isinstance(rng, random.Random):
        raise error(BAD_INPUT, f"rng must be a random.Random, got {rng!r}", ("rng",))
    _require_int("max_special", max_special, 0)
    _require_int("max_arrows", max_arrows, min(max_special, 1))
    while True:
        n_special = rng.randint(min(1, max_special), max_special)
        # (size, is a cycle) of each ordinary piece
        shapes = [(rng.randint(1, 4), rng.random() < 0.25) for _ in range(rng.randint(1, 3))]
        if sum(size - (not cyclic) for size, cyclic in shapes) + n_special > max_arrows:
            continue
        parts = [
            _piece("c" if cyclic else "l", size, i) for i, (size, cyclic) in enumerate(shapes)
        ]
        parts += [_piece("s", 1, j) for j in range(n_special)]
        pieces = [part.presentation for part in parts]
        degree: dict[str, tuple[int, int]] = {}
        for part in parts:
            degree.update(part.degree)
        # the pieces' vertex tuples are sorted runs, which sorted merges
        free = sorted(v for p in pieces for v in p.vertices)
        rng.shuffle(free)
        matchings: list[tuple[str, str]] = []
        used: set[str] = set()

        def try_match(a: str, b: str) -> bool:
            if a == b or a in used or b in used:
                return False
            (in_a, out_a), (in_b, out_b) = degree[a], degree[b]
            if in_a + in_b > 2 or out_a + out_b > 2:
                return False
            matchings.append((a, b))
            used.update((a, b))
            return True

        ok = True
        for p in pieces[len(shapes):]:
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
        if not _pieces_connected(pieces, matchings):
            continue
        triple = _merge(pieces, matchings)
        if check_skew_gentle(triple).ok:
            return triple


def random_gentle_pair(rng: random.Random) -> Presentation:
    """A random connected gentle pair with at most 12 arrows."""
    return random_triple(rng, max_special=0, max_arrows=12)


def random_x_dissection(rng: random.Random) -> DissectedSurface:
    """A random orbifold dissection, via a random skew-gentle triple."""
    return surface_from_triple(random_triple(rng), name="random")
