"""Branched double covers of orbifold dissections and their quotients.

Both directions produce the same structure, :class:`CoveringData`,
describing a two-sheeted cover of a base dissection branched over its
orbifold points:

* :func:`double_cover` builds the canonical cover of a dissection: every
  non-orbifold point and every ordinary arc acquires two lifts, each
  orbifold point disappears, and the arc ending there unfolds into a
  single arc joining the two lifts of its other endpoint;
* :func:`quotient` starts from a surface with a half-turn symmetry and
  produces the quotient dissection in which each symmetric arc pair
  becomes one arc and each reversed fixed arc is cut in half, ending at a
  fresh orbifold point.

A cover stores the base, the total surface, the deck symmetry and the
two polygon instances upstairs over each base polygon, one per sheet, and
with them the cuts and slit counts its builder computed.  Every other map
is derived from these by one parity rule.  ``cuts`` lists the word
positions where a slit pair (the two adjacent occurrences of an arc at an
orbifold point) sits; crossing such a position swaps the sheets.  The
side at base slot ``i`` carrying sheet ``s`` lives in the instance
``s * (-1)^pieces`` at slot ``i - pieces``, where ``pieces`` counts the
cuts before ``i``.  The slot map, the lifts of arcs and arrows, and
:func:`lift_curve` all read this rule.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .diagnostics import (
    BAD_INPUT,
    BAD_LIFT,
    CURVE_THROUGH_BRANCH,
    error,
    raise_on_error,
)
from .presentations import (
    QuiverExtraction,
    Split,
    extract_quiver,
    split_presentation,
)
from .surface import (
    ORBIFOLD,
    Arc,
    BoundarySegment,
    CombinatorialCurve,
    DissectedSurface,
    MarkedPoint,
    Passage,
    Polygon,
    Side,
    SurfaceInvolution,
    _moved_passages,
    arc_side,
    bseg_side,
    chord_bseg_side,
    classify_dissection,
    make_surface,
    validate,
    validate_curve,
    validate_involution,
)

_SIGN = {1: "+", -1: "-"}


@dataclass(frozen=True)
class CoveringData:
    """A two-sheeted branched cover of ``base`` with total space ``total``.

    Stored: ``deck``, the sheet-swapping symmetry of ``total``;
    ``poly_instance[(base_poly, sheet)]``, the polygon upstairs over each
    base polygon on each sheet; and, as the builder computed them with
    :func:`_cuts`, ``cuts[base_poly]`` (the first slots of its slit pairs)
    and ``pieces[base_poly][slot]`` (the slit pairs before each slot).

    Derived, each once per cover: ``branch_points`` (the orbifold points of
    the base), ``slot_image[(base_poly, slot, sheet)]`` (the upstairs slot
    of a word position in an instance), ``arc_image[(arc, sheet)]`` (the
    lift of an arc not ending at a branch point on each sheet),
    ``slit_arcs`` (the arcs ending at a branch point, each its own single
    lift) and ``arrow_lifts``.  The presentation stages that both
    crossed-product reductions read are cached too.
    """

    base: DissectedSurface
    total: DissectedSurface
    deck: SurfaceInvolution
    poly_instance: dict[tuple[str, int], str]
    cuts: dict[str, tuple[int, ...]]
    pieces: dict[str, list[int]]

    @cached_property
    def branch_points(self) -> tuple[str, ...]:
        return tuple(sorted(p.id for p in self.base.points if p.kind == ORBIFOLD))

    @cached_property
    def slot_image(self) -> dict[tuple[str, int, int], tuple[str, int]]:
        return {
            (poly, i, eps): (self.poly_instance[(poly, eps)], i - k)
            for poly, before in self.pieces.items()
            for eps in (1, -1)
            for i, k in enumerate(before)
        }

    def _lift_slot(self, poly: str, i: int, sheet: int) -> tuple[str, int]:
        """The upstairs slot of base slot ``i`` on sheet ``sheet``."""
        return self.slot_image[(poly, i, sheet * (-1) ** self.pieces[poly][i])]

    @cached_property
    def slit_arcs(self) -> frozenset[str]:
        branch = set(self.branch_points)
        return frozenset(a.id for a in self.base.arcs if {a.tail, a.head} & branch)

    @cached_property
    def arc_image(self) -> dict[tuple[str, int], str]:
        lifts: dict[tuple[str, int], str] = {}
        for a in self.base.arcs:
            if a.id in self.slit_arcs:
                continue
            poly, i = self.base.occurrences[(a.id, 1)]
            for sheet in (1, -1):
                pid, u = self._lift_slot(poly, i, sheet)
                lifts[(a.id, sheet)] = self.total.polygon_by_id[pid].sides[u].ref
        return lifts

    @cached_property
    def base_quiver(self) -> QuiverExtraction:
        return extract_quiver(self.base)

    @cached_property
    def total_quiver(self) -> QuiverExtraction:
        return extract_quiver(self.total)

    @cached_property
    def split(self) -> Split:
        """The split of the base triple, with its arrow origins, half-swap
        and doubled vertices."""
        return split_presentation(self.base_quiver.presentation)

    @cached_property
    def deck_generators(self) -> dict[str, str]:
        """The deck symmetry on the generators of the cover presentation."""
        corners = self.total_quiver.corner_of_arrow
        arrow_at = {c: a for a, c in corners.items()}
        gen: dict[str, str] = dict(self.deck.arcs)
        for aid, (poly, i) in corners.items():
            gen[aid] = arrow_at[(self.deck.polygons[poly], i)]
        return gen

    @cached_property
    def arrow_lifts(self) -> dict[tuple[str, int], str]:
        """The two lifts of every non-loop arrow of the base, keyed by sheet;
        special loops sit at the branch points and have no lifts."""
        arrow_at = {c: a for a, c in self.total_quiver.corner_of_arrow.items()}
        lifts: dict[tuple[str, int], str] = {}
        for aid, (poly, i) in self.base_quiver.corner_of_arrow.items():
            if i in self.cuts[poly]:
                continue
            for sheet in (1, -1):
                lifts[(aid, sheet)] = arrow_at[self._lift_slot(poly, i, sheet)]
        hits = Counter(lifts.values())
        for a in self.total_quiver.presentation.arrows:
            if hits[a.id] != 1:
                raise error(
                    BAD_LIFT,
                    f"arrow {a.id!r} is the lift of {hits[a.id]} base arrows, not one",
                    (a.id,),
                )
        return lifts


def _cuts(base: DissectedSurface) -> tuple[dict[str, tuple[int, ...]], dict[str, list[int]]]:
    """One pass over the corners of every polygon: the first slots of its
    slit pairs, the corners sitting at orbifold points, and the slit pairs
    before each slot, the sheet swaps and the slot shift there."""
    orbifold = {p.id for p in base.points if p.kind == ORBIFOLD}
    cuts, pieces = {}, {}
    for poly in base.polygons:
        at, before = [], []
        n = len(poly.sides)
        for i, point in enumerate(base.corner_points[poly.id]):
            before.append(len(at))
            if point not in orbifold:
                continue
            if not 1 <= i <= n - 2:
                raise error(
                    BAD_INPUT,
                    f"slit corner {i} of polygon {poly.id!r} touches the boundary segment",
                    (poly.id, i),
                )
            s_in, nxt = poly.sides[i], poly.sides[i + 1]
            if not (
                s_in.is_arc
                and nxt.is_arc
                and s_in.ref == nxt.ref
                and s_in.direction == -nxt.direction
            ):
                raise error(
                    BAD_INPUT,
                    f"orbifold corner {i} of polygon {poly.id!r} is not a slit pair",
                    (poly.id, i),
                )
            at.append(i)
        cuts[poly.id] = tuple(at)
        pieces[poly.id] = before
    return cuts, pieces


def double_cover(surface: DissectedSurface) -> CoveringData:
    """The canonical double cover branched over the orbifold points."""
    raise_on_error(validate(surface))
    classify_dissection(surface)

    orbifold = {p.id for p in surface.points if p.kind == ORBIFOLD}
    slit_arcs = {}
    for a in surface.arcs:
        ends_in_x = [e in orbifold for e in (a.tail, a.head)]
        if all(ends_in_x):
            raise error(BAD_INPUT, f"arc {a.id!r} joins two orbifold points", (a.id,))
        if any(ends_in_x):
            slit_arcs[a.id] = a.head if a.tail in orbifold else a.tail

    points = []
    point_deck: dict[str, str] = {}
    for p in surface.points:
        if p.kind == ORBIFOLD:
            continue
        for eps in (1, -1):
            points.append(MarkedPoint(f"{p.id}{_SIGN[eps]}", p.kind))
            point_deck[f"{p.id}{_SIGN[eps]}"] = f"{p.id}{_SIGN[-eps]}"

    arcs = []
    arc_deck: dict[str, str] = {}
    for a in surface.arcs:
        if a.id in slit_arcs:
            m = slit_arcs[a.id]
            arcs.append(Arc(a.id, f"{m}+", f"{m}-"))
            arc_deck[a.id] = a.id
            continue
        for eps in (1, -1):
            aid = f"{a.id}{_SIGN[eps]}"
            arcs.append(Arc(aid, f"{a.tail}{_SIGN[eps]}", f"{a.head}{_SIGN[eps]}"))
            arc_deck[aid] = f"{a.id}{_SIGN[-eps]}"

    cuts, pieces = _cuts(surface)
    bsegs = []
    polygons = []
    poly_instance: dict[tuple[str, int], str] = {}
    bseg_deck: dict[str, str] = {}
    poly_deck: dict[str, str] = {}
    for poly in surface.polygons:
        n = len(poly.sides)
        before = pieces[poly.id]
        k = len(cuts[poly.id])
        b = surface.bseg_by_id[poly.sides[0].ref]
        for eps in (1, -1):
            pid, bid = f"{poly.id}{_SIGN[eps]}", f"{b.id}{_SIGN[eps]}"
            poly_instance[(poly.id, eps)] = pid
            word: list[Side] = [bseg_side(bid)]
            i = 1
            while i < n:
                sheet = -eps if before[i] % 2 else eps
                side = poly.sides[i]
                if i in cuts[poly.id]:
                    word.append(arc_side(side.ref, sheet))
                    i += 2
                    continue
                word.append(arc_side(f"{side.ref}{_SIGN[sheet]}", side.direction))
                i += 1
            polygons.append(Polygon(pid, tuple(word)))
            bsegs.append(
                BoundarySegment(
                    bid,
                    f"{b.tail}{_SIGN[eps * (-1) ** k]}",
                    f"{b.head}{_SIGN[eps]}",
                )
            )
            poly_deck[pid] = f"{poly.id}{_SIGN[-eps]}"
            bseg_deck[bid] = f"{b.id}{_SIGN[-eps]}"

    total = make_surface(f"{surface.name}.cover", points, arcs, bsegs, polygons)
    raise_on_error(validate(total))
    deck = SurfaceInvolution(
        points=point_deck,
        arcs=arc_deck,
        reversed_arcs=frozenset(slit_arcs),
        bsegs=bseg_deck,
        polygons=poly_deck,
    )
    raise_on_error(validate_involution(total, deck))
    return CoveringData(surface, total, deck, poly_instance, cuts, pieces)


# ---------------------------------------------------------------------------
# Quotient by a half-turn symmetry


def quotient(surface: DissectedSurface, inv: SurfaceInvolution) -> CoveringData:
    """The quotient dissection; reversed fixed arcs end at fresh orbifold
    points.  The result presents ``surface`` as a double cover of the
    quotient with the same bookkeeping as :func:`double_cover`."""
    raise_on_error(validate(surface))
    raise_on_error(validate_involution(surface, inv))
    fixed = {a for a, b in inv.arcs.items() if a == b}

    def rep(mapping, x: str) -> str:
        return min(x, mapping[x])

    prep = lambda p: rep(inv.points, p)
    arep = lambda a: rep(inv.arcs, a)

    points = []
    for p in surface.points:
        if prep(p.id) == p.id:
            points.append(MarkedPoint(p.id, p.kind))
    for j in sorted(fixed):
        points.append(MarkedPoint(f"X_{j}", ORBIFOLD))

    arcs = []
    for a in surface.arcs:
        if a.id in fixed:
            arcs.append(Arc(a.id, prep(a.tail), f"X_{a.id}"))
        elif arep(a.id) == a.id:
            arcs.append(Arc(a.id, prep(a.tail), prep(a.head)))

    bsegs = []
    bseg_rep: dict[str, str] = {}
    for b in surface.bsegs:
        r = rep(inv.bsegs, b.id)
        bseg_rep[b.id] = r
        if r == b.id:
            bsegs.append(BoundarySegment(b.id, prep(b.tail), prep(b.head)))

    def base_side(s: Side) -> Side:
        if not s.is_arc:
            return bseg_side(bseg_rep[s.ref])
        if arep(s.ref) == s.ref:
            return arc_side(s.ref, s.direction)
        return inv.side_image(s)

    polygons = []
    for poly in surface.polygons:
        if rep(inv.polygons, poly.id) != poly.id:
            continue
        word: list[Side] = [base_side(poly.sides[0])]
        for s in poly.sides[1:]:
            if s.is_arc and s.ref in fixed:
                word += (arc_side(s.ref, 1), arc_side(s.ref, -1))
            else:
                word.append(base_side(s))
        polygons.append(Polygon(poly.id, tuple(word)))

    base = make_surface(f"{surface.name}.quotient", points, arcs, bsegs, polygons)
    raise_on_error(validate(base))

    # Sheet-coherent polygon instances: breadth-first propagation along the
    # arc adjacencies, following the parity rule of the covering.  The total
    # words of a polygon and its mirror agree slot by slot.
    cuts, pieces = _cuts(base)
    poly_instance: dict[tuple[str, int], str] = {}
    for bp in base.polygons:
        if (bp.id, 1) in poly_instance:
            continue
        poly_instance[(bp.id, 1)] = bp.id
        poly_instance[(bp.id, -1)] = inv.polygons[bp.id]
        queue = [bp.id]
        while queue:
            cur = queue.pop()
            before = pieces[cur]
            for eps in (1, -1):
                total_poly = surface.polygon_by_id[poly_instance[(cur, eps)]]
                for i, s in enumerate(base.polygon_by_id[cur].sides):
                    if not s.is_arc or s.ref in fixed:
                        continue
                    side = total_poly.sides[i - before[i]]
                    other_poly, _ = surface.occurrences[(side.ref, -side.direction)]
                    q, e = base.occurrences[(s.ref, -s.direction)]
                    eps_q = eps * (-1) ** (before[i] + pieces[q][e])
                    if (q, eps_q) not in poly_instance:
                        poly_instance[(q, eps_q)] = other_poly
                        poly_instance[(q, -eps_q)] = inv.polygons[other_poly]
                        queue.append(q)
                    # A revisited polygon may disagree with the parity rule:
                    # that happens exactly when the covering is twisted
                    # relative to the slit construction (e.g. a torus over a
                    # cylinder).  The spanning-tree labels stand; consumers
                    # that need the true gluing follow the arc occurrences
                    # of the total surface instead of the parity rule.

    return CoveringData(base, surface, inv, poly_instance, cuts, pieces)


# ---------------------------------------------------------------------------
# Lifting curves


@dataclass(frozen=True)
class LiftedCurve:
    """The lift of a base curve, starting on sheet +1.

    For a closed base curve whose lift closes up after one traversal the
    preimage has two components and ``curve`` is the sheet +1 one
    (``doubled`` False).  Otherwise ``curve`` is the single doubled lift
    obtained by concatenating the traversal with its deck image.
    """

    curve: CombinatorialCurve
    doubled: bool


def lift_curve(cov: CoveringData, curve: CombinatorialCurve) -> LiftedCurve:
    """Lift a curve on the base; raises ``CURVE_THROUGH_BRANCH`` when a
    passage runs straight through a branch point."""
    raise_on_error(validate_curve(cov.base, curve))
    for k, p in enumerate(curve.passages):
        for c in cov.cuts[p.polygon]:
            if (p.entry, p.exit) == (c, c + 1):
                raise error(
                    CURVE_THROUGH_BRANCH,
                    f"passage {k} of curve {curve.id!r} runs through "
                    f"the branch point at polygon {p.polygon!r}",
                    (curve.id, k),
                )
    ps = curve.passages
    inst0 = (-1) ** cov.pieces[ps[0].polygon][ps[0].entry]
    inst = inst0
    lifted: list[Passage] = []
    for k, p in enumerate(ps):
        pid, te = cov.slot_image[(p.polygon, p.entry, inst)]
        _, tx = cov.slot_image[(p.polygon, p.exit, inst)]
        side = p.bseg_side if te == tx else chord_bseg_side(te, tx)
        lifted.append(Passage(pid, te, tx, side))
        if not curve.closed and k + 1 == len(ps):
            break
        # Follow the actual gluing of the total surface rather than the
        # parity rule, so that twisted coverings lift correctly too.
        nxt = ps[(k + 1) % len(ps)]
        exit_side = cov.total.polygon_by_id[pid].sides[tx]
        npid, nslot = cov.total.occurrences[(exit_side.ref, -exit_side.direction)]
        if cov.poly_instance[(nxt.polygon, 1)] == npid:
            inst = 1
        elif cov.poly_instance[(nxt.polygon, -1)] == npid:
            inst = -1
        else:
            raise error(
                BAD_LIFT,
                f"passage {k} of curve {curve.id!r} leaves for {npid!r}, "
                f"which is no lift of {nxt.polygon!r}",
                (curve.id, k),
            )
        if cov.slot_image[(nxt.polygon, nxt.entry, inst)] != (npid, nslot):
            raise error(
                BAD_LIFT,
                f"passage {k} of curve {curve.id!r} leaves through slot {nslot} "
                f"of {npid!r}, not the lift of the next entry",
                (curve.id, k),
            )
    doubled = curve.closed and inst != inst0
    if doubled:
        lifted += _moved_passages(cov.deck, lifted)
    out = CombinatorialCurve(f"{curve.id}.lift", curve.closed, tuple(lifted))
    raise_on_error(validate_curve(cov.total, out))
    return LiftedCurve(out, doubled)


def transport_curve(cov: CoveringData, curve: CombinatorialCurve) -> CombinatorialCurve:
    """The deck image of a curve on the total surface (same slots and
    sides); the curve is validated on ``cov.total`` first."""
    raise_on_error(validate_curve(cov.total, curve))
    moved = _moved_passages(cov.deck, curve.passages)
    return CombinatorialCurve(f"{curve.id}.deck", curve.closed, moved)
