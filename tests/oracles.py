"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the package's own linear algebra and
topology code: dimensions are obtained by brute-force path enumeration and
surfaces are measured by counting cells, so agreement with the library is
meaningful evidence rather than a tautology.  :func:`companion_check`
validates a skew-gentle triple through its built companion gentle pair,
the reference for the library's one walk over the triple, and
:func:`is_connected` searches a glued quiver's underlying graph, the
reference for the piece-graph decision of ``random_triple``.
:func:`presentation_census` lists every small presentation, and
:func:`census_round_trip` sends each gentle pair and triple among them
through the reconstruction and back.  The
presentation isomorphism search and the reversal of a curve check the
paper's bijection and the sign of a winding, and tracing the faces of a
dual arc system checks the crossing count of ``is_dual_dissection``;
:func:`corner_algebra` cuts a
corner ``e·A·e`` by the sandwich ``e·b·e`` of every basis element, the
reference for the index set the reductions read off the path ends; the
two builders at the end make small algebras and maps from labels for
hand-made test cases, and :func:`index_of` and :func:`element` read a
basis element's position off its label, which the library never does;
:class:`CountedReads` counts the reads of an index.  The one
exception is :func:`verify_multiplicative`, a row comparison over the
library's sparse-row helpers run on every row of a table: the tests hold
it against the all-pairs loop :func:`multiplicative`, and the iterated
crossed-product check, which compares single cells block by block,
against both.  The objects that check compares without building, the
twice-crossed product, ``M₂(A)`` and the Cohen--Montgomery images, are
built at the end for those comparisons; the tests hold the last two
against :func:`matrix_table` and :func:`cohen_montgomery_image`.
:class:`SpanBasis`, an exact reduced row basis on the library's sparse
vector helpers, spans the relations independently of the signed
union-find that reaches the normal forms of ``graded_path_algebra``, and
is the reference for the rank count of ``verify_morphism``.  At the end,
:func:`word_normal_forms` reduces every word modulo those spans, and
:func:`word_rows`, :func:`word_reduce` and :func:`relabelled_basis_map`
rebuild from its normal forms, by rewriting words, what the library
reads off the extension table of ``graded_path_algebra``;
:func:`basis_labels` lists the words those spans leave free, the labels
the library renders from its prefix links; and
:func:`involution_all_cells` and :func:`blocks_all_rows` are the
involution guard and the iterated check's block comparison on every
row, the references for the versions that read only the generator rows.  :func:`crossed_rows` is the crossed
product cell by cell from its product rule, the reference for the cells
``skew_group_algebra`` reads through ``(π, σ)``, and :func:`generates` the full
two-sided closure that the surjectivity check of ``verify_morphism``
takes modulo the span of the target's non-generators.  At the end,
:func:`check_surface`, :func:`check_involution` and :func:`check_curve`
are the surface, involution and curve checks as they ran on ray tuples
(one successor path per point, words compared as ``(kind, ref,
direction)`` tuples), the references for the library's checks on
positions, and :func:`invariant_tuple_by_curves` traces, validates and
sums the canonical boundary and point curves of :func:`boundary_curves`
and :func:`puncture_loop`, the reference for the corner counts that
``invariant_tuple`` and ``canonical_windings`` read their windings off.
Last, :func:`argparse_cli_parser` is the command line as an argparse
parser, the reference for the one-pass reading of ``cli.main``.
"""
from __future__ import annotations

import argparse
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from skewgentle import (
    Arrow,
    CombinatorialCurve,
    CornerAlgebra,
    InvariantTuple,
    Passage,
    SignedPermutation,
    TableAlgebra,
    algebra_dimension,
    boundary_components,
    check_gentle,
    check_skew_gentle,
    extract_quiver,
    make_presentation,
    skew_group_algebra,
    surface_from_gentle,
    surface_from_triple,
    topology,
    validate_curve,
    winding,
)
from skewgentle.algebra import _accumulate, _add, _preimages, vscale
from skewgentle.cli import (
    _cmd_compare,
    _cmd_complex,
    _cmd_cover,
    _cmd_export_dot,
    _cmd_invariants,
    _cmd_quiver,
    _cmd_quotient,
    _cmd_skewgroup,
    _cmd_split,
    _cmd_validate,
    _cmd_winding,
)
from skewgentle.diagnostics import (
    ARC_OCCURRENCE,
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
    UNKNOWN_ID,
    UNREVERSED_FIXED_ARC,
    Report,
    error,
    raise_on_error,
)
from skewgentle.linefield import _trace_boundary
from skewgentle.presentations import _check_ids
from skewgentle.surface import (
    BOUNDARY,
    ORBIFOLD,
    POINT_KINDS,
    PUNCTURE,
    _require_valid,
    chord_bseg_side,
)


def forbidden_pairs(presentation) -> set[tuple[str, str]]:
    """The consecutive arrow pairs killed by monomial relations.

    Raises if any relation is not a single length-two path, since only
    then does pair-avoidance characterise a basis.
    """
    pairs: set[tuple[str, str]] = set()
    for rel in presentation.relations:
        if len(rel) != 1 or len(rel[0]) != 2:
            raise ValueError(f"not a monomial quadratic relation: {rel!r}")
        pairs.add((rel[0][0], rel[0][1]))
    return pairs


def monomial_path_count(presentation, cap: int = 100000, nilpotent_loops=()) -> int:
    """Dimension of a monomial quadratic path algebra by enumeration.

    Counts the empty path at every vertex plus every composable arrow
    sequence that avoids the forbidden pairs and the square of each loop
    in ``nilpotent_loops`` (so a skew-gentle triple counts with its special
    loops squaring to zero).  ``cap`` guards against relation-free cycles.
    """
    pairs = forbidden_pairs(presentation)
    pairs.update((e, e) for e in nilpotent_loops)
    by_source: dict[str, list] = {v: [] for v in presentation.vertices}
    for a in presentation.arrows:
        by_source[a.source].append(a)
    total = len(presentation.vertices)
    stack = [(a,) for a in presentation.arrows]
    while stack:
        path = stack.pop()
        total += 1
        if total > cap:
            raise RuntimeError("path count exceeded cap; algebra looks infinite")
        last = path[-1]
        for nxt in by_source[last.target]:
            if (last.id, nxt.id) not in pairs:
                stack.append(path + (nxt,))
    return total


def companion_pair(triple):
    """The gentle pair whose relations add the square of each special loop."""
    extra = tuple(((e, e),) for e in sorted(triple.special))
    return make_presentation(
        triple.vertices, triple.arrows, triple.relations + extra, special=()
    )


def companion_check(triple) -> Report:
    """The findings of ``check_skew_gentle`` by the companion route: the
    triple's own id, two-term and loop checks, then ``check_gentle`` on the
    built :func:`companion_pair`."""
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
    if report.ok:
        report.extend(check_gentle(companion_pair(triple)))
    return report


def is_connected(pres) -> bool:
    """Whether the underlying graph of the quiver is connected, by a
    search from its first vertex; the empty quiver is connected."""
    if not pres.vertices:
        return True
    neighbours = {v: set() for v in pres.vertices}
    for a in pres.arrows:
        neighbours[a.source].add(a.target)
        neighbours[a.target].add(a.source)
    seen = {pres.vertices[0]}
    stack = [pres.vertices[0]]
    while stack:
        for w in neighbours[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(pres.vertices)


def _subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )


def presentation_census(k: int, max_arrows: int):
    """Every presentation on the vertices ``1..k`` with at most
    ``max_arrows`` arrows ``a0, a1, ...`` placed, in order, on a multiset
    of (source, target) pairs, with any set of composable pairs as
    monomial relations and any subset of the loops whose square is not a
    relation as special loops.  Arrow sets in which a vertex has more
    than two arrows in or out, and relation sets in which an arrow starts
    or ends two relations, are skipped: no check accepts them."""
    vertices = [str(v) for v in range(1, k + 1)]
    ends = [(s, t) for s in vertices for t in vertices]
    for n in range(max_arrows + 1):
        for placed in itertools.combinations_with_replacement(ends, n):
            sources, targets = Counter(s for s, _ in placed), Counter(t for _, t in placed)
            if any(c > 2 for c in (*sources.values(), *targets.values())):
                continue
            arrows = [Arrow(f"a{i}", s, t) for i, (s, t) in enumerate(placed)]
            composable = [(a.id, b.id) for a in arrows for b in arrows if a.target == b.source]
            for rels in _subsets(composable):
                firsts, seconds = {p[0] for p in rels}, {p[1] for p in rels}
                if len(firsts) < len(rels) or len(seconds) < len(rels):
                    continue
                loops = [a.id for a in arrows if a.source == a.target and (a.id, a.id) not in rels]
                for special in _subsets(loops):
                    yield make_presentation(vertices, arrows, [(p,) for p in rels], special)


def census_round_trip(k: int, max_arrows: int) -> tuple[int, int]:
    """The numbers of gentle pairs (no special loop, ``check_gentle``) and
    of triples (``check_skew_gentle``) in :func:`presentation_census`.

    Each one is rebuilt as a surface, whose quiver must be isomorphic to
    it and whose ``algebra_dimension`` must equal the path count with the
    special loops squaring to zero; a failure raises ``AssertionError``
    naming the presentation."""
    pairs = triples = 0
    for pres in presentation_census(k, max_arrows):
        if pres.special:
            if not check_skew_gentle(pres).ok:
                continue
            surface = surface_from_triple(pres)
            triples += 1
        else:
            if not check_gentle(pres).ok:
                continue
            surface = surface_from_gentle(pres)
            pairs += 1
        assert iso_presentations(extract_quiver(surface).presentation, pres) is not None, pres
        dimension = monomial_path_count(pres, nilpotent_loops=pres.special)
        assert algebra_dimension(surface) == dimension, pres
    return pairs, triples


def euler_characteristic(surface) -> int:
    """V - E + F directly from the cell counts of the encoding."""
    v = len(surface.points)
    e = len(surface.arcs) + len(surface.bsegs)
    f = len(surface.polygons)
    return v - e + f


def boundary_circle_count(surface) -> int:
    """Number of boundary circles, by following segment endpoints."""
    succ = {}
    start_of = {}
    for b in surface.bsegs:
        start_of[b.tail] = b.id
    for b in surface.bsegs:
        succ[b.id] = start_of[b.head]
    seen: set[str] = set()
    circles = 0
    for b in surface.bsegs:
        if b.id in seen:
            continue
        circles += 1
        cur = b.id
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
    return circles


def genus_from_counts(chi: int, boundary_circles: int) -> Fraction:
    """Genus of a connected oriented surface from its characteristic."""
    return Fraction(2 - chi - boundary_circles, 2)


def poincare_hopf_total(surface) -> Fraction:
    """4 - 4g, which sum(w + 2) over the boundary components and interior
    points of a line field on a connected surface must equal (Poincare-Hopf;
    Lekili-Polishchuk, arXiv 1801.06370), with g from the cell counts."""
    genus = genus_from_counts(euler_characteristic(surface), boundary_circle_count(surface))
    return 4 - 4 * genus


def one_point_discs(surface, curves) -> bool:
    """Whether open curves cut the surface into discs that each hold one
    dissection point, found by tracing the faces of their overlay with the
    boundary.

    The overlay's vertices are the boundary marked points, the segment
    midpoints and the crossings; its edges are the two halves of each
    boundary segment, directed along the boundary, and the chords of each
    curve.  A face keeps its edges on its left.  It claims the marked
    points it leaves and, at each crossing it passes, the end of the
    crossed arc on its side.  The curves, each of which must pass
    ``validate_curve``, pass here when they are open with distinct ids and
    cross every arc once; when each face inside the surface claims one
    point and each point is claimed once; and when V - E + F is the Euler
    characteristic, so every face is a disc.
    """
    if any(c.closed for c in curves) or len({c.id for c in curves}) != len(curves):
        return False
    crossed = {
        c.id: [surface.polygon_by_id[p.polygon].sides[p.exit].ref for p in c.passages[:-1]]
        for c in curves
    }
    if sorted(a for arcs in crossed.values() for a in arcs) != sorted(a.id for a in surface.arcs):
        return False

    # Nodes: ("m", point), ("g", bseg) for a segment midpoint, ("c", curve,
    # k) for a crossing.  A germ (edge, end) is an edge at one of its ends.
    edges: list[tuple[tuple, tuple]] = []
    side_of_germ: dict[tuple[int, int], int] = {}
    crossing_arc: dict[tuple, str] = {}
    ends_at: dict[str, list] = {b.id: [] for b in surface.bsegs}  # (slot, germ)
    for b in surface.bsegs:  # edges 2i, 2i + 1: the halves of bseg i, tail -> head
        edges += [(("m", b.tail), ("g", b.id)), (("g", b.id), ("m", b.head))]
    for c in curves:
        ps = c.passages
        m = len(ps) - 1
        chain = [("c", c.id, k) for k in range(m)]
        crossing_arc.update(zip(chain, crossed[c.id]))
        chain = [("g", _green(surface, ps[0])), *chain, ("g", _green(surface, ps[-1]))]
        for t in range(m + 1):
            e = len(edges)
            edges.append((chain[t], chain[t + 1]))
            sides = surface.polygon_by_id[ps[t].polygon].sides
            if t == 0:
                ends_at[chain[0][1]].append((ps[0].exit, (e, 0)))
            else:
                side_of_germ[(e, 0)] = sides[ps[t].entry].direction
            if t == m:
                ends_at[chain[-1][1]].append((ps[-1].entry, (e, 1)))
            else:
                side_of_germ[(e, 1)] = sides[ps[t].exit].direction

    # Counterclockwise germs at each node.  At a midpoint: the outgoing
    # boundary half, the curve ends by polygon slot, the incoming half.
    rot: dict[tuple, list[tuple[int, int]]] = {}
    for i, b in enumerate(surface.bsegs):
        rot[("g", b.id)] = [(2 * i + 1, 0), *(g for _, g in sorted(ends_at[b.id])), (2 * i, 1)]
    for e, pair in enumerate(edges):
        for end, node in enumerate(pair):
            if node[0] != "g":
                rot.setdefault(node, []).append((e, end))
    if any(len(germs) != 2 for node, germs in rot.items() if node[0] != "g"):
        return False

    # Leave a node along a germ, arrive at the far end, and go on along the
    # clockwise-next germ there.
    visited: set[tuple[int, int]] = set()
    faces = []
    for start in itertools.product(range(len(edges)), (0, 1)):
        walk = []
        cur = start
        while cur not in visited:
            visited.add(cur)
            walk.append(cur)
            e, s = cur
            germs = rot[edges[e][1 - s]]
            cur = germs[(germs.index((e, 1 - s)) - 1) % len(germs)]
        if walk and cur != walk[0]:
            return False
        if walk and not any(e < 2 * len(surface.bsegs) and s == 1 for e, s in walk):
            faces.append(walk)

    claimed = {p.id: 0 for p in surface.points}
    for walk in faces:
        claims = set()
        for e, s in walk:
            node_from, node_to = edges[e][s], edges[e][1 - s]
            if node_from[0] == "m":
                claims.add(node_from[1])
            if node_to[0] == "c":
                arc = surface.arc_by_id[crossing_arc[node_to]]
                claims.add(arc.tail if side_of_germ[(e, 1 - s)] == -1 else arc.head)
        if len(claims) != 1:
            return False
        claimed[claims.pop()] += 1
    if any(k != 1 for k in claimed.values()):
        return False
    return len(rot) - len(edges) + len(faces) == euler_characteristic(surface)


def _green(surface, passage) -> str:
    """The boundary segment of the polygon a passage runs through."""
    return surface.polygon_by_id[passage.polygon].sides[0].ref


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Row rank over the rationals by naive elimination."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


class SpanBasis:
    """An incrementally maintained reduced row basis (exact RREF): the
    reference for the normal forms of ``graded_path_algebra`` and for the
    rank that ``verify_morphism`` counts.

    ``order`` ranks the columns; the smallest rank in a row is its pivot.
    ``rows`` maps each pivot to its row, which has 1 at its own pivot and
    no other pivot column.  ``holders`` indexes the other columns: it maps
    each column that is not a pivot to the pivots of the rows holding it.
    So a vector is reduced in one pass over the pivot columns it holds,
    and a new pivot is cleared from exactly the rows in its index entry.
    """

    def __init__(self, order=None):
        self.order = order if order is not None else (lambda k: k)
        self.rows: dict = {}  # pivot key -> reduced row
        self.holders: dict = {}  # non-pivot column -> pivots of rows holding it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row: dict) -> dict:
        # A stored row holds no other pivot column, so clearing one pivot
        # leaves the coefficients at the others as they are.
        rows = self.rows
        out = dict(row)
        for p in [k for k in row if k in rows]:
            _accumulate(out, rows[p], -out[p])
        return out

    def add(self, row: dict) -> bool:
        """Insert a vector; returns True when the rank grew.

        The stored row is scaled to pivot 1.  An ``int`` row that the pivot
        divides is divided exactly and stays ``int``; otherwise the inverse
        of the pivot is taken through ``Fraction``, so ``int / int`` never
        gives a float, and kept as an ``int`` when it is integral.
        """
        row = self._reduce(row)
        if not row:
            return False
        lead = min(row, key=self.order)
        pivot = row[lead]
        if pivot != 1:
            if type(pivot) is int and all(
                type(v) is int and not v % pivot for v in row.values()
            ):
                row = {k: v // pivot for k, v in row.items()}
            else:
                inv = Fraction(1, pivot)
                row = vscale(row, inv.numerator if inv.denominator == 1 else inv)
            row[lead] = 1
        holders = self.holders
        others = [k for k in row if k != lead]
        for piv in holders.pop(lead, ()):
            existing = self.rows[piv]
            held = [k in existing for k in others]
            _accumulate(existing, row, -existing[lead])
            for k, was in zip(others, held):
                if was != (k in existing):
                    if was:
                        holders[k].discard(piv)
                    else:
                        holders.setdefault(k, set()).add(piv)
        for k in others:
            holders.setdefault(k, set()).add(lead)
        self.rows[lead] = row
        return True

    def contains(self, row: dict) -> bool:
        return not self._reduce(row)


def relation_spans(presentation) -> list:
    """For each length ``L`` from 0, the pair ``(words, span)``: the words
    of length ``L`` that avoid the single-path relations and the square of
    each special loop, and a :class:`SpanBasis` of the two-term relations
    ``u·(p + q)·v`` among them, a term that is not a word being zero.  The
    list stops at the first length whose quotient ``words / span`` is 0;
    the ideal is two-sided, so every longer quotient is 0 as well.

    The span ranks the words in reverse lexicographic order, so the
    lexicographically first word of each piece that survives is the one
    column its rows leave free (the relations among ``m`` words of a piece
    have rank ``m - 1`` and a kernel of full support, so any ``m - 1`` of
    its columns are pivots): a word reduced modulo the span is its normal
    form over those words (:func:`word_normal_forms`)."""
    forbidden = {rel[0] for rel in presentation.relations if len(rel) == 1}
    forbidden.update((e, e) for e in presentation.special)
    binomials = [rel for rel in presentation.relations if len(rel) == 2]
    target = {a.id: a.target for a in presentation.arrows}
    out = []
    layer = [(v, ()) for v in presentation.vertices]
    while True:
        words = set(layer)
        rank = {w: -i for i, w in enumerate(sorted(words))}
        span = SpanBasis(rank.__getitem__)
        for src, arrows in layer:
            for i in range(len(arrows) - 1):
                for p, q in binomials:
                    for here, there in ((p, q), (q, p)):
                        if arrows[i : i + 2] == here:
                            row = {(src, arrows): 1}
                            other = (src, arrows[:i] + there + arrows[i + 2 :])
                            if other in words:
                                row[other] = row.get(other, 0) + 1
                            span.add(row)
        out.append((layer, span))
        if span.rank == len(layer):
            return out
        layer = [
            (src, arrows + (a.id,))
            for src, arrows in layer
            for a in presentation.arrows
            if a.source == (target[arrows[-1]] if arrows else src)
            and (not arrows or (arrows[-1], a.id) not in forbidden)
        ]


def skew_group_table(algebra, images) -> dict:
    """The crossed product of ``algebra`` with ``{1, s}``, cell by cell.

    Written straight from ``(x ⊗ g)(y ⊗ h) = x · g(y) ⊗ (g + h)``:
    ``images[j]`` is ``s(b_j)`` keyed by basis index, and ``x · g(y)`` is
    expanded through the given product table of ``algebra`` one term at a
    time.  Returns ``{((x, g), (y, h)): {(z, g + h): coefficient}}`` over
    the basis labels, with zero coefficients dropped.
    """
    labels = algebra.labels
    table = algebra.table
    out = {}
    for i, x in enumerate(labels):
        for g in (0, 1):
            for j, y in enumerate(labels):
                gy = images[j] if g else {j: Fraction(1)}
                product: dict = {}
                for k, c in gy.items():
                    for m, d in table[i][k].items():
                        product[m] = product.get(m, 0) + c * d
                for h in (0, 1):
                    out[((x, g), (y, h))] = {
                        (labels[m], (g + h) % 2): c for m, c in product.items() if c
                    }
    return out


def corner_dimension(algebra, idempotent) -> int:
    """Dimension of the corner ``e·A·e`` as the rank of the sandwiches.

    Each ``e·b_i·e`` is expanded through the product table of ``algebra``
    one term at a time into a dense row over the basis; the corner is
    spanned by these rows, so its dimension is their rank.
    """
    table = algebra.table
    n = len(table)
    rows = []
    for i in range(n):
        left = [Fraction(0)] * n  # e · b_i
        for p, c in idempotent.items():
            for m, d in table[p][i].items():
                left[m] += c * d
        row = [Fraction(0)] * n  # (e · b_i) · e
        for m, c in enumerate(left):
            if not c:
                continue
            for q, d in idempotent.items():
                for k, x in table[m][q].items():
                    row[k] += c * d * x
        if any(row):
            rows.append(row)
    return mat_rank(rows)


@dataclass
class Corner:
    """The corner ``e·A·e`` of ``parent`` as a table of its own: corner
    basis element ``k`` is parent basis element ``indices[k]``."""

    parent: TableAlgebra
    idempotent: dict
    algebra: TableAlgebra
    indices: tuple

    def express(self, x):
        """Corner coordinates of a parent vector, or None if outside."""
        position = {i: k for k, i in enumerate(self.indices)}
        if not all(k in position for k in x):
            return None
        return {position[k]: c for k, c in x.items()}


def corner_algebra(A, e) -> Corner:
    """Cut ``e·A·e`` out of the product table of ``A`` by basis index.

    ``e`` must be an idempotent with ``e·b·e`` equal to ``b`` or to 0 for
    every basis element ``b``; the corner keeps the ``b`` with
    ``e·b·e = b``, each sandwich taken with ``TableAlgebra.mul``, and its
    table is the table of ``A`` restricted to them and renumbered.  Raises
    ``ValueError`` when an index of ``e`` is outside the basis, when ``e``
    squares wrong and when some ``e·b·e`` is neither ``b`` nor 0.
    """
    n = A.dimension
    for k in e:
        if not (isinstance(k, int) and 0 <= k < n):
            raise ValueError(f"idempotent index {k!r} is outside the basis of {n} elements")
    if A.mul(e, e) != e:
        raise ValueError("corner element does not square to itself")
    indices = []
    for i in range(n):
        sandwich = A.mul(A.mul(e, {i: 1}), e)
        if sandwich == {i: 1}:
            indices.append(i)
        elif sandwich:
            raise ValueError(f"e*b*e is neither b nor 0 for basis element {A.labels[i]!r}")
    position = {i: k for k, i in enumerate(indices)}
    rows = [
        {position[j]: (position[k], c) for j, (k, c) in A.rows[i].items() if j in position}
        for i in indices
    ]
    unit = {position[k]: c for k, c in e.items()}
    labels = tuple(f"c{k}" for k in range(len(indices)))
    return Corner(A, e, TableAlgebra(labels, rows, unit, range(len(labels))), tuple(indices))


def generated_dimension(algebra, gens) -> int:
    """Dimension of the unital subalgebra generated by ``gens``.

    Every element is a vector over the basis, and a product is expanded
    through the dense product table of ``algebra`` one term at a time.
    Starting from the unit and the generators, every independent vector is
    multiplied by every generator on both sides until no product is
    independent of the vectors kept; the dimension is the rank of those
    vectors.
    """
    n = algebra.dimension
    return mat_rank([[row.get(k, 0) for k in range(n)] for row in _generated_rows(algebra, gens)])


def generated_rank_modulo(algebra, gens, kept) -> int:
    """The dimension of ``(S + N)/N``, for ``S`` the unital subalgebra
    generated by ``gens`` and ``N`` the span of the basis elements whose
    index is not in ``kept``: the rank of the vectors spanning ``S`` (see
    :func:`generated_dimension`) cut down to the coordinates in ``kept``."""
    kept = sorted(kept)
    return mat_rank([[row.get(k, 0) for k in kept] for row in _generated_rows(algebra, gens)])


def generates(target, images) -> bool:
    """Whether the unital subalgebra that ``images`` generate is all of
    ``target``, a table or a :class:`~skewgentle.CornerAlgebra`, whose
    images are given in its parent's coordinates: the full two-sided
    closure of :func:`generated_dimension`, on the corner's own table cut
    by :func:`corner_algebra`."""
    if isinstance(target, CornerAlgebra):
        cut = corner_algebra(target.parent, target.idempotent)
        target, images = cut.algebra, [cut.express(img) for img in images]
    return generated_dimension(target, images) == target.dimension


def _generated_rows(algebra, gens) -> list:
    """Vectors, as dicts of their nonzero coordinates, spanning the unital
    subalgebra generated by ``gens``."""
    table = algebra.table

    def times(x, y):
        out = {}
        for i, c in x.items():
            for j, d in y.items():
                for k, e in table[i][j].items():
                    out[k] = out.get(k, 0) + c * d * e
        return {k: v for k, v in out.items() if v}

    # (pivot, the row with 1 at the pivot and 0 at every earlier pivot)
    echelon: list[tuple[int, dict]] = []

    def independent(row) -> bool:
        row = dict(row)
        for col, basis_row in echelon:
            factor = row.get(col)
            if factor:
                for k, y in basis_row.items():
                    row[k] = row.get(k, 0) - factor * y
        row = {k: v for k, v in row.items() if v}
        if not row:
            return False
        col = min(row)
        inv = Fraction(1) / row[col]
        echelon.append((col, {k: x * inv for k, x in row.items()}))
        return True

    generators = [{k: c for k, c in g.items() if c} for g in gens]
    unit = {k: c for k, c in algebra.unit.items() if c}
    kept = [row for row in [unit] + generators if independent(row)]
    frontier = list(kept)
    while frontier:
        new = []
        for w in frontier:
            for g in generators:
                for row in (times(w, g), times(g, w)):
                    if independent(row):
                        kept.append(row)
                        new.append(row)
        frontier = new
    return kept


def word_product(presentation, values, x, y) -> dict:
    """The product ``x · y`` of two path labels (``y`` first) by rewriting words.

    Labels are ``(source vertex, arrows in application order)``.  The two
    words are concatenated; each repeat of a special loop ``e`` (a key of
    ``values``) is dropped and multiplies the coefficient by ``values[e]``.
    The product is zero when the words do not compose, when the rewritten
    word contains a single-path relation, or when the coefficient is zero.
    Returns ``{label: coefficient}``.
    """
    ends = {a.id: (a.source, a.target) for a in presentation.arrows}
    (x_source, x_word), (y_source, y_word) = x, y
    y_target = ends[y_word[-1]][1] if y_word else y_source
    if y_target != x_source:
        return {}
    coeff = Fraction(1)
    word: list[str] = []
    for a in y_word + x_word:
        if word and word[-1] == a and a in values:
            coeff *= values[a]
        else:
            word.append(a)
    pairs = forbidden_pairs(presentation)
    if not coeff or any(pair in pairs for pair in zip(word, word[1:])):
        return {}
    return {(y_source, tuple(word)): coeff}


def matrix_table(algebra) -> dict:
    """``M₂(algebra)``, cell by cell, over labels ``(r, x, c)`` for ``E_rc ⊗ x``.

    Written straight from ``(E_rm ⊗ x)(E_mc ⊗ y) = E_rc ⊗ x·y``, with
    ``x·y`` read from the product table of ``algebra`` one cell at a time;
    matrix units whose inner indices differ multiply to zero.  Returns
    ``{((r, x, m), (k, y, c)): {(r, z, c): coefficient}}`` over every pair
    of labels, with zero coefficients dropped.
    """
    labels = algebra.labels
    table = algebra.table
    out = {}
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            cell = table[i][j]
            for r in (0, 1):
                for m in (0, 1):
                    for k in (0, 1):
                        for c in (0, 1):
                            out[((r, x, m), (k, y, c))] = (
                                {(r, labels[z], c): v for z, v in cell.items() if v}
                                if m == k
                                else {}
                            )
    return out


def cohen_montgomery_image(algebra, images, label) -> dict:
    """The image of ``(x ⊗ g) ⊗ j`` under the Cohen--Montgomery map
    ``Σ_c (-1)^(jc) E_(g+c)c ⊗ s^(g+c)(x)`` into ``M₂(algebra)``.

    ``label`` is ``((x, g), j)``; ``images[p]`` is ``s(b_p)`` keyed by
    basis index.  Returns ``{(r, y, c): coefficient}`` over the labels of
    :func:`matrix_table`.
    """
    labels = algebra.labels
    (x, g), j = label
    p = labels.index(x)
    out = {}
    for c in (0, 1):
        r = (g + c) % 2
        sign = -1 if j and c else 1
        for q, v in (images[p] if r else {p: Fraction(1)}).items():
            out[(r, labels[q], c)] = sign * v
    return out


def associative(algebra) -> bool:
    """Unitality and associativity of a product table, by brute force.

    Every triple of basis indices is visited, with no pruning:
    ``(b_i b_j) b_k`` and ``b_i (b_j b_k)`` are expanded through the
    table one cell at a time and compared, and ``1·b_i`` and ``b_i·1``
    must both be ``b_i``.
    """
    table = algebra.table
    n = len(table)

    def clean(acc):
        return {k: c for k, c in acc.items() if c}

    for i in range(n):
        left, right = {}, {}
        for u, c in algebra.unit.items():
            for k, d in table[u][i].items():
                left[k] = left.get(k, 0) + c * d
            for k, d in table[i][u].items():
                right[k] = right.get(k, 0) + c * d
        if clean(left) != {i: 1} or clean(right) != {i: 1}:
            return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs, rhs = {}, {}
                for m, c in table[i][j].items():
                    for z, d in table[m][k].items():
                        lhs[z] = lhs.get(z, 0) + c * d
                for m, c in table[j][k].items():
                    for z, d in table[i][m].items():
                        rhs[z] = rhs.get(z, 0) + c * d
                if clean(lhs) != clean(rhs):
                    return False
    return True


def multiplicative(A, B, images) -> bool:
    """``f(b_i b_j) == f(b_i) f(b_j)`` for every pair of basis indices of
    ``A``, where ``images[i]`` is ``f(b_i)`` in ``B``, by plain loops over
    both tables with no pruning."""

    def clean(acc):
        return {k: c for k, c in acc.items() if c}

    table, target = A.table, B.table

    def mul(x, y):
        out = {}
        for p, a in x.items():
            for q, b in y.items():
                for k, c in target[p][q].items():
                    out[k] = out.get(k, 0) + a * b * c
        return clean(out)

    n = len(table)
    return all(
        apply_map(images, table[i][j]) == mul(images[i], images[j])
        for i in range(n)
        for j in range(n)
    )


def twist_compat(skew_labels, raw_images, symmetry) -> dict:
    """For each generator of a crossed-product comparison, whether negating
    the group-degree-one coefficients of its image (``skew_labels[k]`` is
    ``(label, g)``) gives the image of its partner under ``symmetry``."""
    out = {}
    for gen, image in raw_images.items():
        twisted = {}
        for k, c in image.items():
            if c:
                twisted[k] = -c if skew_labels[k][1] else c
        partner = {k: c for k, c in raw_images[symmetry[gen]].items() if c}
        out[gen] = twisted == partner
    return out


def iso_presentations(p1, p2):
    """Search for an isomorphism of presentations.

    Matches vertices and arrows compatibly with sources, targets, special
    sets and relations (compared as sets of path families).  Returns
    ``{"vertices": ..., "arrows": ...}`` or ``None``.
    """
    if (
        len(p1.vertices) != len(p2.vertices)
        or len(p1.arrows) != len(p2.arrows)
        or len(p1.special) != len(p2.special)
        or sorted(len(r) for r in p1.relations) != sorted(len(r) for r in p2.relations)
    ):
        return None

    def vertex_sig(p, v):
        return (
            len(p.outgoing[v]),
            len(p.incoming[v]),
            sum(1 for e in p.special if p.arrow_by_id[e].source == v),
        )

    if sorted(vertex_sig(p1, v) for v in p1.vertices) != sorted(
        vertex_sig(p2, v) for v in p2.vertices
    ):
        return None

    order = sorted(p1.vertices, key=lambda v: (vertex_sig(p1, v), v), reverse=True)
    vmap = {}
    used_v = set()

    def arrows_between(p, u, v):
        return sorted(a.id for a in p.outgoing[u] if a.target == v)

    def consistent(v1, v2):
        if vertex_sig(p1, v1) != vertex_sig(p2, v2):
            return False
        for u1, u2 in vmap.items():
            if len(arrows_between(p1, v1, u1)) != len(arrows_between(p2, v2, u2)):
                return False
            if len(arrows_between(p1, u1, v1)) != len(arrows_between(p2, u2, v2)):
                return False
        return len(arrows_between(p1, v1, v1)) == len(arrows_between(p2, v2, v2))

    def finish():
        # Assign arrows within each parallel class, trying permutations.
        classes = []
        for u in p1.vertices:
            for v in p1.vertices:
                c1 = arrows_between(p1, u, v)
                if not c1:
                    continue
                c2 = arrows_between(p2, vmap[u], vmap[v])
                if len(c1) != len(c2):
                    return None
                classes.append((c1, c2))

        rel1 = {frozenset(r) for r in p1.relations}
        rel2 = {frozenset(r) for r in p2.relations}
        sp1, sp2 = p1.special, p2.special

        def assign(i, amap):
            if i == len(classes):
                mapped = {
                    frozenset(tuple(amap[x] for x in path) for path in r)
                    for r in rel1
                }
                if mapped != rel2 or {amap[e] for e in sp1} != set(sp2):
                    return None
                return dict(amap)

            c1, c2 = classes[i]
            for perm in itertools.permutations(c2):
                if any((x in sp1) != (y in sp2) for x, y in zip(c1, perm)):
                    continue
                res = assign(i + 1, {**amap, **dict(zip(c1, perm))})
                if res is not None:
                    return res
            return None

        return assign(0, {})

    def backtrack(i):
        if i == len(order):
            return finish()
        v1 = order[i]
        for v2 in p2.vertices:
            if v2 in used_v or not consistent(v1, v2):
                continue
            vmap[v1] = v2
            used_v.add(v2)
            res = backtrack(i + 1)
            if res is not None:
                return res
            del vmap[v1]
            used_v.discard(v2)
        return None

    amap = backtrack(0)
    if amap is None:
        return None
    return {"vertices": dict(vmap), "arrows": amap}


def is_dissection_isomorphism(s1, s2, maps) -> bool:
    """Whether ``maps`` (keys ``points``, ``arcs``, ``bsegs``,
    ``polygons``) is an orientation-preserving isomorphism of dissections.

    Checked cell by cell, without any search: the four maps are bijections
    onto the cells of ``s2``, point kinds are kept, every polygon word goes
    slot by slot onto the word of its image with one flip per arc, and the
    ends of every arc (swapped when it flips) and boundary segment go
    through the point map.
    """
    cells = {
        "points": (s1.points, s2.points),
        "arcs": (s1.arcs, s2.arcs),
        "bsegs": (s1.bsegs, s2.bsegs),
        "polygons": (s1.polygons, s2.polygons),
    }
    if set(maps) != set(cells):
        return False
    for cat, (cells1, cells2) in cells.items():
        m = maps[cat]
        if set(m) != {c.id for c in cells1}:
            return False
        if sorted(m.values()) != sorted(c.id for c in cells2):
            return False
    to_point = maps["points"]
    kind2 = {p.id: p.kind for p in s2.points}
    if any(kind2[to_point[p.id]] != p.kind for p in s1.points):
        return False
    words2 = {poly.id: poly.sides for poly in s2.polygons}
    flip = {}
    for poly in s1.polygons:
        image = words2[maps["polygons"][poly.id]]
        if len(image) != len(poly.sides):
            return False
        for x, y in zip(poly.sides, image):
            if x.kind != y.kind:
                return False
            if maps["arcs" if x.kind == "a" else "bsegs"][x.ref] != y.ref:
                return False
            sign = x.direction * y.direction
            if flip.setdefault((x.kind, x.ref), sign) != sign:
                return False
    arc_ends2 = {a.id: (a.tail, a.head) for a in s2.arcs}
    for a in s1.arcs:
        ends = (to_point[a.tail], to_point[a.head])
        if flip[("a", a.id)] == -1:
            ends = ends[::-1]
        if ends != arc_ends2[maps["arcs"][a.id]]:
            return False
    bseg_ends2 = {b.id: (b.tail, b.head) for b in s2.bsegs}
    return all(
        (to_point[b.tail], to_point[b.head]) == bseg_ends2[maps["bsegs"][b.id]]
        for b in s1.bsegs
    )


def reverse_curve(curve):
    """The curve run backwards, with id ``curve.id + ".rev"``.

    Distinct slots get the side dictated by the slot order; only a
    same-slot passage carries the side as free data, and there the side
    flips with the orientation.
    """
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


def algebra_from_products(labels, product, unit):
    """A :class:`~skewgentle.TableAlgebra` from a label-level product.

    ``product(a, b)`` returns the label-keyed expansion of ``a * b`` in
    composition order (``b`` first); ``unit`` is the label-keyed unit.
    Each nonzero product must have one term, stored as the cell
    ``(k, c)``; a product of two or more terms raises ``ValueError``.
    """
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    rows = []
    for a in labels:
        row = {}
        for j, b in enumerate(labels):
            terms = [(index[k], c) for k, c in product(a, b).items() if c]
            if len(terms) > 1:
                raise ValueError(
                    f"product of {a!r} and {b!r} has {len(terms)} terms, "
                    "but a table cell holds one"
                )
            if terms:
                row[j] = terms[0]
        rows.append(row)
    return TableAlgebra(
        labels, rows, {index[k]: c for k, c in unit.items() if c}, range(len(labels))
    )


def index_of(algebra) -> dict:
    """The position of each basis label of ``algebra``: the library keeps
    labels for display only and addresses basis elements by position."""
    return {lab: i for i, lab in enumerate(algebra.labels)}


def element(algebra, label) -> dict:
    """The basis element labelled ``label``, as a one-term vector."""
    return {algebra.labels.index(label): 1}


class CountedReads(dict):
    """A dict that counts every read of an entry, for tests that bound the
    lookups of an index such as ``PathAlgebra.vertex_index``."""

    read = 0

    def __getitem__(self, key):
        self.read += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.read += 1
        return super().__contains__(key)


def basis_map_from_permutation(algebra, label_map, signs=None):
    """The :class:`~skewgentle.SignedPermutation` sending each basis label
    ``x`` to ``signs[x]`` (default 1) times the basis element
    ``label_map[x]``."""
    signs, index = signs or {}, index_of(algebra)
    return SignedPermutation(
        [index[label_map[lab]] for lab in algebra.labels],
        [signs.get(lab, 1) for lab in algebra.labels],
    )


def images_of(act) -> list[dict]:
    """The images ``s(b_j) = {π(j): σ_j}`` of a signed permutation."""
    return [{p: s} for p, s in zip(act.pi, act.sigma)]


def apply_map(images, x) -> dict:
    """``f(x)`` for the linear map with ``f(b_i) = images[i]``, zero
    coefficients dropped."""
    out = {}
    for i, c in x.items():
        for k, v in images[i].items():
            out[k] = out.get(k, 0) + c * v
    return {k: c for k, c in out.items() if c}


def verify_multiplicative(A, B, images) -> bool:
    """Check ``f(b_i * b_j) == f(b_i) * f(b_j)`` for every pair of basis
    elements of ``A``, where ``images[i]`` is ``f(b_i)`` in ``B`` for the
    linear map ``f``, a row of ``A`` at a time.

    The right side of row ``i`` is built at once from the cells of ``B``
    in the rows of ``f(b_i)`` and the preimages under ``f`` of their
    columns.  It is compared with ``f`` of the cells of row ``i``; a
    nonzero product left over sits where the row has no cell, and fails
    the check.  Every other ``j`` has zero on both sides.  A cell
    ``(k, c)`` maps to ``c·f(b_k)``, read from the images, which are
    cleared of zero coefficients once.
    """
    preimages = _preimages(images)
    cleared = [{k: c for k, c in img.items() if c} for img in images]
    for fx, row in zip(images, A.rows):
        products = B._products_row(fx, preimages)
        for j, (k, c) in row.items():
            left = cleared[k] if c == 1 else {m: c * v for m, v in cleared[k].items()}
            # both sides are free of zero coefficients, so ``!=`` compares
            # them as vectors
            if left != products.pop(j, {}):
                return False
        if any(products.values()):
            return False
    return True


def grading_signs(skew):
    """On a crossed product, the symmetry that negates the
    group-degree-one half and fixes the rest."""
    return SignedPermutation(
        range(skew.dimension), [-1 if g else 1 for _, g in skew.labels]
    )


def twice_crossed(once):
    """``(A#ℤ₂)#ℤ̂₂``: ``once`` crossed with its grading signs."""
    return skew_group_algebra(once, grading_signs(once))


def matrix_algebra(A):
    """``M₂(A)``, the right ``A``-module endomorphisms of the free module
    ``A#ℤ₂`` on ``1 ⊗ 0, 1 ⊗ 1``, from the sparse rows of ``A``.

    The basis element ``(r, b_p, c)`` is ``E_rc ⊗ b_p``, indexed
    ``2n*r + 2*p + c``, and ``(E_rm ⊗ b_p)(E_mc ⊗ b_q) = E_rc ⊗ b_p b_q``.
    """
    n = A.dimension
    labels = tuple((r, lab, c) for r in (0, 1) for lab in A.labels for c in (0, 1))
    rows = []
    for r in (0, 1):
        for row in A.rows:
            # the rows of E_r0 ⊗ b_p and E_r1 ⊗ b_p hold the same cells, in
            # the column blocks m = 0 and m = 1
            cells = [
                (2 * q + c, (2 * n * r + 2 * k + c, v))
                for q, (k, v) in row.items()
                for c in (0, 1)
            ]
            for m in (0, 1):
                rows.append({2 * n * m + col: cell for col, cell in cells})
    unit = {2 * n * r + 2 * q + r: v for r in (0, 1) for q, v in A.unit.items()}
    return TableAlgebra(labels, rows, unit, range(len(labels)))


def comparison_images(act) -> list[dict]:
    """The Cohen--Montgomery map Φ, sending ``(b_p⊗g)⊗j`` (index
    ``2n·j + n·g + p`` of :func:`twice_crossed`) to
    ``Σ_c (-1)^(jc) E_(g+c)c ⊗ s^(g+c)(b_p)``, with ``E_rc ⊗ b_q`` at
    index ``2n·r + 2q + c`` of :func:`matrix_algebra`."""
    n = len(act.pi)
    out = []
    for j in (0, 1):
        for g in (0, 1):
            for p in range(n):
                img = {}
                for c in (0, 1):
                    r = (g + c) % 2
                    sign = -1 if (j and c) else 1
                    q, v = (act.pi[p], act.sigma[p]) if r else (p, 1)
                    img[2 * n * r + 2 * q + c] = sign * v
                out.append(img)
    return out


def _word_junction(presentation, values, a, b):
    """The rule for arrow ``b`` right after arrow ``a`` in a word: ``None``
    when they concatenate, else the coefficient the pair collapses to
    ``a`` with (0 across a single-path relation, the value of a repeated
    special loop)."""
    if (a, b) in presentation.monomial_pairs:
        return 0
    if a == b and a in values:
        return values[a]
    return None


def path_target(presentation, key) -> str:
    """The vertex where the path ``key`` ends, read off its last arrow."""
    src, arrows = key
    return presentation.arrow_by_id[arrows[-1]].target if arrows else src


def basis_labels(presentation) -> tuple:
    """The labels ``(source, word)`` of the basis paths of
    ``graded_path_algebra(presentation)``, in its order, as a tuple: the
    words of each length that the relation span leaves free
    (:func:`relation_spans`), the vertices as the presentation lists them,
    the arrows by id, and each longer length by start, end and word."""
    target = {a.id: a.target for a in presentation.arrows}
    out = []
    for length, (words, span) in enumerate(relation_spans(presentation)):
        free = [w for w in words if w not in span.rows]
        if length == 1:
            free.sort(key=lambda w: w[1])
        elif length > 1:
            free.sort(key=lambda w: (w[0], target[w[1][-1]], w[1]))
        out += free
    return tuple(out)


def word_normal_forms(alg) -> dict:
    """The normal form of every word that :func:`relation_spans` enumerates
    for ``alg.presentation``, over the positions of ``alg.algebra``: the
    word reduced modulo its relation span, each remaining word looked up
    among the labels.  Built without the library's tie resolution or
    extension table."""
    index = index_of(alg.algebra)
    return {
        p: {index[r]: c for r, c in span._reduce({p: 1}).items()}
        for words, span in relation_spans(alg.presentation)
        for p in words
    }


def word_reduce(alg, key, forms) -> dict:
    """The expansion of the composable word ``key`` in the path algebra
    ``alg``, by rewriting the word and reading the normal form of the
    result in ``forms`` (:func:`word_normal_forms`): each repeated special
    loop collapses to its value, a single-path relation kills the word,
    and a word longer than every word of ``forms`` vanishes.  Raises
    ``ValueError`` for a word that does not compose."""
    pres, (src, arrows) = alg.presentation, key
    coeff, word, at = 1, (), src
    for a in arrows:
        arrow = pres.arrow_by_id[a]
        if arrow.source != at:
            raise ValueError(f"{key!r} does not compose")
        at = arrow.target
        c = _word_junction(pres, alg.loop_values, word[-1], a) if word else None
        if c is None:
            word += (a,)
        else:
            coeff *= c
    if not coeff:
        return {}
    return {k: coeff * v for k, v in forms.get((src, word), {}).items()}


def word_rows(alg) -> list:
    """The sparse rows of ``alg.algebra`` by concatenating words: the cell
    of ``b_i·b_j`` (``b_j`` first) is the normal form
    (:func:`word_normal_forms`) of the word of ``b_j`` followed by the
    word of ``b_i``, after the junction rule at the seam, with columns in
    ascending order.  Each nonzero product is one signed basis element."""
    pres, labels, values = alg.presentation, alg.algebra.labels, alg.loop_values
    forms = word_normal_forms(alg)
    ends = {a.id: a.target for a in pres.arrows}
    rows = [{} for _ in labels]
    for j, (src, first) in enumerate(labels):
        end = ends[first[-1]] if first else src
        for i, (start, then) in enumerate(labels):
            if start != end:
                continue
            c = _word_junction(pres, values, first[-1], then[0]) if first and then else None
            c, word = (1, first + then) if c is None else (c, first + then[1:])
            if c and (nf := forms.get((src, word))):
                ((k, v),) = nf.items()
                rows[i][j] = (k, c * v)
    return rows


def relabelled_basis_map(alg, generator_map, signs=None):
    """The symmetry of ``alg`` induced by relabelling vertices and arrows,
    each basis path sent to the expansion of its relabelled word by
    :func:`word_reduce`, times the signs of its arrows; ``ValueError``
    when a relabelled word does not compose or reduces to other than one
    term."""
    forms = word_normal_forms(alg)
    pi, sigma = [], []
    for src, arrows in alg.algebra.labels:
        mapped = (generator_map[src], tuple(generator_map[a] for a in arrows))
        image = word_reduce(alg, mapped, forms)
        if len(image) != 1:
            raise ValueError(f"{(src, arrows)!r} relabels to {len(image)} terms")
        ((k, s),) = image.items()
        for a in arrows:
            s *= (signs or {}).get(a, 1)
        pi.append(k)
        sigma.append(s)
    return pi, sigma


def crossed_rows(A, act) -> list:
    """The rows of ``A#ℤ₂`` as dicts, straight from the product rule
    ``(x⊗g)(y⊗h) = x·s^g(y)⊗(g+h)`` with ``s(b_j) = σ_j·b_π(j)``: the
    cell of ``b_i·b_π(j) = c·b_k`` gives ``(b_i⊗1)(b_j⊗h) = σ_j·c·b_k⊗(1+h)``,
    indexed ``g·n + i`` as in ``skew_group_algebra``."""
    n, pi, sigma = A.dimension, act.pi, act.sigma
    inverse = {p: j for j, p in enumerate(pi)}
    rows = []
    for g in (0, 1):
        for i in range(n):
            row = {}
            for col, (k, c) in A.rows[i].items():
                j, sign = (inverse[col], sigma[inverse[col]]) if g else (col, 1)
                for h in (0, 1):
                    row[h * n + j] = ((g + h) % 2 * n + k, sign * c)
            rows.append(row)
    return rows


def involution_all_cells(A, act) -> bool:
    """The involution guard on every stored cell: ``π² = id``,
    ``σ_i·σ_π(i) = 1``, ``s(1) = 1``, and each cell ``b_i·b_j = c·b_k``
    met by ``(π(k), c·σ_i·σ_j·σ_k)`` at ``(π(i), π(j))``; the zero
    products follow, since ``(i, j) ↦ (π(i), π(j))`` is a bijection of
    the pairs."""
    pi, sigma = act.pi, act.sigma
    if any(pi[p] != i or sigma[i] * sigma[p] != 1 for i, p in enumerate(pi)):
        return False
    if act.apply(A.unit) != A.unit:
        return False
    return all(
        A.rows[pi[i]].get(pi[j]) == (pi[k], c * sigma[i] * sigma[j] * sigma[k])
        for i, row in enumerate(A.rows)
        for j, (k, c) in row.items()
    )


def _left_products(A, x) -> dict:
    """The nonzero products ``x * b_j`` in ``A``, keyed by ``j``."""
    out: dict = {}
    for p, cp in x.items():
        for j, (k, c) in A.rows[p].items():
            _add(out.setdefault(j, {}), k, cp * c)
    return {j: prod for j, prod in out.items() if prod}


def blocks_all_rows(A, once, act) -> bool:
    """The iterated check's block comparison with every ``(b_i⊗0)⊗0`` as
    a left factor, and the unit factors ``(1⊗1)⊗0`` and ``(1⊗0)⊗1``
    against every column; a product on the right alone is caught by the
    cell counts summed over the bijection ``π``."""
    n, rows, pi, sigma = A.dimension, A.rows, act.pi, act.sigma
    for i in range(n):
        cells, row, image = once.rows[i], rows[i], rows[pi[i]]
        if len(cells) != 2 * len(row):
            return False
        for col, (cell_k, c) in cells.items():
            g, q = divmod(col, n)
            h, k = divmod(cell_k, n)
            if (
                h != g
                or row.get(q) != (k, c)
                or image.get(pi[q]) != (pi[k], c * sigma[i] * sigma[q] * sigma[k])
            ):
                return False
    twisted = _left_products(once, {n + v: u for v, u in once.unit.items()})
    plain = _left_products(once, once.unit)
    s_unit_row = _left_products(A, act.apply(A.unit))
    for q in range(n):
        p, sq = pi[q], sigma[q]
        if s_unit_row.get(q) != {pi[p]: sq * sigma[p]} or s_unit_row.get(p) != {p: 1}:
            return False
        for g in (0, 1):
            col = n * g + q
            if twisted.get(col) != {n * (1 - g) + p: sq} or plain.get(col) != {col: 1}:
                return False
    return True


# ---------------------------------------------------------------------------
# The surface and involution checks on ray tuples
#
# The checks as the library ran them before it numbered the cells: a ray is
# the tuple ``("a"|"b", id, "tail"|"head")``, the successors are a dict of
# rays, and the rays at each point are counted along one successor path per
# point.  The library's checks on positions must give the same findings, in
# the same order.


class RayWalk(NamedTuple):
    """What one walk over the polygon words finds, keyed by ids and rays."""

    arc_sides: dict  # arc id -> number of its sides
    arc_balance: dict  # arc id -> sum of its sides' directions
    bseg_sides: dict  # bseg id -> number of its sides
    bsegs_per_polygon: list
    unknown_sides: list  # (polygon id, ref) naming no cell
    succ: dict  # counterclockwise successor of each ray
    points: dict  # polygon id -> point where side i ends
    mismatches: list  # (polygon id, corner, point in, point out)


def ray_walk(surface) -> RayWalk:
    """One walk over the polygon words: the sides of every cell, the
    successor of every ray and the point at every corner."""
    arc_ends = {a.id: (a.tail, a.head) for a in surface.arcs}
    bseg_ends = {b.id: (b.tail, b.head) for b in surface.bsegs}
    walk = RayWalk(
        dict.fromkeys(arc_ends, 0), dict.fromkeys(arc_ends, 0),
        dict.fromkeys(bseg_ends, 0), [], [], {}, {}, [],
    )
    for poly in surface.polygons:
        pid = poly.id
        heads = []
        nb = 0
        for i, s in enumerate(poly.sides):
            kind, ref, d = s.kind, s.ref, s.direction
            if kind == "a":
                ends = arc_ends.get(ref)
                if ends is not None:
                    walk.arc_sides[ref] += 1
                    walk.arc_balance[ref] += d
            else:
                nb += 1
                ends = bseg_ends.get(ref)
                if ends is not None:
                    walk.bseg_sides[ref] += 1
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
                walk.succ[ray_out] = ray_in
                heads.append(p_in)
                if p_in != tail:
                    walk.mismatches.append((pid, i - 1, p_in, tail))
            else:
                first_out, first_tail = ray_out, tail
            ray_in, p_in = ray_next, head
        if poly.sides:  # the last corner, back to side 0
            walk.succ[first_out] = ray_in
            heads.append(p_in)
            if p_in != first_tail:
                walk.mismatches.append((pid, len(heads) - 1, p_in, first_tail))
        walk.points[pid] = tuple(heads)
        walk.bsegs_per_polygon.append(nb)
    return walk


def rays_reached(succ: dict, first, last) -> int:
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


def check_surface(surface) -> Report:
    """The findings of ``validate``: ids and kinds, endpoints, occurrence
    counts, corners, then the rays at every point followed one path per
    point."""
    report = Report()
    if not surface.polygons:
        report.add(BAD_INPUT, f"surface {surface.name!r} has no polygon", (surface.name,))
        return report
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
    for p in surface.points:
        if p.kind not in POINT_KINDS:
            report.add(BAD_INPUT, f"point {p.id!r} has unknown kind {p.kind!r}", (p.id,))
    kind_of = {p.id: p.kind for p in surface.points}
    degree = dict.fromkeys(kind_of, 0)
    arc_ray: dict = {}
    for a in surface.arcs:
        for end, label in ((a.tail, "tail"), (a.head, "head")):
            if end not in kind_of:
                report.add(UNKNOWN_ID, f"arc {a.id!r} endpoint {end!r} unknown", (a.id,))
                continue
            degree[end] += 1
            if end not in arc_ray:
                arc_ray[end] = ("a", a.id, label)
    outs: dict = {}
    ins: dict = {}
    for b in surface.bsegs:
        for end in (b.tail, b.head):
            if end not in kind_of:
                report.add(UNKNOWN_ID, f"bseg {b.id!r} endpoint {end!r} unknown", (b.id,))
        for end in (b.tail, b.head):
            if end in kind_of and kind_of[end] != BOUNDARY:
                report.add(
                    BAD_INPUT, f"bseg {b.id!r} endpoint {end!r} is not a boundary point", (b.id,)
                )
        if b.tail in degree:
            degree[b.tail] += 1
            outs.setdefault(b.tail, []).append(("b", b.id, "tail"))
        if b.head in degree:
            degree[b.head] += 1
            ins.setdefault(b.head, []).append(("b", b.id, "head"))
    walk = ray_walk(surface)
    for pid, ref in walk.unknown_sides:
        report.add(UNKNOWN_ID, f"polygon {pid!r} refers to unknown side {ref!r}", (pid,))
    if not report.ok:
        return report

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
                NONORIENTABLE_GLUING, f"arc {aid!r} occurs twice with the same direction", (aid,)
            )
    for bid, cnt in walk.bseg_sides.items():
        if cnt != 1:
            report.add(BSEG_OCCURRENCE, f"bseg {bid!r} occurs {cnt} times (need 1)", (bid,))
    if not report.ok:
        return report

    for pid, i, p_in, p_out in walk.mismatches:
        report.add(
            CORNER_MISMATCH,
            f"polygon {pid!r} corner {i}: sides meet at {p_in!r} vs {p_out!r}",
            (pid, i),
        )
    if not report.ok:
        return report

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
            elif rays_reached(succ, out[0], into[0]) != degree[pid]:
                report.add(
                    CORNER_MISMATCH,
                    f"rays at boundary point {pid!r} do not form a single chain",
                    (pid,),
                )
        elif not degree[pid]:
            report.add(
                CORNER_MISMATCH, f"interior point {pid!r} has no incident arc ends", (pid,)
            )
        elif rays_reached(succ, arc_ray[pid], arc_ray[pid]) != degree[pid]:
            report.add(
                CORNER_MISMATCH,
                f"rays at interior point {pid!r} do not form a single cycle",
                (pid,),
            )
    return report


def check_involution(surface, inv) -> Report:
    """The findings of ``validate_involution``: the surface's own, then the
    maps as permutations of order two, the fixed cells, the ends of every
    arc and boundary segment, and each polygon word mapped side by side as
    ``(kind, ref, direction)`` tuples onto its image's word."""
    report = check_surface(surface)
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
            report.add(
                BAD_INPUT,
                f"orbifold point {p.id!r} present; symmetries act on plain dissections",
                (p.id,),
            )
        elif point_map[p.id] == p.id:
            report.add(FIXED_MARKED_POINT, f"point {p.id!r} is fixed", (p.id,))
    arc_by_id = {a.id: a for a in surface.arcs}
    for a in surface.arcs:
        img = inv.arcs[a.id]
        rev = a.id in reversed_arcs
        if rev != (img in reversed_arcs):
            report.add(BAD_INVOLUTION, f"reversal flag of arc {a.id!r} not symmetric", (a.id,))
        img_arc = arc_by_id[img]
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
    bseg_by_id = {b.id: b for b in surface.bsegs}
    for b in surface.bsegs:
        img = inv.bsegs[b.id]
        if img == b.id:
            report.add(BAD_INVOLUTION, f"bseg {b.id!r} is fixed", (b.id,))
            continue
        img_b = bseg_by_id[img]
        if (img_b.tail, img_b.head) != (point_map[b.tail], point_map[b.head]):
            report.add(
                ORIENTATION_REVERSED,
                f"bseg {b.id!r} image {img!r} does not follow the boundary orientation",
                (b.id,),
            )
    polygon_by_id = {p.id: p for p in surface.polygons}
    for poly in surface.polygons:
        img_id = inv.polygons[poly.id]
        if img_id == poly.id:
            report.add(FIXED_POLYGON, f"polygon {poly.id!r} is fixed", (poly.id,))
            continue
        img_poly = polygon_by_id[img_id]
        if len(img_poly.sides) != len(poly.sides):
            report.add(
                BAD_INVOLUTION, f"polygon {poly.id!r} image has different length", (poly.id,)
            )
            continue
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


def check_curve(surface, curve) -> Report:
    """The findings of ``validate_curve`` read off the polygon words as
    ``Side`` records: the surface's own, then each passage's polygon,
    slots and declared side, then the sides it enters and leaves by, and
    then each crossing, two occurrences of one arc in opposite directions."""
    report = check_surface(surface)
    if not report.ok:
        return report
    polygon_by_id = {p.id: p for p in surface.polygons}
    ps = curve.passages
    if not ps:
        report.add(INVALID_CURVE, f"curve {curve.id!r} has no passages", (curve.id,))
        return report
    sides_at = []  # per passage: the sides at its entry and exit slots
    for k, p in enumerate(ps):
        poly = polygon_by_id.get(p.polygon)
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
    for k in range(len(ps) if closed else len(ps) - 1):
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


# The code ``puncture_loop`` refuses a boundary point with; no library
# function meets a point loop.
BOUNDARY_POINT = "BOUNDARY_POINT"


def walk_corners(surface, start: Passage) -> list[Passage]:
    """The closed walk from ``start``: cross the exit arc of each passage
    to its other occurrence, then turn right around the corner behind it.
    The corner behind side 1 is the boundary segment's, passed by the
    chord from side 1 to the last side with the segment on its left."""
    polygon_by_id, occurrences = surface.polygon_by_id, surface.occurrences
    passages = [start]
    home = (start.polygon, start.entry, start.exit, start.bseg_side)
    pid, exit = start.polygon, start.exit
    while True:
        side = polygon_by_id[pid].sides[exit]
        pid, u = occurrences[(side.ref, -side.direction)]
        if u == 1:
            step = (pid, 1, len(polygon_by_id[pid].sides) - 1, "left")
        else:
            step = (pid, u, u - 1, "right")
        if step == home:
            return passages
        passages.append(Passage(*step))
        exit = step[2]


def boundary_curves(surface) -> list[CombinatorialCurve]:
    """One canonical parallel curve per boundary component, traced by the
    walk ``cover_invariant_tuple`` lifts."""
    _require_valid(surface)
    return [
        _trace_boundary(surface, min(bc.bsegs))
        for bc in boundary_components(surface)
    ]


def puncture_loop(surface, point_id: str) -> CombinatorialCurve:
    """Counterclockwise loop around an interior dissection point.

    One corner passage per arc ray at the point; a point carrying a single
    arc end (the slit case) yields one passage hugging that arc.
    """
    _require_valid(surface)
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
    pid, i = min(corners)
    passages = walk_corners(surface, Passage(pid, i + 1, i, "right"))
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


def invariant_tuple_by_curves(surface) -> InvariantTuple:
    """``invariant_tuple`` by its curves: trace and validate the parallel
    curve of every boundary component and the loop around every interior
    point, and sum the passages of each (``+1`` left, ``-1`` right)."""
    top = topology(surface)
    if not top.connected:
        raise error(
            BAD_INPUT,
            f"surface {surface.name!r} is disconnected: invariant tuples are "
            "defined for connected surfaces",
            (surface.name,),
        )
    entries = [
        (winding(surface, curve), len(bc.marked), BOUNDARY)
        for bc, curve in zip(top.boundary, boundary_curves(surface))
    ]
    for kind, pts in ((PUNCTURE, top.punctures), (ORBIFOLD, top.orbifold_points)):
        for p in pts:
            entries.append((winding(surface, puncture_loop(surface, p)), 0, kind))
    return InvariantTuple(top.genus, tuple(sorted(entries)))


def argparse_cli_parser() -> argparse.ArgumentParser:
    """The command line parser that ``cli.main`` used before it read argv
    against its own table; ``parse_args`` gives a namespace whose ``func``
    is the handler and whose other fields, but ``command``, its arguments."""
    parser = argparse.ArgumentParser(
        prog="skewgentle",
        description="Dissected surfaces, skew-gentle presentations, double "
        "covers and winding-number invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a surface file").add_argument("file")
    add("quiver", _cmd_quiver, "print the dissection's presentation").add_argument(
        "file"
    )
    add("split", _cmd_split, "print the split presentation").add_argument("file")
    add("cover", _cmd_cover, "print the canonical double cover").add_argument(
        "file"
    )
    add(
        "quotient", _cmd_quotient, "print the quotient by the file's involution"
    ).add_argument("file")
    add(
        "skewgroup",
        _cmd_skewgroup,
        "verify the skew group reductions over the canonical cover",
    ).add_argument("file")
    add("invariants", _cmd_invariants, "print winding invariant tuples").add_argument(
        "file"
    )
    p = add("winding", _cmd_winding, "winding numbers of curves")
    p.add_argument("file")
    p.add_argument("curve", nargs="?", default=None)
    p = add("compare", _cmd_compare, "compare two dissections")
    p.add_argument("--mode", choices=("tilting", "ghat"), required=True)
    p.add_argument("file1")
    p.add_argument("file2")
    p = add("complex", _cmd_complex, "projective presentation of a graded arc")
    p.add_argument("file")
    p.add_argument("curve")
    p.add_argument("--grades", default=None)
    add("export-dot", _cmd_export_dot, "quiver in graphviz dot format").add_argument(
        "file"
    )
    return parser
