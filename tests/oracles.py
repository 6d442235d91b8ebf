"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the package's own linear algebra and
topology code: dimensions are obtained by brute-force path enumeration and
surfaces are measured by counting cells, so agreement with the library is
meaningful evidence rather than a tautology.  The presentation isomorphism
search and the reversal of a curve check the paper's bijection and the sign
of a winding, and tracing the faces of a dual arc system checks the
crossing count of ``is_dual_dissection``; :func:`corner_algebra` cuts a
corner ``e·A·e`` by the sandwich ``e·b·e`` of every basis element, the
reference for the index set the reductions read off the path ends; the
two builders at the end make small algebras and maps from labels for
hand-made test cases.  The one
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
:func:`word_rows`, :func:`word_reduce` and :func:`relabelled_basis_map`
rebuild by rewriting words what the library reads off the extension
table of ``graded_path_algebra``, and :func:`involution_all_cells` and
:func:`blocks_all_rows` are the involution guard and the iterated
check's block comparison on every row, the references for the versions
that read only the generator rows.  :func:`crossed_rows` is the crossed
product cell by cell from its product rule, the reference for the rows
``skew_group_algebra`` fills on first read, and :func:`generates` the full
two-sided closure that the surjectivity check of ``verify_morphism``
takes modulo the span of the target's non-generators.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from skewgentle import (
    CombinatorialCurve,
    CornerAlgebra,
    Passage,
    SignedPermutation,
    TableAlgebra,
    skew_group_algebra,
)
from skewgentle.algebra import _accumulate, _add, _preimages, _products_row, vscale
from skewgentle.surface import chord_bseg_side


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
    the ideal is two-sided, so every longer quotient is 0 as well."""
    forbidden = {rel[0] for rel in presentation.relations if len(rel) == 1}
    forbidden.update((e, e) for e in presentation.special)
    binomials = [rel for rel in presentation.relations if len(rel) == 2]
    target = {a.id: a.target for a in presentation.arrows}
    out = []
    layer = [(v, ()) for v in presentation.vertices]
    while True:
        words, span = set(layer), SpanBasis()
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
    return Corner(A, e, TableAlgebra(labels, rows, unit), tuple(indices))


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
    return TableAlgebra(labels, rows, {index[k]: c for k, c in unit.items() if c})


def basis_map_from_permutation(algebra, label_map, signs=None):
    """The :class:`~skewgentle.SignedPermutation` sending each basis label
    ``x`` to ``signs[x]`` (default 1) times the basis element
    ``label_map[x]``."""
    signs = signs or {}
    return SignedPermutation(
        [algebra.index_of[label_map[lab]] for lab in algebra.labels],
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
    preimages = _preimages(images, B.dimension)
    cleared = [{k: c for k, c in img.items() if c} for img in images]
    for fx, row in zip(images, A.rows):
        products = _products_row(B, fx, preimages)
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
    return TableAlgebra(labels, rows, unit)


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


def word_reduce(alg, key) -> dict:
    """The expansion of the composable word ``key`` in the path algebra
    ``alg``, by rewriting the word and reading the normal form of the
    result: each repeated special loop collapses to its value, a
    single-path relation kills the word, and a word of length
    ``zero_length`` or more vanishes.  Raises ``ValueError`` for a word
    that does not compose."""
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
    if not coeff or len(word) >= alg.zero_length:
        return {}
    return {k: coeff * v for k, v in alg.normal_forms[(src, word)].items()}


def word_rows(alg) -> list:
    """The sparse rows of ``alg.algebra`` by concatenating words: the cell
    of ``b_i·b_j`` (``b_j`` first) is the normal form of the word of
    ``b_j`` followed by the word of ``b_i``, after the junction rule at
    the seam, with columns in ascending order.  Each nonzero product is
    one signed basis element."""
    pres, labels, values = alg.presentation, alg.algebra.labels, alg.loop_values
    ends = {a.id: a.target for a in pres.arrows}
    rows = [{} for _ in labels]
    for j, (src, first) in enumerate(labels):
        end = ends[first[-1]] if first else src
        for i, (start, then) in enumerate(labels):
            if start != end:
                continue
            c = _word_junction(pres, values, first[-1], then[0]) if first and then else None
            c, word = (1, first + then) if c is None else (c, first + then[1:])
            if c and len(word) < alg.zero_length and (nf := alg.normal_forms[(src, word)]):
                ((k, v),) = nf.items()
                rows[i][j] = (k, c * v)
    return rows


def relabelled_basis_map(alg, generator_map, signs=None):
    """The symmetry of ``alg`` induced by relabelling vertices and arrows,
    each basis path sent to the expansion of its relabelled word by
    :func:`word_reduce`, times the signs of its arrows; ``ValueError``
    when a relabelled word does not compose or reduces to other than one
    term."""
    pi, sigma = [], []
    for src, arrows in alg.algebra.labels:
        mapped = (generator_map[src], tuple(generator_map[a] for a in arrows))
        image = word_reduce(alg, mapped)
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
