"""Exact arithmetic for finite-dimensional path-algebra quotients.

Coefficients are exact rationals: ``int`` while integral,
:class:`fractions.Fraction` otherwise, never float.  A coefficient becomes
a ``Fraction`` only where a non-integer enters (a non-integer loop
value, a caller's map), so the ±1 coefficients that fill the tables stay
plain ``int``.  Maps whose generator images would carry halves, such as
the split idempotents ``(e ± s·e)/2``, are checked on doubled images
through the ``scale`` of :func:`verify_morphism`.  Elements are sparse
vectors over an explicit basis.  Every algebra the package builds is
monomial on its basis: each product of two basis elements is 0 or ``c``
times one basis element (the path basis of a gentle, skew-gentle or split
algebra, and what a signed permutation makes of it).
So a multiplication table is stored as sparse rows that hold only the
nonzero products, each cell the pair ``(k, c)`` for ``c·b_k``.  A dense
``n×n`` view of the table, for readers by position, is built afresh on
each read of :attr:`TableAlgebra.table` and never kept.

Each algebra names the basis elements that generate it
(:attr:`TableAlgebra.generators`); the span of the others is an ideal
``N`` inside the square of the radical.  A path algebra stores only its
generator rows when it builds: the vertices and arrows (and, with special
loops, the paths with one ordinary arrow).  Every other row is filled on
its first read, from the row of its prefix, and then kept.  A crossed
product stores no row at all: each of its cells is a cell of ``A`` moved
by the symmetry.  The verdicts read only generator rows, so they never
fill the rest:
:func:`verify_algebra_involution` checks each generator row against its
image under ``π``, since a map multiplicative on generators is
multiplicative, and :func:`verify_morphism` closes the span of the images
modulo ``N`` (Nakayama's lemma, see there), which on a graded target
stops after the generators.

The checks walk the sparse rows instead of calling
:meth:`TableAlgebra.mul` for each cell: the products of the vertex images
in :func:`verify_morphism` come from one helper.  A corner ``e·A·e`` is a
:class:`CornerAlgebra`, the basis indices it spans and no table of its
own: :func:`verify_morphism` checks a map into it on the rows of ``A``,
with ``e`` for the unit.
A symmetry is a :class:`SignedPermutation` ``(π, σ)``, each image one term
``σ_j·b_{π(j)}`` with ``π`` a bijection.  Its constructor is the one place
that checks this shape, so the readers check only its size.
:func:`skew_group_algebra`, the one crossing, guards the action and
keeps ``A#ℤ₂`` on ``A`` as a :class:`CrossedProduct`: ``A``'s rows,
``π``, ``π⁻¹`` and ``σ``, through which each of its products is read as
one signed cell of ``A``, monomial again.
:func:`graded_path_algebra` needs no linear algebra: its only sums are
the two-term relations, ties ``p = ±q`` that a signed union-find resolves,
so a normal form is ±1 times one basis path, or 0.  It keeps the cell of
each basis path followed by each arrow, and fills the row of a basis
path ``a·p`` from the row of ``p``, one lookup per cell.  It keeps no
word: a label is rendered from the prefix links when it is read.  The only elimination
is the rank count of :func:`verify_morphism`, in a fraction-free echelon
form with no back-substitution and no division.

One builder, :func:`graded_path_algebra`, covers the three quadratic
presentations the package meets: gentle pairs (single-path relations),
skew-gentle triples (single-path relations plus special loops with
``e*e = value * e``; value 1 gives the skew-gentle algebra, other values
its deformations) and split presentations (two-term relations).

Paths are stored in application order; products are written in
composition order, so ``mul(x, y)`` applies ``y`` first.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Collection, Mapping, Optional

from .diagnostics import BAD_INPUT, NOT_INVOLUTION, NOT_STABILIZED, ValidationError, error, raise_on_error
from .presentations import (
    Arrow,
    Presentation,
    check_skew_gentle,
)

Coeff = int | Fraction
Vector = dict[Any, Coeff]
Cell = tuple[int, Coeff]  # (k, c): the product c·b_k, with c nonzero

ONE = 1
ZERO = 0


def _exact(c: Any) -> Coeff:
    """``c`` as an exact rational: an ``int`` or ``Fraction`` as it is,
    anything else (a float, a decimal string) through ``Fraction``; what
    ``Fraction`` cannot read raises ``BAD_INPUT``."""
    if isinstance(c, (int, Fraction)):
        return c
    try:
        return Fraction(c)
    except (TypeError, ValueError, ArithmeticError):
        raise error(BAD_INPUT, f"{c!r} is not an exact rational number") from None


# ---------------------------------------------------------------------------
# Sparse vectors


def _add(out: Vector, k: Any, v: Coeff) -> None:
    """out[k] += v in place, dropping a zero coefficient."""
    s = out.get(k, ZERO) + v
    if s:
        out[k] = s
    else:
        out.pop(k, None)


def vadd(x: Vector, y: Vector) -> Vector:
    return vaxpy(x, y, ONE)


def _accumulate(out: Vector, y: Vector, c: Coeff) -> None:
    """out += c * y in place, dropping zero coefficients.

    Most coefficients are 1, so unit scalings skip the product.
    """
    unit = c == 1
    for k, v in y.items():
        if not unit:
            v = c * v
        prev = out.get(k)
        if prev is None:
            if v:
                out[k] = v
        else:
            s = prev + v
            if s:
                out[k] = s
            else:
                del out[k]


def vaxpy(x: Vector, y: Vector, c: Coeff) -> Vector:
    """x + c * y."""
    out = dict(x)
    if c:
        _accumulate(out, y, c)
    return out


def vscale(x: Vector, c: Coeff) -> Vector:
    c = _exact(c)
    if not c:
        return {}
    return {k: v * c for k, v in x.items()}


def vsub(x: Vector, y: Vector) -> Vector:
    return vaxpy(x, y, -1)


def veq(x: Vector, y: Vector) -> bool:
    # equal dicts have a zero difference, so the subtraction is skipped
    return x == y or not vsub(x, y)


# ---------------------------------------------------------------------------
# Exact row reduction


class _EchelonRank:
    """The rank of a growing set of vectors, and nothing else.

    The rows are kept in echelon form, fraction-free: each row is keyed by
    its lowest index, and a vector meeting a row at that index ``k`` is
    replaced by ``p·vector − c·row``, with ``p`` the row's coefficient and
    ``c`` the vector's at ``k``.  This clears ``k`` and touches no lower
    index, so the lowest index grows at each step.  There is no
    back-substitution and no division, so an ``int`` vector never makes a
    ``Fraction``.  Keys must be mutually comparable.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[Any, Vector] = {}  # lowest index -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: Vector) -> bool:
        """Insert a vector, which is not mutated; returns True when the
        rank grew."""
        rows = self.rows
        while row:
            lead = min(row)
            c = row[lead]
            if not c:  # a zero kept in the input
                row = {k: v for k, v in row.items() if v}
                continue
            pivot = rows.get(lead)
            if pivot is None:
                rows[lead] = row
                return True
            p = pivot[lead]
            out = dict(row) if p == 1 else {k: p * v for k, v in row.items()}
            _accumulate(out, pivot, -c)
            row = out
        return False


# ---------------------------------------------------------------------------
# Algebras with explicit product tables


class _Rendered(Sequence):
    """A read-only sequence of ``size`` items, each rendered by
    ``render(i)`` when it is read and never kept: the labels of a path
    algebra and of a crossed product, and the rows of a crossed product.
    It compares equal, by value, to a tuple, a list or another rendered
    sequence with the same items."""

    __slots__ = ("size", "render")

    def __init__(self, size: int, render):
        self.size, self.render = size, render

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.render, range(self.size)[i]))
        return self.render(range(self.size)[i])

    def __iter__(self):
        return map(self.render, range(self.size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_Rendered, tuple, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass
class TableAlgebra:
    """A finite-dimensional unital algebra with a sparse product table.

    A basis element is its position ``i`` in vectors, rows and cells;
    ``labels[i]`` names it, and no index from labels is kept (a path
    algebra starts its walks at :attr:`PathAlgebra.vertex_index`).

    ``rows[i]`` maps each column ``j`` whose product ``basis_i * basis_j``
    (composition order, ``basis_j`` applied first) is nonzero to its cell
    ``(k, c)``: the product is ``c·basis_k``, with ``c`` a nonzero exact
    ``int`` or ``Fraction``.  A zero product is not stored, and no product
    has two terms (see the module docstring).  A row's columns are in no
    set order.  :attr:`table` is a dense view for readers by position,
    built on each read and never kept.

    ``generators`` (a ``range`` or a ``frozenset``) indexes basis elements
    that generate the algebra, and the span ``N`` of the other basis
    elements is an ideal inside ``J²``, the square of the radical.  Every
    builder names them; every index, ``range(n)``, gives ``N = 0`` and is
    always sound.  The checks of multiplicativity read only the generator
    rows, and the surjectivity check of :func:`verify_morphism` closes its
    span modulo ``N``.

    ``rows`` is a list, or the rows of a path algebra, which stores the
    generator rows when it builds and fills every other row on its first
    read (``rows.filled`` counts the rows filled so far); :meth:`mul`,
    :attr:`table` and iteration see every row.  A row is not changed once
    it is filled, and builders share cells between positions.  A
    :class:`CrossedProduct` stores no row.  ``_crossed`` keeps the crossed
    products of this algebra that :func:`skew_group_algebra` has built,
    keyed by the action; no other function reads or writes it.
    """

    labels: Sequence[Any]
    rows: Sequence[dict[int, Cell]]
    unit: Vector
    generators: Collection[int]
    _crossed: dict[SignedPermutation, CrossedProduct] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dimension(self) -> int:
        return len(self.labels)

    @property
    def table(self) -> list[list[Vector]]:
        """The dense ``n×n`` table, ``table[i][j]`` the vector of
        ``basis_i * basis_j``: a new list of lists on every read, holding
        ``{k: c}`` for each cell ``(k, c)`` and, at every zero product, one
        shared empty dict.  It fills every row."""
        n, empty = self.dimension, {}
        table = []
        for row in self.rows:
            dense: list[Vector] = [empty] * n
            for j, (k, c) in row.items():
                dense[j] = {k: c}
            table.append(dense)
        return table

    def mul(self, x: Vector, y: Vector) -> Vector:
        out: Vector = {}
        for i, ci in x.items():
            row = self.rows[i]
            for j, cj in y.items():
                cell = row.get(j)
                if cell is not None:
                    k, c = cell
                    _add(out, k, c * ci * cj)
        return out

    def _products_row(
        self, x: Vector, preimages: dict[int, list[tuple[int, Coeff]]]
    ) -> dict[int, Vector]:
        """``x * f(b_j)`` for every ``j`` that some stored cell reaches,
        keyed by ``j``, where ``preimages`` maps each index the images
        ``f(b_j)`` reach to its pairs of :func:`_preimages`.  Products that
        cancel are left empty."""
        out: dict[int, Vector] = {}
        for p, cp in x.items():
            for m, (k, c) in self.rows[p].items():
                c *= cp
                for j, cj in preimages.get(m, ()):
                    _add(out.setdefault(j, {}), k, c * cj)
        return out


def _restrict(x: Vector, keep: Collection[int]) -> Vector:
    """The terms of ``x`` whose index is in ``keep``."""
    return {k: c for k, c in x.items() if k in keep}


# ---------------------------------------------------------------------------
# Path-algebra quotients

PathKey = tuple[str, tuple[str, ...]]  # (source vertex, arrows in application order)
Link = tuple[Optional[PathKey], int]  # (parent, ±1): the path is ±parent; None is zero


class _PathRows:
    """The rows of a path algebra, each filled on its first read.

    ``cells[i]`` is row ``i`` once it is filled and ``None`` before.  The
    builder fills the rows of the generators as it builds, in one call of
    :meth:`fill`; any other row is filled the first time it is read, and
    the row is kept.  Reading by index, ``len``, iteration and ``==``, the
    last two filling every row, act as on a list of the rows.

    A vertex row holds the paths ending there.  A longer basis path is
    ``b_i = a·b_m``, linked to its prefix ``b_m`` and last arrow ``a`` by
    ``prefix[i] = (m, a)``, so row ``i`` is ``b_i·b_j = a·(b_m·b_j)``: one
    extension cell for each cell of row ``m``.  Prefixes not yet filled
    are filled first, shortest first, in a loop; no label is read or
    hashed."""

    __slots__ = ("cells", "prefix", "extensions")

    def __init__(self, cells, prefix, extensions):
        self.cells, self.prefix, self.extensions = cells, prefix, extensions

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i: int) -> dict[int, Cell]:
        row = self.cells[i]
        if row is None:
            self.fill((i,))
            row = self.cells[i]
        return row

    def __iter__(self):
        return map(self.__getitem__, range(len(self.cells)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_PathRows, list)):
            return NotImplemented
        return list(self) == list(other)

    @property
    def filled(self) -> int:
        """The number of rows filled so far."""
        return len(self.cells) - self.cells.count(None)

    def fill(self, indices: Collection[int]) -> None:
        """Fill the rows at ``indices`` that are not filled yet."""
        cells, prefix, extensions = self.cells, self.prefix, self.extensions
        for i in indices:
            if cells[i] is not None:
                continue
            chain = []  # (i, m, a) with b_i = a·b_m, row i not yet filled
            while cells[i] is None:
                m, a = prefix[i]
                chain.append((i, m, a))
                i = m
            for i, m, a in reversed(chain):
                cells[i] = {j: (e[0], c * e[1]) for j, (k, c) in cells[m].items()
                            if (e := extensions[k].get(a))}


def _path_label(
    source: list[str], prefix: list[Optional[tuple[int, str]]], i: int
) -> PathKey:
    """The label ``(source, arrows)`` of basis path ``i``, its arrows read
    off the prefix links, last first, and put in application order."""
    word = []
    src, link = source[i], prefix[i]
    while link is not None:
        i, a = link
        word.append(a)
        link = prefix[i]
    word.reverse()
    return src, tuple(word)


@dataclass
class PathAlgebra:
    """A quotient of a path algebra with a chosen monomial basis.

    The labels of ``algebra`` are its basis paths ``(source, arrows)``,
    rendered from the ``prefix`` links when read (no word is kept).
    The vertices come first in the basis, in ``presentation.vertices``
    order, and ``vertex_index`` maps each vertex to its position: the
    package's one lookup from names to positions.  ``extensions[j]`` maps
    each arrow ``a`` with ``a·b_j`` nonzero to its cell, the normal form of
    ``a·b_j``; this table is the only record of the normal forms, and
    :meth:`reduce` walks it from the start vertex of a word.  Each special
    loop ``e`` satisfies ``e*e = loop_values[e] * e``.  ``prefix[j]``
    links a basis path ``b_j = a·b_m`` to its prefix and last arrow as
    ``(m, a)``, ``None`` for a vertex, and ``source[j]`` and ``target[j]``
    are the vertices where ``b_j`` starts and ends (see
    :func:`graded_path_algebra`).
    """

    presentation: Presentation
    algebra: TableAlgebra
    vertex_index: dict[str, int]
    loop_values: Mapping[str, Coeff]
    extensions: list[dict[str, Cell]]
    prefix: list[Optional[tuple[int, str]]]
    source: list[str]
    target: list[str]

    def vertex(self, v: str) -> Vector:
        return self.reduce((v, ()))

    def arrow(self, a: str) -> Vector:
        arr = self.presentation.arrow_by_id.get(a)
        if arr is None:
            raise error(BAD_INPUT, f"unknown arrow {a!r}")
        return self.reduce((arr.source, (a,)))

    def reduce(self, key: PathKey) -> Vector:
        """The expansion of a composable path over the basis, walked one
        extension cell per arrow; a word that starts at an unknown vertex
        or does not compose in the quiver raises ``BAD_INPUT``."""
        src, arrows = key
        k = self.vertex_index.get(src)
        if k is None:
            raise error(BAD_INPUT, f"path {key!r} starts at an unknown vertex")
        pres = self.presentation
        coeff, at = ONE, src
        for a in arrows:
            arr = pres.arrow_by_id.get(a)
            if arr is None or arr.source != at:
                raise error(BAD_INPUT, f"path {key!r} is not composable in the quiver")
            at = arr.target
            if coeff:  # the path so far is coeff·b_k
                k, c = self.extensions[k].get(a, (k, ZERO))
                coeff *= c
        return {k: coeff} if coeff else {}

    @property
    def dimension(self) -> int:
        return self.algebra.dimension


def _resolve_ties(
    ties: list[tuple[PathKey, Optional[PathKey], int]], known: set[PathKey]
) -> dict[PathKey, Link]:
    """The words of one length that the ties ``p = s·q`` join to another
    word, each mapped to ``(root, ±1)``: ``p = ±root``, ``None`` for zero.
    A term not in ``known`` is zero.  Every other word is a root.

    A signed union-find: ``up[p] = (parent, ±1)`` says ``p = ±parent``, and
    the zero path ``None`` is a root of its own.  A tie joins two roots,
    and the lexicographically first path of a piece survives, or it closes
    a cycle; a cycle whose signs multiply to -1 says ``2p = 0``, and the
    piece joins zero."""
    up: dict[PathKey, Link] = {}

    def find(p: Optional[PathKey]) -> Link:
        sign = 1
        while p in up:
            p, s = up[p]
            sign *= s
        return p, sign

    for p, q, s in ties:
        (p, sp), (q, sq) = (find(k if k in known else None) for k in (p, q))
        s *= sp * sq  # p and q are roots now, with p = s·q
        if p != q:  # keep the zero root, else the lex-first one
            keep, drop = sorted((p, q), key=lambda k: (k is not None, k))
            up[drop] = (keep, s)
        elif p is not None and s != 1:  # a cycle: p = -p, so 2p = 0
            up[p] = (None, 1)
    return {p: find(p) for p in up}


def _require_special_keys(pres: Presentation, loop_values: Mapping[str, Coeff]) -> None:
    """Raise ``BAD_INPUT`` naming each key of ``loop_values`` that is not a
    special loop of ``pres``."""
    unknown = [e for e in loop_values if e not in pres.special]
    if unknown:
        msg = f"loop values are given for {unknown!r}, which are not special loops"
        raise error(BAD_INPUT, msg, tuple(unknown))


def graded_path_algebra(
    pres: Presentation, loop_values: Optional[Mapping[str, Coeff]] = None
) -> PathAlgebra:
    """The quotient of the path algebra of ``pres`` by its relations.

    Relations are single length-two paths or two-term sums (both with
    coefficient one); each special loop ``e`` also satisfies
    ``e*e = value * e``, with the value from ``loop_values`` (default 1).
    The ids of ``pres`` and the composability of its relations are checked
    first (``UNKNOWN_ID``, ``BAD_INPUT``); presentations with special loops
    must pass :func:`check_skew_gentle`.  A ``loop_values`` key that is not
    a special loop, or a value that is not an exact rational, raises
    ``BAD_INPUT``.  Paths are enumerated length by length, never across a
    single-path relation or a repeated special loop.  Each word is built
    once, as the record (source, target, word, link to its prefix), from a
    word of the last length and an arrow that may follow it; the records of
    a length are sorted once, by graded piece (source, target) and then
    lexicographically.

    A two-term relation ``p + q = 0`` is the tie ``p = -q``.  The ties of
    each length are those of the last length followed by an arrow, and the
    two-term relations preceded by a path; a term that is not an enumerated
    word is zero.  They are resolved by a signed union-find over the words
    of that length (:func:`_resolve_ties`), so the normal form of every
    path is 0 or ±1 times one basis path, with no division; a tied word
    reads the index of its root, admitted first, off the survivors of its
    length, indexed only at a length that a tie reaches.  A repeated
    special loop only scales a path by its value, so the basis does not
    depend on the loop values, and each product is stored as one cell
    ``(k, c)``.  A length that no tie reaches (every length of a gentle
    pair, whose relations are single paths) has nothing to resolve, and
    each of its words is admitted as it comes.

    Each basis path is admitted with its links and no word: ``prefix[i] =
    (m, a)`` for ``b_i = a·b_m``, with ``b_m`` its prefix and ``a`` its
    last arrow (``None`` for a vertex), and ``source[i]`` and
    ``target[i]``, the vertices where it starts and ends.  The words of a
    length live only while the next length is enumerated, and a label
    ``(source, arrows)`` is rendered from the links when it is read.
    The prefix of a basis path is a basis path: a word tied to the
    survivor ``q`` of its piece extends to a word tied to the extension of
    ``q``, which sorts first, or to zero.  The ties join only parallel
    paths (checked first), so a normal form ends where its word does.
    Each word also sets the cell of its prefix followed by its last arrow,
    ``extensions[m][a]``, the product ``a·b_m``: the normal form of the
    word, and no entry for a zero product or across a single-path
    relation; a basis path ending in a special loop ``e`` gets the cell of
    ``e`` followed by ``e``, the loop value times itself.  A vertex row
    holds the paths ending there.  Row ``i`` of a longer basis path is
    ``b_i·b_j = a·(b_m·b_j)``: one lookup per cell of row ``m``, with no
    word built or hashed.

    The ``generators`` are the basis paths with at most one ordinary
    (non-special) arrow: the vertices and arrows, first in the basis, and
    with special loops also paths such as ``e·a``, which is not in ``J²``
    while ``e² = value·e``.  A path with two ordinary arrows is the product
    of two paths in the ideal the ordinary arrows generate, which is
    nilpotent, so it lies in ``J²``; these paths span an ideal, since a
    product keeps every ordinary arrow or vanishes.  Only the generator
    rows are filled here; every other row is filled from its prefix's row
    on its first read.

    Paths are enumerated up to length ``len(pres.arrows) + 1``.  In the
    gentle, skew-gentle and split shapes a nonzero path never repeats an
    arrow, since a repeat closes a cycle whose powers never vanish, so
    every path of that length is zero.  Raises ``NOT_STABILIZED`` when
    some path of that length survives: the presentation is then
    infinite-dimensional.
    """
    if pres.special:
        raise_on_error(check_skew_gentle(pres))
    else:
        ids, composable = pres._shape_findings
        if ids or composable:
            raise ValidationError(ids or composable)
    loop_values = loop_values or {}
    _require_special_keys(pres, loop_values)
    values = {e: _exact(loop_values.get(e, 1)) for e in pres.special}
    repeats = {e: c for e, c in values.items() if c and (e, e) not in pres.monomial_pairs}
    limit = len(pres.arrows) + 1
    outgoing, monomial_pairs = pres.outgoing, pres.monomial_pairs
    # the arrows that may follow a, with their targets
    follow = {
        a.id: [
            (b.id, b.target)
            for b in outgoing[a.target]
            if (a.id, b.id) not in monomial_pairs and not (a.id == b.id and b.id in values)
        ]
        for a in pres.arrows
    }
    binomials = [
        (rel[0], rel[1], pres.arrow_by_id[rel[0][0]].source)
        for rel in pres.relations
        if len(rel) == 2
    ]
    vertex_index = {v: i for i, v in enumerate(pres.vertices)}

    extensions: list[dict[str, Cell]] = []
    prefix: list[Optional[tuple[int, str]]] = []
    source: list[str] = []
    target: list[str] = []
    dims: list[int] = []
    # the records of a length and of the two before it, the basis index of
    # each record of the last one (None for a word tied to another or to
    # zero), and that length's tied words (source, word, target, root, ±1)
    records: list = [(v, v, (), None) for v in pres.vertices]
    before: list = []
    layer: list = []
    own: list[Optional[int]] = []
    ties: list[tuple[str, tuple[str, ...], str, Optional[PathKey], int]] = []
    while True:
        pending = [
            ((src, arrows + (b.id,)), q and (q[0], q[1] + (b.id,)), s)
            for src, arrows, tgt, q, s in ties
            for b in outgoing[tgt]
        ]
        pending += [
            ((src, arrows + r), (src, arrows + q), -1)
            for r, q, rsrc in binomials
            for src, tgt, arrows, _ in before
            if tgt == rsrc
        ]
        tied = _resolve_ties(pending, {(r[0], r[2]) for r in records}) if pending else {}
        roots: dict[PathKey, int] = {}  # this length's survivors, if a tie reaches it
        ties, own = [], []
        for src, tgt, arrows, link in records:
            key = (src, arrows)
            hit = tied.get(key) if tied else None
            if hit is not None:
                root, s = hit
                ties.append((src, arrows, tgt, root, s))
                own.append(None)
                if root is not None and link:
                    extensions[link[0]][link[1]] = (roots[root], s)
                continue
            i = len(prefix)
            own.append(i)
            if tied:
                roots[key] = i
            prefix.append(link)
            source.append(src)
            target.append(tgt)
            if link:
                m, a = link
                extensions[m][a] = (i, ONE)
                extensions.append({a: (i, repeats[a])} if a in repeats else {})
            else:
                extensions.append({})
        dims.append(len(records) - len(ties))
        before, layer = layer, records
        length = len(dims)
        if length == 1:
            records = [
                (a.source, a.target, (a.id,), (vertex_index[a.source], a.id))
                for a in sorted(pres.arrows, key=lambda a: a.id)
            ]
            continue
        if not dims[-1]:
            break
        if length > limit:
            raise error(
                NOT_STABILIZED,
                f"graded dimensions did not vanish by length {limit}",
            )
        records = [
            (src, t, arrows + (b,), None if i is None else (i, b))
            for (src, _, arrows, _), i in zip(layer, own)
            for b, t in follow[arrows[-1]]
        ]
        # Sorted by graded piece, then lexicographically, so each survivor
        # is admitted before the words tied to it.
        records.sort()

    # the paths with at most one ordinary arrow, of length 3 or less (e·a·e')
    if values:
        ordinary = [0] * sum(dims[:4])
        for i in range(dims[0], len(ordinary)):
            m, a = prefix[i]
            ordinary[i] = ordinary[m] + (a not in values)
        generators: Collection[int] = frozenset(i for i, k in enumerate(ordinary) if k <= 1)
    else:
        generators = range(dims[0] + dims[1])
    ends: dict[str, dict[int, Cell]] = {v: {} for v in pres.vertices}
    for j, t in enumerate(target):
        ends[t][j] = (j, ONE)
    cells = [ends[v] for v in pres.vertices] + [None] * (len(prefix) - len(ends))
    rows = _PathRows(cells, prefix, extensions)
    rows.fill(generators)  # the vertex rows are filled already
    unit = {i: ONE for i in range(len(pres.vertices))}  # vertices come first
    labels = _Rendered(len(prefix), partial(_path_label, source, prefix))
    algebra = TableAlgebra(labels, rows, unit, generators)
    return PathAlgebra(pres, algebra, vertex_index, values, extensions, prefix, source, target)


# ---------------------------------------------------------------------------
# Corners eAe


@dataclass
class CornerAlgebra:
    """The corner ``e*A*e`` of ``parent``, kept as the parent basis indices
    that span it, for an idempotent ``e`` with ``e*b*e`` equal to ``b`` or
    to 0 for every basis element ``b`` (as for a sum of vertex
    idempotents).  No table is built: the corner's products are the
    parent's, in the parent's coordinates, so :attr:`rows` and
    :meth:`mul` are the parent's, :attr:`unit` is ``e`` and
    :attr:`dimension` counts ``indices``.  :func:`verify_morphism` reads a
    corner as it reads a :class:`TableAlgebra`.

    ``generators`` are the kept indices that generate the corner, under the
    contract of :attr:`TableAlgebra.generators`; every kept index is always
    sound.  For a full idempotent (``A·e·A = A``) the
    kept generators of the parent qualify: ``e·N·e`` is an ideal of the
    corner spanned by the other kept indices, and it lies in
    ``e·J²·e = (e·J·e)²``, the square of the corner's radical ``e·J·e``,
    since ``1 = Σ x_i·e·y_i`` gives ``e·J·J·e = Σ (e·J·x_i·e)(e·y_i·J·e)``.
    """

    parent: TableAlgebra
    idempotent: Vector
    indices: tuple[int, ...]
    generators: Collection[int]

    @property
    def dimension(self) -> int:
        return len(self.indices)

    @property
    def rows(self) -> Sequence[dict[int, Cell]]:
        return self.parent.rows

    @property
    def unit(self) -> Vector:
        return self.idempotent

    def mul(self, x: Vector, y: Vector) -> Vector:
        return self.parent.mul(x, y)

    def _products_row(
        self, x: Vector, preimages: dict[int, list[tuple[int, Coeff]]]
    ) -> dict[int, Vector]:
        return self.parent._products_row(x, preimages)


# ---------------------------------------------------------------------------
# Algebra automorphisms and skew group algebras


@dataclass(frozen=True)
class SignedPermutation:
    """The symmetry ``b_j ↦ σ_j·b_{π(j)}`` of a basis of ``n = len(pi)``
    elements.  The constructor is the one place its shape is checked: it
    raises ``BAD_INPUT`` unless ``π`` is a bijection of ``range(n)`` and
    every ``σ_j`` is ±1.  Both are kept as tuples of ``int``, so equal
    maps compare and hash equal; a reader checks only the size."""

    pi: tuple[int, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        pi, sigma = tuple(self.pi), tuple(self.sigma)
        if (
            len(sigma) != len(pi)
            or not all(isinstance(p, int) for p in pi)
            or set(pi) != set(range(len(pi)))
            or any(s not in (1, -1) for s in sigma)
        ):
            raise error(BAD_INPUT, "the symmetry is not a signed permutation of the basis")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "sigma", tuple(int(s) for s in sigma))

    def apply(self, x: Vector) -> Vector:
        """``s(x)``; the indices of ``x`` go to distinct indices.  An index
        that is not an ``int`` in ``range(n)`` raises ``BAD_INPUT``, so -1
        is not read as the last basis element."""
        pi, sigma = self.pi, self.sigma
        outside = [i for i in x if not (isinstance(i, int) and 0 <= i < len(pi))]
        if outside:
            msg = f"the indices {outside!r} are outside the {len(pi)} basis elements"
            raise error(BAD_INPUT, msg, tuple(outside))
        return {pi[i]: sigma[i] * c for i, c in x.items()}


def _preimages(images: list[Vector]) -> dict[int, list[tuple[int, Coeff]]]:
    """For each target index ``k`` that an image reaches, the pairs
    ``(j, c)`` with ``images[j][k] = c``."""
    out: dict[int, list[tuple[int, Coeff]]] = {}
    for j, img in enumerate(images):
        for k, c in img.items():
            out.setdefault(k, []).append((j, c))
    return out


def verify_algebra_involution(A: TableAlgebra, act: SignedPermutation) -> bool:
    """Check that ``act`` is an algebra involution of ``A``: order two,
    fixes the unit, respects all products.

    With ``act(b_i) = σ_i·b_{π(i)}`` this is ``π(π(i)) = i`` and
    ``σ_i·σ_{π(i)} = 1`` for every ``i``, ``act(1) = 1``, and
    ``act(b_g·b_j) = act(b_g)·act(b_j)`` for every ``j`` and each ``g`` in
    ``A.generators``, which is enough: by induction on ``k``,
    ``f(g₁⋯g_k·y) = f(g₁)·f(g₂⋯g_k·y) = f(g₁⋯g_k)·f(y)``.  Each stored
    cell ``b_g·b_j = c·b_k`` must meet ``(π(k), c·σ_g·σ_j·σ_k)`` at column
    ``π(j)`` of row ``π(g)``, and the two rows must hold as many cells:
    ``π`` is one to one on the columns, so the zero products of row ``g``
    then go to zero products.  The guard reads about ``2·dim`` cells on a
    gentle algebra, not all of them.

    An action on a basis of another size raises ``BAD_INPUT``.
    """
    if len(act.pi) != A.dimension:
        raise error(
            BAD_INPUT,
            f"the symmetry acts on {len(act.pi)} basis elements, not {A.dimension}",
        )
    pi, sigma = act.pi, act.sigma
    for i, p in enumerate(pi):
        if pi[p] != i or sigma[i] * sigma[p] != 1:
            return False
    return veq(act.apply(A.unit), A.unit) and _generator_rows_commute(A, act)


def _generator_rows_commute(A: TableAlgebra, act: SignedPermutation) -> bool:
    """``s(b_g·b_j) = s(b_g)·s(b_j)`` for each ``g`` in ``A.generators``
    and every ``j``: each stored cell ``b_g·b_j = c·b_k`` meets
    ``(π(k), c·σ_g·σ_j·σ_k)`` at column ``π(j)`` of row ``π(g)``, and the
    two rows hold as many cells, so a product nonzero on the right alone
    fails the count."""
    rows, pi, sigma = A.rows, act.pi, act.sigma
    for g in A.generators:
        row, image_row, sg = rows[g], rows[pi[g]], sigma[g]
        if len(row) != len(image_row):
            return False
        for j, (k, c) in row.items():
            if image_row.get(pi[j]) != (pi[k], c * sg * sigma[j] * sigma[k]):
                return False
    return True


def _crossed_label(labels: Sequence[Any], n: int, i: int) -> tuple[Any, int]:
    """The label ``(label, g)`` of ``b⊗g`` at ``i = g·n + index``."""
    g, i = divmod(i, n)
    return labels[i], g


def _crossed_row(
    base: Sequence[dict[int, Cell]], inverse: list[int], sigma: tuple[int, ...], i: int
) -> dict[int, Cell]:
    """Row ``i = g·n + p`` of ``A#ℤ₂``, built from row ``p`` of ``A``: the
    cell of ``b_p·b_m`` at column ``m = π^g(j)``, times ``σ_j^g``, goes to
    columns ``j`` and ``n + j``, in degrees ``g`` and ``g + 1``."""
    n = len(base)
    g, p = divmod(i, n)
    row = {}
    for m, (k, c) in base[p].items():
        if g:
            m = inverse[m]
            c *= sigma[m]
        row[m], row[n + m] = (g * n + k, c), ((1 - g) * n + k, c)
    return row


class CrossedProduct(TableAlgebra):
    """``A#ℤ₂`` for a signed permutation ``s(b_j) = σ_j·b_π(j)`` of the
    basis of ``A``, kept as the rows of ``A``, ``π``, ``π⁻¹`` and ``σ``:
    it stores no row and no label (see :func:`skew_group_algebra`).

    ``b_i⊗g`` is at ``g·n + i``, and the product rule
    ``(b_i⊗g)(b_j⊗h) = b_i·s^g(b_j)⊗(g+h)`` reads each product as the cell
    of row ``i`` of ``A`` at column ``π^g(j)``, times ``σ_j^g``, in degree
    ``g + h``.  :meth:`mul` looks each cell up so, and the morphism
    check's row walk (:meth:`_products_row`) walks row ``i`` of ``A`` and
    sends column ``m`` to ``π^(-g)(m)``.  ``rows[i]`` and ``labels[i]``
    are rendered when read and never kept, so :attr:`table` renders every
    row once per read."""

    def __init__(
        self, base: TableAlgebra, act: SignedPermutation, inverse: list[int],
        generators: Collection[int],
    ):
        n = base.dimension
        self.base_rows, self.pi, self.inverse, self.sigma = base.rows, act.pi, inverse, act.sigma
        # the views hold what they read, not ``self``: no reference cycle
        super().__init__(
            _Rendered(2 * n, partial(_crossed_label, base.labels, n)),
            _Rendered(2 * n, partial(_crossed_row, base.rows, inverse, act.sigma)),
            dict(base.unit),
            generators,
        )

    def mul(self, x: Vector, y: Vector) -> Vector:
        base, pi, sigma = self.base_rows, self.pi, self.sigma
        n = len(pi)
        out: Vector = {}
        for i, ci in x.items():
            g, i = divmod(i, n)
            row = base[i]
            for j, cj in y.items():
                h, j = divmod(j, n)
                cell = row.get(pi[j] if g else j)
                if cell is not None:
                    k, c = cell
                    _add(out, (g ^ h) * n + k, (sigma[j] * c if g else c) * ci * cj)
        return out

    def _products_row(
        self, x: Vector, preimages: dict[int, list[tuple[int, Coeff]]]
    ) -> dict[int, Vector]:
        base, inverse, sigma = self.base_rows, self.inverse, self.sigma
        n = len(inverse)
        out: dict[int, Vector] = {}
        for p, cp in x.items():
            g, p = divmod(p, n)
            for m, (k, c) in base[p].items():
                c *= cp
                if g:
                    m = inverse[m]
                    c *= sigma[m]
                for j, cj in preimages.get(m, ()):
                    _add(out.setdefault(j, {}), g * n + k, c * cj)
                for j, cj in preimages.get(n + m, ()):
                    _add(out.setdefault(j, {}), (1 - g) * n + k, c * cj)
        return out


def skew_group_algebra(A: TableAlgebra, act: SignedPermutation) -> CrossedProduct:
    """The crossed product ``A#ℤ₂`` of A with the order-two group {1, s}:
    the package's one crossing, made once per ``(A, act)`` and kept on
    ``A`` under ``act``, which compares by value, so an equal action finds
    the same crossed product.  ``A#ℤ₂`` needs a ℤ₂-action
    (Reiten--Riedtmann), so :func:`verify_algebra_involution` guards each
    crossing: an action of another size raises ``BAD_INPUT``, a map that
    is not an algebra involution ``NOT_INVOLUTION``, and nothing is kept.

    Basis labels are ``(label, g)`` with ``g`` in {0, 1}, indexed
    ``g * n + index``; the product rule is
    ``(x ⊗ g)(y ⊗ h) = x * g(y) ⊗ g+h``.

    Relations are single paths or sums of two paths with coefficient one,
    so the normal form of every path is ±1 times one basis path, or 0,
    and a relabelling of the quiver that keeps the relations (a deck
    action, the half-swap of a split) is a signed permutation of the
    basis; so are the grading signs.  So ``(b_i⊗g)(b_j⊗h)`` is the cell
    ``(k, c)`` of row ``i`` of ``A`` at column ``π^g(j)``, as
    ``(k + n·(g+h mod 2), σ_j^g·c)``: every cell of the crossed product is
    again one signed basis element, read off ``A``'s rows through
    ``(π, σ)``.  The crossed product is a :class:`CrossedProduct`, which
    keeps those rows, ``π``, ``π⁻¹`` and ``σ`` and no cell of its own.

    When ``π`` permutes the generators of ``A``, the ``generators`` of the
    crossed product are their two copies ``g·n + i``, for ``g`` = 0 and 1.
    The other basis elements span ``N⊗ℤ₂``, an ideal because ``π`` then
    keeps the span ``N`` of the other basis elements of ``A``, and it lies
    inside ``J(A)²⊗ℤ₂ ⊆ (J(A)#ℤ₂)²``, the square of the radical of the
    crossed product in characteristic 0 (Reiten--Riedtmann).  The copies
    span the crossed product modulo ``N⊗ℤ₂``, so they generate it
    (Nakayama's lemma, see :func:`verify_morphism`).  Otherwise every
    index is a generator: the guard reads only the declared generators and
    their images, so it passes an involution that moves a declared
    generator off the declared set (a table that declares an element of
    ``J²`` and not its image).
    """
    skew = A._crossed.get(act)
    if skew is not None:
        return skew
    if not verify_algebra_involution(A, act):
        raise error(NOT_INVOLUTION, "the symmetry is not an algebra involution")
    n, gens = A.dimension, A.generators
    inverse = [0] * n
    for j, k in enumerate(act.pi):
        inverse[k] = j
    generators = frozenset(gens)
    if generators.issuperset(map(act.pi.__getitem__, gens)):  # π permutes them
        generators = generators.union(map(n.__add__, gens))
    else:
        generators = frozenset(range(2 * n))
    skew = A._crossed[act] = CrossedProduct(A, act, inverse, generators)
    return skew


# ---------------------------------------------------------------------------
# Morphism verification


@dataclass(frozen=True)
class MorphismVerdict:
    is_homomorphism: bool
    is_surjective: bool
    is_isomorphism: bool
    failures: tuple[str, ...]


def verify_morphism(
    domain: Presentation,
    vertex_images: Mapping[str, Vector],
    arrow_images: Mapping[str, Vector],
    target: TableAlgebra | CornerAlgebra,
    expected_dim: int,
    loop_values: Optional[Mapping[str, Coeff]] = None,
    scale: Coeff = 1,
) -> MorphismVerdict:
    """Check that generator images define an algebra map, and whether it
    is onto and an isomorphism.

    The domain is the quotient of the path algebra of ``domain`` by its
    relations, with each special loop ``e`` additionally satisfying
    ``e*e = value * e`` (value 1 unless overridden via ``loop_values``).
    ``expected_dim`` must be the independently computed domain dimension;
    the verdict combines homomorphism, surjectivity and the dimension
    count.  A vertex or arrow of ``domain`` with no image, or with an
    image whose index is not an ``int`` in ``range(len(target.rows))``,
    raises ``BAD_INPUT`` before any product is taken, and so does a
    ``loop_values`` key that is not a special loop of ``domain``.

    A :class:`TableAlgebra` and a :class:`CornerAlgebra` target are read
    the same way: products from its row walk and ``mul``, the unit from
    ``unit``, the generators from ``generators`` and the dimension from
    ``dimension``.  The images into a corner are given
    in the coordinates of its parent ``B``, and the corner's unit is its
    idempotent ``e``.  Images that pass the homomorphism checks lie in
    ``e*B*e``: the vertex images are orthogonal idempotents summing to
    ``e``, so each is ``e·f(v)·e``, and each arrow image is framed by two
    of them.  So the span below counts dimensions inside the corner.

    With ``scale`` = s the images are given scaled: each vertex image is
    ``s·φ(v)`` and each arrow image ``s²·φ(a)`` for the map φ under test,
    which is checked through ``ψ_v² = s·ψ_v``, ``Σψ_v = s·1``,
    ``ψ_t·ψ_a·ψ_s = s²·ψ_a`` and ``ψ_e² = s²·value·ψ_e``.  The
    orthogonality, relation and span checks do not depend on s.  So maps
    whose images carry a denominator can be checked on integral multiples;
    the verdict is the one of φ, failure messages included.

    Surjectivity closes the span of the images of the vertices, the unit
    and the path words modulo ``N``, the span of the basis elements that
    are not among the target's ``generators``: each vector added drops its
    coordinates outside the generators first.  It counts only the rank,
    by a fraction-free echelon form that keeps no reduced basis
    (:class:`_EchelonRank`), and calls the map onto when the rank is the
    number of generators.  A word with source ``s`` is only extended on the
    right by the arrows ending at ``s``, and only while it raises the rank;
    the closure stops once the rank is the number of generators, which it
    cannot pass, since every vector added lies in their span.
    This is exact for every map that passes the homomorphism checks,
    indeed whenever the vertex images are orthogonal idempotents summing
    to the unit and each arrow image is framed by its endpoints: then
    ``f(p)·f(a) = f(p)·f(s(p))·f(t(a))·f(a)`` vanishes unless
    ``t(a) = s(p)``, and since ``N`` is an ideal a word taken modulo ``N``
    times ``f(a)`` is the word times ``f(a)`` modulo ``N``; so the span is
    ``(S + N)/N`` for the subalgebra ``S`` the images generate, which
    contains the unit and is closed under right multiplication by every
    generator.  Its rank is the number of generators exactly when
    ``S + N`` is the target ``C``, and then ``S = C`` by Nakayama's lemma,
    since ``N ⊆ J²``: every ``x`` in ``J`` is ``s + y`` with ``s`` in ``S``
    and ``y`` in ``J²``, so ``J = (S∩J) + J²``, ``J^k ⊆ S + J^(k+1)``
    for every ``k``, and ``C = S + J² ⊆ S + J³ ⊆ ⋯ ⊆ S`` as ``J`` is
    nilpotent.  The contract of ``N`` holds for every target the package
    builds: a path algebra's ``N`` is spanned by the paths with two
    ordinary arrows (:func:`graded_path_algebra`); a crossed product's is
    ``N⊗ℤ₂``, inside ``J(A#ℤ₂)² = (J(A)#ℤ₂)²`` (Reiten--Riedtmann, in
    characteristic 0; :func:`skew_group_algebra`); a corner at a full
    idempotent ``e`` has ``e·N·e`` inside ``e·J²·e``, the square of its
    radical (:class:`CornerAlgebra`).  On a graded target a product of two
    arrow images lies in ``N``, so the closure stops after the generators
    and no long path is ever multiplied.  For a map that fails the
    homomorphism checks no algebra map exists and ``is_isomorphism`` is
    false anyway; ``is_surjective`` then only says whether the images the
    closure reaches span the target modulo ``N``.
    """
    missing = [v for v in domain.vertices if v not in vertex_images]
    missing += [a.id for a in domain.arrows if a.id not in arrow_images]
    if missing:
        raise error(
            BAD_INPUT, f"no image is given for the generators {missing!r}", tuple(missing)
        )
    size = len(target.rows)
    named = [(v, vertex_images[v]) for v in domain.vertices]
    named += [(a.id, arrow_images[a.id]) for a in domain.arrows]
    outside = [
        gen for gen, img in named if not all(isinstance(k, int) and 0 <= k < size for k in img)
    ]
    if outside:
        raise error(
            BAD_INPUT,
            f"the images of the generators {outside!r} have indices outside "
            f"the target's {size} basis elements",
            tuple(outside),
        )
    if loop_values:
        _require_special_keys(domain, loop_values)
    failures: list[str] = []

    # ψ_u·ψ_v for every v at once, keyed by the position of v: one row walk
    # per vertex image over a preimage index of all of them
    vertices = domain.vertices
    images = [vertex_images[v] for v in vertices]
    preimages = _preimages(images)
    products = [target._products_row(ev, preimages) for ev in images]
    total: Vector = {}
    for p, (v, ev) in enumerate(zip(vertices, images)):
        if not veq(products[p].get(p, {}), vscale(ev, scale)):
            failures.append(f"image of vertex {v!r} is not idempotent")
        _accumulate(total, ev, ONE)
    if not veq(total, vscale(target.unit, scale)):
        failures.append("vertex images do not sum to the unit")
    # only a stored product can be nonzero; ascending q keeps the pair order
    for p, u in enumerate(vertices):
        for q in sorted(q for q, prod in products[p].items() if prod and q != p):
            failures.append(f"images of vertices {u!r}, {vertices[q]!r} are not orthogonal")

    for a in domain.arrows:
        img = arrow_images[a.id]
        framed = target.mul(
            vertex_images[a.target], target.mul(img, vertex_images[a.source])
        )
        if not veq(framed, vscale(img, scale * scale)):
            failures.append(f"image of arrow {a.id!r} is not framed by its endpoints")

    for rel in domain.relations:
        acc: Vector = {}
        for a1, a2 in rel:
            _accumulate(acc, target.mul(arrow_images[a2], arrow_images[a1]), ONE)
        if acc:
            failures.append(f"relation {rel!r} does not map to zero")
    for e in sorted(domain.special):
        value = _exact(loop_values.get(e, 1)) if loop_values else ONE
        img = arrow_images[e]
        if not veq(target.mul(img, img), vscale(img, scale * scale * value)):
            failures.append(f"special loop {e!r} does not satisfy its square rule")

    is_hom = not failures

    # Close the span of the path images modulo N: each vector keeps only its
    # generator coordinates, and a word with source s only grows by the
    # arrows ending at s, since every other product is zero.
    gens = target.generators
    span = _EchelonRank()
    for v in domain.vertices:
        span.add(_restrict(vertex_images[v], gens))
    span.add(_restrict(target.unit, gens))
    into: dict[str, list[Arrow]] = {v: [] for v in domain.vertices}
    frontier: list[tuple[str, Vector]] = []
    for a in domain.arrows:
        into[a.target].append(a)
        img = _restrict(arrow_images[a.id], gens)
        if span.add(img):
            frontier.append((a.source, img))
    while frontier and span.rank < len(gens):
        s, w = frontier.pop()
        for a in into[s]:
            prod = _restrict(target.mul(w, arrow_images[a.id]), gens)
            if prod and span.add(prod):
                frontier.append((a.source, prod))
    is_surj = span.rank == len(gens)
    if not is_surj:
        failures.append(
            f"images generate {span.rank} < {len(gens)} dimensions of the target "
            "modulo its non-generators"
        )
    is_iso = is_hom and is_surj and expected_dim == target.dimension
    if expected_dim != target.dimension:
        failures.append(
            f"domain dimension {expected_dim} differs from target dimension {target.dimension}"
        )
    return MorphismVerdict(is_hom, is_surj, is_iso, tuple(failures))


# ---------------------------------------------------------------------------
# Deformation family of a skew-gentle algebra


def verify_deformation_map(triple: Presentation, value: Coeff) -> MorphismVerdict:
    """Check the scaling map from the ``value``-deformed algebra.

    The deformed algebra imposes ``e*e = value * e`` on each special loop.
    Sending each loop ``e`` to ``value * e`` and fixing all other
    generators defines a map into the undeformed algebra; it is an
    isomorphism exactly when ``value`` is invertible.
    """
    value = _exact(value)
    base = graded_path_algebra(triple)
    # The basis does not depend on the loop values, so the deformed algebra
    # has the dimension of the undeformed one.
    deformed_dim = base.dimension
    vertex_images = {v: base.vertex(v) for v in triple.vertices}
    arrow_images: dict[str, Vector] = {}
    for a in triple.arrows:
        img = base.arrow(a.id)
        if a.id in triple.special:
            img = vscale(img, value)
        arrow_images[a.id] = img
    return verify_morphism(
        triple,
        vertex_images,
        arrow_images,
        base.algebra,
        expected_dim=deformed_dim,
        loop_values={e: value for e in triple.special},
    )
