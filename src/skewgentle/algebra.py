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
``N`` inside the square of the radical.  The builders store only the
generator rows when they build: the vertices and arrows of a path algebra
(and, with special loops, the paths with one ordinary arrow), and their
two copies in a crossed product.  Every other row is filled on its first
read, from the row of its prefix in a path algebra and from the row of
``A`` in a crossed product, and then kept.  The verdicts read only
generator rows, so they never fill the rest:
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
:func:`skew_group_algebra` permutes the cells of each row through
``π⁻¹``, shares the ``+`` ones and negates the ``-`` ones, so the crossed
product is monomial again.
:func:`graded_path_algebra` needs no linear algebra: its only sums are
the two-term relations, ties ``p = ±q`` that a signed union-find resolves,
so a normal form is ±1 times one basis path, or 0.  It keeps the cell of
each basis path followed by each arrow, and fills the row of a basis
path ``a·p`` from the row of ``p``, one lookup per cell.  The only elimination
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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Collection, Mapping, Optional, Sequence

from .diagnostics import BAD_INPUT, NOT_STABILIZED, Report, error, raise_on_error
from .presentations import (
    Arrow,
    Presentation,
    _check_composability,
    _check_ids,
    check_skew_gentle,
)

Coeff = int | Fraction
Vector = dict[Any, Coeff]
Cell = tuple[int, Coeff]  # (k, c): the product c·b_k, with c nonzero

ONE = 1
ZERO = 0


def _exact(c: Any) -> Coeff:
    """``c`` as an exact rational: an ``int`` or ``Fraction`` as it is,
    anything else (a float, a decimal string) through ``Fraction``."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


# ---------------------------------------------------------------------------
# Sparse vectors


def vec(*pairs: tuple[Any, Coeff]) -> Vector:
    out: Vector = {}
    for k, c in pairs:
        c = _exact(c)
        if c:
            out[k] = out.get(k, ZERO) + c
            if not out[k]:
                del out[k]
    return out


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


class _Rows:
    """The rows of a product table, each filled on its first read.

    ``cells[i]`` is row ``i`` once it is filled and ``None`` before.  A
    builder fills the rows of the generators as it builds, in one call of
    :meth:`fill`; any other row is filled the first time it is read, and
    the row is kept.  Reading by index, ``len``, iteration and ``==``, the
    last two filling every row, act as on a list of the rows."""

    __slots__ = ("cells",)

    def __init__(self, cells: list[Optional[dict[int, Cell]]]):
        self.cells = cells

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
        if not isinstance(other, (_Rows, list)):
            return NotImplemented
        return list(self) == list(other)

    @property
    def filled(self) -> int:
        """The number of rows filled so far."""
        return len(self.cells) - self.cells.count(None)

    def fill(self, indices: Collection[int]) -> None:
        """Fill the rows at ``indices`` that are not filled yet."""
        raise NotImplementedError


@dataclass
class TableAlgebra:
    """A finite-dimensional unital algebra with a sparse product table.

    ``rows[i]`` maps each column ``j`` whose product ``basis_i * basis_j``
    (composition order, ``basis_j`` applied first) is nonzero to its cell
    ``(k, c)``: the product is ``c·basis_k``, with ``c`` a nonzero exact
    ``int`` or ``Fraction``.  A zero product is not stored, and no product
    has two terms (see the module docstring).  A row's columns are in no
    set order: the twisted rows of :func:`skew_group_algebra` keep the
    order of the permutation.  :attr:`table` is a dense view for readers by
    position, built on each read and never kept.

    ``generators`` (a ``range`` or a ``frozenset``) indexes basis elements
    that generate the algebra, and the span ``N`` of the other basis
    elements is an ideal inside ``J²``, the square of the radical.  The
    default, every index, gives ``N = 0`` and is always sound.  The checks
    of multiplicativity read only the generator rows, and the surjectivity
    check of :func:`verify_morphism` closes its span modulo ``N``.

    ``rows`` is a list, or the rows of a builder that stores the generator
    rows when it builds and fills every other row on its first read
    (``rows.filled`` counts the rows filled so far); :meth:`mul`,
    :attr:`table` and iteration see every row.  A row is not changed once
    it is filled, and builders share cells between positions and between
    algebras.  ``_crossed`` keeps the crossed products of this algebra that
    :mod:`skewgentle.equivariant` has built, keyed by the action.
    """

    labels: tuple[Any, ...]
    rows: Sequence[dict[int, Cell]]
    unit: Vector
    generators: Optional[Collection[int]] = None
    _crossed: dict[SignedPermutation, TableAlgebra] = field(
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

    def __post_init__(self):
        self.index_of = {lab: i for i, lab in enumerate(self.labels)}
        if self.generators is None:
            self.generators = range(len(self.labels))

    def element(self, label: Any, coeff: Coeff = ONE) -> Vector:
        return vec((self.index_of[label], coeff))

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


def _restrict(x: Vector, keep: Collection[int]) -> Vector:
    """The terms of ``x`` whose index is in ``keep``."""
    return {k: c for k, c in x.items() if k in keep}


def _products_row(
    B: TableAlgebra, x: Vector, preimages: list[list[tuple[int, Coeff]]]
) -> dict[int, Vector]:
    """``x * f(b_j)`` in ``B`` for every ``j`` that some stored cell
    reaches, keyed by ``j``, where ``preimages`` lists the pairs of
    :func:`_preimages` of the images ``f(b_j)``.  Products that cancel
    are left empty."""
    out: dict[int, Vector] = {}
    for p, cp in x.items():
        for m, (k, c) in B.rows[p].items():
            c *= cp
            for j, cj in preimages[m]:
                _add(out.setdefault(j, {}), k, c * cj)
    return out


# ---------------------------------------------------------------------------
# Path-algebra quotients

PathKey = tuple[str, tuple[str, ...]]  # (source vertex, arrows in application order)
Link = tuple[Optional[PathKey], int]  # (parent, ±1): the path is ±parent; None is zero


def path_target(pres: Presentation, key: PathKey) -> str:
    src, arrows = key
    if not arrows:
        return src
    return pres.arrow_by_id[arrows[-1]].target


class _PathRows(_Rows):
    """The rows of a path algebra.  A vertex row holds the paths ending
    there.  A longer basis path is ``b_i = a·b_m``, with ``a`` its last
    arrow and ``b_m`` its prefix, so row ``i`` is ``b_i·b_j = a·(b_m·b_j)``:
    one extension cell for each cell of row ``m``.  Prefixes not yet filled
    are filled first, shortest first, in a loop."""

    __slots__ = ("labels", "index_of", "extensions")

    def __init__(self, cells, labels, index_of, extensions):
        self.cells, self.labels, self.index_of = cells, labels, index_of
        self.extensions = extensions

    def fill(self, indices: Collection[int]) -> None:
        cells, labels, index_of, extensions = (
            self.cells, self.labels, self.index_of, self.extensions
        )
        for i in indices:
            if cells[i] is not None:
                continue
            chain = []  # (i, m, a) with b_i = a·b_m, row i not yet filled
            while cells[i] is None:
                src, arrows = labels[i]
                m = index_of[(src, arrows[:-1])]
                chain.append((i, m, arrows[-1]))
                i = m
            for i, m, a in reversed(chain):
                cells[i] = {j: (e[0], c * e[1]) for j, (k, c) in cells[m].items()
                            if (e := extensions[k].get(a))}


@dataclass
class PathAlgebra:
    """A quotient of a path algebra with a chosen monomial basis.

    ``normal_forms`` sends every enumerated path key to its expansion over
    the basis (by index); paths at or beyond ``zero_length`` vanish, and so
    do paths through a single-path relation.  Each special loop ``e``
    satisfies ``e*e = loop_values[e] * e``.  ``extensions[j]`` maps each
    arrow ``a`` with ``a·b_j`` nonzero to its cell (see
    :func:`graded_path_algebra`).
    """

    presentation: Presentation
    algebra: TableAlgebra
    normal_forms: dict[PathKey, Vector]
    zero_length: int
    dims_by_length: tuple[int, ...]
    loop_values: Mapping[str, Coeff]
    extensions: list[dict[str, Cell]]

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
        k = self.algebra.index_of.get((src, ()))
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


def graded_path_algebra(
    pres: Presentation, loop_values: Optional[Mapping[str, Coeff]] = None
) -> PathAlgebra:
    """The quotient of the path algebra of ``pres`` by its relations.

    Relations are single length-two paths or two-term sums (both with
    coefficient one); each special loop ``e`` also satisfies
    ``e*e = value * e``, with the value from ``loop_values`` (default 1).
    The ids of ``pres`` and the composability of its relations are checked
    first (``UNKNOWN_ID``, ``BAD_INPUT``); presentations with special loops
    must pass :func:`check_skew_gentle`.  Paths are enumerated length by
    length, never across a single-path relation or a repeated special loop.

    A two-term relation ``p + q = 0`` is the tie ``p = -q``.  The ties of
    each length are those of the last length followed by an arrow, and the
    two-term relations preceded by a path; a term that is not an enumerated
    word is zero.  They are resolved by a signed union-find over the words
    of that length: ``up[p] = (parent, ±1)`` says ``p = ±parent``, and the
    zero path ``None`` is a root of its own.  A tie joins two roots, and the
    lexicographically first path of a piece survives as a basis vector, or
    it closes a cycle; a cycle whose signs multiply to -1 says ``2p = 0``,
    and the piece joins zero.  So the normal form of every path is 0 or ±1
    times one basis path, with no division; a repeated special loop only
    scales a path by its value, so the basis does not depend on the loop
    values, and each product is stored as one cell ``(k, c)``.

    While it enumerates, the builder keeps ``extensions[j][a]``, the cell
    of ``b_j`` followed by the arrow ``a`` (the product ``a·b_j``): the
    normal form of the longer word, the loop value times ``b_j`` where
    ``a`` repeats a special loop, and no entry across a single-path
    relation or for a zero product.  A vertex row holds the paths ending
    there.  A longer basis path is ``b_i = a·b_m``, with ``a`` its last
    arrow and ``b_m`` its prefix, so row ``i`` is
    ``b_i·b_j = a·(b_m·b_j)``: one lookup per cell of row ``m``, with no
    word built or hashed.  The prefix of a basis path is a basis path: a
    word tied to the survivor ``q`` of its piece extends to a word tied
    to the extension of ``q``, which sorts first, or to zero.  The ties
    join only parallel paths (checked first), so a normal form ends where
    its word does.

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
        report = Report()
        _check_ids(pres, report)
        if report.ok:
            _check_composability(pres, report)
        raise_on_error(report)
    loop_values = loop_values or {}
    values = {e: _exact(loop_values.get(e, 1)) for e in pres.special}
    limit = len(pres.arrows) + 1
    binomials = [rel for rel in pres.relations if len(rel) == 2]

    basis: list[PathKey] = []
    index_of: dict[PathKey, int] = {}
    normal_forms: dict[PathKey, Vector] = {}
    extensions: list[dict[str, Cell]] = []

    def admit(key: PathKey) -> None:
        index_of[key] = len(basis)
        normal_forms[key] = {len(basis): ONE}
        basis.append(key)
        extensions.append({})

    layers: list[list[PathKey]] = [
        [(v, ()) for v in pres.vertices],
        [(a.source, (a.id,)) for a in sorted(pres.arrows, key=lambda a: a.id)],
    ]
    for key in layers[0] + layers[1]:
        admit(key)
    for key in layers[1]:
        extensions[index_of[(key[0], ())]][key[1][0]] = (index_of[key], ONE)
    dims = [len(layers[0]), len(layers[1])]
    ties: dict[PathKey, Link] = {}  # the last length's dead or tied words
    while dims[-1]:
        length = len(dims)
        if length > limit:
            raise error(
                NOT_STABILIZED,
                f"graded dimensions did not vanish by length {limit}",
            )
        words: list[PathKey] = []
        children: list[tuple[int, str, PathKey]] = []  # (basis parent, arrow, word)
        for p in layers[-1]:
            src, arrows = p
            i = index_of.get(p)
            for b in pres.outgoing[path_target(pres, p)]:
                if (arrows[-1], b.id) in pres.monomial_pairs:
                    continue
                if arrows[-1] == b.id and b.id in values:  # e·e = value·e
                    if values[b.id] and i is not None:
                        extensions[i][b.id] = (i, values[b.id])
                    continue
                words.append(word := (src, arrows + (b.id,)))
                if i is not None:
                    children.append((i, b.id, word))
        layers.append(words)
        # Sorted by graded piece, then lexicographically, so each survivor
        # is admitted before the words tied to it.
        words.sort(key=lambda k: (k[0], path_target(pres, k), k[1]))
        known = set(words)
        up: dict[PathKey, Link] = {}

        def find(p: Optional[PathKey]) -> Link:
            sign = 1
            while p in up:
                p, s = up[p]
                sign *= s
            return p, sign

        def tie(p: Optional[PathKey], q: Optional[PathKey], s: int) -> None:
            (p, sp), (q, sq) = (find(k if k in known else None) for k in (p, q))
            s *= sp * sq  # p and q are roots now, with p = s·q
            if p != q:  # keep the zero root, else the lex-first one
                keep, drop = sorted((p, q), key=lambda k: (k is not None, k))
                up[drop] = (keep, s)
            elif p is not None and s != 1:  # a cycle: p = -p, so 2p = 0
                up[p] = (None, 1)

        for p, (q, s) in ties.items():
            for b in pres.outgoing[path_target(pres, p)]:
                tie((p[0], p[1] + (b.id,)), q and (q[0], q[1] + (b.id,)), s)
        for rel in binomials:
            rsrc = pres.arrow_by_id[rel[0][0]].source
            for src, arrows in layers[-3]:
                if path_target(pres, (src, arrows)) == rsrc:
                    tie((src, arrows + rel[0]), (src, arrows + rel[1]), -1)
        ties = {}
        for key in words:
            root, s = find(key)
            if root == key:
                admit(key)
            else:
                ties[key] = (root, s)
                normal_forms[key] = {} if root is None else {index_of[root]: s}
        dims.append(len(words) - len(ties))
        for i, b, word in children:
            if nf := normal_forms[word]:
                extensions[i][b] = next(iter(nf.items()))
    zero_length = len(dims) - 1

    # the paths with at most one ordinary arrow, of length 3 or less (e·a·e')
    if values:
        generators: Collection[int] = frozenset(
            i for i in range(sum(dims[:4]))
            if sum(a not in values for a in basis[i][1]) <= 1
        )
    else:
        generators = range(len(layers[0]) + dims[1])
    ends: dict[str, dict[int, Cell]] = {v: {} for v in pres.vertices}
    for j, key in enumerate(basis):
        ends[path_target(pres, key)][j] = (j, ONE)
    cells = [ends[v] for v in pres.vertices] + [None] * (len(basis) - len(ends))
    rows = _PathRows(cells, basis, index_of, extensions)
    rows.fill(generators)  # the vertex rows are filled already
    unit = {i: ONE for i in range(len(pres.vertices))}  # vertices come first
    algebra = TableAlgebra(tuple(basis), rows, unit, generators)
    return PathAlgebra(pres, algebra, normal_forms, zero_length, tuple(dims), values, extensions)


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
    contract of :attr:`TableAlgebra.generators`; the default, every kept
    index, is always sound.  For a full idempotent (``A·e·A = A``) the
    kept generators of the parent qualify: ``e·N·e`` is an ideal of the
    corner spanned by the other kept indices, and it lies in
    ``e·J²·e = (e·J·e)²``, the square of the corner's radical ``e·J·e``,
    since ``1 = Σ x_i·e·y_i`` gives ``e·J·J·e = Σ (e·J·x_i·e)(e·y_i·J·e)``.
    """

    parent: TableAlgebra
    idempotent: Vector
    indices: tuple[int, ...]
    generators: Optional[Collection[int]] = None

    def __post_init__(self):
        if self.generators is None:
            self.generators = frozenset(self.indices)

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
        """``s(x)``; the indices of ``x`` go to distinct indices."""
        pi, sigma = self.pi, self.sigma
        return {pi[i]: sigma[i] * c for i, c in x.items()}


def _preimages(images: list[Vector], size: int) -> list[list[tuple[int, Coeff]]]:
    """For each target index ``k``, the pairs ``(j, c)`` with ``images[j][k] = c``."""
    out: list[list[tuple[int, Coeff]]] = [[] for _ in range(size)]
    for j, img in enumerate(images):
        for k, c in img.items():
            out[k].append((j, c))
    return out


def _require_size(A: TableAlgebra, act: SignedPermutation) -> None:
    if len(act.pi) != A.dimension:
        raise error(
            BAD_INPUT,
            f"the symmetry acts on {len(act.pi)} basis elements, not {A.dimension}",
        )


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
    _require_size(A, act)
    pi, sigma = act.pi, act.sigma
    for i, p in enumerate(pi):
        if pi[p] != i or sigma[i] * sigma[p] != 1:
            return False
    if not veq(act.apply(A.unit), A.unit):
        return False
    rows = A.rows
    for g in A.generators:
        row, image_row, sg = rows[g], rows[pi[g]], sigma[g]
        if len(row) != len(image_row):
            return False
        for j, (k, c) in row.items():
            if image_row.get(pi[j]) != (pi[k], c * sg * sigma[j] * sigma[k]):
                return False
    return True


class _CrossedRows(_Rows):
    """The rows of ``A#ℤ₂`` from the rows ``base`` of ``A`` (see
    :func:`skew_group_algebra`): row ``i < n`` is row ``i`` of ``A`` and
    its degree-one copy, row ``n + i`` its twist, which shares the cells of
    row ``i``."""

    __slots__ = ("base", "inverse", "sigma")

    def __init__(self, base, inverse, sigma):
        self.cells = [None] * (2 * len(base))
        self.base, self.inverse, self.sigma = base, inverse, sigma

    def fill(self, indices: Collection[int]) -> None:
        cells, base, n = self.cells, self.base, len(self.base)
        inverse, sigma = self.inverse, self.sigma
        # x * g(y_j) goes to column j (h = 0) and to column n + j (h = 1), in
        # degree g + h; its degree-one copy is keyed n + k
        for i in indices:
            if cells[i] is not None:
                continue
            base_row = base[i % n]
            if i < n:
                row = dict(base_row)
                for k, (m, c) in base_row.items():
                    row[n + k] = (m + n, c)
            else:
                zero, row = self[i - n], {}
                for k, cell in base_row.items():
                    j = inverse[k]
                    if sigma[j] == 1:
                        row[j], row[n + j] = zero[n + k], cell
                    else:
                        m, c = cell
                        row[n + j], row[j] = (m, -c), (m + n, -c)
            cells[i] = row


def skew_group_algebra(A: TableAlgebra, act: SignedPermutation) -> TableAlgebra:
    """The crossed product of A with the order-two group {1, s}.

    Basis labels are ``(label, g)`` with ``g`` in {0, 1}, indexed
    ``g * n + index``; the product rule is
    ``(x ⊗ g)(y ⊗ h) = x * g(y) ⊗ g+h``.  The rows with ``g = 0`` are the
    rows of ``A``, sharing its cells; those with ``g = 1`` are its twisted
    rows.  An action on a basis of another size raises ``BAD_INPUT``.

    Relations are single paths or sums of two paths with coefficient one,
    so the normal form of every path is ±1 times one basis path, or 0,
    and a relabelling of the quiver that keeps the relations (a deck
    action, the half-swap of a split) is a signed permutation of the
    basis; so are the grading signs.  Twisted row ``i`` is then row ``i``
    of ``A`` with its columns permuted and signs applied: the cell at
    column ``k`` goes to column ``π⁻¹(k)``, a ``+`` cell is the cell of
    ``A`` and its degree-one copy the one of the degree-zero row, both
    shared, and only a ``-`` cell is negated afresh.  Every cell of the
    crossed product is again one signed basis element ``(k, c)``, and a
    twisted row keeps the order of the row of ``A``.

    When ``π`` permutes the generators of ``A``, the ``generators`` of the
    crossed product are their two copies ``g·n + i``, for ``g`` = 0 and 1,
    and only their rows are filled here; otherwise every index is a
    generator and every row is filled.  The other basis elements span
    ``N⊗ℤ₂``, an ideal because ``π`` then keeps the span ``N`` of the
    other basis elements of ``A``, and it lies inside
    ``J(A)²⊗ℤ₂ ⊆ (J(A)#ℤ₂)²``, the square of the radical of the crossed
    product in characteristic 0 (Reiten--Riedtmann).  The copies span the
    crossed product modulo ``N⊗ℤ₂``, so they generate it (Nakayama's
    lemma, see :func:`verify_morphism`).
    """
    _require_size(A, act)
    n, gens = A.dimension, A.generators
    inverse = [0] * n
    for j, k in enumerate(act.pi):
        inverse[k] = j
    labels = tuple((lab, g) for g in (0, 1) for lab in A.labels)
    rows = _CrossedRows(A.rows, inverse, act.sigma)
    generators = frozenset(gens)
    if generators.issuperset(map(act.pi.__getitem__, gens)):  # π permutes them
        generators = generators.union(map(n.__add__, gens))
    else:
        generators = frozenset(range(2 * n))
    rows.fill(generators)
    return TableAlgebra(labels, rows, dict(A.unit), generators)


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
    count.  A vertex or arrow of ``domain`` with no image raises
    ``BAD_INPUT`` before any product is taken.

    A :class:`TableAlgebra` and a :class:`CornerAlgebra` target are read
    the same way: products from its ``rows`` and ``mul``, the unit from
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
    right by the arrows ending at ``s``, and only while it raises the rank.
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
    failures: list[str] = []

    # ψ_u·ψ_v for every v at once, keyed by the position of v: one row walk
    # per vertex image over a preimage index of all of them
    vertices = domain.vertices
    images = [vertex_images[v] for v in vertices]
    preimages = _preimages(images, len(target.rows))
    products = [_products_row(target, ev, preimages) for ev in images]
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
    while frontier:
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
