"""Order-two symmetries at the algebra level.

For a two-sheeted branched cover (:class:`~skewgentle.covering.CoveringData`)
the deck symmetry acts on the gentle algebra upstairs, and the algebra of
the base is recovered inside the crossed product:

* :func:`verify_skew_group_reduction` builds the crossed product of the
  cover algebra with its deck action, carves out the corner at one chosen
  idempotent per vertex orbit, and checks that the split presentation of
  the base maps isomorphically onto that corner;
* :func:`verify_dual_reduction` goes the other way: the split algebra of
  the base carries the half-swapping symmetry, and the cover algebra maps
  isomorphically onto a corner of that crossed product, matching the deck
  action with the grading signs;
* :func:`verify_iterated_skew_group` compares the twice-crossed product
  ``(A#ℤ₂)#ℤ̂₂`` with ``M₂(A)``, built from the product table of ``A``
  alone (Cohen--Montgomery duality).  The action enters only through the
  comparison map, which must be a unital bijective homomorphism, so a
  symmetry that does not respect products fails the check.

Both reductions are one construction read in two directions
(Reiten--Riedtmann) and take one path: guard the involution, cross with
it, cut the corner at one idempotent per orbit, check the generator
images with :func:`~skewgentle.algebra.verify_morphism`, and compare each
image under the grading signs with the image of its partner under the
symmetry of the domain.  They read one set of cover stages, computed once
on the :class:`~skewgentle.covering.CoveringData`, and the dimension each
comparison expects comes from the closed form of the polygon model of
Opper--Plamondon--Schroll (:func:`~skewgentle.presentations.algebra_dimension`),
so no algebra is built only to be measured.

There is one crossed product per ``(A, act)``: the involution guard and
``A#ℤ₂`` run once for each algebra and symmetry, and the result is kept on
the :class:`~skewgentle.algebra.TableAlgebra`.  A reduction followed by
:func:`verify_iterated_skew_group` on its cover algebra and deck action
checks the involution once and crosses with it once.

The iterated check does not build the 4n-dimensional twice-crossed
product.  It checks the comparison map Φ for multiplicativity only with a
left factor in ``S``: every ``(b_i⊗0)⊗0``, plus ``(1⊗1)⊗0`` and
``(1⊗0)⊗1``, whose rows it reads from the rows of ``A#ℤ₂``.  This is
enough.  ``S`` generates, since
``(b⊗g)⊗j = ((b⊗0)⊗0)·((1⊗g)⊗0)·((1⊗0)⊗j)``.  Once the involution guard
has passed, both crossed products and ``M₂(A)`` are associative, so the
check carries from ``S`` to every product of its elements.  With the
guard bypassed, the rows at ``(b_i⊗0)⊗0`` test
``s(b_i·b_q) = s(b_i)·s(b_q)`` and the row at ``(1⊗1)⊗0`` tests
``s² = id``, so a broken symmetry still fails.

All arithmetic is exact, and both comparisons run in ``int``.  The split
idempotents ``(e ± s·e)/2`` carry halves, so each reduction builds its
generator images doubled: every vertex image is ``2·φ(v)`` (``e ± s·e``,
or ``2·e`` for a vertex that is not split) and every arrow image is
``4·φ(a)`` (the sandwich of an arrow between two doubled ends, or its
half-sum doubled once more).  These integral images go, in corner
coordinates, to :func:`~skewgentle.algebra.verify_morphism` with
``scale=2``, and to the grading-sign comparison, which is linear.  Each
reduction publishes one set of images, in the coordinates of the crossed
product, divided once at the end; only there do the halves appear as
``Fraction``.

The guard refuses a symmetry in two steps: one that is not a signed
permutation of the basis raises ``BAD_INPUT`` before any cell is read, and
a signed permutation that is not an algebra involution raises
``NOT_INVOLUTION``.  Arrow lifts that do not sandwich to a single arrow
or disagree on their sheet sign raise ``BAD_LIFT``, and a cover
presentation with special loops raises ``BAD_INPUT``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

from .algebra import (
    BasisMap,
    Cell,
    Coeff,
    CornerAlgebra,
    MorphismVerdict,
    PathAlgebra,
    SpanBasis,
    TableAlgebra,
    Vector,
    _left_products,
    _rows_multiplicative,
    corner_algebra,
    graded_path_algebra,
    skew_group_algebra,
    vadd,
    vaxpy,
    veq,
    verify_algebra_involution,
    verify_morphism,
    vscale,
)
from .covering import CoveringData
from .diagnostics import (
    BAD_INPUT,
    BAD_LIFT,
    NOT_INVOLUTION,
    OUTSIDE_CORNER,
    Report,
    error,
    raise_on_error,
)
from .presentations import (
    Presentation,
    algebra_dimension,
    split_vertex_ids,
)

def grading_sign_map(skew: TableAlgebra) -> BasisMap:
    """On a crossed product, scale the group-degree-one part by -1."""
    return BasisMap([{i: -1 if g else 1} for i, (_, g) in enumerate(skew.labels)])


def induced_basis_map(
    alg: PathAlgebra,
    generator_map: Mapping[str, str],
    signs: Optional[Mapping[str, int]] = None,
) -> BasisMap:
    """The linear map induced on a path-algebra quotient by relabelling
    vertices and arrows, optionally scaling each arrow by a sign.

    A relabelled path that is itself a basis path has the normal form
    ``{index: 1}``, read from the index of the basis; only the others go
    through :meth:`~skewgentle.algebra.PathAlgebra.reduce`."""
    index_of = alg.algebra.index_of
    images: list[Vector] = []
    for src, arrows in alg.algebra.labels:
        mapped = (generator_map[src], tuple(generator_map[a] for a in arrows))
        k = index_of.get(mapped)
        image = {k: 1} if k is not None else alg.reduce(mapped)
        if signs is not None:
            for a in arrows:
                image = vscale(image, signs[a])
        images.append(image)
    return BasisMap(images)


def orbit_idempotent(skew: TableAlgebra, vertices: Iterable[str]) -> Vector:
    """Sum of the degree-zero vertex idempotents over the given vertices."""
    out: Vector = {}
    for v in vertices:
        out = vadd(out, skew.element(((v, ()), 0)))
    return out


def _require_involution(A: TableAlgebra, act: BasisMap) -> None:
    if not verify_algebra_involution(A, act):
        raise error(NOT_INVOLUTION, "the symmetry is not an algebra involution")


def _crossed_product(A: TableAlgebra, act: BasisMap) -> TableAlgebra:
    """``A#ℤ₂`` for the involution ``act``: guarded and built once per
    ``(A, act)``, then kept on ``A``.

    An entry is stored only after the guard passes.  It holds ``act``, so
    no other map can take its ``id`` while the entry lives; an action,
    like a table, is not changed once it is crossed."""
    kept = A._crossed.get(id(act))
    if kept is None:
        _require_involution(A, act)
        kept = A._crossed[id(act)] = (act, skew_group_algebra(A, act))
    return kept[1]


def _corner_images(
    corner: CornerAlgebra, pres: Presentation, raw_images: Mapping[str, Vector]
) -> tuple[dict[str, Vector], dict[str, Vector]]:
    """Corner coordinates of the images of the vertices and the arrows."""

    def coords(gen: str) -> Vector:
        out = corner.express(raw_images[gen])
        if out is None:
            raise error(OUTSIDE_CORNER, f"image of {gen!r} left the corner")
        return out

    return (
        {v: coords(v) for v in pres.vertices},
        {a.id: coords(a.id) for a in pres.arrows},
    )


def _crossed_corner(
    A: TableAlgebra, act: BasisMap, vertices: Iterable[str]
) -> tuple[TableAlgebra, CornerAlgebra]:
    """The crossed product ``A#ℤ₂`` and its corner at the degree-zero
    idempotents of ``vertices``, one per orbit."""
    skew = _crossed_product(A, act)
    return skew, corner_algebra(skew, orbit_idempotent(skew, vertices))


def _vertex(skew: TableAlgebra, v: str, g: int) -> Vector:
    return skew.element(((v, ()), g))


def _arrow(skew: TableAlgebra, pres: Presentation, a: str, g: int) -> Vector:
    return skew.element(((pres.arrow_by_id[a].source, (a,)), g))


def _divide(c: Coeff, d: int) -> Coeff:
    """``c / d`` exactly, an ``int`` when it is integral."""
    if type(c) is int and not c % d:
        return c // d
    q = Fraction(c, d)
    return q.numerator if q.denominator == 1 else q


def _compare(
    skew: TableAlgebra,
    corner: CornerAlgebra,
    domain: Presentation,
    doubled: Mapping[str, Vector],
    expected_dim: int,
    symmetry: Mapping[str, str],
) -> tuple[dict[str, Vector], MorphismVerdict, dict[str, bool]]:
    """Check that the generator images define an isomorphism of ``domain``
    onto the corner, and for each generator whether the grading signs of
    ``skew`` send its image to the image of its ``symmetry`` partner.

    ``doubled`` holds ``2·φ(v)`` for each vertex and ``4·φ(a)`` for each
    arrow, in the coordinates of ``skew``.  Returns the images of φ itself
    there, the verdict and the grading-sign dict."""
    vertex_doubled, arrow_doubled = _corner_images(corner, domain, doubled)
    verdict = verify_morphism(
        domain, vertex_doubled, arrow_doubled, corner.algebra,
        expected_dim=expected_dim, scale=2,
    )
    # the grading signs negate the group-degree-one part, indices n and up
    n = skew.dimension // 2
    compat = {
        gen: veq(
            {k: -c if k >= n else c for k, c in img.items()}, doubled[symmetry[gen]]
        )
        for gen, img in doubled.items()
    }
    images = {
        gen: {k: _divide(c, 2 if gen in vertex_doubled else 4) for k, c in img.items()}
        for gen, img in doubled.items()
    }
    return images, verdict, compat


# ---------------------------------------------------------------------------
# Base algebra inside the crossed product of the cover


@dataclass
class SkewGroupReduction:
    """Outcome of comparing the base algebra with a crossed-product corner.

    ``images`` holds the image of each generator of the split presentation
    (``cov.split.presentation``) in the coordinates of ``skew``."""

    cover_pair: Presentation
    cover_algebra: PathAlgebra
    deck_action: BasisMap
    skew: TableAlgebra
    corner: CornerAlgebra
    images: dict[str, Vector]
    survivors: dict[str, tuple[str, int]]
    swap_compat: dict[str, bool]
    verdict: MorphismVerdict


def verify_skew_group_reduction(
    cov: CoveringData, sheet_choice: Optional[Mapping[str, int]] = None
) -> SkewGroupReduction:
    """Map the split presentation of the base into the corner of the
    crossed product upstairs cut out by one idempotent per vertex orbit.

    ``sheet_choice`` picks the preferred lift (+1 or -1) of each ordinary
    base vertex; the default takes sheet +1 everywhere, and any other key
    or value raises ``BAD_INPUT``.  The verdict records whether the
    generator images define an isomorphism.
    """
    triple = cov.base_quiver.presentation
    pair = cov.total_quiver.presentation
    if pair.special:
        vertex = pair.arrow_by_id[min(pair.special)].source
        raise error(
            BAD_INPUT, f"cover presentation has a special loop at {vertex!r}", (vertex,)
        )
    split = cov.split
    special_vertices = split.special_vertices
    sheet_choice = sheet_choice or {}
    report = Report()
    for v, sheet in sheet_choice.items():
        if v not in triple.vertices or v in special_vertices or sheet not in (1, -1):
            report.add(
                BAD_INPUT,
                f"sheet choice {v!r}: {sheet!r} is not a sheet (+1 or -1) of an "
                "ordinary base vertex",
                (v,),
            )
    raise_on_error(report)
    lam = graded_path_algebra(pair)
    deck_action = induced_basis_map(lam, cov.deck_generators)

    chosen_lifts: dict[str, str] = {}
    for v in triple.vertices:
        if v in special_vertices:
            chosen_lifts[v] = v
        else:
            chosen_lifts[v] = cov.arc_image[(v, sheet_choice.get(v, 1))]
    skew, corner = _crossed_corner(lam.algebra, deck_action, chosen_lifts.values())

    doubled: dict[str, Vector] = {}
    for v in triple.vertices:
        lift = chosen_lifts[v]
        if v in special_vertices:
            for eps, sign in enumerate((1, -1)):
                doubled[split_vertex_ids(v)[eps]] = vaxpy(
                    _vertex(skew, lift, 0), _vertex(skew, lift, 1), sign
                )
        else:
            doubled[v] = vscale(_vertex(skew, lift, 0), 2)

    survivors: dict[str, tuple[str, int]] = {}
    for sid, (aid, sdec, tdec) in sorted(split.origin.items()):
        plus, minus = cov.arrow_lifts[(aid, 1)], cov.arrow_lifts[(aid, -1)]
        undecorated = sdec is None and tdec is None
        # Both ends decorated: the +1 lift alone.  Otherwise the sum of the
        # lifts, or their difference at decoration 1, and with no decorated
        # end also their group-degree-one terms.
        middle = _arrow(skew, pair, plus, 0)
        if sdec is None or tdec is None:
            sign = -1 if sdec or tdec else 1
            middle = vadd(middle, vscale(_arrow(skew, pair, minus, 0), sign))
        if undecorated:
            middle = vadd(
                middle,
                vadd(_arrow(skew, pair, plus, 1), _arrow(skew, pair, minus, 1)),
            )
        # between two doubled ends the sandwich is 4·φ(a)
        ends = split.presentation.arrow_by_id[sid]
        img = skew.mul(doubled[ends.target], skew.mul(middle, doubled[ends.source]))
        if undecorated:
            if len(img) != 1:
                raise error(
                    BAD_LIFT, f"sandwich of arrow {aid!r} has {len(img)} terms, not one"
                )
            ((k, c),) = img.items()
            if c != 4:
                raise error(
                    BAD_LIFT,
                    f"sandwich of arrow {aid!r} has coefficient {_divide(c, 4)}, not 1",
                )
            key, g = skew.labels[k]
            survivors[sid] = (key[1][0], g)
        doubled[sid] = img

    images, verdict, swap_compat = _compare(
        skew, corner, split.presentation, doubled, algebra_dimension(cov.base),
        split.swap,
    )
    return SkewGroupReduction(
        cover_pair=pair,
        cover_algebra=lam,
        deck_action=deck_action,
        skew=skew,
        corner=corner,
        images=images,
        survivors=survivors,
        swap_compat=swap_compat,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Cover algebra inside the crossed product of the split algebra


@dataclass
class DualReduction:
    """Outcome of comparing the cover algebra with a corner of the crossed
    product of the split algebra by the half-swap.

    ``images`` holds the image of each generator of the cover presentation
    in the coordinates of ``skew``."""

    split_algebra: PathAlgebra
    swap_action: BasisMap
    skew: TableAlgebra
    corner: CornerAlgebra
    images: dict[str, Vector]
    equivariant: dict[str, bool]
    verdict: MorphismVerdict


def verify_dual_reduction(cov: CoveringData) -> DualReduction:
    """Map the cover presentation into the corner of the crossed product
    of the split algebra of the base, and match the deck action with the
    grading signs upstairs."""
    triple = cov.base_quiver.presentation
    pair = cov.total_quiver.presentation
    split = cov.split
    split_algebra = graded_path_algebra(split.presentation)

    base_of_vertex = {aid: key for key, aid in cov.arc_image.items()}
    lifts = cov.arrow_lifts
    base_of_arrow = {aid: key for key, aid in lifts.items()}
    by_origin = {origin: sid for sid, origin in split.origin.items()}

    # Each base arrow acquires a sign: the product, over the endpoints of
    # either lift, of the endpoint's sheet label (a slit endpoint counts
    # the sheet of the lifted arrow itself, so two slit ends cancel).  On
    # a slit cover every sign is +1; on a twisted cover the -1 signs mark
    # the arrows crossing between the sheets, and the half-swapping
    # symmetry must be scaled by them before crossing with the group, or
    # the cover algebra cannot sit inside the corner.
    sheet_sign: dict[str, int] = {}
    for (aid, parity), lifted in lifts.items():
        a = pair.arrow_by_id[lifted]
        value = 1
        for end in (a.source, a.target):
            value *= parity if end in cov.slit_arcs else base_of_vertex[end][1]
        if sheet_sign.setdefault(aid, value) != value:
            raise error(
                BAD_LIFT, f"sheet sign of {aid!r} differs between the two lifts"
            )
    arrow_sign = {
        sid: sheet_sign[origin[0]] for sid, origin in split.origin.items()
    }

    swap_action = induced_basis_map(split_algebra, split.swap, signs=arrow_sign)
    special_vertices = split.special_vertices
    idem_vertices = [
        split_vertex_ids(v)[0] if v in special_vertices else v for v in triple.vertices
    ]
    skew, corner = _crossed_corner(split_algebra.algebra, swap_action, idem_vertices)

    doubled: dict[str, Vector] = {}
    for v in pair.vertices:
        if v in cov.slit_arcs:
            doubled[v] = vscale(_vertex(skew, split_vertex_ids(v)[0], 0), 2)
        else:
            m, sheet = base_of_vertex[v]
            doubled[v] = vaxpy(_vertex(skew, m, 0), _vertex(skew, m, 1), sheet)
    for a in pair.arrows:
        aid, sheet = base_of_arrow[a.id]
        arrow = triple.arrow_by_id[aid]
        tdec = 0 if arrow.target in special_vertices else None
        # Framing around an ordinary source forces the group twist to be
        # the sheet label of the lifted source; when the source is a slit
        # the signed swap absorbs any mismatch and the lift table's sheet
        # is the right twist.
        if arrow.source in special_vertices:
            first, second = by_origin[(aid, 0, tdec)], by_origin[(aid, 1, tdec)]
        else:
            first = second = by_origin[(aid, None, tdec)]
            sheet = base_of_vertex[a.source][1]
        # the half-sum doubled twice, 4·φ(a)
        first_term = _arrow(skew, split.presentation, first, 0)
        second_term = _arrow(skew, split.presentation, second, 1)
        doubled[a.id] = vscale(vaxpy(first_term, second_term, sheet), 2)

    images, verdict, equivariant = _compare(
        skew, corner, pair, doubled, algebra_dimension(cov.total),
        cov.deck_generators,
    )
    return DualReduction(
        split_algebra=split_algebra,
        swap_action=swap_action,
        skew=skew,
        corner=corner,
        images=images,
        equivariant=equivariant,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Crossing with the group twice


@dataclass(frozen=True)
class IteratedSkewGroup:
    """Outcome of comparing the twice-crossed product ``double`` with
    ``endo = M₂(A)`` through the Cohen--Montgomery map ``comparison``.

    The verdict is reached on the rows of ``once = A#ℤ₂`` alone (see
    :func:`verify_iterated_skew_group`); ``double``, the 4n-dimensional
    ``(A#ℤ₂)#ℤ̂₂``, is crossed from ``once`` with the grading signs on its
    first read and kept."""

    once: TableAlgebra
    endo: TableAlgebra
    comparison: BasisMap
    homomorphism: bool
    unit_ok: bool
    rank: int
    bijective: bool

    @cached_property
    def double(self) -> TableAlgebra:
        return skew_group_algebra(self.once, grading_sign_map(self.once))

    @property
    def ok(self) -> bool:
        return self.homomorphism and self.unit_ok and self.bijective


def _matrix_algebra(A: TableAlgebra) -> TableAlgebra:
    """``M₂(A)``, the right ``A``-module endomorphisms of the free module
    ``A#ℤ₂`` on ``1 ⊗ 0, 1 ⊗ 1``.

    The basis element ``(r, b_p, c)`` is ``E_rc ⊗ b_p``, indexed
    ``2n*r + 2*p + c``, and ``(E_rm ⊗ b_p)(E_mc ⊗ b_q) = E_rc ⊗ b_p b_q``
    with ``b_p b_q`` read from ``A.rows``.
    """
    n = A.dimension
    labels = tuple((r, lab, c) for r in (0, 1) for lab in A.labels for c in (0, 1))
    rows: list[dict[int, Cell]] = []
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


def _generator_rows(once: TableAlgebra) -> Iterator[tuple[Vector, dict[int, Cell]]]:
    """The generators ``(b_i⊗0)⊗0``, ``(1⊗1)⊗0`` and ``(1⊗0)⊗1`` of
    ``(A#ℤ₂)#ℤ̂₂``, each with its row there, read from the rows of
    ``once = A#ℤ₂`` without building the twice-crossed product.

    The index of ``(x⊗g)⊗j`` is ``2n·j + n·g + index(x)``, and
    ``(y⊗0)·(z⊗k) = y·z ⊗ k`` while ``(y⊗1)·(z⊗k) = y·t(z) ⊗ (1+k)``
    with ``t`` the grading signs of ``once``.  Every product in these
    rows is one term, since ``1`` is the unit of ``A``: ``(1⊗0)·z = z``
    and ``(1⊗1)·(b⊗h) = s(b)⊗(1+h)``."""
    m = once.dimension
    n = m // 2

    def both_blocks(cells: dict[int, Cell]) -> dict[int, Cell]:
        row = dict(cells)
        for k, (q, c) in cells.items():
            row[m + k] = (m + q, c)
        return row

    def left_row(x: Vector) -> dict[int, Cell]:
        row = {}
        for k, prod in _left_products(once, x).items():
            ((q, c),) = prod.items()
            row[k] = (q, c)
        return row

    # (b_i⊗0)⊗0: row i of A#ℤ₂, in both blocks
    for i in range(n):
        yield {i: 1}, both_blocks(once.rows[i])
    unit = once.unit
    # (1⊗1)⊗0: Σ_v u_v·(row n+v of A#ℤ₂), in both blocks
    twist = {n + v: u for v, u in unit.items()}
    yield twist, both_blocks(left_row(twist))
    # (1⊗0)⊗1: the unit's row with the grading signs, in the other block
    signed: dict[int, Cell] = {}
    for k, (q, c) in left_row(unit).items():
        if k >= n:
            c = -c
        signed[k], signed[m + k] = (m + q, c), (q, c)
    yield {m + v: u for v, u in unit.items()}, signed


def verify_iterated_skew_group(A: TableAlgebra, act: BasisMap) -> IteratedSkewGroup:
    """Cross ``A`` with its order-two symmetry ``s``, cross again with the
    grading signs, and compare with ``M₂(A)`` (Cohen--Montgomery duality).

    ``M₂(A)`` is built from the product table of ``A`` alone; ``s`` enters
    only through the comparison map
    ``(x ⊗ g) ⊗ j  ↦  Σ_c (-1)^(jc) E_(g+c)c ⊗ s^(g+c)(x)``, which is
    checked to be a unital bijective homomorphism.  For a linear ``s`` of
    order two it is a homomorphism exactly when ``s`` is multiplicative.

    Φ is checked to be multiplicative on the left factors
    ``S = {(b_i⊗0)⊗0} ∪ {(1⊗1)⊗0, (1⊗0)⊗1}`` against every basis element,
    which is enough:

    * ``S`` generates, since ``(b⊗g)⊗j = ((b⊗0)⊗0)·((1⊗g)⊗0)·((1⊗0)⊗j)``;
    * once the involution guard has passed, ``s`` is an automorphism of
      order two, both crossed products and ``M₂(A)`` are associative, and
      ``Φ(xy·z) = Φ(x)·Φ(y·z) = Φ(x)Φ(y)·Φ(z)`` carries the check from
      ``S`` to every product of its elements and so to all of the algebra;
    * with the guard bypassed the rows still test ``s`` itself: the row at
      ``(b_i⊗0)⊗0`` holds ``s(b_i·b_q) = s(b_i)·s(b_q)`` for every ``q``,
      and the row at ``(1⊗1)⊗0`` holds ``s²(b_q) = s(1)·b_q``, so with a
      unital ``s`` this is ``s² = id``.

    The rows of ``S`` are read from the rows of ``A#ℤ₂``, kept on ``A``
    (a reduction on the same pair has built it already), so the
    4n-dimensional product is not built;
    :attr:`IteratedSkewGroup.double` builds it on demand.

    The rank of Φ is read off ``s``.  Φ sends ``(b_p⊗g)⊗j`` to ``u ± v``
    (``+`` for ``j = 0``) with ``u = E_g0 ⊗ s^g(b_p)`` and
    ``v = E_(g+1)1 ⊗ s^(g+1)(b_p)``, the exponent and the row index both
    taken mod 2.  The two signs give ``u`` and ``v`` apart, so the image
    is ``E00⊗A ⊕ E10⊗s(A) ⊕ E11⊗s(A) ⊕ E01⊗A``, of rank
    ``2n + 2·rank(s)``, computed over the ``n`` images of ``s``.
    """
    once = _crossed_product(A, act)
    endo = _matrix_algebra(A)

    images: list[Vector] = []
    for j in (0, 1):
        for lab, g in once.labels:
            p = A.index_of[lab]
            img: Vector = {}
            for c in (0, 1):
                r = (g + c) % 2
                sign = -1 if (j and c) else 1
                for q, v in (act.images[p] if r else {p: 1}).items():
                    img[endo.index_of[(r, A.labels[q], c)]] = sign * v
            images.append(img)
    comparison = BasisMap(images)

    homomorphism = _rows_multiplicative(
        endo, comparison,
        ((comparison.apply(x), row) for x, row in _generator_rows(once)),
    )
    unit_ok = veq(comparison.apply(once.unit), endo.unit)
    span = SpanBasis()
    for img in act.images:
        span.add(img)
    rank = 2 * A.dimension + 2 * span.rank
    bijective = rank == 2 * once.dimension == endo.dimension

    return IteratedSkewGroup(
        once=once,
        endo=endo,
        comparison=comparison,
        homomorphism=homomorphism,
        unit_ok=unit_ok,
        rank=rank,
        bijective=bijective,
    )
