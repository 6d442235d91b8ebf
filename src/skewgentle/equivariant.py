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
* :func:`verify_iterated_skew_group` crosses with the group twice and
  compares the result with ``M₂(A)``, built from the product table of
  ``A`` alone (Cohen--Montgomery duality).  The action enters only through
  the comparison map, which must be a unital bijective homomorphism, so a
  symmetry that does not respect products fails the check.  Its
  ``equivariant`` part holds by the index layout of that map.

Both reductions read one set of cover stages, computed once and kept on the
:class:`~skewgentle.covering.CoveringData`: the quivers of the base and the
total surface, the split presentation with its arrow table, half-swap and
special vertices, the arrow lifts and the deck action on generators.  The dimension each comparison expects is read off the
dissection by the closed form of the polygon model of
Opper--Plamondon--Schroll (:func:`~skewgentle.presentations.algebra_dimension`),
so no algebra is built only to be measured.

All arithmetic is exact; the maps of both reductions are given on
generators and checked by :func:`~skewgentle.algebra.verify_morphism`.  A symmetry that is
not an algebra involution raises ``NOT_INVOLUTION``, and arrow lifts
that do not sandwich to a single arrow or disagree on their sheet sign
raise ``BAD_LIFT``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .algebra import (
    BasisMap,
    CornerAlgebra,
    MorphismVerdict,
    PathAlgebra,
    SpanBasis,
    TableAlgebra,
    Vector,
    corner_algebra,
    graded_path_algebra,
    skew_group_algebra,
    vadd,
    vec,
    veq,
    verify_algebra_involution,
    verify_morphism,
    verify_multiplicative,
    vscale,
)
from .covering import CoveringData
from .diagnostics import (
    BAD_LIFT,
    NOT_INVOLUTION,
    OUTSIDE_CORNER,
    error,
)
from .presentations import (
    Presentation,
    algebra_dimension,
    split_vertex_ids,
)

HALF = Fraction(1, 2)


def grading_sign_map(skew: TableAlgebra) -> BasisMap:
    """On a crossed product, scale the group-degree-one part by -1."""
    images = []
    for i, (_, g) in enumerate(skew.labels):
        images.append(vec((i, -1 if g else 1)))
    return BasisMap(images)


def induced_basis_map(
    alg: PathAlgebra,
    generator_map: Mapping[str, str],
    signs: Optional[Mapping[str, int]] = None,
) -> BasisMap:
    """The linear map induced on a path-algebra quotient by relabelling
    vertices and arrows, optionally scaling each arrow by a sign."""
    images: list[Vector] = []
    for src, arrows in alg.algebra.labels:
        mapped = (generator_map[src], tuple(generator_map[a] for a in arrows))
        image = alg.reduce(mapped)
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


# ---------------------------------------------------------------------------
# Base algebra inside the crossed product of the cover


@dataclass
class SkewGroupReduction:
    """Outcome of comparing the base algebra with a crossed-product corner."""

    triple: Presentation
    split: Presentation
    cover_pair: Presentation
    cover_algebra: PathAlgebra
    deck_action: BasisMap
    skew: TableAlgebra
    corner: CornerAlgebra
    chosen_lifts: dict[str, str]
    vertex_images: dict[str, Vector]
    arrow_images: dict[str, Vector]
    raw_images: dict[str, Vector]
    survivors: dict[str, tuple[str, int]]
    swap_compat: dict[str, bool]
    verdict: MorphismVerdict


def verify_skew_group_reduction(
    cov: CoveringData, sheet_choice: Optional[Mapping[str, int]] = None
) -> SkewGroupReduction:
    """Map the split presentation of the base into the corner of the
    crossed product upstairs cut out by one idempotent per vertex orbit.

    ``sheet_choice`` picks the preferred lift (+1 or -1) of each ordinary
    base vertex; the default takes sheet +1 everywhere.  The verdict
    records whether the generator images define an isomorphism.
    """
    triple = cov.base_quiver.presentation
    pair = cov.total_quiver.presentation
    assert not pair.special, "cover presentation has special loops"
    split = cov.split
    lam = graded_path_algebra(pair)

    deck_action = induced_basis_map(lam, cov.deck_generators)
    _require_involution(lam.algebra, deck_action)
    skew = skew_group_algebra(lam.algebra, deck_action)

    special_vertices = cov.special_vertices
    chosen_lifts: dict[str, str] = {}
    for v in triple.vertices:
        if v in special_vertices:
            chosen_lifts[v] = cov.slit_image[v]
        else:
            sheet = sheet_choice.get(v, 1) if sheet_choice else 1
            chosen_lifts[v] = cov.arc_image[(v, sheet)][0]
    idem = orbit_idempotent(skew, chosen_lifts.values())
    corner = corner_algebra(skew, idem)

    def vert(total_vertex: str, g: int = 0) -> Vector:
        return skew.element(((total_vertex, ()), g))

    def arr(total_arrow: str, g: int = 0) -> Vector:
        src = pair.arrow_by_id[total_arrow].source
        return skew.element(((src, (total_arrow,)), g))

    lifts = cov.arrow_lifts

    raw_images: dict[str, Vector] = {}
    for v in triple.vertices:
        if v in special_vertices:
            jt = chosen_lifts[v]
            for eps in (0, 1):
                sign = 1 if eps == 0 else -1
                raw_images[split_vertex_ids(v)[eps]] = vadd(
                    vscale(vert(jt, 0), HALF), vscale(vert(jt, 1), sign * HALF)
                )
        else:
            raw_images[v] = vert(chosen_lifts[v], 0)

    survivors: dict[str, tuple[str, int]] = {}
    for sid, (aid, sdec, tdec) in sorted(cov.split_table.items()):
        arrow = triple.arrow_by_id[aid]
        i, j = arrow.source, arrow.target
        plus, minus = lifts[(aid, 1)], lifts[(aid, -1)]
        if sdec is None and tdec is None:
            middle = vadd(
                vadd(arr(plus, 0), arr(minus, 0)),
                vadd(arr(plus, 1), arr(minus, 1)),
            )
            img = skew.mul(raw_images[j], skew.mul(middle, raw_images[i]))
            if len(img) != 1:
                raise error(
                    BAD_LIFT, f"sandwich of arrow {aid!r} has {len(img)} terms, not one"
                )
            ((k, c),) = img.items()
            if c != 1:
                raise error(
                    BAD_LIFT, f"sandwich of arrow {aid!r} has coefficient {c}, not 1"
                )
            key, g = skew.labels[k]
            survivors[sid] = (key[1][0], g)
        elif sdec is not None and tdec is None:
            sign = 1 if sdec == 0 else -1
            middle = vadd(arr(plus, 0), vscale(arr(minus, 0), sign))
            img = skew.mul(
                raw_images[j],
                skew.mul(middle, raw_images[split_vertex_ids(i)[sdec]]),
            )
        elif sdec is None and tdec is not None:
            sign = 1 if tdec == 0 else -1
            middle = vadd(arr(plus, 0), vscale(arr(minus, 0), sign))
            img = skew.mul(
                raw_images[split_vertex_ids(j)[tdec]],
                skew.mul(middle, raw_images[i]),
            )
        else:
            img = skew.mul(
                raw_images[split_vertex_ids(j)[tdec]],
                skew.mul(arr(plus, 0), raw_images[split_vertex_ids(i)[sdec]]),
            )
        raw_images[sid] = img

    vertex_images, arrow_images = _corner_images(corner, split, raw_images)
    verdict = verify_morphism(
        split,
        vertex_images,
        arrow_images,
        corner.algebra,
        expected_dim=algebra_dimension(cov.base),
    )

    swap = cov.split_swap
    twist = grading_sign_map(skew)
    swap_compat = {
        gen: veq(twist.apply(raw), raw_images[swap[gen]])
        for gen, raw in raw_images.items()
    }

    return SkewGroupReduction(
        triple=triple,
        split=split,
        cover_pair=pair,
        cover_algebra=lam,
        deck_action=deck_action,
        skew=skew,
        corner=corner,
        chosen_lifts=chosen_lifts,
        vertex_images=vertex_images,
        arrow_images=arrow_images,
        raw_images=raw_images,
        survivors=survivors,
        swap_compat=swap_compat,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Cover algebra inside the crossed product of the split algebra


@dataclass
class DualReduction:
    """Outcome of comparing the cover algebra with a corner of the crossed
    product of the split algebra by the half-swap."""

    split: Presentation
    split_algebra: PathAlgebra
    swap_action: BasisMap
    skew: TableAlgebra
    corner: CornerAlgebra
    vertex_images: dict[str, Vector]
    arrow_images: dict[str, Vector]
    raw_images: dict[str, Vector]
    equivariant: dict[str, bool]
    verdict: MorphismVerdict


def verify_dual_reduction(cov: CoveringData) -> DualReduction:
    """Map the cover presentation into the corner of the crossed product
    of the split algebra of the base, and match the deck action with the
    grading signs upstairs."""
    triple = cov.base_quiver.presentation
    pair = cov.total_quiver.presentation
    split = cov.split
    split_algebra = graded_path_algebra(split)

    slit_of_lift = {v: j for j, v in cov.slit_image.items()}
    base_of_vertex = {
        aid: (m, sheet) for (m, sheet), (aid, _) in cov.arc_image.items()
    }
    lifts = cov.arrow_lifts
    base_of_arrow = {aid: key for key, aid in lifts.items()}
    split_table = cov.split_table
    by_origin = {origin: sid for sid, origin in split_table.items()}

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
            value *= parity if end in slit_of_lift else base_of_vertex[end][1]
        if sheet_sign.setdefault(aid, value) != value:
            raise error(
                BAD_LIFT, f"sheet sign of {aid!r} differs between the two lifts"
            )
    arrow_sign = {
        sid: sheet_sign[origin[0]] for sid, origin in split_table.items()
    }

    swap_action = induced_basis_map(
        split_algebra, cov.split_swap, signs=arrow_sign
    )
    _require_involution(split_algebra.algebra, swap_action)
    skew = skew_group_algebra(split_algebra.algebra, swap_action)

    special_vertices = cov.special_vertices
    idem_vertices = [
        split_vertex_ids(v)[0] if v in special_vertices else v
        for v in triple.vertices
    ]
    idem = orbit_idempotent(skew, idem_vertices)
    corner = corner_algebra(skew, idem)

    def vert(split_vertex: str, g: int = 0) -> Vector:
        return skew.element(((split_vertex, ()), g))

    def arr(split_arrow: str, g: int = 0) -> Vector:
        src = split.arrow_by_id[split_arrow].source
        return skew.element(((src, (split_arrow,)), g))

    raw_images: dict[str, Vector] = {}
    for v in pair.vertices:
        if v in slit_of_lift:
            raw_images[v] = vert(split_vertex_ids(slit_of_lift[v])[0], 0)
        else:
            m, sheet = base_of_vertex[v]
            raw_images[v] = vadd(
                vscale(vert(m, 0), HALF), vscale(vert(m, 1), sheet * HALF)
            )
    for a in pair.arrows:
        aid, sheet = base_of_arrow[a.id]
        arrow = triple.arrow_by_id[aid]
        src_special = arrow.source in special_vertices
        tgt_special = arrow.target in special_vertices
        # Framing around an ordinary source forces the group twist to be
        # the sheet label of the lifted source; when the source is a slit
        # the signed swap absorbs any mismatch and the lift table's sheet
        # is the right twist.
        if src_special:
            s = sheet
        else:
            s = base_of_vertex[a.source][1]
        if not src_special and not tgt_special:
            first = second = by_origin[(aid, None, None)]
        elif not src_special and tgt_special:
            first = second = by_origin[(aid, None, 0)]
        elif src_special and not tgt_special:
            first, second = by_origin[(aid, 0, None)], by_origin[(aid, 1, None)]
        else:
            first, second = by_origin[(aid, 0, 0)], by_origin[(aid, 1, 0)]
        raw_images[a.id] = vadd(
            vscale(arr(first, 0), HALF), vscale(arr(second, 1), s * HALF)
        )

    vertex_images, arrow_images = _corner_images(corner, pair, raw_images)
    verdict = verify_morphism(
        pair,
        vertex_images,
        arrow_images,
        corner.algebra,
        expected_dim=algebra_dimension(cov.total),
    )

    gen_map = cov.deck_generators
    twist = grading_sign_map(skew)
    equivariant = {
        gen: veq(raw_images[gen_map[gen]], twist.apply(raw))
        for gen, raw in raw_images.items()
    }

    return DualReduction(
        split=split,
        split_algebra=split_algebra,
        swap_action=swap_action,
        skew=skew,
        corner=corner,
        vertex_images=vertex_images,
        arrow_images=arrow_images,
        raw_images=raw_images,
        equivariant=equivariant,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Crossing with the group twice


@dataclass(frozen=True)
class IteratedSkewGroup:
    """Outcome of comparing the twice-crossed product ``double`` with
    ``endo = M₂(A)`` through the Cohen--Montgomery map ``comparison``."""

    double: TableAlgebra
    endo: TableAlgebra
    comparison: BasisMap
    homomorphism: bool
    unit_ok: bool
    rank: int
    bijective: bool
    equivariant: bool

    @property
    def ok(self) -> bool:
        return (
            self.homomorphism and self.unit_ok and self.bijective and self.equivariant
        )


def _matrix_algebra(A: TableAlgebra) -> TableAlgebra:
    """``M₂(A)``, the right ``A``-module endomorphisms of the free module
    ``A#ℤ₂`` on ``1 ⊗ 0, 1 ⊗ 1``.

    The basis element ``(r, b_p, c)`` is ``E_rc ⊗ b_p``, indexed
    ``2n*r + 2*p + c``, and ``(E_rm ⊗ b_p)(E_mc ⊗ b_q) = E_rc ⊗ b_p b_q``
    with ``b_p b_q`` read from ``A.table``.
    """
    n = A.dimension
    labels = tuple((r, lab, c) for r in (0, 1) for lab in A.labels for c in (0, 1))
    empty: Vector = {}
    table: list[list[Vector]] = []
    nonzero: list[list[int]] = []
    for r in (0, 1):
        for row, columns in zip(A.table, A.nonzero):
            # the rows of E_r0 ⊗ b_p and E_r1 ⊗ b_p hold the same cells, in
            # the column blocks m = 0 and m = 1
            cells = [
                (2 * q + c, {2 * n * r + 2 * k + c: v for k, v in row[q].items()})
                for q in columns
                for c in (0, 1)
            ]
            for m in (0, 1):
                out = [empty] * len(labels)
                for col, cell in cells:
                    out[2 * n * m + col] = cell
                table.append(out)
                nonzero.append([2 * n * m + col for col, _ in cells])
    unit = {2 * n * r + 2 * q + r: v for r in (0, 1) for q, v in A.unit.items()}
    return TableAlgebra(labels, table, unit, nonzero)


def verify_iterated_skew_group(A: TableAlgebra, act: BasisMap) -> IteratedSkewGroup:
    """Cross ``A`` with its order-two symmetry ``s``, cross again with the
    grading signs, and compare with ``M₂(A)`` (Cohen--Montgomery duality).

    ``M₂(A)`` is built from the product table of ``A`` alone; ``s`` enters
    only through the comparison map
    ``(x ⊗ g) ⊗ j  ↦  Σ_c (-1)^(jc) E_(g+c)c ⊗ s^(g+c)(x)``, which is
    checked to be a unital bijective homomorphism intertwining the residual
    symmetries on both sides.  For a linear ``s`` of order two it is a
    homomorphism exactly when ``s`` is multiplicative.
    """
    _require_involution(A, act)
    once = skew_group_algebra(A, act)
    double = skew_group_algebra(once, grading_sign_map(once))
    endo = _matrix_algebra(A)

    images: list[Vector] = []
    for (lab, g), j in double.labels:
        p = A.index_of[lab]
        img: Vector = {}
        for c in (0, 1):
            r = (g + c) % 2
            sign = -1 if (j and c) else 1
            for q, v in (act.images[p] if r else {p: 1}).items():
                img[endo.index_of[(r, A.labels[q], c)]] = sign * v
        images.append(img)
    comparison = BasisMap(images)

    n = double.dimension
    homomorphism = verify_multiplicative(double, endo, comparison)
    unit_ok = veq(comparison.apply(double.unit), endo.unit)

    span = SpanBasis()
    rank = 0
    for img in images:
        if span.add(img):
            rank += 1
    bijective = rank == n == endo.dimension

    # Image of the unit placed in group-degree (0, 1); conjugating by it
    # realises the residual symmetry on the matrix side.
    unit_degree_one: Vector = {
        double.index_of[((A.labels[q], 0), 1)]: c for q, c in A.unit.items()
    }
    conj = comparison.apply(unit_degree_one)
    equivariant = True
    for i, ((_, g), _) in enumerate(double.labels):
        lhs = vscale(images[i], -1 if g else 1)
        rhs = endo.mul(endo.mul(conj, images[i]), conj)
        if not veq(lhs, rhs):
            equivariant = False
            break

    return IteratedSkewGroup(
        double=double,
        endo=endo,
        comparison=comparison,
        homomorphism=homomorphism,
        unit_ok=unit_ok,
        rank=rank,
        bijective=bijective,
        equivariant=equivariant,
    )
