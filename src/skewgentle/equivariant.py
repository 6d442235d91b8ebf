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
  ``(A#ℤ₂)#ℤ̂₂`` with ``M₂(A)``, whose products come from the table of
  ``A`` alone (Cohen--Montgomery duality).  The action enters only through
  the comparison map, which must be a unital homomorphism (it is
  bijective for every signed permutation), so a symmetry that does not
  respect products fails the check.

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

The corner is a :class:`~skewgentle.algebra.CornerAlgebra`, an index set
and no table.  With ``e`` the sum of the chosen vertex idempotents in
degree zero, ``e·(b⊗g)·e`` is ``b⊗g`` when the path ``b`` ends at a
chosen vertex and starts at the image of one under ``s^g``, and 0
otherwise.  So the kept indices are read off the ends of the basis paths
(see :func:`_crossed_corner`), and the morphism check reads the corner's
products from the rows of ``A#ℤ₂``.

Every symmetry is a :class:`~skewgentle.algebra.SignedPermutation`, made
by :func:`induced_basis_map` from a relabelling of the quiver.  There is
one crossed product per ``(A, act)``: the involution guard and ``A#ℤ₂``
run once for each algebra and symmetry, and the result is kept on the
:class:`~skewgentle.algebra.TableAlgebra`, keyed by the symmetry's value.
A reduction followed by :func:`verify_iterated_skew_group` on its cover
algebra and deck action checks the involution once and crosses with it
once.

The iterated check builds neither the 4n-dimensional twice-crossed
product, nor ``M₂(A)``, nor the comparison map Φ.  It checks Φ for
multiplicativity on the left factors ``(g⊗0)⊗0`` for the generators
``g`` of ``A``, ``(1⊗1)⊗0`` and ``(1⊗0)⊗1``, which generate, against the
degree-zero half of the basis.
Every table is monomial and the symmetry is a signed permutation, so by
the block rule ``(E_ab⊗x)(E_cd⊗y) = δ_bc·E_ad⊗xy`` each side of each
comparison is a pair of single cells: ``Φ(x·y)`` read from the rows of
``A#ℤ₂``, ``Φ(x)·Φ(y)`` from the rows of ``A``.  The blocks test
``s(b_g·b_q) = s(b_g)·s(b_q)``, ``s²(b_q) = s(1)·b_q`` and
``s(b_q) = s(1)·s(b_q)``, so a broken symmetry fails also with the guard
bypassed (see :func:`verify_iterated_skew_group`).

All arithmetic is exact, and both comparisons run in ``int``.  The split
idempotents ``(e ± s·e)/2`` carry halves, so each reduction builds its
generator images doubled: every vertex image is ``2·φ(v)`` (``e ± s·e``,
or ``2·e`` for a vertex that is not split) and every arrow image is
``4·φ(a)`` (the sandwich of an arrow between two doubled ends, or its
half-sum doubled once more).  These integral images go, in the
coordinates of the crossed product, to
:func:`~skewgentle.algebra.verify_morphism` with ``scale=2``, and to the
grading-sign comparison, which is linear.  Each reduction keeps these
integral images as ``doubled``; its ``images`` divides them on first read
and keeps the result, and only there do the halves appear as
``Fraction``.  A verdict that never reads ``images`` never divides.

A relabelling that does not send each basis path to ± one basis path,
one to one, raises ``BAD_INPUT`` where the symmetry is made, and so does
a symmetry of the wrong size where it is read; a signed permutation that
is not an algebra involution raises ``NOT_INVOLUTION``.  Arrow lifts
that do not sandwich to a single arrow or disagree on their sheet sign
raise ``BAD_LIFT``, a generator image with a term outside the corner
raises ``OUTSIDE_CORNER``, and a cover presentation with special loops
raises ``BAD_INPUT``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .algebra import (
    Coeff,
    CornerAlgebra,
    MorphismVerdict,
    PathAlgebra,
    SignedPermutation,
    TableAlgebra,
    Vector,
    _left_products,
    graded_path_algebra,
    path_target,
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


def induced_basis_map(
    alg: PathAlgebra,
    generator_map: Mapping[str, str],
    signs: Optional[Mapping[str, int]] = None,
) -> SignedPermutation:
    """The symmetry induced on a path-algebra quotient by relabelling
    vertices and arrows, optionally scaling each arrow by a sign.

    Each basis path goes to the class of its relabelled word.  A path
    ``a·p`` goes to ``σ_p`` times the extension cell of ``b_π(p)`` by the
    image of ``a``, where its prefix ``p``, a basis path, went to
    ``σ_p·b_π(p)`` (ties join only parallel paths).  The vertices and the
    paths whose cell is empty go through
    :meth:`~skewgentle.algebra.PathAlgebra.reduce`, which raises
    ``BAD_INPUT`` for a word that does not compose.  Raises
    ``BAD_INPUT`` when a relabelled basis path reduces to 0 or to more
    than one term, and, through
    :class:`~skewgentle.algebra.SignedPermutation`, when the images are
    not ± a permutation of the basis."""
    index_of, extensions = alg.algebra.index_of, alg.extensions
    pi: list[int] = []
    sigma: list[Coeff] = []
    for src, arrows in alg.algebra.labels:
        m = index_of[(src, arrows[:-1])] if arrows else None
        cell = None if m is None else extensions[pi[m]].get(generator_map[arrows[-1]])
        if cell is None:
            image = alg.reduce((generator_map[src], tuple(generator_map[a] for a in arrows)))
            if len(image) != 1:
                msg = f"basis path {(src, arrows)!r} relabels to {len(image)} terms, not one"
                raise error(BAD_INPUT, msg)
            ((k, s),) = image.items()
        else:
            k, s = cell[0], cell[1] * sigma[m]
            arrows = arrows[-1:]  # the prefix's signs are in σ_p
        if signs is not None:
            for a in arrows:
                s *= signs[a]
        pi.append(k)
        sigma.append(s)
    return SignedPermutation(pi, sigma)


def orbit_idempotent(skew: TableAlgebra, vertices: Iterable[str]) -> Vector:
    """Sum of the degree-zero vertex idempotents over the given vertices."""
    out: Vector = {}
    for v in vertices:
        out = vadd(out, skew.element(((v, ()), 0)))
    return out


def _require_involution(A: TableAlgebra, act: SignedPermutation) -> None:
    if not verify_algebra_involution(A, act):
        raise error(NOT_INVOLUTION, "the symmetry is not an algebra involution")


def _crossed_product(A: TableAlgebra, act: SignedPermutation) -> TableAlgebra:
    """``A#ℤ₂`` for the involution ``act``: guarded and built once per
    ``(A, act)``, then kept on ``A`` under ``act``, which is immutable
    and compares by value.  An entry is stored only after the guard
    passes."""
    skew = A._crossed.get(act)
    if skew is None:
        _require_involution(A, act)
        skew = A._crossed[act] = skew_group_algebra(A, act)
    return skew


def _crossed_corner(
    alg: PathAlgebra, act: SignedPermutation, vertices: Iterable[str]
) -> tuple[TableAlgebra, CornerAlgebra]:
    """The crossed product ``A#ℤ₂`` of ``A = alg.algebra`` and its corner
    at ``e``, the sum of the degree-zero idempotents of ``vertices``, one
    per orbit, as the indices it keeps.

    No product is taken.  ``(e_v⊗0)(b⊗g) = e_v·b⊗g`` and
    ``(b⊗g)(e_w⊗0) = b·s^g(e_w)⊗g``, and once the involution guard has
    passed, ``s`` sends each vertex idempotent to one, ``e_π(w)``, with
    sign +1.  So ``e·(b_i⊗g)·e`` is ``b_i⊗g`` when the path ``b_i`` ends in
    ``V`` and starts in ``π^g(V)``, and 0 otherwise; the corner keeps the
    first kind, read off the ends of each basis path."""
    A, pres = alg.algebra, alg.presentation
    skew = _crossed_product(A, act)
    vertices = tuple(vertices)
    ends = set(vertices)
    index_of, labels = A.index_of, A.labels
    starts = (ends, {labels[act.pi[index_of[(v, ())]]][0] for v in ends})
    n = A.dimension
    indices = tuple(
        g * n + i
        for g in (0, 1)
        for i, key in enumerate(labels)
        if key[0] in starts[g] and path_target(pres, key) in ends
    )
    return skew, CornerAlgebra(skew, orbit_idempotent(skew, vertices), indices)


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


class _HalvedImages:
    """The ``images`` of a reduction: its kept ``doubled`` images of the
    ``domain`` generators, each vertex image divided by 2 and each arrow
    image by 4, on first read."""

    domain: Presentation
    doubled: dict[str, Vector]

    @cached_property
    def images(self) -> dict[str, Vector]:
        vertices = set(self.domain.vertices)
        return {
            gen: {k: _divide(c, 2 if gen in vertices else 4) for k, c in img.items()}
            for gen, img in self.doubled.items()
        }


def _compare(
    skew: TableAlgebra,
    corner: CornerAlgebra,
    domain: Presentation,
    doubled: Mapping[str, Vector],
    expected_dim: int,
    symmetry: Mapping[str, str],
) -> tuple[MorphismVerdict, dict[str, bool]]:
    """Check that the generator images define an isomorphism of ``domain``
    onto the corner, and for each generator whether the grading signs of
    ``skew`` send its image to the image of its ``symmetry`` partner.

    ``doubled`` holds ``2·φ(v)`` for each vertex and ``4·φ(a)`` for each
    arrow, in the coordinates of ``skew``, where the morphism check reads
    them too.  An image with an index outside the corner raises
    ``OUTSIDE_CORNER``.  Returns the verdict and the grading-sign dict."""
    kept = set(corner.indices)
    for gen in (*domain.vertices, *(a.id for a in domain.arrows)):
        if not kept.issuperset(doubled[gen]):
            raise error(OUTSIDE_CORNER, f"image of {gen!r} left the corner")
    verdict = verify_morphism(
        domain, doubled, doubled, corner, expected_dim=expected_dim, scale=2
    )
    # the grading signs negate the group-degree-one part, indices n and up
    n = skew.dimension // 2
    compat = {
        gen: veq(
            {k: -c if k >= n else c for k, c in img.items()}, doubled[symmetry[gen]]
        )
        for gen, img in doubled.items()
    }
    return verdict, compat


# ---------------------------------------------------------------------------
# Base algebra inside the crossed product of the cover


@dataclass
class SkewGroupReduction(_HalvedImages):
    """Outcome of comparing the base algebra with a crossed-product corner.

    ``domain`` is the split presentation (``cov.split.presentation``).
    ``doubled`` holds the checked image of each of its generators in the
    coordinates of ``skew``, ``2·φ(v)`` or ``4·φ(a)``, and ``images`` the
    image ``φ`` itself, divided on first read."""

    cover_pair: Presentation
    cover_algebra: PathAlgebra
    deck_action: SignedPermutation
    skew: TableAlgebra
    corner: CornerAlgebra
    domain: Presentation
    doubled: dict[str, Vector]
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
    skew, corner = _crossed_corner(lam, deck_action, chosen_lifts.values())

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

    verdict, swap_compat = _compare(
        skew, corner, split.presentation, doubled, algebra_dimension(cov.base),
        split.swap,
    )
    return SkewGroupReduction(
        cover_pair=pair,
        cover_algebra=lam,
        deck_action=deck_action,
        skew=skew,
        corner=corner,
        domain=split.presentation,
        doubled=doubled,
        survivors=survivors,
        swap_compat=swap_compat,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Cover algebra inside the crossed product of the split algebra


@dataclass
class DualReduction(_HalvedImages):
    """Outcome of comparing the cover algebra with a corner of the crossed
    product of the split algebra by the half-swap.

    ``domain`` is the cover presentation.  ``doubled`` holds the checked
    image of each of its generators in the coordinates of ``skew``,
    ``2·φ(v)`` or ``4·φ(a)``, and ``images`` the image ``φ`` itself,
    divided on first read."""

    split_algebra: PathAlgebra
    swap_action: SignedPermutation
    skew: TableAlgebra
    corner: CornerAlgebra
    domain: Presentation
    doubled: dict[str, Vector]
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
    skew, corner = _crossed_corner(split_algebra, swap_action, idem_vertices)

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

    verdict, equivariant = _compare(
        skew, corner, pair, doubled, algebra_dimension(cov.total),
        cov.deck_generators,
    )
    return DualReduction(
        split_algebra=split_algebra,
        swap_action=swap_action,
        skew=skew,
        corner=corner,
        domain=pair,
        doubled=doubled,
        equivariant=equivariant,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Crossing with the group twice


@dataclass(frozen=True)
class IteratedSkewGroup:
    """Outcome of comparing the twice-crossed product of ``algebra`` by
    ``action`` with ``M₂(A)`` through the Cohen--Montgomery map.

    The verdict is reached cell by cell on the rows of ``A`` and of
    ``once = A#ℤ₂`` (see :func:`verify_iterated_skew_group`)."""

    algebra: TableAlgebra
    action: SignedPermutation
    once: TableAlgebra
    homomorphism: bool
    unit_ok: bool

    @property
    def ok(self) -> bool:
        return self.homomorphism and self.unit_ok


def _blocks_multiplicative(
    A: TableAlgebra, once: TableAlgebra, act: SignedPermutation, s_unit: Vector
) -> bool:
    """``Φ(x·y) = Φ(x)·Φ(y)`` for every left factor ``x`` in ``S`` and
    every ``y = (b_q⊗g)⊗0``, block by block: ``Φ(x·y)`` from the cells of
    ``once``, ``Φ(x)·Φ(y)`` from the rows of ``A``, for
    ``s(b_p) = σ_p·b_π(p)`` and ``s(1)`` given as ``s_unit``.  See
    :func:`verify_iterated_skew_group` for what each block tests.

    It reads the rows of the generators of ``A``, their images under
    ``π`` and the unit rows.  A product nonzero on the right alone fails
    the count: the matched cells send column ``q`` of row ``i`` one to one
    to column ``π(q)`` of row ``π(i)``, so the two rows hold as many
    cells."""
    n, rows, pi, sigma = A.dimension, A.rows, act.pi, act.sigma
    # (b_i⊗0)⊗0 for a generator b_i against (b_q⊗g)⊗0: row i of ``once``
    # at column n·g + q holds (n·g + k, c) for b_i·b_q = c·b_k; the
    # E_g0/E_(1-g)1 pair of blocks then holds b_i·b_q = c·b_k and
    # σ_iσ_q·b_π(i)·b_π(q) = c·σ_k·b_π(k)
    for i in A.generators:
        cells, row, image, si = once.rows[i], rows[i], rows[pi[i]], sigma[i]
        if len(cells) != 2 * len(row) or len(image) != len(row):
            return False
        for col, (cell_k, c) in cells.items():
            g, q = divmod(col, n)
            h, k = divmod(cell_k, n)
            if (
                h != g
                or row.get(q) != (k, c)
                or image.get(pi[q]) != (pi[k], c * si * sigma[q] * sigma[k])
            ):
                return False
    # (1⊗1)⊗0 and (1⊗0)⊗1 against every column, the zero products too:
    # (1⊗1)·(b_q⊗g) = s(b_q)⊗(1+g) and (1⊗0)·(b_q⊗g) = b_q⊗g in ``once``
    twisted = _left_products(once, {n + v: u for v, u in once.unit.items()})
    plain = _left_products(once, once.unit)
    s_unit_row = _left_products(A, s_unit)
    for q in range(n):
        p, sq = pi[q], sigma[q]
        # s²(b_q) = s(1)·b_q and s(b_q) = s(1)·s(b_q)
        if s_unit_row.get(q) != {pi[p]: sq * sigma[p]} or s_unit_row.get(p) != {p: 1}:
            return False
        for g in (0, 1):
            col = n * g + q
            if twisted.get(col) != {n * (1 - g) + p: sq} or plain.get(col) != {col: 1}:
                return False
    return True


def verify_iterated_skew_group(
    A: TableAlgebra, act: SignedPermutation
) -> IteratedSkewGroup:
    """Cross ``A`` with its order-two symmetry ``s``, cross again with the
    grading signs, and compare with ``M₂(A)`` (Cohen--Montgomery duality).

    ``s`` enters only through the comparison map
    ``Φ: (x ⊗ g) ⊗ j  ↦  Σ_c (-1)^(jc) E_(g+c)c ⊗ s^(g+c)(x)``, which is
    checked to be a unital homomorphism.  For a linear ``s`` of order two
    it is a homomorphism exactly when ``s`` is multiplicative.  Φ is
    bijective for every signed permutation: it sends ``(b_p⊗g)⊗j`` to
    ``u ± v`` with ``u = E_g0 ⊗ s^g(b_p)`` and
    ``v = E_(g+1)1 ⊗ s^(g+1)(b_p)``, and ``s`` is onto, so the images
    span ``M₂(A)``, of the same dimension ``4n``.
    The check builds neither ``M₂(A)``, nor Φ, nor the twice-crossed
    product: every table is monomial and ``s`` is the signed permutation
    ``s(b_p) = σ_p·b_π(p)``, so each side of each comparison is a pair of
    single cells, read from the rows of ``A`` through the block rule
    ``(E_ab⊗x)(E_cd⊗y) = δ_bc·E_ad⊗xy``, and from the rows of
    ``once = A#ℤ₂``, kept on ``A`` (a reduction on the same pair has built
    it already).

    Φ is checked to be multiplicative on the left factors
    ``S = {(g⊗0)⊗0} ∪ {(1⊗1)⊗0, (1⊗0)⊗1}``, for ``g`` in
    ``A.generators`` (the vertices and arrows of a path algebra, every
    basis element of another table), which is enough:

    * ``S`` generates, since ``(b⊗g)⊗j = ((b⊗0)⊗0)·((1⊗g)⊗0)·((1⊗0)⊗j)``
      and each ``(b⊗0)⊗0`` is a product of the ``(g⊗0)⊗0``;
    * once the involution guard has passed, ``s`` is an automorphism of
      order two, both crossed products and ``M₂(A)`` are associative, and
      ``Φ(xy·z) = Φ(x)·Φ(y·z) = Φ(x)Φ(y)·Φ(z)`` carries the check from
      ``S`` to every product of its elements and so to all of the algebra.

    The right factors are only the degree-zero half ``y = (b_q⊗g)⊗0``,
    since the outer degree-one columns carry the same sign on both sides.
    Right multiplication by ``D = E_00⊗1 - E_11⊗1`` scales the
    column-``c`` block by ``(-1)^c``, and by the definition of Φ,
    ``Φ(w⊗(j+1)) = Φ(w⊗j)·D`` for every ``w`` in ``A#ℤ₂``.  By the
    product rule of the second crossing, ``x·(z⊗1)`` is ``x·(z⊗0)`` with
    its outer degree raised by one, so ``Φ(x·(z⊗1)) = Φ(x·(z⊗0))·D`` and
    ``Φ(x)·Φ(z⊗1) = Φ(x)·Φ(z⊗0)·D``: on both sides the column of outer
    degree ``k`` is the degree-zero column with its block ``c`` scaled by
    ``(-1)^(kc)``, and ``D`` is invertible, so the degree-one comparison
    holds exactly when the degree-zero one does.

    Per left factor, against ``y = (b_q⊗g)⊗0``, the blocks test:

    * ``(g⊗0)⊗0``, with ``Φ = E_00⊗b_g + E_11⊗s(b_g)``: its ``E_0·``
      block tests ``b_g·b_q`` against row ``g`` of ``A``, and its ``E_1·``
      block ``s(b_g·b_q) = σ_gσ_q·b_π(g)·b_π(q)`` against row ``π(g)``;
    * ``(1⊗1)⊗0``, with ``Φ = E_10⊗s(1) + E_01⊗1``: the product in
      ``once`` must be ``s(b_q)⊗(1+g)``, and then the other block tests
      ``s²(b_q) = s(1)·b_q``, so with a unital ``s`` this is ``s² = id``;
    * ``(1⊗0)⊗1``, with ``Φ = E_00⊗1 - E_11⊗s(1)``: the product in
      ``once`` must be ``b_q⊗g``, and then the ``E_1·`` block tests
      ``s(b_q) = s(1)·s(b_q)``.

    With the guard bypassed these still test ``s`` itself: the first kind
    is ``s(b_g·b_q) = s(b_g)·s(b_q)`` for every generator and every ``q``,
    a product present on one side only failing (see
    :func:`_blocks_multiplicative`), which by the induction of
    :func:`~skewgentle.algebra.verify_algebra_involution` holds exactly
    when ``s`` is multiplicative; the unit factors are nonzero on the
    right at every column and are compared there.  The unit check
    ``Φ(1) = E_00⊗1 + E_11⊗s(1) = 1`` is ``s(1) = 1``.
    """
    once = _crossed_product(A, act)
    s_unit = act.apply(A.unit)
    return IteratedSkewGroup(
        algebra=A,
        action=act,
        once=once,
        homomorphism=_blocks_multiplicative(A, once, act, s_unit),
        unit_ok=veq(s_unit, A.unit),
    )
