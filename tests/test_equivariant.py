from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from oracles import (
    CountedReads,
    SpanBasis,
    algebra_from_products,
    apply_map,
    associative,
    basis_map_from_permutation,
    blocks_all_rows,
    cohen_montgomery_image,
    comparison_images,
    corner_algebra,
    corner_dimension,
    crossed_rows,
    element,
    generates,
    images_of,
    index_of,
    involution_all_cells,
    matrix_algebra,
    matrix_table,
    multiplicative,
    path_target,
    twice_crossed,
    twist_compat,
    verify_multiplicative,
    word_rows,
)
import skewgentle
from skewgentle import (
    Arrow,
    CornerAlgebra,
    SignedPermutation,
    SurfaceFile,
    TableAlgebra,
    ValidationError,
    double_cover,
    format_surface_file,
    graded_path_algebra,
    make_presentation,
    one_orbifold_disc,
    parse_surface_file,
    quotient,
    random_triple,
    skew_group_algebra,
    surface_from_triple,
    triple_from_x_dissection,
    two_hole_torus_surface,
    validate,
    verify_algebra_involution,
    verify_deformation_map,
    verify_dual_reduction,
    verify_iterated_skew_group,
    verify_morphism,
    verify_skew_group_reduction,
)
from skewgentle import algebra as algebra_module
from skewgentle import equivariant
from skewgentle.cli import main
from skewgentle.diagnostics import BAD_INPUT

ONE = Fraction(1)


def _bypass_guard(mp) -> None:
    """Let ``skew_group_algebra`` cross any signed permutation of the right
    size: its one guard, ``verify_algebra_involution``, passes everything."""
    mp.setattr(algebra_module, "verify_algebra_involution", lambda A, act: True)


def _record_tables(mp, built: list) -> None:
    """Append every ``TableAlgebra`` constructed from now on to ``built``."""
    init = TableAlgebra.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    mp.setattr(TableAlgebra, "__init__", record)


def _canonical_reductions(cylinders, disc_x4, disc_xx):
    surfaces = list(cylinders.values()) + [disc_x4, disc_xx]
    return [(s, verify_skew_group_reduction(double_cover(s))) for s in surfaces]


def test_crossed_product_doubles_cover_dimension(cylinders, disc_x4):
    for surface in (cylinders[1], disc_x4):
        red = verify_skew_group_reduction(double_cover(surface))
        assert red.skew.dimension == 2 * red.cover_algebra.dimension


def test_cylinder_reduction_dimensions(cylinders):
    red = verify_skew_group_reduction(double_cover(cylinders[1]))
    assert red.cover_algebra.dimension == 20
    assert red.skew.dimension == 40
    assert red.corner.dimension == 20


def test_disc_reduction_dimensions(disc_x4):
    red = verify_skew_group_reduction(double_cover(disc_x4))
    assert red.cover_algebra.dimension == 19
    assert red.skew.dimension == 38
    assert red.corner.dimension == 14


def test_smaller_disc_corner_dimension():
    red = verify_skew_group_reduction(double_cover(one_orbifold_disc(3)))
    assert red.corner.dimension == 9
    assert red.verdict.is_isomorphism


def test_corner_matches_base_algebra_dimension(cylinders, disc_x4, disc_xx):
    for surface, red in _canonical_reductions(cylinders, disc_x4, disc_xx):
        base_dim = graded_path_algebra(triple_from_x_dissection(surface)).dimension
        assert red.corner.dimension == base_dim


def test_split_into_corner_is_isomorphism_on_fixtures(cylinders, disc_x4, disc_xx):
    for _, red in _canonical_reductions(cylinders, disc_x4, disc_xx):
        assert red.verdict.is_homomorphism
        assert red.verdict.is_surjective
        assert red.verdict.is_isomorphism
        assert red.verdict.failures == ()


def test_slit_covers_admit_swap_compatible_lifts(cylinders, disc_x4, disc_xx):
    for _, red in _canonical_reductions(cylinders, disc_x4, disc_xx):
        assert all(red.swap_compat.values())


def test_twisted_cover_reduction_is_isomorphism(torus_with_involution):
    surface, inv = torus_with_involution
    red = verify_skew_group_reduction(quotient(surface, inv))
    assert red.cover_algebra.dimension == 20
    assert red.skew.dimension == 40
    assert red.corner.dimension == 20
    assert red.verdict.is_isomorphism


def test_twisted_cover_reduction_for_every_sheet_choice(torus_with_involution):
    surface, inv = torus_with_involution
    q = quotient(surface, inv)
    triple = q.base_quiver.presentation
    special_vertices = {triple.arrow_by_id[e].source for e in triple.special}
    ordinary = [v for v in triple.vertices if v not in special_vertices]
    assert len(ordinary) == 2
    for s0 in (1, -1):
        for s1 in (1, -1):
            red = verify_skew_group_reduction(
                q, {ordinary[0]: s0, ordinary[1]: s1}
            )
            assert red.verdict.is_isomorphism


def test_sheet_choice_names_every_bad_key_and_value(cylinder_covers):
    cov = cylinder_covers[1]
    triple = cov.base_quiver.presentation
    special = next(v for v in triple.vertices if v in cov.split.special_vertices)
    ordinary = [v for v in triple.vertices if v not in cov.split.special_vertices]
    for choice, bad in (
        ({ordinary[0]: 0}, {ordinary[0]: 0}),
        (
            {ordinary[0]: 1, special: 1, "nowhere": -1, ordinary[-1]: 2},
            {special: 1, "nowhere": -1, ordinary[-1]: 2},
        ),
    ):
        with pytest.raises(ValidationError) as exc:
            verify_skew_group_reduction(cov, choice)
        assert [(d.code, d.where, d.message) for d in exc.value.diagnostics] == [
            (
                BAD_INPUT,
                (v,),
                f"sheet choice {v!r}: {sheet!r} is not a sheet (+1 or -1) of an "
                "ordinary base vertex",
            )
            for v, sheet in bad.items()
        ]


def test_twisted_cover_has_swap_incompatible_lifts(torus_with_involution):
    surface, inv = torus_with_involution
    red = verify_skew_group_reduction(quotient(surface, inv))
    assert not all(red.swap_compat.values())


def _assert_twists_match_oracle(cov):
    """Both grading-sign dicts equal the oracle's, generator by generator."""
    red = verify_skew_group_reduction(cov)
    dual = verify_dual_reduction(cov)
    assert red.swap_compat == twist_compat(
        red.skew.labels, red.images, cov.split.swap
    )
    assert dual.equivariant == twist_compat(
        dual.skew.labels, dual.images, cov.deck_generators
    )
    return red


def test_grading_signs_match_oracle_on_fixtures(cylinder_covers, disc_xx):
    for cov in cylinder_covers.values():
        _assert_twists_match_oracle(cov)
    _assert_twists_match_oracle(double_cover(disc_xx))
    red = _assert_twists_match_oracle(quotient(*two_hole_torus_surface()))
    assert not all(red.swap_compat.values())


def test_grading_signs_match_oracle_on_random_covers():
    rng = random.Random(6607)
    for _ in range(20):
        cov = double_cover(surface_from_triple(random_triple(rng)))
        _assert_twists_match_oracle(cov)


def test_cover_into_dual_corner_is_equivariant_isomorphism(
    cylinders, disc_x4, disc_xx
):
    for surface in list(cylinders.values()) + [disc_x4, disc_xx]:
        dual = verify_dual_reduction(double_cover(surface))
        assert dual.skew.dimension == 2 * dual.split_algebra.dimension
        assert dual.verdict.is_isomorphism
        assert dual.equivariant and all(dual.equivariant.values())


def test_double_crossed_product_is_matrix_algebra(cylinders):
    red = verify_skew_group_reduction(double_cover(cylinders[1]))
    rr = verify_iterated_skew_group(red.cover_algebra.algebra, red.deck_action)
    assert twice_crossed(rr.once).dimension == 4 * red.cover_algebra.dimension == 80
    assert matrix_algebra(rr.algebra).dimension == 80
    assert rr.homomorphism
    assert rr.unit_ok
    assert rr.ok


def test_double_crossed_product_on_trivial_algebra():
    k = algebra_from_products(["e"], lambda a, b: {"e": ONE}, {"e": ONE})
    ident = basis_map_from_permutation(k, {"e": "e"})
    rr = verify_iterated_skew_group(k, ident)
    assert twice_crossed(rr.once).dimension == 4
    assert rr.ok


def test_double_crossed_product_on_swapped_pair():
    A = algebra_from_products(
        ["p", "q"],
        lambda a, b: {a: ONE} if a == b else {},
        {"p": ONE, "q": ONE},
    )
    swap = basis_map_from_permutation(A, {"p": "q", "q": "p"})
    rr = verify_iterated_skew_group(A, swap)
    assert twice_crossed(rr.once).dimension == 8
    assert rr.ok


def test_double_crossed_product_rejects_non_involution():
    k = algebra_from_products(["e"], lambda a, b: {"e": ONE}, {"e": ONE})
    neg = basis_map_from_permutation(k, {"e": "e"}, signs={"e": -1})
    with pytest.raises(ValidationError) as exc:
        verify_iterated_skew_group(k, neg)
    assert [d.code for d in exc.value.diagnostics] == ["NOT_INVOLUTION"]
    assert k._crossed == {}


def _cover_algebra_and_deck(cov):
    """A fresh cover algebra, which no reduction has crossed, and its deck
    action."""
    lam = graded_path_algebra(cov.total_quiver.presentation)
    return lam.algebra, equivariant.induced_basis_map(lam, cov.deck_generators)


def test_iterated_homomorphism_check_rejects_corrupted_action(monkeypatch, cylinders):
    # An algebra no reduction has crossed, so that the iterated check builds
    # the once-crossed product itself.
    A, deck = _cover_algebra_and_deck(double_cover(cylinders[1]))
    # Build the once-crossed product from a corrupted action (two arrows
    # of different sources swapped) while the comparison map keeps the
    # deck action: the two no longer agree on products.
    perm = {lab: lab for lab in A.labels}
    a, b = [lab for lab in A.labels if len(lab[1]) == 1][:2]
    perm[a], perm[b] = b, a
    corrupted = basis_map_from_permutation(A, perm)
    crossed = equivariant.skew_group_algebra

    def crossed_with_corrupted(B, act):
        return crossed(B, corrupted if B is A else act)

    monkeypatch.setattr(equivariant, "skew_group_algebra", crossed_with_corrupted)
    _bypass_guard(monkeypatch)
    rr = verify_iterated_skew_group(A, deck)
    assert not rr.homomorphism
    assert not rr.ok


def _swap_two_arrows(A):
    """A linear involution of ``A`` that swaps two arrows with different
    sources and fixes every other basis element: not multiplicative."""
    perm = {lab: lab for lab in A.labels}
    arrows = [lab for lab in A.labels if len(lab[1]) == 1]
    a = arrows[0]
    b = next(lab for lab in arrows if lab[0] != a[0])
    perm[a], perm[b] = b, a
    return basis_map_from_permutation(A, perm)


def test_iterated_check_rejects_a_non_multiplicative_action(monkeypatch, cylinders):
    red = verify_skew_group_reduction(double_cover(cylinders[1]))
    A = red.cover_algebra.algebra
    _bypass_guard(monkeypatch)
    rr = verify_iterated_skew_group(A, _swap_two_arrows(A))
    assert not rr.homomorphism
    assert not rr.ok


def test_iterated_check_catches_a_unital_automorphism_of_order_three(monkeypatch):
    """On k × k × k the 3-cycle p → q → r → p fixes the unit and respects
    every product, but it is not of order two.  With the guard bypassed
    only the block of (1⊗1)⊗0, which tests s²(b_q) = s(1)·b_q, catches it;
    the verdict is the one of the all-pairs checks on the built
    twice-crossed product."""
    labels = ["p", "q", "r"]
    A = algebra_from_products(
        labels, lambda a, b: {a: ONE} if a == b else {}, dict.fromkeys(labels, ONE)
    )
    cycle = basis_map_from_permutation(A, {"p": "q", "q": "r", "r": "p"})
    assert multiplicative(A, A, images_of(cycle))
    _bypass_guard(monkeypatch)
    rr = verify_iterated_skew_group(A, cycle)
    assert (rr.homomorphism, rr.unit_ok) == (False, True)
    assert not _assert_generator_check_agrees(A, cycle)


def test_a_product_nonzero_on_the_right_alone_fails(monkeypatch):
    """On span(1, x, y) with ``y·y = y`` and ``x·x = x·y = y·x = 0`` the
    swap of x and y fails only where ``b_x·b_x = 0`` while
    ``s(b_x)·s(b_x) = y``, a product present on the right alone.  Row x
    has one cell and row π(x) = y has two, so the cell comparison finds
    the row y cell ``y·y = y`` unmatched, as the count over the bijection
    says.  The swap is not an involution of the algebra, so the guard is
    bypassed."""

    def product(a, b):
        if a == "1" or b == "1":
            return {b if a == "1" else a: ONE}
        return {"y": ONE} if a == b == "y" else {}

    A = algebra_from_products(["1", "x", "y"], product, {"1": ONE})
    swap = basis_map_from_permutation(A, {"1": "1", "x": "y", "y": "x"})
    _bypass_guard(monkeypatch)
    assert not _assert_generator_check_agrees(A, swap)


def _assert_iterated_matches_oracle(A, act):
    """The verdict holds, and the target and the comparison map that the
    agreement checks build are ``M₂(A)`` cell by cell and the
    Cohen--Montgomery map image by image."""
    rr = verify_iterated_skew_group(A, act)
    assert rr.ok
    endo = matrix_algebra(A)
    assert endo.dimension == 4 * A.dimension

    def labelled(v):
        return {endo.labels[k]: c for k, c in v.items()}

    table = matrix_table(A)
    endo_table = endo.table
    assert set(endo.labels) == {x for x, _ in table}
    for a, x in enumerate(endo.labels):
        for b, y in enumerate(endo.labels):
            assert labelled(endo_table[a][b]) == table[(x, y)]
    assert labelled(endo.unit) == {
        (r, A.labels[q], r): c for r in (0, 1) for q, c in A.unit.items()
    }
    images = comparison_images(act)
    for i, label in enumerate(twice_crossed(rr.once).labels):
        assert labelled(images[i]) == cohen_montgomery_image(A, images_of(act), label)


def _assert_cover_iterated_matches_oracle(cov):
    red = verify_skew_group_reduction(cov)
    _assert_iterated_matches_oracle(red.cover_algebra.algebra, red.deck_action)


def test_iterated_target_matches_oracle_on_ladder_fixtures(cylinder_covers, disc_xx):
    for cov in cylinder_covers.values():
        _assert_cover_iterated_matches_oracle(cov)
    _assert_cover_iterated_matches_oracle(double_cover(disc_xx))
    _assert_cover_iterated_matches_oracle(quotient(*two_hole_torus_surface()))
    for n in (4, 6, 8):
        _assert_cover_iterated_matches_oracle(double_cover(one_orbifold_disc(n)))


def test_iterated_target_matches_oracle_on_random_covers():
    rng = random.Random(7207)
    for _ in range(20):
        cov = double_cover(surface_from_triple(random_triple(rng)))
        _assert_cover_iterated_matches_oracle(cov)


def _count_crossings(monkeypatch):
    """Record the dimension of every algebra that ``skew_group_algebra``
    guards for an involution or crosses into a new crossed product."""
    calls = {"crossed": [], "involution": []}
    involution = algebra_module.verify_algebra_involution

    class CountedCrossing(algebra_module.CrossedProduct):
        def __init__(self, base, *args):
            calls["crossed"].append(base.dimension)
            super().__init__(base, *args)

    def counted_involution(A, act):
        calls["involution"].append(A.dimension)
        return involution(A, act)

    monkeypatch.setattr(algebra_module, "CrossedProduct", CountedCrossing)
    monkeypatch.setattr(algebra_module, "verify_algebra_involution", counted_involution)
    return calls


def test_iterated_check_crosses_twice_without_twisted_rows(monkeypatch, cylinders):
    # The verdict crosses once, into a crossed product that stores no row;
    # the second crossing, with the grading signs, is never built.
    A, deck = _cover_algebra_and_deck(double_cover(cylinders[1]))
    calls = _count_crossings(monkeypatch)
    rr = verify_iterated_skew_group(A, deck)
    n = A.dimension
    assert rr.ok
    assert calls == {"crossed": [n], "involution": [n]}
    _assert_stores_no_row(rr.once, A, deck)


def test_iterated_check_reuses_the_crossed_product_of_the_reduction(
    monkeypatch, cylinders
):
    cov = double_cover(cylinders[1])
    red = verify_skew_group_reduction(cov)
    calls = _count_crossings(monkeypatch)
    rr = verify_iterated_skew_group(red.cover_algebra.algebra, red.deck_action)
    # nothing is crossed, and the involution is not checked again
    assert calls == {"crossed": [], "involution": []}
    assert rr.once is red.skew
    fresh = verify_iterated_skew_group(*_cover_algebra_and_deck(cov))
    assert rr.ok
    assert (rr.homomorphism, rr.unit_ok) == (fresh.homomorphism, fresh.unit_ok)
    # the fresh crossing is a counted subclass, so the two compare by content
    assert rr.once is not fresh.once
    assert (rr.once.labels, rr.once.table, rr.once.unit, rr.once.generators) == (
        fresh.once.labels, fresh.once.table, fresh.once.unit, fresh.once.generators
    )


def test_only_the_algebra_module_touches_the_kept_crossed_products():
    """``skew_group_algebra`` is the one crossing: no other module guards,
    keeps or reads a crossed product of its own, and no module but
    ``algebra.py`` reads or writes ``_crossed``."""
    package = Path(skewgentle.__file__).resolve().parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    for gone in ("_crossed_product", "_require_involution", "_require_size"):
        assert not [name for name, text in sources.items() if gone in text], gone
    touching = [name for name, text in sources.items() if re.search(r"\b_crossed\b", text)]
    assert touching == ["algebra.py"]


def test_a_symmetry_that_is_not_an_involution_is_not_kept(cylinders):
    A, deck = _cover_algebra_and_deck(double_cover(cylinders[1]))
    # negating the sign of one moved basis element gives s²(b) = -b
    k = next(j for j, p in enumerate(deck.pi) if p != j)
    sigma = list(deck.sigma)
    sigma[k] = -sigma[k]
    with pytest.raises(ValidationError) as exc:
        verify_iterated_skew_group(A, SignedPermutation(deck.pi, sigma))
    assert [d.code for d in exc.value.diagnostics] == ["NOT_INVOLUTION"]
    assert A._crossed == {}
    assert verify_iterated_skew_group(A, deck).ok
    assert list(A._crossed) == [deck]


def test_the_crossed_product_is_kept_under_the_value_of_the_action(
    monkeypatch, cylinders
):
    """An equal action made afresh finds the kept crossed product, and
    nothing is guarded or crossed again."""
    A, deck = _cover_algebra_and_deck(double_cover(cylinders[2]))
    rr = verify_iterated_skew_group(A, deck)
    assert rr.once is A._crossed[deck]
    calls = _count_crossings(monkeypatch)
    again = SignedPermutation(list(deck.pi), list(deck.sigma))
    assert again == deck and again is not deck
    assert verify_iterated_skew_group(A, again).once is rr.once
    assert calls == {"crossed": [], "involution": []}


def _assert_generator_check_agrees(A, act) -> bool:
    """The verdict of the iterated check, reached on the generating rows,
    is the one of the all-pairs check on the built twice-crossed product
    and of the independent oracle; returns the homomorphism verdict."""
    rr = verify_iterated_skew_group(A, act)
    double, endo, f = twice_crossed(rr.once), matrix_algebra(A), comparison_images(act)
    # Φ is bijective for every signed permutation
    span = SpanBasis()
    for img in f:
        span.add(img)
    assert span.rank == double.dimension == endo.dimension
    unit_ok = apply_map(f, double.unit) == endo.unit
    verdict = (rr.homomorphism, rr.unit_ok)
    assert verdict == (verify_multiplicative(double, endo, f), unit_ok)
    assert verdict == (multiplicative(double, endo, f), unit_ok)
    return rr.homomorphism


@pytest.fixture(scope="module")
def agreement_covers(cylinder_covers, disc_xx):
    covers = list(cylinder_covers.values())
    covers.append(double_cover(disc_xx))
    covers.append(quotient(*two_hole_torus_surface()))
    covers += [double_cover(one_orbifold_disc(n)) for n in (4, 6, 8)]
    rng = random.Random(6133)
    covers += [double_cover(surface_from_triple(random_triple(rng))) for _ in range(200)]
    return covers


def test_generator_check_agrees_with_all_pairs_on_covers(agreement_covers):
    for cov in agreement_covers:
        assert _assert_generator_check_agrees(*_cover_algebra_and_deck(cov))


def _perturbed_actions(deck, rng):
    """Signed maps near the deck action, as pairs ``(π, σ)``: one moved
    sign negated (s² ≠ id; left out when the deck action moves nothing),
    a random signed permutation, two images swapped, two basis elements
    sent to one (these two need two basis elements), and twice the deck
    action.  The last two are not signed permutations."""
    pi, sigma = list(deck.pi), list(deck.sigma)
    n = len(pi)
    out = {}
    moved = next((j for j, p in enumerate(pi) if p != j), None)
    if moved is not None:
        negated = list(sigma)
        negated[moved] = -negated[moved]
        out["negated"] = (pi, negated)
    out["signed permutation"] = (
        rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)]
    )
    if n > 1:
        a, b = rng.sample(range(n), 2)
        swapped, swapped_signs = list(pi), list(sigma)
        swapped[a], swapped[b] = pi[b], pi[a]
        swapped_signs[a], swapped_signs[b] = sigma[b], sigma[a]
        out["swapped"] = (swapped, swapped_signs)
        two_to_one = list(pi)
        two_to_one[a] = pi[b]
        out["two to one"] = (two_to_one, sigma)
    out["twice"] = (pi, [2 * s for s in sigma])
    return out


NOT_SIGNED = {"two to one", "twice"}


def _assert_refused(pi, sigma) -> None:
    with pytest.raises(ValidationError) as exc:
        SignedPermutation(pi, sigma)
    assert [d.code for d in exc.value.diagnostics] == [BAD_INPUT]


def test_generator_check_agrees_with_all_pairs_on_perturbed_actions(
    monkeypatch, agreement_covers
):
    # Without the involution guard the crossed products of a broken action
    # need not be associative; the generating rows still catch it.  A map
    # that is not a signed permutation cannot be made into a symmetry.
    _bypass_guard(monkeypatch)
    rng = random.Random(6134)
    verdicts, refused = {}, set()
    for cov in agreement_covers:
        _, deck = _cover_algebra_and_deck(cov)
        for name, (pi, sigma) in _perturbed_actions(deck, rng).items():
            A, _ = _cover_algebra_and_deck(cov)
            if name in NOT_SIGNED:
                _assert_refused(pi, sigma)
                refused.add(name)
            else:
                act = SignedPermutation(pi, sigma)
                verdicts.setdefault(name, set()).add(_assert_generator_check_agrees(A, act))
    assert refused == NOT_SIGNED
    assert len(verdicts) == 3 and all(False in v for v in verdicts.values())
    assert verdicts["negated"] == {False}


@pytest.fixture(scope="module")
def symmetry_covers(agreement_covers):
    """The agreement covers and the ladder's larger discs, 10 to 14."""
    larger = [double_cover(one_orbifold_disc(n)) for n in (10, 12, 14)]
    return agreement_covers + larger


def _is_involution(A, images) -> bool:
    """Order two, the unit fixed and all pairs multiplicative, by plain
    loops over the images."""
    return (
        all(apply_map(images, images[i]) == {i: 1} for i in range(A.dimension))
        and apply_map(images, A.unit) == A.unit
        and multiplicative(A, A, images)
    )


def test_involution_guard_agrees_with_all_pairs_oracle(symmetry_covers):
    """The cellwise guard gives the oracle's verdict on the deck action and
    the signed half-swap of every cover and on the signed maps near the
    deck action; a map that is not a signed permutation cannot be made
    into a symmetry."""
    rng = random.Random(6135)
    verdicts, refused = {}, set()
    not_signed = NOT_SIGNED | {"rational"}
    for cov in symmetry_covers:
        A, deck = _cover_algebra_and_deck(cov)
        dual = verify_dual_reduction(cov)
        cases = {
            "deck": (A, deck),
            "half-swap": (dual.split_algebra.algebra, dual.swap_action),
        }
        perturbed = _perturbed_actions(deck, rng)
        rational = list(deck.sigma)
        k = rng.randrange(len(rational))
        rational[k] = Fraction(rational[k], 2)
        perturbed["rational"] = (deck.pi, rational)
        for name, (pi, sigma) in perturbed.items():
            if name in not_signed:
                _assert_refused(pi, sigma)
                refused.add(name)
            else:
                cases[name] = (A, SignedPermutation(pi, sigma))
        for name, (B, act) in cases.items():
            verdict = verify_algebra_involution(B, act)
            assert verdict == _is_involution(B, images_of(act)), name
            verdicts.setdefault(name, set()).add(verdict)
    assert refused == not_signed
    assert verdicts["deck"] == verdicts["half-swap"] == {True}
    assert verdicts["negated"] == {False}
    assert False in verdicts["signed permutation"] and False in verdicts["swapped"]


def _reduced_relabelling(alg, generator_map, signs):
    """The images of the relabelling, each label rewritten through
    ``reduce``, and how many relabelled paths are not basis paths."""
    images, misses, index = [], 0, index_of(alg.algebra)
    for src, arrows in alg.algebra.labels:
        mapped = (generator_map[src], tuple(generator_map[a] for a in arrows))
        misses += mapped not in index
        image = alg.reduce(mapped)
        for a in arrows:
            image = {k: c * signs.get(a, 1) for k, c in image.items()}
        images.append(image)
    return images, misses


def test_induced_map_is_the_reduced_relabelling(symmetry_covers):
    """On the deck action (monomial relations) and the signed half-swap
    (two-term relations) ``induced_basis_map`` equals ``reduce`` of every
    relabelled path; on the split side some of those are not basis paths."""
    misses = {"deck": 0, "half-swap": 0}
    for cov in symmetry_covers:
        lam = graded_path_algebra(cov.total_quiver.presentation)
        images, missed = _reduced_relabelling(lam, cov.deck_generators, {})
        assert images_of(equivariant.induced_basis_map(lam, cov.deck_generators)) == images
        misses["deck"] += missed
        dual = verify_dual_reduction(cov)
        split = dual.split_algebra
        # the sign of each arrow is the sign of its image
        signs = {
            word[0]: s
            for (_, word), s in zip(split.algebra.labels, dual.swap_action.sigma)
            if len(word) == 1
        }
        images, missed = _reduced_relabelling(split, cov.split.swap, signs)
        assert images_of(dual.swap_action) == images
        misses["half-swap"] += missed
    assert misses["deck"] == 0 and misses["half-swap"] > 0


def test_induced_map_refuses_a_relabelling_that_sends_a_basis_path_to_zero():
    # a·c is a basis path, and swapping b and c sends it to the relation a·b
    pres = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "3")],
        [(("a", "b"),)],
    )
    alg = graded_path_algebra(pres)
    assert ("1", ("a", "c")) in alg.algebra.labels
    swap = {"1": "1", "2": "2", "3": "3", "a": "a", "b": "c", "c": "b"}
    with pytest.raises(ValidationError) as exc:
        equivariant.induced_basis_map(alg, swap)
    (diagnostic,) = exc.value.diagnostics
    assert diagnostic.code == BAD_INPUT and "0 terms" in diagnostic.message


class _UnreadableLabels:
    """Stands in for a path algebra's labels: it has their length, and
    reading a label fails the test."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError(f"label {i!r} was read")

    def __iter__(self):
        raise AssertionError("the labels were iterated")


def test_the_relabelling_and_the_corner_cut_read_no_label(agreement_covers):
    """``induced_basis_map`` and ``_crossed_corner`` walk the links: with
    every label of the path algebra unreadable they return what the
    reductions got.  Each reduction has crossed first, so
    ``skew_group_algebra`` hands back the kept ``A#ℤ₂`` and builds no
    labels from those of ``A``."""
    for cov in agreement_covers:
        red = verify_skew_group_reduction(cov)
        dual = verify_dual_reduction(cov)
        split = dual.split_algebra
        # the sign of each arrow is the sign of its image
        signs = {
            word[0]: s
            for (_, word), s in zip(split.algebra.labels, dual.swap_action.sigma)
            if len(word) == 1
        }
        cases = [
            (red, red.cover_algebra, cov.deck_generators, None, red.deck_action),
            (dual, split, cov.split.swap, signs, dual.swap_action),
        ]
        for reduction, alg, generator_map, arrow_signs, act in cases:
            vertices = [alg.presentation.vertices[k] for k in reduction.corner.idempotent]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(alg.algebra, "labels", _UnreadableLabels(alg.dimension))
                assert equivariant.induced_basis_map(alg, generator_map, arrow_signs) == act
                skew, corner = equivariant._crossed_corner(alg, act, vertices)
            assert skew is reduction.skew
            assert corner.idempotent == reduction.corner.idempotent
            assert corner.indices == reduction.corner.indices
            assert corner.generators == reduction.corner.generators


class Builds(NamedTuple):
    built: list  # every TableAlgebra constructed
    runs: list  # (reduction, dual reduction, iterated check) per cover
    morphisms: list  # (args, kwargs) of each verify_morphism call, two per cover


def _build_all(covers) -> Builds:
    """Both reductions and the iterated check on each cover, with every
    ``TableAlgebra`` they construct along the way and the arguments the
    reductions pass to ``verify_morphism``."""
    out = Builds([], [], [])

    def record_morphism(*args, **kwargs):
        out.morphisms.append((args, kwargs))
        return verify_morphism(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        _record_tables(mp, out.built)
        mp.setattr(equivariant, "verify_morphism", record_morphism)
        for cov in covers:
            red = verify_skew_group_reduction(cov)
            dual = verify_dual_reduction(cov)
            rr = verify_iterated_skew_group(red.cover_algebra.algebra, red.deck_action)
            out.runs.append((red, dual, rr))
    return out


def _ladder_covers(cylinder_covers, disc_xx) -> list:
    """The twelve covers of the bench's ``cover_ladder``."""
    covers = list(cylinder_covers.values())
    covers.append(double_cover(disc_xx))
    covers.append(quotient(*two_hole_torus_surface()))
    covers += [double_cover(one_orbifold_disc(n)) for n in (4, 6, 8, 10, 12, 14)]
    return covers


@pytest.fixture(scope="module")
def ladder_builds(cylinder_covers, disc_xx):
    return _build_all(_ladder_covers(cylinder_covers, disc_xx))


def _assert_exact(builds):
    """No coefficient is a float.  The tables, units and normal forms are
    integral and hold ``int``; only the public images, through the halving
    idempotents, carry ``Fraction``."""
    built, runs = builds.built, builds.runs
    table_coeffs = [c for A in built for row in A.table for cell in row for c in cell.values()]
    table_coeffs += [c for A in built for c in A.unit.values()]
    image_coeffs = []
    for red, dual, rr in runs:
        for act in (red.deck_action, dual.swap_action):
            image_coeffs += act.sigma
        for images in (red.images, dual.images):
            image_coeffs += [c for img in images.values() for c in img.values()]
    assert table_coeffs and image_coeffs
    assert {type(c) for c in table_coeffs} == {int}
    assert {type(c) for c in image_coeffs} == {int, Fraction}
    # an integral value is always held as ``int``
    assert not [c for c in image_coeffs if type(c) is Fraction and c.denominator == 1]
    # every normal form, kept as an extension cell, is ±1 times one basis path
    form_coeffs = [
        c
        for red, dual, _ in runs
        for alg in (red.cover_algebra, dual.split_algebra)
        for cells in alg.extensions
        for _, c in cells.values()
    ]
    assert {type(c) for c in form_coeffs} == {int} and set(form_coeffs) == {1, -1}
    # the reductions check integral multiples of their images
    assert len(builds.morphisms) == 2 * len(runs)
    kernel_coeffs = [
        c
        for args, _ in builds.morphisms
        for images in args[1:3]
        for img in images.values()
        for c in img.values()
    ]
    assert kernel_coeffs and {type(c) for c in kernel_coeffs} == {int}


def _assert_scaled_verdicts_match(builds):
    """The verdict on the doubled images with ``scale=2`` is the verdict on
    the public images, failure strings included, also when every vertex is
    sent to the image of the first one; and the public images with
    ``scale=2`` fail the idempotent and unit checks.  Both are read in the
    coordinates of the crossed product, into the reduction's corner."""
    reductions = [red for run in builds.runs for red in run[:2]]
    for (args, kwargs), red in zip(builds.morphisms, reductions):
        domain, doubled_vertices, doubled_arrows, target = args
        assert kwargs["scale"] == 2
        assert target is red.corner
        expected_dim = kwargs["expected_dim"]
        vertex_images = {v: red.images[v] for v in domain.vertices}
        arrow_images = {a.id: red.images[a.id] for a in domain.arrows}
        args = (domain, vertex_images, arrow_images, target)
        assert verify_morphism(*args, expected_dim=expected_dim) == red.verdict

        first = domain.vertices[0]
        merged = verify_morphism(
            domain, dict.fromkeys(domain.vertices, doubled_vertices[first]),
            doubled_arrows, target, expected_dim=expected_dim, scale=2,
        )
        assert merged == verify_morphism(
            domain, dict.fromkeys(domain.vertices, vertex_images[first]),
            arrow_images, target, expected_dim=expected_dim,
        )
        assert len(domain.vertices) == 1 or merged.failures

        unscaled = verify_morphism(*args, expected_dim=expected_dim, scale=2)
        assert not unscaled.is_homomorphism
        for v in domain.vertices:
            assert f"image of vertex {v!r} is not idempotent" in unscaled.failures
        assert "vertex images do not sum to the unit" in unscaled.failures


@pytest.fixture(scope="module")
def random_builds():
    rng = random.Random(8801)
    covers = [double_cover(surface_from_triple(random_triple(rng))) for _ in range(40)]
    return _build_all(covers)


# Digests of both reductions' outputs, recorded before the split became one
# record and each reduction one set of images: per group of covers, the
# skew-group reduction's (verdict, images, swap_compat, survivors) and the
# dual reduction's (verdict, images, equivariant), in cover order.
PINNED_DIGESTS = {
    "ladder": (
        "7b9aa43f0936be20a0ba34bee9dc44a024cfada93246c6a805c14edba422c241",
        "eed026dc41a81e68160a0ac6f37fb985c7232f47591401287dfb0dc67eeb1b27",
    ),
    1709: (
        "ca04510504a88a54d5bb4d80c422b0ff7c47b3ad3681284a46e6ab27597aa0c0",
        "b60a23426518cbb76825396e09421c51813424fb6c9f1a2e2fb27d8899808475",
    ),
    2917: (
        "f600b1b42344f5a76f121af943f7bc55fd06b5a2fad27e6eeaad4a58ec82de24",
        "523da9e2a1d2e067d0949e2278fc7c57644a65d0dc5e3e9ea42d476974dc2669",
    ),
}


def _pinned_form(red, compat, survivors=None) -> bytes:
    v = red.verdict
    return repr((
        v.is_homomorphism, v.is_surjective, v.is_isomorphism, v.failures,
        sorted(
            (gen, sorted((red.skew.labels[k], str(c)) for k, c in img.items()))
            for gen, img in red.images.items()
        ),
        sorted(compat.items()),
        None if survivors is None else sorted(survivors.items()),
    )).encode()


def _digests(runs) -> tuple[str, str]:
    reductions, duals = hashlib.sha256(), hashlib.sha256()
    for red, dual, *_ in runs:
        reductions.update(_pinned_form(red, red.swap_compat, red.survivors))
        duals.update(_pinned_form(dual, dual.equivariant))
    return reductions.hexdigest(), duals.hexdigest()


def test_reduction_outputs_match_pinned_digests(ladder_builds):
    # the ladder covers, in the order of ``ladder_builds``
    assert _digests(ladder_builds.runs) == PINNED_DIGESTS["ladder"]
    for seed in (1709, 2917):
        rng = random.Random(seed)
        runs = []
        for _ in range(50):
            cov = double_cover(surface_from_triple(random_triple(rng)))
            runs.append((verify_skew_group_reduction(cov), verify_dual_reduction(cov)))
        assert _digests(runs) == PINNED_DIGESTS[seed]


def test_coefficients_are_exact_on_ladder_fixtures(ladder_builds):
    _assert_exact(ladder_builds)


def test_coefficients_are_exact_on_random_covers(random_builds):
    _assert_exact(random_builds)


def test_images_are_halved_on_first_read(cylinder_covers):
    """A reduction keeps the integral images it checked, ``2·φ(v)`` and
    ``4·φ(a)``, and divides them only when ``images`` is first read."""
    halves = 0
    for cov in cylinder_covers.values():
        for red in (verify_skew_group_reduction(cov), verify_dual_reduction(cov)):
            assert "images" not in vars(red)
            assert {type(c) for img in red.doubled.values() for c in img.values()} == {int}
            images = red.images
            assert vars(red)["images"] is images and red.images is images
            vertices = set(red.domain.vertices)
            assert set(images) == set(red.doubled) == vertices | {
                a.id for a in red.domain.arrows
            }
            for gen, img in red.doubled.items():
                d = 2 if gen in vertices else 4
                assert images[gen] == {k: Fraction(c, d) for k, c in img.items()}
                halves += sum(type(c) is Fraction for c in images[gen].values())
    assert halves


def test_scaled_verdicts_match_public_images_on_ladder_fixtures(ladder_builds):
    _assert_scaled_verdicts_match(ladder_builds)


def test_scaled_verdicts_match_public_images_on_random_covers(random_builds):
    _assert_scaled_verdicts_match(random_builds)


def test_rows_hold_only_nonzero_cells_and_the_dense_view_counts_them(ladder_builds):
    built, runs = ladder_builds.built, ladder_builds.runs
    # per cover: path algebra and crossed product in each reduction; the
    # iterated check reuses the crossed product of the reduction and builds
    # neither M₂(A) nor the twice-crossed product
    assert len(built) == 4 * len(runs)
    for A in built:
        n = A.dimension
        assert len(A.rows) == n
        assert all(j in range(n) for row in A.rows for j in row)
        # the dense view is built per read and never kept on the algebra
        table = A.table
        assert "table" not in vars(A) and A.table is not table
        assert len(table) == n and all(len(row) == n for row in table)
        dense = [[{} for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(A.rows):
            for j, (k, c) in row.items():
                dense[i][j] = {k: c}
        assert table == dense
        # the benchmark's table metrics count nonzero cells with this idiom
        assert sum(1 for row in table for cell in row if cell) == sum(len(r) for r in A.rows)


def _assert_cells_are_signed_basis_elements(A):
    n = A.dimension
    for row in A.rows:
        for cell in row.values():
            assert type(cell) is tuple and len(cell) == 2
            k, c = cell
            assert type(k) is int and 0 <= k < n
            assert type(c) in (int, Fraction) and c != 0


def test_every_table_cell_is_one_signed_basis_element(ladder_builds, cylinders, monkeypatch):
    """Every product of two basis elements in every table built is stored
    as one pair ``(k, c)``: the path algebras, crossed products,
    ``M₂(A)`` and twice-crossed products of the ladder and of random
    covers, and the tables of the deformation check, together with the
    deformed algebras, whose loop values reach the cells."""
    rng = random.Random(8805)
    random_covers = [double_cover(surface_from_triple(random_triple(rng))) for _ in range(50)]
    builds = [ladder_builds, _build_all(random_covers)]
    built = [A for b in builds for A in b.built]
    built += [
        m
        for b in builds
        for _, _, rr in b.runs
        for m in (matrix_algebra(rr.algebra), twice_crossed(rr.once))
    ]
    deformed = []
    _record_tables(monkeypatch, deformed)
    surfaces = list(cylinders.values()) + [one_orbifold_disc(n) for n in (4, 6)]
    for surface in surfaces:
        triple = triple_from_x_dissection(surface)
        for value in (5, Fraction(1, 2)):
            assert verify_deformation_map(triple, value).is_isomorphism
            graded_path_algebra(triple, {e: value for e in triple.special})
    monkeypatch.undo()
    coeffs = {c for A in deformed for row in A.rows for _, c in row.values()}
    assert {5, Fraction(1, 2)} <= coeffs
    for A in built + deformed:
        _assert_cells_are_signed_basis_elements(A)


def _assert_stores_no_row(skew, A, act) -> None:
    """``skew`` keeps the rows of ``A`` themselves, ``π``, ``π⁻¹``, ``σ``,
    its unit and generators, and no cell or label of its own: each read of
    a row renders a new dict, as the product rule gives it."""
    assert set(vars(skew)) == {
        "base_rows", "pi", "inverse", "sigma", "labels", "rows", "unit", "generators",
        "_crossed",
    }
    assert skew.base_rows is A.rows and (skew.pi, skew.sigma) == (act.pi, act.sigma)
    assert [skew.inverse[p] for p in act.pi] == list(range(A.dimension))
    for view in (skew.rows, skew.labels):
        assert type(view) is algebra_module._Rendered and len(view) == 2 * A.dimension
    expected = crossed_rows(A, act)
    for i in (0, A.dimension, 2 * A.dimension - 1):
        row = skew.rows[i]
        assert row == skew.rows[i] == expected[i] and row is not skew.rows[i]


def test_signed_permutation_crossed_product_shares_cells(cylinder_covers):
    """Crossing with a deck action copies no cell: the crossed product
    reads each product off the very rows of ``A`` through ``(π, σ)``, a
    degree-zero row holding the cells of ``A`` at columns ``j`` and
    ``n + j``, a twisted one the cell at column ``π(j)`` times ``σ_j``,
    as ``mul`` and the rendered rows both give it."""
    for cov in (cylinder_covers[2], double_cover(one_orbifold_disc(8))):
        A, deck = _cover_algebra_and_deck(cov)
        skew = skew_group_algebra(A, deck)
        _assert_stores_no_row(skew, A, deck)
        n = A.dimension
        moved = 0
        for i, row in enumerate(A.rows):
            for j in range(n):
                for g, h in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    cell = row.get(deck.pi[j] if g else j)
                    want = {}
                    if cell is not None:
                        k, c = cell
                        want = {(g + h) % 2 * n + k: deck.sigma[j] * c if g else c}
                        moved += g and deck.pi[j] != j
                    assert skew.mul({g * n + i: 1}, {h * n + j: 1}) == want
        assert moved
        assert skew.table == _dense(crossed_rows(A, deck), 2 * n)


def test_corner_coordinates_reject_an_image_outside_the_corner():
    pres = make_presentation(["u", "v"], [], [])
    A = algebra_from_products(
        ["u", "v"], lambda a, b: {a: ONE} if a == b else {}, {"u": ONE, "v": ONE}
    )
    corner = CornerAlgebra(A, element(A, "u"), (0,), frozenset({0}))
    doubled = {"u": element(A, "u"), "v": element(A, "v")}
    with pytest.raises(ValidationError) as exc:
        equivariant._compare(A, corner, pres, doubled, 1, {"u": "u", "v": "v"})
    assert [d.code for d in exc.value.diagnostics] == ["OUTSIDE_CORNER"]


def _assert_corners_match_oracle(reductions, rank=True):
    """Each reduction's corner keeps the indices of the oracle's cut, with
    ``e·b·e`` taken by sandwich; the oracle's table is the parent's
    restricted to them and closed under the product, its unit the
    idempotent; with ``rank`` its dimension is also the rank of the
    sandwiches."""
    for red in reductions:
        corner = red.corner
        A = red.skew
        assert corner.parent is A and corner.unit is corner.idempotent
        cut = corner_algebra(A, corner.idempotent)
        assert corner.indices == cut.indices
        assert corner.dimension == cut.algebra.dimension
        if rank:
            assert corner.dimension == corner_dimension(A, corner.idempotent)
        table, cut_table = A.table, cut.algebra.table
        for a, i in enumerate(corner.indices):
            for b, j in enumerate(corner.indices):
                assert cut.express(table[i][j]) == cut_table[a][b]
        assert cut.express(corner.idempotent) == cut.algebra.unit


def test_corners_match_oracle_on_ladder_fixtures(ladder_builds):
    assert len(ladder_builds.runs) == 12
    _assert_corners_match_oracle(red for run in ladder_builds.runs for red in run[:2])


def test_corner_indices_are_the_cut_of_the_labels(ladder_builds):
    """Both reductions' corners keep the indices ``g·n + i`` of the basis
    paths that end at a chosen vertex and start at one or, for ``g = 1``,
    at its image under ``π``, as the labels and the oracle ``path_target``
    give them."""
    for red, dual, _ in ladder_builds.runs:
        for alg, act, corner in (
            (red.cover_algebra, red.deck_action, red.corner),
            (dual.split_algebra, dual.swap_action, dual.corner),
        ):
            labels, n = alg.algebra.labels, alg.dimension
            chosen = {labels[k][0] for k in corner.idempotent}
            starts = (chosen, {labels[act.pi[k]][0] for k in corner.idempotent})
            assert corner.indices == tuple(
                g * n + i
                for g in (0, 1)
                for i, key in enumerate(labels)
                if key[0] in starts[g] and path_target(alg.presentation, key) in chosen
            )


def test_corners_match_oracle_on_random_covers():
    rng = random.Random(3301)
    for k in range(200):
        cov = double_cover(surface_from_triple(random_triple(rng)))
        reductions = (verify_skew_group_reduction(cov), verify_dual_reduction(cov))
        _assert_corners_match_oracle(reductions, rank=k < 20)


def _assert_onto_matches_closure(verdict, target, images, expected_dim):
    """On a homomorphism ``is_surjective`` is the verdict of the full
    two-sided closure of the images (``oracles.generates``); on every map
    ``is_isomorphism`` is a homomorphism that is onto, between algebras of
    one dimension."""
    onto = generates(target, images)
    if verdict.is_homomorphism:
        assert verdict.is_surjective == onto
    assert verdict.is_isomorphism == (
        verdict.is_homomorphism and onto and expected_dim == target.dimension
    )


def _assert_surjectivity_matches_oracle(cov, perturb=True):
    """Both reductions call their map onto exactly when the oracle's
    two-sided closure of the generator images fills the corner; with
    ``perturb``, so do the maps with one arrow image zero and with every
    vertex sent to the image of the first, each on its doubled images."""
    for red in (verify_skew_group_reduction(cov), verify_dual_reduction(cov)):
        vertices = {v: red.doubled[v] for v in red.domain.vertices}
        arrows = {a.id: red.doubled[a.id] for a in red.domain.arrows}
        expected_dim = red.corner.dimension
        maps = [(vertices, arrows)]
        if perturb:
            first_vertex, first_arrow = red.domain.vertices[0], min(arrows, default=None)
            maps.append((dict.fromkeys(vertices, vertices[first_vertex]), arrows))
            if first_arrow is not None:
                maps.append((vertices, {**arrows, first_arrow: {}}))
        for vertex_images, arrow_images in maps:
            verdict = verify_morphism(
                red.domain, vertex_images, arrow_images, red.corner,
                expected_dim=expected_dim, scale=2,
            )
            images = [*vertex_images.values(), *arrow_images.values()]
            _assert_onto_matches_closure(verdict, red.corner, images, expected_dim)
        assert red.verdict.is_isomorphism


def test_surjectivity_matches_oracle_on_ladder_fixtures(cylinder_covers, disc_xx):
    for cov in _ladder_covers(cylinder_covers, disc_xx):
        _assert_surjectivity_matches_oracle(cov)


def test_surjectivity_matches_oracle_on_random_covers():
    rng = random.Random(5501)
    for k in range(200):
        cov = double_cover(surface_from_triple(random_triple(rng)))
        _assert_surjectivity_matches_oracle(cov, perturb=k < 40)


def test_surjectivity_matches_oracle_on_deformation_maps(cylinders):
    """The scaling map from the deformed algebra, whose target has special
    loops, at the values 0, 1 and 3/7, and with one arrow image zero."""
    surfaces = list(cylinders.values()) + [one_orbifold_disc(n) for n in (4, 6)]
    for surface in surfaces:
        triple = triple_from_x_dissection(surface)
        base = graded_path_algebra(triple)
        vertices = {v: base.vertex(v) for v in triple.vertices}
        for value in (0, 1, Fraction(3, 7)):
            arrows = {
                a.id: {k: c * value for k, c in base.arrow(a.id).items() if c * value}
                if a.id in triple.special else base.arrow(a.id)
                for a in triple.arrows
            }
            verdict = verify_deformation_map(triple, value)
            images = [*vertices.values(), *arrows.values()]
            _assert_onto_matches_closure(verdict, base.algebra, images, base.dimension)
            assert verdict.is_isomorphism == (value != 0)
            ordinary = min(a.id for a in triple.arrows if a.id not in triple.special)
            loops = {e: value for e in triple.special}
            verdict = verify_morphism(
                triple, vertices, {**arrows, ordinary: {}}, base.algebra,
                expected_dim=base.dimension, loop_values=loops,
            )
            images = [*vertices.values(), *{**arrows, ordinary: {}}.values()]
            _assert_onto_matches_closure(verdict, base.algebra, images, base.dimension)


def test_reductions_compute_each_cover_stage_once(count_calls, monkeypatch, cylinders):
    stages = {
        name: count_calls(module, name)
        for module, name in (
            ("skewgentle.presentations", "extract_quiver"),
            ("skewgentle.presentations", "split_presentation"),
            ("skewgentle.algebra", "graded_path_algebra"),
            ("skewgentle.algebra", "skew_group_algebra"),
            ("skewgentle.algebra", "verify_algebra_involution"),
            ("skewgentle.algebra", "verify_morphism"),
        )
    }
    checks = count_calls("skewgentle.surface", "_check_surface")
    built = []
    _record_tables(monkeypatch, built)
    covers = [double_cover(cylinders[2]), double_cover(cylinders[3])]
    for cov in covers:
        # each reduction builds two tables, its path algebra and its crossed
        # product, and no table for its corner
        for reduction, path_algebra in (
            (verify_skew_group_reduction, lambda red: red.cover_algebra),
            (verify_dual_reduction, lambda red: red.split_algebra),
        ):
            done = len(built)
            red = reduction(cov)
            assert len(built) == done + 2
            assert built[done] is path_algebra(red).algebra and built[-1] is red.skew
    per_cover = {
        "extract_quiver": 2,
        "split_presentation": 1,
        "graded_path_algebra": 2,
        "skew_group_algebra": 2,
        "verify_algebra_involution": 2,
        "verify_morphism": 2,
    }
    assert {name: len(calls) for name, calls in stages.items()} == {
        name: count * len(covers) for name, count in per_cover.items()
    }
    # one split per cover, of that cover's base triple
    assert [args[0] for args in stages["split_presentation"]] == [
        cov.base_quiver.presentation for cov in covers
    ]

    cov = covers[-1]
    done = len(checks)
    report = validate(cov.total)
    report.add("BAD_INPUT", "added by the caller")
    assert validate(cov.total).ok
    assert len(checks) == done


def _bad_lift_message(reduction, cov) -> str:
    with pytest.raises(ValidationError) as exc:
        reduction(cov)
    (diagnostic,) = exc.value.diagnostics
    assert diagnostic.code == "BAD_LIFT"
    return diagnostic.message


def test_sandwich_with_no_single_term_is_a_bad_lift(cylinders):
    cov = double_cover(cylinders[1])
    # both lifts of the ordinary arrow 1.4 moved to the other sheet: the
    # sandwich between the chosen sheet-+1 lifts of its ends vanishes
    cov.arrow_lifts[("1.4", 1)] = cov.arrow_lifts[("1.4", -1)]
    assert "0 terms" in _bad_lift_message(verify_skew_group_reduction, cov)


def test_sandwich_with_coefficient_two_is_a_bad_lift(cylinders):
    cov = double_cover(cylinders[1])
    cov.arrow_lifts[("1.4", -1)] = cov.arrow_lifts[("1.4", 1)]
    assert "coefficient 2" in _bad_lift_message(verify_skew_group_reduction, cov)


def test_lifts_with_different_sheet_signs_are_a_bad_lift(cylinders):
    cov = double_cover(cylinders[1])
    # read as the sheet -1 lift, 3.4+ has sign -1 at its slit end and +1 at
    # 4+, while as the sheet +1 lift both its signs are +1
    cov.arrow_lifts[("3.4", -1)] = cov.arrow_lifts[("3.4", 1)]
    assert "sheet sign" in _bad_lift_message(verify_dual_reduction, cov)


def test_cover_presentation_with_special_loops_is_bad_input(cylinders):
    cov = double_cover(cylinders[1])
    # the base triple, with its special loops, read as the cover's quiver
    vars(cov)["total_quiver"] = cov.base_quiver
    with pytest.raises(ValidationError) as exc:
        verify_skew_group_reduction(cov)
    (diagnostic,) = exc.value.diagnostics
    assert diagnostic.code == "BAD_INPUT"
    triple = cov.base_quiver.presentation
    assert diagnostic.where == (triple.arrow_by_id[min(triple.special)].source,)


# ---------------------------------------------------------------------------
# Generator rows only


def _assert_generator_rows_agree_with_all_cells(A, act) -> tuple[bool, bool]:
    """The guard and the block comparison, on the generator rows, give the
    verdicts of their all-cells versions; returns both verdicts.  The
    crossing bypasses the guard, so that a broken action is crossed too."""
    guard = verify_algebra_involution(A, act)
    assert guard == involution_all_cells(A, act)
    with pytest.MonkeyPatch.context() as mp:
        _bypass_guard(mp)
        once = skew_group_algebra(A, act)
    blocks = equivariant._blocks_multiplicative(A, once, act, act.apply(A.unit))
    assert blocks == blocks_all_rows(A, once, act)
    return guard, blocks


def test_generator_rows_agree_with_all_cells(agreement_covers):
    """On the ladder and 200 random covers, with the deck action and the
    signed maps near it, and on the unital 3-cycle of k × k × k."""
    rng = random.Random(6136)
    verdicts = {"guard": set(), "blocks": set()}
    for cov in agreement_covers:
        A, deck = _cover_algebra_and_deck(cov)
        actions = [deck]
        for name, (pi, sigma) in _perturbed_actions(deck, rng).items():
            if name not in NOT_SIGNED:
                actions.append(SignedPermutation(pi, sigma))
        for act in actions:
            guard, blocks = _assert_generator_rows_agree_with_all_cells(A, act)
            verdicts["guard"].add(guard)
            verdicts["blocks"].add(blocks)
    labels = ["p", "q", "r"]
    A = algebra_from_products(
        labels, lambda a, b: {a: ONE} if a == b else {}, dict.fromkeys(labels, ONE)
    )
    cycle = basis_map_from_permutation(A, {"p": "q", "q": "r", "r": "p"})
    assert _assert_generator_rows_agree_with_all_cells(A, cycle) == (False, False)
    assert verdicts == {"guard": {True, False}, "blocks": {True, False}}


def _flip_one_long_path(A, deck):
    """The deck action with the sign of one basis path of length ≥ 2
    negated, and of its partner when it has one: still a signed
    permutation of order two fixing the unit, but not multiplicative."""
    k = next(i for i, (_, word) in enumerate(A.labels) if len(word) >= 2)
    sigma = list(deck.sigma)
    sigma[k] = -sigma[k]
    if deck.pi[k] != k:
        sigma[deck.pi[k]] = -sigma[deck.pi[k]]
    return k, SignedPermutation(deck.pi, sigma)


def test_flipping_a_long_path_fails_the_guard_and_the_iterated_check(
    monkeypatch, agreement_covers
):
    """No generator row is the row of the flipped path: the generator
    rows catch it through the induction, as a product that reaches it."""
    flipped = 0
    for cov in agreement_covers:
        A, deck = _cover_algebra_and_deck(cov)
        if not any(len(word) >= 2 for _, word in A.labels):
            continue
        k, act = _flip_one_long_path(A, deck)
        assert k not in A.generators
        assert not verify_algebra_involution(A, act)
        assert not involution_all_cells(A, act)
        with monkeypatch.context() as m:
            _bypass_guard(m)
            rr = verify_iterated_skew_group(A, act)
        assert (rr.homomorphism, rr.unit_ok) == (False, True)
        flipped += 1
    assert flipped >= 150


@pytest.mark.parametrize("ids", ["xyz", "yzx", "zxy"], ids=["last", "first", "middle"])
def test_each_arrow_row_can_be_the_only_witness(monkeypatch, ids):
    """On 1 -u-> 2 -v-> 3 -w-> 4 with no relations, negating the paths of
    length ≥ 2 that end with ``w`` gives a signed permutation of order two
    that fixes the unit.  It fails ``s(w·p) = s(w)·s(p)`` and every other
    generator row holds, so row ``w`` is the only witness; ``w`` sorts
    last, first or in the middle of the arrows, so a check that skips the
    row of any one arrow position fails here."""
    u, v, w = ids
    pres = make_presentation(
        "1234", [Arrow(u, "1", "2"), Arrow(v, "2", "3"), Arrow(w, "3", "4")]
    )
    A = graded_path_algebra(pres).algebra
    sigma = [-1 if len(word) >= 2 and word[-1] == w else 1 for _, word in A.labels]
    act = SignedPermutation(range(A.dimension), sigma)
    witnesses = [
        g
        for g in A.generators
        if any(
            A.rows[g].get(j) != (k, c * sigma[g] * sigma[j] * sigma[k])
            for j, (k, c) in A.rows[g].items()
        )
    ]
    assert witnesses == [index_of(A)[("3", (w,))]]
    assert not verify_algebra_involution(A, act)
    assert not involution_all_cells(A, act)
    _bypass_guard(monkeypatch)
    rr = verify_iterated_skew_group(A, act)
    assert (rr.homomorphism, rr.unit_ok) == (False, True)


class _CountedRows(list):
    """Rows that record the index of every row read, and refuse a pass
    over all of them."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read: set[int] = set()

    def __getitem__(self, i):
        assert isinstance(i, int), "a slice of the rows"
        self.read.add(i)
        return super().__getitem__(i)

    def __iter__(self):
        raise AssertionError("a pass over every row")


def test_generator_checks_read_only_generator_rows(cylinder_covers, disc_xx):
    """The guard and the block comparison read the generator rows, their
    images under π and the unit rows, and no other row: they stay
    O(generators), never O(nnz)."""
    covers = list(cylinder_covers.values()) + [double_cover(disc_xx)]
    covers += [double_cover(one_orbifold_disc(n)) for n in (8, 14)]
    for cov in covers:
        A, deck = _cover_algebra_and_deck(cov)
        n, pi = A.dimension, deck.pi
        once = skew_group_algebra(A, deck)
        A.rows, once.rows = _CountedRows(A.rows), _CountedRows(once.rows)
        gens = set(A.generators)
        units = set(A.unit)
        assert gens < set(range(n)) and units <= gens
        images = {pi[g] for g in gens}
        assert verify_algebra_involution(A, deck)
        assert A.rows.read <= gens | images
        assert once.rows.read == set()
        rr = verify_iterated_skew_group(A, deck)
        assert rr.ok and rr.once is once
        assert A.rows.read <= gens | images
        assert once.rows.read <= gens | {n + u for u in units}
    assert len(A.rows.read) <= 2 * len(gens) < n


def _dense(rows, n) -> list:
    """The dense table of sparse rows, as :attr:`TableAlgebra.table` reads."""
    return [[{row[j][0]: row[j][1]} if j in row else {} for j in range(n)] for row in rows]


def test_verdicts_fill_only_generator_rows(cylinder_covers, disc_xx):
    """After both reductions and the iterated check, the rows filled in the
    cover algebra Λ and the split algebra S are exactly their generator
    rows, 284 and 197 of 728 and 477 rows over the twelve ladder covers,
    and 125 and 65 of 1 055 and 560 at n = 32, and their crossed products
    Λ#ℤ₂ and S#ℤ₂ store no row, marking the two copies of those
    generators, 568 and 394 of 1 456 and 954.  A full read then fills or
    renders every row as the words (``oracles.word_rows``) and the product
    rule of the crossing (``oracles.crossed_rows``) give them, and the
    crossed products still store none."""
    covers = _ladder_covers(cylinder_covers, disc_xx)
    covers.append(double_cover(one_orbifold_disc(32)))
    filled, sizes = [], []
    for cov in covers:
        red, dual = verify_skew_group_reduction(cov), verify_dual_reduction(cov)
        rr = verify_iterated_skew_group(red.cover_algebra.algebra, red.deck_action)
        assert red.verdict.is_isomorphism and dual.verdict.is_isomorphism and rr.ok
        pairs = ((red.cover_algebra, red.skew, red.deck_action),
                 (dual.split_algebra, dual.skew, dual.swap_action))
        counts = []
        for alg, skew, act in pairs:
            cells = alg.algebra.rows.cells
            assert {i for i, row in enumerate(cells) if row is not None} == set(
                alg.algebra.generators
            )
            assert skew.generators == set(alg.algebra.generators) | {
                alg.dimension + g for g in alg.algebra.generators
            }
            counts += [alg.algebra.rows.filled, len(skew.generators)]
        filled.append(counts)
        sizes.append([A.dimension for alg, skew, _ in pairs for A in (alg.algebra, skew)])
        for alg, skew, act in pairs:
            A = alg.algebra
            assert A.table == _dense(word_rows(alg), A.dimension)
            assert skew.table == _dense(crossed_rows(A, act), skew.dimension)
            assert A.rows.filled == A.dimension
            _assert_stores_no_row(skew, A, act)
    assert [sum(col) for col in zip(*filled[:12])] == [284, 568, 197, 394]
    assert [sum(col) for col in zip(*sizes[:12])] == [728, 1456, 477, 954]
    assert (filled[12], sizes[12]) == ([125, 250, 65, 130], [1055, 2110, 560, 1120])


def test_closure_coefficients_stay_small(monkeypatch, cylinder_covers, disc_xx):
    """The largest coefficient ``_EchelonRank`` stores over both
    reductions has 5 bits on the twelve ladder covers and 4 at n = 16 and
    n = 32.  The closure now stops after the generators; when it
    multiplied the doubled path images out to full length, each arrow
    bringing a factor 4, it stored 52, 60 and 124 bits there."""
    made = []

    class Recorded(algebra_module._EchelonRank):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(algebra_module, "_EchelonRank", Recorded)

    def largest_bits(covers) -> int:
        made.clear()
        for cov in covers:
            verify_skew_group_reduction(cov)
            verify_dual_reduction(cov)
        assert len(made) == 2 * len(covers)
        return max(abs(c).bit_length() for e in made for r in e.rows.values() for c in r.values())

    discs = [[double_cover(one_orbifold_disc(n))] for n in (16, 32)]
    bits = [largest_bits(_ladder_covers(cylinder_covers, disc_xx))]
    bits += [largest_bits(covers) for covers in discs]
    assert bits == [5, 4, 4]


def test_the_closure_takes_no_product_on_the_ladder(monkeypatch, cylinder_covers, disc_xx):
    """On the 24 reductions of the twelve ladder covers the surjectivity
    closure reaches full rank on the generator images and stops: it cuts
    505 vectors to generator coordinates, one for each vertex image, the
    unit and each arrow image, and takes no product.  Without the stop it
    took 219 products, each of which landed in ``N``."""
    cut = []
    restrict = algebra_module._restrict

    def counted(x, keep):
        cut.append(x)
        return restrict(x, keep)

    monkeypatch.setattr(algebra_module, "_restrict", counted)
    images = 0
    for cov in _ladder_covers(cylinder_covers, disc_xx):
        for red in (verify_skew_group_reduction(cov), verify_dual_reduction(cov)):
            assert red.verdict.is_isomorphism
            images += len(red.domain.vertices) + 1 + len(red.domain.arrows)
    assert (len(cut), images) == (505, 505)


def test_the_reductions_look_up_words_per_generator_on_the_ladder(
    monkeypatch, cylinder_covers, disc_xx
):
    """Both reductions turn names into positions only through the
    ``vertex_index`` of the path algebras they build, for the vertices and
    arrows they lift, map and cut at: on the twelve ladder covers each
    algebra reads it at most ``6·(|Q₀| + |Q₁|)`` times (the most is 4.6
    times, on a split), whatever its dimension, and no crossed product
    keeps a label index."""
    built = []
    build = equivariant.graded_path_algebra

    def counted(pres, *args):
        alg = build(pres, *args)
        alg.vertex_index = CountedReads(alg.vertex_index)
        built.append(alg)
        return alg

    monkeypatch.setattr(equivariant, "graded_path_algebra", counted)
    for cov in _ladder_covers(cylinder_covers, disc_xx):
        for red in (verify_skew_group_reduction(cov), verify_dual_reduction(cov)):
            assert red.verdict.is_isomorphism and not hasattr(red.skew, "index_of")
    assert len(built) == 24
    for alg in built:
        pres = alg.presentation
        assert 0 < alg.vertex_index.read <= 6 * (len(pres.vertices) + len(pres.arrows))


def test_a_corner_whose_vertices_miss_an_orbit_is_bad_input(cylinder_covers):
    """The corner's idempotent must be full: its vertices meet every orbit
    of the symmetry, or ``_crossed_corner`` refuses them."""
    cov = cylinder_covers[1]
    lam = graded_path_algebra(cov.total_quiver.presentation)
    deck = equivariant.induced_basis_map(lam, cov.deck_generators)
    vertices = lam.presentation.vertices
    skew, corner = equivariant._crossed_corner(lam, deck, vertices)
    assert corner.dimension == skew.dimension  # e = 1⊗0 is the unit
    first = vertices[0]
    partner = lam.algebra.labels[deck.pi[index_of(lam.algebra)[(first, ())]]][0]
    with pytest.raises(ValidationError) as exc:
        equivariant._crossed_corner(lam, deck, [first])
    (diagnostic,) = exc.value.diagnostics
    assert diagnostic.code == BAD_INPUT
    missed = set(vertices) - {first, partner}
    assert missed and diagnostic.where == tuple(sorted(missed))


def test_unit_factors_sum_a_column_that_two_unit_terms_reach():
    """On span(b0, b1, b2) with b0·b2 = b1·b0 = b1·b2 = b0, b1·b1 = b1 and
    b2·b2 = b2 the unit is -b0 + b1 + b2, and all three of its terms reach
    the column of b2: 1·b2 = -b0 + b0 + b2.  The unit factors of the
    iterated check sum such a column, and agree with the oracle."""
    labels = ("b0", "b1", "b2")
    rows = [{2: (0, 1)}, {0: (0, 1), 1: (1, 1), 2: (0, 1)}, {2: (2, 1)}]
    A = TableAlgebra(labels, rows, {0: -1, 1: 1, 2: 1}, range(3))
    assert associative(A)
    for i in range(3):
        assert A.mul(A.unit, {i: 1}) == {i: 1} == A.mul({i: 1}, A.unit)
    identity = SignedPermutation(range(3), (1, 1, 1))
    rr = verify_iterated_skew_group(A, identity)
    assert rr.ok
    assert equivariant._blocks_multiplicative(A, rr.once, identity, A.unit)
    assert blocks_all_rows(A, rr.once, identity)
    # a unit factor row that breaks the sum fails both
    broken = TableAlgebra(
        labels, [{2: (0, 1)}, {0: (0, 1), 1: (1, 1)}, {2: (2, 1)}], A.unit, range(3)
    )
    once = skew_group_algebra(broken, identity)
    assert not equivariant._blocks_multiplicative(broken, once, identity, broken.unit)
    assert not blocks_all_rows(broken, once, identity)


def test_the_crossing_marks_every_index_unless_pi_permutes_the_generators(monkeypatch):
    """On 1 -a-> 2 -b-> 3 the swap of the arrows' basis elements permutes
    the generators, and the crossed product marks their two copies (the
    swap is not multiplicative, so the guard is bypassed), reading its
    products through the swap all the same.  On two copies of that quiver
    the swap of the copies is an involution; a table that declares the
    path ``a·b`` of one copy a generator, and not its image, passes the
    guard, and its crossing marks every index.  Neither stores a row."""
    pres = make_presentation("123", [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    A = graded_path_algebra(pres).algebra
    n = A.dimension
    assert list(A.generators) == [0, 1, 2, 3, 4] and n == 6
    swap_arrows = SignedPermutation((0, 1, 2, 4, 3, 5), (1,) * n)
    with monkeypatch.context() as m:
        _bypass_guard(m)
        skew = skew_group_algebra(A, swap_arrows)
    assert skew.generators == frozenset(range(5)) | frozenset(range(n, n + 5))
    _assert_stores_no_row(skew, A, swap_arrows)
    assert skew.table == _dense(crossed_rows(A, swap_arrows), 2 * n)
    copies = [Arrow("a", "1", "2"), Arrow("b", "2", "3")]
    copies += [Arrow("c", "4", "5"), Arrow("d", "5", "6")]
    alg = graded_path_algebra(make_presentation("123456", copies))
    half = dict(zip("123ab", "456cd"))
    swap = equivariant.induced_basis_map(alg, {**half, **{v: k for k, v in half.items()}})
    path = index_of(alg.algebra)[("1", ("a", "b"))]
    A = TableAlgebra(
        alg.algebra.labels, list(alg.algebra.rows), alg.algebra.unit,
        frozenset(alg.algebra.generators) | {path},
    )
    n = A.dimension
    assert verify_algebra_involution(A, swap) and swap.pi[path] not in A.generators
    skew = skew_group_algebra(A, swap)
    assert skew.generators == frozenset(range(2 * n))
    _assert_stores_no_row(skew, A, swap)


def test_renamed_arcs_give_isomorphisms_or_a_named_bad_input(tmp_path, capsys):
    """Arc 5 of ``one_orbifold_disc(5)`` renamed to an id the package
    derives: ``2.3``, the plain id of the arrow from arc 2 to arc 3, still
    gives two isomorphisms; ``1_0`` and ``1_1``, the halves of the split
    orbifold arc 1, give ``BAD_INPUT`` naming them from both reductions and
    exit 2 from the CLI, never a false verdict."""
    for name in ("2.3", "1_0", "1_1"):
        text = format_surface_file(SurfaceFile(one_orbifold_disc(5)))
        text = text.replace("arc 5 ", f"arc {name} ").replace("a:5:", f"a:{name}:")
        path = tmp_path / f"{name}.surf"
        path.write_text(text)
        cov = double_cover(parse_surface_file(text).surface)
        code = main(["skewgroup", str(path)])
        out, err = capsys.readouterr()
        if name == "2.3":
            assert verify_skew_group_reduction(cov).verdict.is_isomorphism
            assert verify_dual_reduction(cov).verdict.is_isomorphism
            assert code == 0 and err == ""
            assert "reduction is isomorphism: True\ndual reduction is isomorphism: True" in out
            continue
        for reduction in (verify_skew_group_reduction, verify_dual_reduction):
            with pytest.raises(ValidationError) as exc:
                reduction(cov)
            assert [(d.code, d.where) for d in exc.value.diagnostics] == [(BAD_INPUT, (name,))]
        assert (code, out) == (2, "") and repr(name) in err
