from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from oracles import (
    CountedReads,
    SpanBasis,
    algebra_from_products,
    apply_map,
    associative,
    basis_labels,
    basis_map_from_permutation,
    companion_pair,
    corner_algebra,
    element,
    generated_dimension,
    generated_rank_modulo,
    generates,
    grading_signs,
    images_of,
    index_of,
    mat_rank,
    monomial_path_count,
    multiplicative,
    path_target,
    relabelled_basis_map,
    relation_spans,
    skew_group_table,
    verify_multiplicative,
    word_product,
    word_normal_forms,
    word_rows,
)
from skewgentle import (
    Arrow,
    CornerAlgebra,
    SignedPermutation,
    TableAlgebra,
    ValidationError,
    algebra_dimension,
    double_cover,
    extract_quiver,
    graded_path_algebra,
    make_presentation,
    one_orbifold_disc,
    quiver_from_dissection,
    quotient,
    random_gentle_pair,
    random_triple,
    skew_group_algebra,
    special_chain_triple,
    split_presentation,
    surface_from_gentle,
    surface_from_triple,
    triple_from_x_dissection,
    two_hole_torus_pair,
    two_hole_torus_surface,
    two_orbifold_cylinder,
    two_orbifold_disc,
    verify_algebra_involution,
    verify_deformation_map,
    verify_dual_reduction,
    verify_morphism,
    verify_skew_group_reduction,
)
from skewgentle.diagnostics import BAD_INPUT
from skewgentle import algebra as algebra_module
from skewgentle.algebra import _EchelonRank, vadd, vaxpy, veq, vscale, vsub
from skewgentle.equivariant import induced_basis_map

ONE = Fraction(1)


def _vec(**kw):
    return {k: Fraction(v) for k, v in kw.items()}


def _delta_algebra(labels):
    """Product of fields k x ... x k on the given idempotent labels."""
    return algebra_from_products(
        labels,
        lambda a, b: {a: ONE} if a == b else {},
        {lab: ONE for lab in labels},
    )


def test_vector_helpers_are_exact():
    x = _vec(a="1/3", b=2)
    y = _vec(a="2/3", c=-1)
    assert vadd(x, y) == _vec(a=1, b=2, c=-1)
    assert vsub(x, x) == {}
    assert vscale(x, Fraction(3)) == _vec(a=1, b=6)
    assert vaxpy(x, _vec(a="1/3"), Fraction(-1)) == _vec(b=2)
    assert veq(_vec(), {})


def test_span_basis_rank_matches_elimination_oracle():
    rng = random.Random(99)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(8)]
    span = SpanBasis()
    added = sum(
        span.add({j: c for j, c in enumerate(row) if c}) for row in rows
    )
    assert added == span.rank == mat_rank(rows)
    for row in rows:
        assert span.contains({j: c for j, c in enumerate(row) if c})


def test_span_basis_scales_rows_to_pivot_one_without_floats():
    span = SpanBasis()
    assert span.add({0: 2, 1: 1})
    row = span.rows[0]
    assert row == {0: 1, 1: Fraction(1, 2)}
    assert [type(c) for c in row.values()] == [int, Fraction]
    # an integral inverse pivot keeps the row in ``int``
    assert span.add({1: Fraction(1, 2), 2: 1})
    assert span.rows[1] == {1: 1, 2: 2}
    assert all(type(c) is int for c in span.rows[1].values())
    # an ``int`` row that its pivot divides is divided exactly
    span = SpanBasis()
    assert span.add({0: 2, 1: 4})
    assert span.rows[0] == {0: 1, 1: 2}
    assert [type(c) for c in span.rows[0].values()] == [int, int]


def _dense(row, width):
    return [Fraction(row.get(j, 0)) for j in range(width)]


def _check_span_invariants(span, added, width, probes):
    pivots = set(span.rows)
    for piv, row in span.rows.items():
        assert row[piv] == 1
        assert min(row, key=span.order) == piv
        assert set(row) & pivots == {piv}
        assert all(c for c in row.values())
    # the column index lists exactly the rows holding each non-pivot column
    held: dict = {}
    for piv, row in span.rows.items():
        for k in row:
            if k != piv:
                held.setdefault(k, set()).add(piv)
    assert {k: v for k, v in span.holders.items() if v} == held
    dense = [_dense(r, width) for r in added]
    assert span.rank == mat_rank(dense)
    for probe in probes:
        inside = mat_rank(dense + [_dense(probe, width)]) == mat_rank(dense)
        assert span.contains(probe) == inside


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("reverse", [False, True])
def test_span_basis_keeps_rref_and_agrees_with_oracle(kind, reverse):
    rng = random.Random(4201 + 2 * reverse + (kind == "fraction"))
    width = 7

    def coeff():
        if kind == "int":
            return rng.choice((-2, -1, 0, 0, 0, 1, 1, 3))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def random_row():
        return {j: c for j in range(width) if (c := coeff())}

    for _ in range(12):
        span = SpanBasis(order=(lambda k: -k) if reverse else None)
        added: list = []
        for _ in range(rng.randint(3, 10)):
            draw = rng.random()
            if added and draw < 0.2:  # a duplicate
                row = dict(rng.choice(added))
            elif len(added) >= 2 and draw < 0.45:  # reduces to zero
                row = {}
                for x in rng.sample(added, min(3, len(added))):
                    row = vaxpy(row, x, coeff() or 1)
            else:
                row = random_row()
            before = span.rank
            grew = span.add(row)
            added.append(row)
            assert grew == (span.rank == before + 1)
            probes = [random_row(), vadd(added[0], added[-1]), {}]
            _check_span_invariants(span, added, width, probes)


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_echelon_rank_agrees_with_span_basis(kind):
    """The rank-only count of ``verify_morphism`` grows exactly when
    ``SpanBasis`` does, on zero rows, rows sharing a lead index, rows that
    cancel in full and keys inserted in any order; an ``int`` input makes
    no ``Fraction``."""
    rng = random.Random(7301 + (kind == "fraction"))
    width = 8

    def coeff():
        if kind == "int":
            return rng.choice((-4, -2, -1, 0, 0, 0, 1, 2, 3))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def shuffled(row):
        items = list(row.items())
        rng.shuffle(items)
        return dict(items)

    for _ in range(40):
        echelon, span, added = _EchelonRank(), SpanBasis(), []
        lead = rng.randrange(width // 2)
        for _ in range(rng.randint(3, 12)):
            draw = rng.random()
            if draw < 0.1:
                row = {}
            elif added and draw < 0.3:  # a multiple of a sum of earlier rows
                row = {}
                for x in rng.sample(added, min(3, len(added))):
                    row = vaxpy(row, x, coeff() or 1)
                row = vscale(row, coeff() or -1)
            elif draw < 0.65:  # the shared lead index
                row = {lead: coeff() or 1}
                row.update((j, c) for j in range(lead + 1, width) if (c := coeff()))
            else:
                row = {j: c for j in range(width) if (c := coeff())}
            row = shuffled(row)
            assert echelon.add(row) == span.add(row)
            assert echelon.rank == span.rank
            added.append(row)
        assert echelon.rank == mat_rank([_dense(r, width) for r in added])
        assert all(min(row) == k and row[k] for k, row in echelon.rows.items())
        if kind == "int":
            assert {type(c) for row in echelon.rows.values() for c in row.values()} <= {int}
    # a zero kept in the input is dropped, not taken for a lead
    echelon = _EchelonRank()
    assert echelon.add({0: 0, 2: 1}) and echelon.add({0: 0, 1: 0, 3: 5})
    assert not echelon.add({0: 0, 2: 3, 3: -5}) and echelon.rank == 2


def test_verify_morphism_failures_are_pinned(cylinders):
    """Verdicts and failure strings on perturbed maps, in their order, as
    recorded when the span was still a ``SpanBasis`` and the vertex pairs
    were walked all against all.  The surjectivity failures give the rank
    of the span modulo the target's non-generators, which the oracle
    ``generated_rank_modulo`` also gives."""
    triple = triple_from_x_dissection(cylinders[1])
    alg = graded_path_algebra(triple)
    B = alg.algebra
    vertices = {v: alg.vertex(v) for v in triple.vertices}
    arrows = {a.id: alg.arrow(a.id) for a in triple.arrows}

    def run(domain, vertex_images, arrow_images, target, **kwargs):
        v = verify_morphism(domain, vertex_images, arrow_images, target, **kwargs)
        if v.is_homomorphism:  # onto as the full two-sided closure says
            images = [*vertex_images.values(), *arrow_images.values()]
            assert v.is_surjective == generates(target, images)
        return v.is_homomorphism, v.is_surjective, v.is_isomorphism, v.failures

    not_framed = "image of arrow {!r} is not framed by its endpoints".format
    not_orthogonal = "images of vertices {!r}, {!r} are not orthogonal".format
    not_onto = "images generate {} < {} dimensions of the target modulo its non-generators".format
    cases = [
        # a vertex image that is not idempotent
        (
            {**vertices, "1": vscale(vertices["1"], 2)}, arrows,
            (False, True, False, (
                "image of vertex '1' is not idempotent",
                "vertex images do not sum to the unit",
                not_framed("1.2"), not_framed("1.4"),
            )),
        ),
        # several pairs that are not orthogonal, each in both orders
        (
            {**vertices, "1": vadd(vertices["1"], vertices["2"]),
             "3": vadd(vertices["3"], vertices["2"])}, arrows,
            (False, True, False, (
                "vertex images do not sum to the unit",
                not_orthogonal("1", "2"), not_orthogonal("1", "3"),
                not_orthogonal("2", "1"), not_orthogonal("2", "3"),
                not_orthogonal("3", "1"), not_orthogonal("3", "2"),
            )),
        ),
        # a special loop off its square rule
        (
            vertices, {**arrows, "2.2": vscale(arrows["2.2"], 2)},
            (False, True, False, ("special loop '2.2' does not satisfy its square rule",)),
        ),
        # a homomorphism that is not onto: the message gives the rank
        (
            vertices, {**arrows, "1.2": {}},
            (True, False, False, (not_onto(13, 15),)),
        ),
    ]
    for vertex_images, arrow_images, expected in cases:
        assert run(triple, vertex_images, arrow_images, B, expected_dim=20) == expected

    # a relation that does not map to zero, into the free algebra
    pres = make_presentation(
        ["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")], [(("a", "b"),)]
    )
    free = graded_path_algebra(make_presentation(pres.vertices, pres.arrows, []))
    assert run(
        pres,
        {v: free.vertex(v) for v in pres.vertices},
        {a.id: free.arrow(a.id) for a in pres.arrows},
        free.algebra,
        expected_dim=5,
    ) == (False, True, False, (
        "relation (('a', 'b'),) does not map to zero",
        "domain dimension 5 differs from target dimension 6",
    ))

    # doubled images into a reduction's corner, with scale=2
    red = verify_skew_group_reduction(double_cover(cylinders[1]))
    split = red.domain
    doubled_vertices = {v: red.doubled[v] for v in split.vertices}
    doubled_arrows = {a.id: red.doubled[a.id] for a in split.arrows}
    merged = {
        **doubled_vertices,
        "1": vadd(doubled_vertices["1"], doubled_vertices["2_1"]),
        "3_0": {},
    }
    assert run(
        split, merged, doubled_arrows, red.corner, expected_dim=20, scale=2
    ) == (False, True, False, (
        "vertex images do not sum to the unit",
        not_orthogonal("1", "2_1"), not_orthogonal("2_1", "1"),
        not_framed("3.4^0"), not_framed("^02.3^0"), not_framed("^02.3^1"),
    ))
    assert run(
        split, doubled_vertices, {**doubled_arrows, "3.4^0": {}}, red.corner,
        expected_dim=20, scale=2,
    ) == (False, False, False, (
        "relation (('^02.3^0', '3.4^0'), ('^12.3^0', '3.4^1')) does not map to zero",
        "relation (('^02.3^1', '3.4^0'), ('^12.3^1', '3.4^1')) does not map to zero",
        not_onto(14, 15),
    ))


def test_product_of_fields_is_associative():
    A = _delta_algebra(["p", "q"])
    assert A.dimension == 2
    assert associative(A)
    p, q = element(A, "p"), element(A, "q")
    assert A.mul(p, q) == {}
    assert veq(A.mul(p, p), p)
    assert A.rows == [{0: (0, 1)}, {1: (1, 1)}]


def test_hand_made_product_of_two_terms_is_refused():
    """A table cell holds one term, so the builder names a product of
    two and refuses it."""
    with pytest.raises(ValueError, match=r"product of 'x' and 'x' has 2 terms"):
        algebra_from_products(
            ["e", "x"],
            lambda a, b: {"e": ONE, "x": ONE} if a == b == "x" else {a if b == "e" else b: ONE},
            {"e": ONE},
        )


def test_verify_associativity_rejects_broken_table():
    # e is a unit; x*x = y but x*y != y*x breaks (x*x)*x == x*(x*x)
    def prod(a, b):
        if a == "e":
            return {b: ONE}
        if b == "e":
            return {a: ONE}
        if (a, b) == ("x", "x"):
            return {"y": ONE}
        if (a, b) == ("y", "x"):
            return {"y": ONE}
        return {}

    A = algebra_from_products(["e", "x", "y"], prod, {"e": ONE})
    assert not associative(A)


def test_verify_associativity_catches_a_failure_behind_a_zero_left_product():
    # e is a unit, b*c = d and a*d = f, and every other product of
    # non-units is zero.  The one failing triple is (a, b, c): a*b = 0, so
    # (a*b)*c = 0, while a*(b*c) = a*d = f.
    products = {("b", "c"): "d", ("a", "d"): "f"}

    def prod(x, y):
        if x == "e":
            return {y: ONE}
        if y == "e":
            return {x: ONE}
        return {products[(x, y)]: ONE} if (x, y) in products else {}

    labels = ["e", "a", "b", "c", "d", "f"]
    A = algebra_from_products(labels, prod, {"e": ONE})
    basis = {lab: element(A, lab) for lab in labels}
    failing = [
        (x, y, z)
        for x in labels
        for y in labels
        for z in labels
        if A.mul(A.mul(basis[x], basis[y]), basis[z])
        != A.mul(basis[x], A.mul(basis[y], basis[z]))
    ]
    assert failing == [("a", "b", "c")]
    assert A.mul(basis["a"], basis["b"]) == {}
    assert not associative(A)


def test_linear_quiver_graded_dimensions():
    pres = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3")],
        [(("a", "b"),)],
    )
    alg = graded_path_algebra(pres)
    assert alg.dimension == 5  # three vertices + two arrows, ba = 0
    assert _graded_dimensions(alg) == (3, 2, 0)


def test_composition_applies_second_argument_first():
    pres = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3")],
        [],
    )
    alg = graded_path_algebra(pres)
    ab = alg.reduce(("1", ("a", "b")))
    assert ab
    assert veq(alg.algebra.mul(alg.arrow("b"), alg.arrow("a")), ab)
    assert veq(alg.algebra.mul(alg.arrow("a"), alg.arrow("b")), {})


def test_reduce_rejects_noncomposable_word():
    pres = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3")],
        [],
    )
    alg = graded_path_algebra(pres)
    with pytest.raises(ValidationError) as exc:
        alg.reduce(("1", ("b", "a")))
    (diagnostic,) = exc.value.diagnostics
    assert diagnostic.code == BAD_INPUT and "not composable" in diagnostic.message
    for read, arg, message in [
        (alg.reduce, ("zz", ()), "path ('zz', ()) starts at an unknown vertex"),
        (alg.reduce, ("1", ("zz",)), "path ('1', ('zz',)) is not composable in the quiver"),
        (alg.vertex, "zz", "path ('zz', ()) starts at an unknown vertex"),
        (alg.arrow, "zz", "unknown arrow 'zz'"),
    ]:
        with pytest.raises(ValidationError) as exc:
            read(arg)
        assert [(d.code, d.message) for d in exc.value.diagnostics] == [(BAD_INPUT, message)]


def test_relabelling_onto_a_noncomposable_word_is_bad_input():
    # 1 -a-> 2 -b-> 3 and c: 1 -> 3; swapping a and c sends the basis path
    # a·b to c·b, which does not compose
    pres = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")],
        [],
    )
    alg = graded_path_algebra(pres)
    swap = {"1": "1", "2": "2", "3": "3", "a": "c", "b": "b", "c": "a"}
    with pytest.raises(ValidationError) as exc:
        induced_basis_map(alg, swap)
    (diagnostic,) = exc.value.diagnostics
    assert diagnostic.code == BAD_INPUT
    assert diagnostic.message == "path ('1', ('c', 'b')) is not composable in the quiver"


@pytest.mark.parametrize(
    "vertices, arrows, relations, finding",
    [
        ("1", [("a", "1", "2")], [], ("UNKNOWN_ID", "arrow 'a' endpoint '2' unknown")),
        (
            "123",
            [("a", "1", "2"), ("b", "2", "3")],
            [(("a", "z"),)],
            ("UNKNOWN_ID", "relation mentions unknown arrow 'z'"),
        ),
        (
            "1234",
            [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
            [(("a", "b", "c"),)],
            (BAD_INPUT, "relation path ('a', 'b', 'c') is not quadratic"),
        ),
        (
            "123",
            [("a", "1", "2"), ("b", "1", "3")],
            [(("a", "b"),)],
            (BAD_INPUT, "relation path ('a','b') is not composable"),
        ),
        (
            # a·b + a·c = 0 ties a path ending at 3 to one ending at 4
            "1234",
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")],
            [(("a", "b"), ("a", "c"))],
            (BAD_INPUT, "relation (('a', 'b'), ('a', 'c')) sums paths that are not parallel"),
        ),
        # the generator maps key vertices and arrows in one dict
        ("12", [("1", "1", "2")], [], (BAD_INPUT, "id '1' names both a vertex and an arrow")),
    ],
    ids=[
        "unknown-endpoint", "unknown-arrow", "cubic", "not-composable", "not-parallel",
        "vertex-and-arrow",
    ],
)
def test_graded_path_algebra_refuses_a_malformed_presentation(
    vertices, arrows, relations, finding
):
    pres = make_presentation(vertices, [Arrow(*a) for a in arrows], relations)
    with pytest.raises(ValidationError) as exc:
        graded_path_algebra(pres)
    assert [(d.code, d.message) for d in exc.value.diagnostics] == [finding]


def test_paths_that_never_vanish_raise_not_stabilized():
    loop = make_presentation(["1"], [Arrow("x", "1", "1")])
    with pytest.raises(ValidationError) as exc:
        graded_path_algebra(loop)
    assert [d.code for d in exc.value.diagnostics] == ["NOT_STABILIZED"]


def _assert_matches_word_products(triple, value):
    values = {e: Fraction(value) for e in triple.special}
    alg = graded_path_algebra(triple, values)
    labels = alg.algebra.labels
    table = alg.algebra.table
    assert len(labels) == monomial_path_count(triple, nilpotent_loops=triple.special)
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            cell = {labels[k]: c for k, c in table[i][j].items()}
            assert cell == word_product(triple, values, x, y), (x, y)
    assert {labels[k]: c for k, c in alg.algebra.unit.items()} == {
        (v, ()): ONE for v in triple.vertices
    }


def test_triple_tables_match_word_products_on_ladder_fixtures():
    surfaces = [two_orbifold_cylinder(v) for v in (1, 2, 3, 4)]
    surfaces.append(two_orbifold_disc())
    surfaces += [one_orbifold_disc(n) for n in range(4, 15)]
    for surface in surfaces:
        for value in (1, 5, 0):
            _assert_matches_word_products(triple_from_x_dissection(surface), value)


def test_triple_tables_match_word_products_on_random_triples():
    rng = random.Random(6011)
    for _ in range(40):
        triple = random_triple(rng)
        for value in (1, 5, 0):
            _assert_matches_word_products(triple, value)


def test_reduce_kills_relations_and_collapses_special_loops(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    assert (("1.2", "2.3"),) in triple.relations and "2.2" in triple.special
    alg = graded_path_algebra(triple, {e: Fraction(5) for e in triple.special})
    assert alg.reduce(("1", ("1.2", "2.3"))) == {}
    assert alg.reduce(("1", ("1.2", "2.2", "2.3", "3.4"))) == {}
    collapsed = index_of(alg.algebra)[("1", ("1.2", "2.2"))]
    assert alg.reduce(("1", ("1.2", "2.2", "2.2"))) == {collapsed: Fraction(5)}
    assert alg.reduce(("1", ("1.2", "2.2", "2.2", "2.2"))) == {collapsed: Fraction(25)}
    with pytest.raises(ValidationError) as exc:
        alg.reduce(("1", ("2.2", "2.2")))
    assert [d.code for d in exc.value.diagnostics] == [BAD_INPUT]


def test_torus_pair_dimension_matches_path_enumeration():
    pres, _ = two_hole_torus_pair()
    assert graded_path_algebra(pres).dimension == monomial_path_count(pres) == 20


def test_reduced_cylinder_algebra_dimension(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    alg = graded_path_algebra(triple)
    assert alg.dimension == monomial_path_count(companion_pair(triple)) == 20


def test_reduced_basis_is_independent_of_loop_values(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    plain = graded_path_algebra(triple)
    scaled = graded_path_algebra(
        triple, {e: Fraction(5) for e in triple.special}
    )
    assert plain.algebra.labels == scaled.algebra.labels


def test_special_loops_square_to_assigned_multiple(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    plain = graded_path_algebra(triple)
    scaled = graded_path_algebra(
        triple, {e: Fraction(3) for e in triple.special}
    )
    for e in triple.special:
        x = plain.arrow(e)
        assert veq(plain.algebra.mul(x, x), x)
        y = scaled.arrow(e)
        assert veq(scaled.algebra.mul(y, y), vscale(y, Fraction(3)))


def test_two_term_relations_vanish_in_split_algebra(cylinders):
    split = split_presentation(triple_from_x_dissection(cylinders[1])).presentation
    alg = graded_path_algebra(split)
    for rel in split.relations:
        total: dict = {}
        for path in rel:
            src = split.arrow_by_id[path[0]].source
            total = vadd(total, alg.reduce((src, path)))
        assert total == {}



def _graded_dimensions(alg) -> tuple:
    """The number of basis paths of each length, counted from the labels,
    up to the first length with none."""
    lengths = [len(word) for _, word in alg.algebra.labels]
    return tuple(map(lengths.count, range(max(lengths) + 2)))


def _assert_normal_forms_span_the_relations(pres):
    """Each normal form against the relation span built by the oracle: the
    graded dimensions counted from the labels agree, every basis path is
    an enumerated word, every enumerated path ``p`` that ``reduce`` sends
    to ``s·r`` has ``p - s·r`` in the span, and every vanishing path lies
    in it."""
    alg = graded_path_algebra(pres)
    spans = relation_spans(pres)
    assert _graded_dimensions(alg) == tuple(len(words) - span.rank for words, span in spans)
    labels = alg.algebra.labels
    assert set(labels) <= {p for words, _ in spans for p in words}
    for words, span in spans:
        for p in words:
            nf = alg.reduce(p)
            if not nf:
                assert span.contains({p: 1}), p
                continue
            ((r, s),) = nf.items()
            assert type(s) is int and s in (1, -1)
            if labels[r] == p:
                assert s == 1
            else:
                assert span.contains({p: 1, labels[r]: -s}), p
    return alg


def test_normal_forms_span_the_relations_on_fixtures(cylinders, disc, disc_xx):
    triples = [triple_from_x_dissection(s) for s in cylinders.values()]
    triples += [triple_from_x_dissection(disc_xx), special_chain_triple()]
    triples += [triple_from_x_dissection(one_orbifold_disc(n)) for n in (4, 5, 8)]
    for triple in triples:
        _assert_normal_forms_span_the_relations(triple)
        _assert_normal_forms_span_the_relations(split_presentation(triple).presentation)
    _assert_normal_forms_span_the_relations(two_hole_torus_pair()[0])
    _assert_normal_forms_span_the_relations(quiver_from_dissection(disc))


def test_normal_forms_span_the_relations_on_ladder_covers(cylinder_covers, disc_xx):
    covers = list(cylinder_covers.values())
    covers.append(double_cover(disc_xx))
    covers.append(quotient(*two_hole_torus_surface()))
    covers += [double_cover(one_orbifold_disc(n)) for n in (4, 6, 8, 10, 12, 14)]
    assert len(covers) == 12
    for cov in covers:
        _assert_normal_forms_span_the_relations(cov.split.presentation)
        _assert_normal_forms_span_the_relations(cov.total_quiver.presentation)


def test_normal_forms_span_the_relations_on_random_splits():
    rng = random.Random(3107)
    tied = 0
    for _ in range(200):
        split = split_presentation(random_triple(rng)).presentation
        _assert_normal_forms_span_the_relations(split)
        tied += any(len(rel) == 2 for rel in split.relations)
    assert tied > 50


def _vanishing(vertices, arrows, relations):
    pres = make_presentation(vertices, [Arrow(*a) for a in arrows], relations)
    alg = _assert_normal_forms_span_the_relations(pres)
    zeros = {p for words, _ in relation_spans(pres) for p in words if not alg.reduce(p)}
    return alg, zeros


def test_a_piece_that_meets_zero_vanishes():
    # a·b + a·c = 0 and b·d = 0, so a·c·d = -a·b·d = 0
    arrows = [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "3"), ("d", "3", "4")]
    alg, zeros = _vanishing("1234", arrows, [(("a", "b"), ("a", "c")), (("b", "d"),)])
    assert _graded_dimensions(alg) == (4, 4, 2, 0)
    assert zeros == {("1", ("a", "c", "d"))}
    ab = index_of(alg.algebra)[("1", ("a", "b"))]
    assert alg.reduce(("1", ("a", "c"))) == {ab: -1}


def test_a_piece_with_an_odd_cycle_of_ties_vanishes():
    # a·b = -a·c = a·d = -a·b, so 2·a·b = 0
    arrows = [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "3"), ("d", "2", "3")]
    relations = [(("a", "b"), ("a", "c")), (("a", "c"), ("a", "d")), (("a", "b"), ("a", "d"))]
    alg, zeros = _vanishing("123", arrows, relations)
    assert _graded_dimensions(alg) == (3, 4, 0)
    assert zeros == {("1", ("a", "b")), ("1", ("a", "c")), ("1", ("a", "d"))}


def test_a_repeated_path_summed_to_zero_vanishes():
    arrows = [("a", "1", "2"), ("b", "2", "3")]
    alg, zeros = _vanishing("123", arrows, [(("a", "b"), ("a", "b"))])
    assert _graded_dimensions(alg) == (3, 2, 0)
    assert zeros == {("1", ("a", "b"))}


def test_corner_of_unit_is_whole_algebra():
    pres, _ = two_hole_torus_pair()
    alg = graded_path_algebra(pres)
    corner = corner_algebra(alg.algebra, dict(alg.algebra.unit))
    assert corner.algebra.dimension == alg.dimension
    assert associative(corner.algebra)


def test_corner_at_one_vertex_collects_loops_only():
    pres, _ = two_hole_torus_pair()
    alg = graded_path_algebra(pres)
    v = pres.vertices[0]
    corner = corner_algebra(alg.algebra, alg.vertex(v))
    # basis paths from v to v
    expected = sum(
        1
        for src, word in alg.algebra.labels
        if src == v
        and (word == () or pres.arrow_by_id[word[-1]].target == v)
    )
    assert corner.algebra.dimension == expected
    assert corner.express(alg.vertex(v)) is not None
    other = pres.vertices[1]
    assert corner.express(alg.vertex(other)) is None


def test_skew_group_construction_doubles_dimension():
    k = _delta_algebra(["e"])
    ident = basis_map_from_permutation(k, {"e": "e"})
    assert verify_algebra_involution(k, ident)
    kk = skew_group_algebra(k, ident)
    assert kk.dimension == 2
    assert associative(kk)


def test_skew_group_of_swap_on_k_squared():
    A = _delta_algebra(["p", "q"])
    swap = basis_map_from_permutation(A, {"p": "q", "q": "p"})
    assert verify_algebra_involution(A, swap)
    B = skew_group_algebra(A, swap)
    assert B.dimension == 4
    assert associative(B)


def test_skew_group_algebra_guards_and_keeps_one_crossing():
    """A map that is not an algebra involution raises ``NOT_INVOLUTION``
    and keeps nothing; an involution is crossed once, and an equal action
    made afresh finds the same table."""
    k = _delta_algebra(["e"])
    neg = basis_map_from_permutation(k, {"e": "e"}, signs={"e": -1})
    with pytest.raises(ValidationError) as exc:
        skew_group_algebra(k, neg)
    assert [d.code for d in exc.value.diagnostics] == ["NOT_INVOLUTION"]
    assert k._crossed == {}
    A = _delta_algebra(["p", "q"])
    swap = basis_map_from_permutation(A, {"p": "q", "q": "p"})
    B = skew_group_algebra(A, swap)
    assert skew_group_algebra(A, SignedPermutation(list(swap.pi), list(swap.sigma))) is B
    assert A._crossed == {swap: B}


def test_tables_and_corners_name_their_generators():
    for cls in (TableAlgebra, CornerAlgebra):
        (gens,) = (f for f in dataclasses.fields(cls) if f.name == "generators")
        assert gens.default is dataclasses.MISSING and not hasattr(cls, "__post_init__")


def test_involution_verifier_rejects_sign_flip_of_unit():
    k = _delta_algebra(["e"])
    neg = basis_map_from_permutation(k, {"e": "e"}, signs={"e": -1})
    assert not verify_algebra_involution(k, neg)


def test_involution_verifier_rejects_non_multiplicative_map():
    pres, _ = two_hole_torus_pair()
    alg = graded_path_algebra(pres)
    labels = alg.algebra.labels
    # fix vertices, kill nothing, but send one arrow basis path to another
    # of different source: not an algebra map
    perm = {lab: lab for lab in labels}
    arrows = [lab for lab in labels if len(lab[1]) == 1]
    a, b = arrows[0], arrows[1]
    perm[a], perm[b] = b, a
    act = basis_map_from_permutation(alg.algebra, perm)
    assert not verify_algebra_involution(alg.algebra, act)


def test_verify_multiplicative_fails_where_only_a_zero_cell_is_wrong():
    # p*q = 0 in k x k, but f(p)*f(q) = p*p = p
    A = _delta_algebra(["p", "q"])
    f = [{0: 1}, {0: 1}]
    assert apply_map(f, A.table[0][0]) == A.mul(f[0], f[0])
    assert apply_map(f, A.table[1][1]) == A.mul(f[1], f[1])
    assert not verify_multiplicative(A, A, f)
    assert not multiplicative(A, A, f)


def test_verify_multiplicative_fails_where_only_a_nonzero_cell_is_wrong():
    # every zero cell maps to zero, but f(q*q) = -q while f(q)*f(q) = q
    A = _delta_algebra(["p", "q"])
    f = [{0: 1}, {1: -1}]
    assert A.mul(f[0], f[1]) == A.mul(f[1], f[0]) == {}
    assert not verify_multiplicative(A, A, f)
    assert not multiplicative(A, A, f)


def test_verify_multiplicative_matches_all_pairs_oracle_on_random_covers():
    rng = random.Random(8803)
    verdicts = []
    for _ in range(12):
        cov = double_cover(surface_from_triple(random_triple(rng)))
        alg = graded_path_algebra(cov.total_quiver.presentation)
        A = alg.algebra
        deck = images_of(induced_basis_map(alg, cov.deck_generators))
        n = A.dimension
        candidates = [deck, [{i: 1} for i in range(n)]]
        for _ in range(4):
            images = [dict(img) for img in deck]
            i, j = rng.randrange(n), rng.randrange(n)
            move = rng.randrange(3)
            if move == 0:
                images[i] = vscale(images[i], -1)
            elif move == 1:
                images[i], images[j] = images[j], images[i]
            else:
                images[i] = vadd(images[i], images[j])
            candidates.append(images)
        for images in candidates:
            verdict = verify_multiplicative(A, A, images)
            assert verdict == multiplicative(A, A, images)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_verify_multiplicative_ignores_explicit_zero_coefficients():
    """Images holding ``{k: 0}`` entries give the oracle's verdict, true or
    false: a zero coefficient is no term of a one-term image."""
    # k x k with f(q) = 0 is multiplicative; with f(q) = p it is not
    A = _delta_algebra(["p", "q"])
    candidates = [(A, [{0: 1, 1: 0}, {1: 0}]), (A, [{0: 1, 1: 0}, {0: 1, 1: 0}])]
    rng = random.Random(8804)
    for _ in range(6):
        cov = double_cover(surface_from_triple(random_triple(rng)))
        alg = graded_path_algebra(cov.total_quiver.presentation)
        n = alg.dimension
        deck = images_of(induced_basis_map(alg, cov.deck_generators))
        i, j = rng.sample(range(n), 2)
        swapped = list(deck)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for images in (deck, swapped):
            padded = [dict(img) for img in images]
            for img in padded:
                img.setdefault(rng.randrange(n), 0)
            candidates.append((alg.algebra, padded))
    verdicts = []
    for B, images in candidates:
        assert any(0 in img.values() for img in images)
        verdict = verify_multiplicative(B, B, images)
        assert verdict == multiplicative(B, B, images)
        verdicts.append(verdict)
    assert verdicts[:2] == [True, False]
    assert True in verdicts[2:] and False in verdicts[2:]


def test_verify_morphism_vertex_failures_match_pairwise_products(cylinders):
    """The idempotent, unit and orthogonality failures, in their order, are
    the ones read off the products of the vertex images pair by pair."""
    triple = triple_from_x_dissection(cylinders[1])
    alg = graded_path_algebra(triple)
    B, vertices = alg.algebra, triple.vertices
    arrows = {a.id: alg.arrow(a.id) for a in triple.arrows}
    rng = random.Random(8805)
    seen = set()

    def image():
        # a vertex, a sum of two vertices, or a vertex plus an arrow, whose
        # products with the others depend on their order
        out = alg.vertex(rng.choice(vertices))
        move = rng.randrange(3)
        if move == 1:
            out = vadd(out, alg.vertex(rng.choice(vertices)))
        elif move == 2:
            out = vadd(out, rng.choice(list(arrows.values())))
        return out

    for _ in range(20):
        images = {v: image() for v in vertices}
        expected = [
            f"image of vertex {v!r} is not idempotent"
            for v in vertices
            if not veq(B.mul(images[v], images[v]), images[v])
        ]
        total = {}
        for v in vertices:
            total = vadd(total, images[v])
        if not veq(total, B.unit):
            expected.append("vertex images do not sum to the unit")
        expected += [
            f"images of vertices {u!r}, {v!r} are not orthogonal"
            for u in vertices
            for v in vertices
            if u != v and B.mul(images[u], images[v])
        ]
        verdict = verify_morphism(triple, images, arrows, B, expected_dim=B.dimension)
        assert [f for f in verdict.failures if "vert" in f] == expected
        seen.update(f.split(" ")[-1] for f in expected)
    assert {"idempotent", "unit", "orthogonal"} <= seen


def test_verify_morphism_accepts_identity(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    alg = graded_path_algebra(triple)
    verdict = verify_morphism(
        triple,
        {v: alg.vertex(v) for v in triple.vertices},
        {a.id: alg.arrow(a.id) for a in triple.arrows},
        alg.algebra,
        expected_dim=alg.dimension,
    )
    assert verdict.is_homomorphism
    assert verdict.is_surjective
    assert verdict.is_isomorphism
    assert verdict.failures == ()


def test_verify_morphism_flags_broken_relation():
    pres = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3")],
        [(("a", "b"),)],
    )
    free = make_presentation(pres.vertices, pres.arrows, [])
    target = graded_path_algebra(free)
    verdict = verify_morphism(
        pres,
        {v: target.vertex(v) for v in pres.vertices},
        {a.id: target.arrow(a.id) for a in pres.arrows},
        target.algebra,
        expected_dim=5,
    )
    assert not verdict.is_homomorphism
    assert verdict.failures


def test_verify_morphism_names_the_generators_without_an_image(cylinders):
    cov = double_cover(cylinders[1])
    corner = verify_skew_group_reduction(cov).corner
    split = cov.split.presentation
    for vertex_images, arrow_images, missing in (
        ({}, {}, list(split.vertices) + [a.id for a in split.arrows]),
        (dict.fromkeys(split.vertices, {}), {}, [a.id for a in split.arrows]),
        ({}, dict.fromkeys((a.id for a in split.arrows), {}), list(split.vertices)),
    ):
        with pytest.raises(ValidationError) as exc:
            verify_morphism(split, vertex_images, arrow_images, corner, 3)
        (diagnostic,) = exc.value.diagnostics
        assert diagnostic.code == BAD_INPUT
        assert diagnostic.where == tuple(missing)
        assert repr(missing) in diagnostic.message


def test_deformation_invertible_values_give_isomorphisms(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    for t in (2, 3, -1, Fraction(1, 2)):
        verdict = verify_deformation_map(triple, Fraction(t))
        assert verdict.is_homomorphism
        assert verdict.is_isomorphism


def test_deformation_refuses_a_triple_that_is_not_skew_gentle():
    bad = make_presentation(["1", "2"], [Arrow("e", "1", "2")], [], special={"e"})
    with pytest.raises(ValidationError) as exc:
        verify_deformation_map(bad, Fraction(2))
    assert [d.code for d in exc.value.diagnostics] == ["BAD_INPUT"]


def test_deformation_zero_value_is_not_surjective(cylinders):
    """At value 0 the special loops map to zero; the rank in the failure
    is the dimension of the subalgebra the images generate modulo the span
    of the paths with two ordinary arrows, against the number of the
    other basis paths, the generators."""
    for surface in (cylinders[1], one_orbifold_disc(4)):
        triple = triple_from_x_dissection(surface)
        verdict = verify_deformation_map(triple, Fraction(0))
        assert verdict.is_homomorphism
        assert not verdict.is_surjective
        assert not verdict.is_isomorphism
        base = graded_path_algebra(triple)
        gens = [base.vertex(v) for v in triple.vertices]
        gens += [{} if a.id in triple.special else base.arrow(a.id) for a in triple.arrows]
        assert generated_dimension(base.algebra, gens) < base.dimension
        kept = base.algebra.generators
        generated = generated_rank_modulo(base.algebra, gens, kept)
        assert verdict.failures == (
            f"images generate {generated} < {len(kept)} dimensions of the target "
            "modulo its non-generators",
        )


def test_disc_cover_pair_dimension():
    cov = double_cover(one_orbifold_disc(4))
    pair = quiver_from_dissection(cov.total)
    assert graded_path_algebra(pair).dimension == monomial_path_count(pair) == 19


def _assert_closed_form_on_cover(cov):
    """The closed form matches path enumeration on base (special loops
    squaring to zero) and total, and the split algebra of the base."""
    triple = extract_quiver(cov.base).presentation
    pair = extract_quiver(cov.total).presentation
    base_dim = algebra_dimension(cov.base)
    assert base_dim == monomial_path_count(triple, nilpotent_loops=triple.special)
    assert base_dim == graded_path_algebra(split_presentation(triple).presentation).dimension
    assert algebra_dimension(cov.total) == monomial_path_count(pair)


def test_closed_form_dimension_matches_random_gentle_pairs():
    rng = random.Random(4101)
    for _ in range(60):
        pair = random_gentle_pair(rng)
        assert algebra_dimension(surface_from_gentle(pair)) == monomial_path_count(pair)


def test_closed_form_dimension_matches_random_triples_and_covers():
    rng = random.Random(4102)
    for _ in range(60):
        surface = surface_from_triple(random_triple(rng))
        _assert_closed_form_on_cover(double_cover(surface))


def test_closed_form_dimension_matches_ladder_fixtures():
    bases = [two_orbifold_cylinder(v) for v in (1, 2, 3, 4)]
    bases.append(two_orbifold_disc())
    bases += [one_orbifold_disc(n) for n in (4, 6, 8, 10, 12, 14)]
    for base in bases:
        _assert_closed_form_on_cover(double_cover(base))
    _assert_closed_form_on_cover(quotient(*two_hole_torus_surface()))


def _assert_matches_skew_group_oracle(A, act):
    skew = skew_group_algebra(A, act)
    expected = skew_group_table(A, images_of(act))
    assert len(skew.labels) == 2 * A.dimension
    assert {(x, y) for x in skew.labels for y in skew.labels} == set(expected)
    table = skew.table
    for i, x in enumerate(skew.labels):
        for j, y in enumerate(skew.labels):
            cell = {skew.labels[k]: c for k, c in table[i][j].items()}
            assert cell == expected[(x, y)], (x, y)
    assert {skew.labels[k]: c for k, c in skew.unit.items()} == {
        (A.labels[k], 0): c for k, c in A.unit.items()
    }
    return skew


def _assert_crossed_products_match_oracle(cov, twice=False):
    """The deck action on the cover algebra and, on the dual side, the
    signed half-swap on the split algebra."""
    lam = graded_path_algebra(cov.total_quiver.presentation)
    deck = induced_basis_map(lam, cov.deck_generators)
    dual = verify_dual_reduction(cov)
    for A, act in ((lam.algebra, deck), (dual.split_algebra.algebra, dual.swap_action)):
        once = _assert_matches_skew_group_oracle(A, act)
        if twice:
            _assert_matches_skew_group_oracle(once, grading_signs(once))


def test_skew_group_algebra_matches_oracle_on_ladder_fixtures():
    for v in (1, 2, 3, 4):
        _assert_crossed_products_match_oracle(
            double_cover(two_orbifold_cylinder(v)), twice=v == 1
        )
    _assert_crossed_products_match_oracle(double_cover(two_orbifold_disc()), twice=True)
    _assert_crossed_products_match_oracle(quotient(*two_hole_torus_surface()))
    for n in range(4, 9):
        _assert_crossed_products_match_oracle(double_cover(one_orbifold_disc(n)))


def test_skew_group_algebra_matches_oracle_on_random_covers():
    rng = random.Random(2207)
    for _ in range(40):
        surface = surface_from_triple(random_triple(rng))
        _assert_crossed_products_match_oracle(double_cover(surface))


def test_skew_group_algebra_matches_oracle_on_signed_non_involutions(monkeypatch, cylinders):
    # With its guard bypassed the crossing builds a table for any signed
    # permutation: a signed 3-cycle, and the deck action with the image of
    # one moved element negated, so s²(b) = -b.
    A = _delta_algebra(["p", "q", "r"])
    cycle = basis_map_from_permutation(
        A, {"p": "q", "q": "r", "r": "p"}, signs={"p": -1, "r": -1}
    )
    cov = double_cover(cylinders[1])
    lam = graded_path_algebra(cov.total_quiver.presentation)
    deck = induced_basis_map(lam, cov.deck_generators)
    k = next(j for j, p in enumerate(deck.pi) if p != j)
    sigma = list(deck.sigma)
    sigma[k] = -sigma[k]
    for B, act in ((A, cycle), (lam.algebra, SignedPermutation(deck.pi, sigma))):
        assert -1 in act.sigma
        assert not verify_algebra_involution(B, act)
        with monkeypatch.context() as m:
            m.setattr(algebra_module, "verify_algebra_involution", lambda A, act: True)
            _assert_matches_skew_group_oracle(B, act)


def test_skew_group_algebra_refuses_a_map_that_is_not_a_signed_permutation():
    # A symmetry is made only from a bijection π of the basis and signs
    # ±1, of equal lengths: rational coefficients, a coefficient other
    # than ±1, two elements sent to one, an index outside the basis and a
    # missing sign are refused where it is made.
    for pi, sigma in (
        ([0, 1], [Fraction(1, 2), 1]),
        ([1, 0], [1, 2]),
        ([0, 0], [1, 1]),
        ([2, 0], [1, 1]),
        ([1, 0], [1]),
    ):
        with pytest.raises(ValidationError) as exc:
            SignedPermutation(pi, sigma)
        assert [d.code for d in exc.value.diagnostics] == ["BAD_INPUT"]
    # a sign equal to ±1 is kept as ``int``
    act = SignedPermutation([1, 0], [ONE, -ONE])
    assert act == SignedPermutation((1, 0), (1, -1))
    assert {type(s) for s in act.sigma} == {int}
    # the crossing and the guard refuse a signed permutation of another size
    A = _delta_algebra(["p", "q"])
    for act in (SignedPermutation([0], [1]), SignedPermutation([2, 0, 1], [1, 1, 1])):
        for check in (skew_group_algebra, verify_algebra_involution):
            with pytest.raises(ValidationError) as exc:
                check(A, act)
            assert [d.code for d in exc.value.diagnostics] == ["BAD_INPUT"]


def test_involution_verifier_checks_pairs_with_zero_source_product():
    # k ⊕ V with V = span(x, y) squaring to zero.  The map x -> 1 - x has
    # order two, fixes the unit and respects every product with a nonzero
    # source; it fails only on x*x and x*y, whose source products are zero.
    # It is not a signed permutation, so no symmetry can be made of it.
    def prod(a, b):
        if a == "1":
            return {b: ONE}
        if b == "1":
            return {a: ONE}
        return {}

    A = algebra_from_products(["1", "x", "y"], prod, {"1": ONE})
    act = [{0: ONE}, {0: ONE, 1: -ONE}, {2: ONE}]
    assert veq(apply_map(act, apply_map(act, {1: ONE})), {1: ONE})
    assert veq(apply_map(act, A.unit), A.unit)
    table = A.table
    assert all(
        veq(apply_map(act, table[i][j]), A.mul(act[i], act[j]))
        for i in range(3)
        for j in range(3)
        if table[i][j]
    )
    assert not multiplicative(A, A, act)
    # A signed permutation is checked on its nonzero cells, which is enough
    # for a bijection.  On k × k the map p, q -> p respects both nonzero
    # cells and fails only on the zero products p*q and q*p; it is not a
    # bijection, so it is refused where it would be made.
    kk = _delta_algebra(["p", "q"])
    collapse = [{0: 1}, {0: 1}]
    assert all(
        veq(apply_map(collapse, cell), kk.mul(collapse[i], collapse[i]))
        for i, cell in ((0, kk.table[0][0]), (1, kk.table[1][1]))
    )
    assert not multiplicative(kk, kk, collapse)
    with pytest.raises(ValidationError) as exc:
        SignedPermutation([0, 0], [1, 1])
    assert [d.code for d in exc.value.diagnostics] == ["BAD_INPUT"]


def test_corner_refuses_an_element_that_is_not_idempotent():
    pres, _ = two_hole_torus_pair()
    A = graded_path_algebra(pres).algebra
    with pytest.raises(ValueError, match="does not square to itself"):
        corner_algebra(A, vscale(A.unit, 2))


def test_corner_refuses_an_idempotent_that_mixes_basis_elements():
    # Upper-triangular 2x2 matrices: e = e11 + e12 squares to itself, but
    # e * e11 * e = e11 + e12 is neither e11 nor 0.
    units = {("11", "11"): "11", ("11", "12"): "12", ("12", "22"): "12", ("22", "22"): "22"}

    def prod(a, b):
        return {units[(a, b)]: ONE} if (a, b) in units else {}

    A = algebra_from_products(["11", "12", "22"], prod, {"11": ONE, "22": ONE})
    assert associative(A)
    e = vadd(element(A, "11"), element(A, "12"))
    assert A.mul(e, e) == e
    assert A.mul(e, A.mul(element(A, "11"), e)) == e
    with pytest.raises(ValueError, match="neither b nor 0"):
        corner_algebra(A, e)


# ---------------------------------------------------------------------------
# The extension table against words


LOOP_VALUES = (1, 0, Fraction(3, 7))


def _assert_extension_fill_matches_words(pres, values=None):
    """The rows filled from the extension table equal the rows made by
    concatenating words (``oracles.word_rows``), column order included,
    and no cell holds a zero; every enumerated word reduces through the
    table to its normal form modulo the relation span
    (``oracles.word_normal_forms``), and each basis path to itself; the
    links of every basis path are its prefix and last arrow and its end,
    as its label gives them; and the generators are the basis paths with
    at most one ordinary arrow: the vertices and arrows, and with special
    loops paths such as ``e·a``."""
    alg = graded_path_algebra(pres, values)
    A = alg.algebra
    assert [list(row.items()) for row in A.rows] == [list(r.items()) for r in word_rows(alg)]
    assert all(c for row in A.rows for _, c in row.values())
    forms = word_normal_forms(alg)
    for key, nf in forms.items():
        assert alg.reduce(key) == nf, key
    index = index_of(A)
    assert all(forms[label] == {j: 1} for label, j in index.items())
    for j, (src, word) in enumerate(A.labels):
        assert alg.prefix[j] == ((index[(src, word[:-1])], word[-1]) if word else None)
        assert alg.target[j] == path_target(pres, (src, word))
    lengths = [len(word) for _, word in A.labels]
    ordinary = [sum(a not in pres.special for a in word) for _, word in A.labels]
    assert sorted(A.generators) == [i for i, n in enumerate(ordinary) if n <= 1]
    if not pres.special:
        assert list(A.generators) == [i for i, n in enumerate(lengths) if n <= 1]
    return alg


def _assert_triple_fills_match_words(triple):
    """A triple at each loop value, then its split presentation."""
    for value in LOOP_VALUES:
        _assert_extension_fill_matches_words(triple, {e: value for e in triple.special})
    _assert_extension_fill_matches_words(split_presentation(triple).presentation)


def _assert_cover_fills_match_words(cov):
    """The base, split and cover presentations, and the deck action and
    the signed half-swap against the relabelled words."""
    _assert_triple_fills_match_words(cov.base_quiver.presentation)
    lam = _assert_extension_fill_matches_words(cov.total_quiver.presentation)
    deck = induced_basis_map(lam, cov.deck_generators)
    assert [list(deck.pi), list(deck.sigma)] == list(
        relabelled_basis_map(lam, cov.deck_generators)
    )
    dual = verify_dual_reduction(cov)
    split, swap = dual.split_algebra, dual.swap_action
    # the sign of each arrow is the sign of its image
    signs = {w[0]: s for (_, w), s in zip(split.algebra.labels, swap.sigma) if len(w) == 1}
    assert [list(swap.pi), list(swap.sigma)] == list(
        relabelled_basis_map(split, cov.split.swap, signs)
    )


def test_extension_fill_matches_words_on_fixtures(cylinders, disc, disc_xx):
    triples = [triple_from_x_dissection(s) for s in cylinders.values()]
    triples += [triple_from_x_dissection(disc_xx), special_chain_triple()]
    triples += [triple_from_x_dissection(one_orbifold_disc(n)) for n in (4, 5, 8)]
    for triple in triples:
        _assert_triple_fills_match_words(triple)
    _assert_extension_fill_matches_words(two_hole_torus_pair()[0])
    _assert_extension_fill_matches_words(quiver_from_dissection(disc))


def test_extension_fill_matches_words_on_ladder_covers(cylinder_covers, disc_xx):
    covers = list(cylinder_covers.values())
    covers.append(double_cover(disc_xx))
    covers.append(quotient(*two_hole_torus_surface()))
    covers += [double_cover(one_orbifold_disc(n)) for n in (4, 6, 8, 10, 12, 14, 16, 24)]
    for cov in covers:
        _assert_cover_fills_match_words(cov)


def test_extension_fill_matches_words_on_random_draws():
    rng = random.Random(3209)
    for k in range(600):
        kwargs = {"max_special": 7, "max_arrows": 24} if k % 2 else {}
        _assert_cover_fills_match_words(double_cover(surface_from_triple(random_triple(rng, **kwargs))))
    for _ in range(200):
        _assert_extension_fill_matches_words(random_gentle_pair(rng))


def test_a_zero_loop_value_leaves_no_zero_cell(cylinders):
    """At value 0 the product e·e is zero: its cell is left out of the
    extension table and of the rows, while the basis keeps e."""
    triple = triple_from_x_dissection(cylinders[1])
    e = min(triple.special)
    alg = graded_path_algebra(triple, {x: 0 for x in triple.special})
    loop = index_of(alg.algebra)[(triple.arrow_by_id[e].source, (e,))]
    assert e not in alg.extensions[loop]
    assert loop not in alg.algebra.rows[loop]
    assert alg.reduce((triple.arrow_by_id[e].source, (e, e))) == {}
    assert all(c for row in alg.algebra.rows for _, c in row.values())


def test_the_row_fill_reads_no_index_entry(cylinder_covers):
    """``_PathRows.fill`` walks the prefix links: with ``vertex_index``,
    the one index from names to positions, a counting stand-in, filling
    every row of the cover, split and base algebras reads no entry, and the
    rows equal the words'."""
    for cov in [*cylinder_covers.values(), double_cover(one_orbifold_disc(8))]:
        triple = cov.base_quiver.presentation
        for pres in (cov.total_quiver.presentation, cov.split.presentation, triple):
            alg = graded_path_algebra(pres)
            A = alg.algebra
            alg.vertex_index = counted = CountedReads(alg.vertex_index)
            rows = [list(row.items()) for row in A.rows]
            assert counted.read == 0 and A.rows.filled == A.dimension
            assert rows == [list(row.items()) for row in word_rows(alg)]


def _assert_labels_match_oracle(pres) -> None:
    """The labels of the path algebra of ``pres`` against
    ``oracles.basis_labels``, read whole, by index and by slice."""
    alg = graded_path_algebra(pres)
    labels, expected = alg.algebra.labels, basis_labels(pres)
    assert type(labels) is algebra_module._Rendered
    assert labels == expected and expected == labels and tuple(labels) == expected
    assert len(labels) == alg.dimension == len(expected)
    assert labels[-1] == expected[-1] and labels[1:4] == expected[1:4]
    assert [labels[i] for i in range(len(labels))] == list(expected)


def test_rendered_labels_equal_the_words_the_spans_leave_free(cylinders, disc, disc_xx):
    """A path algebra keeps no word: its labels, rendered from the prefix
    links when read, are the ``(source, word)`` pairs that the relation
    spans leave free (``oracles.basis_labels``), in the order the builder
    admits them, on the fixtures, their splits and covers, and on 1 000
    random presentations: 500 skew-gentle triples and their 500 split
    presentations, most of them with two-term relations."""
    triples = [triple_from_x_dissection(s) for s in cylinders.values()]
    triples += [triple_from_x_dissection(disc_xx), special_chain_triple()]
    triples += [triple_from_x_dissection(one_orbifold_disc(n)) for n in (4, 5, 8)]
    fixtures = [two_hole_torus_pair()[0], quiver_from_dissection(disc)]
    for s in [*cylinders.values(), disc_xx, one_orbifold_disc(8)]:
        fixtures.append(double_cover(s).total_quiver.presentation)
    for pres in triples + fixtures:
        _assert_labels_match_oracle(pres)
        if pres.special:
            _assert_labels_match_oracle(split_presentation(pres).presentation)
    rng = random.Random(4211)
    tied = 0
    for _ in range(500):
        triple = random_triple(rng)
        split = split_presentation(triple).presentation
        tied += any(len(rel) == 2 for rel in split.relations)
        _assert_labels_match_oracle(triple)
        _assert_labels_match_oracle(split)
    assert tied > 250


def test_verify_morphism_refuses_image_indices_outside_the_target():
    """Every index of a generator image must be an ``int`` in
    ``range(len(target.rows))``, or ``BAD_INPUT`` names the generators
    before any product: an index past the end no longer raises a bare
    ``IndexError``, nor is -1 read as the last row."""
    pres = make_presentation(["1", "2"], [Arrow("a", "1", "2")])
    alg = graded_path_algebra(pres)
    A = alg.algebra
    assert A.dimension == 3
    vertices = {v: alg.vertex(v) for v in pres.vertices}
    arrows = {"a": alg.arrow("a")}
    assert verify_morphism(pres, vertices, arrows, A, 3).is_isomorphism
    cases = [
        (vertices, {"a": {7: 1}}, ("a",)),
        ({**vertices, "2": {9: 1}}, arrows, ("2",)),
        (vertices, {"a": {-1: 1}}, ("a",)),
        ({**vertices, "1": {0: 1, 3: 1}}, {"a": {Fraction(2): 1}}, ("1", "a")),
        (vertices, {"a": {"2": 1}}, ("a",)),
    ]
    for vertex_images, arrow_images, named in cases:
        with pytest.raises(ValidationError) as exc:
            verify_morphism(pres, vertex_images, arrow_images, A, 3)
        (d,) = exc.value.diagnostics
        assert d.code == "BAD_INPUT" and d.where == named
        assert d.message == (
            f"the images of the generators {list(named)!r} have indices outside "
            "the target's 3 basis elements"
        )
