from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import (
    companion_check,
    companion_pair,
    is_connected,
    iso_presentations,
    monomial_path_count,
)
from skewgentle import (
    Arrow,
    Presentation,
    SurfaceFile,
    ValidationError,
    check_gentle,
    check_skew_gentle,
    cycle_piece,
    extract_quiver,
    format_surface_file,
    glue_puzzle,
    linear_piece,
    make_presentation,
    one_orbifold_disc,
    parse_surface_file,
    presentations,
    quiver_from_dissection,
    random_gentle_pair,
    random_triple,
    random_x_dissection,
    special_chain_triple,
    special_piece,
    split_presentation,
    split_vertex_ids,
    surface_from_gentle,
    surface_from_triple,
    topology,
    triple_from_x_dissection,
    two_hole_torus_pair,
    validate,
)
from skewgentle.diagnostics import (
    BAD_INPUT,
    DEGREE_EXCEEDED,
    INFINITE_DIMENSIONAL,
    NOT_GENTLE,
    OVERGLUED_VERTEX,
    SUCCESSOR_CLASH,
    UNKNOWN_ID,
)


# --- oracle-backed dimension facts (enumeration is independent of the
# --- linear algebra elsewhere in the package)


def test_oracle_counts_two_cycle_with_full_relations():
    pres = make_presentation(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "1")],
        [(("a", "b"),), (("b", "a"),)],
    )
    # paths: e1, e2, a, b
    assert monomial_path_count(pres) == 4


def test_oracle_detects_infinite_algebra():
    pres = make_presentation(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "1")],
        [],
    )
    with pytest.raises(RuntimeError):
        monomial_path_count(pres, cap=50)


def test_torus_pair_dimension_by_enumeration(torus_with_involution):
    pair = extract_quiver(torus_with_involution[0]).presentation
    assert monomial_path_count(pair) == 20


# --- basic construction and validation


def test_make_presentation_sorts_and_dedups():
    pres = make_presentation(
        ["2", "1", "2"],
        [Arrow("b", "2", "1"), Arrow("a", "1", "2")],
        [(("a", "b"),), (("a", "b"),)],
    )
    assert pres.vertices == ("1", "2")
    assert [a.id for a in pres.arrows] == ["a", "b"]
    assert len(pres.relations) == 1


def test_kept_presentations_are_compact():
    """A presentation is kept per cover verdict, so its parts carry no
    spare room: an ``Arrow`` has slots and no ``__dict__``, the cached
    lookups hold tuples, and presentations without special loops share
    one empty set."""
    pres = make_presentation(
        ["1", "2", "3"], [Arrow("b", "2", "3"), Arrow("a", "1", "2"), Arrow("c", "1", "3")]
    )
    assert all(not hasattr(a, "__dict__") for a in pres.arrows)
    for lookup in (pres.outgoing, pres.incoming):
        assert set(lookup) == set(pres.vertices)
        assert all(type(arrows) is tuple for arrows in lookup.values())
    assert [a.id for a in pres.outgoing["1"]] == ["a", "c"]
    assert [a.id for a in pres.incoming["3"]] == ["b", "c"]
    other = make_presentation(["1"], [], special=())
    assert pres.special is other.special == frozenset()
    for p in (two_hole_torus_pair()[0], special_chain_triple(), random_triple(random.Random(5))):
        assert all(not hasattr(a, "__dict__") for a in p.arrows)
        assert all(type(t) is tuple for t in (*p.outgoing.values(), *p.incoming.values()))


def test_check_gentle_accepts_torus_pair():
    pres, _ = two_hole_torus_pair()
    assert check_gentle(pres).ok


def test_check_gentle_flags_summary_code():
    bad = make_presentation(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "1", "2")],
        [],
    )
    codes = check_gentle(bad).codes()
    assert "DEGREE_EXCEEDED" in codes
    assert "NOT_GENTLE" in codes


def test_check_gentle_rejects_two_relation_successors():
    bad = make_presentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "3")],
        [(("a", "b"),), (("a", "c"),)],
    )
    report = check_gentle(bad)
    assert [(d.code, d.where) for d in report.diagnostics] == [
        (SUCCESSOR_CLASH, ("a",)),
        (NOT_GENTLE, ()),
    ]


def test_check_gentle_rejects_relation_free_cycle():
    bad = make_presentation(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "1")],
        [],
    )
    assert "INFINITE_DIMENSIONAL" in check_gentle(bad).codes()


def _long_thread(n: int, closed: bool):
    """``n`` relation-free arrows ``a0000 -> a0001 -> ...``, closed into a
    cycle or left a chain."""
    vertices = [f"v{k:04d}" for k in range(n + (not closed))]
    arrows = [
        Arrow(f"a{k:04d}", vertices[k], vertices[(k + 1) % len(vertices)]) for k in range(n)
    ]
    return make_presentation(vertices, arrows, [])


def test_check_gentle_walks_long_threads_without_recursing():
    assert check_gentle(_long_thread(1200, closed=False)).ok
    cycle = _long_thread(1200, closed=True)
    report = check_gentle(cycle)
    assert [d.code for d in report.diagnostics] == [INFINITE_DIMENSIONAL, NOT_GENTLE]
    assert report.diagnostics[0].where == tuple(a.id for a in cycle.arrows)


def _random_monomial_quiver(rng: random.Random):
    vertices = [str(v) for v in range(rng.randint(1, 6))]
    arrows = [
        Arrow(f"a{k}", rng.choice(vertices), rng.choice(vertices))
        for k in range(rng.randint(1, 8))
    ]
    composable = [(a.id, b.id) for a in arrows for b in arrows if a.target == b.source]
    return make_presentation(vertices, arrows, [(p,) for p in composable if rng.random() < 0.5])


def test_finiteness_check_agrees_with_path_enumeration():
    """On quivers that pass the degree and successor checks, a
    relation-free cycle is reported exactly when enumerating the paths
    does not stop.  A finite one has at most 6 + 8 * 8 paths: every path
    is its first arrow and a length of at most 8, as no arrow repeats."""
    rng = random.Random(2511)
    kept = infinite = 0
    while kept < 2000:
        pres = _random_monomial_quiver(rng)
        report = check_gentle(pres)
        if {DEGREE_EXCEEDED, SUCCESSOR_CLASH} & set(report.codes()):
            continue
        kept += 1
        try:
            monomial_path_count(pres, cap=200)
        except RuntimeError:
            infinite += 1
            (found,) = [d for d in report.diagnostics if d.code == INFINITE_DIMENSIONAL]
            cycle = found.where
            by_id = {a.id: a for a in pres.arrows}
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert by_id[a].target == by_id[b].source
                assert ((a, b),) not in pres.relations
            assert len(set(cycle)) == len(cycle)
        else:
            assert report.ok
    assert 300 < infinite < 1700


def test_check_skew_gentle_accepts_chain():
    assert check_skew_gentle(special_chain_triple()).ok


def test_check_skew_gentle_rejects_nonloop_special():
    bad = make_presentation(
        ["1", "2"],
        [Arrow("e", "1", "2")],
        [],
        special={"e"},
    )
    assert not check_skew_gentle(bad).ok


def test_companion_pair_adds_special_squares():
    tri = special_chain_triple()
    pair = companion_pair(tri)
    assert not pair.special
    for e in tri.special:
        assert ((e, e),) in pair.relations


def _perturbed(rng: random.Random, tri):
    """``tri`` with up to three random edits, built by ``make_presentation``
    or, half the time, directly with shuffled fields, a repeated relation
    and sometimes a repeated vertex."""
    vertices, arrows = list(tri.vertices), list(tri.arrows)
    relations, special = list(tri.relations), set(tri.special)
    for _ in range(rng.randint(0, 3)):
        ids = [a.id for a in arrows] + ["zz"]
        v, w = rng.choice(vertices), rng.choice(vertices + ["new"])
        edit = rng.randrange(9)
        if edit == 0:  # an arrow, maybe with a known id or an unknown end
            arrows.append(Arrow(rng.choice(ids + ["n"]), v, w))
        elif edit == 1 and arrows:
            arrows.pop(rng.randrange(len(arrows)))
        elif edit == 2:
            relations.append(((rng.choice(ids), rng.choice(ids)),))
        elif edit == 3 and relations:
            relations.pop(rng.randrange(len(relations)))
        elif edit == 4 and relations:  # a second term
            k = rng.randrange(len(relations))
            relations[k] += ((rng.choice(ids), rng.choice(ids)),)
        elif edit == 5:
            special.add(rng.choice(ids))
        elif edit == 6 and special:  # the square of a special loop
            e = rng.choice(sorted(special))
            relations.append(((e, e),))
        elif edit == 7:  # a loop, special or not
            arrows.append(Arrow(f"x{rng.randrange(3)}", v, v))
            if rng.random() < 0.5:
                special.add(arrows[-1].id)
        else:  # two arrows out of one vertex
            arrows += [Arrow(f"y{rng.randrange(3)}", v, w), Arrow("z", v, rng.choice(vertices))]
    if rng.random() < 0.5:
        return False, make_presentation(vertices, arrows, relations, special)
    if rng.random() < 0.2:
        vertices.append(rng.choice(vertices))
    if relations:
        relations.append(rng.choice(relations))
    for part in (vertices, arrows, relations):
        rng.shuffle(part)
    return True, Presentation(tuple(vertices), tuple(arrows), tuple(relations), frozenset(special))


def test_the_one_walk_finds_what_the_companion_route_finds():
    """``check_skew_gentle`` walks the triple itself; on perturbed triples
    its findings equal, in codes, messages, places and order, those of the
    route through the built companion pair.  Half are built directly, with
    unsorted fields and a repeated relation."""
    rng = random.Random(3713)
    seen: set[str] = set()
    unsorted_walked = 0
    for _ in range(1200):
        tri = random_triple(rng, rng.choice((0, 1, 3)), rng.choice((2, 6, 10)))
        direct, pres = _perturbed(rng, tri)
        found = [(d.code, d.message, d.where) for d in check_skew_gentle(pres).diagnostics]
        assert found == [(d.code, d.message, d.where) for d in companion_check(pres).diagnostics]
        seen.update(code for code, _, _ in found)
        seen.update(
            kind
            for kind in ("duplicate", "two-term", "is not a loop", "already in", "composable")
            if any(kind in message for _, message, _ in found)
        )
        walked = not found or found[-1][0] == NOT_GENTLE
        unsorted_walked += direct and walked and pres.vertices != tuple(sorted(pres.vertices))
    assert seen == {
        UNKNOWN_ID, BAD_INPUT, DEGREE_EXCEEDED, SUCCESSOR_CLASH, INFINITE_DIMENSIONAL,
        NOT_GENTLE, "duplicate", "two-term", "is not a loop", "already in", "composable",
    }
    assert unsorted_walked > 100


def test_a_glued_triple_is_walked_once_and_builds_no_companion(count_calls):
    """Gluing checks the triple, and splitting it and rebuilding its
    dissection read the kept findings; the only presentations built are
    the glued triple and its split."""
    pieces = [linear_piece(3, "a"), special_piece("s")]
    built = count_calls("skewgentle.presentations", "make_presentation")
    walks = count_calls("skewgentle.presentations", "_check_triple")
    triple = glue_puzzle(pieces, [("a.2", "s.v")])
    split = split_presentation(triple)
    surface_from_triple(triple)
    assert walks == [(triple,)]
    assert [sorted(r[0]) for r in built] == [
        list(triple.vertices), list(split.presentation.vertices)
    ]


class _CountedAttempts(random.Random):
    """A generator that counts the attempts of ``random_triple``: each
    draws its number of ordinary pieces with ``randint(1, 3)``."""

    attempts = 0

    def randint(self, a, b):
        self.attempts += (a, b) == (1, 3)
        return super().randint(a, b)


def test_a_draw_with_too_many_arrows_builds_no_presentation(count_calls):
    """With no arrow allowed, only chain pieces of one vertex fit; every
    other draw is refused on its shapes, before any piece is built, so the
    only presentations built are those pieces, once each, and the gluing
    of the one connected attempt."""
    presentations._piece.cache_clear()
    built = count_calls("skewgentle.presentations", "make_presentation")
    rng = _CountedAttempts(8)
    triple = random_triple(rng, max_special=0, max_arrows=0)
    assert len(triple.vertices) == 1 and not triple.arrows
    assert rng.attempts > 1
    pieces = [r[0] for r in built[:-1]]
    assert pieces and pieces == [[f"l{i}.1"] for i in range(len(pieces))]


def test_set_up_draws_build_each_piece_once_and_glue_connected_attempts(count_calls):
    """The benchmark's set-up draws from seed 5, 637 triples for
    random_skewgroup and 441 dissections for random_cli, build each piece
    once per shape and position, 24 ordinary and 3 special, and glue only
    the connected attempts: 907 and 660 gluings, where gluing every
    attempt made 1 543 and 1 318."""
    names = ("linear_piece", "cycle_piece", "special_piece")
    built = {name: count_calls("skewgentle.presentations", name) for name in names}
    glued = count_calls("skewgentle.presentations", "_merge")
    triple = lambda rng: random_triple(rng, max_arrows=6)
    for draw, n, gluings in ((triple, 637, 907), (random_x_dissection, 441, 660)):
        presentations._piece.cache_clear()
        for calls in (*built.values(), glued):
            calls.clear()
        rng = random.Random(5)
        for _ in range(n):
            draw(rng)
        shapes = Counter((name, *args) for name, calls in built.items() for args in calls)
        assert len(shapes) == 27 and set(shapes.values()) == {1}
        assert len(glued) == gluings


def test_the_piece_graph_decides_connectedness_of_every_glued_attempt(monkeypatch):
    """On every attempt of seeds 0-19 that reaches the gluing, connected
    or not, the decision on the graph of pieces and matchings is the
    oracle's on the glued presentation; every shared piece equals a fresh
    build and is the one object for its shape and position."""
    decide = presentations._pieces_connected
    fresh = {"l": linear_piece, "c": cycle_piece, "s": lambda n, prefix: special_piece(prefix)}
    shared: dict = {}
    decisions: Counter = Counter()

    def checked(pieces, matchings):
        for p in pieces:
            prefix = p.vertices[0].partition(".")[0]
            assert p == fresh[prefix[0]](len(p.vertices), prefix)
            assert shared.setdefault((prefix, len(p.vertices)), p) is p
        connected = decide(pieces, matchings)
        assert connected == is_connected(presentations._merge(pieces, matchings))
        decisions[connected] += 1
        return connected

    monkeypatch.setattr(presentations, "_pieces_connected", checked)
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(10):
            random_triple(rng)
        random_gentle_pair(rng)
        random_x_dissection(rng)
    assert decisions[True] >= 20 * 12 and decisions[False] > 100


def test_presentations_keep_their_findings():
    """Each call returns a fresh report of the kept findings."""
    for pres, check in ((two_hole_torus_pair()[0], check_gentle), (special_chain_triple(), check_skew_gentle)):
        first = check(pres)
        first.add(BAD_INPUT, "added by the test")
        assert check(pres).ok


def test_shape_findings_are_checked_once_per_presentation(count_calls):
    """The path algebra and the gentle check read the id and composability
    findings kept on the presentation, and both keep their order."""
    from skewgentle import graded_path_algebra

    ids = count_calls("skewgentle.presentations", "_check_ids")
    composable = count_calls("skewgentle.presentations", "_check_composability")
    kept = two_hole_torus_pair()[0]
    pair = Presentation(kept.vertices, kept.arrows, kept.relations)
    for _ in range(3):
        graded_path_algebra(pair)
    assert check_gentle(pair).ok
    assert len(ids) == len(composable) == 1
    # an arrow ending nowhere, then a relation that does not compose
    broken = Presentation(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "9")), ())
    twisted = Presentation(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")), ((("a", "b"),),))
    for pres, code in ((broken, UNKNOWN_ID), (twisted, BAD_INPUT)):
        with pytest.raises(ValidationError) as exc:
            graded_path_algebra(pres)
        assert [d.code for d in exc.value.diagnostics] == [code]
        assert exc.value.diagnostics == check_gentle(pres).diagnostics[:1]


# --- puzzle pieces and gluing


def test_linear_piece_shape():
    p = linear_piece(4, "c")
    assert len(p.vertices) == 4
    assert len(p.arrows) == 3
    assert len(p.relations) == 2


def test_cycle_piece_shape():
    p = cycle_piece(3, "z")
    assert len(p.vertices) == 3
    assert len(p.arrows) == 3
    assert len(p.relations) == 3


def test_special_piece_shape():
    p = special_piece("s")
    assert len(p.vertices) == 1
    assert len(p.arrows) == 1
    assert p.special == frozenset({"s.e"})


def test_glue_chain_triple_counts():
    tri = special_chain_triple()
    assert len(tri.vertices) == 5
    assert len(tri.arrows) == 7
    assert len(tri.special) == 3
    assert check_skew_gentle(tri).ok


def test_glue_rejects_overused_vertex():
    pieces = [linear_piece(2, "a"), linear_piece(2, "b"), linear_piece(2, "c")]
    with pytest.raises(ValidationError) as exc:
        glue_puzzle(pieces, [("a.1", "b.1"), ("a.1", "c.1"), ("b.2", "c.2")])
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [
        (OVERGLUED_VERTEX, ("a.1",))
    ]


# --- splitting


def test_split_chain_shapes():
    split = split_presentation(special_chain_triple()).presentation
    assert len(split.arrows) == 12
    assert len(split.relations) == 8
    assert all(len(rel) == 2 for rel in split.relations)


def test_split_cylinder_relations(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    assert triple.relations == ((("1.2", "2.3"),), (("2.3", "3.4"),))
    assert triple.special == frozenset({"2.2", "3.3"})
    split = split_presentation(triple).presentation
    assert len(split.relations) == 4
    assert all(len(rel) == 2 for rel in split.relations)


def test_split_vertex_ids():
    assert split_vertex_ids("v") == ("v_0", "v_1")


def test_split_swap_is_involution(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    record = split_presentation(triple)
    split, swap = record.presentation, record.swap
    for v in split.vertices:
        assert swap[swap[v]] == v
    for a in split.arrows:
        assert swap[swap[a.id]] == a.id
        image = Arrow(swap[a.id], swap[a.source], swap[a.target])
        other = split.arrow_by_id[swap[a.id]]
        assert (other.source, other.target) == (image.source, image.target)


def test_split_origins_and_doubled_vertices(cylinders):
    triple = triple_from_x_dissection(cylinders[1])
    record = split_presentation(triple)
    special = {triple.arrow_by_id[e].source for e in triple.special}
    assert record.special_vertices == special
    assert record.origin.keys() == record.presentation.arrow_by_id.keys()

    def end(v, dec):
        return v if dec is None else split_vertex_ids(v)[dec]

    for sid, (aid, s, t) in record.origin.items():
        a, b = triple.arrow_by_id[aid], record.presentation.arrow_by_id[sid]
        assert (s is None, t is None) == (a.source not in special, a.target not in special)
        assert (b.source, b.target) == (end(a.source, s), end(a.target, t))


def test_split_of_plain_pair_is_identity():
    pres, _ = two_hole_torus_pair()
    split = split_presentation(pres).presentation
    assert iso_presentations(pres, split)


# --- extraction and reconstruction


def test_extracted_torus_pair_matches_fixture(torus_with_involution):
    extracted = extract_quiver(torus_with_involution[0]).presentation
    fixture, swap = two_hole_torus_pair()
    assert check_gentle(fixture).ok
    assert iso_presentations(extracted, fixture)
    # the declared swap is an automorphism of the fixture
    relabeled = make_presentation(
        [swap[v] for v in fixture.vertices],
        [Arrow(swap[a.id], swap[a.source], swap[a.target]) for a in fixture.arrows],
        [
            tuple(tuple(swap[x] for x in path) for path in rel)
            for rel in fixture.relations
        ],
    )
    assert iso_presentations(fixture, relabeled)


def test_quiver_from_bullet_dissection_has_no_specials(disc):
    pres = quiver_from_dissection(disc).presentation if hasattr(
        quiver_from_dissection(disc), "presentation"
    ) else quiver_from_dissection(disc)
    assert not pres.special


def test_triple_round_trips_on_fixtures(cylinders, disc_x4, disc_xx):
    for s in [cylinders[1], cylinders[3], disc_x4, disc_xx]:
        tri = triple_from_x_dissection(s)
        back = triple_from_x_dissection(surface_from_triple(tri))
        assert iso_presentations(tri, back)


def test_random_pair_round_trips():
    rng = random.Random(20240)
    for _ in range(100):
        pres = random_gentle_pair(rng)
        back = extract_quiver(surface_from_gentle(pres)).presentation
        assert iso_presentations(pres, back)


def test_random_triple_round_trips():
    rng = random.Random(20241)
    for _ in range(100):
        tri = random_triple(rng)
        back = triple_from_x_dissection(surface_from_triple(tri))
        assert iso_presentations(tri, back)


def test_random_x_dissections_validate():
    rng = random.Random(20242)
    for _ in range(25):
        s = random_x_dissection(rng)
        assert validate(s).ok
        assert len(topology(s).orbifold_points) >= 1


def _triple_text(tri) -> str:
    arrows = [(a.id, a.source, a.target) for a in tri.arrows]
    return repr((tri.vertices, arrows, tri.relations, sorted(tri.special)))


def _fingerprint(draw, text, seed: int, n: int) -> str:
    """A digest of the first ``n`` draws from ``Random(seed)`` and of the
    generator's next number after them."""
    rng = random.Random(seed)
    lines = [text(draw(rng)) for _ in range(n)]
    lines.append(repr(rng.random()))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# (triples, dissections) drawn per seed where not 50 each: the benchmark's
# set-up draws from seed 5, 637 triples for random_skewgroup and 441
# dissections for random_cli, so that seed's pin covers them all.
_DRAWS = {5: (700, 500)}


@pytest.mark.parametrize(
    "seed, triples, dissections",
    [
        (7, "d87c3ffdb70b6054", "679bea14bf8397ce"),
        (2024, "0114ab797bde8417", "bfdb1ab95c21ffe6"),
        (5, "1a722be9c1f85042", "c615583f8d1bf490"),
    ],
)
def test_seeded_generators_draw_what_they_always_drew(seed, triples, dissections):
    """The benchmark's random workloads are these draws: the same seed
    gives the same triples and dissections and uses up the generator
    alike."""
    n_triples, n_dissections = _DRAWS.get(seed, (50, 50))
    triple = lambda rng: random_triple(rng, max_arrows=6)
    as_file = lambda s: format_surface_file(SurfaceFile(s))
    assert _fingerprint(triple, _triple_text, seed, n_triples) == triples
    assert _fingerprint(random_x_dissection, as_file, seed, n_dissections) == dissections


def test_random_triple_draws_at_its_tightest_bounds():
    """Bounds that some triple fits still draw: no special loop and no
    arrow gives a quiver with no arrow, and one special loop fits in one
    arrow only with nothing else."""
    rng = random.Random(1)
    empty = random_triple(rng, max_special=0, max_arrows=0)
    assert not empty.arrows and not empty.special
    one = random_triple(rng, max_special=1, max_arrows=1)
    assert len(one.special) == len(one.arrows) == 1


def test_iso_presentations_distinguishes():
    a = make_presentation(["1", "2"], [Arrow("a", "1", "2")], [])
    b = make_presentation(["1", "2"], [Arrow("a", "2", "1")], [])
    c = make_presentation(["x", "y"], [Arrow("f", "x", "y")], [])
    assert iso_presentations(a, c)
    assert iso_presentations(a, b)  # opposite orientation is still isomorphic by relabeling
    d = make_presentation(["1"], [Arrow("a", "1", "1")], [])
    assert iso_presentations(a, d) is None


def test_reconstruction_check_is_a_diagnostic(monkeypatch):
    from skewgentle.diagnostics import BAD_EULER, Report

    def refuse(surface):
        report = Report()
        report.add(BAD_EULER, "refused by the test")
        return report

    pair, _ = two_hole_torus_pair()
    monkeypatch.setattr(presentations, "validate", refuse)
    with pytest.raises(ValidationError) as exc:
        surface_from_gentle(pair)
    assert [d.code for d in exc.value.diagnostics] == [BAD_EULER]


def test_face_tracing_check_is_a_diagnostic(monkeypatch):
    # Two relations sharing the arrow ``a`` slip past a disabled gentle
    # check; the reconstruction names the pair instead of asserting.
    from skewgentle.diagnostics import BAD_INPUT, Report

    pair = make_presentation(
        ["1", "2", "3", "4"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")],
        [(("a", "b"),), (("a", "c"),)],
    )
    monkeypatch.setattr(presentations, "check_gentle", lambda pres: Report())
    with pytest.raises(ValidationError) as exc:
        surface_from_gentle(pair)
    (diag,) = exc.value.diagnostics
    assert diag.code == BAD_INPUT
    assert diag.where in (("a", "b"), ("a", "c"))
    assert "shares an arrow" in diag.message


# ---------------------------------------------------------------------------
# Derived ids never name the caller's ids


def _disc_x5_with_arc(name: str):
    """``one_orbifold_disc(5)`` with its arc ``5`` renamed ``name``."""
    text = format_surface_file(SurfaceFile(one_orbifold_disc(5)))
    text = text.replace("arc 5 ", f"arc {name} ").replace("a:5:", f"a:{name}:")
    return parse_surface_file(text).surface


def test_an_arrow_id_that_names_an_arc_takes_the_next_suffix():
    """With arc 5 renamed ``2.3``, the arrow from arc 2 to arc 3 is
    ``2.3#2``; the arrow into the renamed arc keeps ``4.2.3``."""
    pres = extract_quiver(_disc_x5_with_arc("2.3")).presentation
    assert pres.arrow_by_id["2.3#2"] == Arrow("2.3#2", "2", "3")
    assert pres.arrow_by_id["4.2.3"] == Arrow("4.2.3", "4", "2.3")
    assert "2.3" not in pres.arrow_by_id and "2.3" in pres.vertices
    assert check_skew_gentle(pres).ok


@pytest.mark.parametrize(
    "vertices, arrows, clash",
    [
        (["v", "v_0"], [Arrow("x", "v", "v_0")], "v_0"),
        (["u", "v", "w"], [Arrow("x", "v", "w"), Arrow("x^0", "u", "w")], "x^0"),
    ],
    ids=["half-vertex", "decorated-arrow"],
)
def test_a_split_id_that_names_another_is_bad_input(vertices, arrows, clash):
    """The halves of the special vertex ``v`` are ``v_0`` and ``v_1``, and
    ``x`` out of it splits into ``x^0`` and ``x^1``: a triple that already
    has one of these ids is refused, naming it, before any id is merged."""
    triple = make_presentation(vertices, [Arrow("e", "v", "v"), *arrows], special=["e"])
    assert check_skew_gentle(triple).ok
    with pytest.raises(ValidationError) as exc:
        split_presentation(triple)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(BAD_INPUT, (clash,))]


_CRAFTED_FINDINGS = """
from skewgentle import Arrow, check_skew_gentle, make_presentation
arrows = [Arrow("a", "1", "2"), Arrow("a", "1", "9")]
pres = make_presentation(["1", "2"], arrows, special=["xx", "yy", "zz"])
for d in check_skew_gentle(pres).diagnostics:
    print(d)
"""


def _findings_under_hash_seed(seed: str) -> str:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CRAFTED_FINDINGS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_findings_do_not_depend_on_the_string_hash_seed():
    """A duplicate arrow id with an unknown end and three unknown special
    loops: the findings come in one order under any string hash seed."""
    first, second = (_findings_under_hash_seed(seed) for seed in ("1", "2"))
    assert first == second
    assert first.splitlines() == [
        "[BAD_INPUT] at ('a',) duplicate arrow id 'a'",
        "[UNKNOWN_ID] at ('a',) arrow 'a' endpoint '9' unknown",
        *(f"[UNKNOWN_ID] at ('{e}',) special arrow '{e}' unknown" for e in ("xx", "yy", "zz")),
    ]
