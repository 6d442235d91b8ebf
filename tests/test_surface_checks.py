"""The surface and involution checks against the ray-tuple oracles.

The library checks a surface on the positions of its cells, in one walk,
and keeps its topology; :mod:`oracles` keeps the checks as they ran on ray
tuples, one successor path per point.  A seeded corpus of corrupted
surfaces and perturbed deck maps must give the same findings under both,
code, message and place, in the same order, and under any string hash
seed.
"""
from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracles
import pytest

from skewgentle import (
    Arc,
    BoundarySegment,
    CombinatorialCurve,
    MarkedPoint,
    Polygon,
    Side,
    SurfaceInvolution,
    ValidationError,
    arc_side,
    bseg_side,
    boundary_components,
    double_cover,
    dual_dissection,
    fixture_path,
    make_surface,
    one_orbifold_disc,
    random_gentle_pair,
    random_x_dissection,
    surface_from_gentle,
    topology,
    two_hole_torus_surface,
    two_marked_disc,
    two_orbifold_cylinder,
    two_orbifold_disc,
    validate,
    validate_curve,
    validate_involution,
)
from skewgentle.cli import main
from skewgentle.surface import POINT_KINDS

# ---------------------------------------------------------------------------
# The corpus


def _mirrored_disc():
    """The disc and its mirror image side by side, with the involution
    sending each onto the other: every polygon maps orientation-reversingly."""
    disc = two_marked_disc()

    def m(x: str) -> str:
        return x + "'"

    def swap(items) -> dict:
        return {**{x.id: m(x.id) for x in items}, **{m(x.id): x.id for x in items}}

    mirror = [
        Polygon(m(p.id), tuple(
            arc_side(m(s.ref), -s.direction) if s.is_arc else bseg_side(m(s.ref))
            for s in reversed(p.sides)
        ))
        for p in disc.polygons
    ]
    union = make_surface(
        "mirrored",
        list(disc.points) + [MarkedPoint(m(p.id), p.kind) for p in disc.points],
        list(disc.arcs) + [Arc(m(a.id), m(a.tail), m(a.head)) for a in disc.arcs],
        list(disc.bsegs) + [BoundarySegment(m(b.id), m(b.head), m(b.tail)) for b in disc.bsegs],
        list(disc.polygons) + mirror,
    )
    inv = SurfaceInvolution(
        points=swap(disc.points), arcs=swap(disc.arcs), reversed_arcs=frozenset(),
        bsegs=swap(disc.bsegs), polygons=swap(disc.polygons),
    )
    return union, inv


def base_surfaces() -> list:
    """Valid surfaces: the fixtures, the ladder covers, random orbifold
    dissections and random plain ones, with their covers (those of plain
    ones are two disjoint copies)."""
    rng = random.Random(41)
    bases = [two_orbifold_cylinder(v) for v in (1, 2, 3, 4)]
    bases += [two_marked_disc(), two_orbifold_disc(), two_hole_torus_surface()[0]]
    bases += [one_orbifold_disc(n) for n in (2, 3, 4, 6, 9)]
    bases += [random_x_dissection(rng) for _ in range(24)]
    bases += [surface_from_gentle(random_gentle_pair(rng)) for _ in range(8)]
    return bases + [double_cover(s).total for s in bases] + [_mirrored_disc()[0]]


def _replace_side(surface, k: int, sides) -> object:
    polygons = list(surface.polygons)
    polygons[k] = Polygon(polygons[k].id, tuple(sides))
    return dataclasses.replace(surface, polygons=tuple(polygons))


def _corrupt(surface, rng: random.Random):
    """``surface`` with one corruption drawn from ``rng``."""
    kind = rng.choice(
        ["drop", "duplicate", "reverse", "swap", "rename", "retarget", "duplicate_id", "kind",
         "merge"]
    )
    polygons = surface.polygons
    k = rng.randrange(len(polygons))
    sides = list(polygons[k].sides)
    if kind == "drop" and sides:
        del sides[rng.randrange(len(sides))]
        return _replace_side(surface, k, sides)
    if kind == "duplicate" and sides:
        sides.insert(rng.randrange(len(sides) + 1), rng.choice(sides))
        return _replace_side(surface, k, sides)
    if kind == "reverse" and sides:
        i = rng.randrange(len(sides))
        s = sides[i]
        if s.is_arc:
            sides[i] = Side("a", s.ref, -s.direction)
            return _replace_side(surface, k, sides)
        bsegs = tuple(
            BoundarySegment(b.id, b.head, b.tail) if b.id == s.ref else b for b in surface.bsegs
        )
        return dataclasses.replace(surface, bsegs=bsegs)
    if kind == "swap":
        k2 = rng.randrange(len(polygons))
        if not sides or not polygons[k2].sides:
            return surface
        i, j = rng.randrange(len(sides)), rng.randrange(len(polygons[k2].sides))
        if k2 == k:
            sides[i], sides[j] = sides[j], sides[i]
            return _replace_side(surface, k, sides)
        other = list(polygons[k2].sides)
        sides[i], other[j] = other[j], sides[i]
        return _replace_side(_replace_side(surface, k, sides), k2, other)
    if kind == "rename" and sides:
        # a side names another cell of its kind, or none
        i = rng.randrange(len(sides))
        cells = surface.arcs if sides[i].is_arc else surface.bsegs
        ref = rng.choice([c.id for c in cells] + ["nothing"])
        sides[i] = dataclasses.replace(sides[i], ref=ref)
        return _replace_side(surface, k, sides)
    if kind == "retarget":
        cells = "arcs" if surface.arcs and rng.random() < 0.6 else "bsegs"
        items = list(getattr(surface, cells))
        c = rng.randrange(len(items))
        target = rng.choice([p.id for p in surface.points] + ["nowhere"])
        end = rng.choice(["tail", "head"])
        items[c] = dataclasses.replace(items[c], **{end: target})
        return dataclasses.replace(surface, **{cells: tuple(items)})
    if kind == "duplicate_id":
        cells = rng.choice(["points", "arcs", "bsegs", "polygons"])
        items = list(getattr(surface, cells))
        if len(items) < 2 or rng.random() < 0.3:
            items.append(rng.choice(items))
        else:
            a, b = rng.sample(range(len(items)), 2)
            items[b] = dataclasses.replace(items[b], id=items[a].id)
        return dataclasses.replace(surface, **{cells: tuple(items)})
    if kind == "kind":
        points = list(surface.points)
        i = rng.randrange(len(points))
        points[i] = MarkedPoint(points[i].id, rng.choice([*POINT_KINDS, "weird"]))
        return dataclasses.replace(surface, points=tuple(points))
    if kind == "merge" and len(surface.points) > 1:
        # one point takes over every end of another, which is gone
        keep, gone = (p.id for p in rng.sample(surface.points, 2))

        def moved(cell):
            return dataclasses.replace(
                cell,
                tail=keep if cell.tail == gone else cell.tail,
                head=keep if cell.head == gone else cell.head,
            )

        return dataclasses.replace(
            surface,
            points=tuple(p for p in surface.points if p.id != gone),
            arcs=tuple(map(moved, surface.arcs)),
            bsegs=tuple(map(moved, surface.bsegs)),
        )
    return surface


def corrupted_surfaces(count: int, seed: int = 7) -> list:
    """``count`` surfaces, each a base surface with one or two corruptions."""
    rng = random.Random(seed)
    bases = base_surfaces()
    out = []
    for _ in range(count):
        surface = rng.choice(bases)
        for _ in range(rng.choice((1, 1, 2))):
            surface = _corrupt(surface, rng)
        # a fresh object, so no finding is kept from an earlier check
        out.append(dataclasses.replace(surface))
    return out


def _findings(report) -> list[tuple]:
    return [(d.code, d.message, d.where) for d in report.diagnostics]


# ---------------------------------------------------------------------------
# Surfaces


def test_corrupted_surfaces_get_the_oracles_findings():
    corpus = corrupted_surfaces(2400)
    codes = Counter()
    for surface in corpus:
        found = _findings(validate(surface))
        assert found == _findings(oracles.check_surface(surface)), surface
        codes.update({code for code, _, _ in found} or {None})
    # every stage of the check has findings somewhere in the corpus, and
    # the rotation stage names boundary and interior points alike
    assert set(codes) >= {
        None, "BAD_INPUT", "UNKNOWN_ID", "MULTIPLE_BSEG", "BSEG_NOT_FIRST",
        "ARC_OCCURRENCE", "NONORIENTABLE_GLUING", "BSEG_OCCURRENCE", "CORNER_MISMATCH",
    }
    messages = {m for s in corpus for _, m, _ in _findings(validate(s))}
    for phrase in (
        "incoming boundary segments",
        "do not form a single chain",
        "do not form a single cycle",
        "has no incident arc ends",
        "sides meet at",
    ):
        assert any(phrase in m for m in messages), phrase


def test_topology_agrees_with_the_cell_count_oracles():
    surfaces = base_surfaces() + [s for s in corrupted_surfaces(600) if validate(s).ok]
    for surface in surfaces:
        try:
            top = topology(surface)
        except ValidationError as exc:  # a corrupted gluing may have no genus
            assert [d.code for d in exc.diagnostics] == ["BAD_EULER"]
            continue
        assert top.euler_char == oracles.euler_characteristic(surface)
        assert len(top.boundary) == oracles.boundary_circle_count(surface)
        assert sum(len(c.boundary) for c in top.components) == len(top.boundary)
        assert top.boundary == tuple(boundary_components(surface))


def test_boundary_components_are_a_new_list_each_call():
    surface = two_orbifold_cylinder(1)
    first = boundary_components(surface)
    first.clear()
    assert boundary_components(surface) == list(topology(surface).boundary)
    assert boundary_components(surface) is not boundary_components(surface)


# ---------------------------------------------------------------------------
# Curves


def _curves(surface) -> list:
    curves = list(oracles.boundary_curves(surface)) + list(dual_dissection(surface))
    interior = sorted(p.id for p in surface.points if p.kind != "boundary")
    return curves + [oracles.puncture_loop(surface, p) for p in interior]


def _perturb_curve(curve, surface, rng: random.Random):
    """A copy of ``curve`` with one passage, its order or its shape changed."""
    ps = list(curve.passages)
    kind = rng.choice(["polygon", "slot", "side", "drop", "duplicate", "reverse", "closed", "empty"])
    if not ps:
        return curve
    k = rng.randrange(len(ps))
    if kind == "polygon":
        other = rng.choice([p.id for p in surface.polygons] + ["nowhere"])
        ps[k] = dataclasses.replace(ps[k], polygon=other)
    elif kind == "slot":
        field = rng.choice(["entry", "exit"])
        ps[k] = dataclasses.replace(ps[k], **{field: rng.randrange(-1, 8)})
    elif kind == "side":
        ps[k] = dataclasses.replace(ps[k], bseg_side=rng.choice(["left", "right", "middle"]))
    elif kind == "drop":
        del ps[k]
    elif kind == "duplicate":
        ps.insert(k, ps[k])
    elif kind == "reverse":
        ps.reverse()
    elif kind == "empty":
        ps = []
    closed = (not curve.closed) if kind == "closed" else curve.closed
    return CombinatorialCurve(curve.id, closed, tuple(ps))


def test_perturbed_curves_get_the_oracles_findings():
    rng = random.Random(45)
    pairs = [(s, c) for s in base_surfaces()[::3] for c in _curves(s)]
    messages = Counter()
    for _ in range(1500):
        surface, curve = rng.choice(pairs)
        for _ in range(rng.choice((0, 1, 1, 2))):
            curve = _perturb_curve(curve, surface, rng)
        if rng.random() < 0.1:
            surface = _corrupt(surface, rng)
        surface = dataclasses.replace(surface)
        found = _findings(validate_curve(surface, curve))
        assert found == _findings(oracles.check_curve(surface, curve))
        messages.update({m for _, m, _ in found} or {"valid"})
    for phrase in (
        "valid",
        "has no passages",
        "unknown polygon",
        "out of range",
        "bad bseg side",
        "enters through the bseg",
        "exits through the bseg",
        "must start at a bseg midpoint",
        "must end at a bseg midpoint",
        "contradicts the polygon word",
        "crosses no arc",
        "do not cross matching occurrences",
    ):
        assert any(phrase in m for m in messages), phrase


# ---------------------------------------------------------------------------
# Involutions


def _involutions() -> list:
    rng = random.Random(43)
    pairs = [two_hole_torus_surface(), _mirrored_disc()]
    for s in [two_orbifold_cylinder(v) for v in (1, 2, 3, 4)] + [one_orbifold_disc(n) for n in (2, 5)]:
        cov = double_cover(s)
        pairs.append((cov.total, cov.deck))
    for _ in range(16):
        cov = double_cover(random_x_dissection(rng))
        pairs.append((cov.total, cov.deck))
    return pairs


def _perturb(surface, inv, rng: random.Random):
    """A copy of ``inv`` with one map perturbed, or ``surface`` corrupted."""
    maps = {
        "points": dict(inv.points), "arcs": dict(inv.arcs), "bsegs": dict(inv.bsegs),
        "polygons": dict(inv.polygons),
    }
    reversed_arcs = set(inv.reversed_arcs)
    kind = rng.choice(
        ["swap_pairs", "rotate", "fix", "send", "drop", "unknown", "flag", "surface"]
    )
    name = rng.choice(list(maps))
    m = maps[name]
    keys = list(m)
    if kind == "swap_pairs" and len(keys) >= 2:
        # x<->y and u<->v become x<->u and y<->v: still of order two
        x, u = rng.sample(keys, 2)
        y, v = m[x], m[u]
        m.update({x: u, u: x, y: v, v: y})
    elif kind == "rotate" and len(keys) >= 3:
        # three images move round: still a permutation, not of order two
        x = rng.sample(keys, 3)
        m[x[0]], m[x[1]], m[x[2]] = m[x[1]], m[x[2]], m[x[0]]
    elif kind == "fix":
        x = rng.choice(keys)
        m[m[x]] = m[x]
        m[x] = x
    elif kind == "send":
        x, y = rng.choice(keys), rng.choice(keys)
        m[x] = y
    elif kind == "drop":
        del m[rng.choice(keys)]
    elif kind == "unknown":
        m[rng.choice(keys)] = "nowhere"
    elif kind == "flag" and maps["arcs"]:
        reversed_arcs ^= {rng.choice(list(maps["arcs"]))}
    elif kind == "surface":
        surface = dataclasses.replace(_corrupt(surface, rng))
    return surface, SurfaceInvolution(
        points=maps["points"], arcs=maps["arcs"], reversed_arcs=frozenset(reversed_arcs),
        bsegs=maps["bsegs"], polygons=maps["polygons"],
    )


def test_perturbed_involutions_get_the_oracles_findings():
    rng = random.Random(44)
    pairs = _involutions()
    codes = Counter()
    for _ in range(700):
        surface, inv = rng.choice(pairs)
        surface, inv = _perturb(dataclasses.replace(surface), inv, rng)
        if rng.random() < 0.4:
            surface, inv = _perturb(surface, inv, rng)
        found = _findings(validate_involution(surface, inv))
        assert found == _findings(oracles.check_involution(surface, inv))
        codes.update(code for code, _, _ in found)
    assert set(codes) >= {
        "BAD_INVOLUTION", "NOT_ORDER_TWO", "FIXED_MARKED_POINT", "FIXED_POLYGON",
        "UNREVERSED_FIXED_ARC", "ORIENTATION_REVERSED",
    }
    for surface, inv in pairs[:1] + pairs[2:]:
        assert validate_involution(dataclasses.replace(surface), inv).ok


# ---------------------------------------------------------------------------
# Order under any string hash seed

_HASH_SEED_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from test_surface_checks import corrupted_surfaces
from skewgentle import validate
for surface in corrupted_surfaces(300, seed=11):
    for d in validate(surface).diagnostics:
        print(d)
    print("--")
"""


def _findings_under_hash_seed(seed: str) -> str:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_surface_findings_do_not_depend_on_the_string_hash_seed():
    first, second = (_findings_under_hash_seed(seed) for seed in ("1", "2"))
    assert first == second
    assert first.splitlines().count("--") == 300 and "[" in first


# ---------------------------------------------------------------------------
# Each surface computes its topology once


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "cylinder1"],
        ["invariants", "cylinder1"],
        ["compare", "--mode", "ghat", "cylinder1", "cylinder2"],
        ["compare", "--mode", "tilting", "torus", "torus"],
    ],
    ids=["validate", "invariants", "compare-ghat", "compare-tilting"],
)
def test_each_surface_computes_its_topology_once(count_calls, capsys, argv):
    asked = count_calls("skewgentle.surface", "topology")
    circles = count_calls("skewgentle.surface", "boundary_components")
    computed = count_calls("skewgentle.surface", "_surface_topology")
    args = [str(fixture_path(a)) if a[-1].isdigit() or a == "torus" else a for a in argv]
    assert main(args) in (0, 1)
    capsys.readouterr()
    per_surface = Counter(id(surface) for (surface,) in computed)
    assert per_surface and set(per_surface.values()) == {1}
    assert {id(s) for (s,) in asked} <= set(per_surface)
    assert len(asked) + len(circles) >= len(computed)
