from __future__ import annotations

import ast
import codecs
import contextlib
import copy
import functools
import io
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracles

import skewgentle
from skewgentle import (
    BOUNDARY,
    Arc,
    BoundarySegment,
    CombinatorialCurve,
    MarkedPoint,
    Passage,
    Polygon,
    Side,
    SurfaceFile,
    classify_dissection,
    cli,
    cover_invariant_tuple,
    double_cover,
    fixture_path,
    format_surface_file,
    make_surface,
    one_orbifold_disc,
    parse_surface_file,
    random_gentle_pair,
    random_x_dissection,
    surface_from_gentle,
    two_orbifold_cylinder,
    validate,
    winding,
)
from skewgentle.cli import main
from skewgentle.diagnostics import BAD_INPUT, SYNTAX, ValidationError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(skewgentle.__file__).resolve().parent

# every file shipped in the package's data directory
DATA_NAMES = sorted(path.stem for path in (PACKAGE / "data").glob("*.surf"))

STAIR_LINE = (
    "curve stair open passages="
    "(upper,0,1,right);(lower,1,2,left);(lower,3,4,left);(lower,5,0,right)"
)
CORE_LINE = "curve core closed passages=(lower,1,6,left);(upper,2,1,right)"


def _data_text(name: str) -> str:
    return fixture_path(name).read_text()


def _cylinder_file_with_curves(tmp_path):
    path = tmp_path / "cyl.surf"
    path.write_text(_data_text("cylinder1") + CORE_LINE + "\n" + STAIR_LINE + "\n")
    return str(path)


@pytest.mark.parametrize("name", DATA_NAMES)
def test_packaged_files_round_trip_byte_identically(name):
    text = _data_text(name)
    assert format_surface_file(parse_surface_file(text)) == text


def test_round_trip_preserves_curves_and_involution(tmp_path):
    path = _cylinder_file_with_curves(tmp_path)
    text = open(path).read()
    sf = parse_surface_file(text)
    assert set(sf.curves) == {"stair", "core"}
    assert format_surface_file(sf) == text
    torus = parse_surface_file(_data_text("torus"))
    assert torus.involution is not None


def _renamed(text: str, old: str, new: str) -> str:
    """``text`` with every whole id ``old`` renamed ``new``."""
    return re.sub(rf"(?<![^\s=:,]){re.escape(old)}(?![^\s:,])", lambda m: new, text)


# (record, id in cylinder1, a new id that the format cannot carry there)
UNWRITABLE_IDS = [
    ("point", "B", "B<->C"),
    ("arc", "1", "1,x"),
    ("arc", "1", "1:x"),
    ("arc", "1", "1<->x"),
    ("arc", "1", "x~rev"),
    ("bseg", "b_bot", "b,x"),
    ("bseg", "b_bot", "b:x"),
    ("poly", "lower", "lo,w"),
    ("poly", "lower", "lo;w"),
    ("poly", "lower", "lo(w"),
    ("poly", "lower", "lo)w"),
]


@pytest.mark.parametrize("kind, old, new", UNWRITABLE_IDS)
def test_an_id_the_format_cannot_carry_is_refused_on_its_line(kind, old, new):
    text = _renamed(_data_text("cylinder1"), old, new)
    (line,) = [n for n, ln in enumerate(text.splitlines(), 1) if ln.startswith(f"{kind} {new} ")]
    with pytest.raises(ValidationError) as exc:
        parse_surface_file(text)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(SYNTAX, (line,))]


@pytest.mark.parametrize(
    "kind, old, new",
    UNWRITABLE_IDS + [("arc", "1", ""), ("point", "B", "B x"), ("curve", "core", "co\tre")],
)
def test_the_printer_refuses_an_id_it_cannot_write_back(kind, old, new):
    sf = parse_surface_file(_data_text("cylinder1") + CORE_LINE + "\n")
    s = sf.surface

    def rn(ident):
        return new if ident == old else ident

    surface = make_surface(
        s.name,
        [MarkedPoint(rn(p.id), p.kind) for p in s.points],
        [Arc(rn(a.id), rn(a.tail), rn(a.head)) for a in s.arcs],
        [BoundarySegment(rn(b.id), rn(b.tail), rn(b.head)) for b in s.bsegs],
        [Polygon(rn(p.id), tuple(Side(x.kind, rn(x.ref), x.direction) for x in p.sides))
         for p in s.polygons],
    )
    assert validate(surface).ok
    core = sf.curves["core"]
    passages = tuple(Passage(rn(p.polygon), p.entry, p.exit, p.bseg_side) for p in core.passages)
    curves = {rn("core"): CombinatorialCurve(rn("core"), core.closed, passages)}
    with pytest.raises(ValidationError) as exc:
        format_surface_file(SurfaceFile(surface, None, curves))
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(BAD_INPUT, (new,))]


@pytest.mark.parametrize(
    "old, new", [("B", "B,1:(x);~rev"), ("1", "1;(x)"), ("b_bot", "b;(<->)"), ("lower", "lo:w<->")]
)
def test_ids_holding_the_separators_of_other_records_round_trip(old, new):
    curves = f"{CORE_LINE}\n{STAIR_LINE}\n".replace(f"({old},", f"({new},")
    text = _renamed(_data_text("cylinder1"), old, new) + curves
    assert format_surface_file(parse_surface_file(text)) == text


def test_boundary_marked_alias_is_accepted():
    text = _data_text("cylinder1").replace(
        "point B kind=boundary", "point B kind=boundary_marked"
    )
    sf = parse_surface_file(text)
    assert sf.surface.point_by_id["B"].kind == "boundary"


def test_validate_reports_shape(capsys):
    assert main(["validate", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    assert "OK cylinder1" in out
    assert "kind=x" in out
    assert "genus=0" in out
    assert "orbifold points=2" in out


def test_validate_mentions_involution_and_curves(tmp_path, capsys):
    assert main(["validate", str(fixture_path("torus"))]) == 0
    assert "involution: valid" in capsys.readouterr().out
    path = _cylinder_file_with_curves(tmp_path)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "curve core: valid" in out
    assert "curve stair: valid" in out


def test_quiver_prints_triple(capsys):
    assert main(["quiver", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    assert "special 2.2" in out
    assert "special 3.3" in out
    assert "relation 1.2*2.3" in out
    assert "relation 2.3*3.4" in out


def test_split_prints_two_term_relations(capsys):
    assert main(["split", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    relations = [l for l in out.splitlines() if l.startswith("relation ")]
    assert len(relations) == 4
    assert all(" + " in l for l in relations)


def test_split_of_a_long_fan_disc_does_not_recurse(tmp_path, capsys):
    # Its split presentation is one relation-free chain of 1200 arrows.
    path = tmp_path / "fan.surf"
    path.write_text(format_surface_file(SurfaceFile(one_orbifold_disc(1200))))
    assert main(["split", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert sum(l.startswith("vertex ") for l in lines) == 1201
    assert sum(l.startswith("arrow ") for l in lines) == 1200
    assert not any(l.startswith("relation ") for l in lines)
    assert {"vertex 1_0", "vertex 1_1", "arrow 1199.1200 1199 -> 1200"} <= set(lines)


def test_cover_output_is_a_valid_surface_file(capsys):
    assert main(["cover", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    sf = parse_surface_file(out)
    assert sf.involution is not None
    assert format_surface_file(sf) == out


def test_quotient_of_torus_prints_orbifold_points(capsys):
    assert main(["quotient", str(fixture_path("torus"))]) == 0
    out = capsys.readouterr().out
    sf = parse_surface_file(out)
    assert sorted(sf.surface.point_by_id) == ["Pb1", "Pt1", "X_2", "X_3"]
    assert "point X_2 kind=orbifold" in out
    assert "point X_3 kind=orbifold" in out


def test_quotient_without_involution_fails(capsys):
    assert main(["quotient", str(fixture_path("cylinder1"))]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "involution" in err


def test_skewgroup_reports_dimensions_and_verdicts(capsys):
    assert main(["skewgroup", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    assert "cover algebra dimension: 20" in out
    assert "skew group algebra dimension: 40" in out
    assert "corner dimension: 20" in out
    assert "reduction is isomorphism: True" in out
    assert "dual reduction is isomorphism: True" in out
    assert "dual reduction equivariant: True" in out


def test_invariants_include_cover_section(capsys):
    assert main(["invariants", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    assert "genus 0" in out
    assert "boundary winding=-2 marked=1" in out
    assert "boundary winding=0 marked=1" in out
    assert out.count("orbifold winding=-1") == 2
    assert "cover genus 0" in out
    assert out.count("cover boundary winding=-2") == 2
    assert out.count("cover boundary winding=0") == 2


def test_winding_lists_boundaries_and_loops(capsys):
    assert main(["winding", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    assert "winding=0" in out
    assert "winding=-2" in out
    assert out.count("winding=-1") == 2


def test_winding_of_named_curve(tmp_path, capsys):
    path = _cylinder_file_with_curves(tmp_path)
    assert main(["winding", path, "core"]) == 0
    assert "core winding=0" in capsys.readouterr().out
    assert main(["winding", path, "missing"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_exit_codes(capsys):
    c1 = str(fixture_path("cylinder1"))
    c2 = str(fixture_path("cylinder2"))
    c4 = str(fixture_path("cylinder4"))
    assert main(["compare", "--mode=tilting", c1, c4]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out
    assert main(["compare", "--mode=tilting", c1, c2]) == 1
    assert "NOT_EQUIVALENT" in capsys.readouterr().out
    assert main(["compare", "--mode=ghat", c1, c4]) == 1
    assert "NOT_EQUIVALENT" in capsys.readouterr().out
    assert main(["compare", "--mode=ghat", c1, c1]) == 0
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_compare_ghat_refuses_a_plain_dissection(capsys):
    disc = str(fixture_path("disc"))
    assert main(["compare", "--mode", "ghat", disc, disc]) == 2
    assert capsys.readouterr().err == (
        "error: [BAD_INPUT] at ('disc',) the canonical double cover of 'disc' "
        "is two disjoint copies of it: it has no orbifold point\n"
    )


def test_compare_prints_the_reason_and_both_sides(capsys):
    c1, c2 = (str(fixture_path(f"cylinder{k}")) for k in (1, 2))
    assert main(["compare", "--mode", "ghat", c1, c2]) == 1
    assert capsys.readouterr().out == (
        "NOT_EQUIVALENT\n"
        "  reason: COVER_TUPLE_DIFFERS\n"
        "  left: cover genus 0, branch points 2, cover entries ((-2, 1, 'boundary'), "
        "(-2, 1, 'boundary'), (0, 1, 'boundary'), (0, 1, 'boundary'))\n"
        "  right: cover genus 0, branch points 2, cover entries ((-1, 1, 'boundary'), "
        "(-1, 1, 'boundary'), (-1, 1, 'boundary'), (-1, 1, 'boundary'))\n"
    )


def test_a_disconnected_file_is_named_in_either_place(tmp_path, capsys):
    # two copies of the packaged disc, the second with renamed ids
    text = _data_text("disc").replace("surface disc", "surface twin")
    body = text.split("\n", 1)[1].replace("arc a ", "arc ax ").replace(":a:", ":ax:")
    copy = re.sub(r"\b([PFb]\d)\b", r"\1x", body)
    twin = tmp_path / "twin.surf"
    twin.write_text(text + copy)
    disc = str(fixture_path("disc"))
    assert main(["validate", str(twin)]) == 0
    assert "genus=n/a (disconnected)" in capsys.readouterr().out
    refusal = (
        "error: [BAD_INPUT] at ('twin',) surface 'twin' is disconnected: invariant "
        "tuples are defined for connected surfaces\n"
    )
    for argv in (
        ["invariants", str(twin)],
        ["compare", "--mode", "tilting", str(twin), disc],
        ["compare", "--mode", "tilting", disc, str(twin)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", refusal)


def test_complex_command_propagates_grades(tmp_path, capsys):
    path = _cylinder_file_with_curves(tmp_path)
    assert main(["complex", path, "stair"]) == 0
    out = capsys.readouterr().out
    assert "summand 0 arc=1 shift=0" in out
    assert "summand 1 arc=2 shift=1" in out
    assert "summand 2 arc=3 shift=2" in out
    assert "d[1,0] = " in out
    assert "d[2,1] = " in out
    assert main(["complex", path, "stair", "--grades", "0,1,2"]) == 0
    assert capsys.readouterr().out == out


def test_complex_of_a_closed_curve_names_its_winding(tmp_path, capsys):
    surface = two_orbifold_cylinder(1)
    curves = {c.id: c for c in oracles.boundary_curves(surface)}
    path = tmp_path / "boundaries.surf"
    path.write_text(format_surface_file(SurfaceFile(surface, None, curves)))
    # winding -2: no grading exists, whatever grades are given
    for grades in ([], ["--grades", "0,0,0,0"], ["--grades", "1,2,3"]):
        assert main(["complex", str(path), "boundary.b_top", *grades]) == 2
        assert capsys.readouterr().err == (
            "error: [BAD_INPUT] at ('boundary.b_top',) closed curve "
            "'boundary.b_top' has winding -2; only a curve of winding 0 can be graded\n"
        )
    # winding 0: graded as before
    assert main(["complex", str(path), "boundary.b_bot"]) == 0
    assert capsys.readouterr().out == (
        "summand 0 arc=4 shift=0\nsummand 1 arc=1 shift=-1\nd[0,1] = 1.4\n"
    )


def test_export_dot_emits_graphviz(capsys):
    assert main(["export-dot", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph quiver {")
    assert out.rstrip().endswith("}")
    assert '"1" -> "2" [label="1.2"]' in out
    assert "style=bold" in out


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    path = tmp_path / "quoted.surf"
    path.write_text(_renamed(_renamed(_data_text("cylinder1"), "1", '1"x'), "2", "2\\"))
    assert main(["export-dot", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert r'  "1\"x";' in lines
    assert r'  "2\\";' in lines
    assert r'  "1\"x" -> "2\\" [label="1\"x.2\\"];' in lines
    for line in lines:
        if not line.lstrip().startswith("//"):
            # every quoted string closes: none of '"' or '\' is left outside
            bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", line)
            assert '"' not in bare and "\\" not in bare, line


def test_missing_file_gives_exit_two(capsys):
    assert main(["validate", "/nonexistent/path.surf"]) == 2
    assert "error:" in capsys.readouterr().err


def test_syntax_error_gives_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.surf"
    path.write_text("surface broken\npoint P kind=weird\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "unknown point kind" in err


def test_second_surface_line_is_a_syntax_error(tmp_path, capsys):
    text = _data_text("cylinder1")
    line = len(text.splitlines()) + 1
    with pytest.raises(ValidationError) as exc:
        parse_surface_file(text + "surface other\n")
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(SYNTAX, (line,))]
    path = tmp_path / "twice.surf"
    path.write_text(text + "surface other\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: [SYNTAX] at ({line},) line {line}: more than one surface line\n"
    )


def test_invalid_surface_gives_exit_two(tmp_path, capsys):
    # arc used once only
    path = tmp_path / "open.surf"
    path.write_text(
        "surface open\n"
        "point P kind=boundary\n"
        "bseg b from=P to=P\n"
        "arc 1 from=P to=P\n"
        "poly f sides=b:b,a:1:+\n"
    )
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "invariants", "winding"])
def test_orbifold_point_with_two_arc_ends_gives_exit_two(tmp_path, capsys, command):
    path = tmp_path / "xd.surf"
    path.write_text(
        "surface xd\n"
        "point P1 kind=boundary\n"
        "point P2 kind=boundary\n"
        "point X kind=orbifold\n"
        "bseg b1 from=P1 to=P2\n"
        "bseg b2 from=P2 to=P1\n"
        "arc a from=P1 to=X\n"
        "arc c from=P2 to=X\n"
        "poly F1 sides=b:b1,a:c:+,a:a:-\n"
        "poly F2 sides=b:b2,a:a:+,a:c:-\n"
    )
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[X_DEGREE] at ('X',)" in captured.err


def _mutate(rng: random.Random, text: str) -> str:
    """One seeded mutation: a line deleted, duplicated or swapped, a token
    mangled, or the word of a polygon shuffled."""
    lines = text.splitlines()
    kind = rng.choice(["delete", "duplicate", "swap", "mangle", "shuffle"])
    i = rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "mangle":
        tokens = lines[i].split()
        k = rng.randrange(len(tokens))
        tok = tokens[k]
        tokens[k] = rng.choice(
            [tok[::-1], tok[:-1], tok + tok[-1], "", "?", tok.upper(), tok.replace("=", "")]
        )
        lines[i] = " ".join(tokens)
    else:
        k = rng.choice([k for k, line in enumerate(lines) if line.startswith("poly ")])
        head, _, word = lines[k].partition("sides=")
        sides = word.split(",")
        rng.shuffle(sides)
        lines[k] = head + "sides=" + ",".join(sides)
    return "\n".join(lines) + "\n"


_FIRST_CODE = re.compile(r"error: \[([A-Z_]+)\]")

# (command, exit code, code of the first diagnostic) over the 800 runs below;
# a change to which check fires first on a malformed file shows up here
MUTATION_OUTCOMES = {
    ('compare --mode ghat', 0, None): 5,
    ('compare --mode ghat', 1, None): 6,
    ('compare --mode ghat', 2, 'ARC_OCCURRENCE'): 1,
    ('compare --mode ghat', 2, 'BAD_INPUT'): 21,
    ('compare --mode ghat', 2, 'CORNER_MISMATCH'): 7,
    ('compare --mode ghat', 2, 'SYNTAX'): 10,
    ('compare --mode ghat', 2, 'UNKNOWN_ID'): 7,
    ('compare --mode tilting', 0, None): 9,
    ('compare --mode tilting', 1, None): 10,
    ('compare --mode tilting', 2, 'ARC_OCCURRENCE'): 2,
    ('compare --mode tilting', 2, 'BAD_INPUT'): 11,
    ('compare --mode tilting', 2, 'CORNER_MISMATCH'): 7,
    ('compare --mode tilting', 2, 'SYNTAX'): 8,
    ('compare --mode tilting', 2, 'UNKNOWN_ID'): 10,
    ('complex core --grades 0,1', 2, 'ARC_OCCURRENCE'): 2,
    ('complex core --grades 0,1', 2, 'BAD_INPUT'): 26,
    ('complex core --grades 0,1', 2, 'CORNER_MISMATCH'): 8,
    ('complex core --grades 0,1', 2, 'SYNTAX'): 10,
    ('complex core --grades 0,1', 2, 'UNKNOWN_ID'): 11,
    ('complex stair', 0, None): 2,
    ('complex stair', 2, 'ARC_OCCURRENCE'): 1,
    ('complex stair', 2, 'BAD_INPUT'): 30,
    ('complex stair', 2, 'CORNER_MISMATCH'): 7,
    ('complex stair', 2, 'SYNTAX'): 10,
    ('complex stair', 2, 'UNKNOWN_ID'): 7,
    ('cover', 0, None): 18,
    ('cover', 2, 'ARC_OCCURRENCE'): 3,
    ('cover', 2, 'BAD_INPUT'): 12,
    ('cover', 2, 'CORNER_MISMATCH'): 7,
    ('cover', 2, 'SYNTAX'): 7,
    ('cover', 2, 'UNKNOWN_ID'): 10,
    ('export-dot', 0, None): 12,
    ('export-dot', 2, 'ARC_OCCURRENCE'): 2,
    ('export-dot', 2, 'BAD_INPUT'): 14,
    ('export-dot', 2, 'CORNER_MISMATCH'): 8,
    ('export-dot', 2, 'SYNTAX'): 10,
    ('export-dot', 2, 'UNKNOWN_ID'): 11,
    ('invariants', 0, None): 8,
    ('invariants', 2, 'ARC_OCCURRENCE'): 3,
    ('invariants', 2, 'BAD_INPUT'): 15,
    ('invariants', 2, 'CORNER_MISMATCH'): 10,
    ('invariants', 2, 'SYNTAX'): 11,
    ('invariants', 2, 'UNKNOWN_ID'): 10,
    ('quiver', 0, None): 14,
    ('quiver', 2, 'ARC_OCCURRENCE'): 5,
    ('quiver', 2, 'BAD_INPUT'): 13,
    ('quiver', 2, 'CORNER_MISMATCH'): 6,
    ('quiver', 2, 'SYNTAX'): 6,
    ('quiver', 2, 'UNKNOWN_ID'): 14,
    ('quotient', 0, None): 4,
    ('quotient', 2, 'ARC_OCCURRENCE'): 2,
    ('quotient', 2, 'BAD_INPUT'): 22,
    ('quotient', 2, 'CORNER_MISMATCH'): 11,
    ('quotient', 2, 'SYNTAX'): 12,
    ('quotient', 2, 'UNKNOWN_ID'): 6,
    ('skewgroup', 0, None): 14,
    ('skewgroup', 2, 'ARC_OCCURRENCE'): 2,
    ('skewgroup', 2, 'BAD_INPUT'): 12,
    ('skewgroup', 2, 'CORNER_MISMATCH'): 11,
    ('skewgroup', 2, 'SYNTAX'): 12,
    ('skewgroup', 2, 'UNKNOWN_ID'): 6,
    ('split', 0, None): 18,
    ('split', 2, 'ARC_OCCURRENCE'): 3,
    ('split', 2, 'BAD_INPUT'): 12,
    ('split', 2, 'CORNER_MISMATCH'): 7,
    ('split', 2, 'SYNTAX'): 7,
    ('split', 2, 'UNKNOWN_ID'): 10,
    ('validate', 0, None): 14,
    ('validate', 2, 'ARC_OCCURRENCE'): 5,
    ('validate', 2, 'BAD_INPUT'): 13,
    ('validate', 2, 'CORNER_MISMATCH'): 6,
    ('validate', 2, 'SYNTAX'): 6,
    ('validate', 2, 'UNKNOWN_ID'): 14,
    ('winding', 0, None): 8,
    ('winding', 2, 'ARC_OCCURRENCE'): 3,
    ('winding', 2, 'BAD_INPUT'): 15,
    ('winding', 2, 'CORNER_MISMATCH'): 10,
    ('winding', 2, 'SYNTAX'): 11,
    ('winding', 2, 'UNKNOWN_ID'): 10,
    ('winding core', 0, None): 4,
    ('winding core', 2, 'ARC_OCCURRENCE'): 2,
    ('winding core', 2, 'BAD_INPUT'): 26,
    ('winding core', 2, 'CORNER_MISMATCH'): 7,
    ('winding core', 2, 'SYNTAX'): 8,
    ('winding core', 2, 'UNKNOWN_ID'): 10,
}


def test_mutated_files_never_escape_main(tmp_path, capsys):
    """200 seeded mutations of the packaged files, each run through four of
    the subcommands in turn: every run returns an exit code."""
    texts = {name: _data_text(name) for name in DATA_NAMES}
    texts["cylinder1"] += CORE_LINE + "\n" + STAIR_LINE + "\n"
    rng = random.Random(2024)
    path = tmp_path / "mutated.surf"
    file, other = str(path), str(fixture_path("cylinder2"))
    commands = [
        ["validate", file],
        ["quiver", file],
        ["split", file],
        ["cover", file],
        ["quotient", file],
        ["skewgroup", file],
        ["invariants", file],
        ["winding", file],
        ["winding", file, "core"],
        ["compare", "--mode", "tilting", file, other],
        ["compare", "--mode", "ghat", other, file],
        ["complex", file, "stair"],
        ["complex", file, "core", "--grades", "0,1"],
        ["export-dot", file],
    ]
    exits = []
    outcomes = Counter()
    for case in range(200):
        path.write_text(_mutate(rng, texts[rng.choice(DATA_NAMES)]))
        for j in range(4):
            argv = commands[(4 * case + j) % len(commands)]
            exits.append(main(argv))
            first = _FIRST_CODE.match(capsys.readouterr().err)
            label = " ".join(a for a in argv if a not in (file, other))
            outcomes[(label, exits[-1], first and first.group(1))] += 1
    assert all(type(code) is int for code in exits)
    assert {0, 1, 2} <= set(exits)
    assert dict(outcomes) == MUTATION_OUTCOMES


def test_a_file_that_is_not_utf8_is_a_syntax_error_in_every_command(tmp_path, capsys):
    """Bytes that are not UTF-8 exit 2 with a ``SYNTAX`` diagnostic naming
    their line, in every subcommand and in either place of ``compare``."""
    path = tmp_path / "bad.surf"
    path.write_bytes(b"surface x\n\xff\xfe\n")
    file, other = str(path), str(fixture_path("cylinder2"))
    commands = [
        ["validate", file],
        ["quiver", file],
        ["split", file],
        ["cover", file],
        ["quotient", file],
        ["skewgroup", file],
        ["invariants", file],
        ["winding", file],
        ["compare", "--mode", "tilting", file, other],
        ["compare", "--mode", "ghat", other, file],
        ["complex", file, "core"],
        ["export-dot", file],
    ]
    assert {argv[0] for argv in commands} == set(_subcommands())
    for argv in commands:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert _FIRST_CODE.match(err).group(1) == SYNTAX, argv
        assert "line 2: not UTF-8 text" in err, argv


def _subcommands() -> list[str]:
    """The subcommand names of the command table."""
    return list(cli._COMMANDS)


def _readme_command_block() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Command line\n", 1)[1].split("```", 2)[1].lstrip("\n")


def _help_out(argv: list[str]) -> str:
    """Standard output of ``main(argv)`` for a help request, which exits 0
    and writes nothing on standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert (exc.value.code, err.getvalue()) == (0, "")
    return out.getvalue()


def test_readme_lists_exactly_the_parser_subcommands():
    """The README's command line block is, byte for byte, the command
    lines that ``skewgentle --help`` prints, and names each subcommand once."""
    block = _readme_command_block()
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("skewgentle ")]
    assert sorted(listed) == sorted(_subcommands())
    assert block.rstrip("\n") in _help_out(["--help"]).split("\n\n")


@pytest.mark.parametrize("command", _subcommands())
def test_command_help_prints_its_line(command):
    """``skewgentle CMD --help`` prints the command's line of the README
    block: its synopsis, then its help in the column or under it."""
    lines = _readme_command_block().splitlines()
    k = next(k for k, line in enumerate(lines) if line.split()[1] == command)
    entry = lines[k] + "\n"
    if k + 1 < len(lines) and lines[k + 1].startswith(" "):
        entry += lines[k + 1] + "\n"
    assert _help_out([command, "--help"]) == entry
    assert _help_out([command, "a.surf", "-h"]) == entry


# ---------------------------------------------------------------------------
# argv is read as the argparse parser of `oracles` read it

_PHRASES = (
    "invalid choice",
    "the following arguments are required",
    "unrecognized arguments",
    "expected one argument",
    "ambiguous option",
    "ignored explicit argument",
)

# each command's positionals, then its options with a value each, as the
# oracle declares them
_SHAPES = {
    "validate": (["a.surf"], []),
    "quiver": (["a.surf"], []),
    "split": (["a.surf"], []),
    "cover": (["a.surf"], []),
    "quotient": (["a.surf"], []),
    "skewgroup": (["a.surf"], []),
    "invariants": (["a.surf"], []),
    "winding": (["a.surf", "core"], []),
    "compare": (["a.surf", "b.surf"], [("--mode", "tilting"), ("--mode", "ghat")]),
    "complex": (["a.surf", "core"], [("--grades", "0,1,2")]),
    "export-dot": (["a.surf"], []),
}

# tokens for the seeded random argv: option spellings, values and
# positionals that start with "-"
_TOKENS = (
    "a.surf", "b.surf", "core", "-f.surf", "-1", "-.5", "-a b", "", "-", "--", "---",
    "--mode", "--mode=tilting", "--mo", "--m=ghat", "--mode=", "tilting", "ghat", "x",
    "--grades", "--gr=1,2", "--g", "0,1", "-1,2", "-h", "--help", "--he", "-hh", "-hx",
    "--help=x", "-h=", "-h=h", "-hh=x", "--=x", "-x", "--x", "validate", "compare",
)


def _argv_corpus() -> list[list[str]]:
    """Valid and refused command lines of every subcommand, then 1 500
    seeded valid ones with their options placed at random, half of them
    edited once, and 1 500 seeded random token lists.  No argv holds a
    second ``--`` after the command, which the oracle reads apart from the
    table (see the next test)."""
    corpus = [[], ["-x"], ["--"], ["-h"], ["--help"], ["--he"], ["-x", "--help"], ["-hx"]]
    corpus += [["-hh"], ["-h=h"], ["-h="], ["-hh=x"], ["--help=x"], ["--he=x"]]
    corpus += [["frobnicate", "a.surf"], ["val", "a.surf"], ["--", "validate", "a.surf"]]
    corpus += [["-x", "validate", "a.surf"], ["--mode", "tilting", "compare", "a", "b"]]
    for name, (positionals, options) in _SHAPES.items():
        variants = [positionals]
        if name == "winding":
            variants.append(positionals[:1])
        for pos in variants:
            corpus.append([name, *pos])
            corpus += [[name, *pos[:k], *extra, *pos[k:]] for k in range(len(pos) + 1)
                       for extra in (["--frob"], ["-x"], ["--help"], ["-h"], ["--help=x"], ["-h=h"])]
            corpus += [[name, *pos[:k], *pos[k + 1 :]] for k in range(len(pos))]
            corpus += [[name, *pos, "extra"], [name, "--", *pos], [name, *pos, "--"]]
            corpus += [[name, "--", "-" + pos[0], *pos[1:]], [name, "-1", *pos[1:]]]
        for o, v in options:
            for spelling in ([o, v], [f"{o}={v}"], [o[:4], v], [f"{o[:3]}={v}"], [f"{o}="]):
                corpus += [[name, *positionals[:k], *spelling, *positionals[k:]]
                           for k in range(len(positionals) + 1)]
            corpus += [[name, *positionals, o], [name, o, "--", *positionals]]
            corpus += [[name, *positionals, o, v, "--"], [name, o, v, "--", *positionals]]
            corpus += [[name, o, "-x", *positionals], [name, *positionals, o, "-1,2"]]
            corpus += [[name, *positionals, f"{o}=-1,2"], [name, f"--={v}", *positionals]]
            corpus += [[name, o, v, "--", "-" + positionals[0], *positionals[1:]]]
        if name == "compare":
            corpus += [[name, "--mode", "x", *positionals]]
            corpus += [[name, "--mode", "ghat", "--mode", "tilting", *positionals]]
    rng = random.Random(45)
    shaped = []
    while len(shaped) < 1500:
        # a valid form with its options placed at random, then one edit or none
        name = rng.choice(list(_SHAPES))
        positionals, options = _SHAPES[name]
        argv = [rng.choice(["a.surf", "-f.surf", "-1", "core"]) for _ in positionals]
        if name == "winding" and rng.random() < 0.5:
            argv.pop()
        if any(a.startswith("-") for a in argv):
            argv.insert(0, "--")
        if options:
            o, v = rng.choice(options)
            spelling = rng.choice([[o, v], [f"{o}={v}"], [o[:4], v], [f"{o[:3]}={v}"]])
            k = 0 if argv[:1] == ["--"] else rng.randrange(len(argv) + 1)
            argv[k:k] = spelling
        argv.insert(0, name)
        edit = rng.randrange(6)
        if edit == 0:
            del argv[rng.randrange(1, len(argv))]
        elif edit == 1:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(_TOKENS))
        elif edit == 2:
            argv.insert(rng.randrange(1, len(argv) + 1), "--")
        if argv[1:].count("--") < 2:
            shaped.append(argv)
    names = list(_SHAPES) + ["foo", "--", "", "-h", "-x"]
    while len(shaped) < 3000:
        argv = [rng.choice(names)] + [rng.choice(_TOKENS) for _ in range(rng.randrange(7))]
        if argv[1:].count("--") < 2:
            shaped.append(argv)
    return corpus + shaped


def _read(parse, argv: list[str]):
    """``("ok", value)`` or ``("exit", code, stdout, stderr)`` of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value = parse(argv)
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())
    assert out.getvalue() == err.getvalue() == ""
    return ("ok", value)


def test_main_reads_argv_as_the_argparse_oracle_does():
    """On every argv of the corpus, ``main`` accepts what the argparse
    parser of ``oracles`` accepts, with the same handler and arguments;
    where the oracle refuses, ``main`` exits 2 with its usage and the
    oracle's phrase on stderr, and where it prints help, ``main`` exits 0
    with help on stdout."""
    parser = oracles.argparse_cli_parser()

    def oracle(argv):
        ns = vars(parser.parse_args(argv)).copy()
        del ns["command"]
        return ns.pop("func"), ns

    outcomes = Counter()
    corpus = _argv_corpus()
    for argv in corpus:
        expected = _read(oracle, argv)
        if expected[0] == "ok":
            assert _read(cli._split, argv) == expected, argv
            outcomes["ok"] += 1
            continue
        got = _read(main, argv)
        assert got[:2] == expected[:2], argv
        if got[1] == 0:
            assert got[2] and not got[3], argv
            outcomes["help"] += 1
            continue
        (phrase,) = [p for p in _PHRASES if p in expected[3]]
        assert got[2] == "" and got[3].startswith("usage: skewgentle"), argv
        assert phrase in got[3].splitlines()[-1], argv
        outcomes[phrase] += 1
    assert len(corpus) > 3000 and outcomes["ok"] > 1000
    assert set(outcomes) == {"ok", "help", *_PHRASES}
    assert min(outcomes.values()) >= 10


def test_a_second_double_dash_is_a_positional():
    """After the ``--`` that ends the options, a later ``--`` is read as a
    positional.  The oracle's argparse dropped it from any positional it
    filled: ``winding FILE -- --`` read no curve, and ``complex FILE -- --``
    read the curve as an empty list, which no handler can look up."""
    assert cli._split(["winding", "a.surf", "--", "--"])[1] == {"file": "a.surf", "curve": "--"}
    assert cli._split(["complex", "a.surf", "--", "--"])[1] == {
        "file": "a.surf", "curve": "--", "grades": None
    }
    parser = oracles.argparse_cli_parser()
    assert parser.parse_args(["winding", "a.surf", "--", "--"]).curve is None
    assert parser.parse_args(["complex", "a.surf", "--", "--"]).curve == []


@pytest.mark.parametrize("name", DATA_NAMES)
def test_a_byte_order_mark_is_dropped(tmp_path, capsys, name):
    """A UTF-8 byte-order mark before the first record is dropped, not read
    as part of it: ``validate`` and ``cover`` print what they print
    without it."""
    path = tmp_path / f"{name}.surf"
    path.write_bytes(codecs.BOM_UTF8 + _data_text(name).encode("utf-8"))
    for command in ("validate", "cover"):
        assert main([command, str(fixture_path(name))]) == 0
        expected = capsys.readouterr()
        assert main([command, str(path)]) == 0
        assert capsys.readouterr() == expected


# ---------------------------------------------------------------------------
# `winding FILE` reads corner counts; the traced canonical curves of
# `oracles` are the reference for what it and `invariants` print


@functools.cache
def _identity_corpus() -> tuple[str, ...]:
    """Surface files: the packaged ones, ``one_orbifold_disc(2..14)``,
    1 200 random slit dissections, 300 gentle surfaces, 600 seeded
    mutations of the packaged files, the 200 disconnected covers of the
    first gentle surfaces and the slit covers of the first 200 slit
    dissections, the covers with their deck lines."""
    texts = [_data_text(name) for name in DATA_NAMES]
    texts += [format_surface_file(SurfaceFile(one_orbifold_disc(n))) for n in range(2, 15)]
    rng = random.Random(44)
    slit = [random_x_dissection(rng) for _ in range(1200)]
    gentle = [surface_from_gentle(random_gentle_pair(rng)) for _ in range(300)]
    texts += [format_surface_file(SurfaceFile(s)) for s in slit + gentle]
    sources = {name: _data_text(name) for name in DATA_NAMES}
    sources["cylinder1"] += CORE_LINE + "\n" + STAIR_LINE + "\n"
    rng = random.Random(4401)
    texts += [_mutate(rng, sources[rng.choice(DATA_NAMES)]) for _ in range(600)]
    for s in gentle[:200] + slit[:200]:
        cov = double_cover(s)
        texts.append(format_surface_file(SurfaceFile(cov.total, cov.deck)))
    return tuple(texts)


def _tuple_lines(t, prefix: str) -> list[str]:
    return [f"{prefix}genus {t.genus}"] + [
        f"{prefix}boundary winding={w} marked={marked}"
        if kind == BOUNDARY
        else f"{prefix}{kind} winding={w}"
        for w, marked, kind in t.entries
    ]


def _printed_by_curves(command: str, path: str) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of ``skewgentle
    COMMAND FILE`` with every winding summed along the traced canonical
    curves of :mod:`oracles`; the cover tuple's refusals and its lifted
    cross-check still come from ``cover_invariant_tuple``."""
    lines: list[str] = []
    try:
        s = cli._load(path).surface
        if command == "winding":
            classify_dissection(s)
            lines += [f"{c.id} winding={winding(s, c)}" for c in oracles.boundary_curves(s)]
            for p in sorted(x.id for x in s.points if x.kind != BOUNDARY):
                loop = oracles.puncture_loop(s, p)
                lines.append(f"{loop.id} winding={winding(s, loop)}")
        else:
            t = oracles.invariant_tuple_by_curves(s)
            orbifold = classify_dissection(s) == "x"
            lines += _tuple_lines(t, "")
            if orbifold:
                cover_invariant_tuple(s)
                cover = oracles.invariant_tuple_by_curves(double_cover(s).total)
                lines += _tuple_lines(cover, "cover ")
        code, err = 0, ""
    except ValidationError as exc:
        code, err = 2, "".join(f"error: {d}\n" for d in exc.diagnostics)
    return code, "".join(line + "\n" for line in lines), err


@pytest.mark.parametrize("command", ["winding", "invariants"])
def test_windings_print_as_the_traced_curves_sum_them(tmp_path, capsys, command):
    path = tmp_path / "corpus.surf"
    outcomes = Counter()
    for text in _identity_corpus():
        path.write_text(text)
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _printed_by_curves(command, str(path))
        outcomes[code] += 1
    assert outcomes[0] > 1500 and outcomes[2] > 300


def test_winding_traces_and_checks_no_curve_unless_one_is_named(count_calls, tmp_path, capsys):
    traced = count_calls("skewgentle.linefield", "_trace_boundary")
    checked = count_calls("skewgentle.surface", "validate_curve")
    disconnected = tmp_path / "two.surf"
    cov = double_cover(parse_surface_file(_data_text("disc")).surface)
    disconnected.write_text(format_surface_file(SurfaceFile(cov.total, cov.deck)))
    for path in [fixture_path(name) for name in DATA_NAMES] + [disconnected]:
        assert main(["winding", str(path)]) == 0
    capsys.readouterr()
    assert (traced, checked) == ([], [])
    path = _cylinder_file_with_curves(tmp_path)
    assert main(["winding", path, "core"]) == 0
    assert capsys.readouterr().out == "core winding=0\n"
    assert traced == []
    # the file's two curves when it is read, then the named one
    assert [curve.id for _, curve in checked] == ["core", "stair", "core"]


# ---------------------------------------------------------------------------
# Each surface, curve and involution is checked once per command


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "cylinder1"],
        ["winding", "curves", "core"],
        ["compare", "--mode", "ghat", "cylinder1", "cylinder2"],
    ],
    ids=["invariants", "winding", "compare-ghat"],
)
def test_each_curve_and_surface_is_checked_once(count_calls, tmp_path, capsys, argv):
    asked = count_calls("skewgentle.surface", "validate_curve")
    curve_checks = count_calls("skewgentle.surface", "_check_curve")
    surface_checks = count_calls("skewgentle.surface", "_check_surface")
    files = {"curves": _cylinder_file_with_curves(tmp_path)}
    files.update((a, str(fixture_path(a))) for a in ("cylinder1", "cylinder2"))
    args = [files.get(a, a) for a in argv]
    assert main(args) in (0, 1)
    capsys.readouterr()
    # the recorded arguments keep every surface alive, so ids stay distinct
    pairs = {(id(surface), curve) for surface, curve in asked}
    assert len(asked) > len(pairs)
    assert len(curve_checks) == len(pairs)
    per_surface = Counter(id(surface) for (surface,) in surface_checks)
    assert per_surface and set(per_surface.values()) == {1}


@pytest.mark.parametrize("command", ["quiver", "split", "export-dot"])
def test_presentation_commands_classify_the_dissection_once(count_calls, capsys, command):
    classified = count_calls("skewgentle.surface", "classify_dissection")
    assert main([command, str(fixture_path("cylinder1"))]) == 0
    capsys.readouterr()
    assert len(classified) == 1


def test_quotient_checks_the_involution_once(count_calls, capsys):
    asked = count_calls("skewgentle.surface", "validate_involution")
    checks = count_calls("skewgentle.surface", "_check_involution")
    assert main(["quotient", str(fixture_path("torus"))]) == 0
    capsys.readouterr()
    assert len(asked) == 2
    assert len(checks) == 1


# ---------------------------------------------------------------------------
# One command table per process, and no argparse


def _fresh_process(code: str, *args: str) -> str:
    """Standard output of ``python -c code args`` in a new interpreter."""
    return _python("-c", code, *args)


def _python(*argv: str) -> str:
    """Standard output of ``python argv`` in a new interpreter, which must
    exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_main_reads_one_table_across_calls(tmp_path, capsys):
    """Every subcommand, run twice, and a help request and a usage error
    between them, read the one command table built at import and leave it
    as it was."""
    table = cli._COMMANDS
    before = copy.deepcopy(table)
    path = _cylinder_file_with_curves(tmp_path)
    c2 = str(fixture_path("cylinder2"))
    runs = [
        [name, path]
        for name in ("validate", "quiver", "split", "cover", "skewgroup", "invariants", "export-dot")
    ]
    runs += [
        ["quotient", str(fixture_path("torus"))],
        ["winding", path, "core"],
        ["compare", "--mode", "ghat", path, c2],
        ["complex", path, "stair", "--grades=0,1,2"],
    ]
    assert {argv[0] for argv in runs} == set(_subcommands())
    rounds = []
    for _ in range(2):
        rounds.append([main(argv) for argv in runs])
        for argv in (["--help"], ["compare", path, c2]):
            with pytest.raises(SystemExit):
                main(argv)
    capsys.readouterr()
    assert rounds[0] == rounds[1] and set(rounds[0]) <= {0, 1}
    assert cli._COMMANDS is table
    assert table == before


def test_import_and_main_load_no_argparse():
    """``import skewgentle`` and a ``main`` call leave ``argparse`` out of
    ``sys.modules``: the command line reads argv without it."""
    disc = str(fixture_path("disc"))
    code = (
        "import sys, skewgentle\n"
        "print('argparse' in sys.modules)\n"
        "skewgentle.cli.main(['validate', sys.argv[1]])\n"
        "print('argparse' in sys.modules)\n"
    )
    lines = _fresh_process(code, disc).splitlines()
    assert lines == ["False", lines[1], "False"]
    assert lines[1].startswith("OK disc")


def _argparse_imports(source: str) -> list[int]:
    """The lines that import ``argparse`` or a name from it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name == "argparse" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "argparse")
    ]


def test_no_library_module_imports_argparse():
    """``cli.main`` reads argv against its own table; no module under
    ``src/`` imports argparse, at the top or inside a function."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}" for path in modules for line in _argparse_imports(path.read_text())
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "import argparse",
        "import os, argparse as ap",
        "from argparse import ArgumentParser",
        "def parser():\n    import argparse\n    return argparse.ArgumentParser()",
    ],
)
def test_the_argparse_scan_sees_an_import(source):
    assert _argparse_imports(source)


def test_namespaces_do_not_leak_between_calls(tmp_path, capsys):
    path = _cylinder_file_with_curves(tmp_path)
    assert cli._split(["winding", path, "core"])[1]["curve"] == "core"
    assert cli._split(["winding", path])[1]["curve"] is None
    assert main(["winding", path, "core"]) == 0
    assert capsys.readouterr().out == "core winding=0\n"
    assert main(["winding", path]) == 0
    out = capsys.readouterr().out
    assert "core" not in out
    assert "b_bot winding=0" in out


def test_errors_do_not_leak_between_calls(capsys):
    c1 = str(fixture_path("cylinder1"))
    with pytest.raises(SystemExit) as exc:
        main(["compare", c1, c1])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", c1])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["validate", c1]) == 0
    code = "import sys\nfrom skewgentle.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    assert capsys.readouterr().out == _fresh_process(code, "validate", c1)


def test_python_m_runs_the_cli_without_warnings(capsys):
    c1 = str(fixture_path("cylinder1"))
    assert main(["validate", c1]) == 0
    expected = capsys.readouterr().out
    assert _python("-W", "error::RuntimeWarning", "-m", "skewgentle", "validate", c1) == expected


def test_help_text_is_identical_on_repeated_calls(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: skewgentle")


def test_involution_completion_check_is_a_diagnostic(tmp_path, capsys):
    # Without the pair 1+<->1- the arc map cannot place any polygon of the
    # torus: one BAD_INVOLUTION per polygon, and exit 2.
    from skewgentle.diagnostics import BAD_INVOLUTION

    text = _data_text("torus").replace(" 1+<->1-", "")
    with pytest.raises(ValidationError) as exc:
        parse_surface_file(text)
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [
        (BAD_INVOLUTION, (poly,)) for poly in ("lowM", "lowP", "upM", "upP")
    ]
    path = tmp_path / "torus.surf"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.count("[BAD_INVOLUTION]") == 4


def _imports_cli(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "skewgentle.cli" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in (None, "skewgentle"):
            return any(a.name == "cli" for a in node.names)
        return node.module in ("cli", "skewgentle.cli")
    return False


def test_only_the_package_root_imports_the_cli():
    """Library modules never import from ``.cli``; only ``__init__`` (so
    that ``import skewgentle`` binds ``skewgentle.cli``) and ``__main__``
    (for ``python -m skewgentle``) do."""
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _imports_cli(node)
    }
    assert importers == {"__init__.py", "__main__.py"}
    assert _fresh_process("import skewgentle; print(skewgentle.cli.main.__name__)") == "main\n"
