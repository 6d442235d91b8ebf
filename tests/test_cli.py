from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from skewgentle import (
    cli,
    fixture_path,
    format_surface_file,
    parse_surface_file,
)
from skewgentle.cli import main

ROOT = Path(__file__).resolve().parent.parent

DATA_NAMES = ["cylinder1", "cylinder2", "cylinder3", "cylinder4", "disc", "torus"]

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


def test_export_dot_emits_graphviz(capsys):
    assert main(["export-dot", str(fixture_path("cylinder1"))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph quiver {")
    assert out.rstrip().endswith("}")
    assert '"1" -> "2" [label="1.2"]' in out
    assert "style=bold" in out


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
    for case in range(200):
        path.write_text(_mutate(rng, texts[rng.choice(DATA_NAMES)]))
        for j in range(4):
            argv = commands[(4 * case + j) % len(commands)]
            exits.append(main(argv))
            capsys.readouterr()
    assert all(type(code) is int for code in exits)
    assert {0, 1, 2} <= set(exits)


# ---------------------------------------------------------------------------
# One parser per process


def _fresh_process(code: str, *args: str) -> str:
    """Standard output of ``python -c code args`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_parser_is_built_once_across_calls(monkeypatch, capsys):
    built = []

    class CountingParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=CountingParser))
    disc = str(fixture_path("disc"))
    cli._parser.cache_clear()
    try:
        assert main(["validate", disc]) == 0
        assert main(["validate", disc]) == 0
    finally:
        cli._parser.cache_clear()
    # the top-level parser once; its 11 subcommand parsers share its class
    assert built.count("skewgentle") == 1
    assert len(built) == 12


def test_import_builds_no_parser():
    code = (
        "import skewgentle, skewgentle.cli as cli\n"
        "print(cli._parser.cache_info().currsize)\n"
    )
    assert _fresh_process(code) == "0\n"


def test_namespaces_do_not_leak_between_calls(tmp_path, capsys):
    path = _cylinder_file_with_curves(tmp_path)
    assert cli._parser().parse_args(["winding", path, "core"]).curve == "core"
    assert cli._parser().parse_args(["winding", path]).curve is None
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


def test_help_text_is_identical_on_repeated_calls(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: skewgentle")
