"""Every check in the library is a diagnostic that survives ``python -O``."""
from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

import skewgentle
from skewgentle import fixtures, special_chain_triple, surface, two_hole_torus_surface
from skewgentle.diagnostics import BAD_INPUT, BAD_INVOLUTION, Report, ValidationError

SRC = Path(skewgentle.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _codes() -> list[str]:
    """The stable error codes: module-level ``NAME = "NAME"`` in diagnostics.py."""
    tree = ast.parse((SRC / "diagnostics.py").read_text())
    return [
        node.targets[0].id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and node.value.value == node.targets[0].id
    ]


def test_every_diagnostic_code_is_named_by_a_test():
    codes = _codes()
    assert len(codes) >= 30
    text = "\n".join(path.read_text() for path in sorted(TESTS.glob("test_*.py")))
    unnamed = [c for c in codes if not re.search(rf"\b{c}\b", text)]
    assert unnamed == []


def _changes_under_O(node: ast.AST) -> bool:
    """What ``python -O`` changes: an ``assert`` statement, a read of
    ``__debug__`` or of ``sys.flags.optimize``."""
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    return isinstance(node, ast.Assert) or (
        isinstance(node, ast.Attribute)
        and node.attr == "optimize"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "flags"
    )


def test_library_has_no_assert_statements():
    """With nothing that ``python -O`` changes, the package runs the same
    code with and without it."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _changes_under_O(node)
    ]
    assert found == []


@pytest.mark.parametrize(
    "source", ["assert x", "if __debug__:\n    pass", "import sys\nn = sys.flags.optimize"]
)
def test_the_scan_sees_what_python_O_changes(source):
    assert any(_changes_under_O(node) for node in ast.walk(ast.parse(source)))


def test_fixture_checks_are_diagnostics(monkeypatch):
    monkeypatch.setattr(surface, "complete_involution", lambda *args, **kw: (None, Report()))
    with pytest.raises(ValidationError) as exc:
        two_hole_torus_surface()
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [
        (BAD_INVOLUTION, ("torus",))
    ]
    monkeypatch.setattr(fixtures, "glue_puzzle", lambda pieces, matchings: (None, Report()))
    with pytest.raises(ValidationError) as exc:
        special_chain_triple()
    (diag,) = exc.value.diagnostics
    assert diag.code == BAD_INPUT
    assert diag.where == (("c.2", "s2.v"), ("c.3", "s3.v"), ("c.4", "s4.v"))


def test_report_json_survives_a_round_trip(monkeypatch):
    monkeypatch.setattr(fixtures, "glue_puzzle", lambda pieces, matchings: (None, Report()))
    with pytest.raises(ValidationError) as exc:
        special_chain_triple()
    report = Report(exc.value.diagnostics)
    report.add(BAD_INVOLUTION, "no image", ("torus", 3))
    data = report.to_json()
    assert json.loads(json.dumps(data)) == data
    assert [d["where"] for d in data] == [
        [["c.2", "s2.v"], ["c.3", "s3.v"], ["c.4", "s4.v"]],
        ["torus", 3],
    ]
