"""Every check in the library is a diagnostic that survives ``python -O``."""
from __future__ import annotations

import ast
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


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
