"""Every check in the library is a diagnostic that survives ``python -O``,
and only the validators hand a :class:`Report` back."""
from __future__ import annotations

import ast
import inspect
import json
import re
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import skewgentle
from skewgentle import (
    Arc,
    Arrow,
    BoundarySegment,
    CombinatorialCurve,
    DissectedSurface,
    GradedArc,
    Passage,
    Side,
    SignedPermutation,
    arc_side,
    check_gentle,
    cycle_piece,
    double_cover,
    dual_dissection,
    fixture_path,
    fixtures,
    glue_puzzle,
    graded_arcs_from_solution,
    graded_path_algebra,
    linear_piece,
    make_presentation,
    one_orbifold_disc,
    parse_surface_file,
    puncture_loop,
    random_gentle_pair,
    random_triple,
    random_x_dissection,
    special_chain_triple,
    special_piece,
    transport_curve,
    triple_from_x_dissection,
    two_hole_torus_surface,
    two_orbifold_cylinder,
    validate_curve,
    verify_deformation_map,
    verify_morphism,
)
from skewgentle.diagnostics import (
    BAD_INPUT,
    BAD_INVOLUTION,
    INVALID_CURVE,
    SIZE_LIMIT,
    SYNTAX,
    UNKNOWN_ID,
    Report,
    ValidationError,
)
from skewgentle.equivariant import induced_basis_map

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


# Codes that no library function raises yet: SIZE_LIMIT waits for the size
# budgets to be checked before a table is built.
RESERVED = {SIZE_LIMIT}


def test_the_library_uses_every_code_but_the_reserved_ones():
    text = "\n".join(
        path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "diagnostics.py"
    )
    assert {c for c in _codes() if not re.search(rf"\b{c}\b", text)} == RESERVED


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


def _self_calls(source: str) -> list[str]:
    """The functions, nested ones too, that call themselves by name."""
    return [
        f"{f.name}:{call.lineno}"
        for f in ast.walk(ast.parse(source))
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(f)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == f.name
    ]


def test_library_has_no_recursive_function():
    """A recursion takes one stack frame per step, so a long thread or a
    large surface would end in ``RecursionError``.  ``_json_list`` is the
    one exception: it recurses as deep as a ``where`` tuple is nested, and
    the package writes every ``where`` itself, a few levels deep."""
    found = [
        f"{path.name}:{hit}"
        for path in sorted(SRC.glob("*.py"))
        for hit in _self_calls(path.read_text())
    ]
    assert [hit.rpartition(":")[0] for hit in found] == ["diagnostics.py:_json_list"]


@pytest.mark.parametrize(
    "source",
    [
        "def f(n):\n    return f(n - 1)",
        "def outer():\n    def dfs(x):\n        return [dfs(y) for y in x]\n    return dfs",
    ],
)
def test_the_recursion_scan_sees_a_self_call(source):
    assert _self_calls(source)


def test_library_reads_no_environment_variable():
    """The library takes every input as an argument: no module reads
    ``os.environ`` or calls ``os.getenv``."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        path.name
        for path in modules
        if re.search(r"\b(environ|getenv)\b", path.read_text())
    ]
    assert found == []


def _table_reads(source: str) -> list[int]:
    """The lines that read an attribute named ``table``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "table"
    ]


def test_library_reads_no_dense_table():
    """``TableAlgebra.table`` builds the dense ``n×n`` view and fills every
    row, where a verdict reads only the generator rows: no module under
    ``src/`` reads an attribute named ``table``."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}" for path in modules for line in _table_reads(path.read_text())
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    ["alg.table", "dense = skew.table[0][1]", "def f(A):\n    return [r for r in A.table]"],
)
def test_the_table_scan_sees_a_dense_read(source):
    assert _table_reads(source)


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of ``sources`` (a
    module name to its source) that no code there names outside their own
    definition, as ``module:name``.  An import does not count as a use."""
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_library_has_no_private_helper_that_only_the_tests_use():
    """Every private module-level function or class is named in the
    library outside its own definition: a helper that only the tests call
    belongs in the tests."""
    sources = {path.name: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    assert len(sources) >= 10
    assert _unreferenced_private(sources) == []


@pytest.mark.parametrize(
    "sources",
    [
        {"a.py": "def _helper():\n    return 1\n"},
        {"a.py": "def _walk(x):\n    return [_walk(y) for y in x]\n"},
        {"a.py": "class _Node:\n    pass\n"},
        {"a.py": "def _helper(): ...\n", "b.py": "from .a import _helper\n"},
    ],
)
def test_the_private_name_scan_sees_an_unused_helper(sources):
    assert _unreferenced_private(sources)


def test_the_private_name_scan_lets_a_used_helper_be():
    sources = {
        "a.py": "def _helper(): ...\nclass _Node: ...\ndef f():\n    return _Node()\n",
        "b.py": "from . import a\ndef g():\n    return a._helper()\n",
    }
    assert _unreferenced_private(sources) == []


@pytest.mark.parametrize(
    "source", ["assert x", "if __debug__:\n    pass", "import sys\nn = sys.flags.optimize"]
)
def test_the_scan_sees_what_python_O_changes(source):
    assert any(_changes_under_O(node) for node in ast.walk(ast.parse(source)))


def test_fixture_checks_are_diagnostics(monkeypatch, tmp_path):
    # The fixtures raise the findings of the functions they call.
    torus = tmp_path / "torus.surf"
    torus.write_text(fixtures.fixture_path("torus").read_text().replace(" 1+<->1-", ""))
    monkeypatch.setattr(fixtures, "fixture_path", lambda name: torus)
    with pytest.raises(ValidationError) as exc:
        two_hole_torus_surface()
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [
        (BAD_INVOLUTION, (poly,)) for poly in ("lowM", "lowP", "upM", "upP")
    ]
    monkeypatch.setattr(fixtures, "special_piece", lambda prefix: special_piece("s"))
    with pytest.raises(ValidationError) as exc:
        special_chain_triple()
    assert [(d.code, d.where) for d in exc.value.diagnostics] == [(BAD_INPUT, ())]


def test_report_json_survives_a_round_trip():
    report = Report()
    report.add(BAD_INPUT, "pieces did not glue", (("c.2", "s2.v"), ("c.3", "s3.v"), ("c.4", "s4.v")))
    report.add(BAD_INVOLUTION, "no image", ("torus", 3))
    data = report.to_json()
    assert json.loads(json.dumps(data)) == data
    assert [d["where"] for d in data] == [
        [["c.2", "s2.v"], ["c.3", "s3.v"], ["c.4", "s4.v"]],
        ["torus", 3],
    ]


# ---------------------------------------------------------------------------
# One error convention: validators return a Report, every other function
# returns its value or raises ValidationError.

VALIDATORS = {
    "validate",
    "validate_curve",
    "validate_involution",
    "check_gentle",
    "check_skew_gentle",
    "is_dual_dissection",
}


def _names_report(annotation) -> bool:
    return re.search(r"\bReport\b", ast.unparse(annotation)) is not None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _report_results(source: str) -> list[str]:
    """Public functions and methods outside :data:`VALIDATORS` whose return
    annotation names ``Report``, validators annotated to return anything
    but a ``Report``, and ``Report`` fields of public dataclasses."""
    found = []
    for node in ast.parse(source).body:
        members = [node]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            members = node.body
            if _is_dataclass(node):
                found += [
                    f"{node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and _names_report(field.annotation)
                ]
        for f in members:
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("_") or not f.returns:
                continue
            if f.name in VALIDATORS:
                if ast.unparse(f.returns) != "Report":
                    found.append(f.name)
            elif _names_report(f.returns):
                found.append(f.name)
    return found


def test_only_validators_return_a_report():
    assert all(callable(getattr(skewgentle, name)) for name in VALIDATORS)
    found = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _report_results(path.read_text())
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "def build() -> Report: ...",
        "def build() -> tuple[Optional[int], Report]: ...",
        "class Factory:\n    def build(self) -> 'Report': ...",
        "@dataclass(frozen=True)\nclass Result:\n    value: int\n    report: Report",
        "@dataclasses.dataclass\nclass Result:\n    report: Optional[Report]",
        "def validate_involution(s, inv) -> tuple[Report, list[str]]: ...",
    ],
)
def test_the_convention_scan_sees_a_report_result(source):
    assert _report_results(source)


def test_the_convention_scan_lets_validators_and_private_helpers_be():
    source = "def validate(s) -> Report: ...\ndef _check(s) -> Report: ...\n"
    assert _report_results(source) == []


# ---------------------------------------------------------------------------
# The same convention at run time: on a surface that fails ``validate``,
# every public function taking a surface first hands back or raises the
# surface's own findings.


def _surface_first() -> set[str]:
    """The public functions whose first parameter is a surface."""
    found = set()
    for name in skewgentle.__all__:
        f = getattr(skewgentle, name)
        if inspect.isfunction(f):
            params = list(inspect.signature(f).parameters.values())
            if params and params[0].annotation in ("DissectedSurface", DissectedSurface):
                found.add(name)
    return found


def _arguments_after_the_surface(base) -> dict[str, tuple]:
    """What each surface-first function takes after the surface, built on
    the valid ``base``; the involution is the deck of its cover, so it
    belongs to another surface, and the maps given to
    ``complete_involution`` are empty: the surface's findings come first."""
    dual = dual_dissection(base)[0]
    deck = double_cover(base).deck
    return {
        "algebra_dimension": (),
        "boundary_components": (),
        "boundary_curves": (),
        "classify_dissection": (),
        "complete_involution": ({}, {}, ()),
        "cover_invariant_tuple": (),
        "curve_crossings": (dual,),
        "decide_ghat_equiv": (base,),
        "decide_tilting_equiv": (base,),
        "double_cover": (),
        "dual_dissection": (),
        "extract_quiver": (),
        "grading_solver": ([dual],),
        "invariant_tuple": (),
        "is_dual_dissection": ([dual],),
        "map_graded_arc": (deck, GradedArc(dual, (0,))),
        "puncture_loop": ("X1",),
        "quiver_from_dissection": (),
        "quotient": (deck,),
        "surfaces_isomorphic": (base,),
        "topology": (),
        "triple_from_x_dissection": (),
        "validate": (),
        "validate_curve": (dual,),
        "validate_involution": (deck,),
        "winding": (puncture_loop(base, "X1"),),
    }


@pytest.mark.parametrize("broken", ["bz", "zz"])
def test_every_surface_reader_hands_back_the_surface_findings(broken):
    # A boundary segment or an arc ending at a point the surface lacks.
    base = two_orbifold_cylinder(1)
    surface = {
        "bz": replace(base, bsegs=base.bsegs + (BoundarySegment("bz", "nowhere", "B"),)),
        "zz": replace(base, arcs=base.arcs + (Arc("zz", "nowhere", "B"),)),
    }[broken]
    table = _arguments_after_the_surface(base)
    assert set(table) == _surface_first()
    for name, rest in sorted(table.items()):
        f = getattr(skewgentle, name)
        if name in VALIDATORS:
            report = f(surface, *rest)
            assert isinstance(report, Report) and UNKNOWN_ID in report.codes(), name
        else:
            with pytest.raises(ValidationError) as exc:
                f(surface, *rest)
            assert UNKNOWN_ID in [d.code for d in exc.value.diagnostics], name


def _cylinder_and_dual():
    s = two_orbifold_cylinder(1)
    return s, dual_dissection(s)[0]


def _line_algebra():
    """The path algebra of 1 -a→ 2 -b→ 3."""
    return graded_path_algebra(
        make_presentation("123", [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    )


_LINE_MAP = {"1": "1", "2": "2", "3": "3", "a": "a", "b": "b"}


def _at_first_loop(s, value):
    """``graded_path_algebra`` on the triple of ``s`` with ``value`` at its
    first special loop."""
    triple = triple_from_x_dissection(s)
    return graded_path_algebra(triple, {min(triple.special): value})


def _chain_identity():
    """The identity of the 33-element basis of ``special_chain_triple()``."""
    n = graded_path_algebra(special_chain_triple()).dimension
    assert n == 33
    return SignedPermutation(tuple(range(n)), (1,) * n)


def _identity_check(s, loop_values):
    """``verify_morphism`` of the identity of the triple of ``s``, with
    ``loop_values``."""
    triple = triple_from_x_dissection(s)
    alg = graded_path_algebra(triple)
    vertices = {v: alg.vertex(v) for v in triple.vertices}
    arrows = {a.id: alg.arrow(a.id) for a in triple.arrows}
    return verify_morphism(triple, vertices, arrows, alg.algebra, alg.dimension, loop_values)


@pytest.mark.parametrize(
    "call, code, where",
    [
        # a curve on the base read on the total surface of the cover
        (lambda s, d: transport_curve(double_cover(s), d), UNKNOWN_ID, None),
        (lambda s, d: graded_arcs_from_solution([d], {}), BAD_INPUT, None),
        # no image for any generator of the split presentation
        (
            lambda s, d: verify_morphism(
                double_cover(s).split.presentation, {}, {},
                graded_path_algebra(triple_from_x_dissection(s)).algebra, 3,
            ),
            BAD_INPUT,
            None,
        ),
        # a relabelling without the arrow b, and signs without it
        (
            lambda s, d: induced_basis_map(
                _line_algebra(), {k: v for k, v in _LINE_MAP.items() if k != "b"}
            ),
            BAD_INPUT,
            ("b",),
        ),
        (
            lambda s, d: induced_basis_map(_line_algebra(), _LINE_MAP, {"a": 1}),
            BAD_INPUT,
            ("b",),
        ),
        # a loop value keyed by no special loop, or not an exact rational
        (
            lambda s, d: graded_path_algebra(triple_from_x_dissection(s), {"zz": 2}),
            BAD_INPUT,
            ("zz",),
        ),
        (lambda s, d: _at_first_loop(s, "abc"), BAD_INPUT, None),
        (lambda s, d: _at_first_loop(s, None), BAD_INPUT, None),
        (
            lambda s, d: verify_deformation_map(triple_from_x_dissection(s), "abc"),
            BAD_INPUT,
            None,
        ),
        (lambda s, d: _identity_check(s, {"zz": 2}), BAD_INPUT, ("zz",)),
        # bounds that no draw fits: a special loop is an arrow
        (lambda s, d: random_triple(Random(1), 2, 0), BAD_INPUT, ("max_arrows",)),
        (lambda s, d: random_triple(Random(1), 1, -1), BAD_INPUT, ("max_arrows",)),
        (lambda s, d: random_triple(Random(1), -1), BAD_INPUT, ("max_special",)),
        # bounds that are not an int: a float, a string, a bool
        (lambda s, d: random_triple(Random(1), 2.5), BAD_INPUT, ("max_special",)),
        (lambda s, d: random_triple(Random(1), 2, "3"), BAD_INPUT, ("max_arrows",)),
        (lambda s, d: random_triple(Random(1), True), BAD_INPUT, ("max_special",)),
        (lambda s, d: random_triple(Random(1), 1, False), BAD_INPUT, ("max_arrows",)),
        # a generator that is not a random.Random
        (lambda s, d: random_triple(None), BAD_INPUT, ("rng",)),
        (lambda s, d: random_triple(5), BAD_INPUT, ("rng",)),
        (lambda s, d: random_gentle_pair(None), BAD_INPUT, ("rng",)),
        (lambda s, d: random_x_dissection(None), BAD_INPUT, ("rng",)),
        # piece sizes that are not an int of at least 1
        (lambda s, d: linear_piece("3", "x"), BAD_INPUT, ("n",)),
        (lambda s, d: linear_piece(2.5, "x"), BAD_INPUT, ("n",)),
        (lambda s, d: linear_piece(0, "x"), BAD_INPUT, ("n",)),
        (lambda s, d: cycle_piece(0, "c"), BAD_INPUT, ("n",)),
        (lambda s, d: cycle_piece(True, "c"), BAD_INPUT, ("n",)),
        # matchings that are not a pair of vertex ids
        (lambda s, d: glue_puzzle([linear_piece(2, "l")], [("l.1",)]), BAD_INPUT, (("l.1",),)),
        (lambda s, d: glue_puzzle([linear_piece(2, "l")], ["ab"]), BAD_INPUT, ("ab",)),
        (lambda s, d: glue_puzzle([linear_piece(2, "l")], [("l.1", 2)]), BAD_INPUT, (("l.1", 2),)),
        # fixture sizes that are not an int in range, and a missing file
        (lambda s, d: one_orbifold_disc(0), BAD_INPUT, ("marked",)),
        (lambda s, d: one_orbifold_disc(1), BAD_INPUT, ("marked",)),
        (lambda s, d: one_orbifold_disc("3"), BAD_INPUT, ("marked",)),
        (lambda s, d: one_orbifold_disc(2.5), BAD_INPUT, ("marked",)),
        (lambda s, d: two_orbifold_cylinder(0), BAD_INPUT, ("variant",)),
        (lambda s, d: two_orbifold_cylinder(True), BAD_INPUT, ("variant",)),
        (lambda s, d: two_orbifold_cylinder(1.0), BAD_INPUT, ("variant",)),
        (lambda s, d: fixture_path("zz"), BAD_INPUT, ("zz",)),
        # an index outside the 33 basis elements of the chain's algebra
        (lambda s, d: _chain_identity().apply({-1: 1}), BAD_INPUT, (-1,)),
        (lambda s, d: _chain_identity().apply({33: 1}), BAD_INPUT, (33,)),
        # a polygon side of no kind, a backward bseg side, an arc side of
        # no direction
        (lambda s, d: Side("x", "a"), BAD_INPUT, ("a",)),
        (lambda s, d: Side("b", "b1", -1), BAD_INPUT, ("b1",)),
        (lambda s, d: arc_side("a", 0), BAD_INPUT, ("a",)),
    ],
    ids=[
        "transport_curve", "graded_arcs_from_solution", "verify_morphism",
        "induced_basis_map-image", "induced_basis_map-sign", "graded_path_algebra-key",
        "graded_path_algebra-text", "graded_path_algebra-none", "verify_deformation_map",
        "verify_morphism-loop", "random_triple-arrows", "random_triple-negative-arrows",
        "random_triple-special", "random_triple-float", "random_triple-text",
        "random_triple-bool", "random_triple-bool-arrows", "random_triple-rng-none",
        "random_triple-rng-int", "random_gentle_pair-rng", "random_x_dissection-rng",
        "linear_piece-text", "linear_piece-float", "linear_piece-0", "cycle_piece-0",
        "cycle_piece-bool", "glue_puzzle-single", "glue_puzzle-text", "glue_puzzle-int",
        "one_orbifold_disc-0", "one_orbifold_disc-1",
        "one_orbifold_disc-text", "one_orbifold_disc-float", "two_orbifold_cylinder-0",
        "two_orbifold_cylinder-bool", "two_orbifold_cylinder-float", "fixture_path",
        "apply-negative", "apply-past-the-end", "Side-kind", "Side-bseg-backward",
        "arc_side-direction",
    ],
)
def test_bad_arguments_raise_a_validation_error(call, code, where):
    with pytest.raises(ValidationError) as exc:
        call(*_cylinder_and_dual())
    assert code in [d.code for d in exc.value.diagnostics]
    assert where is None or where in [d.where for d in exc.value.diagnostics]


_DISC = parse_surface_file(fixture_path("disc").read_text()).surface


def _curve_findings(closed, *passages):
    """The findings of ``validate_curve`` on the disc (``F1 = b1, a-`` and
    ``F2 = b2, a+``) for the curve ``c`` through ``passages``."""
    curve = CombinatorialCurve("c", closed, tuple(Passage(*p) for p in passages))
    return validate_curve(_DISC, curve).diagnostics


def _parse_findings(text):
    with pytest.raises(ValidationError) as exc:
        parse_surface_file(text)
    return exc.value.diagnostics


def _gentle_findings(*args):
    return check_gentle(make_presentation(*args)).diagnostics


# a commutative square 1 -a-> 2 -b-> 4, 1 -c-> 3 -d-> 4
_SQUARE = [Arrow("a", "1", "2"), Arrow("b", "2", "4"), Arrow("c", "1", "3"), Arrow("d", "3", "4")]
_LOOP = [Arrow("a", "1", "2"), Arrow("e", "2", "2")]


@pytest.mark.parametrize(
    "findings, code, message, where",
    [
        (lambda: _curve_findings(False), INVALID_CURVE, "curve 'c' has no passages", ("c",)),
        (
            lambda: _curve_findings(False, ("F1", 0, 5, "right")),
            INVALID_CURVE, "curve 'c' passage 0: slot 5 out of range", ("c", 0),
        ),
        (
            lambda: _curve_findings(False, ("F1", 0, 1, "up")),
            INVALID_CURVE, "curve 'c' passage 0: bad bseg side 'up'", ("c", 0),
        ),
        (
            lambda: _curve_findings(True, ("F1", 0, 1, "right")),
            INVALID_CURVE, "curve 'c' passage 0 enters through the bseg", ("c", 0),
        ),
        (
            lambda: _curve_findings(True, ("F1", 1, 0, "right")),
            INVALID_CURVE, "curve 'c' passage 0 exits through the bseg", ("c", 0),
        ),
        (
            lambda: _curve_findings(False, ("F1", 1, 0, "right")),
            INVALID_CURVE, "open curve 'c' must start at a bseg midpoint", ("c", 0),
        ),
        (
            lambda: _curve_findings(False, ("F1", 0, 1, "right")),
            INVALID_CURVE, "open curve 'c' must end at a bseg midpoint", ("c", 0),
        ),
        (
            lambda: _curve_findings(False, ("F1", 0, 0, "right")),
            INVALID_CURVE, "open curve 'c' crosses no arc", ("c",),
        ),
        (
            lambda: _parse_findings("surface s\npoly F sides=b:b1,x:a"),
            SYNTAX, "line 2: bad polygon side 'x:a'", (2,),
        ),
        (
            lambda: _parse_findings("surface s\ninvolution A<->B"),
            SYNTAX, "line 2: involution entries must follow 'points' or 'arcs'", (2,),
        ),
        (
            lambda: _parse_findings("surface s\ninvolution points A"),
            SYNTAX, "line 2: bad involution entry 'A'", (2,),
        ),
        (
            lambda: _parse_findings("surface"),
            SYNTAX, "line 1: surface takes exactly one name", (1,),
        ),
        (
            lambda: _parse_findings("surface s\npoly F sides=,"),
            SYNTAX, "line 2: polygon has no sides", (2,),
        ),
        (
            lambda: _parse_findings("surface s\ncurve c loop passages=(F,0,1,left)"),
            SYNTAX, "line 2: curve needs an id, closed|open and passages=...", (2,),
        ),
        (
            lambda: _parse_findings("surface s\ncurve c open passages=(F,0,1)"),
            SYNTAX, "line 2: bad passage '(F,0,1)'", (2,),
        ),
        (
            lambda: _parse_findings(
                "surface s\ncurve c open passages=(F,0,1,left)\n"
                "curve c open passages=(F,0,1,left)"
            ),
            SYNTAX, "line 3: duplicate curve id 'c'", (3,),
        ),
        (
            lambda: _parse_findings("point P kind=boundary"),
            SYNTAX, "line 0: missing 'surface NAME' line", (0,),
        ),
        (
            lambda: _gentle_findings("12", _LOOP, [[("e", "e")]], ["e"]),
            BAD_INPUT, "special loops present; use check_skew_gentle", (),
        ),
        (
            lambda: _gentle_findings("1234", _SQUARE, [[("a", "b"), ("c", "d")]]),
            BAD_INPUT,
            "two-term relation (('a', 'b'), ('c', 'd')) in a gentle pair",
            ((("a", "b"), ("c", "d")),),
        ),
    ],
    ids=[
        "curve-no-passages", "curve-slot-range", "curve-bseg-side", "curve-enters-bseg",
        "curve-exits-bseg", "curve-open-start", "curve-open-end", "curve-crosses-no-arc",
        "parse-polygon-side", "parse-involution-mode", "parse-involution-entry",
        "parse-surface-name", "parse-empty-polygon", "parse-curve-line", "parse-passage",
        "parse-duplicate-curve", "parse-missing-surface", "gentle-special-loops",
        "gentle-two-term-relation",
    ],
)
def test_each_refusal_names_its_finding(findings, code, message, where):
    assert [(d.code, d.message, d.where) for d in findings()] == [(code, message, where)]
