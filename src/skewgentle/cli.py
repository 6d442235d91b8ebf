"""The ``skewgentle`` command line tool.

Each command reads surface files in the format described in
:mod:`skewgentle.surface`.

Exit codes: 0 success, 1 a comparison decided NOT_EQUIVALENT, 2 invalid
input (diagnostics on stderr).

``main(argv)`` can be called repeatedly in one process.  It builds its
argument parser once, on the first call (not at import), and every later
call parses with that same parser.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .algebra import Vector
from .covering import double_cover, quotient
from .diagnostics import BAD_INPUT, SYNTAX, ValidationError, error
from .equivariant import verify_dual_reduction, verify_skew_group_reduction
from .linefield import (
    NOT_EQUIVALENT,
    GradedArc,
    InvariantTuple,
    build_complex,
    canonical_windings,
    cover_invariant_tuple,
    decide_ghat_equiv,
    decide_tilting_equiv,
    invariant_tuple,
    winding,
)
from .presentations import Presentation, extract_quiver, split_presentation
from .surface import (
    BOUNDARY,
    DissectedSurface,
    SurfaceFile,
    classify_dissection,
    crossing_steps,
    format_surface_file,
    parse_surface_file,
    passage_winding,
    topology,
)

__all__ = ["main"]


def _load(path: str) -> SurfaceFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ln = data.count(b"\n", 0, exc.start) + 1
        raise error(SYNTAX, f"line {ln}: not UTF-8 text", (ln,)) from None
    return parse_surface_file(text)


# ---------------------------------------------------------------------------
# Presentation printing


def _format_relation(relation) -> str:
    return " + ".join("*".join(path) for path in relation)


def _print_presentation(pres: Presentation) -> None:
    for v in pres.vertices:
        print(f"vertex {v}")
    for a in pres.arrows:
        print(f"arrow {a.id} {a.source} -> {a.target}")
    for e in sorted(pres.special):
        print(f"special {e}")
    for r in pres.relations:
        print(f"relation {_format_relation(r)}")


def _triple_of(surface: DissectedSurface) -> Presentation:
    """The gentle pair or skew-gentle triple of a dissection, classified
    once (``X_DEGREE`` for a bad orbifold point)."""
    classify_dissection(surface)
    return extract_quiver(surface).presentation


def _format_vector(labels, vec: Vector) -> str:
    if not vec:
        return "0"
    bits = []
    for idx in sorted(vec):
        src, arrows = labels[idx]
        path = "*".join(arrows) if arrows else f"e_{src}"
        coeff = vec[idx]
        bits.append(path if coeff == 1 else f"{coeff}*{path}")
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# Commands


def _cmd_validate(ns) -> int:
    sf = _load(ns.file)
    s = sf.surface
    kind = classify_dissection(s)
    top = topology(s)
    genus = top.genus if top.connected else "n/a (disconnected)"
    print(
        f"OK {s.name}: kind={kind}, genus={genus}, "
        f"boundary components={len(top.boundary)}, "
        f"punctures={len(top.punctures)}, "
        f"orbifold points={len(top.orbifold_points)}"
    )
    if sf.involution is not None:
        print("involution: valid")
    for cid in sorted(sf.curves):
        print(f"curve {cid}: valid")
    return 0


def _cmd_quiver(ns) -> int:
    _print_presentation(_triple_of(_load(ns.file).surface))
    return 0


def _cmd_split(ns) -> int:
    _print_presentation(split_presentation(_triple_of(_load(ns.file).surface)).presentation)
    return 0


def _cmd_cover(ns) -> int:
    cov = double_cover(_load(ns.file).surface)
    sys.stdout.write(format_surface_file(SurfaceFile(cov.total, cov.deck)))
    return 0


def _cmd_quotient(ns) -> int:
    sf = _load(ns.file)
    if sf.involution is None:
        raise error(BAD_INPUT, "file has no involution line to quotient by")
    cov = quotient(sf.surface, sf.involution)
    sys.stdout.write(format_surface_file(SurfaceFile(cov.base)))
    return 0


def _cmd_skewgroup(ns) -> int:
    cov = double_cover(_load(ns.file).surface)
    red = verify_skew_group_reduction(cov)
    dual = verify_dual_reduction(cov)
    print(f"cover algebra dimension: {red.cover_algebra.dimension}")
    print(f"skew group algebra dimension: {red.skew.dimension}")
    print(f"corner dimension: {red.corner.dimension}")
    print(f"reduction is isomorphism: {red.verdict.is_isomorphism}")
    print(f"dual reduction is isomorphism: {dual.verdict.is_isomorphism}")
    print(
        "dual reduction equivariant: "
        f"{all(dual.equivariant.values())}"
    )
    return 0


def _print_invariants(t: InvariantTuple, prefix: str) -> None:
    print(f"{prefix}genus {t.genus}")
    for w, marked, kind in t.entries:
        if kind == BOUNDARY:
            print(f"{prefix}boundary winding={w} marked={marked}")
        else:
            print(f"{prefix}{kind} winding={w}")


def _cmd_invariants(ns) -> int:
    s = _load(ns.file).surface
    t = invariant_tuple(s)
    orbifold = classify_dissection(s) == "x"
    _print_invariants(t, "")
    if orbifold:
        _print_invariants(cover_invariant_tuple(s), "cover ")
    return 0


def _cmd_winding(ns) -> int:
    sf = _load(ns.file)
    s = sf.surface
    classify_dissection(s)
    if ns.curve is not None:
        if ns.curve not in sf.curves:
            raise error(BAD_INPUT, f"file names no curve {ns.curve!r}", (ns.curve,))
        print(f"{ns.curve} winding={winding(s, sf.curves[ns.curve])}")
        return 0
    for cid, w in canonical_windings(s):
        print(f"{cid} winding={w}")
    return 0


def _cmd_compare(ns) -> int:
    s1 = _load(ns.file1).surface
    s2 = _load(ns.file2).surface
    decide = decide_tilting_equiv if ns.mode == "tilting" else decide_ghat_equiv
    verdict = decide(s1, s2)
    print(verdict.verdict)
    for line in verdict.details:
        print(f"  {line}")
    return 1 if verdict.verdict == NOT_EQUIVALENT else 0


def _cmd_complex(ns) -> int:
    sf = _load(ns.file)
    s = sf.surface
    if ns.curve not in sf.curves:
        raise error(BAD_INPUT, f"file names no curve {ns.curve!r}", (ns.curve,))
    curve = sf.curves[ns.curve]
    if ns.grades is not None:
        try:
            grades = [int(x) for x in ns.grades.split(",")]
        except ValueError:
            raise error(BAD_INPUT, f"bad grade list {ns.grades!r}")
    else:
        count, steps = crossing_steps(curve)
        grades = [0] * count
        for j, before, after in steps:
            if after:  # grades start at 0 on crossing 0
                grades[after] = grades[before] + passage_winding(curve.passages[j])
    cx = build_complex(GradedArc(curve, tuple(grades)), s)
    for k, (vertex, shift) in enumerate(cx.summands):
        print(f"summand {k} arc={vertex} shift={shift}")
    labels = cx.algebra.algebra.labels
    for (i, j) in sorted(cx.differential):
        print(f"d[{i},{j}] = {_format_vector(labels, cx.differential[(i, j)])}")
    return 0


def _cmd_export_dot(ns) -> int:
    pres = _triple_of(_load(ns.file).surface)
    print("digraph quiver {")
    for v in pres.vertices:
        print(f'  "{v}";')
    for a in pres.arrows:
        style = ", style=bold" if a.id in pres.special else ""
        print(f'  "{a.source}" -> "{a.target}" [label="{a.id}"{style}];')
    for r in pres.relations:
        print(f"  // relation: {_format_relation(r)}")
    print("}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first ``main`` call and reused."""
    parser = argparse.ArgumentParser(
        prog="skewgentle",
        description="Dissected surfaces, skew-gentle presentations, double "
        "covers and winding-number invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a surface file").add_argument("file")
    add("quiver", _cmd_quiver, "print the dissection's presentation").add_argument(
        "file"
    )
    add("split", _cmd_split, "print the split presentation").add_argument("file")
    add("cover", _cmd_cover, "print the canonical double cover").add_argument(
        "file"
    )
    add(
        "quotient", _cmd_quotient, "print the quotient by the file's involution"
    ).add_argument("file")
    add(
        "skewgroup",
        _cmd_skewgroup,
        "verify the skew group reductions over the canonical cover",
    ).add_argument("file")
    add("invariants", _cmd_invariants, "print winding invariant tuples").add_argument(
        "file"
    )
    p = add("winding", _cmd_winding, "winding numbers of curves")
    p.add_argument("file")
    p.add_argument("curve", nargs="?", default=None)
    p = add("compare", _cmd_compare, "compare two dissections")
    p.add_argument("--mode", choices=("tilting", "ghat"), required=True)
    p.add_argument("file1")
    p.add_argument("file2")
    p = add("complex", _cmd_complex, "projective presentation of a graded arc")
    p.add_argument("file")
    p.add_argument("curve")
    p.add_argument("--grades", default=None)
    add("export-dot", _cmd_export_dot, "quiver in graphviz dot format").add_argument(
        "file"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return ns.func(ns)
    except ValidationError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
