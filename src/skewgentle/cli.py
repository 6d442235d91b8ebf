"""Plain-text surface files and the ``skewgentle`` command line tool.

File format (one record per line; blank lines and ``#`` comments are
ignored)::

    surface NAME
    point ID kind=boundary|puncture|orbifold
    bseg ID from=POINT to=POINT
    arc ID from=POINT to=POINT
    poly ID sides=b:BSEG,a:ARC:+,a:ARC:-
    involution points A<->B ... arcs C<->D E~rev ...
    curve ID closed|open passages=(POLY,ENTRY,EXIT,left|right);...

Polygon words are counterclockwise with the interior on the left; the
printer emits the canonical form (boundary segment first, records sorted
by id), and parsing that output reproduces it byte for byte.

Exit codes: 0 success, 1 a comparison decided NOT_EQUIVALENT, 2 invalid
input (diagnostics on stderr).

``main(argv)`` can be called repeatedly in one process.  It builds its
argument parser once, on the first call (not at import), and every later
call parses with that same parser.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass, field
from typing import Optional

from .algebra import Vector
from .covering import double_cover, quotient
from .diagnostics import (
    BAD_INPUT,
    SYNTAX,
    Report,
    ValidationError,
    raise_on_error,
)
from .equivariant import verify_dual_reduction, verify_skew_group_reduction
from .linefield import (
    NOT_EQUIVALENT,
    GradedArc,
    build_complex,
    cover_invariant_tuple,
    decide_ghat_equiv,
    decide_tilting_equiv,
    invariant_tuple,
    puncture_loop,
    winding,
)
from .linefield import boundary_curves as _boundary_curves
from .presentations import (
    Presentation,
    quiver_from_dissection,
    split_presentation,
    triple_from_x_dissection,
)
from .surface import (
    BOUNDARY,
    ORBIFOLD,
    PUNCTURE,
    Arc,
    BoundarySegment,
    CombinatorialCurve,
    DissectedSurface,
    MarkedPoint,
    Passage,
    Polygon,
    SurfaceInvolution,
    arc_side,
    bseg_side,
    classify_dissection,
    complete_involution,
    make_surface,
    topology,
    validate,
    validate_curve,
    validate_involution,
)

__all__ = ["SurfaceFile", "format_surface_file", "main", "parse_surface_file"]


# ---------------------------------------------------------------------------
# File format


@dataclass
class SurfaceFile:
    surface: DissectedSurface
    involution: Optional[SurfaceInvolution] = None
    curves: dict[str, CombinatorialCurve] = field(default_factory=dict)


_KINDS = {
    "boundary": BOUNDARY,
    "boundary_marked": BOUNDARY,
    "puncture": PUNCTURE,
    "orbifold": ORBIFOLD,
}
_PASSAGE_RE = re.compile(r"^\(([^,()\s]+),(\d+),(\d+),(left|right)\)$")


def _syntax(ln: int, message: str) -> ValidationError:
    report = Report()
    report.add(SYNTAX, f"line {ln}: {message}", (ln,))
    return ValidationError(report.diagnostics)


def _keyed(ln: int, token: str, key: str) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise _syntax(ln, f"expected {key}=..., got {token!r}")
    return token[len(prefix) :]


def _parse_side(ln: int, token: str):
    parts = token.split(":")
    if parts[0] == "b" and len(parts) == 2:
        return bseg_side(parts[1])
    if parts[0] == "a" and len(parts) == 3 and parts[2] in ("+", "-"):
        return arc_side(parts[1], 1 if parts[2] == "+" else -1)
    raise _syntax(ln, f"bad polygon side {token!r}")


def _parse_involution(ln: int, tokens: list[str]):
    points: dict[str, str] = {}
    arcs: dict[str, str] = {}
    rev: list[str] = []
    mode = None
    for tok in tokens:
        if tok in ("points", "arcs"):
            mode = tok
            continue
        if mode is None:
            raise _syntax(ln, "involution entries must follow 'points' or 'arcs'")
        target = points if mode == "points" else arcs
        if "<->" in tok:
            a, b = tok.split("<->", 1)
            target[a], target[b] = b, a
        elif tok.endswith("~rev") and mode == "arcs":
            a = tok[: -len("~rev")]
            arcs[a] = a
            rev.append(a)
        else:
            raise _syntax(ln, f"bad involution entry {tok!r}")
    return points, arcs, rev


def parse_surface_file(text: str) -> SurfaceFile:
    name: Optional[str] = None
    points: list[MarkedPoint] = []
    arcs: list[Arc] = []
    bsegs: list[BoundarySegment] = []
    polygons: list[Polygon] = []
    inv_data = None
    curves: dict[str, CombinatorialCurve] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "surface":
            if len(tokens) != 2:
                raise _syntax(ln, "surface takes exactly one name")
            name = tokens[1]
        elif head == "point":
            if len(tokens) != 3:
                raise _syntax(ln, "point needs an id and kind=...")
            kind = _keyed(ln, tokens[2], "kind")
            if kind not in _KINDS:
                raise _syntax(ln, f"unknown point kind {kind!r}")
            points.append(MarkedPoint(tokens[1], _KINDS[kind]))
        elif head in ("bseg", "arc"):
            if len(tokens) != 4:
                raise _syntax(ln, f"{head} needs an id, from=... and to=...")
            tail = _keyed(ln, tokens[2], "from")
            headpt = _keyed(ln, tokens[3], "to")
            if head == "bseg":
                bsegs.append(BoundarySegment(tokens[1], tail, headpt))
            else:
                arcs.append(Arc(tokens[1], tail, headpt))
        elif head == "poly":
            if len(tokens) != 3:
                raise _syntax(ln, "poly needs an id and sides=...")
            word = _keyed(ln, tokens[2], "sides")
            sides = tuple(_parse_side(ln, t) for t in word.split(",") if t)
            if not sides:
                raise _syntax(ln, "polygon has no sides")
            polygons.append(Polygon(tokens[1], sides))
        elif head == "involution":
            if inv_data is not None:
                raise _syntax(ln, "more than one involution line")
            inv_data = _parse_involution(ln, tokens[1:])
        elif head == "curve":
            if len(tokens) != 4 or tokens[2] not in ("closed", "open"):
                raise _syntax(ln, "curve needs an id, closed|open and passages=...")
            body = _keyed(ln, tokens[3], "passages")
            passages = []
            for item in body.split(";"):
                m = _PASSAGE_RE.match(item)
                if not m:
                    raise _syntax(ln, f"bad passage {item!r}")
                passages.append(
                    Passage(m.group(1), int(m.group(2)), int(m.group(3)), m.group(4))
                )
            if tokens[1] in curves:
                raise _syntax(ln, f"duplicate curve id {tokens[1]!r}")
            curves[tokens[1]] = CombinatorialCurve(
                tokens[1], tokens[2] == "closed", tuple(passages)
            )
        else:
            raise _syntax(ln, f"unknown record {head!r}")
    if name is None:
        raise _syntax(0, "missing 'surface NAME' line")
    surface = make_surface(name, points, arcs, bsegs, polygons)
    raise_on_error(validate(surface))
    involution = None
    if inv_data is not None:
        pmap, amap, rev = inv_data
        involution, report = complete_involution(surface, pmap, amap, rev)
        raise_on_error(report)
        assert involution is not None
        inv_report, _ = validate_involution(surface, involution)
        raise_on_error(inv_report)
    for curve in curves.values():
        raise_on_error(validate_curve(surface, curve))
    return SurfaceFile(surface, involution, curves)


def _format_side(side) -> str:
    if not side.is_arc:
        return f"b:{side.ref}"
    return f"a:{side.ref}:{'+' if side.direction == 1 else '-'}"


def format_surface_file(sf: SurfaceFile) -> str:
    s = sf.surface
    lines = [f"surface {s.name}"]
    for p in sorted(s.points, key=lambda x: x.id):
        lines.append(f"point {p.id} kind={p.kind}")
    for b in sorted(s.bsegs, key=lambda x: x.id):
        lines.append(f"bseg {b.id} from={b.tail} to={b.head}")
    for a in sorted(s.arcs, key=lambda x: x.id):
        lines.append(f"arc {a.id} from={a.tail} to={a.head}")
    for poly in sorted(s.polygons, key=lambda x: x.id):
        word = ",".join(_format_side(x) for x in poly.sides)
        lines.append(f"poly {poly.id} sides={word}")
    if sf.involution is not None:
        inv = sf.involution
        point_pairs = sorted({tuple(sorted((a, b))) for a, b in inv.points.items()})
        arc_pairs = sorted(
            {
                tuple(sorted((a, b)))
                for a, b in inv.arcs.items()
                if a not in inv.reversed_arcs
            }
        )
        parts = ["involution", "points"]
        parts += [f"{a}<->{b}" for a, b in point_pairs]
        parts.append("arcs")
        parts += [f"{a}<->{b}" for a, b in arc_pairs]
        parts += [f"{a}~rev" for a in sorted(inv.reversed_arcs)]
        lines.append(" ".join(parts))
    for cid in sorted(sf.curves):
        c = sf.curves[cid]
        body = ";".join(
            f"({p.polygon},{p.entry},{p.exit},{p.bseg_side})" for p in c.passages
        )
        shape = "closed" if c.closed else "open"
        lines.append(f"curve {c.id} {shape} passages={body}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> SurfaceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_surface_file(fh.read())


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
    kind = classify_dissection(surface).kind
    if kind == "x":
        return triple_from_x_dissection(surface)
    return quiver_from_dissection(surface)


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
    kind = classify_dissection(s).kind
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
    _print_presentation(split_presentation(_triple_of(_load(ns.file).surface)))
    return 0


def _cmd_cover(ns) -> int:
    cov = double_cover(_load(ns.file).surface)
    sys.stdout.write(format_surface_file(SurfaceFile(cov.total, cov.deck)))
    return 0


def _cmd_quotient(ns) -> int:
    sf = _load(ns.file)
    if sf.involution is None:
        report = Report()
        report.add(BAD_INPUT, "file has no involution line to quotient by", ())
        raise_on_error(report)
        return 2
    cov = quotient(sf.surface, sf.involution)
    sys.stdout.write(format_surface_file(SurfaceFile(cov.base)))
    return 0


def _cmd_skewgroup(ns) -> int:
    cov = double_cover(_load(ns.file).surface)
    red = verify_skew_group_reduction(cov)
    dual = verify_dual_reduction(cov)
    print(f"cover algebra dimension: {red.cover_algebra.dimension}")
    print(f"skew group algebra dimension: {red.skew.dimension}")
    print(f"corner dimension: {red.corner.algebra.dimension}")
    print(f"reduction is isomorphism: {red.verdict.is_isomorphism}")
    print(f"dual reduction is isomorphism: {dual.verdict.is_isomorphism}")
    print(
        "dual reduction equivariant: "
        f"{all(dual.equivariant.values())}"
    )
    return 0


def _cmd_invariants(ns) -> int:
    s = _load(ns.file).surface
    t = invariant_tuple(s)
    print(f"genus {t.genus}")
    for w, marked, kind in t.entries:
        if kind == BOUNDARY:
            print(f"boundary winding={w} marked={marked}")
        else:
            print(f"{kind} winding={w}")
    if classify_dissection(s).kind == "x":
        c = cover_invariant_tuple(s)
        print(f"cover genus {c.genus}")
        for w, marked, kind in c.entries:
            if kind == BOUNDARY:
                print(f"cover boundary winding={w} marked={marked}")
            else:
                print(f"cover {kind} winding={w}")
    return 0


def _cmd_winding(ns) -> int:
    sf = _load(ns.file)
    s = sf.surface
    if ns.curve is not None:
        if ns.curve not in sf.curves:
            report = Report()
            report.add(BAD_INPUT, f"file names no curve {ns.curve!r}", (ns.curve,))
            raise_on_error(report)
        print(f"{ns.curve} winding={winding(s, sf.curves[ns.curve])}")
        return 0
    for curve in _boundary_curves(s):
        print(f"{curve.id} winding={winding(s, curve)}")
    for p in sorted(x.id for x in s.points if x.kind != BOUNDARY):
        loop = puncture_loop(s, p)
        print(f"{loop.id} winding={winding(s, loop)}")
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
        report = Report()
        report.add(BAD_INPUT, f"file names no curve {ns.curve!r}", (ns.curve,))
        raise_on_error(report)
    curve = sf.curves[ns.curve]
    ps = curve.passages
    count = len(ps) if curve.closed else len(ps) - 1
    if ns.grades is not None:
        try:
            grades = tuple(int(x) for x in ns.grades.split(","))
        except ValueError:
            report = Report()
            report.add(BAD_INPUT, f"bad grade list {ns.grades!r}", ())
            raise_on_error(report)
    else:
        from .surface import passage_winding

        acc = [0]
        span = range(1, count) if curve.closed else range(1, len(ps) - 1)
        for j in span:
            acc.append(acc[-1] + passage_winding(ps[j]))
        grades = tuple(acc)
    cx = build_complex(GradedArc(curve, grades), s)
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


if __name__ == "__main__":
    sys.exit(main())
