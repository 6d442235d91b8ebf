"""The ``skewgentle`` command line tool.

Each command reads surface files in the format described in
:mod:`skewgentle.surface`.

Exit codes: 0 success, 1 a comparison decided NOT_EQUIVALENT, 2 invalid
input (diagnostics on stderr) or a usage error (the usage on stderr).

``main(argv)`` can be called repeatedly in one process.  One table,
``_COMMANDS``, holds each subcommand's handler, positionals, options and
help; ``main`` reads ``argv`` against it in one pass, by the rules and
with the error messages of argparse, and the usage and help it prints
are built from the same table.
"""
from __future__ import annotations

import codecs
import re
import sys
from typing import Callable, NamedTuple, NoReturn, Optional, Union

from .algebra import Vector
from .covering import double_cover, quotient
from .diagnostics import BAD_INPUT, SYNTAX, ValidationError, error
from .equivariant import verify_dual_reduction, verify_skew_group_reduction
from .linefield import (
    DECIDERS,
    NOT_EQUIVALENT,
    GradedArc,
    InvariantTuple,
    build_complex,
    canonical_windings,
    cover_invariant_tuple,
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
    # not the utf-8-sig codec: its error offsets would skip the mark's bytes
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
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


def _cmd_validate(file: str) -> int:
    sf = _load(file)
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


def _cmd_quiver(file: str) -> int:
    _print_presentation(_triple_of(_load(file).surface))
    return 0


def _cmd_split(file: str) -> int:
    _print_presentation(split_presentation(_triple_of(_load(file).surface)).presentation)
    return 0


def _cmd_cover(file: str) -> int:
    cov = double_cover(_load(file).surface)
    sys.stdout.write(format_surface_file(SurfaceFile(cov.total, cov.deck)))
    return 0


def _cmd_quotient(file: str) -> int:
    sf = _load(file)
    if sf.involution is None:
        raise error(BAD_INPUT, "file has no involution line to quotient by")
    cov = quotient(sf.surface, sf.involution)
    sys.stdout.write(format_surface_file(SurfaceFile(cov.base)))
    return 0


def _cmd_skewgroup(file: str) -> int:
    cov = double_cover(_load(file).surface)
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


def _cmd_invariants(file: str) -> int:
    s = _load(file).surface
    t = invariant_tuple(s)
    orbifold = classify_dissection(s) == "x"
    _print_invariants(t, "")
    if orbifold:
        _print_invariants(cover_invariant_tuple(s), "cover ")
    return 0


def _cmd_winding(file: str, curve: Optional[str]) -> int:
    sf = _load(file)
    s = sf.surface
    classify_dissection(s)
    if curve is not None:
        if curve not in sf.curves:
            raise error(BAD_INPUT, f"file names no curve {curve!r}", (curve,))
        print(f"{curve} winding={winding(s, sf.curves[curve])}")
        return 0
    for cid, w in canonical_windings(s):
        print(f"{cid} winding={w}")
    return 0


def _cmd_compare(mode: str, file1: str, file2: str) -> int:
    s1 = _load(file1).surface
    s2 = _load(file2).surface
    verdict = DECIDERS[mode](s1, s2)
    print(f"{verdict.verdict}\n  reason: {verdict.reason}")
    for side, pairs in zip(("left", "right"), verdict.witness):
        print(f"  {side}: " + ", ".join(f"{name} {value}" for name, value in pairs))
    return 1 if verdict.verdict == NOT_EQUIVALENT else 0


def _cmd_complex(file: str, curve: str, grades: Optional[str]) -> int:
    sf = _load(file)
    s = sf.surface
    if curve not in sf.curves:
        raise error(BAD_INPUT, f"file names no curve {curve!r}", (curve,))
    arc = sf.curves[curve]
    if grades is not None:
        try:
            shifts = [int(x) for x in grades.split(",")]
        except ValueError:
            raise error(BAD_INPUT, f"bad grade list {grades!r}")
    else:
        count, steps = crossing_steps(arc)
        shifts = [0] * count
        for j, before, after in steps:
            if after:  # grades start at 0 on crossing 0
                shifts[after] = shifts[before] + passage_winding(arc.passages[j])
    cx = build_complex(GradedArc(arc, tuple(shifts)), s)
    for k, (vertex, shift) in enumerate(cx.summands):
        print(f"summand {k} arc={vertex} shift={shift}")
    labels = cx.algebra.algebra.labels
    for (i, j) in sorted(cx.differential):
        print(f"d[{i},{j}] = {_format_vector(labels, cx.differential[(i, j)])}")
    return 0


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_export_dot(file: str) -> int:
    pres = _triple_of(_load(file).surface)
    print("digraph quiver {")
    for v in pres.vertices:
        print(f"  {_dot_string(v)};")
    for a in pres.arrows:
        style = ", style=bold" if a.id in pres.special else ""
        ends = f"{_dot_string(a.source)} -> {_dot_string(a.target)}"
        print(f"  {ends} [label={_dot_string(a.id)}{style}];")
    for r in pres.relations:
        print(f"  // relation: {_format_relation(r)}")
    print("}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Command(NamedTuple):
    """One subcommand: its handler, its positionals as printed (one in
    brackets may be left out), its options, each mapped to its choices (a
    required option) or to the metavar of its free value (an option that
    may be left out), and its one-line help."""

    handler: Callable[..., int]
    positionals: tuple[str, ...]
    options: dict[str, Union[tuple[str, ...], str]]
    help: str


_COMMANDS = {
    "validate": _Command(_cmd_validate, ("FILE",), {}, "check a surface file"),
    "quiver": _Command(_cmd_quiver, ("FILE",), {}, "print the dissection's presentation"),
    "split": _Command(_cmd_split, ("FILE",), {}, "print the split presentation"),
    "cover": _Command(_cmd_cover, ("FILE",), {}, "print the canonical double cover"),
    "quotient": _Command(
        _cmd_quotient, ("FILE",), {}, "print the quotient by the file's involution"
    ),
    "skewgroup": _Command(
        _cmd_skewgroup, ("FILE",), {}, "verify the crossed-product reductions"
    ),
    "invariants": _Command(_cmd_invariants, ("FILE",), {}, "print winding invariant tuples"),
    "winding": _Command(_cmd_winding, ("FILE", "[CURVE]"), {}, "winding numbers of curves"),
    "compare": _Command(
        _cmd_compare,
        ("FILE1", "FILE2"),
        {"--mode": tuple(DECIDERS)},
        "compare two dissections",
    ),
    "complex": _Command(
        _cmd_complex,
        ("FILE", "CURVE"),
        {"--grades": "n0,n1,..."},
        "projective presentation of a graded arc",
    ),
    "export-dot": _Command(_cmd_export_dot, ("FILE",), {}, "quiver in graphviz dot format"),
}

_USAGE = "usage: skewgentle [-h] COMMAND ..."
_HELP = ("-h", "--help")
# argparse reads a token like these, or one with a space, as a positional
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _synopsis(name: str) -> str:
    """``skewgentle NAME`` with the command's options and positionals."""
    options = _COMMANDS[name].options.items()
    return " ".join(
        ["skewgentle", name]
        + [f"{o} {'|'.join(c)}" for o, c in options if isinstance(c, tuple)]
        + list(_COMMANDS[name].positionals)
        + [f"[{o} {c}]" for o, c in options if isinstance(c, str)]
    )


def _command_line(name: str) -> str:
    """The command's synopsis and help, as ``--help`` and the README list
    them: the help in a column, under a synopsis too long for it."""
    synopsis, text = _synopsis(name), _COMMANDS[name].help
    if len(synopsis) > 31:
        return f"{synopsis}\n{'':33}{text}"
    return f"{synopsis:31}  {text}"


def _help(name: Optional[str], option: str, value: Optional[str]) -> NoReturn:
    """``-h``/``--help`` for the command ``name`` (``None`` for the top
    level): print its help and exit 0.  As argparse does, read ``-hh`` as
    ``-h`` twice and refuse any other value given to the flag."""
    if value is not None and (option == "--help" or not value or value.lstrip("h")):
        shown = value.lstrip("h") if option == "-h" else value
        _refuse(name, f"argument -h/--help: ignored explicit argument {shown!r}")
    if name is None:
        text = "\n\n".join([
            _USAGE,
            "Dissected surfaces, skew-gentle presentations, double covers and\n"
            "winding-number invariants.",
            "\n".join(map(_command_line, _COMMANDS)),
            "Exit codes: 0 success, 1 a comparison decided NOT_EQUIVALENT, 2 invalid\n"
            "input or a usage error (diagnostics on stderr).",
        ])
    else:
        text = _command_line(name)
    sys.stdout.write(text + "\n")
    raise SystemExit(0)


def _refuse(name: Optional[str], message: str) -> NoReturn:
    """A usage error of the command ``name`` (``None`` for the top level):
    its usage and ``message`` on stderr, as argparse prints them, and exit 2."""
    if name is None:
        sys.stderr.write(f"{_USAGE}\nskewgentle: error: {message}\n")
    else:
        sys.stderr.write(f"usage: {_synopsis(name)}\nskewgentle {name}: error: {message}\n")
    raise SystemExit(2)


def _option(
    name: Optional[str], names: tuple[str, ...], token: str
) -> Optional[tuple[str, Optional[str]]]:
    """How argparse reads ``token`` given the option strings ``names`` of
    the command ``name``: ``None`` for a positional, else the option named
    exactly, before an ``=`` or by a unique prefix, with its explicit value
    (``--opt=VALUE``, or what follows ``-h``); ``("", None)`` for an
    unknown option.  An ambiguous prefix is a usage error."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    prefix, eq, value = token.partition("=")
    if eq and prefix in names:
        return prefix, value
    if token[1] == "-":
        found = [o for o in names if o.startswith(prefix)]
        if len(found) > 1:
            _refuse(name, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if _NUMBER.match(token) or " " in token:
        return None
    return "", None


def _split(argv: list[str]) -> tuple[Callable[..., int], dict[str, Optional[str]]]:
    """The handler ``argv`` names and its keyword arguments.

    ``argv`` is read in one pass with argparse's rules: options before the
    command are ``-h`` or unknown; after it, an option's value follows it
    or its ``=``, options may come before, between or after the
    positionals, and the first ``--`` makes every later token a
    positional, a later ``--`` too (argparse dropped that one from the
    positional it filled).  An option or positional that is not given
    reads ``None``.
    """
    extras = []
    k = 0
    while k < len(argv):
        read = None if argv[k] == "--" else _option(None, _HELP, argv[k])
        if read is None:
            break
        if read[0]:
            _help(None, *read)
        extras.append(argv[k])
        k += 1
    # argparse takes a "--" before the command for the command, unless it is last
    if k == len(argv) or argv[k:] == ["--"]:
        _refuse(None, "the following arguments are required: command")
    name = argv[k]
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _refuse(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    handler, positionals, options, _ = _COMMANDS[name]
    names = _HELP + tuple(options)
    rest = argv[k + 1 :]
    cut = rest.index("--") if "--" in rest else len(rest)
    reads = [_option(name, names, token) for token in rest[:cut]]
    dests = [p.strip("[]").lower() for p in positionals]
    values = dict.fromkeys(dests + [o[2:] for o in options])
    positional = []  # the tokens read as positionals, in order
    after_positional = False
    i = 0
    while i < cut:
        token, read = rest[i], reads[i]
        i += 1
        after_positional = read is None
        if after_positional:
            positional.append(token)
            continue
        option, value = read
        if option in _HELP:
            _help(name, option, value)
        if not option:
            extras.append(token)
            continue
        if value is None:
            if i >= cut or reads[i] is not None:
                _refuse(name, f"argument {option}: expected one argument")
            value = rest[i]
            i += 1
        choices = options[option]
        if isinstance(choices, tuple) and value not in choices:
            shown = ", ".join(map(repr, choices))
            _refuse(name, f"argument {option}: invalid choice: {value!r} (choose from {shown})")
        values[option[2:]] = value
    # argparse drops the "--" into a positional next to it, and keeps it
    # where every positional is filled and an option precedes it
    if cut < len(rest) and len(positional) >= len(dests) and not after_positional:
        extras.append("--")
    positional += rest[cut + 1 :]
    values.update(zip(dests, positional))
    extras += positional[len(dests) :]
    missing = [o for o, c in options.items() if isinstance(c, tuple) and values[o[2:]] is None]
    missing += [p for p, d in zip(positionals, dests) if p[0] != "[" and values[d] is None]
    if missing:
        _refuse(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _refuse(None, f"unrecognized arguments: {' '.join(extras)}")
    return handler, values


def main(argv: Optional[list[str]] = None) -> int:
    handler, kwargs = _split(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(**kwargs)
    except ValidationError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
