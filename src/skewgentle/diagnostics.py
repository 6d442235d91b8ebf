"""Structured error reporting shared by the whole package.

One convention holds everywhere.  The validators (``validate``,
``validate_curve``, ``validate_involution``, ``check_gentle``,
``check_skew_gentle`` and ``is_dual_dissection``) never raise on bad input;
they return a :class:`Report` carrying :class:`Diagnostic` records with a
stable error code, a readable message, and the offending location, and on
a surface that fails ``validate`` they return its findings.  Every other
function returns its value or raises :class:`ValidationError` with all of
its findings, a surface's own first: :func:`raise_on_error` raises a
report's findings, and :func:`error` builds the exception for a single
finding raised on the spot.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

# Stable error codes (part of the public API; the CLI prints them verbatim).

# Surface validation
ARC_OCCURRENCE = "ARC_OCCURRENCE"
BSEG_OCCURRENCE = "BSEG_OCCURRENCE"
MULTIPLE_BSEG = "MULTIPLE_BSEG"
BSEG_NOT_FIRST = "BSEG_NOT_FIRST"
CORNER_MISMATCH = "CORNER_MISMATCH"
NONORIENTABLE_GLUING = "NONORIENTABLE_GLUING"
BAD_EULER = "BAD_EULER"
X_DEGREE = "X_DEGREE"
# Involutions
NOT_ORDER_TWO = "NOT_ORDER_TWO"
FIXED_MARKED_POINT = "FIXED_MARKED_POINT"
FIXED_POLYGON = "FIXED_POLYGON"
UNREVERSED_FIXED_ARC = "UNREVERSED_FIXED_ARC"
ORIENTATION_REVERSED = "ORIENTATION_REVERSED"
BAD_INVOLUTION = "BAD_INVOLUTION"
# Quiver presentations
DEGREE_EXCEEDED = "DEGREE_EXCEEDED"
SUCCESSOR_CLASH = "SUCCESSOR_CLASH"
INFINITE_DIMENSIONAL = "INFINITE_DIMENSIONAL"
NOT_GENTLE = "NOT_GENTLE"
OVERGLUED_VERTEX = "OVERGLUED_VERTEX"
SIZE_LIMIT = "SIZE_LIMIT"
# Algebra engine
NOT_STABILIZED = "NOT_STABILIZED"
NOT_INVOLUTION = "NOT_INVOLUTION"
OUTSIDE_CORNER = "OUTSIDE_CORNER"
# Covers and curves
CURVE_THROUGH_BRANCH = "CURVE_THROUGH_BRANCH"
INVALID_CURVE = "INVALID_CURVE"
BAD_LIFT = "BAD_LIFT"
WINDING_MISMATCH = "WINDING_MISMATCH"
# Gradings and complexes
INCONSISTENT = "INCONSISTENT"
NOT_A_COMPLEX = "NOT_A_COMPLEX"
# Parsing / general input
SYNTAX = "SYNTAX"
UNKNOWN_ID = "UNKNOWN_ID"
BAD_INPUT = "BAD_INPUT"


@dataclass(frozen=True)
class Diagnostic:
    """A single validation finding."""

    code: str
    message: str
    where: tuple = ()

    def __str__(self) -> str:
        loc = f" at {self.where}" if self.where else ""
        return f"[{self.code}]{loc} {self.message}"


class ValidationError(Exception):
    """Raised by :func:`raise_on_error` when a report contains findings."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


def error(code: str, message: str, where: tuple = ()) -> ValidationError:
    """A :class:`ValidationError` carrying one diagnostic, ready to raise."""
    return ValidationError([Diagnostic(code, message, tuple(where))])


@dataclass
class Report:
    """Accumulator used by validators; truthy iff no diagnostics recorded."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, code: str, message: str, where: tuple = ()) -> None:
        self.diagnostics.append(Diagnostic(code, message, tuple(where)))

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def __bool__(self) -> bool:
        return self.ok

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def extend(self, other: "Report") -> None:
        self.diagnostics.extend(other.diagnostics)

    def to_json(self) -> list[dict[str, Any]]:
        """The findings as JSON data: ``where`` and its nested tuples
        become lists, so the data reads back equal."""
        return [
            {"code": d.code, "message": d.message, "where": _json_list(d.where)}
            for d in self.diagnostics
        ]


def _json_list(where: tuple) -> list:
    return [_json_list(x) if isinstance(x, tuple) else x for x in where]


def raise_on_error(report: Report) -> None:
    if not report.ok:
        raise ValidationError(report.diagnostics)


def _require_int(name: str, value, least: int, most: Optional[int] = None) -> None:
    """Raise ``BAD_INPUT`` naming ``name`` unless ``value`` is an ``int``,
    not a ``bool``, from ``least`` up to ``most`` (no bound when ``None``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < least
        or (most is not None and value > most)
    ):
        span = f"{least} or more" if most is None else f"{least}..{most}"
        raise error(BAD_INPUT, f"{name} must be an int {span}, got {value!r}", (name,))
