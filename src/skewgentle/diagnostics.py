"""Structured error reporting shared by every validator in the package.

Validation routines never raise on bad input; they return a :class:`Report`
carrying :class:`Diagnostic` records with a stable error code, a readable
message, and the offending location.  Callers that prefer exceptions wrap the
report with :func:`raise_on_error`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# Stable error codes (part of the public API; the CLI prints them verbatim).

# Surface validation
ARC_OCCURRENCE = "ARC_OCCURRENCE"
BSEG_OCCURRENCE = "BSEG_OCCURRENCE"
MULTIPLE_BSEG = "MULTIPLE_BSEG"
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
NOT_IDEMPOTENT = "NOT_IDEMPOTENT"
NOT_INVOLUTION = "NOT_INVOLUTION"
NOT_CLOSED = "NOT_CLOSED"
OUTSIDE_CORNER = "OUTSIDE_CORNER"
# Covers and curves
CURVE_THROUGH_BRANCH = "CURVE_THROUGH_BRANCH"
INVALID_CURVE = "INVALID_CURVE"
BOUNDARY_POINT = "BOUNDARY_POINT"
BAD_LIFT = "BAD_LIFT"
WINDING_MISMATCH = "WINDING_MISMATCH"
# Gradings and complexes
INCONSISTENT = "INCONSISTENT"
NOT_CONNECTED_TO_ANCHOR = "NOT_CONNECTED_TO_ANCHOR"
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
        return [
            {"code": d.code, "message": d.message, "where": list(d.where)}
            for d in self.diagnostics
        ]


def raise_on_error(report: Report) -> None:
    if not report.ok:
        raise ValidationError(report.diagnostics)
