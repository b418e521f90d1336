"""Structured check reports with JSON and CSV emission.

Every verification in this package reports an exact comparison of lhs
with rhs (direction and meaning recorded in the name), built by
`BoundReport.at_most` (lhs <= rhs) or `BoundReport.equal` (lhs == rhs),
which derive `holds` from those values.  Only compound verdicts use the
plain constructor: the census structure checks, the oracle certification,
the rank-4 counterexample and the always-holding printed-closed-form WARN.
Big values are serialized as decimal strings so downstream consumers are
never exposed to 64-bit overflow; rationals serialize as
"numerator/denominator".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

__all__ = ["BoundReport", "reports_to_json", "reports_to_csv", "format_value"]

Value = Union[int, Fraction, float, None]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one exact bound or identity check."""

    name: str
    n_or_k: int
    lhs: Value
    rhs: Value
    holds: bool
    note: str = ""

    @classmethod
    def at_most(cls, name: str, n_or_k: int, lhs: Value, rhs: Value, note: str = "") -> BoundReport:
        """The check lhs <= rhs, holding exactly when it does."""
        return cls(name, n_or_k, lhs, rhs, lhs <= rhs, note)

    @classmethod
    def equal(cls, name: str, n_or_k: int, lhs: Value, rhs: Value, note: str = "") -> BoundReport:
        """The check lhs == rhs, holding exactly when it does."""
        return cls(name, n_or_k, lhs, rhs, lhs == rhs, note)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "n_or_k": self.n_or_k,
            "lhs": format_value(self.lhs),
            "rhs": format_value(self.rhs),
            "holds": self.holds,
            "note": self.note,
        }


def format_value(value: Value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("bool is not a report value")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    raise TypeError(f"unsupported report value type: {type(value)!r}")


def reports_to_json(reports: Iterable[BoundReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"


def reports_to_csv(reports: Iterable[BoundReport]) -> str:
    # Hand-rolled rows: values never contain separators (notes are quoted).
    lines = ["name,n_or_k,lhs,rhs,holds,note"]
    for r in reports:
        note = '"' + r.note.replace('"', '""') + '"' if r.note else ""
        lines.append(
            f"{r.name},{r.n_or_k},{format_value(r.lhs)},{format_value(r.rhs)},"
            f"{str(r.holds).lower()},{note}"
        )
    return "\n".join(lines) + "\n"
