"""Structured check reports with JSON and CSV emission.

Every verification in this package reports an exact comparison of lhs
with rhs (direction and meaning recorded in the name), built by
`BoundReport.at_most` (lhs <= rhs) or `BoundReport.equal` (lhs == rhs),
which derive `holds` from those values.  Only compound verdicts use the
plain constructor: the census structure checks, the oracle certification,
the rank-4 counterexample and the always-holding printed-closed-form WARN.
Values are `int`: `at_most`, `equal` and emission raise TypeError on any
other.  They are serialized as decimal strings, so downstream consumers
are never exposed to 64-bit overflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

__all__ = ["BoundReport", "reports_to_json", "reports_to_csv", "format_value"]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one exact bound or identity check."""

    name: str
    n_or_k: int
    lhs: int
    rhs: int
    holds: bool
    note: str = ""

    @classmethod
    def at_most(cls, name: str, n_or_k: int, lhs: int, rhs: int, note: str = "") -> BoundReport:
        """The check lhs <= rhs, holding exactly when it does; a value that is no int is a TypeError."""
        return cls(name, n_or_k, lhs, rhs, _int_value(lhs) <= _int_value(rhs), note)

    @classmethod
    def equal(cls, name: str, n_or_k: int, lhs: int, rhs: int, note: str = "") -> BoundReport:
        """The check lhs == rhs, holding exactly when it does; a value that is no int is a TypeError."""
        return cls(name, n_or_k, lhs, rhs, _int_value(lhs) == _int_value(rhs), note)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "n_or_k": self.n_or_k,
            "lhs": format_value(self.lhs),
            "rhs": format_value(self.rhs),
            "holds": self.holds,
            "note": self.note,
        }


def _int_value(value: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"unsupported report value type: {type(value)!r}")
    return value


def format_value(value: int) -> str:
    return str(_int_value(value))


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
