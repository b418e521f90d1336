"""Output checks for every workload, on plain data, without importing `kiselman`.

Each function returns True when an output is right.  The workers turn the
program's objects into tuples, dicts and text before calling these, so the
tests can feed them wrong outputs directly.
"""

from __future__ import annotations

import csv
import io
import json
import re

import spec


def reduced(word, n: int, out) -> bool:
    """A reduction (or product) of `word`: canonical, a subsequence of the
    input, and with the same set of letters."""
    return (
        spec.is_canonical(out)
        and spec.is_subsequence(out, word)
        and set(out) == set(word)
        and all(1 <= x <= n for x in out)
    )


def verdict(word, found) -> bool:
    """`found` is None or (letter, first, second) for `word`: None exactly
    when the word is canonical, otherwise a real violating pair."""
    if found is None:
        return spec.is_canonical(word)
    return spec.is_violating_pair(word, *found)


def census(n: int, total: int, by_length: dict[int, int], max_length: int) -> bool:
    expected = spec.census_by_length(n)
    return by_length == expected and total == sum(expected.values()) and max_length == spec.length_bound(n)


def longest(n: int, max_length: int, count: int, words) -> bool:
    """Maximal words: length L(n), canonical, distinct, sorted, as many as
    the top coefficient of the census; for n = 5 also f(5) = 2 f(3)^2."""
    top = spec.census_by_length(n)[spec.length_bound(n)]
    ok = (
        max_length == spec.length_bound(n)
        and count == len(words) == top
        and all(len(w) == max_length and spec.is_canonical(w) for w in words)
        and all(a < b for a, b in zip(words, words[1:]))
    )
    if n == 5:
        ok = ok and count == 2 * spec.census_by_length(3)[spec.length_bound(3)] ** 2
    return ok


def certification(n: int, cap: int, holds: bool, violations, classes: int, canonical_words: int) -> bool:
    expected = spec.canonical_words_up_to(n, cap)
    return holds and not violations and classes == canonical_words == expected


_NOT_CANONICAL = re.compile(r"not canonical \(letter (\d+), positions (\d+),(\d+)\)\n")


def cli(op: dict, code: int, out: str) -> bool:
    """One `python -m kiselman.cli` invocation: exit code and output."""
    kind = op["kind"]
    if kind in ("reduce", "mul"):
        word = tuple(op["word"]) if kind == "reduce" else tuple(op["left"]) + tuple(op["right"])
        return code == 0 and reduced(word, op["rank"], tuple(int(x) for x in out.split()))
    if kind == "check":
        word = tuple(op["word"])
        if out == "canonical\n":
            return code == 0 and spec.is_canonical(word)
        m = _NOT_CANONICAL.fullmatch(out)
        return code == 1 and m is not None and spec.is_violating_pair(word, *map(int, m.groups()))
    if kind == "count":
        if code != 0:
            return False
        raw = json.loads(out)
        by_length = {int(k): int(v) for k, v in raw["by_length"].items()}
        return raw["rank"] == op["rank"] and census(op["rank"], int(raw["total"]), by_length, raw["max_length"])
    if kind == "table":
        rows = list(csv.DictReader(io.StringIO(out)))
        return code == 0 and [int(r["n"]) for r in rows] == list(range(op["max_n"] + 1)) and all(
            int(r["count"]) == sum(spec.census_by_length(int(r["n"])).values())
            and int(r["length_bound"]) == spec.length_bound(int(r["n"]))
            for r in rows
        )
    if kind == "verify":
        reports = json.loads(out)
        return code == 0 and bool(reports) and all(r["holds"] is True for r in reports)
    raise ValueError(f"unknown cli operation {kind!r}")
