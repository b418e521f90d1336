"""Brute-force congruence oracle certifying the deletion reducer.

Partitions every word up to a length cap into congruence classes by
union-find, merging two words whenever one arises from the other by a
single application of a defining relation (a*a = a, a*b*a = a*b,
b*a*b = a*b, a*b*a = b*a*b, for a < b) inside the cap.  Each class must
contain exactly one canonical word and the reducer must map every member
onto it.  This is the independent ground truth against which the
reduction rule is validated; it assumes nothing about the rule itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

from .reduce import canonical_form
from .reports import BoundReport
from .words import ResourceGuardError, Word, _first_owed, _letter_masks

__all__ = [
    "CongruenceClass",
    "OracleCertification",
    "congruence_closure",
    "certify_reducer",
    "verify_reducer_against_oracle",
]

DEFAULT_MAX_WORDS = 4_000_000


@dataclass(frozen=True)
class CongruenceClass:
    """One congruence class of bounded-length words, as raw letter tuples."""

    members: tuple[tuple[int, ...], ...]
    canonical_members: tuple[tuple[int, ...], ...]

    @property
    def canonical_member(self) -> tuple[int, ...] | None:
        """The unique canonical member, or None if absent or ambiguous."""
        if len(self.canonical_members) == 1:
            return self.canonical_members[0]
        return None


def _universe_size(n: int, max_len: int) -> int:
    if n <= 1:
        return max_len + 1
    return (n ** (max_len + 1) - 1) // (n - 1)


def _universe(n: int, max_len: int) -> list[tuple[int, ...]]:
    # all words of length <= max_len, by length then lexicographically
    words: list[tuple[int, ...]] = [()]
    level: list[tuple[int, ...]] = [()]
    alphabet = range(1, n + 1)
    for _ in range(max_len):
        level = [w + (x,) for w in level for x in alphabet]
        words.extend(level)
    return words


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def congruence_closure(
    n: int, max_len: int, *, max_words: int = DEFAULT_MAX_WORDS
) -> list[CongruenceClass]:
    """Classes of the defining-relation congruence on words of length <= max_len.

    The closure is exact within the cap: every relation instance whose two
    sides both fit under the cap is merged.  Derivations forced through
    longer intermediates can only split classes, never mix them, which the
    certification checks detect.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    total = _universe_size(n, max_len)
    if total > max_words:
        raise ResourceGuardError(
            f"congruence closure over rank {n}, length <= {max_len} needs {total} words "
            f"(guard: {max_words}); raise max_words to override"
        )
    words = _universe(n, max_len)
    # A word of length l sits at offset[l], the number of shorter words,
    # plus its value in base n with digits x - 1, so a rewritten word's
    # index is integer arithmetic on the rewritten digits' weights.
    power = [n**k for k in range(max_len + 1)]
    offset = [0, *accumulate(power[:-1])]
    uf = _UnionFind(len(words))

    for i, w in enumerate(words):
        ell = len(w)
        value = i - offset[ell]
        for p in range(ell - 1):
            if w[p] == w[p + 1]:  # x*x = x: drop position p
                r = power[ell - 1 - p]
                uf.union(i, offset[ell - 1] + value // power[ell - p] * r + value % r)
        for p in range(ell - 2):
            x, y = w[p], w[p + 1]
            if w[p + 2] == x and x != y:
                # x*y*x equals both the ascending pair and the swapped triple
                lo, hi = (x, y) if x < y else (y, x)
                r = power[ell - 3 - p]
                head = value // power[ell - p]
                uf.union(i, offset[ell - 1] + (head * n * n + (lo - 1) * n + hi - 1) * r + value % r)
                uf.union(i, i + (y - x) * (n * n - n + 1) * r)

    masks = _letter_masks(n)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for i, w in enumerate(words):
        groups.setdefault(uf.find(i), []).append(w)

    classes = []
    for members in groups.values():
        members.sort(key=lambda w: (len(w), w))
        canonical = tuple(w for w in members if _first_owed(w, masks) is None)
        classes.append(CongruenceClass(tuple(members), canonical))
    classes.sort(key=lambda c: (len(c.members[0]), c.members[0]))
    return classes


@dataclass(frozen=True)
class OracleCertification:
    """Full outcome of checking the reducer against the congruence oracle."""

    rank: int
    max_len: int
    classes: int
    canonical_words: int
    violations: tuple[dict, ...]
    retried: bool
    holds: bool

    def to_json(self) -> str:
        payload = {
            "rank": self.rank,
            "max_len": self.max_len,
            "classes": self.classes,
            "violations": list(self.violations),
        }
        return json.dumps(payload, indent=2) + "\n"


def _scan_classes(n: int, classes: list[CongruenceClass]) -> list[dict]:
    violations: list[dict] = []
    for cls in classes:
        rep = " ".join(map(str, cls.members[0]))
        if len(cls.canonical_members) == 0:
            violations.append({"kind": "no_canonical_member", "class_rep": rep})
            continue
        if len(cls.canonical_members) > 1:
            violations.append(
                {
                    "kind": "multiple_canonical_members",
                    "class_rep": rep,
                    "canonical": [" ".join(map(str, w)) for w in cls.canonical_members],
                }
            )
            continue
        target = cls.canonical_members[0]
        for w in cls.members:
            reduced = canonical_form(Word(w, n)).word.letters
            if reduced != target:
                violations.append(
                    {
                        "kind": "reducer_mismatch",
                        "word": " ".join(map(str, w)),
                        "reduced_to": " ".join(map(str, reduced)),
                        "expected": " ".join(map(str, target)),
                    }
                )
    return violations


def certify_reducer(
    n: int, max_len: int, *, max_words: int = DEFAULT_MAX_WORDS
) -> OracleCertification:
    """Run the oracle and check the reducer against every class.

    A class without a canonical member means the cap truncated a
    derivation: two short words can be congruent only through longer
    intermediates.  The check then retries once with the cap raised by 2
    and examines the classes containing a word of length <= max_len,
    i.e. the congruence restricted to the original universe.
    """
    classes = congruence_closure(n, max_len, max_words=max_words)
    retried = False
    if any(len(c.canonical_members) == 0 for c in classes):
        retried = True
        raised = congruence_closure(n, max_len + 2, max_words=max_words)
        classes = [c for c in raised if len(c.members[0]) <= max_len]
    violations = _scan_classes(n, classes)
    canonical_words = sum(len(c.canonical_members) for c in classes)
    return OracleCertification(
        rank=n,
        max_len=max_len,
        classes=len(classes),
        canonical_words=canonical_words,
        violations=tuple(violations),
        retried=retried,
        holds=not violations and len(classes) == canonical_words,
    )


def verify_reducer_against_oracle(
    n: int, max_len: int, *, max_words: int = DEFAULT_MAX_WORDS
) -> BoundReport:
    """BoundReport form of the reducer certification.

    lhs is the number of congruence classes, rhs the number of canonical
    words in the universe; the check passes iff they agree and the reducer
    maps every member of every class to its canonical member.
    """
    cert = certify_reducer(n, max_len, max_words=max_words)
    note = f"words of length <= {cert.max_len}"
    if cert.retried:
        note += (
            f" (classes recomputed with cap {cert.max_len + 2}, then restricted "
            f"to those reaching length <= {cert.max_len})"
        )
    if cert.violations:
        sample = json.dumps(list(cert.violations[:3]))
        note += f"; {len(cert.violations)} violations, first: {sample}"
    return BoundReport(
        name="congruence-classes-equal-canonical-words",
        n_or_k=n,
        lhs=cert.classes,
        rhs=cert.canonical_words,
        holds=cert.holds,
        note=note,
    )
