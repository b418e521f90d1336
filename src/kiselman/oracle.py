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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterator

from . import reduce
from .reduce import canonical_form
from .reports import BoundReport
from .words import Word, _first_owed, _guard, _letter_masks

__all__ = [
    "CongruenceClass",
    "OracleCertification",
    "congruence_closure",
    "certify_reducer",
    "verify_reducer_against_oracle",
]

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


def _layout(n: int, max_len: int) -> tuple[list[int], list[int]]:
    # A word of length l sits at offset[l], the number of shorter words,
    # plus its value in base n with digits x - 1, so words are indexed by
    # length, then lexicographically; offset[max_len + 1] counts them all.
    power = [n**k for k in range(max_len + 1)]
    return power, [0, *accumulate(power)]


def _universe(n: int, max_len: int) -> Iterator[tuple[int, ...]]:
    # all words of length <= max_len, in index order
    alphabet = range(1, n + 1)
    for ell in range(max_len + 1):
        yield from product(alphabet, repeat=ell)


def _index(w: tuple[int, ...], n: int, offset: list[int]) -> int:
    value = 0
    for x in w:
        value = value * n + x - 1
    return offset[len(w)] + value


def _word(i: int, n: int, offset: list[int]) -> tuple[int, ...]:
    ell = bisect_right(offset, i) - 1
    value, letters = i - offset[ell], []
    for _ in range(ell):
        value, digit = divmod(value, n)
        letters.append(digit + 1)
    return tuple(reversed(letters))


def _closure(n: int, max_len: int) -> list[int]:
    """root[i], the index of the first word in word i's class.

    Union-find whose roots keep the smaller index, so each class's root is
    its first member.  Each relation instance is merged from one side:
    x x with x, and a b a (a < b) with a b and with b a b; the two edges of
    b a b follow by transitivity.  The words holding an instance at a
    given position form one run of consecutive indices per prefix, and so
    do their rewrites, so no word is read.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    if max_len < 0:
        raise ValueError(f"length cap must be nonnegative, got {max_len}")
    power, offset = _layout(n, max_len)
    total = offset[-1]
    _guard(total, f"congruence closure over rank {n}, length <= {max_len}")
    parent = list(range(total))

    def merge(src: int, dst: int, count: int) -> None:
        for a, b in zip(range(src, src + count), range(dst, dst + count)):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]  # digits, a < b
    swap = n * n - n + 1  # a b a -> b a b adds (b - a) * swap
    for ell in range(2, max_len + 1):
        here, shorter = offset[ell], offset[ell - 1]
        for p in range(ell - 1):  # x x at p, p + 1
            run = power[ell - 2 - p]
            for k in range(power[p + 1]):  # the prefix, then x, as one number
                merge(here + (k * n + k % n) * run, shorter + k * run, run)
        for p in range(ell - 2):  # a b a at p, p + 1, p + 2
            run = power[ell - 3 - p]
            for head in range(power[p]):
                for a, b in pairs:
                    src = here + ((head * n + a) * n * n + b * n + a) * run
                    merge(src, shorter + ((head * n + a) * n + b) * run, run)
                    merge(src, src + (b - a) * swap * run, run)
    # parent[i] <= i, so one pass in index order leaves every entry a root
    for i in range(total):
        parent[i] = parent[parent[i]]
    return parent


def congruence_closure(n: int, max_len: int) -> list[CongruenceClass]:
    """Classes of the defining-relation congruence on words of length <= max_len.

    The closure is exact within the cap: every relation instance whose two
    sides both fit under the cap is merged.  Derivations forced through
    longer intermediates can only split classes, never mix them, which the
    certification checks detect.  Classes are ordered by their first
    member, and members by length, then lexicographically.
    """
    root = _closure(n, max_len)
    masks = _letter_masks(n)
    members: dict[int, list[tuple[int, ...]]] = {}
    canonical: dict[int, list[tuple[int, ...]]] = {}
    for i, w in enumerate(_universe(n, max_len)):
        r = root[i]
        if r == i:
            members[i], canonical[i] = [], []
        members[r].append(w)
        if _first_owed(w, masks) is None:
            canonical[r].append(w)
    return [CongruenceClass(tuple(m), tuple(canonical[r])) for r, m in members.items()]


@dataclass(frozen=True)
class OracleCertification:
    """Full outcome of checking the reducer against the congruence oracle.

    universe counts the words of the closure the classes were read from,
    reduced_directly the words put through `canonical_form` (all words of
    length <= max_len), and reduced_by_memo the longer class members whose
    memoized reduction was compared.  The counts come last, with defaults,
    so the first seven fields still construct positionally.
    """

    rank: int
    max_len: int
    classes: int
    canonical_words: int
    violations: tuple[dict, ...]
    retried: bool
    holds: bool
    universe: int = 0
    reduced_directly: int = 0
    reduced_by_memo: int = 0

    def to_json(self) -> str:
        payload = {
            "rank": self.rank,
            "max_len": self.max_len,
            "classes": self.classes,
            "violations": list(self.violations),
        }
        return json.dumps(payload, indent=2) + "\n"


def _canonical_by_class(root: list[int], kept: int, red: list[int]) -> dict[int, list[int]]:
    # the classes reaching the first `kept` words, in order (a root is the
    # first occurrence of its own value), each with its canonical members,
    # the words that reduce to themselves
    by_class: dict[int, list[int]] = {r: [] for r in dict.fromkeys(root[:kept])}
    for i, j in enumerate(red):
        if j == i and root[i] in by_class:
            by_class[root[i]].append(i)
    return by_class


def certify_reducer(n: int, max_len: int) -> OracleCertification:
    """Run the oracle and check the reducer against every class.

    `canonical_form` reduces every word of length <= max_len; a word is
    canonical when it comes back unchanged, as any deletion shortens it.
    The reducer's own deletion step runs only on the words past the cap.

    A class without a canonical member means the cap truncated a
    derivation: two short words can be congruent only through longer
    intermediates.  The check then retries once with the cap raised by 2
    and examines the classes containing a word of length <= max_len,
    i.e. the congruence restricted to the original universe.  A longer
    word reduces to what the word left by its first deletion reduces to,
    read from a memo in index order: the iterated leftmost deletion that
    `canonical_form` performs.
    """
    step = reduce._deletion_index  # the reducer's own lookup, patched or not
    masks = _letter_masks(n)
    root = _closure(n, max_len)
    kept = len(root)  # the words of length <= max_len come first in any universe
    # shorter words come first, so a short word's index is the same under the retry's cap
    power, offset = _layout(n, max_len + 2)
    # red[i]: the index of word i's reduction
    red = [_index(canonical_form(Word(w, n)).word.letters, n, offset) for w in _universe(n, max_len)]
    by_class = _canonical_by_class(root, kept, red)
    retried = not all(by_class.values())
    if retried:
        root = _closure(n, max_len + 2)
        for ell in (max_len + 1, max_len + 2):
            here, shorter = offset[ell], offset[ell - 1]
            for value, w in enumerate(product(range(1, n + 1), repeat=ell)):
                d = step(w, masks)
                if d is None:
                    red.append(here + value)
                else:
                    r = power[ell - 1 - d]
                    red.append(red[shorter + value // (r * n) * r + value % r])
        by_class = _canonical_by_class(root, kept, red)

    target = {r: members[0] for r, members in by_class.items() if len(members) == 1}
    mismatched: dict[int, list[int]] = {}
    by_memo = 0
    for i, r in enumerate(root):
        t = target.get(r)
        if t is not None:
            by_memo += i >= kept
            if red[i] != t:
                mismatched.setdefault(r, []).append(i)

    def text(i: int) -> str:
        return " ".join(map(str, _word(i, n, offset)))

    violations: list[dict] = []
    for r, members in by_class.items():
        if not members:
            violations.append({"kind": "no_canonical_member", "class_rep": text(r)})
        elif len(members) > 1:
            violations.append(
                {
                    "kind": "multiple_canonical_members",
                    "class_rep": text(r),
                    "canonical": [text(i) for i in members],
                }
            )
        else:
            violations += [
                {
                    "kind": "reducer_mismatch",
                    "word": text(i),
                    "reduced_to": text(red[i]),
                    "expected": text(members[0]),
                }
                for i in mismatched.get(r, ())
            ]
    canonical_words = sum(len(members) for members in by_class.values())
    return OracleCertification(
        rank=n,
        max_len=max_len,
        classes=len(by_class),
        canonical_words=canonical_words,
        violations=tuple(violations),
        retried=retried,
        holds=not violations and len(by_class) == canonical_words,
        universe=len(root),
        reduced_directly=kept,
        reduced_by_memo=by_memo,
    )


def verify_reducer_against_oracle(n: int, max_len: int) -> BoundReport:
    """BoundReport form of the reducer certification.

    lhs is the number of congruence classes, rhs the number of canonical
    words in the universe; the check passes iff they agree and the reducer
    maps every member of every class to its canonical member.
    """
    cert = certify_reducer(n, max_len)
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
