"""Exact enumeration and counting of canonical words.

Appending letter x to a canonical word keeps it canonical iff x never
occurred or, since its last occurrence, both a smaller and a greater
letter appeared; prefix closure of canonicity makes a pruned walk
complete.  The per-letter conditions are tracked as two bitmasks (letters
still owed a smaller letter, letters still owed a greater one), giving
O(1) state updates per appended letter.

Two prefixes in the same state have the same canonical extensions, so
`count` memoizes each state's extension counts by length, packed into one
integer (the transfer-matrix method), and lists no word; a state is one
integer, ns << n | ng.  `longest_census` joins the maximal prefixes of
half the maximal length with the maximal suffixes of their states, built
backward from the last letter.  `iter_canonical`, a depth-first walk over
every canonical word, cross-checks it.  The module returns counts and
words; the bounds and structure suites in `verify` report on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .bounds import prefix_upper_bound
from .words import _guard, _letter_masks, length_bound

__all__ = [
    "Census",
    "LongestCensus",
    "iter_canonical",
    "count",
    "longest_census",
]

# a dataclass, unlike the other records: the benchmark's tests copy one with dataclasses.replace
@dataclass(frozen=True)
class Census:
    """Exact count of canonical words, broken down by length."""

    rank: int
    total: int
    by_length: dict[int, int]
    max_length: int

    def to_json(self) -> str:
        import json  # here, so that the commands that print no JSON never load it

        # the words of maximal length, f(n), are the top coefficient of the census
        payload = {
            "rank": self.rank,
            "total": str(self.total),
            "by_length": {str(l): str(c) for l, c in sorted(self.by_length.items())},
            "max_length": self.max_length,
            "longest_count": str(self.by_length[self.max_length]),
        }
        return json.dumps(payload, indent=2) + "\n"


class LongestCensus(NamedTuple):
    """All canonical words of maximal length for one rank."""

    rank: int
    max_length: int
    count: int
    words: tuple[tuple[int, ...], ...]


def _extension_table(n: int) -> tuple[dict[int, int], int, list[tuple[int, int, int]]]:
    """Extension counts by length for every state reachable from the empty word.

    Returns the table, keyed by the state packed as s = ns << n | ng, its slot
    width, and each letter's (bit, keep, mark) on s from `_letter_masks`: the
    letter is blocked when ((s >> n) | s) & bit, else it steps to (s & keep) | mark.
    A state's value packs one slot per length, slot l counting the canonical
    words of length l that may follow any prefix in that state: 1 + (sum of the
    children's values << slot).  The top slot is never zero, so
    (value.bit_length() - 1) // slot is the longest extension.  The guard weighs
    the counts the table can hold, n * 2^(n-1) + 1 states times L(n) + 1
    lengths; `_letter_masks` checks the rank first.
    """
    masks = _letter_masks(n)  # first: its guard, which BUDGET lifts, refuses ranks whose L(n) won't fit
    _guard((length_bound(n) + 1) * (n * 2**n // 2 + 1), f"rank {n} census table")
    # a count is at most |K_n|, under the paper's prefix bound, so no slot carries:
    # the width leans on that bound as L(n) does; tests check it on allowed ranks
    slot = prefix_upper_bound(n).bit_length() + 1
    full, table = (1 << n) - 1, {}
    steps = [(bit, (keep_ns & full) << n | keep_ng & full, bit << n | bit) for bit, keep_ns, keep_ng in masks[1:]]

    def extensions(s: int) -> int:
        blocked, below = (s >> n) | s, 0
        for bit, keep, mark in steps:
            if not blocked & bit:
                child = (s & keep) | mark
                # every value is at least 1, so only a state not yet tabulated is entered
                below += table.get(child) or extensions(child)
        found = table[s] = 1 + (below << slot)
        return found

    extensions(0)
    del extensions  # a self-referring closure would keep the table until a gc pass
    return table, slot, steps


def iter_canonical(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every canonical word over rank n exactly once.

    Words come out as raw letter tuples in depth-first order with children
    in increasing letter order, so equal-length words appear
    lexicographically and every prefix precedes its extensions.
    """
    _guard(count(n).total, f"rank {n} word listing")
    masks = _letter_masks(n)
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    while stack:
        word, ns, ng = stack.pop()
        yield word
        blocked = ns | ng
        # pushed in decreasing letter order, so the smallest letter pops first
        for x in range(n, 0, -1):
            bit, keep_ns, keep_ng = masks[x]
            if not (blocked & bit):
                stack.append((word + (x,), (ns & keep_ns) | bit, (ng & keep_ng) | bit))


def count(n: int) -> Census:
    """Exact census of canonical words over rank n.

    Reads the empty word's extension counts from the state table, so the
    cost follows the n * 2^(n-1) + 1 reachable states times the length
    bound rather than the number of words.
    """
    table, slot, _ = _extension_table(n)
    packed, mask = table[0], (1 << slot) - 1
    by_len = [(packed >> (l * slot)) & mask for l in range((packed.bit_length() - 1) // slot + 1)]
    return Census(
        rank=n,
        total=sum(by_len),
        by_length=dict(enumerate(by_len)),
        max_length=len(by_len) - 1,
    )


def longest_census(n: int) -> LongestCensus:
    """All canonical words of maximal length, in lexicographic order.

    Lists the maximal prefixes of half the maximal length forward, and the
    maximal suffixes of their states backward, children in increasing letter
    order, and joins each prefix with its state's suffixes: sorted, as built.
    Reads the table 2 + sum times, the sum counting the unblocked letters of each
    distinct state a maximal prefix shorter than L(n) ends in: a state's longest
    extension fixes its depth, so each state is visited once.  Rank 0 lists
    the one empty word.
    """
    table, slot, steps = _extension_table(n)
    best = (table[0].bit_length() - 1) // slot
    # at most f = top coefficient heads, and per depth of tails at most f suffixes,
    # since a prefix fixes its state: heads, two depths of tails or one with the
    # output hold at most f * (half + (best - half) + best) = 2 * f * best letters
    _guard(2 * (table[0] >> (best * slot)) * best, f"rank {n} maximal-word listing")
    # state -> ((letter,), child) for its children on maximal paths, in increasing letter
    # order; a state's longest extension fixes its depth, so the depths share no state,
    # and no child of a state left + 1 from the end passes left, so ">= floor" is exact
    letters = [((x,), bit, keep, mark) for x, (bit, keep, mark) in enumerate(steps, 1)]
    kids, depths = {}, [[0]]
    for left in range(best - 1, -1, -1):
        floor, below = 1 << left * slot, {}  # the next depth, a dict as an ordered set
        for s in depths[-1]:
            blocked, kids[s] = (s >> n) | s, []
            for x, bit, keep, mark in letters:
                if not blocked & bit and table[child := (s & keep) | mark] >= floor:
                    kids[s].append((x, child))
                    below[child] = None
        depths.append(below)
    heads = [((), 0)]
    for _ in range(best // 2):
        heads = [(p + x, child) for p, s in heads for x, child in kids[s]]
    tails = dict.fromkeys(depths.pop(), [()])
    for states in reversed(depths[best // 2 :]):
        tails = {s: [x + t for x, child in kids[s] for t in tails[child]] for s in states}
    words = tuple([p + t for p, s in heads for t in tails[s]])
    return LongestCensus(rank=n, max_length=best, count=len(words), words=words)

