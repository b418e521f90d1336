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
backward from the last letter.  Two independent censuses cross-check it:
`iter_canonical`, a depth-first walk over every canonical word, and
`filtered_recount`, a breadth-first extend-and-filter recount over whole
length levels, driven directly by the defining gap condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .bounds import prefix_upper_bound
from .reports import BoundReport
from .words import Word, _guard, _letter_masks, is_canonical, length_bound

__all__ = [
    "Census",
    "LongestCensus",
    "iter_canonical",
    "count",
    "filtered_recount",
    "longest_census",
    "verify_odd_structure",
    "verify_subalphabet_embedding",
    "verify_lower_bound_construction",
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
    lengths; a negative rank is a ValueError.
    """
    masks = _letter_masks(n)  # first: its guard, which BUDGET lifts, refuses ranks whose L(n) won't fit
    _guard((length_bound(n) + 1) * (n * 2**n // 2 + 1), f"rank {n} census table")
    # a count is at most |K_n|, under the paper's prefix bound, so no slot carries:
    # the width leans on that bound as L(n) does; tests check it on allowed ranks
    slot = prefix_upper_bound(n).bit_length() + 1 if n else 2
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


def filtered_recount(n: int) -> Census:
    """Independent census: breadth-first extend-and-filter.

    Extends every canonical word of length l by every letter x and keeps
    the extension iff x does not occur in the word or the segment from its
    last occurrence on holds a letter smaller than x and a greater one (the
    defining gap condition, applied to the one pair a canonical prefix can
    break).  Works on whole length levels of words held as bytes and shares
    no state logic with the depth-first walk or the census DP.  Stops at
    the closed-form length bound L(n): a word of length L(n) + 1 that
    passes the filter raises RuntimeError, so a faulty filter fails
    before its levels can grow without bound.  Its guard alone reads the
    census DP's total, weighed by the letters of the words it holds.
    """
    _guard(count(n).total * length_bound(n), f"rank {n} recount")
    bound = length_bound(n)
    letters = [(x, bytes((x,))) for x in range(1, n + 1)]
    by_length: dict[int, int] = {}
    level = [b""]
    while level:
        if len(by_length) > bound:
            raise RuntimeError(f"rank {n} recount kept {list(level[0])}, longer than L({n}) = {bound}")
        by_length[len(by_length)] = len(level)
        extended = []
        for word in level:
            for x, tail in letters:
                last = word.rfind(x)
                # the segment starts at x itself, so both comparisons must be strict
                if last < 0 or min(gap := word[last:]) < x < max(gap):
                    extended.append(word + tail)
        level = extended
    return Census(
        rank=n,
        total=sum(by_length.values()),
        by_length=by_length,
        max_length=max(by_length),
    )


def longest_census(n: int) -> LongestCensus:
    """All canonical words of maximal length, in lexicographic order.

    Lists the maximal prefixes of half the maximal length forward, and the
    maximal suffixes of their states backward, children in increasing letter
    order, and joins each prefix with its state's suffixes: sorted, as built.
    """
    if n < 1:
        raise ValueError(f"need rank >= 1, got {n}")
    table, slot, steps = _extension_table(n)
    best = (table[0].bit_length() - 1) // slot
    # at most f = top coefficient heads, and per depth of tails at most f suffixes,
    # since a prefix fixes its state: heads, two depths of tails or one with the
    # output hold at most f * (half + (best - half) + best) = 2 * f * best letters
    _guard(2 * (table[0] >> (best * slot)) * best, f"rank {n} maximal-word listing")
    # state -> ((letter,), child) for its children on maximal paths, in increasing letter
    # order; a state's longest extension fixes its depth, so the depths share no state
    kids, depths = {}, [{0}]
    for left in range(best - 1, -1, -1):
        for s in depths[-1]:
            blocked = (s >> n) | s
            kids[s] = [
                ((x,), child)
                for x, (bit, keep, mark) in enumerate(steps, 1)
                if not blocked & bit and (table[child := (s & keep) | mark].bit_length() - 1) // slot == left
            ]
        depths.append({child for s in depths[-1] for _, child in kids[s]})
    heads = [((), 0)]
    for _ in range(best // 2):
        heads = [(p + x, child) for p, s in heads for x, child in kids[s]]
    tails = dict.fromkeys(depths.pop(), [()])
    for states in reversed(depths[best // 2 :]):
        tails = {s: [x + t for x, child in kids[s] for t in tails[child]] for s in states}
    words = tuple(p + t for p, s in heads for t in tails[s])
    return LongestCensus(rank=n, max_length=best, count=len(words), words=words)


def verify_odd_structure(n: int) -> BoundReport:
    """Check the factorization of maximal words for odd rank.

    Every canonical word of maximal length must split as w (1 n) w' or
    w (n 1) w' with w, w' maximal canonical words over the inner alphabet
    {2, ..., n-1}, and conversely every such composite must be canonical
    and maximal; the counts then satisfy f(n) = 2 * f(n-2)^2.  Even ranks
    are rejected: the factorization genuinely fails there.
    """
    if n % 2 == 0:
        raise ValueError(f"factorization of maximal words only holds for odd ranks, got {n}")
    if n < 3:
        raise ValueError(f"need rank >= 3, got {n}")
    return _odd_structure_report(longest_census(n), longest_census(n - 2))


def _odd_structure_report(outer: LongestCensus, inner: LongestCensus) -> BoundReport:
    # the check itself, on maximal-word censuses of an odd rank n >= 3 and
    # of n - 2, so that a caller holding both need not build them again
    n = outer.rank
    inner_shifted = {tuple(x + 1 for x in w) for w in inner.words}
    half = length_bound(n - 2)
    failures: list[str] = []
    for u in outer.words:
        middle = set(u[half : half + 2])
        w, w_prime = u[:half], u[half + 2 :]
        if middle != {1, n} or w not in inner_shifted or w_prime not in inner_shifted:
            failures.append(" ".join(map(str, u)))
    for w in inner_shifted:
        for w_prime in inner_shifted:
            for mid in ((1, n), (n, 1)):
                u = w + mid + w_prime
                if len(u) != outer.max_length or not is_canonical(Word(u, n)):
                    failures.append("composite " + " ".join(map(str, u)))
    expected = 2 * inner.count**2
    holds = not failures and outer.count == expected
    note = f"f({n}) = {outer.count}, 2*f({n - 2})^2 = {expected}"
    if failures:
        note += f"; {len(failures)} failures, first: {failures[0]!r}"
    return BoundReport(
        name="maximal-words-factor-as-w-1-n-w",
        n_or_k=n,
        lhs=expected,
        rhs=outer.count,
        holds=holds,
        note=note,
    )


def verify_subalphabet_embedding(n: int) -> BoundReport:
    """Check that dropping a top or bottom letter embeds the smaller rank.

    The canonical words of rank n avoiding letter n must be exactly the
    canonical words of rank n-1, likewise those avoiding letter 1 after
    shifting every letter down; in particular counts are monotone in rank.
    """
    if n < 1:
        raise ValueError(f"need rank >= 1, got {n}")
    # the three sets held list rank n-1; rank n is walked before rank n-1, so its guard refuses early
    _guard(count(n - 1).total * length_bound(n - 1), f"rank {n - 1} word sets")
    without_top, without_bottom = set(), set()
    # the empty word comes first, so total is always bound
    for total, w in enumerate(iter_canonical(n), 1):
        if n not in w:
            without_top.add(w)
        if 1 not in w:
            without_bottom.add(tuple(x - 1 for x in w))
    smaller = set(iter_canonical(n - 1))
    holds = without_top == smaller and without_bottom == smaller and len(smaller) <= total
    return BoundReport(
        name="subalphabet-words-embed-smaller-rank",
        n_or_k=n,
        lhs=len(smaller),
        rhs=total,
        holds=holds,
        note=f"words avoiding letter n: {len(without_top)}, avoiding letter 1: {len(without_bottom)}",
    )


def verify_lower_bound_construction(n: int) -> BoundReport:
    """Check the doubling construction behind count(n+2) >= 2 * count(n)^2.

    For every ordered pair (w, w') of canonical words shifted into the
    inner alphabet {2, ..., n+1}, both w 1 (n+2) w' and w (n+2) 1 w' must
    be canonical, and all composites pairwise distinct.
    """
    _guard(2 * count(n).total ** 2 * (2 * length_bound(n) + 2), f"rank {n + 2} doubling composites")
    inner = [tuple(x + 1 for x in w) for w in iter_canonical(n)]
    composites = set()
    failures = 0
    for w in inner:
        for w_prime in inner:
            for mid in ((1, n + 2), (n + 2, 1)):
                u = w + mid + w_prime
                if not is_canonical(Word(u, n + 2)):
                    failures += 1
                composites.add(u)
    expected = 2 * len(inner) ** 2
    total = count(n + 2).total
    holds = failures == 0 and len(composites) == expected and expected <= total
    return BoundReport(
        name="2-count-squared-below-count-n-plus-2",
        n_or_k=n,
        lhs=expected,
        rhs=total,
        holds=holds,
        note=f"{len(composites)} distinct composites, {failures} non-canonical",
    )
