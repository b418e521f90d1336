"""Brute-force congruence oracle certifying the deletion reducer.

Partitions every word up to a length cap into congruence classes by
union-find, merging two words whenever one arises from the other by a
single application of a defining relation (a*a = a, a*b*a = a*b,
b*a*b = a*b, a*b*a = b*a*b, for a < b) inside the cap.  Each class must
contain exactly one canonical word and the reducer must map every member
onto it.  This is the independent ground truth against which the
reduction rule is validated; it assumes nothing about the rule itself.
The reducer checked is the iterated leftmost deletion whose index
`reduce._first_owed` returns, which the certification steps over the whole
universe, in one walk over the prefixes its memo maps to themselves, the
canonical ones.  Each step resumes the pass at the end of its prefix,
from the trail of owed states that the pass under test built over it,
as `canonical_form` resumes the pass at each deleted index.  The walk
reports the canonical words, so no scan of the memo looks for them.
`certify_reducer` returns the verdict with its violations, whether the
cap was raised, and the size of the universe the walk reduced and the
check compared; `verify` reports them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, product, repeat
from typing import Iterable, Iterator, NamedTuple

from . import reduce
from .words import _first_owed, _guard, _letter_masks, _rank

__all__ = ["OracleCertification", "certify_reducer"]

class CongruenceClass(NamedTuple):
    """One congruence class of bounded-length words, as raw letter tuples."""

    members: tuple[tuple[int, ...], ...]
    canonical_members: tuple[tuple[int, ...], ...]


def _layout(n: int, max_len: int) -> tuple[list[int], list[int]]:
    # A word of length l sits at offset[l], the number of shorter words,
    # plus its value in base n with digits x - 1, so words are indexed by
    # length, then lexicographically; offset[max_len + 1] counts them all.
    power = [n**k for k in range(max_len + 1)]
    return power, [0, *accumulate(power)]


def _universe(n: int, max_len: int) -> Iterator[tuple[int, ...]]:
    # all words of length <= max_len, in index order; rank 0 has only the empty one
    alphabet = range(1, n + 1)
    for ell in range(max_len + 1 if n else 1):
        yield from product(alphabet, repeat=ell)


def _word(i: int, n: int, offset: list[int]) -> tuple[int, ...]:
    ell = bisect_right(offset, i) - 1
    value, letters = i - offset[ell], []
    for _ in range(ell):
        value, digit = divmod(value, n)
        letters.append(digit + 1)
    return tuple(reversed(letters))


def _free_heads(n: int, max_len: int) -> list[list[int]]:
    """Base-n values, in increasing order and by length up to max_len, of
    the words with no factor x x or x y x: n(n-1)(n-2)^(m-2) of length
    m >= 2.  The levels stop before the first empty one.
    """
    levels = [[0]] if max_len >= 0 else []
    while levels and levels[-1] and (m := len(levels)) <= max_len:  # x is none of h's last m - 1 <= 2 digits
        levels.append([h * n + x for h in levels[-1] for x in range(n) if x not in (h % n, h // n % n)[: m - 1]])
    return [level for level in levels if level]


def _union(parent: list[int], edges: Iterable[tuple[int, int]]) -> None:
    # path-halving finds; the smaller root wins, so each root is its class's first member
    for a, b in edges:
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


def _closure(n: int, max_len: int, listed: bool = False) -> list[int]:
    """root[i], the index of the first word in word i's class.

    Union-find whose roots keep the smaller index, so each class's root is
    its first member.  Each relation instance is merged from one side:
    x x with x, and a b a (a < b) with a b and with b a b; the two edges of
    b a b follow by transitivity.  The words holding an instance at a
    given position form one run of consecutive indices per prefix, and so
    do their rewrites, so no word is read.

    Only instances whose head, the letters before them, holds none are
    merged.  If w holds I at s, I gives w', and w[:s] holds J: rewrite J
    (x x to x, a b a to a b, b a b first to a b a), then I, then J back
    out of w'.  J lies wholly before I, so the rewrites commute, and each
    link of that path lies in a shorter word, or in one as long with an
    instance starting before s.  No rewrite lengthens a word, so by
    induction on (length, start) the merged links join w and w' within
    the cap.  Heads run out past length 1 at rank 1 and 2 at rank 2, and
    the positions past them are not visited; rank 0 has no word to link.

    Instances are merged in order of their last position e, x x before
    a b a, so at each length every instance merged before a run ends inside
    the prefix its words share: a run is touched as a whole or not at all.
    While every word of the higher run is still a root, one slice links it
    to the lower run word by word.  A touched run whose parents equal the
    lower run's word by word is merged already, and a unit link at the last
    position whose higher word is a root is one assignment; only the other
    links go through the path-halving finds of `_union`.
    """
    _rank(n)
    _rank(max_len, "length cap")
    what = f"congruence closure over rank {n}, length <= {max_len}"
    # its longest words number at least 2^(b * max_len), b = (n // 2).bit_length(),
    # and its layout holds max_len + 1 powers, the larger weight at ranks 0 and 1
    _guard(1, what, (n // 2).bit_length() * max_len)
    _guard(max_len + 1, what)
    if listed:  # the caller holds every word as a tuple: the sum of l * n^l letters over l <= max_len
        d = n - 1
        _guard(((max_len * d - 1) * n ** (max_len + 1) + n) // d**2 if d else max_len * (max_len + 1) // 2, what)
    power, offset = _layout(n, max_len)
    total = offset[-1]
    _guard(total, what)
    # the longer words join a length at a time, into the room merged shorter ones free
    parent = list(range(offset[min(max_len, 1) + 1]))

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]  # digits, a < b
    swap = n * n - n + 1  # a b a -> b a b adds (b - a) * swap
    heads = _free_heads(n, max_len - 2)

    def starts(here: int, shorter: int, e: int, run: int) -> Iterator[tuple[int, int]]:
        # (lo, hi), lo < hi: the first words of the two runs each instance
        # ending at e with a free head links, x x ones first
        for head in heads[e - 1] if e <= len(heads) else ():
            for x in range(n):
                k = head * n + x  # the prefix, then x, as one number
                yield shorter + k * run, here + (k * n + x) * run
        for head in heads[e - 2] if 1 < e <= len(heads) + 1 else ():
            for a, b in pairs:
                src = here + ((head * n + a) * n * n + b * n + a) * run
                yield shorter + ((head * n + a) * n + b) * run, src
                yield src, src + (b - a) * swap * run

    for ell in range(2, max_len + 1 if n else 0):
        here, shorter = offset[ell], offset[ell - 1]
        parent += range(here, offset[ell + 1])
        for e in range(1, min(ell - 1, len(heads) + 2)):
            run = power[ell - 1 - e]
            steps = run * (run - 1) // 2  # sum(range(run))
            for lo, hi in starts(here, shorter, e, run):
                # parent[i] <= i, so the sums match only if every word of the
                # higher run is its own root; lo < hi keeps the smaller roots
                if parent[hi] == hi and sum(parent[hi : hi + run]) == run * hi + steps:
                    parent[hi : hi + run] = parent[lo : lo + run]
                elif parent[hi : hi + run] != parent[lo : lo + run]:  # equal parents: one class already
                    _union(parent, zip(range(lo, lo + run), range(hi, hi + run)))
        for lo, hi in starts(here, shorter, ell - 1, 1):
            if parent[hi] == hi:  # parent[lo] <= lo < hi keeps parent[i] <= i
                parent[hi] = parent[lo]
            elif parent[hi] != parent[lo]:
                _union(parent, ((lo, hi),))
    # parent[i] <= i, so one pass in index order leaves every entry a root
    for i in range(total):
        parent[i] = parent[parent[i]]
    return parent


def congruence_closure(n: int, max_len: int) -> list[CongruenceClass]:
    """Classes of the defining-relation congruence on words of length <= max_len.

    The closure is exact within the cap: every relation instance whose two
    sides both fit under the cap joins them.  Derivations forced through
    longer intermediates can only split classes, never mix them, which the
    certification checks detect.  Classes are ordered by their first
    member, and members by length, then lexicographically.  This is the
    tests' lister, outside `__all__`: it stays here only because the
    benchmark's tracer wraps it by name (until ROADMAP item 12).
    """
    root = _closure(n, max_len, listed=True)
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


class OracleCertification(NamedTuple):
    """Full outcome of checking the reducer against the congruence oracle.

    holds is the verdict and violations its evidence; retried says the
    cap was raised by 2.  universe counts the words of the closure the
    classes were read from, every one of which the walk reduced and the
    check compared.  It comes last, with a default, so the first seven
    fields still construct positionally.
    """

    rank: int
    max_len: int
    classes: int
    canonical_words: int
    violations: tuple[dict, ...]
    retried: bool
    holds: bool
    universe: int = 0


def _canonical_by_class(root: list[int], kept: int, fixed: list[int]) -> dict[int, list[int]]:
    # the classes reaching the first `kept` words, in order (a root is the
    # first occurrence of its own value), each with its canonical members,
    # the words the walk reported reducing to themselves, in index order;
    # a class reaches them when its root, its smallest index, is below kept
    by_class: dict[int, list[int]] = {r: [] for r in dict.fromkeys(root[:kept])}
    for i in sorted(fixed):
        if root[i] < kept:
            by_class[root[i]].append(i)
    return by_class


def _reduce_walk(n: int, first: int, last: int, red: list[int]) -> list[int]:
    """Extend red, which holds the words shorter than first, over the words
    of length first..last, and return the indices it maps to themselves,
    the canonical words; a prefix red maps to itself is canonical.  A step
    is one call of `reduce._first_owed`, which returns the index to
    delete, as in `canonical_form`.  A run gets one slice when the step
    deletes its first word inside the prefix the run shares, and goes
    through the step word by word otherwise.  Each canonical prefix keeps
    the trail that one more call of the same pass built over it, so every
    step resumes the pass where the prefix ends.  A run's first word,
    p x 1 ... 1, is written over one list of 1s grown a letter per length
    and undone after the step, so at rank 1 the walk is linear in the cap.
    A slice copies shorter words' entries, so only the step's None makes a
    word its own reduction."""
    owed = reduce._first_owed  # the reducer's own pass, patched or not: each step and each trail
    masks = _letter_masks(n)
    power, offset = _layout(n, last)
    fixed: list[int] = []
    ones, unit = [1] * (first - 1), (1,) * last  # a run's first word is written over ones, unit undoes it
    def cut(value: int, r: int) -> int:  # value less its digit of place r
        return value // (r * n) * r + value % r

    for ell in range(first, last + 1):
        here, shorter = offset[ell], offset[ell - 1]
        red.extend(repeat(0, power[ell]))
        ones.append(1)
        stack = [((), 0, [(0, 0)])]  # canonical prefixes: letters, value, the pass's trail over them
        while stack:
            prefix, value, trail = stack.pop()
            e = len(prefix)
            if e + 1 == ell:  # each extension is a run of one word: step it as it is
                for x in range(1, n + 1):
                    v = value * n + x - 1
                    hit = owed(prefix + (x,), masks, trail)
                    del trail[e + 1 :]
                    if hit is None:
                        fixed.append(here + v)
                    red[here + v] = here + v if hit is None else red[shorter + cut(v, power[e - hit[1]])]
                continue
            at = offset[e + 1]  # the extensions are shorter than ell, so their entries are filled
            for x in range(1, n + 1):
                w, v = prefix + (x,), value * n + x - 1
                if red[at + v] == at + v:  # the memo maps it to itself: canonical
                    t = trail[:]
                    owed(w, masks, t)  # the pass under test extends the trail over x
                    stack.append((w, v, t))
                    continue
                run = power[ell - 1 - e]
                hi = here + v * run
                ones[: e + 1] = w
                hit = owed(ones, masks, trail)
                ones[: e + 1] = unit[: e + 1]
                del trail[e + 1 :]
                if hit is not None and hit[1] <= e:
                    lo = shorter + cut(v, power[e - hit[1]]) * run
                    red[hi : hi + run] = red[lo : lo + run]
                else:
                    for i, tail in enumerate(product(range(1, n + 1), repeat=ell - 1 - e), hi):
                        hit = owed(w + tail, masks, trail)
                        del trail[e + 1 :]
                        if hit is None:
                            fixed.append(i)
                        red[i] = i if hit is None else red[shorter + cut(i - here, power[ell - 1 - hit[1]])]
    return fixed


def certify_reducer(n: int, max_len: int) -> OracleCertification:
    """Run the oracle and check the reducer against every class.

    A word reduces to what the word left by its first deletion reduces
    to, read from a memo over every word of length <= max_len: the
    iterated leftmost deletion that `canonical_form` performs.  A word is
    canonical when it reduces to itself, as any deletion shortens it.
    `_reduce_walk` steps once per canonical word (one the memo maps to
    itself) and once per run of words sharing a prefix through where the
    step stops, which one slice fills if it deletes there, else word by
    word; so the step must depend on nothing past where it stops.  Each
    word expects its class's one canonical word, which the walk reports,
    or its own reduction if its class has none or several.

    A class without a canonical member means the cap truncated a
    derivation: two short words can be congruent only through longer
    intermediates.  The check then retries once with the cap raised by 2,
    extends the memo to the longer words and examines the classes
    containing a word of length <= max_len, i.e. the congruence
    restricted to the original universe.
    """
    root = _closure(n, max_len)
    kept = len(root)  # the words of length <= max_len come first in any universe
    # shorter words come first, so the retry's layout names every word of either universe
    offset = _layout(n, max_len + 2)[1]
    red = [0]  # red[i]: the index of word i's reduction; the empty word is its own
    fixed = [0, *_reduce_walk(n, 1, max_len, red)]
    by_class = _canonical_by_class(root, kept, fixed)
    retried = not all(by_class.values())
    if retried:
        root = _closure(n, max_len + 2)
        fixed += _reduce_walk(n, max_len + 1, max_len + 2, red)
        by_class = _canonical_by_class(root, kept, fixed)

    target = {r: members[0] for r, members in by_class.items() if len(members) == 1}
    expected = list(map(target.get, root, red))
    mismatched: dict[int, list[int]] = {}
    if expected != red:
        for i, (t, j) in enumerate(zip(expected, red)):
            if t != j:
                mismatched.setdefault(root[i], []).append(i)

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
    )

