"""The congruence oracle, and the union-find, the reduce-every-member scan
and the word-by-word closure it replaced, kept here as references.

The reference merges both sides of all four relation edges, sorts each
class and the class list, and reduces every member with `canonical_form`;
the oracle merges each relation instance from one side into index-ordered
roots and reduces every word by memo.  `merge_closure` merges every
instance, position by position, every run through the finds; the oracle
merges only those whose head holds no instance, by their last position,
links each run whose words are all still roots with one slice, and must
leave the same roots.
`reference_memo` puts every word through the reducer's step; the oracle
steps once per run of words sharing a canonical prefix and an owed
letter, and must fill the same memo.  The oracle never calls
`canonical_form`, so `first_memo_mismatch` ties the memo to it word by
word.
"""

import gc
import json
import time
import tracemalloc
from itertools import product

import pytest

from kiselman import oracle, reduce, verify, words
from kiselman.census import count
from kiselman.oracle import (
    CongruenceClass,
    OracleCertification,
    certify_reducer,
    congruence_closure,
)
from kiselman.reduce import canonical_form
from kiselman.words import ResourceGuardError, Word, is_canonical

CLASS_PAIRS = [(0, 3), (1, 5), (2, 7), (2, 9), (3, 6), (3, 7), (4, 6), (4, 8), (5, 5), (5, 6), (6, 4)]
# the benchmark's certify pairs, four that retry and three that do not, and (3, 7)
CERTIFY_PAIRS = [(3, 4), (3, 5), (4, 4), (5, 4), (2, 7), (5, 3), (6, 3), (3, 7)]
# the benchmark's retry universes, a rank heavy in unit runs, longer caps,
# and ranks 1 and 2 past their longest free head
CLOSURE_PAIRS = [(3, 6), (3, 7), (4, 6), (5, 6), (2, 12), (6, 5), (3, 9), (4, 9), (1, 40), (2, 16), (5, 7), (6, 6)]


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


def reference_closure(n: int, max_len: int) -> list[CongruenceClass]:
    # every word against a tuple -> index dict, both sides of every edge
    words = [w for ell in range(max_len + 1) for w in product(range(1, n + 1), repeat=ell)]
    index = {w: i for i, w in enumerate(words)}
    uf = _UnionFind(len(words))
    for i, w in enumerate(words):
        for p in range(len(w) - 1):
            if w[p] == w[p + 1]:
                uf.union(i, index[w[:p] + w[p + 1 :]])
        for p in range(len(w) - 2):
            x, y = w[p], w[p + 1]
            if w[p + 2] == x and x != y:
                lo, hi = min(x, y), max(x, y)
                uf.union(i, index[w[:p] + (lo, hi) + w[p + 3 :]])
                uf.union(i, index[w[:p] + (y, x, y) + w[p + 3 :]])
    groups: dict[int, list[tuple[int, ...]]] = {}
    for i, w in enumerate(words):
        groups.setdefault(uf.find(i), []).append(w)
    classes = []
    for members in groups.values():
        members.sort(key=lambda w: (len(w), w))
        canonical = tuple(w for w in members if is_canonical(Word(w, n)))
        classes.append(CongruenceClass(tuple(members), canonical))
    classes.sort(key=lambda c: (len(c.members[0]), c.members[0]))
    return classes


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


def merge_closure(n: int, max_len: int) -> list[int]:
    # x x at every position, then a b a at every position, each run found
    # word by word through the path-halving finds
    power, offset = oracle._layout(n, max_len)
    parent = list(range(offset[-1]))

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

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    swap = n * n - n + 1
    for ell in range(2, max_len + 1):
        here, shorter = offset[ell], offset[ell - 1]
        for p in range(ell - 1):  # x x at p, p + 1
            run = power[ell - 2 - p]
            for k in range(power[p + 1]):
                merge(here + (k * n + k % n) * run, shorter + k * run, run)
        for p in range(ell - 2):  # a b a at p, p + 1, p + 2
            run = power[ell - 3 - p]
            for head in range(power[p]):
                for a, b in pairs:
                    src = here + ((head * n + a) * n * n + b * n + a) * run
                    merge(src, shorter + ((head * n + a) * n + b) * run, run)
                    merge(src, src + (b - a) * swap * run, run)
    for i in range(len(parent)):
        parent[i] = parent[parent[i]]
    return parent


def reference_memo(n: int, first: int, last: int, red: list[int]) -> None:
    # every word of length first..last through the reducer's step, in index
    # order: it reduces to what its first deletion leaves reduces to
    step = reduce._deletion_index
    masks = words._letter_masks(n)
    power, offset = oracle._layout(n, last)
    for ell in range(first, last + 1):
        here, shorter = offset[ell], offset[ell - 1]
        for value, w in enumerate(product(range(1, n + 1), repeat=ell)):
            d = step(w, masks)
            if d is None:
                red.append(here + value)
            else:
                r = power[ell - 1 - d]
                red.append(red[shorter + value // (r * n) * r + value % r])


def first_memo_mismatch(n: int, max_len: int, red: list[int]) -> tuple[int, ...] | None:
    # the first word of length <= max_len whose memo entry is not its canonical form
    offset = oracle._layout(n, max_len)[1]
    assert len(red) == offset[-1]
    for r, w in zip(red, oracle._universe(n, max_len)):
        if oracle._word(r, n, offset) != canonical_form(Word(w, n)).word.letters:
            return w
    return None


def reference_certify(n: int, max_len: int) -> OracleCertification:
    classes = reference_closure(n, max_len)
    retried = any(len(c.canonical_members) == 0 for c in classes)
    if retried:
        classes = [c for c in reference_closure(n, max_len + 2) if len(c.members[0]) <= max_len]
    violations = _scan_classes(n, classes)
    canonical_words = sum(len(c.canonical_members) for c in classes)
    return OracleCertification(
        n,
        max_len,
        len(classes),
        canonical_words,
        tuple(violations),
        retried,
        not violations and len(classes) == canonical_words,
    )


def _fields(cert: OracleCertification) -> tuple:
    return (
        cert.rank,
        cert.max_len,
        cert.classes,
        cert.canonical_words,
        cert.violations,
        cert.retried,
        cert.holds,
    )


def test_single_letter_classes():
    # idempotency alone: {""} and {1, 11, 111}
    classes = congruence_closure(1, 3)
    members = sorted(tuple(c.members) for c in classes)
    assert members == [((),), ((1,), (1, 1), (1, 1, 1))]


def test_class_of_212():
    classes = congruence_closure(2, 4)
    holder = next(c for c in classes if (2, 1, 2) in c.members)
    assert {(1, 2), (1, 2, 1), (2, 1, 2)} <= set(holder.members)
    assert holder.canonical_members == ((1, 2),)


def test_classes_count_rank_2():
    # five elements: "", 1, 2, 12, 21
    classes = congruence_closure(2, 6)
    assert len(classes) == 5
    assert all(len(c.canonical_members) == 1 for c in classes)


def test_certification_small_gates():
    for n, max_len in ((1, 6), (2, 7)):
        cert = certify_reducer(n, max_len)
        assert cert.holds, cert.violations
        assert cert.classes == cert.canonical_words


def test_certification_retries_on_split_classes():
    # at rank 3 the cap-7 closure leaves classes whose canonical member is
    # only reachable through longer words; the raised-cap retry heals them
    cert = certify_reducer(3, 7)
    assert cert.retried
    assert cert.holds
    assert cert.classes == cert.canonical_words == 18


def _reducer_report(n, max_len, monkeypatch):
    # the reducer suite's report on the one universe (n, max_len)
    monkeypatch.setattr(verify, "REDUCER_CHECKS", ((n, max_len),))
    (report,) = verify.run_suite("reducer", n)
    return report


def test_report_form(monkeypatch):
    report = _reducer_report(2, 6, monkeypatch)
    assert report.holds
    assert report.lhs == report.rhs == 5
    assert report.name == "congruence-classes-equal-canonical-words"
    assert report.note == "words of length <= 6"


def test_universe_guard(monkeypatch):
    with pytest.raises(ResourceGuardError):
        congruence_closure(4, 12)
    with pytest.raises(ResourceGuardError):
        certify_reducer(4, 12)
    # one budget, read at call time, guards the census and the oracle alike
    budget = words.BUDGET
    monkeypatch.setattr(words, "BUDGET", 10)
    with pytest.raises(ResourceGuardError):
        count(3)
    with pytest.raises(ResourceGuardError):
        congruence_closure(2, 6)
    # restoring the budget lifts both refusals
    monkeypatch.setattr(words, "BUDGET", budget)
    assert count(3).total == 18
    assert len(congruence_closure(2, 6)) == 5


@pytest.mark.parametrize("entry", [congruence_closure, certify_reducer])
def test_negative_cap_is_refused(entry):
    # a negative cap has no words to certify; it must not pass as a vacuous hold
    for n, max_len in ((2, -1), (3, -2)):
        with pytest.raises(ValueError, match=f"length cap must be nonnegative, got {max_len}"):
            entry(n, max_len)
    assert len(congruence_closure(2, 0)) == 1


@pytest.mark.parametrize("entry", [congruence_closure, certify_reducer])
def test_negative_rank_is_refused(entry):
    with pytest.raises(ValueError, match="^rank must be nonnegative, got -1$"):
        entry(-1, 3)


# and every other pair of rank <= 4 and cap <= 6
SMALL_PAIRS = sorted({(n, cap) for n in range(5) for cap in range(7)} - {*CLASS_PAIRS})


@pytest.mark.parametrize("n,max_len", CLASS_PAIRS + SMALL_PAIRS)
def test_classes_match_reference(n, max_len):
    # members, their order, canonical members and the class order
    assert congruence_closure(n, max_len) == reference_closure(n, max_len)


@pytest.mark.parametrize("n", range(5))
def test_free_heads_are_the_words_without_an_instance(n):
    # every word with no factor x x or x y x, in index order, and no other
    heads = oracle._free_heads(n, 6)
    for m in range(7):
        expected = [
            value
            for value, w in enumerate(product(range(n), repeat=m))
            if all(w[i] != w[i + 1] for i in range(m - 1)) and all(w[i] != w[i + 2] for i in range(m - 2))
        ]
        assert (heads[m] if m < len(heads) else []) == expected
        assert len(expected) == (1 if m == 0 else n if m == 1 else n * (n - 1) * (n - 2) ** (m - 2))
    # the levels stop before the first empty one
    assert len(heads) == {0: 1, 1: 2, 2: 3}.get(n, 7)


def test_rank_one_closure_is_linear_in_the_cap():
    # no head is free past length 1, so no position past it is visited;
    # visiting all cap^2 / 2 (length, position) pairs takes minutes
    start = time.perf_counter()
    assert oracle._closure(1, 20_000) == [0, *[1] * 20_000]
    assert time.perf_counter() - start < 5


def test_listed_closure_weighs_its_letters(monkeypatch):
    # congruence_closure holds every word as a tuple: sum of l * n^l letters
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="length <= 100000 refused: 5000050000 items"):
        congruence_closure(1, 10**5)
    assert time.perf_counter() - start < 1
    assert len(congruence_closure(1, 1000)) == 2
    for n, max_len, letters in ((4, 10, 13_514_980), (3, 12, 9_167_358)):
        with pytest.raises(ResourceGuardError, match=f"length <= {max_len} refused: {letters} items"):
            congruence_closure(n, max_len)
    # the largest class pair, (4, 8), holds 669 924 letters, within the budget
    monkeypatch.setattr(words, "BUDGET", 669_923)
    with pytest.raises(ResourceGuardError, match="length <= 8 refused: 669924 items"):
        congruence_closure(4, 8)
    # the certification holds no word: its guard still counts words
    monkeypatch.setattr(words, "BUDGET", 255)
    assert certify_reducer(2, 7).universe == 255
    with pytest.raises(ResourceGuardError, match="length <= 7 refused: 1538 items"):
        congruence_closure(2, 7)


@pytest.mark.parametrize("n,max_len", CLOSURE_PAIRS)
def test_closure_matches_merge_reference(n, max_len):
    # the same roots, list for list; each entry is its class's first member
    root = oracle._closure(n, max_len)
    assert root == merge_closure(n, max_len)
    assert all(r <= i and root[r] == r for i, r in enumerate(root))


@pytest.mark.parametrize("n,max_len", CERTIFY_PAIRS)
def test_certification_matches_reference(n, max_len):
    cert = certify_reducer(n, max_len)
    assert cert.holds
    assert _fields(cert) == _fields(reference_certify(n, max_len))


def _wrong_past(cap, monkeypatch, fault=lambda letters, idx: 0):
    # the reducer's step deletes at fault(letters, idx), given the true index,
    # in any reducible word longer than the cap: the first letter unless given;
    # canonicity is untouched
    step = reduce._deletion_index

    def faulty(letters, masks, trail=None):  # canonical_form's trail is forwarded
        idx = step(letters, masks, trail)
        return fault(letters, idx) if idx is not None and len(letters) > cap else idx

    monkeypatch.setattr(reduce, "_deletion_index", faulty)


# faults past the cap: inside the prefix a run shares, a claim that the
# word is canonical, a deletion past that prefix, and a claim that the
# reducible words ending in 1 are canonical: a run's first word, p x 1 ... 1,
# is one, and its run's words ending in another letter keep the true deletion
FAULTS = {
    "first": lambda letters, idx: 0,
    "none": lambda letters, idx: None,
    "last": lambda letters, idx: len(letters) - 1,
    "none_if_last_is_1": lambda letters, idx: None if letters[-1] == 1 else idx,
}
# the certify pairs, a larger retry universe, and ranks 1-3 at small caps
MEMO_PAIRS = [*CERTIFY_PAIRS, (4, 6), (1, 0), (1, 5), (2, 0), (2, 1), (2, 5), (3, 0), (3, 2), (3, 3)]


def walk_memo(n: int, max_len: int) -> list[int]:
    # the memo as certify_reducer fills it when it retries
    red = [0]
    oracle._reduce_walk(n, 1, max_len, red)
    oracle._reduce_walk(n, max_len + 1, max_len + 2, red)
    return red


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("n,max_len", MEMO_PAIRS)
def test_walk_fills_the_memo_word_for_word(n, max_len, fault, monkeypatch):
    if fault:
        _wrong_past(max_len, monkeypatch, FAULTS[fault])
    expected = [0]
    reference_memo(n, 1, max_len + 2, expected)
    assert walk_memo(n, max_len) == expected


@pytest.mark.parametrize("n,max_len", MEMO_PAIRS)
def test_walk_memo_is_canonical_form(n, max_len):
    # the oracle certifies the memo, and canonical_form is what callers run
    assert first_memo_mismatch(n, max_len + 2, walk_memo(n, max_len)) is None


@pytest.mark.parametrize("fault", FAULTS)
def test_faults_at_every_length_fail_the_certification(fault, monkeypatch):
    # the walk now steps through the words up to the cap too
    _wrong_past(0, monkeypatch, FAULTS[fault])
    cert = certify_reducer(3, 4)
    assert cert.violations and not cert.holds


def _first_owed_with(update):
    # the owed-state pass with update(ns, ng, bit, keep_ns, keep_ng) in place of its
    # transition; like the true pass it starts at the trail's last state and extends it
    def first_owed(letters, masks, trail=None):
        if trail is None:
            trail = [(0, 0)]
        ns, ng = trail[-1]
        for j in range(len(trail) - 1, len(letters)):
            bit, keep_ns, keep_ng = masks[letters[j]]
            if (ns | ng) & bit:
                return j, bool(ns & bit)
            ns, ng = update(ns, ng, bit, keep_ns, keep_ng)
            trail.append((ns, ng))
        return None

    return first_owed


# the true transition, then faults in it; "ng_keeps_all" still certifies at (2, 5)
STATE_UPDATES = {
    "true": lambda ns, ng, bit, keep_ns, keep_ng: ((ns & keep_ns) | bit, (ng & keep_ng) | bit),
    "ns_drops_bit": lambda ns, ng, bit, keep_ns, keep_ng: (ns & keep_ns, (ng & keep_ng) | bit),
    "ng_keeps_all": lambda ns, ng, bit, keep_ns, keep_ng: ((ns & keep_ns) | bit, ng | bit),
    "ns_keeps_all": lambda ns, ng, bit, keep_ns, keep_ng: (ns | bit, (ng & keep_ng) | bit),
    "ns_by_ng_keep": lambda ns, ng, bit, keep_ns, keep_ng: ((ns & keep_ng) | bit, (ng & keep_ng) | bit),
}


@pytest.mark.parametrize("update", STATE_UPDATES)
@pytest.mark.parametrize("n,max_len", [(3, 4), (4, 4)])
def test_faulty_owed_state_fails_the_certification(n, max_len, update, monkeypatch):
    # only the reducer's pass is replaced: the walk reads its canonical prefixes
    # from the memo, and each step reads its word from position 0 through the fault
    monkeypatch.setattr(reduce, "_first_owed", _first_owed_with(STATE_UPDATES[update]))
    assert certify_reducer(n, max_len).holds == (update == "true")


@pytest.mark.parametrize("update", STATE_UPDATES)
@pytest.mark.parametrize("n,max_len", [(3, 4), (4, 4), (5, 4), (3, 5)])
def test_walk_memo_is_the_step_iterated_under_faulty_passes(n, max_len, update, monkeypatch):
    # whatever left-to-right pass the reducer runs, the memo the certification
    # checks is that pass's step put through every word, on the retry's lengths too
    monkeypatch.setattr(reduce, "_first_owed", _first_owed_with(STATE_UPDATES[update]))
    expected = [0]
    reference_memo(n, 1, max_len + 2, expected)
    assert walk_memo(n, max_len) == expected


def test_memo_catches_a_deletion_past_the_shared_prefix(monkeypatch):
    # the last letter lies past the prefix of every run longer than one
    # word, so the walk steps through those runs word by word
    _wrong_past(4, monkeypatch, FAULTS["last"])
    cert = certify_reducer(3, 4)
    assert not cert.holds and len(cert.violations) == 508
    assert _fields(cert) == _fields(reference_certify(3, 4))


# faults where the owed-state pass stops at the word's last letter, which
# only the one-word runs step: a claim that the word is canonical, and a
# deletion of the other occurrence of the pair
LAST_LETTER_FAULTS = {
    "none": lambda letters, idx: None,
    "other": lambda letters, idx: words._previous(letters, idx) if idx == len(letters) - 1 else len(letters) - 1,
}


@pytest.mark.parametrize("fault", LAST_LETTER_FAULTS)
@pytest.mark.parametrize("n,max_len", [(5, 3), (6, 3), (2, 7)])
def test_faults_at_the_last_letter_fail_the_certification(n, max_len, fault, monkeypatch):
    # none of these pairs retries, so _wrong_past's faults past the cap never reach them
    step = reduce._deletion_index

    def faulty(letters, masks):
        idx = step(letters, masks)
        hit = words._first_owed(letters, masks)
        return LAST_LETTER_FAULTS[fault](letters, idx) if hit and hit[0] == len(letters) - 1 else idx

    monkeypatch.setattr(reduce, "_deletion_index", faulty)
    cert = certify_reducer(n, max_len)
    assert not cert.retried and not cert.holds
    kind = "multiple_canonical_members" if fault == "none" else "reducer_mismatch"
    assert {v["kind"] for v in cert.violations} == {kind}
    red, expected = [0], [0]
    oracle._reduce_walk(n, 1, max_len, red)
    reference_memo(n, 1, max_len, expected)
    assert red == expected


def test_certification_peak_memory_is_pinned():
    # the walk holds no per-call table beside the memo and the closure: a 736 KiB
    # peak on Python 3.11 with the cached transition tables filled beforehand,
    # and the bound allows 9% over it; the collector is held off across both
    # calls, so no collection before or inside the window moves the reading
    gc.disable()
    try:
        certify_reducer(5, 4)
        tracemalloc.start()
        try:
            certify_reducer(5, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert peak <= 800 * 1024, f"{peak / 1024:.0f} KiB"


def walk_runs(n: int, ell: int) -> int:
    # the walk's steps at length ell: a run per canonical prefix of length e and
    # letter it owes, of which there are n * c_e - c_(e+1), and one per canonical word
    c = count(n).by_length
    return sum(n * c.get(e, 0) - c.get(e + 1, 0) for e in range(ell)) + c.get(ell, 0)


# the certify pairs with the step calls their walk makes, retried or not
STEP_CALLS = [(3, 4, 140), (3, 5, 177), (4, 4, 720), (5, 4, 3330), (2, 7, 36), (5, 3, 135), (6, 3, 228), (3, 7, 251)]


@pytest.mark.parametrize("n,max_len,calls", STEP_CALLS)
def test_walk_steps_once_per_run_at_every_length(n, max_len, calls, monkeypatch):
    # every length from 1 to the cap, and to the cap + 2 on a retry, takes
    # walk_runs' steps and no other
    step = reduce._deletion_index
    lengths = []

    def counted(letters, masks):
        lengths.append(len(letters))
        return step(letters, masks)

    monkeypatch.setattr(reduce, "_deletion_index", counted)
    cert = certify_reducer(n, max_len)
    assert cert.holds
    last = max_len + 2 if cert.retried else max_len
    assert [lengths.count(ell) for ell in range(1, last + 1)] == [walk_runs(n, ell) for ell in range(1, last + 1)]
    assert len(lengths) == calls


def test_rank_zero_cap_is_weighed():
    # one word at every cap, but the layout holds cap + 1 powers
    start = time.perf_counter()
    classes = congruence_closure(0, 10**5)
    assert [c.members for c in classes] == [((),)]
    with pytest.raises(ResourceGuardError, match="length <= 10000000 refused: 10000001 items"):
        oracle._closure(0, 10**7)
    assert time.perf_counter() - start < 1


def test_rank_one_certification_steps_once_per_length():
    # one step per length, each on a word that long; canonical_form on every
    # "1"·k, a deletion and a rescan per letter, takes 15 s at cap 2000
    start = time.perf_counter()
    cert = certify_reducer(1, 20_000)
    assert cert.holds and cert.classes == 2
    assert time.perf_counter() - start < 5


def test_long_cap_is_refused_before_its_powers(monkeypatch):
    # n^k for every k <= 10**6 would take tens of gigabytes to build
    def unbuilt(n, max_len):
        raise AssertionError(f"powers of {n} built up to {max_len}")

    monkeypatch.setattr(oracle, "_layout", unbuilt)
    for entry in (congruence_closure, certify_reducer):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=r"length <= 1000000 refused: about 2\^1000000 items"):
            entry(2, 10**6)
        assert time.perf_counter() - start < 1


def test_memo_catches_reducer_fault_past_the_cap(monkeypatch):
    _wrong_past(4, monkeypatch)
    cert = certify_reducer(3, 4)
    assert cert.retried and not cert.holds
    mismatched = [v["word"].split() for v in cert.violations if v["kind"] == "reducer_mismatch"]
    assert any(len(w) > 4 for w in mismatched)
    # canonical_form meets the same fault on the longer members
    assert _fields(cert) == _fields(reference_certify(3, 4))


def test_report_names_violations(monkeypatch):
    _wrong_past(4, monkeypatch)
    report = _reducer_report(3, 4, monkeypatch)
    assert not report.holds
    violations = certify_reducer(3, 4).violations
    assert f"; {len(violations)} violations, first: {json.dumps(list(violations[:3]))}" in report.note


def test_memo_catches_canonical_claims_past_the_cap(monkeypatch):
    # the step finds nothing to delete in any word longer than the cap
    step = reduce._deletion_index
    monkeypatch.setattr(reduce, "_deletion_index", lambda w, masks: None if len(w) > 4 else step(w, masks))
    cert = certify_reducer(3, 4)
    multiple = [v for v in cert.violations if v["kind"] == "multiple_canonical_members"]
    assert multiple and not cert.holds
    assert all(any(len(w.split()) > 4 for w in v["canonical"]) for v in multiple)


def test_classes_without_a_canonical_member_are_violations(monkeypatch):
    # a step that always deletes leaves the empty word the one word that reduces to itself
    step = reduce._deletion_index
    monkeypatch.setattr(reduce, "_deletion_index", lambda w, masks: step(w, masks) or 0)
    cert = certify_reducer(2, 3)
    assert cert.retried and not cert.holds
    assert cert.violations == tuple({"kind": "no_canonical_member", "class_rep": r} for r in ("1", "2", "1 2", "2 1"))
    report = _reducer_report(2, 3, monkeypatch)
    assert not report.holds
    assert f"; 4 violations, first: {json.dumps(list(cert.violations[:3]))}" in report.note


def test_certification_counts():
    def counts(cert):
        return cert.retried, cert.universe, cert.reduced_directly, cert.reduced_by_memo

    # no retry: the whole universe is reduced directly
    assert counts(certify_reducer(2, 7)) == (False, 255, 255, 0)
    # retry at cap 6: 1 093 words, 121 up to length 4; of the 972 longer
    # words, the 966 in classes reaching length <= 4 are compared
    cert = certify_reducer(3, 4)
    assert counts(cert) == (True, 1093, 121, 966)
    raised = reference_closure(3, 6)
    assert cert.reduced_by_memo == sum(
        sum(len(w) > 4 for w in c.members) for c in raised if len(c.members[0]) <= 4
    )
