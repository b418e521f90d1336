import inspect
import itertools
import json
import tracemalloc
from collections import Counter

import pytest

import kiselman
from kiselman import census
from kiselman.bounds import km_upper_bound, lower_bound, prefix_upper_bound
from kiselman.census import (
    _extension_table,
    _odd_structure_report,
    count,
    filtered_recount,
    iter_canonical,
    longest_census,
    verify_lower_bound_construction,
    verify_odd_structure,
    verify_subalphabet_embedding,
)
from kiselman.words import ResourceGuardError, Word, _letter_masks, is_canonical, length_bound

# frozen counts; ranks 2 and 3 are certified against the congruence oracle
# in the acceptance suite, the rest recomputed here by independent filters
KNOWN_TOTALS = {0: 1, 1: 2, 2: 5, 3: 18, 4: 115, 5: 1710, 6: 83973}

KNOWN_BY_LENGTH_4 = {0: 1, 1: 4, 2: 12, 3: 24, 4: 32, 5: 28, 6: 14}
KNOWN_BY_LENGTH_5 = {
    0: 1, 1: 5, 2: 20, 3: 60, 4: 140, 5: 260,
    6: 382, 7: 418, 8: 302, 9: 114, 10: 8,
}

KNOWN_LONGEST = {1: 1, 2: 2, 3: 2, 4: 14, 5: 8, 6: 838}

# n -> (total, L(n), words of length L(n)) past the walk's reach; the DP
# agrees with the breadth-first formulation below for n <= 10, and the top
# coefficients at 9 and 11 also follow f(n) = 2 * f(n-2)^2
PINNED_PAST_THE_WALK = {
    8: (64146328635, 30, 3968310),
    9: (5387481983035854, 46, 32768),
    10: (53332505278384935836485, 62, 122002082809110),
    11: (448356696524549059043145139274042, 94, 2147483648),
    12: (
        52321110785739610206886887435107004491768788251,
        126,
        160648249609910357850450605270,
    ),
}


def test_counts_match_frozen_values():
    for n, expected in KNOWN_TOTALS.items():
        assert count(n).total == expected, n


def test_by_length_frozen():
    assert count(4).by_length == KNOWN_BY_LENGTH_4
    assert count(5).by_length == KNOWN_BY_LENGTH_5


def test_census_internal_consistency():
    for n in range(6):
        c = count(n)
        assert sum(c.by_length.values()) == c.total
        assert c.max_length == max(c.by_length)
        assert c.max_length == length_bound(n)


def test_naive_filter_agrees_small_ranks():
    # definitional recount: filter every word of length <= L(n)
    for n in range(5):
        alphabet = range(1, n + 1)
        total = sum(
            1
            for length in range(length_bound(n) + 1)
            for letters in itertools.product(alphabet, repeat=length)
            if is_canonical(Word(letters, n))
        )
        assert total == KNOWN_TOTALS[n]


def test_iter_canonical_yields_each_once():
    for n in range(5):
        words = list(iter_canonical(n))
        assert len(words) == len(set(words)) == KNOWN_TOTALS[n]
        assert all(is_canonical(Word(w, n)) for w in words)


def test_iter_canonical_prefix_order():
    seen = set()
    for w in iter_canonical(3):
        if w:
            assert w[:-1] in seen
        seen.add(w)


def test_complement_symmetry():
    # x -> n+1-x preserves the gap condition, so it permutes canonical words
    for n in range(1, 5):
        words = set(iter_canonical(n))
        assert {tuple(n + 1 - x for x in w) for w in words} == words


def _forward_levels(n):
    # second formulation of the census DP: breadth-first over
    # (ns, ng) -> number-of-prefixes maps, one map per length; it keys
    # states by tuple, apart from the packing of the census table
    masks = _letter_masks(n)[1:]  # letter x's transition at x - 1
    level = {(0, 0): 1}
    while level:
        yield level
        nxt = Counter()
        for (ns, ng), c in level.items():
            for bit, keep_ns, keep_ng in masks:
                if not (ns | ng) & bit:
                    nxt[(ns & keep_ns) | bit, (ng & keep_ng) | bit] += c
        level = nxt


def _forward_by_length(n):
    return {length: sum(level.values()) for length, level in enumerate(_forward_levels(n))}


def test_dp_matches_walk_and_recount():
    for n in range(7):
        walked = Counter(len(w) for w in iter_canonical(n))
        dp, recount = count(n), filtered_recount(n)
        assert dp.by_length == dict(walked) == recount.by_length, n
        assert (dp.total, dp.max_length) == (recount.total, recount.max_length), n


def test_recount_raises_on_a_word_past_the_length_bound(monkeypatch):
    # with the bound set one short, the longest canonical words are too long
    monkeypatch.setattr("kiselman.census.length_bound", lambda n: length_bound(n) - 1)
    with pytest.raises(RuntimeError, match=r"longer than L\(3\) = 3"):
        filtered_recount(3)


def test_dp_matches_forward_formulation():
    for n in range(11):
        assert count(n).by_length == _forward_by_length(n), n


def test_reachable_state_count():
    for n in range(1, 11):
        assert len(_extension_table(n)[0]) == n * 2 ** (n - 1) + 1, n


def test_table_keys_unpack_to_the_reachable_states():
    # a key packs ns << n | ng; unpacked, the keys are the states the tuple-keyed formulation reaches
    for n in range(11):
        unpacked = {(s >> n, s & (2**n - 1)) for s in _extension_table(n)[0]}
        assert unpacked == {state for level in _forward_levels(n) for state in level}, n


def test_slot_width_holds_every_count():
    # the packed table's slot leaves a spare bit over the largest count it
    # must hold, taken here from the unpacked breadth-first formulation
    for n in range(11):
        assert max(_forward_by_length(n).values()) < 2 ** (_extension_table(n)[1] - 1), n


def test_maximal_word_counts_follow_odd_recursion_past_the_walk():
    f = {n: count(n).by_length[length_bound(n)] for n in (5, 7, 9, 11)}
    for n in (7, 9, 11):
        assert f[n] == 2 * f[n - 2] ** 2, n


def test_counts_pinned_past_the_walk():
    for n, (total, longest, top) in PINNED_PAST_THE_WALK.items():
        c = count(n)
        assert (c.total, c.max_length, c.by_length[longest]) == (total, longest, top), n
        assert longest == length_bound(n)


def test_rank_8_count_within_bounds():
    c = count(8).total
    assert lower_bound(8) <= c <= min(prefix_upper_bound(8), km_upper_bound(8))
    assert 2 * c >= (2 * KNOWN_TOTALS[6]) ** 2


def _pruned_longest_walk(n):
    # reference for the depth-by-depth listing: a depth-first walk with
    # children in increasing letter order that enters a child only if its
    # longest extension, from a memo of its own, still reaches the maximal length
    masks = _letter_masks(n)[1:]  # letter x's transition at x - 1
    longest = {}

    def reach(ns, ng):
        found = longest.get((ns, ng))
        if found is None:
            blocked = ns | ng
            found = longest[ns, ng] = max(
                (
                    1 + reach((ns & keep_ns) | bit, (ng & keep_ng) | bit)
                    for bit, keep_ns, keep_ng in masks
                    if not blocked & bit
                ),
                default=0,
            )
        return found

    best = reach(0, 0)
    words, path = [], []

    def walk(ns, ng):
        if len(path) == best:
            words.append(tuple(path))
            return
        blocked = ns | ng
        for x, (bit, keep_ns, keep_ng) in enumerate(masks, 1):
            if not blocked & bit:
                child = ((ns & keep_ns) | bit, (ng & keep_ng) | bit)
                if len(path) + 1 + reach(*child) == best:
                    path.append(x)
                    walk(*child)
                    path.pop()

    walk(0, 0)
    return tuple(words)


def test_longest_census_matches_pruned_walk():
    for n in (1, 2, 3, 4, 5, 6, 7, 9):
        assert longest_census(n).words == _pruned_longest_walk(n), n


def test_pruned_longest_census_matches_walk():
    for n in range(1, 7):
        walked = tuple(w for w in iter_canonical(n) if len(w) == length_bound(n))
        assert longest_census(n).words == walked, n


def test_longest_census():
    lc = longest_census(3)
    assert lc.max_length == 4
    assert lc.count == 2
    assert lc.words == ((2, 1, 3, 2), (2, 3, 1, 2))
    for n, expected in KNOWN_LONGEST.items():
        assert longest_census(n).count == expected, n


def test_longest_counts_follow_odd_recursion():
    f = {n: longest_census(n).count for n in (1, 3, 5)}
    assert f[3] == 2 * f[1] ** 2
    assert f[5] == 2 * f[3] ** 2


def test_odd_structure_reports():
    for n in (3, 5):
        report = verify_odd_structure(n)
        assert report.holds, report.note
    with pytest.raises(ValueError):
        verify_odd_structure(4)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: longest_census(0), "need rank >= 1, got 0"),
        (lambda: verify_odd_structure(4), "factorization of maximal words only holds for odd ranks, got 4"),
        (lambda: verify_odd_structure(1), "need rank >= 3, got 1"),
        (lambda: verify_subalphabet_embedding(0), "need rank >= 1, got 0"),
    ],
    ids=["longest_census", "verify_odd_structure-even", "verify_odd_structure-small", "verify_subalphabet_embedding"],
)
def test_argument_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_odd_structure_report_names_non_canonical_composites(monkeypatch):
    monkeypatch.setattr("kiselman.census.is_canonical", lambda word: False)
    report = verify_odd_structure(3)
    assert not report.holds
    assert report.note == "f(3) = 2, 2*f(1)^2 = 2; 2 failures, first: 'composite 2 1 3 2'"


def test_odd_structure_report_names_unfactored_words():
    # drop the inner word 2 1 3 2: the six maximal words of rank 5 built
    # from its shift 3 2 4 3 no longer factor, although the counts agree
    inner = longest_census(3)
    report = _odd_structure_report(longest_census(5), inner._replace(words=inner.words[1:]))
    assert not report.holds
    assert report.lhs == report.rhs == 8
    assert report.note == "f(5) = 8, 2*f(3)^2 = 8; 6 failures, first: '3 2 4 3 1 5 3 2 4 3'"


def test_subalphabet_embedding():
    for n in range(2, 6):
        report = verify_subalphabet_embedding(n)
        assert report.holds, report.note


def test_lower_bound_construction():
    for n in range(4):
        report = verify_lower_bound_construction(n)
        assert report.holds, report.note
        assert report.lhs == 2 * KNOWN_TOTALS[n] ** 2
        assert report.rhs == KNOWN_TOTALS[n + 2]


def test_lower_bound_construction_counts_non_canonical_composites(monkeypatch):
    monkeypatch.setattr("kiselman.census.is_canonical", lambda word: False)
    report = verify_lower_bound_construction(1)
    assert not report.holds
    assert report.note == "8 distinct composites, 8 non-canonical"


def test_rank_guard():
    with pytest.raises(ResourceGuardError):
        count(13)
    with pytest.raises(ResourceGuardError):
        next(iter_canonical(9))


@pytest.mark.parametrize(
    "call",
    [
        lambda: next(iter_canonical(7)),
        lambda: filtered_recount(7),
        lambda: verify_lower_bound_construction(5),
        lambda: verify_subalphabet_embedding(7),
        lambda: longest_census(10),
        lambda: longest_census(8),
    ],
    ids=["iter_canonical", "filtered_recount", "lower_bound", "embedding", "longest", "longest_letters"],
)
def test_listing_refused_by_its_size(call):
    # each refusal comes from the census DP's exact size, before any long listing
    # (rank 8's 3 968 310 maximal words fit the budget, their 119 049 300 letters do not)
    with pytest.raises(ResourceGuardError, match="budget of 4000000"):
        call()


def test_embedding_refused_before_the_smaller_rank_is_drawn(monkeypatch):
    drawn = set()

    def recording(walk):
        def wrapped(n):
            for i, word in enumerate(walk(n)):
                if i == 0:
                    drawn.add(n)
                yield word

        return wrapped

    monkeypatch.setattr(census, "iter_canonical", recording(census.iter_canonical))
    with pytest.raises(ResourceGuardError, match="rank 7 word listing"):
        verify_subalphabet_embedding(7)
    assert drawn == set()
    assert verify_subalphabet_embedding(3).holds and drawn == {2, 3}


def test_no_callable_takes_an_override():
    # every guard is lifted by the module constant its refusal names, kiselman.words.BUDGET
    names = ("bounds", "census", "oracle", "reduce", "reports", "verify", "words")
    offering = set()
    for module in [kiselman, *(getattr(kiselman, name) for name in names)]:
        for name in module.__all__:
            obj = getattr(module, name)
            # an exception class has no inspectable signature, and takes no override
            if isinstance(obj, type) and issubclass(obj, Exception):
                continue
            if callable(obj) and "allow_large" in inspect.signature(obj).parameters:
                offering.add(obj)
    assert offering == set()


def test_transition_table_guard_reads_the_budget_at_call_time(monkeypatch):
    # rank 4's table weighs 12 words; a cached table is refused like a new one,
    # and count weighs it before its own census table, whatever the order of calls
    assert len(_letter_masks(4)) == 5  # indexed by the letter, entry 0 unused
    monkeypatch.setattr("kiselman.words.BUDGET", 11)
    with pytest.raises(ResourceGuardError, match="rank 4 transition table"):
        _letter_masks(4)
    with pytest.raises(ResourceGuardError, match="rank 4 transition table"):
        count(4)


def test_maximal_word_listing_weighs_two_depths(monkeypatch):
    # at most 32 768 heads of 23 letters, tails of 23 letters and words of 46 letters,
    # held by the heads with two depths of tails or with one and the output: 2 * 32 768 * 46
    monkeypatch.setattr("kiselman.words.BUDGET", 2 * 32768 * 46 - 1)
    with pytest.raises(ResourceGuardError, match="rank 9 maximal-word listing"):
        longest_census(9)
    monkeypatch.setattr("kiselman.words.BUDGET", 2 * 32768 * 46)
    assert longest_census(9).count == 32768


def test_maximal_word_listing_holds_little_beyond_its_result():
    # the heads and tails are small beside the 32 768 words of 46 letters the result keeps
    _letter_masks(9)  # the cached transition table, which stays, is drawn outside the trace
    tracemalloc.start()
    try:
        result = longest_census(9)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.count == 32768
    assert peak <= 1.25 * held, (peak, held)


def test_small_listings_of_large_rank_allowed():
    # 32 768 maximal words at rank 9, and f(9) = 2 * f(7)^2, fit the budget
    assert longest_census(9).count == 32768
    assert verify_odd_structure(9).holds


def test_census_json_roundtrip():
    # the top coefficient is the number of maximal words, which longest_census lists
    payload = json.loads(count(3).to_json())
    assert (payload["total"], payload["longest_count"]) == ("18", str(longest_census(3).count)) == ("18", "2")
    assert json.loads(count(2).to_json()) == {
        "rank": 2,
        "total": "5",
        "by_length": {"0": "1", "1": "2", "2": "2"},
        "max_length": 2,
        "longest_count": "2",
    }
