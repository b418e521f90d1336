import itertools
import json
from collections import Counter
from dataclasses import replace

import pytest

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


def _forward_by_length(n):
    # second formulation of the census DP: breadth-first over
    # state -> number-of-prefixes maps, one map per length
    masks = _letter_masks(n)
    level = {(0, 0): 1}
    by_length = {}
    while level:
        by_length[len(by_length)] = sum(level.values())
        nxt = Counter()
        for (ns, ng), c in level.items():
            for bit, keep_ns, keep_ng in masks:
                if not (ns | ng) & bit:
                    nxt[(ns & keep_ns) | bit, (ng & keep_ng) | bit] += c
        level = nxt
    return by_length


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
        assert len(_extension_table(n)) == n * 2 ** (n - 1) + 1, n


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


def test_pruned_longest_census_matches_walk():
    for n in range(1, 7):
        walked = tuple(w for w in iter_canonical(n) if len(w) == length_bound(n))
        assert longest_census(n).words == walked, n


def test_longest_census():
    lc = longest_census(3)
    assert lc.max_length == 4
    assert lc.count == 2
    assert lc.words == ((2, 1, 3, 2), (2, 3, 1, 2))
    assert lc.reaches_bound
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


def test_odd_structure_report_names_non_canonical_composites(monkeypatch):
    monkeypatch.setattr("kiselman.census.is_canonical", lambda word: False)
    report = verify_odd_structure(3)
    assert not report.holds
    assert report.note == "f(3) = 2, 2*f(1)^2 = 2; 2 failures, first: 'composite 2 1 3 2'"


def test_odd_structure_report_names_unfactored_words():
    # drop the inner word 2 1 3 2: the six maximal words of rank 5 built
    # from its shift 3 2 4 3 no longer factor, although the counts agree
    inner = longest_census(3)
    report = _odd_structure_report(longest_census(5), replace(inner, words=inner.words[1:]))
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


def test_census_json_roundtrip():
    c = replace(count(3), longest_count=longest_census(3).count)
    payload = json.loads(c.to_json())
    assert (payload["total"], payload["longest_count"]) == ("18", "2")
    assert json.loads(count(2).to_json()) == {
        "rank": 2,
        "total": "5",
        "by_length": {"0": "1", "1": "2", "2": "2"},
        "max_length": 2,
    }
