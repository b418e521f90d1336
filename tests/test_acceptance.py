"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line directly to
the terminal (bypassing capture) so a full run reads as a checklist.
Numbered to keep the checklist order stable under default collection.
"""

import itertools
import json
import time
from fractions import Fraction
from operator import itemgetter

import pytest

from kiselman import bounds, census, cli, verify
from kiselman.oracle import certify_reducer
from kiselman.reduce import canonical_form
from kiselman.words import Word, is_canonical, length_bound
from test_census import filtered_recount

EXPECTED_TOTALS = {0: 1, 1: 2, 2: 5, 3: 18, 4: 115, 5: 1710, 6: 83973}


def _line(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def totals():
    return {n: census.count(n).total for n in range(7)}


def _mul_table(n: int):
    # table[i][j] is the index of words[i] * words[j]; one tuple per row
    words = list(census.iter_canonical(n))
    index = {w: i for i, w in enumerate(words)}
    table = [tuple(index[canonical_form(Word(u + v, n)).word.letters] for v in words) for u in words]
    return words, index, table


def test_criterion_01_exact_small_counts(capsys, totals):
    start = time.perf_counter()
    ok = totals[0] == 1 and totals[1] == 2
    # ranks 2 and 3 against the congruence oracle
    for n in (2, 3):
        cert = certify_reducer(n, 7)
        ok = ok and cert.holds and cert.classes == totals[n] == EXPECTED_TOTALS[n]
    # ranks 4..6 against the breadth-first generate-and-filter recount,
    # smallest first, stopping at the first rank that disagrees
    for n in (4, 5, 6):
        a, b = census.count(n), filtered_recount(n)
        ok = ok and a.total == b.total == EXPECTED_TOTALS[n] and a.by_length == b.by_length
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _line(capsys, 1, ok, f"counts 1,2,5,18,115,1710,83973 certified twice over ({elapsed:.1f}s)")


def test_criterion_02_reducer_certification(capsys):
    start = time.perf_counter()
    results = {}
    for n, cap in ((1, 7), (2, 7), (3, 7), (4, 8)):
        cert = certify_reducer(n, cap)
        results[(n, cap)] = cert.holds and cert.classes == cert.canonical_words
    elapsed = time.perf_counter() - start
    ok = all(results.values()) and elapsed < 300
    _line(
        capsys,
        2,
        ok,
        f"reducer matches the congruence oracle at (1,7),(2,7),(3,7),(4,8) ({elapsed:.1f}s)",
    )


def test_criterion_03_monoid_consistency(capsys):
    ok = True
    checked = 0
    for n in (1, 2, 3, 4):
        words, index, table = _mul_table(n)
        single = {a: index[(a,)] for a in range(1, n + 1)}
        for a in single.values():
            ok = ok and table[a][a] == a
        for a, b in itertools.combinations(single.values(), 2):
            ab = table[a][b]
            ok = ok and table[table[a][b]][a] == ab and table[table[b][a]][b] == ab
        # full associativity, a row of k at a time: (ij)k is table[ij][k] and
        # i(jk) is row[table[j][k]], where row is table[i] and ij = row[j]
        ok = ok and all(table[ij] == itemgetter(*table[j])(row) for row in table for j, ij in enumerate(row))
        checked += len(words) ** 3
    _line(capsys, 3, ok, f"defining relations and {checked} associativity triples, zero failures")


def test_criterion_04_bound_sandwich(capsys, totals):
    ok = True
    for n, c in totals.items():
        ok = ok and bounds.lower_bound(n) <= c
        if n >= 1:
            ok = ok and c <= min(bounds.prefix_upper_bound(n), bounds.km_upper_bound(n))
    for k in (1, 2, 3):
        ok = ok and totals[2 * k] <= bounds.parity_cap(2 * k)
    _line(capsys, 4, ok, "lower/prefix/km/even-cap sandwich exact for n <= 6, k <= 3")


def _named(reports, prefix):
    return [r for r in reports if r.name.startswith(prefix)]


def test_criterion_05_recursion_inequality(capsys, totals, monkeypatch, tmp_path):
    reports = _named(verify.bounds_suite(6), "doubled-count-square-below-next")
    ok = len(reports) == 5 and all(r.holds for r in reports)
    ok = ok and all((r.lhs, r.rhs) == ((2 * totals[r.n_or_k]) ** 2, 2 * totals[r.n_or_k + 2]) for r in reports)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["table", "--max-n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    scaled = [float(line.split(",")[-1]) for line in lines]
    for parity in (0, 1):
        seq = scaled[parity::2]
        ok = ok and seq == sorted(seq)
    _line(capsys, 5, ok, "2|K(n+2)| >= (2|K(n)|)^2 and table scaled-logs parity-monotone")


def test_criterion_06_multinomial_identity(capsys):
    reports = _named(verify.identities_suite(6), "multiset-multinomial-equals-binomial-product")
    ok = [r.n_or_k for r in reports] == list(range(1, 9)) and all(r.holds and r.lhs == r.rhs for r in reports)
    _line(capsys, 6, ok, "multiset multinomial equals the binomial product for k = 1..8")


def test_criterion_07_binomial_lemma(capsys):
    reports = _named(verify.identities_suite(6), "binomial-estimate-part-")
    ok = sorted((r.n_or_k, r.name) for r in reports) == [
        (N, f"binomial-estimate-part-{part}") for N in range(1, 65) for part in (1, 2, 3)
    ]
    ok = ok and all(r.holds for r in reports)
    _line(capsys, 7, ok, "all three binomial estimates as exact integer inequalities for N = 1..64")


def test_criterion_08_longest_word_structure(capsys):
    ok = True
    longest = {n: census.longest_census(n) for n in range(1, 7)}
    for n, lc in longest.items():
        ok = ok and lc.max_length == length_bound(n)
    ok = ok and longest[1].count == 1 and longest[3].count == 2 and longest[5].count == 8
    structure = verify.structure_suite(5)
    factored = _named(structure, "maximal-words-factor-as-w-1-n-w")
    ok = ok and [(r.n_or_k, r.holds) for r in factored] == [(3, True), (5, True)]
    for n in (3, 5):
        ok = ok and longest[n].count == 2 * longest[n - 2].count ** 2
    word = Word((2, 3, 1, 2, 4, 3), 4)
    ok = ok and is_canonical(word) and len(word) == longest[4].max_length
    ok = ok and set(word.letters[2:4]) != {1, 4}
    warned = _named(structure, "longest-count-vs-printed-closed-form")
    ok = ok and len(warned) == 2
    ok = ok and all(r.holds and r.note.startswith("WARN") for r in warned)
    ok = ok and [r.rhs for r in warned] == [8, 128]
    _line(capsys, 8, ok, "max lengths hit L(n); odd factorization holds; n=4 word breaks it; WARN emitted")


def test_criterion_09_constant(capsys):
    # scaled_log is never above the true value and at most one unit below its
    # floor, so c lies in [value, value + 2e-6), inside 6.1906's rounding interval
    value = bounds.scaled_log(1, 216)
    low = Fraction(value)
    ok = value == "6.190640" and Fraction("6.19055") <= low and low + Fraction(2, 10**6) <= Fraction("6.19065")
    _line(capsys, 9, ok, f"c = log2(432)/sqrt(2) in [{value}, {value} + 0.000002), rounds to 6.1906")


def test_criterion_10_determinism_and_stretch(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for _ in range(2):
        code = cli.main(["count", "--rank", "6"])
        out = capsys.readouterr().out
        assert code == 0
        outputs.append(json.loads(out))
    ok = outputs[0] == outputs[1] and outputs[0]["total"] == "83973"
    start = time.perf_counter()
    stretch = census.count(7)
    elapsed = time.perf_counter() - start
    ok = ok and stretch.total == 22263378  # pinned from the serial depth-first census
    ok = ok and bounds.lower_bound(7) <= stretch.total <= bounds.prefix_upper_bound(7)
    ok = ok and 2 * stretch.total >= (2 * EXPECTED_TOTALS[5]) ** 2
    _line(
        capsys,
        10,
        ok,
        f"rank 6 identical across runs; stretch rank 7 = {stretch.total} in {elapsed:.3f}s",
    )
