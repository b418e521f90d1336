import hashlib
import tracemalloc

import pytest

from kiselman import census, verify
from kiselman.cli import main
from kiselman.reports import BoundReport, reports_to_json
from kiselman.words import ResourceGuardError


def test_reducer_suite_respects_max_n():
    reports = verify.reducer_suite(max_n=2)
    assert [r.n_or_k for r in reports] == [1, 2]
    assert all(r.holds for r in reports)


def test_bounds_suite_holds():
    reports = verify.bounds_suite(max_n=4)
    assert reports and all(r.holds for r in reports)
    names = {r.name for r in reports}
    assert "lower-bound-below-count" in names
    assert "doubled-count-square-below-next" in names
    assert "count-monotone-in-rank" in names


def test_identities_suite_holds():
    reports = verify.identities_suite(max_n=3)
    assert all(r.holds for r in reports)
    # fixed coverage regardless of max_n: k = 1..8 and N = 1..64 * 3 parts
    assert sum(r.name == "multiset-multinomial-equals-binomial-product" for r in reports) == 8
    assert sum(r.name.startswith("binomial-estimate") for r in reports) == 192


@pytest.mark.parametrize("suite", [verify.bounds_suite, verify.identities_suite], ids=["bounds", "identities"])
def test_bound_guards_admit_every_rank_the_census_admits(suite):
    # rank 12 is the census's last; its bounds, caps and identities all fit the budget
    reports = suite(max_n=12)
    assert reports and all(r.holds for r in reports)


def test_identities_suite_guards_its_multiset_rows(monkeypatch):
    # the rows weigh about max_n^3 / 768 64-bit words, read against the budget at call time;
    # the fixed checks weigh only their multiset rows, rank 16's the heaviest at 1 word
    monkeypatch.setattr("kiselman.words.BUDGET", 1600)
    assert all(r.holds for r in verify.identities_suite(max_n=6))
    with pytest.raises(ResourceGuardError, match=r"multiset rows up to rank 107 refused.*kiselman\.words\.BUDGET"):
        verify.identities_suite(max_n=107)


def test_structure_suite_warns_without_failing():
    reports = verify.structure_suite(max_n=4)
    assert all(r.holds for r in reports)
    warnings = [r for r in reports if r.note.startswith("WARN")]
    assert [w.n_or_k for w in warnings] == [3]
    assert verify.warned(reports) == warnings
    assert verify.warned(verify.bounds_suite(max_n=4)) == []
    counter = next(r for r in reports if r.name == "even-rank-counterexample-word")
    assert counter.holds


def test_structure_suite_peak_memory_is_pinned():
    # each per-rank structure check is a function of its own, so its word sets go when it
    # returns: a 3 849 KiB peak on Python 3.11 with the cached transition tables filled
    # beforehand, and the bound allows 9% over it
    verify.structure_suite(6)
    tracemalloc.start()
    try:
        verify.structure_suite(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4200 * 1024, f"{peak / 1024:.0f} KiB"


def test_structure_suite_builds_each_longest_census_once(monkeypatch):
    built = []
    real = census.longest_census

    def counting(n, **kwargs):
        built.append(n)
        return real(n, **kwargs)

    monkeypatch.setattr(census, "longest_census", counting)
    reports = verify.structure_suite(max_n=5)
    assert sorted(built) == [1, 2, 3, 4, 5]
    odd = [r for r in reports if r.name == "maximal-words-factor-as-w-1-n-w"]
    assert [(r.n_or_k, r.holds) for r in odd] == [(3, True), (5, True)]


def test_run_all_refuses_before_the_slow_suites(monkeypatch):
    def refused(max_n):
        raise AssertionError("the reducer suite ran before the structure suite's guard")

    monkeypatch.setattr(verify, "reducer_suite", refused)
    with pytest.raises(ResourceGuardError, match="rank 7 word listing"):
        verify.run_suite("all", 7)


def test_run_all_keeps_suites_order(monkeypatch):
    monkeypatch.setattr(verify, "reducer_suite", lambda max_n: [BoundReport("reducer-stub", max_n, 0, 0, True)])
    expected = [r for suite in verify.SUITES for r in verify.run_suite(suite, 3)]
    assert verify.run_suite("all", 3) == expected
    assert expected[0].name == "reducer-stub"


def test_run_suite_dispatch():
    assert verify.run_suite("reducer", max_n=1)[0].holds
    with pytest.raises(ValueError):
        verify.run_suite("nonsense")


def test_failing_and_all_hold():
    reports = verify.identities_suite(max_n=2)
    assert not verify.failing(reports)
    wrong = BoundReport.at_most("lhs-above-rhs", 1, 3, 2)
    assert verify.failing([*reports, wrong]) == [wrong]


def test_exact_suites_output_is_pinned():
    reports = verify.bounds_suite(6) + verify.identities_suite(6) + verify.structure_suite(6)
    assert len(reports) == 268
    for r in reports:
        for value in (r.lhs, r.rhs):
            assert type(value) is int
    # the pinned digest; recompute it from the repository root with
    # PYTHONPATH=src python -c "import hashlib, kiselman.verify as v, kiselman.reports as r; print(hashlib.sha256(
    # r.reports_to_json(v.bounds_suite(6) + v.identities_suite(6) + v.structure_suite(6)).encode()).hexdigest())"
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == "c85a3f47d84a94f7b828e4151c0bbd777d279b31186d4f052f5208966d7aaba9"


@pytest.mark.parametrize(
    "suite, max_n, pinned",
    [
        pytest.param("reducer", 3, "bf84cc4a5ae1a098c2458eb5544a0a32c64791e856bbe5a58ad7cbb4908fee5a", id="reducer-3"),
        pytest.param("bounds", 0, "a1aeebb61957de939e1486f872051aba9f4aa969e7f170ffaebf7f81b95fe432", id="bounds-0"),
        pytest.param("bounds", 1, "d4779e9abc05ab9dbb2359b6fbe12b3e9cc2b04008420c425eb68ebf8d853eba", id="bounds-1"),
        pytest.param("bounds", 2, "fbb2b7b9025861d4fb75f879fa8cf27c7504c87d32b77c3b30428bc8ded70b64", id="bounds-2"),
        pytest.param("bounds", 3, "1bc1a290d6b8f5a9b5ed00f180b7f1a1752e6c590c690aabc6245a5a4c37e16f", id="bounds-3"),
        pytest.param("bounds", 7, "ee0bbe1f64d265561e39dbc6b008f94a84c1241d20c709147a56775de9bf134c", id="bounds-7"),
    ],
)
def test_suite_output_is_pinned(suite, max_n, pinned):
    # rank 3's reducer check retries, so its note names the raised cap; the bounds suite has no
    # odd rank at max_n 0 and no doubling pair at 1. Recompute from the repository root with
    # PYTHONPATH=src python -c "import hashlib, kiselman.verify as v, kiselman.reports as r; print(hashlib.sha256(
    # r.reports_to_json(v.run_suite('bounds', 7)).encode()).hexdigest())"   (and each suite and rank above)
    digest = hashlib.sha256(reports_to_json(verify.run_suite(suite, max_n)).encode()).hexdigest()
    assert digest == pinned


@pytest.mark.parametrize(
    "fmt, max_n, pinned",
    [
        pytest.param("csv", "6", "0e39fca70ca0a47dcb9a87373088b984b2526c582b28b5836b1053fae0eb334f", id="csv-6"),
        pytest.param("json", "6", "4046bcdadc6afa8c8813152bbaf40323e93cc647724bb8d273d057eb914bd47a", id="json-6"),
        pytest.param("csv", "12", "ad8bac3a4cefc35b8530a62679200b93a34b311e49cc00be771a4772448252f9", id="csv-12"),
        pytest.param("json", "12", "d787c44579cb884eeba69947ad43ca9f87fb6600ec17ee231035a04ef9c3d01b", id="json-12"),
    ],
)
def test_table_output_is_pinned(fmt, max_n, pinned, capsys):
    # every byte of the table, key order and empty cells included; recompute from the repository root with
    # PYTHONPATH=src python -m kiselman.cli table --max-n 6 --format csv | sha256sum   (and 12, and --format json)
    assert main(["table", "--max-n", max_n, "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pinned


def test_count_output_is_pinned(capsys):
    # every byte of count --rank 0..12, concatenated, the top coefficient included; recompute with
    # for n in $(seq 0 12); do PYTHONPATH=src python -m kiselman.cli count --rank $n; done | sha256sum
    out = ""
    for n in range(13):
        assert main(["count", "--rank", str(n)]) == 0
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "4ac735919e4d2d08e6a114e93a9146350d621b734b7879df53ee1a6b1cc69944"
