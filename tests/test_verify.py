import pytest

from kiselman import census, verify
from kiselman.reports import BoundReport
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


def test_structure_suite_warns_without_failing():
    reports = verify.structure_suite(max_n=4)
    assert all(r.holds for r in reports)
    warnings = [r for r in reports if r.note.startswith("WARN")]
    assert [w.n_or_k for w in warnings] == [3]
    counter = next(r for r in reports if r.name == "even-rank-counterexample-word")
    assert counter.holds


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
        verify.run_all(7)


def test_run_all_keeps_suites_order(monkeypatch):
    monkeypatch.setattr(verify, "reducer_suite", lambda max_n: [BoundReport("reducer-stub", max_n, 0, 0, True)])
    expected = [r for suite in verify.SUITES for r in verify.run_suite(suite, 3)]
    assert verify.run_all(3) == expected
    assert expected[0].name == "reducer-stub"


def test_run_suite_dispatch():
    assert verify.run_suite("reducer", max_n=1)[0].holds
    with pytest.raises(ValueError):
        verify.run_suite("nonsense")


def test_failing_and_all_hold():
    reports = verify.identities_suite(max_n=2)
    assert verify.all_hold(reports)
    assert verify.failing(reports) == []
