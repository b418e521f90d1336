import hashlib
from fractions import Fraction

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
    # the heaviest fixed check, rank 16's multinomial identity, weighs (2550 bits / 64)^2 = 1600
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


def test_exact_suites_output_is_pinned():
    reports = verify.bounds_suite(6) + verify.identities_suite(6) + verify.structure_suite(6)
    assert len(reports) == 268
    for r in reports:
        for value in (r.lhs, r.rhs):
            assert isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool))
    # the pinned digest; recompute it from the repository root with
    # PYTHONPATH=src python -c "import hashlib, kiselman.verify as v, kiselman.reports as r; print(hashlib.sha256(
    # r.reports_to_json(v.bounds_suite(6) + v.identities_suite(6) + v.structure_suite(6)).encode()).hexdigest())"
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == "00c3a81dac19f76b93b99204c9af2c640f39f3a9989dc7c01587cb8680750e09"


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
