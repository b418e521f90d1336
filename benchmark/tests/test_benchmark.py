"""Tests of the benchmark's own reference code and checks.

Run from the repository root:  python -m pytest -q benchmark/tests
"""

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import plans
import spec
import worker
from tracer import Tracer, layer_metrics

import kiselman
import kiselman.cli
from kiselman.census import Census
from kiselman.oracle import OracleCertification


def canonical_by_definition(word) -> bool:
    # every pair of equal letters, not only consecutive ones
    for i, j in itertools.combinations(range(len(word)), 2):
        if word[i] == word[j]:
            gap = word[i + 1 : j]
            if not (any(x < word[i] for x in gap) and any(x > word[i] for x in gap)):
                return False
    return True


def all_words(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


def test_gap_predicate_matches_definition():
    for n in range(1, 5):
        for word in all_words(n, 7):
            assert spec.is_canonical(word) == canonical_by_definition(word), word


@pytest.mark.parametrize("n", range(0, 5))
def test_census_matches_brute_force(n):
    by_length = {}
    for word in all_words(n, spec.length_bound(n)):
        if canonical_by_definition(word):
            by_length[len(word)] = by_length.get(len(word), 0) + 1
    assert spec.census_by_length(n) == by_length
    # nothing canonical is longer than L(n)
    longer = itertools.product(range(1, n + 1), repeat=spec.length_bound(n) + 1)
    assert not any(canonical_by_definition(w) for w in longer)


def test_sampled_words_are_canonical_and_long():
    rng = random.Random(0)
    for n in range(3, 11):
        word = spec.long_canonical(rng, n)
        assert spec.is_canonical(word)
        assert spec.length_bound(n) - 2 <= len(word) <= spec.length_bound(n)


def test_plans_repeat_for_a_seed():
    for workload in plans.BUILDERS:
        assert plans.build(workload, 7) == plans.build(workload, 7)
    assert plans.build("algebra", 7) != plans.build("algebra", 8)


def one_pass(plan, inprocess=False, cache_stats=None):
    stats = [] if cache_stats is None else cache_stats
    ops, properties = worker.build_ops(plan, kiselman, {"cwd": "."}, inprocess, stats)
    runner = worker.Runner(ops, worker.IN_PROCESS)
    executions = runner.run(passes=1)
    bad = properties(runner.first) if properties else set()
    return runner.summary(executions, bad)


@pytest.mark.parametrize("workload", ["algebra", "census", "certify"])
def test_workloads_pass_at_this_commit(workload):
    plan = plans.build(workload, 3)
    summary = one_pass(plan)
    assert summary["attempted"] == len(plan["ops"])
    assert summary["failed"] == summary["wrong"] == 0


def test_cli_replay_passes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KISELMAN_CACHE", raising=False)
    stats = []
    summary = one_pass(plans.build("cli", 3), inprocess=True, cache_stats=stats)
    assert summary["failed"] == 0
    assert len(set(stats)) == 1  # the one count wrote the cache


def test_reducer_returning_its_input_fails(monkeypatch):
    monkeypatch.setattr(
        kiselman.reduce, "canonical_form",
        lambda w: type("Fake", (), {"word": w, "rank": w.rank})(),
    )
    summary = one_pass(plans.build("algebra", 3))
    reductions = sum(op["kind"] in ("reduce", "multiply") for op in plans.build("algebra", 3)["ops"])
    assert summary["wrong"] >= reductions // 2
    assert not checks.reduced((2, 1, 2), 2, (2, 1, 2))
    assert checks.reduced((2, 1, 2), 2, (1, 2))


def test_census_off_by_one_fails(monkeypatch):
    real = kiselman.census.count

    def off_by_one(n, **kwargs):
        c = real(n, **kwargs)
        by_length = dict(c.by_length)
        by_length[3] += 1
        return dataclasses.replace(c, by_length=by_length, total=c.total + 1)

    monkeypatch.setattr(kiselman.census, "count", off_by_one)
    plan = plans.build("census", 3)
    summary = one_pass(plan)
    assert summary["wrong"] == sum(op["kind"] == "count" for op in plan["ops"])
    good = spec.census_by_length(5)
    assert checks.census(5, sum(good.values()), good, 10)
    assert not checks.census(5, sum(good.values()), {**good, 7: good[7] + 1}, 10)


def test_longest_census_with_a_missing_word_fails():
    words = kiselman.census.longest_census(5).words
    assert checks.longest(5, 10, len(words), words)
    assert not checks.longest(5, 10, len(words) - 1, words[1:])
    assert not checks.longest(5, 10, len(words), words[::-1])


def test_certification_with_a_violation_fails(monkeypatch):
    def violated(n, cap, **kwargs):
        return OracleCertification(n, cap, 3, 3, ({"kind": "reducer_mismatch"},), False, False)

    monkeypatch.setattr(kiselman.oracle, "certify_reducer", violated)
    plan = plans.build("certify", 3)
    assert one_pass(plan)["wrong"] == len(plan["ops"])
    classes = spec.canonical_words_up_to(3, 4)
    assert checks.certification(3, 4, True, (), classes, classes)
    assert not checks.certification(3, 4, True, ({"kind": "x"},), classes, classes)
    assert not checks.certification(3, 4, True, (), classes - 1, classes - 1)


def test_verdict_check():
    assert checks.verdict((1, 2, 1), (1, 1, 3))
    assert not checks.verdict((1, 2, 1), None)
    assert not checks.verdict((2, 1, 3, 2), (2, 1, 4))
    assert checks.verdict((2, 1, 3, 2), None)


def test_cli_checks_reject_wrong_output():
    reduce_op = {"kind": "reduce", "rank": 3, "word": [3, 1, 2, 3, 1]}
    assert checks.cli(reduce_op, 0, "3 1 2\n")
    assert not checks.cli(reduce_op, 0, "3 1 2 3 1\n")
    assert not checks.cli(reduce_op, 1, "3 1 2\n")
    check_op = {"kind": "check", "rank": 2, "word": [1, 2, 1]}
    assert checks.cli(check_op, 1, "not canonical (letter 1, positions 1,3)\n")
    assert not checks.cli(check_op, 0, "canonical\n")
    census = spec.census_by_length(4)
    count_out = Census(4, sum(census.values()), census, 6).to_json()
    assert checks.cli({"kind": "count", "rank": 4}, 0, count_out)
    wrong = Census(4, sum(census.values()) + 1, {**census, 2: census[2] + 1}, 6).to_json()
    assert not checks.cli({"kind": "count", "rank": 4}, 0, wrong)
    report = {"name": "x", "n_or_k": 1, "lhs": "1", "rhs": "1", "holds": True, "note": ""}
    assert checks.cli({"kind": "verify"}, 0, json.dumps([report]))
    assert not checks.cli({"kind": "verify"}, 0, json.dumps([{**report, "holds": False}]))
    assert not checks.cli({"kind": "verify"}, 1, json.dumps([report]))


def test_tracer_restores_and_counts():
    original = kiselman.cli.canonical_form
    word = kiselman.Word((2, 1, 2), 2)
    tracer = Tracer()
    tracer.install(kiselman)
    try:
        assert kiselman.cli.canonical_form is not original
        assert kiselman.reduce.canonical_form is kiselman.cli.canonical_form
        assert kiselman.reduce.canonical_form(word).word.letters == (1, 2)
    finally:
        tracer.uninstall()
    assert kiselman.cli.canonical_form is original
    metrics = layer_metrics(tracer.spans, 1.0)
    assert metrics["reduce.canonical_form.calls"] == 1
    assert metrics["reduce.scans_per_reduce"] == 2.0
    assert metrics["words.validate.calls"] == 1  # the reduced word


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["cli.main", 5.0, 6.0, 0, 0]]
    assert layer_metrics(spans, 2.0)["cli.main.self_s"] == 2.0
    spans = [["cli.main", 0.0, 10.0, -1, 0], ["reduce.canonical_form", 1.0, 4.0, 0, 0]]
    assert layer_metrics(spans, 1.0)["cli.main.self_s"] == 7.0


def test_run_fails_without_sources(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copytree(root / "benchmark", tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
