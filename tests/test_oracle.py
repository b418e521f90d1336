"""The congruence oracle, and the union-find and reduce-every-member scan
it replaced, kept here as references.

The reference merges both sides of all four relation edges, sorts each
class and the class list, and reduces every member with `canonical_form`;
the oracle merges each relation instance from one side into index-ordered
roots and reduces the words past the cap by memo.
"""

import json
from itertools import product

import pytest

from kiselman import oracle, reduce, words
from kiselman.census import count
from kiselman.oracle import (
    CongruenceClass,
    OracleCertification,
    certify_reducer,
    congruence_closure,
    verify_reducer_against_oracle,
)
from kiselman.reduce import canonical_form
from kiselman.words import ResourceGuardError, Word, is_canonical

CLASS_PAIRS = [(0, 3), (1, 5), (2, 7), (2, 9), (3, 6), (3, 7), (4, 6), (4, 8), (5, 5), (5, 6), (6, 4)]
# the benchmark's certify pairs, four that retry and three that do not, and (3, 7)
CERTIFY_PAIRS = [(3, 4), (3, 5), (4, 4), (5, 4), (2, 7), (5, 3), (6, 3), (3, 7)]


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
    assert holder.canonical_member == (1, 2)


def test_classes_count_rank_2():
    # five elements: "", 1, 2, 12, 21
    classes = congruence_closure(2, 6)
    assert len(classes) == 5
    assert all(c.canonical_member is not None for c in classes)


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


def test_report_form():
    report = verify_reducer_against_oracle(2, 6)
    assert report.holds
    assert report.lhs == report.rhs == 5
    assert report.name == "congruence-classes-equal-canonical-words"


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


@pytest.mark.parametrize("entry", [congruence_closure, certify_reducer, verify_reducer_against_oracle])
def test_negative_cap_is_refused(entry):
    # a negative cap has no words to certify; it must not pass as a vacuous hold
    for n, max_len in ((2, -1), (3, -2)):
        with pytest.raises(ValueError, match=f"length cap must be nonnegative, got {max_len}"):
            entry(n, max_len)
    assert len(congruence_closure(2, 0)) == 1


@pytest.mark.parametrize("n,max_len", CLASS_PAIRS)
def test_classes_match_reference(n, max_len):
    # members, their order, canonical members and the class order
    assert congruence_closure(n, max_len) == reference_closure(n, max_len)


@pytest.mark.parametrize("n,max_len", CERTIFY_PAIRS)
def test_certification_matches_reference(n, max_len):
    cert = certify_reducer(n, max_len)
    assert cert.holds
    assert _fields(cert) == _fields(reference_certify(n, max_len))


def _wrong_past(cap, monkeypatch):
    # the reducer's step deletes the first letter of any reducible word
    # longer than the cap; canonicity is untouched
    step = reduce._deletion_index

    def faulty(letters, masks):
        idx = step(letters, masks)
        return 0 if idx is not None and len(letters) > cap else idx

    monkeypatch.setattr(reduce, "_deletion_index", faulty)


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
    report = verify_reducer_against_oracle(3, 4)
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


@pytest.mark.parametrize("n,max_len", [(2, 7), (3, 4)])
def test_canonical_form_once_per_short_word(n, max_len, monkeypatch):
    seen = []

    def counted(word):
        seen.append(word.letters)
        return canonical_form(word)

    monkeypatch.setattr(oracle, "canonical_form", counted)
    assert certify_reducer(n, max_len).holds
    short = [w for ell in range(max_len + 1) for w in product(range(1, n + 1), repeat=ell)]
    assert seen == short


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
