"""How often a command rebuilds its work, counted by wrapping the builder,
how often a certification or a reduction reads its transition table, how
often the maximal-word listing reads its census table,
calls its owed-state pass or validates a word, how many links reach the
oracle closure's finds, and how many canonical words the oracle walk
reports.

Each figure is pinned, so a rebuild added or saved shows here as a changed
count rather than only as time; a change that moves a figure gives the old
and new figure in `CHANGES.md`.
"""

import sys

import pytest

from kiselman import census, cli, oracle, reduce
from kiselman.oracle import certify_reducer
from kiselman.reduce import KElement, canonical_form, multiply
from kiselman.words import Word, _letter_masks
from test_oracle import CERTIFY_PAIRS, STEP_CALLS
from test_reduce import _counted_reads


def _record(monkeypatch, module, name) -> list:
    # every call of module.name, by its positional arguments
    real, calls = getattr(module, name), []

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


# one `_extension_table(n)` per rank a census needs, each command building its own
TABLES_BUILT = [
    (["verify", "--suite", "all", "--max-n", "6"], 43),
    (["verify", "--suite", "bounds", "--max-n", "12"], 13),
    (["table", "--max-n", "6"], 7),
    (["count", "--rank", "12"], 1),
]


@pytest.mark.parametrize("argv,built", TABLES_BUILT, ids=[" ".join(argv) for argv, _ in TABLES_BUILT])
def test_census_tables_built_per_command(argv, built, monkeypatch, capsys):
    tables = _record(monkeypatch, census, "_extension_table")
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(tables) == built


def _census_reads(monkeypatch) -> list:
    # each table _extension_table returns, as a dict that counts its subscript reads
    real, tables = census._extension_table, []

    class Counted(dict):
        reads = 0

        def __getitem__(self, s):
            self.reads += 1
            return super().__getitem__(s)

    def counted(n):
        table, slot, steps = real(n)
        tables.append(Counted(table))
        return tables[-1], slot, steps

    monkeypatch.setattr(census, "_extension_table", counted)
    return tables


def _unblocked_letters_by_state(n, words) -> dict:
    # (ns, ng) -> its unblocked letters, for the state each proper prefix of a word ends in,
    # stepped by the transition table alone
    masks, unblocked = _letter_masks(n), {}
    for word in words:
        ns = ng = 0
        for x in word:
            if (ns, ng) not in unblocked:
                unblocked[ns, ng] = sum(not (ns | ng) & masks[y][0] for y in range(1, n + 1))
            bit, keep_ns, keep_ng = masks[x]
            ns, ng = (ns & keep_ns) | bit, (ng & keep_ng) | bit
    return unblocked


# the distinct states of the maximal words' prefixes shorter than L(n), and the table
# reads of longest_census(n), at ranks 1 to 7 and 9
LONGEST_STATES = [1, 3, 6, 23, 16, 83, 36, 76]
LONGEST_READS = [3, 6, 11, 42, 41, 228, 125, 337]


@pytest.mark.parametrize(
    "n,states,reads", [(n, s, r) for n, s, r in zip((1, 2, 3, 4, 5, 6, 7, 9), LONGEST_STATES, LONGEST_READS)]
)
def test_maximal_word_listing_reads_each_state_once(n, states, reads, monkeypatch):
    # the law: two reads of the empty word's value, then one per unblocked letter of each
    # state on a maximal prefix, since a state's longest extension fixes its depth
    tables = _census_reads(monkeypatch)
    words = census.longest_census(n).words
    unblocked = _unblocked_letters_by_state(n, words)
    assert [table.reads for table in tables] == [2 + sum(unblocked.values())]
    assert (len(unblocked), tables[0].reads) == (states, reads)


def test_reducer_suite_builds_one_closure_per_universe(monkeypatch, capsys):
    # ranks 1 to 4 at the suite's caps, with the retry's raised cap at ranks 3 and 4
    closures = _record(monkeypatch, oracle, "_closure")
    assert cli.main(["verify", "--suite", "reducer", "--max-n", "6"]) == 0
    capsys.readouterr()
    assert closures == [(1, 7), (2, 7), (3, 7), (3, 9), (4, 8), (4, 10)]


@pytest.mark.parametrize("n,max_len", CERTIFY_PAIRS)
def test_certification_builds_one_closure_or_two_on_a_retry(n, max_len, monkeypatch):
    closures = _record(monkeypatch, oracle, "_closure")
    cert = certify_reducer(n, max_len)
    assert closures == [(n, max_len), (n, max_len + 2)][: 1 + cert.retried]


# the transition-table reads of each certification at the STEP_CALLS pairs: every
# step resumes at its canonical prefix's trail, which one pass call per push extends
TABLE_READS = [201, 255, 952, 4155, 58, 165, 270, 363]


@pytest.mark.parametrize("n,max_len,reads", [(n, cap, r) for (n, cap, _), r in zip(STEP_CALLS, TABLE_READS)])
def test_table_reads_per_certification(n, max_len, reads, monkeypatch):
    counted = _counted_reads(monkeypatch, oracle)
    assert certify_reducer(n, max_len).holds
    assert len(counted) == reads


def _union_edges(monkeypatch) -> list:
    # every link oracle._union consumes, each one through the path-halving finds
    real, edges = oracle._union, []

    def counted(parent, links):
        links = list(links)
        edges.extend(links)
        real(parent, links)

    monkeypatch.setattr(oracle, "_union", counted)
    return edges


# the links that reach the closure's finds per certification at the STEP_CALLS pairs: a
# touched run whose parents equal the lower run's, and a unit link whose higher word is a
# root, skip them
UNION_EDGES = [29, 537, 148, 450, 0, 0, 0, 8691]


@pytest.mark.parametrize("n,max_len,edges", [(n, cap, e) for (n, cap, _), e in zip(STEP_CALLS, UNION_EDGES)])
def test_closure_finds_per_certification(n, max_len, edges, monkeypatch):
    counted = _union_edges(monkeypatch)
    assert certify_reducer(n, max_len).holds
    assert len(counted) == edges


def test_closure_finds_at_the_largest_retry(monkeypatch):
    # (4, 10), the retry universe of the verify suite's (4, 8)
    counted = _union_edges(monkeypatch)
    oracle._closure(4, 10)
    assert len(counted) == 388642


# the canonical words the walk reports at the STEP_CALLS pairs, counted by the
# census DP, an independent method: every canonical word up to the cap, or up
# to the cap + 2 on a retry, and no other; 868 at (5, 4)
@pytest.mark.parametrize("n,max_len", [(n, cap) for n, cap, _ in STEP_CALLS])
def test_walk_reports_each_canonical_word_once(n, max_len, monkeypatch):
    walk, reported = oracle._reduce_walk, [0]  # the walk starts past the empty word

    def recorded(*args):
        fixed = walk(*args)
        reported.extend(fixed)
        return fixed

    monkeypatch.setattr(oracle, "_reduce_walk", recorded)
    cert = certify_reducer(n, max_len)
    last = max_len + 2 if cert.retried else max_len
    by_length = census.count(n).by_length
    assert len(set(reported)) == len(reported) == sum(by_length.get(ell, 0) for ell in range(last + 1))
    assert (n, max_len) != (5, 4) or len(reported) == 868


WORDS = ["", "1 2 3 1 2 3 2 1", "2 1 2", "3 1 2", "1 1 1 1"]


@pytest.mark.parametrize("text", WORDS)
def test_word_validations_per_reduction(text, monkeypatch):
    # canonical_form validates only the word it returns; multiply also the concatenation
    word = Word.from_text(text, 3)
    x, y = canonical_form(word), KElement(Word((2, 1), 3))
    validated = _record(monkeypatch, Word, "__post_init__")
    canonical_form(word)
    assert len(validated) == 1
    validated.clear()
    multiply(x, y)
    assert len(validated) == 2


@pytest.mark.parametrize("text", WORDS)
def test_pass_calls_per_reduction(text, monkeypatch):
    # one call of the owed-state pass per deletion, which it returns, and one on the
    # canonical word left, each made by canonical_form itself and not by a step
    # function between them: "1 1 1 1" deletes three letters in four calls
    real, callers = reduce._first_owed, []

    def recorded(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    word = Word.from_text(text, 3)
    x, y = canonical_form(word), KElement(Word((2, 1), 3))
    monkeypatch.setattr(reduce, "_first_owed", recorded)
    canonical_form(word)
    assert callers == ["canonical_form"] * (len(word) - len(x.word) + 1)
    callers.clear()
    product = multiply(x, y)
    assert callers == ["canonical_form"] * (len(x.word) + len(y.word) - len(product.word) + 1)
