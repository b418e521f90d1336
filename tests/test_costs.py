"""How often a command rebuilds its work, counted by wrapping the builder.

Each figure is pinned, so a rebuild added or saved shows here as a changed
count rather than only as time; a change that moves a figure gives the old
and new figure in `CHANGES.md`.
"""

import pytest

from kiselman import census, cli, oracle
from kiselman.oracle import certify_reducer
from test_oracle import CERTIFY_PAIRS


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
