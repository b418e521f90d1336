import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kiselman
from kiselman import verify
from kiselman.census import Census, count
from kiselman.cli import main
from kiselman.reports import BoundReport


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    # run every command in an empty directory, so a test can check that it writes no file
    monkeypatch.chdir(tmp_path)


def test_reduce(capsys):
    assert main(["reduce", "2 1 2", "--rank", "2"]) == 0
    assert capsys.readouterr().out == "1 2\n"
    assert main(["reduce", "", "--rank", "3"]) == 0
    assert capsys.readouterr().out == "\n"
    assert main(["reduce", "1 3 2 1", "--rank", "3"]) == 0
    assert capsys.readouterr().out == "1 3 2\n"


def test_reduce_parse_error(capsys):
    assert main(["reduce", "1 2 x", "--rank", "3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["reduce", "4", "--rank", "3"]) == 2


def test_check(capsys):
    assert main(["check", "2 3 1 2 4 3", "--rank", "4"]) == 0
    assert capsys.readouterr().out == "canonical\n"
    assert main(["check", "1 1", "--rank", "1"]) == 1
    assert capsys.readouterr().out == "not canonical (letter 1, positions 1,2)\n"
    assert main(["check", "1 2 1", "--rank", "2"]) == 1


def test_mul(capsys):
    assert main(["mul", "1 2", "1", "--rank", "2"]) == 0
    assert capsys.readouterr().out == "1 2\n"
    assert main(["mul", "2", "1 2", "--rank", "2"]) == 0
    assert capsys.readouterr().out == "1 2\n"
    assert main(["mul", "", "2 1", "--rank", "2"]) == 0
    assert capsys.readouterr().out == "2 1\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "1"])  # missing --rank
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_count_json_roundtrip(capsys):
    assert main(["count", "--rank", "3"]) == 0
    out = capsys.readouterr().out
    census = Census.from_json(out)
    assert census.total == 18
    assert census.to_json() == out


def test_count_longest(capsys):
    assert main(["count", "--rank", "3", "--longest"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_length"] == 4
    assert payload["longest_count"] == "2"


def test_count_recomputes_and_ignores_cache_settings(tmp_path, monkeypatch, capsys):
    # the working directory is tmp_path, and so are both would-be cache paths
    monkeypatch.setenv("KISELMAN_CACHE", str(tmp_path / "env.json"))
    expected = count(4).to_json()
    for extra in ([], ["--force"], ["--cache", str(tmp_path / "x.json")]):
        assert main(["count", "--rank", "4", *extra]) == 0
        assert capsys.readouterr().out == expected
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        main(["count", "--rank", "4", "--selfcheck"])
    assert exc.value.code == 2


def test_count_guard_without_allow_large(capsys):
    assert main(["count", "--rank", "13"]) == 2
    assert "allow" in capsys.readouterr().err


def test_verify_identities(capsys):
    assert main(["verify", "--suite", "identities", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    reports = json.loads(out)
    assert all(r["holds"] for r in reports)
    assert {"name", "n_or_k", "lhs", "rhs", "holds", "note"} == set(reports[0])


def test_verify_structure_warns_but_passes(capsys):
    assert main(["verify", "--suite", "structure", "--max-n", "3"]) == 0
    captured = capsys.readouterr()
    assert "WARN" in captured.err
    assert "longest-count-vs-printed-closed-form" in captured.out


def test_verify_failure_exits_1(monkeypatch, capsys):
    planted = BoundReport(name="planted-check", n_or_k=2, lhs=3, rhs=2, holds=False, note="planted")
    monkeypatch.setattr(verify, "identities_suite", lambda max_n: [planted])
    assert main(["verify", "--suite", "identities", "--max-n", "2"]) == 1
    err = capsys.readouterr().err
    assert "FAIL planted-check (n_or_k=2): lhs=3 rhs=2 planted\n" in err
    assert "0/1 checks hold (identities, max_n=2)\n" in err


def test_verify_csv_format(capsys):
    assert main(["verify", "--suite", "identities", "--max-n", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,n_or_k,lhs,rhs,holds,note"
    assert all(",true," in line for line in lines[1:])


def test_table_csv(capsys):
    assert main(["table", "--max-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,count,length_bound,lower_bound,prefix_upper_bound,km_upper_bound,scaled_log"
    assert lines[1] == "0,1,0,1,,,1.000000"
    assert lines[3].startswith("2,5,2,2,6,5,")
    assert lines[5].startswith("4,115,6,8,1260,4097,")


def test_table_json(capsys):
    assert main(["table", "--max-n", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[2]["count"] == "5"
    assert rows[0]["km_upper_bound"] is None
    assert rows[1]["scaled_log"] == pytest.approx(2**0.5)


def _package_env():
    # A fresh interpreter resolves a relative PYTHONPATH against its own
    # working directory, so point it at the kiselman this process imported.
    root = os.path.dirname(os.path.dirname(os.path.abspath(kiselman.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([root, inherited] if inherited else [root])}


def test_console_script_is_installed():
    """`python -m kiselman.cli` (and `kiselman`, if installed) runs from any working directory."""
    commands = [[sys.executable, "-m", "kiselman.cli", "--version"]]
    if shutil.which("kiselman") is not None:
        commands.append(["kiselman", "--version"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=_package_env())
        assert proc.returncode == 0, f"{command}: {proc.stderr}"
        assert proc.stdout == f"kiselman {kiselman.__version__}\n", f"{command}: {proc.stderr}"


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, kiselman.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
