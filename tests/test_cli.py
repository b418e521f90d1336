import doctest
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kiselman
from kiselman import verify
from kiselman.census import count
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
    assert json.loads(out)["total"] == "18"
    assert out == count(3).to_json()


def test_count_longest(capsys):
    # the number of maximal words is always printed, as the census's top coefficient
    assert main(["count", "--rank", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_length"] == 4
    assert payload["longest_count"] == "2"


def test_count_recomputes_and_ignores_cache_settings(tmp_path, monkeypatch, capsys):
    # the working directory is tmp_path, and so is the would-be cache path
    monkeypatch.setenv("KISELMAN_CACHE", str(tmp_path / "env.json"))
    assert main(["count", "--rank", "4"]) == 0
    assert capsys.readouterr().out == count(4).to_json()
    assert list(tmp_path.iterdir()) == []
    # an option count does not take is a usage error that names it
    for extra in (["--selfcheck"], ["--by-length"], ["--force"], ["--cache", "x"], ["--longest"], ["--allow-large"]):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--rank", "4", *extra])
        assert exc.value.code == 2
        assert extra[0] in capsys.readouterr().err


def test_count_guard_names_the_budget(capsys):
    assert main(["count", "--rank", "13"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: rank 13 census table refused: 10170559 items exceed the budget of 4000000 (kiselman.words.BUDGET)\n"
    )


def test_huge_rank_guard_message(capsys):
    # a cost this large is stated by its magnitude, not by its decimal digits
    assert main(["count", "--rank", "10000"]) == 2
    err = capsys.readouterr().err
    assert "budget of 4000000 (kiselman.words.BUDGET)" in err and "allow" not in err
    assert len(err.strip()) < 200


def test_verify_refuses_unaffordable_rank(capsys):
    assert main(["verify", "--suite", "structure", "--max-n", "7"]) == 2
    assert "budget of 4000000" in capsys.readouterr().err


def test_refusals_name_only_what_the_caller_can_do(capsys):
    # no command has an override option, so each refusal names only the module constant
    for argv, what in (
        (["verify", "--suite", "structure", "--max-n", "7"], "rank 7 word listing"),
        (["count", "--rank", "13"], "census table"),
        (["count", "--rank", "1000000000000"], "transition table"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert what in err and "kiselman.words.BUDGET" in err and "allow" not in err


def test_check_at_huge_rank(capsys):
    # the witness does not depend on the rank, and the transition table is
    # built in closed form, so a rank of 10 000 answers at once
    assert main(["check", "1 2 1", "--rank", "10000"]) == 1
    assert capsys.readouterr().out == "not canonical (letter 1, positions 1,3)\n"


# a child that caps its own address space: a rank the guards miss dies there
# of MemoryError, with a traceback and exit 1, instead of exhausting the machine
LIMITED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
    "from kiselman.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--rank", "1000000000000"],
        ["verify", "--suite", "identities", "--max-n", "1000000000000"],
        ["check", "1 2", "--rank", "200000"],
    ],
)
def test_huge_rank_refused_before_memory_runs_out(argv):
    command = [sys.executable, "-c", LIMITED_MAIN, *argv]
    proc = subprocess.run(command, capture_output=True, text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_verify_identities_refuses_a_rank_it_cannot_finish():
    # without its guard this child builds a multiset row per rank for minutes
    command = [sys.executable, "-m", "kiselman.cli", "verify", "--suite", "identities", "--max-n", "100000"]
    proc = subprocess.run(command, capture_output=True, text=True, env=_package_env(), timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "kiselman.words.BUDGET" in proc.stderr and proc.stdout == ""


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
    # stderr carries one WARN line per report verify.warned picks, and no other
    warned = verify.warned(verify.structure_suite(3))
    assert [line for line in captured.err.splitlines() if line.startswith("WARN")] == [
        f"WARN {r.name} (n_or_k={r.n_or_k}): {r.note}" for r in warned
    ]
    assert len(warned) == 1


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


@pytest.mark.parametrize("command", [["verify", "--suite", "bounds"], ["table"]], ids=lambda c: c[0])
def test_negative_max_n_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--max-n", "-1"])
    assert exc.value.code == 2
    assert "--max-n: must be nonnegative, got -1" in capsys.readouterr().err
    assert main([*command, "--max-n", "0"]) == 0


def test_table_csv(capsys):
    assert main(["table", "--max-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,count,length_bound,lower_bound,prefix_upper_bound,km_upper_bound,scaled_log"
    assert lines[1] == "0,1,0,1,,,1.000000"
    assert lines[2] == "1,2,1,2,2,2,1.414213"
    assert lines[3].startswith("2,5,2,2,6,5,")
    assert lines[5].startswith("4,115,6,8,1260,4097,")


def test_table_json(capsys):
    assert main(["table", "--max-n", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[2]["count"] == "5"
    assert rows[0]["km_upper_bound"] is None
    # the same rounded-down decimal string as the CSV cell
    assert rows[1]["scaled_log"] == "1.414213"


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


# prefixed to a child's code, makes every `import numpy` raise ImportError,
# so a child that passes needs nothing outside the standard library
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"


def _run_without_numpy(code):
    return subprocess.run(
        [sys.executable, "-c", BLOCK_NUMPY + code], capture_output=True, text=True, env=_package_env()
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = _run_without_numpy(f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    results = doctest.testfile(str(readme), module_relative=False)
    assert results.attempted >= 10
    assert results.failed == 0


def test_cli_import_leaves_numpy_unloaded():
    code = (
        "import kiselman, kiselman.cli\n"
        "from collections import Counter\n"
        "from kiselman.census import count, iter_canonical\n"
        "print(all(Counter(map(len, iter_canonical(n))) == count(n).by_length for n in range(7)))"
    )
    proc = _run_without_numpy(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


# a fresh interpreter runs one command through kiselman.cli.main and prints
# the kiselman submodules it left in sys.modules
FOOTPRINT = (
    "import sys\nfrom kiselman.cli import main\nmain(sys.argv[1:])\n"
    "print(' '.join(sorted(m.split('.')[1] for m in sys.modules if m.startswith('kiselman.'))))"
)


@pytest.mark.parametrize(
    ("argv", "loaded"),
    [
        (["check", "1 2 1", "--rank", "3"], "cli words"),
        (["reduce", "2 1 2", "--rank", "2"], "cli reduce words"),
        (["mul", "1 2", "1", "--rank", "2"], "cli reduce words"),
        (["count", "--rank", "3"], "bounds census cli words"),
        (["table", "--max-n", "2"], "bounds census cli words"),
        (["verify", "--suite", "bounds", "--max-n", "2"], "bounds census cli reports verify words"),
        (["verify", "--suite", "reducer", "--max-n", "1"], "bounds cli oracle reduce reports verify words"),
        (["verify", "--suite", "identities", "--max-n", "2"], "bounds cli reports verify words"),
    ],
    ids=["check", "reduce", "mul", "count", "table", "verify-bounds", "verify-reducer", "verify-identities"],
)
def test_each_command_imports_only_what_it_runs(argv, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv], capture_output=True, text=True, env=_package_env()
    )
    assert proc.stdout.splitlines()[-1:] == [loaded], proc.stderr


@pytest.mark.parametrize(
    ("argv", "loaded"),
    [
        (["check", "1 2 1", "--rank", "3"], False),
        (["reduce", "2 1 2", "--rank", "2"], False),
        (["mul", "1 2", "1", "--rank", "2"], False),
        (["verify", "--suite", "identities", "--max-n", "2"], False),
        (["verify", "--suite", "reducer", "--max-n", "1"], False),
        # `Census` is the one dataclass left, so the commands that run the census still load it
        (["count", "--rank", "3"], True),
        (["table", "--max-n", "2"], True),
        (["verify", "--suite", "bounds", "--max-n", "2"], True),
        (["verify", "--suite", "structure", "--max-n", "3"], True),
    ],
    ids=["check", "reduce", "mul", "verify-identities", "verify-reducer", "count", "table", "verify-bounds",
         "verify-structure"],
)
def test_dataclasses_load_only_with_the_census(argv, loaded):
    # `dataclasses` pulls in inspect, ast, dis and tokenize: most of a one-shot child's import time
    code = "import sys\nfrom kiselman.cli import main\nmain(sys.argv[1:])\nprint('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_package_env())
    assert proc.stdout.splitlines()[-1:] == [str(loaded)], proc.stderr
    if argv[0] in ("check", "reduce", "mul"):
        # nor `typing`, which only an interpreter started without `site` shows: site may import it first
        code = code.replace("'dataclasses'", "'typing'")
        proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True,
                              env=_package_env())
        assert proc.stdout.splitlines()[-1:] == ["False"], proc.stderr


@pytest.mark.parametrize(
    ("argv", "loaded"),
    [
        (["table", "--max-n", "3"], False),
        (["table", "--max-n", "3", "--format", "json"], True),
        (["count", "--rank", "3"], True),
        (["verify", "--suite", "identities", "--max-n", "2"], True),
    ],
    ids=["table", "table-json", "count", "verify"],
)
def test_json_loads_only_with_json_output(argv, loaded):
    # `table` prints CSV by default, so only its JSON branch and Census.to_json import json
    code = "import sys\nfrom kiselman.cli import main\nmain(sys.argv[1:])\nprint('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_package_env())
    assert proc.stdout.splitlines()[-1:] == [str(loaded)], proc.stderr


def test_cli_import_loads_no_dataclasses():
    code = "import sys, kiselman.cli\nprint('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_package_env())
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["count", "--rank", "3"], ["table", "--max-n", "2"], ["verify", "--suite", "identities", "--max-n", "2"]],
    ids=["count", "table", "verify-identities"],
)
def test_commands_leave_fractions_unloaded(argv):
    # every report value is an int, so no command needs fractions (nor the decimal it imports)
    code = "import sys\nfrom kiselman.cli import main\nmain(sys.argv[1:])\nprint('fractions' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_package_env())
    assert proc.stdout.splitlines()[-1:] == ["False"], proc.stderr


SUBMODULES = ("words", "reduce", "census", "oracle", "verify", "bounds", "reports", "cli")


def test_package_import_loads_no_submodule():
    # the benchmark's workers read every submodule off the package after these two imports
    code = (
        "import sys, kiselman\n"
        "print([m for m in sys.modules if m.startswith('kiselman.')])\n"
        "import kiselman.cli\n"
        f"print(all(getattr(kiselman, m) is sys.modules['kiselman.' + m] for m in {SUBMODULES!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_package_env())
    assert proc.stdout == "[]\nTrue\n", proc.stderr


def test_lazy_namespace_serves_every_public_name():
    for name in kiselman.__all__:
        assert getattr(kiselman, name) is not None
    for name in SUBMODULES:
        assert getattr(kiselman, name) is sys.modules[f"kiselman.{name}"]
    assert kiselman.count is count
    namespace: dict = {}
    exec("from kiselman import *", namespace)
    assert set(kiselman.__all__) <= set(namespace)
    # each name's home lists it, and each submodule serves every name it lists
    for name, home in kiselman._HOMES.items():
        assert name in getattr(kiselman, home).__all__, name
    for module in SUBMODULES:
        for name in getattr(getattr(kiselman, module), "__all__", ()):
            assert hasattr(getattr(kiselman, module), name), (module, name)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        kiselman.no_such_name


def test_public_api_is_pinned():
    # a public name added or removed shows up as a diff of this list
    assert sorted(kiselman.__all__) == [
        "BoundReport", "CanonicalViolation", "Census", "KElement", "LongestCensus",
        "ResourceGuardError", "Word", "__version__", "canonical_form",
        "canonical_violation", "certify_reducer", "count", "generators", "identity",
        "is_canonical", "iter_canonical", "km_upper_bound", "length_bound", "longest_census",
        "lower_bound", "maximal_multiset", "multinomial", "multiply", "parity_cap",
        "prefix_upper_bound", "reports_to_csv", "reports_to_json", "run_suite", "scaled_log",
    ]
    # the certificate is the oracle's only entry point; the listing oracle is the tests' reference
    assert kiselman.oracle.__all__ == ["OracleCertification", "certify_reducer"]
    with pytest.raises(AttributeError, match="'congruence_closure'"):
        kiselman.congruence_closure


def test_traced_module_lists_are_pinned():
    # the benchmark's tracer wraps every function these two lists name, so a change to
    # either moves its per-layer bounds.* and reports.* figures
    assert kiselman.bounds.__all__ == [
        "PI_UPPER", "km_upper_bound", "lower_bound", "maximal_multiset", "multinomial",
        "prefix_upper_bound", "parity_cap", "scaled_log",
    ]
    assert kiselman.reports.__all__ == ["BoundReport", "reports_to_json", "reports_to_csv", "format_value"]


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps each (owner, attr) it names; a dropped or renamed
    # name would otherwise fail only the traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, owner, attr in tracer._targets(kiselman):
        assert inspect.isroutine(getattr(owner, attr, None)), name
