"""One workload in one fresh interpreter: set up, run timed passes, check.

Started by run.py, which sends the plan as JSON on stdin and reads one JSON
summary from stdout.  Modes:

- `time`: set up, then repeat whole passes until `--seconds` have passed
  and at least MIN_OPS operations ran;
- `setup`: set up and stop, to sample set-up time once more;
- `trace`: set up, run TRACE_PASSES passes untraced and as many traced,
  and report per-layer metrics and the tracing overhead.

Operations call `kiselman` through module attributes at call time, so the
tracer's wrappers see the same calls the timed runs make.

Every timing is corrected for machine speed.  A fixed reference runs
between blocks of operations, and an operation's time is scaled by the
reference's nominal time over the median of the reference times around its
block.  In-process operations use a pure-Python loop; `cli` operations,
which are child interpreters, use a reference child interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path
from typing import Any, Callable, NamedTuple

import checks
import spec
from tracer import Tracer, layer_metrics

clock = time.perf_counter

REF_ITERS = 2000
NOMINAL_REF_S = 0.0030  # reference-loop seconds at the reference speed (see README)
NOMINAL_CHILD_S = 0.20  # reference-child seconds at the reference speed (see README)
BLOCK_S = 0.05  # operation time between two in-process references
CHILD_BLOCK_S = 1.0  # operation time between two reference children
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_REFS = 3
TRACE_PASSES = {"algebra": 2, "census": 4, "certify": 1, "cli": 2}
CHILD_SAMPLES = 5
CHILD_TIMEOUT_S = 60
CACHE_NAME = "kiselman-counts.json"
SRC = Path(__file__).resolve().parent.parent / "src"

OK, WRONG, ERROR = 0, 1, 2


def reference_loop() -> float:
    """Seconds taken by a fixed mix of pure-Python work, GC off.

    Three parts, like the program's own mix: small tuples and a small dict;
    a dict of a few thousand fresh tuple keys; indexing into a long list and
    slicing a long tuple.  A mix tracks the program's speed better than any
    one part alone.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        word = (3, 1, 4, 1, 5, 9, 2, 6)
        seen: dict = {}
        acc = 0
        for i in range(REF_ITERS):
            k = i & 7
            rotated = word[k:] + word[:k]
            seen[rotated[0], i & 15] = i
            acc = (acc * 31 + rotated[-1] + len(seen)) & 0xFFFFFFFF
        keys = [(i % 7, i % 11, i % 13, i) for i in range(REF_ITERS)]
        table = {}
        for key in keys:
            table[key] = len(table)
        for key in reversed(keys):
            acc += table[key]
        parent = list(range(REF_ITERS * 8))
        m = len(parent)
        for i in range(REF_ITERS):
            j = (i * 7919) % m
            parent[j] = parent[(j * 31) % m]
            acc += parent[j]
        letters = tuple(range(40))
        for i in range(REF_ITERS // 4):
            acc += len(letters[: i % 40] + letters[i % 40 + 1 :])
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def reference_child() -> float:
    """Seconds taken by a fresh interpreter that imports numpy and exits.

    The `cli` workload's time goes to starting interpreters and loading
    extension modules, which slows down with the machine in a way the
    in-process loop does not follow.
    """
    start = clock()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return clock() - start


class Reference(NamedTuple):
    measure: Callable[[], float]
    nominal_s: float
    block_s: float  # operation time between two measurements


IN_PROCESS = Reference(reference_loop, NOMINAL_REF_S, BLOCK_S)
CHILD = Reference(reference_child, NOMINAL_CHILD_S, CHILD_BLOCK_S)


class Op(NamedTuple):
    kind: str
    call: Callable[[], Any]  # the timed program call
    plain: Callable[[Any], Any]  # its result as plain data, untimed
    check: Callable[[Any], bool]


def _letters(element) -> tuple[int, ...]:
    return element.word.letters


def algebra_ops(plan: dict, kiselman) -> tuple[list[Op], Callable]:
    words, reduce = kiselman.words, kiselman.reduce
    operands = [reduce.KElement(words.Word(tuple(w), n)) for n, w in plan["operands"]]
    ops = []
    for op in plan["ops"]:
        if op["kind"] == "reduce":
            word, n = tuple(op["word"]), op["rank"]
            w = words.Word(word, n)
            ops.append(Op("reduce", lambda w=w: reduce.canonical_form(w), _letters,
                          lambda out, word=word, n=n: checks.reduced(word, n, out)))
        elif op["kind"] == "multiply":
            x, y = operands[op["left"]], operands[op["right"]]
            joined = x.word.letters + y.word.letters
            ops.append(Op("multiply", lambda x=x, y=y: reduce.multiply(x, y), _letters,
                          lambda out, joined=joined, n=x.rank: checks.reduced(joined, n, out)))
        else:
            word = tuple(op["word"])
            w = words.Word(word, op["rank"])
            ops.append(Op("check", lambda w=w: words.canonical_violation(w),
                          lambda v: None if v is None else tuple(v),
                          lambda out, word=word: checks.verdict(word, out)))

    def properties(first: dict) -> set[int]:
        # idempotence and reverse-and-flip on every reduction; associativity
        # on the seeded triples, which condemns every product if it fails
        def holds(test) -> bool:
            try:
                return test()
            except Exception:  # a property the program cannot compute does not hold
                traceback.print_exc(file=sys.stderr)
                return False

        def reduce_letters(letters, n):
            return _letters(reduce.canonical_form(words.Word(tuple(letters), n)))

        bad = set()
        for i, op in enumerate(plan["ops"]):
            if op["kind"] != "reduce" or i not in first:
                continue
            n, out = op["rank"], first[i][1]
            if not holds(lambda: reduce_letters(out, n) == out
                         and reduce_letters(spec.flip(op["word"], n), n) == spec.flip(out, n)):
                bad.add(i)
        for a, b, c in plan["triples"]:
            x, y, z = operands[a], operands[b], operands[c]
            if not holds(lambda: _letters(reduce.multiply(reduce.multiply(x, y), z))
                         == _letters(reduce.multiply(x, reduce.multiply(y, z)))):
                bad.update(i for i, op in enumerate(plan["ops"]) if op["kind"] == "multiply")
                break
        return bad

    return ops, properties


def census_ops(plan: dict, kiselman) -> list[Op]:
    census = kiselman.census
    ops = []
    for op in plan["ops"]:
        n = op["rank"]
        if op["kind"] == "count":
            ops.append(Op("count", lambda n=n: census.count(n),
                          lambda c: (c.total, c.by_length, c.max_length),
                          lambda out, n=n: checks.census(n, *out)))
        else:
            ops.append(Op("longest", lambda n=n: census.longest_census(n),
                          lambda c: (c.max_length, c.count, c.words),
                          lambda out, n=n: checks.longest(n, *out)))
    return ops


def certify_ops(plan: dict, kiselman) -> list[Op]:
    oracle = kiselman.oracle
    return [
        Op("certify", lambda n=op["rank"], cap=op["cap"]: oracle.certify_reducer(n, cap),
           lambda c: (c.holds, c.violations, c.classes, c.canonical_words),
           lambda out, n=op["rank"], cap=op["cap"]: checks.certification(n, cap, *out))
        for op in plan["ops"]
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("KISELMAN_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_ops(plan: dict, workdir: dict) -> list[Op]:
    """One `python -m kiselman.cli` child per operation, in workdir["cwd"]."""
    env = cli_env()

    def call(argv):
        done = subprocess.run([sys.executable, "-m", "kiselman.cli", *argv], cwd=workdir["cwd"], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return done.returncode, done.stdout

    return [Op(op["kind"], lambda argv=op["argv"]: call(argv), lambda r: r,
               lambda out, op=op: checks.cli(op, *out)) for op in plan["ops"]]


def cli_inprocess_ops(plan: dict, kiselman, cache_stats: list) -> list[Op]:
    """The same commands replayed through `kiselman.cli.main(argv)` in the current directory."""
    cli = kiselman.cli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
        return code, out.getvalue()

    def plain(result, kind):
        if kind == "count" and os.path.exists(CACHE_NAME):
            st = os.stat(CACHE_NAME)
            cache_stats.append((st.st_ino, st.st_mtime_ns))
        return result

    return [Op(op["kind"], lambda argv=op["argv"]: call(argv), lambda r, kind=op["kind"]: plain(r, kind),
               lambda out, op=op: checks.cli(op, *out)) for op in plan["ops"]]


class Runner:
    """Runs whole passes of `ops` and keeps every timing and verdict."""

    def __init__(self, ops: list[Op], reference: Reference) -> None:
        self.ops = ops
        self.reference = reference
        self.first: dict[int, tuple[bool, Any]] = {}  # first checked output per op
        # compact arrays, so that the bookkeeping adds little to peak memory
        self.lat = array("d")  # raw seconds per execution
        self.block = array("l")  # index of the reference loop before it
        self.index = array("l")  # which op of the pass it was
        self.status = array("b")
        self.refs: list[float] = []
        self.overhead = 0.0  # seconds spent on checks and reference loops
        self.reported: set[int] = set()

    def _ref(self) -> None:
        self.refs.append(self.reference.measure())
        self.overhead += self.refs[-1]

    def _report(self, i: int) -> None:
        # one traceback per operation of the pass, not one per execution
        if i not in self.reported:
            self.reported.add(i)
            traceback.print_exc(file=sys.stderr)

    def _check(self, i: int, op: Op, result: Any) -> int:
        start = clock()
        try:
            out = op.plain(result)
            seen = self.first.get(i)
            if seen is not None and seen[1] == out:
                ok = seen[0]
            else:
                ok = bool(op.check(out))
                self.first.setdefault(i, (ok, out))
        except Exception:  # output the check cannot read is wrong output
            self._report(i)
            ok = False
        finally:
            self.overhead += clock() - start
        return OK if ok else WRONG

    def run(self, *, passes: int | None = None, until: float | None = None, tracer: Tracer | None = None) -> range:
        begin = len(self.lat)
        self._ref()
        last_ref = clock()
        done = 0
        while True:
            for i, op in enumerate(self.ops):
                span = tracer.open("op." + op.kind) if tracer else None
                t0 = clock()
                try:
                    result = op.call()
                    failed = False
                except Exception:
                    self._report(i)
                    failed = True
                finally:
                    t1 = clock()
                    if tracer:
                        tracer.close(span)
                self.lat.append(t1 - t0)
                self.block.append(len(self.refs) - 1)
                self.index.append(i)
                self.status.append(ERROR if failed else self._check(i, op, result))
                if clock() - last_ref >= self.reference.block_s:
                    self._ref()
                    last_ref = clock()
            done += 1
            if passes is not None and done >= passes:
                break
            if until is not None and clock() >= until and len(self.lat) - begin >= MIN_OPS:
                break
        self._ref()
        return range(begin, len(self.lat))

    def factor(self, k: int) -> float:
        b = self.block[k]
        return self.reference.nominal_s / statistics.median(self.refs[max(0, b - 1) : b + 3])

    def summary(self, executions: range, bad: set[int]) -> dict:
        raw = [self.lat[k] for k in executions]
        corrected = [self.lat[k] * self.factor(k) for k in executions]
        status = [WRONG if self.index[k] in bad and self.status[k] == OK else self.status[k] for k in executions]

        def stats(xs):
            q = statistics.quantiles(xs, n=10, method="inclusive")
            return {"ops_per_s": len(xs) / sum(xs), "op_p50_us": q[4] * 1e6, "op_p90_us": q[8] * 1e6, "busy_s": sum(xs)}

        return {
            "attempted": len(raw),
            "failed": sum(s != OK for s in status),
            "wrong": sum(s == WRONG for s in status),
            "corrected": stats(corrected),
            "raw": stats(raw),
            "ref_median_s": statistics.median(self.refs),
        }


def build_ops(plan: dict, kiselman, workdir: dict, inprocess: bool, cache_stats: list):
    workload = plan["workload"]
    if workload == "algebra":
        return algebra_ops(plan, kiselman)
    if workload == "census":
        return census_ops(plan, kiselman), None
    if workload == "certify":
        return certify_ops(plan, kiselman), None
    if inprocess:
        return cli_inprocess_ops(plan, kiselman, cache_stats), None
    return cli_ops(plan, workdir), None


def cli_child_metrics() -> dict:
    """Interpreter start, `import kiselman.cli` and numpy's share of it, each in
    fresh children, corrected by reference children run beside them."""
    env = cli_env()
    timed_import = "import time; t = time.perf_counter(); import kiselman.cli; print(time.perf_counter() - t)"
    imports, numpy, spawns, refs = [], [], [], []
    for _ in range(CHILD_SAMPLES):
        refs.append(reference_child())
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
        spawns.append(clock() - start)
        done = subprocess.run([sys.executable, "-c", timed_import], env=env, check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        imports.append(float(done.stdout))
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kiselman.cli"], env=env,
                              check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        # "import time: self [us] | cumulative | imported package"
        numpy.append(sum(int(line.split("|")[1]) for line in done.stderr.splitlines()
                         if line.count("|") == 2 and line.split("|")[2].strip() == "numpy") / 1e6)
    factor = NOMINAL_CHILD_S / statistics.median(refs)
    return {
        "cli.import_s": statistics.median(imports) * factor,
        "cli.import_numpy_s": statistics.median(numpy) * factor,
        "cli.spawn_s": statistics.median(spawns) * factor,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("time", "setup", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when started")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="directory for work files and traces")
    args = parser.parse_args()

    read_start = time.monotonic()
    plan = json.load(sys.stdin)
    excluded = time.monotonic() - read_start
    out_dir = Path(args.out).resolve()
    work_root = out_dir / f"work-{os.getpid()}"
    home = os.getcwd()
    try:
        result = run_workload(args, plan, excluded, out_dir, work_root)
    finally:
        os.chdir(home)
        shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_workload(args, plan: dict, excluded: float, out_dir: Path, work_root: Path) -> dict:
    inprocess = args.mode == "trace"
    workdir: dict = {}
    cache_stats: list = []

    def enter(tag: str) -> None:
        # a fresh working directory, so the first `count` writes the cache
        path = work_root / tag
        path.mkdir(parents=True)
        workdir["cwd"] = str(path)
        cache_stats.clear()
        if inprocess and plan["workload"] == "cli":
            os.chdir(path)

    enter("warmup")
    import kiselman
    import kiselman.cli  # noqa: F401  (loads every module the CLI uses)

    ops, properties = build_ops(plan, kiselman, workdir, inprocess, cache_stats)
    reference = CHILD if plan["workload"] == "cli" and not inprocess else IN_PROCESS
    runner = Runner(ops, reference)
    runner.run(passes=1)
    setup_raw = time.monotonic() - args.spawned_at - excluded - runner.overhead
    # the warm-up pass's own reference measurements, and a few more, give its speed
    setup_refs = runner.refs + [reference.measure() for _ in range(SETUP_REFS)]
    result: dict = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * reference.nominal_s / statistics.median(setup_refs),
    }
    if args.mode == "setup":
        return result

    if args.mode == "time":
        enter("timed")
        executions = runner.run(until=clock() + args.seconds)
        who = resource.RUSAGE_CHILDREN if plan["workload"] == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    else:
        passes = TRACE_PASSES[plan["workload"]]
        enter("untraced")
        untraced = runner.run(passes=passes)
        enter("traced")
        tracer = Tracer()
        tracer.install(kiselman)
        try:
            executions = runner.run(passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
    bad = properties(runner.first) if properties else set()
    result.update(runner.summary(executions, bad))
    if args.mode == "trace":
        plain = runner.summary(untraced, bad)
        result["untraced"] = plain
        result["trace_overhead"] = plain["corrected"]["ops_per_s"] / result["corrected"]["ops_per_s"] - 1
        factor = statistics.median(runner.factor(k) for k in executions)
        layers = layer_metrics(tracer.spans, factor)
        layers.update({"cli.import_s": 0.0, "cli.import_numpy_s": 0.0, "cli.spawn_s": 0.0})
        if plan["workload"] == "cli":
            layers.update(cli_child_metrics())
        # the cache file changes identity once per write
        layers["cli.cache_writes"] = len(set(cache_stats))
        result["layers"] = layers
        trace_path = out_dir / f"trace-{plan['workload']}-seed{plan['seed']}.jsonl"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
    return result


if __name__ == "__main__":
    sys.exit(main())
