"""Benchmark entry point.

    python3 benchmark/run.py --workload algebra --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Builds the workload's plan from
the seed, starts each worker in a fresh interpreter with `src` on the
path, and prints one JSON object as the last line of standard output:
the end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`.  The line before it holds the raw figures.
Results and traces are also written under benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3  # set-up is sampled in this many fresh interpreters
SETUP_TIMEOUT_S = 30  # so that a run that hangs still ends within 180 s
RUN_TIMEOUT_S = 90


def worker(mode: str, plan_text: str, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--seconds", str(seconds), "--out", str(OUT)]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else seconds + RUN_TIMEOUT_S
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spawned = time.monotonic()
    done = subprocess.run([*argv, "--spawned-at", repr(spawned)], input=plan_text, capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=timeout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(plans.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kiselman" / "__init__.py").is_file():
        print(f"error: no kiselman sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    plan_text = json.dumps(plans.build(args.workload, args.seed))

    try:
        if args.trace:
            run = worker("trace", plan_text, args.seconds)
            values = run["layers"]
            wanted = declared["per_layer"]
            report = {"trace_overhead": run["trace_overhead"], "traced": run["corrected"],
                      "untraced": run["untraced"]["corrected"], "trace_file": run["trace_file"]}
        else:
            setups = [worker("setup", plan_text, args.seconds) for _ in range(SETUP_SAMPLES - 1)]
            run = worker("time", plan_text, args.seconds)
            setups.append(run)
            values = {
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "peak_rss_mb": run["peak_rss_mb"],
                **{k: run["corrected"][k] for k in ("ops_per_s", "op_p50_us", "op_p90_us")},
            }
            wanted = declared["end_to_end"]
            report = {"raw": {**run["raw"], "setup_s": statistics.median(s["setup_raw_s"] for s in setups)},
                      "corrected": run["corrected"], "setup_samples_s": [s["setup_s"] for s in setups],
                      "ref_median_s": run["ref_median_s"]}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **report}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**detail, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
