"""Command-line interface.

Subcommands: reduce, check, mul, count, verify, table.  Exit codes are a
stable contract: 0 on success (verify: all reports hold; check: word is
canonical), 1 on a verification failure or a non-canonical word, 2 on
usage, parse or resource-guard errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from . import __version__, bounds, census, verify
from .reduce import canonical_form
from .reports import reports_to_csv, reports_to_json
from .words import ResourceGuardError, Word, canonical_violation, length_bound

CACHE_VERSION = 1
CACHE_ENV_VAR = "KISELMAN_CACHE"
DEFAULT_CACHE_NAME = "kiselman-counts.json"


def _cache_path(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_CACHE_NAME


def _load_cache(path: Path) -> dict:
    if not path.exists():
        return {"version": CACHE_VERSION, "entries": {}}
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if raw.get("version") != CACHE_VERSION:
        raise ValueError(f"cache {path} has unsupported version {raw.get('version')!r}")
    return raw


def _write_cache(path: Path, cache: dict) -> None:
    # write-temp-then-rename keeps the cache intact under interruption
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _entry_from_census(c: census.Census, elapsed: float) -> dict:
    return {
        "count": str(c.total),
        "by_length": {str(l): str(v) for l, v in sorted(c.by_length.items())},
        "produced_by": f"kiselman {__version__}",
        "elapsed_seconds": round(elapsed, 3),
    }


def _census_from_entry(rank: int, entry: dict) -> census.Census:
    by_length = {int(l): int(v) for l, v in entry["by_length"].items()}
    return census.Census(
        rank=rank,
        total=int(entry["count"]),
        by_length=by_length,
        max_length=max(by_length),
    )


def _selfcheck(cache: dict, allow_large: bool) -> list[str]:
    mismatches = []
    for rank_str, entry in sorted(cache["entries"].items(), key=lambda kv: int(kv[0])):
        rank = int(rank_str)
        fresh = census.count(rank, allow_large=allow_large)
        if _entry_from_census(fresh, 0.0)["by_length"] != entry["by_length"] or str(
            fresh.total
        ) != entry["count"]:
            mismatches.append(f"rank {rank}: cached {entry['count']}, recomputed {fresh.total}")
    return mismatches


def cmd_reduce(args: argparse.Namespace) -> int:
    word = Word.from_text(args.word, args.rank)
    print(canonical_form(word))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    word = Word.from_text(args.word, args.rank)
    violation = canonical_violation(word)
    if violation is None:
        print("canonical")
        return 0
    print(
        f"not canonical (letter {violation.letter}, "
        f"positions {violation.first_pos},{violation.second_pos})"
    )
    return 1


def cmd_mul(args: argparse.Namespace) -> int:
    left = Word.from_text(args.left, args.rank)
    right = Word.from_text(args.right, args.rank)
    product = canonical_form(Word(left.letters + right.letters, args.rank))
    print(product)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    path = _cache_path(args.cache)
    cache = _load_cache(path)
    if args.selfcheck:
        mismatches = _selfcheck(cache, args.allow_large)
        if mismatches:
            for line in mismatches:
                print(f"cache mismatch: {line}", file=sys.stderr)
            return 1
        print(f"cache ok: {len(cache['entries'])} entries match recomputation", file=sys.stderr)
    entry = None if args.force else cache["entries"].get(str(args.rank))
    if entry is not None:
        result = _census_from_entry(args.rank, entry)
    else:
        start = time.perf_counter()
        result = census.count(args.rank, allow_large=args.allow_large)
        cache["entries"][str(args.rank)] = _entry_from_census(result, time.perf_counter() - start)
        _write_cache(path, cache)
    if args.longest:
        # the number of maximal words is the top coefficient of the census
        result = replace(result, longest_count=result.by_length[result.max_length])
    sys.stdout.write(result.to_json())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = verify.run_suite(args.suite, max_n=args.max_n)
    if args.format == "csv":
        sys.stdout.write(reports_to_csv(reports))
    else:
        sys.stdout.write(reports_to_json(reports))
    for report in reports:
        if report.note.startswith("WARN"):
            print(f"WARN {report.name} (n_or_k={report.n_or_k}): {report.note}", file=sys.stderr)
    failures = verify.failing(reports)
    for report in failures:
        print(
            f"FAIL {report.name} (n_or_k={report.n_or_k}): "
            f"lhs={report.lhs} rhs={report.rhs} {report.note}",
            file=sys.stderr,
        )
    print(
        f"{len(reports) - len(failures)}/{len(reports)} checks hold ({args.suite}, max_n={args.max_n})",
        file=sys.stderr,
    )
    return 0 if not failures else 1


def _table_rows(max_n: int) -> list[dict]:
    rows = []
    for n in range(max_n + 1):
        total = census.count(n).total
        rows.append(
            {
                "n": n,
                "count": total,
                "length_bound": length_bound(n),
                "lower_bound": bounds.lower_bound(n),
                "prefix_upper_bound": bounds.prefix_upper_bound(n) if n >= 1 else None,
                "km_upper_bound": bounds.km_upper_bound(n) if n >= 1 else None,
                "scaled_log": bounds.scaled_log(n, total).scaled_log,
            }
        )
    return rows


def cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows(args.max_n)
    big = ("count", "lower_bound", "prefix_upper_bound", "km_upper_bound")
    if args.format == "json":
        payload = [
            {
                "n": row["n"],
                "length_bound": row["length_bound"],
                **{k: None if row[k] is None else str(row[k]) for k in big},
                "scaled_log": row["scaled_log"],
            }
            for row in rows
        ]
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["n,count,length_bound,lower_bound,prefix_upper_bound,km_upper_bound,scaled_log"]
        for row in rows:
            cells = [str(row["n"]), str(row["count"]), str(row["length_bound"])]
            cells += ["" if row[k] is None else str(row[k]) for k in big[1:]]
            cells.append(f"{row['scaled_log']:.6f}")
            lines.append(",".join(cells))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kiselman",
        description="Exact computations in generalized Kiselman semigroups",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="canonical form of a word")
    p.add_argument("word", help="whitespace-separated letters, e.g. '2 1 2'")
    p.add_argument("--rank", type=int, required=True, help="alphabet size n")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check", help="test whether a word is canonical")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mul", help="product of two words, in canonical form")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("count", help="census of canonical words for one rank")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument(
        "--by-length",
        action="store_true",
        help="include the per-length breakdown (included by default; flag kept for scripts)",
    )
    p.add_argument("--longest", action="store_true", help="also count words of maximal length")
    p.add_argument("--cache", help=f"cache file (default ./{DEFAULT_CACHE_NAME}, or ${CACHE_ENV_VAR})")
    p.add_argument("--force", action="store_true", help="recompute even on a cache hit")
    p.add_argument(
        "--selfcheck",
        action="store_true",
        help="recompute every cached entry and fail on any mismatch",
    )
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="override the resource guard on the size of the census table",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run certified check suites")
    p.add_argument(
        "--suite",
        choices=verify.SUITES + ("all",),
        default="all",
    )
    p.add_argument("--max-n", type=int, default=6, help="largest rank to enumerate")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="per-rank counts, bounds and scaled logs")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
