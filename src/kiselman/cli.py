"""Command-line interface.

Subcommands: reduce, check, mul, count, verify, table.  Exit codes are a
stable contract: 0 on success (verify: all reports hold; check: word is
canonical), 1 on a verification failure or a non-canonical word, 2 on
usage, parse or resource-guard errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__, bounds, census, verify
from .reduce import canonical_form
from .reports import reports_to_csv, reports_to_json
from .words import ResourceGuardError, Word, canonical_violation, length_bound


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
    result = census.count(args.rank, allow_large=args.allow_large)
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
    # counts are recomputed on every call; these two stay so that scripts keep exit code 0
    p.add_argument("--cache", metavar="PATH", help="ignored (flag kept for scripts)")
    p.add_argument("--force", action="store_true", help="ignored (flag kept for scripts)")
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
    except (ValueError, ResourceGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
