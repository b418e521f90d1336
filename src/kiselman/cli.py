"""Command-line interface.

Subcommands: reduce, check, mul, count, verify, table.  Exit codes are a
stable contract: 0 on success (verify: all reports hold; check: word is
canonical), 1 on a verification failure or a non-canonical word, 2 on
usage, parse or resource-guard errors.
"""

from __future__ import annotations

import argparse
import sys

# each command imports only the modules it runs, so that a one-shot
# `kiselman check` loads neither the census nor the oracle
from . import SUITES, __version__
from .words import ResourceGuardError, Word, canonical_violation, length_bound


def cmd_reduce(args: argparse.Namespace) -> int:
    from .reduce import canonical_form

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
    from .reduce import canonical_form

    left = Word.from_text(args.left, args.rank)
    right = Word.from_text(args.right, args.rank)
    product = canonical_form(Word(left.letters + right.letters, args.rank))
    print(product)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from . import census

    sys.stdout.write(census.count(args.rank).to_json())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    from .reports import reports_to_csv, reports_to_json

    reports = verify.run_suite(args.suite, max_n=args.max_n)
    emit = reports_to_csv if args.format == "csv" else reports_to_json
    sys.stdout.write(emit(reports))
    for report in verify.warned(reports):
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


TABLE_HEADER = "n,count,length_bound,lower_bound,prefix_upper_bound,km_upper_bound,scaled_log"


def cmd_table(args: argparse.Namespace) -> int:
    from . import bounds, census

    # one row per rank, keyed in JSON order; big numbers are decimal strings
    rows = []
    for n in range(args.max_n + 1):
        total = census.count(n).total
        rows.append(
            {
                "n": n,
                "length_bound": length_bound(n),
                "count": str(total),
                "lower_bound": str(bounds.lower_bound(n)),
                "prefix_upper_bound": str(bounds.prefix_upper_bound(n)) if n else None,
                "km_upper_bound": str(bounds.km_upper_bound(n)) if n else None,
                "scaled_log": bounds.scaled_log(n, total),
            }
        )
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
        return 0
    print(TABLE_HEADER)
    for row in rows:
        print(",".join("" if row[c] is None else str(row[c]) for c in TABLE_HEADER.split(",")))
    return 0


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kiselman",
        description="Exact computations in generalized Kiselman semigroups",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = argparse.ArgumentParser(add_help=False)
    rank.add_argument("--rank", type=int, required=True, help="alphabet size n")
    max_n = argparse.ArgumentParser(add_help=False)
    max_n.add_argument("--max-n", type=_nonnegative, default=6, help="largest rank to enumerate")

    p = sub.add_parser("reduce", parents=[rank], help="canonical form of a word")
    p.add_argument("word", help="whitespace-separated letters, e.g. '2 1 2'")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check", parents=[rank], help="test whether a word is canonical")
    p.add_argument("word")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mul", parents=[rank], help="product of two words, in canonical form")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("count", parents=[rank], help="census of canonical words for one rank")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", parents=[max_n], help="run certified check suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[max_n], help="per-rank counts, bounds and scaled logs")
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
