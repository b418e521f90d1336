"""Growth of the counts and the exact bound sandwich.

The count for rank n sits between a double-exponential lower bound and
two independent upper bounds, and doubling the rank squares the count at
least: 2*count(n+2) >= (2*count(n))^2.  All comparisons here are exact
integer arithmetic.  The doubling inequality makes the scaled logarithms
2^(-n/2) * log2(2*count) nondecreasing within each parity, so each one,
computed with integers and rounded down, is a certified lower bound on
its parity's growth constant.
"""

from kiselman import count, km_upper_bound, lower_bound, prefix_upper_bound, run_suite, scaled_log

MAX_RANK = 6


def main() -> None:
    counts = [(n, count(n).total) for n in range(MAX_RANK + 1)]

    header = f"{'n':>2} {'lower':>8} {'count':>8} {'prefix bound':>14} {'crude bound':>12}"
    print(header)
    print("-" * len(header))
    for n, c in counts:
        pre = prefix_upper_bound(n) if n else ""
        km = km_upper_bound(n) if n else ""
        print(f"{n:>2} {lower_bound(n):>8} {c:>8} {pre:>14} {km:>12}")

    # the bounds suite's reports on the doubling inequality and the parity limits
    reports = run_suite("bounds", MAX_RANK)

    print()
    print("doubling inequality, exact integer form:")
    for report in reports:
        if report.name == "doubled-count-square-below-next":
            print(f"  {report.note}: {report.lhs} <= {report.rhs}")

    print()
    print("scaled logarithms (rounded down) and limit estimates:")
    for n, c in counts:
        print(f"  n={n}: {scaled_log(n, c)}")
    for r in reports:
        if r.name.endswith(("below-6", "sqrt2")):
            status = "holds" if r.holds else "FAILS"
            print(f"  {r.name} ({status}): {r.note}")


if __name__ == "__main__":
    main()
