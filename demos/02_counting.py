"""Counting canonical words rank by rank.

Two bitmasks record which letters still owe their next occurrence a
smaller or a greater letter.  Prefixes with equal bitmasks have the same
canonical extensions, so the census counts extensions per bitmask state
and never lists a word.  An independent breadth-first
generate-and-filter pass over the defining gap condition must agree
exactly, length by length.
"""

import time

from kiselman import count, filtered_recount, iter_canonical

MAX_RANK = 6


def main() -> None:
    print("canonical words of rank 2:")
    for w in iter_canonical(2):
        print(f"  {' '.join(map(str, w)) or '(empty)'}")
    print()

    header = f"{'n':>2} {'total':>10} {'max len':>8} {'time':>8}  by length"
    print(header)
    print("-" * len(header))
    for n in range(MAX_RANK + 1):
        start = time.perf_counter()
        c = count(n)
        elapsed = time.perf_counter() - start
        profile = " ".join(str(c.by_length[l]) for l in sorted(c.by_length))
        print(f"{n:>2} {c.total:>10} {c.max_length:>8} {elapsed:>7.2f}s  {profile}")

    print()
    print("cross-checking against the breadth-first recount:")
    for n in range(MAX_RANK + 1):
        a, b = count(n), filtered_recount(n)
        same = a.by_length == b.by_length
        print(f"  rank {n}: {'exact match' if same else 'MISMATCH'} ({b.total} words)")

    print()
    print("ranks past the reach of any walk over words:")
    for n in range(MAX_RANK + 1, 11):
        start = time.perf_counter()
        c = count(n)
        elapsed = time.perf_counter() - start
        longest = c.by_length[c.max_length]
        print(f"  rank {n:>2}: {c.total} words, {longest} of length {c.max_length} ({elapsed:.3f}s)")


if __name__ == "__main__":
    main()
