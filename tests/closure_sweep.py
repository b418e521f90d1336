"""The oracle's closure and reduction memo against the word-by-word
references on large universes.

    PYTHONPATH=src python -W error tests/closure_sweep.py

Pytest does not collect this file: the five closure pairs take about 20 s,
most of it in the reference, and the three memo pairs about 30 s, most of
it in `canonical_form`.  (4, 10) is the retry universe of the verify
suite's (4, 8).  Exits 1 naming the first pair that differs.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_oracle import first_memo_mismatch, merge_closure  # noqa: E402

from kiselman import oracle  # noqa: E402

SWEEP_PAIRS = [(4, 10), (3, 12), (2, 20), (5, 8), (6, 7)]
MEMO_SWEEP_PAIRS = [(4, 10), (5, 7), (6, 6)]


def main() -> int:
    for n, max_len in SWEEP_PAIRS:
        start = time.perf_counter()
        if oracle._closure(n, max_len) != merge_closure(n, max_len):
            print(f"rank {n}, cap {max_len}: the closure's roots differ from the reference's")
            return 1
        print(f"rank {n}, cap {max_len}: same roots ({time.perf_counter() - start:.1f} s)")
    for n, max_len in MEMO_SWEEP_PAIRS:
        start = time.perf_counter()
        red = [0]
        oracle._reduce_walk(n, 1, max_len, red)
        word = first_memo_mismatch(n, max_len, red)
        if word is not None:
            print(f"rank {n}, cap {max_len}: the memo does not reduce {word} as canonical_form does")
            return 1
        print(f"rank {n}, cap {max_len}: the memo is canonical_form ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
