"""The oracle's closure against the word-by-word reference on large universes.

    PYTHONPATH=src python -W error tests/closure_sweep.py

Pytest does not collect this file: the five pairs take about 20 s, most of
it in the reference.  (4, 10) is the retry universe of the verify suite's
(4, 8).  Exits 1 naming the first pair whose roots differ.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_oracle import merge_closure  # noqa: E402

from kiselman import oracle  # noqa: E402

SWEEP_PAIRS = [(4, 10), (3, 12), (2, 20), (5, 8), (6, 7)]


def main() -> int:
    for n, max_len in SWEEP_PAIRS:
        start = time.perf_counter()
        if oracle._closure(n, max_len) != merge_closure(n, max_len):
            print(f"rank {n}, cap {max_len}: the closure's roots differ from the reference's")
            return 1
        print(f"rank {n}, cap {max_len}: same roots ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
