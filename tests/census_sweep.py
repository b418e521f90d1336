"""The census DP against the tuple-keyed breadth-first formulation at
ranks 11 and 12.

    PYTHONPATH=src python -W error tests/census_sweep.py

Pytest does not collect this file: the breadth-first formulation takes
several seconds at rank 12, where the DP takes a fraction of one; the
suite compares the two up to rank 10.  Exits 1 naming the first rank
whose counts by length differ.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_census import _forward_by_length  # noqa: E402

from kiselman.census import count  # noqa: E402

SWEEP_RANKS = [11, 12]


def main() -> int:
    for n in SWEEP_RANKS:
        start = time.perf_counter()
        if count(n).by_length != _forward_by_length(n):
            print(f"rank {n}: the census DP's counts by length differ from the breadth-first formulation's")
            return 1
        print(f"rank {n}: same counts by length ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
