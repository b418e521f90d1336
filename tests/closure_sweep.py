"""The oracle's closure and reduction memo against the word-by-word
references on large universes.

    PYTHONPATH=src python -W error tests/closure_sweep.py

Pytest does not collect this file: the five closure pairs take about 20 s,
most of it in the reference, and the three memo pairs about 30 s, most of
it in `canonical_form`.  (4, 10) is the retry universe of the verify
suite's (4, 8).  Then, at (5, 7) and (6, 6), each owed-state pass of
`test_oracle.STATE_UPDATES` is planted in the reducer and the walk's memo
must be that pass's step put through every word, as `reference_memo`
does (about 2 s).  Last, at (5, 5) and (6, 4), each step fault of
`test_oracle.FAULTS` is planted past the cap and the walk's memo over the
lengths up to the cap + 2 must be the faulty step put through every word
(about 1.5 s).  Exits 1 naming the first pair that differs.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402
from test_oracle import (  # noqa: E402
    FAULTS,
    STATE_UPDATES,
    _first_owed_with,
    _wrong_past,
    first_memo_mismatch,
    merge_closure,
    reference_memo,
    walk_memo,
)

from kiselman import oracle, reduce  # noqa: E402

SWEEP_PAIRS = [(4, 10), (3, 12), (2, 20), (5, 8), (6, 7)]
MEMO_SWEEP_PAIRS = [(4, 10), (5, 7), (6, 6)]
PASS_SWEEP_PAIRS = [(5, 7), (6, 6)]
FAULT_SWEEP_PAIRS = [(5, 5), (6, 4)]


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
    true_pass = reduce._first_owed
    for n, max_len in PASS_SWEEP_PAIRS:
        for name, update in STATE_UPDATES.items():
            start = time.perf_counter()
            reduce._first_owed = _first_owed_with(update)
            try:
                red, expected = [0], [0]
                oracle._reduce_walk(n, 1, max_len, red)
                reference_memo(n, 1, max_len, expected)
            finally:
                reduce._first_owed = true_pass
            if red != expected:
                print(f"rank {n}, cap {max_len}, pass {name}: the memo is not the step put through every word")
                return 1
            print(f"rank {n}, cap {max_len}, pass {name}: the memo is the step ({time.perf_counter() - start:.1f} s)")
    for n, max_len in FAULT_SWEEP_PAIRS:
        for name, fault in FAULTS.items():
            start = time.perf_counter()
            with pytest.MonkeyPatch.context() as patch:
                _wrong_past(max_len, patch, fault)
                expected = [0]
                reference_memo(n, 1, max_len + 2, expected)
                red = walk_memo(n, max_len)
            if red != expected:
                print(f"rank {n}, cap {max_len}, fault {name}: the memo is not the step put through every word")
                return 1
            print(f"rank {n}, cap {max_len}, fault {name}: the memo is the step ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
