"""Exact evaluation of growth bounds and combinatorial identities.

Every holds/fails decision is an integer or rational comparison; floats
appear only in presentation values (the scaled logarithms and the odd
exponent c * 2^(n/2)).  Where a bound involves pi in a denominator, pi is
replaced by the larger rational 355/113, which makes the checked
inequality strictly stronger than the original.  Logarithms are base 2
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .reports import BoundReport
from .words import length_bound

__all__ = [
    "PI_UPPER",
    "LOG2_432",
    "ODD_EXPONENT_CONSTANT",
    "SequencePoint",
    "km_upper_bound",
    "lower_bound",
    "maximal_multiset",
    "multinomial",
    "prefix_upper_bound",
    "multinomial_identity_check",
    "binomial_lemma_check",
    "even_upper_bound",
    "even_upper_bound_check",
    "odd_upper_bound_exponent",
    "odd_exponent_check",
    "scaled_log",
    "monotone_sequence_check",
    "limit_report",
]

PI_UPPER = Fraction(355, 113)  # pi < 355/113, so bounds checked with it are stronger
LOG2_432 = math.log2(432)
ODD_EXPONENT_CONSTANT = LOG2_432 / math.sqrt(2)  # ~6.1906

IDENTITY_GUARD_K = 8
LEMMA_GUARD_N = 256
EVEN_BOUND_GUARD_K = 6


@dataclass(frozen=True)
class SequencePoint:
    """One term of the scaled-log sequence 2^(-n/2) * log2(2 * count)."""

    n: int
    count: int
    scaled_log: float


def km_upper_bound(n: int) -> int:
    """The crude upper bound 1 + n^L(n) on the number of canonical words."""
    if n < 1:
        raise ValueError(f"need rank >= 1, got {n}")
    return 1 + n ** length_bound(n)


def lower_bound(n: int) -> int:
    """The double-exponential lower bound 2^(2^ceil(n/2) - 1)."""
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    return 2 ** (2 ** ((n + 1) // 2) - 1)


def maximal_multiset(n: int) -> dict[int, int]:
    """Occurrence counts letter -> min(2^(i-1), 2^(n-i)); they sum to L(n)."""
    if n < 1:
        raise ValueError(f"need rank >= 1, got {n}")
    return {i: min(2 ** (i - 1), 2 ** (n - i)) for i in range(1, n + 1)}


def multinomial(parts: list[int]) -> int:
    """Exact multinomial coefficient (sum(parts); parts)."""
    total, result = 0, 1
    for p in parts:
        total += p
        result *= math.comb(total, p)
    return result


def prefix_upper_bound(n: int) -> int:
    """(L(n)+1) times the multinomial of the maximal multiset.

    Every canonical word is a prefix of some word of length L(n) realizing
    the maximal multiset, and a word of length l has l+1 prefixes; this is
    the sharpest integer bound in the double-exponential upper estimates,
    valid for both parities.
    """
    ell = length_bound(n)
    return (ell + 1) * multinomial(list(maximal_multiset(n).values()))


def multinomial_identity_check(k: int, *, allow_large: bool = False) -> BoundReport:
    """Exact identity: the maximal-multiset multinomial for rank 2k equals
    the product over h = 1..k of C(2*2^h - 2, 2^(h-1)) * C(3*2^(h-1) - 2, 2^(h-1))."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > IDENTITY_GUARD_K and not allow_large:
        raise ValueError(f"k = {k} exceeds guard {IDENTITY_GUARD_K}; pass allow_large=True")
    lhs = multinomial(list(maximal_multiset(2 * k).values()))
    rhs = 1
    for h in range(1, k + 1):
        rhs *= math.comb(2 * 2**h - 2, 2 ** (h - 1)) * math.comb(3 * 2 ** (h - 1) - 2, 2 ** (h - 1))
    return BoundReport.equal(
        "multiset-multinomial-equals-binomial-product", k, lhs, rhs, "exact equality required"
    )


def binomial_lemma_check(N: int, part: int, *, allow_large: bool = False) -> BoundReport:
    """Certify one of the three binomial estimates in cleared rational form.

    Part 1: C(2N,N)^2 * N * (355/113) <= 2^(4N)
    Part 2: C(4N,N)^2 * C(3N,N)^2 * N^2 * 2 * (355/113)^2 <= 2^(12N)
    Part 3: C(3N,N) * 4^N <= 27^N
    Parts 1 and 2 are the squared, pi-cleared forms of estimates whose
    right sides carry sqrt(pi N) and pi N sqrt(2); replacing pi by the
    larger 355/113 strengthens them, so holds here implies the originals.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if N > LEMMA_GUARD_N and not allow_large:
        raise ValueError(f"N = {N} exceeds guard {LEMMA_GUARD_N}; pass allow_large=True")
    lhs: Fraction | int
    rhs: Fraction | int
    if part == 1:
        lhs = Fraction(math.comb(2 * N, N) ** 2 * N) * PI_UPPER
        rhs = Fraction(2 ** (4 * N))
    elif part == 2:
        lhs = Fraction(math.comb(4 * N, N) ** 2 * math.comb(3 * N, N) ** 2 * N**2 * 2) * PI_UPPER**2
        rhs = Fraction(2 ** (12 * N))
    elif part == 3:
        lhs = math.comb(3 * N, N) * 4**N
        rhs = 27**N
    else:
        raise ValueError(f"part must be 1, 2 or 3, got {part}")
    note = "pi replaced by 355/113 (stronger)" if part in (1, 2) else "pure integers"
    return BoundReport.at_most(f"binomial-estimate-part-{part}", N, lhs, rhs, note)


def even_upper_bound(k: int, *, allow_large: bool = False) -> int:
    """The even-rank upper bound 2^(6 * 2^k) on the count for rank 2k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > EVEN_BOUND_GUARD_K and not allow_large:
        raise ValueError(f"k = {k} exceeds guard {EVEN_BOUND_GUARD_K}; pass allow_large=True")
    return 2 ** (6 * 2**k)


def even_upper_bound_check(k: int, *, allow_large: bool = False) -> BoundReport:
    """Companion check: the prefix bound for rank 2k stays below 2^(6*2^k)."""
    # the guarded bound first: the multinomial's cost has no guard of its own
    rhs = even_upper_bound(k, allow_large=allow_large)
    return BoundReport.at_most(
        "prefix-bound-below-even-upper-bound", k, prefix_upper_bound(2 * k), rhs, f"rank {2 * k}"
    )


def odd_upper_bound_exponent(n: int) -> float:
    """The exponent c * 2^(n/2) with c = log2(432)/sqrt(2), for odd rank n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need odd n >= 1, got {n}")
    return ODD_EXPONENT_CONSTANT * 2 ** (n / 2)


def odd_exponent_check(n: int) -> BoundReport:
    """Companion check: log2 of the prefix bound stays below c * 2^(n/2).

    For odd n, c * 2^(n/2) = log2(432) * 2^((n-1)/2), so the check is
    decided exactly as prefix_upper_bound(n) <= 432^(2^((n-1)/2)).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need odd n >= 1, got {n}")
    return BoundReport.at_most(
        "log2-prefix-bound-below-odd-exponent",
        n,
        prefix_upper_bound(n),
        432 ** (2 ** ((n - 1) // 2)),
        "exact form: prefix bound <= 432^(2^((n-1)/2))",
    )


def scaled_log(n: int, count: int) -> SequencePoint:
    """Presentation value 2^(-n/2) * log2(2 * count), float at the last step."""
    return SequencePoint(n=n, count=count, scaled_log=math.log2(2 * count) / 2 ** (n / 2))


def _parity_runs(counts: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    ordered = sorted(counts)
    runs = [[p for p in ordered if p[0] % 2 == 0], [p for p in ordered if p[0] % 2 == 1]]
    return [r for r in runs if len(r) >= 2]


def monotone_sequence_check(counts: list[tuple[int, int]]) -> list[BoundReport]:
    """Exact form of the doubling inequality: (2*count(n))^2 <= 2*count(n+2).

    Equivalent to the scaled-log sequence being nondecreasing within each
    parity, but decided purely on integers.  Counts must cover consecutive
    same-parity ranks.
    """
    reports = []
    for run in _parity_runs(counts):
        for (n, kn), (m, km) in zip(run, run[1:]):
            if m != n + 2:
                raise ValueError(f"missing count between ranks {n} and {m}")
            name = "doubled-count-square-below-next"
            note = f"(2*count({n}))^2 vs 2*count({m})"
            reports.append(BoundReport.at_most(name, n, (2 * kn) ** 2, 2 * km, note))
    return reports


def limit_report(counts: list[tuple[int, int]]) -> tuple[list[SequencePoint], list[BoundReport]]:
    """Scaled-log table plus the parity-limit estimates.

    Emits one SequencePoint per rank, checks counts are monotone in rank
    (the subalphabet embeddings), and certifies the latest even and odd
    scaled values against the limits 6 and log2(432)/sqrt(2).  The limit
    checks are exact: 2*count(2k) <= 2^(6*2^k) and
    2*count(2k+1) <= 432^(2^k).
    """
    ordered = sorted(counts)
    points = [scaled_log(n, c) for n, c in ordered]
    reports = [
        BoundReport.at_most("count-monotone-in-rank", n, kn, km, f"count({n}) <= count({m})")
        for (n, kn), (m, km) in zip(ordered, ordered[1:])
        if m == n + 1
    ]
    evens = [(n, c) for n, c in ordered if n % 2 == 0]
    odds = [(n, c) for n, c in ordered if n % 2 == 1]
    if evens:
        n, c = evens[-1]
        estimate = scaled_log(n, c).scaled_log
        note = f"empirical lower estimate for the even limit: {estimate:.6f} <= 6"
        cap = 2 ** (6 * 2 ** (n // 2))
        reports.append(BoundReport.at_most("even-scaled-log-below-6", n, 2 * c, cap, note))
    if odds:
        n, c = odds[-1]
        estimate = scaled_log(n, c).scaled_log
        note = (
            f"empirical lower estimate for the odd limit: "
            f"{estimate:.6f} <= {ODD_EXPONENT_CONSTANT:.6f}"
        )
        cap = 432 ** (2 ** (n // 2))
        name = "odd-scaled-log-below-log2-432-over-sqrt2"
        reports.append(BoundReport.at_most(name, n, 2 * c, cap, note))
    return points, reports
