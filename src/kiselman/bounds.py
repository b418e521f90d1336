"""Exact evaluation of growth bounds and combinatorial identities.

Every holds/fails decision is an integer or rational comparison, and
the printed scaled logarithms are computed with integers and rounded
down.  Where a bound involves pi in a denominator, pi is replaced by the
larger rational 355/113, which makes the checked inequality strictly
stronger than the original.  Logarithms are base 2 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .reports import BoundReport
from .words import _guard, length_bound

__all__ = [
    "PI_UPPER",
    "km_upper_bound",
    "lower_bound",
    "maximal_multiset",
    "multinomial",
    "prefix_upper_bound",
    "multinomial_identity_check",
    "binomial_lemma_check",
    "even_upper_bound",
    "even_upper_bound_check",
    "odd_exponent_check",
    "scaled_log",
    "monotone_sequence_check",
    "limit_report",
]

PI_UPPER = Fraction(355, 113)  # pi < 355/113, so bounds checked with it are stronger


def _weigh(bits: int, shift: int, what: str) -> None:
    """Refuse `what`, an integer of at most bits << shift bits, before it is built.

    Schoolbook products build it in about ceil((bits << shift)/64)^2 products of 64-bit
    words, a cost read against kiselman.words.BUDGET as a factor and an exponent.
    """
    if shift < 6:  # from 6 on, ceil((bits << shift)/64) is bits << (shift - 6)
        bits, shift = ((bits << shift) + 63) >> 6, 6
    _guard(bits * bits, what, 2 * (shift - 6))


def km_upper_bound(n: int) -> int:
    """The crude upper bound 1 + n^L(n) on the number of canonical words."""
    if n < 1:
        raise ValueError(f"need rank >= 1, got {n}")
    _weigh((3 if n % 2 else 2) * n.bit_length(), n // 2, f"rank {n} crude upper bound")
    return 1 + n ** length_bound(n)


def lower_bound(n: int) -> int:
    """The double-exponential lower bound 2^(2^ceil(n/2) - 1)."""
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    _weigh(1, (n + 1) // 2, f"rank {n} lower bound")
    return 2 ** (2 ** ((n + 1) // 2) - 1)


def maximal_multiset(n: int) -> dict[int, int]:
    """Occurrence counts letter -> min(2^(i-1), 2^(n-i)); they sum to L(n)."""
    if n < 1:
        raise ValueError(f"need rank >= 1, got {n}")
    _guard(n * n // 256, f"rank {n} maximal multiset")  # about n^2/4 bits, n^2/256 64-bit words
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
    valid for both parities.  The multinomial is at most n^L(n), and is
    weighed as that, with L(n) below 2 << n // 2 for even n, 3 << n // 2 for odd.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    _weigh((3 if n % 2 else 2) * n.bit_length(), n // 2, f"rank {n} prefix bound")
    return (length_bound(n) + 1) * multinomial(list(maximal_multiset(n).values()))


def multinomial_identity_check(k: int) -> BoundReport:
    """Exact identity: the maximal-multiset multinomial for rank 2k equals
    the product over h = 1..k of C(2*2^h - 2, 2^(h-1)) * C(3*2^(h-1) - 2, 2^(h-1))."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _weigh(2 * (2 * k).bit_length(), k, f"rank {2 * k} multinomial identity")  # L(2k) < 2 << k
    lhs = multinomial(list(maximal_multiset(2 * k).values()))
    rhs = 1
    for h in range(1, k + 1):
        rhs *= math.comb(2 * 2**h - 2, 2 ** (h - 1)) * math.comb(3 * 2 ** (h - 1) - 2, 2 ** (h - 1))
    return BoundReport.equal(
        "multiset-multinomial-equals-binomial-product", k, lhs, rhs, "exact equality required"
    )


def binomial_lemma_check(N: int, part: int) -> BoundReport:
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
    _weigh(12 * N, 0, f"binomial estimates at N = {N}")  # 2^(12N), part 2's side, is the largest
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


def _parity_cap(n: int) -> int:
    """The parity limits' cap: 64^(2^k) for n = 2k, 432^(2^k) for n = 2k+1."""
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    base = 432 if n % 2 else 64
    _weigh(base.bit_length(), n // 2, f"rank {n} parity cap")
    return base ** 2 ** (n // 2)


def even_upper_bound(k: int) -> int:
    """The even-rank upper bound 2^(6 * 2^k) = 64^(2^k) on the count for rank 2k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _parity_cap(2 * k)


def even_upper_bound_check(k: int) -> BoundReport:
    """Companion check: the prefix bound for rank 2k stays below 2^(6*2^k)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    name = "prefix-bound-below-even-upper-bound"
    return BoundReport.at_most(name, k, prefix_upper_bound(2 * k), even_upper_bound(k), f"rank {2 * k}")


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
        _parity_cap(n),
        "exact form: prefix bound <= 432^(2^((n-1)/2))",
    )


def scaled_log(n: int, count: int) -> str:
    """2^(-n/2) * log2(2 * count) to six decimals, rounded down, on integers.

    log2 is read bit by bit off 64 squarings of the mantissa, with 32 guard
    bits and truncation at every step; odd n divides by sqrt(2) with isqrt.
    The string is never above the true value, nor more than one unit below its floor.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    log2 = (2 * count).bit_length() - 1  # the integer part; 64 fractional bits follow
    mantissa = ((2 * count) << 96) >> log2  # in [1, 2), with 96 fractional bits
    for _ in range(64):
        mantissa = (mantissa * mantissa) >> 96
        log2 <<= 1
        if mantissa >> 97:  # the square reached 2: the next bit is 1
            mantissa >>= 1
            log2 += 1
    if n % 2:
        log2 = math.isqrt(log2 * log2 // 2)
    micro = (10**6 * log2) >> (64 + n // 2)
    return f"{micro // 10**6}.{micro % 10**6:06d}"


def _parity_runs(counts: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    return [p for p in counts if p[0] % 2 == 0], [p for p in counts if p[0] % 2 == 1]


def monotone_sequence_check(counts: list[tuple[int, int]]) -> list[BoundReport]:
    """Exact form of the doubling inequality: (2*count(n))^2 <= 2*count(n+2).

    Equivalent to the scaled-log sequence being nondecreasing within each
    parity, but decided purely on integers.  Counts must cover consecutive
    same-parity ranks.
    """
    reports = []
    for run in _parity_runs(sorted(counts)):
        for (n, kn), (m, km) in zip(run, run[1:]):
            if m != n + 2:
                raise ValueError(f"missing count between ranks {n} and {m}")
            name = "doubled-count-square-below-next"
            note = f"(2*count({n}))^2 vs 2*count({m})"
            reports.append(BoundReport.at_most(name, n, (2 * kn) ** 2, 2 * km, note))
    return reports


def limit_report(counts: list[tuple[int, int]]) -> list[BoundReport]:
    """The parity-limit estimates.

    Checks counts are monotone in rank (the subalphabet embeddings), and
    certifies the latest even and odd scaled values against their limits,
    log2(64) = scaled_log(0, 32) and log2(432)/sqrt(2) = scaled_log(1, 216),
    exactly: 2*count(2k) <= 64^(2^k) and 2*count(2k+1) <= 432^(2^k).
    """
    ordered = sorted(counts)
    reports = [
        BoundReport.at_most("count-monotone-in-rank", n, kn, km, f"count({n}) <= count({m})")
        for (n, kn), (m, km) in zip(ordered, ordered[1:])
        if m == n + 1
    ]
    names = ("even-scaled-log-below-6", "odd-scaled-log-below-log2-432-over-sqrt2")
    for name, run in zip(names, _parity_runs(ordered)):
        if run:
            n, c = run[-1]
            cap = _parity_cap(n)  # refused, if at all, before the notes are worked out
            estimate, limit = scaled_log(n, c), scaled_log(n % 2, _parity_cap(n % 2) // 2)
            note = f"lower estimate for the {('even', 'odd')[n % 2]} limit: {estimate} <= {limit}, both rounded down"
            reports.append(BoundReport.at_most(name, n, 2 * c, cap, note))
    return reports
