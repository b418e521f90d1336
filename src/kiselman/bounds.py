"""Exact values of the growth bounds, as integers.

The bounds and identities suites in `verify` compare them with the counts;
every holds/fails decision there is an integer comparison, and the printed
scaled logarithms are computed with integers and rounded down.  Where a
bound involves pi in a denominator, pi is replaced by the larger
PI_UPPER = 355/113, which makes the checked inequality strictly stronger
than the original, and both sides are multiplied by 113 (or 113^2) to
clear the denominator.  Logarithms are base 2 throughout.
"""

from __future__ import annotations

import math

from .words import _guard, length_bound

__all__ = [
    "PI_UPPER",
    "km_upper_bound",
    "lower_bound",
    "maximal_multiset",
    "multinomial",
    "prefix_upper_bound",
    "parity_cap",
    "scaled_log",
]

PI_UPPER = (355, 113)  # pi < 355/113, so bounds checked with it are stronger


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


def parity_cap(n: int) -> int:
    """The cap on 2|K_n| behind the parity limits: 64^(2^k) at n = 2k, 432^(2^k) at n = 2k+1."""
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    base = 432 if n % 2 else 64
    _weigh(base.bit_length(), n // 2, f"rank {n} parity cap")
    return base ** 2 ** (n // 2)


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

