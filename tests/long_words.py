"""Canonical words of maximal length, shared by the reducer's tests."""


def spliced(n: int, pick) -> tuple[int, ...]:
    """A canonical word of rank n and length L(n): two such words of rank
    n - 2, their letters raised by one, on either side of 1 and n in the
    order pick chooses.  Every pair of equal letters across the middle has
    1 and n in its gap."""
    if n <= 1:
        return (1,) * n
    left, right = (tuple(x + 1 for x in spliced(n - 2, pick)) for _ in range(2))
    return left + pick(((1, n), (n, 1))) + right
