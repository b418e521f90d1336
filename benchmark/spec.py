"""Reference mathematics and seeded inputs for the benchmark, written apart from `kiselman`.

Nothing here imports the package under test.  The checks in the workloads
compare the program's outputs against these functions, never against a
stored copy of earlier output:

- `is_canonical` is the gap condition: between two consecutive occurrences
  of a letter a there is a letter below a and a letter above a;
- `census_by_length` counts canonical words per length by a dynamic
  programme over the owed-smaller / owed-greater state of a prefix;
- `length_bound` is L(n), the largest length of a canonical word.
"""

from __future__ import annotations

import random
from functools import lru_cache


def length_bound(n: int) -> int:
    """L(n): 2^(k+1) - 2 for n = 2k, 3 * 2^k - 2 for n = 2k + 1."""
    k, odd = divmod(n, 2)
    return 3 * 2**k - 2 if odd else 2 ** (k + 1) - 2


def violation(letters) -> tuple[int, int, int] | None:
    """First (letter, i, j) with 1-based consecutive occurrences i < j of a
    letter whose gap lacks a smaller or a greater letter, scanning by j."""
    last: dict[int, int] = {}
    for j, a in enumerate(letters):
        i = last.get(a)
        if i is not None:
            gap = letters[i + 1 : j]
            if not (any(x < a for x in gap) and any(x > a for x in gap)):
                return a, i + 1, j + 1
        last[a] = j
    return None


def is_canonical(letters) -> bool:
    return violation(letters) is None


def is_violating_pair(letters, letter: int, first: int, second: int) -> bool:
    """Whether 1-based positions first < second hold `letter` with a bad gap."""
    if not 1 <= first < second <= len(letters):
        return False
    if letters[first - 1] != letter or letters[second - 1] != letter:
        return False
    gap = letters[first:second - 1]
    return not (any(x < letter for x in gap) and any(x > letter for x in gap))


def is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def flip(letters, n: int) -> tuple[int, ...]:
    """Reverse the word and map each letter x to n + 1 - x."""
    return tuple(n + 1 - x for x in reversed(letters))


def _step(n: int, ns: int, ng: int, x: int) -> tuple[int, int] | None:
    # Appending x is allowed unless x still owes a smaller or a greater
    # letter since its last occurrence.  It pays the owed-smaller debt of
    # every letter above x and the owed-greater debt of every letter below.
    bit = 1 << (x - 1)
    if (ns | ng) & bit:
        return None
    above = ((1 << n) - 1) & ~((bit << 1) - 1)
    below = bit - 1
    return (ns & ~above) | bit, (ng & ~below) | bit


@lru_cache(maxsize=None)
def _extensions(n: int, ns: int, ng: int) -> tuple[int, ...]:
    # number of canonical extensions of a prefix in state (ns, ng), by length
    out = [1]
    for x in range(1, n + 1):
        nxt = _step(n, ns, ng, x)
        if nxt is None:
            continue
        for k, c in enumerate(_extensions(n, *nxt)):
            if k + 1 == len(out):
                out.append(0)
            out[k + 1] += c
    return tuple(out)


def census_by_length(n: int) -> dict[int, int]:
    """Number of canonical words of rank n, by length."""
    return dict(enumerate(_extensions(n, 0, 0)))


def canonical_words_up_to(n: int, cap: int) -> int:
    return sum(c for length, c in census_by_length(n).items() if length <= cap)


def sample_canonical(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A canonical word of the given length, uniform among all of them."""
    ns = ng = 0
    word: list[int] = []
    for remaining in range(length, 0, -1):
        choices, weights = [], []
        for x in range(1, n + 1):
            nxt = _step(n, ns, ng, x)
            if nxt is None:
                continue
            ext = _extensions(n, *nxt)
            if remaining - 1 < len(ext) and ext[remaining - 1]:
                choices.append((x, nxt))
                weights.append(ext[remaining - 1])
        x, (ns, ng) = rng.choices(choices, weights)[0]
        word.append(x)
    return tuple(word)


def random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, n) for _ in range(length))


def long_canonical(rng: random.Random, n: int) -> tuple[int, ...]:
    """A canonical word of rank n whose length is L(n), L(n) - 1 or L(n) - 2."""
    return sample_canonical(rng, n, length_bound(n) - rng.randint(0, 2))


def one_letter_edit(rng: random.Random, word, n: int) -> tuple[int, ...]:
    """Replace, insert or delete one letter at a random position."""
    letters = list(word)
    pos = rng.randrange(len(letters))
    kind = rng.randrange(3)
    if kind == 0:
        letters[pos] = rng.choice([x for x in range(1, n + 1) if x != letters[pos]])
    elif kind == 1:
        letters.insert(pos, rng.randint(1, n))
    else:
        del letters[pos]
    return tuple(letters)
