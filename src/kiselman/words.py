"""Alphabet and word primitives for Kiselman semigroups.

The alphabet of rank n is {1, ..., n} with the natural order.  A word is
canonical when between any two occurrences of the same letter a there is
at least one letter above a and at least one letter below a; canonical
words are the unique shortest representatives of semigroup elements.

Canonicity is decided in one left-to-right pass over two bitmasks, the
letters still owed a smaller and a greater letter; the reducer and the
census step through the same transition table, `_letter_masks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

__all__ = [
    "ResourceGuardError",
    "Word",
    "CanonicalViolation",
    "length_bound",
    "is_canonical",
    "canonical_violation",
]


class ResourceGuardError(RuntimeError):
    """Raised when a computation would exceed its configured resource guard."""


def length_bound(n: int) -> int:
    """Maximal possible length of a canonical word over rank n.

    Equals 2^(k+1) - 2 for n = 2k and 3*2^k - 2 for n = 2k+1.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    k, odd = divmod(n, 2)
    return 3 * 2**k - 2 if odd else 2 ** (k + 1) - 2


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {1, ..., rank}.

    Letters are 1-based; the empty word is the monoid identity.  The rank
    travels with the word because the above/below letter counts depend on
    the ambient alphabet, not only on the letters present.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be nonnegative, got {self.rank}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not 1 <= x <= self.rank:
                raise ValueError(f"letter {x} outside alphabet 1..{self.rank}")

    @classmethod
    def from_text(cls, text: str, rank: int) -> "Word":
        """Parse whitespace-separated positive integers; "" is the empty word."""
        parts = text.split()
        try:
            letters = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"not a word: {text!r}") from exc
        return cls(letters, rank)

    def to_text(self) -> str:
        return " ".join(str(x) for x in self.letters)

    @property
    def content(self) -> frozenset[int]:
        """The set of distinct letters of the word."""
        return frozenset(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return self.to_text()


class CanonicalViolation(NamedTuple):
    """Witness of non-canonicity: two occurrences of `letter` whose gap
    lacks a smaller letter, a greater letter, or both.  Positions are
    1-based."""

    letter: int
    first_pos: int
    second_pos: int


@lru_cache(maxsize=None)
def _letter_masks(n: int) -> tuple[tuple[int, int, int], ...]:
    """(bit, keep_ns, keep_ng) for each letter 1..n: the transition of the
    owed-smaller / owed-greater state.

    A prefix's state is two bitmasks: ns holds the letters that have seen
    no smaller letter since their last occurrence, ng those that have seen
    no greater one.  Appending x clears the owed-smaller bit of every letter
    above x and the owed-greater bit of every letter below x, then marks x
    as owing both.  A prefix stays canonical when x is appended iff x's bit
    is in neither mask.
    """
    masks = []
    for x in range(1, n + 1):
        bit = 1 << (x - 1)
        above = sum(1 << (y - 1) for y in range(x + 1, n + 1))
        below = sum(1 << (y - 1) for y in range(1, x))
        masks.append((bit, ~above, ~below))
    return tuple(masks)


def _first_owed(
    letters: tuple[int, ...], masks: tuple[tuple[int, int, int], ...]
) -> tuple[int, bool] | None:
    """One left-to-right pass over the owed state.

    Returns the index j of the first letter whose bit is still owed, i.e.
    the later occurrence of the first pair (ordered by its later
    occurrence) to break the gap condition, and whether that letter owes a
    smaller one (its gap since the previous occurrence has no smaller
    letter).  None when the word is canonical.  Letters must lie in
    1..len(masks).
    """
    ns = ng = 0
    for j, x in enumerate(letters):
        bit, keep_ns, keep_ng = masks[x - 1]
        if (ns | ng) & bit:
            return j, bool(ns & bit)
        ns = (ns & keep_ns) | bit
        ng = (ng & keep_ng) | bit
    return None


def _previous(letters: tuple[int, ...], j: int) -> int:
    """Index of the last occurrence of letters[j] before j; one must exist."""
    return j - 1 - letters[j - 1 :: -1].index(letters[j])


def canonical_violation(word: Word) -> CanonicalViolation | None:
    """Return the first violating occurrence pair, or None if canonical.

    Pairs are ordered by the position of the later occurrence and then of
    the earlier one, i.e. the reported pair is the first one a left-to-right
    scan completes.  Its earlier occurrence is always the letter's previous
    one: the gap from any occurrence before that contains the gap of a pair
    completed earlier, which already holds a smaller and a greater letter.
    """
    letters = word.letters
    hit = _first_owed(letters, _letter_masks(word.rank))
    if hit is None:
        return None
    j = hit[0]
    return CanonicalViolation(letters[j], _previous(letters, j) + 1, j + 1)


def is_canonical(word: Word) -> bool:
    """Whether the word is the shortest representative of its element."""
    return canonical_violation(word) is None
