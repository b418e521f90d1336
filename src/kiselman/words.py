"""Alphabet and word primitives for Kiselman semigroups.

The alphabet of rank n is {1, ..., n} with the natural order.  A word is
canonical when between any two occurrences of the same letter a there is
at least one letter above a and at least one letter below a; canonical
words are the unique shortest representatives of semigroup elements.

Canonicity is decided in one left-to-right pass over two bitmasks, the
letters still owed a smaller and a greater letter, and where it stops the
same pass names the reducer's deletion; the reducer and the census step
through the same transition table, `_letter_masks`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache

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


# items one call may take on: words streamed, letters held, counts tabulated
BUDGET = 4_000_000


def _guard(cost: int, what: str, shift: int = 0) -> None:
    """Refuse `what`, which lists or holds `cost << shift` items, beyond BUDGET."""
    # a cost whose bit length alone passes BUDGET's is refused before it is built
    bits = cost.bit_length() + shift if cost else 0
    if bits > BUDGET.bit_length() or cost << shift > BUDGET:
        # a cost past 64 bits is stated by its magnitude: its decimal digits
        # could exceed the interpreter's limit on int-to-str conversion
        size = cost << shift if bits <= 64 else f"about 2^{bits - 1}"
        raise ResourceGuardError(
            f"{what} refused: {size} items exceed the budget of {BUDGET} (kiselman.words.BUDGET)"
        )


def length_bound(n: int) -> int:
    """Maximal possible length of a canonical word over rank n.

    Equals 2^(k+1) - 2 for n = 2k and 3*2^k - 2 for n = 2k+1.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    k, odd = divmod(n, 2)
    return 3 * 2**k - 2 if odd else 2 ** (k + 1) - 2


class _Value:
    """A slotted immutable record, equal, hashed and shown by its fields as a frozen dataclass is."""

    __slots__ = ()

    def __reduce__(self) -> tuple:  # the class and its fields: a copy or a pickle is validated again
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self.__reduce__()[1]))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Word(_Value):
    """A finite word over the alphabet {1, ..., rank}.

    Letters are 1-based ints; the empty word is the monoid identity.
    Canonicity and reduction depend only on the letters' relative order
    (`2 1 2` reduces to `1 2` at rank 2 and at rank 5); the rank bounds
    the letters and sizes the transition table, `_letter_masks`.
    """

    __slots__ = ("letters", "rank")
    letters: tuple[int, ...]
    rank: int

    def __init__(self, letters: tuple[int, ...], rank: int) -> None:
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)
        self.__post_init__()  # looked up on the class, where a tracer may wrap it

    def __post_init__(self) -> None:
        # a bool or float is no rank, even one equal to an int
        if type(self.rank) is not int:
            raise ValueError(f"rank {self.rank!r} is not an int")
        if self.rank < 0:
            raise ValueError(f"rank must be nonnegative, got {self.rank}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if type(x) is not int or not 1 <= x <= self.rank:
                raise ValueError(f"letter {x!r} outside alphabet 1..{self.rank}")

    @classmethod
    def from_text(cls, text: str, rank: int) -> "Word":
        """Parse whitespace-separated positive integers; "" is the empty word.

        Each letter is ASCII digits only: no sign, underscore or other script's digits.
        """
        parts = text.split()
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"not a word: {text!r}")
        return cls(tuple(map(int, parts)), rank)

    def to_text(self) -> str:
        return " ".join(str(x) for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return self.to_text()



class CanonicalViolation(namedtuple("CanonicalViolation", ("letter", "first_pos", "second_pos"))):
    """Witness of non-canonicity: two occurrences of `letter` whose gap
    lacks a smaller letter, a greater letter, or both.  Positions are
    1-based."""

    __slots__ = ()


def _letter_masks(n: int) -> tuple[tuple[int, int, int] | None, ...]:
    """(bit, keep_ns, keep_ng) for each letter 1..n, indexed by the letter:
    the transition of the owed-smaller / owed-greater state.  Entry 0 is
    None, so a pass reads masks[x] with no shift.

    A prefix's state is two bitmasks: ns holds the letters that have seen
    no smaller letter since their last occurrence, ng those that have seen
    no greater one.  Appending x clears the owed-smaller bit of every letter
    above x and the owed-greater bit of every letter below x, then marks x
    as owing both.  A prefix stays canonical when x is appended iff x's bit
    is in neither mask.  The table is built once per rank; its guard, run on
    every call that checks or reduces a word, weighs the 64-bit words of its
    3n integers, about 2n^2 bits, and words a refusal only past BUDGET.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    cost = n * n // 32 + 3 * n
    if cost > BUDGET:
        _guard(cost, f"rank {n} transition table")
    return _build_letter_masks(n)


@lru_cache(maxsize=None)
def _build_letter_masks(n: int) -> tuple[tuple[int, int, int] | None, ...]:
    full = (1 << n) - 1
    # the letters above x are full less bits 1..x, those below are bits 1..x-1
    return (None, *((bit, ~(full ^ ((bit << 1) - 1)), ~(bit - 1)) for bit in (1 << k for k in range(n))))


def _first_owed(
    letters: Sequence[int], masks: tuple[tuple[int, int, int] | None, ...], trail: list[tuple[int, int]] | None = None
) -> tuple[int, int] | None:
    """One left-to-right pass over the owed state.

    Returns (j, d), or None when the word is canonical.  j is the index of
    the first letter whose bit is still owed, i.e. the later occurrence of
    the first pair (ordered by its later occurrence) to break the gap
    condition.  d is the index the reducer deletes: j when the letter owes
    a smaller one (its gap since the previous occurrence has no smaller
    letter), else that previous occurrence.  Letters, any sequence of
    them, must lie in 1..len(masks) - 1; masks is `_letter_masks`' table,
    whose entry 0 is None.  The pass keeps a trail, whose entry k is the
    state (ns, ng) before letter k: it starts at the trail's last entry
    and appends the state after each letter it passes.  Without a trail
    it starts a fresh one at position 0; `canonical_form` passes its own
    to resume where it deleted, and the oracle walk a canonical prefix's
    to resume where the prefix ends.
    """
    if trail is None:
        trail = [(0, 0)]
    ns, ng = trail[-1]
    for j in range(len(trail) - 1, len(letters)):
        bit, keep_ns, keep_ng = masks[letters[j]]
        if (ns | ng) & bit:
            # no smaller letter in the gap: the later occurrence is redundant;
            # otherwise there is no greater one and the earlier occurrence is
            return j, j if ns & bit else j - 1 - letters[j - 1 :: -1].index(letters[j])
        ns, ng = (ns & keep_ns) | bit, (ng & keep_ng) | bit
        trail.append((ns, ng))
    return None


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
    j, x = hit[0], letters[hit[0]]
    return CanonicalViolation(x, j - letters[j - 1 :: -1].index(x), j + 1)


def is_canonical(word: Word) -> bool:
    """Whether the word is the shortest representative of its element."""
    return canonical_violation(word) is None
