"""Reduction to canonical form and semigroup multiplication.

The defining relations (a*a = a and a*b*a = b*a*b = a*b for a < b)
generalize to a single deletion rule on consecutive occurrences of a
letter: if the gap between them has no smaller letter the later
occurrence is redundant, if it has no greater letter the earlier one is.
The leftmost such pair is where the owed-smaller / owed-greater pass that
decides canonicity first stops, so the reducer and the predicate share it.
Iterating the rule terminates in a canonical word; that this word is the
canonical form of the input (i.e. that the rule is confluent and respects
the congruence) is certified empirically by the congruence-closure oracle
on all small ranks rather than assumed.
"""

from __future__ import annotations

from collections.abc import Sequence

from .words import Word, _first_owed, _letter_masks, _previous, _Value, is_canonical

__all__ = ["KElement", "canonical_form", "multiply", "identity", "generators"]


class KElement(_Value):
    """A semigroup element, represented by its canonical word."""

    __slots__ = ("word",)

    def __init__(self, word: Word) -> None:
        if not is_canonical(word):
            raise ValueError(f"not a canonical word: {word.to_text()!r}")
        object.__setattr__(self, "word", word)

    @property
    def rank(self) -> int:
        return self.word.rank

    def __mul__(self, other: object) -> "KElement":
        return multiply(self, other) if isinstance(other, KElement) else NotImplemented

    def __str__(self) -> str:
        return self.word.to_text()


def _deletion_index(
    letters: Sequence[int], masks: tuple[tuple[int, int, int] | None, ...], trail: list[tuple[int, int]] | None = None
) -> int | None:
    # Leftmost reducible pair of consecutive equal letters, ordered by the
    # position of the second occurrence: the first letter the owed-state
    # pass stops at.  Returns the index to delete.  Letters are any
    # sequence; masks is `_letter_masks`' table, None at entry 0.  A trail
    # resumes the pass; without one it starts at position 0.
    hit = _first_owed(letters, masks, trail)
    if hit is None:
        return None
    j, owes_smaller = hit
    # no smaller letter in the gap: the later occurrence is redundant;
    # otherwise there is no greater one and the earlier occurrence is
    return j if owes_smaller else _previous(letters, j)


def canonical_form(word: Word) -> KElement:
    """Reduce to the unique canonical word by iterated deletion.

    The letters are held in a list and each deletion is made in place, so
    no step builds a new word; after deleting index d the pass resumes at d,
    from the owed state a trail keeps before each position, which the
    letters before it alone fix.  Each step shortens the word, so this
    terminates; the fixed point is checked once, by the element's own
    validation against the canonicity predicate (a failure would mean the
    reducer and the predicate disagree and must surface loudly).
    """
    masks = _letter_masks(word.rank)
    letters = list(word.letters)
    trail = [(0, 0)]  # trail[k]: the owed state (ns, ng) before letters[k]
    # the step is a global, looked up at each call: a patched step is the one run
    while (idx := _deletion_index(letters, masks, trail)) is not None:
        del letters[idx], trail[idx + 1 :]  # the letters first: an index past the end raises
    return KElement(Word(tuple(letters), word.rank))


def multiply(x: KElement, y: KElement) -> KElement:
    """Product in the semigroup: canonical form of the concatenation."""
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} != {y.rank}")
    return canonical_form(Word(x.word.letters + y.word.letters, x.rank))


def identity(rank: int) -> KElement:
    """The monoid identity (empty word)."""
    return KElement(Word((), rank))


def generators(rank: int) -> list[KElement]:
    """The generator elements, one per letter, in increasing order."""
    return [KElement(Word((x,), rank)) for x in range(1, rank + 1)]
