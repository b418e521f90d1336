"""Reduction to canonical form and semigroup multiplication.

The defining relations (a*a = a and a*b*a = b*a*b = a*b for a < b)
generalize to a single deletion rule on consecutive occurrences of a
letter: if the gap between them has no smaller letter the later
occurrence is redundant, if it has no greater letter the earlier one is.
The leftmost such pair is where the owed-smaller / owed-greater pass that
decides canonicity first stops, and the pass returns the index to delete
there, so the reducer and the predicate share it: one call per deletion.
Iterating the rule terminates in a canonical word; that this word is the
canonical form of the input (i.e. that the rule is confluent and respects
the congruence) is certified empirically by the congruence-closure oracle
on all small ranks rather than assumed.
"""

from __future__ import annotations

from .words import Word, _first_owed, _letter_masks, _Value, is_canonical

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


def canonical_form(word: Word) -> KElement:
    """Reduce to the unique canonical word by iterated deletion.

    The letters are held in a list and each deletion, at the index d the
    pass returns, is made in place, so no step builds a new word and each
    costs one call of the pass; after deleting d the pass resumes at d,
    from the owed state a trail keeps before each position, which the
    letters before it alone fix.  Each step shortens the word, so this
    terminates; the fixed point is checked once, by the element's own
    validation against the canonicity predicate (a failure would mean the
    reducer and the predicate disagree and must surface loudly).
    """
    masks = _letter_masks(word.rank)
    letters = list(word.letters)
    trail = [(0, 0)]  # trail[k]: the owed state (ns, ng) before letters[k]
    # the pass is a global, looked up at each call: a patched pass is the one run
    while (hit := _first_owed(letters, masks, trail)) is not None:
        del letters[hit[1]], trail[hit[1] + 1 :]  # the letters first: an index past the end raises
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
