import copy
import pickle
from dataclasses import dataclass

import pytest

from kiselman.words import (
    CanonicalViolation,
    Word,
    _letter_masks,
    canonical_violation,
    is_canonical,
    length_bound,
)


@dataclass(frozen=True)
class LetterStats:
    """Occurrence count of one letter together with its alphabet position data."""

    letter: int
    occurrences: int
    less_count: int
    more_count: int

    @property
    def within_bound(self) -> bool:
        """Whether occurrences <= min(2^less_count, 2^more_count).

        Canonical words satisfy this for every letter; arbitrary words
        need not.
        """
        return self.occurrences <= min(2**self.less_count, 2**self.more_count)


def occurrence_profile(word: Word) -> dict[int, LetterStats]:
    """Per-letter occurrence counts for the letters present in the word."""
    counts: dict[int, int] = {}
    for x in word.letters:
        counts[x] = counts.get(x, 0) + 1
    return {
        x: LetterStats(x, c, x - 1, word.rank - x) for x, c in sorted(counts.items())
    }


def plus_one_check(word: Word) -> bool:
    """Check occurrences(a) <= 1 + #{letters below a} and symmetrically above.

    Holds for every canonical word: between two occurrences of a there is
    a lower and a higher letter, so occurrences of a exceed neither total
    by more than one.  Rejects non-canonical input.
    """
    violation = canonical_violation(word)
    if violation is not None:
        raise ValueError(f"word is not canonical: {violation}")
    counts: dict[int, int] = {}
    for x in word.letters:
        counts[x] = counts.get(x, 0) + 1
    for a, c in counts.items():
        below = sum(v for b, v in counts.items() if b < a)
        above = sum(v for b, v in counts.items() if b > a)
        if c > 1 + below or c > 1 + above:
            return False
    return True


def test_length_bound_values():
    # 2^(k+1) - 2 at even ranks, 3*2^k - 2 at odd ranks
    assert [length_bound(n) for n in range(9)] == [0, 1, 2, 4, 6, 10, 14, 22, 30]


def test_length_bound_rejects_negative():
    with pytest.raises(ValueError):
        length_bound(-1)


def test_word_roundtrip():
    w = Word.from_text("2 3 1 2 4 3", 4)
    assert w.letters == (2, 3, 1, 2, 4, 3)
    assert w.to_text() == "2 3 1 2 4 3"
    assert str(w) == w.to_text()
    assert len(w) == 6
    assert list(w) == [2, 3, 1, 2, 4, 3]


def test_empty_word():
    w = Word.from_text("", 3)
    assert w.letters == ()
    assert w.to_text() == ""
    assert is_canonical(w)


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0,), 3)
    with pytest.raises(ValueError):
        Word((4,), 3)
    with pytest.raises(ValueError):
        Word((), -1)
    # a letter is ASCII decimal digits; int() alone reads "1_0", "+1" and "\u0661" as 10, 1 and 1
    for text in ("1 x 2", "1_0 2", "+1", "\u0661 2", "-1"):
        with pytest.raises(ValueError, match="not a word"):
            Word.from_text(text, 10)
    # a bool, float or str is no letter, even one equal to a letter; the error names it
    for letters, bad in (((True, 1), "True"), ((1.5,), "1.5"), ((2, 1.0), "1.0"), (("1",), "'1'")):
        with pytest.raises(ValueError, match=f"letter {bad} "):
            Word(letters, 3)
    # nor is it a rank; the error names it
    for rank, bad in ((1.5, "1.5"), (True, "True"), (3.0, "3.0"), ("3", "'3'")):
        with pytest.raises(ValueError, match=f"rank {bad} is not an int"):
            Word((1,), rank)


def test_word_is_an_immutable_value():
    w = Word([2, 1, 2], 2)
    # list letters are stored as a tuple, and the repr is the one a dataclass gave
    assert w.letters == (2, 1, 2)
    assert repr(w) == "Word(letters=(2, 1, 2), rank=2)"
    same, other_rank = Word((2, 1, 2), 2), Word((2, 1, 2), 3)
    assert w == same and hash(w) == hash(same)
    assert w != other_rank and w != ((2, 1, 2), 2)
    assert {w, same, other_rank} == {w, other_rank}
    assert {w: 1}[same] == 1
    for assign in (lambda: setattr(w, "rank", 3), lambda: setattr(w, "letters", ()), lambda: delattr(w, "rank")):
        with pytest.raises(AttributeError):
            assign()
    assert w == same and not hasattr(w, "__dict__")
    # copies and pickles rebuild the word through its validation
    assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w


def test_word_validates_once_per_construction(monkeypatch):
    # the hook the benchmark's tracer wraps for its words.validate metric
    calls = []
    original = Word.__post_init__

    def counted(self):
        calls.append(self.letters)
        original(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    Word((1, 2), 2)
    Word.from_text("2 1 2", 2)
    Word(letters=[1], rank=1)
    with pytest.raises(ValueError, match="letter 3 outside"):
        Word((3,), 2)
    assert calls == [(1, 2), (2, 1, 2), [1], (3,)]


def test_violation_simple_square():
    v = canonical_violation(Word((1, 1), 1))
    assert v == CanonicalViolation(letter=1, first_pos=1, second_pos=2)


def test_violation_needs_both_sides():
    # a gap with only a greater letter still violates
    assert canonical_violation(Word((1, 2, 1), 2)) == CanonicalViolation(1, 1, 3)
    # a gap with only a smaller letter too
    assert canonical_violation(Word((2, 1, 2), 2)) == CanonicalViolation(2, 1, 3)
    # both sides present: no violation
    assert canonical_violation(Word((2, 1, 3, 2), 3)) is None


def test_violation_reports_leftmost_pair():
    # pairs ordered by second occurrence: (2, positions 1,3) completes
    # before (1, positions 2,5)
    v = canonical_violation(Word((2, 1, 2, 3, 1), 3))
    assert v == CanonicalViolation(2, 1, 3)


def test_counterexample_word_is_canonical():
    assert is_canonical(Word((2, 3, 1, 2, 4, 3), 4))


def test_transition_table_refuses_a_negative_rank():
    with pytest.raises(ValueError, match="^rank must be nonnegative, got -1$"):
        _letter_masks(-1)


def test_canonical_words_small_rank():
    canonical = [w for w in [(), (1,), (2,), (1, 2), (2, 1)] if is_canonical(Word(w, 2))]
    assert len(canonical) == 5
    assert not is_canonical(Word((1, 2, 1), 2))
    assert not is_canonical(Word((2, 1, 2), 2))


def test_occurrence_profile():
    prof = occurrence_profile(Word((2, 3, 1, 2, 4, 3), 4))
    assert sorted(prof) == [1, 2, 3, 4]
    assert prof[2].occurrences == 2
    assert prof[2].less_count == 1 and prof[2].more_count == 2
    assert all(s.within_bound for s in prof.values())


def test_occurrence_bound_fails_off_alphabet():
    # letter 1 twice in a rank-2 word: 2 > min(2^0, 2^1) = 1
    prof = occurrence_profile(Word((1, 2, 1), 2))
    assert not prof[1].within_bound


def test_plus_one_check():
    assert plus_one_check(Word((2, 3, 1, 2, 4, 3), 4))
    assert plus_one_check(Word((), 2))
    with pytest.raises(ValueError):
        plus_one_check(Word((1, 1), 1))


def test_letter_masks_match_their_definition():
    # the transition table by its definition: each letter's bit, then the
    # complements of the letters above it and of the letters below it
    for n in range(41):
        expected = []
        for x in range(1, n + 1):
            above = sum(1 << (y - 1) for y in range(x + 1, n + 1))
            below = sum(1 << (y - 1) for y in range(1, x))
            expected.append((1 << (x - 1), ~above, ~below))
        assert _letter_masks(n) == tuple(expected), n
