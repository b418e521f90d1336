"""Differential and property tests, at ranks beyond the oracle's reach.

The mask scan behind `canonical_violation` and the reducer's deletion
index are compared against the gap-slicing definitions they replace, kept
here as references; the reducer is checked for idempotence, content,
canonicity, the reverse-and-flip anti-automorphism and associativity, and
its deletion step for depending on nothing past where the owed-state pass
stops, which the oracle's memo walk assumes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kiselman.reduce import KElement, _deletion_index, canonical_form, multiply
from kiselman.words import CanonicalViolation, Word, _first_owed, _letter_masks, canonical_violation, is_canonical

PROPERTY = settings(derandomize=True, max_examples=400, deadline=None, database=None)


def reference_violation(word: Word) -> CanonicalViolation | None:
    # every pair of equal letters against the gap condition, ordered by the
    # later occurrence and then the earlier one: O(L^3)
    letters = word.letters
    for j, a in enumerate(letters):
        for i in range(j):
            if letters[i] != a:
                continue
            gap = letters[i + 1 : j]
            if not (any(x > a for x in gap) and any(x < a for x in gap)):
                return CanonicalViolation(a, i + 1, j + 1)
    return None


def reference_deletion_index(letters: tuple[int, ...]) -> int | None:
    # leftmost reducible pair of consecutive equal letters, by the position
    # of the second occurrence, with every gap sliced and scanned
    last_seen: dict[int, int] = {}
    for j, x in enumerate(letters):
        i = last_seen.get(x)
        if i is not None:
            gap = letters[i + 1 : j]
            if not any(y < x for y in gap):
                return j
            if not any(y > x for y in gap):
                return i
        last_seen[x] = j
    return None


def reference_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    while (idx := reference_deletion_index(letters)) is not None:
        letters = letters[:idx] + letters[idx + 1 :]
    return letters


def flip(letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    # reverse and map x to n + 1 - x: an anti-automorphism of K_n
    return tuple(n + 1 - x for x in reversed(letters))


@st.composite
def words(draw, min_rank: int = 1, max_rank: int = 10, max_len: int = 60) -> Word:
    """Random words, their reference reductions, and canonical words with
    one letter inserted, so that violations also sit deep in long words."""
    n = draw(st.integers(min_rank, max_rank))
    letters = tuple(draw(st.lists(st.integers(1, n), max_size=max_len)))
    shape = draw(st.sampled_from(("random", "canonical", "canonical+1")))
    if shape != "random":
        letters = reference_reduce(letters)
    if shape == "canonical+1":
        at = draw(st.integers(0, len(letters)))
        letters = letters[:at] + (draw(st.integers(1, n)),) + letters[at:]
    return Word(letters, n)


@PROPERTY
@given(words())
def test_mask_scan_gives_the_gap_scan_witness(word):
    assert canonical_violation(word) == reference_violation(word)


@PROPERTY
@given(words())
def test_mask_deletion_index_matches_gap_slicing(word):
    assert _deletion_index(word.letters, _letter_masks(word.rank)) == reference_deletion_index(word.letters)
    assert canonical_form(word).word.letters == reference_reduce(word.letters)


@PROPERTY
@given(words(max_rank=16), st.data())
def test_deletion_index_ignores_what_follows_its_stop(word, data):
    # any suffix in place of everything after the stop leaves the deletion
    masks = _letter_masks(word.rank)
    hit = _first_owed(word.letters, masks)
    if hit is not None:
        suffix = tuple(data.draw(st.lists(st.integers(1, word.rank), max_size=60)))
        head = word.letters[: hit[0] + 1]
        assert _deletion_index(head + suffix, masks) == _deletion_index(word.letters, masks)


@PROPERTY
@given(words())
def test_canonical_form_is_idempotent_keeps_content_and_is_canonical(word):
    reduced = canonical_form(word).word
    assert is_canonical(reduced)
    assert reduced.content == word.content
    assert canonical_form(reduced).word == reduced


@PROPERTY
@given(words())
def test_reverse_and_flip_commutes_with_reduction(word):
    n = word.rank
    reduced = canonical_form(word).word.letters
    assert canonical_form(Word(flip(word.letters, n), n)).word.letters == flip(reduced, n)


@st.composite
def canonical_triples(draw) -> tuple[KElement, KElement, KElement]:
    n = draw(st.integers(5, 10))
    operand = st.lists(st.integers(1, n), max_size=30).map(lambda w: canonical_form(Word(tuple(w), n)))
    return draw(operand), draw(operand), draw(operand)


@PROPERTY
@given(canonical_triples())
def test_multiply_is_associative(triple):
    x, y, z = triple
    assert multiply(multiply(x, y), z).word == multiply(x, multiply(y, z)).word
