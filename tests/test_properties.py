"""Differential and property tests, at ranks beyond the oracle's reach.

The mask scan behind `canonical_violation` and the deletion index it
returns to the reducer are compared against the gap-slicing definitions they replace, kept
here as references, also on products of two near-maximal canonical words,
whose deletions cascade deep at the junction; the reducer is checked for
idempotence, content, canonicity, the reverse-and-flip anti-automorphism
and associativity, and its deletion step for depending on nothing past
where the owed-state pass stops, which the oracle's memo walk assumes.
Every deletion the reducer makes is also replayed as a chain of single
defining-relation steps, so w and its canonical form are equal in K_n at
any length, not only within the oracle's cap.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiselman.reduce import KElement, canonical_form, multiply
from kiselman.words import (
    CanonicalViolation,
    Word,
    _first_owed,
    _letter_masks,
    canonical_violation,
    is_canonical,
    length_bound,
)
from long_words import spliced

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


def reference_deletion(letters: tuple[int, ...]) -> int | None:
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
    while (idx := reference_deletion(letters)) is not None:
        letters = letters[:idx] + letters[idx + 1 :]
    return letters


def deletion(letters, masks) -> int | None:
    # the index the owed-state pass returns to delete, from position 0
    hit = _first_owed(letters, masks)
    return None if hit is None else hit[1]


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


@st.composite
def long_canonical(draw, n: int) -> tuple[int, ...]:
    # a factor of a spliced word, so canonical, of length L(n), L(n) - 1 or L(n) - 2
    letters = spliced(n, lambda options: draw(st.sampled_from(options)))
    cut = draw(st.integers(0, min(2, len(letters))))
    head = draw(st.integers(0, cut))
    return letters[head : len(letters) - cut + head]


@PROPERTY
@given(words())
def test_mask_scan_gives_the_gap_scan_witness(word):
    assert canonical_violation(word) == reference_violation(word)


@PROPERTY
@given(words())
def test_mask_deletion_matches_gap_slicing(word):
    assert deletion(word.letters, _letter_masks(word.rank)) == reference_deletion(word.letters)
    assert canonical_form(word).word.letters == reference_reduce(word.letters)


@PROPERTY
@given(words(max_rank=16), st.data())
def test_deletion_ignores_what_follows_its_stop(word, data):
    # any suffix in place of everything after the stop leaves the deletion
    masks = _letter_masks(word.rank)
    hit = _first_owed(word.letters, masks)
    if hit is not None:
        suffix = tuple(data.draw(st.lists(st.integers(1, word.rank), max_size=60)))
        head = word.letters[: hit[0] + 1]
        assert _first_owed(head + suffix, masks) == hit


@PROPERTY
@given(words())
def test_canonical_form_is_idempotent_keeps_content_and_is_canonical(word):
    reduced = canonical_form(word).word
    assert is_canonical(reduced)
    assert frozenset(reduced.letters) == frozenset(word.letters)
    assert canonical_form(reduced).word == reduced


@PROPERTY
@given(words())
def test_reverse_and_flip_commutes_with_reduction(word):
    n = word.rank
    reduced = canonical_form(word).word.letters
    assert canonical_form(Word(flip(word.letters, n), n)).word.letters == flip(reduced, n)


@st.composite
def long_pairs(draw) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    n = draw(st.integers(1, 16))
    return n, draw(long_canonical(n)), draw(long_canonical(n))


@settings(PROPERTY, max_examples=60)
@given(long_pairs())
def test_products_of_long_canonical_words_reduce_as_the_references_do(pair):
    # their junction deletes about L(n) letters, most of them deep in the word
    n, u, v = pair
    assert is_canonical(Word(u, n)) and is_canonical(Word(v, n))
    assert min(len(u), len(v)) >= length_bound(n) - 2
    masks = _letter_masks(n)
    letters = list(u + v)
    while (d := deletion(letters, masks)) is not None:  # each step from position 0
        del letters[d]
    reduced = canonical_form(Word(u + v, n)).word.letters
    assert reduced == tuple(letters) == reference_reduce(u + v)


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


# The replay checker knows only the defining relations, each applied at one position in either
# direction, and reads each gap itself; it calls neither _first_owed nor _letter_masks.


def is_relation(left: tuple[int, ...], right: tuple[int, ...]) -> bool:
    # x x = x, and a b a = a b = b a b for a < b
    short, long = sorted((left, right), key=len)
    if len(long) == 2:
        return long == short * 2
    return len(short) == 2 and short[0] < short[1] and long in (short + short[:1], short[1:] + short)


def rewrite(letters: tuple[int, ...], at: int, left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    assert is_relation(left, right), f"{left} = {right} is not a defining relation"
    assert letters[at : at + len(left)] == left, f"{left} is not at position {at} of {letters}"
    return letters[:at] + right + letters[at + len(left) :]


def replay_deletion(letters: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Derive letters without position d from letters by single relation steps.

    The deleted x pairs with its nearest occurrence on one side, across the gap
    u = y1 ... yk: x u x -> x u takes 2k - 1 steps when x is below every letter
    of u, the mirror chain gives u x when x is above every one, and x x -> x
    is one step.
    """
    x = letters[d]
    before = [i for i in range(d) if letters[i] == x]
    after = [i for i in range(d + 1, len(letters)) if letters[i] == x]
    if before and min(letters[before[-1] + 1 : d], default=x + 1) > x:
        p, u, keep_first = before[-1], letters[before[-1] + 1 : d], True
    elif after and max(letters[d + 1 : after[0]], default=x - 1) < x:
        p, u, keep_first = d, letters[d + 1 : after[0]], False
    else:
        raise AssertionError(f"no relation deletes position {d} of {letters}")
    word, k = letters, len(u)
    if k == 0:
        return rewrite(word, p, (x, x), (x,))
    if keep_first:
        for i in range(k - 1):  # x y -> x y x after y1 ... y(k-1)
            word = rewrite(word, p + 2 * i, (x, u[i]), (x, u[i], x))
        word = rewrite(word, p + 2 * k - 2, (x, u[-1], x), (x, u[-1]))
        for i in reversed(range(k - 1)):  # the inserted x's, last first
            word = rewrite(word, p + 2 * i, (x, u[i], x), (x, u[i]))
    else:
        for i in reversed(range(1, k)):  # y x -> x y x before yk ... y2
            word = rewrite(word, p + 1 + i, (u[i], x), (x, u[i], x))
        word = rewrite(word, p, (x, u[0], x), (u[0], x))
        for i in range(1, k):  # the inserted x's, first first
            word = rewrite(word, p + i, (x, u[i], x), (u[i], x))
    return word


def replay_reduction(word: Word) -> None:
    # the reducer steps as canonical_form does; the checker replays each deletion it claims
    masks = _letter_masks(word.rank)
    letters = word.letters
    while (d := deletion(letters, masks)) is not None:
        reduced = letters[:d] + letters[d + 1 :]
        assert replay_deletion(letters, d) == reduced, (letters, d)
        letters = reduced
    assert letters == canonical_form(word).word.letters


def test_replay_refuses_what_the_relations_do_not_give():
    assert not is_relation((1, 2, 1), (2, 1)) and not is_relation((2, 1, 2), (1, 2, 1))
    for letters, d in [((1, 2, 1), 0), ((2, 1, 2), 2), ((2, 1, 3, 2), 3), ((1,), 0)]:
        with pytest.raises(AssertionError):
            replay_deletion(letters, d)


@PROPERTY
@given(words(min_rank=2, max_rank=12))
def test_every_deletion_replays_through_the_defining_relations(word):
    replay_reduction(word)


def test_every_deletion_replays_on_every_short_word():
    for length in range(7):
        for letters in product(range(1, 5), repeat=length):
            replay_reduction(Word(letters, 4))
