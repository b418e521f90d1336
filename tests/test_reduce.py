import copy
import itertools
import pickle
import time

import pytest

from kiselman import reduce
from kiselman.census import iter_canonical
from kiselman.reduce import (
    KElement,
    _deletion_index,
    canonical_form,
    generators,
    identity,
    multiply,
)
from kiselman.words import Word, _letter_masks, is_canonical


def _reduce_text(text: str, rank: int) -> str:
    return canonical_form(Word.from_text(text, rank)).word.to_text()


def test_defining_relations():
    # aa = a and aba = bab = ab for every a < b
    for rank in range(1, 5):
        for a in range(1, rank + 1):
            assert _reduce_text(f"{a} {a}", rank) == str(a)
        for a, b in itertools.combinations(range(1, rank + 1), 2):
            ab = f"{a} {b}"
            assert _reduce_text(f"{a} {b} {a}", rank) == ab
            assert _reduce_text(f"{b} {a} {b}", rank) == ab


def test_reduction_examples():
    assert _reduce_text("2 1 2", 2) == "1 2"
    assert _reduce_text("", 3) == ""
    assert _reduce_text("1 3 2 1", 3) == "1 3 2"
    assert _reduce_text("1 1 1 1", 1) == "1"


def test_canonical_words_are_fixed_points():
    for n in range(5):
        masks = _letter_masks(n)
        for letters in iter_canonical(n):
            w = Word(letters, n)
            assert _deletion_index(letters, masks) is None
            assert canonical_form(w).word == w


def test_delete_step_shortens():
    # 1 2 1 2 reduces to 1 2 in two one-letter deletions, each of a later occurrence
    masks = _letter_masks(2)
    letters = (1, 2, 1, 2)
    deleted = []
    while (idx := _deletion_index(letters, masks)) is not None:
        letters = letters[:idx] + letters[idx + 1 :]
        deleted.append(idx)
    assert deleted == [2, 2]
    assert letters == (1, 2)
    # an empty gap, where both deletions apply, drops the later occurrence
    assert _deletion_index((2, 1, 1), masks) == 2
    assert _deletion_index((2, 2), masks) == 1


def test_a_long_run_of_one_letter_reduces_in_place():
    # each deletion is made in place: "1" * 40 000 took 5-7 s when every step rebuilt the tuple
    start = time.perf_counter()
    assert canonical_form(Word((1,) * 40_000, 1)).word == Word((1,), 1)
    assert time.perf_counter() - start < 2


def test_a_deletion_past_the_end_raises(monkeypatch):
    # the step is looked up in the module at each call, and its index is deleted as given;
    # the patch stops a reducer that would step again on the word it left unchanged
    calls = []

    def past_the_end(letters, masks):
        calls.append(len(letters))
        if len(calls) > 2:
            raise RuntimeError("the word was left unchanged")
        return len(letters)

    monkeypatch.setattr(reduce, "_deletion_index", past_the_end)
    with pytest.raises(IndexError):
        canonical_form(Word((1, 1), 1))
    assert calls == [2]


def test_reduction_preserves_content():
    # content is invariant under both deletion directions
    import random

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        letters = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 12)))
        w = Word(letters, n)
        assert frozenset(canonical_form(w).word.letters) == frozenset(w.letters)


def test_kelement_rejects_non_canonical():
    with pytest.raises(ValueError, match="not a canonical word: '1 1'"):
        KElement(Word((1, 1), 1))


def test_kelement_is_an_immutable_value():
    e = canonical_form(Word((2, 1, 2), 2))
    same = KElement(Word((1, 2), 2))
    assert repr(e) == "KElement(word=Word(letters=(1, 2), rank=2))"
    assert e == same and hash(e) == hash(same) and {e: 1}[same] == 1
    assert e != KElement(Word((2, 1), 2)) and e != same.word
    assert len({e, same, *generators(2)}) == 3
    for assign in (lambda: setattr(e, "word", Word((), 2)), lambda: delattr(e, "word")):
        with pytest.raises(AttributeError):
            assign()
    assert e == same and not hasattr(e, "__dict__")
    assert copy.copy(e) == e and pickle.loads(pickle.dumps(e)) == e


def test_multiply():
    e = identity(2)
    a1, a2 = generators(2)
    assert (a1 * a2).word.letters == (1, 2)
    assert (a2 * a1 * a2).word.letters == (1, 2)
    assert (a1 * a2 * a1).word.letters == (1, 2)
    assert (e * a2).word == a2.word
    assert (a2 * e).word == a2.word
    assert str(multiply(a2, a1)) == "2 1"


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))


def test_multiplying_by_a_non_element_is_a_type_error():
    # the product defers to the other operand, so Python names both types
    g = generators(2)[0]
    for other in (3, g.word):
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*: 'KElement' and "):
            g * other


def test_generators_are_idempotent():
    for g in generators(4):
        assert (g * g).word == g.word


def test_reduction_result_always_canonical():
    # every word over small alphabets reduces to a canonical word
    for n in (1, 2, 3):
        for length in range(7):
            for letters in itertools.product(range(1, n + 1), repeat=length):
                reduced = canonical_form(Word(letters, n))
                assert is_canonical(reduced.word)
