import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steergap import (
    GroupParams,
    IDENTITY,
    InvalidGeneratorError,
    Word,
    count_words,
    enumerate_words,
    inverse,
    multiply,
    word_from_str,
    word_to_str,
)
from steergap.errors import CapacityError
from steergap.freegroup import MAX_COUNT_LENGTH, ball_size

from util import brute_words, stack_reduce


def letters_strategy(s: int, max_len: int = 8):
    """Reduced letter tuples drawn by rejection-free construction."""
    return st.lists(
        st.integers(min_value=1, max_value=s), max_size=max_len
    ).map(stack_reduce)


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(1)
    with pytest.raises(ValueError):
        GroupParams(0)
    assert GroupParams(2).s == 2


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word((1, 1))
    with pytest.raises(ValueError):
        Word((2, 1, 1, 2))
    with pytest.raises(ValueError):
        Word((0, 1))


def test_identity_and_len():
    assert len(IDENTITY) == 0
    assert len(Word((1, 2, 1))) == 3


def test_multiply_examples():
    p = GroupParams(3)
    g1, g2 = Word((1,)), Word((2,))
    assert multiply(g1, g1, p) == IDENTITY
    assert multiply(g1, g2, p) == Word((1, 2))
    # cancellation cascades through the junction
    assert multiply(Word((1, 2)), Word((2, 1)), p) == IDENTITY
    assert multiply(Word((1, 2, 3)), Word((3, 2)), p) == g1


def test_multiply_rejects_out_of_range_generator():
    p = GroupParams(2)
    with pytest.raises(InvalidGeneratorError):
        multiply(Word((3,)), IDENTITY, p)
    with pytest.raises(InvalidGeneratorError):
        multiply(IDENTITY, Word((1, 3)), p)


@given(
    u=letters_strategy(3),
    v=letters_strategy(3),
)
def test_multiply_matches_stack_reduction(u, v):
    p = GroupParams(3)
    prod = multiply(Word(u), Word(v), p)
    assert prod.letters == stack_reduce(u + v)


@given(
    u=letters_strategy(4, 6),
    v=letters_strategy(4, 6),
    w=letters_strategy(4, 6),
)
@settings(max_examples=60)
def test_multiply_associative(u, v, w):
    p = GroupParams(4)
    a, b, c = Word(u), Word(v), Word(w)
    assert multiply(multiply(a, b, p), c, p) == multiply(a, multiply(b, c, p), p)


@given(u=letters_strategy(3))
def test_inverse_cancels(u):
    p = GroupParams(3)
    w = Word(u)
    assert multiply(w, inverse(w), p) == IDENTITY
    assert multiply(inverse(w), w, p) == IDENTITY
    assert inverse(inverse(w)) == w


def test_bulk_random_closure():
    """Products of random reduced words stay reduced and match the oracle."""
    import numpy as np

    rng = np.random.default_rng(12345)
    p = GroupParams(4)
    for _ in range(10_000):
        la = stack_reduce(rng.integers(1, 5, size=rng.integers(0, 9)).tolist())
        lb = stack_reduce(rng.integers(1, 5, size=rng.integers(0, 9)).tolist())
        prod = multiply(Word(la), Word(lb), p)
        assert prod.letters == stack_reduce(la + lb)
        assert all(a != b for a, b in zip(prod.letters, prod.letters[1:]))


@pytest.mark.parametrize(
    "s,k,expected",
    [
        (2, 0, 1),
        (2, 1, 2),
        (2, 5, 2),
        (3, 1, 3),
        (3, 2, 6),
        (3, 5, 48),
        (5, 3, 80),
    ],
)
def test_count_words_examples(s, k, expected):
    assert count_words(GroupParams(s), k) == expected


@pytest.mark.parametrize("s", [2, 3, 4])
def test_counts_match_brute_enumeration(s):
    by_len = {}
    for w in brute_words(s, 5):
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    for k in range(6):
        assert count_words(GroupParams(s), k) == by_len[k]


def test_count_words_guards():
    with pytest.raises(ValueError):
        count_words(GroupParams(3), -1)
    with pytest.raises(CapacityError):
        count_words(GroupParams(3), 10**6 + 1)


@pytest.mark.parametrize("s,depth", [(2, 6), (3, 5), (4, 4)])
def test_enumeration_matches_brute_force(s, depth):
    got = [w.letters for w in enumerate_words(GroupParams(s), depth)]
    want = sorted(brute_words(s, depth), key=lambda t: (len(t), t))
    assert got == want
    assert len(got) == len(set(got))


def test_enumeration_order_is_length_then_lex():
    words = enumerate_words(GroupParams(3), 3)
    keys = [(len(w), w.letters) for w in words]
    assert keys == sorted(keys)
    assert words[0] == IDENTITY


def test_enumeration_prefix_property():
    shallow = enumerate_words(GroupParams(3), 3)
    deep = enumerate_words(GroupParams(3), 4)
    assert deep[: len(shallow)] == shallow


def test_enumeration_cap():
    with pytest.raises(CapacityError) as err:
        enumerate_words(GroupParams(5), 10, cap=1000)
    assert str(ball_size(GroupParams(5), 10)) in str(err.value)


def test_ball_size_closed_form():
    # 1 + s((s-1)^N - 1)/(s-2) for s > 2
    for s in (3, 4, 5):
        for depth in range(8):
            closed = 1 + s * ((s - 1) ** depth - 1) // (s - 2)
            assert ball_size(GroupParams(s), depth) == closed
    for depth in range(8):
        assert ball_size(GroupParams(2), depth) == 2 * depth + 1
    for s in range(2, 7):
        for depth in range(31):
            shells = sum(count_words(GroupParams(s), k) for k in range(depth + 1))
            assert ball_size(GroupParams(s), depth) == shells
    with pytest.raises(CapacityError):
        ball_size(GroupParams(3), MAX_COUNT_LENGTH + 1)


def test_word_serialization_roundtrip():
    p = GroupParams(3)
    for w in enumerate_words(p, 4):
        assert word_from_str(word_to_str(w)) == w


def test_word_serialization_examples():
    assert word_to_str(IDENTITY) == "e"
    assert word_to_str(Word((1, 2, 1))) == "g1.g2.g1"
    assert word_from_str("e") == IDENTITY
    assert word_from_str("g2.g1") == Word((2, 1))
    assert word_from_str(" g10 ") == Word((10,))


@pytest.mark.parametrize("bad", ["g0", "g1..g2", "h1", "g1.g1", "g-1", "1", "g"])
def test_word_serialization_rejects_garbage(bad):
    with pytest.raises(ValueError):
        word_from_str(bad)
