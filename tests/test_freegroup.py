import pytest

from steergap import (
    GroupParams,
    IDENTITY,
    Word,
    count_words,
    enumerate_words,
    word_from_str,
    word_to_str,
)
from steergap.errors import CapacityError
from steergap.freegroup import MAX_COUNT_LENGTH, ball_size

from util import brute_words


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
