import numpy as np
import pytest

from steergap import (
    IDENTITY,
    GroupParams,
    Word,
    build_basis,
    generator_average,
    left_regular,
    right_regular,
)
from steergap.errors import CapacityError
from steergap.hilbert import gather

from util import (
    brute_words,
    dense_left_shift,
    dense_right_shift,
    random_buffered_amplitudes,
    stack_reduce,
)


@pytest.fixture(scope="module")
def basis3():
    return build_basis(GroupParams(3), 4)


def dense(row, basis):
    """The D x D matrix of the shift whose image row is ``row``."""
    return gather(np.eye(basis.dimension), row)


def basis_vector(basis, word=IDENTITY):
    return np.eye(basis.dimension)[basis.index_of(word)]


def dense_average(basis):
    """The D x D matrix of the averaged shift, one parity block at a time."""
    apply, sizes = generator_average(basis.params, basis.depth)
    indices = basis.parity_indices
    mat = np.zeros((basis.dimension, basis.dimension))
    for c in (0, 1):
        mat[np.ix_(indices[1 - c], indices[c])] = apply(np.eye(sizes[c]), c)
    return mat


def brute_basis_words(s: int, depth: int) -> list[Word]:
    """The reduced words of length <= depth in (length, lex) order."""
    return [Word(t) for t in sorted(brute_words(s, depth), key=lambda t: (len(t), t))]


def test_basis_dimensions():
    assert build_basis(GroupParams(3), 0).dimension == 1
    assert build_basis(GroupParams(3), 2).dimension == 10
    assert build_basis(GroupParams(2), 5).dimension == 11
    assert build_basis(GroupParams(5), 3).dimension == 106


def test_basis_shells_and_lookup(basis3):
    assert basis3.shell(0) == range(0, 1)
    assert basis3.shell(1) == range(1, 4)
    assert basis3.shell(2) == range(4, 10)
    words = brute_basis_words(3, basis3.depth)
    for k in range(basis3.depth + 1):
        for i in basis3.shell(k):
            assert len(words[i]) == k
            assert basis3.index_of(words[i]) == i
    with pytest.raises(ValueError):
        basis3.index_of(Word((1, 2, 1, 2, 1)))


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_index_arithmetic_matches_brute_order(s):
    """Mixed-radix indices, suffixes and first letters against brute force."""
    depth = 9 - s
    basis = build_basis(GroupParams(s), depth)
    words = sorted(brute_words(s, depth), key=lambda t: (len(t), t))
    assert basis.dimension == len(words)
    position = {t: i for i, t in enumerate(words)}
    suffixes = basis.suffixes()
    first = basis.first_letters()
    assert (suffixes[0], first[0]) == (-1, 0)
    for i, t in enumerate(words):
        assert basis.index_of(Word(t)) == i
        if t:
            assert suffixes[i] == position[t[1:]]
            assert first[i] == t[0]
    with pytest.raises(ValueError):
        basis.index_of(Word((s + 1,)))


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_parity_split_matches_brute_order(s):
    """Each left image of an even word is odd and the reverse, -1 only past the cut."""
    depth = 9 - s
    basis = build_basis(GroupParams(s), depth)
    words = sorted(brute_words(s, depth), key=lambda t: (len(t), t))
    split = basis.parity_split
    assert sorted(np.concatenate(split.indices)) == list(range(len(words)))
    for c in (0, 1):
        idx, other, images = split.indices[c], split.indices[1 - c], split.images[c]
        assert all(len(words[i]) % 2 == c for i in idx)
        assert images.shape == (s, len(idx))
        assert images.flags.c_contiguous and not images.flags.writeable
        back = np.where(images >= 0, other[images], -1)
        assert np.array_equal(back, basis.left_image_stack[:, idx])
        for y in range(1, s + 1):
            for i, j in zip(idx, images[y - 1]):
                image = stack_reduce((y,) + words[i])
                if j < 0:
                    assert len(words[i]) == depth and len(image) == depth + 1
                else:
                    assert words[other[j]] == image and len(image) % 2 == 1 - c


def test_basis_prefix_property():
    small = build_basis(GroupParams(3), 3)
    big = build_basis(GroupParams(3), 4)
    for w in brute_basis_words(3, small.depth):
        assert big.index_of(w) == small.index_of(w) < small.dimension


def test_basis_cap():
    with pytest.raises(CapacityError):
        build_basis(GroupParams(5), 12, cap=10_000)


@pytest.mark.parametrize(
    "s,depth", [(2, 5), (2, 7), (3, 0), (3, 1), (3, 3), (4, 3), (5, 3)]
)
def test_left_shift_matches_definition(s, depth):
    basis = build_basis(GroupParams(s), depth)
    for y in range(1, s + 1):
        got = dense(left_regular(y, basis), basis)
        want = dense_left_shift(s, depth, y, brute_basis_words(s, depth))
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "s,depth", [(2, 5), (2, 7), (3, 0), (3, 1), (3, 3), (4, 3), (5, 3)]
)
def test_right_shift_matches_definition(s, depth):
    basis = build_basis(GroupParams(s), depth)
    for x in range(1, s + 1):
        got = dense(right_regular(x, basis), basis)
        want = dense_right_shift(s, depth, x, brute_basis_words(s, depth))
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "name,regular",
    [("left_image_stack", left_regular), ("right_image_stack", right_regular)],
    ids=("left", "right"),
)
def test_image_stack_is_cached_and_read_only(basis3, name, regular):
    stack = getattr(basis3, name)
    assert stack is getattr(basis3, name)
    assert stack.shape == (3, basis3.dimension) and not stack.flags.writeable
    assert stack.flags.c_contiguous
    for x in range(1, 4):
        row = regular(x, basis3)
        assert np.shares_memory(row, stack) and not row.flags.writeable


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("depth", range(7))
def test_image_past_the_cut_exactly_on_outer_shell(s, depth):
    """The channel's walk-off guard watches the outermost shell alone."""
    basis = build_basis(GroupParams(s), depth)
    for stack in (basis.left_image_stack, basis.right_image_stack):
        cut = np.flatnonzero(np.any(stack < 0, axis=0))
        assert np.array_equal(cut, basis.shell(depth))


def test_shift_matrices_are_symmetric(basis3):
    for y in range(1, 4):
        m = dense(left_regular(y, basis3), basis3)
        assert np.array_equal(m, m.T)
        m = dense(right_regular(y, basis3), basis3)
        assert np.array_equal(m, m.T)


def test_shift_norm_at_most_one(basis3):
    for y in range(1, 4):
        m = dense(left_regular(y, basis3), basis3)
        assert np.linalg.norm(m, 2) <= 1.0 + 1e-12


def test_invalid_generator_rejected(basis3):
    from steergap import InvalidGeneratorError

    with pytest.raises(InvalidGeneratorError):
        left_regular(4, basis3)
    with pytest.raises(InvalidGeneratorError):
        right_regular(0, basis3)


def test_apply_examples(basis3):
    g1 = gather(basis_vector(basis3), left_regular(1, basis3))
    assert g1[basis3.index_of(Word((1,)))] == 1.0
    assert np.linalg.norm(g1) == 1.0
    assert np.array_equal(g1, basis_vector(basis3, Word((1,))))
    # right shift appends instead
    h = gather(g1, right_regular(2, basis3))
    assert h[basis3.index_of(Word((1, 2)))] == 1.0


def test_left_shift_is_buffered_involution(basis3):
    rng = np.random.default_rng(0)
    for y in range(1, 4):
        row = left_regular(y, basis3)
        amps = random_buffered_amplitudes(rng, basis3, basis3.depth - 1)
        twice = gather(gather(amps, row), row)
        assert np.allclose(twice, amps, atol=1e-15)


def test_left_and_right_shifts_commute(basis3):
    rng = np.random.default_rng(1)
    amps = random_buffered_amplitudes(rng, basis3, basis3.depth - 2)
    for y in range(1, 4):
        for x in range(1, 4):
            sy, rx = left_regular(y, basis3), right_regular(x, basis3)
            lr = gather(gather(amps, rx), sy)
            rl = gather(gather(amps, sy), rx)
            assert np.array_equal(lr, rl)


def test_gather_reads_minus_one_as_a_zero_of_the_same_dtype():
    images = np.array([[2, -1, 0], [-1, 1, 2]])
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    got = gather(v, images)
    assert got.shape == (2, 3, 2)
    assert np.array_equal(got[0], [[5, 6], [0, 0], [1, 2]])
    assert np.array_equal(got[1], [[0, 0], [3, 4], [5, 6]])
    big = np.array([2**70, 1, 2], dtype=object)
    summed = gather(big, images).sum(axis=0)
    assert list(summed) == [2, 1, 2**70 + 2]
    assert all(type(x) is int for x in summed)


def test_exactness_depth_contract():
    """A buffered application agrees with the same one done on a deeper space."""
    small = build_basis(GroupParams(3), 3)
    big = build_basis(GroupParams(3), 5)
    rng = np.random.default_rng(2)
    amps = random_buffered_amplitudes(rng, small, small.depth - 1)
    big_amps = np.zeros(big.dimension)
    big_amps[: small.dimension] = amps
    for y in range(1, 4):
        out_small = gather(amps, left_regular(y, small))
        out_big = gather(big_amps, left_regular(y, big))
        assert np.array_equal(out_big[: small.dimension], out_small)
        assert np.all(out_big[small.dimension :] == 0.0)


def test_truncation_loses_boundary_weight(basis3):
    """At the cut the compressed shift annihilates outward motion."""
    boundary_word = brute_basis_words(3, basis3.depth)[basis3.dimension - 1]
    v = basis_vector(basis3, boundary_word)
    y = next(
        g for g in range(1, 4) if g != boundary_word.letters[0]
    )
    out = gather(v, left_regular(y, basis3))
    assert np.linalg.norm(out) == 0.0


def test_generator_average_entries(basis3):
    e = basis_vector(basis3)
    oe = dense_average(basis3) @ e
    assert abs(e @ oe) < 1e-16
    for y in range(1, 4):
        assert oe[basis3.index_of(Word((y,)))] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "s,depth",
    [(2, 1), (2, 6), (3, 0), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 4)],
)
def test_generator_average_matches_definition(s, depth):
    basis = build_basis(GroupParams(s), depth)
    words = brute_basis_words(s, depth)
    want = sum(dense_left_shift(s, depth, y, words) for y in range(1, s + 1)) / s
    assert np.array_equal(dense_average(basis), want)


@pytest.mark.parametrize("s,depth", [(2, 5), (3, 4), (5, 3)])
def test_generator_average_block_input_is_columnwise(s, depth):
    """A (sizes[c], r) block is mapped as r separate columns."""
    apply, sizes = generator_average(GroupParams(s), depth)
    rng = np.random.default_rng(s + depth)
    for c in (0, 1):
        block = rng.standard_normal((sizes[c], 3))
        want = np.stack([apply(col, c) for col in block.T], axis=1)
        assert np.array_equal(apply(block, c), want)


def test_generator_average_interior_rows_s2():
    basis = build_basis(GroupParams(2), 6)
    mat = dense_average(basis)
    for k in range(1, 6):
        for i in basis.shell(k):
            row = mat[i]
            assert np.count_nonzero(row) == 2
            assert np.allclose(row[row != 0], 0.5)


def test_average_reaches_one_shell_further_per_application(basis3):
    """Each application of the average reaches one shell further, up to the cut.

    Past the cut the outermost shell can only step inward, so the fifth
    application at depth 4 ends on shell 3.
    """
    apply, sizes = generator_average(basis3.params, basis3.depth)
    indices = basis3.parity_indices
    part, c = np.eye(sizes[0])[0], 0  # the identity is the first even word
    for expected in (1, 2, 3, 4, 3):
        part, c = apply(part, c), 1 - c
        amps = np.zeros(basis3.dimension)
        amps[indices[c]] = part
        reached = [k for k in range(basis3.depth + 1) if np.any(amps[basis3.shell(k)])]
        assert max(reached) == expected
