import tracemalloc

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
from steergap.hilbert import _lettered

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


def dense(shift, basis):
    """The D x D matrix of a single shift, from its action on the identity."""
    return shift(np.eye(basis.dimension))


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
    """Mixed-radix indices against brute force."""
    depth = 9 - s
    basis = build_basis(GroupParams(s), depth)
    words = sorted(brute_words(s, depth), key=lambda t: (len(t), t))
    assert basis.dimension == len(words)
    for i, t in enumerate(words):
        assert basis.index_of(Word(t)) == i
    with pytest.raises(ValueError):
        basis.index_of(Word((s + 1,)))


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_parity_split_matches_brute_order(s):
    """Each left image of an even word is odd and the reverse, zero only past the cut."""
    depth = 9 - s
    basis = build_basis(GroupParams(s), depth)
    words = sorted(brute_words(s, depth), key=lambda t: (len(t), t))
    indices = basis.parity_indices
    assert sorted(np.concatenate(indices)) == list(range(len(words)))
    eye = np.eye(basis.dimension)
    for c in (0, 1):
        idx = indices[c]
        assert all(len(words[i]) % 2 == c for i in idx)
        for y in range(1, s + 1):
            images = left_regular(y, basis)(eye[:, idx])
            for i, col in zip(idx, images.T):
                image = stack_reduce((y,) + words[i])
                if not col.any():
                    assert len(words[i]) == depth and len(image) == depth + 1
                else:
                    (j,) = np.flatnonzero(col)
                    assert col[j] == 1.0 and words[j] == image
                    assert j in indices[1 - c]


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_lettered_form_matches_brute_words(s, c):
    """sum_y C_y (x) S_y from class c: d x d letters in float, the plain sum
    exactly on Python ints, both against shifts built from the definition."""
    depth = 8 - s
    params = GroupParams(s)
    basis = build_basis(params, depth)
    words = brute_basis_words(s, depth)
    shifts = [dense_left_shift(s, depth, y, words) for y in range(1, s + 1)]
    idx, other = basis.parity_indices[c], basis.parity_indices[1 - c]
    rng = np.random.default_rng(10 * s + c)
    coefs = rng.standard_normal((s, 2, 2))
    apply, sizes = _lettered(params, depth, coefs)
    part = rng.standard_normal((sizes[c], 2))
    state = np.zeros((2, basis.dimension))  # a d x D state, raveled for kron
    state[:, idx] = part.T
    want = sum(np.kron(a, b) for a, b in zip(coefs, shifts)) @ state.ravel()
    want = want.reshape(2, -1)
    assert not np.any(want[:, idx])
    assert np.allclose(apply(part, c).T, want[:, other], rtol=0, atol=1e-13)

    apply, _ = _lettered(params, depth)
    ints = np.zeros(basis.dimension, dtype=object)
    ints[idx] = [3**40 + i for i in range(sizes[c])]
    exact = sum(shifts).astype(int).astype(object) @ ints
    got = apply(ints[idx], c)
    assert all(type(x) is int for x in got)
    assert list(got) == list(exact[other])


def test_basis_prefix_property():
    small = build_basis(GroupParams(3), 3)
    big = build_basis(GroupParams(3), 4)
    for w in brute_basis_words(3, small.depth):
        assert big.index_of(w) == small.index_of(w) < small.dimension


def test_basis_cap():
    with pytest.raises(CapacityError):
        build_basis(GroupParams(5), 12, cap=10_000)


SHIFT_CASES = [
    (2, 0), (2, 1), (2, 5), (2, 7), (3, 0), (3, 1), (3, 3),
    (4, 1), (4, 3), (5, 1), (5, 2), (5, 3),
]


@pytest.mark.parametrize("s,depth", SHIFT_CASES)
def test_left_shift_matches_definition(s, depth):
    basis = build_basis(GroupParams(s), depth)
    for y in range(1, s + 1):
        got = dense(left_regular(y, basis), basis)
        want = dense_left_shift(s, depth, y, brute_basis_words(s, depth))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("s,depth", SHIFT_CASES)
def test_right_shift_matches_definition(s, depth):
    basis = build_basis(GroupParams(s), depth)
    for x in range(1, s + 1):
        got = dense(right_regular(x, basis), basis)
        want = dense_right_shift(s, depth, x, brute_basis_words(s, depth))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("regular", [left_regular, right_regular], ids=("left", "right"))
def test_single_shift_acts_columnwise_and_keeps_its_input(basis3, regular):
    """A (D, ...) array maps to a new one of its shape and dtype, column by column."""
    block = np.random.default_rng(3).standard_normal((basis3.dimension, 2, 3))
    before = block.copy()
    for x in range(1, 4):
        shift = regular(x, basis3)
        out = shift(block)
        assert out.shape == block.shape and out.dtype == block.dtype
        assert not np.shares_memory(out, block)
        assert np.array_equal(out[:, 1, 2], shift(block[:, 1, 2]))
    assert np.array_equal(block, before)


def test_index_arrays_are_cached_and_read_only(basis3):
    assert basis3.parity_indices is basis3.parity_indices
    for arr in basis3.parity_indices:
        with pytest.raises(ValueError):
            arr[1] = 2


def test_basis_and_stack_memory():
    """The basis holds only its shell offsets, and no (s, D) image stack is
    built: a single shift, built and applied, peaks below one such stack."""
    tracemalloc.start()
    try:
        build_basis(GroupParams(3), 19)
        basis_peak = tracemalloc.get_traced_memory()[1]
        basis = build_basis(GroupParams(3), 16)
        v = np.ones(basis.dimension)
        peaks = []
        for regular in (left_regular, right_regular):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            regular(2, basis)(v)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert basis_peak < 2**20
    assert max(peaks) < 8 * 3 * basis.dimension


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("depth", range(7))
def test_image_past_the_cut_exactly_on_outer_shell(s, depth):
    """The channel's walk-off guard watches the outermost shell alone."""
    basis = build_basis(GroupParams(s), depth)
    ones = np.ones(basis.dimension)
    for regular in (left_regular, right_regular):
        # Each shift is symmetric, so a zero row sum is a word whose image
        # leaves the ball.
        cut = np.zeros(basis.dimension, dtype=bool)
        for g in range(1, s + 1):
            cut |= regular(g, basis)(ones) == 0
        assert np.array_equal(np.flatnonzero(cut), basis.shell(depth))


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
    g1 = left_regular(1, basis3)(basis_vector(basis3))
    assert g1[basis3.index_of(Word((1,)))] == 1.0
    assert np.linalg.norm(g1) == 1.0
    assert np.array_equal(g1, basis_vector(basis3, Word((1,))))
    # right shift appends instead
    h = right_regular(2, basis3)(g1)
    assert h[basis3.index_of(Word((1, 2)))] == 1.0


def test_left_shift_is_buffered_involution(basis3):
    rng = np.random.default_rng(0)
    for y in range(1, 4):
        shift = left_regular(y, basis3)
        amps = random_buffered_amplitudes(rng, basis3, basis3.depth - 1)
        twice = shift(shift(amps))
        assert np.allclose(twice, amps, atol=1e-15)


def test_left_and_right_shifts_commute(basis3):
    rng = np.random.default_rng(1)
    amps = random_buffered_amplitudes(rng, basis3, basis3.depth - 2)
    for y in range(1, 4):
        for x in range(1, 4):
            sy, rx = left_regular(y, basis3), right_regular(x, basis3)
            lr = sy(rx(amps))
            rl = rx(sy(amps))
            assert np.array_equal(lr, rl)


def test_shift_reads_past_the_cut_as_a_zero_of_the_same_dtype(basis3):
    """On an object array of big integers each shift moves them exactly, and
    an image past the cut reads as the int 0."""
    values = np.array([2**70 + i for i in range(basis3.dimension)], dtype=object)
    for shift in (left_regular(1, basis3), right_regular(2, basis3)):
        matrix = dense(shift, basis3)
        got = shift(values)
        assert all(type(x) is int for x in got)
        want = [values[np.argmax(row)] if row.any() else 0 for row in matrix]
        assert list(got) == want and 0 in want


def test_exactness_depth_contract():
    """A buffered application agrees with the same one done on a deeper space."""
    small = build_basis(GroupParams(3), 3)
    big = build_basis(GroupParams(3), 5)
    rng = np.random.default_rng(2)
    amps = random_buffered_amplitudes(rng, small, small.depth - 1)
    big_amps = np.zeros(big.dimension)
    big_amps[: small.dimension] = amps
    for y in range(1, 4):
        out_small = left_regular(y, small)(amps)
        out_big = left_regular(y, big)(big_amps)
        assert np.array_equal(out_big[: small.dimension], out_small)
        assert np.all(out_big[small.dimension :] == 0.0)


def test_truncation_loses_boundary_weight(basis3):
    """At the cut the compressed shift annihilates outward motion."""
    boundary_word = brute_basis_words(3, basis3.depth)[basis3.dimension - 1]
    v = basis_vector(basis3, boundary_word)
    y = next(
        g for g in range(1, 4) if g != boundary_word.letters[0]
    )
    out = left_regular(y, basis3)(v)
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
