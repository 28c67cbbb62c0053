import ast
import tracemalloc
from pathlib import Path

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
from steergap import hilbert
from steergap.errors import CapacityError
from steergap.hilbert import _letter_pairs, _lettered

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


def brute_position(basis, word):
    """A word's index in the brute-force (length, lex) order of the ball."""
    return brute_basis_words(basis.params.s, basis.depth).index(word)


def basis_vector(basis, word=IDENTITY):
    return np.eye(basis.dimension)[brute_position(basis, word)]


def dense_average(basis):
    """The D x D matrix of the averaged shift, one parity block at a time:
    row j is the image of basis vector j, the other class's part of it."""
    apply, _ = generator_average(basis.params, basis.depth)
    parts = basis.split_parity(np.eye(basis.dimension))
    return basis.merge_parity([apply(parts[1 - c], 1 - c) for c in (0, 1)]).T


def class_parts(basis):
    """The basis indices of the even-length words, then of the odd ones."""
    return basis.split_parity(np.arange(basis.dimension))


def brute_basis_words(s: int, depth: int) -> list[Word]:
    """The reduced words of length <= depth in (length, lex) order."""
    return [Word(t) for t in sorted(brute_words(s, depth), key=lambda t: (len(t), t))]


def test_basis_dimensions():
    assert build_basis(GroupParams(3), 0).dimension == 1
    assert build_basis(GroupParams(3), 2).dimension == 10
    assert build_basis(GroupParams(2), 5).dimension == 11
    assert build_basis(GroupParams(5), 3).dimension == 106


def test_basis_shells_and_lookup(basis3):
    """Shell k is the basis slice ``depth_offsets[k:k+2]``: every word of
    the brute-force order sits in the shell of its length."""
    offsets = basis3.depth_offsets
    assert offsets == (0, 1, 4, 10, 22, 46)
    words = brute_basis_words(3, basis3.depth)
    for k in range(basis3.depth + 1):
        assert all(len(w) == k for w in words[offsets[k] : offsets[k + 1]])
        assert basis3.prefix_dimension(k) == offsets[k + 1]


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_index_arithmetic_matches_brute_order(s):
    """The shell offsets, the basis's only index arithmetic, against brute force."""
    depth = 9 - s
    basis = build_basis(GroupParams(s), depth)
    lengths = [len(w) for w in brute_basis_words(s, depth)]
    assert basis.dimension == len(lengths)
    want = tuple(sum(n < k for n in lengths) for k in range(depth + 2))
    assert basis.depth_offsets == want


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_parity_split_matches_brute_order(s):
    """Class c lists the words of length parity c in brute order, and each left
    image of a class-c word lies in the other class, zero only past the cut."""
    depth = 9 - s
    basis = build_basis(GroupParams(s), depth)
    words = [w.letters for w in brute_basis_words(s, depth)]
    indices = class_parts(basis)
    for c in (0, 1):
        assert [words[i] for i in indices[c]] == [w for w in words if len(w) % 2 == c]
    eye = np.eye(basis.dimension)
    for c in (0, 1):
        for y in range(1, s + 1):
            images = basis.split_parity(left_regular(y, basis)(eye[:, indices[c]]).T)
            assert not np.any(images[c])
            for i, col in zip(indices[c], images[1 - c]):
                image = stack_reduce((y,) + words[i])
                if not col.any():
                    assert len(words[i]) == depth and len(image) == depth + 1
                else:
                    (j,) = np.flatnonzero(col)
                    assert col[j] == 1.0 and words[indices[1 - c][j]] == image


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)], ids=("D", "nD", "pdD"))
@pytest.mark.parametrize("s,depth", [(2, 0), (2, 5), (3, 4), (5, 3)])
def test_split_and_merge_parity_round_trip(s, depth, shape):
    """``merge_parity`` inverts ``split_parity`` on the last axis of an array
    of any rank, keeping its dtype, with class parts of the lettered sizes."""
    params = GroupParams(s)
    basis = build_basis(params, depth)
    sizes = _lettered(params, depth)[1]
    rng = np.random.default_rng(depth)
    for a in (
        rng.standard_normal(shape + (basis.dimension,)),
        rng.integers(-9, 9, shape + (basis.dimension,)),
    ):
        parts = basis.split_parity(a)
        assert [p.shape for p in parts] == [shape + (n,) for n in sizes]
        merged = basis.merge_parity(parts)
        assert merged.dtype == a.dtype and np.array_equal(merged, a)
        again = basis.split_parity(merged)
        assert all(np.array_equal(x, y) for x, y in zip(again, parts))


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_lettered_form_matches_brute_words(s, c):
    """sum_y C_y (x) S_y from class c against shifts built from the
    definition: d x d letters on a d x D_c part, scaled by 1/s, through
    ``generator_average``, and the plain sum exactly on Python ints."""
    depth = 8 - s
    params = GroupParams(s)
    basis = build_basis(params, depth)
    words = brute_basis_words(s, depth)
    shifts = [dense_left_shift(s, depth, y, words) for y in range(1, s + 1)]
    parts = class_parts(basis)
    idx, other = parts[c], parts[1 - c]
    rng = np.random.default_rng(10 * s + c)
    coefs = rng.standard_normal((s, 2, 2))
    apply, sizes = generator_average(params, depth, coefs)
    part = rng.standard_normal((2, sizes[c]))
    state = np.zeros((2, basis.dimension))  # a d x D state, raveled for kron
    state[:, idx] = part
    want = sum(np.kron(a, b) for a, b in zip(coefs, shifts)) @ state.ravel() / s
    want = want.reshape(2, -1)
    assert not np.any(want[:, idx])
    assert np.allclose(apply(part, c), want[:, other], rtol=0, atol=1e-13)

    apply, _ = _lettered(params, depth)
    ints = np.zeros(basis.dimension, dtype=object)
    ints[idx] = [3**40 + i for i in range(sizes[c])]
    exact = sum(shifts).astype(int).astype(object) @ ints
    got = apply(ints[idx], c)
    assert all(type(x) is int for x in got)
    assert list(got) == list(exact[other])


def test_basis_prefix_property():
    """The depth-3 ball is a prefix of the depth-4 one, shell by shell and in
    each parity class."""
    small = build_basis(GroupParams(3), 3)
    big = build_basis(GroupParams(3), 4)
    assert big.depth_offsets[: small.depth + 2] == small.depth_offsets
    for part, big_part in zip(class_parts(small), class_parts(big)):
        assert np.array_equal(big_part[: len(part)], part)


def test_basis_cap():
    """An over-cap ball is refused at the default cap."""
    with pytest.raises(CapacityError):
        build_basis(GroupParams(5), 12)


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


def test_basis_holds_no_index_array(basis3):
    """After a split and a merge the basis still holds no array: its layout
    is its shell offsets alone."""
    a = np.arange(2.0 * basis3.dimension).reshape(2, -1)
    basis3.merge_parity(basis3.split_parity(a))
    assert set(vars(basis3)) == {"params", "depth", "dimension", "depth_offsets"}
    assert not any(isinstance(v, np.ndarray) for v in vars(basis3).values())
    assert all(type(n) is int for n in basis3.depth_offsets)


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
        outer = np.arange(basis.depth_offsets[depth], basis.dimension)
        assert np.array_equal(np.flatnonzero(cut), outer)


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
    assert g1[brute_position(basis3, Word((1,)))] == 1.0
    assert np.linalg.norm(g1) == 1.0
    assert np.array_equal(g1, basis_vector(basis3, Word((1,))))
    # right shift appends instead
    h = right_regular(2, basis3)(g1)
    assert h[brute_position(basis3, Word((1, 2)))] == 1.0


def test_left_shift_is_buffered_involution(basis3):
    rng = np.random.default_rng(0)
    for y in range(1, 4):
        shift = left_regular(y, basis3)
        amps = random_buffered_amplitudes(rng, basis3, basis3.depth - 1)
        twice = shift(shift(amps))
        assert np.allclose(twice, amps, atol=1e-15)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("depth", range(6))
def test_letter_pairs_match_brute_words(s, depth):
    """Row y of each ``children`` table is the words of its shell that start
    with y, in basis order, and row y of ``parents`` those words with the
    first letter dropped; the children rows tile shells 1..depth."""
    words = brute_words(s, depth)
    index = {w: i for i, w in enumerate(words)}
    tiled = []
    pairs = list(_letter_pairs(build_basis(GroupParams(s), depth)))
    assert len(pairs) == depth
    for k, (children, parents) in enumerate(pairs):
        assert children.shape == parents.shape and len(children) == s
        for y, (row, parent_row) in enumerate(zip(children, parents), start=1):
            want = [i for i, w in enumerate(words) if len(w) == k + 1 and w[0] == y]
            assert row.tolist() == want
            assert parent_row.tolist() == [index[words[i][1:]] for i in want]
        tiled += children.ravel().tolist()
    assert sorted(tiled) == list(range(1, len(words)))


def test_only_hilbert_reads_the_shell_layout():
    """The word layout is private to ``hilbert``: no other module imports or
    reads ``_shell_plan``, ``_others`` or the deleted ``_left_pairs``, and
    neither ``steering`` nor ``spectral`` sizes a shell row by (s - 1) ** n."""
    private = {"_shell_plan", "_others", "_left_pairs"}
    assert not hasattr(hilbert, "_left_pairs")
    modules = {p.stem: p for p in Path(hilbert.__file__).parent.glob("*.py")}
    assert {"hilbert", "steering", "spectral"} <= set(modules)
    for stem, path in modules.items():
        tree = ast.parse(path.read_text())
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if stem != "hilbert":
            assert not names & private, stem
        if stem in ("steering", "spectral"):
            powers = [
                ast.unparse(node)
                for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and ast.unparse(node.left) == "s - 1"
            ]
            assert not powers, (stem, powers)


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
        assert oe[brute_position(basis3, Word((y,)))] == pytest.approx(1 / 3)


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
    """A (..., sizes[c]) block, words last, is mapped as separate vectors."""
    apply, sizes = generator_average(GroupParams(s), depth)
    rng = np.random.default_rng(s + depth)
    for c in (0, 1):
        block = rng.standard_normal((2, 3, sizes[c]))
        want = np.array([[apply(row, c) for row in rows] for rows in block])
        assert np.array_equal(apply(block, c), want)


@pytest.mark.parametrize("s,depth,d", [(2, 5, 1), (3, 4, 3), (5, 3, 2)])
def test_generator_average_identity_coefficients_are_the_plain_average(s, depth, d):
    """With every C_y the d x d identity, each row of a d x D_c part maps
    to its plain average, bit for bit."""
    params = GroupParams(s)
    plain, sizes = generator_average(params, depth)
    eyes = np.broadcast_to(np.eye(d), (s, d, d))
    lettered, _ = generator_average(params, depth, eyes)
    rng = np.random.default_rng(s * depth + d)
    for c in (0, 1):
        part = rng.standard_normal((d, sizes[c]))
        assert np.array_equal(lettered(part, c), [plain(row, c) for row in part])


def test_generator_average_interior_rows_s2():
    basis = build_basis(GroupParams(2), 6)
    mat = dense_average(basis)
    for k in range(1, 6):
        for i in range(*basis.depth_offsets[k : k + 2]):
            row = mat[i]
            assert np.count_nonzero(row) == 2
            assert np.allclose(row[row != 0], 0.5)


def test_average_reaches_one_shell_further_per_application(basis3):
    """Each application of the average reaches one shell further, up to the cut.

    Past the cut the outermost shell can only step inward, so the fifth
    application at depth 4 ends on shell 3.
    """
    apply, sizes = generator_average(basis3.params, basis3.depth)
    offsets = basis3.depth_offsets
    part, c = np.eye(sizes[0])[0], 0  # the identity is the first even word
    for expected in (1, 2, 3, 4, 3):
        part, c = apply(part, c), 1 - c
        parts = [np.zeros(n) for n in sizes]
        parts[c] = part
        amps = basis3.merge_parity(parts)
        shells = [amps[offsets[k] : offsets[k + 1]] for k in range(basis3.depth + 1)]
        assert max(k for k, shell in enumerate(shells) if np.any(shell)) == expected
