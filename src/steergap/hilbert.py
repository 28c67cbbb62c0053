"""Truncated word-basis Hilbert space and compressed shift operators.

The space is spanned by the reduced words of length <= N in (length, lex)
order, so each length shell occupies a contiguous index block and the
depth-N basis is a prefix of every deeper one.  The compressed generator
operators are 0/1 partial permutation matrices; they act exactly like their
untruncated counterparts on any vector whose support stays at least one
shell below the cut.  That one-shell buffer is the exactness contract every
downstream routine leans on.

An operator is never stored as a matrix, nor as an index stack, so the
whole package runs on numpy alone.  The ball's one layout is its shell
offsets and the shell slices of its two parity classes (``_shell_plan``);
``TruncatedBasis.split_parity`` and ``merge_parity`` copy whole shells
between basis order and that split, and ``_letter_pairs`` gives the word
pairs that S_y swaps as index tables.  Every shift is a block map of whole
shells by one cached letter table, ``_others``.  The lettered form
``sum_y C_y (x) S_y`` (``_lettered``) walks those blocks on the parity
split; scaled by 1/s it is ``generator_average``, the averaged shift
(every C_y = 1) and the seesaw's operator (C_y = R_y).  ``left_regular``
and ``right_regular`` return one shift as a function on arrays in basis
order, the states' format.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .freegroup import (
    GroupParams,
    InvalidGeneratorError,
    capped_ball_size,
    count_words,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _others(s: int) -> np.ndarray:
    """Row y lists, in increasing order, the 0-based letters other than y.

    In (length, lex) order shell k reads as an (s, (s-1)^(k-1)) array whose
    row a holds the words that start with a, and shell k+1 as an
    (s, s-1, (s-1)^(k-1)) one whose entry [y, i, j] is the child y a r of
    entry [a, j] of shell k, a = ``_others(s)[y, i]``.
    """
    return _frozen(np.array([[b for b in range(s) if b != y] for y in range(s)]))


class TruncatedBasis:
    """Reduced words of length <= depth, in (length, lex) order.

    The basis stores only its shell offsets: shell k is the index slice
    ``depth_offsets[k:k+2]``, read as ``_others`` describes.  Its parity
    classes are shell slices too (``split_parity``), every shift is built
    shell by shell from the one letter table ``_others(s)``, and the pairs
    that S_y swaps come as index tables from ``_letter_pairs``.
    """

    def __init__(self, params: GroupParams, depth: int):
        self.params = params
        self.depth = depth
        self.dimension = capped_ball_size(params, depth)
        self.depth_offsets = _shell_plan(params, depth)[0]

    def __repr__(self) -> str:
        return (
            f"TruncatedBasis(s={self.params.s}, depth={self.depth}, "
            f"dimension={self.dimension})"
        )

    def prefix_dimension(self, k: int) -> int:
        """Dimension of the subspace spanned by words of length <= k."""
        return self.depth_offsets[k + 1]

    def split_parity(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The even- and odd-length class parts, (..., D_c), of a (..., D) array:
        each lists its class's shells end to end, copied by slice, as
        ``generator_average`` reads a class part.  A left shift maps each to
        the other."""
        offsets, sizes, shells, _ = _shell_plan(self.params, self.depth)
        parts = tuple(np.empty(a.shape[:-1] + (n,), a.dtype) for n in sizes)
        for k, part in enumerate(shells):
            parts[k % 2][..., part] = a[..., offsets[k] : offsets[k + 1]]
        return parts

    def merge_parity(self, parts) -> np.ndarray:
        """One (..., D) array from the two class parts; inverse of ``split_parity``."""
        offsets, _, shells, _ = _shell_plan(self.params, self.depth)
        out = np.empty(parts[0].shape[:-1] + (self.dimension,), np.result_type(*parts))
        for k, part in enumerate(shells):
            out[..., offsets[k] : offsets[k + 1]] = parts[k % 2][..., part]
        return out


def build_basis(params: GroupParams, depth: int) -> TruncatedBasis:
    """``TruncatedBasis(params, depth)``.  Public only because the benchmark
    tracer, ``perfbench/tracer.py``, wraps it by name (``hilbert.basis_s``)."""
    return TruncatedBasis(params, depth)


def _letter_pairs(basis: TruncatedBasis):
    """Yield ``(children, parents)``, two (s, X) tables of basis indices, for
    each pair of shells k and k+1 <= depth, innermost first: row y of
    ``children`` holds the shell-(k+1) words g_y w, the words that start
    with y, and row y of ``parents`` their words w, so S_y swaps the rows.
    Other modules gather at these tables instead of reading the layout."""
    offsets = basis.depth_offsets
    for k, _, rows in reversed(_shell_plan(basis.params, basis.depth)[3]):
        children = np.arange(*offsets[k + 1 : k + 3]).reshape(len(rows), -1)
        words = np.arange(*offsets[k : k + 2]).reshape(-1, children.size // rows.size)
        yield children, words[rows].reshape(children.shape)


def _involution(edges):
    """``v -> out`` swapping each ``(words, children)`` pair of index arrays;
    rows of no pair read as a zero of ``v``'s own dtype (``object`` too)."""

    def shift(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for words, children in edges:
            out[words] = v[children]
            out[children] = v[words]
        return out

    return shift


def _check_generator(g: int, basis: TruncatedBasis) -> None:
    if not 1 <= g <= basis.params.s:
        raise InvalidGeneratorError(
            f"generator g{g} does not exist for s={basis.params.s}"
        )


def left_regular(y: int, basis: TruncatedBasis):
    """Compression of left multiplication by generator y: |h> -> |g_y h>.

    Returns ``v -> S_y v`` on a (D, ...) array in basis order, built per
    shell from row y of ``_letter_pairs``.  Public only because the
    benchmark tracer, ``perfbench/tracer.py``, wraps it by name.
    """
    _check_generator(y, basis)
    # Copies, so that the shift does not pin every row of the tables.
    pairs = [(p[y - 1].copy(), c[y - 1].copy()) for c, p in _letter_pairs(basis)]
    return _involution(pairs)


def right_regular(x: int, basis: TruncatedBasis):
    """Compression of right multiplication by generator x: |h> -> |h g_x>.

    Returns ``v -> R_x v`` as ``left_regular`` does, for the same reason.
    The children w z of a shell-k word w are consecutive in shell k+1, in
    ``_others(s)[last letter of w]`` order; raveled, those rows are the last
    letters of shell k+1.
    """
    _check_generator(x, basis)
    s, offsets, x = basis.params.s, basis.depth_offsets, x - 1
    edges = [(0, 1 + x)] if basis.depth else []
    last = np.arange(s)
    for k in range(1, basis.depth):
        words = np.flatnonzero(last != x)
        children = (s - 1) * words + x - (x > last[words])
        edges.append((offsets[k] + words, offsets[k + 1] + children))
        last = _others(s)[last].ravel()
    return _involution(edges)


@lru_cache(maxsize=64)
def _shell_plan(params: GroupParams, depth: int):
    """The ball's one layout: shell offsets, class sizes, class slices, walk pairs.

    Shell k is basis slice ``offsets[k:k+2]`` and slice ``shells[k]`` of the
    part of class k % 2, which lists its shells end to end.  With the
    shells read as in ``_others``, the parents of row y of shell k+1 are
    rows ``parent_rows[y] = _others(s)[y]`` of shell k, and the children
    g_y w, y != a, of row a of shell k are rows ``child_rows[a]``,
    y(s-1) + a - (a > y), of shell k+1 read as (s(s-1), (s-1)^(k-1)).  The
    identity's children are shell 1 read as (s, 1), and it is the parent of
    each word of shell 1.  ``pairs`` holds ``(k, child_rows, parent_rows)``
    for the shells k and k+1, outermost pair first.
    """
    s = params.s
    letter, parent_rows = np.arange(s)[:, None], _others(s)
    child_rows = _frozen(parent_rows * (s - 1) + letter - (letter > parent_rows))
    root = (_frozen(letter.T), _frozen(np.zeros((s, 1), dtype=np.int64)))
    offsets, sizes, shells = [0], [0, 0], []
    for k in range(depth + 1):
        n = count_words(params, k)
        offsets.append(offsets[-1] + n)
        shells.append(slice(sizes[k % 2], sizes[k % 2] + n))
        sizes[k % 2] += n
    inner = (child_rows, parent_rows)
    pairs = tuple((k, *(inner if k else root)) for k in reversed(range(depth)))
    return tuple(offsets), tuple(sizes), tuple(shells), pairs


def _lettered(params: GroupParams, depth: int, coefs=None):
    """``sum_y C_y (x) S_y`` on a ball, as ``(apply, sizes)`` on the parity split.

    Each shift changes the length by one, so ``apply(v, c)`` maps a class-c
    part (shape (sizes[c], ...)), the class's shells end to end as
    ``TruncatedBasis.split_parity`` lays them out, to the other class.  With ``coefs``
    None every C_y is 1: a plain sum in ``v``'s own dtype, exact on an
    ``object`` array of ints.  An (s, d, d) ``coefs`` acts on the trailing
    axis of a (sizes[c], d) part.  A word's image sums its parent and its
    children, block gathers of the neighbouring shells by two letter tables
    (``_shell_plan``), C_y weighing the blocks of row y of the outer shell.
    No index array is read and nothing meets the cut: the outermost shell
    has no children.  A ball over the word cap raises ``CapacityError``
    before anything is allocated.
    """
    capped_ball_size(params, depth)
    _, sizes, shells, pairs = _shell_plan(params, depth)
    transposed = None if coefs is None else np.swapaxes(coefs, 1, 2)

    def weigh(block):
        """Row y of a block read as (s, -1, d) times C_y, in that shape."""
        if transposed is None:
            return block
        return block.reshape(len(transposed), -1, block.shape[-1]) @ transposed

    def apply(v, c):
        tail = v.shape[1:]
        out = np.zeros((sizes[1 - c],) + tail, dtype=np.result_type(v, float))
        if not out.size:  # reshape cannot infer a -1 width from size 0
            return out
        # Outermost pair first, so each shell's children are written before
        # its parent is added.
        for k, child_rows, parent_rows in pairs:
            inner, outer = shells[k], shells[k + 1]
            if k % 2 != c:
                o = out[inner].reshape((len(child_rows), -1) + tail)
                src = weigh(v[outer]).reshape((-1, o.shape[1]) + tail)
                np.add.reduce(src.take(child_rows, axis=0), axis=1, out=o)
                continue
            o = out[outer].reshape(parent_rows.shape + (-1,) + tail)
            src = v[inner].reshape((-1, o.shape[2]) + tail)
            if transposed is not None:
                o += weigh(src.take(parent_rows, axis=0)).reshape(o.shape)
            elif k + 1 == depth:
                # The outermost shell has no children.  Every row index is
                # in range; "clip" only lets take write straight into out.
                src.take(parent_rows, axis=0, out=o, mode="clip")
            else:
                o += src.take(parent_rows, axis=0)
        return out

    return apply, sizes


def generator_average(params: GroupParams, depth: int, coefs=None):
    """``(1/s) sum_y C_y (x) S_y`` on a ball, ``_lettered`` scaled by 1/s.

    With ``coefs`` None it is the averaged shift, whose norm is certified:
    the normalized adjacency operator of the radius-``depth`` ball of the
    s-regular tree.  With (s, d, d) ``coefs`` R_y it is the seesaw's
    operator, psi -> (1/s) sum_y R_y psi S_y on a d x D state.  ``apply(v,
    c)`` maps a class-c part, words last as ``split_parity`` returns it, to
    the other class.  Public because the benchmark tracer wraps it.
    """
    lettered, sizes = _lettered(params, depth, coefs)
    scale = 1.0 / params.s

    def apply(v, c):
        # Words first for ``_lettered``, then last again; no-ops on a vector.
        out = lettered(v.transpose(-1, *range(v.ndim - 1)), c)
        out = out.transpose(*range(1, v.ndim), 0)
        out *= scale
        return out

    return apply, sizes
