"""Truncated word-basis Hilbert space and compressed shift operators.

The space is spanned by the reduced words of length <= N in (length, lex)
order, so each length shell occupies a contiguous index block and the
depth-N basis is a prefix of every deeper one.  The compressed generator
operators are 0/1 partial permutation matrices; they act exactly like their
untruncated counterparts on any vector whose support stays at least one
shell below the cut.  That one-shell buffer is the exactness contract every
downstream routine leans on.

An operator is never stored as a matrix, so the whole package runs on
numpy alone.  Every index map is a block gather or scatter of whole shells
by one cached letter table, ``_others``.  A single shift is a row of the
basis's image stacks, applied as a gather; ``gather`` is the one place that
reads index -1 as a zero.  The averaged shift, ``generator_average``,
gathers the shell blocks directly, so it reads no image stack and never
meets the cut.  States are plain amplitude arrays over the basis.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .freegroup import (
    DEFAULT_WORD_CAP,
    GroupParams,
    InvalidGeneratorError,
    Word,
    capped_ball_size,
    count_words,
)


class ParitySplit(NamedTuple):
    """Words by length parity (class 0 even, 1 odd): ``indices[c]`` lists
    class c's basis indices in order; ``images[c]``, a read-only C-ordered
    (s, D_c) left-image stack, indexes their images in the other class's list.
    """

    indices: tuple[np.ndarray, np.ndarray]
    images: tuple[np.ndarray, np.ndarray]


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

    In that order a word's index inside its shell is a mixed-radix number:
    the first letter is a digit of radix s, each later letter a digit of
    radix s-1 among the letters other than the one before it.  The basis
    stores only its shell offsets.  Every index map is built shell by shell
    from the one letter table ``_others(s)``, as an int64 array with -1
    where the image leaves the ball.  Those entries sit on the outermost
    shell, so a state that keeps the one-shell buffer never meets them.
    """

    def __init__(self, params: GroupParams, depth: int, *, cap: int = DEFAULT_WORD_CAP):
        self.params = params
        self.depth = depth
        self.dimension = capped_ball_size(params, depth, cap)
        offsets = [0]
        for k in range(depth + 1):
            offsets.append(offsets[-1] + count_words(params, k))
        self.depth_offsets = tuple(offsets)

    def __repr__(self) -> str:
        return (
            f"TruncatedBasis(s={self.params.s}, depth={self.depth}, "
            f"dimension={self.dimension})"
        )

    def index_of(self, word: Word) -> int:
        """Offset of the word's shell plus its mixed-radix rank inside it."""
        s = self.params.s
        if len(word) > self.depth or any(a > s for a in word.letters):
            raise ValueError(f"word {word} is not in the depth-{self.depth} basis")
        rank, prev = 0, 0
        for a in word.letters:
            rank = rank * (s - 1) + a - 1 - (0 < prev < a)
            prev = a
        return self.depth_offsets[len(word)] + rank

    def shell(self, k: int) -> range:
        """Index range of the words of length exactly k."""
        return range(self.depth_offsets[k], self.depth_offsets[k + 1])

    def prefix_dimension(self, k: int) -> int:
        """Dimension of the subspace spanned by words of length <= k."""
        return self.depth_offsets[k + 1]

    def _shell_indices(self, k: int) -> np.ndarray:
        return np.arange(self.depth_offsets[k], self.depth_offsets[k + 1])

    @cached_property
    def left_image_stack(self) -> np.ndarray:
        """Index of g_y w for y = 1..s (rows) and every word w: read-only (s, D).

        With the shells read as in ``_others``, g_y pairs row y of shell k+1
        with shell k at rows ``_others(s)[y]``.
        """
        s, others = self.params.s, _others(self.params.s)
        letters = np.arange(s)[:, None, None]

        def edge(k):
            words = self._shell_indices(k).reshape(s, -1)[others]
            return letters, words, self._shell_indices(k + 1).reshape(s, s - 1, -1)

        return self._pairing(map(edge, range(1, self.depth)))

    @cached_property
    def parity_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis indices of the even-length words, then of the odd-length ones.

        Each class lists its shells end to end, at the class slices by which
        ``generator_average`` lays out a class part.  Read-only.
        """
        sizes, shells, _ = _shell_plan(self.params, self.depth)
        parts = tuple(np.empty(n, dtype=np.int64) for n in sizes)
        for k, part in enumerate(shells):
            parts[k % 2][part] = self._shell_indices(k)
        return tuple(map(_frozen, parts))

    def merge_parity(self, parts) -> np.ndarray:
        """One (..., D) array from the two class parts of shape (..., D_c)."""
        out = np.empty(parts[0].shape[:-1] + (self.dimension,))
        for idx, part in zip(self.parity_indices, parts):
            out[..., idx] = part
        return out

    @cached_property
    def parity_split(self) -> ParitySplit:
        """Every left shift changes the length by one: it swaps the classes."""
        indices = self.parity_indices
        local = np.full(self.dimension + 1, -1, dtype=np.int64)
        for idx in indices:
            local[idx] = np.arange(len(idx))
        # take() keeps the (s, D_c) result C-ordered, so a matvec gathers rows.
        images = tuple(
            _frozen(local[self.left_image_stack.take(idx, axis=1)]) for idx in indices
        )
        return ParitySplit(indices, images)

    @cached_property
    def right_image_stack(self) -> np.ndarray:
        """Index of w g_x for x = 1..s (rows) and every word w: read-only (s, D).

        The children w x of a shell-k word w are consecutive in shell k+1,
        one for each letter x other than w's last, in ``_others(s)[last]``
        order; raveled, those rows are the last letters of shell k+1.
        """
        s, others = self.params.s, _others(self.params.s)

        def edges():
            last = np.arange(s)
            for k in range(1, self.depth):
                letters = others[last]
                children = self._shell_indices(k + 1).reshape(-1, s - 1)
                yield letters, self._shell_indices(k)[:, None], children
                last = letters.ravel()

        return self._pairing(edges())

    def _pairing(self, edges) -> np.ndarray:
        """The read-only (s, D) image stack of a shift, from its shell edges.

        A shift is an involution pairing each word with a child one shell
        further out.  ``edges`` yields, for shells 1..depth-1, broadcastable
        index arrays ``(letters, words, children)``; the identity's edge, the
        same for both shifts, is added here.  Images past the cut stay -1.
        """
        s = self.params.s
        stack = np.full((s, self.dimension), -1, dtype=np.int64)
        if self.depth:
            edges = chain([(np.arange(s), 0, self._shell_indices(1))], edges)
        for letters, words, children in edges:
            stack[letters, words] = children
            stack[letters, children] = words
        return _frozen(stack)


def build_basis(
    params: GroupParams, depth: int, *, cap: int = DEFAULT_WORD_CAP
) -> TruncatedBasis:
    return TruncatedBasis(params, depth, cap=cap)


def gather(v: np.ndarray, images: np.ndarray) -> np.ndarray:
    """``v`` read at ``images`` along its first (word) axis; index -1 reads 0.

    A zero of ``v``'s own dtype is appended along that axis, so an integer
    ``object`` array stays exact.  An (r, D) ``images`` gives shape
    (r, D) + v.shape[1:].
    """
    pad = np.zeros((1,) + v.shape[1:], dtype=v.dtype)
    return np.concatenate((v, pad))[images]


def _check_generator(g: int, basis: TruncatedBasis) -> None:
    if not 1 <= g <= basis.params.s:
        raise InvalidGeneratorError(
            f"generator g{g} does not exist for s={basis.params.s}"
        )


def left_regular(y: int, basis: TruncatedBasis) -> np.ndarray:
    """Compression of left multiplication by generator y: |h> -> |g_y h>.

    Returns the read-only image row ``basis.left_image_stack[y - 1]``;
    ``gather(v, row)`` applies the shift.  Public only because the benchmark
    tracer, ``perfbench/tracer.py``, wraps it by name.
    """
    _check_generator(y, basis)
    return basis.left_image_stack[y - 1]


def right_regular(x: int, basis: TruncatedBasis) -> np.ndarray:
    """Compression of right multiplication by generator x: |h> -> |h g_x>.

    Returns the read-only image row ``basis.right_image_stack[x - 1]``, as
    ``left_regular`` does, and is public for the same reason.
    """
    _check_generator(x, basis)
    return basis.right_image_stack[x - 1]


@lru_cache(maxsize=64)
def _shell_plan(params: GroupParams, depth: int):
    """Class sizes, each shell's class slice, and per class the average's steps.

    A class part lists its shells end to end, shell k at ``shells[k]`` of
    class k % 2.  With the shells read as in ``_others``, the parents of
    row y of shell k+1 are rows ``parent_rows[y] = _others(s)[y]`` of shell
    k, and the children g_y w, y != a, of row a of shell k are rows
    ``child_rows[a]``, y(s-1) + a - (a > y), of shell k+1 read as
    (s(s-1), (s-1)^(k-1)).  The identity's children are shell 1 read as
    (s, 1), and it is the parent of each word of shell 1.  The step of
    output shell k holds ``shells[k]``, then ``shells[k ± 1]`` (None past
    either end of the ball), each with its row table.
    """
    s = params.s
    letter, parent_rows = np.arange(s)[:, None], _others(s)
    child_rows = _frozen(parent_rows * (s - 1) + letter - (letter > parent_rows))
    root_rows = _frozen(letter.T)
    shell1_rows = _frozen(np.zeros((s, 1), dtype=np.int64))
    sizes, shells = [0, 0], []
    for k in range(depth + 1):
        n = count_words(params, k)
        shells.append(slice(sizes[k % 2], sizes[k % 2] + n))
        sizes[k % 2] += n

    def step(k):
        return (
            shells[k],
            shells[k + 1] if k < depth else None,
            root_rows if k == 0 else child_rows,
            shells[k - 1] if k > 0 else None,
            shell1_rows if k == 1 else parent_rows,
        )

    steps = tuple(tuple(step(k) for k in range(c, depth + 1, 2)) for c in (0, 1))
    return tuple(sizes), tuple(shells), steps


def generator_average(params: GroupParams, depth: int):
    """The average of the s left shifts on a ball, as ``(apply, sizes)``.

    Its norm is the quantity being certified: it is the normalized adjacency
    operator of the radius-``depth`` ball of the s-regular tree rooted at the
    identity.  Each shift changes the length by one, so ``apply(v, c)`` maps
    a class-c part (length ``sizes[c]``, or shape (sizes[c], ...)) to the
    other class; a class part lists the class's words in basis order,
    ``TruncatedBasis.parity_indices``.  A word's image sums its parent and
    its children, block gathers of the neighbouring shells by two letter
    tables (``_shell_plan``, built once per (s, depth)), so no index array
    is read and nothing meets the cut: the outermost shell has no children.
    A ball over the word cap raises ``CapacityError`` before anything is
    allocated.  The one form of the averaged shift in the package; its name
    stays public because the benchmark tracer wraps it.
    """
    capped_ball_size(params, depth)
    sizes, _, steps = _shell_plan(params, depth)
    scale = 1.0 / params.s

    def apply(v, c):
        tail = v.shape[1:]
        out = np.zeros((sizes[1 - c],) + tail)
        if not out.size:  # reshape cannot infer a -1 width from size 0
            return out
        for dst, children, child_rows, parent, parent_rows in steps[1 - c]:
            if children is not None:
                o = out[dst].reshape((len(child_rows), -1) + tail)
                src = v[children].reshape((-1, o.shape[1]) + tail)
                np.add.reduce(src.take(child_rows, axis=0), axis=1, out=o)
            if parent is not None:
                o = out[dst].reshape(parent_rows.shape + (-1,) + tail)
                src = v[parent].reshape((-1, o.shape[2]) + tail)
                if children is None:
                    # Every row index is in range; "clip" only lets take
                    # write straight into out, unbuffered.
                    src.take(parent_rows, axis=0, out=o, mode="clip")
                else:
                    o += src.take(parent_rows, axis=0)
        out *= scale
        return out

    return apply, sizes
