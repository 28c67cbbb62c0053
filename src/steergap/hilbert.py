"""Truncated word-basis Hilbert space and compressed shift operators.

The space is spanned by the reduced words of length <= N in (length, lex)
order, so each length shell occupies a contiguous index block and the
depth-N basis is a prefix of every deeper one.  The compressed generator
operators are 0/1 partial permutation matrices; they act exactly like their
untruncated counterparts on any vector whose support stays at least one
shell below the cut.  That one-shell buffer is the exactness contract every
downstream routine leans on.

An operator is never stored as a matrix, so the whole package runs on
numpy alone.  A single shift is a row of the basis's own image index
stacks, applied as a gather; ``gather`` is the one place that reads index
-1 as a zero.  The averaged shift, ``generator_average``, needs no index
array: in (length, lex) order the left images of a whole shell are a block
gather of the neighbouring shells by two s x (s-1) letter tables, so it
reads no image stack and never meets the cut.  States are plain amplitude
arrays over the basis.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
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


class TruncatedBasis:
    """Reduced words of length <= depth, indexed by mixed-radix arithmetic.

    In (length, lex) order a word's index inside its shell is a mixed-radix
    number: the first letter is a digit of radix s, each later letter a digit
    of radix s-1 among the letters other than the one before it.  The basis
    keeps only each word's first, second and last letter (0 where the word is
    too short), built a shell at a time, and derives every index map from
    them as an int64 array with -1 where the image leaves the ball.  Those
    entries sit on the outermost shell, so a state that keeps the one-shell
    buffer never meets them.
    """

    def __init__(self, params: GroupParams, depth: int, *, cap: int = DEFAULT_WORD_CAP):
        self.params = params
        self.depth = depth
        self.dimension = capped_ball_size(params, depth, cap)
        offsets = [0]
        for k in range(depth + 1):
            offsets.append(offsets[-1] + count_words(params, k))
        self.depth_offsets = tuple(offsets)
        s = params.s
        # Row L - 1 lists, in increasing order, the letters that may follow L.
        successors = np.array(
            [[a for a in range(1, s + 1) if a != b] for b in range(1, s + 1)],
            dtype=np.int64,
        )
        shells = [(np.zeros(1, np.int64),) * 3]
        if depth >= 1:
            letters = np.arange(1, s + 1, dtype=np.int64)
            shells.append((letters, np.zeros(s, np.int64), letters))
        for k in range(2, depth + 1):
            first, second, last = shells[-1]
            last = successors[last - 1].ravel()
            second = last if k == 2 else np.repeat(second, s - 1)
            shells.append((np.repeat(first, s - 1), second, last))
        self._first, self._second, self._last = (np.concatenate(a) for a in zip(*shells))

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

    def first_letters(self) -> np.ndarray:
        """First letter of each basis word (0 for the identity)."""
        return self._first

    def _coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Length and in-shell rank of every word, and the shell offsets."""
        offsets = np.array(self.depth_offsets, dtype=np.int64)
        length = np.repeat(np.arange(self.depth + 1), np.diff(offsets))
        return length, np.arange(self.dimension) - offsets[length], offsets

    def suffixes(self) -> np.ndarray:
        """g_a w for each word w with first letter a: w without it (-1 for e)."""
        first = self._first
        dropped = self.left_image_stack[first - 1, np.arange(self.dimension)]
        return np.where(first > 0, dropped, -1)

    @cached_property
    def left_image_stack(self) -> np.ndarray:
        """Index of g_y w for y = 1..s (rows) and every word w: read-only (s, D).

        If w starts with y, g_y w drops the first letter: the later digits
        stay, and only the second letter turns from a radix-(s-1) digit into
        a radix-s one, gaining 1 when it is above the first letter.
        Otherwise prepending y adds a leading digit y-1 of weight
        (s-1)^len(w), and the old first letter becomes a radix-(s-1) digit,
        one lower when it is above y; -1 where that leaves the ball.
        """
        length, rank, offsets = self._coordinates()
        s, first = self.params.s, self._first
        q = s - 1
        below = q ** np.maximum(length - 1, 0)
        dropped = (
            offsets[length - 1]
            + rank % below
            + (self._second > first) * q ** np.maximum(length - 2, 0)
        )
        grown = offsets[length + 1] + rank
        weight = q**length
        past = length == self.depth
        # Filled a row at a time, in place, after freeing the coordinates, so
        # only the stack and a few D-long arrays are alive at once.
        del length, rank
        stack = np.empty((s, self.dimension), dtype=np.int64)
        for y, row in enumerate(stack, start=1):
            np.multiply(weight, y - 1, out=row)
            row += grown
            np.subtract(row, below, out=row, where=first > y)
            row[past] = -1
            np.copyto(row, dropped, where=first == y)
        stack.flags.writeable = False
        return stack

    @cached_property
    def parity_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis indices of the even-length words, then of the odd-length ones.

        Each class lists its shells end to end, the order in which
        ``generator_average`` lays out a class part.
        """
        length = self._coordinates()[0]
        return tuple(np.flatnonzero(length % 2 == c) for c in (0, 1))

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
        images = tuple(local[self.left_image_stack.take(idx, axis=1)] for idx in indices)
        for im in images:
            im.flags.writeable = False
        return ParitySplit(indices, images)

    @cached_property
    def right_image_stack(self) -> np.ndarray:
        """Index of w g_x for x = 1..s (rows) and every word w: read-only (s, D).

        Dropping the last letter gives the word's parent in the enumeration;
        appending x gives the child whose digit ranks x among the letters
        other than the last one.
        """
        length, rank, offsets = self._coordinates()
        s, last = self.params.s, self._last
        shrunk = offsets[length - 1] + rank // np.where(length == 1, s, s - 1)
        grown = offsets[length + 1] + rank * (s - 1)
        past = length == self.depth
        del length, rank  # filled a row at a time, as the left-image stack is
        stack = np.empty((s, self.dimension), dtype=np.int64)
        for x, row in enumerate(stack, start=1):
            np.subtract(grown + (x - 1), (last > 0) & (x > last), out=row)
            row[past] = -1
            np.copyto(row, shrunk, where=last == x)
        stack.flags.writeable = False
        return stack


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
    """Class sizes and, per output class, one step per shell of the average.

    A shell-k word [a, r] has in-shell rank (a-1)(s-1)^(k-1) + j, j the rank
    of its rest r.  So shell k reads as an (s, (s-1)^(k-1)) array, and
    shell k+1 as an (s, s-1, (s-1)^(k-1)) one whose entry [y, a - (a > y), j]
    (0-based letters) is the child y a r.  The children g_y w, y != a, of
    row a of shell k are then rows ``child_rows[a]`` of shell k+1 read as
    (s(s-1), (s-1)^(k-1)), and the parents of shell k+1 are rows
    ``parent_rows[y]`` of shell k.  The identity's children are shell 1
    read as (s, 1), and it is the parent of each word of shell 1.  A class
    part lists its shells end to end; the step of output shell k holds its
    slice, then the slices of shells k+1 and k-1 in the input part (None
    past either end of the ball), each with its row table.
    """
    capped_ball_size(params, depth)
    s = params.s
    letter = np.arange(s)[:, None]
    parent_rows = np.array([[b for b in range(s) if b != y] for y in range(s)])
    child_rows = parent_rows * (s - 1) + letter - (letter > parent_rows)
    root_rows, shell1_rows = letter.T, np.zeros((s, 1), dtype=np.int64)
    for table in (parent_rows, child_rows, root_rows, shell1_rows):
        table.flags.writeable = False
    shells: list[list[slice]] = [[], []]
    sizes = [0, 0]
    for k in range(depth + 1):
        n = count_words(params, k)
        shells[k % 2].append(slice(sizes[k % 2], sizes[k % 2] + n))
        sizes[k % 2] += n

    def step(k):
        above = shells[1 - k % 2][(k + 1) // 2] if k < depth else None
        below = shells[1 - k % 2][(k - 1) // 2] if k > 0 else None
        return (
            shells[k % 2][k // 2],
            above,
            root_rows if k == 0 else child_rows,
            below,
            shell1_rows if k == 1 else parent_rows,
        )

    steps = tuple(tuple(step(k) for k in range(c, depth + 1, 2)) for c in (0, 1))
    return tuple(sizes), steps


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
    sizes, steps = _shell_plan(params, depth)
    scale = 1.0 / params.s

    def apply(v, c):
        tail = v.shape[1:]
        out = np.zeros((sizes[1 - c],) + tail)
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
