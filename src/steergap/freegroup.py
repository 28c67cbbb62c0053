"""Reduced words in the free product of s copies of the order-2 group.

Generators carry 1-based labels ``1..s`` and each squares to the identity,
so a group element is a *reduced word*: a finite sequence of labels with no
two equal adjacent letters.  Words are immutable value objects (tuples of
ints), safe to hash and share; counts are exact integers.
"""

from __future__ import annotations

import math
import re

from .errors import CapacityError

#: Default cap on the number of words an enumeration may materialize.
DEFAULT_WORD_CAP = 2_000_000

#: Cap on the word length accepted by the counting formula.  Counts are exact
#: big integers, so this is purely a guard against absurd bignum requests.
MAX_COUNT_LENGTH = 1_000_000


class InvalidGeneratorError(ValueError):
    """A generator label lies outside the range 1..s."""


class _Value:
    """An immutable value with one field, the name in ``__slots__``.

    Equality, hash and repr go by that field, as for a frozen dataclass.
    It is a plain class because ``dataclasses`` imports ``inspect``, which
    would cost every command milliseconds of start-up.
    """

    __slots__ = ()

    def __init__(self, value):
        object.__setattr__(self, self.__slots__[0], value)

    def _value(self):
        return getattr(self, self.__slots__[0])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._value() == other._value()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._value(),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__slots__[0]}={self._value()!r})"

    def __reduce__(self):
        return type(self), (self._value(),)


class GroupParams(_Value):
    """Number of order-2 free factors.  The group is infinite for every s >= 2."""

    __slots__ = ("s",)

    def __init__(self, s: int):
        if s < 2:
            raise ValueError("s must be ≥ 2")
        super().__init__(s)


def analytic_norm(s: int) -> float:
    """Norm of the averaged shift on the untruncated space: 2*sqrt(s-1)/s.

    It is the tensor bound f*(s), a property of the group alone, so it lives
    here where every layer can read it without loading the numerics.
    """
    if s < 2:
        raise ValueError("s must be ≥ 2")
    return 2.0 * math.sqrt(s - 1.0) / s


class Word(_Value):
    """A reduced word over the generators; the empty tuple is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()):
        for a, b in zip(letters, letters[1:]):
            if a == b:
                raise ValueError(f"word {letters} is not reduced")
        if letters and min(letters) < 1:
            raise ValueError("generator labels are 1-based")
        super().__init__(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_str(self)


IDENTITY = Word()


def count_words(params: GroupParams, k: int) -> int:
    """Number of reduced words of length exactly k: 1, then s(s-1)^(k-1)."""
    if k < 0:
        raise ValueError("word length must be nonnegative")
    if k > MAX_COUNT_LENGTH:
        raise CapacityError(
            f"refusing to count words of length {k} (cap {MAX_COUNT_LENGTH})"
        )
    if k == 0:
        return 1
    return params.s * (params.s - 1) ** (k - 1)


def ball_size(params: GroupParams, depth: int) -> int:
    """Number of reduced words of length at most ``depth``, in closed form.

    Summing ``count_words`` over the shells gives 1 + 2N at s = 2 and the
    geometric sum 1 + s((s-1)^N - 1)/(s-2) otherwise.
    """
    count_words(params, depth)  # the same length checks and cap
    s = params.s
    if s == 2:
        return 1 + 2 * depth
    return 1 + s * ((s - 1) ** depth - 1) // (s - 2)


def capped_ball_size(params: GroupParams, depth: int) -> int:
    """Size of a ball about to be materialized; refuses one over the word cap."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    size = ball_size(params, depth)
    if size > DEFAULT_WORD_CAP:
        # Python refuses to print an int of more than 4300 digits, so a huge
        # size is given as a power of two.
        words = str(size) if size < 2**64 else f"at least 2^{size.bit_length() - 1}"
        raise CapacityError(
            f"depth-{depth} ball at s={params.s}: {words} words "
            f"exceeds cap {DEFAULT_WORD_CAP}"
        )
    return size


def enumerate_words(params: GroupParams, depth: int) -> list[Word]:
    """All reduced words of length <= depth, sorted by (length, lexicographic).

    The ordering makes each length shell a contiguous block and makes the
    depth-N list a prefix of the depth-(N+1) list.  Refuses a ball over
    the word cap before building any word.  The package indexes words
    arithmetically instead; this stays public only because the benchmark
    tracer, ``perfbench/tracer.py``, wraps it by name.
    """
    capped_ball_size(params, depth)
    words = [IDENTITY]
    shell = [IDENTITY]
    for _ in range(depth):
        # Appending letters in increasing order to a lex-sorted shell yields
        # the next shell already lex-sorted.
        nxt = []
        for w in shell:
            last = w.letters[-1] if w.letters else 0
            for y in range(1, params.s + 1):
                if y != last:
                    nxt.append(Word(w.letters + (y,)))
        shell = nxt
        words.extend(shell)
    return words


_WORD_TOKEN = re.compile(r"g([1-9][0-9]*)\Z")


def word_to_str(w: Word) -> str:
    """Serialize a word as dot-joined generator tokens, or "e" for the identity."""
    if not w.letters:
        return "e"
    return ".".join(f"g{letter}" for letter in w.letters)


def word_from_str(text: str) -> Word:
    """Parse the dot-joined generator format; inverse of :func:`word_to_str`."""
    text = text.strip()
    if text == "e":
        return IDENTITY
    letters = []
    for token in text.split("."):
        m = _WORD_TOKEN.match(token.strip())
        if m is None:
            raise ValueError(f"cannot parse generator token {token!r}")
        letters.append(int(m.group(1)))
    return Word(tuple(letters))
