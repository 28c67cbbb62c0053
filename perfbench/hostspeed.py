"""Reference work timed beside every child run, to follow the host's speed.

On a shared host the speed available to one process changes with what other
tenants run. On the 2-core host where the benchmark was defined,
interpreter-bound code ran up to 1.5x slower in slow spells, small-array
numpy code 1.8x and BLAS code 1.3x; the spells came and went within seconds
and at times filled whole minutes (one slowed a report run 3.5x). A child's
wall time divided by the mean time of the reference passes made just before
and just after it cancels most of that, because the reference mixes the
same three kinds of work, in about equal parts.

The reference uses numpy only, never steergap, so a change to the program
does not move it.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

_RNG = np.random.default_rng(20120428)
_SMALL = _RNG.standard_normal((12, 12))
_LARGE = _RNG.standard_normal((512, 512))


def _interpreter() -> int:
    # Dict and tuple work, like word enumeration and basis indexing.
    index: dict[tuple[int, int], int] = {}
    for i in range(150_000):
        index[(i % 997, i // 997)] = i
    return sum(v for k, v in index.items() if k[0] < 500)


def _small_arrays() -> float:
    # Many tiny numpy calls, like the seesaw and the probability tables.
    a = _SMALL
    for _ in range(8_000):
        a = a @ _SMALL
        a /= np.linalg.norm(a)
    return float(a[0, 0])


def _blas() -> float:
    # Dense matrix products.
    b = _LARGE
    for _ in range(10):
        b = _LARGE @ b
        b /= np.abs(b).max()
    return float(b[0, 0])


def mixed_seconds() -> float:
    """Wall time of one pass over all three kinds of reference work."""
    start = time.perf_counter()
    _interpreter()
    _small_arrays()
    _blas()
    return time.perf_counter() - start


def dense_seconds() -> float:
    """Wall time of one pass over the dense products alone."""
    start = time.perf_counter()
    _blas()
    return time.perf_counter() - start


def reference_passes(reference: Callable[[], float], seconds: float) -> list[float]:
    """Times of ``reference`` passes made one after another for about ``seconds``."""
    passes = [reference()]
    while sum(passes) < seconds:
        passes.append(reference())
    return passes
