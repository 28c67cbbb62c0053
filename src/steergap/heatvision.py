"""The random-measurement dephasing channel and its purity decay.

One channel step leaves the state alone with probability 1/2 and otherwise
conjugates by a uniformly random right shift:

    w(rho) = rho/2 + (1/2s) sum_x R_x rho R_x.

Iterating from any state drives the purity down at least geometrically,
with per-step factor (1/2 + norm/2)^2 where norm = 2*sqrt(s-1)/s; at s = 2
the factor is 1 and nothing is certified, which is exactly the boundary
where the tensor/commuting separation closes.

Right shifts permute basis words, so a mixture of basis words stays one,
and ``iterate_channel`` carries only its probability vector, never a D x D
matrix.  Two routes run it:

- From the root state |e><e|, every shell stays uniform, so the state is the
  list of shell masses m_0..m_t.  They follow the lazy birth-death chain
  that is the radial reduction of the nearest-neighbour walk (Kesten, Trans.
  AMS 92, 1959): stay 1/2, move in 1/(2s), move out (s-1)/(2s), and out 1/2
  from the root.  The purity is sum_k m_k^2/|shell k|.  This route runs in
  plain floats, with no word basis and no word cap, at O(steps^2) cost.
- Any other mixture runs on the word engine, a lazy walk over the D words
  limited by the word cap.  In (length, lex) order a word's right images are
  its parent and its s - 1 consecutive children, so each step over the live
  prefix, the words that the walk can have reached, is a reshape-sum and an
  ``np.repeat``.  Only this route loads numpy and the word basis.

Each step consumes one shell of buffer; runs past it raise instead of
silently returning truncation artifacts.  Runs longer than ``MAX_STEPS``
raise too, since both routes cost O(steps^2).

The truncated channel, as a superoperator, acts as (1/2)I + (1/2s) sum_x
R_x (x) R_x, and its top eigenvalue is (1 + lambda_N)/2 with lambda_N the
compressed norm, so ``superoperator_norm`` reads it off the exact radial
solve.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import BufferExhaustedError, CapacityError
from .freegroup import GroupParams, Word, analytic_norm

if TYPE_CHECKING:
    import numpy as np

    from .hilbert import TruncatedBasis

#: Cap on the steps of one run.  Both routes cost O(steps^2), and at s = 2
#: the envelope is 1.0 at every step, so nothing else bounds a run there.
#: At s >= 3 the envelope underflows from step 12 842 on, so every run it
#: admits fits under the cap.
MAX_STEPS = 12_841


def purity_bound(s: int, steps: int) -> float:
    """Purity envelope after ``steps`` applications: ((1 + f*)/2)^(2*steps)."""
    return ((1.0 + analytic_norm(s)) / 2.0) ** (2 * steps)


def _radial_series(s: int, steps: int):
    """Yield (trace, purity) of the channel run from |e><e|, from t = 0 on.

    ``mass[k]`` is the weight on shell k, spread evenly over its words, and
    ``share[k]`` is 1/|shell k| = (1/s)(s-1)^-(k-1), a float power, so it
    underflows to 0 at deep k where the integer count would overflow a
    float.  A step divides by s instead of multiplying by a rounded 1/(2s),
    so the rounding does not drain the trace at a steady rate.
    """
    mass, share = [1.0], [1.0]
    yield 1.0, 1.0
    for t in range(1, steps + 1):
        share.append((s - 1.0) ** (1 - t) / s)
        inward = mass[1:] + [0.0, 0.0]
        outward = [0.0, s * mass[0]] + [(s - 1) * m for m in mass[1:]]
        mass = [
            0.5 * (m + (a + b) / s)
            for m, a, b in zip(mass + [0.0], inward, outward)
        ]
        yield math.fsum(mass), math.fsum(map(mul, map(mul, mass, mass), share))


def _lazy_walk(basis: TruncatedBasis, weights: np.ndarray, support: int, steps: int):
    """Yield ``weights``, updated in place, after each step of the lazy walk.

    Half the weight stays and 1/(2s) goes to each right image.  Each R_x is
    a symmetric partial permutation, so each word gathers as much from its
    images, its parent and children.  In (length, lex) order the root's
    children are words 1..s, those of word p >= 1 the s - 1 words from
    (s-1)p + 2 on.  After t steps the weight lies on words of length at most
    ``support + t``, a prefix of that order, and only that prefix is
    updated.  Only the outermost shell has children past the cut, so weight
    there means the buffer contract broke and the walk raises.
    """
    import numpy as np

    s, offsets = basis.params.s, basis.depth_offsets
    outer = offsets[-2]
    for t in range(1, steps + 1):
        top = min(support + t, basis.depth)
        n = offsets[top + 1]
        if np.any(weights[outer:n]):
            raise RuntimeError(f"weight walked off the ball at step {t}")
        fertile = offsets[min(top, basis.depth - 1) + 1]  # words with children
        images = np.zeros(n)
        images[0] = weights[1 : s + 1].sum()
        children = weights[s + 1 : (s - 1) * fertile + 2]
        images[1:fertile] = children.reshape(-1, s - 1).sum(axis=1)
        images[1 : s + 1] += weights[0]
        images[s + 1 :] += np.repeat(weights[1 : offsets[top]], s - 1)
        images /= s
        weights[:n] += images
        weights[:n] *= 0.5
        yield weights


def _word_series(
    params: GroupParams, depth: int, words: list[Word], support: int, steps: int
):
    """Yield (trace, purity) of the word engine run from ``words``, from t = 0 on."""
    # Imported here so that a run from |e><e| loads neither numpy nor the basis.
    import numpy as np

    from .hilbert import build_basis

    basis = build_basis(params, depth)
    index = [basis.index_of(w) for w in words]
    weights = np.bincount(index, minlength=basis.dimension) / len(words)
    for weights in chain([weights], _lazy_walk(basis, weights, support, steps)):
        yield float(np.sum(weights)), float(weights @ weights)


class ChannelRun(NamedTuple):
    """Purity trajectory of an iterated channel, with its analytic envelope.

    ``purity_series[t]`` is the purity after t steps (index 0 is the input
    state).
    """

    s: int
    depth: int
    steps: int
    initial_support_depth: int
    fstar: float
    purity_series: list[float]
    bound_series: list[float]

    def rows(self):
        """(t, purity, bound, ratio) per step, ready for CSV emission."""
        for t, (p, b) in enumerate(zip(self.purity_series, self.bound_series)):
            yield t, p, b, p / b


def iterate_channel(
    params: GroupParams,
    depth: int,
    steps: int,
    words: list[Word],
) -> ChannelRun:
    """Run ``steps`` exact channel applications, tracking purity vs bound.

    The input is the uniform mixture of |w><w| over ``words``, a repeated
    word counting with its multiplicity.  A mixture of the root word alone
    runs on the shell masses; any other runs on the word engine.  Words are
    checked against the depth-``depth`` basis first, then the run is refused
    past the truncation buffer, where the envelope underflows to 0.0 and
    past ``MAX_STEPS``.
    The trace is checked every step; the purity envelope is checked as an
    internal consistency invariant and a violation means the truncation
    contract broke, so it raises rather than returning bad data.
    """
    if not words:
        raise ValueError("mixture of zero states")
    if steps < 0:
        raise ValueError("steps must be ≥ 0")
    for w in words:
        if len(w) > depth or any(a > params.s for a in w.letters):
            raise ValueError(f"word {w} is not in the depth-{depth} basis")
    k0 = max(len(w) for w in words)
    max_steps = depth - k0
    if steps > max_steps:
        raise BufferExhaustedError(
            f"requested {steps} steps from support depth {k0} at truncation "
            f"depth {depth}; max exact steps: {max(max_steps, 0)}"
        )
    if purity_bound(params.s, steps) == 0.0:
        raise ValueError(
            f"the purity envelope at s={params.s} underflows to 0.0 by step "
            f"{steps}, where the purity/bound ratio is undefined"
        )
    if steps > MAX_STEPS:
        raise CapacityError(
            f"requested {steps} channel steps; at most {MAX_STEPS} run (step cap)"
        )
    if k0 == 0:
        series = _radial_series(params.s, steps)
    else:
        series = _word_series(params, depth, words, k0, steps)
    purities: list[float] = []
    bounds: list[float] = []
    for t, (trace, p) in enumerate(series):
        if abs(trace - 1.0) > 1e-10:
            raise RuntimeError(f"trace drifted to {trace!r} at step {t}")
        b = purity_bound(params.s, t)
        if p > b + 1e-9:
            raise RuntimeError(
                f"purity {p!r} exceeded its envelope {b!r} at step {t}; "
                "the truncation contract is broken"
            )
        if purities and p > purities[-1] + 1e-12:
            raise RuntimeError(f"purity increased at step {t}")
        purities.append(p)
        bounds.append(b)
    return ChannelRun(
        s=params.s,
        depth=depth,
        steps=steps,
        initial_support_depth=k0,
        fstar=analytic_norm(params.s),
        purity_series=purities,
        bound_series=bounds,
    )


def superoperator_norm(params: GroupParams, depth: int) -> float:
    """Top eigenvalue of the truncated channel superoperator: (1 + lambda_N)/2.

    Conjugation by R_x acts on matrices as R_x (x) R_x, so the superoperator
    is (1/2)I + (1/2s) sum_x R_x (x) R_x, whose top eigenvalue is half of one
    plus that of the compressed average, the exact lambda_N of the shell
    tridiagonal.  As the depth grows it climbs toward (1 + 2*sqrt(s-1)/s)/2.
    """
    # Imported here so that a channel run does not load the spectral layer.
    from .spectral import radial_top_eigenvalue

    return (1.0 + radial_top_eigenvalue(params.s, depth)[0]) / 2.0

