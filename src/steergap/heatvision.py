"""The random-measurement dephasing channel and its purity decay.

One channel step leaves the state alone with probability 1/2 and otherwise
conjugates by a uniformly random right shift:

    w(rho) = rho/2 + (1/2s) sum_x R_x rho R_x.

Iterating from any state drives the purity down at least geometrically,
with per-step factor (1/2 + norm/2)^2 where norm = 2*sqrt(s-1)/s; at s = 2
the factor is 1 and nothing is certified, which is exactly the boundary
where the tensor/commuting separation closes.

Right shifts permute basis words, so a mixture of basis words stays one:
``iterate_channel`` runs its probability vector over the D words as a lazy
walk (purity is the squared norm), limited by the word cap, not by D^2.
Each step is one ``hilbert.gather`` over the live prefix, the words that
the walk can have reached, and consumes one shell of buffer; runs past it
raise instead of silently returning truncation artifacts.

The truncated channel, as a superoperator, acts as (1/2)I + (1/2s) sum_x
R_x (x) R_x, and its top eigenvalue is (1 + lambda_N)/2 with lambda_N the
compressed norm, so ``superoperator_norm`` reads it off the exact radial
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BufferExhaustedError
from .freegroup import GroupParams, Word, analytic_norm
from .hilbert import TruncatedBasis, build_basis, gather


def purity_bound(s: int, steps: int) -> float:
    """Purity envelope after ``steps`` applications: ((1 + f*)/2)^(2*steps)."""
    return ((1.0 + analytic_norm(s)) / 2.0) ** (2 * steps)


def _lazy_walk(basis: TruncatedBasis, weights: np.ndarray, support: int, steps: int):
    """Yield ``weights``, updated in place, after each step of the lazy walk.

    Half the weight stays and 1/(2s) goes to each right image.  Each R_x is
    a symmetric partial permutation, so that is also what each word gathers
    from its images.  After t steps the weight lies on words of length at
    most ``support + t``, a prefix of the (length, lex) order, and only that
    prefix is updated; its images lie one shell further out, so only that
    longer prefix is gathered from.  A word has an image past the cut exactly
    when it is on the outermost shell, so weight there means the buffer
    contract broke and the walk raises.
    """
    images = basis.right_image_stack
    outer = basis.depth_offsets[-2]
    for t in range(1, steps + 1):
        n = basis.prefix_dimension(min(support + t, basis.depth))
        if np.any(weights[outer:n]):
            raise RuntimeError(f"weight walked off the ball at step {t}")
        reach = basis.prefix_dimension(min(support + t + 1, basis.depth))
        gathered = gather(weights[:reach], images[:, :n]).sum(axis=0)
        weights[:n] = 0.5 * (weights[:n] + gathered / len(images))
        yield weights


@dataclass
class ChannelRun:
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
    word counting with its multiplicity.  Refuses to run past the truncation
    buffer.  The trace is checked every step; the purity envelope is checked
    as an internal consistency invariant and a violation means the
    truncation contract broke, so it raises rather than returning bad data.
    """
    if not words:
        raise ValueError("mixture of zero states")
    if steps < 0:
        raise ValueError("steps must be ≥ 0")
    basis = build_basis(params, depth)
    index = [basis.index_of(w) for w in words]
    weights = np.bincount(index, minlength=basis.dimension) / len(words)
    k0 = max(len(w) for w in words)
    max_steps = depth - k0
    if steps > max_steps:
        raise BufferExhaustedError(
            f"requested {steps} steps from support depth {k0} at truncation "
            f"depth {depth}; max exact steps: {max(max_steps, 0)}"
        )
    purities = [float(weights @ weights)]
    bounds = [1.0]
    walk = _lazy_walk(basis, weights, k0, steps)
    for t, weights in enumerate(walk, start=1):
        trace = float(np.sum(weights))
        if abs(trace - 1.0) > 1e-10:
            raise RuntimeError(f"trace drifted to {trace!r} at step {t}")
        p = float(weights @ weights)
        b = purity_bound(params.s, t)
        if p > b + 1e-9:
            raise RuntimeError(
                f"purity {p!r} exceeded its envelope {b!r} at step {t}; "
                "the truncation contract is broken"
            )
        if p > purities[-1] + 1e-12:
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

