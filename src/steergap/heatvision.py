"""The random-measurement dephasing channel and its purity decay.

One channel step leaves the state alone with probability 1/2 and otherwise
conjugates by a uniformly random right shift:

    w(rho) = rho/2 + (1/2s) sum_x R_x rho R_x.

Iterating from any state drives the purity down at least geometrically,
with per-step factor (1/2 + norm/2)^2 where norm = 2*sqrt(s-1)/s; at s = 2
the factor is 1 and nothing is certified, which is exactly the boundary
where the tensor/commuting separation closes.

Right shifts permute basis words, so a mixture of basis words stays one,
its weights following the lazy walk on the s-regular tree of words.  That
walk moves weight d away with probability m_t(d)/|shell d| (Kesten, Trans.
AMS 92, 1959; Woess, Random Walks on Infinite Graphs and Groups, 2000),
where the shell masses m_t of the run from |e><e| follow its radial
reduction: stay 1/2, move in 1/(2s), move out (s-1)/(2s), and out 1/2 from
the root.  The walk is symmetric, so the purity after t steps is the mean
over ordered pairs of state words of the move probability m_2t(d)/|shell d|
at their distance d.  ``iterate_channel`` carries the shell masses in plain
Python floats, with no word basis or array.

Each step consumes one shell of buffer; runs past it raise instead of
silently returning truncation artifacts, as do runs past ``MAX_STEPS`` or
past the list work that it admits from |e><e|.

The truncated channel, as a superoperator, acts as (1/2)I + (1/2s) sum_x
R_x (x) R_x, and its top eigenvalue is (1 + lambda_N)/2 with lambda_N the
compressed norm, so ``superoperator_norm`` reads it off the exact radial
solve.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import mul
from os.path import commonprefix
from typing import NamedTuple

from .errors import BufferExhaustedError, CapacityError
from .freegroup import GroupParams, Word, analytic_norm

#: Cap on the steps of one run.  A run costs O(steps^2), and at s = 2 the
#: envelope is 1.0 at every step, so nothing else bounds a run there.
#: At s >= 3 the envelope underflows from step 12 842 on, so every run it
#: admits fits under the cap.
MAX_STEPS = 12_841


def purity_bound(s: int, steps: int) -> float:
    """Purity envelope after ``steps`` applications: ((1 + f*)/2)^(2*steps)."""
    return ((1.0 + analytic_norm(s)) / 2.0) ** (2 * steps)


def _pair_distances(counts: Counter, reach: int, limit: int) -> tuple[Counter, int]:
    """Ordered pairs of the counted words by distance up to ``reach``, and the work.

    Sorted words visit the trie of their prefixes depth first, so each
    word's lcp with the one before closes the deeper vertices on a stack,
    each vertex counting its words by length.  Words of lengths i and j
    that first meet at a vertex of depth h are i + j - 2h apart.  The work
    sums the products of the sizes of the counts that meet, at least 1 per
    word past the first, and the pairing stops once it passes ``limit``.
    """
    pairs, work = Counter({0: sum(n * n for n in counts.values())}), 0
    stack = [(0, Counter())]  # (depth, words per length) of the open vertices
    ordered = sorted(counts)
    # The closing () meets every word at the root, closing every vertex.
    for prev, w in zip([(), *ordered], [*ordered, ()]):
        h = len(commonprefix([prev, w]))
        while stack[-1][0] > h:
            _, above = stack.pop()
            depth, below = stack.pop() if stack[-1][0] >= h else (h, Counter())
            work += len(below) * len(above)
            if work > limit:
                return pairs, work
            for i, a in below.items():
                for j, b in above.items():
                    if i + j - 2 * depth <= reach:
                        pairs[i + j - 2 * depth] += 2 * a * b
            stack.append((depth, below + above))
        stack.append((len(w), Counter({len(w): counts[w]})))
    return pairs, work


def _pair_series(s: int, pairs: Counter, total: int, steps: int):
    """Yield (trace, purity) of the run from ``total`` words, from t = 0.

    ``pairs[d]`` counts the ordered word pairs d apart, and the purity after
    t steps is their mean of m_2t(d) share[d], with ``mass[k]`` shell k's
    weight m in the run from |e><e| and ``share[k]`` 1/|shell k|.  Pairs 0
    apart read m_2t(0) = sum_k m_t(k)^2 share[k] off step t, where a run
    from |e><e| stops; others continue the chain to step 2t, past step t
    keeping only the shells that can still reach the farthest pair.  A step
    divides by s rather than multiplying by a rounded 1/(2s), so rounding
    does not drain the trace; the list starts as long as the farthest pair.
    """
    weights = {d: n / total**2 for d, n in pairs.items()}
    same = weights.pop(0)
    reach = max(weights, default=0)
    # The last step reads shells up to ``top``, and step ``end`` is the last.
    end, top = (2 * steps, reach) if weights else (steps, steps)
    share = [1.0] + [(s - 1.0) ** (1 - k) / s for k in range(1, max(steps, reach) + 1)]
    mass = [1.0] + [0.0] * reach
    traces, returns = [], []
    # Float s and s - 1 round as the ints do, and save converting them per shell.
    fs, out = float(s), s - 1.0
    for step in range(end + 1):
        if step:
            inward = mass[1:] + [0.0, 0.0]
            outward = [0.0, fs * mass[0]] + [out * m for m in mass[1:]]
            mass = [
                0.5 * (m + (a + b) / fs)
                for m, a, b in zip(mass + [0.0], inward, outward)
            ]
            del mass[top + end - step + 1 :]
        if step <= steps:
            traces.append(math.fsum(mass))
            returns.append(math.fsum(map(mul, map(mul, mass, mass), share)))
        t, odd = divmod(step, 2) if weights else (step, 0)
        if not odd:
            far = [c * mass[d] * share[d] for d, c in weights.items()]
            yield traces[t], math.fsum([same * returns[t], *far])


class ChannelRun(NamedTuple):
    """Purity trajectory of an iterated channel, with its analytic envelope.

    ``purity_series[t]`` is the purity after t steps (t = 0: the input).
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
    word counting with its multiplicity.  Words are checked against the
    depth-``depth`` basis first, then the run is refused past the truncation
    buffer, where the envelope underflows to 0.0, past ``MAX_STEPS``, and
    where its list work exceeds that of ``MAX_STEPS`` steps from |e><e|: the
    work of pairing the words (``_pair_distances``) plus the shell list
    entries that the chain's steps read.
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
    limit = MAX_STEPS * (MAX_STEPS + 1) // 2
    counts = Counter(w.letters for w in words)
    pairs, work = _pair_distances(counts, 2 * steps, limit)
    # The chain's lists: 1 + reach + min(t, 2 steps - t) shells to step
    # 2 steps, or t + 1 to step ``steps`` with no pair apart, summed.
    reach = max(pairs)
    work += (steps + 2 * reach + 2) * steps if reach else steps * (steps + 1) // 2
    if work > limit:
        raise CapacityError(
            f"the state words take at least {work} list work over {steps} "
            f"steps, more than {MAX_STEPS} steps from e take"
        )
    purities: list[float] = []
    bounds: list[float] = []
    series = _pair_series(params.s, pairs, len(words), steps)
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
