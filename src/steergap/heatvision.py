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
the root.  ``iterate_channel`` carries them in plain Python floats, with
no word basis or array, and reads the purity off the hull of the words.

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
from itertools import chain
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


def _shifted(counts: Counter) -> Counter:
    return Counter({d + 1: n for d, n in counts.items()})


def _hull_plan(words: list[Word]) -> list[tuple[int, Counter]]:
    """(hull degree, words at each distance) of each vertex of the words' hull.

    The hull is the subtree that the words span, a trie of their prefixes
    below the one they all share.  The words below a vertex are counted up
    it, and the others come down from the vertex's parent.
    """
    cut = len(commonprefix([w.letters for w in words]))
    child, ends = {}, Counter()
    for w in words:
        u = 0
        for letter in w.letters[cut:]:
            u = child.setdefault((u, letter), len(child) + 1)
        ends[u] += 1
    parent = [-1] + [u for u, _ in child]
    below = [Counter({0: ends[u]} if u in ends else {}) for u in range(len(parent))]
    for u in range(len(parent) - 1, 0, -1):
        below[parent[u]] += _shifted(below[u])
    around = below[:1]
    for u in range(1, len(parent)):
        around.append(below[u] + _shifted(around[parent[u]] - _shifted(below[u])))
    degree = Counter(parent[1:])
    return [(degree[u] + (u > 0), around[u]) for u in range(len(parent))]


def _hull_series(s: int, plan, reach: int, total: int, steps: int):
    """Yield (trace, purity) of the run from the plan's ``total`` words, from t = 0.

    ``mass[k]`` is shell k's weight in the run from |e><e|: a step divides by
    s rather than multiplying by a rounded 1/(2s), so rounding does not drain
    the trace, and the list ends in ``reach`` zeros, so each shift is a slice.
    ``share[k]`` is 1/|shell k|.  Let c_d be the fraction of the words d
    away from hull vertex u, and a = c_d (s-1)^-d at the nearest d.  Then u
    holds rho[0] = sum_d c_d share[d] mass[d].  Each of its s - deg u
    branches has (s-1)^(j-1) words j deep, each holding share[j] a rho[j]
    with rho[j] = sum_d c_d (s-1)^-d mass[d + j] / a.  So u adds the terms
    rho[j]^2 weighted[j], where weighted[0] = 1 and weighted[j] = (s - deg u)/s
    a^2 share[j].  From |e><e|, rho is ``mass`` and weighted is ``share``.
    Powers (s-1)^-d of far words underflow only where the purity terms that
    they scale fall below the smallest normal float, as ``share`` does.
    """
    share = [1.0] + [(s - 1.0) ** (1 - k) / s for k in range(1, max(steps, reach) + 1)]
    vertices = []
    for degree, counts in plan:
        near, *far = sorted(counts)
        weight = (s - degree) / s * (counts[near] / total * (s - 1.0) ** -near) ** 2
        weighted = [1.0] + [weight * x for x in share[1 : steps + 1]]
        ratios = [(d, counts[d] / counts[near] * (s - 1.0) ** (near - d)) for d in far]
        inside = [(d, n / total * share[d]) for d, n in counts.items()]
        vertices.append((inside, near, ratios, weighted))
    mass = [1.0] + [0.0] * reach
    # Float s and s - 1 round as the ints do, and save converting them per shell.
    fs, out = float(s), s - 1.0
    for t in range(steps + 1):
        if t:
            inward = mass[1:] + [0.0, 0.0]
            outward = [0.0, fs * mass[0]] + [out * m for m in mass[1:]]
            mass = [
                0.5 * (m + (a + b) / fs)
                for m, a, b in zip(mass + [0.0], inward, outward)
            ]
        squares = []
        for inside, near, ratios, weighted in vertices:
            rho = mass[near : near + t + 1]
            for d, ratio in ratios:
                rho = [r + ratio * x for r, x in zip(rho, mass[d : d + t + 1])]
            rho[0] = math.fsum([c * mass[d] for d, c in inside])
            squares.append(map(mul, map(mul, rho, rho), weighted))
        yield math.fsum(mass), math.fsum(chain.from_iterable(squares))


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
    word counting with its multiplicity.  Words are checked against the
    depth-``depth`` basis first, then the run is refused past the truncation
    buffer, where the envelope underflows to 0.0, past ``MAX_STEPS``, and
    where its list work exceeds that of ``MAX_STEPS`` steps from |e><e|: the
    hull's distinct vertex-word distances times t plus the largest distance,
    summed over the steps.
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
    plan = _hull_plan(words)
    reach = max(max(counts) for _, counts in plan)
    pairs = sum(len(counts) for _, counts in plan)
    work = pairs * (steps * (steps + 1) // 2 + steps * reach)
    if work > MAX_STEPS * (MAX_STEPS + 1) // 2:
        raise CapacityError(
            f"the state words' hull takes {work} list work over {steps} steps, "
            f"more than {MAX_STEPS} steps from e take"
        )
    purities: list[float] = []
    bounds: list[float] = []
    series = _hull_series(params.s, plan, reach, len(words), steps)
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
