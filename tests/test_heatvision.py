from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from steergap import (
    IDENTITY,
    GroupParams,
    build_basis,
    iterate_channel,
    purity_bound,
    superoperator_norm,
    tensor_bound,
    word_from_str,
)
from steergap.errors import BufferExhaustedError, CapacityError
from steergap.heatvision import MAX_STEPS, _lazy_walk
from steergap.hilbert import right_regular

from util import random_buffered_amplitudes


@lru_cache(maxsize=None)
def lazy_walk_second_moments(s: int, steps: int) -> tuple[Fraction, ...]:
    """Exact purity of the iterated channel started from the root vector,
    after 0, 1, ..., ``steps`` steps.

    From the root, distinct shifted branches stay orthonormal, so the purity
    is the second moment of the lazy walk that prepends (or cancels) a
    uniformly random letter with probability 1/2.  Computed in rationals for
    an arithmetic-free comparison against the float pipeline.
    """
    weights: dict[tuple, Fraction] = {(): Fraction(1)}
    jump = Fraction(1, 2 * s)
    moments = [Fraction(1)]
    for _ in range(steps):
        nxt: dict[tuple, Fraction] = defaultdict(Fraction)
        for letters, c in weights.items():
            nxt[letters] += c / 2
            for x in range(1, s + 1):
                image = letters[1:] if letters and letters[0] == x else (x,) + letters
                nxt[image] += c * jump
        weights = nxt
        moments.append(sum(c * c for c in weights.values()))
    return tuple(moments)


#: The deepest exact series each test reads at s = 3, shared through the cache.
EXACT_STEPS_S3 = 13


def word_engine_series(s: int, depth: int, steps: int) -> list[float]:
    """Purity of ``_lazy_walk`` driven directly from |e>, for 0..steps steps."""
    basis = build_basis(GroupParams(s), depth)
    weights = np.zeros(basis.dimension)
    weights[basis.index_of(IDENTITY)] = 1.0
    return [1.0] + [float(w @ w) for w in _lazy_walk(basis, weights, 0, steps)]


def dense_shift(x: int, basis) -> np.ndarray:
    return right_regular(x, basis)(np.eye(basis.dimension))


def dense_step(matrix: np.ndarray, basis) -> np.ndarray:
    """One channel step on a dense density matrix: the oracle for the engine."""
    s = basis.params.s
    out = 0.5 * matrix
    for x in range(1, s + 1):
        sh = dense_shift(x, basis)
        out = out + sh @ matrix @ sh.T / (2 * s)
    return out


def dense_mixture(basis, words) -> np.ndarray:
    """The uniform mixture of |w><w| over ``words``, as a dense matrix."""
    rows = np.eye(basis.dimension)[[basis.index_of(w) for w in words]]
    return rows.T @ rows / len(words)


def dense_purity_series(matrix: np.ndarray, basis, steps: int) -> list[float]:
    series = [float(np.sum(matrix * matrix))]
    for _ in range(steps):
        matrix = dense_step(matrix, basis)
        series.append(float(np.sum(matrix * matrix)))
    return series


def assert_density_matrix(matrix: np.ndarray) -> None:
    """Trace one, symmetric, and no eigenvalue below -1e-10."""
    assert abs(np.trace(matrix) - 1.0) <= 1e-12
    assert np.max(np.abs(matrix - matrix.T), initial=0.0) <= 1e-12
    assert np.min(np.linalg.eigvalsh(matrix)) >= -1e-10


def dense_superoperator_top(params: GroupParams, depth: int) -> float:
    """Top eigenvalue of (1/2)I + (1/2s) sum_x R_x (x) R_x, built densely."""
    basis = build_basis(params, depth)
    s = params.s
    op = 0.5 * np.eye(basis.dimension**2)
    for x in range(1, s + 1):
        sh = dense_shift(x, basis)
        op += np.kron(sh, sh) / (2 * s)
    return float(np.linalg.eigvalsh(op)[-1])


def test_step_one_purity_closed_form():
    for s in (2, 3, 5, 10):
        assert lazy_walk_second_moments(s, 1)[1] == Fraction(s + 1, 4 * s)
        run = iterate_channel(GroupParams(s), 3, 1, [IDENTITY])
        assert run.purity_series[1] == pytest.approx(0.25 + 1.0 / (4 * s), abs=1e-15)


def test_dense_series_matches_exact_walk():
    params = GroupParams(3)
    basis = build_basis(params, 7)
    run = iterate_channel(params, 7, 6, [IDENTITY])
    dense = dense_purity_series(dense_mixture(basis, [IDENTITY]), basis, 6)
    exact_series = lazy_walk_second_moments(3, EXACT_STEPS_S3)
    for p, d, exact in zip(run.purity_series, dense, map(float, exact_series)):
        assert p == pytest.approx(exact, abs=1e-15)
        assert d == pytest.approx(exact, abs=1e-12)


def test_deep_series_matches_exact_walk():
    """Depth 13 at s = 3 has 24 574 words; a dense state would take 4.8 GB."""
    run = iterate_channel(GroupParams(3), 13, 12, [IDENTITY])
    for p, exact in zip(run.purity_series, lazy_walk_second_moments(3, EXACT_STEPS_S3)):
        assert abs(p - float(exact)) <= 1e-15


def test_word_engine_from_root_matches_exact_walk():
    """The root state takes the radial route in ``iterate_channel``, so the
    word engine is driven directly to keep its coverage from |e>."""
    series = word_engine_series(3, 13, 12)
    assert len(series) == 13
    for p, exact in zip(series, lazy_walk_second_moments(3, EXACT_STEPS_S3)):
        assert abs(p - float(exact)) <= 1e-15


#: (s, steps) where the word engine runs from |e> in well under a second;
#: from the root the series does not depend on the depth once depth ≥ steps.
#: At (4, 12) the routes differ by 2.02e-15, all of it the word engine's own
#: rounding against the exact walk.
BOTH_ROUTES = [(2, 40), (3, 12), (4, 9), (5, 8)]


@pytest.mark.parametrize("s, steps", BOTH_ROUTES)
def test_radial_route_matches_word_engine(s, steps):
    run = iterate_channel(GroupParams(s), steps, steps, [IDENTITY])
    words = word_engine_series(s, steps, steps)
    assert len(run.purity_series) == len(words) == steps + 1
    for p, w in zip(run.purity_series, words):
        assert abs(p - w) <= 2e-15


@pytest.mark.parametrize("s, steps", [(2, 40), (3, EXACT_STEPS_S3), (4, 8), (5, 7)])
def test_radial_route_matches_exact_walk(s, steps):
    run = iterate_channel(GroupParams(s), steps, steps, [IDENTITY])
    exact_series = lazy_walk_second_moments(s, steps)
    assert len(run.purity_series) == len(exact_series)
    for p, exact in zip(run.purity_series, map(float, exact_series)):
        assert abs(p - exact) <= 2e-15 * exact


def test_radial_route_runs_past_the_word_cap():
    """Depth 1000 at s = 10 is a ball of about 10^954 words; the root state
    needs only its 1001 shell masses.  From shell 323 on the shell size
    overflows a float, and from shell 340 on 1/|shell k| underflows to 0."""
    run = iterate_channel(GroupParams(10), 1000, 1000, [IDENTITY])
    assert len(run.purity_series) == 1001
    assert all(b < a for a, b in zip(run.purity_series, run.purity_series[1:]))
    assert 0.0 < run.purity_series[-1] < run.bound_series[-1]


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_word_mixture_matches_dense_channel(s):
    """Repeated words count with their multiplicity, as in the dense mixture."""
    params = GroupParams(s)
    basis = build_basis(params, 4)
    for tokens in (["g1", "g1", "g2"], ["e", "g1.g2", f"g{s}", f"g{s}"]):
        words = [word_from_str(tok) for tok in tokens]
        run = iterate_channel(params, 4, 2, words)
        rho = dense_mixture(basis, words)
        assert np.allclose(
            run.purity_series, dense_purity_series(rho, basis, 2), rtol=0, atol=1e-15
        )


def test_purity_strictly_decreasing_and_bounded():
    params = GroupParams(4)
    run = iterate_channel(params, 5, 4, [IDENTITY])
    for a, b in zip(run.purity_series, run.purity_series[1:]):
        assert b < a
    for p, env in zip(run.purity_series, run.bound_series):
        assert p <= env + 1e-9
    assert run.bound_series[0] == 1.0
    assert run.fstar == tensor_bound(4)


def test_bound_series_is_geometric():
    factor = ((1.0 + tensor_bound(3)) / 2.0) ** 2
    run = iterate_channel(GroupParams(3), 5, 4, [IDENTITY])
    for t, env in enumerate(run.bound_series):
        assert env == pytest.approx(factor**t, rel=1e-15)


def test_s2_bound_is_vacuous_but_decay_still_happens():
    run = iterate_channel(GroupParams(2), 6, 5, [IDENTITY])
    assert all(env == 1.0 for env in run.bound_series)
    assert run.purity_series[-1] < 0.2


def test_purity_bound_function():
    assert purity_bound(2, 7) == 1.0
    assert purity_bound(5, 0) == 1.0
    assert purity_bound(5, 1) == pytest.approx(0.81)


@pytest.mark.parametrize("s, first_zero", [(3, 12842), (5, 3537), (10, 1670)])
def test_run_refused_where_the_envelope_underflows(s, first_zero):
    """The envelope underflows to 0.0 at these steps, where purity/bound
    would divide by zero, so such runs are refused before any step."""
    assert purity_bound(s, first_zero - 1) > 0.0
    assert purity_bound(s, first_zero) == 0.0
    with pytest.raises(ValueError, match="underflows to 0.0"):
        iterate_channel(GroupParams(s), first_zero, first_zero, [IDENTITY])


def test_step_cap_admits_every_run_the_envelope_admits():
    """At s >= 3 the envelope underflows by step MAX_STEPS + 1, so the cap
    refuses no run that was accepted without it."""
    assert purity_bound(3, MAX_STEPS) > 0.0
    for s in range(3, 11):
        assert purity_bound(s, MAX_STEPS + 1) == 0.0


@pytest.mark.parametrize("state", ["e", "g1"], ids=["radial", "word-engine"])
def test_step_cap_refuses_long_runs_at_s2(state):
    """At s = 2 the envelope never underflows, so the cap refuses the run on
    either route, before any basis is built or step is taken."""
    words = [word_from_str(state)]
    depth = MAX_STEPS + 1 + len(words[0])
    with pytest.raises(CapacityError, match=f"at most {MAX_STEPS} run"):
        iterate_channel(GroupParams(2), depth, MAX_STEPS + 1, words)


def test_kraus_form_matches_mixing_form():
    """1/2 rho + (1/2s) sum R rho R equals the two-outcome Kraus family
    {(1 +- R_x)/(2 sqrt(s))} on buffered states."""
    params = GroupParams(3)
    basis = build_basis(params, 4)
    rng = np.random.default_rng(3)
    amps = random_buffered_amplitudes(rng, basis, 2)
    rho = np.outer(amps, amps)
    out = dense_step(rho, basis)
    shifts = [dense_shift(x, basis) for x in range(1, 4)]
    via_kraus = np.zeros_like(out)
    for sh in shifts:
        for sign in (1.0, -1.0):
            k = (np.eye(basis.dimension) + sign * sh) / (2.0 * np.sqrt(3.0))
            via_kraus += k @ rho @ k.T
    assert np.max(np.abs(via_kraus - out)) < 1e-12


def test_channel_preserves_density_properties():
    params = GroupParams(3)
    basis = build_basis(params, 5)
    rng = np.random.default_rng(9)
    for trial in range(20):
        amps = random_buffered_amplitudes(rng, basis, 2)
        matrix = np.outer(amps, amps)
        for _ in range(3):
            matrix = dense_step(matrix, basis)
        assert_density_matrix(matrix)


def test_iterate_channel_refuses_overlong_runs():
    with pytest.raises(BufferExhaustedError, match="max exact steps: 4"):
        iterate_channel(GroupParams(3), 4, 5, [IDENTITY])
    with pytest.raises(BufferExhaustedError, match="max exact steps: 2"):
        iterate_channel(GroupParams(3), 4, 3, [IDENTITY, word_from_str("g1.g2")])


def test_iterate_channel_rejects_mismatched_state():
    params = GroupParams(3)
    with pytest.raises(ValueError, match="depth-4 basis"):
        iterate_channel(params, 4, 0, [word_from_str("g1.g2.g3.g1.g2")])
    with pytest.raises(ValueError, match="depth-4 basis"):
        iterate_channel(params, 4, 2, [IDENTITY, word_from_str("g4")])
    with pytest.raises(ValueError, match="zero states"):
        iterate_channel(params, 4, 2, [])


def test_run_rows_report_ratio():
    params = GroupParams(5)
    run = iterate_channel(params, 4, 3, [IDENTITY])
    rows = list(run.rows())
    assert len(rows) == 4
    for t, p, env, ratio in rows:
        assert ratio == pytest.approx(p / env)
    assert rows[0][:3] == (0, 1.0, 1.0)


def test_lazy_walk_raises_when_weight_reaches_the_cut():
    basis = build_basis(GroupParams(3), 4)
    weights = np.zeros(basis.dimension)
    weights[basis.shell(4)[0]] = 1.0
    with pytest.raises(RuntimeError, match="weight walked off the ball at step 1"):
        list(_lazy_walk(basis, weights, 4, 1))


@pytest.mark.parametrize("s, depth, support", [(2, 9, 0), (3, 8, 1), (5, 5, 2)])
def test_lazy_walk_prefix_gather_is_bit_identical_to_full_gather(s, depth, support):
    """Gathering from the reachable prefix changes no bit of the weights, and
    each step is the lazy walk of the single right shifts, up to rounding."""
    basis = build_basis(GroupParams(s), depth)
    rng = np.random.default_rng(s)
    weights = np.zeros(basis.dimension)
    live = basis.prefix_dimension(support)
    weights[:live] = rng.random(live)
    weights /= weights.sum()
    previous = weights.copy()
    # Claiming support at the cut makes every step update the whole ball.
    whole = _lazy_walk(basis, weights.copy(), depth, depth - support)
    shifts = [right_regular(x, basis) for x in range(1, s + 1)]
    prefix = _lazy_walk(basis, weights, support, depth - support)
    for t, (stepped, reference) in enumerate(zip(prefix, whole), 1):
        assert np.array_equal(stepped, reference), t
        want = 0.5 * (previous + sum(shift(previous) for shift in shifts) / s)
        np.testing.assert_allclose(stepped, want, rtol=1e-15, atol=0)
        previous = stepped.copy()


def test_superoperator_estimates_climb_toward_target():
    params = GroupParams(3)
    target = (1.0 + tensor_bound(3)) / 2.0
    values = [superoperator_norm(params, depth) for depth in range(1, 4)]
    for a, b in zip(values, values[1:]):
        assert b > a
    assert values[-1] < target
    assert values[-1] > 0.9


def test_superoperator_equals_compressed_average():
    """The truncated superoperator's top value is (1 + top of the truncated
    generator average)/2: conjugation by each shift acts as shift-tensor-shift,
    and the best tensor payoff at a given depth is the compressed eigenvalue.
    Checked against the dense superoperator at every ball of at most 26 words."""
    for s in range(2, 26):
        params = GroupParams(s)
        depth = 0
        while build_basis(params, depth).dimension <= 26:
            top = dense_superoperator_top(params, depth)
            assert abs(superoperator_norm(params, depth) - top) <= 1e-12
            depth += 1
