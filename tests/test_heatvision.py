from collections import defaultdict
from fractions import Fraction

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
from steergap.errors import BufferExhaustedError
from steergap.heatvision import _lazy_walk
from steergap.hilbert import gather, right_regular

from util import random_buffered_amplitudes


def lazy_walk_second_moment(s: int, steps: int) -> Fraction:
    """Exact purity of the iterated channel started from the root vector.

    From the root, distinct shifted branches stay orthonormal, so the purity
    is the second moment of the lazy walk that prepends (or cancels) a
    uniformly random letter with probability 1/2.  Computed in rationals for
    an arithmetic-free comparison against the float pipeline.
    """
    weights: dict[tuple, Fraction] = {(): Fraction(1)}
    jump = Fraction(1, 2 * s)
    for _ in range(steps):
        nxt: dict[tuple, Fraction] = defaultdict(Fraction)
        for letters, c in weights.items():
            nxt[letters] += c / 2
            for x in range(1, s + 1):
                image = letters[1:] if letters and letters[0] == x else (x,) + letters
                nxt[image] += c * jump
        weights = nxt
    return sum(c * c for c in weights.values())


def dense_shift(x: int, basis) -> np.ndarray:
    return gather(np.eye(basis.dimension), right_regular(x, basis))


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
        assert lazy_walk_second_moment(s, 1) == Fraction(s + 1, 4 * s)
        run = iterate_channel(GroupParams(s), 3, 1, [IDENTITY])
        assert run.purity_series[1] == pytest.approx(0.25 + 1.0 / (4 * s), abs=1e-15)


def test_dense_series_matches_exact_walk():
    params = GroupParams(3)
    basis = build_basis(params, 7)
    run = iterate_channel(params, 7, 6, [IDENTITY])
    dense = dense_purity_series(dense_mixture(basis, [IDENTITY]), basis, 6)
    for t, (p, d) in enumerate(zip(run.purity_series, dense)):
        exact = float(lazy_walk_second_moment(3, t))
        assert p == pytest.approx(exact, abs=1e-15)
        assert d == pytest.approx(exact, abs=1e-12)


def test_deep_series_matches_exact_walk():
    """Depth 13 at s = 3 has 24 574 words; a dense state would take 4.8 GB."""
    run = iterate_channel(GroupParams(3), 13, 12, [IDENTITY])
    for t, p in enumerate(run.purity_series):
        assert abs(p - float(lazy_walk_second_moment(3, t))) <= 1e-15


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
