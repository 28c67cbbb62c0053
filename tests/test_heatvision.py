from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from steergap import (
    IDENTITY,
    GroupParams,
    Word,
    analytic_norm,
    build_basis,
    heatvision,
    iterate_channel,
    purity_bound,
    superoperator_norm,
    word_from_str,
)
from steergap.errors import BufferExhaustedError, CapacityError
from steergap.heatvision import MAX_STEPS
from steergap.hilbert import right_regular

from util import brute_words, random_buffered_amplitudes, stack_reduce


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
    """Purity of the lazy walk of the single right shifts over every word of
    the depth-``depth`` ball, from |e>, for 0..steps steps."""
    basis = build_basis(GroupParams(s), depth)
    shifts = [right_regular(x, basis) for x in range(1, s + 1)]
    weights = np.zeros(basis.dimension)
    weights[0] = 1.0  # the identity is the first word of every ball
    series = [1.0]
    for _ in range(steps):
        weights = 0.5 * (weights + sum(shift(weights) for shift in shifts) / s)
        series.append(float(weights @ weights))
    return series


def exact_mixture_purities(s: int, tokens: str, steps: int) -> list[Fraction]:
    """Exact purity of the channel run from the uniform mixture of the words
    in ``tokens``, after 0..steps steps: the lazy walk by right
    multiplication, word by word, in rationals."""
    words = [word_from_str(tok).letters for tok in tokens.split(",")]
    weights: dict[tuple, Fraction] = defaultdict(Fraction)
    for w in words:
        weights[w] += Fraction(1, len(words))
    purities = [sum(c * c for c in weights.values())]
    for _ in range(steps):
        nxt: dict[tuple, Fraction] = defaultdict(Fraction)
        for w, c in weights.items():
            nxt[w] += c / 2
            for x in range(1, s + 1):
                nxt[stack_reduce(w + (x,))] += c / (2 * s)
        weights = nxt
        purities.append(sum(c * c for c in weights.values()))
    return purities


def closed_walks(s: int, length: int) -> int:
    """Closed walks of ``length`` steps from the root of the s-regular tree,
    counted by distance from the root: s ways out of the root, one way in
    and s - 1 ways out elsewhere."""
    ways = [1]
    for _ in range(length):
        nxt = [0] * (len(ways) + 1)
        for d, n in enumerate(ways):
            nxt[d + 1] += n * (s if d == 0 else s - 1)
            if d:
                nxt[d - 1] += n
        ways = nxt
    return ways[0]


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
    """The uniform mixture of |w><w| over ``words``, as a dense matrix, each
    word placed by its index in the brute-force (length, lex) order."""
    order = sorted(brute_words(basis.params.s, basis.depth), key=lambda t: (len(t), t))
    position = {t: i for i, t in enumerate(order)}
    rows = np.eye(basis.dimension)[[position[w.letters] for w in words]]
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
    """The word-level walk that the radial route is checked against below."""
    series = word_engine_series(3, 13, 12)
    assert len(series) == 13
    for p, exact in zip(series, lazy_walk_second_moments(3, EXACT_STEPS_S3)):
        assert abs(p - float(exact)) <= 1e-15


#: (s, steps) where the word-level walk runs from |e> in well under a second;
#: from the root the series does not depend on the depth once depth ≥ steps.
BOTH_ROUTES = [(2, 40), (3, 12), (4, 9), (5, 8)]


@pytest.mark.parametrize("s, steps", BOTH_ROUTES)
def test_radial_route_matches_word_engine(s, steps):
    run = iterate_channel(GroupParams(s), steps, steps, [IDENTITY])
    words = word_engine_series(s, steps, steps)
    assert len(run.purity_series) == len(words) == steps + 1
    for p, w in zip(run.purity_series, words):
        assert abs(p - w) <= 2e-15


@pytest.mark.parametrize("s", [2, 3, 5, 10])
def test_root_run_is_the_return_probability_of_the_doubled_walk(s):
    """From |e>, the purity after t steps is the lazy walk's return
    probability after 2t: 4^-t sum_k C(2t, 2k) walks(2k) / s^(2k), with
    walks the exact closed-walk count of criterion 2."""
    run = iterate_channel(GroupParams(s), 30, 30, [IDENTITY])
    walks = [closed_walks(s, 2 * k) for k in range(31)]
    for t, p in enumerate(run.purity_series):
        exact = sum(
            Fraction(comb(2 * t, 2 * k) * walks[k], s ** (2 * k)) for k in range(t + 1)
        ) / 4**t
        assert abs(p - float(exact)) <= 1e-15 * float(exact)


#: Mixtures with repeated words, words that share prefixes and words that
#: all share one (g1 in the last), each against the exact word-level walk.
MIXTURES = [
    (2, "e,g1.g2,g1.g2,g2", 14),
    (3, "e,g1", 11),
    (3, "g1.g2.g1,g2.g3,e,e", 9),
    (3, "g1.g2,g1.g3,g1.g2.g1", 9),
    (4, "g1,g2.g3", 7),
    (5, "g1.g2.g3,g1.g2.g4,g3", 5),
]


@pytest.mark.parametrize("s, tokens, steps", MIXTURES)
def test_hull_route_matches_exact_word_walk(s, tokens, steps):
    words = [word_from_str(tok) for tok in tokens.split(",")]
    run = iterate_channel(GroupParams(s), steps + 3, steps, words)
    exact_series = exact_mixture_purities(s, tokens, steps)
    assert len(run.purity_series) == len(exact_series)
    for p, exact in zip(run.purity_series, map(float, exact_series)):
        assert abs(p - exact) <= 1e-15 * exact


def test_one_word_runs_as_the_root():
    """The hull of one word, repeated or not, is that word alone, so its run
    is the run from |e>, bit for bit."""
    root = iterate_channel(GroupParams(3), 20, 12, [IDENTITY]).purity_series
    for tokens in ("g1", "g2.g3.g1.g2,g2.g3.g1.g2"):
        words = [word_from_str(tok) for tok in tokens.split(",")]
        assert iterate_channel(GroupParams(3), 20, 12, words).purity_series == root


@pytest.mark.parametrize("s, length", [(10, 400), (10, 700), (3, 1100)])
def test_far_apart_words_lose_only_subnormal_terms(s, length):
    """(s-1)^-d underflows from d = 323 at s = 10 (d = 1023 at s = 3), and a
    hull vertex's squared weight from half that.  Such words are computed,
    not refused: their walks cannot meet in 5 steps, so the purity is half
    the root run's, and nothing but terms below the normal floats is lost."""
    far = Word(tuple(1 + k % 2 for k in range(length)))
    run = iterate_channel(GroupParams(s), length + 5, 5, [IDENTITY, far])
    root = iterate_channel(GroupParams(s), 5, 5, [IDENTITY])
    for p, q in zip(run.purity_series, root.purity_series):
        assert abs(p - q / 2) <= 1e-15 * q


def test_list_work_refusal_admits_the_longest_root_run(monkeypatch):
    """A run may take at most the list work of MAX_STEPS steps from |e>: a
    pass over t shells at step t.  The mixture of e and g1 has the hull
    {e, g1}, each vertex with two distinct distances to the words, the
    largest 1, so step t takes 4 (t + 1) passes.  Runs that are admitted
    reach the stepping, stubbed out here; the first refused one does not."""

    class Stepped(Exception):
        pass

    def stepped(*args):
        raise Stepped

    limit = MAX_STEPS * (MAX_STEPS + 1) // 2
    steps = 0
    while 4 * (steps + 1) * (steps + 2) // 2 + 4 * (steps + 1) <= limit:
        steps += 1
    assert steps == 6419
    words = [IDENTITY, word_from_str("g1")]
    monkeypatch.setattr(heatvision, "_hull_series", stepped)
    with pytest.raises(Stepped):
        iterate_channel(GroupParams(2), MAX_STEPS, MAX_STEPS, [IDENTITY])
    with pytest.raises(Stepped):
        iterate_channel(GroupParams(2), steps + 1, steps, words)
    with pytest.raises(CapacityError, match=r"list work over \d+ steps, more than"):
        iterate_channel(GroupParams(2), steps + 2, steps + 1, words)


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
    assert run.fstar == analytic_norm(4)


def test_bound_series_is_geometric():
    factor = ((1.0 + analytic_norm(3)) / 2.0) ** 2
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


@pytest.mark.parametrize("state", ["e", "e,g1"], ids=["radial", "mixture"])
def test_step_cap_refuses_long_runs_at_s2(state):
    """At s = 2 the envelope never underflows, so the cap refuses the run,
    from the root or a mixture, before the hull is planned or a step taken."""
    words = [word_from_str(tok) for tok in state.split(",")]
    depth = MAX_STEPS + 1 + max(map(len, words))
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


def test_superoperator_estimates_climb_toward_target():
    params = GroupParams(3)
    target = (1.0 + analytic_norm(3)) / 2.0
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
