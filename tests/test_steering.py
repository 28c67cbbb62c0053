import math
import re

import numpy as np
import pytest

from steergap import (
    GroupParams,
    Word,
    ProbabilityTable,
    analytic_norm,
    build_basis,
    commuting_strategy_result,
    conjugation_identity_check,
    estimate_norm,
    probability_table_commuting,
    probability_table_tensor,
    seesaw_tensor_optimize,
    steering_functional,
)
from steergap.errors import CapacityError
from steergap.hilbert import left_regular
from steergap.steering import (
    VIOLATION_TOL,
    draw_tensor_state,
    random_observables,
)

from util import brute_words


def random_strategy(basis, alice_dim, rng, mixed=False):
    """Observables and state of a random valid tensor strategy: s random
    observables, then a random state."""
    obs = random_observables(rng, basis.params.s, alice_dim)
    return obs, draw_tensor_state(rng, alice_dim * basis.dimension, mixed)


def dense_bob_effects(basis):
    """Bob's effects (1 ± S_y)/2 as dense matrices, indexed [y - 1][b index]."""
    eye = np.eye(basis.dimension)
    effects = []
    for y in range(1, basis.params.s + 1):
        shift = left_regular(y, basis)(eye)
        effects.append([0.5 * (eye + b * shift) for b in (1, -1)])
    return effects


def literal_table(observables, basis, state):
    """P(a,b|x,y) = Tr(rho E^a_x ⊗ F^b_y), every effect a dense Kronecker product.

    rho = C^T C is formed densely from the state's component rows C.
    """
    s = basis.params.s
    d = observables.shape[-1]
    bob = dense_bob_effects(basis)
    components = np.atleast_2d(state)
    rho = components.T @ components
    values = np.zeros((2, 2, s, s))
    for x in range(1, s + 1):
        for ja, a in enumerate((1, -1)):
            alice = 0.5 * (np.eye(d) + a * observables[x - 1])
            for y in range(1, s + 1):
                for jb in range(2):
                    op = np.kron(alice, bob[y - 1][jb])
                    values[ja, jb, x - 1, y - 1] = np.sum(op * rho.T)
    return values


def test_bob_effects_are_buffered_projectors():
    """(1 ± S_y)/2 sum to identity everywhere and square to themselves
    on vectors supported one shell inside the truncation."""
    basis = build_basis(GroupParams(3), 3)
    inner = basis.prefix_dimension(basis.depth - 1)
    for plus, minus in dense_bob_effects(basis):
        assert np.allclose(plus + minus, np.eye(basis.dimension))
        assert np.allclose((plus @ plus)[:, :inner], plus[:, :inner], atol=1e-15)
        assert np.allclose((plus @ minus)[:, :inner], 0.0, atol=1e-15)


def test_commuting_table_closed_form():
    """P(a,b|x,y) = (1 + ab when x == y else 1)/4."""
    for s in (2, 3, 5):
        table = probability_table_commuting(GroupParams(s))
        assert table.faults(1e-15) == []
        for x in range(1, s + 1):
            for y in range(1, s + 1):
                for ja, a in enumerate((1, -1)):
                    for jb, b in enumerate((1, -1)):
                        want = (1.0 + a * b * (x == y)) / 4.0
                        got = table.values[ja, jb, x - 1, y - 1]
                        assert got == pytest.approx(want, abs=1e-15)


def test_commuting_functional_is_exactly_one():
    for s in (2, 3, 4, 10):
        res = commuting_strategy_result(GroupParams(s))
        assert res.f_s == 1.0
        assert res.model == "commuting"
        assert res.violates == (s >= 3)


def test_commuting_result_serialization_schema():
    res = commuting_strategy_result(GroupParams(3))
    doc = res.to_json_dict()
    assert list(doc) == [
        "s",
        "model",
        "f_s",
        "tensor_bound",
        "violates",
        "depth",
        "d_A",
        "seed",
        "table",
    ]
    assert doc["violates"] is True
    assert np.asarray(doc["table"]).shape == (2, 2, 3, 3)


def test_correlator_and_functional():
    s = 2
    values = np.full((2, 2, s, s), 0.25)
    flat = ProbabilityTable(s=s, values=values)
    assert steering_functional(flat) == 0.0
    # perfectly anticorrelated on equal inputs
    anti = np.zeros((2, 2, s, s))
    anti[0, 1] = anti[1, 0] = 0.5
    table = ProbabilityTable(s=s, values=anti)
    assert steering_functional(table) == -1.0
    assert table.correlator(1, 2) == -1.0


def test_table_validation_rejects_bad_tables():
    good = probability_table_commuting(GroupParams(2))
    bad = ProbabilityTable(2, good.values * 0.9)
    [(_, reason)] = bad.faults()
    assert "total probability" in reason
    neg = good.values.copy()
    neg[0, 1, 0, 0] -= 0.3  # a zero entry of the perfectly correlated table
    neg[1, 0, 0, 0] += 0.3
    [(_, reason)] = ProbabilityTable(2, neg).faults()
    assert reason.startswith("negative")
    signal = good.values.copy()
    # move mass within Bob's b=-1 column so only Alice's marginal shifts,
    # and only for y=1
    signal[0, 1, 0, 0] += 0.1
    signal[1, 1, 0, 0] -= 0.1
    [(_, reason)] = ProbabilityTable(2, signal).faults()
    assert reason.startswith("signaling")


def test_tensor_product_state_factorizes():
    """For a product state the table factorizes into marginals."""
    params = GroupParams(3)
    basis = build_basis(params, 2)
    rng = np.random.default_rng(11)
    obs = random_observables(rng, 3, 2)
    alice_vec = rng.standard_normal(2)
    alice_vec /= np.linalg.norm(alice_vec)
    bob_vec = np.zeros(basis.dimension)
    bob_vec[0] = 1.0
    table = probability_table_tensor(obs, basis, np.kron(alice_vec, bob_vec))
    assert table.faults(1e-12) == []
    bob = dense_bob_effects(basis)
    for x in range(1, 4):
        ex = 0.5 * (np.eye(2) + obs[x - 1])
        pa = float(alice_vec @ ex @ alice_vec)
        for y in range(1, 4):
            pb = float(bob_vec @ bob[y - 1][0] @ bob_vec)
            assert table.values[0, 0, x - 1, y - 1] == pytest.approx(
                pa * pb, abs=1e-12
            )


def test_tensor_matrix_state_matches_vector_state():
    """Only rho = C^T C matters: a split vector and a rotated stack agree."""
    params = GroupParams(3)
    basis = build_basis(params, 2)
    rng = np.random.default_rng(13)
    obs = random_observables(rng, 3, 2)
    vec = rng.standard_normal(2 * basis.dimension)
    vec /= np.linalg.norm(vec)
    comps = rng.standard_normal((3, 2 * basis.dimension))
    comps /= np.linalg.norm(comps)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))

    def table(state):
        return probability_table_tensor(obs, basis, state).values

    split = np.stack([vec, vec]) / math.sqrt(2.0)
    assert np.allclose(table(split), table(vec), atol=1e-14, rtol=0)
    assert np.allclose(table(rotation @ comps), table(comps), atol=1e-14, rtol=0)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("alice_dim", [1, 2, 3])
@pytest.mark.parametrize("mixed", [False, True])
def test_tensor_table_matches_literal_oracle(s, alice_dim, mixed):
    rng = np.random.default_rng(100 * s + 10 * alice_dim + mixed)
    for depth in (2, 3):
        basis = build_basis(GroupParams(s), depth)
        obs, state = random_strategy(basis, alice_dim, rng, mixed=mixed)
        got = probability_table_tensor(obs, basis, state).values
        assert np.max(np.abs(got - literal_table(obs, basis, state))) <= 1e-14


def test_unnormalized_states_fail_validation():
    """The <1> term is the state's own norm, so scaling the state shows."""
    basis = build_basis(GroupParams(3), 2)
    rng = np.random.default_rng(5)
    obs, pure = random_strategy(basis, 2, rng)
    _, mixed = random_strategy(basis, 2, rng, mixed=True)
    for state in (pure * math.sqrt(2.0), 2.0 * mixed):
        [(_, reason)] = probability_table_tensor(obs, basis, state).faults()
        assert "total probability" in reason


def test_density_matrix_state_fails_validation():
    """A (d_A D)^2 density matrix reads as d_A D components of total weight
    Tr(rho^2) < 1, so a mixed one is refused."""
    basis = build_basis(GroupParams(3), 2)
    obs, state = random_strategy(basis, 2, np.random.default_rng(9), mixed=True)
    assert probability_table_tensor(obs, basis, state).faults() == []
    rho = state.T @ state
    [(_, reason)] = probability_table_tensor(obs, basis, rho).faults()
    assert "total probability" in reason


def test_validators_reject_non_finite_entries():
    basis = build_basis(GroupParams(3), 2)
    obs = random_observables(np.random.default_rng(4), 3, 2)
    nan_state = np.full(2 * basis.dimension, np.nan)
    [(_, reason)] = probability_table_tensor(obs, basis, nan_state).faults()
    assert "non-finite" in reason


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("mixed", [False, True])
def test_stacked_tables_match_one_at_a_time(s, mixed):
    rng = np.random.default_rng(40 + 2 * s + mixed)
    for alice_dim in (1, 2, 3):
        for depth in (2, 3):
            basis = build_basis(GroupParams(s), depth)
            strats = [
                random_strategy(basis, alice_dim, rng, mixed=mixed)
                for _ in range(5)
            ]
            got = probability_table_tensor(
                np.stack([obs for obs, _ in strats]),
                basis,
                np.stack([np.atleast_2d(state) for _, state in strats]),
            )
            assert got.values.shape == (5, 2, 2, s, s)
            want = np.stack([
                probability_table_tensor(obs, basis, state).values
                for obs, state in strats
            ])
            assert want.shape == (5, 2, 2, s, s)
            assert np.max(np.abs(got.values - want)) <= 1e-15
            assert got.faults(1e-10) == []


def _corrupt(values, kind):
    """A copy of one (2, 2, s, s) table that fails exactly the named clause."""
    bad = values.copy()
    if kind == "non-finite":
        bad[0, 0, 0, 0] = np.nan
    elif kind == "negative":
        bad[0, 1, 0, 0] -= 2.0  # the setting still sums to 1
        bad[1, 0, 0, 0] += 2.0
    elif kind == "total probability":
        bad *= 0.9
    else:  # move Alice's x=1, y=1 mass only; Bob's marginal and the sum stay
        shift = 0.5 * bad[1, 0, 0, 0]
        bad[0, 0, 0, 0] += shift
        bad[1, 0, 0, 0] -= shift
    return bad


@pytest.mark.parametrize("kind", ["non-finite", "negative", "total probability",
                                  "signaling"])
def test_stacked_validate_flags_the_corrupted_table(kind):
    basis = build_basis(GroupParams(3), 2)
    rng = np.random.default_rng(31)
    strats = [random_strategy(basis, 2, rng) for _ in range(6)]
    values = np.stack([
        probability_table_tensor(obs, basis, state).values for obs, state in strats
    ])
    assert ProbabilityTable(3, values).faults(1e-10) == []
    for k in (0, 4):
        stack = values.copy()
        stack[k] = _corrupt(values[k], kind)
        faults = ProbabilityTable(3, stack).faults(1e-10)
        assert [i for i, _ in faults] == [k]
        assert kind in faults[0][1]
        [(i, reason)] = ProbabilityTable(3, stack[k]).faults(1e-10)
        assert i == 0 and re.match(f"[^:]*{kind}", reason)


@pytest.mark.parametrize("dim", range(1, 9))
def test_dichotomic_draws_match_one_at_a_time(dim):
    """Integer-indexed spectra are a uniform +/-1 choice with the same
    generator state, and the stacked builder is bit-equal to one QR each."""
    for seed in range(3):
        picked, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        signs = np.array([-1.0, 1.0])[picked.integers(0, 2, size=dim)]
        assert np.array_equal(signs, chosen.choice([-1.0, 1.0], size=dim))
        assert picked.bit_generator.state == chosen.bit_generator.state
    rng, alone = np.random.default_rng(dim), np.random.default_rng(dim)
    stacked = random_observables(rng, 12, dim)
    for got in stacked:
        q, _ = np.linalg.qr(alone.standard_normal((dim, dim)))
        sign = alone.choice([-1.0, 1.0], size=dim)
        assert np.array_equal(got, (q * sign) @ q.T)
    assert rng.bit_generator.state == alone.bit_generator.state
    one = random_observables(np.random.default_rng(dim), 1, dim)
    assert np.array_equal(one[0], stacked[0])


def test_random_tables_are_valid():
    rng = np.random.default_rng(21)
    for _ in range(25):
        s = int(rng.integers(2, 5))
        basis = build_basis(GroupParams(s), 2)
        obs, state = random_strategy(
            basis, int(rng.integers(1, 4)), rng, mixed=bool(rng.integers(0, 2))
        )
        assert probability_table_tensor(obs, basis, state).faults(1e-10) == []


def test_seesaw_reaches_compressed_value():
    params = GroupParams(3)
    res = seesaw_tensor_optimize(params, 2, 3, restarts=3, seed=2)
    target = estimate_norm(params, 3).estimated_norm
    assert res.f_s == pytest.approx(target, abs=1e-8)
    assert res.f_s <= analytic_norm(3) + 1e-9
    assert res.stationary
    assert res.table.faults(1e-9) == []


def test_seesaw_monotone_histories():
    res = seesaw_tensor_optimize(GroupParams(3), 3, 3, restarts=4, seed=8)
    assert res.restart_histories is not None
    for hist in res.restart_histories:
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize(
    "s, alice_dim, depth, seed", [(3, 3, 3, 7), (3, 8, 5, 11), (4, 2, 4, 0)]
)
def test_seesaw_returns_first_restart_within_tol_of_the_best(s, alice_dim, depth, seed):
    """The restarts tie to rounding, so the returned run is the first within
    ``tol`` of the largest final value: cutting the restarts just after it
    returns the same strategy, bit for bit (``SeedSequence.spawn`` gives
    the same first children).  ``tol`` is the optimizer's default."""
    params, tol = GroupParams(s), 1e-11
    full = seesaw_tensor_optimize(params, alice_dim, depth, restarts=6, seed=seed)
    top = max(h[-1] for h in full.restart_histories)
    first = next(i for i, h in enumerate(full.restart_histories) if h[-1] >= top - tol)
    cut = seesaw_tensor_optimize(params, alice_dim, depth, restarts=first + 1, seed=seed)
    assert cut.restart_histories == full.restart_histories[: first + 1]
    assert cut.f_s == full.f_s and cut.stationary == full.stationary
    assert np.array_equal(cut.table.values, full.table.values)


def test_seesaw_refuses_restart_states_over_budget():
    """Every restart's final d_A x D state is kept until the last restart
    sets the maximum, so a restart count whose states exceed the memory
    budget is refused before any run starts."""
    with pytest.raises(CapacityError, match="restart states"):
        seesaw_tensor_optimize(GroupParams(3), 8, 3, restarts=10**9)


def test_seesaw_deterministic_given_seed():
    a = seesaw_tensor_optimize(GroupParams(3), 2, 3, restarts=2, seed=5)
    b = seesaw_tensor_optimize(GroupParams(3), 2, 3, restarts=2, seed=5)
    assert a.f_s == b.f_s
    assert np.array_equal(a.table.values, b.table.values)


@pytest.mark.parametrize(
    "s, alice_dim, depth", [(3, 1, 4), (3, 3, 3), (3, 8, 5), (4, 4, 4)]
)
def test_seesaw_value_is_compressed_norm(s, alice_dim, depth):
    """Alice's dimension cannot help: the seesaw optimum is lambda_N."""
    params = GroupParams(s)
    res = seesaw_tensor_optimize(params, alice_dim, depth, restarts=3, seed=1)
    target = estimate_norm(params, depth, representation="sparse").estimated_norm
    assert abs(res.f_s - target) <= 1e-9


def test_seesaw_dimension_cap():
    # d_A * D = 200 * 49 150 at s=3, N=14: the two 100-row parity blocks of a
    # 200-vector Krylov basis would take 7.9 GB, so the byte guard refuses
    # before anything is allocated.
    with pytest.raises(CapacityError, match="Krylov basis"):
        seesaw_tensor_optimize(GroupParams(3), 200, 14)


def test_violation_flag_threshold():
    res = commuting_strategy_result(GroupParams(3))
    assert res.f_s > res.tensor_bound + VIOLATION_TOL
    res2 = commuting_strategy_result(GroupParams(2))
    assert not res2.f_s > res2.tensor_bound + VIOLATION_TOL


# --- conjugation identity ---


def test_conjugation_identity_trivial_observables():
    """With all observables the identity, U is the identity map."""
    params = GroupParams(3)
    basis = build_basis(params, 4)
    obs = [np.eye(2) for _ in range(3)]
    assert conjugation_identity_check(obs, basis, probes=3, seed=0) < 1e-15


def test_conjugation_identity_single_step_by_hand():
    """Conjugation sends R_y tensor S_y to 1 tensor S_y on the whole ball.

    U is diagonal in words and R_{g_y w} = R_y R_w, so no buffer is needed:
    the full matrices agree, and so does their action on alpha tensor |e>.
    """
    params = GroupParams(3)
    basis = build_basis(params, 3)
    rng = np.random.default_rng(17)
    obs = random_observables(rng, 3, 3)
    alpha = rng.standard_normal(3)
    alpha /= np.linalg.norm(alpha)
    # build U explicitly from word operators and compare one application
    word_ops = [np.eye(3)]
    words = [Word(t) for t in sorted(brute_words(3, 3), key=lambda t: (len(t), t))]
    for w in words[1:]:
        parent = words.index(Word(w.letters[1:]))
        word_ops.append(obs[w.letters[0] - 1] @ word_ops[parent])
    eye = np.eye(basis.dimension)
    shifts = [left_regular(y, basis)(eye) for y in range(1, 4)]
    avg_with = np.zeros((3 * basis.dimension, 3 * basis.dimension))
    for r, sh in zip(obs, shifts):
        avg_with += np.kron(r, sh) / 3.0
    u = np.zeros_like(avg_with)
    for g, op in enumerate(word_ops):
        proj = np.zeros((basis.dimension, basis.dimension))
        proj[g, g] = 1.0
        u += np.kron(op.T, proj)  # R_g^{-1} = R_g transpose on each block
    lhs = u @ avg_with @ u.T
    avg_without = sum(np.kron(np.eye(3), sh) for sh in shifts) / 3.0
    vec = np.kron(alpha, np.eye(basis.dimension)[0])  # alpha tensor e
    got = lhs @ vec
    want = avg_without @ vec
    assert np.linalg.norm(got - want) < 1e-12
    assert np.max(np.abs(lhs - avg_without)) < 1e-12


def test_conjugation_identity_random_buffered():
    params = GroupParams(3)
    basis = build_basis(params, 5)
    rng = np.random.default_rng(23)
    for trial in range(5):
        obs = random_observables(rng, 3, 4)
        dev = conjugation_identity_check(obs, basis, probes=4, seed=trial)
        assert dev < 1e-9


def test_conjugation_word_operators_over_budget():
    # 24 574 words x 200 x 200 float64 is 7.9 GB; the guard trips on the
    # estimate, before anything of that size is allocated.
    params = GroupParams(3)
    basis = build_basis(params, 13)
    with pytest.raises(CapacityError, match="word operators of 24574 x 200 x 200"):
        conjugation_identity_check([np.eye(200)] * 3, basis)


@pytest.mark.parametrize("clause, match", [
    ("count", "one Alice observable per input"),
    ("shape", "observable 2 has shape"),
    ("non-finite", "observable 2 has a non-finite entry"),
    ("symmetric", "observable 2 is not symmetric"),
    ("involution", "observable 2 does not square to identity"),
])
def test_conjugation_check_refuses_bad_observables(clause, match):
    """Each clause of the observable check, with the other clauses met where
    they can be: the non-symmetric matrix still squares to the identity."""
    basis = build_basis(GroupParams(3), 2)
    obs = list(random_observables(np.random.default_rng(1), 3, 2))
    bad = {
        "count": obs[:2],
        "shape": [obs[0], np.eye(3), obs[2]],
        "non-finite": [obs[0], np.full((2, 2), np.nan), obs[2]],
        "symmetric": [obs[0], np.array([[1.0, 1.0], [0.0, -1.0]]), obs[2]],
        "involution": [obs[0], 2.0 * obs[1], obs[2]],
    }[clause]
    assert conjugation_identity_check(obs, basis, probes=1) < 1e-12
    with pytest.raises(ValueError, match=match):
        conjugation_identity_check(bad, basis)


def test_conjugation_identity_needs_room():
    params = GroupParams(3)
    basis = build_basis(params, 1)
    with pytest.raises(ValueError, match="depth"):
        conjugation_identity_check([np.eye(1)] * 3, basis)
