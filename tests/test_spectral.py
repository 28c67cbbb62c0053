import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steergap import (
    IDENTITY,
    GroupParams,
    Word,
    analytic_norm,
    build_basis,
    closed_walk_moment,
    estimate_norm,
    extremal_eigenpair,
    first_letter_bound_chain,
    matvec_walk_count,
    norm_sweep,
    tightness_vector,
)
from steergap import errors, spectral
from steergap.errors import CapacityError, ConvergenceError
from steergap.freegroup import ball_size
from steergap.hilbert import generator_average, left_regular, right_regular
from steergap.spectral import (
    MAX_WALK_HALF_LENGTH,
    _average_form,
    _collatz_wielandt,
    _lanczos_extremal,
    _top_state,
    radial_bracket,
    radial_offdiagonal,
    tightness_quotient,
)

from steergap.steering import random_observables

from util import brute_words, dense_left_shift, random_buffered_amplitudes


def full_average(v, basis):
    """The averaged shift through the single left shifts, not the split."""
    s = basis.params.s
    return sum(left_regular(y, basis)(v) for y in range(1, s + 1)) / s


def basis_vector(basis, word=IDENTITY):
    """The unit vector of a word, placed by its index in the brute-force
    (length, lex) order."""
    order = sorted(brute_words(basis.params.s, basis.depth), key=lambda t: (len(t), t))
    return np.eye(basis.dimension)[order.index(word.letters)]


def test_analytic_norm_values():
    assert analytic_norm(2) == 1.0
    assert analytic_norm(5) == pytest.approx(0.8, abs=0)
    assert analytic_norm(3) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=0)
    with pytest.raises(ValueError):
        analytic_norm(1)


def test_estimate_matches_dense_eigenvalue():
    params = GroupParams(3)
    basis = build_basis(params, 4)
    dense = full_average(np.eye(basis.dimension), basis)
    top = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    est = estimate_norm(params, 4)
    assert est.estimated_norm == pytest.approx(top, abs=1e-8)
    assert est.lower - ROUNDING <= top <= est.upper + ROUNDING
    assert est.representation == "sparse"


def test_radial_reduction_matches_sparse():
    """The radial value against Lanczos on the word ball, at every (s, N) of
    the quick report's sweep, and s=3 to its reference depth."""
    quick = [(s, n) for s in (2, 3, 4, 5) for n in range(1, 9)]
    for s, depth in quick + [(3, n) for n in range(9, 15)]:
        sparse, _ = extremal_eigenpair(GroupParams(s), depth)
        radial = estimate_norm(GroupParams(s), depth)
        assert abs(sparse - radial.estimated_norm) < 1e-14, (s, depth)


def test_lanczos_odd_start_matches_even_start():
    """The seesaw operator from psi's odd columns alone gives the even-start value."""
    s, alice_dim, depth = 3, 2, 4
    basis = build_basis(GroupParams(s), depth)
    rng = np.random.default_rng(4)
    obs = random_observables(rng, s, alice_dim)
    apply, sizes = generator_average(basis.params, depth, obs)
    shape = [(alice_dim, n) for n in sizes]
    even = (rng.standard_normal(shape[0]), np.zeros(shape[1]))
    odd = (np.zeros(shape[0]), rng.standard_normal(shape[1]))
    lead = (alice_dim,)
    lam_even, *_ = _lanczos_extremal(apply, sizes, None, 1e-12, v0=even, lead=lead)
    lam_odd, parts, *_ = _lanczos_extremal(apply, sizes, None, 1e-12, v0=odd, lead=lead)
    assert abs(lam_odd - lam_even) < 1e-12
    dense = sum(
        np.kron(r, left_regular(y + 1, basis)(np.eye(basis.dimension)))
        for y, r in enumerate(obs)
    ) / s
    assert abs(lam_odd - np.linalg.eigvalsh(dense)[-1]) < 1e-12
    psi = basis.merge_parity(parts).ravel()
    assert np.linalg.norm(dense @ psi - lam_odd * psi) < 1e-10


def test_radial_offdiagonal_values():
    b = radial_offdiagonal(3, 4)
    assert b[0] == pytest.approx(1 / math.sqrt(3))
    assert np.allclose(b[1:], math.sqrt(2) / 3)


def test_auto_representation_switches(monkeypatch):
    """The bracket is on the ball up to the threshold, on T_N past it, and
    the value is the radial solve's either way."""
    monkeypatch.setattr(spectral, "RADIAL_THRESHOLD", 10)
    est = estimate_norm(GroupParams(3), 5)
    assert est.representation == "radial"
    monkeypatch.setattr(spectral, "RADIAL_THRESHOLD", 10**6)
    est2 = estimate_norm(GroupParams(3), 5)
    assert est2.representation == "sparse"
    assert est2.estimated_norm == est.estimated_norm
    monkeypatch.setattr(spectral, "RADIAL_THRESHOLD", ball_size(GroupParams(3), 5))
    assert estimate_norm(GroupParams(3), 5).representation == "sparse"


def test_radial_route_is_exact_at_any_depth():
    # lambda_N approaches f* from below as f* - lambda_N ~ f* pi^2 / (2 N^2):
    # the top eigenvector of T_N is a half-sine over the N+1 shells.
    fstar = analytic_norm(3)
    values = []
    for depth in (200, 1000, 100_000):
        est = estimate_norm(GroupParams(3), depth)
        assert est.representation == "radial"
        assert est.lower - ROUNDING <= est.estimated_norm <= est.upper + ROUNDING
        assert est.upper - est.lower < 1e-12 * (1 if depth <= 10_000 else 10)
        values.append(est.estimated_norm)
    assert values[0] < values[1] < values[2] < fstar
    n = 100_000
    assert abs(n * n * (fstar - values[2]) - fstar * math.pi**2 / 2) < 1e-2


#: 9500 and 9997 hold the widest brackets at N <= 10^4 for s = 6, 7 and 8,
#: past 1e-12 when the head entries of v were the sines of rounded products.
RADIAL_ORACLE_DEPTHS = [*range(1, 301), 1000, 9500, 9997, 10_000, 100_000]


@pytest.mark.parametrize("s", range(2, 26))
def test_radial_closed_form_matches_tridiagonal_oracle(s):
    """The bisection root against LAPACK on the same T_N, its Collatz-Wielandt
    bracket around both, and the root's sign-change bracket."""
    from scipy.linalg import eigh_tridiagonal

    for n in RADIAL_ORACLE_DEPTHS:
        b = radial_offdiagonal(s, n)
        want = eigh_tridiagonal(
            np.zeros(n + 1), b, eigvals_only=True, select="i", select_range=(n, n)
        )[0]
        value, lo, hi = radial_bracket(s, n)
        assert abs(value - want) <= 1e-14, (s, n)
        assert value < analytic_norm(s)
        for top in (value, want):
            assert lo - ROUNDING <= top <= hi + ROUNDING, (s, n)
        assert hi - lo <= 1e-12 * (1 if n <= 10_000 else 10), (s, n)
        # g > 0 just above 0 (g'(0) = 2(s-1)(N+1)/s - N > 0) and g < 0 at
        # the right end, so the bracket holds exactly one sign change.
        assert spectral.radial_secular(s, n, 1e-9 / (n + 1)) > 0.0
        assert spectral.radial_secular(s, n, math.pi / (n + 1)) < 0.0


#: The bracket's ratios are floats, each a few roundings from its exact
#: value, so the certificate tests allow this much past their inequalities.
ROUNDING = 1e-15


@pytest.mark.parametrize("s", range(2, 7))
def test_collatz_wielandt_bracket_closes_on_the_radial_value(s):
    """At every depth where ``auto`` would run Lanczos, up to N = 10."""
    params = GroupParams(s)
    cap = spectral.RADIAL_THRESHOLD
    depths = [n for n in range(1, 11) if ball_size(params, n) <= cap]
    assert depths[0] == 1 and len(depths) >= 7
    for n in depths:
        value, lo, hi = _collatz_wielandt(params, n)
        assert value == radial_bracket(s, n)[0]
        assert lo - ROUNDING <= value <= hi + ROUNDING, (s, n)
        assert hi - lo <= 1e-13, (s, n)


@pytest.mark.parametrize("s,depth_max", [(2, 8), (3, 5), (4, 4), (5, 3)])
def test_collatz_wielandt_bracket_holds_the_dense_top_eigenvalue(s, depth_max):
    """The bracket against LAPACK on a dense A_N built from the definition."""
    for n in range(1, depth_max + 1):
        words = [Word(t) for t in brute_words(s, n)]
        dense = sum(dense_left_shift(s, n, y, words) for y in range(1, s + 1)) / s
        top = np.linalg.eigvalsh(dense)[-1]
        _, lo, hi = _collatz_wielandt(GroupParams(s), n)
        assert lo - ROUNDING <= top <= hi + ROUNDING, (s, n)


def test_sparse_estimate_lies_in_the_bracket_within_its_residual():
    """A Ritz value is at most rho(A_N) and within its residual of it."""
    for s, n in [(s, n) for s in (2, 3, 4, 5) for n in range(1, 9)]:
        apply, sizes = generator_average(GroupParams(s), n)
        rng = np.random.default_rng(0)
        value, _, _, residual = _lanczos_extremal(apply, sizes, rng, 1e-10)
        _, lo, hi = _collatz_wielandt(GroupParams(s), n)
        assert lo - residual - ROUNDING <= value <= hi + ROUNDING


def test_sweep_monotone_and_below_bound():
    sweep = norm_sweep(GroupParams(3), 8)
    values = [r.estimated_norm for r in sweep]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v <= analytic_norm(3) + 1e-9 for v in values)
    assert [r.depth for r in sweep] == list(range(1, 9))


def test_depth_one_value_is_inverse_sqrt_s():
    # One shell: the operator is the star graph, norm 1/sqrt(s) after the
    # 1/s normalization.
    for s in (2, 3, 4, 5):
        est = estimate_norm(GroupParams(s), 1)
        assert est.estimated_norm == pytest.approx(1 / math.sqrt(s), abs=1e-12)


def test_s2_deep_sweep_tight():
    est = estimate_norm(GroupParams(2), 50)
    assert analytic_norm(2) - est.estimated_norm < 2e-3


def test_convergence_error_carries_residual():
    apply, sizes = generator_average(GroupParams(3), 8)
    with pytest.raises(ConvergenceError) as err:
        _lanczos_extremal(apply, sizes, np.random.default_rng(0), 1e-10, krylov=2)
    assert err.value.residual is not None and err.value.residual > 0.0


def test_unknown_method_and_representation():
    """The norm has one route, the radial solve with its bracket, so it takes
    no method, representation or solver settings."""
    for option in ("method", "representation", "tol", "max_iter", "seed"):
        with pytest.raises(TypeError, match=option):
            estimate_norm(GroupParams(3), 3, **{option: None})


def test_extremal_eigenpair_is_eigenvector():
    params = GroupParams(3)
    value, vec = extremal_eigenpair(params, 5, seed=3)
    image = full_average(vec, build_basis(params, 5))
    assert np.linalg.norm(image - value * vec) < 1e-8
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert value == pytest.approx(estimate_norm(params, 5).estimated_norm, abs=1e-9)


@pytest.mark.parametrize("s,depth", [(3, 16), (5, 8)])
def test_ritz_vector_true_residual_within_tolerance(s, depth):
    """The returned vector is an eigenvector to within the solver's tolerance.

    The residual is taken through the full left-image stack, not the parity
    split the solver runs on, so it also checks the split and the merge.
    """
    tol = 1e-10
    params = GroupParams(s)
    value, vec = extremal_eigenpair(params, depth, tol=tol)
    image = full_average(vec, build_basis(params, depth))
    residual = np.linalg.norm(image - value * vec)
    assert residual <= 10 * tol


def test_value_only_lanczos_holds_order_d_memory():
    """The norm on the word ball holds a few class vectors, not 100-row
    Krylov blocks.

    The traced peak covers the whole bracket; the old parity blocks alone
    took 8 * 100 * D bytes.
    """
    params = GroupParams(3)
    dim = ball_size(params, 14)
    tracemalloc.start()
    try:
        assert estimate_norm(params, 14).representation == "sparse"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 25 * dim


def test_sparse_norm_builds_no_basis_or_index_stack():
    """The bracket on the word ball holds a few class vectors and no (s, D)
    index array.

    The int64 left-image stack alone is 8 * 3 * D bytes at s = 3.
    """
    params = GroupParams(3)
    dim = ball_size(params, 14)
    # A first solve imports modules (about 0.7 MB traced in a fresh process).
    estimate_norm(params, 3)
    tracemalloc.start()
    try:
        assert estimate_norm(params, 14).representation == "sparse"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4 * dim


def test_byte_guard_estimates_each_lanczos_route(monkeypatch):
    """A budget below the Krylov blocks refuses Lanczos, and not the norm's
    bracket on the same ball, which keeps no Krylov basis."""
    params = GroupParams(3)
    dim = ball_size(params, 8)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 8 * 10 * dim)
    assert estimate_norm(params, 8).representation == "sparse"
    with pytest.raises(CapacityError, match="Krylov basis"):
        extremal_eigenpair(params, 8)


def test_sparse_norm_needs_no_lapack_eigenvector_routine(monkeypatch):
    """The Ritz step takes its vector from a tridiagonal solve, so a Lanczos
    value and a Ritz vector both come out with ``np.linalg.eigh`` refused."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    params = GroupParams(3)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    value, _ = extremal_eigenpair(params, 8)
    assert value == pytest.approx(radial_bracket(3, 8)[0], abs=1e-12)
    value, vec = extremal_eigenpair(params, 5, seed=3)
    image = full_average(vec, build_basis(params, 5))
    assert np.linalg.norm(image - value * vec) < 1e-8


def test_ritz_step_keeps_a_tiny_last_entry_accurate():
    """The last entry of the top Ritz vector, which the stopping test reads,
    against a 60-digit eigensolve: about 1e-16, to 1e-12 relative.

    Weak couplings past row 6 make the vector decay geometrically toward
    the end, the shape of a converged Ritz vector.
    """
    mp = pytest.importorskip("mpmath")
    betas = [0.5] * 6 + [0.05] * 12
    theta, vec = spectral._ritz_top(betas)
    with mp.workdps(60):
        tri = mp.zeros(len(betas) + 1)
        for i, b in enumerate(betas):
            tri[i, i + 1] = tri[i + 1, i] = b
        values, vectors = mp.eigsy(tri)
        top = max(range(len(values)), key=lambda i: values[i])
        want = abs(vectors[len(betas), top])
        assert theta == pytest.approx(float(values[top]), rel=1e-15)
        assert want < 1e-15
        assert abs((vec[-1] - want) / want) < 1e-12
    assert np.all(vec > 0) and np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)


def test_seesaw_state_step_ritz_vector_true_residual_within_tolerance():
    """A seesaw state step's vector, checked through the single left shifts.

    The step starts from a previous state, as every seesaw step after the
    first does; the residual of (1/s) sum_y R_y psi S_y is taken on the
    whole d_A x D state, not on the parity split the solver runs on.
    """
    s, alice_dim, depth, tol = 3, 3, 8, 1e-10
    basis = build_basis(GroupParams(s), depth)
    rng = np.random.default_rng(2)
    obs = random_observables(rng, s, alice_dim)
    v0 = rng.standard_normal((alice_dim, basis.dimension))
    value, psi = _top_state(basis, None, tol, obs, v0)
    image = sum(r @ left_regular(y, basis)(psi.T).T for y, r in enumerate(obs, 1)) / s
    assert np.linalg.norm(image - value * psi) <= 10 * tol


def test_state_step_leaves_its_start_unchanged():
    """The recurrence scales its previous Lanczos vector in place, so the
    caller's start state, and the class parts made from it, must not be it."""
    s, alice_dim, depth = 3, 2, 5
    basis = build_basis(GroupParams(s), depth)
    rng = np.random.default_rng(3)
    obs = random_observables(rng, s, alice_dim)
    psi = rng.standard_normal((alice_dim, basis.dimension))
    kept = psi.copy()
    _top_state(basis, None, 1e-10, obs, psi)
    assert np.array_equal(psi, kept)
    apply, sizes = generator_average(basis.params, depth, obs)
    parts = basis.split_parity(psi)
    kept_parts = [p.copy() for p in parts]
    _lanczos_extremal(apply, sizes, None, 1e-10, v0=parts, lead=(alice_dim,))
    assert all(np.array_equal(p, k) for p, k in zip(parts, kept_parts))


def test_rayleigh_quotient_right_translation_invariant():
    """Right translations commute with the averaged left shift."""
    params = GroupParams(3)
    basis = build_basis(params, 6)
    rng = np.random.default_rng(7)
    amps = random_buffered_amplitudes(rng, basis, 3)
    base = _average_form(basis, amps)
    assert base == pytest.approx(amps @ full_average(amps, basis), abs=1e-15)
    for x in range(1, 4):
        shifted = right_regular(x, basis)(amps)
        assert _average_form(basis, shifted) == pytest.approx(base, abs=1e-12)


# --- tightness family ---


def test_tightness_vector_unit_norm_exact():
    for s in (2, 3, 5):
        params = GroupParams(s)
        basis = build_basis(params, 7)
        for n in range(7):
            v = tightness_vector(n, basis)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14
            assert np.all(v[: basis.prefix_dimension(n)] > 0)
            assert not np.any(v[basis.prefix_dimension(n) :])


def test_tightness_vector_needs_buffer():
    params = GroupParams(3)
    basis = build_basis(params, 4)
    with pytest.raises(ValueError, match="too shallow"):
        tightness_vector(4, basis)


def test_tightness_quotient_matches_closed_form():
    for s in (2, 3, 4):
        params = GroupParams(s)
        basis = build_basis(params, 9)
        for n in range(0, 8):
            q = _average_form(basis, tightness_vector(n, basis))
            assert q == pytest.approx(tightness_quotient(s, n), abs=1e-13)


def test_tightness_quotient_increases_toward_norm():
    qs = [tightness_quotient(3, n) for n in range(2, 13)]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    assert analytic_norm(3) - qs[-1] < 0.08
    assert qs[-1] == pytest.approx(0.8865846150601501, abs=1e-14)
    # and the quotient never beats the true compressed eigenvalue
    assert qs[-1] <= estimate_norm(GroupParams(3), 12).estimated_norm + 1e-12


# --- first-letter bound chain ---


def test_bound_chain_single_word():
    params = GroupParams(3)
    basis = build_basis(params, 3)
    chain = first_letter_bound_chain(basis, basis_vector(basis, Word((1,))))
    assert chain.lhs == 0.0  # <g1|Omega|g1> = 0, no closed length-1 walk
    assert chain.middle == 0.0  # p = (1,0,0) has zero variance term
    assert chain.rhs == pytest.approx(2.0 * math.sqrt(2.0))


def test_bound_chain_two_letter_spread_s2():
    params = GroupParams(2)
    basis = build_basis(params, 3)
    amps = np.zeros(basis.dimension)
    amps[1] = amps[2] = 1.0 / math.sqrt(2.0)
    chain = first_letter_bound_chain(basis, amps)
    # p = (1/2, 1/2) saturates the middle term at the rhs value 2
    assert chain.middle == pytest.approx(2.0)
    assert chain.rhs == pytest.approx(2.0)
    assert chain.lhs <= chain.middle + 1e-12


def test_bound_chain_rejects_identity_overlap():
    params = GroupParams(3)
    basis = build_basis(params, 3)
    with pytest.raises(ValueError, match="identity"):
        first_letter_bound_chain(basis, basis_vector(basis))


def test_bound_chain_rejects_unbuffered():
    params = GroupParams(3)
    basis = build_basis(params, 3)
    v = basis_vector(basis, Word((3, 2, 3)))  # the last word of the ball
    with pytest.raises(ValueError, match="buffer|shell"):
        first_letter_bound_chain(basis, v)


def test_bound_chain_buffer_check_is_exact():
    """One tiny amplitude on the outermost shell is refused; shell depth-1 is fine."""
    basis = build_basis(GroupParams(3), 4)
    rng = np.random.default_rng(5)
    amps = random_buffered_amplitudes(rng, basis, basis.depth - 1)
    amps[0] = 0.0
    amps /= np.linalg.norm(amps)
    offsets = basis.depth_offsets
    assert np.any(amps[offsets[basis.depth - 1] : offsets[basis.depth]])
    chain = first_letter_bound_chain(basis, amps)
    assert chain.lhs <= chain.middle + 1e-12
    leaky = amps.copy()
    leaky[offsets[basis.depth]] = 1e-300
    with pytest.raises(ValueError, match="shell"):
        first_letter_bound_chain(basis, leaky)


def test_bound_chain_rejects_wrong_length():
    basis = build_basis(GroupParams(3), 4)
    amps = basis_vector(build_basis(GroupParams(3), 3), Word((1,)))
    with pytest.raises(ValueError, match="shape"):
        first_letter_bound_chain(basis, amps)


def test_bound_chain_rejects_non_finite():
    """NaN fails every ``x > tol`` guard, so it must be refused up front."""
    basis = build_basis(GroupParams(3), 4)
    for bad in (np.nan, np.inf):
        amps = np.full(basis.dimension, bad)
        with pytest.raises(ValueError, match="non-finite"):
            first_letter_bound_chain(basis, amps)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_bound_chain_holds_on_random_vectors(seed):
    params = GroupParams(3)
    basis = build_basis(params, 5)
    rng = np.random.default_rng(seed)
    keep = basis.prefix_dimension(4)
    amps = np.zeros(basis.dimension)
    amps[1:keep] = rng.standard_normal(keep - 1)
    amps /= np.linalg.norm(amps)
    chain = first_letter_bound_chain(basis, amps)
    assert chain.lhs <= chain.middle + 1e-9
    assert chain.middle <= chain.rhs + 1e-9


def test_bound_chain_near_saturation():
    """The even-spread family pushes the first inequality toward equality."""
    params = GroupParams(3)
    basis = build_basis(params, 9)
    amps = tightness_vector(8, basis)
    amps[0] = 0.0
    amps /= np.linalg.norm(amps)
    chain = first_letter_bound_chain(basis, amps)
    assert chain.lhs > 0.85 * chain.rhs


def unit_rows_off_identity(basis, rows, max_depth, seed):
    """``rows`` random unit vectors on words of length 1..max_depth."""
    rng = np.random.default_rng(seed)
    keep = basis.prefix_dimension(max_depth)
    amps = np.zeros((rows, basis.dimension))
    amps[:, 1:keep] = rng.standard_normal((rows, keep - 1))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_bound_chain_middle_matches_brute_first_letters(s):
    """The first-letter weights, read off shell rows, against brute-force words."""
    depth = 9 - s
    basis = build_basis(GroupParams(s), depth)
    words = sorted(brute_words(s, depth), key=lambda t: (len(t), t))
    (amps,) = unit_rows_off_identity(basis, 1, depth - 1, seed=s)
    weights = np.zeros(s + 1)
    for t, a in zip(words, amps):
        weights[t[0] if t else 0] += a * a
    want = 2.0 * sum(math.sqrt(p * (1.0 - p)) for p in weights[1:])
    chain = first_letter_bound_chain(basis, amps)
    assert chain.middle == pytest.approx(want, abs=1e-14)


def test_bound_chain_block_matches_row_by_row():
    basis = build_basis(GroupParams(3), 6)
    amps = unit_rows_off_identity(basis, 9, 5, seed=31)
    block = first_letter_bound_chain(basis, amps)
    assert block.lhs.shape == block.middle.shape == (9,)
    for i, row in enumerate(amps):
        chain = first_letter_bound_chain(basis, row)
        assert isinstance(chain.lhs, float) and isinstance(chain.middle, float)
        assert abs(block.lhs[i] - chain.lhs) <= 1e-15
        assert abs(block.middle[i] - chain.middle) <= 1e-15
        assert chain.rhs == block.rhs
    empty = first_letter_bound_chain(basis, amps[:0])
    assert empty.lhs.shape == empty.middle.shape == (0,)


def test_bound_chain_block_refuses_any_bad_row():
    basis = build_basis(GroupParams(3), 5)
    amps = unit_rows_off_identity(basis, 6, 4, seed=37)
    leaky = amps.copy()
    leaky[4, basis.depth_offsets[basis.depth]] = 1e-300
    with pytest.raises(ValueError, match="shell"):
        first_letter_bound_chain(basis, leaky)
    overlapping = amps.copy()
    overlapping[2, 0] = 0.5
    overlapping[2] /= np.linalg.norm(overlapping[2])
    with pytest.raises(ValueError, match="identity"):
        first_letter_bound_chain(basis, overlapping)
    unnormalized = amps.copy()
    unnormalized[5] *= 2.0
    with pytest.raises(ValueError, match="normalized"):
        first_letter_bound_chain(basis, unnormalized)
    with pytest.raises(ValueError, match="shape"):
        first_letter_bound_chain(basis, amps[None])


# --- closed-walk moments ---


def test_walk_moment_examples():
    for s in (2, 3, 4, 5):
        rec = closed_walk_moment(GroupParams(s), 1)
        assert rec.walk_count == s
        assert rec.moment == pytest.approx(1.0 / s)
    rec = closed_walk_moment(GroupParams(3), 2)
    assert rec.walk_count == 15  # = 2s^2 - s at s=3
    assert rec.moment == pytest.approx(15.0 / 81.0)
    assert closed_walk_moment(GroupParams(4), 3).walk_count == 232


def test_walk_zero_length():
    rec = closed_walk_moment(GroupParams(3), 0)
    assert rec.walk_count == 1
    assert rec.moment == 1.0


def test_walk_moment_is_the_rounded_ratio():
    """The moment is the double nearest walk_count / s^(2k), bit for bit."""
    for s in range(2, 11):
        for k in range(MAX_WALK_HALF_LENGTH + 1):
            rec = closed_walk_moment(GroupParams(s), k)
            assert rec.moment == float(Fraction(rec.walk_count, s ** (2 * k)))


def test_walk_count_s2_is_central_binomial():
    for k in range(0, 13):
        rec = closed_walk_moment(GroupParams(2), k)
        assert rec.walk_count == math.comb(2 * k, k)


def mckay_walk_count(s, k):
    """Closed walks of length 2k from the root of the s-regular tree (McKay 1981)."""
    if k == 0:
        return 1
    total = sum(
        Fraction(j, 2 * k - j) * math.comb(2 * k - j, k) * s**j * (s - 1) ** (k - j)
        for j in range(1, k + 1)
    )
    assert total.denominator == 1
    return total.numerator


def test_walk_count_matches_mckay_closed_form():
    for s in range(2, 8):
        for k in range(40):
            count = closed_walk_moment(GroupParams(s), k).walk_count
            assert count == mckay_walk_count(s, k)


def test_walk_cap():
    with pytest.raises(CapacityError):
        closed_walk_moment(GroupParams(3), 65)
    with pytest.raises(ValueError):
        closed_walk_moment(GroupParams(3), -1)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_matvec_count_equals_dp(s):
    params = GroupParams(s)
    for k in range(0, 7):
        assert matvec_walk_count(params, k) == closed_walk_moment(params, k).walk_count


def test_matvec_count_depth_padding():
    params = GroupParams(2)
    direct = matvec_walk_count(params, 5)
    # extra truncation depth must not change an exact count
    assert matvec_walk_count(params, 5, depth=7) == direct == math.comb(10, 5)
    with pytest.raises(ValueError):
        matvec_walk_count(params, 5, depth=4)


def test_matvec_count_bignum_fallback():
    # 2^52 >= 2^52 puts s=2, k=26 on the pure big-integer path; the chain
    # is only 53 sites long so it is still instant, and the answer is a
    # known central binomial.
    got = matvec_walk_count(GroupParams(2), 26)
    assert got == math.comb(52, 26)
    assert got == closed_walk_moment(GroupParams(2), 26).walk_count
    # Past 2^53 a float anywhere in the sum would round: this pins the
    # zero that index -1 reads to an exact integer.
    assert matvec_walk_count(GroupParams(2), 40) == math.comb(80, 40)


def test_matvec_count_bignum_route_is_capped_for_s4():
    # At s=4 the big-integer route starts at k=13, whose depth-13 ball of
    # 3 188 645 words is over the word cap.
    with pytest.raises(CapacityError, match="3188645 words exceeds cap"):
        matvec_walk_count(GroupParams(4), 13)


def test_moment_root_frozen_value():
    """24th root of the k=12 moment at s=3, pinned by the exact count."""
    rec = closed_walk_moment(GroupParams(3), 12)
    assert rec.walk_count == 3043608351
    root = rec.moment ** (1.0 / 24.0)
    assert root == pytest.approx(0.8279801857949352, abs=1e-13)
    # root sequence approaches the norm from below, monotonically
    roots = [
        closed_walk_moment(GroupParams(3), k).moment ** (1.0 / (2 * k))
        for k in range(1, 13)
    ]
    assert all(b > a for a, b in zip(roots, roots[1:]))
    assert roots[-1] < analytic_norm(3)


def test_moments_bounded_by_norm_powers():
    for s in (2, 3, 5):
        bound = analytic_norm(s)
        for k in range(1, 10):
            rec = closed_walk_moment(GroupParams(s), k)
            assert rec.moment <= bound ** (2 * k) + 1e-15
