"""Bipartite steering strategies over the truncated word space.

Both parties answer +/-1 to inputs x, y in 1..s; the figure of merit is the
average equal-input correlator f = (1/s) sum_y <A_y B_y>.  Bob always
measures the projectors (1 +/- left-shift)/2.  Two strategy classes are
compared:

* a *commuting* strategy where Alice acts on the same truncated space by
  right shifts — left and right shifts commute, the shared state is the
  identity word, and f = 1 exactly for every s;
* *tensor* strategies where Alice holds a separate d_A-dimensional space —
  no such strategy can beat 2*sqrt(s-1)/s, and an alternating seesaw
  optimizer saturates the compressed-operator value from below.

Tables are built from the correlators <1>, <A_x>, <B_y>, <A_x B_y>, and
every shift acts through ``hilbert.gather`` on the basis's image arrays: for
a tensor state component stored as a d_A x D array psi, psi S_y is a gather
of the columns of psi.  A mixed state is a stack of such pure components.

A strategy is "violating" when its f exceeds the tensor bound, which for
s >= 3 certifies that no tensor-product model reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import require_bytes
from .freegroup import GroupParams
from .hilbert import TruncatedBasis, build_basis, gather
from .spectral import _lanczos_extremal, analytic_norm

OUTCOMES = (1, -1)

#: A strategy "violates" when f exceeds the tensor bound by more than this.
VIOLATION_TOL = 1e-9


def tensor_bound(s: int) -> float:
    """Largest f any tensor-separated strategy can reach: 2*sqrt(s-1)/s."""
    return analytic_norm(s)


@dataclass(eq=False)
class ProbabilityTable:
    """Joint outcome distribution P(a, b | x, y), outcomes ordered (+1, -1).

    ``values`` has shape (2, 2, s, s) indexed [a, b, x-1, y-1].
    """

    s: int
    values: np.ndarray

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.values[OUTCOMES.index(a), OUTCOMES.index(b), x - 1, y - 1])

    def correlator(self, x: int, y: int) -> float:
        """<A_x B_y> = sum_ab a*b*P(a,b|x,y)."""
        v = self.values[:, :, x - 1, y - 1]
        return float(v[0, 0] - v[0, 1] - v[1, 0] + v[1, 1])

    def validate(self, tol: float = 1e-10) -> None:
        """Raise ValueError unless finite, nonnegative, normalized, no-signaling."""
        if self.values.shape != (2, 2, self.s, self.s):
            raise ValueError(
                f"table has shape {self.values.shape}, expected (2, 2, s, s)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("table has a non-finite entry")
        low = float(np.min(self.values))
        if low < -tol:
            raise ValueError(f"negative probability {low!r}")
        sums = np.sum(self.values, axis=(0, 1))
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > tol:
            raise ValueError(f"setting with total probability off by {worst!r}")
        # Alice's marginal may not depend on y, Bob's may not depend on x.
        alice = np.sum(self.values, axis=1)  # (2, s, s) indexed [a, x, y]
        spread_a = float(np.max(np.abs(alice - alice.mean(axis=2, keepdims=True))))
        bob = np.sum(self.values, axis=0)  # (2, s, s) indexed [b, x, y]
        spread_b = float(np.max(np.abs(bob - bob.mean(axis=1, keepdims=True))))
        if max(spread_a, spread_b) > tol:
            raise ValueError(
                f"signaling marginal: spreads {spread_a!r} (Alice), {spread_b!r} (Bob)"
            )

    def to_nested_list(self) -> list:
        return self.values.tolist()


def steering_functional(table: ProbabilityTable) -> float:
    """Average equal-input correlator (1/s) sum_y <A_y B_y>."""
    return sum(table.correlator(y, y) for y in range(1, table.s + 1)) / table.s


def _table_from_correlators(norm, alice, bob, joint) -> ProbabilityTable:
    """P(a,b|x,y) = (<1> + a<A_x> + b<B_y> + ab<A_x B_y>)/4.

    ``norm`` is the state's own <1>, so ``validate`` rejects an unnormalized state.
    """
    a = np.array(OUTCOMES, dtype=float)[:, None, None, None]
    b = a.reshape(1, 2, 1, 1)
    values = 0.25 * (norm + a * alice[:, None] + b * bob[None, :] + a * b * joint)
    return ProbabilityTable(s=len(alice), values=values)


def _bob_contractions(psi: np.ndarray, images: np.ndarray) -> np.ndarray:
    """M_y = psi S_y psi^T = Tr_B((1 tensor S_y)|psi><psi|) for every y: (s, d, d).

    S_y is symmetric with row i holding a single 1 at images[y, i], so
    column i of psi S_y is column images[y, i] of psi.
    """
    return np.tensordot(gather(psi.T, images), psi, axes=([1], [1]))


@dataclass(eq=False)
class StrategyResult:
    """Outcome of evaluating or optimizing one strategy.

    ``objective_history`` and ``restart_histories`` are diagnostics from the
    seesaw optimizer; they are not part of the serialized ``result``.
    """

    s: int
    model: str
    f_s: float
    tensor_bound: float
    violates: bool
    depth: int
    table: ProbabilityTable
    d_A: int | None = None
    seed: int | None = None
    stationary: bool = True
    objective_history: list[float] | None = None
    restart_histories: list[list[float]] | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "model": self.model,
            "f_s": self.f_s,
            "tensor_bound": self.tensor_bound,
            "violates": self.violates,
            "depth": self.depth,
            "d_A": self.d_A,
            "seed": self.seed,
            "table": self.table.to_nested_list(),
        }


def _result(
    params: GroupParams,
    model: str,
    table: ProbabilityTable,
    depth: int,
    **extra,
) -> StrategyResult:
    f = steering_functional(table)
    bound = tensor_bound(params.s)
    return StrategyResult(
        s=params.s,
        model=model,
        f_s=f,
        tensor_bound=bound,
        violates=f > bound + VIOLATION_TOL,
        depth=depth,
        table=table,
        **extra,
    )


def probability_table_commuting(
    params: GroupParams, depth: int = 2
) -> ProbabilityTable:
    """P(a,b|x,y) from <e| R_x S_y |e> and the marginals, applied literally.

    Alice right-shifts, Bob left-shifts, and the shared state is the
    identity word: (S_y v)[i] = v[left_image_stack[y-1, i]] and
    (R_x v)[i] = v[right_image_stack[x-1, i]], both read through ``gather``.
    """
    if depth < 2:
        raise ValueError("depth must be ≥ 2 so one application per party stays exact")
    basis = build_basis(params, depth)
    e = np.zeros(basis.dimension)
    e[0] = 1.0  # the identity word
    right = basis.right_image_stack
    bob_shifted = gather(e, basis.left_image_stack)  # row y is S_y e
    joint = e @ gather(bob_shifted.T, right)  # [x, y] = <e| R_x S_y |e>
    return _table_from_correlators(e @ e, gather(e, right) @ e, bob_shifted @ e, joint)


def commuting_strategy_result(
    params: GroupParams, depth: int = 2
) -> StrategyResult:
    table = probability_table_commuting(params, depth)
    return _result(params, "commuting", table, depth)


def _check_observables(observables, s: int, d: int, tol: float) -> None:
    """Raise ValueError unless there are s finite symmetric d x d involutions."""
    if len(observables) != s:
        raise ValueError("need one Alice observable per input")
    eye = np.eye(d)
    for i, r in enumerate(observables, start=1):
        if r.shape != (d, d):
            raise ValueError(f"observable {i} has shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError(f"observable {i} has a non-finite entry")
        if np.max(np.abs(r - r.T)) > tol:
            raise ValueError(f"observable {i} is not symmetric")
        if np.max(np.abs(r @ r - eye)) > tol:
            raise ValueError(f"observable {i} does not square to identity")


@dataclass(eq=False)
class TensorStrategy:
    """Alice observables on her own d_A-dimensional space, Bob on a basis.

    ``state`` is an (r, d_A * D) stack of pure components c_i, the state
    rho = sum_i c_i c_i^T; a unit vector of length d_A * D is the r = 1 case.
    """

    alice_dim: int
    observables: list[np.ndarray]
    basis: TruncatedBasis
    state: np.ndarray

    def validate(self, tol: float = 1e-10) -> None:
        _check_observables(self.observables, self.basis.params.s, self.alice_dim, tol)
        total = self.alice_dim * self.basis.dimension
        if self.state.ndim not in (1, 2) or self.state.shape[-1] != total:
            raise ValueError(f"state has shape {self.state.shape}, not (r, {total})")
        if not np.all(np.isfinite(self.state)):
            raise ValueError("state has a non-finite entry")
        if abs(np.linalg.norm(self.state) - 1.0) > tol:
            raise ValueError("state is not normalized")


def probability_table_tensor(strategy: TensorStrategy) -> ProbabilityTable:
    """P(a,b|x,y) = <E^a_x tensor F^b_y> in the strategy's state.

    The state reduces to G = Tr_B(rho) and K_y = Tr_B((1 tensor S_y) rho) on
    Alice's side: <1> = tr G, <A_x> = <A_x, G>, <B_y> = tr K_y and
    <A_x B_y> = <A_x, K_y>.  Both are sums over the pure components psi
    (each a d_A x D array) of psi psi^T and psi S_y psi^T.
    """
    basis = strategy.basis
    images = basis.left_image_stack
    components = np.reshape(strategy.state, (-1, strategy.alice_dim, basis.dimension))
    gram = reduce(np.add, (psi @ psi.T for psi in components))
    bob_side = reduce(np.add, (_bob_contractions(psi, images) for psi in components))
    alice_obs = np.stack(strategy.observables)
    return _table_from_correlators(
        np.trace(gram),
        np.einsum("xab,ab->x", alice_obs, gram),
        np.einsum("yaa->y", bob_side),
        np.einsum("xab,yab->xy", alice_obs, bob_side),
    )


def random_dichotomic(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random symmetric involution: a random frame with random +/-1 spectrum."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = rng.choice([-1.0, 1.0], size=dim)
    return (q * signs) @ q.T


def _sign_observables(psi: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Best observables for a fixed state: the matrix sign of each M_y."""
    m = _bob_contractions(psi, images)
    w, u = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
    return (u * np.where(w >= 0.0, 1.0, -1.0)[:, None, :]) @ u.transpose(0, 2, 1)


def seesaw_tensor_optimize(
    params: GroupParams,
    alice_dim: int,
    bob_depth: int,
    *,
    restarts: int = 20,
    max_iter: int = 100,
    tol: float = 1e-11,
    seed: int = 0,
) -> StrategyResult:
    """Alternating optimization of f over tensor strategies.

    Fix the observables and take the top eigenvector of
    (1/s) sum_y R_y tensor S_y as the state; fix the state and set each
    R_y to the matrix sign of its contraction with Bob's shift.  Each
    R_y tensor S_y anticommutes with 1 tensor (-1)^|w|, so the spectrum is
    symmetric about zero and the most positive eigenvalue is the extremal
    one; no sign flip is needed.  The operator acts matrix-free on the state
    as a d_A x D array and maps the columns of Bob's even-length words to
    the odd-length ones and back, so each state step is a parity-split
    Lanczos run.  It starts from the previous state's even columns psi_e
    (its odd ones if those are zero), whose two-vector Krylov space already
    has Ritz value ||A psi_e||/||psi_e|| >= <psi, A psi> for unit psi; so
    the step's value is at least the objective the observable step reached.
    Both steps can only increase the objective, so each run's history is
    monotone; the best run over all restarts is returned.  The optimum is the compressed norm lambda_N for every d_A,
    since the conjugation identity strips Alice out.  ``tol`` is both the
    stationarity tolerance on the objective and the Lanczos residual
    tolerance.  Runs that fail to go stationary within ``max_iter`` are
    flagged, not failed.
    """
    if alice_dim < 1:
        raise ValueError("alice_dim must be ≥ 1")
    if bob_depth < 2:
        raise ValueError("bob_depth must be ≥ 2")
    if restarts < 1:
        raise ValueError("restarts must be ≥ 1")
    if max_iter < 1:
        raise ValueError("max_iter must be ≥ 1")
    basis = build_basis(params, bob_depth)
    s = params.s
    images = basis.left_image_stack
    split = basis.parity_split

    def state_step(obs, rng, psi):
        def apply(v, c):  # (R_y tensor S_y) psi = R_y psi S_y, class c -> 1 - c
            shifted = gather(v.reshape(alice_dim, -1).T, split.images[1 - c])
            return np.tensordot(obs, shifted, axes=([0, 2], [0, 2])).ravel() / s

        sizes = tuple(alice_dim * len(idx) for idx in split.indices)
        v0 = None if psi is None else [psi[:, idx].ravel() for idx in split.indices]
        lam, parts, *_ = _lanczos_extremal(apply, sizes, rng, tol, v0=v0)
        psi = basis.merge_parity([part.reshape(alice_dim, -1) for part in parts])
        return lam, psi / np.linalg.norm(psi)

    master = np.random.SeedSequence(seed)
    best: tuple[float, np.ndarray, np.ndarray, list[float], bool] | None = None
    histories: list[list[float]] = []
    for child in master.spawn(restarts):
        rng = np.random.default_rng(child)
        obs = np.stack([random_dichotomic(rng, alice_dim) for _ in range(s)])
        history: list[float] = []
        psi = None
        stationary = False
        for _ in range(max_iter):
            lam, psi = state_step(obs, rng, psi)
            history.append(lam)
            obs = _sign_observables(psi, images)
            if len(history) >= 3 and abs(history[-1] - history[-3]) < tol:
                stationary = True
                break
        histories.append(history)
        if best is None or history[-1] > best[0]:
            best = (history[-1], obs, psi, history, stationary)
    assert best is not None
    _, obs, psi, history, stationary = best
    # One final state step so the reported state matches the reported
    # observables exactly.
    _, psi = state_step(obs, None, psi)
    strategy = TensorStrategy(
        alice_dim=alice_dim, observables=list(obs), basis=basis, state=psi.ravel()
    )
    table = probability_table_tensor(strategy)
    return _result(
        params,
        "tensor",
        table,
        bob_depth,
        d_A=alice_dim,
        seed=seed,
        stationary=stationary,
        objective_history=history,
        restart_histories=histories,
    )


def conjugation_identity_check(
    observables: list[np.ndarray],
    basis: TruncatedBasis,
    *,
    probes: int = 50,
    seed: int = 0,
) -> float:
    """Max deviation of the unitary that strips Alice out of the correlator.

    Conjugating (1/s) sum_y R_y tensor S_y by U = sum_g R_g^{-1} tensor
    |g><g| must equal (1/s) sum_y 1 tensor S_y on vectors supported two
    shells below the cut (one shell for U, one for the shift).  The
    ``observables`` R_1..R_s are checked as ``TensorStrategy.validate``
    checks them.  Returns the largest 2-norm deviation over random buffered
    probes; values at machine precision certify that Alice's dimension
    cannot matter.
    """
    if basis.depth < 2:
        raise ValueError("depth must be ≥ 2 to leave room for buffered probes")
    s = basis.params.s
    d = len(observables[0]) if len(observables) else 0
    _check_observables(observables, s, d, 1e-10)
    dim = basis.dimension
    images = basis.left_image_stack
    # R_g for every basis word by peeling the first letter; the suffix of a
    # reduced word is reduced and shorter, hence already computed.
    first, parent = basis.first_letters(), basis.suffixes()
    require_bytes(
        8 * dim * d * d, f"conjugation word operators of {dim} x {d} x {d} float64"
    )
    word_arr = np.empty((dim, d, d))
    word_arr[0] = np.eye(d)
    for i in range(1, dim):
        word_arr[i] = observables[first[i] - 1] @ word_arr[parent[i]]

    def conjugate(mat: np.ndarray, dagger: bool) -> np.ndarray:
        ops = word_arr if dagger else word_arr.transpose(0, 2, 1)
        return np.einsum("gij,jg->ig", ops, mat)

    def averaged(mat: np.ndarray, with_alice: bool) -> np.ndarray:
        acc = np.zeros_like(mat)
        shifted = gather(mat.T, images).transpose(0, 2, 1)
        for y, r in enumerate(observables):
            acc += (r @ shifted[y]) if with_alice else shifted[y]
        return acc / s

    rng = np.random.default_rng(seed)
    keep = basis.prefix_dimension(basis.depth - 2)
    worst = 0.0
    for _ in range(probes):
        probe = np.zeros((d, dim))
        probe[:, :keep] = rng.standard_normal((d, keep))
        probe /= np.linalg.norm(probe)
        lhs = conjugate(averaged(conjugate(probe, dagger=True), with_alice=True),
                        dagger=False)
        rhs = averaged(probe, with_alice=False)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def random_tensor_strategy(
    basis: TruncatedBasis,
    alice_dim: int,
    rng: np.random.Generator,
    *,
    mixed: bool = False,
) -> TensorStrategy:
    """A random valid tensor strategy, for table-validity sweeps.

    A mixed state has rank at most 4: its components are the columns of a
    Gaussian (d_A * D) x 4 matrix a, scaled by 1/||a||_F for unit trace.
    """
    obs = [random_dichotomic(rng, alice_dim) for _ in range(basis.params.s)]
    total = alice_dim * basis.dimension
    if mixed:
        a = rng.standard_normal((total, min(total, 4)))
        state = a.T / np.linalg.norm(a)
    else:
        state = rng.standard_normal(total)
        state /= np.linalg.norm(state)
    return TensorStrategy(
        alice_dim=alice_dim, observables=obs, basis=basis, state=state
    )
