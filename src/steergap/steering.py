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

Tables are built from the correlators <1>, <A_x>, <B_y>, <A_x B_y>.  A
tensor state component is a d_A x D array psi, and a mixed state is a stack
of them.  Every shift acts on shell blocks of psi's columns: psi S_y psi^T
pairs the blocks that S_y swaps, and sum_y R_y psi S_y is ``hilbert``'s
lettered form with C_y = R_y.

A strategy is "violating" when its f exceeds the tensor bound, which for
s >= 3 certifies that no tensor-product model reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import require_bytes
from .freegroup import GroupParams, analytic_norm
from .hilbert import (
    TruncatedBasis, _left_pairs, _lettered, build_basis, right_regular
)
from .spectral import _lanczos_extremal

OUTCOMES = (1, -1)

#: A strategy "violates" when f exceeds the tensor bound by more than this.
VIOLATION_TOL = 1e-9


def tensor_bound(s: int) -> float:
    """Largest f any tensor-separated strategy can reach: 2*sqrt(s-1)/s."""
    return analytic_norm(s)


@dataclass(eq=False)
class ProbabilityTable:
    """Joint outcome distribution P(a, b | x, y), outcomes ordered (+1, -1).

    ``values`` has shape (2, 2, s, s) indexed [a, b, x-1, y-1], or
    (n, 2, 2, s, s) for a stack of n tables; ``correlator`` reads a single
    table.
    """

    s: int
    values: np.ndarray

    def correlator(self, x: int, y: int) -> float:
        """<A_x B_y> = sum_ab a*b*P(a,b|x,y)."""
        v = self.values[:, :, x - 1, y - 1]
        return float(v[0, 0] - v[0, 1] - v[1, 0] + v[1, 1])

    def faults(self, tol: float = 1e-10) -> list[tuple[int, str]]:
        """(index, reason) of each table in the stack that is not finite,
        nonnegative, normalized and no-signaling; a single table is index 0.

        Each clause is evaluated for the whole stack at once; the reason is
        the first clause a table fails, in that order.
        """
        s = self.s
        if self.values.ndim not in (4, 5) or self.values.shape[-4:] != (2, 2, s, s):
            raise ValueError(
                f"table has shape {self.values.shape}, expected (2, 2, s, s)"
            )
        v = self.values.reshape(-1, 2, 2, s, s)
        finite = np.isfinite(v).all(axis=(1, 2, 3, 4))
        low = v.min(axis=(1, 2, 3, 4))
        off = np.abs(v.sum(axis=(1, 2)) - 1.0).max(axis=(1, 2))
        # Alice's marginal may not depend on y, Bob's may not depend on x.
        alice = v.sum(axis=2)  # (n, 2, s, s) indexed [a, x, y]
        spread_a = np.abs(alice - alice.mean(axis=3, keepdims=True)).max(axis=(1, 2, 3))
        bob = v.sum(axis=1)  # (n, 2, s, s) indexed [b, x, y]
        spread_b = np.abs(bob - bob.mean(axis=2, keepdims=True)).max(axis=(1, 2, 3))
        signaling = np.maximum(spread_a, spread_b) > tol
        found = []
        for i in np.flatnonzero(~finite | (low < -tol) | (off > tol) | signaling):
            if not finite[i]:
                reason = "table has a non-finite entry"
            elif low[i] < -tol:
                reason = f"negative probability {float(low[i])!r}"
            elif off[i] > tol:
                reason = f"setting with total probability off by {float(off[i])!r}"
            else:
                reason = (
                    f"signaling marginal: spreads {float(spread_a[i])!r} (Alice), "
                    f"{float(spread_b[i])!r} (Bob)"
                )
            found.append((int(i), reason))
        return found

    def validate(self, tol: float = 1e-10) -> None:
        """Raise ValueError unless finite, nonnegative, normalized, no-signaling.

        For a stack the message names the first table that fails.
        """
        found = self.faults(tol)
        if found:
            i, reason = found[0]
            if self.values.ndim == 5:
                reason = f"table {i}: {reason}"
            raise ValueError(reason)

    def to_nested_list(self) -> list:
        return self.values.tolist()


def steering_functional(table: ProbabilityTable) -> float:
    """Average equal-input correlator (1/s) sum_y <A_y B_y>."""
    return sum(table.correlator(y, y) for y in range(1, table.s + 1)) / table.s


def _table_from_correlators(norm, alice, bob, joint) -> ProbabilityTable:
    """P(a,b|x,y) = (<1> + a<A_x> + b<B_y> + ab<A_x B_y>)/4.

    ``norm`` is the state's own <1>, so ``validate`` rejects an unnormalized
    state.  Every argument may carry the same leading stack axis.
    """
    a = np.array(OUTCOMES, dtype=float)[:, None, None, None]
    b = a.reshape(1, 2, 1, 1)
    values = 0.25 * (
        np.asarray(norm)[..., None, None, None, None]
        + a * alice[..., None, None, :, None]
        + b * bob[..., None, None, None, :]
        + a * b * joint[..., None, None, :, :]
    )
    return ProbabilityTable(s=alice.shape[-1], values=values)


def _bob_contractions(psi: np.ndarray, basis: TruncatedBasis) -> np.ndarray:
    """M_y = psi S_y psi^T = Tr_B((1 tensor S_y) rho) for every y: (n, s, d, d).

    ``psi`` is an (n, r, d, D) stack of r pure components per state, and
    M_y sums over them.  S_y swaps row y of each shell k+1 with rows of
    shell k (``hilbert._left_pairs``), so M_y = P_y + P_y^T, where P_y sums
    the columns of those outer blocks against their inner partners.
    """
    n, r, d, _ = psi.shape
    s = basis.params.s
    outs, ins = [], []  # per shell pair, [n, r, y, c, j] and [n, r, y, j, c]
    for inner, outer, rows in _left_pairs(basis):
        out_cols = psi[..., outer].reshape(n, r, d, s, -1)
        width = out_cols.shape[-1] // rows.shape[1]
        in_cols = psi[..., inner].reshape(n, r, d, -1, width)[..., rows, :]
        outs.append(out_cols.transpose(0, 1, 3, 2, 4))
        ins.append(in_cols.reshape(out_cols.shape).transpose(0, 1, 3, 4, 2))
    half = (np.concatenate(outs, axis=-1) @ np.concatenate(ins, axis=-2)).sum(axis=1)
    return half + half.transpose(0, 1, 3, 2)


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


def probability_table_commuting(params: GroupParams) -> ProbabilityTable:
    """P(a,b|x,y) from <e| R_x S_y |e> and the marginals, applied literally.

    Alice right-shifts, Bob left-shifts, and the shared state is the
    identity word.  Each party shifts it once, so by the buffer contract the
    depth-2 ball is exact, and a deeper one gives the same table.  S_y e and
    R_y e are both the shell-1 word g_y, basis vector y, so only the s right
    shifts are built, and they act on those vectors.
    """
    basis = build_basis(params, 2)
    words = np.eye(basis.dimension)
    e, shell1 = words[0], words[1 : params.s + 1]
    rights = [right_regular(x, basis) for x in range(1, params.s + 1)]
    joint = np.array([e @ r(shell1.T) for r in rights])  # <e| R_x S_y |e>
    return _table_from_correlators(e @ e, shell1 @ e, shell1 @ e, joint)


def commuting_strategy_result(params: GroupParams) -> StrategyResult:
    """The commuting strategy's result; ``depth`` is 2, the ball it is built on."""
    return _result(params, "commuting", probability_table_commuting(params), 2)


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
    A stack of n strategies on one basis and d_A has (n, s, d_A, d_A)
    observables and an (n, r, d_A * D) state; ``validate`` checks a single
    strategy only.
    """

    alice_dim: int
    observables: list[np.ndarray] | np.ndarray
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
    (each a d_A x D array) of psi psi^T and psi S_y psi^T.  A stack of n
    strategies gives an (n, 2, 2, s, s) table, a single one a (2, 2, s, s)
    table; both take one pass.
    """
    d, dim = strategy.alice_dim, strategy.basis.dimension
    state = np.asarray(strategy.state)
    stacked = state.ndim == 3
    psi = state.reshape(len(state) if stacked else 1, -1, d, dim)
    alice_obs = np.reshape(strategy.observables, (len(psi), -1, d, d))
    gram = np.sum(psi @ psi.transpose(0, 1, 3, 2), axis=1)
    bob_side = _bob_contractions(psi, strategy.basis)
    table = _table_from_correlators(
        np.trace(gram, axis1=1, axis2=2),
        np.einsum("nxab,nab->nx", alice_obs, gram),
        np.einsum("nyaa->ny", bob_side),
        np.einsum("nxab,nyab->nxy", alice_obs, bob_side),
    )
    if not stacked:
        table.values = table.values[0]
    return table


#: The two eigenvalues of a dichotomic observable, indexed by a 0/1 draw.
_SIGNS = np.array([-1.0, 1.0])


def draw_dichotomic(
    rng: np.random.Generator, count: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian frames (count, d, d) and +/-1 spectra (count, d) for
    ``dichotomic_stack``, drawn one matrix at a time: frame, then spectrum.

    A spectrum is ``_SIGNS[rng.integers(0, 2, size=d)]``: the same values
    and generator state as a uniform choice from (-1, +1), at less cost.
    """
    frames = np.empty((count, dim, dim))
    picks = np.empty((count, dim), dtype=np.int64)
    for i in range(count):
        rng.standard_normal(out=frames[i])
        picks[i] = rng.integers(0, 2, size=dim)
    return frames, _SIGNS[picks]


def dichotomic_stack(frames: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Symmetric involutions (q * signs) q^T, q the QR frame of each Gaussian.

    One batched QR and one batched product; each matrix comes out
    bit-identical to building it alone.
    """
    q, _ = np.linalg.qr(frames)
    return (q * signs[..., None, :]) @ np.swapaxes(q, -1, -2)


def _sign_observables(psi: np.ndarray, basis: TruncatedBasis) -> np.ndarray:
    """Best observables for a fixed state: the matrix sign of each M_y."""
    w, u = np.linalg.eigh(_bob_contractions(psi[None, None], basis)[0])
    return (u * np.where(w >= 0.0, 1.0, -1.0)[:, None, :]) @ u.transpose(0, 2, 1)


def _seesaw_operator(params: GroupParams, depth: int, obs: np.ndarray):
    """(1/s) sum_y R_y tensor S_y, R_y = ``obs[y]``, as ``(apply, sizes)`` on
    the parity split of Bob's words: a class part is a d x D_c state,
    raveled, and (R_y tensor S_y) psi = R_y psi S_y."""
    lettered, class_sizes = _lettered(params, depth, obs)
    d = obs.shape[-1]

    def apply(v, c):
        return (lettered(v.reshape(d, -1).T, c) / params.s).T.ravel()

    return apply, tuple(d * n for n in class_sizes)


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
    tolerance; it must be finite and nonnegative.  Runs that fail to go
    stationary within ``max_iter`` are flagged, not failed.
    """
    if alice_dim < 1:
        raise ValueError("alice_dim must be ≥ 1")
    if bob_depth < 2:
        raise ValueError("bob_depth must be ≥ 2")
    if restarts < 1:
        raise ValueError("restarts must be ≥ 1")
    if max_iter < 1:
        raise ValueError("max_iter must be ≥ 1")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and ≥ 0, got {tol}")
    basis = build_basis(params, bob_depth)
    s = params.s

    def state_step(obs, rng, psi):
        apply, sizes = _seesaw_operator(params, bob_depth, obs)
        v0 = None if psi is None else [part.ravel() for part in basis.split_parity(psi)]
        lam, parts, *_ = _lanczos_extremal(apply, sizes, rng, tol, v0=v0)
        psi = basis.merge_parity([part.reshape(alice_dim, -1) for part in parts])
        return lam, psi / np.linalg.norm(psi)

    master = np.random.SeedSequence(seed)
    best: tuple[float, np.ndarray, np.ndarray, list[float], bool] | None = None
    histories: list[list[float]] = []
    for child in master.spawn(restarts):
        rng = np.random.default_rng(child)
        obs = dichotomic_stack(*draw_dichotomic(rng, s, alice_dim))
        history: list[float] = []
        psi = None
        stationary = False
        for _ in range(max_iter):
            lam, psi = state_step(obs, rng, psi)
            history.append(lam)
            obs = _sign_observables(psi, basis)
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
    |g><g| must equal (1/s) sum_y 1 tensor S_y.  On the truncated ball this
    holds exactly on every vector: U is diagonal in words, R_{g_y w} = R_y
    R_w for every y, and the compression drops the same g_y w on both
    sides.  The ``observables`` R_1..R_s are checked as
    ``TensorStrategy.validate`` checks them.  Returns the largest 2-norm
    deviation over random probes; values at machine precision certify that
    Alice's dimension cannot matter.
    """
    # The identity needs no buffer; the probes keep theirs, and this check,
    # so that their draws and the figures of criterion 7 stay as they were.
    if basis.depth < 2:
        raise ValueError("depth must be ≥ 2 to leave room for buffered probes")
    s = basis.params.s
    d = len(observables[0]) if len(observables) else 0
    _check_observables(observables, s, d, 1e-10)
    dim = basis.dimension
    require_bytes(
        8 * dim * d * d, f"conjugation word operators of {dim} x {d} x {d} float64"
    )
    # R_w for every word, a shell at a time: row y of shell k+1 holds the
    # words y w', whose suffixes w' are shell k at rows ``rows[y]``.
    obs = np.asarray(observables)
    word_arr = np.empty((dim, d, d))
    word_arr[0] = np.eye(d)
    for inner, outer, rows in _left_pairs(basis):
        words = word_arr[outer].reshape((s, rows.shape[1], -1, d, d))
        suffixes = word_arr[inner].reshape((-1,) + words.shape[2:])[rows]
        np.matmul(obs[:, None, None], suffixes, out=words)

    def conjugate(mats: np.ndarray, dagger: bool) -> np.ndarray:
        ops = word_arr if dagger else word_arr.transpose(0, 2, 1)
        return np.einsum("gij,pjg->pig", ops, mats)

    def averaged(mats: np.ndarray, coefs: np.ndarray | None = None) -> np.ndarray:
        """(1/s) sum_y C_y mat S_y on each d x D array, a parity class at a time."""
        apply, _ = _lettered(basis.params, basis.depth, coefs)
        parts = [part.transpose(2, 0, 1) for part in basis.split_parity(mats)]
        images = [apply(parts[1 - c], 1 - c).transpose(1, 2, 0) for c in (0, 1)]
        return basis.merge_parity(images) / s

    # Every probe is drawn first, in turn, then all are checked as one stack.
    rng = np.random.default_rng(seed)
    keep = basis.prefix_dimension(basis.depth - 2)
    probe = np.zeros((probes, d, dim))
    for p in probe:
        p[:, :keep] = rng.standard_normal((d, keep))
        p /= np.linalg.norm(p)
    lhs = conjugate(averaged(conjugate(probe, dagger=True), obs), dagger=False)
    return float(np.linalg.norm(lhs - averaged(probe), axis=(1, 2)).max(initial=0.0))


def draw_tensor_state(
    rng: np.random.Generator, total: int, mixed: bool
) -> np.ndarray:
    """A random unit state of length ``total``: a vector, or for ``mixed``
    an (r, total) stack of rank r = min(total, 4).

    The mixed components are the columns of a Gaussian total x r matrix a,
    scaled by 1/||a||_F for unit trace.
    """
    if mixed:
        a = rng.standard_normal((total, min(total, 4)))
        return a.T / np.linalg.norm(a)
    state = rng.standard_normal(total)
    return state / np.linalg.norm(state)

