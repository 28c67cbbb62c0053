"""The one-shot reproduction report: nine numbered checks, pass/fail each.

Each criterion function recomputes its quantities from scratch through the
public package API at the documented tolerances.  ``tolerance_scale``
multiplies every tolerance (0 is the negative control where nothing can
pass); the ``quick`` profile shrinks sweep sizes for smoke testing and is
not the reference configuration.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .freegroup import IDENTITY, GroupParams, analytic_norm, ball_size
from .heatvision import (
    iterate_channel,
    purity_bound,
    superoperator_norm,
)
from .hilbert import build_basis
from .spectral import (
    RADIAL_THRESHOLD,
    _average_form,
    _collatz_wielandt,
    _norm,
    closed_walk_moment,
    first_letter_bound_chain,
    matvec_walk_count,
    radial_top_eigenvalue,
    tightness_quotient,
    tightness_vector,
)
from .steering import (
    ProbabilityTable,
    commuting_strategy_result,
    conjugation_identity_check,
    draw_tensor_state,
    probability_table_commuting,
    probability_table_tensor,
    random_observables,
    seesaw_tensor_optimize,
)


#: Settings that both profiles share.
NORM_S_VALUES = (2, 3, 4, 5)
MOMENT_ROOT_HALF_LENGTH = 12
CHAIN_DEPTH = 8
VIOLATION_S_VALUES = (3, 4, 5, 10)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.title} — {self.details}"

    def to_json_dict(self) -> dict:
        return asdict(self)


def _verdict(
    number: int, title: str, details: str, problems: list[str], shown: int | None = None
) -> CriterionResult:
    """Pass when there are no problems; the details end with the first ``shown``."""
    if problems:
        details += "; " + "; ".join(problems[:shown])
    return CriterionResult(number, title, not problems, details)


@dataclass
class ReportSettings:
    """Knobs for the report; the defaults are the reference configuration."""

    tolerance_scale: float = 1.0
    seed: int = 7

    norm_depth_max: int = 14
    norm_gap_allowance: float = 0.03

    moment_k_max: int = 8
    moment_s_max: int = 5

    chain_samples: int = 1000

    tightness_depth_max: int = 12
    tightness_gap_allowance: float = 0.08

    seesaw_restarts: int = 20
    seesaw_alice_dim: int = 8
    seesaw_bob_depth: int = 5

    conjugation_draws: int = 50
    conjugation_depth: int = 6

    heat_depth: int = 10
    heat_steps: int = 9
    superop_depth_max: int = 4

    table_samples: int = 1000

    @classmethod
    def quick(cls) -> "ReportSettings":
        """Smoke-test profile: same checks, smaller sweeps.

        The convergence windows are widened to what the shallower sweeps
        can reach; the reference tolerances are the field defaults.
        """
        return cls(
            norm_depth_max=8,
            norm_gap_allowance=0.06,
            moment_k_max=5,
            moment_s_max=4,
            chain_samples=60,
            tightness_depth_max=8,
            tightness_gap_allowance=0.11,
            seesaw_restarts=3,
            seesaw_alice_dim=3,
            seesaw_bob_depth=3,
            conjugation_draws=8,
            conjugation_depth=4,
            heat_depth=6,
            heat_steps=5,
            superop_depth_max=3,
            table_samples=60,
        )


def criterion_norm_sweep(settings: ReportSettings) -> CriterionResult:
    """1: lambda_N climbs to 2*sqrt(s-1)/s from below, certified on the ball.

    Every depth takes lambda_N from the radial solve and checks it above
    the envelope f* cos(pi/(N+2)).  Where ``auto`` would run Lanczos, a
    ball of at most ``RADIAL_THRESHOLD`` words, the value must also lie in
    its Collatz-Wielandt bracket on the ball, and the bracket must close.
    The final depth's gap must be within ``norm_gap_allowance``.
    """
    scale = settings.tolerance_scale
    tol = 1e-12 * scale
    if settings.norm_depth_max < 1:
        raise ValueError(f"norm_depth_max must be ≥ 1, got {settings.norm_depth_max}")
    worst_gap = -math.inf
    problems = []
    for s in NORM_S_VALUES:
        params = GroupParams(s)
        bound = analytic_norm(s)
        estimates, uncertified, under = [], [], []
        for n in range(1, settings.norm_depth_max + 1):
            if ball_size(params, n) <= RADIAL_THRESHOLD:
                value, lo, hi = _collatz_wielandt(params, n)
                if not (lo - tol <= value <= hi + tol and hi - lo <= tol):
                    uncertified.append(
                        f"s={s}: N={n} value {value!r} not certified by its "
                        f"Collatz-Wielandt bracket [{lo!r}, {hi!r}]"
                    )
            else:
                value = radial_top_eigenvalue(s, n)[0]
            envelope = bound * math.cos(math.pi / (n + 2))
            if not value > envelope:
                under.append(
                    f"s={s}: N={n} value {value!r} not above the envelope "
                    f"{envelope!r}"
                )
            estimates.append(value)
        problems += uncertified[:1] + under[:1]
        for a, b in zip(estimates, estimates[1:]):
            if b < a:
                problems.append(f"s={s}: sweep not monotone ({a!r} -> {b!r})")
                break
        over = max(e - bound for e in estimates)
        if over > 1e-9 * scale:
            problems.append(f"s={s}: estimate exceeds analytic value by {over:.3g}")
        gap = bound - estimates[-1]
        worst_gap = max(worst_gap, gap)
        allowed = settings.norm_gap_allowance * scale
        if gap > allowed:
            problems.append(f"s={s}: final gap {gap:.6f} exceeds {allowed:.6f}")
    details = (
        f"worst final gap {worst_gap:.6f} "
        f"(allowed {settings.norm_gap_allowance * scale:.6f})"
    )
    return _verdict(1, "norm sweep converges from below", details, problems)


def criterion_moment_oracle(settings: ReportSettings) -> CriterionResult:
    """2: walk counts match matvec moments exactly; 24th moment root near norm."""
    scale = settings.tolerance_scale
    problems = []
    checked = 0
    for s in range(2, settings.moment_s_max + 1):
        params = GroupParams(s)
        for k in range(settings.moment_k_max + 1):
            dp = closed_walk_moment(params, k).walk_count
            mv = matvec_walk_count(params, k)
            checked += 1
            if dp != mv:
                problems.append(f"s={s}, k={k}: walk count {dp} != matvec {mv}")
    k12 = MOMENT_ROOT_HALF_LENGTH
    rec = closed_walk_moment(GroupParams(3), k12)
    root = rec.moment ** (1.0 / (2 * k12))
    diff = abs(root - analytic_norm(3))
    if diff > 0.06 * scale:
        problems.append(
            f"s=3, k={k12}: moment root {root:.6f} differs from analytic norm "
            f"by {diff:.6f} > {0.06 * scale:.6f}"
        )
    details = (
        f"{checked} exact count comparisons; moment root at k={k12} "
        f"off by {diff:.6f} (allowed {0.06 * scale:.6f})"
    )
    return _verdict(2, "walk-count oracle equivalence", details, problems, 4)


def criterion_bound_chain(settings: ReportSettings) -> CriterionResult:
    """3: the two-step norm bound holds on random vectors orthogonal to |e>."""
    scale = settings.tolerance_scale
    tol = 1e-9 * scale
    basis = build_basis(GroupParams(3), CHAIN_DEPTH)
    rng = np.random.default_rng(settings.seed)
    keep = basis.prefix_dimension(CHAIN_DEPTH - 1)
    n = settings.chain_samples
    if n < 0:
        raise ValueError(f"chain_samples must be ≥ 0, got {n}")
    amps = np.zeros((n, basis.dimension))  # one row per sample
    amps[:, 1:keep] = rng.standard_normal(amps[:, 1:keep].shape)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    chain = first_letter_bound_chain(basis, amps)
    bad = (chain.lhs > chain.middle + tol) | (chain.middle > chain.rhs + tol)
    lower, upper = chain.middle - chain.lhs, chain.rhs - chain.middle
    slack = float(min(lower.min(initial=math.inf), upper.min(initial=math.inf)))
    details = (
        f"{n} samples, {np.count_nonzero(bad)} violations, "
        f"minimum slack {slack:.3g}"
    )
    return CriterionResult(3, "first-letter bound chain", not bad.any(), details)


def criterion_tightness(settings: ReportSettings) -> CriterionResult:
    """4: the even-shell family is unit norm and its quotients climb to the norm."""
    scale = settings.tolerance_scale
    problems = []
    norm_err = 0.0
    for s in (2, 3, 4, 5):
        basis = build_basis(GroupParams(s), 7)
        for n in range(0, 7):
            v = tightness_vector(n, basis)
            norm_err = max(norm_err, abs(_norm(v) - 1.0))
    if norm_err > 1e-12 * scale:
        problems.append(f"norm deviates from 1 by {norm_err:.3g}")
    params = GroupParams(3)
    quotients = []
    for n in range(2, settings.tightness_depth_max + 1):
        basis = build_basis(params, n + 1)
        q = float(_average_form(basis, tightness_vector(n, basis)))
        closed = tightness_quotient(3, n)
        if abs(q - closed) > 1e-10:
            problems.append(f"n={n}: quotient {q!r} far from closed form {closed!r}")
        quotients.append(q)
    for a, b in zip(quotients, quotients[1:]):
        if b <= a:
            problems.append(f"quotient sequence not increasing ({a!r} -> {b!r})")
            break
    final_gap = analytic_norm(3) - quotients[-1]
    allowed = settings.tightness_gap_allowance * scale
    if final_gap > allowed:
        problems.append(f"final quotient gap {final_gap:.6f} exceeds {allowed:.6f}")
    details = (
        f"max norm error {norm_err:.2g}; final quotient gap {final_gap:.6f} "
        f"(allowed {allowed:.6f})"
    )
    return _verdict(4, "tightness family", details, problems)


def criterion_commuting_violation(settings: ReportSettings) -> CriterionResult:
    """5: the commuting strategy reports f = 1 and violates for every s >= 3."""
    scale = settings.tolerance_scale
    problems = []
    worst = 0.0
    for s in VIOLATION_S_VALUES:
        res = commuting_strategy_result(GroupParams(s))
        worst = max(worst, abs(res.f_s - 1.0))
        if abs(res.f_s - 1.0) > 1e-12 * scale:
            problems.append(f"s={s}: f = {res.f_s!r}")
        if not res.violates:
            problems.append(f"s={s}: violation not reported")
    res2 = commuting_strategy_result(GroupParams(2))
    if res2.violates:
        problems.append("s=2: spurious violation (bound is 1 there)")
    if abs(res2.f_s - 1.0) > 1e-12 * scale:
        problems.append(f"s=2: f = {res2.f_s!r}")
    details = f"max |f - 1| = {worst:.2g}; s=2 violates={res2.violates}"
    return _verdict(5, "commuting strategy violates", details, problems)


def criterion_seesaw_bound(settings: ReportSettings) -> CriterionResult:
    """6: the seesaw never beats the tensor bound and each run is monotone."""
    scale = settings.tolerance_scale
    params = GroupParams(3)
    result = seesaw_tensor_optimize(
        params,
        settings.seesaw_alice_dim,
        settings.seesaw_bob_depth,
        restarts=settings.seesaw_restarts,
        seed=settings.seed,
    )
    problems = []
    excess = result.f_s - result.tensor_bound
    if excess > 1e-6 * scale:
        problems.append(f"f = {result.f_s!r} beats the bound by {excess:.3g}")
    assert result.restart_histories is not None
    for i, hist in enumerate(result.restart_histories):
        for a, b in zip(hist, hist[1:]):
            if b < a - 1e-12 * scale:
                problems.append(f"restart {i}: objective dropped {a!r} -> {b!r}")
                break
    details = (
        f"best f = {result.f_s:.10f} vs bound {result.tensor_bound:.10f} "
        f"({settings.seesaw_restarts} restarts, d_A={settings.seesaw_alice_dim})"
    )
    return _verdict(6, "seesaw stays under tensor bound", details, problems, 4)


def criterion_conjugation(settings: ReportSettings) -> CriterionResult:
    """7: stripping Alice by the word unitary is exact on buffered probes."""
    scale = settings.tolerance_scale
    draws = settings.conjugation_draws
    if draws < 0:
        raise ValueError(f"conjugation_draws must be ≥ 0, got {draws}")
    params = GroupParams(3)
    basis = build_basis(params, settings.conjugation_depth)
    rng = np.random.default_rng(settings.seed)
    # Each check seeds its own probes, so every draw can be made up front.
    worst = 0.0
    for i, obs in enumerate(random_observables(rng, 3 * draws, 4).reshape(-1, 3, 4, 4)):
        worst = max(
            worst,
            conjugation_identity_check(obs, basis, probes=2, seed=settings.seed + i),
        )
    tol = 1e-9 * scale
    passed = worst <= tol
    details = f"max deviation {worst:.3g} over {draws} draws (allowed {tol:.3g})"
    return CriterionResult(7, "Alice-stripping conjugation identity", passed, details)


def criterion_heat_vision(settings: ReportSettings) -> CriterionResult:
    """8: purity decays under its envelope; superoperator norm climbs to it."""
    scale = settings.tolerance_scale
    params = GroupParams(3)
    run = iterate_channel(params, settings.heat_depth, settings.heat_steps, [IDENTITY])
    problems = []
    for t, p in enumerate(run.purity_series):
        if p > purity_bound(3, t) + 1e-9 * scale:
            problems.append(f"t={t}: purity {p!r} above bound")
    step1_err = abs(run.purity_series[1] - (0.25 + 1.0 / 12.0))
    if step1_err > 1e-12 * scale:
        problems.append(f"step-1 purity off by {step1_err:.3g}")
    for t in range(1, len(run.purity_series)):
        if not run.purity_series[t] < run.purity_series[t - 1]:
            problems.append(f"t={t}: purity not strictly decreasing")
    target = 0.5 + analytic_norm(3) / 2.0
    sups = [
        superoperator_norm(params, n) for n in range(1, settings.superop_depth_max + 1)
    ]
    for a, b in zip(sups, sups[1:]):
        if b < a:
            problems.append(f"superoperator estimates not nondecreasing ({a!r} -> {b!r})")
    over = max(v - target for v in sups)
    if over > 1e-9 * scale:
        problems.append(f"superoperator estimate above target by {over:.3g}")
    details = (
        f"final purity {run.purity_series[-1]:.6f} vs bound "
        f"{run.bound_series[-1]:.6f}; step-1 error {step1_err:.2g}; "
        f"superoperator estimate reaches {sups[-1]:.6f} of {target:.6f}"
    )
    return _verdict(8, "heat-vision purity decay", details, problems, 4)


def criterion_table_sanity(settings: ReportSettings) -> CriterionResult:
    """9: every emitted probability table is a valid no-signaling distribution.

    Every sample's header (s, d_A, depth, mixed) is drawn first, in one
    call, with mixed 0 or 1.  Then each group of equal headers, in sorted
    order, draws its observables and states and builds its tables as one
    stack; with the commuting table they are checked one stack per s.
    """
    scale = settings.tolerance_scale
    tol = 1e-10 * scale
    if settings.table_samples < 0:
        raise ValueError(f"table_samples must be ≥ 0, got {settings.table_samples}")
    rng = np.random.default_rng(settings.seed)
    size = (settings.table_samples, 4)
    headers = Counter(map(tuple, rng.integers((2, 1, 2, 0), (6, 4, 4, 2), size).tolist()))
    stacks = {s: [probability_table_commuting(GroupParams(s)).values[None]]
              for s in (2, 3, 4, 5)}
    for (s, d_a, depth, mixed), n in sorted(headers.items()):
        basis = build_basis(GroupParams(s), depth)
        obs = random_observables(rng, n * s, d_a).reshape(n, s, d_a, d_a)
        states = np.array([
            np.atleast_2d(draw_tensor_state(rng, d_a * basis.dimension, mixed))
            for _ in range(n)
        ])
        stacks[s].append(probability_table_tensor(obs, basis, states).values)
    checked = failures = 0
    for s, parts in stacks.items():
        tables = ProbabilityTable(s, np.concatenate(parts))
        checked += len(tables.values)
        failures += len(tables.faults(tol))
    details = f"{checked} tables validated, {failures} failures"
    return CriterionResult(9, "probability-table sanity", failures == 0, details)


CRITERIA = [
    criterion_norm_sweep,
    criterion_moment_oracle,
    criterion_bound_chain,
    criterion_tightness,
    criterion_commuting_violation,
    criterion_seesaw_bound,
    criterion_conjugation,
    criterion_heat_vision,
    criterion_table_sanity,
]


def run_report(settings: ReportSettings | None = None) -> list[CriterionResult]:
    """Every criterion in order; a NaN or negative ``tolerance_scale`` is refused."""
    if settings is None:
        settings = ReportSettings()
    scale = settings.tolerance_scale
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"tolerance_scale must be finite and ≥ 0, got {scale}")
    return [fn(settings) for fn in CRITERIA]
