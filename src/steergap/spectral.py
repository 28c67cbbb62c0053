"""Certification of the norm of the averaged shift operator.

The target value is 2*sqrt(s-1)/s.  Two independent routes pin it down:

* extremal-eigenvalue estimates of the compressed operator on deeper and
  deeper truncations (the compressions increase monotonically toward the
  norm from below), and
* exact integer counts of closed walks on the s-regular tree, whose
  normalized 2k-th moments recover the same norm as a limit of 2k-th roots.

The top eigenvector of the compressed operator is constant on length
shells (the operator commutes with the root-fixing tree automorphisms and is
irreducible on nonnegative vectors), and on shell-constant vectors the
operator acts as the (N+1)-point tridiagonal matrix T_N.  The ``radial``
representation solves T_N exactly at any depth, by bisection on the scalar
secular equation of its closed-form eigenvector; ``sparse`` runs Lanczos
on the shell-block form of the compressed operator, with no word basis
or index array, which cross-checks the reduction; ``auto`` switches on
ball size.  Both run on numpy and ``math`` alone.  The report's norm sweep
runs no Lanczos: it brackets the radial value on the word ball from both
sides, with one operator apply per parity class (``_collatz_wielandt``).
The operator maps even-length words to odd-length ones and back, so its
one form, ``hilbert.generator_average``, acts on that parity split, and so
does the one Lanczos solver: a plain three-term recurrence, where the norm
estimates hold two vectors.  ``extremal_eigenpair`` and the seesaw's state
step, whose operator is the same form with d x d coefficients, need the
Ritz vector, so they keep them all, through one step, ``_top_state``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, require_bytes
from .freegroup import GroupParams, analytic_norm, ball_size
from .hilbert import (
    TruncatedBasis,
    _lettered,
    _shell_plan,
    build_basis,
    generator_average,
)

#: Above this ball size, representation="auto" leaves Lanczos on the
#: averaged shift for the shell-tridiagonal reduction.
RADIAL_THRESHOLD = 200_000

#: Cap on the closed-walk half-length; the integer dynamic program is
#: O(k^2) exact bignum work, the cap only blocks runaway requests.
MAX_WALK_HALF_LENGTH = 64

DEFAULT_KRYLOV = 200


@dataclass
class NormEstimate:
    s: int
    depth: int
    estimated_norm: float
    analytic_bound: float
    iterations: int
    residual: float
    representation: str

    @property
    def gap(self) -> float:
        return self.analytic_bound - self.estimated_norm


def _norm(v: np.ndarray) -> float:
    """2-norm by einsum, not BLAS, whose threaded ddot can stall a process."""
    flat = v.ravel("K")  # a view for a transposed class part too
    return math.sqrt(np.einsum("i,i->", flat, flat))


def radial_offdiagonal(s: int, depth: int) -> np.ndarray:
    """Off-diagonal of the shell-tridiagonal form of the averaged shift.

    Acting on shell-constant vectors, the operator sends shell k to shells
    k-1 and k+1 with couplings 1/sqrt(s) (root edge) and sqrt(s-1)/s (all
    deeper edges); the diagonal vanishes because the tree has no odd cycles.
    """
    b = np.full(depth, math.sqrt(s - 1.0) / s)
    if depth >= 1:
        b[0] = 1.0 / math.sqrt(s)
    return b


def radial_secular(s: int, depth: int, theta: float) -> float:
    """g(theta) = (2(s-1)/s) cos(theta) sin((N+1) theta) - sin(N theta)."""
    head = 2.0 * (s - 1) / s * math.cos(theta) * math.sin((depth + 1) * theta)
    return head - math.sin(depth * theta)


def _radial_root(s: int, depth: int) -> tuple[float, np.ndarray]:
    """lambda_N = f* cos(theta) and the unnormalized top vector v of T_N, depth >= 1.

    theta is the root of ``radial_secular`` that ``radial_top_eigenvalue``
    brackets, found by bisection; every entry of v is > 0, since
    0 < (N+1-k) theta < pi for k = 0..N.
    """
    lo, hi = 0.0, math.pi / (depth + 1)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if radial_secular(s, depth, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    theta = lo
    v = np.sin((depth + 1 - np.arange(depth + 1)) * theta)
    v[0] = math.sqrt(s - 1.0) / s * math.sqrt(s) * math.sin((depth + 1) * theta)
    return analytic_norm(s) * math.cos(theta), v


def radial_top_eigenvalue(s: int, depth: int) -> tuple[float, float]:
    """Top eigenvalue lambda_N of the shell tridiagonal T_N, with its residual.

    Write lambda = f* cos(theta) with f* = 2 sqrt(s-1)/s.  Rows 1..N of
    T_N v = lambda v are the free recurrence, solved by
    v_k = sin((N+1-k) theta) for k >= 1 and
    v_0 = (sqrt(s-1)/s) sqrt(s) sin((N+1) theta); row 0 then leaves the
    secular equation g(theta) = 0 of ``radial_secular``.  On
    (0, pi/(N+1)) the equation reads (2(s-1)/s) cos(theta) =
    sin(N theta)/sin((N+1) theta), a falling left side against a rising
    right one, so it has at most one root there.  It has one: g > 0 as
    theta -> 0+, since 2(s-1)(N+1)/s > N for s >= 2, and
    g(pi/(N+1)) = -sin(N pi/(N+1)) < 0.  No eigenvalue is >= f*: with
    lambda = f* cosh(t), t > 0, the same recurrence gives
    v_k = sinh((N+1-k) t) and row 0 leaves
    (2(s-1)/s) cosh(t) sinh((N+1) t) - sinh(N t) > 0, because
    2(s-1)/s >= 1; at lambda = f* it gives v_k = N+1-k and
    2(s-1)(N+1)/s - N > 0.  A larger eigenvalue below f* would need a
    smaller root, so bisection on that bracket, in ``math`` floats down to
    adjacent doubles, gives lambda_N; and theta > 0 means lambda_N < f* at
    every N.  The O(N) residual ||T_N v - lambda_N v|| of the normalized v
    is returned alongside.
    """
    if depth == 0:
        return 0.0, 0.0
    value, v = _radial_root(s, depth)
    v /= _norm(v)
    b = radial_offdiagonal(s, depth)
    tv = np.zeros_like(v)
    tv[:-1] = b * v[1:]
    tv[1:] += b * v[:-1]
    return value, _norm(tv - value * v)


def _collatz_wielandt(params: GroupParams, depth: int) -> tuple[float, float, float]:
    """lambda_N of the radial solve, with lo <= ||A_N|| <= hi on the word ball.

    The averaged shift A_N on the depth-N ball is nonnegative, symmetric,
    irreducible and bipartite, so ||A_N|| = rho(A_N), and for any positive
    u the Collatz-Wielandt bound min_w (A_N u)_w/u_w <= rho(A_N) <=
    max_w (A_N u)_w/u_w holds (Horn and Johnson, *Matrix Analysis*, 8.1).
    u spreads the radial top vector evenly over each shell,
    u_w = v_k/sqrt(|shell k|), which is positive; it is the top eigenvector
    of A_N exactly when T_N is A_N's reduction, and then the bracket closes
    around lambda_N to rounding.  One apply per parity class.
    """
    value, v = _radial_root(params.s, depth)
    apply, sizes = generator_average(params, depth)
    parts = [np.empty(n) for n in sizes]
    for k, part in enumerate(_shell_plan(params, depth)[2]):
        parts[k % 2][part] = v[k] / math.sqrt(part.stop - part.start)
    ratios = [apply(parts[c], c) / parts[1 - c] for c in (0, 1)]
    return value, float(min(map(np.min, ratios))), float(max(map(np.max, ratios)))


def _ritz_top(betas: list[float]) -> tuple[float, np.ndarray]:
    """Top eigenpair of the zero-diagonal tridiagonal T with off-diagonal ``betas``.

    The value is ``eigvalsh``'s (LAPACK's eigenvector routine can stall a
    process on threaded BLAS).  The unit vector is inverse iteration from e_r
    by the twisted factorization of T - theta at its most singular index r
    (Dhillon and Parlett, Linear Algebra Appl. 387, 2004): entries above r
    come from the top-down pivots, entries below r from the bottom-up ones,
    so a tiny last entry keeps its relative accuracy.  Every pivot is <= 0,
    as T - theta is negative semidefinite, so the vector is positive.
    """
    theta = float(np.linalg.eigvalsh(np.diag(betas, 1) + np.diag(betas, -1))[-1])
    down, up = [-theta], [-theta]
    for a, b in zip(betas, reversed(betas)):  # x / 0.0 raises: nudge a 0 pivot
        down.append(-theta - a * a / (down[-1] or -1e-300))
        up.append(-theta - b * b / (up[-1] or -1e-300))
    up.reverse()
    r = min(range(len(down)), key=lambda k: abs(down[k] + up[k] + theta))
    z = np.ones(len(down))
    z[:r] = np.cumprod(-np.divide(betas[:r], down[:r])[::-1])[::-1]
    z[r + 1 :] = np.cumprod(-np.divide(betas[r:], up[r + 1 :]))
    return theta, z / _norm(z)


def _lanczos_extremal(
    apply, sizes, rng, tol, krylov=DEFAULT_KRYLOV, v0=None, *, vectors=True, lead=()
):
    """Top eigenpair, by three-term Lanczos, of an operator that swaps two classes.

    ``apply(v, c)`` maps a class-c part, of shape ``lead + (sizes[c],)``, to
    the other class.  From a start in one class the Lanczos vectors
    alternate classes and every alpha is 0 (Golub-Kahan bidiagonalization
    of the class-0 -> class-1 block).  The plain recurrence runs with no
    reorthogonalization: in floating point the vectors lose orthogonality
    only along Ritz vectors that have converged, whose extra copies repeat
    converged Ritz values, and no Ritz value leaves the spectrum by more
    than rounding (Paige, J. Inst. Math. Appl. 18, 1976).  The Ritz values
    come in +/- pairs, so the top one is also the largest in magnitude.

    With ``vectors`` false only the last two Lanczos vectors are held, O(D)
    memory, and only the value is returned; otherwise the vectors are kept
    flat in two parity blocks and the Ritz vector is formed from them at exit.
    Returns (value, the class parts of its Ritz vector, or None, iterations,
    residual); the vector is unit up to the lost orthogonality, so callers
    normalize it.  The start is random in class 0, or the class-0 part of
    the pair ``v0``, or its class-1 part if the class-0 one is zero; then
    the top Ritz value is at least ||A v||/||v|| for that part v, since the
    leading 2 x 2 block of the tridiagonal has that top eigenvalue.
    """
    dim = math.prod(lead) * sum(sizes)
    half = (krylov + 1) // 2
    if vectors:
        require_bytes(8 * half * dim, f"Lanczos Krylov basis of {half} x {dim} float64")
    else:
        require_bytes(8 * 3 * dim, f"Lanczos recurrence of 3 x {dim} float64")
    if v0 is None:
        start, q = 0, rng.standard_normal(lead + (sizes[0],))
    else:
        start = 0 if np.any(v0[0]) else 1
        q = np.asarray(v0[start], dtype=float)
    q = q / _norm(q)
    if vectors:
        # Vector j lies in class (start + j) % 2, as row j // 2 of that block.
        blocks = [np.zeros((half, math.prod(lead) * n)) for n in sizes]
        blocks[start][0] = q.reshape(-1)
    betas: list[float] = []
    for j in range(krylov):
        c = (start + j) % 2
        w = apply(q, c)
        if j > 0:
            # prev is this run's own array (the Krylov blocks hold copies),
            # so it is scaled in place rather than into a temporary.
            prev *= betas[-1]
            w -= prev
        beta = _norm(w)
        ran_out = j == krylov - 1
        breakdown = beta < 1e-14
        if (j + 1) % 5 == 0 or ran_out or breakdown:
            theta, ritz = _ritz_top(betas)
            # On breakdown the Krylov space is invariant: the Ritz pairs are exact.
            residual = beta if breakdown else beta * abs(float(ritz[-1]))
            if residual <= tol or breakdown:
                break
            if ran_out:
                raise ConvergenceError(
                    f"Lanczos did not reach tolerance {tol:g} within Krylov "
                    f"dimension {krylov} (residual {residual:.3g})",
                    residual=residual,
                )
        betas.append(beta)
        w /= beta
        prev, q = q, w
        if vectors:
            blocks[1 - c][(j + 1) // 2] = w.reshape(-1)
    parts = None
    if vectors:
        coefs = [ritz[(c - start) % 2 :: 2] for c in (0, 1)]
        parts = [(a @ b[: len(a)]).reshape(*lead, -1) for a, b in zip(coefs, blocks)]
    return theta, parts, j + 1, residual


def _resolve_representation(representation: str, dim: int) -> str:
    if representation == "auto":
        return "sparse" if dim <= RADIAL_THRESHOLD else "radial"
    if representation not in ("sparse", "radial"):
        raise ValueError(f"unknown representation {representation!r}")
    return representation


def estimate_norm(
    params: GroupParams,
    depth: int,
    *,
    tol: float = 1e-10,
    max_iter: int | None = None,
    seed: int = 0,
    representation: str = "auto",
) -> NormEstimate:
    """Estimate the norm of the averaged shift compressed to depth ``depth``.

    Exact on ``radial``, where ``iterations`` is the dimension N+1 of T_N.
    On ``sparse`` the estimate is a Lanczos Ritz value with Krylov budget
    ``max_iter``, so it approaches the compressed eigenvalue from below and
    never exceeds the analytic norm; a ball over the word cap raises
    ``CapacityError`` before anything is allocated.  Either route refuses
    ``max_iter < 1`` and a ``tol`` that is negative or not finite.
    """
    if depth < 1:
        raise ValueError("depth must be ≥ 1")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"Krylov budget must be ≥ 1, got {max_iter}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and ≥ 0, got {tol}")
    rep = _resolve_representation(representation, ball_size(params, depth))
    if rep == "sparse":
        budget = DEFAULT_KRYLOV if max_iter is None else max_iter
        value, _, iterations, residual = _lanczos_extremal(
            *generator_average(params, depth),
            np.random.default_rng(seed),
            tol,
            budget,
            vectors=False,
        )
    else:
        value, residual = radial_top_eigenvalue(params.s, depth)
        iterations = depth + 1
    return NormEstimate(
        s=params.s,
        depth=depth,
        estimated_norm=value,
        analytic_bound=analytic_norm(params.s),
        iterations=iterations,
        residual=residual,
        representation=rep,
    )


def norm_sweep(
    params: GroupParams, depth_max: int, *, depth_min: int = 1, **kwargs
) -> list[NormEstimate]:
    """Norm estimates for every depth in [depth_min, depth_max]."""
    if depth_min < 1 or depth_min > depth_max:
        raise ValueError("need 1 ≤ depth_min ≤ depth_max")
    return [estimate_norm(params, n, **kwargs) for n in range(depth_min, depth_max + 1)]


def extremal_eigenpair(
    params: GroupParams,
    depth: int,
    *,
    tol: float = 1e-10,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Most positive eigenvalue of the compressed averaged shift, with unit vector.

    The vector is over the words of the explicit basis, in its order.
    Public only because the benchmark tracer, ``perfbench/tracer.py``, wraps
    it by name.
    """
    return _top_state(build_basis(params, depth), np.random.default_rng(seed), tol)


def _top_state(basis: TruncatedBasis, rng, tol, coefs=None, v0=None):
    """Top eigenpair of ``generator_average(..., coefs)`` on the basis's ball:
    the value and the unit Ritz vector in basis order, (D,) or, with (s, d, d)
    ``coefs``, d x D.  The run starts from the class parts of ``v0``, an array
    of that shape, or at random from ``rng``."""
    apply, sizes = generator_average(basis.params, basis.depth, coefs)
    lead = () if coefs is None else coefs.shape[-1:]
    start = None if v0 is None else basis.split_parity(v0)
    value, parts, _, _ = _lanczos_extremal(apply, sizes, rng, tol, v0=start, lead=lead)
    vec = basis.merge_parity(parts)
    return value, vec / _norm(vec)


def _average_form(basis: TruncatedBasis, amps: np.ndarray) -> np.ndarray:
    """<v| averaged shift |v> without normalizing, for a vector or each block row.

    The shift is symmetric and swaps the parity classes, so the form is
    twice the odd part against the image of the even part.
    """
    apply, _ = generator_average(basis.params, basis.depth)
    even, odd = basis.split_parity(amps)
    return 2.0 * np.einsum("...i,...i->...", odd, apply(even, 0))


def tightness_vector(n: int, basis: TruncatedBasis) -> np.ndarray:
    """Unit vector spreading weight evenly over shells 0..n.

    Shell k holds total weight 1/(n+1) split equally over its words, which
    makes the norm exactly 1 and pushes the quadratic form of the averaged
    shift within O(1/n) of the analytic norm.  The basis must extend at
    least one shell past n so a single application stays exact.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if basis.depth < n + 1:
        raise ValueError(
            f"basis too shallow: depth {basis.depth} but depth ≥ {n + 1} needed"
        )
    sizes = np.diff(basis.depth_offsets[: n + 2])
    amps = np.zeros(basis.dimension)
    amps[: basis.prefix_dimension(n)] = np.repeat(1.0 / np.sqrt((n + 1) * sizes), sizes)
    return amps


def tightness_quotient(s: int, n: int) -> float:
    """Closed form of <v| averaged-shift |v> for the even-spread vector.

    Each adjacent shell pair (k, k+1) contributes 2*b_k/(n+1) where b_k is
    the shell coupling, giving (2/(s(n+1))) * (sqrt(s) + (n-1)sqrt(s-1)).
    """
    if n == 0:
        return 0.0
    return 2.0 * (math.sqrt(s) + (n - 1) * math.sqrt(s - 1.0)) / (s * (n + 1))


@dataclass
class BoundChain:
    """The two-step estimate s*|<v|Av>| <= middle <= 2*sqrt(s-1), per row."""

    lhs: float | np.ndarray
    middle: float | np.ndarray
    rhs: float


def first_letter_bound_chain(basis: TruncatedBasis, amps: np.ndarray) -> BoundChain:
    """Evaluate the norm-bound chain on unit vectors orthogonal to |e>.

    Splitting v by first letter into pieces of weight p_y, the s-scaled
    quadratic form of the averaged shift is at most 2*sum_y
    sqrt(p_y(1-p_y)), which Cauchy-Schwarz caps at 2*sqrt(s-1).  Row y of
    each shell, read as (s, ·), holds the words that start with y, so p_y
    sums row sums.  A (D,) vector gives floats, an (n, D) block (n,)
    arrays, each row checked.  Exact only while v keeps the one-shell
    buffer, so any nonzero amplitude on the outermost shell is refused.
    """
    s, offsets = basis.params.s, basis.depth_offsets
    if amps.ndim not in (1, 2) or amps.shape[-1] != basis.dimension:
        raise ValueError(
            f"vector has shape {amps.shape}, the basis needs (..., {basis.dimension})"
        )
    if not np.all(np.isfinite(amps)):
        raise ValueError("vector has a non-finite amplitude")
    overlap = np.max(np.abs(amps[..., 0]), initial=0.0)
    if overlap > 1e-12:
        raise ValueError(
            f"vector overlaps the identity by {float(overlap)!r}; "
            "the chain needs <e|v> = 0"
        )
    if np.any(np.abs(np.linalg.norm(amps, axis=-1) - 1.0) > 1e-9):
        raise ValueError("vector must be normalized")
    if np.any(amps[..., offsets[basis.depth] :]):
        raise ValueError(
            "vector support must stay one shell below the truncation depth"
        )
    lhs = s * np.abs(_average_form(basis, amps))
    weights = sum(
        np.square(amps[..., offsets[k] : offsets[k + 1]])
        .reshape(amps.shape[:-1] + (s, (s - 1) ** (k - 1)))
        .sum(axis=-1)
        for k in range(1, basis.depth + 1)
    )
    weights = np.clip(weights, 0.0, 1.0)
    middle = 2.0 * np.sum(np.sqrt(weights * (1.0 - weights)), axis=-1)
    if amps.ndim == 1:
        lhs, middle = float(lhs), float(middle)
    return BoundChain(lhs=lhs, middle=middle, rhs=2.0 * math.sqrt(s - 1.0))


@dataclass
class MomentRecord:
    """Exact count of closed 2k-walks at the tree root, with its moment."""

    s: int
    half_length: int
    walk_count: int
    moment: float


def closed_walk_moment(params: GroupParams, k: int) -> MomentRecord:
    """Count closed walks of length 2k from the root of the s-regular tree.

    Integer dynamic program over the distance from the root; wholly
    independent of the operator machinery.  The normalized moment
    walk_count / s^(2k) equals <e| averaged-shift^(2k) |e>.
    """
    if k < 0:
        raise ValueError("half-length must be nonnegative")
    if k > MAX_WALK_HALF_LENGTH:
        raise CapacityError(f"walk half-length {k} exceeds cap {MAX_WALK_HALF_LENGTH}")
    s = params.s
    counts = {0: 1}
    for _ in range(2 * k):
        nxt: dict[int, int] = {}
        for dist, c in counts.items():
            if dist > 0:
                nxt[dist - 1] = nxt.get(dist - 1, 0) + c
            out = s if dist == 0 else s - 1
            nxt[dist + 1] = nxt.get(dist + 1, 0) + c * out
        counts = nxt
    walks = counts.get(0, 0)
    # Int true division is correctly rounded: the nearest double to the ratio.
    moment = walks / s ** (2 * k)
    return MomentRecord(s=s, half_length=k, walk_count=walks, moment=moment)


def matvec_walk_count(params: GroupParams, k: int, *, depth: int | None = None) -> int:
    """The same closed-walk count via k applications of the adjacency matrix.

    Applies the plain sum of ``hilbert._lettered`` k times to the identity
    on a depth-k ball, where the count is exact, and squares the class part
    reached.  Float64 matvecs are exact integer arithmetic as long as every
    intermediate stays below 2^52; beyond that the same loop runs on an
    object array of Python ints.  That route needs s^(2k) >= 2^52, so for
    s >= 4 it starts at k >= 13, whose ball is over the word cap: only
    s <= 3 ever reaches it, and larger s raise ``CapacityError``.
    """
    if k < 0:
        raise ValueError("half-length must be nonnegative")
    if depth is None:
        depth = max(k, 1)
    if depth < k:
        raise ValueError(f"depth {depth} cannot hold walks of half-length {k}")
    apply, sizes = _lettered(params, depth)
    exact_in_float = params.s ** (2 * k) < 2**52
    vec = np.zeros(sizes[0], dtype=float if exact_in_float else object)
    vec[0] = 1
    for c in range(k):
        vec = apply(vec, c % 2)
    return int(round(vec @ vec))
