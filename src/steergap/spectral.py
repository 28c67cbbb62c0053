"""Certification of the norm of the averaged shift operator.

The target value is 2*sqrt(s-1)/s.  Two independent routes pin it down:

* the compressed operator's top eigenvalue lambda_N on deeper and deeper
  truncations (the compressions increase monotonically toward the norm
  from below), and
* exact integer counts of closed walks on the s-regular tree, whose
  normalized 2k-th moments recover the same norm as a limit of 2k-th roots.

The top eigenvector of the compressed operator is constant on length
shells (the operator commutes with the root-fixing tree automorphisms and is
irreducible on nonnegative vectors), and on shell-constant vectors the
operator acts as the (N+1)-point tridiagonal matrix T_N.  Every lambda_N
comes from an exact solve of T_N at any depth, by bisection on the scalar
secular equation of its closed-form eigenvector, and carries a
Collatz-Wielandt bracket lo <= lambda_N <= hi from one apply of a
nonnegative operator to that positive vector: of the averaged shift on the
word ball (``sparse``, ``_collatz_wielandt``), which cross-checks the
reduction, on balls of at most ``RADIAL_THRESHOLD`` words, and of T_N
itself (``radial``, ``radial_bracket``) deeper.  Both run on numpy and
``math`` alone.  The operator maps even-length words to odd-length ones
and back, so its one form, ``hilbert.generator_average``, acts on that
parity split, and so does the one Lanczos step, ``_top_state``, a plain
three-term recurrence that keeps its vectors.  It returns the Ritz vector
to ``extremal_eigenpair`` and to the seesaw's state step, whose operator
is the same form with d x d coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, require_bytes
from .freegroup import GroupParams, analytic_norm, ball_size
from .hilbert import (
    TruncatedBasis,
    _letter_pairs,
    _lettered,
    build_basis,
    generator_average,
)

#: Balls of at most this many words bracket lambda_N on the word ball
#: itself; above it, on the shell tridiagonal T_N alone.
RADIAL_THRESHOLD = 200_000

#: Cap on the closed-walk half-length; the integer dynamic program is
#: O(k^2) exact bignum work, the cap only blocks runaway requests.
MAX_WALK_HALF_LENGTH = 64

DEFAULT_KRYLOV = 200

#: pi - math.pi, the part of pi below a double's last bit.
_PI_TAIL = 1.2246467991473532e-16


@dataclass
class NormEstimate:
    s: int
    depth: int
    estimated_norm: float
    analytic_bound: float
    lower: float
    upper: float
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

    theta is the one root of ``radial_secular`` on (0, pi/(N+1)) (see
    ``radial_bracket``), found by bisection; every entry of v is > 0, since
    0 < (N+1-k) theta < pi for k = 0..N.  Each entry keeps its relative
    accuracy: an argument x = (N+1-k) theta past pi/2 is read as
    sin(pi - x), with pi - x formed from an exact part of x, so the head
    entries near sin(pi) do not lose N ulps to cancellation.
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
    j = np.arange(depth + 1, 0, -1.0)
    # A 24-bit head of theta times j < 2^29 is exact, and so is pi minus it
    # (Sterbenz).
    head = float(np.float32(theta))
    x, tail = j * head, j * (theta - head)
    v = np.where(
        x < math.pi / 2, np.sin(x + tail), np.sin((math.pi - x) + (_PI_TAIL - tail))
    )
    v[0] *= math.sqrt(s - 1.0) / s * math.sqrt(s)
    return analytic_norm(s) * math.cos(theta), v


def radial_bracket(s: int, depth: int) -> tuple[float, float, float]:
    """Top eigenvalue lambda_N of the shell tridiagonal T_N, and lo <= lambda_N <= hi.

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
    every N.  T_N is nonnegative and irreducible and v is positive, so the
    min and max of (T_N v)/v bracket lambda_N (Collatz-Wielandt, as in
    ``_collatz_wielandt``), in O(N).
    """
    if depth == 0:
        return 0.0, 0.0, 0.0
    value, v = _radial_root(s, depth)
    b = radial_offdiagonal(s, depth)
    tv = np.zeros_like(v)
    tv[:-1] = b * v[1:]
    tv[1:] += b * v[:-1]
    ratios = tv / v
    return value, float(ratios.min()), float(ratios.max())


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
    apply, _ = generator_average(params, depth)
    basis = build_basis(params, depth)
    shells = np.diff(basis.depth_offsets)
    parts = basis.split_parity(np.repeat(v / np.sqrt(shells), shells))
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


def _certified(params: GroupParams, depth: int) -> tuple[float, float, float, str]:
    """(lambda_N, lo, hi, representation), lo <= lambda_N <= hi, depth >= 1.

    The bracket is on the word ball (``sparse``) if it holds at most
    ``RADIAL_THRESHOLD`` words, and on T_N (``radial``) otherwise.
    """
    if ball_size(params, depth) <= RADIAL_THRESHOLD:
        return (*_collatz_wielandt(params, depth), "sparse")
    return (*radial_bracket(params.s, depth), "radial")


def estimate_norm(params: GroupParams, depth: int) -> NormEstimate:
    """The norm of the averaged shift compressed to depth ``depth``: lambda_N.

    The value is the exact radial solve at every depth, never above the
    analytic norm, with the Collatz-Wielandt bracket of ``_certified``.
    """
    if depth < 1:
        raise ValueError("depth must be ≥ 1")
    value, lo, hi, rep = _certified(params, depth)
    return NormEstimate(
        s=params.s,
        depth=depth,
        estimated_norm=value,
        analytic_bound=analytic_norm(params.s),
        lower=lo,
        upper=hi,
        representation=rep,
    )


def norm_sweep(
    params: GroupParams, depth_max: int, *, depth_min: int = 1
) -> list[NormEstimate]:
    """Norm estimates for every depth in [depth_min, depth_max]."""
    if depth_min < 1 or depth_min > depth_max:
        raise ValueError("need 1 ≤ depth_min ≤ depth_max")
    return [estimate_norm(params, n) for n in range(depth_min, depth_max + 1)]


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
    """Top eigenpair, by three-term Lanczos, of ``generator_average(..., coefs)``
    on the basis's ball: the value and the unit Ritz vector in basis order,
    (D,) or, with (s, d, d) ``coefs``, d x D.

    The operator swaps the parity classes of words, so from a start in one
    class the Lanczos vectors alternate classes and every alpha is 0
    (Golub-Kahan bidiagonalization of the class-0 -> class-1 block).  The
    plain recurrence runs with no reorthogonalization: in floating point the
    vectors lose orthogonality only along Ritz vectors that have converged,
    whose extra copies repeat converged Ritz values, and no Ritz value
    leaves the spectrum by more than rounding (Paige, J. Inst. Math. Appl.
    18, 1976).  The Ritz values come in +/- pairs, so the top one is also
    the largest in magnitude.  The vectors are kept flat in two parity
    blocks; the Ritz vector, formed from them at exit, is unit only up to
    the lost orthogonality, so it is normalized.

    The start is random in class 0, from ``rng``, or the class-0 part of
    ``v0``, an array of the vector's shape, or its class-1 part if the
    class-0 one is zero; then the top Ritz value is at least ||A v||/||v||
    for that part v, since the leading 2 x 2 block of the tridiagonal has
    that top eigenvalue.
    """
    apply, sizes = generator_average(basis.params, basis.depth, coefs)
    lead = () if coefs is None else coefs.shape[-1:]
    dim = math.prod(lead) * sum(sizes)
    half = (DEFAULT_KRYLOV + 1) // 2
    require_bytes(8 * half * dim, f"Lanczos Krylov basis of {half} x {dim} float64")
    if v0 is None:
        start, q = 0, rng.standard_normal(lead + (sizes[0],))
    else:
        split = basis.split_parity(v0)
        start = 0 if np.any(split[0]) else 1
        q = split[start]
    q = q / _norm(q)
    # Vector j lies in class (start + j) % 2, as row j // 2 of that block.
    blocks = [np.zeros((half, math.prod(lead) * n)) for n in sizes]
    blocks[start][0] = q.reshape(-1)
    betas: list[float] = []
    for j in range(DEFAULT_KRYLOV):
        c = (start + j) % 2
        w = apply(q, c)
        if j > 0:
            # prev is this run's own array (the Krylov blocks hold copies),
            # so it is scaled in place rather than into a temporary.
            prev *= betas[-1]
            w -= prev
        beta = _norm(w)
        ran_out = j == DEFAULT_KRYLOV - 1
        breakdown = beta < 1e-14
        if (j + 1) % 5 == 0 or ran_out or breakdown:
            theta, ritz = _ritz_top(betas)
            residual = beta * abs(float(ritz[-1]))
            # On breakdown the Krylov space is invariant: the Ritz pairs are exact.
            if residual <= tol or breakdown:
                break
            if ran_out:
                raise ConvergenceError(
                    f"Lanczos did not reach tolerance {tol:g} within Krylov "
                    f"dimension {DEFAULT_KRYLOV} (residual {residual:.3g})",
                    residual=residual,
                )
        betas.append(beta)
        w /= beta
        prev, q = q, w
        blocks[1 - c][(j + 1) // 2] = w.reshape(-1)
    halves = [ritz[(c - start) % 2 :: 2] for c in (0, 1)]
    parts = [(a @ b[: len(a)]).reshape(*lead, -1) for a, b in zip(halves, blocks)]
    vec = basis.merge_parity(parts)
    return theta, vec / _norm(vec)


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
    each ``children`` table of ``hilbert._letter_pairs`` holds the words of
    its shell that start with y, so p_y sums row sums.  A (D,) vector gives
    floats, an (n, D) block (n,) arrays, each row checked.  Exact only while
    v keeps the one-shell buffer, so any nonzero amplitude on the outermost
    shell is refused.
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
        np.square(amps.take(children, axis=-1)).sum(axis=-1)
        for children, _ in _letter_pairs(basis)
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


def matvec_walk_count(params: GroupParams, k: int) -> int:
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
    apply, sizes = _lettered(params, max(k, 1))
    exact_in_float = params.s ** (2 * k) < 2**52
    vec = np.zeros(sizes[0], dtype=float if exact_in_float else object)
    vec[0] = 1
    for c in range(k):
        vec = apply(vec, c % 2)
    return int(round(vec @ vec))
