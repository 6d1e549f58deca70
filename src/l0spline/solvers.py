"""Exact piece-budgeted least squares and the penalized model selector.

The segment machinery fits degree-d polynomials on index windows using a
length-normalized power basis, so Gram matrices depend only on the window
length and can be factored once per length.  The dynamic program solves
the d0 = -1 problem exactly; the exhaustive solver covers every smoothness
order by enumerating knot vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError, ValidationError
from .model import (
    KnotVector,
    ModelParams,
    PiecewiseSpline,
    SignalVector,
    _KnotScreen,
    _check_budget,
    _reexpand_coefs,
    _rescore,
    count_knot_vectors,
    evaluate_spline,
    local_coefficients_from_truncated_power,
    raw_basis,
    transition_boundary,
    validate_knots,
)

__all__ = [
    "FitResult",
    "PenaltySpec",
    "segment_cost",
    "fit_given_knots",
    "dp_fit",
    "exhaustive_fit",
    "penalty",
    "adaptive_fit",
    "estimate_sigma",
]

_RCOND = 1e-10


@dataclass(frozen=True)
class FitResult:
    """A fitted piecewise polynomial plus bookkeeping."""

    theta_hat: SignalVector
    knots: KnotVector
    coeffs: tuple
    sse: float
    k_selected: int

    @property
    def spline(self) -> PiecewiseSpline:
        return PiecewiseSpline(self.knots, self.coeffs)


@dataclass(frozen=True)
class PenaltySpec:
    """Multiplier and context for the piece-count penalty."""

    tau: float
    sigma: float
    d: int
    d0: int
    n: int

    def __post_init__(self):
        if self.tau < 0:
            raise ValidationError(f"tau must be >= 0, got {self.tau}")
        if not self.sigma > 0:
            raise ValidationError(f"sigma must be > 0, got {self.sigma}")
        transition_boundary(self.d, self.d0)
        if self.n < self.d + 1:
            raise ValidationError(
                f"n must be >= d+1 = {self.d + 1}, got {self.n}")


def penalty(k: int, spec: PenaltySpec) -> float:
    """Piece-count penalty with the two-regime shape.

    tau * sigma^2 times: 1 at k = 1; k * loglog(16n/k) for 2 <= k <= k0;
    k * log(en/k) above k0.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k0 = transition_boundary(spec.d, spec.d0)
    scale = spec.tau * spec.sigma ** 2
    if k == 1:
        return scale
    if k <= k0:
        return scale * k * math.log(math.log(16 * spec.n / k))
    return scale * k * math.log(math.e * spec.n / k)


def estimate_sigma(y) -> float:
    """Robust noise scale from first differences:
    median(|Y_{i+1} - Y_i|) / (sqrt(2) * 0.6745)."""
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise ValidationError("need at least 2 observations to estimate sigma")
    return float(np.median(np.abs(np.diff(y))) / (math.sqrt(2) * 0.6745))


# ---------------------------------------------------------------------------
# per-segment polynomial fits
# ---------------------------------------------------------------------------

def segment_cost(segment, d: int):
    """Least squares cost of one degree-d polynomial on a window.

    The basis is (j/L)^l for l in [0;d] with j = 1..L the within-window
    position, solved by a rank-revealing orthogonal decomposition.
    Returns (sse, coefficients).
    """
    seg = np.asarray(segment, dtype=float)
    L = seg.size
    if L < d + 1:
        raise ValidationError(
            f"segment of length {L} cannot identify a degree-{d} polynomial"
            f" (need at least {d + 1} points)")
    j = np.arange(1, L + 1, dtype=float) / L
    X = np.column_stack([j ** ell for ell in range(d + 1)])
    coef, _, rank, _ = np.linalg.lstsq(X, seg, rcond=_RCOND)
    if rank < d + 1:
        raise DegenerateSystemError(
            f"segment design rank {rank} < {d + 1}")
    resid = seg - X @ coef
    return float(resid @ resid), coef


class _SegmentSweeper:
    """All-segments cost engine: costs of fitting y on (t; s] for every s,
    one start t at a time, via cached per-length Gram inverses."""

    def __init__(self, y, d: int):
        self.y = np.asarray(y, dtype=float)
        self.d = d
        self.n = self.y.size
        n, dd = self.n, d
        lengths = np.arange(dd + 1, n + 1, dtype=float)
        # power sums S_m(L) = sum_{j<=L} j^m for the Gram entries
        j = np.arange(1, n + 1, dtype=float)
        psum = np.stack([np.cumsum(j ** m) for m in range(2 * dd + 1)])
        G = np.empty((lengths.size, dd + 1, dd + 1))
        for p in range(dd + 1):
            for q in range(dd + 1):
                G[:, p, q] = psum[p + q, dd:] / lengths ** (p + q)
        self._ginv = np.linalg.inv(G)

    def sweep(self, t: int):
        """Vector of costs for segments (t; s], s = t+d+1 .. n."""
        d, n = self.d, self.n
        ys = self.y[t:]
        m = ys.size
        if m < d + 1:
            return np.empty(0)
        j = np.arange(1, m + 1, dtype=float)
        R = np.stack([np.cumsum((j ** p) * ys) for p in range(d + 1)])
        ss = np.cumsum(ys * ys)
        L = j[d:]
        b = (R[:, d:] / L ** np.arange(d + 1, dtype=float)[:, None]).T
        ginv = self._ginv[: L.size]
        quad = np.einsum("lp,lpq,lq->l", b, ginv, b)
        return ss[d:] - quad


# ---------------------------------------------------------------------------
# fitting at fixed knots
# ---------------------------------------------------------------------------

def _series(y, params: ModelParams) -> np.ndarray:
    """y as a float array, checked against the grid size."""
    y = np.asarray(y, dtype=float)
    if y.size != params.n:
        raise ValidationError(
            f"y has length {y.size}, params expect n={params.n}")
    return y


def _fit_at(y: np.ndarray, d: int, d0: int, knots) -> FitResult:
    """Least squares fit at one knot vector, with coeffs in per-piece local
    storage aligned to the given vector."""
    n = y.size
    kv = KnotVector(tuple(knots), d)
    if d0 == -1:
        # each piece in its own well-conditioned (j/L)^l basis, rescaled to
        # local storage on (j/n)^l
        coeffs = []
        for lo, hi in zip(kv.knots, kv.knots[1:]):
            if lo == hi:
                coeffs.append(None)
                continue
            _, coef = segment_cost(y[lo:hi], d)
            coeffs.append(tuple(coef * (n / (hi - lo)) ** np.arange(d + 1)))
        coeffs = tuple(coeffs)
        theta = evaluate_spline(PiecewiseSpline(kv, coeffs))
    else:
        distinct = kv.distinct()
        X = raw_basis(n, d, d0, distinct)
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=_RCOND)
        if rank < X.shape[1]:
            raise DegenerateSystemError(
                f"design with knots {distinct} has rank {rank} < {X.shape[1]}")
        theta = X @ coef
        coeffs = local_coefficients_from_truncated_power(
            kv, d0, _reexpand_coefs(kv, d0, coef)).coeffs
    resid = y - theta
    return FitResult(SignalVector(theta), kv, coeffs, float(resid @ resid),
                     kv.k)


def fit_given_knots(y, params: ModelParams, knots) -> FitResult:
    """Project y onto the span of the class members with these knots."""
    y = _series(y, params)
    kv = (knots if isinstance(knots, KnotVector)
          else validate_knots(knots, params.d, params.n))
    if kv.k != params.k:
        raise ValidationError(
            f"knot vector has {kv.k} pieces, params expect {params.k}")
    return _fit_at(y, params.d, params.d0, kv.knots)


# ---------------------------------------------------------------------------
# global solvers
# ---------------------------------------------------------------------------

def _dp_table(y: np.ndarray, d: int, k_max: int) -> tuple:
    """Segment-neighbourhood forward pass for every piece count up to k_max.

    Returns (C, nxt).  C[r, t] is the least cost of fitting y on (t; n]
    with at most r pieces; nxt[r, t] is the first split minimizing the cost
    of a nonempty piece starting at t plus C[r-1] after it.  Row r depends
    only on row r-1, so a table built for k_max serves every k <= k_max.
    """
    n = y.size
    # every segment cost is invariant to removing a global degree-d fit,
    # and the sweeper's normal equations lose accuracy with the offset
    Q, _ = np.linalg.qr(raw_basis(n, d, -1, (0, n)))
    sweeper = _SegmentSweeper(y - Q @ (Q.T @ y), d)
    C = np.full((k_max + 1, n + 1), np.inf)
    C[:, n] = 0.0
    nxt = np.full((k_max + 1, n + 1), n)
    rows = np.arange(k_max)
    for t in range(n - d - 1, -1, -1):
        starts = t + d + 1
        cand = C[:k_max, starts:] + sweeper.sweep(t)
        hit = cand.argmin(axis=1)
        # C[r, t] = min(C[r-1, t], best split): the running minimum over r
        # is the empty-piece option, which _backtrack prefers on ties
        C[1:, t] = np.minimum.accumulate(cand[rows, hit])
        nxt[1:, t] = hit + starts
    return C, nxt


def _backtrack(table: tuple, k: int) -> tuple:
    """The lexicographically smallest optimal knot vector with k pieces,
    read off a _dp_table: an empty piece wherever one attains the cost."""
    C, nxt = table
    knots = [0]
    t = 0
    for r in range(k, 0, -1):
        if C[r - 1, t] != C[r, t]:
            t = int(nxt[r, t])
        knots.append(t)
    return tuple(knots)


def dp_fit(y, params: ModelParams) -> FitResult:
    """Exact minimizer over all knot vectors with <= k pieces for d0 = -1.

    One forward pass over segment costs, O(n^2 k d) work, fills the cost
    table for every piece count up to k and stores each step's choice, so
    the backtrack reads the table and sweeps no segment again.  Ties are
    resolved to the lexicographically smallest knot vector: at each step
    an empty piece first, then the nearest split.
    """
    if params.d0 != -1:
        raise ValidationError(
            f"dynamic program requires d0 = -1, got d0={params.d0}")
    y = _series(y, params)
    knots = _backtrack(_dp_table(y, params.d, params.k), params.k)
    return _fit_at(y, params.d, -1, knots)


def exhaustive_fit(y, params: ModelParams,
                   budget: int = 10_000_000) -> FitResult:
    """Scan every valid knot vector with <= k pieces; any d0.

    Refuses with the exact configuration count when it exceeds the budget.
    The first strictly best configuration in lexicographic order wins, so
    ties go to the lexicographically smallest knot vector.  Every distinct
    knot set is screened once and only the sets near the best are costed
    one by one: by a truncated power lstsq for d0 >= 0, and for d0 = -1 by
    summing segment_cost over the nonempty pieces, so its ranking shares
    no code with the dynamic program it checks.
    """
    y = _series(y, params)
    n, d, d0, k = params.n, params.d, params.d0, params.k
    _check_budget(count_knot_vectors(n, k, d), budget)

    if d0 == -1:
        def cost(knots):
            # a plain running sum: sum() compensates from Python 3.12 on
            sse = 0.0
            for lo, hi in zip(knots, knots[1:]):
                if lo < hi:
                    sse += segment_cost(y[lo:hi], d)[0]
            return sse
    else:
        def cost(knots):
            X = raw_basis(n, d, d0, KnotVector(knots, d).distinct())
            coef, _, _, _ = np.linalg.lstsq(X, y, rcond=_RCOND)
            r = y - X @ coef
            return float(r @ r)

    screen = _KnotScreen(y, d, d0, k)
    _, best = _rescore(screen.score, screen.tol,
                       lambda j: cost(screen.knots(j)), screen.knots)
    return _fit_at(y, d, d0, screen.knots(best))


def default_k_max(params: ModelParams) -> int:
    """min(k0 + 3, n // (d+1)) and at least 1."""
    return max(1, min(params.k0 + 3, params.n // (params.d + 1)))


def adaptive_fit(y, params: ModelParams, spec: PenaltySpec,
                 k_max: int | None = None, solver: str | None = None,
                 with_trace: bool = False, budget: int = 10_000_000):
    """Penalized selection of the number of pieces.

    Minimizes sse(k) + penalty(k) over k in [1; k_max]; ties go to the
    smallest k.  sse(k) comes from the dynamic program when d0 = -1 and
    from the exhaustive scan otherwise (or per the solver override).  The
    dynamic program runs once, to k_max; every k is backtracked from that
    one table and refit at its knots, exactly as dp_fit at k would be.
    """
    if k_max is None:
        k_max = default_k_max(params)
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    if solver is None:
        solver = "dp" if params.d0 == -1 else "exhaustive"
    if solver == "dp" and params.d0 != -1:
        raise ValidationError("the dp solver supports only d0 = -1")
    if solver not in ("dp", "exhaustive"):
        raise ValidationError(f"unknown solver {solver!r}")

    y = _series(y, params)
    if solver == "dp":
        table = _dp_table(y, params.d, k_max)

    best = None
    best_obj = np.inf
    trace = []
    for k in range(1, k_max + 1):
        if solver == "dp":
            fit = _fit_at(y, params.d, -1, _backtrack(table, k))
        else:
            pk = ModelParams(params.d, params.d0, k, params.n, params.sigma)
            fit = exhaustive_fit(y, pk, budget=budget)
        pen = penalty(k, spec)
        obj = fit.sse + pen
        trace.append((k, fit.sse, pen, obj))
        if obj < best_obj:
            best_obj = obj
            best = fit
    if with_trace:
        return best, trace
    return best
