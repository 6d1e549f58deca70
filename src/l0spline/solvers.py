"""Exact piece-budgeted least squares and the penalized model selector.

The segment machinery fits degree-d polynomials on index windows using a
length-normalized power basis, so Gram matrices depend only on the window
length and can be factored once per length.  The dynamic program solves
the d0 = -1 problem exactly; the exhaustive solver covers every smoothness
order by enumerating knot vectors.  fit_fixed_k is the one place that picks
between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateSystemError, ValidationError
from .model import (
    DEFAULT_BUDGET,
    KnotVector,
    ModelParams,
    PiecewiseSpline,
    SignalVector,
    _KnotScreen,
    _check_budget,
    _finite,
    _reexpand_coefs,
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
    "fit_fixed_k",
    "penalty",
    "adaptive_fit",
    "estimate_sigma",
]

_RCOND = 1e-10
# largest degree the dynamic program accepts: the worst relative gap of its
# table's least cost to the refit SSE, on 60 seeded n=80 inputs with and
# without an offset of 1e4, is 1.6e-8 at d=6, 2.9e-7 at d=7, 7.2e-5 at d=8
_DP_MAX_DEGREE = 6
# window entries per block of starts in the DP's forward pass; a block
# holds about d + 3 arrays of this many doubles, 128 KB each
_DP_BLOCK = 1 << 14


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
        # penalty() squares sigma
        if not all(map(math.isfinite, (self.tau, self.sigma * self.sigma))):
            raise ValidationError(f"tau and sigma^2 must be finite, got "
                                  f"tau={self.tau}, sigma={self.sigma}")
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
    """All-segments cost engine: costs of fitting y on (t; s] for a block of
    consecutive starts t at once, via cached per-length Gram inverses.

    A cost is ss - b' Ginv(L) b, with b the length-normalized moments of the
    window.  Each entry takes exactly the floating point steps of costing
    one start alone, in the same order, so the costs do not depend on how
    the starts are blocked."""

    def __init__(self, y, d: int):
        y = np.asarray(y, dtype=float)
        self.d = d
        self.n = n = y.size
        lengths = np.arange(d + 1, n + 1, dtype=float)
        # power sums S_m(L) = sum_{j<=L} j^m for the Gram entries
        j = np.arange(1, n + 1, dtype=float)
        psum = np.stack([np.cumsum(j ** m) for m in range(2 * d + 1)])
        G = np.empty((lengths.size, d + 1, d + 1))
        for p in range(d + 1):
            for q in range(d + 1):
                G[:, p, q] = psum[p + q, d:] / lengths ** (p + q)
        # one contiguous row over the lengths per (p, q)
        self._ginv = np.linalg.inv(G).transpose(1, 2, 0).copy()
        self._jpow = np.stack([j ** p for p in range(d + 1)])
        self._lpow = lengths ** np.arange(d + 1, dtype=float)[:, None]
        # y then zeros, so every start in a block has a window of one
        # length: row t is y[t:] and t zeros
        self._windows = sliding_window_view(np.concatenate([y, np.zeros(n)]),
                                            n)
        # row n - c + i, column j is i + j >= c: a block's entries past n
        # in its last c columns
        self._past = sliding_window_view(np.arange(2 * n) >= n, n)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Costs of the segments (t; t+d+1+l] for starts t = lo..hi-1.

        Row t - lo, column l; entries with t + d + 1 + l > n are +inf."""
        d, n = self.d, self.n
        w = n - lo
        m = w - d
        rows = hi - lo
        win = self._windows[lo:hi, :w]
        # weighted running sums; p = 0 skips the product and the quotient
        # by 1.0, both exact
        R = [np.cumsum(win, axis=1)]
        for p in range(1, d + 1):
            R.append(self._jpow[p, :w] * win)
            np.cumsum(R[p], axis=1, out=R[p])
            R[p][:, d:] /= self._lpow[p, :m]
        b = [Rp[:, d:] for Rp in R]
        # the order of einsum("lp,lpq,lq->l") on one start: p-major, q
        # inner, one running sum.  einsum starts the sum at 0.0, which can
        # only turn a -0.0 into +0.0 and leaves ss - quad unchanged
        quad = b[0] * self._ginv[0, 0, :m]
        quad *= b[0]
        tmp = np.empty_like(quad)
        for p in range(d + 1):
            for q in range(d + 1):
                if p or q:
                    np.multiply(b[p], self._ginv[p, q, :m], out=tmp)
                    tmp *= b[q]
                    quad += tmp
        if hi == n - d:
            # the last start has one window, which einsum sums in another
            # order
            b1 = np.array([[bp[-1, 0] for bp in b]])
            quad[-1, 0] = np.einsum("lp,lpq,lq->l", b1,
                                    self._ginv[:, :, :1].transpose(2, 0, 1),
                                    b1)[0]
        # R[0] is spent: it takes the running sum of squares
        ss = np.multiply(win, win, out=R[0])
        np.cumsum(ss, axis=1, out=ss)
        cost = np.subtract(ss[:, d:], quad, out=quad)
        # row i runs i columns past n, all in the last rows - 1 columns
        c = rows - 1
        np.copyto(cost[:, m - c:], np.inf,
                  where=self._past[n - c:n - c + rows, :c])
        return cost


# ---------------------------------------------------------------------------
# fitting at fixed knots
# ---------------------------------------------------------------------------

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
    y = _finite(y, "y", params.n)
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

    The starts are taken in blocks from the right, each costed by one
    _SegmentSweeper.block call of at most about _DP_BLOCK window entries.
    Row r of a block needs row r-1 only at and after the block's starts,
    so the block fills its rows in order with one argmin each.  The work is
    the O(n^2 k d) of one start at a time, and so is every entry of C and
    nxt, bit for bit.
    """
    n = y.size
    # every segment cost is invariant to removing a global degree-d fit,
    # and the sweeper's normal equations lose accuracy with the offset
    Q, _ = np.linalg.qr(raw_basis(n, d, -1, (0, n)))
    sweeper = _SegmentSweeper(y - Q @ (Q.T @ y), d)
    # columns past n stay +inf for the blocks' ragged right edge
    C = np.full((k_max + 1, 2 * n + 1), np.inf)
    C[:, n] = 0.0
    nxt = np.full((k_max + 1, n + 1), n)
    after = sliding_window_view(C, n - d, axis=1)
    hi = n - d
    while hi > 0:
        # as many starts as keep starts * (n - lo) <= _DP_BLOCK
        w = n - hi
        lo = max(0, hi - max(1, (math.isqrt(w * w + 4 * _DP_BLOCK) - w) // 2))
        cost = sweeper.block(lo, hi)
        rows = np.arange(hi - lo)
        first = lo + d + 1
        cand = np.empty_like(cost)
        for r in range(1, k_max + 1):
            np.add(after[r - 1, first:hi + d + 1, :cost.shape[1]], cost,
                   out=cand)
            hit = cand.argmin(axis=1)
            # C[r, t] = min(C[r-1, t], best split): the empty-piece option,
            # which _backtrack prefers on ties
            np.minimum(C[r - 1, lo:hi], cand[rows, hit], out=C[r, lo:hi])
            nxt[r, lo:hi] = hit + rows + first
        hi = lo
    return C[:, :n + 1], nxt


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
    the backtrack reads the table and sweeps no segment again.  The pass
    costs a block of starts per numpy call in bounded memory and gives the
    table of costing one start at a time, bit for bit.  Ties are resolved
    to the lexicographically smallest knot vector: at each step an empty
    piece first, then the nearest split.  Refuses d0 != -1, and d > 6,
    where the table's costs drift from the refit.
    """
    _solver_for(params, "dp")
    y = _finite(y, "y", params.n)
    knots = _backtrack(_dp_table(y, params.d, params.k), params.k)
    return _fit_at(y, params.d, -1, knots)


def _knot_cost(y: np.ndarray, d: int, d0: int):
    """The exact cost of a knot vector by which the exhaustive solver ranks
    the screened sets: a truncated power lstsq for d0 >= 0, and for
    d0 = -1 segment_cost summed over the nonempty pieces, so that ranking
    shares no code with the dynamic program it checks."""
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
            X = raw_basis(y.size, d, d0, KnotVector(knots, d).distinct())
            coef, _, _, _ = np.linalg.lstsq(X, y, rcond=_RCOND)
            r = y - X @ coef
            return float(r @ r)
    return cost


def exhaustive_fit(y, params: ModelParams,
                   budget: int = DEFAULT_BUDGET) -> FitResult:
    """Scan every valid knot vector with <= k pieces; any d0.

    Refuses with the exact configuration count when it exceeds the budget.
    The first strictly best configuration in lexicographic order wins, so
    ties go to the lexicographically smallest knot vector.  Every distinct
    knot set is screened once (_KnotScreen) and only the sets near the
    best are costed one by one (_KnotScreen.best, _knot_cost).
    """
    y = _finite(y, "y", params.n)
    n, d, d0, k = params.n, params.d, params.d0, params.k
    _check_budget(count_knot_vectors(n, k, d), budget)
    knots = _KnotScreen(y, d, d0, k).best(_knot_cost(y, d, d0), k)
    return _fit_at(y, d, d0, knots)


def _solver_for(params: ModelParams, solver: str | None) -> str:
    """The solver serving a fixed-k fit: the dynamic program at d0 = -1 and
    the exhaustive scan otherwise, unless named.  Refuses the dp solver at
    d0 != -1 or d > 6, and any other name."""
    if solver is None:
        solver = "dp" if params.d0 == -1 else "exhaustive"
    if solver == "dp" and params.d0 != -1:
        raise ValidationError("the dp solver supports only d0 = -1")
    if solver not in ("dp", "exhaustive"):
        raise ValidationError(f"unknown solver {solver!r}")
    if solver == "dp" and params.d > _DP_MAX_DEGREE:
        raise ValidationError(
            f"the dynamic program supports d <= {_DP_MAX_DEGREE}, got "
            f"d={params.d}; use exhaustive_fit")
    return solver


def fit_fixed_k(y, params: ModelParams, solver: str | None = None,
                budget: int = DEFAULT_BUDGET) -> FitResult:
    """Exact fit with <= params.k pieces by the solver the class calls for:
    dp_fit at d0 = -1, exhaustive_fit otherwise, or the named one."""
    if _solver_for(params, solver) == "dp":
        return dp_fit(y, params)
    return exhaustive_fit(y, params, budget=budget)


def default_k_max(params: ModelParams) -> int:
    """min(k0 + 3, n // (d+1)) and at least 1."""
    return max(1, min(params.k0 + 3, params.n // (params.d + 1)))


def adaptive_fit(y, params: ModelParams, spec: PenaltySpec,
                 k_max: int | None = None, solver: str | None = None,
                 with_trace: bool = False, budget: int = DEFAULT_BUDGET):
    """Penalized selection of the number of pieces.

    Minimizes sse(k) + penalty(k) over k in [1; k_max]; ties go to the
    smallest k.  sse(k) comes from the solver fit_fixed_k would use, with
    its refusals.  That solver's search runs once, to k_max, and serves
    every k: the dynamic program fills one table (_dp_table), read by
    _backtrack, and the exhaustive solver screens every knot set once
    (_KnotScreen), read by _KnotScreen.best.  Every k is refit at the
    knots it reads, exactly as dp_fit or exhaustive_fit at k would be.
    The exhaustive solver checks the budget at every k in turn before it
    screens, so a refusal names the first count over it.
    """
    if k_max is None:
        k_max = default_k_max(params)
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    solver = _solver_for(params, solver)

    y = _finite(y, "y", params.n)
    d, d0 = params.d, params.d0
    if solver == "dp":
        knots = partial(_backtrack, _dp_table(y, d, k_max))
    else:
        for k in range(1, k_max + 1):
            _check_budget(count_knot_vectors(params.n, k, d), budget)
        knots = partial(_KnotScreen(y, d, d0, k_max).best,
                        _knot_cost(y, d, d0))
    fits, trace = [], []
    for k in range(1, k_max + 1):
        fits.append(_fit_at(y, d, d0, knots(k)))
        pen = penalty(k, spec)
        trace.append((k, fits[-1].sse, pen, fits[-1].sse + pen))
    # the first least objective: ties go to the smallest k
    best = fits[min(range(k_max), key=lambda i: trace[i][3])]
    return (best, trace) if with_trace else best
