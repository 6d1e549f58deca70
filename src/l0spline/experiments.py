"""Sequence-model simulation, width and partial-sum statistics, stress
signals, and Monte Carlo risk curves.

All randomness is counter-based: a replicate draws from a Philox stream
keyed by (seed, stream index), so reruns with the same configuration are
bit-identical and replicates can execute in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError, L0SplineError, ValidationError
from .model import (
    DEFAULT_BUDGET,
    DEFAULT_WIDTH_BUDGET,
    KnotVector,
    ModelParams,
    SignalVector,
    _KnotScreen,
    _check_budget,
    _finite,
    _rescore,
    count_knot_vectors,
    raw_basis,
)
from .solvers import PenaltySpec, adaptive_fit, fit_fixed_k
from .shape import _check_envelope, shape_lse

__all__ = [
    "ExperimentConfig",
    "RiskRow",
    "RiskCurve",
    "simulate",
    "noise_vector",
    "lil_statistic",
    "lil_curve",
    "complexity_width",
    "width_curve",
    "lf_max_level",
    "least_favorable_signal",
    "shaped_lf_ensemble",
    "build_signal",
    "mc_risk",
]

SIGNAL_KINDS = ("zero", "lf_spline", "sparse_boxcar", "shaped_lf",
                "custom_file")
ESTIMATORS = ("l0_fit", "adaptive", "shape_lse")


def _loglog(x: float) -> float:
    return math.log(math.log(x))


def _check_reps(reps: int) -> None:
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")


def _check_key(what: str, *words: int) -> None:
    if min(words) < 0:
        raise ValidationError(f"{what} must be nonnegative")
    if max(words) >= 2 ** 64:
        raise ValidationError(f"{what} must be below 2^64")


def _philox(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, stream), each in [0, 2^64).
    A uint64 key is exact: a list of ints goes through float64 past 2^63."""
    _check_key("seed and stream", seed, stream)
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def noise_vector(seed: int, stream: int, n: int) -> np.ndarray:
    """Standard normal draws from the (seed, stream) counter stream."""
    return _philox(seed, stream).standard_normal(n)


def _std_error(values: np.ndarray) -> float:
    """Standard error of the mean of the replicates; 0 for one."""
    n = values.size
    return float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, model context, and seeding for one Monte Carlo run."""

    n_grid: tuple
    d: int
    d0: int
    k: int
    reps: int
    master_seed: int
    signal_kind: str
    sigma: float = 1.0
    tau: float = 2.5
    custom_values: tuple | None = None

    def __post_init__(self):
        grid = tuple(int(v) for v in self.n_grid)
        if not grid:
            raise ValidationError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        _check_reps(self.reps)
        _check_key("master_seed", self.master_seed)
        if self.signal_kind not in SIGNAL_KINDS:
            raise ValidationError(
                f"signal_kind must be one of {SIGNAL_KINDS}, got "
                f"{self.signal_kind!r}")
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")
        if not all(map(math.isfinite, (self.sigma, self.tau))):
            raise ValidationError(f"sigma and tau must be finite, got "
                                  f"sigma={self.sigma}, tau={self.tau}")
        if self.custom_values is not None:
            object.__setattr__(
                self, "custom_values",
                tuple(float(v) for v in self.custom_values))


@dataclass(frozen=True)
class RiskRow:
    """One grid cell of a risk curve."""

    n: int
    k: int
    mean_risk: float
    std_error: float
    rate_loglog: float
    rate_log: float
    failed: bool = False
    error: str | None = None


@dataclass(frozen=True)
class RiskCurve:
    """Risk rows plus the configuration that produced them."""

    config: ExperimentConfig
    estimator: str
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if not row.failed:
                if not row.mean_risk >= 0:
                    raise ValidationError("mean_risk must be >= 0")
                if not row.std_error >= 0:
                    raise ValidationError("std_error must be >= 0")


def simulate(theta0, sigma: float, seed: int,
             replicate: int = 0) -> SignalVector:
    """Observation vector theta0 + sigma * eps for one replicate.

    Noise comes from a Philox stream keyed by (seed, replicate), so the
    i-th draw is a pure function of (seed, replicate, i).
    """
    values = theta0.values if isinstance(theta0, SignalVector) \
        else np.asarray(theta0, dtype=float)
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return SignalVector(values)
    eps = noise_vector(seed, replicate, values.size)
    return SignalVector(values + sigma * eps)


# ---------------------------------------------------------------------------
# pruned row maxima (branch and bound over rows, Land & Doig 1960)
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
# bands per octave of the right-endpoint lag in the row bounds
_SUB_BANDS = 8


def _lag_bands(n: int, arrays):
    """Maxima of arrays indexed 0..n over bands of the lag e - r.

    Yields (lag, width, maxima) for consecutive lag bands
    [lag, lag + width) that cover 1..n: maxima[j][r] is the max of
    arrays[j] over e in [r + lag, min(r + lag + width - 1, n)], for
    every row r in [0, n - lag].  The width is 1 below lag
    2 * _SUB_BANDS and doubles each time the lag reaches 2 * _SUB_BANDS
    widths, so each octave of lags has _SUB_BANDS bands.  Only the
    sliding maxima over windows of the current width are kept; bands
    clipped by n use suffix maxima.
    """
    win = list(arrays)
    suf = [np.maximum.accumulate(a[::-1])[::-1] for a in win]
    lag = width = 1
    while lag <= n:
        full = max(0, n + 2 - lag - width)   # rows whose band ends by n
        yield lag, width, [np.concatenate([w[lag:lag + full],
                                           sx[lag + full:]])
                           for w, sx in zip(win, suf)]
        lag += width
        if lag == 2 * _SUB_BANDS * width:
            win = [np.maximum(w[:-width], w[width:]) for w in win]
            width *= 2


def _pruned_max(best: float, rows, bound, row) -> float:
    """max(best, row(r) for r in rows), given bound[i] >= row(rows[i]).

    Rows are visited in decreasing order of their bound, and the scan
    stops at the first bound at or below the best value so far: no row
    left can raise the maximum, so the result is the float the full scan
    returns.  A NaN bound counts as unbounded.
    """
    bound = np.where(np.isnan(bound), math.inf, bound)
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] <= best:
            break
        best = max(best, row(int(rows[i])))
    return float(best)


# ---------------------------------------------------------------------------
# weighted partial-sum maximum
# ---------------------------------------------------------------------------

def lil_statistic(eps, d: int) -> float:
    """Max over 1 <= n1 < n2 <= n of the normalized weighted partial sum
    |sum_{i in (n1;n2]} (i-n1)^d eps_i| / ((n2-n1)^d (n2 ^ (n-n1))^{1/2}).

    For each left endpoint n1 (a row) the weights (i-n1)^d are a fixed
    slice of one precomputed power table, so a single cumulative sum
    covers every right endpoint, with no cancellation between shifted
    prefix sums.  The scan is pruned but exact: rows are visited in
    decreasing order of an upper bound (`_lil_bound`) and the scan stops
    once no bound exceeds the best value found, so the result is
    bit-identical to the full O(n^2) scan.  The bound carries a rounding
    slack of 4 (n+1)(d+2) u sum|eps| on the numerator (u the unit
    roundoff) and 16 u relative.  On noise at n = 4096 it evaluates
    under 0.1 % of the rows at d = 0 and about 7 % at d = 1 to 3, from
    one row up to a third of them per call.  Refuses NaN and inf
    entries.
    """
    eps = _finite(eps, "eps")
    n = eps.size
    if n < 2:
        raise ValidationError(f"need at least 2 observations, got {n}")
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    sqrt_table = np.sqrt(np.arange(n + 1, dtype=float))
    pow_table = np.arange(n + 1, dtype=float) ** d

    def row(n1):
        length = n - n1
        num = np.cumsum(pow_table[1:length + 1] * eps[n1:])
        lens = np.arange(1, length + 1)
        den = pow_table[lens] * sqrt_table[np.minimum(n1 + lens, length)]
        return float(np.max(np.abs(num) / den))

    return _pruned_max(0.0, np.arange(1, n), _lil_bound(eps, d, pow_table),
                       row)


def _lil_bound(eps: np.ndarray, d: int, pow_table: np.ndarray) -> np.ndarray:
    """Upper bound on every lil_statistic row, indexed by n1 in [1, n).

    With S the prefix sums of eps and w_j = j^d, Abel summation gives
    num / w_L = S(n1+L) - Sbar_L, where Sbar_L, a weighted mean of S over
    [n1, n1+L) with weights (w_{j+1} - w_j) / w_L, is S(n1) at d = 0.  For
    L in a band [lag, lag + width), Sbar_L = lam Sbar_lag + (1 - lam) mu
    with lam = w_lag / w_L and mu a mean of S over the band, so |num| /
    w_L is at most lam A + (1 - lam) R, where A is the largest distance
    of the band's S values from Sbar_lag and R their range.  Sbar_lag
    comes from the band start's weighted window sums, built by adding
    window moments sum_i i^q eps_{r+i} with binomial weights.  The
    numerator is widened by 4 (n+1)(d+2) u sum|eps|, u the unit
    roundoff, which covers the rounding of the row's own cumulative sum
    against S and of the window sums, and the bound by 16 u relative for
    the divisions and square roots.
    """
    n = eps.size
    s = np.concatenate([[0.0], np.cumsum(eps)])
    total = float(np.sum(np.abs(eps)))
    # the bound needs the row arithmetic free of overflow; past that,
    # every row is evaluated
    slack = 4.0 * (n + 1) * (d + 2) * _UNIT_ROUNDOFF * total \
        if math.isfinite(2.0 * total * pow_table[n]) else math.inf
    binom = [[math.comb(p, q) for q in range(p + 1)] for p in range(d + 1)]
    # moments[q][r] = sum_{i=1}^{width} i^q eps_{r+i};
    # acc[r] = sum_{j=1}^{lag} j^d eps_{r+j}
    moments = [eps] * (d + 1)
    acc = eps
    width = 1
    bound = np.zeros(n + 1)
    for lag, band_w, (s_hi, s_lo) in _lag_bands(n, (s, -s)):
        m = n - lag + 1
        if d == 0:
            dev = np.maximum(s_hi - s[:m], s[:m] + s_lo)
        else:
            if band_w != width:
                moments = [moments[p][:-width] + sum(
                    binom[p][q] * float(width) ** (p - q) * moments[q][width:]
                    for q in range(p + 1)) for p in range(d + 1)]
                width = band_w
            sbar = s[lag:] - acc / pow_table[lag]
            dev = np.maximum(s_hi - sbar, sbar + s_lo)
            lam = pow_table[lag] / pow_table[min(lag + width - 1, n)]
            dev = np.maximum(dev, lam * dev + (1.0 - lam) * (s_hi + s_lo))
            if lag + width <= n:
                acc = acc[:-width] + sum(
                    binom[d][q] * float(lag) ** (d - q) * moments[q][lag:]
                    for q in range(d + 1))
        rows = np.arange(m)
        den = np.sqrt(np.minimum(rows + lag, n - rows).astype(float))
        np.maximum(bound[:m], (dev + slack) / den, out=bound[:m])
    return bound[1:n] * (1.0 + 16.0 * _UNIT_ROUNDOFF)


def lil_curve(d: int, n_grid, reps: int, master_seed: int):
    """Mean and standard error of Z^2 per grid point.

    Returns rows (n, mean_Z2, std_error, loglog16n).
    """
    _check_reps(reps)
    grid = tuple(int(v) for v in n_grid)
    rows = []
    for idx, n in enumerate(grid):
        z2 = np.empty(reps)
        for rep in range(reps):
            eps = noise_vector(master_seed, idx * reps + rep, n)
            z2[rep] = lil_statistic(eps, d) ** 2
        rows.append((n, float(np.mean(z2)), _std_error(z2),
                     _loglog(16 * n)))
    return rows


# ---------------------------------------------------------------------------
# exact complexity width
# ---------------------------------------------------------------------------

def _width_const_k2(eps: np.ndarray) -> float:
    n = eps.size
    s = np.concatenate([[0.0], np.cumsum(eps)])
    best = s[n] ** 2 / n
    if n > 1:
        m = np.arange(1, n)
        vals = s[1:n] ** 2 / m + (s[n] - s[1:n]) ** 2 / (n - m)
        best = max(best, float(np.max(vals)))
    return float(best)


def _width_const_k3(eps: np.ndarray) -> float:
    n = eps.size
    s = np.concatenate([[0.0], np.cumsum(eps)])
    # tail term (S_n - S_m2)^2 / (n - m2), zero at m2 = n
    tail = np.zeros(n + 1)
    m2 = np.arange(1, n)
    tail[1:n] = (s[n] - s[1:n]) ** 2 / (n - m2)

    def row(m1):
        head = s[m1] ** 2 / m1 if m1 else 0.0
        lens = np.arange(1, n - m1 + 1)
        mid = (s[m1 + 1:] - s[m1]) ** 2 / lens
        return head + float(np.max(mid + tail[m1 + 1:]))

    return _pruned_max(_width_const_k2(eps), np.arange(n - 1),
                       _width_k3_bound(s, tail), row)


def _width_k3_bound(s: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Upper bound on every _width_const_k3 row, indexed by m1 in [0, n-1).

    Over a band of m2 - m1 in [lag, lag + width) the middle term is at
    most the band's largest |S(m2) - S(m1)| squared over lag, and every
    step is the row's own arithmetic on larger operands, so rounding
    keeps the order and no slack is needed; only the head gets one ulp,
    as the row squares a scalar, which rounds through pow.
    """
    n = s.size - 1
    best_mid = np.zeros(n + 1)
    for lag, _, (s_hi, s_lo, t_hi) in _lag_bands(n, (s, -s, tail)):
        m = n - lag + 1
        dev = np.maximum(s_hi - s[:m], s[:m] + s_lo)
        np.maximum(best_mid[:m], dev ** 2 / lag + t_hi, out=best_mid[:m])
    head = np.zeros(n - 1)
    head[1:] = np.nextafter(s[1:n - 1] ** 2, math.inf) / np.arange(1, n - 1)
    return head + best_mid[:n - 1]


def complexity_width(eps, params: ModelParams,
                     budget: int = DEFAULT_WIDTH_BUDGET) -> float:
    """Largest squared projection of eps onto any knot-configuration span.

    This equals the supremum of (eps . theta)^2 over unit-norm members.
    Piecewise-constant fits with at most three pieces use prefix-sum
    scans; the k = 3 scan over the first knot is pruned but exact, like
    `lil_statistic`: rows are visited in decreasing order of an upper
    bound (`_width_k3_bound`, whose only slack is one ulp on the head
    term) and the result is bit-identical to the full O(n^2) scan.
    Every other case enumerates knot vectors and refuses when the
    configuration count exceeds the budget.  Refuses NaN and inf
    entries.
    """
    eps = _finite(eps, "eps", params.n)
    n, d, d0, k = params.n, params.d, params.d0, params.k
    if d == 0 and d0 == -1 and k in (2, 3):
        return _width_const_k2(eps) if k == 2 else _width_const_k3(eps)
    _check_budget(count_knot_vectors(n, k, d), budget)

    def proj_sq(knots):
        X = raw_basis(n, d, d0, KnotVector(knots, d).distinct())
        coef, _, _, _ = np.linalg.lstsq(X, eps, rcond=None)
        proj = X @ coef
        return float(proj @ proj)

    # the largest projection leaves the least SSE: rank the sets by minus
    # the projection, which the screened SSE minus ||eps||^2 estimates
    screen = _KnotScreen(eps, d, d0, k)
    least, _ = _rescore(screen.score - float(eps @ eps), screen.tol,
                        lambda j: -proj_sq(screen.knots(j)), screen.knots)
    return -least


def width_curve(d: int, d0: int, k: int, n_grid, reps: int,
                master_seed: int, budget: int = DEFAULT_WIDTH_BUDGET):
    """Mean and standard error of the complexity width per grid point.

    Returns rows (n, mean_width, std_error, rate_loglog, rate_log).
    """
    _check_reps(reps)
    grid = tuple(int(v) for v in n_grid)
    rows = []
    for idx, n in enumerate(grid):
        params = ModelParams(d=d, d0=d0, k=k, n=n)
        w = np.empty(reps)
        for rep in range(reps):
            eps = noise_vector(master_seed, idx * reps + rep, n)
            w[rep] = complexity_width(eps, params, budget=budget)
        rows.append((n, float(np.mean(w)), _std_error(w),
                     k * _loglog(16 * n / k), k * math.log(math.e * n / k)))
    return rows


# ---------------------------------------------------------------------------
# stress signals
# ---------------------------------------------------------------------------

def lf_max_level(n: int, d: int) -> int:
    """Largest usable shift level: floor(log2(n / (d+1)))."""
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    if n < 2 * (d + 1):
        raise ValidationError(
            f"need n >= 2(d+1) = {2 * (d + 1)}, got {n}")
    return int(math.log2(n // (d + 1)))


def least_favorable_signal(n: int, d: int, ell: int,
                           c_scale: float = 1.0) -> SignalVector:
    """Single truncated-power ramp starting at tau = floor((1-2^-ell) n).

    The amplitude grows like (2^ell)^{(2d+1)/2} sqrt(loglog(16n)/n), so
    deeper levels are taller and supported on shorter right-end windows.
    The output lies in the two-piece class with maximal smoothness.
    """
    m_max = lf_max_level(n, d)
    if not 1 <= ell <= m_max:
        raise ValidationError(
            f"level must lie in [1;{m_max}] for n={n}, d={d}, got {ell}")
    tau = (n * (2 ** ell - 1)) // (2 ** ell)
    alpha = c_scale * (2 ** ell) ** ((2 * d + 1) / 2) * \
        math.sqrt(_loglog(16 * n) / n)
    i = np.arange(1, n + 1)
    vals = np.where(i > tau, ((i - tau) / n) ** d, 0.0) * alpha
    return SignalVector(vals)


def _shaped_events(n: int, k: int, index_vector, c_scale: float):
    """Slope-change events (position, slope increment) for the ensemble."""
    if k < 3 or k % 3 != 0:
        raise ValidationError(f"k must be a positive multiple of 3, got {k}")
    k_seg = k // 3
    if n % k_seg != 0:
        raise ValidationError(
            f"n = {n} must be divisible by k/3 = {k_seg}")
    block = n // k_seg
    level = int(math.log2(block))
    if block < 4 or 2 ** level != block:
        raise ValidationError(
            f"segment length n/(k/3) = {block} must be a power of two "
            f">= 4")
    ell0 = level - 1
    idx = tuple(int(v) for v in index_vector)
    if len(idx) != k_seg:
        raise ValidationError(
            f"index vector needs one entry per segment ({k_seg}), got "
            f"{len(idx)}")
    for v in idx:
        if not 0 <= v <= ell0:
            raise ValidationError(
                f"index entries must be 0 (reference) or in [1;{ell0}], "
                f"got {v}")

    scale = c_scale * math.sqrt(_loglog(16 * n / k) / n)
    s_ref = (2 ** ell0) ** 1.5 * scale
    events = []
    for seg, ell in enumerate(idx):
        g0 = seg * block
        if ell == 0:
            events.append((g0 + block - 2, s_ref))
            continue
        t1 = block - 2 ** (level - ell + 1)
        p = (2 ** (ell - 1)) ** 1.5 * scale
        q = s_ref - p * (block - 2 - t1) / 2.0
        if not p <= q <= s_ref:
            raise DegenerateSystemError(
                "shaped block slopes fell out of order")
        events.append((g0 + t1, p))
        events.append((g0 + block - 2, q - p))
    return events, ell0


def shaped_lf_ensemble(n: int, k: int, index_vector,
                       c_scale: float = 1.0) -> SignalVector:
    """Convex piecewise-linear ensemble member assembled from k/3 blocks.

    Each segment carries either the steep reference ramp (index 0) or a
    level-ell block (index in [1;ell0]) that starts earlier with a
    shallower slope and steepens once, ending at the same per-block
    height. Slope increments are nonnegative and kinks sit on design
    points, so the sampled sequence is an exact class member with at
    most k pieces.
    """
    events, _ = _shaped_events(n, k, index_vector, c_scale)
    i = np.arange(1, n + 1, dtype=float)
    vals = np.zeros(n)
    for pos, ds in events:
        vals += ds * np.maximum(i - pos, 0.0) / n
    return SignalVector(vals)


def build_signal(kind: str, n: int, d: int, k: int, sigma: float,
                 custom_values=None, c_scale: float = 1.0) -> SignalVector:
    """Construct the theta0 used by a Monte Carlo cell."""
    if kind == "zero":
        return SignalVector(np.zeros(n))
    if kind == "lf_spline":
        return least_favorable_signal(n, d, lf_max_level(n, d), c_scale)
    if kind == "sparse_boxcar":
        theta = np.zeros(n)
        theta[n // 3:2 * n // 3] = 10.0 * sigma
        return SignalVector(theta)
    if kind == "shaped_lf":
        if k < 3 or k % 3 != 0:
            raise ValidationError(
                f"shaped_lf needs k to be a multiple of 3, got {k}")
        return shaped_lf_ensemble(n, k, (1,) * (k // 3), c_scale)
    if kind == "custom_file":
        if custom_values is None:
            raise ValidationError("custom_file signal needs values")
        if len(custom_values) != n:
            raise ValidationError(
                f"custom signal has length {len(custom_values)}, "
                f"expected n={n}")
        return SignalVector(np.asarray(custom_values, dtype=float))
    raise ValidationError(f"unknown signal kind {kind!r}")


# ---------------------------------------------------------------------------
# Monte Carlo risk curves
# ---------------------------------------------------------------------------

def _fit_theta(y: np.ndarray, params: ModelParams, estimator: str,
               spec: PenaltySpec, budget: int) -> np.ndarray:
    if estimator == "l0_fit":
        return fit_fixed_k(y, params, budget=budget).theta_hat.values
    if estimator == "adaptive":
        return adaptive_fit(y, params, spec, budget=budget) \
            .theta_hat.values
    # shape_lse, the last of the ESTIMATORS mc_risk checked
    return shape_lse(y, params.d, params.k, budget=budget).theta_hat.values


def mc_risk(config: ExperimentConfig, estimator: str,
            budget: int = DEFAULT_BUDGET) -> RiskCurve:
    """Empirical risk curve of an estimator over the configured grid.

    Each cell averages ||theta_hat - theta0||^2 over the replicates.
    Cells whose signal construction or solve fails are marked failed
    and carry the error message; the rest of the grid still runs.
    `shape_lse` fits the d-monotone cone, whose smoothness is d0 = d - 1,
    so it refuses any other d0 up front, and any d above its envelope.
    """
    if estimator not in ESTIMATORS:
        raise ValidationError(
            f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if estimator == "shape_lse" and config.d0 != config.d - 1:
        raise ValidationError(
            f"shape_lse fits the d-monotone cone, whose smoothness is "
            f"d0 = d - 1 = {config.d - 1}; got d0 = {config.d0}")
    if estimator == "shape_lse":
        _check_envelope(config.d)
    rows = []
    for idx, n in enumerate(config.n_grid):
        rate_ll = config.k * _loglog(16 * n / config.k)
        rate_lg = config.k * math.log(math.e * n / config.k)
        try:
            theta0 = build_signal(config.signal_kind, n, config.d,
                                  config.k, config.sigma,
                                  config.custom_values)
            params = ModelParams(d=config.d, d0=config.d0, k=config.k, n=n)
            spec = PenaltySpec(tau=config.tau,
                               sigma=config.sigma if config.sigma > 0
                               else 1.0,
                               d=config.d, d0=config.d0, n=n)
            risks = np.empty(config.reps)
            for rep in range(config.reps):
                y = simulate(theta0, config.sigma, config.master_seed,
                             replicate=idx * config.reps + rep)
                theta_hat = _fit_theta(y.values, params, estimator, spec,
                                       budget)
                diff = theta_hat - theta0.values
                risks[rep] = float(diff @ diff)
            rows.append(RiskRow(n=n, k=config.k,
                                mean_risk=float(np.mean(risks)),
                                std_error=_std_error(risks),
                                rate_loglog=rate_ll,
                                rate_log=rate_lg))
        except L0SplineError as exc:
            rows.append(RiskRow(n=n, k=config.k, mean_risk=math.nan,
                                std_error=math.nan, rate_loglog=rate_ll,
                                rate_log=rate_lg, failed=True,
                                error=str(exc)))
    return RiskCurve(config=config, estimator=estimator, rows=tuple(rows))
