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

from .errors import (
    BudgetExceededError,
    DegenerateSystemError,
    NonConvergenceError,
    ValidationError,
)
from .model import (
    KnotVector,
    ModelParams,
    SignalVector,
    _KnotScreen,
    count_knot_vectors,
    raw_basis,
)
from .solvers import PenaltySpec, adaptive_fit, dp_fit, exhaustive_fit
from .shape import shape_lse

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

_SOLVER_ERRORS = (ValidationError, BudgetExceededError,
                  DegenerateSystemError, NonConvergenceError)


def _loglog(x: float) -> float:
    return math.log(math.log(x))


def _philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def noise_vector(seed: int, stream: int, n: int) -> np.ndarray:
    """Standard normal draws from the (seed, stream) counter stream."""
    if seed < 0 or stream < 0:
        raise ValidationError("seed and stream must be nonnegative")
    return _philox(seed, stream).standard_normal(n)


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
        if self.reps < 1:
            raise ValidationError(f"reps must be >= 1, got {self.reps}")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be nonnegative")
        if self.signal_kind not in SIGNAL_KINDS:
            raise ValidationError(
                f"signal_kind must be one of {SIGNAL_KINDS}, got "
                f"{self.signal_kind!r}")
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")
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
        return SignalVector(values.copy())
    eps = noise_vector(seed, replicate, values.size)
    return SignalVector(values + sigma * eps)


# ---------------------------------------------------------------------------
# weighted partial-sum maximum
# ---------------------------------------------------------------------------

def lil_statistic(eps, d: int) -> float:
    """Max over 1 <= n1 < n2 <= n of the normalized weighted partial sum
    |sum_{i in (n1;n2]} (i-n1)^d eps_i| / ((n2-n1)^d (n2 ^ (n-n1))^{1/2}).

    For each left endpoint the weights (i-n1)^d are a fixed slice of one
    precomputed power table, so a single cumulative sum covers every
    right endpoint: O(n^2) total work with no cancellation between
    shifted prefix sums.
    """
    eps = np.asarray(eps, dtype=float)
    n = eps.size
    if n < 2:
        raise ValidationError(f"need at least 2 observations, got {n}")
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    sqrt_table = np.sqrt(np.arange(n + 1, dtype=float))
    pow_table = np.arange(n + 1, dtype=float) ** d

    best = 0.0
    for n1 in range(1, n):
        length = n - n1
        num = np.cumsum(pow_table[1:length + 1] * eps[n1:])
        lens = np.arange(1, length + 1)
        den = pow_table[lens] * sqrt_table[np.minimum(n1 + lens, length)]
        best = max(best, float(np.max(np.abs(num) / den)))
    return best


def lil_curve(d: int, n_grid, reps: int, master_seed: int):
    """Mean and standard error of Z^2 per grid point.

    Returns rows (n, mean_Z2, std_error, loglog16n).
    """
    grid = tuple(int(v) for v in n_grid)
    rows = []
    for idx, n in enumerate(grid):
        z2 = np.empty(reps)
        for rep in range(reps):
            eps = noise_vector(master_seed, idx * reps + rep, n)
            z2[rep] = lil_statistic(eps, d) ** 2
        se = float(np.std(z2, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        rows.append((n, float(np.mean(z2)), se, _loglog(16 * n)))
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
    best = _width_const_k2(eps)
    # tail term (S_n - S_m2)^2 / (n - m2), zero at m2 = n
    tail = np.zeros(n + 1)
    m2 = np.arange(1, n)
    tail[1:n] = (s[n] - s[1:n]) ** 2 / (n - m2)
    for m1 in range(0, n - 1):
        head = s[m1] ** 2 / m1 if m1 else 0.0
        lens = np.arange(1, n - m1 + 1)
        mid = (s[m1 + 1:] - s[m1]) ** 2 / lens
        best = max(best, head + float(np.max(mid + tail[m1 + 1:])))
    return float(best)


def complexity_width(eps, params: ModelParams,
                     budget: int = 200_000) -> float:
    """Largest squared projection of eps onto any knot-configuration span.

    This equals the supremum of (eps . theta)^2 over unit-norm members.
    Piecewise-constant fits with at most three pieces use prefix-sum
    scans; every other case enumerates knot vectors and refuses when the
    configuration count exceeds the budget.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.size != params.n:
        raise ValidationError(
            f"eps has length {eps.size}, expected n={params.n}")
    n, d, d0, k = params.n, params.d, params.d0, params.k
    if d == 0 and d0 == -1 and k in (2, 3):
        return _width_const_k2(eps) if k == 2 else _width_const_k3(eps)
    total = count_knot_vectors(n, k, d)
    if total > budget:
        raise BudgetExceededError(
            f"{total} knot configurations exceed budget {budget}")

    def proj_sq(knots):
        X = raw_basis(n, d, d0, KnotVector(knots, d).distinct())
        coef, _, _, _ = np.linalg.lstsq(X, eps, rcond=None)
        proj = X @ coef
        return float(proj @ proj)

    # the largest projection leaves the least SSE, so the screen's best set
    # bounds it from below and only sets screened near it can beat it
    screen = _KnotScreen(eps, d, d0, k)
    first = screen.knots(int(np.argmin(screen.score)))
    best = max(0.0, proj_sq(first))
    for knots in screen.within(float(eps @ eps) - best + screen.tol):
        if knots != first:
            best = max(best, proj_sq(knots))
    return best


def width_curve(d: int, d0: int, k: int, n_grid, reps: int,
                master_seed: int, budget: int = 200_000):
    """Mean and standard error of the complexity width per grid point.

    Returns rows (n, mean_width, std_error, rate_loglog, rate_log).
    """
    grid = tuple(int(v) for v in n_grid)
    rows = []
    for idx, n in enumerate(grid):
        params = ModelParams(d=d, d0=d0, k=k, n=n)
        w = np.empty(reps)
        for rep in range(reps):
            eps = noise_vector(master_seed, idx * reps + rep, n)
            w[rep] = complexity_width(eps, params, budget=budget)
        se = float(np.std(w, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        rows.append((n, float(np.mean(w)), se,
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
        if params.d0 == -1:
            return dp_fit(y, params).theta_hat.values
        return exhaustive_fit(y, params, budget=budget).theta_hat.values
    if estimator == "adaptive":
        return adaptive_fit(y, params, spec, budget=budget) \
            .theta_hat.values
    if estimator == "shape_lse":
        return shape_lse(y, params.d, params.k, budget=budget) \
            .theta_hat.values
    raise ValidationError(
        f"estimator must be one of {ESTIMATORS}, got {estimator!r}")


def mc_risk(config: ExperimentConfig, estimator: str,
            budget: int = 10_000_000) -> RiskCurve:
    """Empirical risk curve of an estimator over the configured grid.

    Each cell averages ||theta_hat - theta0||^2 over the replicates.
    Cells whose signal construction or solve fails are marked failed
    and carry the error message; the rest of the grid still runs.
    """
    if estimator not in ESTIMATORS:
        raise ValidationError(
            f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
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
            se = float(np.std(risks, ddof=1) / math.sqrt(config.reps)) \
                if config.reps > 1 else 0.0
            rows.append(RiskRow(n=n, k=config.k,
                                mean_risk=float(np.mean(risks)),
                                std_error=se, rate_loglog=rate_ll,
                                rate_log=rate_lg))
        except _SOLVER_ERRORS as exc:
            rows.append(RiskRow(n=n, k=config.k, mean_risk=math.nan,
                                std_error=math.nan, rate_loglog=rate_ll,
                                rate_log=rate_lg, failed=True,
                                error=str(exc)))
    return RiskCurve(config=config, estimator=estimator, rows=tuple(rows))
