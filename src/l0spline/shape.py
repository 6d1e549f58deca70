"""Monotone-type shape constrained spline fitting.

The d-monotone class consists of sequences sampled from d-fold iterated
integrals of nondecreasing step splines: nondecreasing sequences at d = 0,
convex piecewise linear sequences at d = 1, and so on.  Every member has a
canonical form built from one-sided hinge terms with sign-constrained
weights around a pivot knot plus a free low-order polynomial, which turns
least squares over the class at fixed knots into a nonnegativity
constrained problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    NonConvergenceError,
    ValidationError,
)
from .model import (
    _SCREEN_TOL,
    KnotVector,
    ModelParams,
    SignalVector,
    count_knot_vectors,
    iter_knot_vectors,
    validate_knots,
)
from .solvers import FitResult

__all__ = [
    "MonotoneCanonical",
    "ShapeFitResult",
    "canonical_evaluate",
    "fit_shape_given_knots",
    "shape_lse",
    "coef_bound_statistic",
    "is_d_monotone",
    "nnls_activeset",
    "sample_shape_member",
]

_DUAL_TOL = 1e-10


@dataclass(frozen=True)
class MonotoneCanonical:
    """Canonical hinge representation of a d-monotone member.

    a holds the weights of left hinges ((n_j - i)/n)_+^d for knots
    j in [1;j_star], each satisfying a_j * (-1)^{d+1} >= 0; b holds the
    nonnegative weights of right hinges ((i - n_j)/n)_+^d for knots
    j in [j_star;k-1]; c holds the d free polynomial coefficients
    (c_0,...,c_{d-1}) entering as c_l x^l / l!.  For d = 0 the left hinge
    uses the closed indicator 1{i <= n_j} and the right hinge the open
    indicator 1{i > n_j}; the c block is empty.
    """

    j_star: int
    a: tuple
    b: tuple
    c: tuple
    knots: KnotVector

    def __post_init__(self):
        k = self.knots.k
        d = self.knots.d
        if not (0 <= self.j_star <= k):
            raise ValidationError(
                f"pivot must lie in [0;{k}], got {self.j_star}")
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        c = tuple(float(v) for v in self.c)
        if len(a) != self.j_star:
            raise ValidationError(
                f"a must have j_star = {self.j_star} entries, got {len(a)}")
        if len(b) != k - self.j_star:
            raise ValidationError(
                f"b must have k - j_star = {k - self.j_star} entries, "
                f"got {len(b)}")
        if len(c) != d:
            raise ValidationError(
                f"c must have d = {d} entries, got {len(c)}")
        sign = (-1.0) ** (d + 1)
        if any(sign * v < 0 for v in a):
            raise ValidationError(
                f"a entries must satisfy a * (-1)^(d+1) >= 0")
        if any(v < 0 for v in b):
            raise ValidationError("b entries must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class ShapeFitResult(FitResult):
    """FitResult carrying the canonical representation of the fit."""

    canonical: MonotoneCanonical = None


def _left_hinge(i: np.ndarray, knot: int, n: int, d: int) -> np.ndarray:
    u = (knot - i) / n
    if d == 0:
        return (u >= 0).astype(float)
    return np.where(u > 0, u, 0.0) ** d


def _right_hinge(i: np.ndarray, knot: int, n: int, d: int) -> np.ndarray:
    u = (i - knot) / n
    if d == 0:
        return (u > 0).astype(float)
    return np.where(u > 0, u, 0.0) ** d


def canonical_evaluate(rep: MonotoneCanonical, n: int | None = None) -> np.ndarray:
    """Sample the canonical representation at i = 1..n."""
    kv = rep.knots
    if n is None:
        n = kv.n
    if kv.n != n:
        raise ValidationError(
            f"representation lives on grid {kv.n}, asked for {n}")
    d = kv.d
    i = np.arange(1, n + 1, dtype=float)
    out = np.zeros(n)
    for ell in range(d):
        out += rep.c[ell] / math.factorial(ell) * (i / n) ** ell
    for jx, aj in enumerate(rep.a, start=1):
        out += aj * _left_hinge(i, kv.knots[jx], n, d)
    for jx, bj in enumerate(rep.b, start=rep.j_star):
        out += bj * _right_hinge(i, kv.knots[jx], n, d)
    return out


def is_d_monotone(theta, d: int, tol: float = 1e-10) -> bool:
    """True when the d-th finite difference profile is non-decreasing."""
    prof = np.asarray(theta, dtype=float)
    for _ in range(d):
        prof = np.diff(prof)
    return bool(np.all(np.diff(prof) >= -tol))


# ---------------------------------------------------------------------------
# nonnegative least squares, active set with exact KKT termination
# ---------------------------------------------------------------------------

def nnls_activeset(A: np.ndarray, y: np.ndarray,
                   dual_tol: float = _DUAL_TOL,
                   max_iter: int | None = None) -> np.ndarray:
    """min ||y - A g||^2 subject to g >= 0.

    Classic active-set iteration.  Terminates when every inactive dual
    coordinate is <= dual_tol; raises NonConvergenceError after
    100 * n_variables iterations.
    """
    n, m = A.shape
    if max_iter is None:
        max_iter = 100 * max(m, 1)
    g = np.zeros(m)
    active: list = []
    resid = y.copy()
    w = A.T @ resid
    iters = 0
    while True:
        cand = [j for j in range(m) if j not in active and w[j] > dual_tol]
        if not cand:
            return g
        # largest dual first, ties to the smallest index
        jbest = max(cand, key=lambda j: (w[j], -j))
        active.append(jbest)
        while True:
            iters += 1
            if iters > max_iter:
                raise NonConvergenceError(
                    f"active-set solver exceeded {max_iter} iterations")
            Ap = A[:, active]
            z, _, _, _ = np.linalg.lstsq(Ap, y, rcond=None)
            if np.all(z > 0):
                g = np.zeros(m)
                g[active] = z
                break
            # step to the boundary, drop newly zeroed variables
            gp = g[active]
            mask = z <= 0
            denom = gp[mask] - z[mask]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, gp[mask] / denom, 0.0)
            alpha = float(np.min(ratios))
            gp = gp + alpha * (z - gp)
            g = np.zeros(m)
            g[active] = np.where(gp > 1e-14, gp, 0.0)
            active = [j for j in active if g[j] > 0]
        resid = y - A @ g
        w = A.T @ resid


def _solve_with_free_block(C: np.ndarray, F: np.ndarray, y: np.ndarray):
    """min ||y - C c - F g||^2 over free c and g >= 0.

    The free block is eliminated by projecting y and F onto the orthogonal
    complement of span(C); c is recovered afterwards by back substitution.
    """
    if C.shape[1] == 0:
        g = nnls_activeset(F, y)
        return np.zeros(0), g
    Q, R = np.linalg.qr(C)
    y_perp = y - Q @ (Q.T @ y)
    if F.shape[1]:
        F_perp = F - Q @ (Q.T @ F)
        g = nnls_activeset(F_perp, y_perp)
    else:
        g = np.zeros(0)
    rhs = Q.T @ (y - F @ g) if F.shape[1] else Q.T @ y
    c = np.linalg.solve(R, rhs)
    return c, g


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _shape_design(n: int, d: int, kv: KnotVector, j_star: int):
    """Free block C (polynomial) and constrained block F (sign-flipped
    left hinges then right hinges)."""
    i = np.arange(1, n + 1, dtype=float)
    C = np.column_stack(
        [(i / n) ** ell / math.factorial(ell) for ell in range(d)]
    ) if d else np.zeros((n, 0))
    sign = (-1.0) ** (d + 1)
    cols = []
    for jx in range(1, j_star + 1):
        cols.append(sign * _left_hinge(i, kv.knots[jx], n, d))
    for jx in range(j_star, kv.k):
        cols.append(_right_hinge(i, kv.knots[jx], n, d))
    F = np.column_stack(cols) if cols else np.zeros((n, 0))
    return C, F


def _local_coeffs_from_canonical(rep: MonotoneCanonical) -> tuple:
    """Exact per-piece local polynomial coefficients of the canonical
    representation, in the (x - knots[p]/n) basis."""
    kv = rep.knots
    d, n, k = kv.d, kv.n, kv.k
    coeffs = []
    for p in range(k):
        lo, hi = kv.knots[p], kv.knots[p + 1]
        if lo == hi:
            coeffs.append(None)
            continue
        tau_p = lo / n
        local = np.zeros(d + 1)
        # free polynomial block, shifted
        for ell in range(d):
            w = rep.c[ell] / math.factorial(ell)
            for m in range(ell + 1):
                local[m] += w * math.comb(ell, m) * tau_p ** (ell - m)
        # right hinges active on this piece: knot <= lo
        for jx, bj in enumerate(rep.b, start=rep.j_star):
            t = kv.knots[jx]
            if t > lo:
                continue
            delta = tau_p - t / n
            for m in range(d + 1):
                local[m] += bj * math.comb(d, m) * delta ** (d - m)
        # left hinges active on this piece: knot >= hi
        for jx, aj in enumerate(rep.a, start=1):
            t = kv.knots[jx]
            if t < hi:
                continue
            # a_j (tau_j - x)^d = a_j (-1)^d (x - tau_j)^d
            delta = tau_p - t / n
            for m in range(d + 1):
                local[m] += (aj * (-1.0) ** d * math.comb(d, m)
                             * delta ** (d - m))
        coeffs.append(tuple(local))
    return tuple(coeffs)


def fit_shape_given_knots(y, d: int, knots, j_star: int) -> ShapeFitResult:
    """Least squares over the canonical cone at fixed knots and pivot."""
    y = np.asarray(y, dtype=float)
    n = y.size
    kv = (knots if isinstance(knots, KnotVector)
          else validate_knots(knots, d, n))
    if kv.n != n:
        raise ValidationError(
            f"knots end at {kv.n}, y has length {n}")
    if not (0 <= j_star <= kv.k):
        raise ValidationError(
            f"pivot must lie in [0;{kv.k}], got {j_star}")
    rep, theta, sse = _cone_fit(y, d, kv, j_star)
    return ShapeFitResult(
        theta_hat=SignalVector(theta), knots=kv,
        coeffs=_local_coeffs_from_canonical(rep),
        sse=sse, k_selected=kv.k, canonical=rep)


def _cone_fit(y: np.ndarray, d: int, kv: KnotVector, j_star: int):
    """Canonical representation, fitted values and SSE of the cone least
    squares fit at fixed knots and pivot."""
    C, F = _shape_design(y.size, d, kv, j_star)
    c, g = _solve_with_free_block(C, F, y)
    sign = (-1.0) ** (d + 1)
    a = tuple(sign * v for v in g[:j_star])
    b = tuple(g[j_star:])
    rep = MonotoneCanonical(j_star, a, b, tuple(c), kv)
    theta = canonical_evaluate(rep)
    resid = y - theta
    return rep, theta, float(resid @ resid)


def _isotonic_blocks(y: np.ndarray):
    """Pool adjacent violators; returns the fitted nondecreasing vector."""
    vals: list = []
    counts: list = []
    for v in y:
        vals.append(float(v))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1] + 0.0:
            v2, c2 = vals.pop(), counts.pop()
            v1, c1 = vals.pop(), counts.pop()
            vals.append((v1 * c1 + v2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.empty(y.size)
    pos = 0
    for v, ct in zip(vals, counts):
        out[pos:pos + ct] = v
        pos += ct
    return out


def _canonical_from_nondecreasing(theta: np.ndarray, k: int) -> MonotoneCanonical:
    """Exact canonical form of a nondecreasing step sequence using the full
    grid of knots (0,1,...,n), padded with leading empties up to k pieces."""
    n = theta.size
    grid = tuple(range(n + 1))
    knots = (0,) * (k - n) + grid if k > n else grid
    kv = KnotVector(knots, 0)
    pad = len(knots) - 1 - n  # leading empty pieces
    jumps = np.diff(theta)
    if theta[0] >= 0:
        j_star = 0
        b = [0.0] * pad + [float(theta[0])] + [max(float(x), 0.0) for x in jumps]
        a = []
    elif theta[-1] <= 0:
        j_star = kv.k
        a = [0.0] * pad + [-max(float(x), 0.0) for x in jumps] + [float(theta[-1])]
        b = []
    else:
        p_star = int(np.nonzero(theta < 0)[0][-1]) + 1  # last negative point
        j_star = pad + p_star
        a = [0.0] * pad + [-float(x) for x in jumps[:p_star - 1]] \
            + [float(theta[p_star - 1])]
        b = [float(theta[p_star])] + [float(x) for x in jumps[p_star:]]
    return MonotoneCanonical(j_star, tuple(a), tuple(b), (), kv)


def shape_lse(y, d: int, k: int, budget: int = 10_000_000) -> ShapeFitResult:
    """Exact least squares over the d-monotone class with <= k pieces.

    Enumerates knot vectors and pivots; ties go to the lexicographically
    smallest knot vector, then the smallest pivot.  Every pair is scored
    by the SSE of one NNLS solve on columns projected once per call; only
    the pairs scored near the best are refit as fit_shape_given_knots
    fits them, and only the winner's full result is built.  For d = 0
    with k >= n the problem is plain isotonic regression and is solved by
    pooling.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if d == 0 and k >= n:
        theta = _isotonic_blocks(y)
        rep = _canonical_from_nondecreasing(theta, k)
        resid = y - theta
        return ShapeFitResult(
            theta_hat=SignalVector(theta), knots=rep.knots,
            coeffs=_local_coeffs_from_canonical(rep),
            sse=float(resid @ resid), k_selected=k, canonical=rep)

    total = count_knot_vectors(n, k, d) * (k + 1)
    if total > budget:
        raise BudgetExceededError(
            f"{total} configuration/pivot pairs exceed the budget of "
            f"{budget}")
    # the free block's QR, y and the sign-flipped left and right hinges at
    # every knot position do not depend on the pair: project them once
    C, _ = _shape_design(n, d, KnotVector((0, n), d), 0)
    i = np.arange(1, n + 1, dtype=float)[:, None]
    pos = np.arange(n + 1, dtype=float)
    F = np.hstack([(-1.0) ** (d + 1) * _left_hinge(i, pos, n, d),
                   _right_hinge(i, pos, n, d)])
    y_perp = y
    if d:
        Q, _ = np.linalg.qr(C)
        y_perp = y - Q @ (Q.T @ y)
        F = F - Q @ (Q.T @ F)
    vectors = list(iter_knot_vectors(n, k, d))
    score = np.empty(len(vectors) * (k + 1))
    for v, knots in enumerate(vectors):
        for j_star in range(k + 1):
            cols = F[:, list(knots[1:j_star + 1])
                     + [n + 1 + t for t in knots[j_star:k]]]
            r = y_perp - cols @ nnls_activeset(cols, y_perp)
            score[v * (k + 1) + j_star] = r @ r

    # a pair's fit never costs less than its screened SSE minus the
    # rounding bound, so only pairs screened near the best fit can win
    sses = {}

    def sse(p):
        if p not in sses:
            v, j_star = divmod(p, k + 1)
            sses[p] = _cone_fit(y, d, KnotVector(vectors[v], d), j_star)[2]
        return sses[p]

    first = int(np.argmin(score))
    near = np.flatnonzero(score <= sse(first) + _SCREEN_TOL * float(y @ y))
    best = min(near.tolist() + [first], key=lambda p: (sse(p), p))
    v, j_star = divmod(best, k + 1)
    return fit_shape_given_knots(y, d, KnotVector(vectors[v], d), j_star)


def coef_bound_statistic(theta_star, d: int, k: int, knots=None,
                         tol: float = 1e-6) -> float:
    """sqrt(n) times the largest free polynomial coefficient magnitude in
    the canonical form of the unit-normalized input, recovered by refit.

    The input must already be a class member; a refit that cannot
    reproduce it to within tol (relative, in sup norm) is an error.
    When the member's knots are known they can be passed to skip the
    knot scan; the refit then only searches over pivots, which matches
    the scan result whenever every hinge weight at those knots is active.
    """
    theta = np.asarray(theta_star, dtype=float)
    n = theta.size
    nrm = float(np.linalg.norm(theta))
    if nrm == 0:
        return 0.0
    unit = theta / nrm
    if knots is None:
        fit = shape_lse(unit, d, k)
        reproduced = np.max(np.abs(fit.theta_hat.values - unit)) <= tol
    else:
        fit = None
        reproduced = False
        for j_star in range(0, k + 1):
            cand = fit_shape_given_knots(unit, d, knots, j_star)
            if np.max(np.abs(cand.theta_hat.values - unit)) <= tol:
                fit = cand
                reproduced = True
                break
        if fit is None:
            raise ValidationError(
                "input is not a class member: refit cannot reproduce it")
    if not reproduced:
        raise ValidationError(
            "input is not a class member: refit cannot reproduce it")
    if d == 0:
        return 0.0
    return float(np.sqrt(n) * np.max(np.abs(fit.canonical.c)))


def sample_shape_member(rng, d: int, k: int, n: int):
    """Random d-monotone member with active hinges at k - 1 interior knots.

    Every hinge weight is drawn bounded away from zero, so the interior
    knots are genuine breakpoints of the sampled sequence.  Returns
    (values, knots, j_star); values are not normalized.
    """
    if k < 1:
        raise ValidationError(f"need at least one piece, got k = {k}")
    if n < k * (d + 1):
        raise ValidationError(
            f"n = {n} cannot host {k} pieces with gaps >= {d + 1}")
    while True:
        inner = np.sort(rng.choice(np.arange(d + 1, n - d, dtype=int),
                                   size=k - 1, replace=False))
        if k - 1 <= 1 or np.min(np.diff(inner)) >= d + 1:
            break
    knots = (0,) + tuple(int(v) for v in inner) + (n,)
    j_star = int(rng.integers(0, k + 1))
    sign = (-1.0) ** (d + 1)
    a = tuple(sign * (0.2 + rng.uniform(size=j_star)))
    b = tuple(0.2 + rng.uniform(size=k - j_star))
    c = tuple(rng.normal(size=d))
    rep = MonotoneCanonical(j_star=j_star, a=a, b=b, c=c,
                            knots=KnotVector(knots, d))
    return canonical_evaluate(rep), knots, j_star
