"""Independent checks of the answers the benchmark gets from l0spline.

Nothing here imports l0spline.  Every check is computed from the
mathematical definition with numpy's dense least squares or scipy's
Lawson-Hanson NNLS, or is a property the method must have.  A check
that fails raises CheckFailed with a short reason; run.py counts
the operation as failed and records the reason.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

# relative tolerances; the package solves with Householder QR and an
# active-set NNLS, so agreement is at rounding level when both are right
REL_TOL = 1e-8
SSE_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An answer disagreed with its independent check."""


def close(a: float, b: float, scale: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(scale))


# ---------------------------------------------------------------------------
# knot vectors and designs
# ---------------------------------------------------------------------------

def knot_vectors(n: int, k: int, d: int):
    """Every knot vector 0 = n_0 <= ... <= n_k = n whose consecutive knots
    are equal or at least d+1 apart, in lexicographic order."""
    def rec(prefix, left):
        last = prefix[-1]
        if left == 0:
            if last == n:
                yield tuple(prefix)
            return
        for nxt in [last] + list(range(last + d + 1, n + 1)):
            rem = n - nxt
            if rem and (left == 1 or rem < d + 1):
                continue
            yield from rec(prefix + [nxt], left - 1)

    yield from rec([0], k)


def check_knots(knots, n: int, d: int, k: int) -> None:
    knots = list(knots)
    if len(knots) != k + 1 or knots[0] != 0 or knots[-1] != n:
        raise CheckFailed(f"knot vector {knots} is not a {k}-piece vector"
                          f" on 0..{n}")
    for a, b in zip(knots, knots[1:]):
        if b < a or (b != a and b - a < d + 1):
            raise CheckFailed(f"knot vector {knots} breaks the gap rule")


def truncated_power_design(n: int, d: int, d0: int, knots) -> np.ndarray:
    """Columns (i/n)^l, l <= d, then ((i - t)/n)_+^l, d0 < l <= d, for
    each distinct inner knot t."""
    i = np.arange(1, n + 1, dtype=float)
    cols = [(i / n) ** ell for ell in range(d + 1)]
    for t in sorted(set(knots[1:-1]) - {0, n}):
        u = np.where(i > t, (i - t) / n, 0.0)
        for ell in range(d0 + 1, d + 1):
            cols.append((i > t).astype(float) if ell == 0 else u ** ell)
    return np.column_stack(cols)


def projection_sse(X: np.ndarray, y: np.ndarray) -> float:
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ coef
    return float(r @ r)


def segment_sse(y: np.ndarray, lo: int, hi: int, d: int) -> float:
    """Degree-d least squares on points lo+1..hi in the locally scaled
    basis (j/L)^l, j = 1..L; zero for an empty piece."""
    if lo == hi:
        return 0.0
    L = hi - lo
    j = np.arange(1, L + 1, dtype=float) / L
    X = np.column_stack([j ** ell for ell in range(d + 1)])
    return projection_sse(X, y[lo:hi])


def jump_sse(y: np.ndarray, d: int, knots) -> float:
    """SSE of the d0 = -1 fit at fixed knots, piece by piece."""
    return sum(segment_sse(y, lo, hi, d) for lo, hi in zip(knots, knots[1:]))


# ---------------------------------------------------------------------------
# fitted values and SSE
# ---------------------------------------------------------------------------

def evaluate_pieces(n: int, knots, coeffs) -> np.ndarray:
    """Sample per-piece coefficients c at i = 1..n: on piece (lo; hi] the
    value is sum_l c_l ((i - lo)/n)^l."""
    theta = np.zeros(n)
    for lo, hi, c in zip(knots, knots[1:], coeffs):
        if lo == hi:
            if c is not None:
                raise CheckFailed(f"empty piece ({lo};{hi}] has coefficients")
            continue
        u = np.arange(1, hi - lo + 1, dtype=float) / n
        theta[lo:hi] = sum(a * u ** ell for ell, a in enumerate(c))
    return theta


def check_fit(y, knots, coeffs, theta, sse) -> None:
    """The coefficients reproduce theta_hat and sse = ||y - theta_hat||^2."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    scale = float(np.max(np.abs(y)))
    again = evaluate_pieces(y.size, knots, coeffs)
    gap = float(np.max(np.abs(again - theta)))
    if gap > REL_TOL * max(1.0, scale):
        raise CheckFailed(f"coefficients miss theta_hat by {gap:.3g}")
    r = y - theta
    if not close(float(r @ r), sse, sse):
        raise CheckFailed(f"sse {sse!r} != ||y - theta_hat||^2 "
                          f"{float(r @ r)!r}")


def check_not_beaten(best: float, sse: float, what: str) -> None:
    """No knot vector scanned by a brute force has a lower SSE."""
    if best < sse - SSE_REL_TOL * max(1.0, sse):
        raise CheckFailed(f"{what} finds sse {best!r} below reported "
                          f"{sse!r}")


def brute_k2_jump_sse(y: np.ndarray, d: int) -> float:
    """Least SSE over every 2-piece, d0 = -1 knot vector."""
    n = y.size
    best = segment_sse(y, 0, n, d)
    for s in range(d + 1, n - d):
        best = min(best, segment_sse(y, 0, s, d) + segment_sse(y, s, n, d))
    return best


def neighbourhood_jump_sse(y: np.ndarray, d: int, knots) -> float:
    """Least SSE over every d0 = -1 knot vector that differs from knots in
    one inner knot, which may move anywhere between its neighbours."""
    knots = list(knots)
    best = math.inf
    for j in range(1, len(knots) - 1):
        lo, hi = knots[j - 1], knots[j + 1]
        rest = jump_sse(y, d, knots[:j]) + jump_sse(y, d, knots[j + 1:])
        for t in [lo] + list(range(lo + d + 1, hi - d)) + [hi]:
            best = min(best, rest + segment_sse(y, lo, t, d)
                       + segment_sse(y, t, hi, d))
    return best


def brute_smooth_sse(y: np.ndarray, d: int, d0: int, k: int) -> float:
    """Least SSE over every k-piece knot vector with d0 matched
    derivatives, one dense least squares per vector."""
    n = y.size
    return min(projection_sse(truncated_power_design(n, d, d0, kv), y)
               for kv in knot_vectors(n, k, d))


def refit_smooth_sse(y: np.ndarray, d: int, d0: int, knots) -> float:
    return projection_sse(truncated_power_design(y.size, d, d0, knots), y)


# ---------------------------------------------------------------------------
# penalized selection
# ---------------------------------------------------------------------------

def robust_sigma(y: np.ndarray) -> float:
    return float(np.median(np.abs(np.diff(y))) / (math.sqrt(2) * 0.6745))


def penalty(k: int, tau: float, sigma: float, d: int, d0: int,
            n: int) -> float:
    """tau sigma^2 times 1 at k = 1, k loglog(16n/k) up to the transition
    boundary k0 = floor((d+1)/(d-d0)) + 1, and k log(en/k) beyond it."""
    k0 = (d + 1) // (d - d0) + 1
    scale = tau * sigma ** 2
    if k == 1:
        return scale
    if k <= k0:
        return scale * k * math.log(math.log(16 * n / k))
    return scale * k * math.log(math.e * n / k)


def check_adapt(trace, k_selected: int, sse: float, penalty_used: float,
                k_max: int, tau: float, sigma: float, d: int, d0: int,
                n: int) -> None:
    """The trace covers k = 1..k_max, its SSE does not increase with k,
    each penalty matches its formula, and the selected k is the first
    minimizer of sse + pen."""
    ks = [row["k"] for row in trace]
    if ks != list(range(1, k_max + 1)):
        raise CheckFailed(f"trace covers k = {ks}, expected 1..{k_max}")
    for row in trace:
        pen = penalty(row["k"], tau, sigma, d, d0, n)
        if not close(row["penalty"], pen, pen):
            raise CheckFailed(f"penalty at k={row['k']} is {row['penalty']!r},"
                              f" formula gives {pen!r}")
    for a, b in zip(trace, trace[1:]):
        if b["sse"] > a["sse"] + SSE_REL_TOL * max(1.0, a["sse"]):
            raise CheckFailed(f"sse rises from k={a['k']} to k={b['k']}")
    objs = [row["sse"] + row["penalty"] for row in trace]
    best = ks[int(np.argmin(objs))]
    if k_selected != best:
        raise CheckFailed(f"selected k={k_selected}, sse + pen is least at "
                          f"k={best}")
    row = trace[best - 1]
    if not close(sse, row["sse"], sse) or not close(
            penalty_used, row["penalty"], penalty_used):
        raise CheckFailed("reported fit disagrees with its trace row")


# ---------------------------------------------------------------------------
# shape-constrained fits
# ---------------------------------------------------------------------------

def shape_design(n: int, d: int, knots, j_star: int):
    """Free block x^l/l!, l < d, and constrained block: sign-flipped left
    hinges ((t_j - i)/n)_+^d for j <= j_star, right hinges
    ((i - t_j)/n)_+^d for j >= j_star (closed and open indicators at
    d = 0)."""
    i = np.arange(1, n + 1, dtype=float)
    free = np.column_stack([(i / n) ** ell / math.factorial(ell)
                            for ell in range(d)]) if d else np.zeros((n, 0))
    sign = (-1.0) ** (d + 1)
    cols = []
    for j in range(1, j_star + 1):
        u = (knots[j] - i) / n
        cols.append(sign * ((u >= 0).astype(float) if d == 0
                            else np.where(u > 0, u, 0.0) ** d))
    for j in range(j_star, len(knots) - 1):
        u = (i - knots[j]) / n
        cols.append((u > 0).astype(float) if d == 0
                    else np.where(u > 0, u, 0.0) ** d)
    hinges = np.column_stack(cols) if cols else np.zeros((n, 0))
    return free, hinges


def shape_sse(y: np.ndarray, d: int, knots, j_star: int) -> float:
    """Cone least squares at fixed knots and pivot: the free block is
    projected out, then scipy's NNLS solves the hinge weights."""
    free, hinges = shape_design(y.size, d, knots, j_star)
    if free.shape[1]:
        q, _ = np.linalg.qr(free)
        y = y - q @ (q.T @ y)
        hinges = hinges - q @ (q.T @ hinges)
    if hinges.shape[1] == 0:
        return float(y @ y)
    _, rnorm = nnls(hinges, y, maxiter=50 * hinges.shape[1])
    return float(rnorm ** 2)


def brute_shape_sse(y: np.ndarray, d: int, k: int) -> float:
    return min(shape_sse(y, d, kv, j)
               for kv in knot_vectors(y.size, k, d) for j in range(k + 1))


def check_d_monotone(theta, d: int) -> None:
    """The (d+1)-th finite differences are nonnegative: nondecreasing at
    d = 0, convex at d = 1."""
    theta = np.asarray(theta, dtype=float)
    diff = np.diff(theta, n=d + 1)
    floor = -1e-9 * max(1.0, float(np.max(np.abs(theta))))
    if diff.size and float(diff.min()) < floor:
        raise CheckFailed(f"fit is not {d}-monotone: difference "
                          f"{float(diff.min()):.3g}")


def check_shape_sse(y, d: int, knots, j_star: int, sse: float) -> None:
    ref = shape_sse(np.asarray(y, dtype=float), d, knots, j_star)
    if not close(ref, sse, sse):
        raise CheckFailed(f"scipy NNLS at the reported knots and pivot gives"
                          f" sse {ref!r}, shape_lse reports {sse!r}")


# ---------------------------------------------------------------------------
# null statistics
# ---------------------------------------------------------------------------

def check_width_chain(eps, widths: dict) -> None:
    """(sum eps)^2 / n <= width(k=2) <= width(k=3) <= ||eps||^2 for the
    piece counts present in widths."""
    eps = np.asarray(eps, dtype=float)
    lo = float(eps.sum()) ** 2 / eps.size
    hi = float(eps @ eps)
    chain = [lo] + [widths[k] for k in sorted(widths)] + [hi]
    slack = REL_TOL * hi
    for a, b in zip(chain, chain[1:]):
        if b < a - slack:
            raise CheckFailed(f"width chain broken: {chain}")


def brute_width(eps: np.ndarray, d: int, d0: int, k: int) -> float:
    """Largest squared projection of eps onto any configuration span."""
    best = 0.0
    for kv in knot_vectors(eps.size, k, d):
        X = truncated_power_design(eps.size, d, d0, kv)
        coef, _, _, _ = np.linalg.lstsq(X, eps, rcond=None)
        p = X @ coef
        best = max(best, float(p @ p))
    return best


def check_width(eps, d: int, d0: int, k: int, width: float) -> None:
    ref = brute_width(np.asarray(eps, dtype=float), d, d0, k)
    if not close(ref, width, width):
        raise CheckFailed(f"projection scan gives width {ref!r}, "
                          f"complexity_width {width!r}")


def lil_naive(eps, d: int) -> float:
    """max over 1 <= n1 < n2 <= n of |sum_{n1 < i <= n2} (i-n1)^d eps_i|
    / ((n2-n1)^d sqrt(min(n2, n-n1))), one right endpoint at a time with
    direct sums over every left endpoint."""
    eps = np.asarray(eps, dtype=float)
    n = eps.size
    best = 0.0
    for n2 in range(2, n + 1):
        n1 = np.arange(1, n2)
        lag = (np.arange(2, n2 + 1)[None, :] - n1[:, None]).astype(float)
        w = np.where(lag > 0, lag, 0.0) ** d * (lag > 0)
        num = np.abs(w @ eps[1:n2])
        den = (n2 - n1).astype(float) ** d * np.sqrt(np.minimum(n2, n - n1))
        best = max(best, float(np.max(num / den)))
    return best


def check_lil(eps, d: int, value: float) -> None:
    ref = lil_naive(eps, d)
    if not close(ref, value, value):
        raise CheckFailed(f"naive loop gives {ref!r}, lil_statistic "
                          f"{value!r}")
