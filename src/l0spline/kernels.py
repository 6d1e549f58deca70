"""Numeric verification kernels for the spline-class analysis.

Recursion tables of cancellation weights, quadratic-form residuals,
moment-matrix conditioning, exact combinatorial identities,
degree-of-freedom counts, and exact-rational sparse constructions
supported on the middle third of the design interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateSystemError, ValidationError
from .model import (
    KnotVector,
    ModelParams,
    PiecewiseSpline,
    evaluate_spline,
    local_coefficients_from_truncated_power,
    raw_basis,
    transition_boundary,
)

__all__ = [
    "BetaTable",
    "SparseSystem",
    "max_cancellations",
    "beta_table",
    "beta_ratio_check",
    "quad_form_residuals",
    "moment_matrix",
    "moment_matrix_lambda_min",
    "binomial_identity_check",
    "dof_min_pieces",
    "sparse_construct",
    "sample_end_long_knots",
    "sample_unit_spline",
]


def _rising(m: int, j: int) -> int:
    # m (m+1) ... (m+j-1)
    return math.perm(m + j - 1, j) if j else 1


def _falling(m: int, j: int) -> int:
    # m (m-1) ... (m-j+1)
    return math.perm(m, j)


def max_cancellations(d: int, d0: int) -> int:
    """Largest cancellation count s supported by the (d, d0) recursion."""
    transition_boundary(d, d0)
    return (d0 + 1) // (d - d0)


@dataclass(frozen=True)
class BetaTable:
    """Dense tables of cancellation weights for one knot configuration.

    beta[s, j] is the base weight of the j-th component after s
    cancellations; dfactor[i-1, j] is the combinatorial factor attached
    to the i-th quadratic form; combined[s, i-1, j] is their product.
    Entries outside the valid (s, i, j) ranges are stored as zeros.
    """

    d: int
    d0: int
    knots: KnotVector
    beta: np.ndarray
    dfactor: np.ndarray
    combined: np.ndarray

    @property
    def s_max(self) -> int:
        return max_cancellations(self.d, self.d0)


def beta_table(d: int, d0: int, knots) -> BetaTable:
    """Fill the cancellation-weight recursion for a k0-piece knot vector.

    Base row beta[s, 0] = 1; for j in [1; s(d-d0)],
    beta[s, j] = sum_l C(s(d-d0)-l, j-l) g_s^{j-l} beta[s-1, l] with
    g_s the normalized gap of piece k0-s.  dfactor(i, j) is the ratio
    of a rising factorial at i and a falling factorial at d+1-i.
    """
    k0 = transition_boundary(d, d0)
    if not isinstance(knots, KnotVector):
        knots = KnotVector(tuple(int(v) for v in knots), d)
    if knots.d != d:
        raise ValidationError(
            f"knot vector carries degree {knots.d}, expected {d}")
    if knots.k != k0:
        raise ValidationError(
            f"need a knot vector with k0 = {k0} pieces, got {knots.k}")
    n = knots.n
    g = d - d0
    s_max = (d0 + 1) // g
    jmax = s_max * g

    def gap(a, b):
        return (knots.knots[a] - knots.knots[b]) / n

    beta = np.zeros((s_max + 1, jmax + 1))
    beta[:, 0] = 1.0
    for s in range(1, s_max + 1):
        gs = gap(k0 - s, k0 - 1 - s)
        for j in range(1, s * g + 1):
            acc = 0.0
            for ell in range(0, j + 1):
                acc += (math.comb(s * g - ell, j - ell)
                        * gs ** (j - ell) * beta[s - 1, ell])
            beta[s, j] = acc

    dfactor = np.zeros((d + 1, jmax + 1))
    for i in range(1, d + 2):
        for j in range(0, min(jmax, d + 1 - i) + 1):
            dfactor[i - 1, j] = _rising(i, j) / _falling(d + 1 - i, j)

    combined = np.zeros((s_max + 1, d + 1, jmax + 1))
    for s in range(0, s_max + 1):
        for i in range(1, d + 2 - s * g):
            for j in range(0, s * g + 1):
                combined[s, i - 1, j] = dfactor[i - 1, j] * beta[s, j]

    for arr in (beta, dfactor, combined):
        arr.setflags(write=False)
    return BetaTable(d=d, d0=d0, knots=knots, beta=beta, dfactor=dfactor,
                     combined=combined)


def beta_ratio_check(table: BetaTable, s: int, i: int, j1: int,
                     j2: int) -> tuple:
    """Ratio of two combined weights and its product lower bound.

    Returns (lhs, rhs) where lhs = combined[s, i, j2] / combined[s, i, j1]
    and rhs is the gap-product bound; the caller asserts
    lhs >= c_emp * rhs for a calibrated constant c_emp.
    """
    d, d0 = table.d, table.d0
    g = d - d0
    k0 = transition_boundary(d, d0)
    s_max = table.s_max
    if not 1 <= s <= s_max:
        raise ValidationError(f"s must lie in [1;{s_max}], got {s}")
    if not 1 <= i <= d + 1 - s * g:
        raise ValidationError(
            f"i must lie in [1;{d + 1 - s * g}] for s = {s}, got {i}")
    if not 0 <= j1 <= j2 <= s * g:
        raise ValidationError(
            f"need 0 <= j1 <= j2 <= {s * g}, got ({j1}, {j2})")

    denom = table.combined[s, i - 1, j1]
    if denom == 0:
        raise DegenerateSystemError(
            "zero weight in the denominator: degenerate knot gaps")
    lhs = float(table.combined[s, i - 1, j2] / denom)

    knots, n = table.knots.knots, table.knots.n

    def gap(a, b):
        return (knots[a] - knots[b]) / n

    def s_lower(j):
        out = 1.0
        for ell in range(1, j // g + 1):
            out *= gap(k0 - ell, k0 - 1 - s) ** g
        out *= gap(k0 - 1 - j // g, k0 - 1 - s) ** (j % g)
        return out

    def s_upper(j):
        ceil_jg = -((-j) // g)
        out = 1.0
        for ell in range(ceil_jg + 1, s + 1):
            out *= gap(k0 - ell, k0 - 1 - s) ** g
        out *= gap(k0 - ceil_jg, k0 - 1 - s) ** ((-j) % g)
        return out

    full = 1.0
    for ell in range(1, s + 1):
        full *= gap(k0 - ell, k0 - 1 - s) ** g
    div = s_lower(j1) * s_upper(j2)
    if div == 0:
        raise DegenerateSystemError(
            "zero gap product in the bound: degenerate knot gaps")
    return lhs, float(full / div)


def _check_end_long(kv: KnotVector) -> None:
    knots = kv.knots
    k = kv.k
    first = knots[1] - knots[0]
    last = knots[k] - knots[k - 1]
    mid = [knots[p + 1] - knots[p] for p in range(1, k - 1)]
    if mid and min(first, last) < max(mid):
        raise ValidationError(
            "end pieces must be at least as long as every middle piece")


def quad_form_residuals(theta: PiecewiseSpline, d0: int, s: int,
                        tol: float = 1e-8) -> float:
    """Weighted quadratic-form value extracted after s cancellations.

    For a unit-norm k0-piece spline whose end pieces dominate the middle
    gaps, evaluates
    sum_i ((n - n_{k0-1})^{2i-1} / n^{2(i-1)})
          (sum_j combined[s, i, j] a^{k0-1-s}_{i+j})^2,
    which stays bounded by a dimension-only constant.  The caller asserts
    value <= 1/c_emp for a calibrated c_emp.
    """
    kv = theta.knots
    d = kv.d
    k0 = transition_boundary(d, d0)
    if kv.k != k0:
        raise ValidationError(
            f"need a spline on k0 = {k0} pieces, got {kv.k}")
    g = d - d0
    s_max = (d0 + 1) // g
    if not 0 <= s <= s_max:
        raise ValidationError(f"s must lie in [0;{s_max}], got {s}")
    vals = evaluate_spline(theta)
    nrm = float(np.linalg.norm(vals))
    if abs(nrm - 1.0) > tol:
        raise ValidationError(
            f"requires a unit-norm sequence, got norm {nrm:.6g}")
    _check_end_long(kv)

    table = beta_table(d, d0, kv)
    n = kv.n
    coefs = theta.coeffs[k0 - 1 - s]
    a = np.zeros(d + 1) if coefs is None else np.asarray(coefs, dtype=float)
    last_gap = n - kv.knots[k0 - 1]
    total = 0.0
    for i in range(1, d + 2 - s * g):
        inner = 0.0
        for j in range(0, s * g + 1):
            inner += table.combined[s, i - 1, j] * a[i + j - 1]
        weight = last_gap ** (2 * i - 1) / n ** (2 * (i - 1))
        total += weight * inner ** 2
    return float(total)


def moment_matrix(m: int, d: int) -> np.ndarray:
    """Normalized power-sum matrix with entries m^{-(i+j-1)} sum_k k^{i+j-2}."""
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    if m <= d:
        raise DegenerateSystemError(
            f"need m >= d + 1 = {d + 1} points for a rank-(d+1) moment "
            f"matrix, got m = {m}")
    sums = [sum(k ** p for k in range(1, m + 1)) for p in range(2 * d + 1)]
    A = np.empty((d + 1, d + 1))
    for i in range(d + 1):
        for j in range(d + 1):
            A[i, j] = float(Fraction(sums[i + j], m ** (i + j + 1)))
    return A


def moment_matrix_lambda_min(m: int, d: int) -> float:
    """Smallest eigenvalue of the normalized power-sum matrix."""
    return float(np.linalg.eigvalsh(moment_matrix(m, d))[0])


def binomial_identity_check(n: int, coeffs) -> int:
    """Alternating binomial sum of a low-degree integer polynomial.

    Returns sum_j C(n, j) P(j) (-1)^j computed in exact integer
    arithmetic for P given by ascending coefficients; the result is 0
    whenever deg P < n.
    """
    if n < 1:
        raise ValidationError(f"order must be a positive integer, got {n}")
    clean = []
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise ValidationError(
                "polynomial coefficients must be exact integers")
        clean.append(int(c))
    deg = -1
    for idx, c in enumerate(clean):
        if c != 0:
            deg = idx
    if deg >= n:
        raise ValidationError(
            f"polynomial degree {deg} must be smaller than the order {n}")
    total = 0
    for j in range(n + 1):
        pj = sum(c * j ** idx for idx, c in enumerate(clean))
        total += math.comb(n, j) * pj * (-1) ** j
    return total


def dof_min_pieces(d: int, d0: int) -> int:
    """Smallest k with (k-2)(d+1) >= (k-1)(d0+1) + 1.

    This is the minimum number of pieces that leaves a free coefficient
    after all interior smoothness constraints are spent; it never
    exceeds transition_boundary(d, d0) + 1.
    """
    transition_boundary(d, d0)
    k = 1
    while (k - 2) * (d + 1) < (k - 1) * (d0 + 1) + 1:
        k += 1
    return k


@dataclass(frozen=True)
class SparseSystem:
    """Exact-rational constraint system for a middle-third construction.

    tau holds the piece boundaries 0 = tau_0 < ... < tau_k = 1; matrix
    is the (d0+1) x (k-2)(d-d0) homogeneous system whose solutions give
    free jump coefficients at the middle knots; basis spans its
    nullspace; signal samples a nonzero member on an integer grid of
    size signal_n when the dimension is positive.
    """

    d: int
    d0: int
    k: int
    tau: tuple
    matrix: tuple
    nullspace_dim: int
    basis: tuple
    witness_coeffs: tuple | None
    signal: np.ndarray | None
    signal_n: int | None


def _rational_nullspace(rows, ncols):
    """Nullspace basis of a matrix with Fraction entries, one vector per
    free column, exact arithmetic throughout."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, nrows):
            if mat[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for rr in range(nrows):
            if rr != r and mat[rr][c] != 0:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pc in enumerate(pivots):
            v[pc] = -mat[prow][fc]
        basis.append(tuple(v))
    return basis


def _poly_add_shifted(poly, coef, tau, ell):
    """Add coef * (x - tau)^ell to an ascending-coefficient Fraction poly."""
    out = list(poly)
    for t in range(ell + 1):
        out[t] += coef * math.comb(ell, t) * (-tau) ** (ell - t)
    return out


def _poly_eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _poly_derivative(poly, r):
    out = list(poly)
    for _ in range(r):
        out = [idx * c for idx, c in enumerate(out)][1:]
        if not out:
            return [Fraction(0)]
    return out


def _general_position_combo(basis, k, g):
    """Pick a nullspace element whose every middle-knot coefficient block
    is nonzero, trying simple deterministic combinations first."""
    dim = len(basis)
    ncols = len(basis[0])
    nblocks = ncols // g

    def blocks_ok(v):
        return all(any(v[b * g + t] != 0 for t in range(g))
                   for b in range(nblocks))

    candidates = [basis[0]] if dim == 1 else []
    candidates.append(tuple(sum(col) for col in zip(*basis)))
    candidates.append(tuple(sum((m + 1) * v[c] for m, v in enumerate(basis))
                            for c in range(ncols)))
    rng = np.random.default_rng(20260301)
    for _ in range(50):
        w = rng.integers(-5, 6, size=dim)
        if not np.any(w):
            continue
        candidates.append(tuple(sum(int(w[m]) * v[c]
                                    for m, v in enumerate(basis))
                                for c in range(ncols)))
    for v in candidates:
        if any(x != 0 for x in v) and blocks_ok(v):
            return v
    return next(v for v in candidates if any(x != 0 for x in v))


def sparse_construct(d: int, d0: int, k: int) -> SparseSystem:
    """Constraint system and witness for signals supported on [1/3, 2/3].

    Places k - 2 middle pieces on an even rational grid between 1/3 and
    2/3, encodes the requirement that the free jumps at the middle knots
    leave a function whose derivatives up to order d0 vanish at the last
    interior knot, and solves the homogeneous system exactly.  When the
    nullspace is nontrivial a nonzero member is sampled on an integer
    grid and its piecewise structure is revalidated in exact arithmetic.
    """
    transition_boundary(d, d0)
    if k < 2:
        raise ValidationError(f"need at least two pieces, got k = {k}")
    g = d - d0

    if k == 2:
        tau = (Fraction(0), Fraction(1, 2), Fraction(1))
    else:
        tau = tuple([Fraction(0)]
                    + [Fraction(1, 3) + Fraction(j - 1, 3 * (k - 2))
                       for j in range(1, k)]
                    + [Fraction(1)])
    t_last = tau[k - 1]

    rows = []
    for r in range(0, d0 + 1):
        row = []
        for j in range(1, k - 1):
            for ell in range(d0 + 1, d + 1):
                row.append(_falling(ell, r) * (t_last - tau[j]) ** (ell - r))
        rows.append(tuple(row))
    ncols = (k - 2) * g
    basis = _rational_nullspace(rows, ncols)
    dim = len(basis)

    signal = None
    signal_n = None
    witness = None
    if dim >= 1 and k >= 3:
        v = _general_position_combo(basis, k, g)
        witness = tuple(v)
        n = 3 * (k - 2) * (d + 2)
        knots_int = tuple(int(t * n) for t in tau)
        # accumulate piece polynomials in global coordinates
        poly = [Fraction(0)] * (d + 1)
        piece_polys = [list(poly)]
        for j in range(1, k - 1):
            for t, ell in enumerate(range(d0 + 1, d + 1)):
                poly = _poly_add_shifted(poly, v[(j - 1) * g + t], tau[j], ell)
            piece_polys.append(list(poly))
        # the last knot must absorb the remaining jump exactly
        for r in range(0, d0 + 1):
            if _poly_eval(_poly_derivative(poly, r), t_last) != 0:
                raise DegenerateSystemError(
                    "nullspace element fails the exact smoothness check "
                    "at the last interior knot")
        piece_polys.append([Fraction(0)] * (d + 1))
        vals = []
        for i in range(1, n + 1):
            p = next(pp for pp in range(k)
                     if knots_int[pp] < i <= knots_int[pp + 1])
            vals.append(_poly_eval(piece_polys[p], Fraction(i, n)))
        if all(x == 0 for x in vals):
            raise DegenerateSystemError(
                "sampled construction degenerated to the zero sequence")
        signal = np.array([float(x) for x in vals])
        signal.setflags(write=False)
        signal_n = n

    return SparseSystem(d=d, d0=d0, k=k, tau=tau, matrix=tuple(rows),
                        nullspace_dim=dim, basis=tuple(basis),
                        witness_coeffs=witness, signal=signal,
                        signal_n=signal_n)


def sample_end_long_knots(rng, d: int, d0: int, n: int) -> KnotVector:
    """Random k0-piece knot vector with end pieces dominating the middle.

    Draws the middle knots inside the central window [n/3, 2n/3] with
    gaps of at least d + 1, which keeps both end pieces longer than any
    middle piece whenever n is large enough.
    """
    k0 = transition_boundary(d, d0)
    inner = k0 - 1
    lo, hi = n // 3, 2 * n // 3
    need = (inner - 1) * (d + 1)
    if hi - lo < need or lo < d + 1 or n - hi < d + 1:
        raise ValidationError(
            f"n = {n} too small for an end-dominant {k0}-piece layout")
    while True:
        picks = np.sort(rng.choice(np.arange(lo, hi + 1),
                                   size=inner, replace=False))
        gaps_ok = np.all(np.diff(picks) >= d + 1) if inner > 1 else True
        if not gaps_ok:
            continue
        knots = (0,) + tuple(int(v) for v in picks) + (n,)
        kv = KnotVector(knots, d)
        first = knots[1]
        last = n - knots[-2]
        mids = [knots[p + 1] - knots[p] for p in range(1, k0 - 1)]
        if not mids or min(first, last) >= max(mids):
            return kv


def sample_unit_spline(rng, params: ModelParams, knots: KnotVector,
                       scale: float = 1.0) -> PiecewiseSpline:
    """Random unit-norm class member on the given knots."""
    X = raw_basis(params.n, params.d, params.d0, knots.knots)
    coef = rng.normal(scale=scale, size=X.shape[1])
    vals = X @ coef
    nrm = float(np.linalg.norm(vals))
    if nrm == 0:
        raise DegenerateSystemError("drew the zero spline")
    spline = local_coefficients_from_truncated_power(
        knots, params.d0, coef / nrm)
    return spline
