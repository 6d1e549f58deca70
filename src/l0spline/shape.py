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
from itertools import combinations

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .model import (
    DEFAULT_BUDGET,
    _SCREEN_TOL,
    _check_budget,
    _finite,
    _rescore,
    _KnotScreen,
    KnotVector,
    ModelParams,
    SignalVector,
    count_knot_vectors,
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
# (knots, pivot) pairs screened per batched solve; their gathered columns
# take 256 (k + 1) n doubles, 256 KB at n = 32, k = 3.  A chunk of knot
# sets holds _PAIR_CHUNK // (k + 1) sets.
_PAIR_CHUNK = 256
# shape_lse prunes on _KnotScreen scores, whose rounding is held within
# the rescoring tolerance of the exact costs up to this degree only
_SHAPE_MAX_DEGREE = 3


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


class _Grid:
    """Columns on the grid i = 1..n at degree d, each built on first use:
    the monomials (i/n)^l and the left and right hinges at a knot."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.i = np.arange(1, n + 1, dtype=float)
        self._cols = {}

    def _col(self, key, make):
        col = self._cols.get(key)
        if col is None:
            col = self._cols[key] = make()
        return col

    def power(self, ell: int) -> np.ndarray:
        return self._col(("x", ell), lambda: (self.i / self.n) ** ell)

    def left(self, knot: int) -> np.ndarray:
        return self._col(("l", knot), lambda: _left_hinge(
            self.i, knot, self.n, self.d))

    def right(self, knot: int) -> np.ndarray:
        return self._col(("r", knot), lambda: _right_hinge(
            self.i, knot, self.n, self.d))


def canonical_evaluate(rep: MonotoneCanonical, n: int | None = None) -> np.ndarray:
    """Sample the canonical representation at i = 1..n."""
    kv = rep.knots
    if n is None:
        n = kv.n
    if kv.n != n:
        raise ValidationError(
            f"representation lives on grid {kv.n}, asked for {n}")
    return _evaluate(rep, _Grid(n, kv.d))


def _evaluate(rep: MonotoneCanonical, grid: _Grid) -> np.ndarray:
    kv = rep.knots
    out = np.zeros(grid.n)
    for ell in range(kv.d):
        out += rep.c[ell] / math.factorial(ell) * grid.power(ell)
    for jx, aj in enumerate(rep.a, start=1):
        out += aj * grid.left(kv.knots[jx])
    for jx, bj in enumerate(rep.b, start=rep.j_star):
        out += bj * grid.right(kv.knots[jx])
    return out


def _check_degree(d: int) -> None:
    if d < 0:
        raise ValidationError(f"degree d must be >= 0, got {d}")


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
                   max_iter: int | None = None) -> np.ndarray:
    """min ||y - A g||^2 subject to g >= 0.

    Classic active-set iteration.  Terminates when every inactive dual
    coordinate is <= _DUAL_TOL * ||y|| * max_j ||A_j||, a bound that scales
    with the data, so rescaling y rescales g and nothing else; raises
    NonConvergenceError after 100 * n_variables iterations.
    """
    n, m = A.shape
    if max_iter is None:
        max_iter = 100 * max(m, 1)
    dual_tol = _DUAL_TOL * math.sqrt(float(y @ y) * float(
        np.einsum("ij,ij->j", A, A).max(initial=0.0)))
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


def _dual_tols(F: np.ndarray, y: np.ndarray) -> np.ndarray:
    """_DUAL_TOL * ||y|| * ||F_j|| for every column j of F: the KKT
    tolerance of nnls_activeset, per column, for _nnls_screen."""
    return _DUAL_TOL * float(np.linalg.norm(y)) * np.linalg.norm(F, axis=0)


def _nnls_screen(F: np.ndarray, y: np.ndarray, idx: np.ndarray,
                 dual_tol: np.ndarray,
                 max_iter: int | None = None) -> np.ndarray:
    """min ||y - F[:, idx[p]] g||^2 over g >= 0, for every row p of idx.

    One batched QR of each [F[:, idx[p]], y] reduces row p to a k x k
    problem min ||c - R g||^2 plus the constant ||y||^2 - ||c||^2 (the
    squared last diagonal entry, so nothing cancels).  The active set of
    nnls_activeset then runs on every row in lockstep, one boolean mask
    per row, with the same rules: the largest dual enters first, ties go
    to the smallest index, an infeasible step moves to the boundary and
    drops the zeroed variables, and a row stops when every inactive dual
    is <= the largest dual_tol (_dual_tols(F, y)) over its columns.  The
    masked normal equations R_A' R_A z = R_A' c are solved batched; the
    score ||c - R g||^2 is computed directly, so an error in z enters it
    only at second order.  Raises NonConvergenceError when a row needs
    more than max_iter (default 100 k) solves.
    """
    n = y.size
    pairs, k = idx.shape
    if not k:
        return np.full(pairs, float(y @ y))
    if max_iter is None:
        max_iter = 100 * max(k, 1)
    # rows padded with zeros to k + 1, so the QR keeps its last row
    cols = np.zeros((pairs, k + 1, max(n, k + 1)))
    cols[:, :k, :n] = F.T[idx]
    cols[:, k, :n] = y
    Ra = np.linalg.qr(cols.transpose(0, 2, 1), mode="r")
    R, c = Ra[:, :k, :k], Ra[:, :k, k]
    RT = R.transpose(0, 2, 1)
    G, b = RT @ R, _matvec(RT, c)
    tol = np.max(dual_tol[idx], axis=1, initial=0.0)

    eye = np.eye(k, dtype=bool)
    g = np.zeros((pairs, k))
    active = np.zeros((pairs, k), dtype=bool)
    solving = np.zeros(pairs, dtype=bool)
    iters = np.zeros(pairs, dtype=int)
    live = np.arange(pairs)
    while live.size:
        # rows whose last solve was feasible take their next variable
        o = live[~solving[live]]
        if o.size:
            w = _matvec(RT[o], c[o] - _matvec(R[o], g[o]))
            w = np.where(~active[o] & (w > tol[o, None]), w, -np.inf)
            j = np.argmax(w, axis=1)  # the first maximum: smallest index
            enter = w[np.arange(o.size), j] > -np.inf
            active[o[enter], j[enter]] = True
            solving[o[enter]] = True
            live = live[solving[live]]
            if not live.size:
                break
        iters[live] += 1
        if iters[live].max() > max_iter:
            raise NonConvergenceError(
                f"active-set solver exceeded {max_iter} iterations")
        A = active[live]
        z = np.linalg.solve(
            np.where(A[:, :, None] & A[:, None, :], G[live], eye),
            np.where(A, b[live], 0.0)[..., None])[..., 0]
        feasible = np.all(z > 0, axis=1, where=A)
        done = live[feasible]
        g[done] = np.where(A[feasible], z[feasible], 0.0)
        solving[done] = False
        # step to the boundary, drop newly zeroed variables
        bad = ~feasible
        if bad.any():
            stepped = live[bad]
            gp, zb, Ab = g[stepped], z[bad], A[bad]
            denom = gp - zb
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, gp / denom, 0.0)
            alpha = np.min(ratios, axis=1, where=Ab & (zb <= 0),
                           initial=np.inf)
            gp = gp + alpha[:, None] * (zb - gp)
            g[stepped] = np.where(Ab & (gp > 1e-14), gp, 0.0)
            active[stepped] = g[stepped] > 0
    r = c - _matvec(R, g)
    return np.einsum("pi,pi->p", r, r) + Ra[:, k, k] ** 2


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M[p] @ v[p] for every p."""
    return (M @ v[..., None])[..., 0]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

class _ConeProblem:
    """What every cone fit of one y shares, whatever its knots and pivot:
    the free polynomial block C, its QR, y projected onto the orthogonal
    complement of span(C), and the hinge columns built so far."""

    def __init__(self, y: np.ndarray, d: int):
        n = y.size
        self.y, self.d, self.y_perp = y, d, y
        self.grid = _Grid(n, d)
        if d:
            C = np.column_stack(
                [self.grid.power(ell) / math.factorial(ell)
                 for ell in range(d)])
            self.Q, self.R = np.linalg.qr(C)
            self.y_perp = self.project(y)

    def project(self, F: np.ndarray) -> np.ndarray:
        """F projected onto the orthogonal complement of span(C)."""
        return F - self.Q @ (self.Q.T @ F) if self.d else F

    def hinges(self) -> np.ndarray:
        """The projected sign-flipped left hinges at knots 0..n, then the
        projected right hinges at knots 0..n: every pair's columns."""
        n, d = self.y.size, self.d
        i = self.grid.i[:, None]
        pos = np.arange(n + 1, dtype=float)
        return self.project(np.hstack([
            (-1.0) ** (d + 1) * _left_hinge(i, pos, n, d),
            _right_hinge(i, pos, n, d)]))

    def set_cone(self, F: np.ndarray):
        """Columns and target of the one cone of a knot set.  With the
        free block, the right hinge at 0 (column n + 1 of F, from
        hinges()) is the monomial of degree d, which the set's cone
        leaves free, so the right hinges at knots 0..n and y_perp are
        projected off it too.  Column t is then the right hinge at t off
        every polynomial of degree <= d; column n is zero."""
        n = self.y.size
        H = F[:, n + 1:]
        q = H[:, 0] / np.linalg.norm(H[:, 0])
        return H - np.outer(q, q @ H), self.y_perp - q * (q @ self.y_perp)

    def fit(self, kv: KnotVector, j_star: int):
        """Canonical representation, fitted values and SSE of the cone
        least squares fit at fixed knots and pivot.  The constrained block
        F holds the sign-flipped left hinges, then the right hinges; the
        free block is eliminated by projection and its coefficients are
        recovered afterwards by back substitution."""
        y, d = self.y, self.d
        sign = (-1.0) ** (d + 1)
        F = np.column_stack(
            [sign * self.grid.left(t) for t in kv.knots[1:j_star + 1]]
            + [self.grid.right(t) for t in kv.knots[j_star:kv.k]])
        g = nnls_activeset(self.project(F), self.y_perp)
        c = (np.linalg.solve(self.R, self.Q.T @ (y - F @ g)) if d
             else np.zeros(0))
        a = tuple(sign * v for v in g[:j_star])
        b = tuple(g[j_star:])
        rep = MonotoneCanonical(j_star, a, b, tuple(c), kv)
        theta = _evaluate(rep, self.grid)
        resid = y - theta
        return rep, theta, float(resid @ resid)


def _shape_result(rep: MonotoneCanonical, theta: np.ndarray,
                  sse: float) -> ShapeFitResult:
    return ShapeFitResult(
        theta_hat=SignalVector(theta), knots=rep.knots,
        coeffs=_local_coeffs_from_canonical(rep),
        sse=sse, k_selected=rep.knots.k, canonical=rep)


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
    """Least squares over the canonical cone at fixed knots and pivot.
    Refuses NaN and inf in y."""
    y = _finite(y, "y")
    n = y.size
    _check_degree(d)
    kv = (knots if isinstance(knots, KnotVector)
          else validate_knots(knots, d, n))
    if kv.n != n:
        raise ValidationError(
            f"knots end at {kv.n}, y has length {n}")
    if not (0 <= j_star <= kv.k):
        raise ValidationError(
            f"pivot must lie in [0;{kv.k}], got {j_star}")
    return _shape_result(*_ConeProblem(y, d).fit(kv, j_star))


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


def shape_lse(y, d: int, k: int,
              budget: int = DEFAULT_BUDGET) -> ShapeFitResult:
    """Exact least squares over the d-monotone class with <= k pieces,
    for d <= _SHAPE_MAX_DEGREE.

    Enumerates knot vectors and pivots; ties go to the lexicographically
    smallest knot vector, then the smallest pivot.  For d = 0 with k >= n
    the problem is plain isotonic regression and is solved by pooling.

    Otherwise the search runs over knot sets.  A sign-flipped left hinge
    at t is the right hinge at t less a polynomial of degree d, so the
    union of the k + 1 pivot cones at a knot vector is one cone: a free
    polynomial of degree <= d plus nonnegative right hinges at the
    vector's distinct inner knots (Meyer 2008).  Its least squares cost
    is the least pivot cost, and the set's unconstrained (d, d - 1)
    spline cost, its _KnotScreen score, bounds it from below.  The sets'
    cones are screened (_nnls_screen) in increasing score,
    _PAIR_CHUNK // (k + 1) sets per chunk, until a chunk's least score
    exceeds the least cone cost so far (the incumbent) by more than
    tol = _SCREEN_TOL * ||y||^2.  Each set whose cone screens within tol
    of the incumbent expands into every knot vector that realizes it
    times every pivot; those pairs are screened, and _rescore refits the
    ones scored near the best.

    The pruning is exact.  With eps the screens' rounding (about
    1e-12 ||y||^2 at d <= 3), the winning pair costs the least cone cost
    up to eps, and its set's cone costs no more, so the set scores below
    incumbent + tol, is screened within tol of the incumbent and is
    expanded.  Results are bit-identical to fitting every pair; the
    budget counts every pair.  Refuses NaN and inf in y.
    """
    y = _finite(y, "y")
    n = y.size
    _check_degree(d)
    _check_envelope(d)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n < d + 1:
        raise ValidationError(
            f"need n >= d+1 = {d + 1} points for a degree-{d} fit, got {n}")
    if d == 0 and k >= n:
        theta = _isotonic_blocks(y)
        resid = y - theta
        return _shape_result(_canonical_from_nondecreasing(theta, k), theta,
                             float(resid @ resid))

    _check_budget(count_knot_vectors(n, k, d) * (k + 1), budget,
                  "configuration/pivot pairs")
    # y, the hinges and their dual tolerances do not depend on the pair
    cone = _ConeProblem(y, d)
    F, y_perp = cone.hinges(), cone.y_perp
    H, y_set = cone.set_cone(F)
    screen = _KnotScreen(y, d, d - 1, k)
    sets = screen.inner_knots()
    tol = _SCREEN_TOL * float(y @ y)
    set_tol = _dual_tols(H, y_set)
    order = np.argsort(screen.score, kind="stable")
    step = max(1, _PAIR_CHUNK // (k + 1))
    cost = np.full(order.size, np.inf)
    incumbent = np.inf
    for s in range(0, order.size, step):
        chunk = order[s:s + step]
        if screen.score[chunk[0]] > incumbent + tol:
            break
        cost[chunk] = _nnls_screen(H, y_set, sets[chunk], set_tol)
        incumbent = min(incumbent, float(cost[chunk].min()))

    # every pair of the sets near the incumbent, keyed in scan order
    vectors = sorted(v for j in np.flatnonzero(cost <= incumbent + tol)
                     for v in _realizations(sets[j], n, k))
    knots = np.array(vectors, dtype=np.intp)
    dual_tol = _dual_tols(F, y_perp)
    score = np.concatenate([
        _nnls_screen(F, y_perp, _pair_columns(knots[s:s + step], n),
                     dual_tol) for s in range(0, len(vectors), step)])
    fits = {}

    def sse(p):
        v, j_star = divmod(p, k + 1)
        fits[p] = cone.fit(KnotVector(vectors[v], d), j_star)
        return fits[p][2]

    _, best = _rescore(score, tol, sse, lambda p: p)
    return _shape_result(*fits[best])


def _check_envelope(d: int) -> None:
    if d > _SHAPE_MAX_DEGREE:
        raise ValidationError(
            f"shape_lse supports d <= {_SHAPE_MAX_DEGREE}, got d = {d}")


def _realizations(inner: np.ndarray, n: int, k: int):
    """Every knot vector with k pieces whose distinct knots are 0, the
    inner knots below n, and n: each knot repeated once or more."""
    distinct = (0, *(int(t) for t in inner if t < n), n)
    for cuts in combinations(range(1, k + 1), len(distinct) - 1):
        bounds = (0, *cuts, k + 1)
        yield tuple(t for t, lo, hi in zip(distinct, bounds, bounds[1:])
                    for _ in range(hi - lo))


def _pair_columns(knots: np.ndarray, n: int) -> np.ndarray:
    """Columns of every (knots, pivot) pair in the hinge block
    [left hinges at 0..n | right hinges at 0..n], one row per pair,
    knot vectors in the given order, pivots 0..k within each."""
    v, k = knots.shape[0], knots.shape[1] - 1
    idx = np.empty((v, k + 1, k), dtype=np.intp)
    for j_star in range(k + 1):
        idx[:, j_star, :j_star] = knots[:, 1:j_star + 1]
        idx[:, j_star, j_star:] = n + 1 + knots[:, j_star:k]
    return idx.reshape(-1, k)


def coef_bound_statistic(theta_star, d: int, k: int, knots=None,
                         tol: float = 1e-6) -> float:
    """sqrt(n) times the largest free polynomial coefficient magnitude in
    the canonical form of the unit-normalized input, recovered by refit.

    The input must already be a class member; a refit that cannot
    reproduce it to within tol (relative, in sup norm) is an error.
    When the member's knots are known they can be passed to skip the
    knot scan; the refit then only searches over pivots, which matches
    the scan result whenever every hinge weight at those knots is active.
    Refuses NaN and inf entries.
    """
    theta = _finite(theta_star, "theta_star")
    n = theta.size
    nrm = float(np.linalg.norm(theta))
    if nrm == 0:
        return 0.0
    unit = theta / nrm
    fits = ([shape_lse(unit, d, k)] if knots is None
            else (fit_shape_given_knots(unit, d, knots, j_star)
                  for j_star in range(0, k + 1)))
    fit = next((f for f in fits
                if np.max(np.abs(f.theta_hat.values - unit)) <= tol), None)
    if fit is None:
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
    _check_degree(d)
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
