"""Independent reference implementations used to cross-check the package.

Everything in this module is written directly from the mathematical
definitions using dense linear algebra, brute-force enumeration, or exact
rational arithmetic.  Nothing here imports fitting code from ``l0spline``,
so agreement between the two routes is meaningful evidence of correctness.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import lsq_linear


# ---------------------------------------------------------------------------
# knot enumeration and dense piecewise-polynomial least squares
# ---------------------------------------------------------------------------

def iter_knot_vectors(n, k, d):
    """Yield every valid knot vector (0 = n_0 <= ... <= n_k = n) in
    lexicographic order.  Consecutive knots must be equal or >= d+1 apart."""
    def rec(prefix, pieces_left):
        last = prefix[-1]
        if pieces_left == 0:
            if last == n:
                yield tuple(prefix)
            return
        # remaining pieces must be able to reach n
        for nxt in [last] + list(range(last + d + 1, n + 1)):
            if nxt > n:
                continue
            # feasibility: with pieces_left-1 more pieces we must land on n
            rem = n - nxt
            if rem != 0 and (pieces_left - 1) == 0:
                continue
            if rem != 0 and rem < d + 1:
                continue
            yield from rec(prefix + [nxt], pieces_left - 1)

    yield from rec([0], k)


def truncated_power_design(n, d, d0, knots):
    """Dense design matrix with columns (i/n)^l for l in [0;d] followed by
    ((i - n_j)/n)_+^l for each inner knot j and l in [d0+1;d]."""
    i = np.arange(1, n + 1, dtype=float)
    cols = [(i / n) ** ell for ell in range(d + 1)]
    for j in range(1, len(knots) - 1):
        for ell in range(d0 + 1, d + 1):
            u = (i - knots[j]) / n
            if ell == 0:
                cols.append((u > 0).astype(float))
            else:
                cols.append(np.where(u > 0, u, 0.0) ** ell)
    return np.column_stack(cols)


def ls_fit(X, y):
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return coef, float(resid @ resid)


def brute_force_best_fit(y, d, d0, k):
    """Scan every knot vector with a dense least squares solve.  Returns
    (best_sse, best_knots) with ties broken by enumeration (lex) order."""
    n = len(y)
    y = np.asarray(y, dtype=float)
    best = (np.inf, None)
    for knots in iter_knot_vectors(n, k, d):
        X = truncated_power_design(n, d, d0, knots)
        _, sse = ls_fit(X, y)
        if sse < best[0] - 1e-12:
            best = (sse, knots)
    return best


def segment_poly_fit(y, t, s, d, n):
    """Dense Vandermonde least squares on points t+1..s with basis
    ((i-t)/n)^l, l in [0;d].  Returns (sse, coeffs)."""
    y = np.asarray(y, dtype=float)
    i = np.arange(t + 1, s + 1, dtype=float)
    X = np.column_stack([((i - t) / n) ** ell for ell in range(d + 1)])
    coef, sse = ls_fit(X, y[t:s])
    return sse, coef


# ---------------------------------------------------------------------------
# isotonic regression (pool adjacent violators)
# ---------------------------------------------------------------------------

def pava(y):
    """Classic PAVA for nondecreasing least squares, exact block means."""
    y = np.asarray(y, dtype=float)
    vals = []
    wts = []
    for v in y:
        vals.append(v)
        wts.append(1.0)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, w2 = vals.pop(), wts.pop()
            v1, w1 = vals.pop(), wts.pop()
            vals.append((v1 * w1 + v2 * w2) / (w1 + w2))
            wts.append(w1 + w2)
    out = []
    for v, w in zip(vals, wts):
        out.extend([v] * int(w))
    return np.array(out)


# ---------------------------------------------------------------------------
# multiscale statistic, naive double loop
# ---------------------------------------------------------------------------

def lil_naive(eps, d):
    """Direct double-loop evaluation of the sup statistic
    max over 1 <= n1 < n2 <= n of
    |sum_{i in (n1;n2]} (i-n1)^d eps_i| / ((n2-n1)^d sqrt(min(n2, n-n1)))."""
    eps = np.asarray(eps, dtype=float)
    n = len(eps)
    best = 0.0
    for n1 in range(1, n):
        acc = 0.0
        for n2 in range(n1 + 1, n + 1):
            acc += (n2 - n1) ** d * eps[n2 - 1]
            denom = (n2 - n1) ** d * min(n2, n - n1) ** 0.5
            best = max(best, abs(acc) / denom)
    return best


def lil_scan(eps, d):
    """The full O(n^2) row scan that ``lil_statistic`` prunes, kept
    verbatim: one cumulative sum per left endpoint over a shared power
    table.  The pruned statistic must return this float bit for bit."""
    eps = np.asarray(eps, dtype=float)
    n = eps.size
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


# ---------------------------------------------------------------------------
# shape-constrained fitting via scipy's bounded least squares
# ---------------------------------------------------------------------------

def shape_design(n, d, knots, j_star):
    """Design matrix for the canonical monotone parametrization.

    Column order: polynomial block x^l/l! for l in [0;d-1], then the
    left-hinge block ((n_j - i)/n)_+^d for j in [1;j_star] (sign-flipped so
    the constrained coefficient is >= 0 for every d), then the right-hinge
    block ((i - n_j)/n)_+^d for j in [j_star;k-1].  For d = 0 the left
    hinges use the closed indicator 1{i <= n_j} and the right hinges the
    open indicator 1{i > n_j}."""
    import math

    i = np.arange(1, n + 1, dtype=float)
    cols = []
    for ell in range(d):
        cols.append((i / n) ** ell / math.factorial(ell))
    sign = (-1.0) ** (d + 1)
    for j in range(1, j_star + 1):
        u = (knots[j] - i) / n
        if d == 0:
            col = (u >= 0).astype(float)
        else:
            col = np.where(u > 0, u, 0.0) ** d
        cols.append(sign * col)
    k = len(knots) - 1
    for j in range(j_star, k):
        u = (i - knots[j]) / n
        if d == 0:
            col = (u > 0).astype(float)
        else:
            col = np.where(u > 0, u, 0.0) ** d
        cols.append(col)
    n_free = d
    X = np.column_stack(cols) if cols else np.zeros((n, 0))
    return X, n_free


def shape_fit_bvls(y, d, knots, j_star):
    """Sign-constrained least squares solved with scipy's bounded solver.
    Free polynomial coefficients, nonnegative hinge coefficients."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    X, n_free = shape_design(n, d, knots, j_star)
    if X.shape[1] == 0:
        return np.zeros(n), float(np.sum(y ** 2))
    lb = np.concatenate([np.full(n_free, -np.inf),
                         np.zeros(X.shape[1] - n_free)])
    ub = np.full(X.shape[1], np.inf)
    res = lsq_linear(X, y, bounds=(lb, ub), method="bvls", tol=1e-14)
    fitted = X @ res.x
    return fitted, float(np.sum((y - fitted) ** 2))


def brute_force_shape_lse(y, d, k):
    """Scan knot vectors and pivots, solving each cone with bvls."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    best_sse = np.inf
    best_fit = None
    for knots in iter_knot_vectors(n, k, d):
        for j_star in range(0, k + 1):
            fitted, sse = shape_fit_bvls(y, d, knots, j_star)
            if sse < best_sse - 1e-10:
                best_sse = sse
                best_fit = fitted
    return best_sse, best_fit


# ---------------------------------------------------------------------------
# exact rational helpers
# ---------------------------------------------------------------------------

def rational_nullspace_sympy(rows):
    """Exact nullspace basis via sympy, returned as lists of Fractions."""
    import sympy

    M = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    basis = M.nullspace()
    out = []
    for v in basis:
        out.append([Fraction(int(e.p), int(e.q)) for e in v])
    return out


def moment_matrix_fraction(m, d):
    """Exact rational moment matrix, entry (i,j) = m^{-(i+j-1)} * sum_{k<=m}
    k^{i+j-2} with 1-based i,j."""
    A = [[Fraction(0)] * (d + 1) for _ in range(d + 1)]
    power_sums = {}
    for p in range(0, 2 * d + 1):
        power_sums[p] = sum(kk ** p for kk in range(1, m + 1))
    for i in range(1, d + 2):
        for j in range(1, d + 2):
            A[i - 1][j - 1] = Fraction(power_sums[i + j - 2], m ** (i + j - 1))
    return A


def fraction_cholesky_is_pd(A, shift=Fraction(0)):
    """Exact test that A - shift*I is positive definite, via rational
    LDL^T: all pivots must be > 0.  A is a list of lists of Fractions."""
    n = len(A)
    M = [[A[i][j] - (shift if i == j else 0) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        if M[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            for j in range(k, n):
                M[i][j] -= f * M[k][j]
    return True


def beta_weights_fraction(d, d0, knots, n, s_max=None):
    """Exact rational evaluation of the boundary weight recursion.

    Returns dict (s, j) -> Fraction for the base sequence and
    dict (s, i, j) -> Fraction for the scaled table entries
    D(i,j) * beta^s_j, with D(i,j) = rising(i,j)/falling(d+1-i,j)."""
    g = d - d0
    if s_max is None:
        s_max = (d0 + 1) // g
    k0 = (d + 1) // g + 1

    def nij(a, b):
        return Fraction(knots[a] - knots[b], n)

    def binom_f(x, m):
        # generalized binomial with integer x >= 0 here
        num = Fraction(1)
        for t in range(m):
            num *= Fraction(x - t, t + 1)
        return num

    base = {(0, 0): Fraction(1)}
    for s in range(1, s_max + 1):
        base[(s, 0)] = Fraction(1)
        for j in range(1, s * g + 1):
            acc = Fraction(0)
            for ell in range(0, j + 1):
                prev = base.get((s - 1, ell), Fraction(0))
                if prev == 0:
                    continue
                acc += binom_f(s * g - ell, j - ell) * \
                    nij(k0 - s, k0 - 1 - s) ** (j - ell) * prev
            base[(s, j)] = acc

    def rising(x, m):
        out = Fraction(1)
        for t in range(m):
            out *= (x + t)
        return out

    def falling(x, m):
        out = Fraction(1)
        for t in range(m):
            out *= (x - t)
        return out

    table = {}
    for s in range(0, s_max + 1):
        for i in range(1, d + 2 - s * g):
            for j in range(0, s * g + 1):
                if j == 0:
                    D = Fraction(1)
                else:
                    D = Fraction(rising(i, j), falling(d + 1 - i, j))
                table[(s, i, j)] = D * base[(s, j)]
    return base, table


# ---------------------------------------------------------------------------
# complexity width by direct projection
# ---------------------------------------------------------------------------

def width_brute(eps, d, d0, k):
    """sup over unit-norm members of the class of (eps . theta)^2, computed
    as the max over knot vectors of the squared norm of the projection of
    eps onto the span of that configuration."""
    eps = np.asarray(eps, dtype=float)
    n = len(eps)
    best = 0.0
    for knots in iter_knot_vectors(n, k, d):
        X = truncated_power_design(n, d, d0, knots)
        coef, _, _, _ = np.linalg.lstsq(X, eps, rcond=None)
        proj = X @ coef
        best = max(best, float(proj @ proj))
    return best


def lil_rows(eps, d):
    """Each row's maximum in ``lil_scan``, by the same arithmetic."""
    eps = np.asarray(eps, dtype=float)
    n = eps.size
    sqrt_table = np.sqrt(np.arange(n + 1, dtype=float))
    pow_table = np.arange(n + 1, dtype=float) ** d
    rows = []
    for n1 in range(1, n):
        length = n - n1
        num = np.cumsum(pow_table[1:length + 1] * eps[n1:])
        lens = np.arange(1, length + 1)
        den = pow_table[lens] * sqrt_table[np.minimum(n1 + lens, length)]
        rows.append(float(np.max(np.abs(num) / den)))
    return np.array(rows)


def width_k3_rows(eps):
    """Each row's value in ``width_const_k3_scan``, by the same
    arithmetic."""
    n = eps.size
    s = np.concatenate([[0.0], np.cumsum(eps)])
    tail = np.zeros(n + 1)
    m2 = np.arange(1, n)
    tail[1:n] = (s[n] - s[1:n]) ** 2 / (n - m2)
    rows = []
    for m1 in range(0, n - 1):
        head = s[m1] ** 2 / m1 if m1 else 0.0
        lens = np.arange(1, n - m1 + 1)
        mid = (s[m1 + 1:] - s[m1]) ** 2 / lens
        rows.append(head + float(np.max(mid + tail[m1 + 1:])))
    return np.array(rows)


def width_const_k2_scan(eps):
    """Prefix-sum width of the d=0, d0=-1, k=2 class, as in the package."""
    n = eps.size
    s = np.concatenate([[0.0], np.cumsum(eps)])
    best = s[n] ** 2 / n
    if n > 1:
        m = np.arange(1, n)
        vals = s[1:n] ** 2 / m + (s[n] - s[1:n]) ** 2 / (n - m)
        best = max(best, float(np.max(vals)))
    return float(best)


def width_const_k3_scan(eps):
    """The full O(n^2) row scan of the d=0, d0=-1, k=3 width that
    ``complexity_width`` prunes, kept verbatim; the pruned width must
    return this float bit for bit."""
    n = eps.size
    s = np.concatenate([[0.0], np.cumsum(eps)])
    best = width_const_k2_scan(eps)
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


def shape_fit_projgrad(y, d, knots, j_star, tol=1e-12, max_iter=500_000):
    """Accelerated projected gradient on the canonical cone.

    Free polynomial coefficients are unconstrained, hinge coefficients are
    clamped at zero.  Runs until the KKT residual certifies a ~1e-10
    objective gap.  Returns (fitted, sse)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    X, n_free = shape_design(n, d, knots, j_star)
    m = X.shape[1]
    if m == 0:
        return np.zeros(n), float(np.sum(y ** 2))
    L = np.linalg.eigvalsh(X.T @ X)[-1]
    if L <= 0:
        return np.zeros(n), float(np.sum(y ** 2))
    step = 1.0 / L

    def project(v):
        w = v.copy()
        w[n_free:] = np.maximum(w[n_free:], 0.0)
        return w

    x = project(np.linalg.lstsq(X, y, rcond=None)[0])
    z = x.copy()
    t = 1.0
    f_prev = np.inf
    for _ in range(max_iter):
        g = X.T @ (X @ z - y)
        x_new = project(z - step * g)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        f_new = 0.5 * np.sum((X @ x_new - y) ** 2)
        if f_new > f_prev:
            # restart the momentum when the objective increases
            z = x_new.copy()
            t_new = 1.0
        x, t, f_prev = x_new, t_new, f_new
        gx = X.T @ (X @ x - y)
        kkt_free = np.max(np.abs(gx[:n_free])) if n_free else 0.0
        gm = gx[n_free:]
        xm = x[n_free:]
        kkt_cone = max(float(np.max(-np.minimum(gm, 0.0), initial=0.0)),
                       float(np.max(np.abs(gm * xm), initial=0.0)))
        if max(kkt_free, kkt_cone) < tol:
            break
    fitted = X @ x
    return fitted, float(np.sum((y - fitted) ** 2))


# ---------------------------------------------------------------------------
# the DP forward pass, one start at a time
# ---------------------------------------------------------------------------

class _ScanSweeper:
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


def dp_table_scan(y, d, k_max):
    """The segment-neighbourhood table (C, nxt) costed one start at a time:
    the reference the blocked forward pass must match bit for bit.  y is
    detrended by the same global degree-d fit first."""
    y = np.asarray(y, dtype=float)
    n = y.size
    i = np.arange(1, n + 1, dtype=float)
    X = np.column_stack([(i / n) ** ell for ell in range(d + 1)])
    Q, _ = np.linalg.qr(X)
    sweeper = _ScanSweeper(y - Q @ (Q.T @ y), d)
    C = np.full((k_max + 1, n + 1), np.inf)
    C[:, n] = 0.0
    nxt = np.full((k_max + 1, n + 1), n)
    rows = np.arange(k_max)
    for t in range(n - d - 1, -1, -1):
        starts = t + d + 1
        cand = C[:k_max, starts:] + sweeper.sweep(t)
        hit = cand.argmin(axis=1)
        C[1:, t] = np.minimum.accumulate(cand[rows, hit])
        nxt[1:, t] = hit + starts
    return C, nxt


def dp_backtrack(table, k):
    """Lexicographically smallest optimal knot vector read off (C, nxt)."""
    C, nxt = table
    knots = [0]
    t = 0
    for r in range(k, 0, -1):
        if C[r - 1, t] != C[r, t]:
            t = int(nxt[r, t])
        knots.append(t)
    return tuple(knots)
