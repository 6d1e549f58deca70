"""Piecewise polynomial sequence classes on an integer design grid.

A model class is parametrized by polynomial degree ``d``, smoothness order
``d0`` (number of matched derivatives at interior knots, with -1 meaning no
continuity at all), the number of pieces ``k``, and the grid size ``n``.
Knots are integers 0 = n_0 <= n_1 <= ... <= n_k = n; consecutive knots are
either equal (an empty piece) or at least d+1 apart, so that every nonempty
piece contains at least d+1 design points.  Design point i belongs to piece
p exactly when n_p < i <= n_{p+1}; sequences arise by sampling the spline
at x = i/n for i in 1..n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    KnotEndpointError,
    KnotGapError,
    KnotOrderError,
    ValidationError,
)

__all__ = [
    "ModelParams",
    "KnotVector",
    "PiecewiseSpline",
    "SignalVector",
    "transition_boundary",
    "validate_knots",
    "count_knot_vectors",
    "iter_knot_vectors",
    "basis_matrix",
    "raw_basis",
    "evaluate_spline",
    "evaluate_at",
    "transition_coefficients",
    "transition_matrix",
    "local_coefficients_from_truncated_power",
    "check_membership",
    "discrete_vs_integral_l2",
]


def transition_boundary(d: int, d0: int) -> int:
    """Critical number of pieces separating the iterated-logarithm regime
    from the k*log(en/k) regime: floor((d+1)/(d-d0)) + 1."""
    if d < 0 or d0 < -1 or d0 > d - 1:
        raise ValidationError(
            f"need d >= 0 and -1 <= d0 <= d-1, got d={d}, d0={d0}")
    return (d + 1) // (d - d0) + 1


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one piecewise polynomial class."""

    d: int
    d0: int
    k: int
    n: int
    sigma: float = 1.0

    def __post_init__(self):
        if self.d < 0:
            raise ValidationError(f"degree d must be >= 0, got {self.d}")
        if not (-1 <= self.d0 <= self.d - 1):
            raise ValidationError(
                f"smoothness d0 must lie in [-1, d-1], got d0={self.d0} "
                f"with d={self.d}")
        if self.k < 1:
            raise ValidationError(f"piece count k must be >= 1, got {self.k}")
        if self.n < self.d + 1:
            raise ValidationError(
                f"grid size n must be >= d+1 = {self.d + 1}, got {self.n}")
        if not self.sigma >= 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def k0(self) -> int:
        """Transition boundary, recomputed from (d, d0)."""
        return transition_boundary(self.d, self.d0)


@dataclass(frozen=True)
class KnotVector:
    """Validated integer knot vector together with the degree it serves."""

    knots: tuple
    d: int

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(int(t) for t in self.knots))

    @property
    def k(self) -> int:
        return len(self.knots) - 1

    @property
    def n(self) -> int:
        return self.knots[-1]

    def distinct(self) -> tuple:
        """Knots with duplicates removed; boundaries of nonempty pieces."""
        out = [self.knots[0]]
        for t in self.knots[1:]:
            if t != out[-1]:
                out.append(t)
        return tuple(out)

    def nonempty_pieces(self):
        """Indices p with knots[p] < knots[p+1]."""
        return [p for p in range(self.k)
                if self.knots[p] < self.knots[p + 1]]


def validate_knots(knots, d: int, n: int) -> KnotVector:
    """Check a candidate knot vector against the grid convention.

    Raises KnotEndpointError, KnotOrderError, or KnotGapError so callers
    can tell which rule failed.
    """
    knots = [int(t) for t in knots]
    if len(knots) < 2:
        raise KnotEndpointError(
            f"need at least 2 knots, got {len(knots)}")
    if knots[0] != 0 or knots[-1] != n:
        raise KnotEndpointError(
            f"knots must start at 0 and end at n={n}, got "
            f"{knots[0]}..{knots[-1]}")
    for a, b in zip(knots, knots[1:]):
        if b < a:
            raise KnotOrderError(
                f"knots must be non-decreasing, got {a} followed by {b}")
    for a, b in zip(knots, knots[1:]):
        if b != a and b - a < d + 1:
            raise KnotGapError(
                f"consecutive knots must be equal or >= d+1 = {d + 1} "
                f"apart, got gap {b - a} between {a} and {b}")
    return KnotVector(tuple(knots), d)


@dataclass(frozen=True)
class PiecewiseSpline:
    """Piecewise polynomial in local shifted-monomial form.

    ``coeffs[p]`` holds (a_1, ..., a_{d+1}) for nonempty piece p, meaning
    the polynomial sum_l a_l ((x - knots[p]/n))^{l-1} on the half-open cell
    (knots[p]/n, knots[p+1]/n].  Empty pieces carry None.
    """

    knots: KnotVector
    coeffs: tuple

    def __post_init__(self):
        kv = self.knots
        if len(self.coeffs) != kv.k:
            raise ValidationError(
                f"need one coefficient slot per piece ({kv.k}), got "
                f"{len(self.coeffs)}")
        fixed = []
        for p in range(kv.k):
            empty = kv.knots[p] == kv.knots[p + 1]
            c = self.coeffs[p]
            if empty:
                if c is not None:
                    raise ValidationError(
                        f"piece {p} is empty but carries coefficients")
                fixed.append(None)
            else:
                c = tuple(float(v) for v in c)
                if len(c) != kv.d + 1:
                    raise ValidationError(
                        f"piece {p} needs {kv.d + 1} coefficients, got "
                        f"{len(c)}")
                fixed.append(c)
        object.__setattr__(self, "coeffs", tuple(fixed))

    @property
    def d(self) -> int:
        return self.knots.d


@dataclass(frozen=True)
class SignalVector:
    """A length-n sequence of finite values."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)   # frozen, unlike the caller's
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("signal must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("signal contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


# ---------------------------------------------------------------------------
# knot vector enumeration
# ---------------------------------------------------------------------------

def count_knot_vectors(n: int, k: int, d: int) -> int:
    """Exact number of valid knot vectors for the class (d, ., k) on grid n."""
    # ways[pos]: completions from a knot at pos with the pieces placed so
    # far; the next knot repeats pos or is any later s that is n or leaves
    # n - s >= d + 1, and tail sums ways over those s
    ways = [0] * n + [1]
    for _ in range(k):
        nxt = [0] * n + [1]
        tail = 0
        for pos in range(n - 1, -1, -1):
            s = pos + d + 1
            if s == n or s <= n - d - 1:
                tail += ways[s]
            nxt[pos] = ways[pos] + tail
        ways = nxt
    return ways[0]


def iter_knot_vectors(n: int, k: int, d: int):
    """Yield all valid knot vectors in lexicographic order."""

    def rec(prefix):
        last = prefix[-1]
        left = k - (len(prefix) - 1)
        if left == 0:
            if last == n:
                yield tuple(prefix)
            return
        if left == 1:
            # the last knot is n: a repeat, or a piece of >= d + 1 points
            if last == n or n - last >= d + 1:
                yield tuple(prefix) + (n,)
            return
        candidates = [last] + [s for s in range(last + d + 1, n + 1)]
        for s in candidates:
            rem = n - s
            if rem > 0 and rem < d + 1:
                continue
            if rem > 0 and left == 1:
                continue
            prefix.append(s)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([0])


# ---------------------------------------------------------------------------
# design matrices and evaluation
# ---------------------------------------------------------------------------

def basis_matrix(params: ModelParams, knots) -> np.ndarray:
    """Truncated power design matrix on the grid i = 1..n.

    Columns: (i/n)^l for l in [0;d], then ((i - n_j)/n)_+^l for each inner
    knot j in [1;k-1] and l in [d0+1;d].  The column count is always
    (d+1) + (k-1)(d-d0); duplicated inner knots contribute duplicated
    columns, so the matrix has full column rank only when all pieces are
    nonempty.
    """
    kv = (knots if isinstance(knots, KnotVector)
          else validate_knots(knots, params.d, params.n))
    if kv.k != params.k:
        raise ValidationError(
            f"knot vector has {kv.k} pieces, params expect {params.k}")
    return raw_basis(params.n, params.d, params.d0, kv.knots)


def raw_basis(n: int, d: int, d0: int, knots) -> np.ndarray:
    """basis_matrix without the parameter cross-checks; knots is any valid
    integer tuple."""
    i = np.arange(1, n + 1, dtype=float)
    poly = np.column_stack([(i / n) ** ell for ell in range(d + 1)])
    inner = _knot_columns(n, d, d0, tuple(knots)[1:-1])
    return np.hstack([poly, inner.reshape(n, -1)])


def evaluate_spline(spline: PiecewiseSpline, n: int | None = None) -> np.ndarray:
    """Sample the spline at design points x = i/n, i = 1..n."""
    kv = spline.knots
    if n is None:
        n = kv.n
    if kv.n != n:
        raise ValidationError(
            f"spline is defined on grid {kv.n}, asked to evaluate on {n}")
    out = np.empty(n, dtype=float)
    for p in range(kv.k):
        lo, hi = kv.knots[p], kv.knots[p + 1]
        if lo == hi:
            continue
        idx = np.arange(lo + 1, hi + 1)
        u = (idx - lo) / n
        c = np.asarray(spline.coeffs[p])
        out[lo:hi] = np.polynomial.polynomial.polyval(u, c)
    return out


def evaluate_at(spline: PiecewiseSpline, x) -> np.ndarray:
    """Evaluate the spline as a function on (0, 1].

    Each point is assigned to the piece whose half-open cell contains it;
    x <= 0 evaluates the first nonempty piece's polynomial (left limit
    convention only matters at 0, where splines here are right-continuous).
    """
    kv = spline.knots
    n = kv.n
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    pieces = kv.nonempty_pieces()
    for m, p in enumerate(pieces):
        lo, hi = kv.knots[p] / n, kv.knots[p + 1] / n
        first, last = m == 0, m == len(pieces) - 1
        if first and last:
            mask = np.ones_like(x, dtype=bool)
        elif first:
            mask = x <= hi
        elif last:
            mask = x > lo
        else:
            mask = (x > lo) & (x <= hi)
        if not mask.any():
            continue
        c = np.asarray(spline.coeffs[p])
        out[mask] = np.polynomial.polynomial.polyval(x[mask] - lo, c)
    return out


def transition_coefficients(d: int, p: int, q: int, gap: float) -> float:
    """Dependence of a continuity-constrained local coefficient on the
    previous piece's coefficients.

    With d0 matched derivatives at the shared knot, the new piece's p-th
    coefficient is a^i_p = sum_q transition_coefficients(d, p, q, gap) *
    a^{i-1}_q for p in [1;d0+1], where gap is the scaled knot distance
    (n_i - n_{i-1})/n.  The value is binom(q-1, p-1) * gap^{q-p} for
    q >= p and 0 otherwise; a plain Taylor shift of the previous
    polynomial, truncated to the matched derivatives.
    """
    if not (1 <= p <= d + 1 and 1 <= q <= d + 1):
        raise ValidationError(
            f"coefficient indices must lie in [1;{d + 1}], got p={p}, q={q}")
    if q < p:
        return 0.0
    return float(math.comb(q - 1, p - 1)) * gap ** (q - p)


def transition_matrix(d: int, d0: int, gap: float) -> np.ndarray:
    """Stacked transition_coefficients: (d0+1) x (d+1) matrix sending the
    previous piece's local coefficients to the constrained block of the
    next piece's."""
    if d0 < 0:
        return np.zeros((0, d + 1))
    M = np.zeros((d0 + 1, d + 1))
    for p in range(1, d0 + 2):
        for q in range(p, d + 2):
            M[p - 1, q - 1] = transition_coefficients(d, p, q, gap)
    return M


def _shift_poly(coefs: np.ndarray, delta: float) -> np.ndarray:
    """Rewrite sum_l c_l u^l in powers of v where u = v + delta."""
    dd = len(coefs) - 1
    out = np.zeros_like(np.asarray(coefs, dtype=float))
    for m in range(dd + 1):
        acc = 0.0
        for ell in range(m, dd + 1):
            acc += math.comb(ell, m) * (delta ** (ell - m)) * coefs[ell]
        out[m] = acc
    return out


def local_coefficients_from_truncated_power(
        knots: KnotVector, d0: int, global_coefs) -> PiecewiseSpline:
    """Convert truncated power coefficients (as produced against
    basis_matrix's column order) into local per-piece storage."""
    kv = knots
    d = kv.d
    n = kv.n
    g = np.asarray(global_coefs, dtype=float)
    n_poly = d + 1
    per_knot = d - d0
    expected = n_poly + (kv.k - 1) * per_knot
    if g.size != expected:
        raise ValidationError(
            f"expected {expected} coefficients, got {g.size}")
    coeffs = []
    for p in range(kv.k):
        lo, hi = kv.knots[p], kv.knots[p + 1]
        if lo == hi:
            coeffs.append(None)
            continue
        tau = lo / n
        local = _shift_poly(g[:n_poly], tau)
        for j in range(1, kv.k):
            if kv.knots[j] > lo:
                continue
            block = np.zeros(d + 1)
            seg = g[n_poly + (j - 1) * per_knot: n_poly + j * per_knot]
            block[d0 + 1: d + 1] = seg
            delta = (lo - kv.knots[j]) / n
            local = local + _shift_poly(block, delta)
        coeffs.append(tuple(local))
    return PiecewiseSpline(kv, tuple(coeffs))


# ---------------------------------------------------------------------------
# membership and norms
# ---------------------------------------------------------------------------

# default enumeration budgets of the fits, and of widths and membership
DEFAULT_BUDGET = 10_000_000
DEFAULT_WIDTH_BUDGET = 200_000


def _check_budget(total: int, budget: int,
                  what: str = "knot configurations") -> None:
    """Refuse an enumeration of total items that exceeds the budget."""
    if total > budget:
        raise BudgetExceededError(
            f"{total} {what} exceed the budget of {budget}")


def check_membership(theta, params: ModelParams, tol: float = 1e-8,
                     budget: int = DEFAULT_WIDTH_BUDGET):
    """Decide whether a sequence lies in the class, up to sup-norm tol.

    Screens every distinct knot set, solves the least squares problem for
    each set whose screened cost admits a hit, and accepts on the first
    configuration in lexicographic order reproducing theta to within tol
    in every coordinate.  Returns (True, witness spline) or
    (False, None).  Raises BudgetExceededError when the enumeration would
    visit more configurations than the budget allows.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size != params.n:
        raise ValidationError(
            f"theta has length {theta.size}, expected n={params.n}")
    n, d, d0, k = params.n, params.d, params.d0, params.k
    _check_budget(count_knot_vectors(n, k, d), budget)
    # a sup-norm hit has SSE <= n tol^2, so only sets screened below that
    # can reproduce theta; they are tried in the order of the knot scan
    screen = _KnotScreen(theta, d, d0, k)
    for knots in screen.within(n * tol ** 2 + screen.tol):
        kv = KnotVector(knots, d)
        X = raw_basis(n, d, d0, kv.distinct())
        coef, _, _, _ = np.linalg.lstsq(X, theta, rcond=None)
        fit = X @ coef
        if np.max(np.abs(fit - theta)) <= tol:
            full = _reexpand_coefs(kv, d0, coef)
            witness = local_coefficients_from_truncated_power(kv, d0, full)
            return True, witness
    return False, None


# Candidates screened within this fraction of ||y||^2 above the best
# rescored cost are rescored.  A screen and the caller's exact cost differ
# by rounding, of order eps * cond(design) * ||y||^2, far below it; an
# rcond cut can only raise the exact cost.
_SCREEN_TOL = 1e-9


def _rescore(score: np.ndarray, tol: float, cost, key) -> tuple:
    """(cost, index) of the candidate j minimizing (cost(j), key(j)).

    score[j] is a screened value of candidate j's exact cost(j), which
    never falls below it by more than tol.  So once the best-scored
    candidate is costed, only the candidates scored within tol of that
    cost can attain the minimum; each of them is costed exactly once.
    """
    first = int(np.argmin(score))
    best = (cost(first), key(first), first)
    for j in np.flatnonzero(score <= best[0] + tol).tolist():
        if j != first:
            best = min(best, (cost(j), key(j), j))
    return best[0], best[2]


# candidate last knots whose columns are built and projected at once, so
# no n x n block is ever allocated
_CHUNK = 64


def _knot_columns(n, d, d0, knots) -> np.ndarray:
    """Truncated power columns ((i - t)/n)_+^l, l in [d0+1;d], of every
    knot t, shaped (n, len(knots), d - d0)."""
    i = np.arange(1, n + 1, dtype=float)
    u = (i[:, None] - np.asarray(knots, dtype=float)) / n
    pos = u > 0
    u = np.where(pos, u, 0.0)
    return np.stack([pos.astype(float) if ell == 0 else u ** ell
                     for ell in range(d0 + 1, d + 1)], axis=2)


class _KnotScreen:
    """Screened least squares cost of every distinct inner-knot set.

    Each valid set of at most k-1 distinct inner knots is scored exactly
    once, one fixed prefix at a time: the prefix design is QR-factored
    once, y and the truncated power block of every candidate last knot are
    projected onto the complement of its span, and all last knots are
    scored in one vectorized pass, ||r||^2 - (b'r)^2 / ||b||^2 for a
    one-column block and through a batched QR otherwise.  The scores match
    the per-set least squares costs up to rounding only, so callers rescore
    the sets near the best with their own arithmetic (_rescore).  Set j is
    the prefix _prefixes[_owner[j]] followed by _last[j]; a _last of 0
    (never an inner knot) stands for the prefix alone.
    """

    def __init__(self, y: np.ndarray, d: int, d0: int, k: int):
        n = y.size
        self.n, self.k = n, k
        self.tol = _SCREEN_TOL * float(y @ y)
        poly = raw_basis(n, d, d0, (0, n))
        self._prefixes = []
        owner, last, score = [], [], []
        stack = [()]
        while stack:
            prefix = stack.pop()
            idx = len(self._prefixes)
            self._prefixes.append(prefix)
            cols = _knot_columns(n, d, d0, prefix).reshape(n, -1)
            Q, _ = np.linalg.qr(np.hstack([poly, cols]))
            r = y - Q @ (Q.T @ y)
            rr = float(r @ r)
            if not prefix:
                owner.append([idx])
                last.append([0])
                score.append([rr])
            if len(prefix) == k - 1:
                continue
            first = (prefix[-1] if prefix else 0) + d + 1
            cand = np.arange(first, n - d)
            for lo in range(0, cand.size, _CHUNK):
                ts = cand[lo:lo + _CHUNK]
                B = _knot_columns(n, d, d0, ts)
                B -= (Q @ (Q.T @ B.reshape(n, -1))).reshape(B.shape)
                if d - d0 == 1:
                    b = B[:, :, 0]
                    gain = (r @ b) ** 2 / np.einsum("ij,ij->j", b, b)
                else:
                    Qb, _ = np.linalg.qr(B.transpose(1, 0, 2))
                    gain = np.sum((r @ Qb) ** 2, axis=1)
                owner.append(np.full(ts.size, idx))
                last.append(ts)
                score.append(rr - gain)
            if len(prefix) + 2 < k:
                # only knots that leave room for one more extend further
                stack.extend(prefix + (int(t),) for t in cand[::-1]
                             if t + d + 1 < n - d)
        self._owner = np.concatenate(owner)
        self._last = np.concatenate(last)
        self.score = np.concatenate(score)

    def knots(self, j: int) -> tuple:
        """Set j as its lexicographically smallest knot vector, the one a
        lexicographic scan of all knot vectors meets first."""
        inner = self._prefixes[self._owner[j]]
        if self._last[j]:
            inner = inner + (int(self._last[j]),)
        return _pad_knots((0,) + inner + (self.n,), self.k)

    def within(self, bound: float) -> list:
        """Knot vectors of the sets screened at or below bound, in
        lexicographic order."""
        return sorted(self.knots(j)
                      for j in np.flatnonzero(self.score <= bound))


def _pad_knots(distinct, k):
    """Pad a distinct knot tuple back to k+1 entries with leading empties."""
    missing = k + 1 - len(distinct)
    return (distinct[0],) * missing + tuple(distinct)


def _reexpand_coefs(kv: KnotVector, d0, dedup_coef):
    """Spread truncated power coefficients fit on kv.distinct() over the
    full knot vector: each duplicated inner knot carries a zero block."""
    d = kv.d
    per_knot = d - d0
    g = list(dedup_coef[:d + 1])
    pos = d + 1
    for j in range(1, kv.k):
        if kv.knots[j] == kv.knots[j - 1]:
            g.extend([0.0] * per_knot)
        else:
            g.extend(dedup_coef[pos:pos + per_knot])
            pos += per_knot
    return np.asarray(g)


def discrete_vs_integral_l2(spline: PiecewiseSpline):
    """Squared norm of the sampled sequence next to n times the exact
    squared L2 norm of the underlying function.

    For classes on this grid the two agree up to constants depending only
    on the degree; the calibrated ratio is stored with the package's
    calibration artifacts.
    """
    kv = spline.knots
    n = kv.n
    vals = evaluate_spline(spline)
    discrete = float(vals @ vals)
    integral = 0.0
    for p in kv.nonempty_pieces():
        c = np.asarray(spline.coeffs[p])
        sq = np.convolve(c, c)
        width = (kv.knots[p + 1] - kv.knots[p]) / n
        powers = np.arange(1, sq.size + 1, dtype=float)
        integral += float(np.sum(sq * width ** powers / powers))
    return discrete, n * integral
