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
import threading
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


def _finite(values, what: str, n: int | None = None) -> np.ndarray:
    """values as a float array, refused unless it has n entries (when n is
    given) and every entry is finite."""
    a = np.asarray(values, dtype=float)
    if n is not None and a.size != n:
        raise ValidationError(f"{what} has length {a.size}, expected n={n}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} must be finite (no NaN or inf)")
    return a


def check_membership(theta, params: ModelParams, tol: float = 1e-8,
                     budget: int = DEFAULT_WIDTH_BUDGET):
    """Decide whether a sequence lies in the class, up to sup-norm tol.

    Screens every distinct knot set, solves the least squares problem for
    each set whose screened cost admits a hit, and accepts on the first
    configuration in lexicographic order reproducing theta to within tol
    in every coordinate.  Returns (True, witness spline) or
    (False, None).  Refuses NaN and inf entries.  Raises
    BudgetExceededError when the enumeration would visit more
    configurations than the budget allows.
    """
    theta = _finite(theta, "theta", params.n)
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


# array entries in one chunk of the knot screen: the deflated candidate
# blocks of a batch of sibling prefixes, 256 KB of doubles
_SCREEN_BLOCK = 1 << 15
# per thread, one chunk buffer per depth of the screen's prefix walk, kept
# between calls: a chunk freed at the end of every call would go back to
# the operating system and cost a page fault per page on the next
_chunks = threading.local()


def _chunk_buffer(depth: int, size: int) -> np.ndarray:
    """size doubles for a chunk of the screen at depth, from the kept
    buffer when size fits in _SCREEN_BLOCK entries."""
    if size > _SCREEN_BLOCK:
        return np.empty(size)
    kept = getattr(_chunks, "buffers", None)
    if kept is None:
        kept = _chunks.buffers = {}
    buf = kept.get(depth)
    if buf is None or buf.size < size:
        buf = kept[depth] = np.empty(_SCREEN_BLOCK)
    return buf[:size]


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
    once, as a prefix of knots followed by one last knot.  The truncated
    power block of every inner knot is built once and projected off the
    polynomial block once.  The prefixes are then walked depth first: a
    child prefix's residual and candidate blocks are its parent's with the
    child's own knot block projected out, that block orthonormalized from
    its projected vectors.  The children of one prefix are deflated and
    scored together, in chunks of at most _SCREEN_BLOCK array entries that
    slice the candidates from the chunk's first allowed knot on, as
    ||r||^2 less the squared projection of r on each candidate's block.
    The blocks kept for deflation take O(n^2 (d - d0)) memory from k = 3
    on; below that the candidates are scored a chunk at a time.  Each
    depth of the walk deflates into one buffer kept between calls
    (_chunk_buffer), so a warm call takes no page faults for its chunks.

    The scores match the per-set least squares costs up to rounding only,
    so callers rescore the sets near the best with their own arithmetic
    (_rescore; best does it for the least-cost knot vector at any piece
    count up to k).  Set j is the prefix _prefixes[_owner[j]] followed
    by _last[j]; a _last of 0 (never an inner knot) stands for the
    prefix alone.
    """

    def __init__(self, y: np.ndarray, d: int, d0: int, k: int):
        n = y.size
        self.n, self.k = n, k
        self.tol = _SCREEN_TOL * float(y @ y)
        self._gap = d + 1
        self._ts = np.arange(d + 1, n - d)   # every inner knot
        Q, _ = np.linalg.qr(raw_basis(n, d, d0, (0, n)))
        r = y - Q @ (Q.T @ y)
        self._prefixes = [()]
        self._parts = [(np.zeros(1, int), np.zeros(1, int),
                        np.array([float(r @ r)]))]
        if k >= 2:
            m, p = self._ts.size, d - d0
            step = max(1, _SCREEN_BLOCK // (n * p))
            # a block holds one (p, n) column block per candidate; the
            # children deflate slices of the whole block
            C = np.empty((m, p, n)) if k >= 3 else None
            for lo in range(0, m, step):
                B = _knot_columns(n, d, d0, self._ts[lo:lo + step])
                flat = B.reshape(n, -1)
                flat -= Q @ (Q.T @ flat)
                B = B.transpose(1, 2, 0)
                self._score(0, r[None], B[None], lo,
                            np.ones((1, B.shape[0]), bool))
                if C is not None:
                    C[lo:lo + step] = B
            if C is not None:
                self._descend((), r, C, 0)
        owner, last, score = zip(*self._parts)
        del self._parts
        self._owner = np.concatenate(owner)
        self._last = np.concatenate(last)
        self.score = np.concatenate(score)

    def _descend(self, prefix, r, B, lo):
        """Score the children of prefix and descend into theirs.  r is the
        prefix's residual and B[j] the (p, n) block of its candidate
        _ts[lo + j], both projected off the prefix design."""
        n, gap, m = self.n, self._gap, self._ts.size
        p = B.shape[1]
        deeper = len(prefix) + 3 < self.k
        a = lo   # the chunk's first child, as an index into _ts
        while a < m - gap:   # a child needs a candidate after it
            c = m - a - gap
            g = min(m - gap - a, max(1, _SCREEN_BLOCK // (n * c * p)))
            # the children's own blocks, orthonormalized: Q[i] is (p, n)
            own = B[a - lo:a - lo + g]
            if p == 1:
                Q = own / np.sqrt(np.einsum("gin,gin->g", own, own))[
                    :, None, None]
            else:
                Q = np.linalg.qr(own.transpose(0, 2, 1))[0].transpose(0, 2, 1)
            R = r - ((Q @ r)[:, None, :] @ Q)[:, 0]
            # project each child's block out of the candidates after it
            Bc = B[a + gap - lo:].reshape(c * p, n)
            G = Bc @ Q.reshape(g * p, n).T
            D = _chunk_buffer(len(prefix), g * c * p * n).reshape(
                g, c * p, n)
            if p == 1:   # outer products, faster broadcast than matmul
                np.multiply(G.T[:, :, None], Q, out=D)
            else:
                np.matmul(G.reshape(c * p, g, p).transpose(1, 0, 2), Q,
                          out=D)
            np.subtract(Bc, D, out=D)
            Bg = D.reshape(g, c, p, n)
            base = len(self._prefixes)
            self._prefixes.extend(prefix + (int(t),)
                                  for t in self._ts[a:a + g])
            # child i may end only at candidates after its own knot
            self._score(base, R, Bg, a + gap,
                        np.arange(c) >= np.arange(g)[:, None])
            if deeper:
                for i in range(g):
                    self._descend(self._prefixes[base + i], R[i],
                                  Bg[i, i:], a + i + gap)
            a += g

    def _score(self, base, R, B, col, mask):
        """Record prefix base + i followed by candidate _ts[col + j] for
        every (i, j) in mask, scored ||R[i]||^2 less the squared
        projection of R[i] on the span of B[i, j]."""
        i, j = np.nonzero(mask)
        rr = np.einsum("gn,gn->g", R, R)[i]
        if B.shape[2] == 1:
            b = B[:, :, 0]
            dot = (b @ R[:, :, None])[i, j, 0]
            sq = np.einsum("gcn,gcn->gc", b, b)[i, j]
            score = rr - dot * dot / sq
        else:
            Qb, _ = np.linalg.qr(B[i, j].transpose(0, 2, 1))
            proj = R[i, None, :] @ Qb
            score = rr - np.einsum("kip,kip->k", proj, proj)
        self._parts.append((base + i, self._ts[col + j], score))

    def knots(self, j: int) -> tuple:
        """Set j as its lexicographically smallest knot vector, the one a
        lexicographic scan of all knot vectors meets first."""
        inner = self._prefixes[self._owner[j]]
        if self._last[j]:
            inner = inner + (int(self._last[j]),)
        return _pad_knots((0,) + inner + (self.n,), self.k)

    def _slots(self) -> np.ndarray:
        """Each set's prefix length: the slot of its last knot."""
        return np.array([len(p) for p in self._prefixes])[self._owner]

    def best(self, cost, k: int) -> tuple:
        """The knot vector with k <= self.k pieces of least cost(knots),
        ties going to the lexicographically smallest.

        Only the sets of at most k - 1 inner knots take part: the others'
        scores are masked with +inf before _rescore, which ranks the sets
        by their knot vectors padded to self.k pieces.  Those vectors
        order as they do padded to k pieces, so the winner is its vector
        less the self.k - k leading empties.
        """
        score = np.where(self._slots() + (self._last > 0) < k, self.score,
                         np.inf)
        _, j = _rescore(score, self.tol, lambda j: cost(self.knots(j)),
                        self.knots)
        return self.knots(j)[self.k - k:]

    def inner_knots(self) -> np.ndarray:
        """The inner knots of every set in increasing order, one row of
        k - 1 per set, padded with n."""
        n = self.n
        pre = np.full((len(self._prefixes), self.k - 1), n, dtype=np.intp)
        for i, prefix in enumerate(self._prefixes):
            pre[i, :len(prefix)] = prefix
        out = pre[self._owner]
        if self.k > 1:   # the last knot goes after its prefix's
            out[np.arange(out.shape[0]), self._slots()] = np.where(
                self._last > 0, self._last, n)
        return out

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
