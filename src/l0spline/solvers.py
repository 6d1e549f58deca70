"""Exact piece-budgeted least squares and the penalized model selector.

The segment machinery fits degree-d polynomials on index windows using a
length-normalized power basis, so Gram matrices depend only on the window
length and are factored once per length and degree, for every fit.  The
dynamic program solves the d0 = -1 problem exactly, in one forward pass
that serves every piece count, for dp_fit and adaptive_fit alike; it
stops at n // (d+1) pieces, the most a knot vector holds.  Start 0 is
costed on its own, and one blocked sweep costs the other starts the rows
need, all of them from three pieces on; at two, the reversed series
screens the pieces that run to n and only the splits near the best are
costed.  One row step takes each block's costs, and start 0's, to the
table.  The exhaustive solver covers every smoothness order by
enumerating knot vectors.  fit_fixed_k is the one place that picks
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
    _chunk_buffer,
    _detrend,
    _finite,
    _on_pieces,
    _scaled,
    _unit,
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
# holds about (d + 2) / 2 complex and two float arrays of this many
# entries, each in one kept chunk buffer of _SCREEN_BLOCK doubles, and its
# d + 1 moments stacked in one kept buffer of (d + 1) * _DP_BLOCK doubles
_DP_BLOCK = 1 << 14
# the k = 2 pass screens row 1 with the reversed series' costs; their
# largest gap to the forward ones, as a fraction of ||r||^2 (r the
# detrended y), is 6.3e-15, 6.3e-15, 4.4e-14, 2.5e-12, 8.9e-11, 2.3e-9 and
# 1.0e-7 at d = 0..6 on seeded grids of every test_dp_blocks kind at
# n <= 160 and up to 4096.  tol is this fraction of ||r||^2, per degree,
# at least 100 times the gap
_ROW1_TOL = (1e-11, 1e-11, 1e-11, 1e-9, 1e-7, 1e-6, 1e-4)


@dataclass(frozen=True)
class FitResult:
    """A fitted piecewise polynomial plus bookkeeping."""

    theta_hat: SignalVector
    knots: KnotVector
    coeffs: tuple
    sse: float

    @property
    def k_selected(self) -> int:
        return self.knots.k

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
        # the scale of every penalty
        if not math.isfinite(self.tau * self.sigma ** 2):
            raise ValidationError(f"tau * sigma^2 must be finite, got "
                                  f"tau={self.tau}, sigma={self.sigma}")
        transition_boundary(self.d, self.d0)
        if self.n < self.d + 1:
            raise ValidationError(
                f"n must be >= d+1 = {self.d + 1}, got {self.n}")


def penalty(k: int, spec: PenaltySpec) -> float:
    """Piece-count penalty with the two-regime shape.

    tau * sigma^2 times: 1 at k = 1; k * loglog(16n/k) for 2 <= k <= k0;
    k * log(en/k) above k0.  Refuses k outside [1; n]: past n no fit has
    more nonempty pieces, and past e n the penalty is negative.
    """
    if not 1 <= k <= spec.n:
        raise ValidationError(f"k must lie in [1;n] = [1;{spec.n}], got {k}")
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


# per degree, the read-only length tables of the largest n built so far
_length_cache: dict = {}


def _length_tables(n: int, d: int) -> tuple:
    """(ginv, jpow, jpair, lpow) for windows of lengths d+1..n: ginv[p, q]
    the Gram inverse's (p, q) entry over the lengths, jpow[p] = j^p for
    j = 1..n, jpair[i] = j^p + i j^(p+1) at p = 2i + 1 < d, and
    lpow[p] = L^p.

    They depend on (n, d) alone, and each entry on its own length or
    position alone, so one table per degree, built at the largest n seen,
    serves every smaller n sliced.  The arrays are read-only views."""
    tables = _length_cache.get(d)
    if tables is None or tables[1].shape[1] < n:
        lengths = np.arange(d + 1, n + 1, dtype=float)
        # power sums S_m(L) = sum_{j<=L} j^m for the Gram entries
        j = np.arange(1, n + 1, dtype=float)
        psum = np.stack([np.cumsum(j ** m) for m in range(2 * d + 1)])
        G = np.empty((lengths.size, d + 1, d + 1))
        for p in range(d + 1):
            for q in range(d + 1):
                G[:, p, q] = psum[p + q, d:] / lengths ** (p + q)
        jpow = np.stack([j ** p for p in range(d + 1)])
        jpair = np.empty((d // 2, n), dtype=complex)
        jpair.real = jpow[1:d:2]
        jpair.imag = jpow[2::2]
        # one contiguous row over the lengths per (p, q)
        tables = (np.linalg.inv(G).transpose(1, 2, 0).copy(), jpow, jpair,
                  lengths ** np.arange(d + 1, dtype=float)[:, None])
        for table in tables:
            table.flags.writeable = False
        _length_cache[d] = tables
    ginv, jpow, jpair, lpow = tables
    return ginv[:, :, :n - d], jpow[:, :n], jpair[:, :n], lpow[:, :n - d]


class _SegmentSweeper:
    """All-segments cost engine: costs of fitting y on (t; s] for a block of
    consecutive starts t at once, via per-length Gram inverses shared by
    every sweeper of the degree (_length_tables).

    A cost is ss - b' Ginv(L) b, with b the length-normalized moments of the
    window.  Each entry takes exactly the floating point steps of costing
    one start alone, in the same order, so the costs do not depend on how
    the starts are blocked: from d = 1 on, b' Ginv b is the per-start
    einsum run over the whole block at once.

    The running sums go two to a complex cumsum: numpy adds complex numbers
    one IEEE add per part, so each part holds the bits of a float cumsum of
    that part alone, for about the time of one.  y and y^2 pair, and so do
    j^p y and j^(p+1) y for p = 1, 3, ...: one product of the complex
    weights j^p + i j^(p+1) (_length_tables) with the real window forms
    both parts, each the bits of its float product but that a -0.0 turns
    +0.0, which the quadratic form's sum from 0.0 cannot tell.  An odd
    one out runs as a float cumsum.  The blocks' arrays are kept between
    calls (_chunk_buffer), the d + 1 moments stacked in one buffer the
    sweeper obtains once."""

    def __init__(self, y, d: int):
        y = np.asarray(y, dtype=float)
        self.d = d
        self.n = n = y.size
        self._ginv, self._jpow, self._jpair, self._lpow = _length_tables(n, d)
        self._stack = np.empty(0)
        # y + i y^2 then zeros, so every start in a block has a window of
        # one length: row t is y[t:] and t zeros
        pairs = np.zeros(2 * n, dtype=complex)
        pairs.real[:n] = y
        pairs.imag[:n] = y * y
        self._windows = sliding_window_view(pairs, n)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Costs of the segments (t; t+d+1+l] for starts t = lo..hi-1.

        Row t - lo, column l.  An entry with t + d + 1 + l > n is formed
        from y padded with zeros past n and is no segment's cost: a caller
        reads it only where it adds +inf (_dp_table's columns past n).
        The moments of row t - lo, column l, are b[:, t - lo, l], stacked
        in one buffer kept between blocks.  The result is a view of a kept
        buffer, which the next call overwrites."""
        d, n = self.d, self.n
        w = n - lo
        m = w - d
        rows = hi - lo

        def kept(key, dtype=float, cols=m):
            size = rows * cols * np.dtype(dtype).itemsize // 8
            return _chunk_buffer(("sweep", key), size).view(dtype).reshape(
                rows, cols)

        # the running sums of y (real part) and y^2 (imaginary part)
        windows = self._windows[lo:hi, :w]
        sums = np.cumsum(windows, axis=1, out=kept("sums", complex, w))
        win = windows.real
        # the moments, stacked in one buffer sized once for every block
        # of at most _DP_BLOCK entries; p = 0 skips the product and the
        # quotient by 1.0, both exact
        size = (d + 1) * rows * m
        if self._stack.size < size:
            cap = (d + 1) * _DP_BLOCK
            self._stack = _chunk_buffer(("sweep", "moments"),
                                        max(size, cap), cap)
        b = self._stack[:size].reshape(d + 1, rows, m)
        np.copyto(b[0], sums.real[:, d:])
        for p in range(1, d + 1, 2):
            if p < d:   # j^p y and j^(p+1) y in one product and cumsum
                z = np.multiply(self._jpair[p // 2, :w], win,
                                out=kept(("sums", p), complex, w))
                np.cumsum(z, axis=1, out=z)
                parts = (z.real, z.imag)
            else:
                z = np.multiply(self._jpow[p, :w], win,
                                out=kept(("sums", p), cols=w))
                parts = (np.cumsum(z, axis=1, out=z),)
            for q, part in enumerate(parts, start=p):
                np.divide(part[:, d:], self._lpow[q, :m], out=b[q])
        # b' Ginv b in the order of einsum("lp,lpq,lq->l") on one start:
        # p-major, q inner, one running sum from 0.0, which can only turn a
        # -0.0 into +0.0 and leaves ss - quad unchanged.  At d = 0 two
        # products are faster and give the same bits
        quad = kept("quad")
        if d:
            np.einsum("prm,pqm,qrm->rm", b, self._ginv[:, :, :m], b,
                      out=quad)
        else:
            np.multiply(b[0], self._ginv[0, 0, :m], out=quad)
            quad *= b[0]
        if hi == n - d:
            quad[-1, 0] = self._one_window(b[:, -1, 0])
        return np.subtract(sums.imag[:, d:], quad, out=quad)

    def _one_window(self, b1):
        """b' Ginv b of a start's one window, of length d + 1, with its
        moments b1: einsum sums it in another order than a longer one."""
        b1 = np.array([b1])
        return np.einsum("lp,lpq,lq->l", b1,
                         self._ginv[:, :, :1].transpose(2, 0, 1), b1)[0]


# ---------------------------------------------------------------------------
# fitting at fixed knots
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def _fit_at(y: np.ndarray, d: int, d0: int, knots) -> FitResult:
    """Least squares fit at one knot vector, with coeffs in per-piece local
    storage aligned to the given vector.  Refuses a fit whose SSE
    overflows (_scaled), as it does where the fitted values do."""
    n = y.size
    kv = KnotVector(tuple(knots), d)
    distinct = kv.distinct()
    if d0 == -1:
        # each piece in its own well-conditioned (j/L)^l basis, rescaled to
        # local storage on (j/n)^l
        spline = _on_pieces(kv, [
            segment_cost(y[lo:hi], d)[1] * (n / (hi - lo)) ** np.arange(d + 1)
            for lo, hi in zip(distinct, distinct[1:])])
        theta = evaluate_spline(spline)
    else:
        X = raw_basis(n, d, d0, distinct)
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=_RCOND)
        if rank < X.shape[1]:
            raise DegenerateSystemError(
                f"design with knots {distinct} has rank {rank} < {X.shape[1]}")
        theta = X @ coef
        spline = _on_pieces(kv, local_coefficients_from_truncated_power(
            KnotVector(distinct, d), d0, coef).coeffs)
    resid = y - theta
    sse = float(_scaled(resid @ resid))
    return FitResult(SignalVector(theta), kv, spline.coeffs, sse)


def fit_given_knots(y, params: ModelParams, knots) -> FitResult:
    """Project y onto the span of the class members with these knots.
    Refuses a fit whose SSE overflows."""
    y = _finite(y, "y", params.n)
    kv = validate_knots(knots, params.d, params.n)
    if kv.k != params.k:
        raise ValidationError(
            f"knot vector has {kv.k} pieces, params expect {params.k}")
    return _fit_at(y, params.d, params.d0, kv.knots)


# ---------------------------------------------------------------------------
# global solvers
# ---------------------------------------------------------------------------

def _screen_row1(sweeper: _SegmentSweeper, r: np.ndarray,
                 start0: np.ndarray) -> np.ndarray | None:
    """The splits at which a k = 2 table needs row 1 besides 0: those
    whose split can be the best.  None when more splits screen near the
    best than the blocked pass over row 1 would cost in one-start blocks.

    start0[l] is the cost of (0; d+1+l] and r the series the forward
    sweeper costs.  The reversed series' start 0 sweep costs (n-L; n] for
    every length L at once, so with start0 it scores every split s by
    cost(0; s] + C~[1, s] in O(n d^2), within tol of the exact sum.  So
    the first split of least exact sum scores within 2 tol of the least
    score, and once every split there is costed exactly, the add and
    argmin over row 1 pick the split the full row would."""
    d, n = sweeper.d, sweeper.n
    rev = _SegmentSweeper(r[::-1], d).block(0, 1)[0]
    # C~[1, s] at s = d+1..n: +inf where (s; n] is shorter than d + 1,
    # and 0 at n, where the split leaves one piece
    approx = np.full(n + 1, np.inf)
    approx[:n - d] = rev[::-1]
    approx[n] = 0.0
    score = approx[d + 1:] + start0
    tol = _ROW1_TOL[d] * float(r @ r)
    near = np.flatnonzero(score <= score.min() + 2 * tol) + d + 1
    # the blocked pass over row 1 costs about n/8 one-start blocks: n/15 to
    # n/22 at n = 100, n/8 at 500 and n/3 at 2000 (d = 0, 2, 6 measured),
    # so the screen costs at most about 3 times the pass, and the pass at
    # most about 3 times the screen; most splits tie on the alternating
    # 0/1 series at small n
    if near.size > max(1, n // 8):
        return None
    return near[near < n]


def _dp_table(y: np.ndarray, d: int, k: int) -> tuple:
    """Segment-neighbourhood forward pass for every piece count up to k,
    filling only the entries _backtrack reads: rows 1..k-1 in full and
    row k at t = 0.  _dp_knots builds it at k <= n // (d+1), the most
    nonempty pieces a knot vector holds; every row past that repeats the
    one before it.

    Returns (C, nxt).  C[r, t] is the least cost of fitting y on (t; n]
    with at most r pieces; nxt[r, t] is the first split minimizing the cost
    of a nonempty piece starting at t plus C[r-1] after it.  Row r depends
    only on row r-1, so one table serves _backtrack at every k' <= k.

    Start 0 is costed first, on its own.  Then one set of starts gets
    rows 1..k-1: none at k = 1; every start 1..n-d-1 from k = 3 on; at
    k = 2, where _backtrack reads row 1 only at 0 and at nxt[2, 0], the
    splits _screen_row1 finds can be the best, or every start when it
    gives up.  They are taken in blocks from the right within each run
    of consecutive starts, each costed by one _SegmentSweeper.block call
    of at most about _DP_BLOCK window entries.  One step (fill) takes a
    block's costs to its rows 1..k-1, and start 0's, last, to column 0 of
    rows 1..k.  Row r of a block needs row r-1 only after the block's
    starts, so the step fills the rows in order with one argmin each.
    Row 1 is read off the sweep: C[0] is +inf except C[0, n] = 0, so
    C[1, t] is the cost of (t; n], the block's diagonal, and nxt[1, t] is
    n.  C's columns n+1..2n are +inf in every row, the one mask of the
    splits past n: a block's entry for a window past n adds one of them,
    so it loses every argmin to a split within n.  A detrended y of zeros
    costs 0.0 everywhere, so it writes rows 1..k-1 with no sweep but
    start 0's.
    The blocks do the O(n^2 (d^2 + k)) work of one start at a time, the
    screen O(n d^2), and every entry filled is the per-start one, bit for
    bit.  _dp_knots builds it on the unit series (_unit), where no cost
    overflows.
    """
    n = y.size
    # every segment cost is invariant to removing a global degree-d fit,
    # and the sweeper's normal equations lose accuracy with the offset
    r = _detrend(y, d)[1]
    sweeper = _SegmentSweeper(r, d)
    # columns past n stay +inf, so every split past n in the blocks'
    # ragged right edge adds +inf, whatever the sweeper's cost there
    C = np.full((k + 1, 2 * n + 1), np.inf)
    C[:, n] = 0.0
    nxt = np.full((k + 1, n + 1), n)
    after = sliding_window_view(C, n - d, axis=1)

    def fill(lo, hi, cost, top):
        """Rows 1..top of starts lo..hi-1 from their costs, which need
        row r-1 only after the block.  C[0] is +inf but at n: row 1 is
        the piece (t; n] and nxt[1] keeps n."""
        # row t - lo's piece (t; n] is its column n - t - d - 1, the
        # block's antidiagonal from its top right
        np.add(C[0, n], cost[:, ::-1].diagonal(), out=C[1, lo:hi])
        if top < 2:
            return
        rows = np.arange(hi - lo)
        first = lo + d + 1
        ends = rows + first
        cand = _chunk_buffer("dp_cand", cost.size).reshape(cost.shape)
        for row in range(2, top + 1):
            np.add(after[row - 1, first:hi + d + 1, :cost.shape[1]], cost,
                   out=cand)
            hit = cand.argmin(axis=1)
            # C[r, t] = min(C[r-1, t], best split): the empty-piece
            # option, which _backtrack prefers on ties
            np.minimum(C[row - 1, lo:hi], cand[rows, hit],
                       out=C[row, lo:hi])
            np.add(hit, ends, out=nxt[row, lo:hi])

    # a copy: the blocks after it reuse the buffer
    start0 = sweeper.block(0, 1)[0].copy()
    # the other starts whose rows 1..k-1 are filled: none at k = 1
    starts = np.arange(1, n - d if k > 1 else 1)
    if not r.any():
        # every cost the sweeper forms from zero sums is 0.0, so each
        # argmin takes the first split whose row before is finite
        C[1:k, starts] = 0.0
        split = starts + d + 1
        nxt[2:k, starts] = np.where(split < n - d, split, n)
        starts = starts[:0]
    elif k == 2 and (near := _screen_row1(sweeper, r, start0)) is not None:
        starts = near
    runs = np.split(starts, np.flatnonzero(np.diff(starts) != 1) + 1)
    for run in reversed(runs if starts.size else []):
        hi = int(run[-1]) + 1
        while hi > run[0]:
            # as many starts as keep starts * (n - lo) <= _DP_BLOCK
            w = n - hi
            lo = max(int(run[0]), hi - max(
                1, (math.isqrt(w * w + 4 * _DP_BLOCK) - w) // 2))
            fill(lo, hi, sweeper.block(lo, hi), k - 1)
            hi = lo
    # column 0 of rows 1..k, after every other start's rows
    fill(0, 1, start0[None], k)
    return C[:, :n + 1], nxt


def _backtrack(table: tuple, k: int) -> tuple:
    """The lexicographically smallest optimal knot vector with k pieces,
    read off a _dp_table: an empty piece wherever one attains the cost.
    A table built at n // (d+1) rows (_dp_knots) serves every larger k:
    each row past it would repeat the one before, so the pieces past its
    top row are empty pieces at 0."""
    C, nxt = table
    top = min(k, len(C) - 1)
    knots = [0] * (k - top + 1)
    t = 0
    for r in range(top, 0, -1):
        if C[r - 1, t] != C[r, t]:
            t = int(nxt[r, t])
        knots.append(t)
    return tuple(knots)


def _dp_knots(y: np.ndarray, d: int, k: int):
    """_backtrack over one _dp_table of the unit series (_unit) for every
    piece count up to k.  No knot vector has more than n // (d+1)
    nonempty pieces, so the table stops at that many rows."""
    return partial(_backtrack, _dp_table(_unit(y)[0], d,
                                         min(k, y.size // (d + 1))))


def dp_fit(y, params: ModelParams) -> FitResult:
    """Exact minimizer over all knot vectors with <= k pieces for d0 = -1.

    The forward pass (_dp_table) fills only the table entries the
    backtrack reads: rows 1..k-1 in full and row k at t = 0, with k at
    most n // (d+1), the most nonempty pieces a knot vector holds; a
    larger k adds empty pieces at 0.  It costs start 0 in one sweep,
    O(n d^2), which is all k = 1 needs, and every other start in one
    blocked pass from k = 3 on: every window swept, O(n^2 (d^2 + k))
    work in bounded memory.  At k = 2 row 1, the costs
    of the pieces ending at n, is read only at 0 and at the best split:
    one sweep of the reversed series scores every split, and the pass
    costs only the few splits scored near the best, or every start when
    many tie.  All-zero y, once detrended, costs 0.0 everywhere and
    sweeps start 0 alone at every k.  Every entry filled is that of the
    full table costed one start at a time, bit for bit, so the backtrack
    sweeps no segment again and the knots do not depend on the path.
    Ties are resolved to the lexicographically smallest knot vector: at
    each step an empty piece first, then the nearest split.  The search
    runs on the unit series (_unit) and the refit on y, so the knots do
    not depend on the scale of y.  Refuses d0 != -1, and d > 6, where the
    table's costs drift from the refit, and a fit whose SSE overflows.
    """
    _solver_for(params, "dp")
    y = _finite(y, "y", params.n)
    knots = _dp_knots(y, params.d, params.k)(params.k)
    return _fit_at(y, params.d, -1, knots)


def _knot_cost(y: np.ndarray, d: int, d0: int):
    """The exact cost of a set of distinct knots by which the exhaustive
    solver ranks the screened sets: a truncated power lstsq for d0 >= 0,
    and for d0 = -1 segment_cost summed over the pieces, so that ranking
    shares no code with the dynamic program it checks."""
    if d0 == -1:
        def cost(knots):
            # a plain running sum: sum() compensates from Python 3.12 on
            sse = 0.0
            for lo, hi in zip(knots, knots[1:]):
                sse += segment_cost(y[lo:hi], d)[0]
            return sse
    else:
        def cost(knots):
            X = raw_basis(y.size, d, d0, knots)
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
    best are costed one by one (_KnotScreen.best, _knot_cost), both on the
    unit series (_unit); the refit is on y.  Refuses a fit whose SSE
    overflows, like the dynamic program.
    """
    y = _finite(y, "y", params.n)
    n, d, d0, k = params.n, params.d, params.d0, params.k
    _check_budget(count_knot_vectors(n, k, d), budget)
    unit = _unit(y)[0]
    knots = _KnotScreen(unit, d, d0, k).best(_knot_cost(unit, d, d0), k)
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
    every k: the dynamic program runs dp_fit's forward pass at k_max, or
    at n // (d+1) below it (_dp_knots), read by _backtrack; the
    exhaustive solver screens every knot set once (_KnotScreen), read by
    _KnotScreen.best, both on the unit series (_unit).  Every k is refit
    on y at the knots it reads, exactly as dp_fit or exhaustive_fit at k
    would be, and refused where its SSE overflows.
    The exhaustive solver checks the budget at every k in turn before it
    screens, so a refusal names the first count over it.  Refuses a
    penalty that overflows at any k, before any solve; k_max outside
    [1; n], since past n the penalty k log(en/k) falls and past e n it is
    negative; and a spec whose d, d0 or n differ from params.
    """
    if k_max is None:
        k_max = default_k_max(params)
    if not 1 <= k_max <= params.n:
        raise ValidationError(
            f"k_max must lie in [1;n] = [1;{params.n}], got {k_max}")
    for name in ("d", "d0", "n"):
        if getattr(spec, name) != getattr(params, name):
            raise ValidationError(
                f"penalty spec has {name}={getattr(spec, name)}, params "
                f"have {name}={getattr(params, name)}")
    solver = _solver_for(params, solver)

    y = _finite(y, "y", params.n)
    pens = [penalty(k, spec) for k in range(1, k_max + 1)]
    for k, pen in enumerate(pens, start=1):
        if not math.isfinite(pen):
            raise ValidationError(
                f"penalty at k={k} must be finite, got {pen}; lower tau or "
                f"sigma, or k_max")
    d, d0 = params.d, params.d0
    if solver == "dp":
        knots = _dp_knots(y, d, k_max)
    else:
        for k in range(1, k_max + 1):
            _check_budget(count_knot_vectors(params.n, k, d), budget)
        unit = _unit(y)[0]
        knots = partial(_KnotScreen(unit, d, d0, k_max).best,
                        _knot_cost(unit, d, d0))
    fits, trace = [], []
    for k, pen in enumerate(pens, start=1):
        fits.append(_fit_at(y, d, d0, knots(k)))
        trace.append((k, fits[-1].sse, pen, fits[-1].sse + pen))
    # the first least objective: ties go to the smallest k
    best = fits[min(range(k_max), key=lambda i: trace[i][3])]
    return (best, trace) if with_trace else best
