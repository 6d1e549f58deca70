"""The blocked DP forward pass against costing one start at a time.

`_dp_table` costs a block of consecutive starts per numpy call.  Its table
(C, nxt) must be the one the per-start scan kept verbatim in
`oracles.dp_table_scan` builds, bit for bit, and so must every knot vector
read off it, for every degree the dynamic program accepts.  The pass costs
start 0 on its own, for column 0, and one set of other starts in blocks:
every one from k = 3 on; at k = 2 those the reversed series' screen puts
near the best split, or every one when many splits tie; none on a
detrended y of zeros.  Every entry it fills must be the scan's.  Every
sweeper takes its per-length tables from one cache per degree, which must
give the bits of tables built at n alone.
"""

import numpy as np
import pytest

import oracles as orc
import l0spline.model as model
import l0spline.solvers as solvers
from l0spline import ModelParams, PenaltySpec
from l0spline.errors import ValidationError
from l0spline.model import _detrend
from l0spline.solvers import (_backtrack, _dp_table, adaptive_fit, dp_fit,
                              segment_cost)

KINDS = ("noise", "zero", "rounded", "offset", "constant", "poly")


def _series(kind, n, d, rng):
    x = np.arange(1, n + 1) / n
    noise = rng.standard_normal(n)
    return {"noise": noise, "zero": np.zeros(n), "rounded": np.round(noise),
            "offset": 1e4 + noise, "constant": np.full(n, 3.7),
            # an exact degree-d polynomial: every cost is rounding alone
            "poly": sum((m + 1.5) * x ** m for m in range(d + 1))}[kind]


def _assert_tables_match(y, d, k_maxes):
    """Rows 0..k_max of the table built for k_max + 1, for each k_max in
    k_maxes, against the rows of one scan at every start, and its row
    k_max + 1 at t = 0: a scan's row r does not depend on how many rows
    follow it, and the pass fills its top row only at t = 0.  At
    k_max = 1 row 1 is compared where the pass filled it (every entry
    not +inf): the screen fills it only at 0 and near the best split,
    unless it gives up and the blocks fill it in full."""
    ref = orc.dp_table_scan(y, d, max(k_maxes) + 1)
    for k_max in k_maxes:
        top = k_max + 1
        C, nxt = _dp_table(y, d, top)
        ref_k = (ref[0][:top + 1], ref[1][:top + 1])
        assert C.shape == ref_k[0].shape
        filled = C[:top] != np.inf if top == 2 else np.s_[:]
        assert np.array_equal(C[:top][filled], ref_k[0][:top][filled]), k_max
        assert np.array_equal(nxt[1:top], ref_k[1][1:top]), k_max
        assert C[top, 0] == ref_k[0][top, 0], k_max
        assert nxt[top, 0] == ref_k[1][top, 0], k_max
        for k in range(1, top + 1):
            assert _backtrack((C, nxt), k) == orc.dp_backtrack(ref_k, k)


class TestBitIdentical:
    @pytest.mark.parametrize("d", range(7))
    def test_every_n_up_to_160(self, d):
        """Every kind at every n; k_max = 6, 1 and one of 2-5 in turn."""
        rng = np.random.default_rng(8100 + d)
        for n in range(d + 1, 161):
            for i, kind in enumerate(KINDS):
                _assert_tables_match(_series(kind, n, d, rng), d,
                                     (6, 1, 2 + (n + i) % 4))

    @pytest.mark.parametrize("n", (999, 1000, 1200, 1500, 2000))
    def test_several_blocks(self, n):
        """Several blocks and a partial last one; two kinds per degree,
        taking the kinds in turn, so each degree meets every kind over
        the five n; k_max = 1 (the k = 2 screen) and one of 2-6."""
        rng = np.random.default_rng(n)
        for d in range(7):
            for i in (0, 3):
                kind = KINDS[(d + i + n) % len(KINDS)]
                k_max = 2 + (d + i + n) % 5
                _assert_tables_match(_series(kind, n, d, rng), d,
                                     [k_max, 1])

    @pytest.mark.parametrize("block", [1, 7, 100, 1 << 20])
    def test_block_size_changes_nothing(self, monkeypatch, block):
        """One row per block, ragged blocks, one block for the table, at
        every degree."""
        rng = np.random.default_rng(8200)
        for d, n in ((0, 57), (1, 90), (2, 64), (4, 33), (3, 71), (5, 48),
                     (6, 52)):
            y = rng.standard_normal(n)
            ref = _dp_table(y, d, 4)
            monkeypatch.setattr(solvers, "_DP_BLOCK", block)
            C, nxt = _dp_table(y, d, 4)
            monkeypatch.undo()
            assert np.array_equal(C, ref[0])
            assert np.array_equal(nxt, ref[1])

    @pytest.mark.parametrize("d", range(7))
    def test_block_rows_are_the_per_start_sweeps(self, d):
        """Each row of a block is the per-start sweep of its start, bit for
        bit, up to n: the last start's 1 x 1 block, one-row blocks, and
        blocks of many rows that end at the last start."""
        rng = np.random.default_rng(8250 + d)
        for n, offset in ((d + 2, 0.0), (40, 0.0), (40, 1e4), (301, 0.0)):
            y = offset + rng.standard_normal(n)
            sweeper = solvers._SegmentSweeper(y, d)
            scan = orc._ScanSweeper(y, d)
            last, mid = n - d - 1, (n - d - 1) // 2
            for lo, hi in ((last, last + 1), (0, 1), (mid, mid + 1),
                           (0, last + 1), (last // 3, last + 1)):
                cost = sweeper.block(lo, hi)
                assert cost.shape == (hi - lo, n - lo - d)
                for t in range(lo, hi):
                    row = cost[t - lo, :n - t - d]
                    assert row.tobytes() == scan.sweep(t).tobytes(), (
                        n, lo, hi, t)

    def test_single_window_start_at_degree_1(self):
        """The last start has one window, which einsum sums in another
        order than a longer one: C[1, n-2] is -4.4e-16, not 0.0, on some
        inputs, and the block pass (k >= 3) must give the same."""
        hits = 0
        for seed in range(40):
            y = np.random.default_rng(seed).standard_normal(12)
            C, _ = _dp_table(y, 1, 3)
            ref, _ = orc.dp_table_scan(y, 1, 2)
            assert C[1, 10] == ref[1, 10]
            hits += ref[1, 10] != 0.0
        assert hits > 0

    def test_block_marks_segments_past_n(self):
        """A block's rows share one length, and every segment within n
        has a finite cost; the table masks the entries past n (below)."""
        n, d = 30, 1
        y = np.random.default_rng(8300).standard_normal(n)
        cost = solvers._SegmentSweeper(y, d).block(10, 20)
        assert cost.shape == (10, n - 10 - d)
        ends = np.arange(10, 20)[:, None] + d + 1 + np.arange(cost.shape[1])
        assert np.all(np.isfinite(cost[ends <= n]))

    @pytest.mark.parametrize("past", (1e300, -1e300))
    def test_no_split_past_n_wins(self, monkeypatch, past):
        """The table's +inf columns past n mask every block entry past n:
        with those entries overwritten, C and nxt keep their bytes, on
        noise and on the inputs where the k = 2 screen ties."""
        written = []

        class Past(solvers._SegmentSweeper):
            def block(self, lo, hi):
                cost = super().block(lo, hi)
                ends = (np.arange(lo, hi)[:, None] + self.d + 1
                        + np.arange(cost.shape[1]))
                cost[ends > self.n] = past
                written.append(np.count_nonzero(ends > self.n))
                return cost

        rng = np.random.default_rng(8310)
        for d, n in ((0, 40), (1, 61), (3, 300)):
            for y in (rng.standard_normal(n), _ties("tiny", n, rng),
                      _ties("alternating", n, rng)):
                for k in range(2, 6):
                    ref = _dp_table(y, d, k)
                    monkeypatch.setattr(solvers, "_SegmentSweeper", Past)
                    C, nxt = _dp_table(y, d, k)
                    monkeypatch.undo()
                    assert C.tobytes() == ref[0].tobytes(), (d, n, k)
                    assert nxt.tobytes() == ref[1].tobytes(), (d, n, k)
        assert sum(written) > 0


class TestKeptMoments:
    """The sweeper stacks a block's d + 1 moments in one buffer kept
    between blocks, sized once for every block of _DP_BLOCK entries, past
    the _SCREEN_BLOCK doubles of the other kept arrays from d = 2 on."""

    @pytest.mark.parametrize("d", (2, 6))
    def test_consecutive_blocks_share_the_moments(self, monkeypatch, d):
        stacks = []
        einsum = np.einsum

        def spy(spec, *operands, **kw):
            stacks.append(operands[0])
            return einsum(spec, *operands, **kw)

        monkeypatch.setattr(np, "einsum", spy)
        n = 999
        y = np.random.default_rng(8260).standard_normal(n)
        sweeper = solvers._SegmentSweeper(y, d)
        # as the forward pass takes them: rows * (n - lo) <= _DP_BLOCK
        for lo, hi in ((880, 990), (800, 880)):
            assert (hi - lo) * (n - lo) <= solvers._DP_BLOCK
            sweeper.block(lo, hi)
        first, second = stacks
        assert first.shape == (d + 1, 110, 119 - d)
        assert second.shape == (d + 1, 80, 199 - d)
        assert min(first.size, second.size) > model._SCREEN_BLOCK
        assert np.shares_memory(first, second)

    @pytest.mark.parametrize("d", (0, 2, 6))
    def test_one_table_obtains_the_moments_once(self, monkeypatch, d):
        keys = []
        chunk = solvers._chunk_buffer

        def counting_chunk(*a, **kw):
            keys.append(a[0])
            return chunk(*a, **kw)

        monkeypatch.setattr(solvers, "_chunk_buffer", counting_chunk)
        n = 999
        y = np.random.default_rng(8270).standard_normal(n)
        _dp_table(y, d, 3)
        assert keys.count(("sweep", "moments")) == 1
        # every start's block: more than one
        assert keys.count("dp_cand") > 1


def _ties(kind, n, rng):
    """Inputs on which the row 1 screen ties many splits: noise whose
    squares underflow, so every cost and the tolerance are 0.0, and the
    alternating 0/1 series."""
    if kind == "tiny":
        return 1e-300 * rng.standard_normal(n)
    return (np.arange(n) % 2).astype(float)


@pytest.fixture
def gave_up(monkeypatch):
    """Whether each call of _screen_row1 gave up, in order."""
    calls = []
    screen = solvers._screen_row1

    def spy(*args):
        starts = screen(*args)
        calls.append(starts is None)
        return starts

    monkeypatch.setattr(solvers, "_screen_row1", spy)
    return calls


class TestRow1Fallback:
    """When the k = 2 screen gives up, the blocked pass fills row 1 in
    full: every entry, C[2, 0] and the knots must be the per-start
    scan's, bit for bit."""

    @staticmethod
    def _screen_gave_up(gave_up, y, d):
        """Check the tables at k_max = 1; whether the screen gave up."""
        gave_up.clear()
        _assert_tables_match(y, d, (1,))
        return gave_up == [True]

    @pytest.mark.parametrize("d", range(7))
    def test_small_n(self, gave_up, d):
        """Every n <= 60: the screen gives up on 1e-300 * noise wherever
        two splits are open, and on the alternating series at small n."""
        rng = np.random.default_rng(8400 + d)
        alternating = []
        for n in range(d + 1, 61):
            tiny = self._screen_gave_up(gave_up, _ties("tiny", n, rng), d)
            assert tiny == (n >= 2 * (d + 1)), (d, n)
            alternating.append(self._screen_gave_up(
                gave_up, _ties("alternating", n, rng), d))
        assert any(alternating), d

    @pytest.mark.parametrize("n", (999, 2000))
    def test_long_series(self, gave_up, n):
        """Several blocks at every degree; the screen gives up on
        1e-300 * noise."""
        rng = np.random.default_rng(8500 + n)
        for d in range(7):
            assert self._screen_gave_up(gave_up, _ties("tiny", n, rng), d), d
            self._screen_gave_up(gave_up, _ties("alternating", n, rng), d)

    def test_single_window_start_at_degree_1(self, gave_up):
        """The last start's one window is summed in einsum's order, as
        the per-start scan sums it, also when the screen gives up: on
        two-level alternating series, C[1, n-2] is not 0.0 on some."""
        hits = 0
        for seed in range(40):
            a, b = np.random.default_rng(seed).standard_normal(2)
            y = a * (np.arange(12) % 2) + b
            gave_up.clear()
            C, _ = _dp_table(y, 1, 2)
            assert gave_up == [True], seed
            ref, _ = orc.dp_table_scan(y, 1, 1)
            assert C[1, 10] == ref[1, 10]
            hits += ref[1, 10] != 0.0
        assert hits > 0


class TestDpFitReadsWhatItNeeds:
    """dp_fit fills rows 1..k-1 and only C[k, 0]: its knots must be those
    the full per-start table gives at every k."""

    @pytest.mark.parametrize("d", range(7))
    def test_every_k_up_to_6(self, d):
        rng = np.random.default_rng(8600 + d)
        for n in range(d + 1, 61, 3):
            for kind in KINDS:
                y = _series(kind, n, d, rng)
                ref = orc.dp_table_scan(y, d, 6)
                for k in range(1, 7):
                    fit = dp_fit(y, ModelParams(d=d, d0=-1, k=k, n=n))
                    assert fit.knots.knots == orc.dp_backtrack(ref, k), (
                        kind, n, k)

    @pytest.mark.parametrize("k", (1, 3))
    def test_one_sweeper_and_start_0_alone(self, monkeypatch, k):
        """At k = 1 no block but start 0's is costed.  From k = 3 on every
        start is costed once, start 0 for the rows and C[k, 0] alike."""
        made, costed = [], []

        class Counting(solvers._SegmentSweeper):
            def __init__(self, y, d):
                made.append(d)
                super().__init__(y, d)

            def block(self, lo, hi):
                costed.extend(range(lo, hi))
                return super().block(lo, hi)

        monkeypatch.setattr(solvers, "_SegmentSweeper", Counting)
        monkeypatch.setattr(solvers, "_DP_BLOCK", 200)
        n = 40
        y = np.random.default_rng(8700).standard_normal(n)
        dp_fit(y, ModelParams(d=1, d0=-1, k=k, n=n))
        assert made == [1]
        assert sorted(costed) == ([0] if k == 1 else list(range(n - 1)))

    def test_k_2_costs_start_0_and_a_few_splits(self, monkeypatch):
        """At k = 2 the forward sweeper costs start 0, then each split
        screened near the best alone; the reversed series' sweeper costs
        its start 0 alone.  On seeded noise that is 1 to 3 splits, and on
        1e-300 * noise too, whose unit series is noise.  On all-zero y
        every cost is 0.0: start 0 alone is costed and no reversed sweeper
        is built.  On the constant 3.7 at d = 6 most splits tie on
        rounding, so the blocks cost every other start once."""
        logs = []

        class Counting(solvers._SegmentSweeper):
            def __init__(self, y, d):
                super().__init__(y, d)
                self.log = []
                logs.append(self.log)

            def block(self, lo, hi):
                self.log.extend(range(lo, hi))
                return super().block(lo, hi)

        monkeypatch.setattr(solvers, "_SegmentSweeper", Counting)
        n = 400
        for d in range(7):
            params = ModelParams(d=d, d0=-1, k=2, n=n)
            for seed in range(6):
                logs.clear()
                y = np.random.default_rng(8750 + seed).standard_normal(n)
                # seed 8755 once as 1e-300 * noise, whose squares underflow
                dp_fit(1e-300 * y if seed == 5 else y, params)
                forward, reversed_ = logs
                assert reversed_ == [0], (d, seed)
                assert forward[0] == 0, (d, seed)
                assert 1 <= len(forward) - 1 <= 3, (d, seed, forward)
            logs.clear()
            dp_fit(np.zeros(n), params)
            assert logs == [[0]], d
        logs.clear()
        dp_fit(np.full(n, 3.7), ModelParams(d=6, d0=-1, k=2, n=n))
        forward, reversed_ = logs
        assert reversed_ == [0]
        assert forward[0] == 0
        assert sorted(forward[1:]) == list(range(1, n - 6))

    @pytest.mark.parametrize("d", (0, 2, 6))
    def test_zero_residual_costs_start_0_alone(self, monkeypatch, d):
        """All-zero y costs 0.0 in every piece, so at every k the pass
        costs start 0 alone, and the knots are the per-start scan's."""
        costed = []

        class Counting(solvers._SegmentSweeper):
            def block(self, lo, hi):
                costed.extend(range(lo, hi))
                return super().block(lo, hi)

        monkeypatch.setattr(solvers, "_SegmentSweeper", Counting)
        n = 60
        y = np.zeros(n)
        ref = orc.dp_table_scan(y, d, 6)
        for k in range(3, 7):
            costed.clear()
            fit = dp_fit(y, ModelParams(d=d, d0=-1, k=k, n=n))
            assert costed == [0], (d, k)
            assert fit.knots.knots == orc.dp_backtrack(ref, k), (d, k)

    @pytest.mark.parametrize("d", (0, 1, 3))
    def test_table_stops_at_the_pieces_n_holds(self, monkeypatch, d):
        """No knot vector has more than m = n // (d+1) nonempty pieces, so
        dp_fit at k = 10 n and adaptive_fit at k_max = n build m + 1 rows
        at most, and every fit past m is the one at m with leading empty
        pieces: the same knots after them, SSE and fitted values."""
        n = 30
        m = n // (d + 1)
        rows = []
        table = solvers._dp_table

        def spy(*args):
            C, nxt = table(*args)
            rows.append(len(C))
            return C, nxt

        monkeypatch.setattr(solvers, "_dp_table", spy)
        y = np.random.default_rng(8780 + d).standard_normal(n)
        ref = dp_fit(y, ModelParams(d=d, d0=-1, k=m, n=n))
        fit = dp_fit(y, ModelParams(d=d, d0=-1, k=10 * n, n=n))
        assert fit.knots.knots == (0,) * (10 * n - m) + ref.knots.knots
        assert fit.sse.hex() == ref.sse.hex()
        assert fit.theta_hat.values.tobytes() == \
            ref.theta_hat.values.tobytes()
        params = ModelParams(d=d, d0=-1, k=m, n=n)
        best, trace = adaptive_fit(
            y, params, PenaltySpec(tau=0.5, sigma=1.0, d=d, d0=-1, n=n),
            k_max=n, with_trace=True)
        assert [sse.hex() for _, sse, _, _ in trace[m - 1:]] == \
            [ref.sse.hex()] * (n - m + 1)
        again = dp_fit(y, ModelParams(d=d, d0=-1, k=best.knots.k, n=n))
        assert best.knots == again.knots
        assert best.theta_hat.values.tobytes() == \
            again.theta_hat.values.tobytes()
        assert max(rows) <= m + 1, rows

    @pytest.mark.parametrize("scale,overflows",
                             ((1e150, False), (1e154, True), (1e300, True)))
    def test_overflow_refused_at_k_1_and_2(self, scale, overflows):
        rng = np.random.default_rng(9600)
        for d in range(4):
            y = scale * rng.standard_normal(40)
            for k in (1, 2):
                params = ModelParams(d=d, d0=-1, k=k, n=40)
                if overflows:
                    with pytest.raises(ValidationError, match="overflow"):
                        dp_fit(y, params)
                    continue
                with np.errstate(all="ignore"):
                    ref = orc.dp_table_scan(y, d, k)
                assert dp_fit(y, params).knots.knots == orc.dp_backtrack(
                    ref, k), d

    @pytest.mark.parametrize("d,k,scale,seed",
                             ((2, 1, 1e153, 0), (4, 2, 1e151, 1)))
    def test_unread_overflow_is_not_refused(self, d, k, scale, seed):
        """Costs of y overflow, to NaN or -inf, in the table of y that
        fills row k in full, built for k + 1; dp_fit searches the unit
        series instead, so it takes the knots of the noise unscaled, and
        its fit has the least SSE over every split."""
        n = 40
        noise = np.random.default_rng(seed).standard_normal(n)
        y = scale * noise
        with np.errstate(all="ignore"):
            C, _ = _dp_table(y, d, k + 1)
        assert (np.isnan(C) | (C == -np.inf)).any()
        params = ModelParams(d=d, d0=-1, k=k, n=n)
        fit = dp_fit(y, params)
        assert fit.knots == dp_fit(noise, params).knots
        splits = range(d + 1, n - d) if k == 2 else ()
        with np.errstate(all="ignore"):
            least = min([segment_cost(y, d)[0]] + [
                segment_cost(y[:s], d)[0] + segment_cost(y[s:], d)[0]
                for s in splits])
        assert np.isfinite(least)
        assert abs(fit.sse - least) <= 1e-12 * least


class TestRow1Screen:
    """The k = 2 pass scores every split with the reversed series' row 1
    and costs only the splits near the best; every sweeper takes its
    length tables from one cache per degree."""

    @pytest.mark.parametrize("d", range(7))
    def test_reversed_gap_within_a_hundredth_of_tol(self, d):
        """Every kind at every n <= 160 and at 999, 2000 and 4096: the
        reversed costs of (t; n] stay within tol / 100 of the forward."""
        rng = np.random.default_rng(8800 + d)
        worst = 0.0
        for n in [*range(d + 1, 161), 999, 2000, 4096]:
            for kind in KINDS:
                y = _series(kind, n, d, rng)
                r = _detrend(y, d)[1]
                # row 1 of the blocked pass: the scan's costs of (t; n]
                forward = _dp_table(y, d, 3)[0][1, :n - d]
                rev = solvers._SegmentSweeper(r[::-1], d).block(0, 1)[0]
                gap = np.max(np.abs(forward - rev[::-1]))
                if gap:
                    worst = max(worst, gap / float(r @ r))
        assert worst <= solvers._ROW1_TOL[d] / 100

    def test_tables_after_a_larger_n_match_a_fresh_cache(self, monkeypatch):
        """Tables sliced from a cache grown by a larger fit are the
        tables built at n alone, and so are the DP tables they give."""
        rng = np.random.default_rng(8900)
        for d in range(7):
            for n in (d + 1, 37, 500):
                y = rng.standard_normal(n)
                monkeypatch.setattr(solvers, "_length_cache", {})
                fresh = solvers._length_tables(n, d)
                tables = [_dp_table(y, d, k) for k in (2, 3)]
                dp_fit(rng.standard_normal(1200),
                       ModelParams(d=d, d0=-1, k=1, n=1200))
                grown = solvers._length_tables(n, d)
                for a, b in zip(grown, fresh):
                    assert not a.flags.writeable
                    assert a.tobytes() == b.tobytes(), (d, n)
                for k, (C, nxt) in zip((2, 3), tables):
                    again = _dp_table(y, d, k)
                    assert np.array_equal(again[0], C), (d, n, k)
                    assert np.array_equal(again[1], nxt), (d, n, k)
