"""The blocked DP forward pass against costing one start at a time.

`_dp_table` costs a block of consecutive starts per numpy call.  Its table
(C, nxt) must be the one the per-start scan kept verbatim in
`oracles.dp_table_scan` builds, bit for bit, and so must every knot vector
read off it, for every degree the dynamic program accepts.
"""

import numpy as np
import pytest

import oracles as orc
import l0spline.solvers as solvers
from l0spline.solvers import _backtrack, _dp_table

KINDS = ("noise", "zero", "rounded", "offset", "constant", "poly")


def _series(kind, n, d, rng):
    x = np.arange(1, n + 1) / n
    noise = rng.standard_normal(n)
    return {"noise": noise, "zero": np.zeros(n), "rounded": np.round(noise),
            "offset": 1e4 + noise, "constant": np.full(n, 3.7),
            # an exact degree-d polynomial: every cost is rounding alone
            "poly": sum((m + 1.5) * x ** m for m in range(d + 1))}[kind]


def _assert_tables_match(y, d, k_maxes):
    """Each table for k_max in k_maxes against the rows of one scan: a
    scan's row r does not depend on how many rows follow it."""
    ref = orc.dp_table_scan(y, d, max(k_maxes))
    for k_max in k_maxes:
        C, nxt = _dp_table(y, d, k_max)
        ref_k = (ref[0][:k_max + 1], ref[1][:k_max + 1])
        assert C.shape == ref_k[0].shape
        assert np.array_equal(C, ref_k[0]), k_max
        assert np.array_equal(nxt[1:], ref_k[1][1:]), k_max
        for k in range(1, k_max + 1):
            assert _backtrack((C, nxt), k) == orc.dp_backtrack(ref_k, k)


class TestBitIdentical:
    @pytest.mark.parametrize("d", range(7))
    def test_every_n_up_to_160(self, d):
        """Every kind at every n; k_max = 6 and one of 1-5 in turn."""
        rng = np.random.default_rng(8100 + d)
        for n in range(d + 1, 161):
            for i, kind in enumerate(KINDS):
                _assert_tables_match(_series(kind, n, d, rng), d,
                                     (6, 1 + (n + i) % 5))

    @pytest.mark.parametrize("n", (999, 1000, 1200, 1500, 2000))
    def test_several_blocks(self, n):
        """Several blocks and a partial last one; two kinds per degree,
        taking the kinds in turn."""
        rng = np.random.default_rng(n)
        for d in range(7):
            for i in (0, 3):
                kind = KINDS[(d + i + n) % len(KINDS)]
                k_max = 1 + (d + i + n) % 6
                _assert_tables_match(_series(kind, n, d, rng), d, [k_max])

    @pytest.mark.parametrize("block", [1, 7, 100, 1 << 20])
    def test_block_size_changes_nothing(self, monkeypatch, block):
        """One row per block, ragged blocks, one block for the table."""
        rng = np.random.default_rng(8200)
        for d, n in ((0, 57), (1, 90), (2, 64), (4, 33)):
            y = rng.standard_normal(n)
            ref = _dp_table(y, d, 4)
            monkeypatch.setattr(solvers, "_DP_BLOCK", block)
            C, nxt = _dp_table(y, d, 4)
            monkeypatch.undo()
            assert np.array_equal(C, ref[0])
            assert np.array_equal(nxt, ref[1])

    def test_single_window_start_at_degree_1(self):
        """The last start has one window, which einsum sums in another
        order than a longer one: C[1, n-2] is -4.4e-16, not 0.0, on some
        inputs, and the block pass must give the same."""
        hits = 0
        for seed in range(40):
            y = np.random.default_rng(seed).standard_normal(12)
            C, _ = _dp_table(y, 1, 2)
            ref, _ = orc.dp_table_scan(y, 1, 2)
            assert C[1, 10] == ref[1, 10]
            hits += ref[1, 10] != 0.0
        assert hits > 0

    def test_block_marks_segments_past_n(self):
        """A block's rows share one length; entries past n are +inf, so
        no split beyond the series can win an argmin."""
        n, d = 30, 1
        y = np.random.default_rng(8300).standard_normal(n)
        cost = solvers._SegmentSweeper(y, d).block(10, 20)
        assert cost.shape == (10, n - 10 - d)
        ends = np.arange(10, 20)[:, None] + d + 1 + np.arange(cost.shape[1])
        assert np.all(cost[ends > n] == np.inf)
        assert np.all(np.isfinite(cost[ends <= n]))
