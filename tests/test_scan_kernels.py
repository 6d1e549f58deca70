"""The kernels behind the pruned null scans and the DP's row 1, against
the forms they replaced, bit for bit.

`_lag_bands` hands out views of one array per width, `_lil_bound` divides
in place by one square-root table, and `_pruned_max` sorts only the rows
that can still be visited.  Their earlier forms, with a copy per band, a
divisor per band and a full sort, are kept verbatim in `oracles`.  The
DP reads row 1 off the sweep's diagonal, and dp_fit searches the unit
series where the costs of y overflow.
"""

import math

import numpy as np
import pytest

import oracles as orc
from l0spline import ModelParams, experiments
from l0spline.errors import ValidationError
from l0spline.model import _unit
from l0spline.solvers import _dp_knots, _dp_table, dp_fit
from test_pruned_scans import _adversarial


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _inputs(n, rng):
    noise = rng.normal(size=n)
    # rounding holds -0.0
    kinds = {"noise": noise, "rounded": np.round(noise),
             "offset": 1e3 + noise}
    kinds.update(_adversarial(n, rng))
    return kinds


def _k3_args(eps):
    n = eps.size
    s = np.concatenate([[0.0], np.cumsum(eps)])
    tail = np.zeros(n + 1)
    tail[1:n] = (s[n] - s[1:n]) ** 2 / (n - np.arange(1, n))
    return s, tail


@np.errstate(over="ignore", invalid="ignore")
def _assert_bounds_match(n, rng, degrees=range(4)):
    for kind, eps in _inputs(n, rng).items():
        for d in degrees:
            pow_table = np.arange(n + 1, dtype=float) ** d
            root = np.sqrt(np.arange(n + 1))
            assert _same(experiments._lil_bound(eps, d, pow_table, root),
                         orc._lil_bound(eps, d, pow_table)), (kind, d)
        s, tail = _k3_args(eps)
        assert _same(experiments._width_k3_bound(s, tail),
                     orc._width_k3_bound(s, tail)), kind


class TestBounds:
    def test_every_n_up_to_200(self):
        rng = np.random.default_rng(9100)
        for n in range(2, 201):
            _assert_bounds_match(n, rng)

    @pytest.mark.parametrize("n", (1024, 4096, 8192))
    def test_large_n(self, n):
        _assert_bounds_match(n, np.random.default_rng(9200 + n))

    def test_bands_match(self):
        """Every band's maxima, at every n up to 200 and past the first
        widths."""
        rng = np.random.default_rng(9300)
        for n in list(range(1, 201)) + [1000, 1001]:
            arrays = [rng.normal(size=n + 1),
                      np.round(rng.normal(size=n + 1))]
            new = list(experiments._lag_bands(n, arrays))
            old = list(orc._lag_bands(n, arrays))
            assert [b[:2] for b in new] == [b[:2] for b in old], n
            for (_, _, a), (_, _, b) in zip(new, old):
                assert all(map(_same, a, b)), n


def _random_bounds(rng, size):
    """Bounds drawn from few values, so ties are common, with NaN and
    +-inf among them."""
    values = np.array([-math.inf, -1.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5,
                       math.inf, math.nan])
    bound = rng.choice(values, size=size)
    spread = rng.random(size) < 0.3
    bound[spread] = rng.normal(size=int(spread.sum())) * 3.0
    return bound


class TestPrunedMax:
    def test_same_visits_and_result(self):
        rng = np.random.default_rng(9400)
        starts = (0.0, -math.inf, math.inf, math.nan, 1.0, -2.0)
        for trial in range(3000):
            size = int(rng.integers(0, 40))
            rows = rng.permutation(size) + 10
            bound = _random_bounds(rng, size)
            # row values below, at or above their bound, or NaN
            value = dict(zip(rows.tolist(),
                             _random_bounds(rng, size).tolist()))
            best = starts[trial % len(starts)]
            seen = {"new": [], "old": []}

            def row(side):
                def f(r):
                    seen[side].append(r)
                    return value[r]
                return f
            got = experiments._pruned_max(best, rows, bound.copy(),
                                          row("new"))
            ref = orc._pruned_max(best, rows, bound.copy(), row("old"))
            assert seen["new"] == seen["old"], trial
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()


class TestDpOverflow:
    @pytest.mark.parametrize("scale,overflows",
                             ((1e150, False), (1e154, True), (1e300, True)))
    def test_refused_where_a_cost_overflows(self, scale, overflows):
        """Row 1 off the k = 2 screen, where it fills the row, or the
        blocks (k = 4) gives the one-start scan's rows 0..k-1, and C and
        nxt of row k at t = 0, wherever the scan is finite.  Where a cost
        of y overflows, dp_fit searches the unit series, whose table is
        that scan's and whose knots are its backtrack's, and the fit is
        refused, since its SSE overflows too."""
        rng = np.random.default_rng(9600)
        for d in range(4):
            y = scale * rng.standard_normal(40)
            with np.errstate(all="ignore"):
                ref = orc.dp_table_scan(y, d, 4)
            assert np.isfinite(ref[0][1:4, :40 - d]).all() != overflows, d
            huge = y
            if overflows:
                y = _unit(huge)[0]
                ref = orc.dp_table_scan(y, d, 4)
            for k in (2, 4):
                if overflows:
                    assert _dp_knots(huge, d, k)(k) == \
                        orc.dp_backtrack(ref, k), d
                    with pytest.raises(ValidationError, match="overflow"):
                        dp_fit(huge, ModelParams(d=d, d0=-1, k=k, n=40))
                C, nxt = _dp_table(y, d, k)
                filled = C[:k] != np.inf if k == 2 else np.s_[:]
                assert np.array_equal(C[:k][filled], ref[0][:k][filled]), d
                assert np.array_equal(nxt[:k], ref[1][:k]), d
                assert C[k, 0] == ref[0][k, 0], d
                assert nxt[k, 0] == ref[1][k, 0], d
