"""The pruned null scans against the full O(n^2) row scans, bit for bit.

`lil_statistic` and the d=0, d0=-1, k=3 `complexity_width` visit rows in
decreasing order of an upper bound and stop once no bound exceeds the
best value found.  The result must be the float the full scan returns
(kept verbatim in `oracles`), on noise and on inputs built to stress the
bounds' rounding slack: ties, cancellation, huge and tiny magnitudes.
"""

import math

import numpy as np
import pytest

import oracles as orc
from l0spline import experiments
from l0spline.errors import ValidationError
from l0spline.experiments import complexity_width, lil_statistic
from l0spline.model import ModelParams


def _width(eps, k):
    return complexity_width(eps, ModelParams(d=0, d0=-1, k=k, n=eps.size))


def _assert_lil_matches(eps, degrees=range(4)):
    for d in degrees:
        assert lil_statistic(eps, d).hex() == orc.lil_scan(eps, d).hex(), d


def _assert_scans_match(eps, degrees=range(4)):
    _assert_lil_matches(eps, degrees)
    assert _width(eps, 2).hex() == orc.width_const_k2_scan(eps).hex()
    assert _width(eps, 3).hex() == orc.width_const_k3_scan(eps).hex()


class TestSeededGrid:
    @pytest.mark.parametrize("d", range(4))
    def test_lil_every_n_up_to_200(self, d):
        rng = np.random.default_rng(7100 + d)
        for n in range(2, 201):
            eps = rng.normal(size=n)
            assert lil_statistic(eps, d).hex() == \
                orc.lil_scan(eps, d).hex(), n

    def test_width_every_n_up_to_200(self):
        rng = np.random.default_rng(7200)
        for n in range(1, 201):
            eps = rng.normal(size=n)
            assert _width(eps, 3).hex() == \
                orc.width_const_k3_scan(eps).hex(), n

    @pytest.mark.parametrize("n", (1024, 4096, 8192))
    def test_large_n(self, n):
        rng = np.random.default_rng(n)
        eps = rng.normal(size=n)
        _assert_scans_match(eps, degrees=range(3))


def _adversarial(n, rng):
    noise = rng.normal(size=n)
    spike = np.zeros(n)
    spike[int(rng.integers(0, n))] = 1.0
    return {
        "constant": np.full(n, 0.1),
        "zero": np.zeros(n),
        "rounded": np.round(3.0 * noise),
        "cauchy": rng.standard_cauchy(n),
        "huge": 1e150 * noise,
        "tiny": 1e-150 * noise,
        "spike": spike,
        "negated": -noise,
        # partial sums past the float range: every lil_statistic row is
        # evaluated, and the widths refuse the overflowing squares
        "overflow": 1e306 * rng.standard_cauchy(n),
    }


class TestAdversarial:
    @pytest.mark.parametrize("n", (2, 3, 5, 16, 61, 200))
    def test_inputs(self, n):
        rng = np.random.default_rng(7300 + n)
        for kind, eps in _adversarial(n, rng).items():
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    if kind == "overflow":
                        _assert_lil_matches(eps)
                        for k in (2, 3):
                            with pytest.raises(ValidationError,
                                               match="overflow"):
                                _width(eps, k)
                    else:
                        _assert_scans_match(eps)
                except AssertionError as exc:
                    raise AssertionError(f"{kind}: {exc}") from None

    def test_negation_is_exact(self):
        eps = np.random.default_rng(7400).normal(size=300)
        for d in range(3):
            assert lil_statistic(-eps, d) == lil_statistic(eps, d)

    @pytest.mark.parametrize("d, eps", [
        (0, [-0.7, -0.3, 0.2, 0.1]),
        (1, [0.2, 0.1, 0.1, 0.2, 0.2, 0.1, 0.1, 0.2, -0.3, 0.2, 0.2, 0.1,
             -0.3, 0.2, 0.1, -0.3, 0.2, 0.2, 0.1, -0.3, 0.1]),
    ])
    def test_rounding_near_ties(self, d, eps):
        # the best row exceeds its slack-free bound by one ulp while a
        # second row scores between the two: without the slack the scan
        # stops one row early
        eps = np.array(eps)
        assert lil_statistic(eps, d).hex() == orc.lil_scan(eps, d).hex()


def _bound_inputs(n, rng):
    # noise, a few sparse spikes (large jumps of S inside one band),
    # and two-valued steps
    spikes = np.zeros(n)
    spikes[rng.integers(0, n, size=3)] = rng.normal(size=3) * 10.0
    steps = rng.choice([-1.0, 1.0], size=n) * rng.choice([0.1, 3.0], size=n)
    return (rng.normal(size=n), spikes, steps)


class TestRowBounds:
    """Every row's bound is at least that row's computed value.  This is
    sharper than comparing the maxima: a bound that is wrong on a row
    which does not hold the maximum shows up here too."""

    def test_lil(self):
        rng = np.random.default_rng(7600)
        for _ in range(150):
            n = int(rng.integers(2, 90))
            for eps in _bound_inputs(n, rng):
                for d in range(4):
                    pow_table = np.arange(n + 1, dtype=float) ** d
                    bound = experiments._lil_bound(
                        eps, d, pow_table, np.sqrt(np.arange(n + 1)))
                    rows = orc.lil_rows(eps, d)
                    assert np.all(bound >= rows), (n, d)

    def test_width_k3(self):
        rng = np.random.default_rng(7700)
        for _ in range(300):
            n = int(rng.integers(2, 90))
            for eps in _bound_inputs(n, rng):
                s = np.concatenate([[0.0], np.cumsum(eps)])
                tail = np.zeros(n + 1)
                tail[1:n] = (s[n] - s[1:n]) ** 2 / (n - np.arange(1, n))
                bound = experiments._width_k3_bound(s, tail)
                assert np.all(bound >= orc.width_k3_rows(eps)), n


class TestDriver:
    def test_visits_by_bound_and_stops(self):
        values = {10: 4.0, 11: 1.0, 12: 3.5}
        seen = []

        def row(r):
            seen.append(r)
            return values[r]
        best = experiments._pruned_max(0.0, [10, 11, 12],
                                       np.array([5.0, 3.0, 4.0]), row)
        assert best == 4.0 and seen == [10]

    def test_nan_bound_is_unbounded(self):
        values = {0: 4.0, 1: 1.0, 2: 10.0}
        best = experiments._pruned_max(
            0.0, [0, 1, 2], np.array([5.0, 3.0, math.nan]), values.get)
        assert best == 10.0


class TestRowCounts:
    def test_most_rows_pruned_on_noise(self, monkeypatch):
        counts = {"rows": 0, "total": 0}
        driver = experiments._pruned_max

        def counting(best, rows, bound, row):
            counts["total"] += len(rows)

            def counted(r):
                counts["rows"] += 1
                return row(r)
            return driver(best, rows, bound, counted)

        monkeypatch.setattr(experiments, "_pruned_max", counting)
        n = 4096
        for seed in range(10):
            eps = experiments.noise_vector(7500, seed, n)
            assert lil_statistic(eps, 0) == orc.lil_scan(eps, 0)
            assert _width(eps, 3) == orc.width_const_k3_scan(eps)
        assert counts["total"] == 10 * ((n - 1) + (n - 1))
        assert counts["rows"] < 0.1 * counts["total"]


class TestFiniteInput:
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_refused(self, bad):
        eps = np.random.default_rng(0).normal(size=50)
        eps[10] = bad
        with pytest.raises(ValidationError, match="finite"):
            lil_statistic(eps, 0)
        for d, d0, k in ((0, -1, 2), (0, -1, 3), (1, 0, 2)):
            with pytest.raises(ValidationError, match="finite"):
                complexity_width(eps, ModelParams(d=d, d0=d0, k=k, n=50))
