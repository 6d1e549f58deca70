"""Tests for simulation, width statistics, stress signals, and risk curves."""

import math

import numpy as np
import pytest

import oracles as orc
from l0spline.errors import BudgetExceededError, ValidationError
from l0spline.experiments import (
    ExperimentConfig,
    build_signal,
    complexity_width,
    least_favorable_signal,
    lf_max_level,
    lil_curve,
    lil_statistic,
    mc_risk,
    noise_vector,
    shaped_lf_ensemble,
    simulate,
    width_curve,
)
from l0spline.model import (
    KnotVector,
    ModelParams,
    SignalVector,
    check_membership,
    raw_basis,
)
from l0spline.shape import fit_shape_given_knots, is_d_monotone
from l0spline.solvers import fit_given_knots


class TestSimulate:
    def test_noiseless_returns_signal(self):
        theta = SignalVector(np.arange(1.0, 6.0))
        y = simulate(theta, 0.0, 7)
        np.testing.assert_array_equal(y.values, theta.values)

    def test_bit_identical_reruns(self):
        theta = np.zeros(50)
        a = simulate(theta, 1.5, 99, replicate=3)
        b = simulate(theta, 1.5, 99, replicate=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_replicates_differ(self):
        theta = np.zeros(50)
        a = simulate(theta, 1.5, 99, replicate=3)
        b = simulate(theta, 1.5, 99, replicate=4)
        assert not np.array_equal(a.values, b.values)

    def test_law_of_large_numbers(self):
        y = simulate(SignalVector(np.zeros(100_000)), 1.0, 2026)
        assert abs(float(y.values.mean())) < 4 / math.sqrt(100_000)
        assert abs(float(y.values.var()) - 1.0) < 0.05

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValidationError):
            simulate(np.zeros(4), -1.0, 0)

    def test_noise_vector_validation(self):
        with pytest.raises(ValidationError):
            noise_vector(-1, 0, 4)


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed, stream", [
        (0, 0), (7, 3), (2 ** 63 - 1, 5), (61001, 399)])
    def test_stream_below_2_63_unchanged(self, seed, stream):
        # the stream a key of two Python ints gives, as before uint64 keys
        ref = np.random.Generator(
            np.random.Philox(key=[seed, stream])).standard_normal(16)
        np.testing.assert_array_equal(noise_vector(seed, stream, 16), ref)

    def test_seeds_from_2_63_have_their_own_streams(self):
        a = noise_vector(2 ** 63, 0, 16)
        b = noise_vector(2 ** 63 + 5, 0, 16)
        assert not np.array_equal(a, b)
        # the key is exact, not rounded through a float
        ref = np.random.Generator(np.random.Philox(
            key=np.array([2 ** 63 + 5, 0], dtype=np.uint64)))
        np.testing.assert_array_equal(b, ref.standard_normal(16))

    def test_largest_key_draws_without_warnings(self):
        # warnings are errors in this suite: no numpy cast warning here
        assert noise_vector(2 ** 64 - 1, 2 ** 64 - 1, 4).shape == (4,)

    @pytest.mark.parametrize("seed, stream", [
        (2 ** 64, 0), (0, 2 ** 64), (-3, 0), (0, -1)])
    def test_keys_outside_uint64_refused(self, seed, stream):
        with pytest.raises(ValidationError):
            noise_vector(seed, stream, 4)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_config_refuses_master_seed_outside_uint64(self, seed):
        with pytest.raises(ValidationError, match="master_seed"):
            ExperimentConfig(n_grid=(16,), d=0, d0=-1, k=2, reps=1,
                             master_seed=seed, signal_kind="zero")

    def test_calibration_draws_use_the_same_keys(self):
        from l0spline._calibrate import calibrate_beta_ratio
        with pytest.raises(ValidationError):
            calibrate_beta_ratio(seed=-3, instances=1)


class TestLilStatistic:
    def test_zero_noise(self):
        assert lil_statistic(np.zeros(10), 1) == 0.0

    def test_single_spike(self):
        eps = np.zeros(4)
        eps[1] = 1.0
        np.testing.assert_allclose(lil_statistic(eps, 0),
                                   1.0 / math.sqrt(2.0), rtol=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(501)
        for _ in range(40):
            n = int(rng.integers(2, 101))
            d = int(rng.integers(0, 3))
            eps = rng.normal(size=n)
            np.testing.assert_allclose(lil_statistic(eps, d),
                                       orc.lil_naive(eps, d), rtol=1e-12)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(502)
        eps = rng.normal(size=60)
        assert lil_statistic(eps, 1) == lil_statistic(-eps, 1)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            lil_statistic(np.zeros(1), 0)
        with pytest.raises(ValidationError):
            lil_statistic(np.zeros(5), -1)


class TestLilCurve:
    def test_row_layout_and_determinism(self):
        rows = lil_curve(0, (16, 32), reps=5, master_seed=11)
        again = lil_curve(0, (16, 32), reps=5, master_seed=11)
        assert rows == again
        assert [r[0] for r in rows] == [16, 32]
        for n, mean_z2, se, ll in rows:
            assert mean_z2 > 0
            assert se >= 0
            np.testing.assert_allclose(ll, math.log(math.log(16 * n)))

    def test_single_rep_has_zero_se(self):
        rows = lil_curve(1, (16,), reps=1, master_seed=3)
        assert rows[0][2] == 0.0

    def test_reps_positive(self):
        with pytest.raises(ValidationError, match="reps"):
            lil_curve(1, (16,), reps=0, master_seed=3)


class TestComplexityWidth:
    def test_zero_noise(self):
        params = ModelParams(d=0, d0=-1, k=2, n=8)
        assert complexity_width(np.zeros(8), params) == 0.0

    def test_two_point_split_spans_everything(self):
        rng = np.random.default_rng(503)
        eps = rng.normal(size=2)
        params = ModelParams(d=0, d0=-1, k=2, n=2)
        np.testing.assert_allclose(complexity_width(eps, params),
                                   float(eps @ eps), rtol=1e-14)

    def test_fast_paths_match_projection_oracle(self):
        rng = np.random.default_rng(504)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            eps = rng.normal(size=n)
            for k in (2, 3):
                params = ModelParams(d=0, d0=-1, k=k, n=n)
                np.testing.assert_allclose(
                    complexity_width(eps, params),
                    orc.width_brute(eps, 0, -1, k), atol=1e-12)

    def test_general_path_matches_projection_oracle(self):
        rng = np.random.default_rng(505)
        for _ in range(10):
            n = int(rng.integers(4, 11))
            eps = rng.normal(size=n)
            params = ModelParams(d=1, d0=0, k=2, n=n)
            np.testing.assert_allclose(
                complexity_width(eps, params),
                orc.width_brute(eps, 1, 0, 2), atol=1e-12)

    def test_dominates_unit_member_inner_products(self):
        rng = np.random.default_rng(506)
        n = 10
        eps = rng.normal(size=n)
        params = ModelParams(d=1, d0=0, k=3, n=n)
        w = complexity_width(eps, params)
        for _ in range(100):
            lo = int(rng.integers(2, 5))
            hi = int(rng.integers(lo + 2, 9))
            knots = (0, lo, hi, n)
            X = raw_basis(n, 1, 0, knots)
            coef = rng.normal(size=X.shape[1])
            theta = X @ coef
            theta /= np.linalg.norm(theta)
            assert (eps @ theta) ** 2 <= w + 1e-12

    def test_monotone_in_piece_count(self):
        rng = np.random.default_rng(507)
        eps = rng.normal(size=9)
        vals = [complexity_width(eps, ModelParams(d=0, d0=-1, k=k, n=9))
                for k in (2, 3, 4)]
        assert vals[0] <= vals[1] <= vals[2] + 1e-15

    def test_monotone_in_smoothness(self):
        # fewer matching constraints = larger class = larger width
        rng = np.random.default_rng(508)
        eps = rng.normal(size=10)
        rough = complexity_width(eps, ModelParams(d=1, d0=-1, k=2, n=10))
        smooth = complexity_width(eps, ModelParams(d=1, d0=0, k=2, n=10))
        assert rough >= smooth - 1e-12

    def test_budget_refusal(self):
        eps = np.zeros(300)
        params = ModelParams(d=1, d0=0, k=5, n=300)
        with pytest.raises(BudgetExceededError):
            complexity_width(eps, params, budget=1000)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            complexity_width(np.zeros(5), ModelParams(d=0, d0=-1, k=2, n=6))


class TestWidthCurve:
    def test_transition_shape_at_small_scale(self):
        # the k0+1 curve outgrows the iterated-log rate even on a short grid
        rows2 = width_curve(0, -1, 2, (256, 1024), reps=40, master_seed=60)
        rows3 = width_curve(0, -1, 3, (256, 1024), reps=40, master_seed=60)
        r2 = [m / ll for (_, m, _, ll, _) in
              [(n, m, se, math.log(math.log(16 * n)), lg)
               for (n, m, se, ll, lg) in rows2]]
        assert max(r2) / min(r2) < 2.0
        r3 = [m / math.log(math.log(16 * n))
              for (n, m, _, _, _) in rows3]
        assert r3[1] > 1.15 * r3[0]

    def test_determinism(self):
        a = width_curve(0, -1, 2, (64,), reps=10, master_seed=1)
        b = width_curve(0, -1, 2, (64,), reps=10, master_seed=1)
        assert a == b

    def test_reps_positive(self):
        with pytest.raises(ValidationError, match="reps"):
            width_curve(0, -1, 2, (64,), reps=0, master_seed=1)


class TestLeastFavorableSignal:
    def test_level_capacity(self):
        assert lf_max_level(16, 0) == 4
        assert lf_max_level(16, 1) == 3
        with pytest.raises(ValidationError):
            lf_max_level(3, 1)

    def test_first_level_ramp_position(self):
        theta = least_favorable_signal(16, 0, 1)
        # tau_1 = 8: support starts at design point 9
        assert np.all(theta.values[:8] == 0.0)
        assert np.all(theta.values[8:] > 0.0)
        np.testing.assert_allclose(theta.values[8:],
                                   theta.values[8] * np.ones(8))

    def test_amplitude_scale(self):
        a = least_favorable_signal(32, 1, 2, c_scale=1.0)
        b = least_favorable_signal(32, 1, 2, c_scale=2.5)
        np.testing.assert_allclose(b.values, 2.5 * a.values, rtol=1e-15)

    def test_membership_in_two_piece_class(self):
        for d in (0, 1, 2):
            n = 32
            for ell in range(1, lf_max_level(n, d) + 1):
                theta = least_favorable_signal(n, d, ell)
                ok, _ = check_membership(
                    theta.values, ModelParams(d=d, d0=d - 1, k=2, n=n))
                assert ok

    def test_level_out_of_range(self):
        with pytest.raises(ValidationError):
            least_favorable_signal(16, 0, 0)
        with pytest.raises(ValidationError):
            least_favorable_signal(16, 0, 5)


def shaped_knot_positions(n, k, index_vector):
    # slope-change positions implied by the block formulas
    k_seg = k // 3
    block = n // k_seg
    level = int(math.log2(block))
    pos = set()
    for seg, ell in enumerate(index_vector):
        g0 = seg * block
        if ell == 0:
            pos.add(g0 + block - 2)
        else:
            t1 = block - 2 ** (level - ell + 1)
            if g0 + t1 > 0:
                pos.add(g0 + t1)
            pos.add(g0 + block - 2)
    return (0,) + tuple(sorted(pos)) + (n,)


class TestShapedEnsemble:
    def test_all_reference_assembly(self):
        n, k = 16, 3
        theta = shaped_lf_ensemble(n, k, (0,))
        s_ref = 8.0 ** 1.5 * math.sqrt(math.log(math.log(16 * n / k)) / n)
        i = np.arange(1, n + 1)
        np.testing.assert_allclose(theta.values,
                                   s_ref * np.maximum(i - 14, 0) / n,
                                   rtol=1e-15)

    def test_outputs_are_convex_sequences(self):
        for n, k, idx in [(16, 3, (1,)), (16, 3, (3,)), (32, 6, (1, 3)),
                          (64, 6, (2, 0)), (64, 12, (1, 1, 2, 3))]:
            theta = shaped_lf_ensemble(n, k, idx)
            assert is_d_monotone(theta.values, 1)

    def test_jumps_bounded_by_total_slope(self):
        n, k = 64, 12
        theta = shaped_lf_ensemble(n, k, (1, 1, 2, 3))
        k_seg = k // 3
        block = n // k_seg
        ell0 = int(math.log2(block)) - 1
        s_ref = (2 ** ell0) ** 1.5 * \
            math.sqrt(math.log(math.log(16 * n / k)) / n)
        jumps = np.diff(theta.values)
        assert np.all(jumps >= -1e-15)
        assert np.max(jumps) <= k_seg * s_ref / n + 1e-15

    def test_exact_piecewise_linear_refit(self):
        for n, k, idx in [(16, 3, (2,)), (32, 6, (1, 3)),
                          (64, 12, (1, 1, 2, 3))]:
            theta = shaped_lf_ensemble(n, k, idx)
            knots = shaped_knot_positions(n, k, idx)
            assert len(knots) - 1 <= k
            params = ModelParams(d=1, d0=0, k=len(knots) - 1, n=n)
            fit = fit_given_knots(theta.values, params, knots)
            assert fit.sse < 1e-20

    def test_shape_class_refit(self):
        n, k, idx = 32, 6, (2, 1)
        theta = shaped_lf_ensemble(n, k, idx)
        kv = KnotVector(shaped_knot_positions(n, k, idx), 1)
        res = fit_shape_given_knots(theta.values, 1, kv, 0)
        assert res.sse < 1e-20

    def test_index_validation(self):
        with pytest.raises(ValidationError):
            shaped_lf_ensemble(16, 3, (4,))
        with pytest.raises(ValidationError):
            shaped_lf_ensemble(16, 3, (1, 1))
        with pytest.raises(ValidationError):
            shaped_lf_ensemble(16, 4, (1,))
        with pytest.raises(ValidationError):
            shaped_lf_ensemble(18, 6, (1, 1))
        with pytest.raises(ValidationError):
            shaped_lf_ensemble(2, 3, (1,))


class TestBuildSignal:
    def test_boxcar_layout(self):
        theta = build_signal("sparse_boxcar", 12, 0, 3, 2.0)
        np.testing.assert_array_equal(
            theta.values, [0, 0, 0, 0, 20, 20, 20, 20, 0, 0, 0, 0])

    def test_zero(self):
        np.testing.assert_array_equal(
            build_signal("zero", 5, 0, 2, 1.0).values, np.zeros(5))

    def test_lf_uses_deepest_level(self):
        a = build_signal("lf_spline", 32, 1, 2, 1.0)
        b = least_favorable_signal(32, 1, lf_max_level(32, 1))
        np.testing.assert_array_equal(a.values, b.values)

    def test_custom_length_check(self):
        with pytest.raises(ValidationError):
            build_signal("custom_file", 5, 0, 2, 1.0,
                         custom_values=(1.0, 2.0))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            build_signal("boxcar", 5, 0, 2, 1.0)


class TestExperimentConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_grid=(16, 16), d=0, d0=-1, k=2, reps=3,
                             master_seed=1, signal_kind="zero")

    def test_reps_positive(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_grid=(16,), d=0, d0=-1, k=2, reps=0,
                             master_seed=1, signal_kind="zero")

    def test_kind_checked(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_grid=(16,), d=0, d0=-1, k=2, reps=1,
                             master_seed=1, signal_kind="step")

    @pytest.mark.parametrize("sigma, tau", [(math.nan, 2.5), (math.inf, 2.5),
                                            (1.0, math.nan), (1.0, math.inf),
                                            (1.0, -math.inf)])
    def test_sigma_and_tau_finite(self, sigma, tau):
        with pytest.raises(ValidationError, match="finite"):
            ExperimentConfig(n_grid=(16,), d=0, d0=-1, k=2, reps=1,
                             master_seed=1, signal_kind="zero", sigma=sigma,
                             tau=tau)


class TestMcRisk:
    def test_noiseless_representable_signal_has_zero_risk(self):
        config = ExperimentConfig(n_grid=(12, 24), d=0, d0=-1, k=3, reps=3,
                                  master_seed=5, signal_kind="sparse_boxcar",
                                  sigma=0.0)
        curve = mc_risk(config, "l0_fit")
        for row in curve.rows:
            assert not row.failed
            assert row.mean_risk == 0.0
            assert row.std_error == 0.0

    def test_rate_columns(self):
        config = ExperimentConfig(n_grid=(16,), d=0, d0=-1, k=2, reps=2,
                                  master_seed=5, signal_kind="zero")
        row = mc_risk(config, "l0_fit").rows[0]
        np.testing.assert_allclose(
            row.rate_loglog, 2 * math.log(math.log(16 * 16 / 2)))
        np.testing.assert_allclose(
            row.rate_log, 2 * math.log(math.e * 16 / 2))

    def test_bit_reproducible(self):
        config = ExperimentConfig(n_grid=(16, 32), d=0, d0=-1, k=2, reps=4,
                                  master_seed=17, signal_kind="zero")
        a = mc_risk(config, "l0_fit")
        b = mc_risk(config, "l0_fit")
        assert a.rows == b.rows

    def test_standard_error_shrinks_with_reps(self):
        base = dict(n_grid=(32,), d=0, d0=-1, k=2, master_seed=23,
                    signal_kind="zero")
        se_small = mc_risk(ExperimentConfig(reps=48, **base),
                           "l0_fit").rows[0].std_error
        se_big = mc_risk(ExperimentConfig(reps=192, **base),
                         "l0_fit").rows[0].std_error
        ratio = se_small / se_big
        assert 1.4 <= ratio <= 2.6

    def test_failed_cell_marked_not_fatal(self):
        config = ExperimentConfig(n_grid=(15, 60), d=1, d0=0, k=3, reps=2,
                                  master_seed=9, signal_kind="zero")
        curve = mc_risk(config, "shape_lse", budget=1000)
        assert not curve.rows[0].failed
        assert curve.rows[1].failed
        assert "budget" in curve.rows[1].error

    @pytest.mark.parametrize("d, d0", [(1, -1), (2, 0)])
    def test_shape_lse_needs_cone_smoothness(self, d, d0):
        # the cone has d0 = d - 1; any other d0 would label its rows wrong
        config = ExperimentConfig(n_grid=(16,), d=d, d0=d0, k=2, reps=1,
                                  master_seed=1, signal_kind="zero")
        with pytest.raises(ValidationError, match="d0 = d - 1"):
            mc_risk(config, "shape_lse")

    def test_shape_lse_degree_envelope(self):
        # shape_lse prunes on the knot screen, held to tol up to d = 3
        config = ExperimentConfig(n_grid=(16,), d=4, d0=3, k=2, reps=1,
                                  master_seed=1, signal_kind="zero")
        with pytest.raises(ValidationError, match="d <= 3"):
            mc_risk(config, "shape_lse")

    def test_adaptive_estimator_runs(self):
        config = ExperimentConfig(n_grid=(48,), d=0, d0=-1, k=3, reps=3,
                                  master_seed=31,
                                  signal_kind="sparse_boxcar", sigma=1.0)
        curve = mc_risk(config, "adaptive")
        assert not curve.rows[0].failed
        assert curve.rows[0].mean_risk > 0

    def test_estimator_name_checked(self):
        config = ExperimentConfig(n_grid=(16,), d=0, d0=-1, k=2, reps=1,
                                  master_seed=1, signal_kind="zero")
        with pytest.raises(ValidationError):
            mc_risk(config, "ridge")
