"""Tests for shape-restricted (d-monotone) spline least squares."""

import numpy as np
import pytest

import oracles as orc
from l0spline import NonConvergenceError, ValidationError
from l0spline.model import (
    KnotVector,
    ModelParams,
    check_membership,
    count_knot_vectors,
    iter_knot_vectors,
)
from l0spline.shape import (
    MonotoneCanonical,
    canonical_evaluate,
    coef_bound_statistic,
    fit_shape_given_knots,
    is_d_monotone,
    nnls_activeset,
    sample_shape_member,
    shape_lse,
)


class TestNnlsActiveset:
    def test_matches_scipy_nnls(self):
        from scipy.optimize import nnls as scipy_nnls

        rng = np.random.default_rng(42)
        for _ in range(30):
            m = int(rng.integers(2, 8))
            p = int(rng.integers(1, 6))
            A = rng.normal(size=(m, p))
            y = rng.normal(size=m)
            x = nnls_activeset(A, y)
            x_ref, _ = scipy_nnls(A, y)
            np.testing.assert_allclose(A @ x, A @ x_ref, atol=1e-9)
            assert np.all(x >= 0)

    def test_kkt_at_solution(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(10, 4))
        y = rng.normal(size=10)
        x = nnls_activeset(A, y)
        grad = A.T @ (A @ x - y)
        # stationarity on the active set, dual feasibility off it
        assert np.all(grad >= -1e-8)
        np.testing.assert_allclose(grad[x > 1e-12], 0.0, atol=1e-8)

    def test_unconstrained_optimum_feasible(self):
        # if the LS solution is already nonnegative it is returned exactly
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = A @ np.array([2.0, 3.0])
        x = nnls_activeset(A, y)
        np.testing.assert_allclose(x, [2.0, 3.0], atol=1e-12)

    def test_all_negative_forces_zero(self):
        A = np.eye(3)
        y = -np.ones(3)
        x = nnls_activeset(A, y)
        np.testing.assert_allclose(x, 0.0)

    def test_iteration_cap_raises(self):
        A = np.eye(2)
        y = np.ones(2)
        with pytest.raises(NonConvergenceError):
            nnls_activeset(A, y, max_iter=0)


class TestMonotoneCanonical:
    def test_length_validation(self):
        kv = KnotVector((0, 2, 4), d=1)
        with pytest.raises(ValidationError):
            MonotoneCanonical(j_star=1, a=(1.0, 2.0), b=(), c=(), knots=kv)

    def test_sign_validation(self):
        # d = 1: left-hinge coefficients must satisfy a * (-1)^(d+1) >= 0
        kv = KnotVector((0, 2, 4), d=1)
        with pytest.raises(ValidationError):
            MonotoneCanonical(j_star=1, a=(-1.0,), b=(0.5,), c=(0.0,), knots=kv)
        with pytest.raises(ValidationError):
            MonotoneCanonical(j_star=1, a=(1.0,), b=(-0.5,), c=(0.0,), knots=kv)

    def test_pivot_range(self):
        kv = KnotVector((0, 4), d=1)
        with pytest.raises(ValidationError):
            MonotoneCanonical(j_star=3, a=(0.0, 0.0, 0.0), b=(), c=(), knots=kv)

    def test_evaluate_constant(self):
        kv = KnotVector((0, 2, 4), d=0)
        rep = MonotoneCanonical(j_star=0, b=(0.0, 0.0), a=(), c=(), knots=kv)
        np.testing.assert_allclose(canonical_evaluate(rep), np.zeros(4))


class TestIsDMonotone:
    def test_nondecreasing_d0(self):
        assert is_d_monotone(np.array([1.0, 1.0, 2.0, 5.0]), 0)
        assert not is_d_monotone(np.array([1.0, 0.5]), 0)

    def test_convex_d1(self):
        i = np.arange(1, 9, dtype=float)
        assert is_d_monotone(i ** 2, 1)
        assert not is_d_monotone(-(i ** 2), 1)

    def test_d2(self):
        i = np.arange(1, 9, dtype=float)
        assert is_d_monotone(i ** 3, 2)
        assert not is_d_monotone(-(i ** 3), 2)

    def test_tolerance(self):
        theta = np.array([0.0, 0.0, -1e-12])
        assert is_d_monotone(theta, 0, tol=1e-10)
        assert not is_d_monotone(theta, 0, tol=1e-14)


class TestFitShapeGivenKnots:
    def test_representable_convex_sse_zero(self):
        # convex piecewise-linear with a single hinge is fit exactly
        n = 12
        i = np.arange(1, n + 1)
        y = np.where(i <= 6, 0.0, (i - 6) / n).astype(float)
        fit = fit_shape_given_knots(y, d=1, knots=(0, 6, n), j_star=1)
        assert fit.sse < 1e-20
        np.testing.assert_allclose(fit.theta_hat.values, y, atol=1e-10)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(4, 13))
            y = rng.normal(size=n)
            k = int(rng.integers(1, 4))
            kvs = list(iter_knot_vectors(n, k, 1))
            knots = kvs[int(rng.integers(0, len(kvs)))]
            j_star = int(rng.integers(0, k + 1))
            fit = fit_shape_given_knots(y, 1, knots, j_star)
            _, sse_pg = orc.shape_fit_projgrad(y, 1, knots, j_star)
            assert abs(fit.sse - sse_pg) < 1e-9

    def test_matches_bounded_ls_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 13))
            d = int(rng.integers(0, 3))
            y = rng.normal(size=n)
            k = int(rng.integers(1, 4))
            kvs = list(iter_knot_vectors(n, k, d))
            knots = kvs[int(rng.integers(0, len(kvs)))]
            j_star = int(rng.integers(0, k + 1))
            fit = fit_shape_given_knots(y, d, knots, j_star)
            _, sse_ref = orc.shape_fit_bvls(y, d, knots, j_star)
            assert abs(fit.sse - sse_ref) < 1e-9

    def test_canonical_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(5, 12))
            d = int(rng.integers(0, 3))
            y = rng.normal(size=n)
            fit = fit_shape_given_knots(y, d, (0, n), j_star=int(rng.integers(0, 2)))
            np.testing.assert_allclose(
                canonical_evaluate(fit.canonical), fit.theta_hat.values, atol=1e-10
            )

    def test_fitted_values_are_d_monotone(self):
        rng = np.random.default_rng(19)
        for d in (0, 1, 2):
            n = 10
            y = rng.normal(size=n)
            kvs = list(iter_knot_vectors(n, 2, d))
            knots = kvs[int(rng.integers(0, len(kvs)))]
            fit = fit_shape_given_knots(y, d, knots, j_star=1)
            assert is_d_monotone(fit.theta_hat.values, d, tol=1e-8)

    def test_invalid_pivot_rejected(self):
        with pytest.raises(ValidationError):
            fit_shape_given_knots(np.ones(6), 0, (0, 3, 6), j_star=3)

    def test_knot_validation_applies(self):
        with pytest.raises(ValidationError):
            fit_shape_given_knots(np.ones(6), 1, (0, 5, 6), j_star=0)


class TestShapeLse:
    def test_two_point_average(self):
        # decreasing data projected onto nondecreasing steps pools to the mean
        fit = shape_lse(np.array([2.0, 1.0]), d=0, k=2)
        np.testing.assert_allclose(fit.theta_hat.values, [1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(fit.sse, 0.5, atol=1e-12)

    def test_matches_isotonic_regression(self):
        # with k = n every step function is reachable, so d = 0 reduces to PAVA
        rng = np.random.default_rng(23)
        for n in (5, 12, 20):
            y = rng.normal(size=n)
            fit = shape_lse(y, d=0, k=n)
            np.testing.assert_allclose(fit.theta_hat.values, orc.pava(y), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            d = int(rng.integers(0, 2))
            k = int(rng.integers(1, 4))
            y = rng.normal(size=n)
            fit = shape_lse(y, d, k)
            sse_ref, _ = orc.brute_force_shape_lse(y, d, k)
            assert abs(fit.sse - sse_ref) < 1e-9

    def test_sse_nonincreasing_in_k(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=10)
        sses = [shape_lse(y, 1, k).sse for k in (1, 2, 3)]
        assert sses[0] >= sses[1] - 1e-12
        assert sses[1] >= sses[2] - 1e-12

    def test_membership_in_smooth_class(self):
        # every shape-restricted fit lives in the spline class with d0 = d - 1
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(6, 14))
            d = int(rng.integers(1, 3))
            k = int(rng.integers(2, 4))
            y = rng.normal(size=n)
            fit = shape_lse(y, d, k)
            params = ModelParams(d=d, d0=d - 1, k=k, n=n)
            inside, _ = check_membership(fit.theta_hat.values, params, tol=1e-8)
            assert inside

    def test_convex_fit_has_nondecreasing_slopes(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=12) + np.linspace(-1, 1, 12) ** 2
        fit = shape_lse(y, d=1, k=3)
        assert is_d_monotone(fit.theta_hat.values, 1, tol=1e-8)

    def test_tie_break_prefers_smallest_knots_then_pivot(self):
        # constant data is fit exactly by every configuration
        fit = shape_lse(np.full(6, 2.0), d=0, k=2)
        assert tuple(fit.knots.knots) == (0, 0, 6)
        assert fit.canonical.j_star == 0

    def test_budget_guard(self):
        from l0spline.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError) as exc:
            shape_lse(np.ones(300), d=0, k=4, budget=1000)
        assert "budget" in str(exc.value).lower()


class TestShapeScreen:
    """shape_lse scores every (knots, pivot) pair by one NNLS solve on
    columns projected once, then refits only the pairs near the best.  It
    must return bit for bit what the per-pair scan it replaced returns;
    the scan is copied here as the reference."""

    @staticmethod
    def _cases(count):
        """Seeded (y, d, k): d <= 3, k <= 3, and noise, zero, rounded,
        offset-1e3, exact-member and noisy-member inputs."""
        for case in range(count):
            rng = np.random.default_rng([72, case])
            d = int(rng.integers(0, 4))
            k = int(rng.integers(1, 4))
            n = int(rng.integers(max(k * (d + 1), k + 1), k * (d + 1) + 9))
            kind = ("noise", "zero", "rounded", "offset", "member",
                    "noisy member")[case % 6]
            y = rng.normal(size=n)
            if kind == "zero":
                y = np.zeros(n)
            elif kind == "rounded":
                y = np.round(y)
            elif kind == "offset":
                y = y + 1e3
            elif kind.endswith("member"):
                member, _, _ = sample_shape_member(rng, d, k, n)
                y = member + (0.1 * y if kind == "noisy member" else 0.0)
            yield y, d, k

    def test_matches_scan(self):
        for y, d, k in self._cases(200):
            ref = None
            for knots in iter_knot_vectors(y.size, k, d):
                kv = KnotVector(knots, d)
                for j_star in range(0, k + 1):
                    fit = fit_shape_given_knots(y, d, kv, j_star)
                    if ref is None or fit.sse < ref.sse:
                        ref = fit
            fit = shape_lse(y, d, k)
            assert fit.knots == ref.knots
            assert fit.canonical == ref.canonical
            assert fit.sse == ref.sse
            assert fit.coeffs == ref.coeffs
            assert np.array_equal(fit.theta_hat.values, ref.theta_hat.values)

    def test_refits_only_near_ties(self, monkeypatch):
        """The scan built a full result for each of the 696 pairs at
        n=20, d=1, k=3; now every pair costs one NNLS solve and only the
        winner's result is built."""
        import l0spline.shape as shape

        built, solves = [], []
        fit, nnls = shape.fit_shape_given_knots, shape.nnls_activeset

        def counting_fit(*a, **kw):
            built.append(a)
            return fit(*a, **kw)

        def counting_nnls(*a, **kw):
            solves.append(a)
            return nnls(*a, **kw)

        monkeypatch.setattr(shape, "fit_shape_given_knots", counting_fit)
        monkeypatch.setattr(shape, "nnls_activeset", counting_nnls)
        y = np.random.default_rng(82).normal(size=20)
        shape_lse(y, 1, 3)
        pairs = count_knot_vectors(20, 3, 1) * 4
        assert pairs == 696
        assert len(built) == 1
        # one screening solve per pair, one per near-tie refit, one for
        # the winner's result
        assert pairs + 2 <= len(solves) < pairs + 20


class TestCoefBoundStatistic:
    def test_zero_signal(self):
        assert coef_bound_statistic(np.zeros(8), d=1, k=2) == 0.0

    def test_degree_zero_has_no_polynomial_part(self):
        theta = np.array([0.0, 1.0, 1.0, 2.0])
        assert coef_bound_statistic(theta, d=0, k=4) == 0.0

    def test_constant_signal_closed_form(self):
        # normalized constant has polynomial coefficient 1/sqrt(n)
        n = 16
        stat = coef_bound_statistic(np.ones(n), d=1, k=2)
        np.testing.assert_allclose(stat, 1.0, atol=1e-10)

    def test_scale_invariance(self):
        # convex piecewise-linear member with one hinge
        n = 10
        i = np.arange(1, n + 1, dtype=float)
        theta = 0.1 + i / n + 2.0 * np.maximum((i - 5) / n, 0.0)
        s1 = coef_bound_statistic(theta, d=1, k=2)
        s2 = coef_bound_statistic(5.0 * theta, d=1, k=2)
        assert s1 > 0
        np.testing.assert_allclose(s1, s2, atol=1e-9)

    def test_non_member_rejected(self):
        with pytest.raises(ValidationError):
            coef_bound_statistic(np.array([3.0, 1.0, 2.0, 0.0]), d=1, k=2)
