"""Tests for shape-restricted (d-monotone) spline least squares."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
import l0spline.shape as shape_module
from l0spline import (
    KnotEndpointError,
    KnotOrderError,
    NonConvergenceError,
    ValidationError,
)
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

    @pytest.mark.parametrize("e", (600, -600, 1016))
    def test_power_of_two_rescales_g_alone(self, monkeypatch, e):
        """nnls_activeset(A, x 2^e) = nnls_activeset(A, x) 2^e, bit for
        bit, with x = y 2^-(e/2): no threshold is absolute, and the
        blockers of a step to the boundary leave by rule, not by
        rounding.  A holds centred convex hinges, on which some solves
        take such steps; the absolute cut of small weights made each of
        those cycle at this scale.  At 2^508, ||x 2^e||^2 max_j ||A_j||^2
        overflows, and a tolerance formed from it let no variable enter."""
        solves = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            solves[-1] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        i = np.arange(12.0)[:, None]
        A = np.maximum(i - np.arange(0, 12, 2), 0.0)
        A -= A.mean(axis=0)
        rng = np.random.default_rng(44)
        stepped = 0
        for _ in range(40):
            x = np.ldexp(rng.normal(size=12), -(e // 2))
            solves.append(0)
            g = nnls_activeset(A, x)
            # one solve per variable that entered, and one per step
            stepped += solves[-1] > np.count_nonzero(g)
            assert nnls_activeset(A, np.ldexp(x, e)).tobytes() == \
                np.ldexp(g, e).tobytes()
        assert stepped >= 5


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

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError, match="degree"):
            fit_shape_given_knots(np.ones(6), -1, (0, 3, 6), 1)

    def test_knot_validation_applies(self):
        with pytest.raises(ValidationError):
            fit_shape_given_knots(np.ones(6), 1, (0, 5, 6), j_star=0)

    @pytest.mark.parametrize("knots,error", (((0, 5, 3, 8), KnotOrderError),
                                             ((0, 4, 10), KnotEndpointError)))
    def test_knot_vector_checked_like_its_tuple(self, knots, error):
        """Either form is refused with the same error; a KnotVector with
        decreasing knots is already refused when it is built."""
        y = np.random.default_rng(7).standard_normal(8)
        for make in (tuple, lambda t: KnotVector(t, 1)):
            with pytest.raises(error):
                fit_shape_given_knots(y, 1, make(knots), 1)


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

    @pytest.mark.parametrize("d, k", [(-1, 2), (7, 1)])
    def test_unfittable_input_rejected(self, d, k):
        # no degree-d cone for d < 0; no knot vector when n < d + 1
        with pytest.raises(ValidationError):
            shape_lse(np.ones(6), d=d, k=k)

    @pytest.mark.parametrize("d", [4, 5, 9])
    def test_degree_envelope(self, d):
        # the knot screen's rounding is held to tol only up to d = 3
        with pytest.raises(ValidationError, match="d <= 3"):
            shape_lse(np.random.default_rng(d).normal(size=40), d=d, k=2)

    def test_pooling_takes_the_smallest_knots_and_pivot(self):
        """At d = 0 and k >= n, shape_lse pools; its knot vector is the
        scan's, the lexicographically smallest: leading empty pieces,
        then one piece per step of the pooled fit.  On [3, 2, 1] the full
        grid (0, 1, 2, 3) with zero-weight hinges was returned instead."""
        for case in range(12):
            rng = np.random.default_rng([77, case])
            n = int(rng.integers(2, 6))
            y = rng.normal(size=n)
            kind = ("noise", "rounded", "decreasing", "constant")[case % 4]
            if kind == "rounded":
                y = np.round(y)
            elif kind == "decreasing":
                y = np.sort(y)[::-1].copy()
            elif kind == "constant":
                y = np.full(n, y[0])
            for k in (n, n + 1):
                fit = shape_lse(y, 0, k)
                assert fit.knots == orc.shape_pair_scan(y, 0, k).knots
                np.testing.assert_allclose(
                    canonical_evaluate(fit.canonical), fit.theta_hat.values,
                    rtol=0, atol=1e-12 * max(1.0, np.abs(y).max()))
        for y, k, knots, j_star in (([3.0, 2.0, 1.0], 3, (0, 0, 0, 3), 0),
                                    ([-1.0, -1.0, 2.0, 5.0], 4,
                                     (0, 0, 2, 3, 4), 2)):
            fit = shape_lse(np.array(y), 0, k)
            ref = orc.shape_pair_scan(np.array(y), 0, k)
            assert fit.knots.knots == ref.knots.knots == knots
            assert fit.canonical.j_star == ref.canonical.j_star == j_star
            assert np.array_equal(canonical_evaluate(fit.canonical),
                                  fit.theta_hat.values)

    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("k", (2, 3))
    def test_exact_members_converge(self, d, k):
        """The constant 3.7 and a degree-d polynomial lie in every class;
        their fits leave rounding alone, where the NNLS's absolute cut of
        small weights kept some from converging."""
        x = np.arange(1, 21) / 20
        for y in (np.full(20, 3.7),
                  sum((m + 1.5) * x ** m for m in range(d + 1))):
            fit = shape_lse(y, d, k)
            assert fit.sse <= 1e-20 * float(y @ y), (d, k)

    def test_budget_guard(self):
        from l0spline.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError) as exc:
            shape_lse(np.ones(300), d=0, k=4, budget=1000)
        assert "budget" in str(exc.value).lower()


class TestShapeScreen:
    """shape_lse screens (knots, pivot) pairs by batched NNLS solves on
    columns projected once, then refits only the pairs near the best.  It
    must return bit for bit what fitting every pair returns
    (oracles.shape_pair_scan)."""

    @staticmethod
    def _cases(count, key=72, ks=(1, 4), spread=9):
        """Seeded (y, d, k): d <= 3, k in [ks[0]; ks[1]), n below
        k (d + 1) + spread, and noise, zero, rounded, offset-1e3,
        exact-member and noisy-member inputs."""
        for case in range(count):
            rng = np.random.default_rng([key, case])
            d = int(rng.integers(0, 4))
            k = int(rng.integers(*ks))
            n = int(rng.integers(max(k * (d + 1), k + 1),
                                 k * (d + 1) + spread))
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

    @staticmethod
    def assert_same(fit, ref):
        assert fit.knots == ref.knots
        assert fit.canonical == ref.canonical
        assert fit.sse == ref.sse
        assert fit.coeffs == ref.coeffs
        assert np.array_equal(fit.theta_hat.values, ref.theta_hat.values)

    def test_matches_scan(self):
        for y, d, k in self._cases(200):
            self.assert_same(shape_lse(y, d, k), orc.shape_pair_scan(y, d, k))

    def test_refits_only_near_ties(self, monkeypatch):
        """The scan built a full result for each of the 696 pairs at
        n=20, d=1, k=3.  Now the pairs are screened by one batched solve
        and nnls_activeset runs only for the refits of the pairs screened
        near the best, the winner among them, whose fit is reused."""
        import l0spline.shape as shape

        refits, solves = [], []
        fit, nnls = shape._ConeProblem.fit, shape.nnls_activeset

        def counting_fit(self, kv, j_star, F):
            refits.append((kv.knots, j_star))
            return fit(self, kv, j_star, F)

        def counting_nnls(*a, **kw):
            solves.append(a)
            return nnls(*a, **kw)

        monkeypatch.setattr(shape._ConeProblem, "fit", counting_fit)
        monkeypatch.setattr(shape, "nnls_activeset", counting_nnls)
        y = np.random.default_rng(82).normal(size=20)
        result = shape_lse(y, 1, 3)
        assert count_knot_vectors(20, 3, 1) * 4 == 696
        assert (result.knots.knots, result.canonical.j_star) in refits
        assert len(solves) == len(refits) < 20


class TestNnlsScreen:
    """The batched active set behind shape_lse scores every (knots,
    pivot) pair; each score must be that pair's NNLS residual."""

    @staticmethod
    def _cases(count):
        """Seeded (y, d, k): d <= 3, k <= 5, knot vectors with empty
        pieces (duplicate and zero columns), and noise, rounded,
        offset-1e3, exact-member and zero inputs."""
        for case in range(count):
            rng = np.random.default_rng([91, case])
            d = int(rng.integers(0, 4))
            k = int(rng.integers(1, 6))
            n = int(rng.integers(max(k * (d + 1), k + 1),
                                 max(k * (d + 1), k + 1) + 4))
            kind = ("noise", "rounded", "offset", "member", "zero")[case % 5]
            y = rng.normal(size=n)
            if kind == "rounded":
                y = np.round(y)
            elif kind == "offset":
                y = y + 1e3
            elif kind == "member" and n >= k * (d + 1) + 2 * d + 1:
                y, _, _ = sample_shape_member(rng, d, k, n)
            elif kind == "zero":
                y = np.zeros(n)
            yield y, d, k

    @staticmethod
    def _screen(y, d, k):
        """The screen's arguments for every pair: the projected hinge
        block at knots 0..n, projected y and the pair columns."""
        from l0spline.shape import _ConeProblem, _hinge_block, _pair_columns

        n = y.size
        cone = _ConeProblem(y, d)
        F = cone.project(_hinge_block(n, d, np.arange(n + 1)))
        knots = np.array(list(iter_knot_vectors(n, k, d)))
        return F, cone.y_perp, _pair_columns(knots, n)

    def test_scores_match_scipy_nnls(self):
        from scipy.optimize import nnls as scipy_nnls

        from l0spline.shape import _nnls_screen

        checked = 0
        for y, d, k in self._cases(60):
            F, y_perp, idx = self._screen(y, d, k)
            score = _nnls_screen(F, y_perp, idx)
            assert score.shape == (idx.shape[0],)
            for p, cols in enumerate(idx):
                # scipy's nnls misreports rank-deficient problems, so it
                # gets the pair's distinct nonzero columns, which span the
                # same cone, and its residual is recomputed
                A = F[:, np.unique(cols)]
                A = A[:, np.any(A != 0, axis=0)]
                r = y_perp - A @ scipy_nnls(A, y_perp)[0]
                assert abs(score[p] - r @ r) <= 1e-12 * float(y @ y)
            checked += idx.shape[0]
        assert checked > 10_000

    def test_kept_buffer_changes_no_score(self, monkeypatch):
        """The gathered columns live in a buffer kept between calls
        (model._chunk_buffer).  Whatever an earlier call left there, the
        scores are those of freshly zeroed columns, bit for bit, rows
        padded to k + 1 > n included."""
        import l0spline.model as model
        import l0spline.shape as shape

        rng = np.random.default_rng(95)
        F, y = np.abs(rng.normal(size=(3, 6))), rng.normal(size=3)
        cases = [(F, y, rng.integers(0, 6, size=(40, 4)))]
        cases += [self._screen(y, d, k) for y, d, k in self._cases(20)]
        scores = []
        for args in cases:
            shape._nnls_screen(*args)
            model._chunks.buffers["nnls"].fill(np.nan)
            scores.append(shape._nnls_screen(*args))
        monkeypatch.setattr(shape, "_chunk_buffer",
                            lambda key, size: np.zeros(size))
        for args, score in zip(cases, scores):
            assert shape._nnls_screen(*args).tobytes() == score.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts glibc's minor page faults")
    def test_warm_calls_take_no_page_faults(self):
        """Standalone, gathered columns freed at the end of every call
        went back to the operating system: 672 minor page faults in the
        screens of one shape_lse call that screens all 1872 pairs."""
        probe = (
            "import resource\n"
            "import l0spline.shape as shape\n"
            "from l0spline.experiments import build_signal, simulate\n"
            "theta = build_signal('shaped_lf', 32, 1, 3, 1.0).values\n"
            "y = simulate(theta, 1.0, 1, 8006).values\n"
            "screen, faults = shape._nnls_screen, []\n"
            "def counted(*args):\n"
            "    a = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    out = screen(*args)\n"
            "    faults.append(resource.getrusage(\n"
            "        resource.RUSAGE_SELF).ru_minflt - a)\n"
            "    return out\n"
            "shape._nnls_screen = counted\n"
            "calls = []\n"
            "for _ in range(8):\n"
            "    faults.clear()\n"
            "    shape.shape_lse(y, 1, 3)\n"
            "    calls.append(sum(faults))\n"
            "print(sorted(calls[2:])[3])\n")
        # the child imports the package this suite imported
        src = str(Path(shape_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert int(out) <= 10

    def test_iteration_cap_raises(self):
        from l0spline.shape import _nnls_screen

        F, y_perp, idx = self._screen(
            np.random.default_rng(4).normal(size=9), 1, 2)
        with pytest.raises(NonConvergenceError):
            _nnls_screen(F, y_perp, idx, max_iter=0)
        _nnls_screen(F, y_perp, idx, max_iter=2)


class TestOneCone:
    """At fixed knots the union of the k + 1 pivot cones is one cone: a
    free polynomial of degree <= d plus nonnegative right hinges at the
    distinct inner knots.  shape_lse's walk over knot sets rests on it."""

    def test_least_pivot_cost_is_the_set_cone_cost(self):
        from scipy.optimize import nnls as scipy_nnls

        checked = 0
        for y, d, k in TestShapeScreen._cases(200):
            n, yy = y.size, float(y @ y)
            for knots in iter_knot_vectors(n, k, d):
                kv = KnotVector(knots, d)
                least = min(fit_shape_given_knots(y, d, kv, j_star).sse
                            for j_star in range(k + 1))
                # the set's distinct nonzero hinge columns, off the free
                # polynomial; scipy's residual is recomputed
                inner = sorted({t for t in knots if 0 < t < n})
                X = orc.truncated_power_design(n, d, d - 1, (0, *inner, n))
                Q, _ = np.linalg.qr(X[:, :d + 1])
                r = y - Q @ (Q.T @ y)
                A = X[:, d + 1:] - Q @ (Q.T @ X[:, d + 1:])
                if A.shape[1]:
                    r = r - A @ scipy_nnls(A, r)[0]
                assert abs(least - r @ r) <= 1e-12 * yy
                checked += 1
        assert checked > 3_000


class TestShapePruning:
    """shape_lse screens the cone of each knot set in increasing order of
    the set's smooth spline cost, its _KnotScreen score, which bounds the
    cone cost of every pivot of every knot vector on the set from below.
    It stops once no bound comes within tol of the least cone cost so
    far, and expands only the sets whose cone cost lies within tol of
    it into (knots, pivot) pairs."""

    @staticmethod
    def _benchmark_inputs():
        """d=1, k=3 inputs like the benchmark's shape replicates: a
        convex member times 10 plus unit noise at n = 32 and 34, and the
        shaped least favorable signal plus unit noise at n = 32."""
        from l0spline.experiments import build_signal

        shaped = build_signal("shaped_lf", 32, 1, 3, 1.0).values
        for seed in range(2):
            rng = np.random.default_rng([75, seed])
            for n in (32, 34):
                member, _, _ = sample_shape_member(rng, 1, 3, n)
                yield 10.0 * member + rng.normal(size=n), 1, 3
            yield shaped + rng.normal(size=32), 1, 3

    def test_one_vector_per_chunk_matches_scan(self, monkeypatch):
        """A _PAIR_CHUNK of k + 1 pairs makes chunks of one knot set, so
        the stop rule applies at every set boundary, and screens the
        expanded pairs one knot vector at a time."""
        import l0spline.shape as shape

        cases = [*TestShapeScreen._cases(200),
                 *TestShapeScreen._cases(12, key=74, ks=(4, 5), spread=5),
                 *self._benchmark_inputs()]
        for y, d, k in cases:
            monkeypatch.setattr(shape, "_PAIR_CHUNK", k + 1)
            TestShapeScreen.assert_same(shape_lse(y, d, k),
                                        orc.shape_pair_scan(y, d, k))

    def test_bound_holds(self):
        """The bound of knot vector v is the _KnotScreen score of v's
        distinct inner knots, the (d, d - 1) spline cost there, and
        neither v's set cone nor any pivot of v screens below it."""
        from l0spline.model import _KnotScreen
        from l0spline.shape import _ConeProblem, _nnls_screen

        checked = 0
        for y, d, k in TestNnlsScreen._cases(60):
            n, yy = y.size, float(y @ y)
            F, y_perp, idx = TestNnlsScreen._screen(y, d, k)
            score = _nnls_screen(F, y_perp, idx).reshape(-1, k + 1)
            screen = _KnotScreen(y, d, d - 1, k)
            sets = screen.sets
            H, y_set = _ConeProblem(y, d).set_cone()
            cone = _nnls_screen(H, y_set, sets)
            assert np.all(cone >= screen.score - 1e-12 * yy)
            bound = {tuple(t for t in row if t < n): s
                     for row, s in zip(sets.tolist(), screen.score)}
            assert len(bound) == sets.shape[0]
            for v, kv in enumerate(iter_knot_vectors(n, k, d)):
                inner = tuple(sorted({t for t in kv if 0 < t < n}))
                assert np.all(score[v] >= bound[inner] - 1e-12 * yy)
                X = orc.truncated_power_design(n, d, d - 1, (0, *inner, n))
                r = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
                assert abs(bound[inner] - r @ r) <= 1e-9 * yy
                checked += 1
        assert checked > 2_000

    def test_left_hinges_only_at_expanded_knots(self, monkeypatch):
        """The set screen reads right hinges alone, so left hinges are
        built only at the knots of the vectors the pair stage expands,
        not at all n + 1 knots."""
        import l0spline.shape as shape

        built, expanded = [], set()
        left_hinge, realizations = shape._left_hinge, shape._realizations

        def recording_left(i, knot, n, d):
            built.extend(np.atleast_1d(knot).tolist())
            return left_hinge(i, knot, n, d)

        def recording_realizations(distinct, k):
            for v in realizations(distinct, k):
                expanded.update(v)
                yield v

        monkeypatch.setattr(shape, "_left_hinge", recording_left)
        monkeypatch.setattr(shape, "_realizations", recording_realizations)
        y = np.random.default_rng(77).normal(size=400)
        shape_lse(y, 1, 2)
        assert sorted(built) == sorted(expanded)
        assert len(built) < 401 // 10

    def test_prunes_most_pairs(self, monkeypatch):
        """On a convex member with noise, fewer than a quarter of the 408
        knot sets reach the screen, and fewer than 2 % of the 1872 pairs;
        the winner's set and pair are among them.  The pairs index the
        hinge block at the distinct knots of their vectors."""
        import l0spline.shape as shape

        sets, pairs, blocks = [], [], []
        screen, hinge_block = shape._nnls_screen, shape._hinge_block

        def counting(F, y, idx, *args, **kwargs):
            # a set's cone has n + 1 columns, the pairs' block two per
            # distinct knot
            (sets if F.shape[1] == 33 else pairs).extend(
                map(tuple, idx.tolist()))
            return screen(F, y, idx, *args, **kwargs)

        def recording(n, d, knots):
            blocks.append(np.asarray(knots).tolist())
            return hinge_block(n, d, knots)

        monkeypatch.setattr(shape, "_nnls_screen", counting)
        monkeypatch.setattr(shape, "_hinge_block", recording)
        rng = np.random.default_rng(76)
        member, _, _ = sample_shape_member(rng, 1, 3, 32)
        fit = shape_lse(10.0 * member + rng.normal(size=32), 1, 3)
        assert shape._KnotScreen(np.ones(32), 1, 0, 3).score.size == 408
        assert count_knot_vectors(32, 3, 1) * 4 == 1872
        assert len(sets) < 408 // 4
        assert len(pairs) < 1872 // 50
        knots = fit.knots.knots
        inner = sorted({t for t in knots if 0 < t < 32})
        assert tuple(inner + [32] * (2 - len(inner))) in sets
        u = blocks[-1]
        local = np.array([[u.index(t) for t in knots]])
        cols = shape._pair_columns(local, len(u) - 1)
        assert tuple(cols[fit.canonical.j_star].tolist()) in pairs


class TestShapeScaleInvariance:
    """Rescaling y rescales the fit and nothing else: the fit runs on the
    unit series and no NNLS threshold is absolute, so small-scale data are
    not stopped early."""

    @pytest.mark.parametrize("factor", [1e-8, 1e6, 1e-15, 1e-20, 1e-100])
    def test_same_knots_and_pivot(self, factor):
        for seed in range(30):
            y = np.random.default_rng(seed).normal(size=20)
            fit = shape_lse(y, 1, 2)
            scaled = shape_lse(factor * y, 1, 2)
            assert scaled.knots == fit.knots
            assert scaled.canonical.j_star == fit.canonical.j_star
            assert abs(scaled.sse / factor ** 2 - fit.sse) <= 1e-9 * fit.sse


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

    @pytest.mark.parametrize("scale", (1e160, 1e-170))
    def test_extreme_scales(self, scale):
        """At 1e160 the plain norm overflows, at 1e-170 it underflows to
        0; both gave 0.0.  With and without the member's knots."""
        theta, knots, _ = sample_shape_member(np.random.default_rng(1), 1,
                                              2, 20)
        ref = coef_bound_statistic(theta, d=1, k=2)
        assert ref > 1
        for kn in (None, knots):
            got = coef_bound_statistic(scale * theta, d=1, k=2, knots=kn)
            assert abs(got - ref) <= 1e-9 * ref

    def test_non_member_rejected(self):
        with pytest.raises(ValidationError):
            coef_bound_statistic(np.array([3.0, 1.0, 2.0, 0.0]), d=1, k=2)

    def test_non_member_rejected_at_given_knots(self):
        with pytest.raises(ValidationError, match="not a class member"):
            coef_bound_statistic(np.array([3.0, 1.0, 2.0, 0.0]), d=1, k=2,
                                 knots=(0, 2, 4))


class TestSampleShapeMember:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError, match="degree"):
            sample_shape_member(np.random.default_rng(0), -1, 2, 6)
