import math
import warnings

import numpy as np
import pytest

import oracles as orc
from l0spline import (
    BudgetExceededError,
    KnotVector,
    ModelParams,
    ValidationError,
    check_membership,
    count_knot_vectors,
    evaluate_spline,
    iter_knot_vectors,
    local_coefficients_from_truncated_power,
    raw_basis,
)
from l0spline.experiments import complexity_width
from l0spline.model import _KnotScreen, _pad_knots, _reexpand_coefs
from l0spline.shape import (
    coef_bound_statistic,
    fit_shape_given_knots,
    shape_lse,
)
from l0spline.solvers import (
    FitResult,
    _backtrack,
    _dp_table,
    _knot_cost,
    PenaltySpec,
    adaptive_fit,
    default_k_max,
    dp_fit,
    estimate_sigma,
    exhaustive_fit,
    fit_fixed_k,
    fit_given_knots,
    penalty,
    segment_cost,
)


class TestSegmentCost:
    def test_mean_fit(self):
        sse, coef = segment_cost([1, 2, 3], 0)
        assert sse == pytest.approx(2.0)
        np.testing.assert_allclose(coef, [2.0])

    def test_collinear_is_exact(self):
        y = 0.5 * np.arange(1, 8) - 2.0
        sse, _ = segment_cost(y, 1)
        assert sse == pytest.approx(0.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            segment_cost([1.0, 2.0], 2)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(99)
        y = rng.standard_normal(9)
        sse, _ = segment_cost(y, 2)
        o_sse, _ = orc.segment_poly_fit(y, 0, 9, 2, 9)
        assert sse == pytest.approx(o_sse, abs=1e-9)


class TestFitGivenKnots:
    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(5)
        knots = (0, 4, 8)
        X = orc.truncated_power_design(8, 1, 0, knots)
        theta0 = X @ rng.standard_normal(3)
        p = ModelParams(d=1, d0=0, k=2, n=8)
        fr = fit_given_knots(theta0, p, knots)
        assert fr.sse == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(fr.theta_hat.values, theta0, atol=1e-9)

    def test_decoupling_matches_segment_costs(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(10)
        p = ModelParams(d=1, d0=-1, k=2, n=10)
        fr = fit_given_knots(y, p, (0, 4, 10))
        s1, _ = segment_cost(y[:4], 1)
        s2, _ = segment_cost(y[4:], 1)
        assert fr.sse == pytest.approx(s1 + s2, abs=1e-10)

    def test_matches_dense_constrained_solve(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(6)
        p = ModelParams(d=1, d0=0, k=2, n=6)
        fr = fit_given_knots(y, p, (0, 3, 6))
        X = orc.truncated_power_design(6, 1, 0, (0, 3, 6))
        _, o_sse = orc.ls_fit(X, y)
        assert fr.sse == pytest.approx(o_sse, abs=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = int(rng.integers(0, 3))
            d0 = int(rng.integers(-1, d))
            n = 12
            knots = (0, 6, 12)
            y = rng.standard_normal(n)
            p = ModelParams(d=d, d0=d0, k=2, n=n)
            fr = fit_given_knots(y, p, knots)
            X = raw_basis(n, d, d0, knots)
            resid = y - fr.theta_hat.values
            assert np.max(np.abs(X.T @ resid)) < 1e-7 * np.linalg.norm(y)

    def test_piece_count_mismatch(self):
        p = ModelParams(d=0, d0=-1, k=3, n=6)
        with pytest.raises(ValidationError):
            fit_given_knots(np.zeros(6), p, (0, 3, 6))

    def test_empty_pieces_carry_none(self):
        y = np.arange(6.0)
        p = ModelParams(d=0, d0=-1, k=3, n=6)
        fr = fit_given_knots(y, p, (0, 3, 3, 6))
        assert fr.coeffs[1] is None
        assert fr.coeffs[0] is not None


class TestDpFit:
    def test_step_recovery(self):
        y = np.array([0, 0, 0, 5, 5, 5], float)
        fr = dp_fit(y, ModelParams(d=0, d0=-1, k=2, n=6))
        assert fr.knots.knots == (0, 3, 6)
        assert fr.sse == pytest.approx(0.0, abs=1e-18)

    def test_single_piece_equals_segment_cost(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(15)
        fr = dp_fit(y, ModelParams(d=1, d0=-1, k=1, n=15))
        sse, _ = segment_cost(y, 1)
        assert fr.sse == pytest.approx(sse, abs=1e-9)

    def test_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(6, 21))
            d = int(rng.integers(0, 2))
            k = int(rng.integers(1, 4))
            y = rng.standard_normal(n)
            p = ModelParams(d=d, d0=-1, k=k, n=n)
            f1 = dp_fit(y, p)
            f2 = exhaustive_fit(y, p)
            assert f1.sse == pytest.approx(f2.sse, abs=1e-9)

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(8, 16))
            y = rng.standard_normal(n)
            p = ModelParams(d=0, d0=-1, k=3, n=n)
            fr = dp_fit(y, p)
            o_sse, o_knots = orc.brute_force_best_fit(y, 0, -1, 3)
            assert fr.sse == pytest.approx(o_sse, abs=1e-9)

    def test_lex_tie_break_prefers_leading_empties(self):
        y = np.zeros(8)
        fr = dp_fit(y, ModelParams(d=0, d0=-1, k=3, n=8))
        assert fr.knots.knots == (0, 0, 0, 8)

    def test_requires_discontinuous_class(self):
        with pytest.raises(ValidationError):
            dp_fit(np.zeros(6), ModelParams(d=0, d0=0, k=2, n=6))

    def test_short_last_piece_at_degree_5(self):
        """A 12-point last piece at d=5 is refit in its own (j/L)^l basis,
        where a (j/n)^l basis is numerically rank deficient."""
        n, d = 300, 5
        x = np.arange(1, n + 1) / n
        rng = np.random.default_rng(33)
        y = np.sin(3 * x) + 5.0 * (x > 288 / n) + 0.5 * rng.standard_normal(n)
        o_sse, o_knots = min(
            (sum(orc.segment_poly_fit(y, lo, hi, d, hi - lo)[0]
                 for lo, hi in zip(kn, kn[1:]) if hi > lo), kn)
            for kn in orc.iter_knot_vectors(n, 2, d))
        p = ModelParams(d=d, d0=-1, k=2, n=n)
        fr = dp_fit(y, p)
        assert fr.knots.knots == o_knots == (0, 288, 300)
        assert fr.sse == pytest.approx(o_sse, rel=1e-9)
        fk = fit_given_knots(y, p, o_knots)
        assert fk.sse == pytest.approx(o_sse, rel=1e-9)
        np.testing.assert_allclose(evaluate_spline(fk.spline),
                                   fk.theta_hat.values, atol=1e-9)


    def test_offset_1e4_at_degree_5(self):
        """With an offset of 1e4 at d=5 the sweeper's normal equations lost
        the optimum, (0, 150, 300) at SSE 68.006; the global degree-d fit
        removed before sweeping keeps the exact optimum."""
        n, d = 300, 5
        x = np.arange(1, n + 1) / n
        gen = np.random.Generator(np.random.Philox(key=[0, 6]))
        y = 1e4 + (x > 0.5) + 3 * x ** 2 + 0.5 * gen.standard_normal(n)
        p = ModelParams(d=d, d0=-1, k=2, n=n)
        fr = dp_fit(y, p)
        ex = exhaustive_fit(y, p)
        assert fr.knots.knots == ex.knots.knots == (0, 151, 300)
        assert fr.sse == pytest.approx(ex.sse, rel=1e-9)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_matches_exhaustive_with_large_offset(self, d):
        for n in (40, 50, 60):
            rng = np.random.default_rng([d, n])
            x = np.arange(1, n + 1) / n
            y = (1e4 + (x > 0.4) + np.sin(3 * x)
                 + 0.3 * rng.standard_normal(n))
            p = ModelParams(d=d, d0=-1, k=2, n=n)
            fr = dp_fit(y, p)
            ex = exhaustive_fit(y, p)
            assert fr.knots.knots == ex.knots.knots
            assert fr.sse == pytest.approx(ex.sse, rel=1e-9)


class TestExhaustiveFit:
    def test_budget_refusal_reports_count(self):
        from l0spline import count_knot_vectors

        p = ModelParams(d=0, d0=-1, k=4, n=60)
        with pytest.raises(BudgetExceededError) as exc:
            exhaustive_fit(np.zeros(60), p, budget=100)
        assert str(count_knot_vectors(60, 4, 0)) in str(exc.value)

    def test_best_single_split_scan(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(12)
        p = ModelParams(d=0, d0=-1, k=2, n=12)
        fr = exhaustive_fit(y, p)
        best = np.inf
        for m in range(0, 13):
            sse = 0.0
            for seg in (y[:m], y[m:]):
                if seg.size:
                    sse += float(np.sum((seg - seg.mean()) ** 2))
            best = min(best, sse)
        assert fr.sse == pytest.approx(best, abs=1e-9)

    def test_nested_classes_decrease_sse(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal(10)
        sses = []
        for k in (1, 2, 3):
            p = ModelParams(d=0, d0=-1, k=k, n=10)
            sses.append(exhaustive_fit(y, p).sse)
        assert sses[0] >= sses[1] - 1e-12 >= sses[2] - 2e-12

    def test_lex_tie_break(self):
        y = np.zeros(8)
        fr = exhaustive_fit(y, ModelParams(d=0, d0=-1, k=3, n=8))
        assert fr.knots.knots == (0, 0, 0, 8)

    def test_smooth_classes_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(8, 14))
            d = int(rng.integers(1, 3))
            d0 = int(rng.integers(0, d))
            k = int(rng.integers(2, 4))
            y = rng.standard_normal(n)
            p = ModelParams(d=d, d0=d0, k=k, n=n)
            fr = exhaustive_fit(y, p)
            o_sse, _ = orc.brute_force_best_fit(y, d, d0, k)
            assert fr.sse == pytest.approx(o_sse, abs=1e-9)


def _screen_cases(count, smooth_only):
    """Seeded (y, d, d0, k) cases: d <= 3, every d0, k <= 3, and noise,
    zero, rounded, offset-1e3 and exact-member inputs."""
    for case in range(count):
        rng = np.random.default_rng([71, case])
        d = int(rng.integers(0 if not smooth_only else 1, 4))
        d0 = int(rng.integers(0 if smooth_only else -1, d))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(d + 1, (d + 1) * k + 9))
        kind = ("noise", "zero", "rounded", "offset", "member")[case % 5]
        y = rng.standard_normal(n)
        if kind == "zero":
            y = np.zeros(n)
        elif kind == "rounded":
            y = np.round(y)
        elif kind == "offset":
            y = y + 1e3
        elif kind == "member":
            inner, t = [], 0
            for _ in range(k - 1):
                if t + d + 1 > n - d - 1:
                    break
                t = int(rng.integers(t + d + 1, n - d))
                inner.append(t)
            X = raw_basis(n, d, d0, (0, *inner, n))
            y = X @ rng.standard_normal(X.shape[1])
        yield y, ModelParams(d=d, d0=d0, k=k, n=n)


class TestKnotScreen:
    """exhaustive_fit (every d0), the enumeration path of complexity_width
    and check_membership screen each distinct knot set once and rescore
    only the sets near the best.  Each must return bit for bit what the
    per-configuration scan it replaced returns; the scans are copied here
    as the reference."""

    def test_exhaustive_fit_matches_scan(self):
        for y, p in _screen_cases(200, smooth_only=True):
            best_sse, best_knots = np.inf, None
            for knots in iter_knot_vectors(p.n, p.k, p.d):
                key = KnotVector(knots, p.d).distinct()
                X = raw_basis(p.n, p.d, p.d0, key)
                coef, _, _, _ = np.linalg.lstsq(X, y, rcond=1e-10)
                r = y - X @ coef
                sse = float(r @ r)
                if sse < best_sse:
                    best_sse, best_knots = sse, knots
            ref = fit_given_knots(y, p, best_knots)
            fr = exhaustive_fit(y, p)
            assert fr.knots == ref.knots
            assert fr.sse == ref.sse == best_sse
            assert fr.coeffs == ref.coeffs
            assert np.array_equal(fr.theta_hat.values, ref.theta_hat.values)

    def test_complexity_width_matches_scan(self):
        for eps, p in _screen_cases(200, smooth_only=False):
            if p.d == 0 and p.d0 == -1 and p.k in (2, 3):
                continue  # prefix-sum paths, not screened
            best, seen = 0.0, set()
            for knots in iter_knot_vectors(p.n, p.k, p.d):
                key = tuple(sorted(set(knots)))
                if key in seen:
                    continue
                seen.add(key)
                X = raw_basis(p.n, p.d, p.d0, key)
                coef, _, _, _ = np.linalg.lstsq(X, eps, rcond=None)
                proj = X @ coef
                best = max(best, float(proj @ proj))
            assert complexity_width(eps, p) == best

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    def test_check_membership_matches_scan(self, tol):
        for theta, p in _screen_cases(200, smooth_only=False):
            ref, seen = (False, None), set()
            for knots in iter_knot_vectors(p.n, p.k, p.d):
                key = KnotVector(knots, p.d).distinct()
                if key in seen:
                    continue
                seen.add(key)
                X = raw_basis(p.n, p.d, p.d0, key)
                coef, _, _, _ = np.linalg.lstsq(X, theta, rcond=None)
                if np.max(np.abs(X @ coef - theta)) <= tol:
                    kv = KnotVector(_pad_knots(key, p.k), p.d)
                    ref = (True, local_coefficients_from_truncated_power(
                        kv, p.d0, _reexpand_coefs(kv, p.d0, coef)))
                    break
            ok, wit = check_membership(theta, p, tol=tol)
            assert ok == ref[0]
            if ok:
                assert wit.knots == ref[1].knots
                assert wit.coeffs == ref[1].coeffs

    @staticmethod
    def _vector_loop_fit(y, p):
        """The d0 = -1 scan exhaustive_fit ran before it was screened:
        every knot vector in lexicographic order, cached segment costs,
        the first strictly best vector wins."""
        seg_cache = {}

        def cost(knots):
            sse = 0.0
            for lo, hi in zip(knots, knots[1:]):
                if lo == hi:
                    continue
                c = seg_cache.get((lo, hi))
                if c is None:
                    c, _ = segment_cost(y[lo:hi], p.d)
                    seg_cache[(lo, hi)] = c
                sse += c
            return sse

        best_sse, best_knots = np.inf, None
        for knots in iter_knot_vectors(p.n, p.k, p.d):
            sse = cost(knots)
            if sse < best_sse:
                best_sse, best_knots = sse, knots
        return fit_given_knots(y, p, best_knots)

    def test_exhaustive_fit_d0_minus_one_matches_vector_loop(self):
        kinds = ("noise", "zero", "rounded", "offset 1e3", "offset 1e4")
        for case in range(300):
            rng = np.random.default_rng([73, case])
            d = case % 7
            k = int(rng.integers(1, 4))
            n = int(rng.integers(d + 1, (d + 1) * k + 9))
            kind = kinds[case // 7 % 5]
            y = rng.standard_normal(n)
            if kind == "zero":
                y = np.zeros(n)
            elif kind == "rounded":
                y = np.round(y)
            elif kind.startswith("offset"):
                y = y + float(kind.split()[1])
            p = ModelParams(d=d, d0=-1, k=k, n=n)
            ref = self._vector_loop_fit(y, p)
            fr = exhaustive_fit(y, p)
            assert fr.knots == ref.knots, (case, kind)
            assert fr.sse == ref.sse
            assert fr.coeffs == ref.coeffs
            assert np.array_equal(fr.theta_hat.values, ref.theta_hat.values)

    def test_d0_minus_one_costs_only_rescored_sets(self, monkeypatch):
        """At n=60, d=1, d0=-1, k=3 the vector loop walked every knot
        vector and ran segment_cost 1658 times.  The screen walks none;
        segment_cost runs only for the rescored sets and the refit."""
        import l0spline.model as model
        import l0spline.solvers as solvers

        walked, costed = [], []
        cost = solvers.segment_cost

        def counting_iter(*a, **kw):
            walked.append(a)
            return iter_knot_vectors(*a, **kw)

        def counting_cost(*a, **kw):
            costed.append(a)
            return cost(*a, **kw)

        monkeypatch.setattr(model, "iter_knot_vectors", counting_iter)
        monkeypatch.setattr(solvers, "iter_knot_vectors", counting_iter,
                            raising=False)
        monkeypatch.setattr(solvers, "segment_cost", counting_cost)
        y = np.random.default_rng(83).standard_normal(60)
        exhaustive_fit(y, ModelParams(d=1, d0=-1, k=3, n=60))
        assert walked == []
        assert 1 <= len(costed) < 20

    def test_one_design_per_rescored_set(self, monkeypatch):
        """At n=60, d=1, d0=0, k=3 the scan built 1714 designs and ran as
        many lstsq solves.  The screen builds one design, its polynomial
        block, and solves by QR; only the rescored sets and the final
        refit build a design and run lstsq, one each."""
        import l0spline.model as model
        import l0spline.solvers as solvers

        designs, solves = [], []
        raw, lstsq = model.raw_basis, np.linalg.lstsq

        def counting_raw(*a, **kw):
            designs.append(a)
            return raw(*a, **kw)

        def counting_lstsq(*a, **kw):
            solves.append(a)
            return lstsq(*a, **kw)

        n = 60
        y = np.random.default_rng(81).standard_normal(n)
        prefixes = len(_KnotScreen(y, 1, 0, 3)._prefixes)
        monkeypatch.setattr(model, "raw_basis", counting_raw)
        monkeypatch.setattr(solvers, "raw_basis", counting_raw)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        exhaustive_fit(y, ModelParams(d=1, d0=0, k=3, n=n))
        assert prefixes <= n
        assert 3 <= len(designs) <= prefixes
        # lstsq calls = rescored sets + 1 (the final refit)
        assert len(solves) == len(designs) - 1


class TestPenalty:
    def test_single_piece(self):
        spec = PenaltySpec(tau=2.5, sigma=1.5, d=0, d0=-1, n=64)
        assert penalty(1, spec) == pytest.approx(2.5 * 1.5 ** 2)

    def test_iterated_log_regime(self):
        spec = PenaltySpec(tau=1.0, sigma=1.0, d=0, d0=-1, n=64)
        assert penalty(2, spec) == pytest.approx(
            2 * math.log(math.log(8 * 64)))

    def test_log_regime_above_boundary(self):
        spec = PenaltySpec(tau=1.0, sigma=2.0, d=0, d0=-1, n=64)
        k0 = 2
        expect = 4.0 * (k0 + 1) * math.log(math.e * 64 / (k0 + 1))
        assert penalty(k0 + 1, spec) == pytest.approx(expect)

    def test_positive_for_all_k(self):
        spec = PenaltySpec(tau=0.7, sigma=0.3, d=3, d0=1, n=256)
        assert all(penalty(k, spec) > 0 for k in range(1, 257))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PenaltySpec(tau=-1.0, sigma=1.0, d=0, d0=-1, n=16)
        with pytest.raises(ValidationError):
            PenaltySpec(tau=1.0, sigma=0.0, d=0, d0=-1, n=16)
        with pytest.raises(ValidationError):
            penalty(0, PenaltySpec(tau=1.0, sigma=1.0, d=0, d0=-1, n=16))
        # non-finite multipliers, and a sigma whose square overflows
        for tau, sigma in [(math.nan, 1.0), (math.inf, 1.0),
                           (1.0, math.nan), (1.0, math.inf),
                           (1e10, 1e308), (0.0, 1e200)]:
            with pytest.raises(ValidationError):
                PenaltySpec(tau=tau, sigma=sigma, d=0, d0=-1, n=16)


class TestAdaptiveFit:
    def test_huge_tau_selects_one_piece(self):
        rng = np.random.default_rng(18)
        y = np.concatenate([np.zeros(8), np.ones(8)]) \
            + 0.01 * rng.standard_normal(16)
        p = ModelParams(d=0, d0=-1, k=1, n=16)
        spec = PenaltySpec(tau=1e9, sigma=1.0, d=0, d0=-1, n=16)
        fr = adaptive_fit(y, p, spec)
        assert fr.k_selected == 1

    def test_zero_tau_ties_to_smallest_k(self):
        theta0 = np.repeat([1.0, 4.0], 5)
        p = ModelParams(d=0, d0=-1, k=1, n=10)
        spec = PenaltySpec(tau=0.0, sigma=1.0, d=0, d0=-1, n=10)
        fr = adaptive_fit(theta0, p, spec, k_max=4)
        assert fr.k_selected == 2
        assert fr.sse == pytest.approx(0.0, abs=1e-18)

    def test_objective_minimal_at_selection(self):
        rng = np.random.default_rng(20)
        y = rng.standard_normal(24)
        p = ModelParams(d=0, d0=-1, k=1, n=24)
        spec = PenaltySpec(tau=2.5, sigma=1.0, d=0, d0=-1, n=24)
        fr, trace = adaptive_fit(y, p, spec, with_trace=True)
        objs = {k: obj for k, sse, pen, obj in trace}
        assert min(objs, key=objs.get) == fr.k_selected
        assert objs[fr.k_selected] == min(objs.values())

    def test_default_k_max(self):
        assert default_k_max(ModelParams(d=0, d0=-1, k=1, n=256)) == 5
        assert default_k_max(ModelParams(d=3, d0=2, k=1, n=12)) == 3

    def test_jump_detection_rate(self):
        """Two-piece step of size 10 sigma is found in at least 95 percent
        of 200 seeded replicates under the default multiplier."""
        n, sigma, tau = 256, 1.0, 2.5
        theta0 = np.concatenate([np.zeros(n // 2), np.full(n // 2, 10.0)])
        p = ModelParams(d=0, d0=-1, k=1, n=n, sigma=sigma)
        spec = PenaltySpec(tau=tau, sigma=sigma, d=0, d0=-1, n=n)
        hits = 0
        for rep in range(200):
            rng = np.random.Generator(np.random.Philox(key=[1234, rep]))
            y = theta0 + sigma * rng.standard_normal(n)
            fr = adaptive_fit(y, p, spec)
            hits += fr.k_selected == 2
        assert hits >= 190

    def test_dp_solver_rejected_for_smooth_classes(self):
        p = ModelParams(d=1, d0=0, k=1, n=8)
        spec = PenaltySpec(tau=1.0, sigma=1.0, d=1, d0=0, n=8)
        with pytest.raises(ValidationError):
            adaptive_fit(np.zeros(8), p, spec, solver="dp")


class TestSingleTable:
    """The dp path of adaptive_fit backtracks every k from one table built
    for k_max; each k must read exactly what dp_fit at that k returns."""

    @pytest.mark.parametrize("kind", ["noise", "zero", "rounded"])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_trace_matches_dp_fit_at_every_k(self, kind, d):
        n = 13
        rng = np.random.default_rng(40 + d)
        y = {"noise": rng.standard_normal(n), "zero": np.zeros(n),
             "rounded": np.round(rng.standard_normal(n))}[kind]
        k_max = n // (d + 1) + 2
        p = ModelParams(d=d, d0=-1, k=1, n=n)
        spec = PenaltySpec(tau=0.5, sigma=1.0, d=d, d0=-1, n=n)
        fr, trace = adaptive_fit(y, p, spec, k_max=k_max, with_trace=True)
        assert [row[0] for row in trace] == list(range(1, k_max + 1))
        table = _dp_table(y, d, k_max)
        for k, sse, _, _ in trace:
            ref = dp_fit(y, ModelParams(d=d, d0=-1, k=k, n=n))
            assert sse == ref.sse
            assert _backtrack(table, k) == ref.knots.knots
        ref = dp_fit(y, ModelParams(d=d, d0=-1, k=fr.k_selected, n=n))
        assert fr.knots == ref.knots
        assert fr.sse == ref.sse

    def test_lex_tie_break_prefers_leading_empties(self):
        n = 8
        table = _dp_table(np.zeros(n), 0, n + 2)
        for k in range(1, n + 3):
            assert _backtrack(table, k) == (0,) * k + (n,)

    def test_one_sweeper_and_no_backtrack_sweeps(self, monkeypatch):
        """One cost engine per table, and every start costed once across
        all k_max rows and the backtracks, also when the pass takes the
        starts in several blocks."""
        import l0spline.solvers as solvers

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
        y = np.random.default_rng(50).standard_normal(n)
        spec = PenaltySpec(tau=2.5, sigma=1.0, d=1, d0=-1, n=n)
        adaptive_fit(y, ModelParams(d=1, d0=-1, k=1, n=n), spec, k_max=6)
        assert len(made) == 1
        assert len(costed) == len(set(costed)) <= n
        assert sorted(costed) == list(range(n - 1))

    def test_rejects_wrong_length(self):
        p = ModelParams(d=0, d0=-1, k=1, n=8)
        spec = PenaltySpec(tau=1.0, sigma=1.0, d=0, d0=-1, n=8)
        with pytest.raises(ValidationError):
            adaptive_fit(np.zeros(7), p, spec)


class TestSingleScreen:
    """The exhaustive path of adaptive_fit reads every k from one knot
    screen built for k_max; each k must read exactly what exhaustive_fit
    at that k returns."""

    @pytest.mark.parametrize("kind", ["noise", "zero", "rounded"])
    @pytest.mark.parametrize("d, d0", [(0, -1), (1, -1), (1, 0), (2, -1),
                                       (2, 0), (2, 1)])
    def test_trace_matches_exhaustive_fit_at_every_k(self, kind, d, d0):
        n = 11
        rng = np.random.default_rng(90 + 3 * d + d0)
        y = {"noise": rng.standard_normal(n), "zero": np.zeros(n),
             "rounded": np.round(rng.standard_normal(n))}[kind]
        k_max = n // (d + 1) + 2
        p = ModelParams(d=d, d0=d0, k=1, n=n)
        spec = PenaltySpec(tau=0.5, sigma=1.0, d=d, d0=d0, n=n)
        fr, trace = adaptive_fit(y, p, spec, k_max=k_max,
                                 solver="exhaustive", with_trace=True)
        assert [row[0] for row in trace] == list(range(1, k_max + 1))
        screen = _KnotScreen(y, d, d0, k_max)
        cost = _knot_cost(y, d, d0)
        for k, sse, _, _ in trace:
            ref = exhaustive_fit(y, ModelParams(d=d, d0=d0, k=k, n=n))
            assert sse == ref.sse
            assert screen.best(cost, k) == ref.knots.knots
        ref = exhaustive_fit(y, ModelParams(d=d, d0=d0, k=fr.k_selected,
                                            n=n))
        assert fr.knots == ref.knots
        assert fr.sse == ref.sse
        assert fr.coeffs == ref.coeffs
        assert np.array_equal(fr.theta_hat.values, ref.theta_hat.values)

    def test_one_screen_per_call(self, monkeypatch):
        import l0spline.solvers as solvers

        made = []

        class Counting(solvers._KnotScreen):
            def __init__(self, *args):
                made.append(args[1:])
                super().__init__(*args)

        monkeypatch.setattr(solvers, "_KnotScreen", Counting)
        n = 30
        y = np.random.default_rng(91).standard_normal(n)
        for d0, solver in [(0, None), (-1, "exhaustive")]:
            made.clear()
            spec = PenaltySpec(tau=2.5, sigma=1.0, d=1, d0=d0, n=n)
            adaptive_fit(y, ModelParams(d=1, d0=d0, k=1, n=n), spec,
                         k_max=4, solver=solver)
            assert made == [(1, d0, 4)]

    def test_budget_refusal_names_first_k_over(self, monkeypatch):
        """Every k is checked before the screen is built, in order, so the
        refusal names the count at the first k over the budget."""
        import l0spline.solvers as solvers

        def no_screen(*args):
            raise AssertionError("screen built before the budget check")

        monkeypatch.setattr(solvers, "_KnotScreen", no_screen)
        n = 40
        # the default k_max is 6; k = 4 is the first over, k = 5 and 6 too
        assert [count_knot_vectors(n, k, 1) for k in (3, 4, 5)] == [
            744, 9291, 85776]
        spec = PenaltySpec(tau=2.5, sigma=1.0, d=1, d0=0, n=n)
        with pytest.raises(BudgetExceededError) as err:
            adaptive_fit(np.random.default_rng(92).standard_normal(n),
                         ModelParams(d=1, d0=0, k=1, n=n), spec,
                         budget=5000)
        assert str(err.value) == (
            "9291 knot configurations exceed the budget of 5000")


class TestNonFiniteInput:
    """Every fitting entry point refuses NaN or inf in y before any work,
    without numpy warnings on the way, and so do the shape fits and the
    membership test."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def _bad(n, value):
        y = np.random.default_rng(60).standard_normal(n)
        y[n // 3] = value
        return y

    @pytest.mark.parametrize("d, value", [(0, np.nan), (1, np.inf),
                                          (2, -np.inf)])
    def test_dp_fit(self, d, value):
        with pytest.raises(ValidationError, match="finite"):
            dp_fit(self._bad(30, value), ModelParams(d=d, d0=-1, k=2, n=30))

    @pytest.mark.parametrize("d0", [-1, 0])
    def test_exhaustive_fit(self, d0):
        with pytest.raises(ValidationError, match="finite"):
            exhaustive_fit(self._bad(20, np.nan),
                           ModelParams(d=1, d0=d0, k=2, n=20))

    def test_fit_given_knots(self):
        with pytest.raises(ValidationError, match="finite"):
            fit_given_knots(self._bad(20, np.inf),
                            ModelParams(d=1, d0=0, k=2, n=20), (0, 10, 20))

    @pytest.mark.parametrize("d0, solver", [(-1, "dp"), (-1, "exhaustive"),
                                            (0, None)])
    def test_adaptive_fit(self, d0, solver):
        spec = PenaltySpec(tau=1.0, sigma=1.0, d=1, d0=d0, n=20)
        with pytest.raises(ValidationError, match="finite"):
            adaptive_fit(self._bad(20, np.nan),
                         ModelParams(d=1, d0=d0, k=1, n=20), spec, k_max=3,
                         solver=solver)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fit_shape_given_knots(self, value):
        with pytest.raises(ValidationError, match="finite"):
            fit_shape_given_knots(self._bad(20, value), 0, (0, 10, 20), 1)

    @pytest.mark.parametrize("d, value", [(0, np.nan), (1, np.nan),
                                          (2, -np.inf)])
    def test_shape_lse(self, d, value):
        with pytest.raises(ValidationError, match="finite"):
            shape_lse(self._bad(20, value), d, 2)

    @pytest.mark.parametrize("knots", [None, (0, 10, 20)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_coef_bound_statistic(self, knots, value):
        with pytest.raises(ValidationError, match="finite"):
            coef_bound_statistic(self._bad(20, value), 1, 2, knots=knots)

    @pytest.mark.parametrize("d0, value", [(-1, np.inf), (0, np.nan)])
    def test_check_membership(self, d0, value):
        with pytest.raises(ValidationError, match="finite"):
            check_membership(self._bad(20, value),
                             ModelParams(d=1, d0=d0, k=2, n=20))


class TestDpDegreeEnvelope:
    """The dynamic program is tested up to d = 6 and refuses above it."""

    @staticmethod
    def _series(n):
        x = np.arange(1, n + 1) / n
        rng = np.random.default_rng(61)
        return 1e4 + (x > 0.4) + np.sin(3 * x) + 0.3 * rng.standard_normal(n)

    def test_degree_6_fits(self):
        y = self._series(50)
        p = ModelParams(d=6, d0=-1, k=2, n=50)
        fr = dp_fit(y, p)
        ex = exhaustive_fit(y, p)
        assert fr.knots.knots == ex.knots.knots
        assert fr.sse == pytest.approx(ex.sse, rel=1e-9)
        spec = PenaltySpec(tau=1.0, sigma=1.0, d=6, d0=-1, n=50)
        _, trace = adaptive_fit(y, ModelParams(d=6, d0=-1, k=1, n=50), spec,
                                k_max=2, solver="dp", with_trace=True)
        assert trace[1][1] == fr.sse

    @pytest.mark.parametrize("d", [7, 8, 11])
    def test_above_6_refuses(self, d):
        y = self._series(50)
        with pytest.raises(ValidationError, match="d <= 6"):
            dp_fit(y, ModelParams(d=d, d0=-1, k=2, n=50))
        spec = PenaltySpec(tau=1.0, sigma=1.0, d=d, d0=-1, n=50)
        p = ModelParams(d=d, d0=-1, k=1, n=50)
        for solver in ("dp", None):
            with pytest.raises(ValidationError, match="d <= 6"):
                adaptive_fit(y, p, spec, k_max=2, solver=solver)

    def test_exhaustive_still_serves_degree_7(self):
        y = self._series(20)
        fr = exhaustive_fit(y, ModelParams(d=7, d0=-1, k=2, n=20))
        assert fr.knots.k == 2


class TestFitFixedK:
    """fit_fixed_k holds the one rule for the solver of a fixed-k fit."""

    @staticmethod
    def _y(n):
        rng = np.random.default_rng(71)
        return (np.arange(n) >= n // 3) * 2.0 + rng.standard_normal(n)

    @staticmethod
    def _same(a, b):
        assert a.knots.knots == b.knots.knots
        assert a.sse == b.sse
        np.testing.assert_array_equal(a.theta_hat.values, b.theta_hat.values)

    @pytest.mark.parametrize("d", [0, 2])
    def test_dp_serves_d0_minus_1(self, d):
        p = ModelParams(d=d, d0=-1, k=3, n=30)
        y = self._y(30)
        self._same(fit_fixed_k(y, p), dp_fit(y, p))
        self._same(fit_fixed_k(y, p, "dp"), dp_fit(y, p))
        self._same(fit_fixed_k(y, p, "exhaustive"), exhaustive_fit(y, p))

    @pytest.mark.parametrize("d, d0", [(1, 0), (2, 0), (2, 1)])
    def test_exhaustive_serves_smooth_classes(self, d, d0):
        p = ModelParams(d=d, d0=d0, k=2, n=24)
        y = self._y(24)
        self._same(fit_fixed_k(y, p), exhaustive_fit(y, p))
        self._same(fit_fixed_k(y, p, "exhaustive"), exhaustive_fit(y, p))

    def test_refusals(self):
        y = self._y(20)
        with pytest.raises(ValidationError, match="supports only d0 = -1"):
            fit_fixed_k(y, ModelParams(d=1, d0=0, k=2, n=20), "dp")
        with pytest.raises(ValidationError, match="unknown solver"):
            fit_fixed_k(y, ModelParams(d=0, d0=-1, k=2, n=20), "greedy")
        for solver in (None, "dp"):
            with pytest.raises(ValidationError, match="d <= 6"):
                fit_fixed_k(y, ModelParams(d=7, d0=-1, k=1, n=20), solver)
        assert fit_fixed_k(y, ModelParams(d=7, d0=-1, k=1, n=20),
                           "exhaustive").knots.k == 1

    @pytest.mark.parametrize("d0, solver", [(0, None), (-1, "exhaustive")])
    def test_budget_reaches_the_scan(self, d0, solver):
        p = ModelParams(d=1, d0=d0, k=3, n=30)
        with pytest.raises(BudgetExceededError):
            fit_fixed_k(self._y(30), p, solver, budget=10)


def _jump_noise(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 3.0 * (np.arange(n) >= 2 * n // 5)


def _invariance_cases(fit, d, d0, k, n, seeds):
    """The knots of fit on y against y rescaled and y plus a polynomial."""
    x = np.arange(1, n + 1) / n
    for seed in seeds:
        y = _jump_noise(n, seed)
        p = ModelParams(d=d, d0=d0, k=k, n=n)
        base = fit(y, p)
        for scale in (4.0, 2.0 ** -10):
            # a power of two scales every rounding exactly
            fr = fit(scale * y, p)
            assert fr.knots.knots == base.knots.knots, (seed, scale)
            assert fr.sse == scale ** 2 * base.sse, (seed, scale)
        assert fit(3.7 * y, p).knots.knots == base.knots.knots, seed
        coef = np.random.default_rng(seed + 1000).uniform(-100, 100, d + 1)
        poly = sum(c * x ** m for m, c in enumerate(coef))
        assert fit(y + poly, p).knots.knots == base.knots.knots, seed


class TestInvariance:
    """Knots do not move when y is rescaled or a degree-d polynomial is
    added, which leaves every class's least squares problem the same."""

    @pytest.mark.parametrize("d", range(7))
    @pytest.mark.parametrize("k", [2, 3])
    def test_dp_fit(self, d, k):
        _invariance_cases(dp_fit, d, -1, k, 80, range(5))

    @pytest.mark.parametrize("d, d0", [(d, d0) for d in range(3)
                                       for d0 in range(-1, d)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_exhaustive_fit(self, d, d0, k):
        _invariance_cases(exhaustive_fit, d, d0, k, 36, range(5))


class TestFitResultInvariants:
    def test_sse_recomputable(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal(12)
        p = ModelParams(d=1, d0=-1, k=2, n=12)
        fr = dp_fit(y, p)
        recomputed = float(np.sum((y - fr.theta_hat.values) ** 2))
        assert fr.sse == pytest.approx(recomputed, rel=1e-9)

    def test_fit_is_class_member(self):
        rng = np.random.default_rng(23)
        y = rng.standard_normal(10)
        p = ModelParams(d=0, d0=-1, k=2, n=10)
        fr = dp_fit(y, p)
        ok, _ = check_membership(fr.theta_hat.values, p, tol=1e-7)
        assert ok

    def test_spline_property_round_trips(self):
        rng = np.random.default_rng(24)
        y = rng.standard_normal(9)
        p = ModelParams(d=2, d0=1, k=2, n=9)
        fr = exhaustive_fit(y, p)
        np.testing.assert_allclose(evaluate_spline(fr.spline),
                                   fr.theta_hat.values, atol=1e-10)


def test_estimate_sigma_recovers_scale():
    rng = np.random.default_rng(25)
    y = 3.0 + 2.0 * rng.standard_normal(4000)
    assert estimate_sigma(y) == pytest.approx(2.0, rel=0.1)


def test_estimate_sigma_ignores_sparse_jumps():
    rng = np.random.default_rng(26)
    theta = np.concatenate([np.zeros(500), np.full(500, 50.0)])
    y = theta + 1.0 * rng.standard_normal(1000)
    assert estimate_sigma(y) == pytest.approx(1.0, rel=0.15)
