import math
import warnings

import numpy as np
import pytest

import oracles as orc
from l0spline import (
    BudgetExceededError,
    KnotEndpointError,
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
from l0spline import model
from l0spline.experiments import complexity_width
from l0spline.model import _KnotScreen, _pad_knots
from l0spline.shape import (
    coef_bound_statistic,
    fit_shape_given_knots,
    shape_lse,
)
from l0spline.solvers import (
    FitResult,
    _SegmentSweeper,
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

    def test_knot_vector_checked_like_its_tuple(self):
        y = np.random.default_rng(6).standard_normal(20)
        p = ModelParams(d=1, d0=-1, k=2, n=20)
        for knots in ((0, 10, 30), KnotVector((0, 10, 30), 1)):
            with pytest.raises(KnotEndpointError):
                fit_given_knots(y, p, knots)

    def test_fractional_last_knot_refused(self):
        """10.9 is not the grid end 10, nor any grid index."""
        y = np.random.default_rng(6).standard_normal(10)
        p = ModelParams(d=1, d0=0, k=2, n=10)
        for knots in ((0, 5, 10.9), (0, 5.5, 10)):
            with pytest.raises(ValidationError, match="finite integers"):
                fit_given_knots(y, p, knots)

    def test_empty_pieces_anywhere(self):
        """Every valid knot vector of a smooth class fits, inner knots at
        n included, exactly as the vector on the same knots with its empty
        pieces leading: the same SSE and fitted values, bit for bit, and
        the same coefficients on the nonempty pieces, in order."""
        y = np.random.default_rng(9).standard_normal(10)
        p = ModelParams(d=1, d0=0, k=2, n=10)
        assert fit_given_knots(y, p, (0, 10, 10)).coeffs[1] is None
        for d, d0 in ((1, 0), (2, 0), (2, 1), (3, 1)):
            for k in (2, 3, 4):
                for n in range(d + 1, 12):
                    y = np.random.default_rng(10 * n + k).standard_normal(n)
                    p = ModelParams(d=d, d0=d0, k=k, n=n)
                    for knots in iter_knot_vectors(n, k, d):
                        fr = fit_given_knots(y, p, knots)
                        twin = fit_given_knots(
                            y, p, _pad_knots(KnotVector(knots, d).distinct(),
                                             k))
                        assert fr.knots.knots == knots
                        assert fr.sse == twin.sse
                        assert (fr.theta_hat.values.tobytes()
                                == twin.theta_hat.values.tobytes())
                        assert ([c for c in fr.coeffs if c is not None]
                                == [c for c in twin.coeffs if c is not None])
                        assert all((c is None) == (lo == hi) for c, lo, hi
                                   in zip(fr.coeffs, knots, knots[1:]))
                        np.testing.assert_allclose(
                            evaluate_spline(fr.spline), fr.theta_hat.values,
                            rtol=0, atol=1e-10)


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
                        kv, p.d0, orc.reexpand_coefs(kv.knots, p.d, p.d0,
                                                     coef)))
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
        # the sets another set can extend: at most one inner knot
        prefixes = int(np.sum(_KnotScreen(y, 1, 0, 3).sets[:, 1] == n))
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

    def test_k_past_n_refused(self):
        """k log(en/k) turns negative past e n: penalty(100) at n = 20
        was -152.36.  k = n is the largest piece count accepted."""
        spec = PenaltySpec(tau=2.5, sigma=1.0, d=0, d0=-1, n=20)
        assert penalty(20, spec) > 0
        for k in (21, 100):
            with pytest.raises(ValidationError, match="k must lie in"):
                penalty(k, spec)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PenaltySpec(tau=-1.0, sigma=1.0, d=0, d0=-1, n=16)
        with pytest.raises(ValidationError):
            PenaltySpec(tau=1.0, sigma=0.0, d=0, d0=-1, n=16)
        with pytest.raises(ValidationError):
            penalty(0, PenaltySpec(tau=1.0, sigma=1.0, d=0, d0=-1, n=16))
        # non-finite multipliers, a sigma whose square overflows, and a
        # scale tau * sigma^2 that overflows
        for tau, sigma in [(math.nan, 1.0), (math.inf, 1.0),
                           (1.0, math.nan), (1.0, math.inf),
                           (1e10, 1e308), (0.0, 1e200), (1e300, 1e10)]:
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

    @pytest.mark.parametrize("solver", ["dp", "exhaustive"])
    def test_penalty_overflow_is_refused(self, solver):
        """The scale 1e308 is finite, penalty(k) is inf from k = 2 on;
        every k then tied at an inf objective and k = 1 was selected."""
        y = np.random.default_rng(19).standard_normal(16)
        p = ModelParams(d=0, d0=-1, k=1, n=16)
        spec = PenaltySpec(tau=1e308, sigma=1.0, d=0, d0=-1, n=16)
        assert math.isfinite(penalty(1, spec))
        with pytest.raises(ValidationError, match="k=2 must be finite"):
            adaptive_fit(y, p, spec, k_max=3, solver=solver)
        assert adaptive_fit(y, p, spec, k_max=1).k_selected == 1

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
        p = ModelParams(d=0, d0=-1, k=1, n=n)
        spec = PenaltySpec(tau=tau, sigma=sigma, d=0, d0=-1, n=n)
        hits = 0
        for rep in range(200):
            rng = np.random.Generator(np.random.Philox(key=[1234, rep]))
            y = theta0 + sigma * rng.standard_normal(n)
            fr = adaptive_fit(y, p, spec)
            hits += fr.k_selected == 2
        assert hits >= 190

    @pytest.mark.parametrize("field,value", [("d", 2), ("d0", 0),
                                             ("n", 4000)])
    def test_spec_must_match_params(self, field, value):
        """The penalty's d, d0 and n are those of the fit, not the spec's
        own: a mismatched spec is refused."""
        y = np.random.default_rng(21).standard_normal(40)
        p = ModelParams(d=1, d0=-1, k=1, n=40)
        spec = dict(tau=2.5, sigma=1.0, d=1, d0=-1, n=40)
        spec[field] = value
        with pytest.raises(ValidationError, match=f"{field}={value}"):
            adaptive_fit(y, p, PenaltySpec(**spec), k_max=3)

    @pytest.mark.parametrize("solver", ["dp", "exhaustive"])
    def test_k_max_at_most_n(self, solver):
        """Past n the penalty k log(en/k) falls, and past e n it is
        negative, so a fit with k_max = 50 at n = 20 would interpolate."""
        n = 8
        y = np.random.default_rng(0).standard_normal(n)
        p = ModelParams(d=0, d0=-1, k=1, n=n)
        spec = PenaltySpec(tau=2.5, sigma=1.0, d=0, d0=-1, n=n)
        for k_max in (0, n + 1, 50):
            with pytest.raises(ValidationError, match=r"k_max must lie"):
                adaptive_fit(y, p, spec, k_max=k_max, solver=solver)
        _, trace = adaptive_fit(y, p, spec, k_max=n, solver=solver,
                                with_trace=True)
        assert [row[0] for row in trace] == list(range(1, n + 1))

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
        k_max = min(n // (d + 1) + 2, n)
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
        """One cost engine per table, and no start costed twice across the
        rows and the backtracks, also when the pass takes the starts in
        several blocks: at k_max = 1 only start 0 goes through a block, as
        in dp_fit, at k_max = 2 start 0 and the few splits the row 1
        screen rescores, with a second engine for the reversed series'
        start 0, and from k_max = 3 on every start does once."""
        import l0spline.solvers as solvers

        logs = []

        class Counting(solvers._SegmentSweeper):
            def __init__(self, y, d):
                super().__init__(y, d)
                self.costed = []
                logs.append(self.costed)

            def block(self, lo, hi):
                self.costed.extend(range(lo, hi))
                return super().block(lo, hi)

        monkeypatch.setattr(solvers, "_SegmentSweeper", Counting)
        monkeypatch.setattr(solvers, "_DP_BLOCK", 200)
        n = 40
        y = np.random.default_rng(50).standard_normal(n)
        spec = PenaltySpec(tau=2.5, sigma=1.0, d=1, d0=-1, n=n)
        for k_max in (1, 2, 6):
            logs.clear()
            adaptive_fit(y, ModelParams(d=1, d0=-1, k=1, n=n), spec,
                         k_max=k_max)
            costed = logs[0]
            assert len(costed) == len(set(costed)) <= n
            if k_max == 1:
                assert logs == [[0]]
            elif k_max == 2:
                assert logs[1] == [0] and len(logs) == 2
                assert costed[0] == 0 and 2 <= len(costed) <= 4
            else:
                assert len(logs) == 1
                assert sorted(costed) == list(range(n - 1))

    @pytest.mark.parametrize("d,k,scale,seed",
                             ((2, 1, 1e153, 0), (4, 2, 1e151, 1)))
    def test_unread_overflow_is_not_refused(self, d, k, scale, seed):
        """A cost that overflows only in entries the pass does not fill
        (row k at t > 0) refuses neither dp_fit nor adaptive_fit at
        k_max = k, and every k of the trace is dp_fit's at that k."""
        n = 40
        y = scale * np.random.default_rng(seed).standard_normal(n)
        spec = PenaltySpec(tau=2.5, sigma=1.0, d=d, d0=-1, n=n)
        fr, trace = adaptive_fit(y, ModelParams(d=d, d0=-1, k=1, n=n), spec,
                                 k_max=k, solver="dp", with_trace=True)
        assert [row[0] for row in trace] == list(range(1, k + 1))
        for kk, sse, _, _ in trace:
            ref = dp_fit(y, ModelParams(d=d, d0=-1, k=kk, n=n))
            assert sse == ref.sse
            assert np.isfinite(sse)
        ref = dp_fit(y, ModelParams(d=d, d0=-1, k=fr.k_selected, n=n))
        assert fr.knots == ref.knots

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
        k_max = min(n // (d + 1) + 2, n)
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


class TestOverflowRefused:
    """Every solver behind the knot screen refuses y whose fit's SSE
    overflows, as the dynamic program does, where it returned knots
    (0, 0, 0, n) with SSE inf; y a little smaller still fits."""

    @staticmethod
    def _huge(scale, n=50):
        return scale * np.random.default_rng(61).standard_normal(n)

    @pytest.mark.parametrize("d, d0, k", [(1, 0, 3), (0, -1, 3), (2, 1, 2)])
    def test_exhaustive_fit(self, d, d0, k):
        params = ModelParams(d=d, d0=d0, k=k, n=50)
        with pytest.raises(ValidationError, match="overflow"):
            exhaustive_fit(self._huge(1e154), params)
        fit = exhaustive_fit(self._huge(1e150), params)
        assert math.isfinite(fit.sse) and fit.sse > 0
        assert fit.knots.knots[-1] == 50

    @pytest.mark.parametrize("d0, solver", [(0, None), (-1, "exhaustive"),
                                            (-1, "dp")])
    def test_adaptive_fit(self, d0, solver):
        spec = PenaltySpec(tau=1.0, sigma=1.0, d=1, d0=d0, n=50)
        params = ModelParams(d=1, d0=d0, k=1, n=50)
        with pytest.raises(ValidationError, match="overflow"):
            adaptive_fit(self._huge(1e154), params, spec, k_max=3,
                         solver=solver)
        fit = adaptive_fit(self._huge(1e150), params, spec, k_max=3,
                           solver=solver)
        assert math.isfinite(fit.sse)

    def test_fit_given_knots(self):
        """The SSE of 1e154 * noise overflows: refused, where it was inf."""
        params = ModelParams(d=1, d0=-1, k=2, n=50)
        with pytest.raises(ValidationError, match="overflow"):
            fit_given_knots(self._huge(1e154), params, (0, 20, 50))
        fit = fit_given_knots(self._huge(1e150), params, (0, 20, 50))
        assert math.isfinite(fit.sse) and fit.sse > 0

    @pytest.mark.parametrize("d, d0, k", [(1, 0, 3), (0, -1, 4),
                                          (0, -1, 3)])
    def test_complexity_width(self, d, d0, k):
        """The enumeration path and the d = 0 prefix-sum scans run on the
        unit series.  At the largest power of two 2^f at which the width
        stays finite the squares overflow, and the width is the unscaled
        one times 4^f; at 2^(f+1) it is refused, naming the width's
        argument, eps."""
        params = ModelParams(d=d, d0=d0, k=k, n=50)
        eps = self._huge(1.0)
        width = complexity_width(eps, params)
        f = (1024 - math.frexp(width)[1]) // 2
        huge = np.ldexp(eps, f)
        with np.errstate(over="ignore"):
            assert float(huge @ huge) == math.inf
        assert complexity_width(huge, params) == math.ldexp(width, 2 * f)
        with pytest.raises(ValidationError, match="costs of eps overflow"):
            complexity_width(np.ldexp(eps, f + 1), params)
        assert math.isfinite(complexity_width(self._huge(1e150), params))

    @pytest.mark.parametrize("d, k", [(1, 2), (0, 2), (0, 40)])
    def test_shape_lse(self, d, k):
        """(0, 40) is the pooling path, which skips the screen."""
        with pytest.raises(ValidationError, match="overflow"):
            shape_lse(self._huge(1e154, 30), d, k)
        assert math.isfinite(shape_lse(self._huge(1e150, 30), d, k).sse)

    def test_check_membership(self):
        """Membership screens the unit series, so a member whose squares
        overflow, or underflow, is still found at a tolerance of its
        scale, with the same knots and coefficients to rounding; noise
        stays out."""
        i = np.arange(1, 21) / 20
        member = 0.3 + i + 2.0 * np.maximum(i - 0.5, 0.0)
        params = ModelParams(d=1, d0=0, k=2, n=20)
        ok, ref = check_membership(member, params)
        assert ok and ref.knots.knots == (0, 10, 20)
        for e in (600, 540, -540, -600):
            ok, got = check_membership(np.ldexp(member, e), params,
                                       tol=math.ldexp(1e-8, e))
            assert ok and got.knots == ref.knots, e
            for c, c0 in zip(got.coeffs, ref.coeffs):
                np.testing.assert_allclose(np.ldexp(c, -e), c0, rtol=1e-12,
                                           atol=1e-12)
        for theta in (self._huge(1e154), 1e200 * self._huge(1.0, 20)):
            params = ModelParams(d=1, d0=0, k=2, n=theta.size)
            assert check_membership(theta, params) == (False, None)
        # noise far below tol lies within tol of the zero member, also
        # where (tol 2^-e)^2, or tol 2^-e itself, overflows
        noise, params = self._huge(1.0, 20), ModelParams(d=1, d0=0, k=2, n=20)
        for theta, tol in ((1e-200 * noise, 1e-8), (1e-300 * noise, 1e-8),
                           (1e-300 * noise, 1e10)):
            ok, got = check_membership(theta, params, tol=tol)
            assert ok and got.knots.knots[-1] == 20
            assert np.max(np.abs(evaluate_spline(got) - theta)) <= tol


class TestSweeperBuffers:
    """_SegmentSweeper.block returns a view of kept buffers: a block
    after a larger or a smaller one leaves no stale entries, and matches
    a fresh sweeper's block."""

    @pytest.mark.parametrize("d", range(4))
    def test_large_small_large(self, d):
        n = 120
        y = np.random.default_rng(62 + d).standard_normal(n)
        sweeper = _SegmentSweeper(y, d)
        blocks = [(0, 30), (n - d - 3, n - d), (10, 60), (40, 41)]
        for lo, hi in blocks + blocks[::-1]:
            got = sweeper.block(lo, hi).copy()
            # a stale entry would be NaN here, and the last block's in got
            for buf in model._chunks.buffers.values():
                buf.fill(np.nan)
            ref = _SegmentSweeper(y, d).block(lo, hi)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (d, lo, hi)

    def test_kept_between_calls(self):
        """Two blocks of one sweeper share the cost buffer."""
        sweeper = _SegmentSweeper(np.arange(40.0) % 7, 1)
        first = sweeper.block(0, 10)
        assert np.shares_memory(first, sweeper.block(10, 20))


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


def _same_fit(fit, ref, e):
    """fit is ref on y 2^e: the same knots, the SSE times 4^e and the
    fitted values times 2^e, bit for bit."""
    assert fit.knots == ref.knots
    assert fit.sse == math.ldexp(ref.sse, 2 * e)
    assert fit.theta_hat.values.tobytes() == \
        np.ldexp(ref.theta_hat.values, e).tobytes()


# powers of two past which the squares of y ~ 1 overflow (+) or underflow
# (-), so that every cost the search compares did too
_EXPONENTS = (540, -540, 600, -600)


class TestPowerOfTwoScale:
    """Every solver searches on the unit series y 2^-e (model._unit), so
    the fit of x 2^e is that of x scaled (_same_fit), with x = y 2^-(e/2)
    so that both fits are representable.  On y itself the knots found
    do not move, and a fit is refused only where its SSE overflows."""

    @staticmethod
    def _pair(y, e):
        x = np.ldexp(y, -(e // 2))
        return x, np.ldexp(x, e)

    @pytest.mark.parametrize("e", _EXPONENTS)
    @pytest.mark.parametrize("d, k", [(0, 3), (1, 3), (2, 2), (3, 4)])
    def test_dp_fit(self, e, d, k):
        p = ModelParams(d=d, d0=-1, k=k, n=40)
        for seed in range(3):
            y = _jump_noise(40, seed)
            x, xe = self._pair(y, e)
            _same_fit(dp_fit(xe, p), dp_fit(x, p), e)
            if e > 0:
                with pytest.raises(ValidationError, match="overflow"):
                    dp_fit(np.ldexp(y, e), p)
            else:
                assert dp_fit(np.ldexp(y, e), p).knots == dp_fit(y, p).knots

    @pytest.mark.parametrize("e", _EXPONENTS)
    @pytest.mark.parametrize("d, d0", [(1, 0), (2, 1), (1, -1)])
    def test_exhaustive_fit(self, e, d, d0):
        p = ModelParams(d=d, d0=d0, k=3, n=30)
        for seed in range(2):
            y = _jump_noise(30, seed)
            x, xe = self._pair(y, e)
            _same_fit(exhaustive_fit(xe, p), exhaustive_fit(x, p), e)
            if e < 0:
                assert exhaustive_fit(np.ldexp(y, e), p).knots == \
                    exhaustive_fit(y, p).knots

    @pytest.mark.parametrize("e", _EXPONENTS)
    @pytest.mark.parametrize("d0, solver", [(-1, "dp"), (-1, "exhaustive"),
                                            (0, None)])
    def test_adaptive_fit(self, e, d0, solver):
        """sigma scales with y, so every penalty scales by 4^e too."""
        n = 30
        params = ModelParams(d=1, d0=d0, k=1, n=n)
        y = _jump_noise(n, 7)
        x, xe = self._pair(y, e)
        fits = []
        for v, sigma in ((x, math.ldexp(1.0, -(e // 2))),
                         (xe, math.ldexp(1.0, e - e // 2))):
            spec = PenaltySpec(tau=1.0, sigma=sigma, d=1, d0=d0, n=n)
            fits.append(adaptive_fit(v, params, spec, k_max=4,
                                     solver=solver, with_trace=True))
        (ref, ref_trace), (fit, trace) = fits
        _same_fit(fit, ref, e)
        assert [row[1] for row in trace] == [
            math.ldexp(row[1], 2 * e) for row in ref_trace]

    @pytest.mark.parametrize("e", _EXPONENTS)
    @pytest.mark.parametrize("d, d0, k", [(0, -1, 2), (0, -1, 3),
                                          (1, 0, 3), (0, -1, 4)])
    def test_complexity_width(self, e, d, d0, k):
        """The d = 0 prefix-sum scans (k = 2, 3) and the enumeration."""
        p = ModelParams(d=d, d0=d0, k=k, n=40)
        for seed in range(3):
            x, xe = self._pair(
                np.random.default_rng(seed).standard_normal(40), e)
            assert complexity_width(xe, p) == math.ldexp(
                complexity_width(x, p), 2 * e)

    @pytest.mark.parametrize("e", _EXPONENTS)
    def test_shape_lse(self, e):
        for seed in range(3):
            x, xe = self._pair(_jump_noise(20, seed), e)
            fit, ref = shape_lse(xe, 1, 3), shape_lse(x, 1, 3)
            _same_fit(fit, ref, e)
            assert fit.canonical.j_star == ref.canonical.j_star
            assert fit.canonical.b == tuple(
                np.ldexp(ref.canonical.b, e).tolist())


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
