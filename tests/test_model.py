import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from l0spline import (
    BudgetExceededError,
    KnotEndpointError,
    KnotGapError,
    KnotOrderError,
    KnotVector,
    ModelParams,
    PiecewiseSpline,
    SignalVector,
    ValidationError,
    basis_matrix,
    check_membership,
    count_knot_vectors,
    discrete_vs_integral_l2,
    evaluate_at,
    evaluate_spline,
    iter_knot_vectors,
    local_coefficients_from_truncated_power,
    raw_basis,
    transition_boundary,
    transition_coefficients,
    transition_matrix,
    validate_knots,
)


class TestTransitionBoundary:
    def test_fully_discontinuous(self):
        assert transition_boundary(0, -1) == 2

    def test_maximal_smoothness_cubic(self):
        assert transition_boundary(3, 2) == 5

    def test_cubic_once_differentiable(self):
        assert transition_boundary(3, 1) == 3

    def test_monotone_in_smoothness(self):
        """For fixed degree the boundary grows with the continuity order,
        from 2 at d0=-1 up to d+2 at d0=d-1."""
        for d in range(5):
            vals = [transition_boundary(d, d0) for d0 in range(-1, d)]
            assert vals == sorted(vals)
            assert vals[0] == 2
            assert vals[-1] == d + 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            transition_boundary(2, 2)
        with pytest.raises(ValidationError):
            transition_boundary(1, -2)


class TestModelParams:
    def test_k0_recomputed(self):
        p = ModelParams(d=3, d0=1, k=4, n=20)
        assert p.k0 == 3

    def test_rejects_bad_smoothness(self):
        with pytest.raises(ValidationError):
            ModelParams(d=1, d0=1, k=1, n=8)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValidationError):
            ModelParams(d=2, d0=-1, k=1, n=2)


class TestValidateKnots:
    def test_valid(self):
        kv = validate_knots([0, 5, 10], d=1, n=10)
        assert kv.knots == (0, 5, 10)
        assert kv.k == 2

    def test_gap_violation(self):
        with pytest.raises(KnotGapError):
            validate_knots([0, 1, 10], d=1, n=10)

    def test_empty_piece_exempt_from_gap_rule(self):
        kv = validate_knots([0, 5, 5, 10], d=1, n=10)
        assert kv.nonempty_pieces() == [0, 2]
        assert kv.distinct() == (0, 5, 10)

    def test_non_monotone(self):
        with pytest.raises(KnotOrderError):
            validate_knots([0, 7, 5, 10], d=1, n=10)

    def test_endpoint_mismatch(self):
        with pytest.raises(KnotEndpointError):
            validate_knots([1, 5, 10], d=1, n=10)
        with pytest.raises(KnotEndpointError):
            validate_knots([0, 5, 9], d=1, n=10)

    @pytest.mark.parametrize("knots", [
        [0, 4.7, 10], [0, 5, 10.9], [0, math.nan, 10], [0, 5, math.inf],
        np.array([0.0, 5.5, 10.0])])
    def test_non_integral_knots_refused(self, knots):
        """A knot is an integer grid index: a fractional, NaN or infinite
        value is refused, not truncated."""
        with pytest.raises(ValidationError, match="finite integers"):
            validate_knots(knots, d=1, n=10)

    @pytest.mark.parametrize("knots", [(0, 4.7, 10), (0, math.nan, 10)])
    def test_knot_vector_refuses_non_integral_knots(self, knots):
        """KnotVector((0, 4.7, 10), 1) read as (0, 4, 10)."""
        with pytest.raises(ValidationError, match="finite integers"):
            KnotVector(knots, 1)

    def test_knot_vector_refuses_decreasing_knots(self):
        """A spline on (0, 7, 5, 10) evaluated with its backwards piece
        skipped, in silence."""
        with pytest.raises(KnotOrderError):
            KnotVector((0, 7, 5, 10), 1)
        assert KnotVector(np.array([0.0, 5.0, 5.0, 10.0]), 1).knots == (
            0, 5, 5, 10)

    def test_integral_values_of_any_type(self):
        kv = validate_knots(np.array([0.0, 5.0, 10.0]), d=1, n=10)
        assert kv.knots == (0, 5, 10)
        assert all(type(t) is int for t in kv.knots)


@given(st.integers(4, 18), st.integers(1, 4), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_knot_enumeration_count_and_order(n, k, d):
    vecs = list(iter_knot_vectors(n, k, d))
    assert len(vecs) == count_knot_vectors(n, k, d)
    assert vecs == sorted(vecs)
    assert len(set(vecs)) == len(vecs)
    oracle = list(orc.iter_knot_vectors(n, k, d))
    assert set(vecs) == set(oracle)
    for v in vecs:
        validate_knots(v, d=d, n=n)



def test_count_in_closed_form_matches_the_loop():
    """The closed form against the position DP it replaced, on every small
    grid, and against the enumeration itself."""
    for n in range(40):
        for k in range(6):
            for d in range(4):
                assert (count_knot_vectors(n, k, d)
                        == orc.count_knot_vectors(n, k, d)), (n, k, d)
    for n, k, d in ((1, 1, 0), (7, 5, 0), (12, 4, 1), (17, 3, 2),
                    (13, 5, 3)):
        assert count_knot_vectors(n, k, d) == len(
            list(orc.iter_knot_vectors(n, k, d)))

class TestBasisMatrix:
    def test_step_basis(self):
        p = ModelParams(d=0, d0=-1, k=2, n=4)
        X = basis_matrix(p, validate_knots([0, 2, 4], 0, 4))
        np.testing.assert_array_equal(X[:, 0], [1, 1, 1, 1])
        np.testing.assert_array_equal(X[:, 1], [0, 0, 1, 1])

    def test_linear_continuous_columns(self):
        p = ModelParams(d=1, d0=0, k=2, n=6)
        X = basis_matrix(p, validate_knots([0, 3, 6], 1, 6))
        i = np.arange(1, 7)
        np.testing.assert_allclose(X[:, 0], 1.0)
        np.testing.assert_allclose(X[:, 1], i / 6)
        np.testing.assert_allclose(X[:, 2], np.maximum(i - 3, 0) / 6)

    def test_column_count_and_rank(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.integers(0, 4))
            d0 = int(rng.integers(-1, d))
            k = int(rng.integers(1, 4))
            n = k * (d + 1) + int(rng.integers(0, 10))
            vecs = [v for v in iter_knot_vectors(n, k, d)
                    if len(set(v)) == k + 1]
            if not vecs:
                continue
            knots = vecs[int(rng.integers(0, len(vecs)))]
            X = raw_basis(n, d, d0, knots)
            assert X.shape[1] == (d + 1) + (k - 1) * (d - d0)
            assert np.linalg.matrix_rank(X) == X.shape[1]

    def test_piece_count_mismatch_rejected(self):
        p = ModelParams(d=0, d0=-1, k=3, n=4)
        with pytest.raises(ValidationError):
            basis_matrix(p, validate_knots([0, 2, 4], 0, 4))

    @pytest.mark.parametrize("knots,error", (((0, 10, 30), KnotEndpointError),
                                             ((0, 1, 20), KnotGapError)))
    def test_knot_vector_checked_like_its_tuple(self, knots, error):
        """Against the params' d and n, not the vector's own."""
        p = ModelParams(d=1, d0=-1, k=2, n=20)
        for kv in (knots, KnotVector(knots, 1), KnotVector(knots, 0)):
            with pytest.raises(error):
                basis_matrix(p, kv)

    def test_matches_oracle_design(self):
        X = raw_basis(9, 2, 0, (0, 3, 9))
        Y = orc.truncated_power_design(9, 2, 0, (0, 3, 9))
        np.testing.assert_allclose(X, Y)


class TestEvaluateSpline:
    def test_constant(self):
        sp = PiecewiseSpline(KnotVector((0, 5), 1), ((3.0, 0.0),))
        np.testing.assert_array_equal(evaluate_spline(sp), np.full(5, 3.0))

    def test_identity_line(self):
        sp = PiecewiseSpline(KnotVector((0, 4), 1), ((0.0, 1.0),))
        np.testing.assert_allclose(evaluate_spline(sp),
                                   np.arange(1, 5) / 4)

    def test_round_trip_with_global_basis(self):
        """Local storage and the truncated power representation generate
        the same vectors."""
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(0, 4))
            d0 = int(rng.integers(-1, d))
            knots = (0, d + 1, 2 * (d + 1), 4 * (d + 1))
            n = knots[-1]
            X = raw_basis(n, d, d0, knots)
            g = rng.standard_normal(X.shape[1])
            kv = KnotVector(knots, d)
            sp = local_coefficients_from_truncated_power(kv, d0, g)
            np.testing.assert_allclose(evaluate_spline(sp), X @ g,
                                       atol=1e-10)

    def test_evaluate_at_design_points(self):
        rng = np.random.default_rng(4)
        knots = (0, 3, 6, 12)
        kv = KnotVector(knots, 1)
        X = raw_basis(12, 1, 0, knots)
        g = rng.standard_normal(X.shape[1])
        sp = local_coefficients_from_truncated_power(kv, 0, g)
        x = np.arange(1, 13) / 12
        np.testing.assert_allclose(evaluate_at(sp, x), evaluate_spline(sp),
                                   atol=1e-12)

    def test_empty_pieces_skipped(self):
        sp = PiecewiseSpline(KnotVector((0, 0, 4), 0), (None, (2.0,)))
        np.testing.assert_array_equal(evaluate_spline(sp), np.full(4, 2.0))


class TestTransitionCoefficients:
    def test_diagonal_is_one(self):
        for d in range(4):
            for p in range(1, d + 2):
                assert transition_coefficients(d, p, p, 0.37) == 1.0

    def test_upper_triangular(self):
        assert transition_coefficients(3, 3, 2, 0.5) == 0.0

    def test_cubic_entry(self):
        gap = 0.21
        assert transition_coefficients(3, 2, 4, gap) == pytest.approx(
            3 * gap ** 2, rel=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            transition_coefficients(2, 0, 1, 0.1)
        with pytest.raises(ValidationError):
            transition_coefficients(2, 1, 4, 0.1)

    def test_consistent_with_smooth_splines(self):
        """The constrained block of each piece's coefficients is the
        transition matrix applied to the previous piece's block."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            d0 = int(rng.integers(0, d))
            n = 4 * (d + 1)
            knots = (0, d + 1, 2 * (d + 1), n)
            X = raw_basis(n, d, d0, knots)
            g = rng.standard_normal(X.shape[1])
            sp = local_coefficients_from_truncated_power(
                KnotVector(knots, d), d0, g)
            for p_ix in (1, 2):
                gap = (knots[p_ix] - knots[p_ix - 1]) / n
                M = transition_matrix(d, d0, gap)
                prev = np.asarray(sp.coeffs[p_ix - 1])
                cur = np.asarray(sp.coeffs[p_ix])
                np.testing.assert_allclose(M @ prev, cur[: d0 + 1],
                                           atol=1e-10)


def test_one_sided_derivatives_match_to_order_d0():
    """Numerically evaluated one-sided derivatives agree at inner knots."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        d0 = int(rng.integers(0, d))
        n = 3 * (d + 1)
        knots = (0, d + 1, n)
        X = raw_basis(n, d, d0, knots)
        g = rng.standard_normal(X.shape[1])
        sp = local_coefficients_from_truncated_power(KnotVector(knots, d),
                                                     d0, g)
        gap = (d + 1) / n
        left = np.asarray(sp.coeffs[0])
        right = np.asarray(sp.coeffs[1])
        for ell in range(d0 + 1):
            dl = np.polynomial.polynomial.polyder(left, ell)
            lval = np.polynomial.polynomial.polyval(gap, dl)
            rval = math.factorial(ell) * right[ell]
            assert abs(lval - rval) <= 1e-8 * max(1.0, abs(lval), abs(rval))


class TestCheckMembership:
    def test_step_vector(self):
        theta = np.array([0, 0, 0, 1, 1, 1], float)
        ok, wit = check_membership(theta, ModelParams(d=0, d0=-1, k=2, n=6))
        assert ok
        assert wit.knots.distinct() == (0, 3, 6)

    def test_step_needs_discontinuity(self):
        theta = np.repeat([0.0, 1.0], 6)
        ok, wit = check_membership(theta, ModelParams(d=1, d0=0, k=2, n=12))
        assert not ok and wit is None

    def test_hat_needs_four_pieces(self):
        i = np.arange(1, 13)
        hat = np.where(i <= 3, 0.0,
                       np.where(i <= 6, (i - 3) / 12,
                                np.where(i <= 9, (9 - i) / 12, 0.0)))
        assert check_membership(hat, ModelParams(d=1, d0=0, k=4, n=12))[0]
        assert not check_membership(hat, ModelParams(d=1, d0=0, k=3, n=12))[0]

    def test_round_trip_on_random_members(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(0, 3))
            d0 = int(rng.integers(-1, d))
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k * (d + 1), 3 * k * (d + 1)) + 2)
            vecs = list(iter_knot_vectors(n, k, d))
            knots = vecs[int(rng.integers(0, len(vecs)))]
            X = raw_basis(n, d, d0, KnotVector(knots, d).distinct())
            theta = X @ rng.standard_normal(X.shape[1])
            p = ModelParams(d=d, d0=d0, k=k, n=n)
            ok, wit = check_membership(theta, p)
            assert ok
            np.testing.assert_allclose(evaluate_spline(wit), theta,
                                       atol=1e-8)

    def test_tolerance_is_respected(self):
        rng = np.random.default_rng(13)
        theta = np.repeat([0.0, 1.0], 4) + 1e-4 * rng.standard_normal(8)
        p = ModelParams(d=0, d0=-1, k=2, n=8)
        assert not check_membership(theta, p, tol=1e-8)[0]
        assert check_membership(theta, p, tol=1e-2)[0]

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            check_membership(np.zeros(400), ModelParams(d=0, d0=-1, k=5,
                                                        n=400), budget=1000)


class TestDiscreteVsIntegral:
    def test_zero(self):
        sp = PiecewiseSpline(KnotVector((0, 4), 0), ((0.0,),))
        assert discrete_vs_integral_l2(sp) == (0.0, 0.0)

    def test_constant(self):
        sp = PiecewiseSpline(KnotVector((0, 4), 0), ((1.0,),))
        disc, integ = discrete_vs_integral_l2(sp)
        assert disc == pytest.approx(4.0)
        assert integ == pytest.approx(4.0)

    def test_linear(self):
        # f(x) = x on (0,1], n = 4: discrete sum 30/16, n*integral 4/3
        sp = PiecewiseSpline(KnotVector((0, 4), 1), ((0.0, 1.0),))
        disc, integ = discrete_vs_integral_l2(sp)
        assert disc == pytest.approx(1.875)
        assert integ == pytest.approx(4.0 / 3.0)

    def test_integral_matches_quadrature(self):
        from scipy.integrate import quad
        rng = np.random.default_rng(21)
        knots = (0, 4, 8, 16)
        kv = KnotVector(knots, 2)
        X = raw_basis(16, 2, 0, knots)
        g = rng.standard_normal(X.shape[1])
        sp = local_coefficients_from_truncated_power(kv, 0, g)
        _, integ = discrete_vs_integral_l2(sp)
        val, _ = quad(lambda x: float(evaluate_at(sp, x)[0] ** 2), 0, 1,
                      points=[0.25, 0.5], limit=200)
        assert integ == pytest.approx(16 * val, rel=1e-8)


def test_signal_vector_validation():
    with pytest.raises(ValidationError):
        SignalVector(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        SignalVector(np.zeros((2, 2)))
    v = SignalVector(np.arange(3.0))
    assert v.n == 3


def test_signal_vector_leaves_caller_array_alone():
    y = np.arange(4.0)
    v = SignalVector(y)
    assert y.flags.writeable
    assert not v.values.flags.writeable
    y[0] = 99.0
    np.testing.assert_array_equal(v.values, [0.0, 1.0, 2.0, 3.0])
