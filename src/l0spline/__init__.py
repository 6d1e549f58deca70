"""Exact best-subset spline regression on an integer design grid.

Fits piecewise polynomials with a hard cap or penalty on the number of
pieces, both unrestricted and under monotonicity-type shape constraints,
and ships the Monte Carlo experiments and analytic kernel checks that
probe how the minimax risk changes character as the piece budget crosses
its critical value.
"""

from .errors import (
    BudgetExceededError,
    DegenerateSystemError,
    KnotEndpointError,
    KnotGapError,
    KnotOrderError,
    L0SplineError,
    NonConvergenceError,
    SeriesFormatError,
    ValidationError,
)
from .model import (
    KnotVector,
    ModelParams,
    PiecewiseSpline,
    SignalVector,
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

from .solvers import (
    FitResult,
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
from .shape import (
    MonotoneCanonical,
    ShapeFitResult,
    canonical_evaluate,
    coef_bound_statistic,
    fit_shape_given_knots,
    is_d_monotone,
    nnls_activeset,
    sample_shape_member,
    shape_lse,
)
from .kernels import (
    BetaTable,
    SparseSystem,
    beta_ratio_check,
    beta_table,
    binomial_identity_check,
    dof_min_pieces,
    max_cancellations,
    moment_matrix,
    moment_matrix_lambda_min,
    quad_form_residuals,
    sample_end_long_knots,
    sample_unit_spline,
    sparse_construct,
)
from .experiments import (
    ESTIMATORS,
    SIGNAL_KINDS,
    ExperimentConfig,
    RiskCurve,
    RiskRow,
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
from .calibration import load_calibration

__version__ = "0.1.0"
