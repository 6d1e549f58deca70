"""Command-line surface for fitting, experiment grids, and check suites.

Subcommands:
  fit       exact least-squares projection at a fixed piece count (JSON)
  adapt     penalized piece-count selection, noise scale estimated if
            not supplied (JSON, includes the per-k selection trace)
  shapefit  least squares onto the monotone-derivative cone (JSON)
  mc-risk   Monte Carlo risk curve over a size grid (CSV)
  lil       normalized partial-sum maxima curve (CSV)
  width     complexity-width curve (CSV)
  sparse    middle-vanishing construction report (JSON)
  checks    numeric verification suites (JSON)

All randomness flows from --seed; stochastic subcommands refuse to run
without it.  Reports are emitted with sorted keys and shortest
round-trip float formatting, so identical arguments produce
byte-identical output.
"""

import argparse
import json
import math
import sys

import numpy as np

from ._calibrate import (
    calibrate_beta_ratio,
    calibrate_quad_form,
    calibrate_shape_coef,
)
from .calibration import load_calibration
from .errors import (
    BudgetExceededError,
    DegenerateSystemError,
    NonConvergenceError,
    SeriesFormatError,
    ValidationError,
)
from .experiments import (
    ESTIMATORS,
    SIGNAL_KINDS,
    ExperimentConfig,
    lil_curve,
    mc_risk,
    width_curve,
)
from .kernels import (
    binomial_identity_check,
    dof_min_pieces,
    moment_matrix_lambda_min,
    sparse_construct,
)
from .model import ModelParams, SignalVector, transition_boundary
from .shape import shape_lse
from .solvers import (
    PenaltySpec,
    adaptive_fit,
    dp_fit,
    estimate_sigma,
    exhaustive_fit,
    fit_given_knots,
    penalty,
)

DEFAULT_BUDGET = 10_000_000

# hand-checked minimal piece counts for the sparse suite
_DOF_TABLE = {(0, -1): 3, (1, -1): 3, (1, 0): 4,
              (2, -1): 3, (2, 0): 3, (2, 1): 5}


# ---------------------------------------------------------------------------
# series files
# ---------------------------------------------------------------------------

def parse_series(path: str) -> SignalVector:
    """Read a one-column value file or a two-column index,value file.

    A non-numeric first line is treated as a header.  Two-column rows
    must carry integer indices forming exactly 1..n; values are
    returned in index order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SeriesFormatError(f"cannot read {path}: {exc}") from exc

    lines = [(i + 1, s.strip()) for i, s in enumerate(raw.splitlines())]
    lines = [(ln, s) for ln, s in lines if s]
    if not lines:
        raise SeriesFormatError(f"{path}: empty series file")

    def parse_row(ln, s):
        parts = [p.strip() for p in s.split(",")]
        if len(parts) == 1:
            try:
                return None, float(parts[0])
            except ValueError:
                raise SeriesFormatError(
                    f"{path}: line {ln}: could not parse value {s!r}")
        if len(parts) != 2:
            raise SeriesFormatError(
                f"{path}: line {ln}: expected 1 or 2 columns, got "
                f"{len(parts)}")
        try:
            idx = int(parts[0])
        except ValueError:
            raise SeriesFormatError(
                f"{path}: line {ln}: index {parts[0]!r} is not an integer")
        try:
            val = float(parts[1])
        except ValueError:
            raise SeriesFormatError(
                f"{path}: line {ln}: could not parse value {parts[1]!r}")
        return idx, val

    def looks_like_header(s):
        for part in s.split(","):
            try:
                float(part.strip())
                return False
            except ValueError:
                continue
        return True

    if looks_like_header(lines[0][1]):
        lines = lines[1:]
        if not lines:
            raise SeriesFormatError(f"{path}: no data rows after header")

    rows = [parse_row(ln, s) for ln, s in lines]
    first_is_indexed = rows[0][0] is not None
    for (ln, _), r in zip(lines, rows):
        if (r[0] is not None) != first_is_indexed:
            raise SeriesFormatError(
                f"{path}: line {ln}: mixed one-column and two-column rows")
    if not first_is_indexed:
        return SignalVector(np.array([v for _, v in rows]))

    n = len(rows)
    if sorted(i for i, _ in rows) != list(range(1, n + 1)):
        raise SeriesFormatError(
            f"{path}: indices must be 1..{n} contiguous without repeats")
    ordered = [v for _, v in sorted(rows)]
    return SignalVector(np.array(ordered))


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def _emit_csv(header, rows, out: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    _emit("\n".join(lines) + "\n", out)


def _fit_report(fit, d: int, d0: int, penalty_used) -> dict:
    spline = fit.spline
    knots = [int(t) for t in spline.knots.knots]
    pieces = []
    for p in range(len(knots) - 1):
        c = spline.coeffs[p]
        pieces.append({
            "start": knots[p],
            "end": knots[p + 1],
            "coeffs": None if c is None else [float(a) for a in c],
        })
    return {
        "d": d,
        "d0": d0,
        "k_selected": int(fit.k_selected),
        "knots": knots,
        "pieces": pieces,
        "sse": float(fit.sse),
        "penalty_used": penalty_used,
        "theta_hat": [float(v) for v in fit.theta_hat.values],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    y = parse_series(args.input)
    params = ModelParams(d=args.d, d0=args.d0, k=args.k, n=y.n)
    solver = args.solver or ("dp" if args.d0 == -1 else "exhaustive")
    if solver == "dp":
        if args.d0 != -1:
            raise ValidationError("the dp solver supports only d0 = -1")
        fit = dp_fit(y.values, params)
    else:
        fit = exhaustive_fit(y.values, params, budget=args.budget)
    _emit_json(_fit_report(fit, args.d, args.d0, None), args.out)
    return 0


def _cmd_adapt(args) -> int:
    y = parse_series(args.input)
    sigma = args.sigma if args.sigma is not None else estimate_sigma(y.values)
    spec = PenaltySpec(tau=args.tau, sigma=sigma, d=args.d, d0=args.d0,
                       n=y.n)
    params = ModelParams(d=args.d, d0=args.d0, k=1, n=y.n)
    fit, trace = adaptive_fit(y.values, params, spec, k_max=args.k_max,
                              solver=args.solver, with_trace=True,
                              budget=args.budget)
    report = _fit_report(fit, args.d, args.d0,
                         float(penalty(fit.k_selected, spec)))
    report["trace"] = [{"k": k, "sse": float(s), "penalty": float(p)}
                       for (k, s, p, _) in trace]
    _emit_json(report, args.out)
    return 0


def _cmd_shapefit(args) -> int:
    y = parse_series(args.input)
    res = shape_lse(y.values, args.d, args.k, budget=args.budget)
    report = _fit_report(res, args.d, args.d - 1, None)
    report["pivot"] = (None if res.canonical is None
                       else int(res.canonical.j_star))
    _emit_json(report, args.out)
    return 0


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"--n-grid must be comma-separated integers, "
                              f"got {text!r}")


def _cmd_mc_risk(args) -> int:
    custom = None
    if args.signal == "custom_file":
        if args.input is None:
            raise ValidationError("--signal custom_file requires --input")
        custom = tuple(float(v) for v in parse_series(args.input).values)
    config = ExperimentConfig(n_grid=_parse_grid(args.n_grid), d=args.d,
                              d0=args.d0, k=args.k, reps=args.reps,
                              master_seed=args.seed,
                              signal_kind=args.signal, sigma=args.sigma,
                              tau=args.tau, custom_values=custom)
    curve = mc_risk(config, args.estimator, budget=args.budget)
    rows = []
    for r in curve.rows:
        if r.failed:
            sys.stderr.write(f"warning: n={r.n} failed: {r.error}\n")
        rows.append((r.n, r.k, args.d, args.d0, args.estimator,
                     float(r.mean_risk), float(r.std_error),
                     float(r.rate_loglog), float(r.rate_log),
                     args.reps, args.seed))
    _emit_csv(("n", "k", "d", "d0", "estimator", "mean_risk", "std_error",
               "rate_loglog", "rate_log", "reps", "seed"), rows, args.out)
    return 0


def _cmd_lil(args) -> int:
    rows_out = []
    for n, mean_z2, se, ll in lil_curve(args.d, _parse_grid(args.n_grid),
                                        args.reps, args.seed):
        rows_out.append((n, args.d, float(mean_z2), float(se), float(ll),
                         args.reps, args.seed))
    _emit_csv(("n", "d", "mean_Z2", "std_error", "loglog16n", "reps",
               "seed"), rows_out, args.out)
    return 0


def _cmd_width(args) -> int:
    rows_out = []
    for n, mean_w, se, r_ll, r_lg in width_curve(
            args.d, args.d0, args.k, _parse_grid(args.n_grid), args.reps,
            args.seed, budget=args.budget):
        rows_out.append((n, args.d, args.d0, args.k, float(mean_w),
                         float(se), float(r_ll), float(r_lg), args.reps,
                         args.seed))
    _emit_csv(("n", "d", "d0", "k", "mean_width", "std_error",
               "rate_loglog", "rate_log", "reps", "seed"), rows_out,
              args.out)
    return 0


def _cmd_sparse(args) -> int:
    system = sparse_construct(args.d, args.d0, args.k)
    report = {
        "d": system.d,
        "d0": system.d0,
        "k": system.k,
        "tau": [str(t) for t in system.tau],
        "nullspace_dim": system.nullspace_dim,
        "basis": [[str(x) for x in row] for row in system.basis],
        "witness_coeffs": (None if system.witness_coeffs is None
                           else [str(x) for x in system.witness_coeffs]),
        "signal_n": system.signal_n,
        "signal": (None if system.signal is None
                   else [float(v) for v in system.signal]),
    }
    _emit_json(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------

def _suite_beta_ratio(seed, instances):
    stored = load_calibration()["beta_ratio"]
    res = calibrate_beta_ratio(seed=seed, instances=instances)
    lo = float(res["min_observed"])
    return lo, None, lo >= stored["c_emp"]


def _suite_quad_form(seed, instances):
    stored = load_calibration()["quad_form"]
    res = calibrate_quad_form(seed=seed, instances=instances)
    hi = float(res["max_observed"])
    return None, hi, hi <= stored["inv_c_emp"]


def _suite_shape_coef(seed, instances):
    stored = load_calibration()["shape_coef"]["cells"]
    res = calibrate_shape_coef(seed=seed, members=instances)
    worst = max(cell["max_observed"] / stored[name]["bound"]
                for name, cell in res["cells"].items())
    return None, float(worst), worst <= 1.0


def _suite_moment(seed, instances):
    del seed, instances
    lo = math.inf
    count = 0
    for d in range(5):
        ms = (list(range(d + 1, 61)) + list(range(61, 491, 7))
              + list(range(491, 501)))
        for m in ms:
            lo = min(lo, moment_matrix_lambda_min(m, d))
            count += 1
    return count, float(lo), None, lo > 1e-8


def _suite_binomial(seed, instances):
    del seed, instances
    worst = 0
    count = 0
    for n in range(1, 13):
        for p in range(n):
            coeffs = [0] * p + [1]
            worst = max(worst, abs(binomial_identity_check(n, coeffs)))
            count += 1
    return count, None, float(worst), worst == 0


def _suite_sparse(seed, instances):
    del seed, instances
    count = 0
    worst = 0.0
    ok = all(dof_min_pieces(d, d0) == v for (d, d0), v in _DOF_TABLE.items())
    for d in range(5):
        for d0 in range(-1, d):
            k0 = transition_boundary(d, d0)
            for k in range(2, k0 + 2):
                system = sparse_construct(d, d0, k)
                count += 1
                if k <= k0:
                    ok = ok and system.nullspace_dim == 0
                    continue
                ok = ok and system.nullspace_dim >= 1
                n = system.signal_n
                knots = tuple(int(t * n) for t in system.tau)
                params = ModelParams(d=d, d0=d0, k=k, n=n)
                fit = fit_given_knots(system.signal, params, knots)
                worst = max(worst, float(fit.sse))
    return count, None, worst, ok and worst < 1e-12


_SUITES = {
    "beta_ratio": (_suite_beta_ratio, True, 60),
    "quad_form": (_suite_quad_form, True, 60),
    "shape_coef": (_suite_shape_coef, True, 60),
    "moment": (_suite_moment, False, None),
    "binomial": (_suite_binomial, False, None),
    "sparse": (_suite_sparse, False, None),
}


def _cmd_checks(args) -> int:
    if args.suite not in _SUITES:
        raise ValidationError(
            f"unknown suite {args.suite!r}; choose from "
            f"{', '.join(sorted(_SUITES))}")
    fn, needs_seed, default_n = _SUITES[args.suite]
    if needs_seed:
        if args.seed is None:
            raise ValidationError(
                f"suite {args.suite!r} samples random instances; --seed "
                f"is required")
        instances = args.reps if args.reps is not None else default_n
        if instances < 1:
            raise ValidationError(f"--reps must be >= 1, got {instances}")
        min_ratio, max_residual, passed = fn(args.seed, instances)
    else:
        instances, min_ratio, max_residual, passed = fn(None, None)
    report = {
        "suite": args.suite,
        "instances": int(instances),
        "min_ratio": min_ratio,
        "max_residual": max_residual,
        "pass": bool(passed),
    }
    _emit_json(report, args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="l0spline",
                     description="Exact best-subset spline regression "
                                 "and its experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = add("fit", _cmd_fit, "projection at a fixed piece count")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--solver", choices=("dp", "exhaustive"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("adapt", _cmd_adapt, "penalized piece-count selection")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--k-max", type=int, dest="k_max")
    p.add_argument("--sigma", type=float)
    p.add_argument("--tau", type=float, default=2.5)
    p.add_argument("--solver", choices=("dp", "exhaustive"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("shapefit", _cmd_shapefit, "monotone-derivative cone fit")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("mc-risk", _cmd_mc_risk, "Monte Carlo risk curve")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-grid", dest="n_grid", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--signal", choices=SIGNAL_KINDS, required=True)
    p.add_argument("--estimator", choices=ESTIMATORS, default="l0_fit")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=2.5)
    p.add_argument("--input", help="series file for --signal custom_file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("lil", _cmd_lil, "partial-sum maxima curve")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-grid", dest="n_grid", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("width", _cmd_width, "complexity-width curve")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-grid", dest="n_grid", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=200_000)

    p = add("sparse", _cmd_sparse, "middle-vanishing construction")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("checks", _cmd_checks, "numeric verification suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int,
                   help="instances per sampling suite")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except (ValidationError, DegenerateSystemError,
            NonConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
