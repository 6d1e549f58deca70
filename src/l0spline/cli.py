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
import functools
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
    L0SplineError,
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
from .model import (
    DEFAULT_BUDGET,
    DEFAULT_WIDTH_BUDGET,
    ModelParams,
    SignalVector,
    transition_boundary,
)
from .shape import shape_lse
from .solvers import (
    PenaltySpec,
    adaptive_fit,
    estimate_sigma,
    fit_fixed_k,
    fit_given_knots,
    penalty,
)

# hand-checked minimal piece counts for the sparse suite
_DOF_TABLE = {(0, -1): 3, (1, -1): 3, (1, 0): 4,
              (2, -1): 3, (2, 0): 3, (2, 1): 5}


# ---------------------------------------------------------------------------
# series files
# ---------------------------------------------------------------------------

def parse_series(path: str) -> SignalVector:
    """Read a one-column value file or a two-column index,value file.

    A first line none of whose fields is numeric is a header.  Two-column
    rows must carry integer indices forming exactly 1..n; values are
    returned in index order.  A malformed row is reported before a row of
    the other format on an earlier line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SeriesFormatError(f"cannot read {path}: {exc}") from exc

    values, index = [], []
    header = None   # whether the first nonblank line is a header
    width = None    # the first row's column count
    mixed = None    # the first line with the other count
    for ln, line in enumerate(raw.splitlines(), 1):
        s = line.strip()
        if not s:
            continue
        parts = s.split(",")
        if header is None:
            header = not any(_is_float(p.strip()) for p in parts)
            if header:
                continue
        if len(parts) > 2:
            raise SeriesFormatError(
                f"{path}: line {ln}: expected 1 or 2 columns, got "
                f"{len(parts)}")
        field = s
        if len(parts) == 2:
            field = parts[0].strip()
            try:
                index.append(int(field))
            except ValueError:
                raise SeriesFormatError(f"{path}: line {ln}: index "
                                        f"{field!r} is not an integer")
            field = parts[1].strip()
        try:
            values.append(float(field))
        except ValueError:
            raise SeriesFormatError(
                f"{path}: line {ln}: could not parse value {field!r}")
        if width is None:
            width = len(parts)
        elif len(parts) != width and mixed is None:
            mixed = ln

    if header is None:
        raise SeriesFormatError(f"{path}: empty series file")
    if width is None:
        raise SeriesFormatError(f"{path}: no data rows after header")
    if mixed is not None:
        raise SeriesFormatError(
            f"{path}: line {mixed}: mixed one-column and two-column rows")
    if width == 1:
        return SignalVector(values)
    n = len(values)
    if sorted(index) != list(range(1, n + 1)):
        raise SeriesFormatError(
            f"{path}: indices must be 1..{n} contiguous without repeats")
    ordered = np.empty(n)
    ordered[np.array(index) - 1] = values
    return SignalVector(ordered)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------

def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(obj, pad: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for a
    report nested pad deep.  json encodes in pure Python once indent is
    set, so the dicts and lists are walked here and the scalars and every
    all-number list go to its C encoder, whose ", " separators become
    indented line breaks."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # json writes a non-str key as the text of the key's JSON value
        items = ",\n" + inner
        return "{\n" + inner + items.join(
            json.dumps(key if isinstance(key, str) else json.dumps(key))
            + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float)) for v in obj):
            body = json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join(_json_text(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj)


def _emit_json(obj, out: str | None) -> None:
    _emit(_json_text(obj) + "\n", out)


def _emit_csv(header, rows, out: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    _emit("\n".join(lines) + "\n", out)


def _fit_report(fit, d: int, d0: int, penalty_used) -> dict:
    # json writes the spline's int and float tuples as it writes lists
    spline = fit.spline
    knots = spline.knots.knots
    return {
        "d": d,
        "d0": d0,
        "k_selected": int(fit.k_selected),
        "knots": knots,
        "pieces": [{"start": lo, "end": hi, "coeffs": c} for lo, hi, c
                   in zip(knots, knots[1:], spline.coeffs)],
        "sse": float(fit.sse),
        "penalty_used": penalty_used,
        "theta_hat": fit.theta_hat.values.tolist(),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    y = parse_series(args.input)
    params = ModelParams(d=args.d, d0=args.d0, k=args.k, n=y.n)
    fit = fit_fixed_k(y.values, params, args.solver, args.budget)
    _emit_json(_fit_report(fit, args.d, args.d0, None), args.out)
    return 0


def _cmd_adapt(args) -> int:
    y = parse_series(args.input)
    sigma = args.sigma
    if sigma is None:
        with np.errstate(over="ignore"):
            sigma = estimate_sigma(y.values)
        if sigma == 0 or not math.isfinite(sigma * sigma):
            raise ValidationError(
                "cannot estimate sigma: the median absolute first "
                f"difference of the series gives sigma = {sigma:g}, which "
                "must be > 0 with a finite square; pass --sigma")
    spec = PenaltySpec(tau=args.tau, sigma=sigma, d=args.d, d0=args.d0,
                       n=y.n)
    params = ModelParams(d=args.d, d0=args.d0, k=1, n=y.n)
    fit, trace = adaptive_fit(y.values, params, spec, k_max=args.k_max,
                              solver=args.solver, with_trace=True,
                              budget=args.budget)
    report = _fit_report(fit, args.d, args.d0,
                         float(penalty(fit.k_selected, spec)))
    report["trace"] = [{"k": k, "sse": s, "penalty": p}
                       for (k, s, p, _) in trace]
    _emit_json(report, args.out)
    return 0


def _cmd_shapefit(args) -> int:
    y = parse_series(args.input)
    res = shape_lse(y.values, args.d, args.k, budget=args.budget)
    report = _fit_report(res, args.d, args.d - 1, None)
    report["pivot"] = int(res.canonical.j_star)
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
        custom = parse_series(args.input).values
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
        rows.append((r.n, r.k, args.d, args.d0, args.estimator, r.mean_risk,
                     r.std_error, r.rate_loglog, r.rate_log, args.reps,
                     args.seed))
    _emit_csv(("n", "k", "d", "d0", "estimator", "mean_risk", "std_error",
               "rate_loglog", "rate_log", "reps", "seed"), rows, args.out)
    return 0


def _cmd_lil(args) -> int:
    rows_out = [(n, args.d, mean_z2, se, ll, args.reps, args.seed)
                for n, mean_z2, se, ll in lil_curve(
                    args.d, _parse_grid(args.n_grid), args.reps, args.seed)]
    _emit_csv(("n", "d", "mean_Z2", "std_error", "loglog16n", "reps",
               "seed"), rows_out, args.out)
    return 0


def _cmd_width(args) -> int:
    rows_out = [(n, args.d, args.d0, args.k, mean_w, se, r_ll, r_lg,
                 args.reps, args.seed)
                for n, mean_w, se, r_ll, r_lg in width_curve(
                    args.d, args.d0, args.k, _parse_grid(args.n_grid),
                    args.reps, args.seed, budget=args.budget)]
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
                   else system.signal.tolist()),
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
    return instances, lo, None, lo >= stored["c_emp"]


def _suite_quad_form(seed, instances):
    stored = load_calibration()["quad_form"]
    res = calibrate_quad_form(seed=seed, instances=instances)
    hi = float(res["max_observed"])
    return instances, None, hi, hi <= stored["inv_c_emp"]


def _suite_shape_coef(seed, instances):
    stored = load_calibration()["shape_coef"]["cells"]
    res = calibrate_shape_coef(seed=seed, members=instances)
    worst = max(cell["max_observed"] / stored[name]["bound"]
                for name, cell in res["cells"].items())
    return instances, None, float(worst), worst <= 1.0


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
    # the deterministic suites ignore seed and instances
    instances = args.reps if args.reps is not None else default_n
    if needs_seed:
        if args.seed is None:
            raise ValidationError(
                f"suite {args.suite!r} samples random instances; --seed "
                f"is required")
        if instances < 1:
            raise ValidationError(f"--reps must be >= 1, got {instances}")
    instances, min_ratio, max_residual, passed = fn(args.seed, instances)
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


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built on the first call and kept."""
    parser = _Parser(prog="l0spline",
                     description="Exact best-subset spline regression "
                                 "and its experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *required):
        # --out, then the required flags in order: --input, --n-grid and
        # --suite take text, the others integers
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="output path (default: stdout)")
        for flag in required:
            p.add_argument(flag, required=True, type=None if flag in
                           ("--input", "--n-grid", "--suite") else int)
        return p

    p = add("fit", _cmd_fit, "projection at a fixed piece count",
            "--input", "--d", "--d0", "--k")
    p.add_argument("--solver", choices=("dp", "exhaustive"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("adapt", _cmd_adapt, "penalized piece-count selection",
            "--input", "--d", "--d0")
    p.add_argument("--k-max", type=int, dest="k_max")
    p.add_argument("--sigma", type=float)
    p.add_argument("--tau", type=float, default=2.5)
    p.add_argument("--solver", choices=("dp", "exhaustive"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("shapefit", _cmd_shapefit, "monotone-derivative cone fit",
            "--input", "--d", "--k")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("mc-risk", _cmd_mc_risk, "Monte Carlo risk curve",
            "--d", "--d0", "--k", "--n-grid", "--reps", "--seed")
    p.add_argument("--signal", choices=SIGNAL_KINDS, required=True)
    p.add_argument("--estimator", choices=ESTIMATORS, default="l0_fit")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=2.5)
    p.add_argument("--input", help="series file for --signal custom_file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    add("lil", _cmd_lil, "partial-sum maxima curve",
        "--d", "--n-grid", "--reps", "--seed")

    p = add("width", _cmd_width, "complexity-width curve",
            "--d", "--d0", "--k", "--n-grid", "--reps", "--seed")
    p.add_argument("--budget", type=int, default=DEFAULT_WIDTH_BUDGET)

    add("sparse", _cmd_sparse, "middle-vanishing construction",
        "--d", "--d0", "--k")

    p = add("checks", _cmd_checks, "numeric verification suites", "--suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int,
                   help="instances per sampling suite")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except (_UsageError, L0SplineError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
