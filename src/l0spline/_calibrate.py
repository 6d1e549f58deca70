"""Regenerate the packaged empirical calibration constants.

Run as ``python -m l0spline._calibrate``.  Each entry records the seed,
the sampling grid, the observed extreme, the safety margin, and the
resulting bound, so the whole file can be rebuilt or audited at any
time.  Counter-based bit generators keyed by (seed, instance) keep every
scan reproducible.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from .experiments import _philox
from .kernels import (
    beta_ratio_check,
    beta_table,
    max_cancellations,
    quad_form_residuals,
    sample_end_long_knots,
    sample_unit_spline,
)
from .model import (
    KnotVector,
    ModelParams,
    discrete_vs_integral_l2,
    local_coefficients_from_truncated_power,
    raw_basis,
    transition_boundary,
)
from .shape import coef_bound_statistic, sample_shape_member
from .solvers import PenaltySpec, adaptive_fit

BETA_SEED = 61001
QUAD_SEED = 61002
SHAPE_SEED = 61003
NORM_SEED = 61004
TAU_SEED = 61005


def calibrate_beta_ratio(seed: int = BETA_SEED, instances: int = 400,
                         margin: float = 0.5) -> dict:
    """Scan the weight-ratio inequality over random end-dominant knot
    layouts and return the margined lower constant."""
    pairs = [(1, 0), (2, 1), (3, 1), (3, 2)]
    worst = np.inf
    count = 0
    for t in range(instances):
        rng = _philox(seed, t)
        d, d0 = pairs[int(rng.integers(0, len(pairs)))]
        k0 = transition_boundary(d, d0)
        n = int(rng.integers(20, 61)) * k0
        kv = sample_end_long_knots(rng, d, d0, n)
        table = beta_table(d, d0, kv)
        g = d - d0
        for s in range(1, max_cancellations(d, d0) + 1):
            for i in range(1, d + 2 - s * g):
                for j1 in range(0, s * g + 1):
                    for j2 in range(j1, s * g + 1):
                        lhs, rhs = beta_ratio_check(table, s, i, j1, j2)
                        worst = min(worst, lhs / rhs)
                        count += 1
    return {
        "seed": seed,
        "instances": instances,
        "ratios_scanned": count,
        "pairs": [list(p) for p in pairs],
        "n_grid": "uniform multiple of k0 in [20;60]",
        "min_observed": worst,
        "margin": margin,
        "c_emp": worst * margin,
    }


def calibrate_quad_form(seed: int = QUAD_SEED, instances: int = 500,
                        margin: float = 1.1) -> dict:
    """Scan the extracted quadratic forms over random unit-norm members
    with maximal-smoothness interfaces and return the margined upper
    bound 1/c_emp."""
    worst = 0.0
    count = 0
    for t in range(instances):
        rng = _philox(seed, t)
        d = int(rng.integers(0, 4))
        d0 = d - 1
        k0 = transition_boundary(d, d0)
        n = int(rng.integers(15, 41)) * k0
        kv = sample_end_long_knots(rng, d, d0, n)
        params = ModelParams(d=d, d0=d0, k=k0, n=n)
        spline = sample_unit_spline(rng, params, kv)
        for s in range(0, max_cancellations(d, d0) + 1):
            worst = max(worst, quad_form_residuals(spline, d0, s))
            count += 1
    return {
        "seed": seed,
        "instances": instances,
        "forms_scanned": count,
        "d_grid": [0, 1, 2, 3],
        "smoothness": "d0 = d - 1",
        "n_grid": "uniform multiple of k0 in [15;40]",
        "max_observed": worst,
        "margin": margin,
        "inv_c_emp": worst * margin,
    }


def calibrate_shape_coef(seed: int = SHAPE_SEED, members: int = 2000,
                         margin: float = 1.25) -> dict:
    """Scan the normalized polynomial-coefficient statistic over random
    shape-class members and return margined per-cell upper bounds."""
    cells = {}
    for d in (1, 2):
        for n in (64, 256):
            worst = 0.0
            for t in range(members):
                rng = _philox(seed, d * 1_000_000 + n * 1_000 + t)
                vals, knots, _ = sample_shape_member(rng, d, 3, n)
                worst = max(worst,
                            coef_bound_statistic(vals, d, 3, knots=knots))
            cells[f"d={d},n={n}"] = {
                "max_observed": worst,
                "bound": worst * margin,
            }
    return {
        "seed": seed,
        "members_per_cell": members,
        "k": 3,
        "margin": margin,
        "cells": cells,
    }


def calibrate_discrete_integral(seed: int = NORM_SEED,
                                instances: int = 300) -> dict:
    """Scan the ratio between the squared sequence norm and n times the
    squared integral norm over random splines."""
    lo, hi = np.inf, 0.0
    for t in range(instances):
        rng = _philox(seed, t)
        d = int(rng.integers(0, 4))
        d0 = int(rng.integers(-1, d))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(max(8, k * (d + 1)), 65))
        knots = _random_knots(rng, n, k, d)
        kv = KnotVector(knots, d)
        X = raw_basis(n, d, d0, knots)
        coef = rng.normal(size=X.shape[1])
        vals = X @ coef
        ssq = float(vals @ vals)
        if ssq < 1e-12:
            continue
        spline = local_coefficients_from_truncated_power(kv, d0, coef)
        seq, integral = discrete_vs_integral_l2(spline)
        ratio = seq / integral
        lo, hi = min(lo, ratio), max(hi, ratio)
    return {
        "seed": seed,
        "instances": instances,
        "d_max": 3,
        "n_max": 64,
        "ratio_min": lo,
        "ratio_max": hi,
    }


def _random_knots(rng, n: int, k: int, d: int) -> tuple:
    while True:
        if k == 1:
            return (0, n)
        inner = np.sort(rng.choice(np.arange(d + 1, n - d, dtype=int),
                                   size=k - 1, replace=False))
        if k - 1 <= 1 or np.min(np.diff(inner)) >= d + 1:
            return (0,) + tuple(int(v) for v in inner) + (n,)


def calibrate_adaptive(seed: int = TAU_SEED, reps: int = 200,
                       tau: float = 2.5) -> dict:
    """Measure how often the penalized fit recovers a three-piece boxcar
    at the default penalty multiplier."""
    n, sigma = 256, 1.0
    j1, j2 = n // 3, 2 * n // 3
    theta = np.zeros(n)
    theta[j1:j2] = 10.0 * sigma
    params = ModelParams(d=0, d0=-1, k=1, n=n, sigma=sigma)
    spec = PenaltySpec(tau=tau, sigma=sigma, d=0, d0=-1, n=n)
    hits = 0
    for rep in range(reps):
        rng = _philox(seed, rep)
        y = theta + sigma * rng.standard_normal(n)
        fit = adaptive_fit(y, params, spec)
        hits += int(fit.k_selected == 3)
    return {
        "seed": seed,
        "reps": reps,
        "tau": tau,
        "n": n,
        "signal": "three-piece boxcar, ten sigma",
        "hit_rate": hits / reps,
    }


def main() -> None:
    out = {
        "regenerate_with": "python -m l0spline._calibrate",
        "note": ("empirical constants: observed extremes over seeded "
                 "ensembles times the stated margins, not theoretical "
                 "values"),
        "beta_ratio": calibrate_beta_ratio(),
        "quad_form": calibrate_quad_form(),
        "shape_coef": calibrate_shape_coef(),
        "discrete_integral": calibrate_discrete_integral(),
        "adaptive": calibrate_adaptive(),
    }
    path = pathlib.Path(__file__).with_name("calibration.json")
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    for key in ("beta_ratio", "quad_form", "shape_coef",
                "discrete_integral", "adaptive"):
        print(key, json.dumps(out[key], sort_keys=True)[:200])


if __name__ == "__main__":
    main()
