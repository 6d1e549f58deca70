"""The three benchmark workloads.

A workload is a fixed list of operations repeated in rounds.  Round r
of a run with seed s draws its noise from Philox streams keyed by
(s, r, slot), so the same seed gives the same inputs and every round has
the same shape: the same operations at the same sizes, on fresh noise.
A run always ends on a whole round, which keeps the share of failed
operations exact.

This module imports nothing from l0spline at load time; run.py
imports the package through import_package() so that the import counts
as set-up.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import checks as C

PACKAGE_MODULES = ("cli", "experiments", "model", "shape", "solvers")


def import_package() -> SimpleNamespace:
    """Import l0spline afresh: drop every loaded l0spline module, then
    import the package and the modules the workloads call."""
    for name in [m for m in sys.modules
                 if m == "l0spline" or m.startswith("l0spline.")]:
        del sys.modules[name]
    root = importlib.import_module("l0spline")
    mods = {m: importlib.import_module(f"l0spline.{m}")
            for m in PACKAGE_MODULES}
    return SimpleNamespace(root=root, **mods)


@dataclass
class Op:
    """One timed operation.  run() returns whatever check() needs."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # a fault in the program that makes this operation fail every time
    known_fault: str | None = None
    # knot configurations (or knot and pivot pairs) the operation scans,
    # by traced function: the base of the per-configuration costs
    configs: dict = field(default_factory=dict)


def _stream(r: int, slot: int) -> int:
    return r * 1000 + slot


def _noise(seed: int, r: int, slot: int, n: int) -> np.ndarray:
    return np.random.Generator(
        np.random.Philox(key=[seed, _stream(r, slot)])).standard_normal(n)


# ---------------------------------------------------------------------------
# fit-series: single-series fits through the command line entry point
# ---------------------------------------------------------------------------

# command, degree, fixed k (None: adapt with the default k_max), n, signal
FIT_SERIES = (
    ("adapt", 0, None, 1000, "sparse_boxcar"),
    ("adapt", 1, None, 1000, "lf_spline"),
    ("adapt", 0, None, 1500, "zero"),
    ("adapt", 2, None, 1000, "sparse_boxcar"),
    ("fit", 0, 2, 2000, "sparse_boxcar"),
    ("fit", 1, 2, 1500, "lf_spline"),
    ("fit", 2, 2, 1000, "zero"),
    ("fit", 0, 3, 2000, "zero"),
    ("fit", 1, 3, 1200, "sparse_boxcar"),
    ("fit", 2, 3, 1000, "lf_spline"),
    ("fit", 0, 4, 1000, "sparse_boxcar"),
    ("fit", 1, 4, 1000, "zero"),
    ("fit", 0, 2, 1000, "lf_spline"),
    ("fit", 1, 2, 1000, "sparse_boxcar"),
    ("fit", 0, 5, 1500, "zero"),
)
# operations whose knots also get the one-knot-move scan (every k = 2
# fit and every adapt trace's k = 2 entry get the full k = 2 scan)
FIT_NEIGHBOURHOOD = (8, 11)
TAU = 2.5

FAULT_FIT_AT = ("solvers._fit_at scales pieces by (j/n)^l, so dp_fit's refit"
                " of a 12-point last piece at d=5 raises"
                " DegenerateSystemError")
FAULT_SWEEPER = ("_SegmentSweeper's normal equations lose the optimum at d=5"
                 " with an offset of 1e4, so dp_fit returns knots above the"
                 " exact least SSE")


def _fault_series() -> list:
    """The two d = 5, n = 300 series that fail.  They are fixed: their
    noise does not depend on the workload seed, so the operations fail on
    every run."""
    n = 300
    x = np.arange(1, n + 1) / n
    gen = np.random.Generator(np.random.Philox(key=[0, 5]))
    jump = np.sin(3 * x) + 5.0 * (x > 288 / n) + 0.5 * gen.standard_normal(n)
    gen = np.random.Generator(np.random.Philox(key=[0, 6]))
    offset = 1e4 + (x > 0.5) + 3 * x ** 2 + 0.5 * gen.standard_normal(n)
    return [("jump 12 from the right end", jump, FAULT_FIT_AT),
            ("offset 1e4", offset, FAULT_SWEEPER)]


def _write_series(path: Path, y: np.ndarray, indexed: bool) -> None:
    if indexed:
        text = "index,value\n" + "".join(
            f"{i},{v!r}\n" for i, v in enumerate(y.tolist(), start=1))
    else:
        text = "".join(f"{v!r}\n" for v in y.tolist())
    path.write_text(text, encoding="utf-8")


def _cli_op(pkg, name: str, argv: list, out: Path, check, **kw) -> Op:
    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = pkg.cli.main(argv)
        return code, err.getvalue()

    def check_report(result):
        code, err = result
        if code != 0:
            raise C.CheckFailed(f"exit {code}: {err.strip()}")
        check(json.loads(out.read_text(encoding="utf-8")))

    return Op(name, run, check_report, **kw)


def _check_jump_fit(y, d: int, k: int, neighbourhood: bool):
    def check(rep):
        C.check_knots(rep["knots"], y.size, d, k)
        C.check_fit(y, rep["knots"], [p["coeffs"] for p in rep["pieces"]],
                    rep["theta_hat"], rep["sse"])
        if k == 2:
            C.check_not_beaten(C.brute_k2_jump_sse(y, d), rep["sse"],
                               "k=2 scan")
        if neighbourhood:
            C.check_not_beaten(C.neighbourhood_jump_sse(y, d, rep["knots"]),
                               rep["sse"], "one-knot-move scan")
    return check


def _check_adapt(y, d: int):
    n, d0 = y.size, -1
    k_max = max(1, min((d + 1) // (d - d0) + 1 + 3, n // (d + 1)))

    def check(rep):
        k = rep["k_selected"]
        C.check_knots(rep["knots"], n, d, k)
        C.check_fit(y, rep["knots"], [p["coeffs"] for p in rep["pieces"]],
                    rep["theta_hat"], rep["sse"])
        C.check_adapt(rep["trace"], k, rep["sse"], rep["penalty_used"],
                      k_max, TAU, C.robust_sigma(y), d, d0, n)
        C.check_not_beaten(C.brute_k2_jump_sse(y, d), rep["trace"][1]["sse"],
                           "k=2 scan of the trace")
    return check


def fit_series_round(pkg, seed: int, r: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for slot, (cmd, d, k, n, kind) in enumerate(FIT_SERIES):
        theta0 = pkg.experiments.build_signal(kind, n, d, k or 2, 1.0).values
        y = theta0 + _noise(seed, r, slot, n)
        src, out = workdir / f"series-{slot}.csv", workdir / f"fit-{slot}.json"
        _write_series(src, y, indexed=slot % 2 == 1)
        out.unlink(missing_ok=True)
        argv = [cmd, "--input", str(src), "--d", str(d), "--d0", "-1",
                "--out", str(out)]
        if cmd == "fit":
            argv += ["--k", str(k), "--solver", "dp"]
            check = _check_jump_fit(y, d, k, slot in FIT_NEIGHBOURHOOD)
        else:
            check = _check_adapt(y, d)
        label = f"{cmd} d={d}" + (f" k={k}" if k else "") + f" n={n} {kind}"
        ops.append(_cli_op(pkg, label, argv, out, check))
    for slot, (what, y, fault) in enumerate(_fault_series(),
                                             start=len(FIT_SERIES)):
        src, out = workdir / f"series-{slot}.csv", workdir / f"fit-{slot}.json"
        _write_series(src, y, indexed=False)
        out.unlink(missing_ok=True)
        argv = ["fit", "--input", str(src), "--d", "5", "--d0", "-1", "--k",
                "2", "--solver", "dp", "--out", str(out)]
        ops.append(_cli_op(pkg, f"fit d=5 k=2 n=300 {what}", argv, out,
                           _check_jump_fit(y, 5, 2, False),
                           known_fault=fault))
    return ops


# ---------------------------------------------------------------------------
# mc-smooth: replicates on the smooth side of the transition, d=1, k=3
# ---------------------------------------------------------------------------

SMOOTH_D, SMOOTH_D0, SMOOTH_K = 1, 0, 3
# computation, n, signal; the first of each computation in a round also
# gets a brute-force scan
MC_SMOOTH = (
    ("exhaustive", 60, "lf_spline"),
    ("exhaustive", 56, "zero"),
    ("exhaustive", 58, "lf_spline"),
    ("exhaustive", 60, "zero"),
    ("exhaustive", 56, "lf_spline"),
    ("exhaustive", 58, "zero"),
    ("shape", 32, "shaped_lf"),
    ("shape", 32, "convex"),
    ("shape", 34, "convex"),
    ("width", 64, None),
    ("width", 60, None),
    ("width", 62, None),
    ("width", 64, None),
    ("width", 60, None),
    ("width", 62, None),
)


def _exhaustive_op(pkg, seed, stream, n, theta0, brute) -> Op:
    d, d0, k = SMOOTH_D, SMOOTH_D0, SMOOTH_K

    def run():
        y = pkg.experiments.simulate(theta0, 1.0, seed, stream).values
        params = pkg.model.ModelParams(d=d, d0=d0, k=k, n=n)
        return y, pkg.solvers.exhaustive_fit(y, params)

    def check(result):
        y, fit = result
        knots = fit.knots.knots
        C.check_knots(knots, n, d, k)
        C.check_fit(y, knots, fit.coeffs, fit.theta_hat.values, fit.sse)
        if not C.close(C.refit_smooth_sse(y, d, d0, knots), fit.sse,
                        fit.sse):
            raise C.CheckFailed("refit at the reported knots disagrees")
        if brute:
            C.check_not_beaten(C.brute_smooth_sse(y, d, d0, k), fit.sse,
                               "knot-vector scan")

    total = pkg.model.count_knot_vectors(n, k, d)
    return Op(f"exhaustive_fit d=1 d0=0 k=3 n={n}", run, check,
              configs={"solvers.exhaustive_fit": total})


def _shape_op(pkg, seed, stream, n, theta0, brute, kind) -> Op:
    d, k = SMOOTH_D, SMOOTH_K

    def run():
        y = pkg.experiments.simulate(theta0, 1.0, seed, stream).values
        return y, pkg.shape.shape_lse(y, d, k)

    def check(result):
        y, fit = result
        knots = fit.knots.knots
        C.check_knots(knots, n, d, k)
        C.check_fit(y, knots, fit.coeffs, fit.theta_hat.values, fit.sse)
        C.check_d_monotone(fit.theta_hat.values, d)
        C.check_shape_sse(y, d, knots, fit.canonical.j_star, fit.sse)
        if brute:
            C.check_not_beaten(C.brute_shape_sse(y, d, k), fit.sse,
                               "knot and pivot scan")

    total = pkg.model.count_knot_vectors(n, k, d) * (k + 1)
    return Op(f"shape_lse d=1 k=3 n={n} {kind}", run, check,
              configs={"shape.shape_lse": total})


def _smooth_width_op(pkg, seed, stream, n, brute) -> Op:
    d, d0, k = SMOOTH_D, SMOOTH_D0, SMOOTH_K

    def run():
        eps = pkg.experiments.noise_vector(seed, stream, n)
        params = pkg.model.ModelParams(d=d, d0=d0, k=k, n=n)
        return eps, pkg.experiments.complexity_width(eps, params)

    def check(result):
        eps, width = result
        C.check_width_chain(eps, {k: width})
        if brute:
            C.check_width(eps, d, d0, k, width)

    return Op(f"complexity_width d=1 d0=0 k=3 n={n}", run, check)


def mc_smooth_round(pkg, seed: int, r: int, workdir: Path) -> list:
    ops, seen = [], set()
    for slot, (what, n, kind) in enumerate(MC_SMOOTH):
        stream = _stream(r, slot)
        brute = what not in seen
        seen.add(what)
        if what == "width":
            ops.append(_smooth_width_op(pkg, seed, stream, n, brute))
            continue
        if kind == "convex":
            # one fixed member per n: the seed moves only the noise, so
            # the cost of the cone solves does not swing with the signal
            gen = np.random.Generator(np.random.Philox(key=[0, n]))
            member, _, _ = pkg.shape.sample_shape_member(
                gen, SMOOTH_D, SMOOTH_K, n)
            theta0 = 10.0 * member
        else:
            theta0 = pkg.experiments.build_signal(
                kind, n, SMOOTH_D, SMOOTH_K, 1.0).values
        if what == "exhaustive":
            ops.append(_exhaustive_op(pkg, seed, stream, n, theta0, brute))
        else:
            ops.append(_shape_op(pkg, seed, stream, n, theta0, brute, kind))
    return ops


# ---------------------------------------------------------------------------
# mc-null: pure-noise replicates of the phase-transition statistics
# ---------------------------------------------------------------------------

# lil_statistic (d, n); n <= LIL_NAIVE_MAX is checked by the naive loop
MC_NULL_LIL = ((1, 256), (2, 256), (0, 1024), (1, 2048), (2, 4096), (0, 8192))
LIL_NAIVE_MAX = 256
# complexity_width d=0, d0=-1 at k = 2 then k = 3 on the same noise
MC_NULL_WIDTH = (1024, 4096, 8192)
# fixed-k dp_fit on the zero signal: (d, k, n)
MC_NULL_DP = ((0, 2, 1000), (0, 3, 1200), (1, 3, 800))


def _lil_op(pkg, seed, stream, d, n) -> Op:
    def run():
        eps = pkg.experiments.noise_vector(seed, stream, n)
        return eps, pkg.experiments.lil_statistic(eps, d)

    def check(result):
        eps, z = result
        if not (math.isfinite(z) and z > 0):
            raise C.CheckFailed(f"statistic {z!r} is not positive")
        if n <= LIL_NAIVE_MAX:
            C.check_lil(eps, d, z)

    return Op(f"lil_statistic d={d} n={n}", run, check)


def _null_width_op(pkg, seed, stream, n, k, pair: dict) -> Op:
    def run():
        eps = pkg.experiments.noise_vector(seed, stream, n)
        params = pkg.model.ModelParams(d=0, d0=-1, k=k, n=n)
        return eps, pkg.experiments.complexity_width(eps, params)

    def check(result):
        eps, width = result
        pair[k] = width
        C.check_width_chain(eps, pair)

    return Op(f"complexity_width d=0 k={k} n={n}", run, check)


def _null_dp_op(pkg, seed, stream, d, k, n) -> Op:
    zero = np.zeros(n)

    def run():
        y = pkg.experiments.simulate(zero, 1.0, seed, stream).values
        fit = pkg.solvers.dp_fit(y, pkg.model.ModelParams(d=d, d0=-1, k=k,
                                                          n=n))
        theta = fit.theta_hat.values
        return y, fit, float(theta @ theta)

    def check(result):
        y, fit, risk = result
        knots = fit.knots.knots
        C.check_knots(knots, n, d, k)
        C.check_fit(y, knots, fit.coeffs, fit.theta_hat.values, fit.sse)
        if k == 2:
            C.check_not_beaten(C.brute_k2_jump_sse(y, d), fit.sse,
                               "k=2 scan")
        else:
            C.check_not_beaten(C.neighbourhood_jump_sse(y, d, knots),
                               fit.sse, "one-knot-move scan")
        # theta_hat is an orthogonal projection of y: Pythagoras
        if not C.close(risk, float(y @ y) - fit.sse, float(y @ y)):
            raise C.CheckFailed(f"risk {risk!r} != ||y||^2 - sse")

    return Op(f"dp_fit zero d={d} k={k} n={n}", run, check)


def mc_null_round(pkg, seed: int, r: int, workdir: Path) -> list:
    ops = [_lil_op(pkg, seed, _stream(r, slot), d, n)
           for slot, (d, n) in enumerate(MC_NULL_LIL)]
    for slot, n in enumerate(MC_NULL_WIDTH, start=100):
        pair: dict = {}
        ops += [_null_width_op(pkg, seed, _stream(r, slot), n, k, pair)
                for k in (2, 3)]
    ops += [_null_dp_op(pkg, seed, _stream(r, slot), d, k, n)
            for slot, (d, k, n) in enumerate(MC_NULL_DP, start=200)]
    return ops


WORKLOADS = {
    "fit-series": fit_series_round,
    "mc-smooth": mc_smooth_round,
    "mc-null": mc_null_round,
}
