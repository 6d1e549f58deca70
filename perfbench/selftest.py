"""Show that the benchmark's checks can fail.

Each check first accepts a right answer from l0spline, then must reject
a planted wrong one: a fit at shifted knots, a perturbed SSE or
coefficient, a broken selection trace, a non-monotone shape fit, a
broken width chain, a perturbed statistic.  It also checks that
BENCHMARK.json names exactly the workloads and metrics run.py
reports.

    python3 perfbench/selftest.py

Exits 1 if any check accepts a wrong answer or rejects a right one.
"""

import json
import sys

import run  # first: pins BLAS to one thread before numpy loads

import numpy as np  # noqa: E402

import checks as C  # noqa: E402

sys.path.insert(0, str(run.SRC))

import l0spline as L  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MISSES = []


def accepts(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except C.CheckFailed as exc:
        MISSES.append(f"{what}: rejected a right answer ({exc})")
        return
    print(f"ok   {what} accepts the right answer")


def rejects(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except C.CheckFailed as exc:
        print(f"ok   {what} rejects it: {exc}")
        return
    MISSES.append(f"{what}: accepted a wrong answer")


def fit_args(y, fit):
    return (y, fit.knots.knots, fit.coeffs, fit.theta_hat.values, fit.sse)


def shifted(knots, j: int, by: int) -> tuple:
    return knots[:j] + (knots[j] + by,) + knots[j + 1:]


def jump_fits(gen) -> None:
    n, d = 120, 1
    x = np.arange(1, n + 1) / n
    y = 4.0 * (x > 0.5) + 2 * x + 0.2 * gen.standard_normal(n)
    params = L.ModelParams(d=d, d0=-1, k=2, n=n)
    fit = L.dp_fit(y, params)
    accepts("check_fit", C.check_fit, *fit_args(y, fit))
    accepts("k=2 scan", C.check_not_beaten, C.brute_k2_jump_sse(y, d),
            fit.sse, "k=2 scan")
    wrong = L.fit_given_knots(y, params, shifted(fit.knots.knots, 1, 5))
    accepts("check_fit on the shifted-knot fit", C.check_fit,
            *fit_args(y, wrong))
    rejects("k=2 scan, shifted knots", C.check_not_beaten,
            C.brute_k2_jump_sse(y, d), wrong.sse, "k=2 scan")
    rejects("check_fit, perturbed sse", C.check_fit, y, fit.knots.knots,
            fit.coeffs, fit.theta_hat.values, fit.sse * (1 + 1e-6))
    coeffs = list(fit.coeffs)
    coeffs[1] = (coeffs[1][0] + 1e-4,) + tuple(coeffs[1][1:])
    rejects("check_fit, perturbed coefficient", C.check_fit, y,
            fit.knots.knots, coeffs, fit.theta_hat.values, fit.sse)
    rejects("check_knots, gap rule", C.check_knots, (0, 1, n), n, d, 2)

    y3 = y + 3.0 * (x > 0.8)
    p3 = L.ModelParams(d=d, d0=-1, k=3, n=n)
    fit3 = L.dp_fit(y3, p3)
    accepts("one-knot-move scan", C.check_not_beaten,
            C.neighbourhood_jump_sse(y3, d, fit3.knots.knots), fit3.sse,
            "one-knot-move scan")
    wrong3 = L.fit_given_knots(y3, p3, shifted(fit3.knots.knots, 2, -4))
    rejects("one-knot-move scan, shifted knots", C.check_not_beaten,
            C.neighbourhood_jump_sse(y3, d, wrong3.knots.knots), wrong3.sse,
            "one-knot-move scan")


def selection(gen) -> None:
    n, d = 200, 0
    y = 5.0 * (np.arange(n) >= n // 2) + gen.standard_normal(n)
    sigma = C.robust_sigma(y)
    spec = L.PenaltySpec(tau=2.5, sigma=sigma, d=d, d0=-1, n=n)
    params = L.ModelParams(d=d, d0=-1, k=1, n=n)
    fit, trace = L.adaptive_fit(y, params, spec, with_trace=True)
    rows = [{"k": k, "sse": s, "penalty": p} for k, s, p, _ in trace]
    pen = L.penalty(fit.k_selected, spec)
    args = (fit.k_selected, fit.sse, pen, len(rows), 2.5, sigma, d, -1, n)
    accepts("check_adapt", C.check_adapt, rows, *args)
    other = 1 if fit.k_selected != 1 else 2
    rejects("check_adapt, wrong k selected", C.check_adapt, rows, other,
            *args[1:])
    bad = [dict(r) for r in rows]
    bad[-1]["penalty"] *= 1.01
    rejects("check_adapt, wrong penalty", C.check_adapt, bad, *args)
    bad = [dict(r) for r in rows]
    bad[2]["sse"] = bad[1]["sse"] * 1.01
    rejects("check_adapt, sse rising with k", C.check_adapt, bad, *args)


def smooth_fits(gen) -> None:
    n, d, d0, k = 24, 1, 0, 3
    x = np.arange(1, n + 1) / n
    y = 6 * np.abs(x - 0.4) + 0.1 * gen.standard_normal(n)
    params = L.ModelParams(d=d, d0=d0, k=k, n=n)
    fit = L.exhaustive_fit(y, params)
    accepts("check_fit, d0=0", C.check_fit, *fit_args(y, fit))
    accepts("knot-vector scan", C.check_not_beaten,
            C.brute_smooth_sse(y, d, d0, k), fit.sse, "knot-vector scan")
    knots = fit.knots.knots
    j = next(j for j in range(1, k) if knots[j] not in (0, n))
    wrong = L.fit_given_knots(y, params, shifted(knots, j, 3))
    rejects("knot-vector scan, shifted knots", C.check_not_beaten,
            C.brute_smooth_sse(y, d, d0, k), wrong.sse, "knot-vector scan")

    res = L.shape_lse(y[:16], d, k)
    ys = y[:16]
    accepts("check_d_monotone", C.check_d_monotone, res.theta_hat.values, d)
    accepts("scipy NNLS at the knots", C.check_shape_sse, ys, d,
            res.knots.knots, res.canonical.j_star, res.sse)
    accepts("knot and pivot scan", C.check_not_beaten,
            C.brute_shape_sse(ys, d, k), res.sse, "knot and pivot scan")
    dent = res.theta_hat.values.copy()
    dent[8] += 0.05
    rejects("check_d_monotone, dented fit", C.check_d_monotone, dent, d)
    rejects("scipy NNLS at the knots, perturbed sse", C.check_shape_sse, ys,
            d, res.knots.knots, res.canonical.j_star, res.sse * (1 + 1e-6))
    worse = min((L.fit_shape_given_knots(ys, d, (0, 3, 13, 16), j)
                 for j in range(k + 1)), key=lambda f: f.sse)
    rejects("knot and pivot scan, other knots", C.check_not_beaten,
            C.brute_shape_sse(ys, d, k), worse.sse, "knot and pivot scan")


def null_statistics(gen) -> None:
    eps = gen.standard_normal(40)
    w2 = L.complexity_width(eps, L.ModelParams(d=0, d0=-1, k=2, n=40))
    w3 = L.complexity_width(eps, L.ModelParams(d=0, d0=-1, k=3, n=40))
    accepts("width chain", C.check_width_chain, eps, {2: w2, 3: w3})
    rejects("width chain, k=3 below k=2", C.check_width_chain, eps,
            {2: w3, 3: w2})
    rejects("width chain, above ||eps||^2", C.check_width_chain, eps,
            {2: w2, 3: float(eps @ eps) * 1.01})
    ws = L.complexity_width(eps[:20], L.ModelParams(d=1, d0=0, k=3, n=20))
    accepts("projection scan", C.check_width, eps[:20], 1, 0, 3, ws)
    rejects("projection scan, perturbed width", C.check_width, eps[:20], 1,
            0, 3, ws * (1 + 1e-6))
    for d in (0, 2):
        z = L.lil_statistic(eps, d)
        accepts(f"naive lil loop d={d}", C.check_lil, eps, d, z)
        rejects(f"naive lil loop d={d}, perturbed", C.check_lil, eps, d,
                z * (1 + 1e-6))


def benchmark_file() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for what, ok in (("workloads", names == set(WORKLOADS)),
                     ("end_to_end", e2e == run.END_TO_END),
                     ("per_layer", layer == run.per_layer_units())):
        if ok:
            print(f"ok   BENCHMARK.json {what} match run.py")
        else:
            MISSES.append(f"BENCHMARK.json {what} differ from run.py")


def main() -> int:
    gen = np.random.Generator(np.random.Philox(key=[0, 99]))
    jump_fits(gen)
    selection(gen)
    smooth_fits(gen)
    null_statistics(gen)
    benchmark_file()
    for m in MISSES:
        print(f"MISS {m}")
    return 1 if MISSES else 0


if __name__ == "__main__":
    sys.exit(main())
