"""Benchmark runner for l0spline: one workload in one process.

    python3 perfbench/run.py --workload fit-series --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; the package is imported from ./src.
BLAS is pinned to one thread.  The run sets up (imports l0spline and
builds the first round's inputs) five times and reports the median, then
repeats whole rounds of the workload's operations until --seconds have
passed and at least MIN_OPS operations were attempted.  Every operation
is timed on its own and checked after the clock stops.

Times are the process's CPU time (time.process_time), scaled to a
reference machine speed: each operation is bracketed by a fixed probe,
and its CPU time is multiplied by PROBE_REF_S over the mean of the two
probe times.  The program is single-threaded and compute-bound, so CPU
time leaves out only the time the process waited for a core; the probe
takes out the slowdown of a core shared with other work, which changed
the CPU time of one and the same operation by up to 2x within a run on
the 2-processor Xeon of the reference figures in README.md.  Run length
is wall time.

--trace 0 reports the end-to-end metrics.  --trace 1 runs rounds for
half of --seconds untraced, then the same rounds again with spans around
each layer's public functions, and reports the per-layer metrics and the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, with the
machine description and every failure reason, goes to
.bench_work/results/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5
MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
# traced function -> its per-layer fields; counts and self times are per
# operation, so runs of different length compare
PER_LAYER = (
    ("cli.main", ("self_s",)),
    ("cli.parse_series", ("self_s",)),
    ("solvers.adaptive_fit", ("calls", "self_s")),
    ("solvers.dp_fit", ("calls", "self_s", "p50_ms")),
    ("solvers.exhaustive_fit", ("calls", "self_s", "us_per_config")),
    ("shape.shape_lse", ("calls", "self_s", "us_per_pair")),
    ("shape.fit_shape_given_knots", ("calls", "self_s")),
    ("shape.nnls_activeset", ("calls", "self_s")),
    ("model.iter_knot_vectors", ("items", "self_s")),
    ("model.raw_basis", ("calls", "self_s")),
    ("numpy.linalg.lstsq", ("calls", "self_s")),
    ("experiments.lil_statistic", ("calls", "self_s", "p50_ms")),
    ("experiments.complexity_width", ("calls", "self_s", "p50_ms")),
    ("experiments.simulate", ("self_s",)),
    ("experiments.noise_vector", ("self_s",)),
)
FIELD_UNITS = {"calls": "count/op", "items": "count/op", "self_s": "s/op",
               "p50_ms": "ms", "us_per_config": "us", "us_per_pair": "us"}
OVERHEAD = ("trace.overhead_s", "s/op")


def per_layer_units() -> dict:
    units = {f"{name}.{f}": FIELD_UNITS[f]
             for name, fields in PER_LAYER for f in fields}
    units[OVERHEAD[0]] = OVERHEAD[1]
    return units


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

PROBE_REPS = 60
PROBE_REF_S = 0.0035
_probe_gen = np.random.Generator(np.random.Philox(key=[7, 7]))
_PROBE_A = _probe_gen.standard_normal((40, 4))
_PROBE_B = _probe_gen.standard_normal(40)
_PROBE_V = _probe_gen.standard_normal(8192)
# bound now, before a tracer replaces numpy.linalg.lstsq
_LSTSQ = np.linalg.lstsq


def probe() -> float:
    """CPU seconds of a fixed mix of the package's kinds of work: small
    dense least squares, a long cumulative sum, interpreter loops."""
    t0 = process_time()
    acc = 0.0
    for _ in range(PROBE_REPS):
        acc += _LSTSQ(_PROBE_A, _PROBE_B, rcond=None)[0][0]
        acc += float(np.cumsum(_PROBE_V)[-1])
        acc += sum(j * 0.5 for j in range(20))
    return process_time() - t0


def timed(fn):
    """Run fn between two probes.  Returns (result, exception, CPU
    seconds scaled to the reference speed, raw CPU seconds)."""
    before = probe()
    result = error = None
    t0 = process_time()
    try:
        result = fn()
    except Exception as exc:  # the package raised: the op failed
        error = exc
    dt = process_time() - t0
    after = probe()
    return result, error, dt * PROBE_REF_S / ((before + after) / 2), dt


# ---------------------------------------------------------------------------
# machine description
# ---------------------------------------------------------------------------

def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _process_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def machine() -> dict:
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "process_threads": _process_threads(),
    }


# ---------------------------------------------------------------------------
# running rounds
# ---------------------------------------------------------------------------

class Tally:
    """Times and outcomes of the operations of one phase."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.op_s = []          # every attempted operation, scaled
        self.raw_s = []         # the same, unscaled CPU time
        self.round_s = []       # summed operation time of each round
        self.ok_s = []          # operations that passed their checks
        self.by_op = collections.defaultdict(list)
        self.failures = collections.Counter()
        self.unexpected = collections.Counter()
        self.configs = collections.Counter()

    def record(self, op, dt: float, raw: float, error) -> None:
        self.attempted += 1
        self.op_s.append(dt)
        self.raw_s.append(raw)
        self.by_op[op.name].append(dt)
        self.configs.update(op.configs)
        if error is None:
            self.ok_s.append(dt)
            return
        self.failed += 1
        reason = error.strip().splitlines()[0][:240] if error.strip() \
            else "failed"
        self.failures[(op.name, reason, op.known_fault)] += 1
        if op.known_fault is None:
            self.unexpected[(op.name, reason)] += 1


def run_round(ops, tally: Tally, tracer=None) -> None:
    gc.collect()
    before = sum(tally.op_s)
    for op in ops:
        if tracer is None:
            result, exc, dt, raw = timed(op.run)
        else:
            mark = tracer.mark()
            with tracer.op():
                result, exc, dt, raw = timed(op.run)
            tracer.scale_since(mark, dt / raw if raw else 1.0)
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # a failed or broken check
                error = str(exc) or type(exc).__name__
        tally.record(op, dt, raw, error)
    tally.round_s.append(sum(tally.op_s) - before)
    tally.rounds += 1


def run_phase(build, pkg, seed, first_ops, done, tracer=None) -> Tally:
    """Run whole rounds from round 0 until done(tally, elapsed)."""
    tally = Tally()
    start = perf_counter()
    ops = first_ops
    while True:
        run_round(ops, tally, tracer)
        if done(tally, perf_counter() - start):
            return tally
        ops = build(pkg, seed, tally.rounds, WORK / "inputs")


def quantile(values, q: int) -> float:
    """The q-th decile of values (statistics.quantiles, exclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setup_s: float, tally: Tally) -> dict:
    ok = tally.ok_s or [0.0]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(tally.ok_s) / sum(tally.op_s),
        "op_p50_ms": 1e3 * statistics.median(ok),
        "op_p90_ms": 1e3 * quantile(ok, 9),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, traced: Tally, untraced: Tally) -> dict:
    ops = traced.attempted
    units = per_layer_units()
    out = {}
    for name, fields in PER_LAYER:
        st = tracer.stats[name]
        for f in fields:
            if f == "calls":
                v = st.calls / ops
            elif f == "items":
                v = st.items / ops
            elif f == "self_s":
                v = st.self_s / ops
            elif f == "p50_ms":
                v = 1e3 * statistics.median(st.durations) \
                    if st.durations else 0.0
            else:
                base = traced.configs[name]
                v = 1e6 * st.total_s / base if base else 0.0
            out[f"{name}.{f}"] = v
    # round 0 runs cold in the untraced phase and warm in the traced one,
    # so it is left out of the comparison when there are later rounds
    skip = 1 if traced.rounds > 1 else 0
    out[OVERHEAD[0]] = (sum(traced.round_s[skip:])
                        - sum(untraced.round_s[skip:])) \
        / (ops * (traced.rounds - skip) / traced.rounds)
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def failure_lines(tallies) -> list:
    failures = sum((t.failures for t in tallies), collections.Counter())
    return [{"op": op, "reason": reason, "known_fault": fault, "count": n}
            for (op, reason, fault), n in sorted(
                failures.items(), key=lambda kv: kv[0][:2])]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("fit-series", "mc-smooth", "mc-null"))
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="least measured time of a run (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "l0spline" / "__init__.py").is_file():
        sys.stderr.write(f"error: no l0spline package under {SRC}; run the "
                         "benchmark from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    build = workloads.WORKLOADS[args.workload]
    inputs = WORK / "inputs"
    def set_up():
        pkg = workloads.import_package()
        return pkg, build(pkg, args.seed, 0, inputs)

    setup, setup_raw = [], []
    for _ in range(SETUP_REPS):
        (pkg, first_ops), exc, dt, raw = timed(set_up)
        if exc is not None:
            raise exc
        setup.append(dt)
        setup_raw.append(raw)
    pkg_file = Path(pkg.root.__file__).resolve()
    if SRC.resolve() not in pkg_file.parents:
        sys.stderr.write(f"error: l0spline was imported from {pkg_file}, "
                         f"not from {SRC}\n")
        return 2
    setup_s = statistics.median(setup)

    if args.trace == 0:
        def done(tally, elapsed):
            return elapsed >= args.seconds and tally.attempted >= MIN_OPS

        main_tally = run_phase(build, pkg, args.seed, first_ops, done)
        tallies = [main_tally]
        metrics = end_to_end(setup_s, main_tally)
    else:
        import spans

        untraced = run_phase(build, pkg, args.seed, first_ops,
                             lambda t, e: e >= args.seconds / 2)
        rounds = untraced.rounds
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_phase(
                build, pkg, args.seed,
                build(pkg, args.seed, 0, inputs),
                lambda t, e: t.rounds >= rounds, tracer)
        finally:
            tracer.uninstall()
        tallies = [untraced, traced]
        main_tally = traced
        metrics = per_layer(tracer, traced, untraced)

    info = machine()
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    unexpected = sum((t.unexpected for t in tallies), collections.Counter())
    too_many_threads = info["process_threads"] > (info["nproc"] or 1)
    correct = not unexpected and not too_many_threads

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": info,
        "setup_runs_s": setup, "setup_runs_raw_s": setup_raw,
        "rounds": [t.rounds for t in tallies],
        "attempted": attempted, "failed": failed, "correct": correct,
        "round_s": [t.round_s for t in tallies],
        "failures": failure_lines(tallies),
        "op_ms": {name: [1e3 * t for t in ts]
                  for name, ts in sorted(main_tally.by_op.items())},
        "op_raw_ms_total": 1e3 * sum(main_tally.raw_s),
        "op_ms_total": 1e3 * sum(main_tally.op_s),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{record['rounds']}  attempted {attempted}  failed {failed}")
    print("machine " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        tag = "known fault" if f["known_fault"] else "unexpected"
        print(f"  failed {f['count']} x {f['op']} ({tag}): {f['reason']}")
    if too_many_threads:
        print(f"  process has {info['process_threads']} threads for "
              f"{info['nproc']} processors")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
