"""Spans around the public functions of each l0spline layer, recorded
from outside the package.

install() puts a wrapper in place of each traced function in every
loaded l0spline module that holds it, so calls between modules are
caught too (cli -> solvers.dp_fit, experiments -> solvers.dp_fit,
shape -> model.iter_knot_vectors, ...), and replaces numpy.linalg.lstsq,
which every module reaches as np.linalg.lstsq.  Spans are aggregated
per function as they close: calls, inclusive time, and self time, the
inclusive time minus the time of traced calls made inside it.  Spans
are recorded only inside op(), so the benchmark's own checks are not
counted.  Durations are process CPU time, scaled per operation by the
machine-speed factor of run.py.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import process_time

import numpy as np

# (module of l0spline, function); iter_knot_vectors is a generator and is
# timed one item at a time
TRACED = (
    ("cli", "main"),
    ("cli", "parse_series"),
    ("solvers", "adaptive_fit"),
    ("solvers", "dp_fit"),
    ("solvers", "exhaustive_fit"),
    ("shape", "shape_lse"),
    ("shape", "fit_shape_given_knots"),
    ("shape", "nnls_activeset"),
    ("model", "iter_knot_vectors"),
    ("model", "raw_basis"),
    ("experiments", "noise_vector"),
    ("experiments", "simulate"),
    ("experiments", "lil_statistic"),
    ("experiments", "complexity_width"),
)
GENERATORS = {"model.iter_knot_vectors"}
LSTSQ = "numpy.linalg.lstsq"
# spans whose individual durations are kept for a median
KEEP_DURATIONS = {"solvers.dp_fit", "experiments.lil_statistic",
                  "experiments.complexity_width"}


@dataclass
class SpanStats:
    calls: int = 0
    items: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Per-function span aggregates for the operations run inside op()."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in
                      [f"{m}.{f}" for m, f in TRACED] + [LSTSQ]}
        # one child-time accumulator per open span; the bottom one is the
        # operation itself
        self._open: list = []
        self._restore: list = []

    def _close(self, name: str, dt: float, children: float) -> None:
        st = self.stats[name]
        st.total_s += dt
        st.self_s += dt - children
        if name in KEEP_DURATIONS:
            st.durations.append(dt)
        self._open[-1][0] += dt

    def _wrap(self, name: str, fn):
        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            st.calls += 1
            children = [0.0]
            self._open.append(children)
            t0 = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = process_time() - t0
                self._open.pop()
                self._close(name, dt, children[0])
        return wrapper

    def _wrap_generator(self, name: str, fn):
        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._open:
                yield from fn(*args, **kwargs)
                return
            st.calls += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = process_time()
                try:
                    item = next(it)
                except StopIteration:
                    self._close(name, process_time() - t0, 0.0)
                    return
                self._close(name, process_time() - t0, 0.0)
                st.items += 1
                yield item
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "l0spline" or name.startswith("l0spline.")]
        for mod, attr in TRACED:
            name = f"{mod}.{attr}"
            orig = getattr(sys.modules[f"l0spline.{mod}"], attr)
            wrap = (self._wrap_generator if name in GENERATORS
                    else self._wrap)(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrap)
                        self._restore.append((m, key, orig))
        self._restore.append((np.linalg, "lstsq", np.linalg.lstsq))
        np.linalg.lstsq = self._wrap(LSTSQ, np.linalg.lstsq)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._restore):
            setattr(m, key, orig)
        self._restore.clear()

    def mark(self) -> dict:
        """The running totals, for scale_since()."""
        return {name: (st.total_s, st.self_s, len(st.durations))
                for name, st in self.stats.items()}

    def scale_since(self, mark: dict, factor: float) -> None:
        """Multiply the time recorded since mark by factor, the speed
        scaling run.py applies to the operation's own time."""
        for name, st in self.stats.items():
            total_s, self_s, k = mark[name]
            st.total_s = total_s + (st.total_s - total_s) * factor
            st.self_s = self_s + (st.self_s - self_s) * factor
            st.durations[k:] = [t * factor for t in st.durations[k:]]

    @contextmanager
    def op(self):
        """Record the spans of one operation."""
        self._open.append([0.0])
        try:
            yield
        finally:
            self._open.clear()
