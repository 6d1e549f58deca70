"""The traced benchmark run looks up each layer's functions by name.

`perfbench/spans.py` wraps every (module, function) pair in its TRACED
table with getattr on the l0spline module, so a renamed or deleted
function would break `perfbench/run.py --trace 1` and nothing else.  The
table is read here without changing it.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    """spans.py run from its source, so no bytecode is written next to
    it; its dataclasses resolve their module through sys.modules."""
    module = sys.modules.setdefault("_perfbench_spans",
                                    types.ModuleType("_perfbench_spans"))
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


SPANS_MODULE = _spans()


@pytest.mark.parametrize("mod, attr", SPANS_MODULE.TRACED)
def test_traced_function_resolves(mod, attr):
    fn = getattr(importlib.import_module(f"l0spline.{mod}"), attr)
    assert callable(fn)
    # generators are timed one item at a time, other functions per call
    assert inspect.isgeneratorfunction(fn) == (
        f"{mod}.{attr}" in SPANS_MODULE.GENERATORS)
