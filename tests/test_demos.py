"""Every script under demos/ runs to completion as __main__, with the
suite's warnings-as-errors setting and its stdout captured."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == ["adaptive_selection.py",
                                       "phase_transition.py",
                                       "stress_signals.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch, capsys):
    # the demos read optional arguments from sys.argv: run with none
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
