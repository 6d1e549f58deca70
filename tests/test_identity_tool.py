"""tools/identity.py on its smoke keys: the digests are reproducible,
refusals are recorded, and the diff lists every key that differs."""

import hashlib
import importlib.util
from pathlib import Path

from l0spline.solvers import _dp_table

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_smoke_digests():
    first = identity.write(identity.SMOKE)
    assert identity.differing(first, identity.write(identity.SMOKE)) == []
    assert len(first) == len(identity.SMOKE)
    for (kind, d, n, k), digest in zip(identity.SMOKE, first.values()):
        if kind == "huge153":
            assert digest["table"].startswith("ValidationError: ")
            assert digest["dp_fit"].startswith("ValidationError: ")
            assert digest["fit"].startswith("exit 1 ")
            continue
        C, nxt = _dp_table(identity.series(kind, d, n), d, k)
        assert digest["table"] == hashlib.sha256(
            C.tobytes() + nxt.tobytes()).hexdigest()
        assert digest["fit"].startswith("exit 0 ")
        assert digest["adapt"].startswith("exit 0 ")

    changed = {key: dict(v) for key, v in first.items()}
    key, last = list(first)[0], list(first)[-1]
    changed[key]["adapt"] = "exit 2"
    del changed[last]
    assert identity.differing(first, changed) == [
        (key, ["adapt"]), (last, ["missing in second"])]
