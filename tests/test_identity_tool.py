"""tools/identity.py on its smoke keys: the digests are reproducible,
refusals are recorded, and the diff lists every key that differs."""

import hashlib
import importlib.util
import subprocess
from pathlib import Path

import oracles as orc
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
        assert ("exhaustive" in digest) == (k <= 3 and n <= 40)
        assert ("shape" in digest) == (d <= 3 and k <= 3 and n <= 40)
        if kind == "huge153":
            assert digest["table"].startswith("ValidationError: ")
            assert digest["dp_fit"].startswith("ValidationError: ")
            assert digest["fit"].startswith("exit 1 ")
            continue
        if "shape" in digest:
            assert "; shapefit exit 0 " in digest["shape"]
        C, nxt = _dp_table(identity.series(kind, d, n), d, k)
        assert digest["table"] == hashlib.sha256(
            C.tobytes() + nxt.tobytes()).hexdigest()
        assert digest["fit"].startswith("exit 0 ")
        assert digest["adapt"].startswith("exit 0 ")
        # the oracle's knots, SSE and fitted values are the DP's
        assert digest.get("exhaustive", digest["dp_fit"]) == digest["dp_fit"]
        if d == 0 and k >= n:
            # the pooling path takes the scan's knots and pivot
            ref = orc.shape_pair_scan(identity.series(kind, d, n), d, k)
            assert digest["shape"].startswith(
                f"{ref.knots.knots} {ref.canonical.j_star} ")

    changed = {key: dict(v) for key, v in first.items()}
    key, last = list(first)[0], list(first)[-1]
    changed[key]["adapt"] = "exit 2"
    del changed[last]
    assert identity.differing(first, changed) == [
        (key, ["adapt"]), (last, ["missing in second"])]


def test_rev_extracts_the_committed_tree(tmp_path):
    """--rev digests the src of git archive REV, not the working tree."""
    repo, out = tmp_path / "repo", tmp_path / "out"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "m.py").write_text("A = 1\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t",
           "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "one"], check=True)
    (repo / "src" / "m.py").write_text("A = 2\n")
    identity._extract(str(repo), "HEAD", str(out))
    assert (out / "src" / "m.py").read_text() == "A = 1\n"
