"""tools/identity.py on its smoke keys: the digests are reproducible,
refusals are recorded, and the diff lists every key that differs and
counts them by kind and field."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import oracles as orc
from l0spline import ModelParams
from l0spline.solvers import _dp_table, dp_fit

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
            # the costs of y overflow in the table of y, but the fit
            # searches the unit series: the knots of the noise unscaled
            assert "Error" not in digest["table"]
            ref = dp_fit(identity.series("noise", d, n),
                         ModelParams(d=d, d0=-1, k=k, n=n))
            assert digest["dp_fit"].startswith(f"{ref.knots.knots} ")
            assert digest["fit"].startswith("exit 0 ")
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
    rows = identity.differing(first, changed)
    assert rows == [(key, ["adapt"]), (last, ["missing in second"])]
    # noise first, constant last among the smoke keys
    assert identity.summary(rows) == [
        "normal-range kinds: 2 keys differ",
        "  noise: 1 (adapt 1)", "  zero: 0", "  rounded: 0", "  offset: 0",
        "  constant: 1 (missing in second 1)", "  poly: 0",
        "  alternating: 0",
        "extreme kinds: 0 keys differ",
        "  tiny: 0", "  huge151: 0", "  huge153: 0"]
    huge = [("huge153/d=1/n=40/k=2", ["dp_fit", "table"]),
            ("tiny/d=0/n=24/k=2", ["dp_fit", "shape"]),
            ("huge153/d=2/n=40/k=3", ["table"])]
    assert identity.summary(huge)[-4:] == [
        "extreme kinds: 3 keys differ", "  tiny: 1 (dp_fit 1, shape 1)",
        "  huge151: 0", "  huge153: 2 (dp_fit 1, table 2)"]


def test_diff_prints_the_summary_and_keeps_its_exit_code(tmp_path, capsys):
    keys = {"tiny/d=0/n=24/k=2": {"dp_fit": "a", "table": "b"}}
    paths = []
    for name, digests in (("a", keys), ("b", keys),
                          ("c", {"tiny/d=0/n=24/k=2": {"dp_fit": "c",
                                                       "table": "b"}})):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump({"numpy": "", "keys": digests}, fh)
    assert identity._main(["diff", paths[0], paths[1]]) == 0
    out = capsys.readouterr().out
    assert "extreme kinds: 0 keys differ" in out
    assert out.endswith("0 of 1 keys differ\n")
    assert identity._main(["diff", paths[0], paths[2]]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tiny/d=0/n=24/k=2: dp_fit"
    assert "  tiny: 1 (dp_fit 1)" in out
    assert out[-1] == "1 of 1 keys differ"


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
