"""Byte-identity digests of the DP, its refits and the shape fit on a grid.

Usage:

    python tools/identity.py write OUT.json [--src DIR | --rev REV]
    python tools/identity.py diff A.json B.json

`write` imports l0spline from DIR (default: the `src` directory of the
tree this script is in), or with `--rev` from the `src` of `git archive
REV` of this script's repository, extracted into a temporary directory.
It records one digest per key (kind, d, n, k):

- `table`: sha256 of the C and nxt bytes of `_dp_table(y, d, k)`;
- `dp_fit`: its knots, SSE as `float.hex`, sha256 of the theta-hat
  bytes and sha256 of the repr of its per-piece coefficients;
- `exhaustive`, at k <= 3 and n <= 40 only: the same of
  `exhaustive_fit(y, ModelParams(d, -1, k, n))`, the oracle the dynamic
  program is tested against;
- `given`, at d >= 1 only: the same of `fit_given_knots(y,
  ModelParams(d, d - 1, k, n), knots)` at the `dp_fit` knots, the
  refit of a class with d0 >= 0, or `dp_fit`'s refusal where it
  refused;
- `fit` and `adapt`: the exit code and sha256 of stdout and stderr of
  `l0spline fit --solver dp --k k` and `l0spline adapt --solver dp
  --k-max k --sigma 1`, run in process on the series written as a file;
- `shape`, at d <= 3, k <= 3 and n <= 40 only: the knots, pivot, SSE as
  `float.hex`, sha256 of the theta-hat bytes and sha256 of the canonical
  a, b, c of `shape_lse(y, d, k)`;
- `shape_coeffs`, on the same keys: sha256 of the repr of that fit's
  local coefficients, as the Python floats of its spline, so a change
  confined to the conversion from a, b, c shows here alone;
- `shapefit`, on the same keys: the exit code and digests of
  `l0spline shapefit --k k`.

A call that raises records the error type and message instead.  To
compare a working tree with its parent commit:

    python tools/identity.py write parent.json --rev HEAD
    python tools/identity.py write change.json
    python tools/identity.py diff parent.json change.json

`diff` lists every key whose digests differ, or that one file
lacks, then counts them by kind and, within a kind, by field: the seven
normal-range kinds first, then the extreme ones (EXTREME), whose
squares underflow or overflow.  It exits 1 if any key differs.  Digests
depend on the numpy and BLAS build, so compare only files written on one
machine.

The grid: d = 0..6; n = d+1..69, 160, 161, 401 and 999; k = 1, 2, 3, 4
and 6; ten kinds of series, seeded by (d, n).  That is 24,500 keys, 7,770
of them with an `exhaustive` field, 20,850 with a `given` field and
4,620 with each of the `shape`, `shape_coeffs` and `shapefit` fields; a
`write` takes about 4 minutes on one core.
tests/test_identity_tool.py runs the few keys of SMOKE.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings

import numpy as np

KINDS = ("noise", "zero", "rounded", "offset", "constant", "poly", "tiny",
         "alternating", "huge151", "huge153")
# the kinds whose squares underflow or overflow
EXTREME = ("tiny", "huge151", "huge153")
KS = (1, 2, 3, 4, 6)
# one key per path of the forward pass: the k = 2 screen, the blocks, the
# zero residual, the screen giving up, overflowing costs, and several blocks
# through the einsum and the complex moment pairs (d >= 2); and the
# shape fit's pooling path (d = 0, k >= n)
SMOKE = (("noise", 1, 40, 2), ("noise", 2, 30, 3), ("zero", 2, 30, 4),
         ("tiny", 0, 24, 2), ("huge153", 2, 40, 3), ("noise", 3, 161, 3),
         ("constant", 0, 3, 3))


def grid():
    """Every key (kind, d, n, k) of the full grid, in a fixed order."""
    for d in range(7):
        for n in [*range(d + 1, 70), 160, 161, 401, 999]:
            for kind in KINDS:
                for k in KS:
                    yield kind, d, n, k


def series(kind: str, d: int, n: int) -> np.ndarray:
    """The series of one kind at (d, n); the noise is seeded by (d, n)."""
    noise = np.random.default_rng([d, n]).standard_normal(n)
    x = np.arange(1, n + 1) / n
    return {
        "noise": noise,
        "zero": np.zeros(n),
        "rounded": np.round(noise),
        "offset": 1e4 + noise,
        "constant": np.full(n, 3.7),
        # an exact degree-d polynomial: every cost is rounding alone
        "poly": sum((m + 1.5) * x ** m for m in range(d + 1)),
        # squares underflow: every k = 2 split ties
        "tiny": 1e-300 * noise,
        "alternating": (np.arange(n) % 2).astype(float),
        # costs of some pieces overflow, or of all of them
        "huge151": 1e151 * noise,
        "huge153": 1e153 * noise,
    }[kind]


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _refusal(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _fit(fit) -> str:
    """The digest of one FitResult."""
    return (f"{fit.knots.knots} {float(fit.sse).hex()} "
            f"{_sha(fit.theta_hat.values.tobytes())} "
            f"{_sha(repr(fit.coeffs).encode())}")


def _cli(main, argv) -> str:
    """Exit code and digests of stdout and stderr of one command.  The
    warnings filters are set afresh, so each command warns as it would in
    a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = main(argv)
        except Exception as exc:   # a traceback is part of the digest
            return "raised " + _refusal(exc)
    return (f"exit {code} out {_sha(out.getvalue().encode())} "
            f"err {_sha(err.getvalue().encode())}")


def digest(kind: str, d: int, n: int, k: int, path: str) -> dict:
    """The digests of one key; path is where the series file goes."""
    from l0spline import ModelParams
    from l0spline.cli import main
    from l0spline.shape import shape_lse
    from l0spline.solvers import (_dp_table, dp_fit, exhaustive_fit,
                                  fit_given_knots)

    y = series(kind, d, n)
    params = ModelParams(d=d, d0=-1, k=k, n=n)
    out = {}
    with np.errstate(all="ignore"):
        try:
            C, nxt = _dp_table(y, d, k)
            out["table"] = _sha(C.tobytes(), nxt.tobytes())
        except Exception as exc:   # a refusal is part of the digest
            out["table"] = _refusal(exc)
        solvers = {"dp_fit": dp_fit}
        if k <= 3 and n <= 40:
            solvers["exhaustive"] = exhaustive_fit
        fits = {}
        for name, solve in solvers.items():
            try:
                fits[name] = solve(y, params)
                out[name] = _fit(fits[name])
            except Exception as exc:
                out[name] = _refusal(exc)
        if d:
            out["given"] = out["dp_fit"]
            if "dp_fit" in fits:
                try:
                    out["given"] = _fit(fit_given_knots(
                        y, ModelParams(d=d, d0=d - 1, k=k, n=n),
                        fits["dp_fit"].knots.knots))
                except Exception as exc:
                    out["given"] = _refusal(exc)
        shaped = d <= 3 and k <= 3 and n <= 40
        if shaped:
            try:
                fit = shape_lse(y, d, k)
                rep = fit.canonical
                terms = repr((rep.a, rep.b, rep.c)).encode()
                out["shape"] = (
                    f"{fit.knots.knots} {rep.j_star} {float(fit.sse).hex()} "
                    f"{_sha(fit.theta_hat.values.tobytes())} {_sha(terms)}")
                out["shape_coeffs"] = _sha(repr(fit.spline.coeffs).encode())
            except Exception as exc:
                out["shape"] = out["shape_coeffs"] = _refusal(exc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in y.tolist()))
    common = ["--input", path, "--d", str(d), "--d0", "-1", "--solver", "dp"]
    out["fit"] = _cli(main, ["fit", *common, "--k", str(k)])
    out["adapt"] = _cli(main, ["adapt", *common, "--k-max", str(k),
                               "--sigma", "1"])
    if shaped:
        out["shapefit"] = _cli(
            main, ["shapefit", "--input", path, "--d", str(d), "--k", str(k)])
    return out


def write(keys) -> dict:
    """{key name: digests} for the keys, in order."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "y.csv")
        for kind, d, n, k in keys:
            result[f"{kind}/d={d}/n={n}/k={k}"] = digest(kind, d, n, k, path)
    return result


def differing(a: dict, b: dict) -> list:
    """(key, fields) for every key whose digests differ or that one side
    lacks, in the first file's order, then the second's."""
    rows = []
    for key in [*a, *(key for key in b if key not in a)]:
        if key not in a or key not in b:
            rows.append((key, ["missing in " + ("first" if key in b
                                                else "second")]))
            continue
        fields = [f for f in sorted({*a[key], *b[key]})
                  if a[key].get(f) != b[key].get(f)]
        if fields:
            rows.append((key, fields))
    return rows


def summary(rows) -> list:
    """Lines counting the keys of rows (from differing) by kind, each with
    its count per field: the normal-range kinds, then EXTREME."""
    keys, fields = collections.Counter(), collections.defaultdict(
        collections.Counter)
    for key, names in rows:
        kind = key.split("/")[0]
        keys[kind] += 1
        fields[kind].update(names)
    lines = []
    normal = [kind for kind in KINDS if kind not in EXTREME]
    for title, kinds in (("normal-range", normal), ("extreme", EXTREME)):
        lines.append(f"{title} kinds: {sum(keys[k] for k in kinds)} keys "
                     f"differ")
        for kind in kinds:
            counts = ", ".join(f"{name} {count}" for name, count
                               in sorted(fields[kind].items()))
            lines.append(f"  {kind}: {keys[kind]}"
                         + (f" ({counts})" if counts else ""))
    return lines


def _extract(repo: str, rev: str, into: str) -> None:
    """Extract `git archive rev` of the repository at repo into a
    directory."""
    tar = subprocess.run(["git", "-C", repo, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write", help="write the digests of the grid")
    w.add_argument("out")
    tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    where = w.add_mutually_exclusive_group()
    where.add_argument("--src", default=os.path.join(tree, "src"))
    where.add_argument("--rev", help="digest the src of this commit")
    df = sub.add_parser("diff", help="list the keys that differ")
    df.add_argument("first")
    df.add_argument("second")
    args = parser.parse_args(argv)
    if args.cmd == "write":
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.abspath(args.src)
            if args.rev is not None:
                _extract(tree, args.rev, tmp)
                src = os.path.join(tmp, "src")
            sys.path.insert(0, src)
            digests = write(grid())
        refused = sum(": " in v["dp_fit"] for v in digests.values())
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"numpy": np.__version__, "keys": digests}, fh,
                      indent=0)
        print(f"{len(digests)} keys, {refused} dp fits refused -> {args.out}")
        return 0
    with open(args.first, encoding="utf-8") as fh:
        a = json.load(fh)["keys"]
    with open(args.second, encoding="utf-8") as fh:
        b = json.load(fh)["keys"]
    rows = differing(a, b)
    for key, fields in rows:
        print(f"{key}: {', '.join(fields)}")
    print(*summary(rows), sep="\n")
    print(f"{len(rows)} of {len({*a, *b})} keys differ")
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(_main())
