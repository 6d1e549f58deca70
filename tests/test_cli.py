"""Tests for the command-line surface: parsing, reports, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from l0spline import cli
from l0spline.cli import main, parse_series
from l0spline.errors import (
    DegenerateSystemError,
    NonConvergenceError,
    SeriesFormatError,
)
from l0spline.shape import is_d_monotone


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_report(report):
    # rebuild theta_hat from the emitted piece polynomials
    n = len(report["theta_hat"])
    theta = np.zeros(n)
    for piece in report["pieces"]:
        if piece["coeffs"] is None:
            continue
        for i in range(piece["start"] + 1, piece["end"] + 1):
            x = (i - piece["start"]) / n
            theta[i - 1] = sum(a * x ** m
                               for m, a in enumerate(piece["coeffs"]))
    return theta


class TestParseSeries:
    def test_single_column(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1\n2\n3\n")
        np.testing.assert_array_equal(parse_series(str(p)).values,
                                      [1.0, 2.0, 3.0])

    def test_two_column_with_header(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("index,value\n1,5.0\n2,6.0\n")
        np.testing.assert_array_equal(parse_series(str(p)).values,
                                      [5.0, 6.0])

    def test_rows_sorted_by_index(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("2,6.0\n1,5.0\n3,7.0\n")
        np.testing.assert_array_equal(parse_series(str(p)).values,
                                      [5.0, 6.0, 7.0])

    def test_non_contiguous_indices(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1,5.0\n3,6.0\n")
        with pytest.raises(SeriesFormatError, match="contiguous"):
            parse_series(str(p))

    def test_duplicate_indices(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1,5.0\n1,6.0\n")
        with pytest.raises(SeriesFormatError, match="contiguous"):
            parse_series(str(p))

    def test_malformed_line_reported_with_number(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1\nfoo\n3\n")
        with pytest.raises(SeriesFormatError, match="line 2"):
            parse_series(str(p))

    def test_mixed_formats_rejected(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1.5\n2,6.0\n")
        with pytest.raises(SeriesFormatError, match="line 2"):
            parse_series(str(p))

    def test_three_columns_rejected(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1,2.0,3.0\n")
        with pytest.raises(SeriesFormatError, match="2 columns"):
            parse_series(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("")
        with pytest.raises(SeriesFormatError, match="empty"):
            parse_series(str(p))

    def test_header_only(self, tmp_path):
        p = tmp_path / "y.csv"
        for text in ("index,value\n", "value\n\n  \n"):
            p.write_text(text)
            with pytest.raises(SeriesFormatError, match="no data"):
                parse_series(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SeriesFormatError, match="cannot read"):
            parse_series(str(tmp_path / "absent.csv"))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1\n\n2\n\n")
        np.testing.assert_array_equal(parse_series(str(p)).values,
                                      [1.0, 2.0])

    @pytest.mark.parametrize("text, message", [
        ("1.5\n2,6.0\n3\nxyz\n", "line 4: could not parse value 'xyz'"),
        ("1.5\n2,6.0\n3,4,5\n", "line 3: expected 1 or 2 columns, got 3"),
        ("1,5.0\n2\n3.5,7.0\n", "line 3: index '3.5' is not an integer"),
    ])
    def test_bad_row_reported_before_earlier_mixed_row(self, tmp_path, text,
                                                       message):
        p = tmp_path / "y.csv"
        p.write_text(text)
        with pytest.raises(SeriesFormatError) as exc:
            parse_series(str(p))
        assert str(exc.value) == f"{p}: {message}"

    def test_header_of_any_width(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("a,b,c\n 2 , 6.0 \n1,5.0\n")
        np.testing.assert_array_equal(parse_series(str(p)).values,
                                      [5.0, 6.0])

    def test_only_the_first_line_can_be_a_header(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("index,value\nindex,value\n1,2\n")
        with pytest.raises(SeriesFormatError,
                           match="line 2: index 'index' is not an integer"):
            parse_series(str(p))


@pytest.fixture
def step_file(tmp_path):
    rng = np.random.default_rng(77)
    y = np.where(np.arange(12) < 7, 0.0, 4.0) + 0.01 * rng.normal(size=12)
    p = tmp_path / "step.csv"
    p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
    return str(p), y


class TestFitCommand:
    def test_report_contract(self, step_file, capsys):
        path, y = step_file
        code, out, _ = run_cli(["fit", "--input", path, "--d", "0",
                                "--d0", "-1", "--k", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"d", "d0", "k_selected", "knots", "pieces",
                               "sse", "penalty_used", "theta_hat"}
        assert report["penalty_used"] is None
        assert report["k_selected"] == 2
        assert report["knots"][0] == 0 and report["knots"][-1] == 12
        # round trip: pieces reproduce theta_hat, theta_hat reproduces sse
        theta = eval_report(report)
        np.testing.assert_allclose(theta, report["theta_hat"], atol=1e-9)
        np.testing.assert_allclose(float(np.sum((y - theta) ** 2)),
                                   report["sse"], atol=1e-9)

    def test_solvers_agree_through_cli(self, step_file, capsys):
        path, _ = step_file
        base = ["fit", "--input", path, "--d", "0", "--d0", "-1",
                "--k", "3"]
        _, out_dp, _ = run_cli(base + ["--solver", "dp"], capsys)
        _, out_ex, _ = run_cli(base + ["--solver", "exhaustive"], capsys)
        sse_dp = json.loads(out_dp)["sse"]
        sse_ex = json.loads(out_ex)["sse"]
        assert abs(sse_dp - sse_ex) < 1e-9

    def test_dp_requires_full_discontinuity(self, step_file, capsys):
        path, _ = step_file
        code, _, err = run_cli(["fit", "--input", path, "--d", "1",
                                "--d0", "0", "--k", "2", "--solver", "dp"],
                               capsys)
        assert code == 1
        assert "dp" in err

    def test_dp_refuses_degree_above_6(self, step_file, capsys):
        path, _ = step_file
        code, out, err = run_cli(["fit", "--input", path, "--d", "7",
                                  "--d0", "-1", "--k", "1", "--solver",
                                  "dp"], capsys)
        assert code == 1
        assert out == ""
        assert "d <= 6" in err

    @pytest.mark.parametrize("command", (["fit", "--k", "1"],
                                         ["fit", "--k", "3"],
                                         ["adapt", "--sigma", "1"]))
    def test_dp_refuses_overflowing_data(self, tmp_path, capsys, command):
        y = 1e154 * np.random.default_rng(78).normal(size=40)
        p = tmp_path / "huge.csv"
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        code, out, err = run_cli(command + ["--input", str(p), "--d", "0",
                                            "--d0", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflow" in err

    def test_out_flag_writes_file(self, step_file, tmp_path, capsys):
        path, _ = step_file
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(["fit", "--input", path, "--d", "0",
                                "--d0", "-1", "--k", "2", "--out",
                                str(dest)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["k_selected"] == 2


class TestAdaptCommand:
    def test_selects_three_pieces_and_traces(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        n = 60
        theta = np.zeros(n)
        theta[n // 3:2 * n // 3] = 10.0
        y = theta + rng.normal(size=n)
        p = tmp_path / "boxcar.csv"
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        code, out, _ = run_cli(["adapt", "--input", str(p), "--d", "0",
                                "--d0", "-1", "--sigma", "1.0"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["k_selected"] == 3
        ks = [row["k"] for row in report["trace"]]
        assert ks == list(range(1, len(ks) + 1))
        assert all(row["penalty"] > 0 for row in report["trace"])
        at_k = next(row for row in report["trace"]
                    if row["k"] == report["k_selected"])
        np.testing.assert_allclose(report["penalty_used"], at_k["penalty"])
        np.testing.assert_allclose(report["sse"], at_k["sse"])

    def test_noise_scale_estimated_when_omitted(self, step_file, capsys):
        path, _ = step_file
        code, out, _ = run_cli(["adapt", "--input", path, "--d", "0",
                                "--d0", "-1"], capsys)
        assert code == 0
        assert json.loads(out)["k_selected"] == 2

    def test_zero_noise_estimate_is_an_error(self, tmp_path, capsys):
        """On a tie-heavy series the median absolute first difference is
        0, and the refusal names it, not a sigma never passed."""
        y = np.round(0.3 * np.random.default_rng(7).normal(size=250))
        p = tmp_path / "ties.csv"
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        code, out, err = run_cli(["adapt", "--input", str(p), "--d", "0",
                                  "--d0", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot estimate sigma")
        assert "--sigma" in err and "got 0.0" not in err

    @pytest.mark.parametrize("value, estimate", [("1e308", "inf"),
                                                 ("3e160", "6.29005e+160")])
    def test_overflowing_noise_estimate_is_an_error(
            self, tmp_path, capsys, recwarn, value, estimate):
        """On 20 points alternating +-1e308 the first differences overflow
        and the estimate is inf; at +-3e160 it is finite but its square
        is not.  The refusal names the estimate, not a sigma never
        passed, and numpy's overflow warning does not get through."""
        p = tmp_path / "huge.csv"
        p.write_text("\n".join([value, "-" + value] * 10) + "\n")
        code, out, err = run_cli(["adapt", "--input", str(p), "--d", "0",
                                  "--d0", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot estimate sigma")
        assert f"sigma = {estimate}," in err and "pass --sigma" in err
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    @pytest.mark.parametrize("flags", [["--tau", "nan"], ["--tau", "inf"],
                                       ["--sigma", "inf"],
                                       ["--sigma", "1e308", "--tau", "1e10"],
                                       ["--sigma", "1e10", "--tau", "1e300"],
                                       ["--sigma", "1", "--tau", "1e308"]])
    def test_non_finite_penalty_is_an_error(self, step_file, capsys, flags):
        path, _ = step_file
        code, out, err = run_cli(["adapt", "--input", path, "--d", "0",
                                  "--d0", "-1"] + flags, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err


class TestShapefitCommand:
    def test_convex_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        x = np.arange(1, 13) / 12.0
        y = 3.0 * (x - 0.5) ** 2 + 0.05 * rng.normal(size=12)
        p = tmp_path / "convex.csv"
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        code, out, _ = run_cli(["shapefit", "--input", str(p), "--d", "1",
                                "--k", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert isinstance(report["pivot"], int)
        assert report["d0"] == 0
        assert is_d_monotone(np.array(report["theta_hat"]), 1)
        theta = eval_report(report)
        np.testing.assert_allclose(theta, report["theta_hat"], atol=1e-9)

    @pytest.mark.parametrize("d, k", [("-1", "2"), ("7", "1")])
    def test_unfittable_input_is_an_error(self, d, k, tmp_path, capsys):
        p = tmp_path / "y6.csv"
        p.write_text("\n".join(str(v) for v in range(6)) + "\n")
        code, out, err = run_cli(["shapefit", "--input", str(p), "--d", d,
                                  "--k", k], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_degree_above_envelope_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "y40.csv"
        p.write_text("\n".join(str(v) for v in range(40)) + "\n")
        code, out, err = run_cli(["shapefit", "--input", str(p), "--d", "4",
                                  "--k", "2"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "d <= 3" in err


class TestOverflowingInput:
    """Every solver refuses a series whose squares overflow with exit 1,
    where the exhaustive and shape paths printed "sse": Infinity."""

    @staticmethod
    def _write(tmp_path, scale):
        y = scale * np.random.default_rng(79).normal(size=30)
        p = tmp_path / "y.csv"
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        return str(p)

    @pytest.mark.parametrize("command", (
        ["fit", "--d", "1", "--d0", "0", "--k", "2"],
        ["fit", "--d", "1", "--d0", "-1", "--k", "2", "--solver",
         "exhaustive"],
        ["fit", "--d", "1", "--d0", "-1", "--k", "2"],
        ["adapt", "--d", "1", "--d0", "0", "--k-max", "2", "--sigma", "1"],
        ["shapefit", "--d", "1", "--k", "2"],
        ["shapefit", "--d", "0", "--k", "40"]))
    def test_refused(self, tmp_path, capsys, command):
        code, out, err = run_cli(
            command + ["--input", self._write(tmp_path, 1e154)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "overflow" in err
        code, out, _ = run_cli(
            command + ["--input", self._write(tmp_path, 1e150)], capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["sse"])


class TestJsonText:
    """The report writer gives json.dumps(obj, sort_keys=True, indent=2)
    byte for byte."""

    @staticmethod
    def _same(obj):
        assert cli._json_text(obj) == json.dumps(obj, sort_keys=True,
                                                 indent=2)

    @pytest.mark.parametrize("argv", (
        ["fit", "--d", "1", "--d0", "-1", "--k", "3"],
        ["fit", "--d", "1", "--d0", "0", "--k", "2"],
        ["adapt", "--d", "0", "--d0", "-1"],
        ["shapefit", "--d", "1", "--k", "3"],
        ["sparse", "--d", "1", "--d0", "0", "--k", "4"],
        ["sparse", "--d", "1", "--d0", "0", "--k", "3"],
        ["checks", "--suite", "moment"],
        ["checks", "--suite", "quad_form", "--seed", "3", "--reps", "5"]))
    def test_reports(self, argv, step_file, monkeypatch, capsys):
        seen = []
        emit = cli._emit_json

        def record(obj, out):
            seen.append(obj)
            emit(obj, out)
        monkeypatch.setattr(cli, "_emit_json", record)
        if argv[0] in ("fit", "adapt", "shapefit"):
            argv = argv + ["--input", step_file[0]]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(seen) == 1
        assert out == json.dumps(seen[0], sort_keys=True, indent=2) + "\n"

    def test_values(self):
        nums = [1.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                1e300, np.float64(0.1), np.float64(-0.0), 3, -2 ** 70,
                True, False]
        self._same({"nums": nums, "tuple": tuple(nums), "empty": [],
                    "empty_dict": {}, "nested": [[], [[]], [{}], {"a": []}],
                    "none": None, "bool": True, "float": np.float64(2.5),
                    "mixed": [None, 1.0, "x", [1, 2.5], {"b": None}],
                    "escapes": 'quote " backslash \\ tab \t nl \n é \u2028',
                    "pieces": [{"start": 0, "end": 5, "coeffs": None},
                               {"start": 5, "end": 9,
                                "coeffs": (np.float64(1.5), -0.0)}],
                    'key "quoted"\n': {"z": 1, "a": [2]}})

    @pytest.mark.parametrize("obj", ([], {}, [[]], 1.5, -0.0, "s", None,
                                     True, 7, math.nan, [None], [1],
                                     {1: 2, 3: [4.5]}, {2.5: "a", 0.5: "b"},
                                     {None: 1}, {True: 1, False: 2}))
    def test_shapes(self, obj):
        """Top-level scalars and lists, and dicts with non-str keys,
        which json writes as the text of the key's JSON value."""
        self._same(obj)


class TestSparseCommand:
    def test_hat_function(self, capsys):
        code, out, _ = run_cli(["sparse", "--d", "1", "--d0", "0",
                                "--k", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["nullspace_dim"] == 1
        assert report["tau"] == ["0", "1/3", "1/2", "2/3", "1"]
        assert report["signal_n"] == 18
        sig = np.array(report["signal"])
        i = np.arange(1, 19)
        hat = np.minimum(np.maximum(i - 6, 0), np.maximum(12 - i, 0)) / 18.0
        ratio = sig[np.nonzero(hat)] / hat[np.nonzero(hat)]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_below_threshold_is_trivial(self, capsys):
        code, out, _ = run_cli(["sparse", "--d", "1", "--d0", "0",
                                "--k", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["nullspace_dim"] == 0
        assert report["signal"] is None
        assert report["witness_coeffs"] is None


class TestGridCommands:
    def test_risk_csv_header_and_rows(self, capsys):
        argv = ["mc-risk", "--d", "0", "--d0", "-1", "--k", "2",
                "--n-grid", "16,32", "--reps", "4", "--seed", "7",
                "--signal", "zero"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("n,k,d,d0,estimator,mean_risk,std_error,"
                            "rate_loglog,rate_log,reps,seed")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "16" and first[4] == "l0_fit"

    @pytest.mark.parametrize("flags", [["--sigma", "nan"],
                                       ["--sigma", "inf"],
                                       ["--estimator", "adaptive", "--tau",
                                        "nan"]])
    def test_risk_refuses_non_finite_sigma_tau(self, capsys, flags):
        argv = ["mc-risk", "--d", "0", "--d0", "-1", "--k", "2",
                "--n-grid", "16,32", "--reps", "2", "--seed", "1",
                "--signal", "zero"] + flags
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err

    def test_risk_rerun_byte_identical(self, tmp_path, capsys):
        argv = ["mc-risk", "--d", "0", "--d0", "-1", "--k", "2",
                "--n-grid", "16,32", "--reps", "4", "--seed", "7",
                "--signal", "sparse_boxcar"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lil_csv(self, capsys):
        code, out, _ = run_cli(["lil", "--d", "1", "--n-grid", "16,32",
                                "--reps", "3", "--seed", "9"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,d,mean_Z2,std_error,loglog16n,reps,seed"
        row = lines[1].split(",")
        np.testing.assert_allclose(float(row[4]),
                                   math.log(math.log(16 * 16)))

    def test_width_csv(self, capsys):
        code, out, _ = run_cli(["width", "--d", "0", "--d0", "-1", "--k",
                                "2", "--n-grid", "16", "--reps", "3",
                                "--seed", "9"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("n,d,d0,k,mean_width,std_error,rate_loglog,"
                            "rate_log,reps,seed")
        assert float(lines[1].split(",")[4]) > 0

    def test_seed_required(self, capsys):
        code, _, err = run_cli(["lil", "--d", "0", "--n-grid", "16",
                                "--reps", "2"], capsys)
        assert code == 1
        assert "--seed" in err

    def test_shape_risk_refuses_other_d0(self, capsys):
        code, out, err = run_cli(["mc-risk", "--d", "1", "--d0", "-1",
                                  "--k", "2", "--n-grid", "16", "--reps",
                                  "2", "--seed", "1", "--signal", "zero",
                                  "--estimator", "shape_lse"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "d0 = d - 1" in err

    def test_shape_risk_refuses_degree_above_envelope(self, capsys):
        code, out, err = run_cli(["mc-risk", "--d", "4", "--d0", "3",
                                  "--k", "2", "--n-grid", "16", "--reps",
                                  "2", "--seed", "1", "--signal", "zero",
                                  "--estimator", "shape_lse"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "d <= 3" in err

    def test_custom_signal_requires_input(self, capsys):
        code, _, err = run_cli(["mc-risk", "--d", "0", "--d0", "-1", "--k",
                                "2", "--n-grid", "16", "--reps", "2",
                                "--seed", "1", "--signal", "custom_file"],
                               capsys)
        assert code == 1
        assert "--input" in err

    def test_custom_signal_round_trip(self, tmp_path, capsys):
        p = tmp_path / "theta.csv"
        p.write_text("\n".join(str(v) for v in [0.0] * 8 + [3.0] * 8))
        code, out, _ = run_cli(["mc-risk", "--d", "0", "--d0", "-1", "--k",
                                "2", "--n-grid", "16", "--reps", "3",
                                "--seed", "1", "--signal", "custom_file",
                                "--input", str(p), "--sigma", "0.0"],
                               capsys)
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[5]) < 1e-20

    @pytest.mark.parametrize("command", [
        ["lil", "--d", "0"], ["width", "--d", "0", "--d0", "-1", "--k", "2"]])
    def test_zero_reps_rejected(self, command, capsys):
        code, out, err = run_cli(command + ["--n-grid", "16", "--reps", "0",
                                            "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "reps" in err

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run_cli(["lil", "--d", "0", "--n-grid", "16;32",
                                "--reps", "2", "--seed", "1"], capsys)
        assert code == 1
        assert "n-grid" in err


class TestChecksCommand:
    @pytest.mark.parametrize("suite", ["moment", "binomial", "sparse"])
    def test_deterministic_suites_pass(self, suite, capsys):
        code, out, _ = run_cli(["checks", "--suite", suite], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"suite", "instances", "min_ratio",
                               "max_residual", "pass"}
        assert report["pass"] is True
        assert report["instances"] > 0

    @pytest.mark.parametrize("suite", ["beta_ratio", "quad_form",
                                       "shape_coef"])
    def test_sampling_suites_pass_with_seed(self, suite, capsys):
        code, out, _ = run_cli(["checks", "--suite", suite, "--seed", "11",
                                "--reps", "20"], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("suite", ["beta_ratio", "quad_form",
                                       "shape_coef"])
    def test_sampling_suites_refuse_zero_reps(self, suite, capsys):
        code, out, err = run_cli(["checks", "--suite", suite, "--seed", "7",
                                  "--reps", "0"], capsys)
        assert code == 1
        assert out == ""
        assert "--reps" in err

    def test_sampling_suite_needs_seed(self, capsys):
        code, _, err = run_cli(["checks", "--suite", "quad_form"], capsys)
        assert code == 1
        assert "--seed" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(["checks", "--suite", "nope"], capsys)
        assert code == 1
        assert "unknown suite" in err


class TestExitCodes:
    def test_budget_refusal_is_exit_two(self, capsys):
        code, _, err = run_cli(["width", "--d", "1", "--d0", "0", "--k",
                                "5", "--n-grid", "300", "--reps", "2",
                                "--seed", "3", "--budget", "1000"], capsys)
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("argv", (
        ["fit", "--d", "0", "--d0", "-1", "--solver", "exhaustive", "--k",
         "1000000000"],
        ["width", "--d", "1", "--d0", "0", "--k", "100000000", "--n-grid",
         "40", "--reps", "2", "--seed", "1"]))
    def test_huge_k_is_refused_at_once(self, tmp_path, argv):
        """The budget check counts knot vectors in closed form, so a k in
        the hundreds of millions is refused without a count that runs
        for minutes."""
        if argv[0] == "fit":
            path = tmp_path / "y.csv"
            y = np.random.default_rng(5).normal(size=8)
            path.write_text("".join(f"{v!r}\n" for v in y.tolist()))
            argv = argv + ["--input", str(path)]
        out = subprocess.run([sys.executable, "-m", "l0spline"] + argv,
                             capture_output=True, text=True, timeout=20)
        assert out.returncode == 2, out.stderr
        assert out.stdout == ""
        assert "exceed the budget" in out.stderr

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(["lil", "--d", "0", "--n-grid", "16",
                                "--reps", "2", "--seed", "1",
                                "--frobnicate"], capsys)
        assert code == 1
        assert "--frobnicate" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(["fit", "--input", "/nonexistent/y.csv",
                                "--d", "0", "--d0", "-1", "--k", "2"],
                               capsys)
        assert code == 1
        assert "cannot read" in err

    def test_undecodable_input_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1\n\xff\xfe2\n")
        code, out, err = run_cli(["fit", "--input", str(path), "--d", "0",
                                  "--d0", "-1", "--k", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert "can't decode byte 0xff" in err
        assert "Traceback" not in err


class TestSeedRange:
    """Seeds key a Philox stream with two uint64 words."""

    @pytest.mark.parametrize("argv", [
        ["lil", "--d", "0", "--n-grid", "16", "--reps", "2"],
        ["width", "--d", "0", "--d0", "-1", "--k", "2", "--n-grid", "16",
         "--reps", "2"],
        ["mc-risk", "--d", "0", "--d0", "-1", "--k", "2", "--n-grid", "16",
         "--reps", "2", "--signal", "zero"],
        ["checks", "--suite", "beta_ratio", "--reps", "2"],
    ])
    @pytest.mark.parametrize("seed", ["18446744073709551616", "-3"])
    def test_seed_outside_uint64_is_an_error(self, argv, seed, capsys):
        code, out, err = run_cli(argv + ["--seed", seed], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "seed" in err

    def test_seeds_from_2_63_are_distinct(self, capsys):
        argv = ["lil", "--d", "0", "--n-grid", "16", "--reps", "2",
                "--seed"]
        _, a, _ = run_cli(argv + [str(2 ** 63)], capsys)
        _, b, _ = run_cli(argv + [str(2 ** 63 + 5)], capsys)
        assert a.split("\n")[1] != b.split("\n")[1]


class TestMainLoop:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("error", [DegenerateSystemError,
                                       NonConvergenceError])
    def test_package_errors_exit_one(self, error, step_file, monkeypatch,
                                     capsys):
        def fail(*args, **kwargs):
            raise error("no fit")
        monkeypatch.setattr(cli, "fit_fixed_k", fail)
        code, out, err = run_cli(["fit", "--input", step_file[0], "--d", "0",
                                  "--d0", "-1", "--k", "2"], capsys)
        assert (code, out, err) == (1, "", "error: no fit\n")

    @pytest.mark.parametrize("suite", sorted(cli._SUITES))
    def test_suites_share_one_signature(self, suite):
        fn, needs_seed, _ = cli._SUITES[suite]
        instances = 2 if needs_seed else None
        result = fn(5 if needs_seed else None, instances)
        assert len(result) == 4
        count, _, _, passed = result
        assert isinstance(passed, bool)
        assert count == instances if needs_seed else count > 0

    def test_one_process_matches_separate_runs(self, step_file, capsys):
        path, _ = step_file
        runs = [
            ["fit", "--input", path, "--d", "0", "--d0", "-1", "--k", "x"],
            ["fit", "--input", path, "--d", "0", "--d0", "-1", "--k", "2"],
            ["adapt", "--input", path, "--d", "0", "--d0", "-1"],
            ["checks", "--suite", "quad_form", "--seed", "3", "--reps", "4"],
            ["fit", "--input", path, "--d", "1", "--d0", "0", "--k", "2",
             "--solver", "dp"],
        ]
        together = [run_cli(argv, capsys) for argv in runs]
        for argv, (code, out, err) in zip(runs, together):
            alone = subprocess.run([sys.executable, "-m", "l0spline"] + argv,
                                   capture_output=True, text=True)
            assert (alone.returncode, alone.stdout, alone.stderr) == \
                (code, out, err)
        assert [code for code, _, _ in together] == [1, 0, 0, 0, 1]


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "l0spline", "checks", "--suite",
         "binomial"], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["pass"] is True


def test_runtime_imports_leave_scipy_out():
    # scipy is a test extra only: the package and its entry points must
    # import without it
    code = ("import sys, l0spline, l0spline.cli, l0spline.shape, "
            "l0spline.experiments; print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
