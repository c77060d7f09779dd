import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellcal
from bellcal import (
    BellCertificate,
    CalibrationReport,
    PhysicalFit,
    RunCalibration,
    SourceParams,
    predict_bell,
)
from bellcal.cli import (
    RunFileError,
    bundled_runs_path,
    read_report,
    read_run_file,
    write_report,
)
from bellcal.montecarlo import MAX_PULSES

RUN_HEADER = "run_id,doubles_observed,singles_observed,duration_s,bell_observed"

# the CLI runs with cwd=tmp_path, where a relative PYTHONPATH entry such as
# "src" no longer resolves, so the child gets the package root absolutely
PACKAGE_ROOT = str(Path(bellcal.__file__).resolve().parent.parent)
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args, cwd, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "bellcal", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=CLI_ENV,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    # one shared calibration feeds every downstream subcommand test
    path = tmp_path_factory.mktemp("calibrated")
    result = run_cli("calibrate", cwd=path)
    assert result.returncode == 0, result.stderr
    return path


@pytest.fixture(scope="module")
def report_path(report_dir):
    return report_dir / "calibration_report.json"


class TestCalibrate:
    def test_bundled_dataset_default(self, report_dir):
        result = run_cli("calibrate", cwd=report_dir)
        assert result.returncode == 0
        assert "bundled dataset" in result.stderr
        assert "eta_hat" in result.stdout
        assert "0.1134" in result.stdout
        assert (report_dir / "calibration_report.json").exists()
        assert (report_dir / "calibration_report.csv").exists()

    def test_report_contents(self, report_path):
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == "bellcal.calibration/1"
        assert payload["eta_hat"] == pytest.approx(0.1134, abs=2e-4)
        assert payload["fit"]["slope_a"] == pytest.approx(-1.69, abs=0.01)
        assert len(payload["per_run"]) == 7

    def test_csv_mirror_layout(self, report_dir):
        lines = (report_dir / "calibration_report.csv").read_text().splitlines()
        assert lines[0] == (
            "run_id,doubles_observed,singles_observed,duration_s,"
            "bell_observed,lambda_calc,bell_linear_fit"
        )
        assert len(lines) == 8

    def test_explicit_runs_file(self, tmp_path):
        src = bundled_runs_path().read_text()
        runs = tmp_path / "runs.csv"
        runs.write_text(src)
        result = run_cli("calibrate", "--runs", "runs.csv", "--format", "json", cwd=tmp_path)
        assert result.returncode == 0
        assert "bundled dataset" not in result.stderr
        payload = json.loads(result.stdout)
        assert payload["eta_hat"] == pytest.approx(0.1134, abs=2e-4)

    def test_single_run_cannot_fix_a_line(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUN_HEADER + "\n1,1000,30000,10,2.6\n")
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path)
        assert result.returncode == 3
        assert "error:" in result.stderr

    def test_negative_count_names_the_line(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUN_HEADER + "\n1,-5,30000,10,2.6\n")
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path)
        assert result.returncode == 2
        assert ":2:" in result.stderr

    def test_unknown_column_rejected(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUN_HEADER + ",flux\n1,1000,30000,10,2.6,9\n")
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path)
        assert result.returncode == 2
        assert "flux" in result.stderr

    @pytest.mark.parametrize("row", ["1,1000,30000,inf,2.6", "1,1000,30000,10,nan"])
    def test_non_finite_cell_names_the_line(self, tmp_path, row):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUN_HEADER + "\n2,2000,31000,10,2.5\n" + row + "\n")
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path, timeout=20)
        assert result.returncode == 2
        assert ":3:" in result.stderr

    # the per-run CSV goes to --out with a .csv suffix: --out runs.json
    # used to replace runs.csv with the per-run table, --out runs.csv the
    # report
    @pytest.mark.parametrize("out", ["runs.json", "runs.csv"])
    def test_out_over_the_run_file_rejected(self, tmp_path, out):
        runs = tmp_path / "runs.csv"
        runs.write_bytes(bundled_runs_path().read_bytes())
        result = run_cli("calibrate", "--runs", "runs.csv", "--out", out, cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: --out {out}: ")
        assert "the run file runs.csv" in result.stderr
        assert runs.read_bytes() == bundled_runs_path().read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv"]

    # a repeated run_id used to calibrate, with one run's counts on both rows
    def test_repeated_run_id_names_both_lines(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUN_HEADER + "\n1,1000,30000,10,2.6\n2,2000,31000,10,2.5\n1,10,20,1,2.7\n")
        with pytest.raises(RunFileError, match="runs.csv:4: run_id 1 repeats line 2"):
            read_run_file(runs)
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path)
        assert result.returncode == 2
        assert "runs.csv:4: run_id 1 repeats line 2" in result.stderr

    # each used to exit 1 with a traceback: csv's field limit, and an int
    # count beyond float range (OverflowError in the solves)
    @pytest.mark.parametrize(
        "row, reason",
        [
            ("2," + "1" * 140_000 + ",31000,10,2.5", "field larger than field limit"),
            ("2,1" + "0" * 400 + ",31000,10,2.5", "run 2: doubles_observed"),
        ],
        ids=["long_cell", "count_beyond_float"],
    )
    def test_oversized_cell_names_the_line(self, tmp_path, row, reason):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUN_HEADER + "\n1,1000,30000,10,2.6\n" + row + "\n")
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: runs.csv:3: ")
        assert reason in result.stderr

    # f * t overflowed to inf: "error: solver function is NaN at lambda = 0.0"
    def test_pulse_count_overflow_names_the_run(self, tmp_path):
        lines = bundled_runs_path().read_text().splitlines(keepends=True)
        lines[2] = "2,43322946,660223194,1e308,2.6760\n"
        (tmp_path / "runs.csv").write_text("".join(lines))
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: run 2: pulse_freq_hz * duration_s")
        assert "Traceback" not in result.stderr

    def test_missing_bell_column_is_a_model_error(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(
            "run_id,doubles_observed,singles_observed,duration_s\n"
            "1,1000,30000,10\n2,2000,31000,10\n"
        )
        result = run_cli("calibrate", "--runs", "runs.csv", cwd=tmp_path)
        assert result.returncode == 3
        assert "bell_observed" in result.stderr


class TestPredict:
    def test_zero_power_row(self, report_dir, report_path):
        result = run_cli(
            "predict", "--report", "calibration_report.json",
            "--lambdas", "0", "--format", "json", cwd=report_dir,
        )
        assert result.returncode == 0
        row = json.loads(result.stdout)[0]
        payload = json.loads(report_path.read_text())
        assert row["visibility"] == 1.0
        assert row["events_per_second"] == 0.0
        assert row["bell"] == pytest.approx(payload["fit"]["intercept_b"], abs=1e-10)

    def test_matches_library_prediction(self, report_dir, report_path):
        result = run_cli(
            "predict", "--report", "calibration_report.json",
            "--lambdas", "0.0849", "--format", "json", cwd=report_dir,
        )
        row = json.loads(result.stdout)[0]
        report, cert, freq = read_report(report_path)
        params = SourceParams(report.fit.eta_used, 0.0849, freq)
        assert row["bell"] == predict_bell(report.fit, params, cert)

    def test_rates_solve_at_the_report_frequency(self, tmp_path):
        # the solve used the config's frequency (default 8e7) and the
        # events/s column the report's, so 1e5 came back as 1.25e5
        (tmp_path / "cfg.json").write_text('{"pulse_freq_hz": 1e8}')
        calibrated = run_cli("calibrate", "--config", "cfg.json", cwd=tmp_path)
        assert calibrated.returncode == 0, calibrated.stderr
        result = run_cli(
            "predict", "--report", "calibration_report.json",
            "--rates", "100000", "--format", "json", cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        row = json.loads(result.stdout)[0]
        assert row["events_per_second"] == pytest.approx(100000, rel=1e-9)
        assert row["lambda"] == pytest.approx(0.0736, abs=1e-4)

    def test_rate_target_inverts_to_power(self, report_dir):
        result = run_cli(
            "predict", "--report", "calibration_report.json",
            "--rates", "93240", "--format", "json", cwd=report_dir,
        )
        assert result.returncode == 0
        row = json.loads(result.stdout)[0]
        assert 0.0848 < row["lambda"] < 0.0851
        assert row["bell"] == pytest.approx(2.625, abs=2e-3)
        assert row["events_per_second"] == pytest.approx(93240, rel=1e-9)

    def test_negative_lambda_rejected(self, report_dir):
        result = run_cli(
            "predict", "--report", "calibration_report.json",
            "--lambdas", "-0.1", cwd=report_dir,
        )
        assert result.returncode == 2
        assert "lambda" in result.stderr

    @pytest.mark.parametrize(
        "flag, value",
        [("--lambdas", "inf"), ("--lambdas", "nan"), ("--rates", "nan"), ("--rates", "inf")],
    )
    def test_non_finite_value_names_the_flag(self, report_dir, flag, value):
        # --lambdas inf used to hang and --lambdas nan used to exit 0
        result = run_cli(
            "predict", "--report", "calibration_report.json",
            flag, f"0.01,{value}", cwd=report_dir, timeout=20,
        )
        assert result.returncode == 2
        assert flag in result.stderr

    def test_lambdas_and_rates_exclusive(self, report_dir):
        result = run_cli(
            "predict", "--report", "calibration_report.json",
            "--lambdas", "0.1", "--rates", "1000", cwd=report_dir,
        )
        assert result.returncode == 2

    def test_missing_report_file(self, tmp_path):
        result = run_cli(
            "predict", "--report", "nope.json", "--lambdas", "0.1", cwd=tmp_path,
        )
        assert result.returncode == 2


class TestExtrapolate:
    def test_mixed_feasible_and_infeasible(self, report_dir):
        result = run_cli(
            "extrapolate", "--report", "calibration_report.json",
            "--targets", "2.625,3.5", "--format", "json", cwd=report_dir,
        )
        assert result.returncode == 0
        assert "warning: 1 infeasible target(s)" in result.stderr
        rows = json.loads(result.stdout)
        assert rows[0]["lambda"] == pytest.approx(0.0849, abs=2e-3)
        assert rows[0]["note"] == ""
        assert rows[1]["lambda"] is None
        assert rows[1]["events_per_second"] is None
        assert rows[1]["note"].startswith("infeasible:")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_target_names_the_flag(self, report_dir, value):
        result = run_cli(
            "extrapolate", "--report", "calibration_report.json",
            "--targets", f"2.5,{value}", "--allow-below-classical",
            cwd=report_dir, timeout=20,
        )
        assert result.returncode == 2
        assert "--targets" in result.stderr

    def test_target_at_intercept_needs_no_power(self, report_dir, report_path):
        payload = json.loads(report_path.read_text())
        target = repr(payload["fit"]["intercept_b"])
        result = run_cli(
            "extrapolate", "--report", "calibration_report.json",
            "--targets", target, "--format", "json", cwd=report_dir,
        )
        row = json.loads(result.stdout)[0]
        assert row["lambda"] == 0.0
        assert row["events_per_second"] == 0.0

    def test_below_classical_needs_override(self, report_dir):
        args = (
            "extrapolate", "--report", "calibration_report.json",
            "--targets", "1.5", "--format", "json",
        )
        refused = run_cli(*args, cwd=report_dir)
        assert json.loads(refused.stdout)[0]["lambda"] is None
        assert "classical" in json.loads(refused.stdout)[0]["note"]
        allowed = run_cli(*args, "--allow-below-classical", cwd=report_dir)
        assert allowed.returncode == 0
        row = json.loads(allowed.stdout)[0]
        assert row["lambda"] > 0.0
        assert row["note"] == ""


class TestSweep:
    def test_csv_curve(self, report_dir):
        result = run_cli(
            "sweep", "--report", "calibration_report.json",
            "--lambda-min", "0", "--lambda-max", "0.5", "--steps", "5",
            "--format", "csv", cwd=report_dir,
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "lambda,visibility,bell,events_per_second"
        assert len(lines) == 6
        lams = [float(line.split(",")[0]) for line in lines[1:]]
        assert lams == sorted(lams)
        bells = [float(line.split(",")[2]) for line in lines[1:]]
        assert bells == sorted(bells, reverse=True)

    def test_empty_range_rejected(self, report_dir):
        result = run_cli(
            "sweep", "--report", "calibration_report.json",
            "--lambda-min", "0.5", "--lambda-max", "0.5", cwd=report_dir,
        )
        assert result.returncode == 2

    def test_single_step_rejected(self, report_dir):
        result = run_cli(
            "sweep", "--report", "calibration_report.json",
            "--steps", "1", cwd=report_dir,
        )
        assert result.returncode == 2

    # 3e6 steps used to run out of memory rendering the table; the value
    # tested is one past the cap, so a regression fails without filling memory
    def test_steps_over_the_cap_rejected(self, report_dir):
        result = run_cli(
            "sweep", "--report", "calibration_report.json", "--steps", "100001",
            cwd=report_dir, timeout=30,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: --steps must be in [2, 100000]")

    def test_steps_cap_in_help(self, tmp_path):
        result = run_cli("sweep", "--help", cwd=tmp_path)
        assert result.returncode == 0
        assert "2 to 100000" in result.stdout

    # --lambda-max inf used to reach the library, whose message named
    # neither flag; nan failed the ordering check with a generic message
    @pytest.mark.parametrize("flag", ["--lambda-min", "--lambda-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_bound_named(self, report_dir, flag, value):
        result = run_cli(
            "sweep", "--report", "calibration_report.json", f"{flag}={value}",
            cwd=report_dir, timeout=60,
        )
        assert result.returncode == 2
        assert f"{flag} must be finite" in result.stderr


class TestSweepGrid:
    # the grid is built without numpy but must equal np.linspace bit for
    # bit, or sweep --format json would print different lambdas
    @pytest.mark.parametrize("bounds", [None, ("1e-9", "50")])
    @pytest.mark.parametrize("steps", [2, 3, 100, 200, 1000])
    def test_lambda_column_is_linspace(self, report_dir, bounds, steps):
        args = ["sweep", "--report", "calibration_report.json", "--steps", str(steps)]
        lo, hi = 0.0, 0.75
        if bounds is not None:
            args += ["--lambda-min", bounds[0], "--lambda-max", bounds[1]]
            lo, hi = float(bounds[0]), float(bounds[1])
        result = run_cli(*args, "--format", "json", cwd=report_dir)
        assert result.returncode == 0, result.stderr
        lambdas = [row["lambda"] for row in json.loads(result.stdout)]
        assert lambdas == np.linspace(lo, hi, steps).tolist()


class TestSimulate:
    ARGS = ("simulate", "--eta", "0.1134", "--lambda", "0.0849",
            "--pulses", "50000", "--seed", "12")

    def test_deterministic_stdout(self, tmp_path):
        first = run_cli(*self.ARGS, cwd=tmp_path)
        second = run_cli(*self.ARGS, cwd=tmp_path)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_seed_changes_the_draw(self, tmp_path):
        other = (*self.ARGS[:-1], "13")
        assert run_cli(*self.ARGS, cwd=tmp_path).stdout != run_cli(*other, cwd=tmp_path).stdout

    def test_zero_power_renders_missing_cells(self, tmp_path):
        result = run_cli(
            "simulate", "--eta", "0.3", "--lambda", "0",
            "--pulses", "10000", "--seed", "1", cwd=tmp_path,
        )
        assert result.returncode == 0
        assert "n/a" in result.stdout

    def test_bad_eta_rejected(self, tmp_path):
        result = run_cli(
            "simulate", "--eta", "1.5", "--lambda", "0.1", cwd=tmp_path,
        )
        assert result.returncode == 2

    # each message names the flag, not the library field behind it
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lambda", "inf"),
            ("--lambda", "nan"),
            # over the Monte Carlo's ceiling, past which a call can run for
            # minutes; this one would take about a second
            ("--lambda", "1000"),
            ("--pulses", "0"),
            # one over the pulse cap is refused before any draw; 10^26 used
            # to overflow the block arithmetic
            ("--pulses", str(MAX_PULSES + 1)),
            ("--pulses", str(10**26)),
            ("--eta", "2"),
            ("--seed", "-1"),
            ("--seed", str(2**64)),
        ],
    )
    def test_bad_value_names_the_flag(self, tmp_path, flag, value):
        args = {"--eta": "0.1134", "--lambda": "0.0849", "--pulses": "1000", "--seed": "1"}
        args[flag] = value
        argv = [f"{name}={text}" for name, text in args.items()]
        result = run_cli("simulate", *argv, cwd=tmp_path, timeout=60)
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {flag} must ")


class TestConfig:
    # the decoder's message used to reach stderr naming no file
    def test_not_utf8_names_the_file(self, report_path, tmp_path):
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
        result = run_cli(
            "predict", "--report", str(report_path), "--lambdas", "0.1",
            "--config", "bad.json", cwd=tmp_path,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: bad.json: not valid UTF-8")

    def test_invalid_json_rejected(self, report_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = run_cli(
            "predict", "--report", str(report_dir / "calibration_report.json"),
            "--lambdas", "0.1", "--config", str(cfg), cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "not valid JSON" in result.stderr

    # tail_tolerance and min_terms tuned a series cutoff the closed-form
    # rates no longer have
    @pytest.mark.parametrize("key", ["frobnicate", "tail_tolerance", "min_terms"])
    def test_unknown_key_named(self, report_dir, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        result = run_cli(
            "predict", "--report", str(report_dir / "calibration_report.json"),
            "--lambdas", "0.1", "--config", str(cfg), cwd=tmp_path,
        )
        assert result.returncode == 2
        assert key in result.stderr

    def test_decimals_control_formatting(self, report_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"decimals": 6}')
        result = run_cli(
            "predict", "--report", str(report_dir / "calibration_report.json"),
            "--lambdas", "0", "--config", str(cfg), "--format", "csv", cwd=tmp_path,
        )
        assert result.returncode == 0
        row = result.stdout.splitlines()[1]
        assert row.split(",")[1] == "1.000000"

    # decimals = 10^7 used to hang the sweep formatting cells; strings,
    # floats and bools got through to a format spec or a comparison, or
    # were read as numbers, and the message named neither file nor key
    @pytest.mark.parametrize(
        "key, value",
        [
            ("decimals", 10_000_000),
            ("decimals", 21),
            ("decimals", -1),
            ("decimals", 2.5),
            ("decimals", "3"),
            ("decimals", True),
            ("pulse_freq_hz", "8e7"),
            ("pulse_freq_hz", 0),
            ("lambda_tol", True),
            ("bell_tol", None),
            ("certificate", {"name": 5, "tsirelson_bound": 2.8, "classical_bound": 2.0}),
            ("certificate", {"name": "X", "tsirelson_bound": "3", "classical_bound": 2.0}),
            ("certificate", {"name": "X", "tsirelson_bound": 2.8, "classical_bound": True}),
            # an int beyond float range used to raise OverflowError in a solve
            pytest.param("pulse_freq_hz", 10**400, id="pulse_freq_hz-10**400"),
        ],
    )
    def test_bad_value_names_the_file_and_key(self, report_dir, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        result = run_cli(
            "sweep", "--report", str(report_dir / "calibration_report.json"),
            "--steps", "100", "--config", str(cfg), cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "cfg.json" in result.stderr
        assert key in result.stderr

    def test_certificate_trace_zero_must_be_a_bool(self, report_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cert = {"name": "CHSH", "tsirelson_bound": 2.8, "classical_bound": 2.0}
        cfg.write_text(json.dumps({"certificate": {**cert, "trace_zero": "no"}}))
        result = run_cli(
            "predict", "--report", str(report_dir / "calibration_report.json"),
            "--lambdas", "0.1", "--config", str(cfg), cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "cfg.json" in result.stderr
        assert "trace_zero" in result.stderr

    def test_largest_decimals_accepted(self, report_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"decimals": 20}')
        result = run_cli(
            "predict", "--report", str(report_dir / "calibration_report.json"),
            "--lambdas", "0", "--config", str(cfg), "--format", "csv", cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[1].split(",")[1] == "1." + "0" * 20


class TestReportFile:
    def test_wrong_schema_rejected(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text('{"schema": "someone-elses/9"}')
        result = run_cli(
            "predict", "--report", "report.json", "--lambdas", "0.1", cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "schema" in result.stderr

    # Python's json reads NaN and Infinity literals, so the report reader
    # itself must reject them rather than let them reach the model; a
    # non-bool trace_zero used to be read as its truth value
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("fit", "alpha", float("nan")),
            (None, "eta_hat", float("inf")),
            ("certificate", "tsirelson_bound", float("inf")),
            ("certificate", "trace_zero", "no"),
            ("certificate", "trace_zero", 1),
            ("certificate", "name", 5),
            ("certificate", "tsirelson_bound", "3"),
            ("fit", "rmse", True),
            ("fit", "alpha", "0.5"),
            (None, "eta_hat", "0.1"),
            (None, "pulse_freq_hz", 0),
            (None, "pulse_freq_hz", -1),
            (None, "pulse_freq_hz", "8e7"),
            # ints beyond float range used to raise OverflowError
            pytest.param(None, "eta_hat", 10**400, id="None-eta_hat-10**400"),
            pytest.param("fit", "slope_a", 10**400, id="fit-slope_a-10**400"),
        ],
    )
    def test_non_finite_value_names_the_file_and_key(
        self, report_path, tmp_path, section, key, value
    ):
        payload = json.loads(report_path.read_text())
        (payload[section] if section else payload)[key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        result = run_cli(
            "predict", "--report", "edited.json", "--lambdas", "0.1",
            cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "edited.json" in result.stderr
        assert key in result.stderr

    # the decoder's message used to reach stderr naming no file
    def test_not_utf8_names_the_file(self, tmp_path):
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
        result = run_cli("predict", "--report", "bad.json", "--lambdas", "0.1", cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: bad.json: not valid UTF-8")

    # json's decoder recursed past Python's limit: exit 1 with a traceback
    def test_deep_nesting_names_the_file(self, tmp_path):
        (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
        result = run_cli(
            "predict", "--report", "deep.json", "--lambdas", "0.1", cwd=tmp_path,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: deep.json: JSON nested too deeply to read\n"

    # RunCalibration is a named tuple that checks nothing, so the reader
    # checks the per-run entries itself
    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda_calc", float("nan")),
            ("lambda_calc", "0.1"),
            ("bell_linear_fit", float("-inf")),
            ("run_id", "1"),
            ("run_id", 1.0),
            ("run_id", True),
        ],
    )
    def test_bad_per_run_value_names_the_file_and_key(
        self, report_path, tmp_path, key, value
    ):
        payload = json.loads(report_path.read_text())
        payload["per_run"][0][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        result = run_cli(
            "predict", "--report", "edited.json", "--lambdas", "0.1",
            cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "edited.json" in result.stderr
        assert f"per_run[0].{key}" in result.stderr


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# read_report refuses pulse_freq_hz <= 0, which the solves cannot use
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def certificates(draw):
    classical = draw(st.floats(min_value=0.0, max_value=1e300))
    tsirelson = draw(st.floats(min_value=classical, exclude_min=True, allow_infinity=False))
    return BellCertificate(draw(st.text(max_size=12)), tsirelson, classical, draw(st.booleans()))


@st.composite
def reports(draw):
    fit = PhysicalFit(
        slope_a=draw(FINITE),
        intercept_b=draw(FINITE),
        rmse=draw(st.floats(min_value=0.0, allow_infinity=False)),
        eta_used=draw(FINITE),
        xi_used=draw(FINITE),
        alpha=draw(FINITE),
        beta=draw(FINITE),
    )
    per_run = draw(
        st.lists(st.builds(RunCalibration, st.integers(), FINITE, FINITE), max_size=8)
    )
    return CalibrationReport(eta_hat=draw(FINITE), per_run=tuple(per_run), fit=fit)


class TestReportRoundTrip:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(report=reports(), certificate=certificates(), pulse_freq_hz=POSITIVE)
    def test_read_returns_what_was_written(
        self, tmp_path_factory, report, certificate, pulse_freq_hz
    ):
        path = tmp_path_factory.getbasetemp() / "round_trip.json"
        write_report(path, report, certificate, pulse_freq_hz)
        assert read_report(path) == (report, certificate, pulse_freq_hz)
