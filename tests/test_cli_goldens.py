"""CLI stdout and written files pinned byte for byte.

The files under cli_goldens/ were recorded before the report format, the
config keys and the renderer were derived from the record types. Each case
calls bellcal.cli.main in-process and compares with ==, so any change to a
cell's formatting, a column's order or a report key shows here.
"""

from pathlib import Path

import pytest

from bellcal.cli import main

GOLDENS = Path(__file__).parent / "cli_goldens"
FORMATS = ("table", "csv", "json")

# every downstream case reads the report of the default calibration
CASES = {
    "predict_lambdas": ("predict", "--lambdas", "0,1e-9,0.0849,0.749,50"),
    "predict_rates": ("predict", "--rates", "0,93240,1e6"),
    # 1.5 is below the classical bound and 3.5 above the intercept
    "extrapolate": ("extrapolate", "--targets", "2.75,2.625,2.2,1.5,3.5"),
    "sweep": ("sweep", "--steps", "37"),
}
SIMULATE = {
    "simulate": ("--lambda", "0.0849"),
    "simulate_zero": ("--lambda", "0"),
}


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def run(capsys, argv) -> str:
    code = main([str(arg) for arg in argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "calibration_report.json"
    assert main(["calibrate", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("fmt", FORMATS)
def test_calibrate_stdout_and_files(tmp_path, capsys, fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"decimals": 7}')
    out = tmp_path / "calibration_report.json"
    stdout = run(capsys, ["calibrate", "--config", cfg, "--out", out, "--format", fmt])
    assert stdout == golden(f"calibrate.{fmt}.txt")
    # calibrate's json stdout is the report file, so one golden pins both
    assert out.read_text(encoding="utf-8") == golden("calibrate.json.txt")
    assert out.with_suffix(".csv").read_text(encoding="utf-8") == golden("calibrate.csv.txt")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_subcommand_stdout(report, capsys, name, fmt):
    sub, *args = CASES[name]
    stdout = run(capsys, [sub, "--report", report, *args, "--format", fmt])
    assert stdout == golden(f"{name}.{fmt}.txt")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_stdout(capsys, name, fmt):
    argv = ["simulate", "--eta", "0.1134", *SIMULATE[name], "--pulses", "50000", "--seed", "12"]
    stdout = run(capsys, [*argv, "--format", fmt])
    assert stdout == golden(f"{name}.{fmt}.txt")
