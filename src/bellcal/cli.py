"""Command-line front end: ingest run files, calibrate, predict, simulate.

Subcommands map one-to-one onto the library pipeline: ``calibrate`` fits a
run file, ``predict`` and ``extrapolate`` evaluate the fitted model in the
forward and inverse directions, ``sweep`` emits a plottable curve, and
``simulate`` cross-checks the analytic model against the pulse-level Monte
Carlo. Data goes to stdout, notes and warnings to stderr.

File formats: run files are headered CSV (comma, UTF-8, ``.`` decimal
point); calibration reports are JSON with full-precision floats so that
downstream commands lose nothing to display rounding. Exit codes are a
stable contract: 0 success, 2 input or parse error, 3 model error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from importlib.resources import files as _resource_files
from pathlib import Path
from typing import Callable, Sequence

from .calibration import (
    BellCertificate,
    BracketError,
    CalibrationReport,
    ExperimentRun,
    ModelError,
    PhysicalFit,
    RunCalibration,
    calibrate,
    chsh_certificate,
)
from .clicks import (
    ClickKind,
    DEFAULT_PULSE_FREQ_HZ,
    SourceParams,
    expected_rate,
)
from .prediction import (
    InfeasibleTargetError,
    events_per_second,
    predict_bell,
    solve_lambda_for_bell,
    solve_lambda_for_rate,
    sweep,
    visibility,
)

REPORT_SCHEMA = "bellcal.calibration/1"

RUN_COLUMNS_REQUIRED = ("run_id", "doubles_observed", "singles_observed", "duration_s")
RUN_COLUMNS_OPTIONAL = ("bell_observed",)

BUNDLED_RUNS = "paper_table2.csv"


class RunFileError(ValueError):
    """A run file failed to parse or validate; message carries the location."""


class ConfigFileError(ValueError):
    """A config file failed to parse or holds unknown or invalid keys."""


class ReportFileError(ValueError):
    """A calibration report failed to parse or has the wrong schema."""


@dataclass(frozen=True)
class ToolConfig:
    """Tool-level knobs; everything has a working default."""

    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ
    lambda_tol: float = 1e-10
    bell_tol: float = 1e-8
    decimals: int = 4
    certificate: BellCertificate = field(default_factory=chsh_certificate)

    def __post_init__(self) -> None:
        for name in ("pulse_freq_hz", "lambda_tol", "bell_tol"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        # a huge precision would make every formatted cell that long
        if type(self.decimals) is not int or not 0 <= self.decimals <= 20:
            raise ValueError(f"decimals must be an integer in [0, 20], got {self.decimals!r}")


def _is_real(value: object) -> bool:
    """A JSON number: int or float, not bool (a subclass of int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_CONFIG_KEYS = (
    "pulse_freq_hz",
    "lambda_tol",
    "bell_tol",
    "decimals",
    "certificate",
)
_CERT_KEYS = ("name", "tsirelson_bound", "classical_bound", "trace_zero")


def read_config(path: str | Path) -> ToolConfig:
    """Load a JSON config; unknown keys are rejected by name."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigFileError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigFileError(f"{path}: unknown config keys: {', '.join(unknown)}")
    kwargs = {k: v for k, v in raw.items() if k != "certificate"}
    if "certificate" in raw:
        cert_raw = raw["certificate"]
        if not isinstance(cert_raw, dict):
            raise ConfigFileError(f"{path}: certificate must be a JSON object")
        unknown = sorted(set(cert_raw) - set(_CERT_KEYS))
        if unknown:
            raise ConfigFileError(
                f"{path}: unknown certificate keys: {', '.join(unknown)}"
            )
        try:
            kwargs["certificate"] = BellCertificate(**cert_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"{path}: bad certificate: {exc}") from exc
    try:
        return ToolConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc


def read_run_file(path: str | Path) -> tuple[ExperimentRun, ...]:
    """Parse a headered run CSV into ExperimentRun records.

    The header is mandatory; unknown column names are rejected, as are
    missing required columns and duplicate headers. Value errors carry
    the 1-based line number.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RunFileError(f"{path}: not valid UTF-8 ({exc})") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise RunFileError(f"{path}: empty file, header row required") from None
    header = [name.strip() for name in header]
    known = set(RUN_COLUMNS_REQUIRED) | set(RUN_COLUMNS_OPTIONAL)
    unknown = [name for name in header if name not in known]
    if unknown:
        raise RunFileError(f"{path}: unknown columns: {', '.join(unknown)}")
    missing = [name for name in RUN_COLUMNS_REQUIRED if name not in header]
    if missing:
        raise RunFileError(f"{path}: missing required columns: {', '.join(missing)}")
    if len(set(header)) != len(header):
        dupes = sorted({name for name in header if header.count(name) > 1})
        raise RunFileError(f"{path}: duplicate columns: {', '.join(dupes)}")
    idx = {name: header.index(name) for name in header}

    runs = []
    for lineno, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != len(header):
            raise RunFileError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(record)}"
            )
        try:
            bell: float | None = None
            if "bell_observed" in idx:
                cell = record[idx["bell_observed"]].strip()
                bell = float(cell) if cell else None
            run = ExperimentRun(
                run_id=int(record[idx["run_id"]]),
                doubles_observed=int(record[idx["doubles_observed"]]),
                singles_observed=int(record[idx["singles_observed"]]),
                duration_s=float(record[idx["duration_s"]]),
                bell_observed=bell,
            )
        except ValueError as exc:
            raise RunFileError(f"{path}:{lineno}: {exc}") from exc
        runs.append(run)
    if not runs:
        raise RunFileError(f"{path}: no data rows")
    return tuple(runs)


def bundled_runs_path() -> Path:
    """Path of the packaged seven-run reference dataset."""
    return Path(str(_resource_files("bellcal").joinpath("data", BUNDLED_RUNS)))


def write_report(
    path: str | Path,
    report: CalibrationReport,
    certificate: BellCertificate,
    pulse_freq_hz: float,
) -> None:
    """Serialize a calibration to JSON with full-precision floats."""
    fit = report.fit
    payload = {
        "schema": REPORT_SCHEMA,
        "pulse_freq_hz": pulse_freq_hz,
        "certificate": {
            "name": certificate.name,
            "tsirelson_bound": certificate.tsirelson_bound,
            "classical_bound": certificate.classical_bound,
            "trace_zero": certificate.trace_zero,
        },
        "eta_hat": report.eta_hat,
        "fit": {
            "slope_a": fit.slope_a,
            "intercept_b": fit.intercept_b,
            "rmse": fit.rmse,
            "eta_used": fit.eta_used,
            "xi_used": fit.xi_used,
            "alpha": fit.alpha,
            "beta": fit.beta,
        },
        "per_run": [
            {
                "run_id": rc.run_id,
                "lambda_calc": rc.lambda_calc,
                "bell_linear_fit": rc.bell_linear_fit,
            }
            for rc in report.per_run
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_report(
    path: str | Path,
) -> tuple[CalibrationReport, BellCertificate, float]:
    """Load a calibration report written by write_report."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReportFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict) or raw.get("schema") != REPORT_SCHEMA:
        raise ReportFileError(
            f"{path}: not a calibration report (expected schema {REPORT_SCHEMA!r})"
        )
    try:
        certificate = BellCertificate(**raw["certificate"])
        fit = PhysicalFit(**raw["fit"])
        per_run = tuple(
            _read_run_calibration(i, rc) for i, rc in enumerate(raw["per_run"])
        )
        report = CalibrationReport(
            eta_hat=float(raw["eta_hat"]), per_run=per_run, fit=fit
        )
        pulse_freq_hz = float(raw["pulse_freq_hz"])
        for key, value in (("eta_hat", report.eta_hat), ("pulse_freq_hz", pulse_freq_hz)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportFileError(f"{path}: malformed report ({exc})") from exc
    return report, certificate, pulse_freq_hz


def _read_run_calibration(index: int, raw: dict) -> RunCalibration:
    """One per_run entry, checked here: RunCalibration checks nothing."""
    rc = RunCalibration(**raw)
    if type(rc.run_id) is not int:
        raise ValueError(f"per_run[{index}].run_id must be an integer, got {rc.run_id!r}")
    for key in ("lambda_calc", "bell_linear_fit"):
        value = getattr(rc, key)
        if not (_is_real(value) and math.isfinite(value)):
            raise ValueError(f"per_run[{index}].{key} must be a finite number, got {value!r}")
    return rc


def _format_cell(value: object, decimals: int) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.{decimals}f}"
    return str(value)


def _format_rows(
    columns: Sequence[str],
    rows: Sequence[dict[str, object]],
    decimals: int,
    overrides: dict[str, Callable[[object], str]] | None = None,
) -> list[list[str]]:
    overrides = overrides or {}
    formatted = []
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            missing = value is None or (isinstance(value, float) and math.isnan(value))
            if col in overrides and not missing:
                cells.append(overrides[col](value))
            else:
                cells.append(_format_cell(value, decimals))
        formatted.append(cells)
    return formatted


def render_table(
    columns: Sequence[str],
    rows: Sequence[dict[str, object]],
    decimals: int,
    overrides: dict[str, Callable[[object], str]] | None = None,
) -> str:
    grid = [list(columns)] + _format_rows(columns, rows, decimals, overrides)
    widths = [max(len(line[i]) for line in grid) for i in range(len(columns))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in grid]
    return "\n".join(lines) + "\n"


def render_csv(
    columns: Sequence[str],
    rows: Sequence[dict[str, object]],
    decimals: int,
    overrides: dict[str, Callable[[object], str]] | None = None,
) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(_format_rows(columns, rows, decimals, overrides))
    return buf.getvalue()


def render_json(columns: Sequence[str], rows: Sequence[dict[str, object]]) -> str:
    def clean(value: object) -> object:
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    payload = [{col: clean(row[col]) for col in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _render(
    fmt: str,
    columns: Sequence[str],
    rows: Sequence[dict[str, object]],
    decimals: int,
    overrides: dict[str, Callable[[object], str]] | None = None,
) -> str:
    if fmt == "table":
        return render_table(columns, rows, decimals, overrides)
    if fmt == "csv":
        return render_csv(columns, rows, decimals, overrides)
    return render_json(columns, rows)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)


def _load_config(args: argparse.Namespace) -> ToolConfig:
    if args.config is None:
        return ToolConfig()
    return read_config(args.config)


def _parse_float_list(text: str, flag: str) -> list[float]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise ValueError(f"{flag}: {part!r} is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"{flag}: {part!r} is not a finite number")
        values.append(value)
    if not values:
        raise ValueError(f"{flag}: no values given")
    return values


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.runs is None:
        runs_path = bundled_runs_path()
        print(f"note: no --runs given, using bundled dataset {runs_path}", file=sys.stderr)
    else:
        runs_path = Path(args.runs)
    runs = read_run_file(runs_path)
    report = calibrate(
        runs,
        cert=cfg.certificate,
        pulse_freq_hz=cfg.pulse_freq_hz,
        tol=cfg.lambda_tol,
    )

    out_path = Path(args.out if args.out is not None else "calibration_report.json")
    write_report(out_path, report, cfg.certificate, cfg.pulse_freq_hz)
    print(f"wrote {out_path}", file=sys.stderr)

    by_id = {run.run_id: run for run in runs}
    columns = [
        "run_id",
        "doubles_observed",
        "singles_observed",
        "duration_s",
        "bell_observed",
        "lambda_calc",
        "bell_linear_fit",
    ]
    rows: list[dict[str, object]] = []
    for rc in report.per_run:
        run = by_id[rc.run_id]
        rows.append(
            {
                "run_id": rc.run_id,
                "doubles_observed": run.doubles_observed,
                "singles_observed": run.singles_observed,
                "duration_s": run.duration_s,
                "bell_observed": run.bell_observed,
                "lambda_calc": rc.lambda_calc,
                "bell_linear_fit": rc.bell_linear_fit,
            }
        )
    overrides = {"duration_s": lambda v: f"{v:g}"}
    csv_path = out_path.with_suffix(".csv")
    csv_path.write_text(
        render_csv(columns, rows, cfg.decimals, overrides), encoding="utf-8"
    )
    print(f"wrote {csv_path}", file=sys.stderr)

    if args.format == "json":
        sys.stdout.write(out_path.read_text(encoding="utf-8"))
        return 0
    if args.format == "table":
        fit = report.fit
        d = cfg.decimals
        for name, value in (
            ("eta_hat", report.eta_hat),
            ("slope_a", fit.slope_a),
            ("intercept_b", fit.intercept_b),
            ("rmse", fit.rmse),
            ("alpha", fit.alpha),
            ("beta", fit.beta),
        ):
            print(f"{name:<12} {value:.{d}f}")
        print()
    sys.stdout.write(_render(args.format, columns, rows, cfg.decimals, overrides))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report, certificate, pulse_freq_hz = read_report(args.report)
    eta = report.fit.eta_used
    if args.lambdas is not None:
        lambdas = _parse_float_list(args.lambdas, "--lambdas")
        for lam in lambdas:
            if lam < 0.0:
                raise ValueError(f"--lambdas: lambda must be >= 0, got {lam}")
    else:
        rates = _parse_float_list(args.rates, "--rates")
        for rate in rates:
            if rate < 0.0:
                raise ValueError(f"--rates: rate must be >= 0, got {rate}")
        lambdas = [
            solve_lambda_for_rate(rate, eta, cfg.pulse_freq_hz, cfg.lambda_tol)
            for rate in rates
        ]

    columns = ["lambda", "visibility", "bell", "events_per_second"]
    rows: list[dict[str, object]] = []
    for lam in lambdas:
        params = SourceParams(eta, lam, pulse_freq_hz)
        rows.append(
            {
                "lambda": lam,
                "visibility": visibility(params),
                "bell": predict_bell(report.fit, params, certificate),
                "events_per_second": events_per_second(params),
            }
        )
    _emit(_render(args.format, columns, rows, cfg.decimals), args.out)
    return 0


def cmd_extrapolate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report, certificate, pulse_freq_hz = read_report(args.report)
    eta = report.fit.eta_used
    targets = _parse_float_list(args.targets, "--targets")

    columns = ["bell_target", "lambda", "events_per_second", "note"]
    rows: list[dict[str, object]] = []
    infeasible = 0
    for target in targets:
        try:
            lam = solve_lambda_for_bell(
                report.fit,
                target,
                eta,
                cert=certificate,
                tol=cfg.bell_tol,
                allow_below_classical=args.allow_below_classical,
            )
        except (InfeasibleTargetError, BracketError) as exc:
            infeasible += 1
            rows.append(
                {
                    "bell_target": target,
                    "lambda": None,
                    "events_per_second": None,
                    "note": f"infeasible: {exc}",
                }
            )
            continue
        params = SourceParams(eta, lam, pulse_freq_hz)
        rows.append(
            {
                "bell_target": target,
                "lambda": lam,
                "events_per_second": events_per_second(params),
                "note": "",
            }
        )
    if infeasible:
        print(f"warning: {infeasible} infeasible target(s)", file=sys.stderr)
    _emit(_render(args.format, columns, rows, cfg.decimals), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report, certificate, pulse_freq_hz = read_report(args.report)
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    for flag, value in (("--lambda-min", args.lambda_min), ("--lambda-max", args.lambda_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not 0.0 <= args.lambda_min < args.lambda_max:
        raise ValueError(
            f"need 0 <= lambda_min < lambda_max, got "
            f"{args.lambda_min} and {args.lambda_max}"
        )
    # np.linspace's arithmetic, so the grid matches it bit for bit
    step = (args.lambda_max - args.lambda_min) / (args.steps - 1)
    grid = [i * step + args.lambda_min for i in range(args.steps - 1)]
    grid.append(args.lambda_max)
    points = sweep(
        report.fit,
        report.fit.eta_used,
        grid,
        cert=certificate,
        pulse_freq_hz=pulse_freq_hz,
    )
    columns = ["lambda", "visibility", "bell", "events_per_second"]
    rows: list[dict[str, object]] = [
        {
            "lambda": p.lambda_mean,
            "visibility": p.visibility,
            "bell": p.bell_value,
            "events_per_second": p.events_per_second,
        }
        for p in points
    ]
    _emit(_render(args.format, columns, rows, cfg.decimals), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    # the Monte Carlo is the only subcommand that needs numpy
    from .montecarlo import SimConfig, simulate_tally_and_chsh

    cfg = _load_config(args)
    if not 0.0 <= args.eta <= 1.0:
        raise ValueError(f"--eta must be in [0, 1], got {args.eta}")
    if not 0.0 <= args.lambda_mean < math.inf:
        raise ValueError(f"--lambda must be finite and >= 0, got {args.lambda_mean}")
    if args.pulses <= 0:
        raise ValueError(f"--pulses must be > 0, got {args.pulses}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
    params = SourceParams(args.eta, args.lambda_mean, cfg.pulse_freq_hz)
    if not 0.0 <= args.visibility <= 1.0:
        raise ValueError(f"--visibility must be in [0, 1], got {args.visibility}")
    sim_cfg = SimConfig(n_pulses=args.pulses, seed=args.seed)
    tally, estimate = simulate_tally_and_chsh(params, args.visibility, sim_cfg)
    n = float(sim_cfg.n_pulses)

    def count_row(name: str, observed: int, kind: ClickKind) -> dict[str, object]:
        rate = expected_rate(params, kind)
        expected = n * rate
        spread = math.sqrt(n * rate * (1.0 - rate))
        z = (observed - expected) / spread if spread > 0.0 else math.nan
        return {"quantity": name, "observed": float(observed), "expected": expected, "z": z}

    rows = [
        count_row("singles", tally.singles, ClickKind.SINGLE),
        count_row("doubles", tally.doubles, ClickKind.DOUBLE),
        count_row("entangled", tally.entangled_coincidences, ClickKind.ENTANGLED),
    ]
    if params.lambda_mean > 0.0:
        vis = visibility(params)
        if tally.doubles > 0:
            v_emp = tally.entangled_coincidences / tally.doubles
            v_spread = math.sqrt(vis * (1.0 - vis) / tally.doubles)
            v_z = (v_emp - vis) / v_spread if v_spread > 0.0 else math.nan
        else:
            v_emp, v_z = math.nan, math.nan
        bell_expected = cfg.certificate.tsirelson_bound * args.visibility * vis
    else:
        v_emp, v_z, vis = math.nan, math.nan, math.nan
        bell_expected = math.nan
    rows.append({"quantity": "visibility", "observed": v_emp, "expected": vis, "z": v_z})
    bell_z = (
        (estimate.bell_value - bell_expected) / estimate.std_error
        if estimate.std_error > 0.0
        else math.nan
    )
    rows.append(
        {
            "quantity": "chsh",
            "observed": estimate.bell_value,
            "expected": bell_expected,
            "z": bell_z,
        }
    )

    columns = ["quantity", "observed", "expected", "z"]
    overrides = {"z": lambda v: f"{v:+.2f}"}
    _emit(_render(args.format, columns, rows, cfg.decimals, overrides), args.out)
    worst = max(
        (abs(row["z"]) for row in rows if not math.isnan(row["z"])), default=0.0
    )
    if worst > 5.0:
        print(
            f"error: simulation disagrees with the model (max |z| = {worst:.2f})",
            file=sys.stderr,
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcal",
        description="Calibrate and extrapolate Bell-test rates for a pulsed pair source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default: table)",
        )
        if with_out:
            p.add_argument("--out", help="write output to this file instead of stdout")

    p_cal = sub.add_parser("calibrate", help="fit efficiency and Bell line from a run file")
    p_cal.add_argument("--runs", help="run CSV (default: bundled reference dataset)")
    p_cal.add_argument(
        "--out",
        help="calibration report JSON path (default: calibration_report.json); "
        "a CSV with the per-run table is written next to it",
    )
    p_cal.add_argument("--config", help="JSON config file")
    p_cal.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="stdout format (default: table)",
    )
    p_cal.set_defaults(func=cmd_calibrate)

    p_pred = sub.add_parser("predict", help="forward-model Bell value and event rate")
    p_pred.add_argument("--report", required=True, help="calibration report JSON")
    group = p_pred.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambdas", help="comma list of mean pair numbers")
    group.add_argument("--rates", help="comma list of target double-click rates (events/s)")
    add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_ext = sub.add_parser("extrapolate", help="solve pump power for target Bell values")
    p_ext.add_argument("--report", required=True, help="calibration report JSON")
    p_ext.add_argument("--targets", required=True, help="comma list of target Bell values")
    p_ext.add_argument(
        "--allow-below-classical",
        action="store_true",
        help="also solve targets below the classical bound",
    )
    add_common(p_ext)
    p_ext.set_defaults(func=cmd_extrapolate)

    p_sweep = sub.add_parser("sweep", help="emit a Bell-vs-power curve for plotting")
    p_sweep.add_argument("--report", required=True, help="calibration report JSON")
    p_sweep.add_argument("--lambda-min", type=float, default=0.0)
    p_sweep.add_argument("--lambda-max", type=float, default=0.75)
    p_sweep.add_argument("--steps", type=int, default=100)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="cross-check the model by Monte Carlo")
    p_sim.add_argument("--eta", type=float, required=True, help="detection efficiency")
    p_sim.add_argument(
        "--lambda",
        dest="lambda_mean",
        type=float,
        required=True,
        help="mean pairs per pulse",
    )
    p_sim.add_argument(
        "--visibility",
        type=float,
        default=1.0,
        help="state visibility of the simulated source (default: 1)",
    )
    p_sim.add_argument("--pulses", type=int, default=1_000_000, help="pulses to draw")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit unsigned)")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
