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
    _is_real,
    calibrate,
    chsh_certificate,
)
from .clicks import (
    ClickKind,
    DEFAULT_PULSE_FREQ_HZ,
    SourceParams,
    _Record,
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
FORWARD_COLUMNS = ("lambda", "visibility", "bell", "events_per_second")

BUNDLED_RUNS = "paper_table2.csv"

# sweep's grid and table are held in memory; 10^5 points take well under a
# second, 10^8 exhaust it
MAX_SWEEP_STEPS = 100_000


class RunFileError(ValueError):
    """A run file failed to parse or validate; message carries the location."""


class ConfigFileError(ValueError):
    """A config file failed to parse or holds unknown or invalid keys."""


class ReportFileError(ValueError):
    """A calibration report failed to parse or has the wrong schema."""


class ToolConfig(_Record):
    """Tool-level knobs; everything has a working default."""

    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ
    decimals: int = 4
    certificate: BellCertificate = chsh_certificate()

    def _check(self) -> None:
        value = self.pulse_freq_hz
        if not (_is_real(value) and 0.0 < value < math.inf):
            raise ValueError(f"pulse_freq_hz must be a finite number > 0, got {value!r}")
        # a huge precision would make every formatted cell that long
        if type(self.decimals) is not int or not 0 <= self.decimals <= 20:
            raise ValueError(f"decimals must be an integer in [0, 20], got {self.decimals!r}")


def _read_json(path: str | Path, error: type[ValueError]) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to read") from None


def _reject_unknown_keys(path: str | Path, what: str, raw: dict, record: type) -> None:
    unknown = sorted(set(raw) - set(record.__match_args__))
    if unknown:
        raise ConfigFileError(f"{path}: unknown {what} keys: {', '.join(unknown)}")


def read_config(path: str | Path) -> ToolConfig:
    """Load a JSON config; keys that are not ToolConfig or BellCertificate
    fields are rejected by name."""
    raw = _read_json(path, ConfigFileError)
    if not isinstance(raw, dict):
        raise ConfigFileError(f"{path}: top level must be a JSON object")
    _reject_unknown_keys(path, "config", raw, ToolConfig)
    kwargs = dict(raw)
    if "certificate" in raw:
        cert_raw = raw["certificate"]
        if not isinstance(cert_raw, dict):
            raise ConfigFileError(f"{path}: certificate must be a JSON object")
        _reject_unknown_keys(path, "certificate", cert_raw, BellCertificate)
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
    the 1-based line number, and a repeated run_id names both lines.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RunFileError(f"{path}: not valid UTF-8 ({exc})") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise RunFileError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise RunFileError(f"{path}: empty file, header row required")
    header = [name.strip() for name in rows[0]]
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
    first_lines: dict[int, int] = {}
    for lineno, record in enumerate(rows[1:], start=2):
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
        first = first_lines.setdefault(run.run_id, lineno)
        if first != lineno:
            raise RunFileError(f"{path}:{lineno}: run_id {run.run_id} repeats line {first}")
        runs.append(run)
    if not runs:
        raise RunFileError(f"{path}: no data rows")
    return tuple(runs)


def bundled_runs_path() -> Path:
    """Path of the packaged seven-run reference dataset, installed as a plain
    file next to this module."""
    return Path(__file__).parent / "data" / BUNDLED_RUNS


def write_report(
    path: str | Path,
    report: CalibrationReport,
    certificate: BellCertificate,
    pulse_freq_hz: float,
) -> None:
    """Serialize a calibration to JSON with full-precision floats; the
    certificate, fit and per-run objects carry their records' fields in
    field order. A pulse_freq_hz that read_report would refuse raises
    ValueError before anything is written."""
    _report_float("pulse_freq_hz", pulse_freq_hz)
    payload = {
        "schema": REPORT_SCHEMA,
        "pulse_freq_hz": pulse_freq_hz,
        "certificate": vars(certificate),
        "eta_hat": report.eta_hat,
        "fit": vars(report.fit),
        "per_run": [rc._asdict() for rc in report.per_run],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_report(
    path: str | Path,
) -> tuple[CalibrationReport, BellCertificate, float]:
    """Load a calibration report written by write_report; pulse_freq_hz
    must be > 0, as the subcommands' solves need."""
    raw = _read_json(path, ReportFileError)
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
            eta_hat=_report_float("eta_hat", raw["eta_hat"]), per_run=per_run, fit=fit
        )
        pulse_freq_hz = _report_float("pulse_freq_hz", raw["pulse_freq_hz"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportFileError(f"{path}: malformed report ({exc})") from exc
    return report, certificate, pulse_freq_hz


def _report_float(key: str, value: object) -> float:
    """A report's eta_hat or pulse_freq_hz as read_report accepts it."""
    if not _is_real(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    if key == "pulse_freq_hz" and not value > 0.0:
        raise ValueError(f"pulse_freq_hz must be > 0, got {float(value)}")
    return float(value)


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


def _render(
    fmt: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    decimals: int,
    overrides: dict[str, Callable[[object], str]] | None = None,
) -> str:
    """Rows of cells in column order as a right-aligned table, CSV, or JSON
    objects. None and NaN cells read n/a (null in JSON); overrides format a
    column's other cells, and other floats get ``decimals`` places."""
    if fmt == "json":
        payload = [
            {col: None if _missing(v) else v for col, v in zip(columns, row, strict=True)}
            for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    overrides = overrides or {}
    grid = [list(columns)]
    for row in rows:
        cells = []
        for col, value in zip(columns, row, strict=True):
            if _missing(value):
                cells.append("n/a")
            elif col in overrides:
                cells.append(overrides[col](value))
            elif isinstance(value, float):
                cells.append(f"{value:.{decimals}f}")
            else:
                cells.append(str(value))
        grid.append(cells)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(grid)
        return buf.getvalue()
    widths = [max(len(cell) for cell in column) for column in zip(*grid)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n" for line in grid)


def _missing(value: object) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


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
    out_path = Path(args.out)
    csv_path = out_path.with_suffix(".csv")
    for path in (out_path, csv_path):
        if path.resolve() == runs_path.resolve():
            raise ValueError(
                f"--out {out_path}: writing {path} would overwrite the run file {runs_path}"
            )
    runs = read_run_file(runs_path)
    report = calibrate(runs, cert=cfg.certificate, pulse_freq_hz=cfg.pulse_freq_hz)

    write_report(out_path, report, cfg.certificate, cfg.pulse_freq_hz)
    print(f"wrote {out_path}", file=sys.stderr)

    by_id = {run.run_id: run for run in runs}
    merged = [{**vars(by_id[rc.run_id]), **rc._asdict()} for rc in report.per_run]
    columns = list(merged[0])
    rows = [list(row.values()) for row in merged]
    overrides = {"duration_s": lambda v: f"{v:g}"}
    csv_path.write_text(
        _render("csv", columns, rows, cfg.decimals, overrides), encoding="utf-8"
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
        # the report's frequency, which the events/s column uses too
        lambdas = [solve_lambda_for_rate(rate, eta, pulse_freq_hz) for rate in rates]

    rows = []
    for lam in lambdas:
        params = SourceParams(eta, lam, pulse_freq_hz)
        rows.append(
            (
                lam,
                visibility(params),
                predict_bell(report.fit, params, certificate),
                events_per_second(params),
            )
        )
    _emit(_render(args.format, FORWARD_COLUMNS, rows, cfg.decimals), args.out)
    return 0


def cmd_extrapolate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report, certificate, pulse_freq_hz = read_report(args.report)
    eta = report.fit.eta_used
    targets = _parse_float_list(args.targets, "--targets")

    columns = ("bell_target", "lambda", "events_per_second", "note")
    rows = []
    for target in targets:
        try:
            lam = solve_lambda_for_bell(
                report.fit,
                target,
                eta,
                cert=certificate,
                allow_below_classical=args.allow_below_classical,
            )
        except (InfeasibleTargetError, BracketError) as exc:
            rows.append((target, None, None, f"infeasible: {exc}"))
        else:
            params = SourceParams(eta, lam, pulse_freq_hz)
            rows.append((target, lam, events_per_second(params), ""))
    infeasible = sum(lam is None for _, lam, _, _ in rows)
    if infeasible:
        print(f"warning: {infeasible} infeasible target(s)", file=sys.stderr)
    _emit(_render(args.format, columns, rows, cfg.decimals), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report, certificate, pulse_freq_hz = read_report(args.report)
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"--steps must be in [2, {MAX_SWEEP_STEPS}], got {args.steps}")
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
    # a PredictionPoint's fields are the forward columns, in order
    _emit(_render(args.format, FORWARD_COLUMNS, points, cfg.decimals), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    # the Monte Carlo is the only subcommand that needs numpy
    from .montecarlo import MAX_LAMBDA_MEAN, MAX_PULSES, SimConfig, simulate_tally_and_chsh

    cfg = _load_config(args)
    if not 0.0 <= args.eta <= 1.0:
        raise ValueError(f"--eta must be in [0, 1], got {args.eta}")
    if not 0.0 <= args.lambda_mean <= MAX_LAMBDA_MEAN:
        raise ValueError(
            f"--lambda must be in [0, {MAX_LAMBDA_MEAN:g}], got {args.lambda_mean}"
        )
    if args.pulses <= 0:
        raise ValueError(f"--pulses must be > 0, got {args.pulses}")
    if args.pulses > MAX_PULSES:
        raise ValueError(f"--pulses must be at most {MAX_PULSES:g}, got {args.pulses}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
    params = SourceParams(args.eta, args.lambda_mean, cfg.pulse_freq_hz)
    if not 0.0 <= args.visibility <= 1.0:
        raise ValueError(f"--visibility must be in [0, 1], got {args.visibility}")
    sim_cfg = SimConfig(n_pulses=args.pulses, seed=args.seed)
    tally, estimate = simulate_tally_and_chsh(params, args.visibility, sim_cfg)
    n = float(sim_cfg.n_pulses)

    def count_row(name: str, observed: int, kind: ClickKind) -> tuple:
        rate = expected_rate(params, kind)
        expected = n * rate
        spread = math.sqrt(n * rate * (1.0 - rate))
        z = (observed - expected) / spread if spread > 0.0 else math.nan
        return name, float(observed), expected, z

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
        # the Monte Carlo simulates CHSH whatever the config's certificate
        bell_expected = chsh_certificate().tsirelson_bound * args.visibility * vis
    else:
        v_emp, v_z, vis = math.nan, math.nan, math.nan
        bell_expected = math.nan
    rows.append(("visibility", v_emp, vis, v_z))
    bell_z = (
        (estimate.bell_value - bell_expected) / estimate.std_error
        if estimate.std_error > 0.0
        else math.nan
    )
    rows.append(("chsh", estimate.bell_value, bell_expected, bell_z))

    columns = ("quantity", "observed", "expected", "z")
    overrides = {"z": lambda v: f"{v:+.2f}"}
    _emit(_render(args.format, columns, rows, cfg.decimals, overrides), args.out)
    worst = max((abs(z) for *_, z in rows if not math.isnan(z)), default=0.0)
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
        default="calibration_report.json",
        help="calibration report JSON path (default: calibration_report.json); "
        "a CSV with the per-run table is written next to it",
    )
    add_common(p_cal, with_out=False)
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
    p_sweep.add_argument(
        "--steps",
        type=int,
        default=100,
        help=f"grid points, 2 to {MAX_SWEEP_STEPS} (default: 100)",
    )
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
    p_sim.add_argument(
        "--pulses", type=int, default=1_000_000, help="pulses to draw, at most 1e10"
    )
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
