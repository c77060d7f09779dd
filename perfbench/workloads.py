"""The three closed-loop workloads: plan, mc and cli.

Each workload issues its next operation only when the previous one has
returned, from one thread, until its time is up. An operation's wall time
is recorded before its output is checked, so checking costs no measured
time; an operation that raises or fails its check counts as failed.

Every workload performs each of the four user operations the end-to-end
metrics name (calibrate, extrapolate, sweep, and a simulate cross-check),
in its own proportions:

* plan: synthetic campaigns through the library; nearly all time in the
  rate kernel, forward (sweep) and inverse (both solvers).
* mc: the test_08 Monte Carlo grid through the library, plus a plan of the
  bundled campaign per grid pass; nearly all time in montecarlo.
* cli: ``python -m bellcal`` subprocesses; nearly all time in interpreter
  start-up and imports.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
import gen

REPORT_NAME = "calibration_report.json"
# output of a subprocess that fails is cut to this many characters
_STDERR_TAIL = 400


# On a shared 2-core virtual machine (Xeon, Python 3.11) the CPU speed was
# seen to drift by up to 45 % within seconds, more than the changes the
# bounds must catch. So a fixed reference kernel is timed every
# REF_PERIOD_S, and each timed sample is rescaled by the kernel time
# measured around it: figures read as they would on a host where the kernel
# takes REF_NOMINAL_S. Recorder.rate(kind, normalized=False) gives the
# figures as measured.
REF_PERIOD_S = 0.25
REF_WINDOW_S = 1.0
REF_NOMINAL_S = 0.0025
_REF_ARRAY = np.random.default_rng(0).random(1 << 16)


def reference_kernel_s() -> float:
    """Median of three timings of a fixed mix of interpreter and numpy work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i
        np.sort(_REF_ARRAY)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Recorder:
    """Timed samples per operation kind, attempted/failed counts, and the
    reference-kernel times that normalize the samples."""

    def __init__(self) -> None:
        # kind -> (items, seconds, midpoint on the perf_counter clock)
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.refs: list[tuple[float, float]] = []
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._periodic = None

    def every(self, period: float, fn) -> None:
        """Call fn before the first operation and then once per period, so
        that its samples spread over the whole run."""
        self._periodic = [period, fn, time.perf_counter()]

    def reference(self) -> None:
        start = time.perf_counter()
        ref = reference_kernel_s()
        self.refs.append(((start + time.perf_counter()) / 2.0, ref))

    def sample(self, kind: str, items: float, seconds: float) -> None:
        self.samples[kind].append((items, seconds, time.perf_counter() - seconds / 2.0))

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception marks it failed and returns None."""
        if not self.refs or time.perf_counter() - self.refs[-1][0] >= REF_PERIOD_S:
            self.reference()
        if self._periodic and time.perf_counter() >= self._periodic[2]:
            self._periodic[1]()
            self._periodic[2] = time.perf_counter() + self._periodic[0]
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # each operation is a boundary that must keep going
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def slowdown(self, t: float) -> float:
        """Median reference time within REF_WINDOW_S of t (else the nearest),
        over REF_NOMINAL_S."""
        near = [ref for when, ref in self.refs if abs(when - t) <= REF_WINDOW_S]
        if not near:
            near = [min(self.refs, key=lambda r: abs(r[0] - t))[1]]
        return float(np.median(near)) / REF_NOMINAL_S

    def rate(self, kind: str, normalized: bool = True) -> float:
        """Median over samples of items per second; 0 if every one failed."""
        return _median([
            items / seconds * (self.slowdown(t) if normalized else 1.0)
            for items, seconds, t in self.samples[kind]
        ])

    def median_s(self, kind: str, normalized: bool = True) -> float:
        return _median([
            seconds / (self.slowdown(t) if normalized else 1.0)
            for _, seconds, t in self.samples[kind]
        ])


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _random_bytes(n: int, lam: float, doubles: int | None) -> float:
    """Uniform draws of one pass as 8-byte doubles: one per pulse, 4 per pair,
    and 3 per double click in the CHSH pass (computed, not measured)."""
    draws = n + 4.0 * n * lam
    if doubles is not None:
        draws += 3.0 * doubles
    return 8.0 * draws


def reference_runs(bellcal) -> tuple[tuple[int, int, int, float, float], ...]:
    """The bundled seven-run campaign, read from the package's data file."""
    path = Path(bellcal.__file__).parent / "data" / "paper_table2.csv"
    with path.open(encoding="utf-8") as fh:
        return tuple(
            (
                int(row["run_id"]),
                int(row["doubles_observed"]),
                int(row["singles_observed"]),
                float(row["duration_s"]),
                float(row["bell_observed"]),
            )
            for row in csv.DictReader(fh)
        )


# ---------------------------------------------------------------- library ops


def _calibrate(bc, rec, runs, reference):
    records = [bc.ExperimentRun(*run) for run in runs]
    report, seconds = _timed(bc.calibrate, records)
    rec.sample("calibrate", len(records), seconds)
    fit = report.fit
    lambdas = [rc.lambda_calc for rc in report.per_run]
    if reference:
        checks.check_reference_calibration(
            report.eta_hat, lambdas, fit.slope_a, fit.intercept_b, fit.rmse
        )
    checks.check_calibration(
        sorted(runs), report.eta_hat, lambdas, fit.slope_a, fit.intercept_b, gen.PULSE_FREQ_HZ
    )
    return report


def _extrapolate(bc, rec, fit, target, reference):
    lam, seconds = _timed(bc.solve_lambda_for_bell, fit, target, fit.eta_used)
    rec.sample("extrapolate", 1, seconds)
    checks.check_target(target, lam, fit.eta_used, fit.alpha, fit.beta, gen.PULSE_FREQ_HZ)
    if reference:
        checks.check_reference_extrapolation(target, lam)
    return lam


def _sweep(bc, rec, fit, steps):
    grid = np.linspace(0.0, gen.SWEEP_LAMBDA_MAX, steps)
    points, seconds = _timed(bc.sweep, fit, fit.eta_used, grid)
    rec.sample("sweep", steps, seconds)
    rec.counts["sweep_points"] += steps
    checks.check_sweep(
        [p.lambda_mean for p in points],
        [p.visibility for p in points],
        [p.bell_value for p in points],
        [p.events_per_second for p in points],
        (1, steps // 2, steps - 1),
        fit.eta_used,
        fit.alpha,
        fit.beta,
        gen.PULSE_FREQ_HZ,
    )
    return points


def _simulate(bc, rec, eta, lam, n, seed):
    """One cross-check: a tally pass and a CHSH pass over the same pulses."""
    params = bc.SourceParams(eta, lam)
    cfg = bc.SimConfig(n_pulses=n, seed=seed)
    tally, t_tally = _timed(bc.simulate_pulses, params, cfg)
    estimate, t_chsh = _timed(bc.simulate_chsh, params, 1.0, cfg)
    rec.counts["tally_pulses"] += n
    rec.counts["chsh_pulses"] += n
    rec.counts["random_bytes"] += _random_bytes(n, lam, None) + _random_bytes(n, lam, tally.doubles)
    checks.check_monte_carlo(
        eta,
        lam,
        n,
        tally.singles,
        tally.doubles,
        tally.entangled_coincidences,
        estimate.bell_value,
        estimate.std_error,
    )
    return t_tally, t_chsh


def plan_campaign(bc, rec, runs, targets_of, steps, mc_seed=None, reference=False) -> None:
    """Calibrate, extrapolate, sweep, then Monte Carlo the highest-power target.

    targets_of maps the fitted intercept to the Bell targets; without an
    mc_seed the Monte Carlo step is left out. A failed step ends the
    campaign, since every later step needs its output.
    """
    report = rec.attempt("calibrate", _calibrate, bc, rec, runs, reference)
    if report is None:
        return
    fit = report.fit
    solved = []
    for target in targets_of(fit.intercept_b):
        lam = rec.attempt(f"extrapolate {target}", _extrapolate, bc, rec, fit, target, reference)
        if lam is None:
            return
        solved.append(lam)
    if rec.attempt("sweep", _sweep, bc, rec, fit, steps) is None or mc_seed is None:
        return
    times = rec.attempt(
        "simulate", _simulate, bc, rec, fit.eta_used, max(solved), gen.PLAN_MC_PULSES, mc_seed
    )
    if times is not None:
        rec.sample("simulate", gen.PLAN_MC_PULSES, sum(times))
        rec.sample("mc_tally", gen.PLAN_MC_PULSES, times[0])
        rec.sample("mc_chsh", gen.PLAN_MC_PULSES, times[1])


def _reference_plan(ctx, rec, mc_seed=None):
    plan_campaign(
        ctx.bellcal,
        rec,
        ctx.reference_runs,
        lambda _: gen.REFERENCE_TARGETS,
        gen.DEFAULT_SWEEP_STEPS,
        mc_seed,
        reference=True,
    )


def run_plan(ctx, rec: Recorder, seconds: float) -> None:
    start = time.perf_counter()
    _reference_plan(ctx, rec, mc_seed=ctx.seed)
    index = 0
    while time.perf_counter() - start < seconds:
        camp = gen.campaign(ctx.seed, index)
        index += 1
        plan_campaign(
            ctx.bellcal,
            rec,
            camp.runs,
            lambda b, f=camp.target_fractions: [2.0 + x * (b - 2.0) for x in f],
            camp.grid_steps,
            camp.mc_seed,
        )


def run_mc(ctx, rec: Recorder, seconds: float) -> None:
    """Passes over MC_GRID; after each eta row, a plan of the bundled
    campaign, without its own Monte Carlo, feeds the plan metrics."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        seeds = gen.mc_seeds(ctx.seed, index)
        t_tally = t_chsh = 0.0
        complete = True
        for point, ((eta, lam), seed) in enumerate(zip(gen.MC_GRID, seeds), start=1):
            times = rec.attempt(
                f"simulate eta={eta} lambda={lam}",
                _simulate,
                ctx.bellcal,
                rec,
                eta,
                lam,
                gen.MC_PULSES,
                seed,
            )
            if times is None:
                complete = False
            else:
                t_tally += times[0]
                t_chsh += times[1]
            if point % gen.MC_ROW == 0:
                _reference_plan(ctx, rec)
        if complete:
            pulses = gen.MC_PULSES * len(gen.MC_GRID)
            rec.sample("simulate", pulses, t_tally + t_chsh)
            rec.sample("mc_tally", pulses, t_tally)
            rec.sample("mc_chsh", pulses, t_chsh)
        index += 1


# ---------------------------------------------------------------- cli


def cli_argv(session: gen.CliSession) -> list[tuple[str, list[str], float]]:
    """(subcommand, argv, items) for one pass through the five subcommands."""
    eta, lam = gen.CLI_SIM_POINT
    targets = ",".join(str(t) for t in gen.REFERENCE_TARGETS)
    return [
        ("calibrate", ["calibrate", "--format", "json"], 7),
        (
            "predict",
            ["predict", "--report", REPORT_NAME, "--rates", ",".join(f"{r:g}" for r in session.rates), "--format", "csv"],
            len(session.rates),
        ),
        ("extrapolate", ["extrapolate", "--report", REPORT_NAME, "--targets", targets, "--format", "json"], len(gen.REFERENCE_TARGETS)),
        ("sweep", ["sweep", "--report", REPORT_NAME, "--steps", str(gen.CLI_SWEEP_STEPS), "--format", "csv"], gen.CLI_SWEEP_STEPS),
        (
            "simulate",
            ["simulate", "--eta", str(eta), "--lambda", str(lam), "--pulses", str(gen.CLI_SIM_PULSES),
             "--seed", str(session.sim_seed), "--format", "json"],
            gen.CLI_SIM_PULSES,
        ),
    ]


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_cli_output(ctx, sub: str, code: int, out: str, session: gen.CliSession, counts: Counter) -> None:
    """Exit code 0, parseable stdout, the expected rows, values in range."""
    if code != 0:
        raise checks.CheckFailed(f"exit code {code}")
    if sub == "calibrate":
        report = json.loads(out)
        per_run = report["per_run"]
        if report["eta_hat"] != ctx.library_eta:
            raise checks.CheckFailed(f"eta_hat {report['eta_hat']!r} vs library {ctx.library_eta!r}")
        fit = report["fit"]
        checks.check_reference_calibration(
            report["eta_hat"], [r["lambda_calc"] for r in per_run], fit["slope_a"], fit["intercept_b"], fit["rmse"]
        )
    elif sub == "predict":
        rows = _csv_rows(out)
        if len(rows) != len(session.rates):
            raise checks.CheckFailed(f"{len(rows)} rows for {len(session.rates)} rates")
        for row, rate in zip(rows, session.rates):
            got = float(row["events_per_second"])
            if abs(got - rate) > 1e-6 * rate:
                raise checks.CheckFailed(f"rate {rate}: predicted {got} events/s")
    elif sub == "extrapolate":
        rows = json.loads(out)
        if len(rows) != len(gen.REFERENCE_TARGETS):
            raise checks.CheckFailed(f"{len(rows)} rows for {len(gen.REFERENCE_TARGETS)} targets")
        for row in rows:
            if row["lambda"] is None:
                raise checks.CheckFailed(f"target {row['bell_target']}: {row['note']}")
            checks.check_reference_extrapolation(row["bell_target"], row["lambda"])
    elif sub == "sweep":
        rows = _csv_rows(out)
        if len(rows) != gen.CLI_SWEEP_STEPS:
            raise checks.CheckFailed(f"{len(rows)} rows, expected {gen.CLI_SWEEP_STEPS}")
        # rounded to 4 decimals, so only order and range are checked here
        bell = np.array([float(r["bell"]) for r in rows])
        events = np.array([float(r["events_per_second"]) for r in rows])
        vis = np.array([float(r["visibility"]) for r in rows])
        if np.any(np.diff(bell) > 0) or np.any(np.diff(events) < 0) or np.any((vis < 0) | (vis > 1)):
            raise checks.CheckFailed("sweep curve not monotone or visibility out of range")
        counts["sweep_points"] += len(rows)
    else:
        rows = {row["quantity"]: row for row in json.loads(out)}
        if set(rows) != {"singles", "doubles", "entangled", "visibility", "chsh"}:
            raise checks.CheckFailed(f"unexpected rows {sorted(rows)}")
        for name, row in rows.items():
            if row["z"] is None or abs(row["z"]) > checks.MC_SIGMAS:
                raise checks.CheckFailed(f"{name}: z = {row['z']}")
        eta, lam = gen.CLI_SIM_POINT
        n = gen.CLI_SIM_PULSES
        doubles = int(rows["doubles"]["observed"])
        counts["tally_pulses"] += n
        counts["chsh_pulses"] += n
        counts["random_bytes"] += _random_bytes(n, lam, None) + _random_bytes(n, lam, doubles)


def _run_subprocess(ctx, argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "bellcal", *argv],
        cwd=ctx.workdir,
        env=ctx.child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-_STDERR_TAIL:])
    return proc.returncode, proc.stdout


def _run_in_process(ctx, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(ctx.workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.bellcal.cli.main(argv)
    finally:
        os.chdir(previous)
    if code != 0:
        sys.stderr.write(err.getvalue()[-_STDERR_TAIL:])
    return code, out.getvalue()


def _cli_call(ctx, rec, sub, argv, items, session, in_process):
    run = _run_in_process if in_process else _run_subprocess
    (code, out), seconds = _timed(run, ctx, argv)
    rec.sample(sub, items, seconds)
    check_cli_output(ctx, sub, code, out, session, rec.counts)
    return True


def _cli_calls(seed: int):
    index = 0
    while True:
        session = gen.cli_session(seed, index)
        for sub, argv, items in cli_argv(session):
            yield index, session, sub, argv, items
        index += 1


def run_cli(ctx, rec: Recorder, seconds: float, in_process: bool = False) -> None:
    """The five subcommands in turn until time is up, after at least one full
    pass; the first calibrate writes the report that the other calls read.
    in_process calls bellcal.cli.main(argv) instead of spawning an
    interpreter, which is the only way spans can see inside."""
    start = time.perf_counter()
    try:
        for index, session, sub, argv, items in _cli_calls(ctx.seed):
            if index and time.perf_counter() - start >= seconds:
                break
            ok = rec.attempt(sub, _cli_call, ctx, rec, sub, argv, items, session, in_process)
            if ok is None and sub == "calibrate" and index == 0:
                break  # no report was written, so nothing else can run
    finally:
        for name in (REPORT_NAME, Path(REPORT_NAME).with_suffix(".csv").name):
            with contextlib.suppress(FileNotFoundError):
                (Path(ctx.workdir) / name).unlink()
