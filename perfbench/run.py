#!/usr/bin/env python3
"""bellcal benchmark: plan, mc and cli workloads, untraced or traced.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

runs from the root of a checkout and imports bellcal from its ``src``
directory, never from an installed copy. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones in END_TO_END; with
``--trace 1`` they are the per-layer ones in PER_LAYER, taken from spans
recorded around the calls into each bellcal module, and the run is split
into an untraced half and a traced half so that their difference gives the
tracing overhead. ``--workload all`` runs the three workloads in turn.

Every end-to-end metric exists on every workload, because each workload
performs all four user operations (see workloads.py). Rates are medians
over operations of items per second of the operation's wall time; setup_s
is the median wall time of fresh interpreters that import and warm up what
the workload calls. Both are rescaled to a nominal host speed by a
reference kernel timed throughout the run (see workloads.REF_NOMINAL_S).
The lines before the JSON print each figure as rescaled and as measured,
by the names each workload is known for (mc_tally_mpulse_per_s,
cli_sweep_s, error_rate, ...), with sample counts. The environment, all
figures and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("plan", "mc", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
PROBE_REPEATS = 3

# (name, unit, operation kind, items per unit); kind None marks the two
# process-level metrics, which are measured apart from the operation loop
END_TO_END = (
    ("setup_s", "s", None, None),
    ("peak_rss_mb", "MB", None, None),
    ("calibrate_runs_per_s", "runs/s", "calibrate", 1.0),
    ("extrapolate_targets_per_s", "targets/s", "extrapolate", 1.0),
    ("sweep_points_per_s", "points/s", "sweep", 1.0),
    ("simulate_mpulse_per_s", "Mpulse/s", "simulate", 1e6),
)

RATED = tuple(name for name, _, kind, _ in END_TO_END if kind)

PER_LAYER = (
    ("clicks.expected_rate.calls", "count"),
    ("clicks.expected_rate.us_per_call", "us"),
    ("clicks.expected_rate.self_s", "s"),
    ("clicks.errors", "count"),
    ("calibration.calibrate.busy_s", "s"),
    ("calibration.calibrate.self_s", "s"),
    ("calibration.solve_lambda_from_doubles.calls", "count"),
    ("calibration.solve_lambda_from_doubles.self_s", "s"),
    ("calibration.solve_lambda_from_doubles.rate_evals", "count"),
    ("calibration.solve_lambda_from_doubles.rate_evals_per_solve", "evals/solve"),
    ("calibration.fit_linear.busy_s", "s"),
    ("calibration.estimate_eta.busy_s", "s"),
    ("calibration.errors", "count"),
    ("prediction.solve_lambda_for_bell.calls", "count"),
    ("prediction.solve_lambda_for_bell.self_s", "s"),
    ("prediction.solve_lambda_for_bell.rate_evals", "count"),
    ("prediction.solve_lambda_for_bell.rate_evals_per_solve", "evals/solve"),
    ("prediction.sweep.busy_s", "s"),
    ("prediction.sweep.self_s", "s"),
    ("prediction.sweep.points", "count"),
    ("prediction.sweep.us_per_point", "us"),
    ("prediction.sweep.rate_evals", "count"),
    ("prediction.sweep.rate_evals_per_point", "evals/point"),
    ("prediction.predict_bell.self_s", "s"),
    ("prediction.errors", "count"),
    ("montecarlo.simulate_pulses.busy_s", "s"),
    ("montecarlo.simulate_pulses.ns_per_pulse", "ns"),
    ("montecarlo.simulate_chsh.busy_s", "s"),
    ("montecarlo.simulate_chsh.ns_per_pulse", "ns"),
    ("montecarlo.random_bytes_computed", "B"),
    ("montecarlo.errors", "count"),
    ("cli.interpreter_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("cli.import_s", "s"),
    ("cli.calibrate.main_s", "s"),
    ("cli.predict.main_s", "s"),
    ("cli.extrapolate.main_s", "s"),
    ("cli.sweep.main_s", "s"),
    ("cli.simulate.main_s", "s"),
    ("cli.read_run_file.busy_s", "s"),
    ("cli.read_report.busy_s", "s"),
    ("cli.write_report.busy_s", "s"),
    ("cli.errors", "count"),
) + tuple(
    (f"trace_overhead.{name}", unit) for name, unit, _, _ in END_TO_END if name in RATED
)


@dataclass
class Context:
    """What every workload needs: the package, its inputs and a cwd."""

    bellcal: object
    seed: int
    child_env: dict
    workdir: str
    reference_runs: tuple
    library_eta: float


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at nproc, for this process and its children."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_bellcal():
    """Import bellcal from this checkout's src directory, or exit 2."""
    src = ROOT / "src"
    if not (src / "bellcal" / "__init__.py").is_file():
        sys.exit(f"error: no bellcal package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import bellcal
    import bellcal.cli  # noqa: F401  the cli workload and the spans need it bound

    if Path(bellcal.__file__).resolve().parent != (src / "bellcal").resolve():
        sys.exit(f"error: imported bellcal from {bellcal.__file__}, not from {src}")
    return bellcal


def environment(bellcal, args, caps) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "bellcal": getattr(bellcal, "__version__", "unknown"),
        "commit": commit,
        "thread_caps": caps,
    }


def _wall(cmd, ctx) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ctx.workdir, env=ctx.child_env, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def setup_prober(ctx, workload: str, rec):
    """A callable that times one fresh-interpreter set-up (imports plus first
    calls) as a "setup" sample of rec."""
    cmd = [sys.executable, str(BENCH_DIR / "warmup.py"), workload]
    return lambda: rec.sample("setup", 1, _wall(cmd, ctx))


def cli_probes(ctx) -> dict[str, float]:
    """Median wall times of bare start-up, numpy import and bellcal.cli import."""
    probes = {
        "cli.interpreter_s": "pass",
        "cli.import_numpy_s": "import numpy",
        "cli.import_s": "import bellcal.cli",
    }
    return {
        name: statistics.median(_wall([sys.executable, "-c", code], ctx) for _ in range(PROBE_REPEATS))
        for name, code in probes.items()
    }


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process; on cli, of the largest child (Linux: KiB)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def rates(rec, normalized: bool = True) -> dict[str, float]:
    return {name: rec.rate(kind, normalized) / scale for name, _, kind, scale in END_TO_END if kind}


def run_loop(workloads, ctx, workload, rec, seconds, in_process=False):
    if workload == "plan":
        workloads.run_plan(ctx, rec, seconds)
    elif workload == "mc":
        workloads.run_mc(ctx, rec, seconds)
    else:
        workloads.run_cli(ctx, rec, seconds, in_process=in_process)


def report_lines(workload, rec, rss_mb) -> list[tuple[str, float, float, str, int]]:
    """The figures by the names this workload is known for:
    (name, value at reference speed, value as measured, unit, samples)."""

    def timed(name, kind, unit, rate_scale=None):
        n = len(rec.samples[kind])
        if rate_scale is None:
            return (name, rec.median_s(kind), rec.median_s(kind, False), unit, n)
        return (name, rec.rate(kind) / rate_scale, rec.rate(kind, False) / rate_scale, unit, n)

    error_rate = rec.failed / rec.attempted
    lines = [
        timed("setup_s", "setup", "s"),
        ("error_rate", error_rate, error_rate, "ratio", rec.attempted),
        ("peak_rss_mb", rss_mb, rss_mb, "MB", 1),
    ]
    if workload == "cli":
        for sub in ("calibrate", "predict", "extrapolate", "sweep", "simulate"):
            lines.append(timed(f"cli_{sub}_s", sub, "s"))
    else:
        for name, unit, kind, scale in END_TO_END[2:5]:
            lines.append(timed(name, kind, unit, scale))
        for kind in ("mc_tally", "mc_chsh"):
            lines.append(timed(f"{kind}_mpulse_per_s", kind, "Mpulse/s", 1e6))
    return lines


def layer_metrics(workload, summary, rec, untraced, traced, probes) -> dict[str, float]:
    """PER_LAYER values from a span summary; names never called read 0."""

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = dict(probes)
    rate_calls = get("clicks.expected_rate", "calls")
    out["clicks.expected_rate.calls"] = rate_calls
    out["clicks.expected_rate.us_per_call"] = ratio(get("clicks.expected_rate", "busy_s") * 1e6, rate_calls)
    out["clicks.expected_rate.self_s"] = get("clicks.expected_rate", "self_s")
    for fn in ("calibration.calibrate", "prediction.sweep", "montecarlo.simulate_pulses",
               "montecarlo.simulate_chsh", "calibration.fit_linear", "calibration.estimate_eta",
               "cli.read_run_file", "cli.read_report", "cli.write_report"):
        out[f"{fn}.busy_s"] = get(fn, "busy_s")
    for fn in ("calibration.calibrate", "calibration.solve_lambda_from_doubles",
               "prediction.solve_lambda_for_bell", "prediction.sweep", "prediction.predict_bell"):
        out[f"{fn}.self_s"] = get(fn, "self_s")
    for fn in ("calibration.solve_lambda_from_doubles", "prediction.solve_lambda_for_bell"):
        calls, evals = get(fn, "calls"), get(fn, "nested_rate_evals")
        out[f"{fn}.calls"] = calls
        out[f"{fn}.rate_evals"] = evals
        out[f"{fn}.rate_evals_per_solve"] = ratio(evals, calls)
    points = rec.counts["sweep_points"]
    out["prediction.sweep.points"] = points
    out["prediction.sweep.us_per_point"] = ratio(get("prediction.sweep", "busy_s") * 1e6, points)
    out["prediction.sweep.rate_evals"] = get("prediction.sweep", "nested_rate_evals")
    out["prediction.sweep.rate_evals_per_point"] = ratio(out["prediction.sweep.rate_evals"], points)
    for fn, counter in (("simulate_pulses", "tally_pulses"), ("simulate_chsh", "chsh_pulses")):
        out[f"montecarlo.{fn}.ns_per_pulse"] = ratio(
            get(f"montecarlo.{fn}", "busy_s") * 1e9, rec.counts[counter]
        )
    out["montecarlo.random_bytes_computed"] = float(rec.counts["random_bytes"])
    for layer in ("clicks", "calibration", "prediction", "montecarlo", "cli"):
        out[f"{layer}.errors"] = sum(
            entry["errors"] for name, entry in summary.items() if name.startswith(layer + ".")
        )
    for sub in ("calibrate", "predict", "extrapolate", "sweep", "simulate"):
        # only the cli workload calls main(argv); elsewhere these kinds are library calls
        out[f"cli.{sub}.main_s"] = rec.median_s(sub) if workload == "cli" else 0.0
    for name in RATED:
        out[f"trace_overhead.{name}"] = traced[name] - untraced[name]
    return out


def run_workload(args) -> int:
    caps = cap_threads()
    bellcal = import_bellcal()
    import spans
    import workloads

    env = dict(os.environ)
    package_root = str(Path(bellcal.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"cwd-{args.workload}-", dir=OUT_DIR)
    try:
        runs = workloads.reference_runs(bellcal)
        ctx = Context(
            bellcal=bellcal,
            seed=args.seed,
            child_env=env,
            workdir=workdir,
            reference_runs=runs,
            library_eta=bellcal.calibrate([bellcal.ExperimentRun(*r) for r in runs]).eta_hat,
        )
        info = environment(bellcal, args, caps)
        print("env " + json.dumps(info, sort_keys=True))
        import warmup

        warmup.warm_up(args.workload)

        if args.trace:
            metrics, rec, units = traced_run(args, ctx, workloads, spans)
        else:
            # set-ups are spread over the run, so a slow spell of the host
            # weighs on them no more than on the operations
            rec = workloads.Recorder()
            rec.every(args.seconds / SETUP_REPEATS, setup_prober(ctx, args.workload, rec))
            run_loop(workloads, ctx, args.workload, rec, args.seconds)
            rec.reference()
            rss = peak_rss_mb(args.workload)
            metrics = {"setup_s": rec.median_s("setup"), "peak_rss_mb": rss}
            metrics.update(rates(rec))
            units = {name: unit for name, unit, _, _ in END_TO_END}
            info["figures"] = {}
            for name, value, raw, unit, n in report_lines(args.workload, rec, rss):
                print(f"report {args.workload} {name} = {value:.6g} {unit} (as measured {raw:.6g}, n={n})")
                info["figures"][name] = {"value": value, "as_measured": raw, "unit": unit, "n": n}
            refs = [ref for _, ref in rec.refs]
            info["reference_kernel_s"] = {
                "nominal": workloads.REF_NOMINAL_S,
                "median": statistics.median(refs),
                "min": min(refs),
                "max": max(refs),
                "n": len(refs),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in rec.failures:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"env": info, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def traced_run(args, ctx, workloads, spans):
    """Untraced half, then traced half; per-layer metrics from the spans."""
    half = args.seconds / 2.0
    in_process = args.workload == "cli"
    untraced = workloads.Recorder()
    run_loop(workloads, ctx, args.workload, untraced, half, in_process)
    untraced.reference()
    tracer = spans.Tracer()
    tracer.install(ctx.bellcal)
    traced = workloads.Recorder()
    try:
        run_loop(workloads, ctx, args.workload, traced, half, in_process)
    finally:
        tracer.uninstall()
    traced.reference()
    probes = cli_probes(ctx)
    metrics = layer_metrics(args.workload, spans.summarize(tracer.spans), traced, rates(untraced), rates(traced), probes)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    for name in RATED:
        print(f"overhead {args.workload} {name}: untraced {rates(untraced)[name]:.6g}, traced {rates(traced)[name]:.6g}")
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.failures += untraced.failures
    return {name: metrics[name] for name, _ in PER_LAYER}, traced, dict(PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload != "all":
        return run_workload(args)
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
