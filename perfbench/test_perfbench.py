"""Tests of the benchmark itself: inputs, output checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bellcal  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- inputs


def test_generator_is_deterministic_per_seed():
    assert gen.campaign(7, 3) == gen.campaign(7, 3)
    assert gen.mc_seeds(7, 3) == gen.mc_seeds(7, 3)
    assert gen.cli_session(7, 3) == gen.cli_session(7, 3)
    assert gen.campaign(7, 3) != gen.campaign(8, 3)
    assert gen.campaign(7, 3) != gen.campaign(7, 4)
    assert gen.mc_seeds(7, 0) != gen.mc_seeds(8, 0)
    assert gen.cli_session(7, 0) != gen.cli_session(8, 0)


def test_campaigns_stay_in_their_ranges():
    for index in range(20):
        camp = gen.campaign(1, index)
        assert 7 <= len(camp.runs) <= 32
        assert 0.05 <= camp.eta <= 0.3
        assert 100 <= camp.grid_steps <= 2000
        assert 6 <= len(camp.target_fractions) <= 10
        assert camp.target_fractions[-1] == 0.0
        assert all(0.05 <= f < 0.95 for f in camp.target_fractions[:-1])
        assert all(d in gen.DURATIONS_S and doubles > 0 for _, doubles, _, d, _ in camp.runs)


# ---------------------------------------------------------------- oracle


@pytest.mark.parametrize("eta, lam", [(0.05, 0.001), (0.1134, 0.0849), (0.3, 0.75), (0.5, 0.3)])
def test_oracle_matches_library_rates(eta, lam):
    params = bellcal.SourceParams(eta, lam)
    for kind, rate in zip(
        (bellcal.ClickKind.SINGLE, bellcal.ClickKind.DOUBLE, bellcal.ClickKind.ENTANGLED),
        checks.click_rates(eta, lam),
    ):
        assert rate == pytest.approx(bellcal.expected_rate(params, kind), rel=1e-12)


# ---------------------------------------------------------------- checks


@pytest.fixture(scope="module")
def planned():
    """A synthetic campaign run through calibrate, extrapolate and sweep."""
    camp = gen.campaign(3, 0)
    report = bellcal.calibrate([bellcal.ExperimentRun(*r) for r in camp.runs])
    fit = report.fit
    target = 2.0 + camp.target_fractions[0] * (fit.intercept_b - 2.0)
    lam = bellcal.solve_lambda_for_bell(fit, target, fit.eta_used)
    points = bellcal.sweep(fit, fit.eta_used, [i * 0.75 / 99 for i in range(100)])
    return camp, report, target, lam, points


def _calibration_args(camp, report, shift=0.0):
    fit = report.fit
    lambdas = [rc.lambda_calc + shift for rc in report.per_run]
    return (sorted(camp.runs), report.eta_hat, lambdas, fit.slope_a, fit.intercept_b, gen.PULSE_FREQ_HZ)


def test_calibration_check_rejects_shifted_lambda(planned):
    camp, report, *_ = planned
    checks.check_calibration(*_calibration_args(camp, report))
    with pytest.raises(checks.CheckFailed, match="doubles"):
        checks.check_calibration(*_calibration_args(camp, report, shift=1e-3))


def test_calibration_check_rejects_a_line_that_is_not_ols(planned):
    camp, report, *_ = planned
    args = list(_calibration_args(camp, report))
    args[3] += 1e-6
    with pytest.raises(checks.CheckFailed, match="slope"):
        checks.check_calibration(*args)


def test_reference_checks_reject_shifted_lambda():
    runs = workloads.reference_runs(bellcal)
    report = bellcal.calibrate([bellcal.ExperimentRun(*r) for r in runs])
    fit = report.fit
    lambdas = [rc.lambda_calc for rc in report.per_run]
    checks.check_reference_calibration(report.eta_hat, lambdas, fit.slope_a, fit.intercept_b, fit.rmse)
    shifted = [lambdas[0] + 1e-3] + lambdas[1:]
    with pytest.raises(checks.CheckFailed, match="run 1"):
        checks.check_reference_calibration(report.eta_hat, shifted, fit.slope_a, fit.intercept_b, fit.rmse)
    lam = bellcal.solve_lambda_for_bell(fit, 2.5, fit.eta_used)
    checks.check_reference_extrapolation(2.5, lam)
    with pytest.raises(checks.CheckFailed):
        checks.check_reference_extrapolation(2.5, lam + 3e-3)


def test_target_check_rejects_shifted_lambda(planned):
    _, report, target, lam, _ = planned
    fit = report.fit
    checks.check_target(target, lam, fit.eta_used, fit.alpha, fit.beta, gen.PULSE_FREQ_HZ)
    with pytest.raises(checks.CheckFailed, match="target"):
        checks.check_target(target, lam + 1e-3, fit.eta_used, fit.alpha, fit.beta, gen.PULSE_FREQ_HZ)


def _sweep_args(report, points, vis=None, bell=None, events=None):
    fit = report.fit
    return (
        [p.lambda_mean for p in points],
        vis or [p.visibility for p in points],
        bell or [p.bell_value for p in points],
        events or [p.events_per_second for p in points],
        (1, 50, 99),
        fit.eta_used,
        fit.alpha,
        fit.beta,
        gen.PULSE_FREQ_HZ,
    )


def test_sweep_check_rejects_non_monotone_and_off_oracle_curves(planned):
    _, report, _, _, points = planned
    checks.check_sweep(*_sweep_args(report, points))
    bell = [p.bell_value for p in points]
    bell[10], bell[11] = bell[11], bell[10]
    with pytest.raises(checks.CheckFailed, match="increases"):
        checks.check_sweep(*_sweep_args(report, points, bell=bell))
    events = [p.events_per_second * (1.0 + 1e-6) for p in points]
    with pytest.raises(checks.CheckFailed, match="events/s"):
        checks.check_sweep(*_sweep_args(report, points, events=events))
    vis = [p.visibility for p in points]
    vis[0] = 1.5
    with pytest.raises(checks.CheckFailed, match="visibility"):
        checks.check_sweep(*_sweep_args(report, points, vis=vis))


def test_monte_carlo_check_rejects_off_model_tallies():
    eta, lam, n = 0.1134, 0.0849, 1 << 18
    params = bellcal.SourceParams(eta, lam)
    cfg = bellcal.SimConfig(n_pulses=n, seed=5)
    tally = bellcal.simulate_pulses(params, cfg)
    est = bellcal.simulate_chsh(params, 1.0, cfg)
    good = (eta, lam, n, tally.singles, tally.doubles, tally.entangled_coincidences, est.bell_value, est.std_error)
    checks.check_monte_carlo(*good)
    six_sigma = int(6 * math.sqrt(tally.doubles))
    with pytest.raises(checks.CheckFailed, match="doubles"):
        checks.check_monte_carlo(*good[:4], tally.doubles + six_sigma, *good[5:])
    with pytest.raises(checks.CheckFailed, match="CHSH"):
        checks.check_monte_carlo(*good[:6], est.bell_value + 6 * est.std_error, est.std_error)


def test_cli_check_rejects_bad_exit_rows_and_eta():
    class Ctx:
        library_eta = 0.5

    session = gen.cli_session(1, 0)
    with pytest.raises(checks.CheckFailed, match="exit code"):
        workloads.check_cli_output(Ctx, "predict", 2, "", session, Counter())
    with pytest.raises(checks.CheckFailed, match="rows"):
        workloads.check_cli_output(Ctx, "predict", 0, "lambda,events_per_second\n", session, Counter())
    report = {"eta_hat": 0.1134, "per_run": [], "fit": {}}
    with pytest.raises(checks.CheckFailed, match="eta_hat"):
        workloads.check_cli_output(Ctx, "calibrate", 0, json.dumps(report), session, Counter())


def test_samples_are_rescaled_by_the_reference_time_around_them():
    rec = workloads.Recorder()
    nominal = workloads.REF_NOMINAL_S
    # a slow spell (kernel twice as slow) around t = 10, nominal speed at t = 20
    rec.refs = [(9.5, 2 * nominal), (10.5, 2 * nominal), (19.5, nominal), (20.5, nominal)]
    rec.samples["sweep"] = [(100, 2.0, 10.0), (100, 1.0, 20.0)]
    assert rec.rate("sweep", normalized=False) == pytest.approx(75.0)
    assert rec.rate("sweep") == pytest.approx(100.0)
    assert rec.median_s("sweep") == pytest.approx(1.0)
    # far from every reference, the nearest one is used
    assert rec.slowdown(100.0) == pytest.approx(1.0)
    assert rec.rate("none") == 0.0


# ---------------------------------------------------------------- spans


def _span(name, start, end, parent):
    return [name, start, end, parent, False]


def test_self_time_subtracts_what_children_cover():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 7.0, 0),
        _span("a.child", 2.0, 3.0, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [_span("root", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0), _span("y", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_summary_counts_nested_rate_evals_and_outermost_busy_time():
    tree = [
        _span("calibration.solve_lambda_from_doubles", 0.0, 4.0, -1),
        _span("clicks.expected_rate", 1.0, 2.0, 0),
        _span("clicks.expected_rate", 2.0, 3.0, 0),
        _span("prediction.sweep", 5.0, 9.0, -1),
        _span("prediction.sweep", 6.0, 8.0, 3),
        _span("clicks.expected_rate", 6.5, 7.0, 4),
    ]
    summary = spans.summarize(tree)
    solve = summary["calibration.solve_lambda_from_doubles"]
    assert solve["calls"] == 1 and solve["nested_rate_evals"] == 2
    assert solve["self_s"] == pytest.approx(2.0)
    sweep = summary["prediction.sweep"]
    assert sweep["calls"] == 2 and sweep["busy_s"] == pytest.approx(4.0)
    assert sweep["nested_rate_evals"] == 1
    assert summary["clicks.expected_rate"]["busy_s"] == pytest.approx(2.5)


def test_tracer_wraps_every_binding_and_restores_them():
    original = bellcal.prediction.expected_rate
    tracer = spans.Tracer()
    tracer.install(bellcal)
    try:
        assert bellcal.prediction.expected_rate is not original
        assert bellcal.prediction.expected_rate is bellcal.clicks.expected_rate
        bellcal.visibility(bellcal.SourceParams(0.1, 0.05))
    finally:
        tracer.uninstall()
    assert bellcal.prediction.expected_rate is original
    names = [s[0] for s in tracer.spans]
    assert names == ["prediction.visibility", "clicks.expected_rate", "clicks.expected_rate"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


# ---------------------------------------------------------------- contract


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [m[1] for m in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
