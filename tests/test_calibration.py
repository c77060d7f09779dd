import math

import numpy as np
import pytest

from bellcal import (
    BellCertificate,
    BracketError,
    CalibrationError,
    ClickKind,
    DegenerateFitError,
    ExperimentRun,
    ModelAssumptionError,
    ModelError,
    PhysicalFit,
    SourceParams,
    calibrate,
    chsh_certificate,
    estimate_eta,
    expected_doubles_count,
    expected_rate,
    fit_linear,
    solve_lambda_from_doubles,
    to_physical,
)
from bellcal.calibration import _newton_lambda

# independently computed values for the bundled seven-run dataset
REFERENCE_ETA = 0.11340251881660635
REFERENCE_LAMBDAS = (
    0.06494326014126273,
    0.048768724897854554,
    0.034593777642839996,
    0.019516423389177362,
    0.01196168705519085,
    0.007802645742231107,
    0.0035756073966695112,
)
REFERENCE_SLOPE = -1.691808637278341
REFERENCE_INTERCEPT = 2.758472819476572
REFERENCE_RMSE = 0.0052573579337417
REFERENCE_ALPHA = 0.6020156802834544
REFERENCE_BETA = -1.0557153398403194


class TestExperimentRun:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ExperimentRun(1, -5, 10, 1.0)

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ExperimentRun(1, 10, 2.5, 1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            ExperimentRun(1, 10, 20, 0.0)

    def test_bell_optional(self):
        run = ExperimentRun(3, 10, 20, 1.0)
        assert run.bell_observed is None

    # an int beyond float range passed and raised OverflowError later
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")]
    )
    def test_non_finite_duration_and_bell_rejected(self, bad):
        with pytest.raises(ValueError, match="run 4: duration_s"):
            ExperimentRun(4, 10, 20, bad)
        with pytest.raises(ValueError, match="run 4: bell_observed"):
            ExperimentRun(4, 10, 20, 1.0, bad)

    # int(inf) raises OverflowError and int(nan) a ValueError naming neither
    # the run nor the field, so the finite check has to come first; an int
    # beyond float range used to pass and raise OverflowError in the solves
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")]
    )
    @pytest.mark.parametrize("field", ["doubles_observed", "singles_observed"])
    def test_non_finite_count_rejected(self, field, bad):
        counts = {"doubles_observed": 10, "singles_observed": 20, field: bad}
        with pytest.raises(ValueError, match=f"run 5: {field}"):
            ExperimentRun(5, duration_s=1.0, **counts)

    def test_integral_float_count_accepted(self):
        run = ExperimentRun(6, 2.0, 3.0, 1.0)
        assert (run.doubles_observed, run.singles_observed) == (2, 3)


class TestBellCertificate:
    def test_chsh_bounds(self):
        cert = chsh_certificate()
        assert cert.tsirelson_bound == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert cert.classical_bound == 2.0
        assert cert.trace_zero

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            BellCertificate("bad", tsirelson_bound=2.0, classical_bound=2.5)
        with pytest.raises(ValueError):
            BellCertificate("bad", tsirelson_bound=0.0, classical_bound=0.0)


    # a report or config is JSON, so a bound can also be a string or a bool
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "3", True])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ValueError, match="tsirelson_bound"):
            BellCertificate("bad", tsirelson_bound=bad, classical_bound=2.0)
        with pytest.raises(ValueError, match="classical_bound"):
            BellCertificate("bad", tsirelson_bound=2.5, classical_bound=bad)

    def test_numpy_bounds_accepted(self):
        cert = BellCertificate("x", np.float64(2.5), np.float64(2.0))
        assert cert.tsirelson_bound == 2.5


class TestEstimateEta:
    def test_reference_dataset(self, reference_runs):
        assert estimate_eta(reference_runs) == pytest.approx(REFERENCE_ETA, rel=1e-12)

    def test_two_to_one_ratio(self):
        run = ExperimentRun(1, 1000, 2000, 1.0)
        assert estimate_eta([run]) == pytest.approx(0.5, rel=1e-15)

    def test_no_singles_means_lossless(self):
        run = ExperimentRun(1, 1000, 0, 1.0)
        assert estimate_eta([run]) == pytest.approx(1.0, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            estimate_eta([])

    def test_zero_doubles_rejected(self):
        with pytest.raises(CalibrationError):
            estimate_eta([ExperimentRun(1, 0, 100, 1.0)])

    def test_scale_invariance(self, reference_runs):
        scaled = [
            ExperimentRun(
                r.run_id,
                r.doubles_observed * 7,
                r.singles_observed * 7,
                r.duration_s,
                r.bell_observed,
            )
            for r in reference_runs
        ]
        assert estimate_eta(scaled) == pytest.approx(
            estimate_eta(reference_runs), rel=1e-15
        )


class TestSolveLambda:
    def test_round_trip_property(self):
        for eta in (0.011, 0.05, 0.1134, 0.5, 1.0):
            for lam in (0.0, 1e-4, 0.01, 0.0849, 0.3, 1.0):
                for t in (10.0, 1e4):
                    count = expected_doubles_count(SourceParams(eta, lam), t)
                    recovered = solve_lambda_from_doubles(count, t, eta)
                    assert recovered == pytest.approx(lam, abs=1e-8)

    def test_reference_runs(self, reference_runs):
        for run, expected in zip(reference_runs, REFERENCE_LAMBDAS):
            lam = solve_lambda_from_doubles(
                run.doubles_observed, run.duration_s, REFERENCE_ETA
            )
            assert lam == pytest.approx(expected, abs=1e-9)

    def test_zero_count_is_zero_lambda(self):
        run = ExperimentRun(1, 0, 100, 5.0)
        assert solve_lambda_from_doubles(run.doubles_observed, run.duration_s, 0.5) == 0.0

    def test_unreachable_count_raises_with_run_context(self):
        # run 9 has more doubles than pulses: no lambda can produce this
        runs = [ExperimentRun(1, 1000, 30000, 1.0, 2.6), ExperimentRun(9, 10**9, 0, 1.0, 2.5)]
        with pytest.raises(BracketError, match="^run 9: expected doubles never reach"):
            calibrate(runs, pulse_freq_hz=8.0e7)

    # f * t overflowed to inf, and the solve failed with "solver function is
    # NaN at lambda = 0.0", naming no run
    def test_pulse_count_overflow_names_the_values_and_run(self):
        with pytest.raises(ValueError, match=r"got 80000000\.0 \* 1e\+308"):
            solve_lambda_from_doubles(1000.0, 1e308, 0.5)
        # an int frequency beyond float range raised OverflowError in f * t
        with pytest.raises(ValueError, match="pulse_freq_hz"):
            solve_lambda_from_doubles(1000.0, 10.0, 0.5, 10**400)
        runs = [ExperimentRun(1, 1000, 30000, 10.0, 2.6), ExperimentRun(2, 2000, 31000, 1e308, 2.5)]
        with pytest.raises(ValueError, match=r"^run 2: pulse_freq_hz \* duration_s"):
            calibrate(runs)

    # f * t underflowed to 0: ZeroDivisionError in the first-order guess
    def test_pulse_count_underflow_names_the_values(self):
        with pytest.raises(ValueError, match=r"> 0, got 8\.6e-281 \* 8\.6e-281$"):
            solve_lambda_from_doubles(0.0, 8.6e-281, 1.0, 8.6e-281)

    def test_eta_domain(self):
        run = ExperimentRun(1, 10, 0, 1.0)
        with pytest.raises(ValueError):
            solve_lambda_from_doubles(run.doubles_observed, run.duration_s, 0.0)
        with pytest.raises(ValueError):
            solve_lambda_from_doubles(run.doubles_observed, run.duration_s, 1.5)

    def test_nan_in_the_solver_is_an_error_not_zero_power(self):
        # a curved excess with its root at 0.3; NaN on the n-th evaluation,
        # which is lambda = 0 from guess 0, the guess 0.5, or a later iterate
        for guess, nan_call, nan_in in (
            (0.0, 1, "value"), (0.5, 1, "value"), (0.5, 3, "value"), (0.5, 2, "slope")
        ):
            seen = []

            def excess(lam):
                seen.append(lam)
                value, slope = lam * lam - 0.09, 2.0 * lam
                if len(seen) == nan_call:
                    return (math.nan, slope) if nan_in == "value" else (value, math.nan)
                return value, slope

            with pytest.raises(ValueError, match="NaN"):
                _newton_lambda(excess, guess, 1e-10, "never")
            assert seen[0] == guess and len(seen) == nan_call
        assert _newton_lambda(
            lambda lam: (lam * lam - 0.09, 2.0 * lam), 0.5, 1e-10, "never"
        ) == pytest.approx(0.3, abs=1e-10)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")]
    )
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="doubles"):
            solve_lambda_from_doubles(bad, 10.0, 0.5)
        with pytest.raises(ValueError, match="duration_s"):
            solve_lambda_from_doubles(1000.0, bad, 0.5)


class TestFitLinear:
    def test_exact_line(self):
        a, b, rmse = fit_linear([(0.0, 2.0), (1.0, 1.0)])
        assert a == pytest.approx(-1.0, abs=1e-15)
        assert b == pytest.approx(2.0, abs=1e-15)
        assert rmse == pytest.approx(0.0, abs=1e-15)

    def test_reference_dataset(self, reference_runs):
        points = [
            (lam, run.bell_observed)
            for lam, run in zip(REFERENCE_LAMBDAS, reference_runs)
        ]
        a, b, rmse = fit_linear(points)
        assert a == pytest.approx(REFERENCE_SLOPE, abs=1e-8)
        assert b == pytest.approx(REFERENCE_INTERCEPT, abs=1e-9)
        assert rmse == pytest.approx(REFERENCE_RMSE, abs=1e-10)

    def test_least_squares_optimality(self, reference_runs):
        points = [
            (lam, run.bell_observed)
            for lam, run in zip(REFERENCE_LAMBDAS, reference_runs)
        ]
        a, b, _ = fit_linear(points)
        lam = np.array([p[0] for p in points])
        bell = np.array([p[1] for p in points])

        def ssr(aa, bb):
            return float(np.sum((bell - (aa * lam + bb)) ** 2))

        best = ssr(a, b)
        for da in (-1e-3, 0.0, 1e-3):
            for db in (-1e-3, 0.0, 1e-3):
                assert ssr(a + da, b + db) >= best - 1e-15

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fit_linear([(0.1, 2.5)])
        with pytest.raises(DegenerateFitError):
            fit_linear([])

    def test_identical_lambdas(self):
        with pytest.raises(DegenerateFitError):
            fit_linear([(0.1, 2.5), (0.1, 2.6), (0.1, 2.7)])


class TestPhysicalFit:
    # math.isfinite raised OverflowError on an int beyond float range
    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, True, "0.5", None, pytest.param(10**400, id="10**400")],
    )
    def test_non_finite_fields_rejected(self, bad):
        fit = to_physical(REFERENCE_SLOPE, REFERENCE_INTERCEPT, REFERENCE_ETA, chsh_certificate())
        for name in vars(fit):
            with pytest.raises(ValueError, match=name):
                PhysicalFit(**{**vars(fit), name: bad})

    def test_numpy_fields_accepted(self):
        fit = to_physical(REFERENCE_SLOPE, REFERENCE_INTERCEPT, REFERENCE_ETA, chsh_certificate())
        assert PhysicalFit(**{k: np.float64(v) for k, v in vars(fit).items()}) == fit


class TestToPhysical:
    def test_reference_values(self):
        fit = to_physical(
            REFERENCE_SLOPE, REFERENCE_INTERCEPT, REFERENCE_ETA, chsh_certificate()
        )
        assert fit.alpha == pytest.approx(REFERENCE_ALPHA, abs=1e-10)
        assert fit.beta == pytest.approx(REFERENCE_BETA, abs=1e-10)
        assert fit.xi_used == pytest.approx(2.0 - REFERENCE_ETA**2, abs=1e-12)

    def test_round_trip_identity(self):
        cert = chsh_certificate()
        t_bound = cert.tsirelson_bound
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = float(rng.uniform(-5.0, -0.01))
            b = float(rng.uniform(0.5, 3.5))
            eta = float(rng.uniform(0.01, 1.0))
            fit = to_physical(a, b, eta, cert)
            assert -fit.alpha * t_bound * fit.xi_used / 2.0 == pytest.approx(a, abs=1e-12)
            assert fit.alpha * t_bound - fit.beta == pytest.approx(b, abs=1e-12)

    def test_zero_slope_at_quantum_bound(self):
        cert = chsh_certificate()
        fit = to_physical(0.0, cert.tsirelson_bound, 0.5, cert)
        assert fit.alpha == 0.0
        assert fit.beta == pytest.approx(-cert.tsirelson_bound, rel=1e-15)

    def test_alpha_linear_in_slope(self):
        cert = chsh_certificate()
        one = to_physical(-1.0, 2.7, 0.3, cert)
        two = to_physical(-2.0, 2.7, 0.3, cert)
        assert two.alpha == pytest.approx(2.0 * one.alpha, rel=1e-15)

    def test_underflowing_eta_stays_in_contract(self):
        # eta^2 underflows to 0 here; xi must not divide by it
        try:
            fit = to_physical(-1.69, 2.76, 1e-200, chsh_certificate())
        except (ValueError, ModelError):
            return
        assert all(math.isfinite(v) for v in (fit.xi_used, fit.alpha, fit.beta))

    def test_trace_zero_required(self):
        cert = BellCertificate("odd", 2.0, 1.0, trace_zero=False)
        with pytest.raises(ModelAssumptionError):
            to_physical(-1.0, 1.8, 0.5, cert)


class TestCalibrate:
    def test_reference_pipeline(self, reference_report):
        report = reference_report
        assert report.eta_hat == pytest.approx(REFERENCE_ETA, rel=1e-12)
        assert report.fit.slope_a == pytest.approx(REFERENCE_SLOPE, abs=1e-8)
        assert report.fit.intercept_b == pytest.approx(REFERENCE_INTERCEPT, abs=1e-9)
        assert report.fit.rmse == pytest.approx(REFERENCE_RMSE, abs=1e-10)
        assert report.fit.alpha == pytest.approx(REFERENCE_ALPHA, abs=1e-9)
        assert report.fit.beta == pytest.approx(REFERENCE_BETA, abs=1e-9)

    def test_per_run_sorted_and_consistent(self, reference_report):
        ids = [rc.run_id for rc in reference_report.per_run]
        assert ids == sorted(ids)
        fit = reference_report.fit
        for rc in reference_report.per_run:
            line = fit.slope_a * rc.lambda_calc + fit.intercept_b
            assert rc.bell_linear_fit == pytest.approx(line, abs=1e-14)

    def test_missing_bell_named(self, reference_runs):
        runs = list(reference_runs)
        runs[2] = ExperimentRun(
            runs[2].run_id,
            runs[2].doubles_observed,
            runs[2].singles_observed,
            runs[2].duration_s,
            None,
        )
        with pytest.raises(CalibrationError, match="3"):
            calibrate(runs)

    # both runs used to be calibrated, and the CLI's per-run table showed
    # the second one's counts on both rows
    def test_repeated_run_id_rejected(self, reference_runs):
        runs = list(reference_runs)
        runs[4] = ExperimentRun(runs[1].run_id, *list(vars(runs[4]).values())[1:])
        with pytest.raises(CalibrationError, match=rf"run_id \[{runs[1].run_id}\] repeated"):
            calibrate(runs)

    def test_single_run_degenerate(self, reference_runs):
        with pytest.raises(DegenerateFitError):
            calibrate(reference_runs[:1])

    def test_synthetic_round_trip(self):
        # forward-generate counts from known parameters, then recover them
        eta_true, a_true, b_true = 0.2, -1.2, 2.7
        t = 1000.0
        runs = []
        for i, lam in enumerate((0.002, 0.004, 0.006, 0.008, 0.010), start=1):
            params = SourceParams(eta_true, lam)
            doubles = round(expected_doubles_count(params, t))
            singles = round(8.0e7 * t * expected_rate(params, ClickKind.SINGLE))
            bell = a_true * lam + b_true
            runs.append(ExperimentRun(i, doubles, singles, t, bell))
        report = calibrate(runs)
        # the pooled eta estimator is first order in lambda, so the
        # recovery is approximate even on noiseless synthetic data
        assert report.eta_hat == pytest.approx(eta_true, rel=1e-2)
        assert report.fit.slope_a == pytest.approx(a_true, rel=0.05)
        assert report.fit.intercept_b == pytest.approx(b_true, rel=1e-3)

    def test_runs_order_does_not_matter(self, reference_runs):
        report_fwd = calibrate(reference_runs)
        report_rev = calibrate(list(reversed(reference_runs)))
        assert report_rev.fit.slope_a == pytest.approx(
            report_fwd.fit.slope_a, rel=1e-12
        )
        assert [rc.run_id for rc in report_rev.per_run] == [
            rc.run_id for rc in report_fwd.per_run
        ]
