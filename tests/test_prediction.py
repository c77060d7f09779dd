import math

import numpy as np
import pytest

from bellcal import (
    BellCertificate,
    BracketError,
    InfeasibleTargetError,
    ModelAssumptionError,
    SourceParams,
    chsh_certificate,
    events_per_second,
    expected_rate,
    ClickKind,
    predict_bell,
    solve_lambda_for_bell,
    solve_lambda_for_rate,
    sweep,
    to_physical,
    visibility,
    xi,
)

# independently computed forward-model values for the bundled calibration
PREDICTED_BELL = {
    0.0488: 2.6793584891118307,
    0.0849: 2.624957376026578,
    0.012: 2.7383862187555543,
    0.749: 1.9999776378596585,
    0.3576: 2.300015432667851,
}


class TestVisibility:
    def test_zero_power_limit(self):
        assert visibility(SourceParams(0.1134, 0.0)) == 1.0

    def test_reference_point(self):
        assert visibility(SourceParams(0.1134, 0.0849)) == pytest.approx(
            0.9215886821382022, rel=1e-10
        )

    def test_equals_rate_ratio(self):
        params = SourceParams(0.3, 0.2)
        expected = expected_rate(params, ClickKind.ENTANGLED) / expected_rate(
            params, ClickKind.DOUBLE
        )
        assert visibility(params) == pytest.approx(expected, rel=1e-14)

    def test_bounded_and_monotone(self):
        for eta in (0.05, 0.1134, 0.5, 1.0):
            values = [
                visibility(SourceParams(eta, float(lam)))
                for lam in np.linspace(0.0, 10.0, 60)
            ]
            assert all(0.0 < v <= 1.0 for v in values)
            assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            visibility(SourceParams(0.0, 0.1))


class TestVisibilityLinearized:
    def test_exact_minus_linear_bounded_by_lambda_squared(self):
        # the first-order visibility 1 - (lambda/2) xi(eta) always
        # underestimates, by at most lambda^2
        for eta in np.linspace(0.02, 1.0, 15):
            for lam in np.linspace(1e-3, 0.5, 20):
                gap = visibility(SourceParams(float(eta), float(lam)))
                gap -= 1.0 - 0.5 * float(lam) * xi(float(eta))
                assert -1e-13 <= gap <= lam * lam


class TestPredictBell:
    def test_zero_power_gives_intercept(self, reference_report):
        fit = reference_report.fit
        value = predict_bell(fit, SourceParams(fit.eta_used, 0.0))
        assert value == pytest.approx(fit.intercept_b, abs=1e-10)

    @pytest.mark.parametrize("lam,expected", sorted(PREDICTED_BELL.items()))
    def test_reference_points(self, reference_report, lam, expected):
        fit = reference_report.fit
        value = predict_bell(fit, SourceParams(fit.eta_used, lam))
        assert value == pytest.approx(expected, abs=1e-8)

    def test_nonincreasing_in_power(self, reference_report):
        fit = reference_report.fit
        values = [
            predict_bell(fit, SourceParams(fit.eta_used, float(lam)))
            for lam in np.linspace(0.0, 2.0, 50)
        ]
        assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))

    def test_eta_mismatch_rejected(self, reference_report):
        fit = reference_report.fit
        with pytest.raises(ModelAssumptionError, match="eta"):
            predict_bell(fit, SourceParams(0.5, 0.1))

    def test_foreign_certificate_rejected(self, reference_report):
        fit = reference_report.fit
        other = BellCertificate("other", tsirelson_bound=1.5, classical_bound=1.0)
        with pytest.raises(ModelAssumptionError, match="other"):
            predict_bell(fit, SourceParams(fit.eta_used, 0.1), cert=other)

    def test_matching_certificate_accepted(self):
        cert = BellCertificate("custom", tsirelson_bound=3.0, classical_bound=1.0)
        fit = to_physical(-1.0, 2.5, 0.4, cert)
        value = predict_bell(fit, SourceParams(0.4, 0.0), cert=cert)
        assert value == pytest.approx(2.5, abs=1e-12)

    def test_slope_at_zero_matches_fit(self, reference_report):
        fit = reference_report.fit
        h = 1e-6
        b0 = predict_bell(fit, SourceParams(fit.eta_used, 0.0))
        b1 = predict_bell(fit, SourceParams(fit.eta_used, h))
        assert (b1 - b0) / h == pytest.approx(fit.slope_a, abs=1e-4)


class TestEventsPerSecond:
    def test_zero_power(self):
        assert events_per_second(SourceParams(0.5, 0.0)) == 0.0

    def test_reference_point(self):
        value = events_per_second(SourceParams(0.1134, 0.0849, pulse_freq_hz=8.0e7))
        assert value == pytest.approx(93067.5598, abs=0.01)

    def test_scales_with_frequency(self):
        slow = events_per_second(SourceParams(0.1134, 0.0849, pulse_freq_hz=1.0))
        fast = events_per_second(SourceParams(0.1134, 0.0849, pulse_freq_hz=2.0))
        assert fast == pytest.approx(2.0 * slow, rel=1e-14)

    def test_against_recorded_rates(self):
        # recorded extrapolation-table rate at this operating point
        value = events_per_second(SourceParams(0.1134, 0.0849, pulse_freq_hz=8.0e7))
        assert value == pytest.approx(93240, rel=5e-3)
        # recorded doubles over duration at the lowest power
        value = events_per_second(SourceParams(0.1134, 0.0036, pulse_freq_hz=8.0e7))
        assert value == pytest.approx(36888729 / 10000, rel=1e-2)


class TestSolveLambdaForBell:
    def test_intercept_target_is_zero_power(self, reference_report):
        fit = reference_report.fit
        assert solve_lambda_for_bell(fit, fit.intercept_b, fit.eta_used) == 0.0

    def test_reference_solves(self, reference_report):
        fit = reference_report.fit
        for target, lam_expected in ((2.625, 0.0848708418634968), (2.3, 0.35761589344283756)):
            lam = solve_lambda_for_bell(fit, target, fit.eta_used)
            assert lam == pytest.approx(lam_expected, abs=1e-6)

    def test_inverse_consistency(self, reference_report):
        fit = reference_report.fit
        rng = np.random.default_rng(23)
        for target in rng.uniform(2.0, fit.intercept_b, 50):
            lam = solve_lambda_for_bell(fit, float(target), fit.eta_used)
            back = predict_bell(fit, SourceParams(fit.eta_used, lam))
            assert back == pytest.approx(float(target), abs=1e-8)

    def test_above_intercept_infeasible(self, reference_report):
        fit = reference_report.fit
        with pytest.raises(InfeasibleTargetError):
            solve_lambda_for_bell(fit, 2.9, fit.eta_used)

    def test_below_classical_needs_override(self, reference_report):
        fit = reference_report.fit
        with pytest.raises(InfeasibleTargetError):
            solve_lambda_for_bell(fit, 1.5, fit.eta_used)
        lam = solve_lambda_for_bell(
            fit, 1.5, fit.eta_used, allow_below_classical=True
        )
        back = predict_bell(fit, SourceParams(fit.eta_used, lam))
        assert back == pytest.approx(1.5, abs=1e-8)

    def test_below_floor_never_brackets(self, reference_report):
        # the predicted value approaches -beta from above, so targets at or
        # below that floor are unreachable at any power
        fit = reference_report.fit
        assert -fit.beta > 0.5
        with pytest.raises(BracketError):
            solve_lambda_for_bell(
                fit, 0.5, fit.eta_used, allow_below_classical=True
            )

    # the override followed a tol argument, so an old positional tolerance
    # would set it without an error
    def test_override_is_keyword_only(self, reference_report):
        fit = reference_report.fit
        with pytest.raises(TypeError):
            solve_lambda_for_bell(fit, 2.4, fit.eta_used, None, 1e-8)

    # ints beyond float range used to raise OverflowError
    @pytest.mark.parametrize(
        "bad",
        [
            math.nan,
            math.inf,
            -math.inf,
            pytest.param(10**400, id="10**400"),
            pytest.param(-(10**400), id="-10**400"),
        ],
    )
    def test_non_finite_target_rejected(self, reference_report, bad):
        fit = reference_report.fit
        with pytest.raises(ValueError, match="finite"):
            solve_lambda_for_bell(fit, bad, fit.eta_used, allow_below_classical=True)


class TestSolveLambdaForRate:
    def test_round_trip(self):
        for eta in (0.011, 0.1134, 1.0):
            for lam in (1e-4, 0.0849, 0.3, 3.0):
                rate = events_per_second(SourceParams(eta, lam))
                assert solve_lambda_for_rate(rate, eta) == pytest.approx(lam, abs=1e-9)

    def test_zero_rate_is_zero_power(self):
        assert solve_lambda_for_rate(0.0, 0.1134) == 0.0

    def test_rate_at_pulse_frequency_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            solve_lambda_for_rate(8.0e7, 0.1134)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="rate"):
            solve_lambda_for_rate(bad, 0.1134)

    # an int beyond float range used to raise OverflowError in the solve
    def test_frequency_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="pulse_freq_hz"):
            solve_lambda_for_rate(10.0, 0.1134, 10**400)


class TestSweep:
    def test_single_zero_point(self, reference_report):
        fit = reference_report.fit
        (point,) = sweep(fit, fit.eta_used, [0.0])
        assert point.lambda_mean == 0.0
        assert point.visibility == 1.0
        assert point.bell_value == pytest.approx(fit.intercept_b, abs=1e-10)
        assert point.events_per_second == 0.0

    def test_monotone_curve(self, reference_report):
        fit = reference_report.fit
        points = sweep(fit, fit.eta_used, np.linspace(0.0, 0.75, 100))
        assert len(points) == 100
        bells = [p.bell_value for p in points]
        rates = [p.events_per_second for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(bells, bells[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_reproduces_reference_bell_column(self, reference_report):
        fit = reference_report.fit
        grid = [0.0849, 0.1022, 0.1769, 0.2614, 0.3576, 0.4684, 0.5972, 0.7490]
        targets = [2.625, 2.6, 2.5, 2.4, 2.3, 2.2, 2.1, 2.0]
        points = sweep(fit, fit.eta_used, grid)
        for point, target in zip(points, targets):
            assert point.bell_value == pytest.approx(target, abs=5e-4)

    def test_bad_grids_rejected(self, reference_report):
        fit = reference_report.fit
        with pytest.raises(ValueError):
            sweep(fit, fit.eta_used, [])
        with pytest.raises(ValueError):
            sweep(fit, fit.eta_used, [-0.1, 0.2])
        with pytest.raises(ValueError):
            sweep(fit, fit.eta_used, [0.2, 0.1])
        with pytest.raises(ValueError):
            sweep(fit, fit.eta_used, [0.1, 0.1])


    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, 0.75, 1000), np.geomspace(1e-9, 50.0, 500)]
    )
    def test_points_equal_the_per_point_functions(self, reference_report, grid):
        fit = reference_report.fit
        freq = 7.6e7
        for point in sweep(fit, fit.eta_used, grid, pulse_freq_hz=freq):
            params = SourceParams(fit.eta_used, point.lambda_mean, freq)
            assert point.visibility == visibility(params)
            assert point.bell_value == predict_bell(fit, params)
            assert point.events_per_second == events_per_second(params)

    @pytest.mark.parametrize(
        "grid",
        [
            [0.0, math.nan],
            [math.nan, 0.1],
            [0.1, math.inf],
            [-math.inf, 0.1],
            # an int beyond float range used to raise OverflowError
            pytest.param([0.0, 10**400], id="10**400"),
        ],
    )
    def test_non_finite_grid_rejected(self, reference_report, grid):
        fit = reference_report.fit
        with pytest.raises(ValueError, match="lambda_grid"):
            sweep(fit, fit.eta_used, grid)

    def test_zero_eta_rejected(self, reference_report):
        with pytest.raises(ValueError, match="eta"):
            sweep(reference_report.fit, 0.0, [0.0, 0.1])


class TestXiConsistency:
    def test_visibility_slope_is_xi(self):
        # d(visibility)/d(lambda) at 0 equals -xi/2 for any eta
        for eta in (0.05, 0.1134, 0.5, 0.9):
            h = 1e-7
            v1 = visibility(SourceParams(eta, h))
            slope = (v1 - 1.0) / h
            assert slope == pytest.approx(-0.5 * xi(eta), abs=1e-5)
