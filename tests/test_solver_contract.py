"""The lambda solvers' contract: evaluation budget, inverse round trips,
monotone Bell curve, and the exception types finite inputs can raise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellcal.calibration
import bellcal.prediction
from bellcal import (
    ModelError,
    PhysicalFit,
    SourceParams,
    chsh_certificate,
    events_per_second,
    expected_doubles_count,
    predict_bell,
    solve_lambda_for_bell,
    solve_lambda_for_rate,
    solve_lambda_from_doubles,
)
from bellcal.clicks import _double_entangled

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)
TSIRELSON = chsh_certificate().tsirelson_bound


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count calls to the rate kernel through every module that binds it."""
    calls = [0]

    def counted(eta, lambda_mean):
        calls[0] += 1
        return _double_entangled(eta, lambda_mean)

    for module in (bellcal.calibration, bellcal.prediction):
        monkeypatch.setattr(module, "_double_entangled", counted)
    return calls


class TestEvaluationBudget:
    def test_doubles_solve(self, kernel_calls):
        # 0.3 is the top of the calibration range (perfbench's campaigns);
        # above it the first-order guess is further off and costs up to 6
        for eta in (0.01, 0.05, 0.1134, 0.3, 0.5, 0.7, 0.93, 1.0):
            for lam in (1e-6, 1e-4, 0.0036, 0.01, 0.0849, 0.3, 0.5, 1.0):
                for duration in (1.0, 100.0, 1e4):
                    count = expected_doubles_count(SourceParams(eta, lam), duration)
                    for doubles in (count, float(round(count))):
                        kernel_calls[0] = 0
                        solve_lambda_from_doubles(doubles, duration, eta)
                        assert kernel_calls[0] <= (4 if lam <= 0.3 else 6), (eta, lam)

    def test_root_approached_from_above_does_not_stall(self, kernel_calls):
        # the converged step from above rounds onto the bracket's upper end;
        # testing the bracket before the step length fell back to bisection
        lam = solve_lambda_from_doubles(4_235_137_777, 10_000.0, 0.19263921080263305)
        assert lam == pytest.approx(0.1319185176, abs=1e-10)
        assert kernel_calls[0] <= 4

    def test_bell_solve(self, reference_report, kernel_calls):
        fit = reference_report.fit
        for target in np.linspace(2.0, fit.intercept_b, 101):
            kernel_calls[0] = 0
            solve_lambda_for_bell(fit, float(target), fit.eta_used)
            assert kernel_calls[0] <= 6, target

    def test_fit_checked_once_per_call(self, reference_report, monkeypatch):
        checks = []
        check = bellcal.prediction._check_fit_consistency
        monkeypatch.setattr(
            bellcal.prediction,
            "_check_fit_consistency",
            lambda *args: checks.append(1) or check(*args),
        )
        fit = reference_report.fit
        solve_lambda_for_bell(fit, 2.0, fit.eta_used)
        assert len(checks) == 1
        bellcal.prediction.sweep(fit, fit.eta_used, np.linspace(0.0, 0.75, 50))
        assert len(checks) == 2


# Round trips: the solver stops within tol of the root of the rounded
# forward value; rounding that value moves the root by a few ulps times
# rate / slope, which stays below 1e-12 for lambda <= 3.
etas = st.floats(0.01, 1.0)
lambdas = st.floats(0.0, 3.0)
tols = st.floats(1e-12, 1e-6)


@PROPERTY
@given(eta=etas, lam=lambdas, duration=st.floats(1.0, 1e4), tol=tols)
def test_doubles_round_trip(eta, lam, duration, tol):
    count = expected_doubles_count(SourceParams(eta, lam), duration)
    assert solve_lambda_from_doubles(count, duration, eta, tol=tol) == pytest.approx(
        lam, rel=0, abs=tol + 1e-12
    )


@PROPERTY
@given(eta=etas, lam=lambdas, freq=st.floats(1e3, 1e9), tol=tols)
def test_rate_round_trip(eta, lam, freq, tol):
    rate = events_per_second(SourceParams(eta, lam, freq))
    assert solve_lambda_for_rate(rate, eta, freq, tol=tol) == pytest.approx(
        lam, rel=0, abs=tol + 1e-12
    )


@PROPERTY
@given(lam=st.floats(1e-9, 3.0), tol=st.floats(1e-10, 1e-6))
def test_bell_round_trip(reference_report, lam, tol):
    # the solver converges to tol / 16 in lambda; |dB/dlambda| > 0.1 here,
    # so the rounding of B moves the root by well under 1e-12
    fit = reference_report.fit
    target = predict_bell(fit, SourceParams(fit.eta_used, lam))
    solved = solve_lambda_for_bell(fit, target, fit.eta_used, tol=tol, allow_below_classical=True)
    assert solved == pytest.approx(lam, rel=0, abs=tol / 16 + 1e-12)


def consistent_fit(alpha, beta, eta):
    xi = 2.0 - eta * eta
    return PhysicalFit(
        slope_a=-0.5 * alpha * TSIRELSON * xi,
        intercept_b=alpha * TSIRELSON - beta,
        rmse=0.0,
        eta_used=eta,
        xi_used=xi,
        alpha=alpha,
        beta=beta,
    )


@PROPERTY
@given(
    alpha=st.floats(0.01, 1.5),
    beta=st.floats(-1.5, 0.5),
    eta=st.floats(1e-3, 1.0),
    lam1=st.floats(0.0, 50.0),
    lam2=st.floats(0.0, 50.0),
)
def test_bell_nonincreasing_in_power(alpha, beta, eta, lam1, lam2):
    fit = consistent_fit(alpha, beta, eta)
    lo, hi = sorted((lam1, lam2))
    assert predict_bell(fit, SourceParams(eta, hi)) <= predict_bell(fit, SourceParams(eta, lo))


finite = st.floats(allow_nan=False, allow_infinity=False)


def _solves_or_refuses(solve, *args):
    try:
        lam = solve(*args)
    except (ValueError, ModelError):
        return
    assert 0.0 <= lam < math.inf


@PROPERTY
@given(doubles=finite, duration=finite, eta=finite, freq=finite, tol=finite)
def test_doubles_solve_raises_only_domain_errors(doubles, duration, eta, freq, tol):
    _solves_or_refuses(solve_lambda_from_doubles, doubles, duration, eta, freq, tol)


@PROPERTY
@given(rate=finite, eta=finite, freq=finite, tol=finite)
def test_rate_solve_raises_only_domain_errors(rate, eta, freq, tol):
    _solves_or_refuses(solve_lambda_for_rate, rate, eta, freq, tol)


@PROPERTY
@given(
    alpha=finite,
    beta=finite,
    eta_used=finite,
    eta=st.one_of(st.just(None), finite),
    target=finite,
    tol=finite,
    below=st.booleans(),
)
def test_bell_solve_raises_only_domain_errors(alpha, beta, eta_used, eta, target, tol, below):
    try:
        fit = consistent_fit(alpha, beta, eta_used)
    except ValueError:  # a field overflowed to inf
        return
    _solves_or_refuses(
        solve_lambda_for_bell,
        fit,
        target,
        eta_used if eta is None else eta,
        chsh_certificate(),
        tol,
        below,
    )
