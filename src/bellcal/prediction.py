"""Forward model: visibility, Bell value, and event rate versus pump power.

Given a calibrated PhysicalFit, the observed Bell value at mean pair number
lambda is B(lambda) = alpha * T * v(eta, lambda) - beta, where the visibility
v is the fraction of double clicks that are genuine entangled coincidences.
Raising the pump power raises the event rate but dilutes the visibility with
accidentals, so B falls; this module quantifies that tradeoff in both
directions (lambda -> B and target B -> lambda).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .calibration import (
    BellCertificate,
    ModelAssumptionError,
    ModelError,
    PhysicalFit,
    _lambda_for_doubles,
    _newton_lambda,
    chsh_certificate,
)
from .clicks import (
    ClickKind,
    DEFAULT_PULSE_FREQ_HZ,
    SourceParams,
    _check_solver_source,
    _double_entangled,
    _double_entangled_slopes,
    expected_rate,
)


class InfeasibleTargetError(ModelError):
    """The requested Bell value lies outside the solvable range."""


class PredictionPoint(NamedTuple):
    """One forward-model evaluation: (lambda, visibility, Bell, events/s)."""

    lambda_mean: float
    visibility: float
    bell_value: float
    events_per_second: float


def visibility(params: SourceParams) -> float:
    """Fraction of double clicks that are genuine entangled coincidences.

    Ratio of the entangled rate to the double rate. Both rates scale as
    lambda * eta^2 to first order, so the lambda -> 0 limit is 1; that limit
    is returned explicitly at lambda = 0.
    """
    if params.eta == 0.0:
        raise ValueError("visibility requires eta > 0")
    if params.lambda_mean == 0.0:
        return 1.0
    doubles = expected_rate(params, ClickKind.DOUBLE)
    if doubles == 0.0:
        # both rates underflow for astronomically small lambda; use the limit
        return 1.0
    return expected_rate(params, ClickKind.ENTANGLED) / doubles


def _check_fit_consistency(
    fit: PhysicalFit, cert: BellCertificate, eta: float
) -> None:
    """Reject fits produced under a different certificate or eta.

    The line (a, b) must be recoverable from (alpha, beta) with this
    certificate's quantum bound; a different bound breaks the identity.
    """
    if abs(eta - fit.eta_used) > 1e-12:
        raise ModelAssumptionError(
            f"fit was produced for eta = {fit.eta_used!r}, called with {eta!r}"
        )
    t_bound = cert.tsirelson_bound
    a_back = -0.5 * fit.alpha * t_bound * fit.xi_used
    b_back = fit.alpha * t_bound - fit.beta
    if not (
        math.isclose(a_back, fit.slope_a, rel_tol=1e-9, abs_tol=1e-12)
        and math.isclose(b_back, fit.intercept_b, rel_tol=1e-9, abs_tol=1e-12)
    ):
        raise ModelAssumptionError(
            f"fit does not match certificate {cert.name!r} "
            f"(quantum bound {t_bound!r}); it was produced under a different one"
        )


def predict_bell(
    fit: PhysicalFit,
    params: SourceParams,
    cert: BellCertificate | None = None,
) -> float:
    """Observed Bell value at the given pump power.

    B = alpha * T * v(eta, lambda) - beta. At lambda = 0 this returns the
    fit intercept b, the zero-noise Bell value. Nonincreasing in lambda.
    """
    cert = chsh_certificate() if cert is None else cert
    _check_fit_consistency(fit, cert, params.eta)
    vis = visibility(params)
    return fit.alpha * cert.tsirelson_bound * vis - fit.beta


def events_per_second(params: SourceParams) -> float:
    """Double-click event rate in events per second: f * rate(Double)."""
    return params.pulse_freq_hz * expected_rate(params, ClickKind.DOUBLE)


def solve_lambda_for_rate(
    rate: float,
    eta: float,
    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ,
    tol: float = 1e-10,
) -> float:
    """Pump power at which events_per_second equals a target rate.

    The double-click rate rises from 0 at lambda = 0 towards the pulse
    frequency, so the root is unique. Raises InfeasibleTargetError for
    rates at or above the pulse frequency.
    """
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"target rate must be finite and >= 0, got {rate}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if rate >= pulse_freq_hz:
        raise InfeasibleTargetError(
            f"target rate {rate} events/s is not below the pulse "
            f"frequency {pulse_freq_hz}"
        )

    _check_solver_source(eta, pulse_freq_hz)
    return _lambda_for_doubles(
        rate, pulse_freq_hz, eta, tol, f"events/s never reach {rate}"
    )


def solve_lambda_for_bell(
    fit: PhysicalFit,
    target_bell: float,
    eta: float,
    cert: BellCertificate | None = None,
    tol: float = 1e-8,
    allow_below_classical: bool = False,
) -> float:
    """Pump power at which the predicted Bell value equals the target.

    B(lambda) decreases from the intercept b at lambda = 0, so the root is
    unique. Feasible targets lie in [classical_bound, b]; targets below the
    classical bound certify nothing and are only solved when
    allow_below_classical is set. Raises InfeasibleTargetError outside the
    allowed range and BracketError if B never falls to the target below the
    lambda ceiling (B(lambda) approaches -beta from above).
    """
    cert = chsh_certificate() if cert is None else cert
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not math.isfinite(target_bell):
        raise ValueError(f"target Bell value must be finite, got {target_bell}")
    intercept = fit.intercept_b
    if target_bell > intercept:
        raise InfeasibleTargetError(
            f"target {target_bell} exceeds the zero-noise Bell value {intercept:.6f}"
        )
    if target_bell < cert.classical_bound and not allow_below_classical:
        raise InfeasibleTargetError(
            f"target {target_bell} is below the classical bound "
            f"{cert.classical_bound}; such targets need the explicit override"
        )

    _check_solver_source(eta)
    _check_fit_consistency(fit, cert, eta)
    scale = fit.alpha * cert.tsirelson_bound

    def excess(lam: float) -> tuple[float, float]:
        # target - B(lambda) and its slope -dB/dlambda = -scale dv/dlambda
        double, entangled = _double_entangled(eta, lam)
        if double == 0.0:
            # v = 1 at zero power (see visibility), where dv/dlambda = -xi/2
            return target_bell - (scale - fit.beta), 0.5 * scale * fit.xi_used
        vis = entangled / double
        double_slope, entangled_slope = _double_entangled_slopes(eta, lam)
        return (
            target_bell - (scale * vis - fit.beta),
            -scale * (entangled_slope - vis * double_slope) / double,
        )

    # first-order guess from the fitted line b + a * lambda
    line_slope = fit.slope_a
    # converge well inside tol so the returned power reproduces the target
    # Bell value to comparable accuracy (the line's slope exceeds 1)
    return _newton_lambda(
        excess,
        (target_bell - intercept) / line_slope if line_slope < 0.0 else 1.0,
        tol / 16.0,
        f"predicted Bell value (floor {-fit.beta:.6f}) never falls to {target_bell}",
    )


def sweep(
    fit: PhysicalFit,
    eta: float,
    lambda_grid: Sequence[float],
    cert: BellCertificate | None = None,
    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ,
) -> tuple[PredictionPoint, ...]:
    """Forward-model curve over a strictly increasing grid of lambda values.

    Bell values are nonincreasing and event rates nondecreasing along the
    grid. Raises ValueError for an empty, negative, non-finite or unsorted
    grid. Checks eta and the fit once, then makes one rate-kernel call per
    point, with the arithmetic of visibility, predict_bell and
    events_per_second, so each point equals what those return.
    """
    grid = [float(lam) for lam in lambda_grid]
    if not grid:
        raise ValueError("lambda_grid must not be empty")
    if not all(0.0 <= lam < math.inf for lam in grid):
        raise ValueError("lambda_grid values must be finite and >= 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda_grid must be strictly increasing")
    _check_solver_source(eta, pulse_freq_hz)
    cert = chsh_certificate() if cert is None else cert
    _check_fit_consistency(fit, cert, eta)
    scale = fit.alpha * cert.tsirelson_bound
    beta = fit.beta
    points = []
    for lam in grid:
        double, entangled = _double_entangled(eta, lam)
        vis = entangled / double if double != 0.0 else 1.0
        points.append(PredictionPoint(lam, vis, scale * vis - beta, pulse_freq_hz * double))
    return tuple(points)
