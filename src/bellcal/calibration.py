"""Parameter recovery from observed count records.

The pipeline mirrors how the reference dataset was analyzed: estimate the
detector efficiency eta from pooled single/double click counts, recover each
run's mean pairs per pulse by Newton's method on the expected coincidence
count, fit the observed Bell values linearly against the recovered lambda
values, and convert the line (a, b) into the physical degradation parameters
(alpha, beta) of the noise model B = alpha * T * v - beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .clicks import DEFAULT_PULSE_FREQ_HZ, _check_solver_source, xi
from .clicks import _double_entangled, _double_entangled_slopes

if TYPE_CHECKING:
    import numpy as np

LAMBDA_BRACKET_CEILING = float(2**20)


class ModelError(Exception):
    """Base class for model-domain failures (CLI exit code 3)."""


class CalibrationError(ModelError):
    """Calibration inputs are unusable (empty data, missing columns, ...)."""


class DegenerateFitError(CalibrationError):
    """Fewer than two distinct lambda values; no line is determined."""


class BracketError(ModelError):
    """A monotone solve could not bracket its root below the lambda ceiling."""


class ModelAssumptionError(ModelError):
    """An input violates an assumption the noise model depends on."""


@dataclass(frozen=True)
class ExperimentRun:
    """One measurement campaign row.

    bell_observed may be None for prediction-only inputs; calibration
    requires it on every run.
    """

    run_id: int
    doubles_observed: int
    singles_observed: int
    duration_s: float
    bell_observed: float | None = None

    def __post_init__(self) -> None:
        for name in ("doubles_observed", "singles_observed"):
            value = getattr(self, name)
            # finite first: int() raises OverflowError on inf, a bare
            # ValueError on NaN
            if not 0 <= value < math.inf or value != int(value):
                raise ValueError(
                    f"run {self.run_id}: {name} must be a nonnegative integer, "
                    f"got {value}"
                )
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(
                f"run {self.run_id}: duration_s must be finite and > 0, "
                f"got {self.duration_s}"
            )
        if self.bell_observed is not None and not math.isfinite(self.bell_observed):
            raise ValueError(
                f"run {self.run_id}: bell_observed must be finite, "
                f"got {self.bell_observed}"
            )


@dataclass(frozen=True)
class BellCertificate:
    """A correlator-based Bell expression and its bounds.

    trace_zero asserts that the Bell operator has zero trace, which is what
    lets accidental (white-noise) coincidences enter the observed value only
    through the visibility. The linear noise model is meaningless without it.
    """

    name: str
    tsirelson_bound: float
    classical_bound: float
    trace_zero: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.tsirelson_bound < math.inf:
            raise ValueError(
                f"tsirelson_bound must be finite and > 0, got {self.tsirelson_bound}"
            )
        if not 0.0 <= self.classical_bound < math.inf:
            raise ValueError(
                f"classical_bound must be finite and >= 0, got {self.classical_bound}"
            )
        if not self.classical_bound < self.tsirelson_bound:
            raise ValueError(
                "classical_bound must be below tsirelson_bound, got "
                f"{self.classical_bound} >= {self.tsirelson_bound}"
            )
        if not isinstance(self.trace_zero, bool):
            raise ValueError(f"trace_zero must be true or false, got {self.trace_zero!r}")


_CHSH = BellCertificate("CHSH", tsirelson_bound=2.0 * math.sqrt(2.0), classical_bound=2.0)


def chsh_certificate() -> BellCertificate:
    """The CHSH expression: quantum bound 2*sqrt(2), classical bound 2 (one
    shared instance; BellCertificate is frozen)."""
    return _CHSH


@dataclass(frozen=True)
class PhysicalFit:
    """A fitted line (a, b) and its physical reading (alpha, beta).

    alpha scales the certificate's quantum bound for state-preparation
    imperfections; beta is the additive measurement-imperfection offset.
    Both are algebraic functions of (a, b, eta, T), so the line is always
    recoverable: a = -alpha*T*xi/2 and b = alpha*T - beta.
    """

    slope_a: float
    intercept_b: float
    rmse: float
    eta_used: float
    xi_used: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rmse < 0.0:
            raise ValueError(f"rmse must be >= 0, got {self.rmse}")


class RunCalibration(NamedTuple):
    """Per-run calibration outputs: recovered lambda and the fit-line value."""

    run_id: int
    lambda_calc: float
    bell_linear_fit: float


@dataclass(frozen=True)
class CalibrationReport:
    """Full calibration result: eta, per-run values (sorted by run_id), fit."""

    eta_hat: float
    per_run: tuple[RunCalibration, ...]
    fit: PhysicalFit


def estimate_eta(runs: Sequence[ExperimentRun]) -> float:
    """Pooled first-order efficiency estimate, 2 / (2 + sum(s) / sum(c)).

    Pooling the counts before taking the ratio weighs each run by its
    statistics; see estimate_eta_per_run for the unpooled diagnostic.
    """
    if not runs:
        raise CalibrationError("cannot estimate eta from an empty run list")
    doubles = float(sum(r.doubles_observed for r in runs))
    singles = float(sum(r.singles_observed for r in runs))
    if doubles == 0.0:
        raise CalibrationError("cannot estimate eta: zero double clicks in total")
    return 2.0 / (2.0 + singles / doubles)


def estimate_eta_per_run(runs: Sequence[ExperimentRun]) -> np.ndarray:
    """Unpooled per-run efficiency estimates, one per run (diagnostic).

    The spread of these values against the pooled estimate indicates drift
    between runs; their mean is a common alternative estimator.
    """
    if not runs:
        raise CalibrationError("cannot estimate eta from an empty run list")
    if any(r.doubles_observed == 0 for r in runs):
        raise CalibrationError("per-run eta undefined for runs with zero doubles")
    import numpy as np  # deferred: the rest of the pipeline runs without numpy

    return np.array(
        [2.0 / (2.0 + r.singles_observed / r.doubles_observed) for r in runs]
    )


def _newton_lambda(
    excess: Callable[[float], tuple[float, float]],
    guess: float,
    tol: float,
    unreached: str,
) -> float:
    """Root in lambda of a nondecreasing excess(lambda) -> (value, slope),
    given excess(0) <= 0 and tol > 0.

    Safeguarded Newton from a first-order guess. Returns once a Newton step
    is shorter than tol; that test comes before the bracket test, because a
    converged step from above can round onto the bracket's upper end.

    The bracket [lo, hi] holds the root once some excess(lambda) > 0 was
    seen. Inside it, a step that would leave it, or that is not at most half
    the previous move, bisects instead, which bounds the iteration count;
    bisection returns when the bracket is narrower than tol or cannot be
    split. Before that, a step that does not move right doubles lo (from 1)
    and one past LAMBDA_BRACKET_CEILING tries the ceiling. Raises
    BracketError, with ``unreached`` as the reason, when excess is still
    negative at the ceiling, and ValueError when a value or slope is NaN.
    """
    lo, hi = 0.0, math.inf
    lam = min(guess, LAMBDA_BRACKET_CEILING) if guess > 0.0 else 0.0
    last_move = math.inf
    while True:
        value, slope = excess(lam)
        if math.isnan(value) or math.isnan(slope):
            raise ValueError(f"solver function is NaN at lambda = {lam!r}")
        if value == 0.0:
            return lam
        if value > 0.0:
            hi = lam
        elif lam < LAMBDA_BRACKET_CEILING:
            lo = lam
        else:
            raise BracketError(
                f"{unreached} for lambda up to {LAMBDA_BRACKET_CEILING:.0f}"
            )
        step = value / slope if slope > 0.0 else math.nan
        if abs(step) < tol:
            return min(max(lam - step, lo), hi)
        new = lam - step
        if hi == math.inf:
            if new > LAMBDA_BRACKET_CEILING:
                new = LAMBDA_BRACKET_CEILING
            elif not new > lo:
                new = min(max(2.0 * lo, 1.0), LAMBDA_BRACKET_CEILING)
        elif not (lo < new < hi and abs(step) <= last_move / 2.0):
            new = lo + (hi - lo) / 2.0
            if hi - lo < tol or not lo < new < hi:
                return new
        last_move = abs(new - lam)
        lam = new


def solve_lambda_from_doubles(
    doubles: float,
    duration_s: float,
    eta: float,
    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ,
    tol: float = 1e-10,
) -> float:
    """Mean pairs per pulse whose expected double count equals ``doubles``.

    The expected double count is strictly increasing in lambda at fixed
    eta > 0, so the root is unique; safeguarded Newton from the first-order
    guess doubles / (f t eta^2) converges to |dlambda| < tol. The count may
    be fractional (an expected value rather than a tally).

    Raises BracketError if no bracket exists below the lambda ceiling, which
    happens when the observation exceeds every achievable count (more doubles
    than pulses).
    """
    _check_solver_source(eta, pulse_freq_hz)
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 0.0 <= doubles < math.inf:
        raise ValueError(f"doubles must be finite and >= 0, got {doubles}")
    if not 0.0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")

    pulses = pulse_freq_hz * duration_s

    def excess(lam: float) -> tuple[float, float]:
        double, _ = _double_entangled(eta, lam)
        double_slope, _ = _double_entangled_slopes(eta, lam)
        return pulses * double - doubles, pulses * double_slope

    return _newton_lambda(
        excess,
        doubles / pulses / eta / eta,
        tol,
        f"expected doubles never reach {doubles}",
    )


def solve_lambda_from_counts(
    run: ExperimentRun,
    eta: float,
    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ,
    tol: float = 1e-10,
) -> float:
    """Recover the mean pairs per pulse that reproduces a run's double count.

    Thin wrapper over solve_lambda_from_doubles that attaches the run id to
    any solver failure.
    """
    try:
        return solve_lambda_from_doubles(
            run.doubles_observed, run.duration_s, eta, pulse_freq_hz, tol
        )
    except BracketError as exc:
        raise BracketError(f"run {run.run_id}: {exc}") from None


def fit_linear(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Closed-form ordinary least squares of bell against lambda.

    Returns (slope_a, intercept_b, rmse) with rmse = sqrt(mean(residual^2)),
    divisor n. Raises DegenerateFitError with fewer than two distinct lambda
    values.
    """
    n = len(points)
    if n < 2:
        raise DegenerateFitError(f"need at least 2 (lambda, bell) points, got {n}")
    lam = [float(x) for x, _ in points]
    bell = [float(y) for _, y in points]
    if len(set(lam)) < 2:
        raise DegenerateFitError("all lambda values identical; slope undetermined")
    lam_mean = math.fsum(lam) / n
    bell_mean = math.fsum(bell) / n
    lam_c = [x - lam_mean for x in lam]
    slope = math.fsum(xc * (y - bell_mean) for xc, y in zip(lam_c, bell)) / math.fsum(
        xc * xc for xc in lam_c
    )
    intercept = bell_mean - slope * lam_mean
    rmse = math.sqrt(
        math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(lam, bell)) / n
    )
    return slope, intercept, rmse


def to_physical(
    slope_a: float,
    intercept_b: float,
    eta: float,
    cert: BellCertificate,
    *,
    rmse: float = 0.0,
) -> PhysicalFit:
    """Convert fit-line coefficients into physical noise parameters.

    alpha = -2a / (T * xi(eta)) and beta = -2a / xi(eta) - b. Requires a
    trace-zero certificate; without it the white-noise admixture would shift
    the Bell value by more than a visibility factor and the mapping is wrong.
    """
    if not cert.trace_zero:
        raise ModelAssumptionError(
            f"certificate {cert.name!r} does not assert a trace-zero Bell "
            "operator; the linear noise model does not apply"
        )
    xi_val = xi(eta)
    t_bound = cert.tsirelson_bound
    alpha = -2.0 * slope_a / (t_bound * xi_val)
    beta = -2.0 * slope_a / xi_val - intercept_b
    return PhysicalFit(
        slope_a=slope_a,
        intercept_b=intercept_b,
        rmse=rmse,
        eta_used=eta,
        xi_used=xi_val,
        alpha=alpha,
        beta=beta,
    )


def calibrate(
    runs: Sequence[ExperimentRun],
    cert: BellCertificate | None = None,
    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ,
    tol: float = 1e-10,
) -> CalibrationReport:
    """Run the full calibration pipeline on a set of measurement runs.

    Composes estimate_eta, per-run lambda recovery, the linear fit, and the
    physical-parameter conversion. The report's per-run entries are sorted by
    run_id and carry the fit-line value a * lambda + b for each run.
    """
    cert = chsh_certificate() if cert is None else cert
    missing = [r.run_id for r in runs if r.bell_observed is None]
    if missing:
        raise CalibrationError(
            f"runs {missing} have no bell_observed; calibration needs it on every run"
        )
    eta_hat = estimate_eta(runs)
    ordered = sorted(runs, key=lambda r: r.run_id)
    # solve_lambda_from_counts errors already name the offending run
    lambdas = [
        solve_lambda_from_counts(run, eta_hat, pulse_freq_hz, tol) for run in ordered
    ]
    slope, intercept, rmse = fit_linear(
        [(lam, run.bell_observed) for lam, run in zip(lambdas, ordered)]
    )
    fit = to_physical(slope, intercept, eta_hat, cert, rmse=rmse)
    per_run = tuple(
        RunCalibration(run.run_id, lam, slope * lam + intercept)
        for run, lam in zip(ordered, lambdas)
    )
    return CalibrationReport(eta_hat=eta_hat, per_run=per_run, fit=fit)
