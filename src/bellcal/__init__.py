"""Click-model calibration and Bell-value extrapolation for pulsed pair sources.

A pulsed down-conversion source emits a Poisson-distributed number of photon
pairs per pulse. At low pump power almost every double click is a genuine
entangled coincidence; at high power accidental coincidences from multi-pair
emission wash out the measured Bell violation. This package fits the
detection efficiency and the Bell-vs-power line from observed count rates,
predicts the Bell value and event rate at any pump power, solves the inverse
problem (what power yields a target Bell value), and validates the whole
analytic model against a pulse-level Monte Carlo.

The Monte Carlo names are loaded on first use, so importing the package
does not import numpy; only ``bellcal.montecarlo`` needs it.
"""

from .calibration import (
    BellCertificate,
    BracketError,
    CalibrationError,
    CalibrationReport,
    DegenerateFitError,
    ExperimentRun,
    ModelAssumptionError,
    ModelError,
    PhysicalFit,
    RunCalibration,
    calibrate,
    chsh_certificate,
    estimate_eta,
    fit_linear,
    solve_lambda_from_doubles,
    to_physical,
)
from .clicks import (
    ClickKind,
    DEFAULT_PULSE_FREQ_HZ,
    SourceParams,
    expected_doubles_count,
    expected_rate,
    p_double,
    p_ent,
    p_single,
    poisson_pmf,
    xi,
)
from .prediction import (
    InfeasibleTargetError,
    PredictionPoint,
    events_per_second,
    predict_bell,
    solve_lambda_for_bell,
    solve_lambda_for_rate,
    sweep,
    visibility,
)

__version__ = "0.1.0"

__all__ = [
    "BellCertificate",
    "BracketError",
    "CalibrationError",
    "CalibrationReport",
    "ChshEstimate",
    "ClickKind",
    "DEFAULT_PULSE_FREQ_HZ",
    "DegenerateFitError",
    "ExperimentRun",
    "InfeasibleTargetError",
    "ModelAssumptionError",
    "ModelError",
    "PhysicalFit",
    "PredictionPoint",
    "PulseTally",
    "RunCalibration",
    "SimConfig",
    "SourceParams",
    "calibrate",
    "chsh_certificate",
    "estimate_eta",
    "events_per_second",
    "expected_doubles_count",
    "expected_rate",
    "fit_linear",
    "p_double",
    "p_ent",
    "p_single",
    "poisson_pmf",
    "predict_bell",
    "simulate_chsh",
    "simulate_pulses",
    "simulate_tally_and_chsh",
    "solve_lambda_for_bell",
    "solve_lambda_for_rate",
    "solve_lambda_from_doubles",
    "sweep",
    "to_physical",
    "visibility",
    "xi",
]

_MONTECARLO_NAMES = frozenset(
    {
        "ChshEstimate",
        "PulseTally",
        "SimConfig",
        "simulate_chsh",
        "simulate_pulses",
        "simulate_tally_and_chsh",
    }
)


def __getattr__(name: str) -> object:
    # PEP 562: the Monte Carlo is the only numpy user, so import it on demand
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MONTECARLO_NAMES)
