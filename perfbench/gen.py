"""Seeded inputs for the benchmark workloads.

Everything bellcal receives is built here from the workload seed, so the
same seed gives the same inputs. Each item is drawn from its own stream,
keyed by (seed, workload, index), so a run that ends after more or fewer
items than another still sees identical items up to where it stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from checks import click_rates

PULSE_FREQ_HZ = 8.0e7
SWEEP_LAMBDA_MAX = 0.75
DURATIONS_S = (100.0, 1000.0, 10000.0)

# the acceptance test_08 grid, swept by the mc workload, in rows of one eta
MC_ROW = 3
MC_GRID = tuple((eta, lam) for eta in (0.05, 0.1134, 0.5) for lam in (0.01, 0.0849, 0.3))
MC_PULSES = 1 << 21
# a plan's Monte Carlo check of its highest-power operating point
PLAN_MC_PULSES = 1 << 18
# sweep size the CLI uses by default, used for the bundled campaign's plans
DEFAULT_SWEEP_STEPS = 100

# the reference extrapolation targets (tests/test_acceptance.py)
REFERENCE_TARGETS = (2.625, 2.6, 2.5, 2.4, 2.3, 2.2, 2.1, 2.0)

CLI_SWEEP_STEPS = 200
CLI_SIM_PULSES = 1_000_000
CLI_SIM_POINT = (0.1134, 0.0849)

_PLAN, _MC, _CLI = 1, 2, 3


@dataclass(frozen=True)
class Campaign:
    """One synthetic measurement campaign and the plan made from it.

    runs are (run_id, doubles, singles, duration_s, bell) tuples. Targets
    depend on the fitted intercept b, which only calibration reveals, so
    they are stored as fractions f giving targets 2 + f (b - 2) in [2, b).
    """

    runs: tuple[tuple[int, int, int, float, float], ...]
    eta: float
    target_fractions: tuple[float, ...]
    grid_steps: int
    mc_seed: int


def _rng(seed: int, workload: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, index])


def campaign(seed: int, index: int) -> Campaign:
    """The index-th synthetic campaign of the plan workload."""
    rng = _rng(seed, _PLAN, index)
    n_runs = int(rng.integers(7, 33))
    eta = float(rng.uniform(0.05, 0.3))
    lambdas = np.exp(rng.uniform(math.log(1e-3), math.log(0.3), n_runs))
    durations = rng.choice(DURATIONS_S, n_runs)
    # a physical Bell line: the slope keeps the floor -beta below 2 for any
    # eta in range, so every target in [2, b) is reachable
    slope = rng.uniform(-2.2, -1.2)
    intercept = rng.uniform(2.70, 2.80)
    bells = intercept + slope * lambdas + rng.normal(0.0, 0.003, n_runs)
    runs = []
    for i, (lam, duration, bell) in enumerate(zip(lambdas, durations, bells), start=1):
        single, double, _ = click_rates(eta, float(lam))
        pulses = PULSE_FREQ_HZ * duration
        runs.append(
            (
                i,
                int(rng.poisson(pulses * double)),
                int(rng.poisson(pulses * single)),
                float(duration),
                float(bell),
            )
        )
    # the classical bound itself is always a target: its power is the
    # highest a plan may use, and the one the plan's Monte Carlo checks
    n_targets = int(rng.integers(6, 11))
    drawn = np.sort(rng.uniform(0.05, 0.95, n_targets - 1))[::-1]
    fractions = tuple(float(f) for f in drawn) + (0.0,)
    steps = int(round(math.exp(rng.uniform(math.log(100), math.log(2000)))))
    return Campaign(
        runs=tuple(runs),
        eta=eta,
        target_fractions=fractions,
        grid_steps=steps,
        mc_seed=int(rng.integers(2**63)),
    )


def mc_seeds(seed: int, index: int) -> tuple[int, ...]:
    """Per-call simulation seeds for the index-th pass over MC_GRID."""
    rng = _rng(seed, _MC, index)
    return tuple(int(s) for s in rng.integers(2**63, size=len(MC_GRID)))


@dataclass(frozen=True)
class CliSession:
    """Arguments of one pass through the five subcommands."""

    rates: tuple[float, ...]
    sim_seed: int


def cli_session(seed: int, index: int) -> CliSession:
    rng = _rng(seed, _CLI, index)
    rates = np.sort(np.exp(rng.uniform(math.log(2e4), math.log(1e6), 3)))
    return CliSession(
        rates=tuple(float(round(r)) for r in rates),
        sim_seed=int(rng.integers(2**63)),
    )
