"""Output checks for the benchmark, built on an oracle independent of bellcal.

The oracle sums the paper's per-k click probabilities against the Poisson
pair-number distribution with plain numpy, so a check never trusts the code
under test to grade itself. Every check raises CheckFailed with a message
naming the quantity that drifted.
"""

from __future__ import annotations

import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)

# acceptance constants for the bundled seven-run campaign, copied from
# tests/test_acceptance.py (ETA_REF, LAMBDA_REF, test_03, EXTRAPOLATION_REF)
ETA_REF = 0.1134
LAMBDA_REF = (0.0649, 0.0488, 0.0346, 0.0195, 0.0120, 0.0078, 0.0036)
SLOPE_REF, SLOPE_TOL = -1.6917, 0.01
INTERCEPT_REF, INTERCEPT_TOL = 2.7585, 0.002
RMSE_REF, RMSE_TOL = 0.0053, 0.0005
# (Bell target, pump power); the table's event-rate column is left out on
# purpose: test_05 documents a known 0.8-2.3 % deviation there, so checking
# it would fail every run for a reason the benchmark cannot fix
EXTRAPOLATION_REF = (
    (2.625, 0.0849),
    (2.6, 0.1022),
    (2.5, 0.1769),
    (2.4, 0.2614),
    (2.3, 0.3576),
    (2.2, 0.4684),
    (2.1, 0.5972),
    (2.0, 0.7490),
)

MC_SIGMAS = 5.0  # the rule cmd_simulate applies before exiting 3
ORACLE_RTOL = 1e-9


class CheckFailed(Exception):
    """An operation returned output that fails the benchmark's check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rtol: float, what: str) -> None:
    _require(
        math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300),
        f"{what}: got {got!r}, want {want!r} (rtol {rtol})",
    )


def click_rates(eta: float, lam: float) -> tuple[float, float, float]:
    """Per-pulse (single, double, entangled) rates from the per-k formulas.

    single(k)    = 4 (1-eta)^k sum_{j=1..k} C(k,j) (eta/2)^j (1-eta)^(k-j)
    double(k)    = (1 - (1-eta)^k)^2
    entangled(k) = k eta^2 (1-eta)^(2(k-1))
    each weighted by the Poisson pmf of k pairs and summed far past any
    tail that could matter at double precision.
    """
    if lam == 0.0:
        return 0.0, 0.0, 0.0
    kmax = int(lam + 12.0 * math.sqrt(lam)) + 40
    k = np.arange(1, kmax + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, kmax + 1)))))
    pmf = np.exp(k * math.log(lam) - lam - log_fact[k])
    q = 1.0 - eta
    double = (1.0 - q**k) ** 2
    entangled = k * eta * eta * q ** (2.0 * (k - 1))
    kk, jj = np.meshgrid(k, k, indexing="ij")
    valid = jj <= kk
    jv = np.where(valid, jj, 0)
    log_binom = log_fact[kk] - log_fact[jv] - log_fact[np.where(valid, kk - jj, 0)]
    with np.errstate(divide="ignore"):
        log_terms = log_binom + jv * math.log(eta / 2.0) + (kk - jv) * np.log(q)
    inner = np.where(valid, np.exp(log_terms), 0.0).sum(axis=1)
    single = 4.0 * q**k * inner
    return (
        float(np.dot(pmf, single)),
        float(np.dot(pmf, double)),
        float(np.dot(pmf, entangled)),
    )


def oracle_point(
    eta: float, lam: float, alpha: float, beta: float, freq_hz: float
) -> tuple[float, float, float]:
    """(visibility, Bell value, events/s) of the forward model at one lambda."""
    _, double, entangled = click_rates(eta, lam)
    vis = 1.0 if double == 0.0 else entangled / double
    return vis, alpha * TSIRELSON * vis - beta, freq_hz * double


def check_reference_calibration(eta_hat: float, lambdas, slope, intercept, rmse) -> None:
    """The bundled campaign against the published acceptance values."""
    _require(abs(eta_hat - ETA_REF) <= 2e-4, f"eta_hat {eta_hat} vs {ETA_REF}")
    _require(len(lambdas) == len(LAMBDA_REF), f"{len(lambdas)} runs, expected 7")
    for i, (got, want) in enumerate(zip(lambdas, LAMBDA_REF)):
        _require(abs(got - want) <= 2e-4, f"run {i + 1}: lambda {got} vs {want}")
    _require(abs(slope - SLOPE_REF) <= SLOPE_TOL, f"slope {slope} vs {SLOPE_REF}")
    _require(
        abs(intercept - INTERCEPT_REF) <= INTERCEPT_TOL,
        f"intercept {intercept} vs {INTERCEPT_REF}",
    )
    _require(abs(rmse - RMSE_REF) <= RMSE_TOL, f"rmse {rmse} vs {RMSE_REF}")


def check_reference_extrapolation(target: float, lam: float) -> None:
    """Pump power for one published Bell target, within 2e-3."""
    want = dict(EXTRAPOLATION_REF)[target]
    _require(abs(lam - want) <= 2e-3, f"target {target}: lambda {lam} vs {want}")


def check_calibration(
    runs, eta_hat: float, lambdas, slope: float, intercept: float, freq_hz: float
) -> None:
    """Each solved lambda reproduces its run's doubles; the line is OLS.

    runs are (run_id, doubles, singles, duration_s, bell) tuples in the
    order of lambdas (ascending run_id).
    """
    _require(len(lambdas) == len(runs), f"{len(lambdas)} lambdas for {len(runs)} runs")
    for (run_id, doubles, _, duration, _), lam in zip(runs, lambdas):
        _, rate, _ = click_rates(eta_hat, lam)
        _close(
            freq_hz * duration * rate,
            float(doubles),
            1e-6,
            f"run {run_id}: expected doubles at the solved lambda vs observed",
        )
    want_slope, want_intercept = np.polyfit(
        np.asarray(lambdas, dtype=float), np.array([r[4] for r in runs]), 1
    )
    for got, want, what in ((slope, want_slope, "slope"), (intercept, want_intercept, "intercept")):
        _require(
            abs(got - want) <= 1e-9 * max(1.0, abs(want)),
            f"{what} {got!r} vs polyfit {want!r}",
        )


def check_target(
    target: float, lam: float, eta: float, alpha: float, beta: float, freq_hz: float
) -> None:
    """The solved pump power predicts the target Bell value within 1e-6."""
    _, bell, _ = oracle_point(eta, lam, alpha, beta, freq_hz)
    _require(abs(bell - target) <= 1e-6, f"target {target}: lambda {lam} gives B = {bell!r}")


def check_sweep(
    lambdas, vis, bell, events, probes, eta: float, alpha: float, beta: float, freq_hz: float
) -> None:
    """Monotone curve, visibility in [0, 1], and oracle agreement at probes."""
    vis, bell, events = (np.asarray(x, dtype=float) for x in (vis, bell, events))
    _require(bool(np.all(np.isfinite(bell))), "non-finite Bell value in sweep")
    _require(bool(np.all(np.diff(bell) <= 0.0)), "Bell value increases along the grid")
    _require(bool(np.all(np.diff(events) >= 0.0)), "events/s decreases along the grid")
    _require(bool(np.all((vis >= 0.0) & (vis <= 1.0))), "visibility outside [0, 1]")
    for i in probes:
        want = oracle_point(eta, float(lambdas[i]), alpha, beta, freq_hz)
        for got, w, what in zip((vis[i], bell[i], events[i]), want, ("visibility", "bell", "events/s")):
            _close(float(got), w, ORACLE_RTOL, f"sweep point {i} {what} vs oracle")


def check_monte_carlo(
    eta: float,
    lam: float,
    n: int,
    singles: int,
    doubles: int,
    entangled: int,
    chsh: float,
    chsh_se: float,
) -> None:
    """Tallies, visibility and CHSH value within 5 sigma of the model, for
    a source of state visibility 1 (the value every workload simulates)."""
    rates = click_rates(eta, lam)
    for name, observed, rate in zip(("singles", "doubles", "entangled"), (singles, doubles, entangled), rates):
        spread = math.sqrt(n * rate * (1.0 - rate))
        _require(
            abs(observed - n * rate) <= MC_SIGMAS * spread,
            f"{name} {observed} vs {n * rate:.1f} +- {spread:.1f} at eta {eta}, lambda {lam}",
        )
    vis = rates[2] / rates[1]
    _require(doubles > 0, f"no doubles at eta {eta}, lambda {lam}")
    v_spread = math.sqrt(vis * (1.0 - vis) / doubles)
    v_emp = entangled / doubles
    _require(abs(v_emp - vis) <= MC_SIGMAS * v_spread, f"visibility {v_emp} vs {vis}")
    expected = TSIRELSON * vis
    _require(
        math.isfinite(chsh) and abs(chsh - expected) <= MC_SIGMAS * chsh_se,
        f"CHSH {chsh} +- {chsh_se} vs {expected} at eta {eta}, lambda {lam}",
    )
