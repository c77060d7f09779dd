"""Detection statistics for a pulsed entangled-photon-pair source.

A pulsed source emits k photon pairs per pulse, with k Poisson distributed
around a mean set by the pump power. One photon of each pair travels to each
party; every photon is detected independently with efficiency eta, and a
detected photon lands on one of its party's two detectors with probability
1/2. Per-pulse outcomes are classified as

* single click: exactly one of the four detectors fired,
* double click: at least one detector fired on each side,
* entangled coincidence: exactly one photon detected per side, both from
  the same pair (the only double clicks carrying genuine correlations).

This module provides the per-k outcome probabilities, their Poisson-averaged
per-pulse rates in closed form, and the visibility slope factor xi(eta) used
by the calibration and prediction layers.
"""

from __future__ import annotations

import enum
import math
import sys

DEFAULT_PULSE_FREQ_HZ = 8.0e7

_FLOAT_MAX = sys.float_info.max


class _Record:
    """Base of the package's frozen records.

    A record declares its fields once, as class annotations in order; a
    class attribute of the same name is that field's default. Each subclass
    gets ``__match_args__`` (the field names) and an ``__init__`` that sets
    every field once, in that order, and then calls ``_check()``, so
    ``vars()`` lists them in order. repr, == (same class only) and hash (of
    the tuple of field values) work over them; assignment and deletion
    raise AttributeError. Copies and pickles restore ``__dict__`` directly.
    """

    __match_args__: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__annotations__)
        # one generated def, as collections.namedtuple builds __new__: a
        # plain signature checks the arguments and words their TypeErrors
        params = ", ".join(
            f"{name}=_attrs[{name!r}]" if name in vars(cls) else name for name in fields
        )
        body = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
        namespace = {"_attrs": vars(cls), "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n{body}    self._check()\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        setattr(cls, "__match_args__", fields)

    def _check(self) -> None:
        """Validate the fields once they are set; the base accepts any."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class ClickKind(enum.Enum):
    """Per-pulse click classification."""

    SINGLE = "single"
    DOUBLE = "double"
    ENTANGLED = "entangled"


class SourceParams(_Record):
    """Source and detection parameters.

    Args:
        eta: per-photon detection efficiency including all losses, in [0, 1].
        lambda_mean: mean pairs per pulse (pump-power proxy), finite, >= 0.
        pulse_freq_hz: laser repetition rate in Hz, finite, > 0.
    """

    eta: float
    lambda_mean: float
    pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ

    def _check(self) -> None:
        _check_eta(self.eta)
        # <= _FLOAT_MAX, not < inf: an int beyond float range overflows later
        if not 0.0 <= self.lambda_mean <= _FLOAT_MAX:
            raise ValueError(
                f"lambda_mean must be finite and >= 0, got {self.lambda_mean}"
            )
        if not 0.0 < self.pulse_freq_hz <= _FLOAT_MAX:
            raise ValueError(
                f"pulse_freq_hz must be finite and > 0, got {self.pulse_freq_hz}"
            )


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")


def _check_solver_source(eta: float, pulse_freq_hz: float = DEFAULT_PULSE_FREQ_HZ) -> None:
    """What SourceParams checks, with eta = 0 excluded (no clicks to invert)."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if not 0.0 < pulse_freq_hz <= _FLOAT_MAX:
        raise ValueError(f"pulse_freq_hz must be finite and > 0, got {pulse_freq_hz}")


def _check_pairs(k: int) -> None:
    if k != int(k) or k < 1:
        raise ValueError(f"pair count k must be an integer >= 1, got {k}")


def poisson_pmf(k: int, lambda_mean: float) -> float:
    """Probability of k pairs in one pulse, lambda^k e^{-lambda} / k!."""
    if k != int(k) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if lambda_mean < 0.0:
        raise ValueError(f"lambda_mean must be >= 0, got {lambda_mean}")
    if lambda_mean == 0.0:
        return 1.0 if k == 0 else 0.0
    # log-space keeps k >~ 170 from overflowing the factorial
    return math.exp(k * math.log(lambda_mean) - lambda_mean - math.lgamma(k + 1.0))


def p_single(eta: float, k: int) -> float:
    """Single-click probability for a pulse carrying k pairs.

    One side loses all k photons while the other side's detections all land
    on the same detector:

        4 (1-eta)^k * sum_{j=1..k} C(k,j) eta^j (1-eta)^(k-j) (1/2)^j

    The factor 4 counts the two sides times the two detectors per side. The
    binomial theorem sums the j-series to (1-eta/2)^k - (1-eta)^k.
    """
    _check_eta(eta)
    _check_pairs(k)
    q = 1.0 - eta
    return 4.0 * q**k * ((1.0 - eta / 2.0) ** k - q**k)


def p_double(eta: float, k: int) -> float:
    """Double-click probability for k pairs: (1 - (1-eta)^k)^2."""
    _check_eta(eta)
    _check_pairs(k)
    return (1.0 - (1.0 - eta) ** k) ** 2


def p_ent(eta: float, k: int) -> float:
    """Entangled-coincidence probability for k pairs: k eta^2 (1-eta)^(2(k-1))."""
    _check_eta(eta)
    _check_pairs(k)
    return k * eta * eta * (1.0 - eta) ** (2 * (k - 1))


def expected_rate(params: SourceParams, kind: ClickKind) -> float:
    """Per-pulse probability of one click kind, averaged over the pair number.

    The sum of pmf(k) * P_kind(eta, k) over all k follows from the Poisson
    generating function E[z^k] = exp(-lambda (1 - z)). With a = lambda * eta:

        single    = 4 (e^{-a(3-eta)/2} - e^{-a(2-eta)})
        double    = 1 - 2 e^{-a} + e^{-a(2-eta)}
        entangled = a eta e^{-a(2-eta)}

    They are evaluated through expm1 with every exponent <= 0, so nothing
    cancels at small lambda and nothing overflows at large lambda. Returns 0
    at lambda_mean = 0 (no pairs, no clicks).
    """
    eta = params.eta
    if kind is ClickKind.SINGLE:
        a = params.lambda_mean * eta
        return -4.0 * math.exp(-a * (3.0 - eta) / 2.0) * math.expm1(-a * (1.0 - eta) / 2.0)
    double, entangled = _double_entangled(eta, params.lambda_mean)
    return double if kind is ClickKind.DOUBLE else entangled


def _double_entangled(eta: float, lambda_mean: float) -> tuple[float, float]:
    """(D, E), the double and entangled rates of expected_rate: the one place
    their closed forms are written. No validation: callers check once."""
    a = lambda_mean * eta
    # probability that no photon of the pulse is detected
    dark = math.exp(-a * (2.0 - eta))
    return math.expm1(-a) ** 2 - dark * math.expm1(-a * eta), a * eta * dark


def _double_entangled_slopes(eta: float, lambda_mean: float) -> tuple[float, float]:
    """(dD/dlambda, dE/dlambda) for the Newton solvers. With a = lambda * eta:

        dD/dlambda = eta e^{-a} (eta - (2-eta) expm1(-a(1-eta)))
        dE/dlambda = eta^2 e^{-a(2-eta)} (1 - a(2-eta))

    Both terms of dD/dlambda are >= 0, so nothing cancels. No validation.
    """
    a = lambda_mean * eta
    double_slope = eta * math.exp(-a) * (eta - (2.0 - eta) * math.expm1(-a * (1.0 - eta)))
    return double_slope, eta * eta * math.exp(-a * (2.0 - eta)) * (1.0 - a * (2.0 - eta))


def expected_doubles_count(params: SourceParams, duration_s: float) -> float:
    """Expected double clicks over duration_s seconds: f * t * rate(Double).

    Strictly increasing in lambda_mean at fixed eta > 0, which is what makes
    the count-to-lambda inversion in the calibration layer well posed.
    """
    if not 0.0 < duration_s <= _FLOAT_MAX:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    return params.pulse_freq_hz * duration_s * expected_rate(params, ClickKind.DOUBLE)


def xi(eta: float) -> float:
    """Visibility slope factor: (p_double(eta,2) - p_ent(eta,2)) / eta^2.

    The two-pair excess of accidental over genuine coincidences per unit
    lambda_mean, written as its closed form 2 - eta^2 so that it does not
    cancel at small eta. Undefined at eta = 0, where no pair is detected.
    """
    _check_eta(eta)
    if eta == 0.0:
        raise ValueError("xi is undefined at eta = 0 (no pair is detected)")
    return 2.0 - eta * eta
