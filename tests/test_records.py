"""The package's frozen records keep one contract.

Each record lists its fields in ``__match_args__``; ``vars()``, repr, ==
and hash follow that order, fields cannot be assigned or deleted, copies
and pickles round-trip, and the constructor rejects a missing or an
unexpected argument with TypeError.
"""

import copy
import pickle

import pytest

from bellcal import (
    BellCertificate,
    CalibrationReport,
    ExperimentRun,
    PhysicalFit,
    RunCalibration,
    SourceParams,
    chsh_certificate,
)
from bellcal.cli import ToolConfig
from bellcal.montecarlo import ChshEstimate, PulseTally, SimConfig

FIT_VALUES = (-1.69, 2.76, 0.0053, 0.1134, 1.98714, 0.95, 0.46)
FIT = PhysicalFit(*FIT_VALUES)

# record, its fields in order, one value per field, and the defaults of its
# trailing fields
RECORDS = [
    (
        SourceParams,
        ("eta", "lambda_mean", "pulse_freq_hz"),
        (0.1134, 0.0849, 5e7),
        {"pulse_freq_hz": 8e7},
    ),
    (
        ExperimentRun,
        ("run_id", "doubles_observed", "singles_observed", "duration_s", "bell_observed"),
        (3, 1000, 20000, 100.0, 2.7),
        {"bell_observed": None},
    ),
    (
        BellCertificate,
        ("name", "tsirelson_bound", "classical_bound", "trace_zero"),
        ("CHSH-like", 2.5, 2.0, False),
        {"trace_zero": True},
    ),
    (
        PhysicalFit,
        ("slope_a", "intercept_b", "rmse", "eta_used", "xi_used", "alpha", "beta"),
        FIT_VALUES,
        {},
    ),
    (
        CalibrationReport,
        ("eta_hat", "per_run", "fit"),
        (0.1134, (RunCalibration(1, 0.01, 2.74),), FIT),
        {},
    ),
    (
        ToolConfig,
        ("pulse_freq_hz", "decimals", "certificate"),
        (5e7, 6, BellCertificate("CHSH-like", 2.5, 2.0)),
        {"pulse_freq_hz": 8e7, "decimals": 4, "certificate": chsh_certificate()},
    ),
    (SimConfig, ("n_pulses", "seed", "block_size"), (1000, 7, 256), {"block_size": 1 << 16}),
    (
        PulseTally,
        ("pulses", "singles", "doubles", "entangled_coincidences"),
        (1000, 30, 20, 18),
        {},
    ),
    (
        ChshEstimate,
        ("bell_value", "correlators", "setting_counts", "std_error"),
        (2.7, (0.7, 0.7, 0.7, -0.6), (5, 6, 4, 5), 0.1),
        {},
    ),
]

pytestmark = pytest.mark.parametrize(
    "cls, fields, values, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)


def test_fields_in_order(cls, fields, values, defaults):
    record = cls(*values)
    assert cls.__match_args__ == fields
    assert list(vars(record)) == list(fields)
    assert tuple(vars(record).values()) == values
    assert cls(**dict(zip(fields, values))) == record


def test_repr(cls, fields, values, defaults):
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


def test_eq_and_hash_are_the_field_tuples(cls, fields, values, defaults):
    record = cls(*values)
    assert record == cls(*values)
    assert hash(record) == hash(cls(*values)) == hash(values)
    # equal values under another class are not equal
    assert record != values
    assert record.__eq__(values) is NotImplemented
    others = [r for r in RECORDS if r[0] is not cls]
    assert all(record != other(*other_values) for other, _, other_values, _ in others)


def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, defaults):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert tuple(vars(record).values()) == values


@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_round_trip(cls, fields, values, defaults, round_trip):
    record = cls(*values)
    twin = round_trip(record)
    assert type(twin) is cls
    assert twin == record
    assert repr(twin) == repr(record)
    assert hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(twin, fields[0], values[0])


def test_defaults(cls, fields, values, defaults):
    required = len(fields) - len(defaults)
    record = cls(*values[:required])
    assert {name: getattr(record, name) for name in fields[required:]} == defaults
    # the default certificate is the shared CHSH instance
    if "certificate" in defaults:
        assert record.certificate is chsh_certificate()


def test_missing_and_unexpected_arguments(cls, fields, values, defaults):
    if len(defaults) < len(fields):
        kwargs = dict(zip(fields[1:], values[1:]))
        with pytest.raises(
            TypeError,
            match=rf"{cls.__name__}\.__init__\(\) "
            f"missing 1 required positional argument: '{fields[0]}'",
        ):
            cls(**kwargs)
    with pytest.raises(
        TypeError,
        match=rf"{cls.__name__}\.__init__\(\) got an unexpected keyword argument 'bogus'",
    ):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, values[0])
