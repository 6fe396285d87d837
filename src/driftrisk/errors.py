"""Exception hierarchy shared across the package.

Every error raised by driftrisk derives from DriftRiskError so callers can
catch the whole family at once.  ValidationError doubles as a ValueError for
idiomatic use at API boundaries.  :func:`check_number` is the one typed
check of a numeric value, :func:`check_range` the one range check of a
single value, which runs it first, and :func:`check_fields` the one key
check of a config section that holds the fields of a dataclass.
"""

import math
import numbers
from dataclasses import MISSING, fields


class DriftRiskError(Exception):
    """Base class for all driftrisk errors."""


class ValidationError(DriftRiskError, ValueError):
    """A parameter or config value is outside its legal domain."""


def check_number(name: str, value, integer: bool = False):
    """Return ``value`` if it is a finite number, or an integer if asked.

    Strings, None, booleans (JSON ``true`` is not a count or a rate here),
    NaN and infinities raise ValidationError, so the range checks that
    follow never meet a value they cannot compare.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if integer else "a number"
        raise ValidationError(f"{name} must be {expected}, got {value!r}")
    if not integer and not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def check_range(
    name: str, value, low, high=None, integer: bool = False, low_open: bool = False
):
    """Return ``value`` once check_number passes and it lies within the bounds.

    The bounds are ``low <= value``, or ``low < value`` with ``low_open``
    (which needs ``high``), and ``value <= high`` when ``high`` is given.
    The message names them as ``>= low``, ``in [low, high]`` or
    ``in (low, high]``, so pass integer bounds to print ``[0, 1]``.
    """
    check_number(name, value, integer=integer)
    if value < low or (low_open and value == low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {'(' if low_open else '['}{low}, {high}]"
        raise ValidationError(f"{name} must be {bounds}, got {value!r}")
    return value


def check_keys(section: str, payload, allowed, required=frozenset()) -> None:
    """Reject a config section that is not an object, has unknown keys or lacks required ones."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{section} must be an object, got {type(payload).__name__}")
    unknown = set(payload) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = set(required) - set(payload)
    if missing:
        raise ValidationError(f"{section} is missing required keys: {sorted(missing)}")


def check_fields(section: str, payload, cls, extra=frozenset()) -> None:
    """check_keys for a section holding the fields of dataclass ``cls``, plus ``extra``.

    Every field is allowed, and the fields without a default are required.
    """
    check_keys(
        section,
        payload,
        {f.name for f in fields(cls)} | set(extra),
        {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING},
    )


class ConfigurationError(DriftRiskError):
    """A structurally invalid setup: unpriced leaf, missing accuracy, etc."""


class EstimationError(DriftRiskError):
    """An estimate cannot be produced, e.g. from an empty verdict trace."""


class UninformativeDetectorError(EstimationError):
    """Detector informativeness (TPR + TNR - 1) is at or below the floor.

    Correcting verdict rates with such a detector amplifies noise without
    bound, so the estimator refuses instead of returning garbage.
    """


class CalibrationError(DriftRiskError):
    """Labeled calibration data is missing a class or a required column."""


class SnapshotError(DriftRiskError):
    """A monitor snapshot payload is corrupt or has the wrong version."""
