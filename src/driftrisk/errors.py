"""Exception hierarchy shared across the package.

Every error raised by driftrisk derives from DriftRiskError so callers can
catch the whole family at once.  ValidationError doubles as a ValueError for
idiomatic use at API boundaries, and :func:`check_number` is the one typed
check that numeric config fields pass before their range checks.
"""

import math
import numbers


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
