"""errors.check_range: the one range check of a single numeric value."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftrisk.errors import ValidationError, check_range

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
bounds = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(sorted)


def refused(value, low, high=None, integer=False, low_open=False) -> str:
    with pytest.raises(ValidationError) as err:
        check_range("x", value, low, high, integer=integer, low_open=low_open)
    return str(err.value)


@PROPERTY_SETTINGS
@given(value=finite | st.integers(-10, 10), lo_hi=bounds)
def test_closed_interval(value, lo_hi):
    low, high = lo_hi
    if low <= value <= high:
        assert check_range("x", value, low, high) is value
    else:
        assert refused(value, low, high) == f"x must be in [{low}, {high}], got {value!r}"


@PROPERTY_SETTINGS
@given(value=finite | st.integers(-10, 10), lo_hi=bounds)
def test_low_open_interval(value, lo_hi):
    low, high = lo_hi
    if low < value <= high:
        assert check_range("x", value, low, high, low_open=True) is value
    else:
        assert (
            refused(value, low, high, low_open=True)
            == f"x must be in ({low}, {high}], got {value!r}"
        )


@PROPERTY_SETTINGS
@given(value=finite | st.integers(-10, 10), low=st.integers(-5, 5))
def test_lower_bound_only(value, low):
    if value >= low:
        assert check_range("x", value, low) is value
    else:
        assert refused(value, low) == f"x must be >= {low}, got {value!r}"


@PROPERTY_SETTINGS
@given(value=st.integers(-10, 10) | finite, low=st.integers(-5, 5))
def test_integer(value, low):
    if isinstance(value, float):
        assert refused(value, low, integer=True) == f"x must be an integer, got {value!r}"
    elif value >= low:
        assert check_range("x", value, low, integer=True) is value
    else:
        assert refused(value, low, integer=True) == f"x must be >= {low}, got {value!r}"


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("value", [True, False, None, "0.5", [0.5]])
def test_non_numbers_refused(value, integer):
    expected = "an integer" if integer else "a number"
    assert refused(value, 0, 1, integer=integer) == f"x must be {expected}, got {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_refused(value):
    assert refused(value, 0, 1) == f"x must be finite, got {value!r}"
    assert refused(value, 0) == f"x must be finite, got {value!r}"
    assert refused(value, 0, integer=True) == f"x must be an integer, got {value!r}"
