"""Monitor.observe_many against a loop of Monitor.observe.

Every column of the array result must equal the loop's assessments with
``==`` (never approx), and the monitor must end in the state the loop
leaves, compared through ``snapshot()``.  Covered: both topologies, both
intervention modes, priced and unpriced, decay 1 and below, min_fill
below capacity, restored windows and calls split mid-stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftrisk.errors import ConfigurationError, ValidationError
from driftrisk.estimation import AccuracyCell, ConditionalAccuracyTable, DetectorProfile
from driftrisk.event_tree import IND, IND_NEG, IND_POS, OOD, OOD_NEG, OOD_POS, OUTCOMES
from driftrisk.monitor import Monitor, MonitorConfig

from conftest import make_full_table

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None)

probabilities = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def monitor_cases(draw):
    """A monitor config, a restored window and a verdict sequence."""
    tpr, tnr = draw(probabilities), draw(probabilities)
    assume(tpr + tnr - 1.0 > 0.06)
    capacity = draw(st.integers(1, 30))
    priced = draw(st.booleans())
    costs = (
        draw(
            st.fixed_dictionaries(
                {outcome: st.floats(0.0, 1e4, allow_nan=False) for outcome in OUTCOMES}
            )
        )
        if priced
        else None
    )
    config = MonitorConfig(
        topology=draw(st.sampled_from(["base", "rv"])),
        profile=DetectorProfile(tpr, tnr),
        accuracies=ConditionalAccuracyTable(
            {
                condition: AccuracyCell(draw(probabilities), 1)
                for condition in (IND, OOD, IND_NEG, IND_POS, OOD_NEG, OOD_POS)
            }
        ),
        prior_rate=draw(probabilities),
        costs=costs,
        trace_capacity=capacity,
        min_fill=draw(st.one_of(st.none(), st.integers(1, capacity))),
        risk_threshold=(
            draw(st.one_of(st.none(), st.floats(0.0, 1e4, allow_nan=False)))
            if priced
            else None
        ),
        decay=draw(
            st.one_of(st.sampled_from([1.0, 0.98, 0.7]), st.floats(0.01, 1.0))
        ),
        intervention_counts_as=draw(st.sampled_from(["correct", "excluded"])),
    )
    window = draw(st.lists(st.booleans(), max_size=capacity))
    verdicts = draw(st.lists(st.booleans(), max_size=4 * capacity + 10))
    return config, window, verdicts


COLUMNS = (
    "raw_mean",
    "corrected",
    "pre_clamp",
    "clamped",
    "fill_fraction",
    "using_prior",
    "expected_accuracy",
    "expected_risk",
    "alert",
)
ESTIMATE_FIELDS = {"raw_mean", "corrected", "pre_clamp", "clamped", "fill_fraction"}


def loop_columns(monitor: Monitor, verdicts: list[bool]) -> dict[str, list]:
    """The observe loop's assessments, as the columns of Assessments."""
    assessments = [monitor.observe(verdict) for verdict in verdicts]
    return {
        name: [
            getattr(a.p_event if name in ESTIMATE_FIELDS else a, name) for a in assessments
        ]
        for name in COLUMNS
    }


def array_columns(result) -> dict[str, list]:
    columns = {}
    for name in COLUMNS:
        column = getattr(result, name)
        if column is None:  # unpriced: no risk column
            columns[name] = [None] * len(result)
        else:
            assert isinstance(column, np.ndarray) and column.shape == (len(result),), name
            columns[name] = column.tolist()
    return columns


@PROPERTY_SETTINGS
@given(case=monitor_cases(), split=st.floats(0.0, 1.0))
def test_observe_many_equals_observe_loop(case, split):
    config, window, verdicts = case
    loop = Monitor(config, _window=window)
    whole = Monitor(config, _window=window)
    parts = Monitor(config, _window=window)
    cut = int(split * len(verdicts))
    try:
        expected_head = loop_columns(loop, verdicts[:cut])
        head_snapshot = loop.snapshot()
        expected_tail = loop_columns(loop, verdicts[cut:])
    except ConfigurationError:
        # "excluded" with every reachable leaf an intervention at this rate.
        with pytest.raises(ConfigurationError):
            whole.observe_many(np.array(verdicts, dtype=bool))
        return
    expected = {name: expected_head[name] + expected_tail[name] for name in expected_head}

    assert array_columns(whole.observe_many(np.array(verdicts, dtype=bool))) == expected
    assert whole.snapshot() == loop.snapshot()

    head = array_columns(parts.observe_many(np.array(verdicts[:cut], dtype=bool)))
    assert head == expected_head
    assert parts.snapshot() == head_snapshot
    tail = array_columns(parts.observe_many(np.array(verdicts[cut:], dtype=bool)))
    assert tail == expected_tail
    assert parts.snapshot() == loop.snapshot()


@settings(max_examples=50, deadline=None, database=None)
@given(case=monitor_cases())
def test_restored_monitor_continues_like_the_original(case):
    config, window, verdicts = case
    original = Monitor(config, _window=window)
    try:
        original.observe_many(np.array(verdicts, dtype=bool))
        restored = Monitor.restore(original.snapshot())
        expected = loop_columns(original, verdicts)
    except ConfigurationError:
        return
    assert array_columns(restored.observe_many(np.array(verdicts, dtype=bool))) == expected
    assert restored.snapshot() == original.snapshot()


def case_monitor(**overrides) -> Monitor:
    fields = dict(
        topology="rv",
        profile=DetectorProfile(0.9, 0.8),
        accuracies=make_full_table(0.9, 0.4),
        prior_rate=0.3,
        trace_capacity=5,
    )
    fields.update(overrides)
    return Monitor(MonitorConfig(**fields))


class TestInputs:
    def test_empty_array_returns_empty_columns(self):
        monitor = case_monitor(costs={outcome: 1.0 for outcome in OUTCOMES})
        before = monitor.snapshot()
        result = monitor.observe_many(np.array([], dtype=bool))
        assert len(result) == 0
        for name in COLUMNS:
            assert getattr(result, name).shape == (0,)
        assert monitor.snapshot() == before

    def test_zero_one_numbers_are_verdicts(self):
        as_ints = case_monitor().observe_many([0, 1, 1, 0])
        as_bools = case_monitor().observe_many(np.array([False, True, True, False]))
        assert array_columns(as_ints) == array_columns(as_bools)

    @pytest.mark.parametrize(
        "verdicts",
        [
            np.array([0, 2, 1]),
            np.array([0.5]),
            np.array([-1]),
            np.array([np.nan]),
            np.array(["1", "0"]),
            np.array([[0, 1], [1, 0]]),
            np.array(True),
        ],
        ids=["two", "half", "negative", "nan", "strings", "matrix", "scalar"],
    )
    def test_non_zero_one_input_is_rejected(self, verdicts):
        monitor = case_monitor()
        before = monitor.snapshot()
        with pytest.raises(ValidationError):
            monitor.observe_many(verdicts)
        assert monitor.snapshot() == before
