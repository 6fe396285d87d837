"""Monitor.observe_many and Monitor.assess against a loop of Monitor.step.

Every column of the array result must equal the loop's assessments with
``==`` (never approx), and the monitor must end in the state the loop
leaves, compared through ``snapshot()``.  Covered: both topologies, both
intervention modes, priced and unpriced, decay 1 and below, min_fill
below capacity, restored windows and calls split mid-stream.
``assess`` must return what ``observe_many`` returns after the same
window, and leave its monitor's snapshot as it was.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftrisk.errors import ConfigurationError, ValidationError
from driftrisk.estimation import AccuracyCell, ConditionalAccuracyTable, DetectorProfile
from driftrisk.event_tree import IND, IND_NEG, IND_POS, OOD, OOD_NEG, OOD_POS, OUTCOMES
from driftrisk.monitor import Assessment, Monitor, MonitorConfig

from conftest import CASE_STUDY_COSTS, CASE_STUDY_THRESHOLD, make_full_table

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


COLUMNS = Assessment._fields


def loop_columns(monitor: Monitor, verdicts: list[bool]) -> dict[str, list]:
    """The step loop's assessments, as the columns of observe_many's Assessment."""
    assessments = [monitor.step(verdict) for verdict in verdicts]
    return {name: [getattr(a, name) for a in assessments] for name in COLUMNS}


def array_columns(result) -> dict[str, list]:
    columns = {}
    for name in COLUMNS:
        column = getattr(result, name)
        if column is None:  # unpriced: no risk column
            columns[name] = [None] * len(result.alert)
        else:
            assert isinstance(column, np.ndarray) and column.shape == (len(result.alert),), name
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


def alerting_case(decay: float, min_fill: int | None):
    """A priced rv case whose threshold some verdicts cross, with a window."""
    config = MonitorConfig(
        topology="rv",
        profile=DetectorProfile(0.9, 0.8),
        accuracies=make_full_table(0.9, 0.4),
        prior_rate=0.3,
        costs=dict(CASE_STUDY_COSTS),
        trace_capacity=8,
        min_fill=min_fill,
        risk_threshold=CASE_STUDY_THRESHOLD,
        decay=decay,
    )
    verdicts = [False] * 4 + [True] + [False] * 3 + [True] * 8 + [False] * 2
    return config, [True, False, True], verdicts


@PROPERTY_SETTINGS
@given(case=monitor_cases())
@example(case=alerting_case(1.0, None))
@example(case=alerting_case(1.0, 3))
@example(case=alerting_case(0.9, None))
@example(case=alerting_case(0.9, 3))
def test_assess_equals_observe_many_and_changes_nothing(case):
    config, window, verdicts = case
    new = np.array(verdicts, dtype=bool)
    for start in ([], window):
        monitor = Monitor(config, _window=start)
        before = monitor.snapshot()
        try:
            expected = array_columns(Monitor(config, _window=start).observe_many(new))
        except ConfigurationError:
            # "excluded" with every reachable leaf an intervention at this rate.
            with pytest.raises(ConfigurationError):
                monitor.assess(new)
        else:
            assert array_columns(monitor.assess(new)) == expected
        assert monitor.snapshot() == before


@PROPERTY_SETTINGS
@given(case=monitor_cases(), integer_prior=st.booleans())
@example(case=alerting_case(1.0, None), integer_prior=False)
@example(case=alerting_case(0.9, 3), integer_prior=True)
def test_step_equals_observe_many(case, integer_prior):
    config, window, verdicts = case
    if integer_prior:
        config = replace(config, prior_rate=round(config.prior_rate))
    stepped, whole = (Monitor(config, _window=window) for _ in range(2))
    try:
        columns = loop_columns(stepped, verdicts)
    except ConfigurationError:
        # "excluded" with every reachable leaf an intervention at this rate.
        with pytest.raises(ConfigurationError):
            whole.observe_many(np.array(verdicts, dtype=bool))
        return
    assert all(type(value) is float for value in columns["corrected"])
    assert array_columns(whole.observe_many(np.array(verdicts, dtype=bool))) == columns
    assert whole.snapshot() == stepped.snapshot()


def test_observe_is_step():
    assert Monitor.observe is Monitor.step


def test_alerting_case_alerts_on_some_verdicts():
    # The explicit examples above exercise the alert column both ways.
    for decay in (1.0, 0.9):
        for min_fill in (None, 3):
            config, _, verdicts = alerting_case(decay, min_fill)
            result = Monitor(config).observe_many(np.array(verdicts))
            assert result.alert.any() and not result.alert.all()
            # They clamp the rate at both ends, too.
            assert set(result.corrected[result.clamped].tolist()) == {0.0, 1.0}


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
        assert len(result.alert) == 0
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
