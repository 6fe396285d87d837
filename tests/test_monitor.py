"""Runtime monitor: priors, estimates, alerts, snapshots."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftrisk.errors import (
    ConfigurationError,
    SnapshotError,
    UninformativeDetectorError,
    ValidationError,
)
from driftrisk.estimation import DetectorProfile, weighted_mean
from driftrisk.event_tree import TreeParams, build_tree, expected_accuracy, expected_risk
from driftrisk.detectors import SyntheticDetector
from driftrisk.monitor import MAX_TRACE_CAPACITY, Monitor, MonitorConfig

from conftest import CASE_STUDY_COSTS, CASE_STUDY_THRESHOLD, make_full_table


def config(
    profile=DetectorProfile(0.9, 0.9),
    topology="base",
    acc_ind=0.9,
    acc_ood=0.33,
    capacity=20,
    prior=0.5,
    **kwargs,
):
    return MonitorConfig(
        topology=topology,
        profile=profile,
        accuracies=make_full_table(acc_ind, acc_ood),
        trace_capacity=capacity,
        prior_rate=prior,
        **kwargs,
    )


class TestTraceCapacity:
    def test_capped_before_the_window_is_allocated(self):
        # A config allocates nothing; only a Monitor built from it does.
        assert config(capacity=MAX_TRACE_CAPACITY).trace_capacity == 10**6
        with pytest.raises(ValidationError, match=r"trace_capacity must be in \[1, 1000000\]"):
            config(capacity=MAX_TRACE_CAPACITY + 1)


class TestObserve:
    def test_prior_phase(self):
        monitor = Monitor(config(capacity=5, prior=0.42))
        for i in range(4):
            assessment = monitor.step(False)
            assert assessment.using_prior
            assert assessment.corrected == 0.42
        assessment = monitor.step(False)
        assert not assessment.using_prior

    def test_integer_prior_is_a_float_rate(self):
        # observe_many gives warm-up rates as floats; step must too, or
        # structured output prints an integer prior_rate 1 as 1, not 1.0.
        monitor = Monitor(config(capacity=5, prior=1))
        assessment = monitor.step(True)
        assert type(assessment.corrected) is float and type(assessment.pre_clamp) is float

    def test_prior_lasts_exactly_min_fill_minus_one(self):
        monitor = Monitor(config(capacity=10, min_fill=4))
        flags = [monitor.step(True).using_prior for _ in range(8)]
        assert flags == [True] * 3 + [False] * 5

    def test_all_negative_with_perfect_detector(self):
        monitor = Monitor(config(profile=DetectorProfile(1.0, 1.0), capacity=5))
        for _ in range(5):
            assessment = monitor.step(False)
        assert assessment.corrected == 0.0
        assert assessment.expected_accuracy == pytest.approx(0.9, abs=1e-12)

    def test_internal_consistency_with_tree(self):
        # The assessment must equal a fresh traversal at its own estimate.
        monitor = Monitor(config(topology="rv", capacity=8, costs=CASE_STUDY_COSTS))
        rng = np.random.default_rng(3)
        for verdict in (rng.random(50) < 0.4).tolist():
            assessment = monitor.step(verdict)
            params = TreeParams(
                p_event=assessment.corrected,
                accuracies=make_full_table(0.9, 0.33).tree_accuracies(),
                tpr=0.9,
                tnr=0.9,
            )
            tree = build_tree("rv", params)
            assert assessment.expected_accuracy == expected_accuracy(tree)

    def test_monotone_response(self):
        # Higher corrected rate never raises base-topology accuracy.
        monitor = Monitor(config(capacity=10, min_fill=1))
        pairs = []
        rng = np.random.default_rng(5)
        for verdict in (rng.random(200) < 0.5).tolist():
            assessment = monitor.step(verdict)
            pairs.append((assessment.corrected, assessment.expected_accuracy))
        pairs.sort()
        for (p_low, acc_low), (p_high, acc_high) in zip(pairs, pairs[1:]):
            if p_high > p_low:
                assert acc_high <= acc_low

    def test_step_response(self, case_study_oracle):
        # True rate steps 0.1 -> 0.8 mid-run; the corrected estimate lands
        # within 0.1 of the new rate within one window of the step.
        profile = DetectorProfile(0.75, 0.75)
        window = 200
        monitor = Monitor(
            config(
                profile=profile,
                topology="rv",
                acc_ind=case_study_oracle.ind_accuracy,
                acc_ood=case_study_oracle.ood_accuracy,
                capacity=window,
                costs=CASE_STUDY_COSTS,
            )
        )
        rng = np.random.default_rng(7)
        detector = SyntheticDetector(profile, seed=11)
        estimates = []
        for step_index in range(3 * window):
            rate = 0.1 if step_index < window else 0.8
            verdict = detector.judge(bool(rng.random() < rate))
            estimates.append(monitor.step(verdict).corrected)
        # One full window after the step the trace holds only post-step data.
        assert estimates[2 * window + 10] == pytest.approx(0.8, abs=0.1)
        assert np.mean(estimates[2 * window :]) == pytest.approx(0.8, abs=0.1)

    def test_decay_weighting_used(self):
        fast = Monitor(config(capacity=10, min_fill=1, decay=0.5))
        slow = Monitor(config(capacity=10, min_fill=1, decay=1.0))
        pattern = [False] * 9 + [True]
        for verdict in pattern:
            fast_assessment = fast.step(verdict)
            slow_assessment = slow.step(verdict)
        # The newest positive dominates under fast decay.
        assert fast_assessment.raw_mean > slow_assessment.raw_mean

    def test_uninformative_profile_fails_fast(self):
        with pytest.raises(UninformativeDetectorError):
            Monitor(config(profile=DetectorProfile(0.5, 0.5)))


class TestDecayedMean:
    """step's table-driven mean against the weighted_mean loop, with ==."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        # 0.01 and 0.05 make the oldest weights of a 500-verdict window
        # underflow to subnormals and then to 0.0.
        decay=st.one_of(st.sampled_from([0.01, 0.05, 0.5, 0.98, 1.0]), st.floats(0.001, 1.0)),
        capacity=st.one_of(st.sampled_from([1, 2, 500]), st.integers(1, 80)),
        restored=st.floats(0.0, 1.0),
        count=st.integers(1, 120),
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(decay=0.01, capacity=500, restored=1.0, count=120, rate=0.6, seed=0)
    def test_equals_weighted_mean(self, decay, capacity, restored, count, rate, seed):
        rng = np.random.default_rng(seed)
        window = (rng.random(int(restored * capacity)) < rate).tolist()
        monitor = Monitor(config(capacity=capacity, min_fill=1, decay=decay), _window=window)
        for verdict in (rng.random(count) < rate).tolist():
            raw = monitor.step(verdict).raw_mean
            assert type(raw) is float
            assert raw == weighted_mean(monitor.trace, decay)


def reference_values(p_event, costs=CASE_STUDY_COSTS, mode="correct", tpr=0.9, tnr=0.9):
    """Accuracy and risk of a freshly built rv tree at ``p_event``."""
    params = TreeParams(
        p_event=p_event,
        accuracies=make_full_table(0.9, 0.33).tree_accuracies(),
        tpr=tpr,
        tnr=tnr,
    )
    tree = build_tree("rv", params, costs)
    return expected_accuracy(tree, mode), expected_risk(tree)


class TestAlerts:
    def test_threshold_boundary_is_strict(self):
        # During warm-up the rate is the prior, so the risk is known exactly.
        _, risk = reference_values(0.5)
        at_boundary = Monitor(
            config(topology="rv", capacity=4, costs=CASE_STUDY_COSTS, risk_threshold=risk)
        ).step(False)
        assert at_boundary.expected_risk == risk
        assert at_boundary.alert is False
        below = math.nextafter(risk, -math.inf)
        just_below = Monitor(
            config(topology="rv", capacity=4, costs=CASE_STUDY_COSTS, risk_threshold=below)
        ).step(False)
        assert just_below.expected_risk == risk
        assert just_below.alert is True

    def test_no_costs_means_no_risk_and_no_alert(self):
        monitor = Monitor(config(capacity=2, min_fill=1, risk_threshold=100.0))
        for verdict in (False, True, True):
            assessment = monitor.step(verdict)
            assert assessment.expected_risk is None
            assert assessment.alert is False

    def test_alert_is_pure_function_of_risk(self):
        monitor = Monitor(
            config(
                topology="rv",
                capacity=4,
                min_fill=1,
                costs=CASE_STUDY_COSTS,
                risk_threshold=CASE_STUDY_THRESHOLD,
                profile=DetectorProfile(0.95, 0.55),
                acc_ind=0.9,
                acc_ood=0.5933333333333334,
            )
        )
        rng = np.random.default_rng(13)
        for verdict in (rng.random(200) < 0.7).tolist():
            assessment = monitor.step(verdict)
            assert assessment.alert == (assessment.expected_risk > CASE_STUDY_THRESHOLD)

    def test_no_threshold_never_alerts(self):
        monitor = Monitor(config(topology="rv", capacity=4, min_fill=1, costs=CASE_STUDY_COSTS))
        for verdict in [True] * 20:
            assert monitor.step(verdict).alert is False


class TestCompiledTree:
    def test_missing_cost_fails_at_construction(self):
        costs = {k: v for k, v in CASE_STUDY_COSTS.items() if k != "failed_detection"}
        with pytest.raises(ConfigurationError, match="has no cost entry"):
            Monitor(config(topology="rv", costs=costs))

    def test_unreachable_unpriced_leaf_is_accepted(self):
        # TNR = 1 gives the unnecessary-intervention leaf path weight zero.
        costs = {
            k: v for k, v in CASE_STUDY_COSTS.items() if k != "unnecessary_intervention"
        }
        monitor = Monitor(
            config(profile=DetectorProfile(0.9, 1.0), topology="rv", capacity=5, costs=costs)
        )
        rng = np.random.default_rng(23)
        for verdict in (rng.random(40) < 0.3).tolist():
            assessment = monitor.step(verdict)
            assert (assessment.expected_accuracy, assessment.expected_risk) == (
                reference_values(assessment.corrected, costs, tnr=1.0)
            )

    def test_excluded_mode_through_config_dict(self):
        # intervention_counts_as arrives as a config key and reaches the
        # evaluator: values equal a fresh "excluded" traversal bit for bit.
        payload = config(topology="rv", capacity=6, costs=CASE_STUDY_COSTS).to_dict()
        payload["intervention_counts_as"] = "excluded"
        monitor = Monitor(MonitorConfig.from_dict(payload))
        counted = Monitor(config(topology="rv", capacity=6, costs=CASE_STUDY_COSTS))
        rng = np.random.default_rng(29)
        differs = False
        for verdict in (rng.random(60) < 0.5).tolist():
            assessment = monitor.step(verdict)
            reference = reference_values(assessment.corrected, mode="excluded")
            assert (assessment.expected_accuracy, assessment.expected_risk) == reference
            other = counted.step(verdict)
            assert other.expected_risk == assessment.expected_risk
            differs = differs or other.expected_accuracy != assessment.expected_accuracy
        assert differs

    def test_excluded_mode_survives_snapshot(self):
        payload = config(topology="rv", capacity=6).to_dict()
        payload["intervention_counts_as"] = "excluded"
        monitor = Monitor(MonitorConfig.from_dict(payload))
        monitor.step(True)
        restored = Monitor.restore(monitor.snapshot())
        assert restored.config.intervention_counts_as == "excluded"
        assert restored.step(False) == monitor.step(False)


class TestSnapshot:
    def test_round_trip_preserves_behaviour(self):
        monitor = Monitor(config(topology="rv", capacity=8, costs=CASE_STUDY_COSTS))
        rng = np.random.default_rng(17)
        verdicts = (rng.random(30) < 0.4).tolist()
        for verdict in verdicts[:15]:
            monitor.step(verdict)
        restored = Monitor.restore(monitor.snapshot())
        for verdict in verdicts[15:]:
            assert restored.step(verdict) == monitor.step(verdict)

    def test_round_trip_at_every_step(self):
        # Replay oracle: snapshotting after every observation changes nothing.
        plain = Monitor(config(capacity=12))
        hopped = Monitor(config(capacity=12))
        rng = np.random.default_rng(19)
        for verdict in (rng.random(1000) < 0.3).tolist():
            expected = plain.step(verdict)
            actual = hopped.step(verdict)
            assert actual == expected
            hopped = Monitor.restore(hopped.snapshot())

    def test_snapshot_is_stable_text(self):
        monitor = Monitor(config(capacity=4))
        monitor.step(True)
        assert monitor.snapshot() == monitor.snapshot()

    def test_truncated_payload_rejected(self):
        monitor = Monitor(config(capacity=4))
        payload = monitor.snapshot()
        with pytest.raises(SnapshotError):
            Monitor.restore(payload[: len(payload) // 2])

    def test_version_mismatch_rejected(self):
        import json

        monitor = Monitor(config(capacity=4))
        envelope = json.loads(monitor.snapshot())
        envelope["version"] = 99
        with pytest.raises(SnapshotError, match="version"):
            Monitor.restore(json.dumps(envelope))

    def test_wrong_format_rejected(self):
        with pytest.raises(SnapshotError):
            Monitor.restore('{"format": "something-else", "version": 1}')

    def test_oversized_window_rejected(self):
        import json

        monitor = Monitor(config(capacity=2))
        envelope = json.loads(monitor.snapshot())
        envelope["window"] = [1, 0, 1, 1]
        with pytest.raises(SnapshotError, match="window"):
            Monitor.restore(json.dumps(envelope))

    @pytest.mark.parametrize(
        "window",
        [["x", 1], [2, 0], [0.5], [1.0, 0], [None], [[1]], "101", {"1": 1}],
    )
    def test_window_entries_other_than_0_1_or_bools_rejected(self, window):
        import json

        monitor = Monitor(config(capacity=4))
        envelope = json.loads(monitor.snapshot())
        envelope["window"] = window
        with pytest.raises(SnapshotError, match="window"):
            Monitor.restore(json.dumps(envelope))

    def test_window_of_bools_and_0_1_restores(self):
        import json

        monitor = Monitor(config(capacity=4))
        envelope = json.loads(monitor.snapshot())
        envelope["window"] = [True, 0, 1, False]
        assert Monitor.restore(json.dumps(envelope)).trace.to_list() == [
            True, False, True, False,
        ]
