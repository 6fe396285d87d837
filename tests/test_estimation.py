"""Verdict traces, bias correction, calibration."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftrisk.errors import (
    CalibrationError,
    EstimationError,
    UninformativeDetectorError,
    ValidationError,
)
from driftrisk.estimation import (
    DetectorProfile,
    VerdictTrace,
    calibrate_profile,
    conditional_accuracy,
    empirical_mean,
    forward_bias,
    rogan_gladen,
    weighted_mean,
)
from driftrisk.event_tree import IND, IND_NEG, OOD, OOD_NEG

unit_floats = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestVerdictTrace:
    def test_first_push(self):
        trace = VerdictTrace(3)
        trace.push(True)
        assert trace.fill == 1
        assert trace.to_list() == [True]

    def test_eviction_at_capacity(self):
        trace = VerdictTrace(3, [True, False, False])
        trace.push(True)
        assert trace.to_list() == [False, False, True]
        assert trace.fill == 3

    def test_queue_replay_oracle(self):
        # Window must always equal the last min(n, W) pushes.
        rng = np.random.default_rng(5)
        for _ in range(50):
            capacity = int(rng.integers(1, 20))
            n = int(rng.integers(1, 100))
            pushes = [bool(v) for v in rng.integers(0, 2, size=n)]
            trace = VerdictTrace(capacity)
            for verdict in pushes:
                trace.push(verdict)
            assert trace.to_list() == pushes[-capacity:]
            assert trace.fill == min(n, capacity)
            assert trace.positives == sum(pushes[-capacity:])

    def test_capacity_validation(self):
        with pytest.raises(ValidationError):
            VerdictTrace(0)

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_ring_equals_deque_model(self, data):
        # At least 6 * capacity operations, each adding one verdict or up to
        # 2 * capacity + 2 of them: the ring of 2 * capacity slots is
        # refilled and wrapped many times in every example.
        capacity = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 16)))
        verdict_lists = st.lists(st.booleans(), max_size=2 * capacity + 2)
        operation = st.one_of(
            st.tuples(st.just("push"), st.booleans()),
            st.tuples(st.sampled_from(["list", "array"]), verdict_lists),
        )
        initial = data.draw(verdict_lists)
        trace = VerdictTrace(capacity, initial)
        model = deque(initial, maxlen=capacity)
        operations = st.lists(operation, min_size=6 * capacity, max_size=6 * capacity + 20)
        for kind, value in data.draw(operations):
            if kind == "push":
                trace.push(value)
                model.append(value)
            else:
                trace.extend(value if kind == "list" else np.array(value, dtype=bool))
                model.extend(value)
            assert trace.to_list() == list(model)
            assert trace.newest_first().tolist() == list(reversed(model))
            assert trace.fill == len(model)
            assert trace.positives == sum(model)


class TestEmpiricalMean:
    def test_all_positive(self):
        assert empirical_mean(VerdictTrace(4, [True] * 4)) == 1.0

    def test_alternating(self):
        assert empirical_mean(VerdictTrace(4, [True, False, True, False])) == 0.5

    def test_empty_trace_rejected(self):
        with pytest.raises(EstimationError):
            empirical_mean(VerdictTrace(4))

    def test_bernoulli_convergence(self):
        rng = np.random.default_rng(17)
        n = 100_000
        trace = VerdictTrace(n, (rng.random(n) < 0.3).tolist())
        assert empirical_mean(trace) == pytest.approx(0.3, abs=0.005)


class TestWeightedMean:
    def test_decay_one_is_empirical_mean_bitwise(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            trace = VerdictTrace(n, (rng.random(n) < rng.random()).tolist())
            assert weighted_mean(trace, 1.0) == empirical_mean(trace)

    def test_hand_example(self):
        # Newest last: weights 1, 0.5, 0.25 from newest backwards.
        trace = VerdictTrace(3, [False, False, True])
        assert weighted_mean(trace, 0.5) == pytest.approx(1.0 / 1.75, abs=1e-12)

    def test_all_true_any_decay(self):
        for decay in (0.1, 0.5, 0.9, 1.0):
            assert weighted_mean(VerdictTrace(5, [True] * 5), decay) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_decay_out_of_range(self):
        trace = VerdictTrace(3, [True])
        for decay in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                weighted_mean(trace, decay)


class TestForwardBias:
    def test_perfect_detector_identity(self):
        assert forward_bias(0.3, DetectorProfile(1.0, 1.0)) == pytest.approx(0.3, abs=1e-12)

    def test_false_positive_floor(self):
        assert forward_bias(0.0, DetectorProfile(0.9, 0.8)) == pytest.approx(0.2, abs=1e-12)

    def test_direct_evaluation(self):
        assert forward_bias(0.4, DetectorProfile(0.9, 0.8)) == pytest.approx(0.48, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        # Verdicts drawn at the true rate recovered by rogan_gladen(0.5)
        # really do average to the observed mean that was inverted.
        rng = np.random.default_rng(31)
        profile = DetectorProfile(0.9, 0.8)
        p_true = 3.0 / 7.0
        n = 200_000
        flags = rng.random(n) < p_true
        draws = rng.random(n)
        verdicts = np.where(flags, draws < profile.tpr, draws >= profile.tnr)
        assert verdicts.mean() == pytest.approx(forward_bias(p_true, profile), abs=0.005)
        assert verdicts.mean() == pytest.approx(0.5, abs=0.005)


class TestRoganGladen:
    def test_perfect_detector_identity(self):
        estimate = rogan_gladen(0.3, DetectorProfile(1.0, 1.0))
        assert estimate.corrected == pytest.approx(0.3, abs=1e-12)
        assert not estimate.clamped

    def test_inversion_example(self):
        estimate = rogan_gladen(0.5, DetectorProfile(0.9, 0.8))
        assert estimate.corrected == pytest.approx(3.0 / 7.0, abs=1e-12)
        assert not estimate.clamped

    def test_clamped_negative(self):
        estimate = rogan_gladen(0.1, DetectorProfile(0.9, 0.8))
        assert estimate.pre_clamp == pytest.approx(-1.0 / 7.0, abs=1e-12)
        assert estimate.corrected == 0.0
        assert estimate.clamped

    def test_uninformative_detector_rejected(self):
        with pytest.raises(UninformativeDetectorError):
            rogan_gladen(0.5, DetectorProfile(0.5, 0.5))
        # The floor is inclusive: J exactly at epsilon still refuses.
        profile = DetectorProfile(0.6, 0.6)
        with pytest.raises(UninformativeDetectorError):
            rogan_gladen(0.5, profile, epsilon=profile.informativeness)

    @settings(max_examples=300, deadline=None, database=None)
    @given(p=unit_floats, tpr=unit_floats, tnr=unit_floats)
    def test_inversion_property(self, p, tpr, tnr):
        # Correcting the forward-biased mean recovers the true rate anywhere
        # on the informative region, endpoints and the J floor included.
        profile = DetectorProfile(tpr, tnr)
        assume(profile.informativeness > 0.05)
        estimate = rogan_gladen(forward_bias(p, profile), profile)
        assert abs(estimate.pre_clamp - p) <= 1e-12
        assert estimate.corrected == pytest.approx(p, abs=1e-12)

    def test_clamp_flag_truthfulness(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            profile = DetectorProfile(0.5 + 0.5 * rng.random(), 0.5 + 0.5 * rng.random())
            if profile.informativeness <= 0.05:
                continue
            estimate = rogan_gladen(rng.random(), profile)
            assert estimate.clamped == (abs(estimate.pre_clamp - estimate.corrected) > 0)

    def test_consistency_monte_carlo(self):
        # Windowed corrected estimates converge: with a full W=1000 trace
        # and an informative detector, |error| < 0.05 in >= 95% of trials.
        rng = np.random.default_rng(47)
        profile = DetectorProfile(0.9, 0.9)
        p_true = 0.3
        trials = 1000
        window = 1000
        flags = rng.random((trials, window)) < p_true
        draws = rng.random((trials, window))
        verdicts = np.where(flags, draws < profile.tpr, draws >= profile.tnr)
        means = verdicts.mean(axis=1)
        errors = [
            abs(rogan_gladen(float(mean), profile).corrected - p_true) for mean in means
        ]
        assert np.mean(np.array(errors) < 0.05) >= 0.95


class TestCalibrateProfile:
    def test_perfect_detector(self):
        labeled = [(True, True)] * 5 + [(False, False)] * 5
        profile = calibrate_profile(labeled)
        assert profile.tpr == 1.0 and profile.tnr == 1.0

    def test_counting(self):
        labeled = [(True, True)] * 7 + [(False, True)] * 3  # 7/10 OOD flagged
        labeled += [(False, False)] * 9 + [(True, False)] * 1  # 9/10 InD passed
        profile = calibrate_profile(labeled)
        assert profile.tpr == pytest.approx(0.7, abs=1e-12)
        assert profile.tnr == pytest.approx(0.9, abs=1e-12)

    def test_missing_class_named(self):
        with pytest.raises(CalibrationError, match="InD"):
            calibrate_profile([(True, True)] * 3)
        with pytest.raises(CalibrationError, match="OOD"):
            calibrate_profile([(False, False)] * 3)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(53)
        n = 100_000
        is_ood = rng.random(n) < 0.5
        draws = rng.random(n)
        verdicts = np.where(is_ood, draws < 0.8, draws >= 0.6)
        profile = calibrate_profile(zip(verdicts.tolist(), is_ood.tolist()))
        assert profile.tpr == pytest.approx(0.8, abs=0.01)
        assert profile.tnr == pytest.approx(0.6, abs=0.01)


class TestConditionalAccuracy:
    def test_all_correct_partition(self):
        rows = [(False, False, True)] * 4
        table = conditional_accuracy(rows)
        assert table.accuracy(IND) == 1.0
        assert table.support(IND) == 4
        assert table.accuracy(IND_NEG) == 1.0

    def test_zero_support_flagged_not_fabricated(self):
        rows = [(False, False, True), (True, True, False)]
        table = conditional_accuracy(rows)
        assert table.accuracy(OOD_NEG) is None
        assert table.support(OOD_NEG) == 0
        assert OOD_NEG in table.data_free_conditions()
        assert OOD_NEG not in table.tree_accuracies()

    def test_marginals_only_without_verdicts(self):
        rows = [(False, None, True), (True, None, False)]
        table = conditional_accuracy(rows)
        assert table.accuracy(IND) == 1.0
        assert table.accuracy(OOD) == 0.0
        assert IND_NEG not in table.cells

    def test_monte_carlo_rates(self):
        # Generator accuracies 0.90 (InD) / 0.33 (OOD) recovered within 0.01.
        rng = np.random.default_rng(59)
        n = 100_000
        is_ood = rng.random(n) < 0.4
        verdict_draws = rng.random(n)
        verdicts = np.where(is_ood, verdict_draws < 0.8, verdict_draws >= 0.7)
        correct = np.where(is_ood, rng.random(n) < 0.33, rng.random(n) < 0.90)
        table = conditional_accuracy(
            zip(is_ood.tolist(), verdicts.tolist(), correct.tolist())
        )
        assert table.accuracy(IND) == pytest.approx(0.90, abs=0.01)
        assert table.accuracy(OOD) == pytest.approx(0.33, abs=0.01)
        assert table.accuracy(OOD_NEG) == pytest.approx(0.33, abs=0.02)

    def test_round_trip_dict(self):
        rows = [(False, False, True), (True, True, False), (True, False, True)]
        table = conditional_accuracy(rows)
        from driftrisk.estimation import ConditionalAccuracyTable

        clone = ConditionalAccuracyTable.from_dict(table.to_dict())
        assert clone.to_dict() == table.to_dict()
