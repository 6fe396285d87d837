"""Stream generation, percentile rule, deployment runs."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftrisk.detectors import SyntheticDetector
from driftrisk.errors import ConfigurationError, ValidationError
from driftrisk.estimation import DetectorProfile
from driftrisk.event_tree import (
    CORRECT_DETECTION,
    FAILED_DETECTION,
    IND,
    NECESSARY_INTERVENTION,
    OOD,
    TreeParams,
    UNNECESSARY_INTERVENTION,
    build_base_tree,
    expected_accuracy,
)
from driftrisk.monitor import Monitor, MonitorConfig
from driftrisk.simulation import (
    MAX_STREAM_SAMPLES,
    AccuracyOracle,
    DeploymentTrace,
    OodFold,
    StreamConfig,
    batch_correct_probability,
    generate_stream,
    ind_percentile_threshold,
    run_deployment,
    sequential_sum,
)

from conftest import make_full_table


def simple_oracle(ind=0.9, ood=0.33) -> AccuracyOracle:
    return AccuracyOracle.single(ind, ood)


class TestSequentialSum:
    @staticmethod
    def loop(values) -> float:
        total = 0.0
        for value in values:
            total += value
        return total

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=200))
    def test_equals_a_python_loop(self, values):
        result = sequential_sum(values)
        assert result == self.loop(values)
        assert math.copysign(1.0, result) == math.copysign(1.0, self.loop(values))
        assert sequential_sum(np.array(values)) == result

    def test_rounds_as_a_loop_not_compensated(self):
        # A compensated sum gives 2.0 here; adding in order loses both 1.0s.
        values = [1.0, 1e100, 1.0, -1e100]
        assert sequential_sum(values) == self.loop(values) == 0.0

    def test_empty_and_negative_zero(self):
        assert sequential_sum([]) == 0.0
        assert math.copysign(1.0, sequential_sum([-0.0, -0.0])) == 1.0


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            StreamConfig(batch_size=0, shift_rate=0.5, horizon=10)
        with pytest.raises(ValidationError):
            StreamConfig(batch_size=1, shift_rate=1.3, horizon=10)
        with pytest.raises(ValidationError):
            StreamConfig(batch_size=1, shift_rate=0.5, horizon=0)
        with pytest.raises(ValidationError):
            StreamConfig(batch_size=1, shift_rate=0.5, horizon=10, mixture_fraction=2.0)


class TestGenerateStream:
    def test_zero_rate_has_no_events(self):
        stream = generate_stream(
            StreamConfig(batch_size=4, shift_rate=0.0, horizon=200, seed=1), simple_oracle()
        )
        assert not stream.is_ood.any()
        assert not stream.event.any()

    def test_certain_rate_is_all_events(self):
        stream = generate_stream(
            StreamConfig(batch_size=4, shift_rate=1.0, horizon=200, seed=1), simple_oracle()
        )
        assert stream.is_ood.all()

    def test_event_fraction_confidence_interval(self):
        # Binomial 99% CI at n = 10^4, p = 0.3 is about +/- 0.012.
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=0.3, horizon=10_000, seed=2),
            simple_oracle(),
        )
        fraction = stream.is_ood.mean()
        assert fraction == pytest.approx(0.3, abs=0.012)

    def test_uniform_batches_never_mix(self):
        stream = generate_stream(
            StreamConfig(batch_size=16, shift_rate=0.5, horizon=300, seed=3), simple_oracle()
        )
        assert np.isin(stream.ood_fraction, (0.0, 1.0)).all()
        assert stream.ood_fraction.dtype == np.float64
        assert np.array_equal(stream.ood_fraction, stream.event.astype(float))

    def test_mixture_fraction_honored(self):
        stream = generate_stream(
            StreamConfig(
                batch_size=64, shift_rate=1.0, horizon=400, uniform=False,
                mixture_fraction=0.7, seed=4,
            ),
            simple_oracle(),
        )
        mean_fraction = stream.ood_fraction.mean()
        assert mean_fraction == pytest.approx(0.7, abs=0.02)

    def test_mixture_fraction_drawn_uniform_when_unset(self):
        stream = generate_stream(
            StreamConfig(
                batch_size=64, shift_rate=1.0, horizon=2000, uniform=False, seed=5
            ),
            simple_oracle(),
        )
        fractions = stream.ood_fraction
        assert fractions.mean() == pytest.approx(0.5, abs=0.03)
        # Roughly half the shifted batches are majority-OOD.
        assert np.mean(fractions >= 0.5) == pytest.approx(0.5, abs=0.04)

    def test_fold_weights_honored(self):
        oracle = AccuracyOracle(
            0.9, (OodFold("a", 0.5, 0.7), OodFold("b", 0.2, 0.3))
        )
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=1.0, horizon=10_000, seed=6), oracle
        )
        names = [oracle.folds[i].name if event else None
                 for i, event in zip(stream.fold, stream.event)]
        share_a = names.count("a") / len(names)
        assert share_a == pytest.approx(0.7, abs=0.015)

    def test_determinism(self):
        config = StreamConfig(batch_size=8, shift_rate=0.4, horizon=500, seed=7)
        a = generate_stream(config, simple_oracle())
        b = generate_stream(config, simple_oracle())
        for name in ("event", "fold", "ood_fraction", "correct"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.is_ood, b.is_ood)
        assert np.array_equal(a.accuracy, b.accuracy)

    def test_correctness_rates_match_oracle(self):
        oracle = simple_oracle(0.9, 0.33)
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=0.5, horizon=50_000, seed=8), oracle
        )
        ind_acc = stream.accuracy[~stream.is_ood].mean()
        ood_acc = stream.accuracy[stream.is_ood].mean()
        assert ind_acc == pytest.approx(0.9, abs=0.01)
        assert ood_acc == pytest.approx(0.33, abs=0.01)


class TestStreamSize:
    def test_samples_capped_before_anything_is_drawn(self):
        StreamConfig(batch_size=1, shift_rate=0.3, horizon=MAX_STREAM_SAMPLES)
        StreamConfig(batch_size=MAX_STREAM_SAMPLES, shift_rate=0.3, horizon=1)
        with pytest.raises(ValidationError, match="at most 10000000 samples, got 5000001 x 2"):
            StreamConfig(batch_size=2, shift_rate=0.3, horizon=MAX_STREAM_SAMPLES // 2 + 1)


class TestPercentileThreshold:
    def test_constant_sequence(self):
        assert ind_percentile_threshold([0.9] * 10, 1.0) == pytest.approx(0.9, abs=1e-12)

    def test_interpolation_midpoint(self):
        assert ind_percentile_threshold([0.0, 1.0], 50.0) == pytest.approx(0.5, abs=1e-12)

    def test_order_statistic_oracle(self):
        values = np.linspace(0.0, 1.0, 101)
        assert ind_percentile_threshold(values, 1.0) == pytest.approx(0.01, abs=1e-12)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.9375, 1.0]),
                st.floats(-1e300, 1e300, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        percentile=st.one_of(
            st.sampled_from([0, 1, 1.0, 5.0, 50, 99.5, 100]),
            st.floats(0, 100),
        ),
    )
    @example(values=[-0.0], percentile=50)
    @example(values=[0.5, -0.0], percentile=0)
    @example(values=[0.0, 1.0], percentile=100)
    def test_equals_np_percentile_bit_for_bit(self, values, percentile):
        expected = float(np.percentile(values, percentile))
        assert repr(ind_percentile_threshold(values, percentile)) == repr(expected)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ind_percentile_threshold([], 1.0)
        with pytest.raises(ValidationError):
            ind_percentile_threshold([0.5], 101.0)


def judged(stream, threshold, seed=0):
    """A deployment with a perfect detector: batch correctness is the point."""
    profile = DetectorProfile(1.0, 1.0)
    return run_deployment(
        stream, SyntheticDetector(profile, seed), make_monitor(profile), threshold
    )


class TestBatchCorrect:
    def test_above_threshold(self):
        stream = generate_stream(
            StreamConfig(batch_size=4, shift_rate=0.0, horizon=1, seed=9),
            simple_oracle(1.0, 0.0),
        )
        assert judged(stream, 0.7).batch_correct[0]

    def test_boundary_is_correct(self):
        # Accuracy exactly at the threshold counts as correct.
        stream = generate_stream(
            StreamConfig(batch_size=4, shift_rate=0.0, horizon=1, seed=9),
            simple_oracle(1.0, 0.0),
        )
        assert stream.accuracy[0] == 1.0
        trace = judged(stream, 1.0)
        assert trace.batch_accuracy[0] == 1.0
        assert trace.batch_correct[0]

    def test_single_sample_degenerates_to_correctness(self):
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=0.0, horizon=200, seed=10),
            simple_oracle(0.7, 0.0),
        )
        assert np.array_equal(judged(stream, 0.5).batch_correct, stream.correct[:, 0])


class TestBatchCorrectProbability:
    def test_single_sample(self):
        assert batch_correct_probability(0.73, 1, 0.5) == pytest.approx(0.73, abs=1e-12)

    def test_exact_binomial_tail(self):
        # P(X >= 3), X ~ Binom(4, 0.8).
        expected = sum(
            math.comb(4, k) * 0.8**k * 0.2 ** (4 - k) for k in (3, 4)
        )
        assert batch_correct_probability(0.8, 4, 0.75) == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(13)
        acc, size, threshold = 0.85, 32, 0.78125  # 25/32
        draws = (rng.random((200_000, size)) < acc).mean(axis=1)
        empirical = np.mean(draws >= threshold)
        assert batch_correct_probability(acc, size, threshold) == pytest.approx(
            empirical, abs=0.005
        )

    def test_extremes(self):
        assert batch_correct_probability(0.5, 8, 0.0) == 1.0
        assert batch_correct_probability(1.0, 8, 1.0) == 1.0
        assert batch_correct_probability(0.0, 8, 0.5) == 0.0


def make_monitor(profile, topology="base", acc_ind=0.9, acc_ood=0.33, capacity=100, **kwargs):
    return Monitor(
        MonitorConfig(
            topology=topology,
            profile=profile,
            accuracies=make_full_table(acc_ind, acc_ood),
            trace_capacity=capacity,
            prior_rate=0.5,
            **kwargs,
        )
    )


class TestRunDeployment:
    def test_perfect_composition(self):
        # Perfect detector, InD always right, OOD always wrong: realized
        # accuracy approximates 1 - rate.
        rate = 0.3
        oracle = simple_oracle(1.0, 0.0)
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=rate, horizon=5000, seed=14), oracle
        )
        trace = run_deployment(
            stream,
            SyntheticDetector(DetectorProfile(1.0, 1.0), seed=15),
            make_monitor(DetectorProfile(1.0, 1.0), acc_ind=1.0, acc_ood=0.0),
            0.5,
        )
        assert trace.realized_accuracy() == pytest.approx(1.0 - rate, abs=0.02)

    def test_realized_accuracy_matches_tree(self, case_study_oracle):
        # Monte Carlo deployment against the analytic traversal value.
        rate = 0.3
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=rate, horizon=10_000, seed=16),
            case_study_oracle,
        )
        trace = run_deployment(
            stream,
            SyntheticDetector(DetectorProfile(1.0, 1.0), seed=17),
            make_monitor(
                DetectorProfile(1.0, 1.0),
                acc_ind=case_study_oracle.ind_accuracy,
                acc_ood=case_study_oracle.ood_accuracy,
            ),
            0.5,
        )
        tree = build_base_tree(
            TreeParams(
                rate,
                {
                    IND: case_study_oracle.ind_accuracy,
                    OOD: case_study_oracle.ood_accuracy,
                },
            )
        )
        assert trace.realized_accuracy() == pytest.approx(
            expected_accuracy(tree), abs=0.02
        )

    def test_deterministic_trace(self):
        oracle = simple_oracle()
        profile = DetectorProfile(0.8, 0.7)
        config = StreamConfig(batch_size=1, shift_rate=0.4, horizon=400, seed=18)

        def run():
            return run_deployment(
                generate_stream(config, oracle),
                SyntheticDetector(profile, seed=19),
                make_monitor(profile),
                0.5,
            )

        a, b = run(), run()
        assert len(a) == len(b) == config.horizon
        for name in ("is_ood", "verdict", "batch_accuracy", "batch_correct"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for name in a.assessments._fields:
            assert np.array_equal(getattr(a.assessments, name), getattr(b.assessments, name)), name

    def test_monitor_is_left_unchanged(self):
        # A deployment never pushes its verdicts into the monitor's window,
        # so one monitor serves many deployments.
        oracle = simple_oracle()
        profile = DetectorProfile(0.8, 0.7)
        shared = make_monitor(profile, capacity=40)
        before = shared.snapshot()
        for seed in (24, 25):
            stream = generate_stream(
                StreamConfig(batch_size=1, shift_rate=0.4, horizon=200, seed=seed), oracle
            )
            reused = run_deployment(stream, SyntheticDetector(profile, seed=seed), shared, 0.5)
            assert shared.snapshot() == before
            fresh = run_deployment(
                stream, SyntheticDetector(profile, seed=seed),
                make_monitor(profile, capacity=40), 0.5,
            )
            for name in reused.assessments._fields:
                assert np.array_equal(
                    getattr(reused.assessments, name), getattr(fresh.assessments, name)
                ), name

    def test_suffix_windows(self):
        oracle = simple_oracle()
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=0.5, horizon=300, seed=20), oracle
        )
        trace = run_deployment(
            stream,
            SyntheticDetector(DetectorProfile(0.9, 0.9), seed=21),
            make_monitor(DetectorProfile(0.9, 0.9), capacity=50),
            0.5,
        )
        assert trace.warmup_end() == 49
        assert 0.0 <= trace.realized_accuracy(49) <= 1.0
        with pytest.raises(ValidationError):
            trace.realized_accuracy(len(trace))

    def test_realized_cost(self, outcome_costs):
        oracle = simple_oracle(1.0, 0.0)
        stream = generate_stream(
            StreamConfig(batch_size=1, shift_rate=0.0, horizon=50, seed=22), oracle
        )
        trace = run_deployment(
            stream,
            SyntheticDetector(DetectorProfile(1.0, 1.0), seed=23),
            make_monitor(DetectorProfile(1.0, 1.0), acc_ind=1.0, acc_ood=0.0),
            0.5,
        )
        assert trace.realized_mean_cost(outcome_costs, True) == 635.0
        assert trace.realized_mean_cost(outcome_costs, False) == 635.0


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tpr=st.floats(0.0, 1.0),
    tnr=st.floats(0.0, 1.0),
    batch_size=st.integers(1, 9),
    shift_rate=st.floats(0.0, 1.0),
    uniform=st.booleans(),
)
def test_run_deployment_verdicts_match_judge_batch(
    seed, tpr, tnr, batch_size, shift_rate, uniform
):
    # One judge_many draw per deployment equals the per-batch judge_batch
    # loop it replaced, mixed batches included.
    config = StreamConfig(
        batch_size=batch_size, shift_rate=shift_rate, horizon=60, uniform=uniform, seed=seed
    )
    stream = generate_stream(config, simple_oracle())
    profile = DetectorProfile(tpr, tnr)
    monitor = make_monitor(DetectorProfile(0.9, 0.8))
    trace = run_deployment(stream, SyntheticDetector(profile, seed=seed), monitor, 0.5)
    loop = SyntheticDetector(profile, seed=seed)
    assert trace.verdict.tolist() == [
        loop.judge_batch(f) for f in stream.ood_fraction.tolist()
    ]
    assert trace.is_ood.tolist() == [f >= 0.5 for f in stream.ood_fraction.tolist()]


def loop_realized_mean_cost(trace, costs, with_interventions, start=0):
    """realized_mean_cost as a per-batch loop, kept as its reference."""
    window = trace.verdict[start:]
    if len(window) == 0:
        raise ValidationError("empty suffix window")
    total = 0.0
    for verdict, is_ood, correct in zip(
        window.tolist(), trace.is_ood[start:].tolist(), trace.batch_correct[start:].tolist()
    ):
        if with_interventions and verdict:
            outcome = NECESSARY_INTERVENTION if is_ood else UNNECESSARY_INTERVENTION
        else:
            outcome = CORRECT_DETECTION if correct else FAILED_DETECTION
        try:
            total += costs[outcome]
        except KeyError:
            raise ConfigurationError(f"no cost entry for outcome {outcome!r}") from None
    return total / len(window)


OUTCOMES = (CORRECT_DETECTION, FAILED_DETECTION, NECESSARY_INTERVENTION, UNNECESSARY_INTERVENTION)


cost_values = st.one_of(
    st.floats(0.0, 1e6),
    st.integers(0, 10**6),
    st.sampled_from([0.0, 0.1, 1e-300, 5e-324, 1e300]),
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    batches=st.lists(
        st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=300
    ),
    costs=st.fixed_dictionaries({outcome: cost_values for outcome in OUTCOMES}),
    unpriced=st.one_of(st.just(set()), st.sets(st.sampled_from(OUTCOMES), min_size=1)),
    with_interventions=st.booleans(),
    start=st.integers(0, 300),
)
def test_realized_mean_cost_equals_the_loop(
    batches, costs, unpriced, with_interventions, start
):
    # Same value (==), same error and the same outcome named in it: a
    # missing cost fails only when the window holds its outcome, and the
    # first such batch names it.
    costs = {outcome: cost for outcome, cost in costs.items() if outcome not in unpriced}
    verdict, is_ood, correct = (np.array(column, dtype=bool) for column in zip(*batches))
    trace = DeploymentTrace(
        is_ood=is_ood,
        verdict=verdict,
        batch_accuracy=correct.astype(float),
        batch_correct=correct,
        assessments=None,
    )
    try:
        expected = loop_realized_mean_cost(trace, costs, with_interventions, start)
    except (ConfigurationError, ValidationError) as exc:
        with pytest.raises(type(exc)) as raised:
            trace.realized_mean_cost(costs, with_interventions, start)
        assert str(raised.value) == str(exc)
    else:
        assert trace.realized_mean_cost(costs, with_interventions, start) == expected
