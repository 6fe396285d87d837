"""Synthetic detectors and profile grids."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftrisk.detectors import SyntheticDetector, detector_grid
from driftrisk.errors import ValidationError
from driftrisk.estimation import DetectorProfile

from conftest import where_judge_many

# Flag arrays of every rank judge_many meets: 0-d, empty, 1-D and 2-D.
flag_arrays = st.one_of(
    st.booleans().map(np.asarray),
    st.tuples(st.integers(0, 40), st.integers(0, 40)).flatmap(
        lambda shape: st.lists(
            st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda flags: np.array(flags, dtype=bool).reshape(shape))
    ),
    st.lists(st.booleans(), max_size=300).map(lambda flags: np.array(flags, dtype=bool)),
)
# Rates at and between the ends, where a comparison flips on equality.
edge_rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestSyntheticDetector:
    def test_perfect_profile_echoes_ground_truth(self):
        detector = SyntheticDetector(DetectorProfile(1.0, 1.0), seed=3)
        for flag in (True, False, True, True, False):
            assert detector.judge(flag) == flag

    def test_rates_converge(self):
        detector = SyntheticDetector(DetectorProfile(0.8, 0.6), seed=11)
        n = 100_000
        positives_on_ood = detector.judge_many(np.ones(n, dtype=bool)).mean()
        negatives_on_ind = 1.0 - detector.judge_many(np.zeros(n, dtype=bool)).mean()
        assert positives_on_ood == pytest.approx(0.8, abs=0.01)
        assert negatives_on_ind == pytest.approx(0.6, abs=0.01)

    def test_rates_within_binomial_bounds(self):
        # 3-sigma binomial bound on the empirical TPR/TNR at n = 10^4.
        rng = np.random.default_rng(13)
        for _ in range(10):
            tpr, tnr = rng.random(), rng.random()
            detector = SyntheticDetector(
                DetectorProfile(tpr, tnr), seed=int(rng.integers(1 << 31))
            )
            n = 10_000
            tpr_hat = detector.judge_many(np.ones(n, dtype=bool)).mean()
            tnr_hat = 1.0 - detector.judge_many(np.zeros(n, dtype=bool)).mean()
            for est, true in ((tpr_hat, tpr), (tnr_hat, tnr)):
                bound = 3.0 * np.sqrt(true * (1.0 - true) / n) + 1e-9
                assert abs(est - true) <= bound

    def test_deterministic_under_seed(self):
        inputs = (np.random.default_rng(7).random(1000) < 0.5).tolist()
        a = SyntheticDetector(DetectorProfile(0.7, 0.6), seed=99)
        b = SyntheticDetector(DetectorProfile(0.7, 0.6), seed=99)
        assert [a.judge(x) for x in inputs] == [b.judge(x) for x in inputs]

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        tpr=st.floats(0.0, 1.0),
        tnr=st.floats(0.0, 1.0),
        flags=st.lists(st.booleans(), max_size=300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_and_vector_agree(self, tpr, tnr, flags, seed):
        # Scalar draws equal one vector draw from the same generator.
        a = SyntheticDetector(DetectorProfile(tpr, tnr), seed=seed)
        b = SyntheticDetector(DetectorProfile(tpr, tnr), seed=seed)
        assert [a.judge(x) for x in flags] == b.judge_many(np.array(flags, dtype=bool)).tolist()

    @settings(max_examples=150, deadline=None, database=None)
    @given(tpr=edge_rates, tnr=edge_rates, flags=flag_arrays, seed=st.integers(0, 2**32 - 1))
    def test_judge_many_equals_where_form(self, tpr, tnr, flags, seed):
        # The in-place boolean form gives the np.where select's bits from
        # the same draws, and leaves the generator where it leaves it.
        profile = DetectorProfile(tpr, tnr)
        detector = SyntheticDetector(profile, seed=seed)
        reference_rng = np.random.default_rng(seed)
        verdicts = detector.judge_many(flags)
        expected = where_judge_many(profile, reference_rng, flags)
        assert isinstance(verdicts, np.ndarray)
        assert verdicts.shape == expected.shape
        assert verdicts.dtype == bool
        assert (verdicts == expected).all()
        assert detector.rng.bit_generator.state == reference_rng.bit_generator.state


class TestJudgeBatch:
    def test_uniform_ood_batch(self):
        detector = SyntheticDetector(DetectorProfile(1.0, 1.0), seed=0)
        assert detector.judge_batch(True) is True

    def test_zero_fraction_is_ind(self):
        detector = SyntheticDetector(DetectorProfile(1.0, 1.0), seed=0)
        assert detector.judge_batch(0.0) is False

    def test_majority_rule(self):
        detector = SyntheticDetector(DetectorProfile(1.0, 1.0), seed=0)
        assert detector.judge_batch(0.7) is True
        assert detector.judge_batch(0.5) is True  # ties count as OOD
        assert detector.judge_batch(0.49) is False

    def test_flag_sequence(self):
        detector = SyntheticDetector(DetectorProfile(1.0, 1.0), seed=0)
        assert detector.judge_batch([True, True, False]) is True
        assert detector.judge_batch([True, False, False]) is False

    def test_empty_batch_rejected(self):
        detector = SyntheticDetector(DetectorProfile(1.0, 1.0), seed=0)
        with pytest.raises(ValidationError):
            detector.judge_batch([])

    def test_fraction_out_of_range_rejected(self):
        detector = SyntheticDetector(DetectorProfile(1.0, 1.0), seed=0)
        with pytest.raises(ValidationError):
            detector.judge_batch(1.5)


class TestDetectorGrid:
    def test_default_grid_has_55_profiles(self):
        grid = detector_grid(0.1, 0.5)
        assert len(grid) == 55
        assert all(p.balanced_accuracy > 0.5 for p in grid)
        assert all(abs(p.tpr * 10 - round(p.tpr * 10)) < 1e-9 for p in grid)

    def test_impossible_floor_is_empty(self):
        assert detector_grid(0.1, 1.0) == []

    def test_coarse_grid(self):
        grid = {(p.tpr, p.tnr) for p in detector_grid(0.5, 0.5)}
        assert grid == {(0.5, 1.0), (1.0, 0.5), (1.0, 1.0)}

    def test_symmetric_under_swap(self):
        grid = {(p.tpr, p.tnr) for p in detector_grid(0.1, 0.5)}
        assert grid == {(tnr, tpr) for tpr, tnr in grid}

    def test_boundary_profiles_excluded(self):
        # Pairs at balanced accuracy exactly 0.5 must not leak in.
        grid = {(p.tpr, p.tnr) for p in detector_grid(0.1, 0.5)}
        assert (0.6, 0.4) not in grid
        assert (0.5, 0.5) not in grid

    def test_step_validation(self):
        with pytest.raises(ValidationError):
            detector_grid(0.0)
