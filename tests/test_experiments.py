"""Sweep harness: MAE, baselines, reports, risk curves, CBA."""

from __future__ import annotations

import concurrent.futures
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftrisk import experiments
from driftrisk.errors import ValidationError
from driftrisk.estimation import DEFAULT_J_FLOOR, DetectorProfile
from driftrisk.event_tree import build_rv_tree, expected_risk
from driftrisk.experiments import (
    CellResult,
    ErrorReport,
    SweepGrid,
    accuracy_error_sweep,
    batched_accuracy_table,
    cba_surface,
    crossing_rate,
    RATE_BLOCK_VERDICTS,
    derive_seed,
    mae,
    rate_error_cell,
    rate_error_sweep,
    risk_curve,
    shifted_tree_params,
)
from driftrisk.detectors import SyntheticDetector
from driftrisk.monitor import Monitor, MonitorConfig
from driftrisk.simulation import AccuracyOracle, StreamConfig, generate_stream, run_deployment

from conftest import (
    CASE_STUDY_COSTS,
    CASE_STUDY_PROFILE,
    CASE_STUDY_THRESHOLD,
    exact_rate_error,
    make_rv_params,
    where_judge_many,
    window_law,
)


class TestMae:
    def test_identical(self):
        assert mae([0.1, 0.2], [0.1, 0.2]) == 0.0

    def test_half(self):
        assert mae([1.0, 0.0], [1.0, 1.0]) == 0.5

    def test_hand_arithmetic(self):
        assert mae([0.2, 0.4, 0.9], [0.1, 0.5, 0.6]) == pytest.approx(1 / 6, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            mae([], [])


class TestBaseline:
    def test_expected_error_is_rate_times_gap(self):
        # The baseline estimates acc_ind at every rate, so its error is
        # |acc_ind - ((1-r) acc_ind + r acc_ood)| = r (acc_ind - acc_ood).
        acc_ind, acc_ood, rate = 0.90, 0.33, 0.5
        truth = (1 - rate) * acc_ind + rate * acc_ood
        assert abs(acc_ind - truth) == pytest.approx(0.285, abs=1e-12)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

    @pytest.mark.parametrize(
        "coords,seed,draws",
        [
            ((0,), 2968811710, [1826701615, 1367864807, 1097657232]),
            ((7, 101, 0, 3, 20, 1), 4167352422, [1736588081, 1632620811, 903482688]),
            ((20240901, 7), 1051532114, [876161023, 1834762251, 2018763960]),
            ((2**32 - 1, 404, 16), 3334500475, [1877404427, 764419306, 1968916898]),
        ],
    )
    def test_seeding_keeps_the_values(self, coords, seed, draws):
        # Pinned values: SeedSequence([m, *c]) for the integer seed and
        # default_rng([m, *c]) for the cell generator, which both helpers
        # must keep giving.
        assert derive_seed(*coords) == seed
        assert derive_seed(*coords) == int(
            np.random.SeedSequence(list(coords)).generate_state(1)[0]
        )
        assert experiments._cell_rng(*coords).integers(0, 2**31, 3).tolist() == draws
        assert np.random.default_rng(list(coords)).integers(0, 2**31, 3).tolist() == draws


def one_draw_rate_error_cell(grid: SweepGrid, coords: tuple[int, int, int]) -> CellResult:
    """rate_error_cell as one (seeds, window) draw, kept as its reference."""
    wi, pi, ri = coords
    window = grid.trace_lengths[wi]
    profile = grid.profiles[pi]
    rate = grid.rates[ri]
    axes = {
        "trace_length": window,
        "tpr": profile.tpr,
        "tnr": profile.tnr,
        "ba": profile.balanced_accuracy,
        "rate": rate,
    }
    if profile.informativeness <= DEFAULT_J_FLOOR:
        return CellResult(axes, None, None, 0, refused=True)
    gt_rng = np.random.default_rng([grid.master_seed, 101, wi, pi, ri, 0])
    detector_rng = np.random.default_rng([grid.master_seed, 101, wi, pi, ri, 1])
    flags = gt_rng.random((grid.seeds_per_cell, window)) < rate
    means = where_judge_many(profile, detector_rng, flags).mean(axis=1)
    corrected = np.clip((means - (1.0 - profile.tnr)) / profile.informativeness, 0.0, 1.0)
    errors = corrected - rate
    return CellResult(
        axes,
        mae=float(np.mean(np.abs(errors))),
        mean_signed_error=float(np.mean(errors)),
        n=grid.seeds_per_cell,
    )


def one_cell_grid(window: int, seeds: int, tpr: float, tnr: float, rate: float, master: int):
    return SweepGrid(
        rates=(rate,),
        profiles=(DetectorProfile(tpr, tnr),),
        trace_lengths=(window,),
        seeds_per_cell=seeds,
        horizon=window + 1,
        master_seed=master,
    )


class TestRateErrorCellBlocks:
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        window=st.integers(1, 60),
        seeds=st.integers(1, 25),
        block=st.integers(1, 400),
        tpr=st.floats(0.0, 1.0),
        tnr=st.floats(0.0, 1.0),
        rate=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
        master=st.integers(0, 2**32 - 1),
    )
    @example(window=7, seeds=1, block=3, tpr=0.9, tnr=0.8, rate=0.4, master=0)
    @example(window=7, seeds=11, block=1, tpr=0.9, tnr=0.8, rate=0.4, master=0)
    def test_blocks_equal_one_draw(self, window, seeds, block, tpr, tnr, rate, master):
        # Any block size, including blocks smaller than a row and seed
        # counts the block rows do not divide, gives every field of the
        # one-draw cell.
        grid = one_cell_grid(window, seeds, tpr, tnr, rate, master)
        with mock.patch.object(experiments, "RATE_BLOCK_VERDICTS", block):
            blocked = rate_error_cell(grid, (0, 0, 0))
        assert blocked == one_draw_rate_error_cell(grid, (0, 0, 0))

    @pytest.mark.parametrize(
        "window,seeds",
        [
            (RATE_BLOCK_VERDICTS + 1, 3),   # one row per block, wider than a block
            (RATE_BLOCK_VERDICTS, 2),       # one row fills a block exactly
            (2000, 33),                     # 32 rows per block, then one
            (2000, 1),
            (500, 200),                     # the case-study cell: 131 + 69 rows
        ],
    )
    def test_real_block_size_equals_one_draw(self, window, seeds):
        grid = one_cell_grid(window, seeds, 0.95, 0.55, 0.3, 7)
        assert rate_error_cell(grid, (0, 0, 0)) == one_draw_rate_error_cell(grid, (0, 0, 0))


class TestErrorReport:
    def _report(self):
        return ErrorReport(
            kind="test",
            cells=[
                CellResult({"ba": 0.8, "rate": 0.1}, 0.10, 0.05, 10),
                CellResult({"ba": 0.8, "rate": 0.5}, 0.20, -0.05, 10),
                CellResult({"ba": 0.9, "rate": 0.1}, 0.40, 0.10, 30),
                CellResult({"ba": 0.9, "rate": 0.5}, None, None, 0, refused=True),
            ],
        )

    def test_aggregate_is_weighted(self):
        by_ba = self._report().aggregate("ba")
        assert by_ba[0.8] == pytest.approx(0.15)
        assert by_ba[0.9] == pytest.approx(0.40)

    def test_aggregation_associativity(self):
        # Aggregating cells into sub-groups first gives the same totals.
        report = self._report()
        direct = report.aggregate("ba")
        staged: dict = {}
        for cell in report.cells:
            if cell.refused:
                continue
            bucket = staged.setdefault(cell.axes["ba"], [0.0, 0])
            bucket[0] += cell.mae * cell.n
            bucket[1] += cell.n
        assert {ba: s / n for ba, (s, n) in staged.items()} == pytest.approx(direct)

    def test_mae_bounds_mean_signed_error(self):
        grid = SweepGrid(
            rates=(0.2, 0.7),
            profiles=(DetectorProfile(0.8, 0.7),),
            trace_lengths=(50,),
            seeds_per_cell=20,
            horizon=100,
        )
        report = rate_error_sweep(grid)
        for cell in report.cells:
            assert cell.mae >= abs(cell.mean_signed_error)


class TestRateErrorSweep:
    def test_cells_agree_with_the_exact_binomial_law(self):
        # Each seed's error is an independent draw from the law of
        # exact_rate_error, so a cell's mean error has standard error
        # sd / sqrt(n).  Bounds fixed in advance: |z| <= 4 on every cell
        # and |mean z| <= 4 / sqrt(cells), for the MAE and the signed error.
        grid = SweepGrid(
            rates=(0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0),
            profiles=(
                DetectorProfile(0.95, 0.55),
                DetectorProfile(0.9, 0.85),
                DetectorProfile(0.7, 0.6),
                DetectorProfile(1.0, 1.0),
                DetectorProfile(0.5, 0.5),
            ),
            trace_lengths=(10, 40),
            seeds_per_cell=400,
            horizon=100,
            master_seed=11,
        )
        n = grid.seeds_per_cell
        z = {"mae": [], "signed": []}
        for cell in rate_error_sweep(grid).cells:
            if cell.refused:
                continue
            profile = DetectorProfile(cell.axes["tpr"], cell.axes["tnr"])
            law = window_law(cell.axes["trace_length"], profile, cell.axes["rate"])
            assert math.fsum(law) == pytest.approx(1.0, abs=1e-12)
            exact = exact_rate_error(cell.axes["trace_length"], profile, cell.axes["rate"])
            for name, value in (("mae", cell.mae), ("signed", cell.mean_signed_error)):
                if exact[f"{name}_sd"] == 0.0:
                    assert value == pytest.approx(exact[name], abs=1e-12)
                else:
                    z[name].append((value - exact[name]) / (exact[f"{name}_sd"] / math.sqrt(n)))
        for name, scores in z.items():
            assert len(scores) >= 50, name
            assert max(map(abs, scores)) <= 4.0, name
            assert abs(sum(scores) / len(scores)) <= 4.0 / math.sqrt(len(scores)), name

    def test_perfect_detector_error_bound(self):
        window = 400
        grid = SweepGrid(
            rates=(0.1, 0.5, 0.9),
            profiles=(DetectorProfile(1.0, 1.0),),
            trace_lengths=(window,),
            seeds_per_cell=30,
            horizon=2 * window,
            master_seed=3,
        )
        report = rate_error_sweep(grid)
        for cell in report.cells:
            assert cell.mae < 2.0 / np.sqrt(window)

    def test_uninformative_cells_are_refusals(self):
        grid = SweepGrid(
            rates=(0.5,),
            profiles=(DetectorProfile(0.5, 0.5), DetectorProfile(0.9, 0.9)),
            trace_lengths=(50,),
            seeds_per_cell=5,
            horizon=100,
        )
        report = rate_error_sweep(grid)
        refused = [cell for cell in report.cells if cell.refused]
        assert len(refused) == 1
        assert refused[0].axes["ba"] == 0.5
        assert refused[0].mae is None

    def test_error_improves_with_ba(self):
        grid = SweepGrid(
            rates=(0.2, 0.5, 0.8),
            profiles=(DetectorProfile(0.6, 0.6), DetectorProfile(0.95, 0.95)),
            trace_lengths=(300,),
            seeds_per_cell=30,
            horizon=600,
            master_seed=5,
        )
        by_ba = rate_error_sweep(grid).aggregate("ba")
        assert by_ba[0.95] < by_ba[0.6]

    def test_deterministic(self):
        grid = SweepGrid(
            rates=(0.3,),
            profiles=(DetectorProfile(0.8, 0.8),),
            trace_lengths=(100,),
            seeds_per_cell=5,
            horizon=300,
        )
        assert rate_error_sweep(grid) == rate_error_sweep(grid)

    def test_parallel_matches_serial(self):
        grid = SweepGrid(
            rates=(0.2, 0.8),
            profiles=(DetectorProfile(0.8, 0.8), DetectorProfile(0.9, 0.7)),
            trace_lengths=(100,),
            seeds_per_cell=5,
            horizon=300,
        )
        assert rate_error_sweep(grid, jobs=2) == rate_error_sweep(grid, jobs=1)

    def test_workers_bounded_by_cells_and_cpus(self, monkeypatch):
        started = []

        class RecordingPool:
            """Records its worker count and runs the cells here, starting nothing."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, evaluate, cells):
                return map(evaluate, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        grid = SweepGrid(
            rates=(0.2, 0.8),
            profiles=(DetectorProfile(0.8, 0.8), DetectorProfile(0.9, 0.7)),
            trace_lengths=(100,),
            seeds_per_cell=5,
            horizon=300,
        )  # 4 cells
        serial = rate_error_sweep(grid, jobs=1)
        for cpus, workers in ((3, 3), (64, 4), (None, None)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            started.clear()
            assert rate_error_sweep(grid, jobs=10**6) == serial
            assert started == ([] if workers is None else [workers])


class TestAccuracyErrorSweep:
    def test_perfect_information_has_low_error(self):
        grid = SweepGrid(
            rates=(0.3,),
            profiles=(DetectorProfile(1.0, 1.0),),
            trace_lengths=(100,),
            seeds_per_cell=5,
            horizon=1500,
            master_seed=7,
        )
        oracle = AccuracyOracle.single(0.9, 0.33)
        report = accuracy_error_sweep(grid, oracle)
        assert report.cells[0].mae < 0.03
        assert report.cells[0].baseline_mae is not None

    def test_method_beats_baseline_at_high_rate(self):
        grid = SweepGrid(
            rates=(0.6,),
            profiles=(DetectorProfile(0.9, 0.9),),
            trace_lengths=(100,),
            seeds_per_cell=5,
            horizon=1500,
            master_seed=9,
        )
        oracle = AccuracyOracle.single(0.9, 0.33)
        cell = accuracy_error_sweep(grid, oracle).cells[0]
        assert cell.mae < cell.baseline_mae

    def test_method_ties_baseline_at_zero_rate(self):
        # With no shift the clean validation number is already right, so
        # the method cannot do better; it must not do meaningfully worse.
        grid = SweepGrid(
            rates=(0.0,),
            profiles=(DetectorProfile(0.9, 0.9),),
            trace_lengths=(100,),
            seeds_per_cell=10,
            horizon=1500,
            master_seed=10,
        )
        oracle = AccuracyOracle.single(0.9, 0.33)
        cell = accuracy_error_sweep(grid, oracle).cells[0]
        assert cell.mae <= cell.baseline_mae + 0.02

    @pytest.mark.parametrize("topology", ["base", "rv"])
    @pytest.mark.parametrize("prior_rate", [0.5, 0.05])
    def test_cell_equals_a_monitor_per_seed(self, case_study_oracle, topology, prior_rate):
        # The cell assesses every seed with one monitor.  The reference
        # builds a fresh Monitor per seed, at a prior rate of its own: the
        # summaries start at the warm-up end, so the prior never shows.
        grid = SweepGrid(
            rates=(0.2, 0.7),
            profiles=(DetectorProfile(0.9, 0.8), DetectorProfile(0.7, 0.6)),
            batch_sizes=(1, 4),
            trace_lengths=(30,),
            seeds_per_cell=4,
            horizon=120,
            master_seed=17,
            topology=topology,
        )
        thresholds = tuple(
            experiments.validation_threshold(grid, case_study_oracle, size)
            for size in grid.batch_sizes
        )
        for bi, batch_size in enumerate(grid.batch_sizes):
            table, ind_eff, _ = batched_accuracy_table(
                case_study_oracle, batch_size, thresholds[bi]
            )
            for pi, profile in enumerate(grid.profiles):
                for ri, rate in enumerate(grid.rates):
                    method, baseline = [], []
                    for k in range(grid.seeds_per_cell):
                        coords = (experiments._ACCURACY_SWEEP_TAG, bi, 0, pi, ri, k)
                        stream = generate_stream(
                            StreamConfig(batch_size=batch_size, shift_rate=rate,
                                         horizon=120, seed=derive_seed(17, *coords, 0)),
                            case_study_oracle,
                        )
                        detector = SyntheticDetector(
                            profile, experiments._cell_rng(17, *coords, 1)
                        )
                        monitor = Monitor(MonitorConfig(topology, profile, table, prior_rate,
                                                        trace_capacity=30))
                        trace = run_deployment(stream, detector, monitor, thresholds[bi])
                        start = trace.warmup_end()
                        realized = trace.realized_accuracy(start)
                        method.append(trace.mean_expected_accuracy(start) - realized)
                        baseline.append(ind_eff - realized)
                    cell = experiments.accuracy_error_cell(
                        grid, case_study_oracle, thresholds, (bi, 0, pi, ri)
                    )
                    errors = np.array(method)
                    assert cell.mae == float(np.mean(np.abs(errors)))
                    assert cell.mean_signed_error == float(np.mean(errors))
                    assert cell.baseline_mae == float(
                        np.mean(np.abs(np.array(baseline)))
                    )

    @pytest.mark.parametrize("batch_size,percentile", [(1, 1.0), (8, 1.0), (16, 5.0)])
    def test_validation_threshold_rule(self, batch_size, percentile):
        # Written out: batch size 1 is pinned at 0.5; larger batches take the
        # percentile of validation_batches clean batch accuracies.
        grid = SweepGrid(master_seed=3, validation_batches=400, percentile=percentile)
        oracle = AccuracyOracle.single(0.85, 0.3)
        expected = 0.5
        if batch_size > 1:
            rng = np.random.default_rng(
                np.random.SeedSequence([3, experiments._VALIDATION_TAG, batch_size])
            )
            accs = (rng.random((400, batch_size)) < 0.85).mean(axis=1)
            expected = float(np.percentile(accs, percentile))
        assert experiments.validation_threshold(grid, oracle, batch_size) == expected

    def test_validation_draw_is_capped_by_the_largest_batch(self):
        # Only a grid is built: nothing of the refused size is drawn.
        SweepGrid(validation_batches=10**6, batch_sizes=(1, 10))
        with pytest.raises(ValidationError, match="got 1000000 x 16"):
            SweepGrid(validation_batches=10**6, batch_sizes=(16, 1))
        SweepGrid(seeds_per_cell=experiments.MAX_SEEDS_PER_CELL)

    def test_batched_accuracy_table_values(self):
        oracle = AccuracyOracle.single(0.9, 0.2)
        table, ind_eff, ood_eff = batched_accuracy_table(oracle, 1, 0.5)
        assert ind_eff == pytest.approx(0.9, abs=1e-12)
        assert ood_eff == pytest.approx(0.2, abs=1e-12)
        from driftrisk.event_tree import IND, OOD_NEG

        assert table.accuracy(IND) == pytest.approx(0.9, abs=1e-12)
        assert table.accuracy(OOD_NEG) == pytest.approx(0.2, abs=1e-12)


class TestCrossingRate:
    def test_linear_interpolation(self):
        assert crossing_rate([0.0, 1.0], [0.0, 100.0], 50.0) == pytest.approx(0.5)

    def test_never_crossing(self):
        assert crossing_rate([0.0, 0.5, 1.0], [1.0, 2.0, 3.0], 10.0) is None

    def test_crossing_at_first_point(self):
        assert crossing_rate([0.2, 0.4], [5.0, 6.0], 1.0) == 0.2

    def test_validation(self):
        with pytest.raises(ValidationError):
            crossing_rate([0.1], [1.0, 2.0], 0.5)
        with pytest.raises(ValidationError):
            crossing_rate([], [], 0.5)


class TestRiskCurve:
    def test_clean_system_risk_is_procedure_cost(self, outcome_costs):
        # Rate zero with a perfect detector and flawless InD model.
        oracle = AccuracyOracle.single(1.0, 0.0)
        result = risk_curve(
            SweepGrid(rates=(0.0,), risk_horizon=600, risk_trace_length=100, master_seed=11),
            oracle=oracle,
            profile=DetectorProfile(1.0, 1.0),
            costs=outcome_costs,
            threshold=CASE_STUDY_THRESHOLD,
        )
        point = result.points[0]
        assert point.estimated_rv == 635.0
        assert point.actual_rv == 635.0
        assert point.estimated_base == 635.0
        assert point.actual_base == 635.0

    def test_estimates_track_actuals(self, case_study_oracle, case_study_profile, outcome_costs):
        result = risk_curve(
            SweepGrid(rates=(0.2, 0.6), risk_horizon=3000, risk_trace_length=300, master_seed=13),
            oracle=case_study_oracle,
            profile=case_study_profile,
            costs=outcome_costs,
            threshold=CASE_STUDY_THRESHOLD,
        )
        for point in result.points:
            assert point.estimated_rv == pytest.approx(point.actual_rv, rel=0.08)
            assert point.estimated_base == pytest.approx(point.actual_base, rel=0.08)

    def test_base_curve_equals_a_second_monitor(
        self, case_study_oracle, case_study_profile, outcome_costs
    ):
        # The base curve evaluates the base tree at the rv monitor's rates.
        # The reference runs a base Monitor over the same verdicts and
        # prices the realized outcomes of its own trace.
        rates = (0.0, 0.35, 0.8, 1.0)
        result = risk_curve(
            SweepGrid(rates=rates, risk_horizon=700, risk_trace_length=90, master_seed=21),
            case_study_oracle, case_study_profile, outcome_costs, CASE_STUDY_THRESHOLD,
        )
        table, _, _ = batched_accuracy_table(case_study_oracle, 1, 0.5)
        for ri, (rate, point) in enumerate(zip(rates, result.points)):
            stream = generate_stream(
                StreamConfig(batch_size=1, shift_rate=rate, horizon=700,
                             seed=derive_seed(21, experiments._RISK_CURVE_TAG, ri, 0)),
                case_study_oracle,
            )
            detector = SyntheticDetector(
                case_study_profile, experiments._cell_rng(21, experiments._RISK_CURVE_TAG, ri, 1)
            )
            base = run_deployment(
                stream,
                detector,
                Monitor(MonitorConfig("base", case_study_profile, table, 0.5,
                                      dict(outcome_costs), trace_capacity=90)),
                0.5,
            )
            start = base.warmup_end()
            assert point.estimated_base == base.mean_expected_risk(start)
            assert point.actual_base == base.realized_mean_cost(outcome_costs, False, start)

    @pytest.mark.parametrize(
        "grid,message",
        [
            (SweepGrid(rates=()), "grid needs at least one rate"),
            (
                SweepGrid(rates=(0.5,), risk_horizon=100, risk_trace_length=100),
                r"risk_horizon \(100\) must exceed risk_trace_length \(100\)",
            ),
            (
                SweepGrid(rates=(0.5,), risk_horizon=-5, risk_trace_length=50),
                r"risk_horizon \(-5\) must exceed risk_trace_length \(50\)",
            ),
        ],
        ids=["no-rates", "equal-horizon", "negative-horizon"],
    )
    def test_grid_rules(self, case_study_oracle, case_study_profile, outcome_costs, grid, message):
        # risk_curve is the one place that checks these rules of its grid.
        with pytest.raises(ValidationError, match=message):
            risk_curve(
                grid, case_study_oracle, case_study_profile, outcome_costs, CASE_STUDY_THRESHOLD
            )

    def test_rows_and_crossings_exposed(self, case_study_oracle, case_study_profile, outcome_costs):
        result = risk_curve(
            SweepGrid(rates=(0.0, 0.5, 1.0), risk_horizon=800, risk_trace_length=100,
                      master_seed=15),
            oracle=case_study_oracle,
            profile=case_study_profile,
            costs=outcome_costs,
            threshold=CASE_STUDY_THRESHOLD,
        )
        assert len(result.to_rows()) == 3
        assert set(result.crossings) == {
            "rv_estimated",
            "rv_actual",
            "base_estimated",
            "base_actual",
        }


def case_study_params(p_event: float):
    acc_ood = sum((0.71, 0.74, 0.33)) / 3.0
    return make_rv_params(
        p_event,
        tpr=CASE_STUDY_PROFILE.tpr,
        tnr=CASE_STUDY_PROFILE.tnr,
        acc_ind=0.90,
        acc_ood=acc_ood,
    )


class TestCbaSurface:
    def test_rectangular_grid(self):
        result = cba_surface(
            (0.0, 0.05, 0.1), (0.0, 0.05), case_study_params(0.4), CASE_STUDY_COSTS
        )
        assert len(result.rows) == 6
        assert result.risk_at(0.0, 0.0) == pytest.approx(
            expected_risk(build_rv_tree(case_study_params(0.4)), CASE_STUDY_COSTS)
        )

    def test_risk_non_increasing_along_both_axes(self):
        deltas = (0.0, 0.05, 0.1, 0.15, 0.2)
        result = cba_surface(deltas, deltas, case_study_params(0.4), CASE_STUDY_COSTS)
        for dc in deltas:
            row_vals = [result.risk_at(dc, dd) for dd in deltas]
            assert all(a >= b - 1e-9 for a, b in zip(row_vals, row_vals[1:]))
        for dd in deltas:
            col_vals = [result.risk_at(dc, dd) for dc in deltas]
            assert all(a >= b - 1e-9 for a, b in zip(col_vals, col_vals[1:]))

    def test_marginals_match_finite_differences(self):
        params = case_study_params(0.45)
        result = cba_surface((0.0, 0.05), (0.0, 0.05), params, CASE_STUDY_COSTS)
        h = 1e-5

        def risk(dc, dd):
            return expected_risk(
                build_rv_tree(shifted_tree_params(params, dc, dd)), CASE_STUDY_COSTS
            )

        # Below the probability cap the surface is affine in each delta, so
        # a one-sided difference over [0, 2h] equals the central difference
        # at h and the exact derivative.
        fd_detector = (risk(0.0, 2 * h) - risk(0.0, 0.0)) / (2 * h)
        fd_classifier = (risk(2 * h, 0.0) - risk(0.0, 0.0)) / (2 * h)
        assert abs(result.detector_marginal - fd_detector) <= 1e-6 * max(
            1.0, abs(result.detector_marginal)
        )
        assert abs(result.classifier_marginal - fd_classifier) <= 1e-6 * max(
            1.0, abs(result.classifier_marginal)
        )

    def test_requires_rv_params(self):
        from driftrisk.event_tree import IND, OOD, TreeParams

        with pytest.raises(ValidationError):
            cba_surface(
                (0.0,), (0.0,), TreeParams(0.3, {IND: 0.9, OOD: 0.3}), CASE_STUDY_COSTS
            )

    def test_delta_validation(self):
        with pytest.raises(ValidationError):
            cba_surface((-0.1,), (0.0,), case_study_params(0.3), CASE_STUDY_COSTS)
