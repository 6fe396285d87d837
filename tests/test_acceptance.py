"""Acceptance gate: one test per release criterion, with runtime budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import json
import time

import numpy as np

from driftrisk.cli import EXIT_ALERT, EXIT_OK, main
from driftrisk.detectors import detector_grid
from driftrisk.estimation import DetectorProfile, forward_bias, rogan_gladen
from driftrisk.event_tree import (
    IND,
    OOD,
    TreeParams,
    build_base_tree,
    build_rv_tree,
    expected_accuracy,
    expected_risk,
)
from driftrisk.experiments import (
    SweepGrid,
    accuracy_error_sweep,
    cba_surface,
    crossing_rate,
    rate_error_sweep,
    risk_curve,
    shifted_tree_params,
)
from driftrisk.simulation import AccuracyOracle

from conftest import (
    CASE_STUDY_COSTS,
    CASE_STUDY_FOLD_ACCS,
    CASE_STUDY_IND_ACC,
    CASE_STUDY_PROFILE,
    CASE_STUDY_THRESHOLD,
    assert_close,
    case_study_config_dict,
    make_rv_params,
    oracle_accuracy,
    oracle_risk,
)

SINGLE_FOLD_ORACLE = AccuracyOracle.single(0.90, 0.33)


def _report(criterion: int, budget_s: float, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {criterion}: PASS ({elapsed:.1f}s / budget {budget_s:.0f}s) - {detail}")
    assert elapsed < budget_s, f"criterion {criterion} exceeded its runtime budget"


def test_criterion_1_rogan_gladen_inversion():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    worst = 0.0
    while checked < 1000:
        p = float(rng.random())
        profile = DetectorProfile(float(rng.random()), float(rng.random()))
        if profile.informativeness <= 0.05:
            continue
        checked += 1
        estimate = rogan_gladen(forward_bias(p, profile), profile)
        worst = max(worst, abs(estimate.pre_clamp - p))
        assert abs(estimate.pre_clamp - p) <= 1e-12
    _report(1, 1.0, started, f"1000 inversions, worst pre-clamp error {worst:.2e}")


def test_criterion_2_tree_oracle_equivalence(outcome_costs):
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        base = build_base_tree(
            TreeParams(
                float(rng.random()),
                {IND: float(rng.random()), OOD: float(rng.random())},
            ),
            costs=outcome_costs,
        )
        rv = build_rv_tree(
            make_rv_params(
                float(rng.random()),
                tpr=float(rng.random()),
                tnr=float(rng.random()),
                acc_ind=float(rng.random()),
                acc_ood=float(rng.random()),
            ),
            costs=outcome_costs,
        )
        for tree in (base, rv):
            assert_close(expected_accuracy(tree), oracle_accuracy(tree), 1e-12)
            assert_close(expected_risk(tree, outcome_costs), oracle_risk(tree, outcome_costs), 1e-12)
    _report(2, 1.0, started, "1000 random parameterizations, both topologies")


def test_criterion_3_rate_estimation_quality():
    started = time.perf_counter()
    grid = SweepGrid(
        rates=tuple(np.round(np.arange(0.1, 0.91, 0.1), 10)),
        profiles=tuple(detector_grid(0.1, 0.5)),
        trace_lengths=(500,),
        seeds_per_cell=30,
        horizon=1000,
        master_seed=1003,
    )
    report = rate_error_sweep(grid)
    assert not any(cell.refused for cell in report.cells)

    high_ba = [cell.mae for cell in report.cells if cell.axes["ba"] >= 0.75]
    mean_high = float(np.mean(high_ba))
    assert mean_high < 0.1

    by_ba = report.aggregate("ba")
    levels = sorted(by_ba)
    for low, high in zip(levels, levels[1:]):
        assert by_ba[high] <= by_ba[low] + 0.01
    _report(
        3, 120.0, started,
        f"55 profiles x 9 rates, W=500: mean MAE at BA>=0.75 {mean_high:.3f}, "
        f"BA curve non-increasing",
    )


def test_criterion_4_baseline_dominance():
    started = time.perf_counter()
    rates = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    grid = SweepGrid(
        rates=rates,
        profiles=(DetectorProfile(0.8, 0.8),),
        trace_lengths=(100,),
        seeds_per_cell=30,
        horizon=2000,
        master_seed=1004,
    )
    report = accuracy_error_sweep(grid, SINGLE_FOLD_ORACLE)
    margins = []
    for cell in report.cells:
        rate = cell.axes["rate"]
        baseline = cell.baseline_mae
        if rate >= 0.3:
            assert cell.mae < baseline, f"method lost to baseline at rate {rate}"
            margins.append(baseline / cell.mae)
        if rate < 0.1:
            assert cell.mae <= baseline + 0.02, f"method too far behind at rate {rate}"
    _report(
        4, 120.0, started,
        f"method beats baseline at rates >= 0.3 (x{min(margins):.1f} to x{max(margins):.1f})",
    )


def test_criterion_5_perfect_information_floor():
    started = time.perf_counter()
    grid = SweepGrid(
        rates=(0.1, 0.5, 0.9),
        profiles=(DetectorProfile(1.0, 1.0),),
        trace_lengths=(100,),
        seeds_per_cell=10,
        horizon=2000,
        master_seed=1005,
    )
    report = accuracy_error_sweep(grid, SINGLE_FOLD_ORACLE)
    worst = max(cell.mae for cell in report.cells)
    assert worst < 0.02
    _report(5, 10.0, started, f"perfect detector + exact oracle: worst MAE {worst:.4f}")


def test_criterion_6_case_study_risk_crossings():
    started = time.perf_counter()
    oracle = AccuracyOracle.uniform_folds(CASE_STUDY_IND_ACC, CASE_STUDY_FOLD_ACCS)
    curves = risk_curve(
        SweepGrid(
            rates=tuple(np.round(np.arange(0.0, 1.0001, 0.05), 10)),
            risk_horizon=4000,
            risk_trace_length=500,
            master_seed=1006,
        ),
        oracle=oracle,
        profile=CASE_STUDY_PROFILE,
        costs=CASE_STUDY_COSTS,
        threshold=CASE_STUDY_THRESHOLD,
    )
    crossings = curves.crossings
    for curve in ("base_estimated", "base_actual"):
        assert crossings[curve] is not None
        assert 0.25 <= crossings[curve] <= 0.55, f"{curve} crossed at {crossings[curve]}"
    for curve in ("rv_estimated", "rv_actual"):
        assert crossings[curve] is not None
        assert 0.75 <= crossings[curve] <= 1.0, f"{curve} crossed at {crossings[curve]}"
    _report(
        6, 60.0, started,
        "no-RV crossing at "
        f"{crossings['base_estimated']:.3f} (est) / {crossings['base_actual']:.3f} (act), "
        f"RV at {crossings['rv_estimated']:.3f} / {crossings['rv_actual']:.3f}",
    )


def test_criterion_7_cba_ordering():
    started = time.perf_counter()
    acc_ood = sum(CASE_STUDY_FOLD_ACCS) / len(CASE_STUDY_FOLD_ACCS)

    def params_at(rate):
        return make_rv_params(
            rate,
            tpr=CASE_STUDY_PROFILE.tpr,
            tnr=CASE_STUDY_PROFILE.tnr,
            acc_ind=CASE_STUDY_IND_ACC,
            acc_ood=acc_ood,
        )

    # Operating point: the rate at which the rv system reaches maximum
    # tolerable risk, read off the analytic risk line.
    rates = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    risks = [expected_risk(build_rv_tree(params_at(r)), CASE_STUDY_COSTS) for r in rates]
    operating_rate = crossing_rate(rates.tolist(), risks, CASE_STUDY_THRESHOLD)
    assert operating_rate is not None

    params = params_at(operating_rate)
    deltas = (0.0, 0.05, 0.1, 0.15, 0.2)
    surface = cba_surface(deltas, deltas, params, CASE_STUDY_COSTS)
    origin = surface.risk_at(0.0, 0.0)
    detector_step = origin - surface.risk_at(0.0, 0.05)
    classifier_step = origin - surface.risk_at(0.05, 0.0)
    assert detector_step > classifier_step

    # Analytic marginals against central finite differences.
    h = 1e-5

    def risk(dc, dd):
        return expected_risk(
            build_rv_tree(shifted_tree_params(params, dc, dd)), CASE_STUDY_COSTS
        )

    fd_detector = (risk(0.0, 2 * h) - risk(0.0, 0.0)) / (2 * h)
    fd_classifier = (risk(2 * h, 0.0) - risk(0.0, 0.0)) / (2 * h)
    assert abs(surface.detector_marginal - fd_detector) <= 1e-6 * max(
        1.0, abs(surface.detector_marginal)
    )
    assert abs(surface.classifier_marginal - fd_classifier) <= 1e-6 * max(
        1.0, abs(surface.classifier_marginal)
    )
    _report(
        7, 10.0, started,
        f"at operating rate {operating_rate:.3f}: detector step saves "
        f"{detector_step:.1f} vs classifier {classifier_step:.1f}; marginals match FD",
    )


def test_criterion_8_non_uniform_degradation():
    started = time.perf_counter()
    grid = SweepGrid(
        rates=(0.2, 0.5, 0.8),
        profiles=(DetectorProfile(0.8, 0.8),),
        batch_sizes=(1, 16, 32, 64),
        trace_lengths=(100,),
        seeds_per_cell=30,
        horizon=2000,
        uniform=False,
        mixture_fraction=None,  # drawn uniformly per shifted batch
        master_seed=1008,
    )
    report = accuracy_error_sweep(grid, SINGLE_FOLD_ORACLE)
    by_batch = report.aggregate("batch_size")
    for batch_size in (16, 32, 64):
        assert by_batch[1] <= by_batch[batch_size], (
            f"batch size 1 (MAE {by_batch[1]:.3f}) lost to "
            f"{batch_size} (MAE {by_batch[batch_size]:.3f})"
        )
    _report(
        8, 120.0, started,
        "mixed-batch MAE by batch size: "
        + ", ".join(f"{bs}: {by_batch[bs]:.3f}" for bs in sorted(by_batch)),
    )


def test_criterion_9_command_determinism(tmp_path):
    started = time.perf_counter()
    payload = case_study_config_dict()
    payload["stream"]["horizon"] = 200
    payload["sweep"]["risk_horizon"] = 300
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    verdicts = tmp_path / "verdicts.txt"
    verdicts.write_text("".join(f"{i % 3 == 0:d}\n" for i in range(150)))
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(
        "is_ood,verdict,is_correct\n"
        + "".join(f"{i % 2},{(i * 3) % 2},{(i * 5) % 2}\n" for i in range(40))
    )

    def run_all(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        base.mkdir()
        outputs: dict[str, bytes] = {}
        spec = [
            (["simulate", "--config", str(config), "--output", str(base / "trace.csv")],
             [base / "trace.csv"]),
            (["monitor", "--config", str(config), "--input", str(verdicts),
              "--output", str(base / "assessments.csv")],
             [base / "assessments.csv"]),
            (["calibrate", "--input", str(labeled), "--output", str(base / "fragment.json")],
             [base / "fragment.json"]),
        ]
        for kind in ("rate-error", "accuracy-error", "risk-curve", "cba"):
            out_dir = base / kind
            spec.append(
                (["sweep", kind, "--config", str(config), "--output", str(out_dir)],
                 [out_dir / "report.csv", out_dir / "metadata.json"]),
            )
        for argv, files in spec:
            code = main(argv)
            assert code in (EXIT_OK, EXIT_ALERT), f"{argv} exited {code}"
            for path in files:
                outputs[str(path.relative_to(base))] = path.read_bytes()
        return outputs

    first = run_all("run-a")
    second = run_all("run-b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    _report(9, 120.0, started, f"{len(first)} output files byte-identical across reruns")
