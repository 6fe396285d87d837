"""Evaluation harness: error sweeps, risk curves, cost-benefit surfaces.

Every sweep cell is a pure function of the grid spec and the cell's
coordinates; its random draws come from a seed derived from (master
seed, cell coordinates).  Cells can therefore run in any order or in
parallel workers and still reproduce byte-identically.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .detectors import SyntheticDetector
from .errors import ValidationError
from .estimation import (
    AccuracyCell,
    ConditionalAccuracyTable,
    DEFAULT_J_FLOOR,
    DetectorProfile,
)
from .event_tree import (
    CostModel,
    IND,
    IND_NEG,
    IND_POS,
    OOD,
    OOD_NEG,
    OOD_POS,
    TreeParams,
    build_rv_tree,
    expected_risk,
    sensitivity,
)
from .monitor import Monitor, MonitorConfig
from .simulation import (
    AccuracyOracle,
    StreamConfig,
    batch_correct_probability,
    generate_stream,
    ind_percentile_threshold,
    run_deployment,
)

# Sweep-kind tags keep per-cell seed streams distinct across sweep types.
_RATE_SWEEP_TAG = 101
_ACCURACY_SWEEP_TAG = 202
_RISK_CURVE_TAG = 303
_VALIDATION_TAG = 404


def mae(truth: Sequence[float], estimate: Sequence[float]) -> float:
    """Mean absolute error between two equal-length sequences."""
    t = np.asarray(truth, dtype=float)
    e = np.asarray(estimate, dtype=float)
    if t.shape != e.shape:
        raise ValidationError(f"length mismatch: {t.shape} vs {e.shape}")
    if t.size == 0:
        raise ValidationError("cannot compute MAE of empty sequences")
    return float(np.mean(np.abs(t - e)))


def _cell_rng(master_seed: int, *coords: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, *coords])


def derive_seed(master_seed: int, *coords: int) -> int:
    """Collapse cell coordinates into a single reproducible integer seed."""
    return int(np.random.SeedSequence([master_seed, *coords]).generate_state(1)[0])


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a sweep; every cell is determined by (axes, master_seed)."""

    rates: tuple[float, ...]
    profiles: tuple[DetectorProfile, ...]
    batch_sizes: tuple[int, ...] = (1,)
    trace_lengths: tuple[int, ...] = (100,)
    seeds_per_cell: int = 30
    master_seed: int = 0
    horizon: int = 2000
    uniform: bool = True
    mixture_fraction: float | None = None
    topology: str = "base"
    prior_rate: float = 0.5
    percentile: float = 1.0
    validation_batches: int = 1000

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValidationError("grid needs at least one rate")
        if not self.profiles:
            raise ValidationError("grid needs at least one detector profile")
        if self.seeds_per_cell < 1:
            raise ValidationError("seeds_per_cell must be >= 1")
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"rate {rate!r} outside [0, 1]")
        if any(w >= self.horizon for w in self.trace_lengths):
            raise ValidationError("horizon must exceed every trace length")


@dataclass(frozen=True)
class CellResult:
    """One sweep cell: its coordinates and error metrics."""

    axes: dict
    mae: float | None
    mean_signed_error: float | None
    n: int
    refused: bool = False
    extra: dict = field(default_factory=dict)


@dataclass
class ErrorReport:
    """Per-cell errors plus axis-wise aggregation."""

    kind: str
    cells: list[CellResult] = field(default_factory=list)

    def aggregate(self, axis: str, metric: str = "mae") -> dict:
        """Sample-weighted mean of a metric grouped by one axis value.

        Weighting by each cell's sample count makes aggregation
        associative: grouping in stages gives the same numbers as
        grouping directly.
        """
        sums: dict = {}
        counts: dict = {}
        for cell in self.cells:
            if cell.refused:
                continue
            value = cell.extra[metric] if metric in cell.extra else getattr(cell, metric)
            if value is None:
                continue
            key = cell.axes[axis]
            sums[key] = sums.get(key, 0.0) + value * cell.n
            counts[key] = counts.get(key, 0) + cell.n
        return {key: sums[key] / counts[key] for key in sums}

    def to_rows(self) -> list[dict]:
        rows = []
        for cell in self.cells:
            row = dict(cell.axes)
            row["n"] = cell.n
            row["mae"] = cell.mae
            row["mean_signed_error"] = cell.mean_signed_error
            row["refused"] = cell.refused
            row.update(cell.extra)
            rows.append(row)
        return rows


def _run_cells(cells, evaluate, jobs: int):
    if jobs <= 1:
        return [evaluate(coords) for coords in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(evaluate, cells))


# ---------------------------------------------------------------------------
# Rate-estimation error sweep
# ---------------------------------------------------------------------------


def rate_error_cell(grid: SweepGrid, coords: tuple[int, int, int]) -> CellResult:
    """One (trace length, profile, rate) cell of the rate-error sweep."""
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
    gt_rng = _cell_rng(grid.master_seed, _RATE_SWEEP_TAG, wi, pi, ri, 0)
    detector = SyntheticDetector(
        profile, _cell_rng(grid.master_seed, _RATE_SWEEP_TAG, wi, pi, ri, 1)
    )
    flags = gt_rng.random((grid.seeds_per_cell, window)) < rate
    verdicts = detector.judge_many(flags)
    means = verdicts.mean(axis=1)
    corrected = np.clip(
        (means - (1.0 - profile.tnr)) / profile.informativeness, 0.0, 1.0
    )
    errors = corrected - rate
    return CellResult(
        axes,
        mae=float(np.mean(np.abs(errors))),
        mean_signed_error=float(np.mean(errors)),
        n=grid.seeds_per_cell,
    )


def rate_error_sweep(grid: SweepGrid, jobs: int = 1) -> ErrorReport:
    """MAE of corrected rate estimates across profiles, rates, trace lengths.

    Each seed draws one full trace of verdicts from a synthetic detector
    at the cell's true rate and corrects the trace mean.  Cells whose
    detector fails the informativeness floor are recorded as refusals,
    never as zero-error results.
    """
    cells = [
        (wi, pi, ri)
        for wi in range(len(grid.trace_lengths))
        for pi in range(len(grid.profiles))
        for ri in range(len(grid.rates))
    ]
    results = _run_cells(cells, partial(rate_error_cell, grid), jobs)
    return ErrorReport(kind="rate-error", cells=results)


# ---------------------------------------------------------------------------
# Accuracy-estimation error sweep
# ---------------------------------------------------------------------------


def batched_accuracy_table(
    oracle: AccuracyOracle, batch_size: int, threshold: float
) -> tuple[ConditionalAccuracyTable, float, float]:
    """Tree accuracies once evaluation is batch-wise.

    Returns the conditional table plus the effective InD and OOD
    batch-correctness probabilities.  Synthetic detector verdicts are
    independent of model correctness, so verdict-conditioned cells equal
    the event-conditioned ones.
    """
    ind_eff = batch_correct_probability(oracle.ind_accuracy, batch_size, threshold)
    ood_eff = sum(
        fold.weight * batch_correct_probability(fold.accuracy, batch_size, threshold)
        for fold in oracle.folds
    )
    # Support 1 marks the cells as usable; these come from the oracle, not counting.
    table = ConditionalAccuracyTable(
        {
            **{cond: AccuracyCell(ind_eff, 1) for cond in (IND, IND_NEG, IND_POS)},
            **{cond: AccuracyCell(ood_eff, 1) for cond in (OOD, OOD_NEG, OOD_POS)},
        }
    )
    return table, ind_eff, ood_eff


def validation_threshold(grid: SweepGrid, oracle: AccuracyOracle, batch_size: int) -> float:
    """Batch-correctness threshold from simulated clean validation batches.

    Batch size 1 degenerates to per-sample correctness, pinned at 0.5.
    """
    if batch_size == 1:
        return 0.5
    rng = _cell_rng(grid.master_seed, _VALIDATION_TAG, batch_size)
    accs = (rng.random((grid.validation_batches, batch_size)) < oracle.ind_accuracy).mean(
        axis=1
    )
    return ind_percentile_threshold(accs, grid.percentile)


def accuracy_error_cell(
    grid: SweepGrid,
    oracle: AccuracyOracle,
    thresholds: tuple[float, ...],
    coords: tuple[int, int, int, int],
) -> CellResult:
    """One (batch size, trace length, profile, rate) accuracy-error cell.

    ``thresholds[bi]`` is the validation threshold of batch size ``bi``.
    """
    bi, wi, pi, ri = coords
    batch_size = grid.batch_sizes[bi]
    window = grid.trace_lengths[wi]
    profile = grid.profiles[pi]
    rate = grid.rates[ri]
    axes = {
        "batch_size": batch_size,
        "trace_length": window,
        "tpr": profile.tpr,
        "tnr": profile.tnr,
        "ba": profile.balanced_accuracy,
        "rate": rate,
    }
    if profile.informativeness <= DEFAULT_J_FLOOR:
        return CellResult(axes, None, None, 0, refused=True)
    threshold = thresholds[bi]
    table, ind_eff, _ = batched_accuracy_table(oracle, batch_size, threshold)
    config = MonitorConfig(
        topology=grid.topology,
        profile=profile,
        accuracies=table,
        trace_capacity=window,
        prior_rate=grid.prior_rate,
    )
    method_errors = []
    baseline_errors = []
    for k in range(grid.seeds_per_cell):
        coords_k = (_ACCURACY_SWEEP_TAG, bi, wi, pi, ri, k)
        stream = generate_stream(
            StreamConfig(
                batch_size=batch_size,
                shift_rate=rate,
                horizon=grid.horizon,
                uniform=grid.uniform,
                mixture_fraction=grid.mixture_fraction,
                seed=derive_seed(grid.master_seed, *coords_k, 0),
            ),
            oracle,
        )
        detector = SyntheticDetector(profile, _cell_rng(grid.master_seed, *coords_k, 1))
        trace = run_deployment(stream, detector, Monitor(config), threshold)
        start = trace.warmup_end()
        realized = trace.realized_accuracy(start)
        method_errors.append(trace.mean_expected_accuracy(start) - realized)
        baseline_errors.append(ind_eff - realized)
    errors = np.array(method_errors)
    return CellResult(
        axes,
        mae=float(np.mean(np.abs(errors))),
        mean_signed_error=float(np.mean(errors)),
        n=grid.seeds_per_cell,
        extra={"baseline_mae": float(np.mean(np.abs(np.array(baseline_errors))))},
    )


def accuracy_error_sweep(grid: SweepGrid, oracle: AccuracyOracle, jobs: int = 1) -> ErrorReport:
    """MAE between monitor accuracy estimates and realized stream accuracy.

    Per seed, a full deployment is simulated and the monitor's mean
    post-warmup accuracy estimate is compared to the realized batch
    correctness over the same suffix.  The constant-InD baseline error is
    reported alongside every cell.
    """
    cells = [
        (bi, wi, pi, ri)
        for bi in range(len(grid.batch_sizes))
        for wi in range(len(grid.trace_lengths))
        for pi in range(len(grid.profiles))
        for ri in range(len(grid.rates))
    ]
    # A threshold depends only on the master seed, the batch size and the
    # oracle, so every cell of one batch size shares it.
    thresholds = tuple(
        validation_threshold(grid, oracle, batch_size) for batch_size in grid.batch_sizes
    )
    results = _run_cells(
        cells, partial(accuracy_error_cell, grid, oracle, thresholds), jobs
    )
    return ErrorReport(kind="accuracy-error", cells=results)


# ---------------------------------------------------------------------------
# Risk curves
# ---------------------------------------------------------------------------


def crossing_rate(
    rates: Sequence[float], values: Sequence[float], threshold: float
) -> float | None:
    """First rate at which a curve exceeds the threshold.

    Linear interpolation between the surrounding grid points; None when
    the curve never exceeds the threshold on the grid.
    """
    rates = list(rates)
    values = list(values)
    if len(rates) != len(values) or not rates:
        raise ValidationError("rates and values must be equal-length and non-empty")
    for i, value in enumerate(values):
        if value > threshold:
            if i == 0:
                return float(rates[0])
            r0, r1 = rates[i - 1], rates[i]
            v0, v1 = values[i - 1], value
            return float(r0 + (threshold - v0) * (r1 - r0) / (v1 - v0))
    return None


@dataclass(frozen=True)
class RiskCurvePoint:
    rate: float
    estimated_rv: float
    actual_rv: float
    estimated_base: float
    actual_base: float


@dataclass
class RiskCurveResult:
    threshold: float
    points: list[RiskCurvePoint]
    crossings: dict[str, float | None]

    def to_rows(self) -> list[dict]:
        return [
            {
                "rate": p.rate,
                "estimated_rv": p.estimated_rv,
                "actual_rv": p.actual_rv,
                "estimated_base": p.estimated_base,
                "actual_base": p.actual_base,
            }
            for p in self.points
        ]


def risk_curve(
    rates: Sequence[float],
    oracle: AccuracyOracle,
    profile: DetectorProfile,
    costs: CostModel,
    threshold: float,
    horizon: int = 4000,
    trace_length: int = 500,
    master_seed: int = 0,
    prior_rate: float = 0.5,
) -> RiskCurveResult:
    """Estimated and realized per-batch risk versus true shift rate.

    Two system configurations share the same streams and verdicts: one
    routes positive verdicts to interventions (rv tree), one ignores them
    (base tree).  Estimated risk is the monitor's; actual risk prices the
    realized outcome of each batch.
    """
    if horizon <= trace_length:
        raise ValidationError(
            f"horizon ({horizon}) must exceed trace_length ({trace_length})"
        )
    table, _, _ = batched_accuracy_table(oracle, batch_size=1, threshold=0.5)

    def make_monitor(topology: str) -> Monitor:
        return Monitor(
            MonitorConfig(
                topology=topology,
                profile=profile,
                accuracies=table,
                trace_capacity=trace_length,
                prior_rate=prior_rate,
                costs=dict(costs),
            )
        )

    points = []
    for ri, rate in enumerate(rates):
        stream = generate_stream(
            StreamConfig(
                batch_size=1,
                shift_rate=float(rate),
                horizon=horizon,
                seed=derive_seed(master_seed, _RISK_CURVE_TAG, ri, 0),
            ),
            oracle,
        )
        traces = {}
        for topology in ("rv", "base"):
            # Re-seeding the detector identically gives both system
            # configurations the exact same verdict sequence.
            detector = SyntheticDetector(
                profile, _cell_rng(master_seed, _RISK_CURVE_TAG, ri, 1)
            )
            traces[topology] = run_deployment(stream, detector, make_monitor(topology), 0.5)
        start = traces["rv"].warmup_end()
        points.append(
            RiskCurvePoint(
                rate=float(rate),
                estimated_rv=traces["rv"].mean_expected_risk(start),
                actual_rv=traces["rv"].realized_mean_cost(costs, True, start),
                estimated_base=traces["base"].mean_expected_risk(start),
                actual_base=traces["base"].realized_mean_cost(costs, False, start),
            )
        )
    rate_list = [p.rate for p in points]
    crossings = {
        "rv_estimated": crossing_rate(rate_list, [p.estimated_rv for p in points], threshold),
        "rv_actual": crossing_rate(rate_list, [p.actual_rv for p in points], threshold),
        "base_estimated": crossing_rate(
            rate_list, [p.estimated_base for p in points], threshold
        ),
        "base_actual": crossing_rate(rate_list, [p.actual_base for p in points], threshold),
    }
    return RiskCurveResult(threshold=threshold, points=points, crossings=crossings)


# ---------------------------------------------------------------------------
# Cost-benefit surface
# ---------------------------------------------------------------------------


def shifted_tree_params(
    params: TreeParams, classifier_delta: float, detector_delta: float
) -> TreeParams:
    """Improve components by additive deltas, capping probabilities at 1.

    The classifier axis lifts every conditional accuracy; the detector
    axis lifts TPR and TNR together (a balanced-accuracy improvement).
    """
    accuracies = {
        cond: min(1.0, acc + classifier_delta) for cond, acc in params.accuracies.items()
    }
    return params.with_overrides(
        accuracies=accuracies,
        tpr=min(1.0, params.tpr + detector_delta),
        tnr=min(1.0, params.tnr + detector_delta),
    )


@dataclass
class CbaResult:
    """Risk over the improvement grid plus exact axis marginals at the origin."""

    rows: list[dict]
    detector_marginal: float
    classifier_marginal: float

    def risk_at(self, classifier_delta: float, detector_delta: float) -> float:
        for row in self.rows:
            if (
                row["classifier_delta"] == classifier_delta
                and row["detector_delta"] == detector_delta
            ):
                return row["risk"]
        raise ValidationError(
            f"no grid point at ({classifier_delta!r}, {detector_delta!r})"
        )


def cba_surface(
    classifier_deltas: Sequence[float],
    detector_deltas: Sequence[float],
    params: TreeParams,
    costs: CostModel,
) -> CbaResult:
    """Expected risk across component-improvement deltas (rv topology).

    Marginals are the exact derivatives of expected risk along each axis
    at the operating point: the detector axis moves tpr and tnr together,
    the classifier axis moves every conditional accuracy together (the
    positive-verdict accuracies do not enter the traversal, so only the
    negative-verdict terms contribute).
    """
    if params.tpr is None or params.tnr is None:
        raise ValidationError("cba_surface requires rv-topology params (tpr and tnr)")
    for deltas, name in ((classifier_deltas, "classifier"), (detector_deltas, "detector")):
        for delta in deltas:
            if not 0.0 <= delta <= 1.0:
                raise ValidationError(f"{name} delta {delta!r} outside [0, 1]")
    rows = []
    for dc in classifier_deltas:
        for dd in detector_deltas:
            tree = build_rv_tree(shifted_tree_params(params, dc, dd))
            rows.append(
                {
                    "classifier_delta": float(dc),
                    "detector_delta": float(dd),
                    "risk": expected_risk(tree, costs),
                }
            )
    origin = build_rv_tree(params)
    detector_marginal = sensitivity(origin, "tpr", costs) + sensitivity(origin, "tnr", costs)
    classifier_marginal = sensitivity(origin, "acc:ind_neg", costs) + sensitivity(
        origin, "acc:ood_neg", costs
    )
    return CbaResult(
        rows=rows,
        detector_marginal=detector_marginal,
        classifier_marginal=classifier_marginal,
    )
