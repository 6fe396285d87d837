"""Evaluation harness: error sweeps, risk curves, cost-benefit surfaces.

Every sweep cell is a pure function of the grid spec and the cell's
coordinates; its random draws come from a seed derived from (master
seed, cell coordinates).  Cells can therefore run in any order or in
parallel workers and still reproduce byte-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from .detectors import SyntheticDetector, detector_grid
from .errors import ValidationError, check_fields, check_number, check_range
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
    MAX_STREAM_SAMPLES,
    AccuracyOracle,
    StreamConfig,
    batch_correct_probability,
    clean_batch_threshold,
    generate_stream,
    run_deployment,
    sequential_sum,
)

# Sweep-kind tags keep per-cell seed streams distinct across sweep types.
_RATE_SWEEP_TAG = 101
_ACCURACY_SWEEP_TAG = 202
_RISK_CURVE_TAG = 303
_VALIDATION_TAG = 404

# Verdicts per block of a rate-error cell: 2**16 draws are 512 KB of doubles.
RATE_BLOCK_VERDICTS = 2**16

# The sweep monitors' prior rate.  Sweep summaries start at warmup_end(),
# the first batch estimated from the trace, so no output reads it.
_SWEEP_PRIOR = 0.5


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
    return np.random.default_rng(np.random.SeedSequence([master_seed, *coords]))


def derive_seed(master_seed: int, *coords: int) -> int:
    """Collapse cell coordinates into a single reproducible integer seed."""
    return int(np.random.SeedSequence([master_seed, *coords]).generate_state(1)[0])


# The finest grid_step.  detector_grid walks its whole (1/step + 1)^2
# lattice in Python, and every profile kept is a cell per rate and trace
# length; 1e-9 would mean some 10^18 lattice points.
MIN_GRID_STEP = 0.01

# The most seeds per cell: a rate-error cell holds a few arrays of one
# entry per seed, and an accuracy-error cell runs one deployment per seed.
MAX_SEEDS_PER_CELL = 10**6


@dataclass(frozen=True)
class SweepGrid:
    """Sweep settings: the error-sweep axes plus the risk-curve and cba extras.

    Every error-sweep cell is determined by (axes, master_seed).  A value
    that no sweep kind can use is rejected here; :meth:`for_error_sweep`
    adds the rules that only the rate-error and accuracy-error sweeps need,
    and :func:`risk_curve` checks its own.  ``profiles`` None stands for
    the ``grid_step`` lattice.
    """

    rates: tuple[float, ...] = ()
    profiles: tuple[DetectorProfile, ...] | None = None
    grid_step: float | None = None
    ba_floor: float = 0.5
    batch_sizes: tuple[int, ...] = (1,)
    trace_lengths: tuple[int, ...] = (100,)
    seeds_per_cell: int = 30
    master_seed: int = 0
    horizon: int = 2000
    uniform: bool = True
    mixture_fraction: float | None = None
    topology: str = "base"
    percentile: float = 1.0
    validation_batches: int = 1000
    classifier_deltas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2)
    detector_deltas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2)
    operating_rate: float | None = None
    risk_horizon: int = 4000
    risk_trace_length: int = 500

    def __post_init__(self) -> None:
        for name in ("horizon", "risk_horizon"):
            check_number(name, getattr(self, name), integer=True)
        check_range("master_seed", self.master_seed, 0, integer=True)
        for name in ("seeds_per_cell", "validation_batches", "risk_trace_length"):
            check_range(name, getattr(self, name), 1, integer=True)
        for name in ("batch_sizes", "trace_lengths"):
            for value in getattr(self, name):
                check_range(f"{name} entry", value, 1, integer=True)
        # Sizes refused before anything of that size is allocated: every
        # stream a sweep draws holds at most MAX_STREAM_SAMPLES samples.
        if self.risk_horizon > MAX_STREAM_SAMPLES:
            raise ValidationError(
                f"risk_horizon must be at most {MAX_STREAM_SAMPLES} samples, "
                f"got {self.risk_horizon}"
            )
        largest_batch = max(self.batch_sizes, default=1)
        if self.horizon * largest_batch > MAX_STREAM_SAMPLES:
            raise ValidationError(
                f"horizon x max(batch_sizes) must be at most {MAX_STREAM_SAMPLES} "
                f"samples, got {self.horizon} x {largest_batch}"
            )
        # clean_batch_threshold draws validation_batches x batch_size samples.
        if self.validation_batches * largest_batch > MAX_STREAM_SAMPLES:
            raise ValidationError(
                f"validation_batches x max(batch_sizes) must be at most "
                f"{MAX_STREAM_SAMPLES} samples, got {self.validation_batches} x {largest_batch}"
            )
        if self.seeds_per_cell > MAX_SEEDS_PER_CELL:
            raise ValidationError(
                f"seeds_per_cell must be at most {MAX_SEEDS_PER_CELL}, "
                f"got {self.seeds_per_cell}"
            )
        for value in self.rates:
            check_range("rates entry", value, 0, 1)
        for name in ("classifier_deltas", "detector_deltas"):
            for value in getattr(self, name):
                check_range(f"{name} entry", value, 0, 1)
        check_number("ba_floor", self.ba_floor)
        check_range("percentile", self.percentile, 0, 100)
        if self.grid_step is not None:
            check_range("grid_step", self.grid_step, 0, 1, low_open=True)
            if self.grid_step < MIN_GRID_STEP:
                raise ValidationError(
                    f"grid_step must be at least {MIN_GRID_STEP}, got {self.grid_step!r}"
                )
        for name in ("mixture_fraction", "operating_rate"):
            if getattr(self, name) is not None:
                check_range(name, getattr(self, name), 0, 1)
        if not isinstance(self.uniform, bool):
            raise ValidationError(f"uniform must be true or false, got {self.uniform!r}")
        if self.topology not in ("base", "rv"):
            raise ValidationError(f"topology must be 'base' or 'rv', got {self.topology!r}")

    def resolved_profiles(self) -> tuple[DetectorProfile, ...]:
        if self.profiles is not None:
            return self.profiles
        if self.grid_step is not None:
            return tuple(detector_grid(self.grid_step, self.ba_floor))
        raise ValidationError("sweep needs either 'profiles' or 'grid_step'")

    def require_rates(self) -> None:
        """Refuse a grid with no rates, for the sweep kinds that read them."""
        if not self.rates:
            raise ValidationError("grid needs at least one rate")

    def for_error_sweep(self) -> "SweepGrid":
        """This grid with its profiles resolved, once the error-sweep rules hold.

        An error sweep needs at least one rate, at least one detector
        profile, and a horizon longer than every trace length.
        """
        self.require_rates()
        profiles = self.resolved_profiles()
        if not profiles:
            raise ValidationError("grid needs at least one detector profile")
        if any(w >= self.horizon for w in self.trace_lengths):
            raise ValidationError("horizon must exceed every trace length")
        return self if profiles is self.profiles else replace(self, profiles=profiles)

    def to_dict(self) -> dict:
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        if self.profiles is not None:
            payload["profiles"] = [[p.tpr, p.tnr] for p in self.profiles]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepGrid":
        check_fields("sweep", payload, cls)
        kwargs = dict(payload)
        for f in fields(cls):
            # The list-valued keys are the fields with a tuple default.
            if isinstance(f.default, tuple) and f.name in kwargs:
                if not isinstance(kwargs[f.name], (list, tuple)):
                    raise ValidationError(f"{f.name} must be a list, got {kwargs[f.name]!r}")
                kwargs[f.name] = tuple(kwargs[f.name])
        pairs = kwargs.get("profiles")
        if pairs is not None:
            if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs
            ):
                raise ValidationError(
                    f"profiles must be a list of [tpr, tnr] pairs, got {pairs!r}"
                )
            kwargs["profiles"] = tuple(DetectorProfile(tpr, tnr) for tpr, tnr in pairs)
        return cls(**kwargs)


@dataclass(frozen=True)
class CellResult:
    """One sweep cell: its coordinates and error metrics.

    ``baseline_mae`` is the constant-InD baseline's error, which only the
    accuracy-error sweep measures.
    """

    axes: dict
    mae: float | None
    mean_signed_error: float | None
    n: int
    refused: bool = False
    baseline_mae: float | None = None


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
            value = getattr(cell, metric)
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
            row["baseline_mae"] = cell.baseline_mae
            rows.append(row)
        return rows


def _run_cells(cells, evaluate, jobs: int):
    """evaluate(coords) of every cell, in order, in at most ``jobs`` processes.

    No more workers start than there are cells or CPUs; with one worker
    the cells run in this process.
    """
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        return [evaluate(coords) for coords in cells]
    # Imported here: the process-pool module adds about 20 ms to every command.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(evaluate, cells))


# ---------------------------------------------------------------------------
# Rate-estimation error sweep
# ---------------------------------------------------------------------------


def rate_error_cell(grid: SweepGrid, coords: tuple[int, int, int]) -> CellResult:
    """One (trace length, profile, rate) cell of the rate-error sweep.

    The seeds are drawn and judged in blocks of at most
    RATE_BLOCK_VERDICTS verdicts (one row per seed, at least one row per
    block), and only each row's positive count is kept.  Each generator
    is consumed in order, so the blocks draw the same values as one
    ``(seeds, window)`` draw, and a mean of 0/1 values is its exact count
    divided by the window, so the means equal ``verdicts.mean(axis=1)``
    bit for bit.  A block's draws fit in cache where the whole cell's did
    not.
    """
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
    seeds = grid.seeds_per_cell
    block_rows = max(1, RATE_BLOCK_VERDICTS // window)
    counts = np.empty(seeds, dtype=np.int64)
    for first in range(0, seeds, block_rows):
        rows = min(block_rows, seeds - first)
        flags = gt_rng.random((rows, window)) < rate
        counts[first : first + rows] = np.count_nonzero(detector.judge_many(flags), axis=1)
    means = counts / window
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
    grid = grid.for_error_sweep()
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
    ood_eff = sequential_sum(
        [
            fold.weight * batch_correct_probability(fold.accuracy, batch_size, threshold)
            for fold in oracle.folds
        ]
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
    """The grid's batch-correctness threshold for one batch size.

    clean_batch_threshold on a generator seeded by the master seed and the
    batch size, with the grid's validation batches and percentile.
    """
    return clean_batch_threshold(
        _cell_rng(grid.master_seed, _VALIDATION_TAG, batch_size),
        oracle.ind_accuracy,
        batch_size,
        grid.validation_batches,
        grid.percentile,
    )


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
    monitor = Monitor(
        MonitorConfig(
            topology=grid.topology,
            profile=profile,
            accuracies=table,
            trace_capacity=window,
            prior_rate=_SWEEP_PRIOR,
        )
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
        trace = run_deployment(stream, detector, monitor, threshold)
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
        baseline_mae=float(np.mean(np.abs(np.array(baseline_errors)))),
    )


def accuracy_error_sweep(grid: SweepGrid, oracle: AccuracyOracle, jobs: int = 1) -> ErrorReport:
    """MAE between monitor accuracy estimates and realized stream accuracy.

    Per seed, a full deployment is simulated and the monitor's mean
    post-warmup accuracy estimate is compared to the realized batch
    correctness over the same suffix.  The constant-InD baseline error is
    reported alongside every cell.
    """
    grid = grid.for_error_sweep()
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
    grid: SweepGrid,
    oracle: AccuracyOracle,
    profile: DetectorProfile,
    costs: CostModel,
    threshold: float,
) -> RiskCurveResult:
    """Estimated and realized per-batch risk versus true shift rate.

    One deployment of ``grid.risk_horizon`` batches per entry of
    ``grid.rates``, assessed over a window of ``grid.risk_trace_length``
    verdicts and seeded from ``grid.master_seed``.  Two system
    configurations share the same streams and verdicts: one routes
    positive verdicts to interventions (rv tree), one ignores them (base
    tree).  Estimated risk is the monitor's; actual risk prices the
    realized outcome of each batch.
    """
    grid.require_rates()
    if grid.risk_horizon <= grid.risk_trace_length:
        raise ValidationError(
            f"risk_horizon ({grid.risk_horizon}) must exceed "
            f"risk_trace_length ({grid.risk_trace_length})"
        )
    table, _, _ = batched_accuracy_table(oracle, batch_size=1, threshold=0.5)
    rv_config = MonitorConfig(
        topology="rv",
        profile=profile,
        accuracies=table,
        trace_capacity=grid.risk_trace_length,
        prior_rate=_SWEEP_PRIOR,
        costs=dict(costs),
    )
    rv_monitor = Monitor(rv_config)
    # The base system sees the same batches and verdicts, so the same rate
    # estimates; only the tree differs.
    evaluate_base = Monitor(replace(rv_config, topology="base")).evaluate

    points = []
    for ri, rate in enumerate(grid.rates):
        stream = generate_stream(
            StreamConfig(
                batch_size=1,
                shift_rate=float(rate),
                horizon=grid.risk_horizon,
                seed=derive_seed(grid.master_seed, _RISK_CURVE_TAG, ri, 0),
            ),
            oracle,
        )
        detector = SyntheticDetector(
            profile, _cell_rng(grid.master_seed, _RISK_CURVE_TAG, ri, 1)
        )
        rv = run_deployment(stream, detector, rv_monitor, 0.5)
        start = rv.warmup_end()
        _, base_risks = evaluate_base(rv.assessments.corrected[start:])
        points.append(
            RiskCurvePoint(
                rate=float(rate),
                estimated_rv=rv.mean_expected_risk(start),
                actual_rv=rv.realized_mean_cost(costs, True, start),
                estimated_base=sequential_sum(base_risks) / len(base_risks),
                actual_base=rv.realized_mean_cost(costs, False, start),
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
    return replace(
        params,
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
            check_range(f"{name} delta", delta, 0, 1)
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
