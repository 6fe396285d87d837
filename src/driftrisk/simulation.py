"""Synthetic deployment streams and the batch-correctness rule.

Streams and monitored traces are arrays with one entry per batch: a
deployment draws all its verdicts with one ``judge_many`` call and
assesses them with one ``Monitor.assess`` call.  Shift
events are Bernoulli per batch; a shifted batch is filled with event (OOD)
samples drawn from one of the oracle's folds, entirely in uniform mode or
per-sample at a mixture fraction otherwise.  Per-sample correctness is a
Bernoulli draw at the fold's accuracy, standing in for whatever task
metric defines "correct" for a single input.  A batch is correct when its
realized mean accuracy reaches a threshold, conventionally the 1st
percentile of batch accuracy observed on clean validation data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .monitor import Assessment

from .errors import ConfigurationError, ValidationError, check_range
from .event_tree import (
    CORRECT_DETECTION,
    CostModel,
    FAILED_DETECTION,
    NECESSARY_INTERVENTION,
    UNNECESSARY_INTERVENTION,
)


# The most samples (horizon x batch_size) one stream may hold: a stream
# and its deployment allocate several arrays of that many entries at once.
MAX_STREAM_SAMPLES = 10**7


def sequential_sum(values) -> float:
    """The sum of floats added one at a time in order, from 0.0, as a loop does.

    np.add.accumulate adds in sequence by definition, unlike np.sum and
    np.dot (pairwise or SIMD) and the built-in sum() since Python 3.12
    (compensated), so the result does not depend on the Python version.
    Adding 0.0 at the end turns an all -0.0 total into 0.0, as starting
    from 0.0 does.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1]) + 0.0


@dataclass(frozen=True)
class StreamConfig:
    """Deployment-stream generation parameters."""

    batch_size: int
    shift_rate: float
    horizon: int
    uniform: bool = True
    mixture_fraction: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("batch_size", self.batch_size, 1, integer=True)
        check_range("horizon", self.horizon, 1, integer=True)
        if self.horizon * self.batch_size > MAX_STREAM_SAMPLES:
            raise ValidationError(
                f"horizon x batch_size must be at most {MAX_STREAM_SAMPLES} samples, "
                f"got {self.horizon} x {self.batch_size}"
            )
        check_range("seed", self.seed, 0, integer=True)
        check_range("shift_rate", self.shift_rate, 0, 1)
        if self.mixture_fraction is not None:
            check_range("mixture_fraction", self.mixture_fraction, 0, 1)
        if not isinstance(self.uniform, bool):
            raise ValidationError(f"uniform must be true or false, got {self.uniform!r}")


@dataclass(frozen=True)
class OodFold:
    """One kind of shifted data: its accuracy and sampling weight."""

    name: str
    accuracy: float
    weight: float

    def __post_init__(self) -> None:
        check_range("fold accuracy", self.accuracy, 0, 1)
        check_range("fold weight", self.weight, 0)


@dataclass(frozen=True)
class AccuracyOracle:
    """Ground-truth correctness probabilities for stream generation."""

    ind_accuracy: float
    folds: tuple[OodFold, ...]

    def __post_init__(self) -> None:
        check_range("ind_accuracy", self.ind_accuracy, 0, 1)
        if not self.folds:
            raise ValidationError("oracle needs at least one OOD fold")
        total = sum(fold.weight for fold in self.folds)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"fold weights must sum to 1, got {total!r}")

    @classmethod
    def single(cls, ind_accuracy: float, ood_accuracy: float) -> "AccuracyOracle":
        return cls(ind_accuracy, (OodFold("ood", ood_accuracy, 1.0),))

    @classmethod
    def uniform_folds(
        cls, ind_accuracy: float, fold_accuracies: Sequence[float]
    ) -> "AccuracyOracle":
        n = len(fold_accuracies)
        return cls(
            ind_accuracy,
            tuple(OodFold(f"fold{i}", acc, 1.0 / n) for i, acc in enumerate(fold_accuracies)),
        )

    @property
    def ood_accuracy(self) -> float:
        """Weighted mean accuracy across folds."""
        return sequential_sum([fold.accuracy * fold.weight for fold in self.folds])


@dataclass(frozen=True)
class Stream:
    """A generated deployment stream, one array entry per batch."""

    event: np.ndarray         # bool: the Bernoulli shift draw per batch
    fold: np.ndarray          # int: index into oracle.folds, meaningful where event
    ood_fraction: np.ndarray  # float: realized fraction of event samples
    correct: np.ndarray       # bool, (horizon, batch_size): per-sample correctness

    @property
    def is_ood(self) -> np.ndarray:
        """Majority-rule ground truth seen by detectors."""
        return self.ood_fraction >= 0.5

    @property
    def accuracy(self) -> np.ndarray:
        """Realized mean accuracy of each batch."""
        return self.correct.mean(axis=1)


def generate_stream(config: StreamConfig, oracle: AccuracyOracle) -> Stream:
    """Generate the full batch sequence for a deployment run.

    Deterministic under config.seed: draw order is fixed (events, folds,
    mixture fractions, sample flags, correctness).
    """
    rng = np.random.default_rng(config.seed)
    horizon, size = config.horizon, config.batch_size

    events = rng.random(horizon) < config.shift_rate
    weights = np.array([fold.weight for fold in oracle.folds])
    fold_idx = rng.choice(len(oracle.folds), size=horizon, p=weights)

    if config.uniform:
        # Every sample of a batch shares its event flag, so the batch's OOD
        # fraction is that flag.
        flags = np.broadcast_to(events[:, None], (horizon, size))
        ood_fraction = events.astype(float)
    else:
        if config.mixture_fraction is None:
            fractions = rng.random(horizon)
        else:
            fractions = np.full(horizon, config.mixture_fraction)
        fractions = np.where(events, fractions, 0.0)
        flags = rng.random((horizon, size)) < fractions[:, None]
        ood_fraction = flags.mean(axis=1)

    fold_accs = np.array([fold.accuracy for fold in oracle.folds])
    per_sample_acc = np.where(flags, fold_accs[fold_idx][:, None], oracle.ind_accuracy)
    correct = rng.random((horizon, size)) < per_sample_acc
    return Stream(event=events, fold=fold_idx, ood_fraction=ood_fraction, correct=correct)


def ind_percentile_threshold(ind_batch_accuracies: Sequence[float], percentile: float) -> float:
    """Percentile of clean-validation batch accuracies, linearly interpolated.

    Linear interpolation between closest order statistics is the pinned
    convention so thresholds are reproducible across runs and tooling.  The
    arithmetic is numpy's "linear" percentile rule, step by step, so the
    result equals ``np.percentile`` bit for bit on finite values; calling
    that would import numpy.ma, which nothing else here needs.
    """
    values = np.array(ind_batch_accuracies, dtype=float).ravel()  # a copy, partitioned below
    if values.size == 0:
        raise ValidationError("cannot take a percentile of an empty sequence")
    check_range("percentile", percentile, 0, 100)
    virtual = (values.size - 1) * (percentile / 100)
    below = math.floor(virtual)
    above = below + 1
    if virtual >= values.size - 1:  # past the last value: numpy takes index -1 twice
        below = above = -1
    # numpy partitions at these positions (in np.unique's order) rather than
    # sorting; doing the same puts 0.0 and -0.0, which compare equal, where
    # it puts them.
    values.partition(sorted({0, -1, below, above}))
    low, high = float(values[below]), float(values[above])
    # numpy's _lerp, with its weight measured from the lower index.
    gamma = virtual - below
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1 - gamma)
    return low + diff * gamma


def clean_batch_threshold(
    rng: np.random.Generator,
    ind_accuracy: float,
    batch_size: int,
    batches: int = 1000,
    percentile: float = 1.0,
) -> float:
    """The batch-correctness threshold from simulated clean validation batches.

    The percentile of the realized mean accuracy of ``batches`` clean
    batches, whose samples are correct with probability ``ind_accuracy``,
    drawn from ``rng``.  Batch size 1 degenerates to per-sample
    correctness, pinned at 0.5, and draws nothing.
    """
    if batch_size == 1:
        return 0.5
    accs = (rng.random((batches, batch_size)) < ind_accuracy).mean(axis=1)
    return ind_percentile_threshold(accs, percentile)


def batch_correct_probability(sample_accuracy: float, batch_size: int, threshold: float) -> float:
    """Exact probability that a pure batch passes the correctness rule.

    Binomial tail P(X >= ceil(threshold * B)) with X ~ Binom(B, accuracy).
    This is what a condition's "accuracy" means once evaluation is
    batch-wise, so tree parameters for batched monitors come from here.
    """
    check_range("batch_size", batch_size, 1, integer=True)
    check_range("sample_accuracy", sample_accuracy, 0, 1)
    k_min = math.ceil(threshold * batch_size - 1e-9)
    if k_min <= 0:
        return 1.0
    if k_min > batch_size:
        return 0.0
    a = sample_accuracy
    return sequential_sum(
        [
            math.comb(batch_size, k) * a**k * (1.0 - a) ** (batch_size - k)
            for k in range(k_min, batch_size + 1)
        ]
    )


# The outcome of each code realized_mean_cost gives a batch.
_OUTCOMES = (
    CORRECT_DETECTION,
    FAILED_DETECTION,
    NECESSARY_INTERVENTION,
    UNNECESSARY_INTERVENTION,
)


def _window(values, start: int):
    window = values[start:]
    if len(window) == 0:
        raise ValidationError("empty suffix window")
    return window


@dataclass(frozen=True)
class DeploymentTrace:
    """A monitored deployment run, one array entry per batch.

    The summaries add floats with sequential_sum, in batch order, so they
    round exactly as a per-batch loop does.
    """

    is_ood: np.ndarray          # bool: majority-rule ground truth
    verdict: np.ndarray         # bool: the detector's verdict
    batch_accuracy: np.ndarray  # float: realized mean accuracy
    batch_correct: np.ndarray   # bool: batch_accuracy reaches the threshold
    assessments: "Assessment"  # the monitor's output for each verdict

    def __len__(self) -> int:
        return len(self.verdict)

    def warmup_end(self) -> int:
        """Index of the first batch estimated from the trace, not the prior."""
        estimated = np.flatnonzero(~self.assessments.using_prior)
        return int(estimated[0]) if len(estimated) else len(self)

    def realized_accuracy(self, start: int = 0) -> float:
        """Fraction of correct batches over a suffix window."""
        window = _window(self.batch_correct, start)
        return np.count_nonzero(window) / len(window)

    def realized_event_rate(self, start: int = 0) -> float:
        window = _window(self.is_ood, start)
        return np.count_nonzero(window) / len(window)

    def mean_expected_accuracy(self, start: int = 0) -> float:
        window = _window(self.assessments.expected_accuracy, start)
        return sequential_sum(window) / len(window)

    def mean_expected_risk(self, start: int = 0) -> float:
        if self.assessments.expected_risk is None:
            raise ConfigurationError("trace carries no risk estimates")
        window = _window(self.assessments.expected_risk, start)
        return sequential_sum(window) / len(window)

    def realized_mean_cost(
        self, costs: CostModel, with_interventions: bool, start: int = 0
    ) -> float:
        """Average realized per-batch cost over a suffix window.

        With interventions, a positive verdict routes to the intervention
        outcome (necessary iff the batch really was OOD); otherwise the
        model's own correctness decides between correct and failed
        detection.  An outcome without a cost entry raises
        ConfigurationError only when some batch of the window has it.
        """
        window = _window(self.verdict, start)
        codes = np.where(self.batch_correct[start:], 0, 1)
        if with_interventions:
            codes = np.where(window, np.where(self.is_ood[start:], 2, 3), codes)
        missing = [code for code, outcome in enumerate(_OUTCOMES) if outcome not in costs]
        unpriced = codes[np.isin(codes, missing)]
        if len(unpriced):
            # The first batch in the window whose outcome has no cost.
            raise ConfigurationError(f"no cost entry for outcome {_OUTCOMES[unpriced[0]]!r}")
        table = np.array([costs.get(outcome, 0.0) for outcome in _OUTCOMES], dtype=float)
        return sequential_sum(table[codes]) / len(window)


def run_deployment(
    stream: Stream, detector, monitor, correct_threshold: float = 0.5
) -> DeploymentTrace:
    """Drive a monitor over a generated stream, one verdict per batch.

    All verdicts come from one judge_many draw, which equals a judge_batch
    call per batch on the same generator, and the monitor assesses them in
    one assess call, which equals a step call per batch.  The monitor
    itself is left unchanged, so one monitor serves every deployment of its
    configuration.
    """
    is_ood = stream.is_ood
    verdicts = detector.judge_many(is_ood)
    accuracy = stream.accuracy
    return DeploymentTrace(
        is_ood=is_ood,
        verdict=verdicts,
        batch_accuracy=accuracy,
        batch_correct=accuracy >= correct_threshold,
        assessments=monitor.assess(verdicts),
    )
