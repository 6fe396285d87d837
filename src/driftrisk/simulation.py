"""Synthetic deployment streams and the batch-correctness rule.

Streams and monitored traces are arrays with one entry per batch: a
deployment draws all its verdicts with one ``judge_many`` call and
assesses them with one ``Monitor.observe_many`` call.  Shift
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
    from .monitor import Assessments

from .errors import ConfigurationError, ValidationError, check_number
from .event_tree import (
    CORRECT_DETECTION,
    CostModel,
    FAILED_DETECTION,
    NECESSARY_INTERVENTION,
    UNNECESSARY_INTERVENTION,
)


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
        for name in ("batch_size", "horizon", "seed"):
            check_number(name, getattr(self, name), integer=True)
        check_number("shift_rate", self.shift_rate)
        if self.mixture_fraction is not None:
            check_number("mixture_fraction", self.mixture_fraction)
        if not isinstance(self.uniform, bool):
            raise ValidationError(f"uniform must be true or false, got {self.uniform!r}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if not 0.0 <= self.shift_rate <= 1.0:
            raise ValidationError(f"shift_rate must be in [0, 1], got {self.shift_rate!r}")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")
        if self.mixture_fraction is not None and not 0.0 <= self.mixture_fraction <= 1.0:
            raise ValidationError(
                f"mixture_fraction must be in [0, 1], got {self.mixture_fraction!r}"
            )


@dataclass(frozen=True)
class OodFold:
    """One kind of shifted data: its accuracy and sampling weight."""

    name: str
    accuracy: float
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= check_number("fold accuracy", self.accuracy) <= 1.0:
            raise ValidationError(f"fold accuracy must be in [0, 1], got {self.accuracy!r}")
        if check_number("fold weight", self.weight) < 0.0:
            raise ValidationError(f"fold weight must be >= 0, got {self.weight!r}")


@dataclass(frozen=True)
class AccuracyOracle:
    """Ground-truth correctness probabilities for stream generation."""

    ind_accuracy: float
    folds: tuple[OodFold, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= check_number("ind_accuracy", self.ind_accuracy) <= 1.0:
            raise ValidationError(
                f"ind_accuracy must be in [0, 1], got {self.ind_accuracy!r}"
            )
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
        fractions = events.astype(float)
        flags = np.broadcast_to(events[:, None], (horizon, size))
    else:
        if config.mixture_fraction is None:
            fractions = rng.random(horizon)
        else:
            fractions = np.full(horizon, config.mixture_fraction)
        fractions = np.where(events, fractions, 0.0)
        flags = rng.random((horizon, size)) < fractions[:, None]

    fold_accs = np.array([fold.accuracy for fold in oracle.folds])
    per_sample_acc = np.where(flags, fold_accs[fold_idx][:, None], oracle.ind_accuracy)
    correct = rng.random((horizon, size)) < per_sample_acc
    return Stream(
        event=events, fold=fold_idx, ood_fraction=flags.mean(axis=1), correct=correct
    )


def ind_percentile_threshold(ind_batch_accuracies: Sequence[float], percentile: float) -> float:
    """Percentile of clean-validation batch accuracies, linearly interpolated.

    Linear interpolation between closest order statistics is the pinned
    convention so thresholds are reproducible across runs and tooling.
    """
    values = np.asarray(ind_batch_accuracies, dtype=float)
    if values.size == 0:
        raise ValidationError("cannot take a percentile of an empty sequence")
    if not 0.0 <= percentile <= 100.0:
        raise ValidationError(f"percentile must be in [0, 100], got {percentile!r}")
    return float(np.percentile(values, percentile))


def batch_correct_probability(sample_accuracy: float, batch_size: int, threshold: float) -> float:
    """Exact probability that a pure batch passes the correctness rule.

    Binomial tail P(X >= ceil(threshold * B)) with X ~ Binom(B, accuracy).
    This is what a condition's "accuracy" means once evaluation is
    batch-wise, so tree parameters for batched monitors come from here.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size!r}")
    if not 0.0 <= sample_accuracy <= 1.0:
        raise ValidationError(f"sample_accuracy must be in [0, 1], got {sample_accuracy!r}")
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
    assessments: "Assessments"  # the monitor's output for each verdict

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
        detection.
        """
        window = _window(self.verdict, start)
        total = 0.0
        for verdict, is_ood, correct in zip(
            window.tolist(),
            self.is_ood[start:].tolist(),
            self.batch_correct[start:].tolist(),
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


def run_deployment(
    stream: Stream, detector, monitor, correct_threshold: float = 0.5
) -> DeploymentTrace:
    """Drive a monitor over a generated stream, one verdict per batch.

    All verdicts come from one judge_many draw, which equals a judge_batch
    call per batch on the same generator, and the monitor assesses them in
    one observe_many call, which equals an observe call per batch.
    """
    is_ood = stream.is_ood
    verdicts = detector.judge_many(is_ood)
    accuracy = stream.accuracy
    return DeploymentTrace(
        is_ood=is_ood,
        verdict=verdicts,
        batch_accuracy=accuracy,
        batch_correct=accuracy >= correct_threshold,
        assessments=monitor.observe_many(verdicts),
    )
