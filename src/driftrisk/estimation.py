"""Shift-rate estimation from imperfect detector verdicts.

The raw positive-verdict rate over a sliding window is a biased estimate
of the true event rate whenever the detector is imperfect: a true event
is flagged with probability TPR and a non-event with probability 1 - TNR.
Inverting that relation gives the bias-corrected rate estimate used by the
runtime monitor.  Each window is corrected independently; there is no
smoothing across windows.

Also here: detector profile calibration (TPR/TNR from labeled verdicts)
and model-accuracy tables conditioned on (event, verdict) partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    EstimationError,
    UninformativeDetectorError,
    ValidationError,
    check_number,
)
from .event_tree import (
    BASE_CONDITIONS,
    Condition,
    IND,
    OOD,
    RV_CONDITIONS,
    parse_condition,
)

# Informativeness floor below which corrected estimates are refused.
DEFAULT_J_FLOOR = 0.05


@dataclass(frozen=True)
class DetectorProfile:
    """TPR/TNR pair characterizing a verdict source."""

    tpr: float
    tnr: float

    def __post_init__(self) -> None:
        for name, value in (("tpr", self.tpr), ("tnr", self.tnr)):
            if not 0.0 <= check_number(name, value) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value!r}")

    @property
    def informativeness(self) -> float:
        """Youden's J = TPR + TNR - 1; zero means the verdicts carry no signal."""
        return self.tpr + self.tnr - 1.0

    @property
    def balanced_accuracy(self) -> float:
        return (self.tpr + self.tnr) / 2.0


class VerdictTrace:
    """Bounded FIFO window of boolean detector verdicts.

    Pushing at capacity evicts exactly the oldest verdict.  The bits live
    in a numpy ring of ``2 * capacity`` bools, written from the back
    towards the front, so the window read newest first is always the
    one contiguous slice :meth:`newest_first`.  When a push reaches the
    front, the newest ``capacity - 1`` bits are copied to the back: one
    copy per ``capacity`` pushes, and nothing is allocated per push.
    """

    def __init__(self, capacity: int, verdicts: Iterable[bool] = ()) -> None:
        if capacity < 1:
            raise ValidationError(f"trace capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self._ring = np.zeros(2 * self.capacity, dtype=bool)
        self._head = 2 * self.capacity  # the window is _ring[_head:_head + _fill]
        self._fill = 0
        self._positives = 0  # kept in sync for O(1) means over long windows
        self.extend(verdicts)

    def push(self, verdict: bool) -> "VerdictTrace":
        verdict = bool(verdict)
        ring, capacity = self._ring, self.capacity
        if self._fill == capacity:
            self._positives -= int(ring[self._head + capacity - 1])
        else:
            self._fill += 1
        if self._head == 0:
            ring[capacity + 1 :] = ring[: capacity - 1]
            self._head = capacity + 1
        self._head -= 1
        ring[self._head] = verdict
        self._positives += verdict
        return self

    def extend(self, verdicts: Iterable[bool] | np.ndarray) -> "VerdictTrace":
        """Push every verdict in order; a numpy array is written with one slice."""
        if isinstance(verdicts, np.ndarray):
            new = verdicts.astype(bool, copy=False)
        else:
            new = np.fromiter(map(bool, verdicts), dtype=bool)
        capacity = self.capacity
        new = new[-capacity:]
        keep = min(self._fill, capacity - len(new))
        if self._head < len(new):
            # No room in front of the bits that stay: move them to the back.
            self._ring[2 * capacity - keep :] = self._ring[self._head : self._head + keep]
            self._head = 2 * capacity - keep
        self._head -= len(new)
        self._ring[self._head : self._head + len(new)] = new[::-1]
        self._fill = keep + len(new)
        self._positives = int(np.count_nonzero(self.newest_first()))
        return self

    @property
    def fill(self) -> int:
        return self._fill

    @property
    def positives(self) -> int:
        return self._positives

    @property
    def fill_fraction(self) -> float:
        return self._fill / self.capacity

    def newest_first(self) -> np.ndarray:
        """Window contents, newest first: a view of the ring, not to be written."""
        return self._ring[self._head : self._head + self._fill]

    def to_list(self) -> list[bool]:
        """Window contents, oldest first."""
        return self.newest_first()[::-1].tolist()

    def __len__(self) -> int:
        return self.fill

    def __repr__(self) -> str:  # pragma: no cover
        return f"VerdictTrace(capacity={self.capacity}, fill={self.fill})"


def empirical_mean(trace: VerdictTrace) -> float:
    """Fraction of positive verdicts in the window."""
    if trace.fill == 0:
        raise EstimationError("insufficient data: verdict trace is empty")
    return trace.positives / trace.fill


def weighted_mean(trace: VerdictTrace, decay: float) -> float:
    """Exponentially weighted positive-verdict rate, newest verdict heaviest.

    Weight of a verdict of age a (age 0 = newest) is decay**a.  decay=1
    reproduces the plain empirical mean exactly.
    """
    if not 0.0 < decay <= 1.0:
        raise ValidationError(f"decay must be in (0, 1], got {decay!r}")
    if trace.fill == 0:
        raise EstimationError("insufficient data: verdict trace is empty")
    if decay == 1.0:
        return empirical_mean(trace)
    numerator = 0.0
    denominator = 0.0
    weight = 1.0
    for verdict in trace.newest_first().tolist():
        if verdict:
            numerator += weight
        denominator += weight
        weight *= decay
    return numerator / denominator


def decay_tables(decay: float, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights by age and denominators by fill, from weighted_mean's loop.

    ``weights[a]`` is the weight of age a and ``denominators[k]`` the
    denominator of a window of k + 1 verdicts, each rounded as that loop
    rounds it.  The loop's numerator is the sequential sum of
    ``weights[:fill] * newest_first``, which ``np.add.accumulate`` repeats
    bit for bit: it adds in order by definition, and adding 0.0 for a
    negative verdict changes nothing.  ``np.sum`` and ``np.dot`` add
    pairwise or with SIMD and round differently.
    """
    weights = []
    denominators = []
    weight = 1.0
    denominator = 0.0
    for _ in range(capacity):
        denominator += weight
        weights.append(weight)
        denominators.append(denominator)
        weight *= decay
    return np.array(weights), np.array(denominators)


def forward_bias(p_true: float, profile: DetectorProfile) -> float:
    """Expected observed positive rate at a given true event rate.

    This is the forward model that :func:`rogan_gladen` inverts, kept as a
    separate operation so tests can use it as an independent oracle.
    """
    if not 0.0 <= p_true <= 1.0:
        raise ValidationError(f"p_true must be in [0, 1], got {p_true!r}")
    return profile.tpr * p_true + (1.0 - profile.tnr) * (1.0 - p_true)


@dataclass(frozen=True)
class RateEstimate:
    """A corrected event-rate estimate with its diagnostics."""

    raw_mean: float
    corrected: float
    clamped: bool
    fill_fraction: float
    pre_clamp: float


def require_informative(profile: DetectorProfile, epsilon: float = DEFAULT_J_FLOOR) -> None:
    """Raise unless the profile clears the informativeness floor."""
    if profile.informativeness <= epsilon:
        raise UninformativeDetectorError(
            f"detector uninformative: TPR + TNR - 1 = {profile.informativeness:.6g} "
            f"<= {epsilon:.6g}; corrected rate estimates would be dominated by noise"
        )


def rogan_gladen(
    raw_mean: float,
    profile: DetectorProfile,
    epsilon: float = DEFAULT_J_FLOOR,
    fill_fraction: float = 1.0,
) -> RateEstimate:
    """Correct an observed positive rate for detector TPR/TNR bias.

    corrected = (raw_mean - (1 - TNR)) / (TPR + TNR - 1), clamped to
    [0, 1] with the clamped flag set when clamping moved the value.  With
    a perfect detector this reduces to the raw mean.  Refuses detectors
    whose informativeness is at or below ``epsilon``: the correction
    divides by J, so a weak detector turns verdict noise into arbitrarily
    large rate swings, and silent garbage is worse than an error here.
    """
    if not 0.0 <= raw_mean <= 1.0:
        raise ValidationError(f"raw_mean must be in [0, 1], got {raw_mean!r}")
    require_informative(profile, epsilon)
    pre_clamp = (raw_mean - (1.0 - profile.tnr)) / profile.informativeness
    corrected = min(1.0, max(0.0, pre_clamp))
    return RateEstimate(
        raw_mean=raw_mean,
        corrected=corrected,
        clamped=corrected != pre_clamp,
        fill_fraction=fill_fraction,
        pre_clamp=pre_clamp,
    )


def calibrate_profile(labeled: Iterable[tuple[bool, bool]]) -> DetectorProfile:
    """Estimate TPR/TNR from (verdict, is_ood) pairs.

    TPR is the flagged fraction of event-labeled samples, TNR the passed
    fraction of non-event samples.  Both label classes must be present.
    """
    flagged_ood = total_ood = passed_ind = total_ind = 0
    for verdict, is_ood in labeled:
        if is_ood:
            total_ood += 1
            flagged_ood += bool(verdict)
        else:
            total_ind += 1
            passed_ind += not verdict
    if total_ood == 0:
        raise CalibrationError("calibration data contains no event-labeled (OOD) samples")
    if total_ind == 0:
        raise CalibrationError("calibration data contains no non-event (InD) samples")
    return DetectorProfile(tpr=flagged_ood / total_ood, tnr=passed_ind / total_ind)


@dataclass(frozen=True)
class AccuracyCell:
    """Accuracy and sample support for one condition partition."""

    accuracy: float | None
    support: int

    @property
    def data_free(self) -> bool:
        return self.support == 0


@dataclass
class ConditionalAccuracyTable:
    """Model accuracy conditioned on (event, verdict) partitions.

    Zero-support partitions are flagged (accuracy None) rather than given
    a fabricated value; tree construction treats them as probability-weight
    zero via the ``data_free`` set.
    """

    cells: dict[Condition, AccuracyCell] = field(default_factory=dict)

    def accuracy(self, condition: Condition) -> float | None:
        cell = self.cells.get(condition)
        return None if cell is None else cell.accuracy

    def support(self, condition: Condition) -> int:
        cell = self.cells.get(condition)
        return 0 if cell is None else cell.support

    def tree_accuracies(self) -> dict[Condition, float]:
        """Accuracies usable for tree parameters (supported cells only)."""
        return {
            cond: cell.accuracy
            for cond, cell in self.cells.items()
            if cell.accuracy is not None
        }

    def data_free_conditions(self) -> frozenset[Condition]:
        return frozenset(cond for cond, cell in self.cells.items() if cell.data_free)

    def to_dict(self) -> dict[str, dict[str, float | int | None]]:
        return {
            cond.key: {"accuracy": cell.accuracy, "support": cell.support}
            for cond, cell in sorted(self.cells.items(), key=lambda kv: kv[0].key)
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ConditionalAccuracyTable":
        cells = {}
        if not isinstance(payload, dict):
            raise ValidationError(f"accuracies must be an object, got {payload!r}")
        for key, cell in payload.items():
            condition = parse_condition(key)
            if not isinstance(cell, dict):
                raise ValidationError(
                    f"accuracy cell {key!r} must be an object, got {cell!r}"
                )
            accuracy = cell.get("accuracy")
            if accuracy is not None:
                check_number(f"accuracy for condition {key!r}", accuracy)
                if not 0.0 <= accuracy <= 1.0:
                    raise ValidationError(
                        f"accuracy for condition {key!r} must be in [0, 1], got {accuracy!r}"
                    )
            support = check_number(
                f"support for condition {key!r}", cell.get("support", 0), integer=True
            )
            cells[condition] = AccuracyCell(accuracy, support)
        return cls(cells)


def conditional_accuracy(
    labeled: Iterable[tuple[bool, bool | None, bool]],
) -> ConditionalAccuracyTable:
    """Tabulate accuracy per condition from (is_ood, verdict, is_correct) rows.

    Marginal ind/ood partitions are always tabulated; the four (event,
    verdict) partitions are tabulated when verdicts are present.  Rows
    with verdict None contribute only to the marginals.
    """
    counts: dict[Condition, list[int]] = {}
    saw_verdicts = False

    def bump(condition: Condition, is_correct: bool) -> None:
        correct_total = counts.setdefault(condition, [0, 0])
        correct_total[0] += bool(is_correct)
        correct_total[1] += 1

    for is_ood, verdict, is_correct in labeled:
        bump(OOD if is_ood else IND, is_correct)
        if verdict is not None:
            saw_verdicts = True
            bump(Condition(is_ood=bool(is_ood), verdict=bool(verdict)), is_correct)

    expected: Sequence[Condition] = BASE_CONDITIONS + (RV_CONDITIONS if saw_verdicts else ())
    cells = {}
    for condition in expected:
        correct, total = counts.get(condition, [0, 0])
        cells[condition] = AccuracyCell(
            accuracy=(correct / total) if total else None, support=total
        )
    return ConditionalAccuracyTable(cells)
