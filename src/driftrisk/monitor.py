"""The runtime assurance loop.

A monitor owns one verdict trace.  Each observed verdict updates the
trace, re-estimates the event rate (a configured prior until the trace
has min_fill verdicts, a bias-corrected trace mean afterwards), evaluates
the event tree at the new rate, and emits an assessment with expected
accuracy, optional expected risk, and a threshold alert.  The tree is
built and compiled into a leaf table once, when the monitor is created;
only its two rate-dependent root edges change from verdict to verdict.
The Rogan-Gladen constants ``1 - TNR`` and ``J`` are fixed at creation
too, after the informativeness check.  With decay below 1, so are the
decayed mean's two tables (``estimation.decay_tables``): the weight of
each age and the denominator of each fill.  ``observe`` then takes the
window newest first as one slice of the trace's ring and adds up its
weights with one sequential ``np.add.accumulate``, which rounds exactly as
the ``weighted_mean`` loop does; ``observe_many`` reads the same tables.

Three entry points share that arithmetic.  :meth:`Monitor.observe` takes one
verdict and returns an :class:`Assessment`; it serves a live pipe, one
reply per verdict.  :meth:`Monitor.assess` takes a whole verdict array (a
simulated deployment, or a chunk of a recorded verdict file) and returns
one :class:`Assessments` of arrays after the monitor's window, computed
with numpy in the same floating-point operations and order as the
``observe`` loop, so every entry equals that loop's bit for bit; it leaves
the monitor as it was, so one fresh monitor serves any number of simulated
deployments of its configuration.  :meth:`Monitor.observe_many` assesses
an array the same way and then adds it to the window.

Monitors are deliberately free of randomness: their full state is the
config plus the trace window, which is what makes snapshot/restore exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import SnapshotError, ValidationError, check_fields, check_number, check_range
from .estimation import (
    DEFAULT_J_FLOOR,
    ConditionalAccuracyTable,
    DetectorProfile,
    RateEstimate,
    VerdictTrace,
    decay_tables,
    require_informative,
    rogan_gladen,  # noqa: F401
    weighted_mean,  # noqa: F401
)
# rogan_gladen, weighted_mean, expected_accuracy and expected_risk are not
# called here; they stay bound in this module because perfbench/spans.py
# wraps the monitor's estimation and tree calls by these names.
from .event_tree import (  # noqa: F401
    INTERVENTION_MODES,
    TreeParams,
    build_tree,
    compile_tree,
    expected_accuracy,
    expected_risk,
    validate_costs,
)

SNAPSHOT_FORMAT = "driftrisk.monitor"
SNAPSHOT_VERSION = 1

# The largest trace_capacity: a monitor allocates its window and, with decay
# below 1, builds its weight tables at creation, each in proportion to it.
MAX_TRACE_CAPACITY = 10**6


@dataclass(frozen=True)
class MonitorConfig:
    topology: str
    profile: DetectorProfile
    accuracies: ConditionalAccuracyTable
    prior_rate: float
    costs: dict[str, float] | None = None
    trace_capacity: int = 100
    min_fill: int | None = None          # defaults to a full trace
    risk_threshold: float | None = None
    decay: float = 1.0
    epsilon: float = DEFAULT_J_FLOOR
    intervention_counts_as: str = "correct"

    def __post_init__(self) -> None:
        if self.topology not in ("base", "rv"):
            raise ValidationError(f"topology must be 'base' or 'rv', got {self.topology!r}")
        check_range("trace_capacity", self.trace_capacity, 1, MAX_TRACE_CAPACITY, integer=True)
        if self.min_fill is not None:
            check_number("min_fill", self.min_fill, integer=True)
        check_range("prior_rate", self.prior_rate, 0, 1)
        check_range("decay", self.decay, 0, 1, low_open=True)
        # A negative floor would admit J <= 0, which the correction divides by.
        check_range("epsilon", self.epsilon, 0)
        if self.risk_threshold is not None:
            check_range("risk_threshold", self.risk_threshold, 0)
        if self.intervention_counts_as not in INTERVENTION_MODES:
            raise ValidationError(
                f"intervention_counts_as must be one of {INTERVENTION_MODES}"
            )
        if self.costs is not None:
            validate_costs(self.costs)
        fill = self.effective_min_fill
        if not 1 <= fill <= self.trace_capacity:
            raise ValidationError(
                f"min_fill must be in [1, trace_capacity], got {fill!r}"
            )

    @property
    def effective_min_fill(self) -> int:
        return self.trace_capacity if self.min_fill is None else self.min_fill

    def tree_params(self, p_event: float) -> TreeParams:
        """The parameters of this configuration's tree at one event rate."""
        return TreeParams(
            p_event=p_event,
            accuracies=self.accuracies.tree_accuracies(),
            tpr=self.profile.tpr,
            tnr=self.profile.tnr,
            data_free=self.accuracies.data_free_conditions(),
        )

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "profile": {"tpr": self.profile.tpr, "tnr": self.profile.tnr},
            "accuracies": self.accuracies.to_dict(),
            "trace_capacity": self.trace_capacity,
            "prior_rate": self.prior_rate,
            "costs": dict(self.costs) if self.costs is not None else None,
            "min_fill": self.min_fill,
            "risk_threshold": self.risk_threshold,
            "decay": self.decay,
            "epsilon": self.epsilon,
            "intervention_counts_as": self.intervention_counts_as,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MonitorConfig":
        check_fields("monitor", payload, cls)
        check_fields("monitor.profile", payload["profile"], DetectorProfile)
        kwargs = dict(payload)
        kwargs["profile"] = DetectorProfile(**payload["profile"])
        kwargs["accuracies"] = ConditionalAccuracyTable.from_dict(payload["accuracies"])
        return cls(**kwargs)


@dataclass(frozen=True)
class Assessment:
    """One monitor output for one observed verdict."""

    p_event: RateEstimate
    expected_accuracy: float
    expected_risk: float | None
    alert: bool
    using_prior: bool


@dataclass(frozen=True)
class Assessments:
    """Monitor outputs for an array of verdicts, one entry per verdict.

    Entry i holds the fields of the :class:`Assessment` (and its
    :class:`RateEstimate`) that the i-th call of an ``observe`` loop
    returns.  ``expected_risk`` is None when the monitor has no costs.
    """

    raw_mean: np.ndarray           # float
    corrected: np.ndarray          # float
    pre_clamp: np.ndarray          # float
    clamped: np.ndarray            # bool
    fill_fraction: np.ndarray      # float
    using_prior: np.ndarray        # bool
    expected_accuracy: np.ndarray  # float
    expected_risk: np.ndarray | None
    alert: np.ndarray              # bool

    def __len__(self) -> int:
        return len(self.alert)


def _verdict_array(verdicts: np.ndarray) -> np.ndarray:
    """A 1-D bool array from bools or 0/1 numbers; anything else is rejected."""
    values = np.asarray(verdicts)
    if values.ndim != 1:
        raise ValidationError(f"verdicts must be a 1-D array, got shape {values.shape}")
    if values.dtype != bool:
        if values.dtype.kind not in "iuf" or not np.isin(values, (0, 1)).all():
            raise ValidationError("verdicts must be 0 or 1")
        values = values.astype(bool)
    return values


class Monitor:
    """Stateful runtime monitor over a single verdict stream."""

    def __init__(self, config: MonitorConfig, _window: list[bool] | None = None) -> None:
        self.config = config
        # Fail fast rather than on the first post-warmup observation.  Once
        # the profile passes, the Rogan-Gladen correction needs no checks.
        require_informative(config.profile, config.epsilon)
        self._false_positive_rate = 1.0 - config.profile.tnr
        self._informativeness = config.profile.informativeness
        self.trace = VerdictTrace(config.trace_capacity, _window or ())
        # The decayed mean's weight and denominator tables, for observe and
        # observe_many alike; with decay 1 the mean is positives / fill.
        self._weights = self._denominators = None
        if config.decay < 1.0:
            self._weights, self._denominators = decay_tables(
                config.decay, config.trace_capacity
            )
        # Build once at the prior rate, so mis-configured accuracies and
        # unpriced reachable leaves surface at construction time, and
        # compile: every later rate reuses the same leaf table.  evaluate is
        # CompiledTree.evaluate, for callers that have rates but no verdicts.
        tree = build_tree(config.topology, config.tree_params(config.prior_rate), config.costs)
        self.evaluate = compile_tree(tree, priced=config.costs is not None).evaluate

    def observe(self, verdict: bool) -> Assessment:
        """Ingest one verdict and produce the updated assessment."""
        config = self.config
        trace = self.trace
        trace.push(verdict)
        fill = trace.fill
        if self._weights is None:
            raw = trace.positives / fill
        else:
            # weighted_mean, as decay_tables explains.
            numerators = np.add.accumulate(self._weights[:fill] * trace.newest_first())
            raw = float(numerators[-1] / self._denominators[fill - 1])
        using_prior = fill < config.effective_min_fill
        if using_prior:
            pre_clamp = corrected = float(config.prior_rate)
        else:
            # Rogan-Gladen, as estimation.rogan_gladen computes it.
            pre_clamp = (raw - self._false_positive_rate) / self._informativeness
            corrected = min(1.0, max(0.0, pre_clamp))
        accuracy, risk = self.evaluate(corrected, config.intervention_counts_as)
        alert = (
            config.risk_threshold is not None
            and risk is not None
            and risk > config.risk_threshold
        )
        return Assessment(
            p_event=RateEstimate(
                raw_mean=raw,
                corrected=corrected,
                clamped=corrected != pre_clamp,
                fill_fraction=trace.fill_fraction,
                pre_clamp=pre_clamp,
            ),
            expected_accuracy=accuracy,
            expected_risk=risk,
            alert=alert,
            using_prior=using_prior,
        )

    def observe_many(self, verdicts: np.ndarray) -> Assessments:
        """Ingest an array of verdicts (bool, or 0/1) and assess each one.

        Every entry equals, bit for bit, what a loop of :meth:`observe` over
        the same verdicts returns, and the monitor ends in the state that
        loop leaves, so :meth:`snapshot` afterwards is the same.  If the
        tree evaluation raises, the monitor is left unchanged.
        """
        assessments = self.assess(verdicts)
        self.trace.extend(verdicts)
        return assessments

    def assess(self, verdicts: np.ndarray) -> Assessments:
        """Assess an array of verdicts (bool, or 0/1) after this monitor's window.

        The entries equal what :meth:`observe_many` returns on the same
        verdicts, but the monitor is left unchanged: the verdicts are not
        added to its window.
        """
        new = _verdict_array(verdicts)
        config = self.config
        capacity = config.trace_capacity
        # The monitor's window, oldest first, then the new verdicts: verdict
        # i sits at seq[start + i] and its window is seq[end[i] - fill[i]:end[i]].
        seq = np.concatenate([self.trace.newest_first()[::-1], new])
        start = len(seq) - len(new)
        end = np.arange(start + 1, len(seq) + 1)
        fill = np.minimum(end, capacity)
        if self._weights is None:
            # Exact integer counts; one correctly rounded division each,
            # as in positives / fill.
            counts = np.concatenate(([0], np.cumsum(seq, dtype=np.int64)))
            raw = (counts[end] - counts[end - fill]).astype(float) / fill
        else:
            raw = self._decayed_means(seq, start, fill)
        using_prior = fill < config.effective_min_fill
        pre_clamp = np.where(
            using_prior,
            config.prior_rate,
            (raw - self._false_positive_rate) / self._informativeness,
        )
        corrected = np.minimum(1.0, np.maximum(0.0, pre_clamp))
        accuracy, risk = self.evaluate(corrected, config.intervention_counts_as)
        if config.risk_threshold is not None and risk is not None:
            alert = risk > config.risk_threshold
        else:
            alert = np.zeros(len(new), dtype=bool)
        return Assessments(
            raw_mean=raw,
            corrected=corrected,
            pre_clamp=pre_clamp,
            clamped=corrected != pre_clamp,
            fill_fraction=fill / capacity,
            using_prior=using_prior,
            expected_accuracy=accuracy,
            expected_risk=risk,
            alert=alert,
        )

    def _decayed_means(self, seq: np.ndarray, start: int, fill: np.ndarray) -> np.ndarray:
        """weighted_mean for every verdict from seq[start] on, in its order.

        weighted_mean adds the weight of each positive verdict, newest
        first; the denominator depends only on the fill.  Both come from the
        monitor's tables.  Numerators are built age by age, one vector add
        per age, which keeps that newest-to-oldest order for every verdict.
        """
        values = seq.astype(float)  # one cast, not one per age
        numerators = np.zeros(len(seq) - start)
        for age, weight in enumerate(self._weights[: len(seq)].tolist()):
            # New verdict i has an age-`age` neighbour, seq[start + i - age],
            # once start + i >= age.  A negative neighbour adds 0.0, which
            # leaves the sum exactly as skipping it does.
            first = max(0, age - start)
            numerators[first:] += values[start + first - age : len(seq) - age] * weight
        return numerators / self._denominators[fill - 1]

    def snapshot(self) -> str:
        """Serialize full monitor state to a versioned JSON envelope."""
        return json.dumps(
            {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "config": self.config.to_dict(),
                "window": [int(v) for v in self.trace.to_list()],
            },
            sort_keys=True,
        )

    @classmethod
    def restore(cls, payload: str) -> "Monitor":
        """Rebuild a monitor from a snapshot; round-trip is exact."""
        try:
            envelope = json.loads(payload)
        except (json.JSONDecodeError, TypeError) as exc:
            raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc
        if not isinstance(envelope, dict):
            raise SnapshotError("corrupt snapshot payload: not an object")
        if envelope.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"snapshot format mismatch: {envelope.get('format')!r}"
            )
        if envelope.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version mismatch: {envelope.get('version')!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        try:
            config = MonitorConfig.from_dict(envelope["config"])
            window = envelope["window"]
        except (KeyError, TypeError, ValidationError) as exc:
            raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc
        if not isinstance(window, list) or not all(
            type(v) in (bool, int) and v in (0, 1) for v in window
        ):
            raise SnapshotError(
                "corrupt snapshot payload: the window must be a list of 0/1 or booleans"
            )
        if len(window) > config.trace_capacity:
            raise SnapshotError("corrupt snapshot payload: window exceeds capacity")
        return cls(config, _window=[bool(v) for v in window])
