"""The runtime assurance loop.

A monitor owns one verdict trace.  Each observed verdict updates the
trace, re-estimates the event rate (a configured prior until the trace
has min_fill verdicts, a bias-corrected trace mean afterwards), evaluates
the event tree at the new rate, and emits an assessment with expected
accuracy, optional expected risk, and a threshold alert.  The tree is
built and compiled into a leaf table once, when the monitor is created;
only its two rate-dependent root edges change from verdict to verdict.

Monitors are deliberately free of randomness: their full state is the
config plus the trace window, which is what makes snapshot/restore exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import SnapshotError, ValidationError, check_number
from .estimation import (
    DEFAULT_J_FLOOR,
    ConditionalAccuracyTable,
    DetectorProfile,
    RateEstimate,
    VerdictTrace,
    require_informative,
    rogan_gladen,
    weighted_mean,
)
# expected_accuracy and expected_risk are not called here; they stay bound
# in this module because perfbench/spans.py wraps the monitor's tree calls
# by these names.
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
        check_number("trace_capacity", self.trace_capacity, integer=True)
        if self.min_fill is not None:
            check_number("min_fill", self.min_fill, integer=True)
        for name in ("prior_rate", "decay", "epsilon"):
            check_number(name, getattr(self, name))
        if self.risk_threshold is not None:
            check_number("risk_threshold", self.risk_threshold)
            if self.risk_threshold < 0.0:
                raise ValidationError(
                    f"risk_threshold must be >= 0, got {self.risk_threshold!r}"
                )
        if self.trace_capacity < 1:
            raise ValidationError(f"trace_capacity must be >= 1, got {self.trace_capacity!r}")
        if not 0.0 <= self.prior_rate <= 1.0:
            raise ValidationError(f"prior_rate must be in [0, 1], got {self.prior_rate!r}")
        if not 0.0 < self.decay <= 1.0:
            raise ValidationError(f"decay must be in (0, 1], got {self.decay!r}")
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
        known = {
            "topology",
            "profile",
            "accuracies",
            "trace_capacity",
            "prior_rate",
            "costs",
            "min_fill",
            "risk_threshold",
            "decay",
            "epsilon",
            "intervention_counts_as",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"unknown monitor config keys: {sorted(unknown)}")
        for required in ("topology", "profile", "accuracies", "prior_rate"):
            if required not in payload:
                raise ValidationError(f"monitor config missing required key {required!r}")
        profile = payload["profile"]
        if not isinstance(profile, dict):
            raise ValidationError(f"profile must be an object, got {profile!r}")
        extra = set(profile) - {"tpr", "tnr"}
        if extra:
            raise ValidationError(f"unknown profile keys: {sorted(extra)}")
        kwargs = dict(payload)
        kwargs["profile"] = DetectorProfile(tpr=profile.get("tpr"), tnr=profile.get("tnr"))
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


class Monitor:
    """Stateful runtime monitor over a single verdict stream."""

    def __init__(self, config: MonitorConfig, _window: list[bool] | None = None) -> None:
        self.config = config
        # Fail fast rather than on the first post-warmup observation.
        require_informative(config.profile, config.epsilon)
        self.trace = VerdictTrace(config.trace_capacity, _window or ())
        # Build once at the prior rate, so mis-configured accuracies and
        # unpriced reachable leaves surface at construction time, and
        # compile: every later rate reuses the same leaf table.
        params = TreeParams(
            p_event=config.prior_rate,
            accuracies=config.accuracies.tree_accuracies(),
            tpr=config.profile.tpr,
            tnr=config.profile.tnr,
            data_free=config.accuracies.data_free_conditions(),
        )
        tree = build_tree(config.topology, params, config.costs)
        self._evaluate = compile_tree(tree, priced=config.costs is not None).evaluate

    def observe(self, verdict: bool) -> Assessment:
        """Ingest one verdict and produce the updated assessment."""
        config = self.config
        self.trace.push(verdict)
        raw = weighted_mean(self.trace, config.decay)
        using_prior = self.trace.fill < config.effective_min_fill
        if using_prior:
            estimate = RateEstimate(
                raw_mean=raw,
                corrected=config.prior_rate,
                clamped=False,
                fill_fraction=self.trace.fill_fraction,
                pre_clamp=config.prior_rate,
            )
        else:
            estimate = rogan_gladen(
                raw, config.profile, config.epsilon, self.trace.fill_fraction
            )
        accuracy, risk = self._evaluate(
            estimate.corrected, config.intervention_counts_as
        )
        alert = (
            config.risk_threshold is not None
            and risk is not None
            and risk > config.risk_threshold
        )
        return Assessment(
            p_event=estimate,
            expected_accuracy=accuracy,
            expected_risk=risk,
            alert=alert,
            using_prior=using_prior,
        )

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
            window = [bool(v) for v in envelope["window"]]
        except (KeyError, TypeError, ValidationError) as exc:
            raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc
        if len(window) > config.trace_capacity:
            raise SnapshotError("corrupt snapshot payload: window exceeds capacity")
        return cls(config, _window=window)
