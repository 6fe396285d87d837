"""Declarative run configuration: one JSON document drives every command.

The document has a mandatory schema_version and up to four sections
(monitor, stream, oracle, sweep); each command validates that the
sections it needs are present.  Unknown keys are rejected everywhere so
typos fail loudly instead of silently running a different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError, check_number
from .estimation import DetectorProfile
from .experiments import SweepGrid
from .monitor import MonitorConfig
from .simulation import AccuracyOracle, OodFold, StreamConfig

SCHEMA_VERSION = 1


def _check_keys(section: str, payload: dict, allowed: set, required: set = frozenset()) -> None:
    if not isinstance(payload, dict):
        raise ValidationError(f"{section} must be an object, got {type(payload).__name__}")
    unknown = set(payload) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = set(required) - set(payload)
    if missing:
        raise ValidationError(f"{section} is missing required keys: {sorted(missing)}")


_STREAM_KEYS = {
    "batch_size",
    "shift_rate",
    "horizon",
    "uniform",
    "mixture_fraction",
    "seed",
    "correct_threshold",
}


@dataclass(frozen=True)
class StreamSection:
    config: StreamConfig
    correct_threshold: float | None = None

    def to_dict(self) -> dict:
        c = self.config
        return {
            "batch_size": c.batch_size,
            "shift_rate": c.shift_rate,
            "horizon": c.horizon,
            "uniform": c.uniform,
            "mixture_fraction": c.mixture_fraction,
            "seed": c.seed,
            "correct_threshold": self.correct_threshold,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamSection":
        _check_keys(
            "stream", payload, _STREAM_KEYS, {"batch_size", "shift_rate", "horizon"}
        )
        threshold = payload.get("correct_threshold")
        if threshold is not None and not 0.0 < check_number("correct_threshold", threshold) <= 1.0:
            raise ValidationError(
                f"correct_threshold must be in (0, 1], got {threshold!r}"
            )
        return cls(
            config=StreamConfig(
                batch_size=payload["batch_size"],
                shift_rate=payload["shift_rate"],
                horizon=payload["horizon"],
                uniform=payload.get("uniform", True),
                mixture_fraction=payload.get("mixture_fraction"),
                seed=payload.get("seed", 0),
            ),
            correct_threshold=threshold,
        )


_ORACLE_KEYS = {"ind_accuracy", "folds"}
_FOLD_KEYS = {"name", "accuracy", "weight"}


def oracle_from_dict(payload: dict) -> AccuracyOracle:
    _check_keys("oracle", payload, _ORACLE_KEYS, _ORACLE_KEYS)
    folds = []
    for i, fold in enumerate(payload["folds"]):
        _check_keys(f"oracle.folds[{i}]", fold, _FOLD_KEYS, {"accuracy"})
        folds.append(
            OodFold(
                name=fold.get("name", f"fold{i}"),
                accuracy=fold["accuracy"],
                weight=fold.get("weight", 1.0 / len(payload["folds"])),
            )
        )
    return AccuracyOracle(ind_accuracy=payload["ind_accuracy"], folds=tuple(folds))


def oracle_to_dict(oracle: AccuracyOracle) -> dict:
    return {
        "ind_accuracy": oracle.ind_accuracy,
        "folds": [
            {"name": fold.name, "accuracy": fold.accuracy, "weight": fold.weight}
            for fold in oracle.folds
        ],
    }


_SWEEP_KEYS = {
    "rates",
    "profiles",
    "grid_step",
    "ba_floor",
    "batch_sizes",
    "trace_lengths",
    "seeds_per_cell",
    "master_seed",
    "horizon",
    "uniform",
    "mixture_fraction",
    "topology",
    "prior_rate",
    "percentile",
    "validation_batches",
    "classifier_deltas",
    "detector_deltas",
    "operating_rate",
    "risk_horizon",
    "risk_trace_length",
}


@dataclass(frozen=True)
class SweepSection:
    """Sweep axes plus the risk-curve and cba extras."""

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
    prior_rate: float = 0.5
    percentile: float = 1.0
    validation_batches: int = 1000
    classifier_deltas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2)
    detector_deltas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2)
    operating_rate: float | None = None
    risk_horizon: int = 4000
    risk_trace_length: int = 500

    def __post_init__(self) -> None:
        for name in (
            "seeds_per_cell",
            "master_seed",
            "horizon",
            "validation_batches",
            "risk_horizon",
            "risk_trace_length",
        ):
            check_number(name, getattr(self, name), integer=True)
        for name in ("ba_floor", "prior_rate", "percentile"):
            check_number(name, getattr(self, name))
        for name in ("grid_step", "mixture_fraction", "operating_rate"):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name))
        for name in ("batch_sizes", "trace_lengths"):
            for value in getattr(self, name):
                check_number(f"{name} entry", value, integer=True)
        for name in ("rates", "classifier_deltas", "detector_deltas"):
            for value in getattr(self, name):
                check_number(f"{name} entry", value)
        if not isinstance(self.uniform, bool):
            raise ValidationError(f"uniform must be true or false, got {self.uniform!r}")

    def resolved_profiles(self) -> tuple[DetectorProfile, ...]:
        if self.profiles is not None:
            return self.profiles
        if self.grid_step is not None:
            from .detectors import detector_grid

            return tuple(detector_grid(self.grid_step, self.ba_floor))
        raise ValidationError("sweep needs either 'profiles' or 'grid_step'")

    def to_grid(self, master_seed: int | None = None) -> SweepGrid:
        return SweepGrid(
            rates=self.rates,
            profiles=self.resolved_profiles(),
            batch_sizes=self.batch_sizes,
            trace_lengths=self.trace_lengths,
            seeds_per_cell=self.seeds_per_cell,
            master_seed=self.master_seed if master_seed is None else master_seed,
            horizon=self.horizon,
            uniform=self.uniform,
            mixture_fraction=self.mixture_fraction,
            topology=self.topology,
            prior_rate=self.prior_rate,
            percentile=self.percentile,
            validation_batches=self.validation_batches,
        )

    def to_dict(self) -> dict:
        return {
            "rates": list(self.rates),
            "profiles": None
            if self.profiles is None
            else [[p.tpr, p.tnr] for p in self.profiles],
            "grid_step": self.grid_step,
            "ba_floor": self.ba_floor,
            "batch_sizes": list(self.batch_sizes),
            "trace_lengths": list(self.trace_lengths),
            "seeds_per_cell": self.seeds_per_cell,
            "master_seed": self.master_seed,
            "horizon": self.horizon,
            "uniform": self.uniform,
            "mixture_fraction": self.mixture_fraction,
            "topology": self.topology,
            "prior_rate": self.prior_rate,
            "percentile": self.percentile,
            "validation_batches": self.validation_batches,
            "classifier_deltas": list(self.classifier_deltas),
            "detector_deltas": list(self.detector_deltas),
            "operating_rate": self.operating_rate,
            "risk_horizon": self.risk_horizon,
            "risk_trace_length": self.risk_trace_length,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSection":
        _check_keys("sweep", payload, _SWEEP_KEYS)
        kwargs = dict(payload)
        if kwargs.get("profiles") is not None:
            pairs = kwargs["profiles"]
            if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs
            ):
                raise ValidationError(
                    f"profiles must be a list of [tpr, tnr] pairs, got {pairs!r}"
                )
            kwargs["profiles"] = tuple(
                DetectorProfile(tpr=pair[0], tnr=pair[1]) for pair in pairs
            )
        for key in (
            "rates",
            "batch_sizes",
            "trace_lengths",
            "classifier_deltas",
            "detector_deltas",
        ):
            if key in kwargs and kwargs[key] is not None:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ValidationError(f"{key} must be a list, got {kwargs[key]!r}")
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document."""

    monitor: MonitorConfig | None = None
    stream: StreamSection | None = None
    oracle: AccuracyOracle | None = None
    sweep: SweepSection | None = None

    def to_dict(self) -> dict:
        payload: dict = {"schema_version": SCHEMA_VERSION}
        if self.monitor is not None:
            payload["monitor"] = self.monitor.to_dict()
        if self.stream is not None:
            payload["stream"] = self.stream.to_dict()
        if self.oracle is not None:
            payload["oracle"] = oracle_to_dict(self.oracle)
        if self.sweep is not None:
            payload["sweep"] = self.sweep.to_dict()
        return payload

    def require(self, *sections: str) -> None:
        missing = [name for name in sections if getattr(self, name) is None]
        if missing:
            raise ValidationError(
                f"config is missing required section(s): {', '.join(missing)}"
            )


_TOP_KEYS = {"schema_version", "monitor", "stream", "oracle", "sweep"}


def parse_run_config(payload: dict) -> RunConfig:
    _check_keys("config", payload, _TOP_KEYS, {"schema_version"})
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {payload['schema_version']!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return RunConfig(
        monitor=(
            MonitorConfig.from_dict(payload["monitor"]) if "monitor" in payload else None
        ),
        stream=(
            StreamSection.from_dict(payload["stream"]) if "stream" in payload else None
        ),
        oracle=oracle_from_dict(payload["oracle"]) if "oracle" in payload else None,
        sweep=SweepSection.from_dict(payload["sweep"]) if "sweep" in payload else None,
    )


def load_run_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    return parse_run_config(payload)


def dump_run_config(config: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
