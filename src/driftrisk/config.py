"""Declarative run configuration: one JSON document drives every command.

The document has a mandatory schema_version and up to four sections
(monitor, stream, oracle, sweep); each command validates that the
sections it needs are present.  Unknown keys are rejected everywhere so
typos fail loudly instead of silently running a different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ValidationError, check_fields, check_keys, check_range
from .experiments import SweepGrid
from .monitor import MonitorConfig
from .simulation import AccuracyOracle, OodFold, StreamConfig

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StreamSection:
    config: StreamConfig
    correct_threshold: float | None = None

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamSection":
        check_fields("stream", payload, StreamConfig, {"correct_threshold"})
        kwargs = dict(payload)
        threshold = kwargs.pop("correct_threshold", None)
        if threshold is not None:
            check_range("correct_threshold", threshold, 0, 1, low_open=True)
        return cls(config=StreamConfig(**kwargs), correct_threshold=threshold)


def oracle_from_dict(payload: dict) -> AccuracyOracle:
    check_fields("oracle", payload, AccuracyOracle)
    entries = payload["folds"]
    if not isinstance(entries, list):
        raise ValidationError(f"oracle.folds must be a list, got {entries!r}")
    folds = []
    for i, fold in enumerate(entries):
        check_keys(f"oracle.folds[{i}]", fold, {f.name for f in fields(OodFold)}, {"accuracy"})
        folds.append(
            OodFold(
                name=fold.get("name", f"fold{i}"),
                accuracy=fold["accuracy"],
                weight=fold.get("weight", 1.0 / len(entries)),
            )
        )
    return AccuracyOracle(ind_accuracy=payload["ind_accuracy"], folds=tuple(folds))


# Each optional section of the document and its parser, in parsing order.
_SECTIONS = {
    "monitor": MonitorConfig.from_dict,
    "stream": StreamSection.from_dict,
    "oracle": oracle_from_dict,
    "sweep": SweepGrid.from_dict,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document."""

    monitor: MonitorConfig | None = None
    stream: StreamSection | None = None
    oracle: AccuracyOracle | None = None
    sweep: SweepGrid | None = None

    def require(self, *sections: str) -> None:
        missing = [name for name in sections if getattr(self, name) is None]
        if missing:
            raise ValidationError(
                f"config is missing required section(s): {', '.join(missing)}"
            )


def parse_run_config(payload: dict) -> RunConfig:
    check_keys("config", payload, {"schema_version", *_SECTIONS}, {"schema_version"})
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {payload['schema_version']!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return RunConfig(
        **{name: parse(payload[name]) for name, parse in _SECTIONS.items() if name in payload}
    )


def load_run_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # JSON text is UTF-8, so bytes that do not decode are invalid JSON too.
        raise ValidationError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    return parse_run_config(payload)
