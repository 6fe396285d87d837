"""Tracing from outside the program: span wrappers and per-layer metrics.

The wrappers are installed on the bindings that callers actually use.  A
function imported by name into another module is looked up there at call
time, so wrapping ``driftrisk.monitor.build_tree`` times the monitor's tree
rebuilds while leaving other callers of ``event_tree.build_tree`` alone.
Methods are wrapped on their class, which every caller shares.

Spans (name, start, end, parent) are appended to flat arrays and written
once, when the traced process ends.  Calls nest on one thread, so the
direct children of a span never overlap and its self time is its duration
minus the sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("driftrisk.cli", "load_run_config", "config.load_run_config"),
    ("driftrisk.io", "iter_verdicts", "io.iter_verdicts"),
    ("driftrisk.io", "assessment_row", "io.assessment_row"),
    ("driftrisk.io", "emit_assessment", "io.emit_assessment"),
    ("driftrisk.io", "write_rows_csv", "io.write_rows_csv"),
    ("driftrisk.io", "write_trace_csv", "io.write_trace_csv"),
    ("driftrisk.monitor", "weighted_mean", "estimation.weighted_mean"),
    ("driftrisk.monitor", "rogan_gladen", "estimation.rogan_gladen"),
    ("driftrisk.monitor", "build_tree", "event_tree.build_tree"),
    ("driftrisk.monitor", "expected_accuracy", "event_tree.expected_accuracy"),
    ("driftrisk.monitor", "expected_risk", "event_tree.expected_risk"),
    ("driftrisk.experiments", "build_rv_tree", "event_tree.build_tree"),
    ("driftrisk.experiments", "expected_risk", "event_tree.expected_risk"),
    ("driftrisk.experiments", "sensitivity", "event_tree.sensitivity"),
    ("driftrisk.cli", "generate_stream", "simulation.generate_stream"),
    ("driftrisk.experiments", "generate_stream", "simulation.generate_stream"),
    ("driftrisk.cli", "run_deployment", "simulation.run_deployment"),
    ("driftrisk.experiments", "run_deployment", "simulation.run_deployment"),
    ("driftrisk.experiments", "rate_error_cell", "experiments.rate_error_cell"),
    ("driftrisk.experiments", "accuracy_error_cell", "experiments.accuracy_error_cell"),
    ("driftrisk.experiments", "validation_threshold", "experiments.validation_threshold"),
    ("driftrisk.cli", "risk_curve", "experiments.risk_curve"),
    ("driftrisk.cli", "cba_surface", "experiments.cba_surface"),
)

# Functions that return generators are timed per next() call.
GENERATORS = {"io.iter_verdicts"}

# (module, class, method, span name).
METHODS = (
    ("driftrisk.monitor", "Monitor", "observe", "monitor.observe"),
    ("driftrisk.monitor", "Monitor", "__init__", "monitor.Monitor_init"),
    ("driftrisk.detectors", "SyntheticDetector", "judge_batch", "detectors.judge_batch"),
    ("driftrisk.detectors", "SyntheticDetector", "judge_many", "detectors.judge_many"),
) + tuple(
    ("driftrisk.simulation", "DeploymentTrace", method, "simulation.trace_summary")
    for method in (
        "warmup_end",
        "realized_accuracy",
        "realized_event_rate",
        "mean_expected_accuracy",
        "mean_expected_risk",
        "realized_mean_cost",
    )
)

ROOT = "cli.main"

# Per-layer metrics of a traced run, in the order BENCHMARK.json lists them:
# (metric, unit, better).  Counts are per pass.  Self time is given as a
# share of the traced pass (multiply by trace.self_sum_s for seconds), so
# that a layer a workload never calls reads 0 as a share, not as a time;
# only the layers every workload calls report seconds.
PER_LAYER = (
    ("config.load_run_config.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.cpu_user_s", "s", "lower"),
    ("cli.cpu_sys_s", "s", "lower"),
    ("io.iter_verdicts.self_share", "ratio", "lower"),
    ("io.assessment_row.self_share", "ratio", "lower"),
    ("io.emit_assessment.calls", "count", "lower"),
    ("io.emit_assessment.self_share", "ratio", "lower"),
    ("io.write_rows_csv.self_share", "ratio", "lower"),
    ("io.write_trace_csv.self_share", "ratio", "lower"),
    ("monitor.observe.calls", "count", "lower"),
    ("monitor.observe.self_share", "ratio", "lower"),
    ("monitor.Monitor_init.calls", "count", "lower"),
    ("monitor.Monitor_init.self_share", "ratio", "lower"),
    ("estimation.weighted_mean.calls", "count", "lower"),
    ("estimation.weighted_mean.self_share", "ratio", "lower"),
    ("estimation.rogan_gladen.calls", "count", "lower"),
    ("estimation.rogan_gladen.self_share", "ratio", "lower"),
    ("event_tree.build_tree.calls", "count", "lower"),
    ("event_tree.build_tree.self_share", "ratio", "lower"),
    ("event_tree.expected_accuracy.self_share", "ratio", "lower"),
    ("event_tree.expected_risk.self_share", "ratio", "lower"),
    ("event_tree.builds_per_observe", "ratio", "lower"),
    ("event_tree.sensitivity.calls", "count", "lower"),
    ("event_tree.sensitivity.self_share", "ratio", "lower"),
    ("experiments.cba_surface.self_share", "ratio", "lower"),
    ("simulation.generate_stream.calls", "count", "lower"),
    ("simulation.generate_stream.self_share", "ratio", "lower"),
    ("simulation.run_deployment.self_share", "ratio", "lower"),
    ("simulation.trace_summary.self_share", "ratio", "lower"),
    ("detectors.judge_batch.calls", "count", "lower"),
    ("detectors.judge_batch.self_share", "ratio", "lower"),
    ("detectors.judge_many.calls", "count", "lower"),
    ("detectors.judge_many.self_share", "ratio", "lower"),
    ("experiments.rate_error_cell.calls", "count", "lower"),
    ("experiments.rate_error_cell.self_share", "ratio", "lower"),
    ("experiments.accuracy_error_cell.calls", "count", "lower"),
    ("experiments.accuracy_error_cell.self_share", "ratio", "lower"),
    ("experiments.risk_curve.self_share", "ratio", "lower"),
    ("experiments.validation_threshold.calls_per_batch_size", "ratio", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    """Records one span per wrapped call into flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def wrap_generator(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every binding in FUNCTIONS and METHODS."""
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            wrap = self.wrap_generator if name in GENERATORS else self.wrap
            setattr(module, attr, wrap(name, fn))
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method)))

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total self time, and inclusive call durations."""
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    start, end = spans["start"], spans["end"]
    own = self_times(parent, start, end)
    duration = end - start
    out = {}
    for nid, label in enumerate(names):
        mask = name == nid
        out[label] = {
            "calls": int(mask.sum()),
            "self_s": float(own[mask].sum()),
            "durations": duration[mask],
        }
    if "event_tree.build_tree" in out and "monitor.observe" in out:
        observe_id = names.index("monitor.observe")
        builds = (name == names.index("event_tree.build_tree")) & (parent >= 0)
        out["event_tree.build_tree"]["in_observe"] = int(
            (name[parent[builds]] == observe_id).sum()
        )
    return out


def per_layer(
    summary: dict[str, dict],
    cpu: tuple[float, float],
    run_s: float,
    untraced_run_s: float,
    batch_sizes: int,
) -> dict[str, float]:
    """Map a traced pass onto the PER_LAYER metric names."""

    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    self_sum = sum(entry["self_s"] for entry in summary.values())
    observes = get("monitor.observe", "calls")
    values = {
        "cli.cpu_user_s": cpu[0],
        "cli.cpu_sys_s": cpu[1],
        "event_tree.builds_per_observe": (
            get("event_tree.build_tree", "in_observe") / observes if observes else 0.0
        ),
        "experiments.validation_threshold.calls_per_batch_size": (
            get("experiments.validation_threshold", "calls") / batch_sizes
            if batch_sizes
            else 0.0
        ),
        "trace.run_s": run_s,
        "trace.self_sum_s": self_sum,
        "trace.overhead": run_s / untraced_run_s,
    }
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s"):
            values[metric] = get(layer, stat)
        elif stat == "self_share":
            values[metric] = get(layer, "self_s") / self_sum
    return {metric: values[metric] for metric, _, _ in PER_LAYER}


def span_table(summary: dict[str, dict]) -> list[str]:
    """One line per span name: calls, self time, and call-time percentiles."""
    lines = []
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        if not entry["calls"]:
            continue
        p50, p99 = np.percentile(entry["durations"], [50, 99]) * 1e6
        lines.append(
            f"{name:40s} {entry['calls']:>9d} calls  self {entry['self_s']:9.4f} s  "
            f"p50 {p50:9.2f} us  p99 {p99:9.2f} us"
        )
    return lines
