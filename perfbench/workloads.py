"""Seeded inputs and command lists for the four benchmark workloads.

Every input is generated from the run's seed into a work directory;
the program sees only those files.  Sweep configs are derived from the
checkout's ``configs/case_study.json``.  The amount of work in a pass does
not depend on the seed, so throughput is comparable across seeds.

Why these workloads:

* ``monitor-batch`` replays a recorded verdict stream file-in/file-out on
  the case-study rv monitor: per-verdict tree rebuilds (monitor,
  event_tree) and per-line format+flush (io) do nearly all the work.
* ``monitor-live`` feeds the same command over a pipe, one verdict per
  reply, on a base monitor with decay < 1: the O(window) weighted mean and
  the per-line flush matter here and not on monitor-batch.
* ``sweep-simulate`` drives batch-wise simulation (generate_stream,
  judge_batch, one observe per batch) through simulate, accuracy-error
  and risk-curve.
* ``sweep-vectorized`` is the control: numpy-only rate-error cells and the
  cba surface, with no Monitor at all.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checker

CASE_STUDY = os.path.join("configs", "case_study.json")

NAMES = ("monitor-batch", "monitor-live", "sweep-simulate", "sweep-vectorized")

# Raw positive-verdict rate of each phase, for the case-study profile
# (TPR 0.95, TNR 0.55, so 1 - TNR = 0.45 and J = 0.5).  "severe" corrects
# above 1 and "low" below 0, so both clamps occur; "severe" raises rv
# alerts and "shift" raises base alerts.
PHASES = (("quiet", 0.5), ("shift", 0.75), ("severe", 0.98), ("low", 0.35))

# Work per pass.  "smoke" keeps every step but shrinks it to seconds.
SIZES = {
    "full": {
        "batch_verdicts": 100_000,
        "live_verdicts": 20_000,
        "accuracy_seeds": 2,
        "accuracy_horizon": 2000,
        "risk_rates": None,  # the case-study rates
        "accuracy_trace_lengths": None,  # the case-study trace length
        "rate_seeds": 200,
        "rate_trace_lengths": [100, 500, 2000],
        "grid_step": 0.1,
        "cba_points": 21,
    },
    "smoke": {
        "batch_verdicts": 12_000,
        "live_verdicts": 12_000,
        "accuracy_seeds": 1,
        "accuracy_horizon": 300,
        "risk_rates": [0.0, 0.3, 0.4, 0.85, 0.95, 1.0],
        "accuracy_trace_lengths": [100],
        "rate_seeds": 5,
        "rate_trace_lengths": [50, 200],
        "grid_step": 0.2,
        "cba_points": 5,
    },
}

# The accuracy-error grid: three informative profiles and one that the
# sweep must refuse (TPR + TNR - 1 = 0.02).
ACCURACY_PROFILES = [[0.95, 0.55], [0.9, 0.85], [0.7, 0.6], [0.5, 0.52]]
ACCURACY_RATES = [0.1, 0.3, 0.5, 0.7, 0.9]
ACCURACY_BATCH_SIZES = [1, 16]

# Widened so the lattice includes the J = 0 diagonal, which is refused.
RATE_BA_FLOOR = 0.45

LIVE_DECAY = 0.98

# Outputs go under this subdirectory of the work directory, which the
# harness replaces by an empty one before every pass: freeing the blocks
# of an overwritten file can stall for tens of milliseconds, and that
# stall belongs to the file system, not to the program.
OUTPUT_DIR = "out"


@dataclass
class Command:
    """One CLI invocation, the files it writes, and how to check them."""

    argv: list[str]
    expected_rc: int
    outputs: list[str]
    check: Callable[[list[bytes]], list[str]]  # problems found in the outputs
    ops: int  # operations the command counts: assessment rows, or 1


@dataclass
class Workload:
    name: str
    live: bool
    output_dir: str
    configs: list[str]  # loaded during set-up
    commands: list[Command]
    units: int  # verdicts assessed or drawn per pass
    lines: list[bytes] = field(default_factory=list)  # monitor-live input
    batch_sizes: int = 0  # distinct batch sizes in the accuracy-error grid

    @property
    def ops(self) -> int:
        return sum(command.ops for command in self.commands)


def verdict_stream(seed: int, n: int, window: int) -> np.ndarray:
    """n verdicts cycling through PHASES, each phase 2-4 windows long."""
    rng = np.random.default_rng([seed, 11])
    verdicts = np.empty(n, dtype=np.int8)
    pos = 0
    while pos < n:
        for _, rate in PHASES:
            length = min(int(rng.integers(2 * window, 4 * window + 1)), n - pos)
            verdicts[pos : pos + length] = rng.random(length) < rate
            pos += length
            if pos == n:
                break
    return verdicts


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def _write_verdicts(path: str, verdicts: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join("1\n" if v else "0\n" for v in verdicts))
    return path


def _informative(tpr: float, tnr: float) -> bool:
    return tpr + tnr - 1.0 > checker.J_FLOOR


def _report_files(directory: str) -> list[str]:
    return [os.path.join(directory, "report.csv"), os.path.join(directory, "metadata.json")]


def build(name: str, seed: int, root: str, work: str, size: str = "full") -> Workload:
    """Write the inputs of one workload into ``work`` and list its commands."""
    sizes = SIZES[size]
    with open(os.path.join(root, CASE_STUDY), encoding="utf-8") as handle:
        case_study = json.load(handle)
    monitor = case_study["monitor"]
    window = monitor["trace_capacity"]
    output_dir = os.path.join(work, OUTPUT_DIR)
    os.makedirs(output_dir, exist_ok=True)

    def path(filename: str) -> str:
        return os.path.join(work, filename)

    def output(filename: str) -> str:
        return os.path.join(output_dir, filename)

    if name == "monitor-batch":
        config = _write_json(path("monitor_rv.json"), case_study)
        verdicts = verdict_stream(seed, sizes["batch_verdicts"], window)
        source = _write_verdicts(path("verdicts.txt"), verdicts)
        expected = checker.reference_rows(verdicts, monitor)
        checker.require_coverage(expected)
        out = output("assessments.csv")
        command = Command(
            argv=["monitor", "--config", config, "--input", source, "--output", out,
                  "--format", "csv"],
            expected_rc=checker.expected_rc(expected),
            outputs=[out],
            check=lambda blobs: checker.check_assessments(blobs[0], expected, "csv"),
            ops=len(verdicts),
        )
        return Workload(name, False, output_dir, [config], [command], len(verdicts))

    if name == "monitor-live":
        live_monitor = dict(monitor, topology="base", decay=LIVE_DECAY)
        config = _write_json(
            path("monitor_live.json"), {"schema_version": 1, "monitor": live_monitor}
        )
        verdicts = verdict_stream(seed, sizes["live_verdicts"], window)
        expected = checker.reference_rows(verdicts, live_monitor)
        checker.require_coverage(expected)
        command = Command(
            argv=["monitor", "--config", config, "--format", "structured"],
            expected_rc=checker.expected_rc(expected),
            outputs=[],
            check=lambda blobs: checker.check_assessments(blobs[0], expected, "structured"),
            ops=len(verdicts),
        )
        lines = [b"1\n" if v else b"0\n" for v in verdicts]
        return Workload(name, True, output_dir, [], [command], len(verdicts), lines=lines)

    if name == "sweep-simulate":
        sweep = case_study["sweep"]
        risk = dict(case_study, sweep=dict(sweep))
        if sizes["risk_rates"] is not None:
            risk["sweep"]["rates"] = sizes["risk_rates"]
        risk_config = _write_json(path("risk_curve.json"), risk)
        accuracy = dict(case_study, sweep=dict(sweep))
        accuracy["sweep"].pop("grid_step")
        accuracy["sweep"].update(
            profiles=ACCURACY_PROFILES,
            rates=ACCURACY_RATES,
            batch_sizes=ACCURACY_BATCH_SIZES,
            seeds_per_cell=sizes["accuracy_seeds"],
            horizon=sizes["accuracy_horizon"],
            uniform=False,
        )
        if sizes["accuracy_trace_lengths"] is not None:
            accuracy["sweep"]["trace_lengths"] = sizes["accuracy_trace_lengths"]
        accuracy_config = _write_json(path("accuracy_sweep.json"), accuracy)
        stream = case_study["stream"]
        trace_out = output("trace.csv")
        accuracy_dir, risk_dir = output("accuracy"), output("risk")
        grid = accuracy["sweep"]
        repeats = len(grid["batch_sizes"]) * len(grid["trace_lengths"])
        informative = sum(_informative(*p) for p in grid["profiles"])
        risk_rates = risk["sweep"]["rates"]
        units = (
            stream["horizon"]
            + informative * len(grid["rates"]) * repeats * grid["seeds_per_cell"] * grid["horizon"]
            + 2 * len(risk_rates) * risk["sweep"]["risk_horizon"]
        )
        seed_arg = ["--seed", str(seed)]
        commands = [
            Command(
                ["simulate", "--config", risk_config, "--output", trace_out, *seed_arg],
                0,
                [trace_out],
                lambda blobs: checker.check_trace(blobs[0], monitor, stream["horizon"]),
                1,
            ),
            Command(
                ["sweep", "accuracy-error", "--config", accuracy_config, "--output",
                 accuracy_dir, "--jobs", "1", *seed_arg],
                0,
                _report_files(accuracy_dir),
                lambda blobs: checker.check_error_report(
                    blobs, "accuracy-error", grid["profiles"], grid["rates"], repeats,
                    grid["seeds_per_cell"],
                ),
                1,
            ),
            Command(
                ["sweep", "risk-curve", "--config", risk_config, "--output", risk_dir,
                 "--jobs", "1", *seed_arg],
                0,
                _report_files(risk_dir),
                lambda blobs: checker.check_risk_curve(blobs, monitor, len(risk_rates)),
                1,
            ),
        ]
        return Workload(
            name, False, output_dir, [risk_config, accuracy_config], commands, units,
            batch_sizes=len(grid["batch_sizes"]),
        )

    if name == "sweep-vectorized":
        sweep = dict(case_study["sweep"])
        points = sizes["cba_points"]
        deltas = [round(0.2 * i / (points - 1), 6) for i in range(points)]
        sweep.update(
            grid_step=sizes["grid_step"],
            ba_floor=RATE_BA_FLOOR,
            trace_lengths=sizes["rate_trace_lengths"],
            seeds_per_cell=sizes["rate_seeds"],
            horizon=2 * max(sizes["rate_trace_lengths"]),
            classifier_deltas=deltas,
            detector_deltas=deltas,
        )
        config = _write_json(path("vectorized_sweep.json"), dict(case_study, sweep=sweep))
        profiles = checker.lattice(sweep["grid_step"], sweep["ba_floor"])
        informative = sum(_informative(*p) for p in profiles)
        units = (
            informative * len(sweep["rates"]) * sweep["seeds_per_cell"]
            * sum(sweep["trace_lengths"])
        )
        rate_dir, cba_dir = output("rate"), output("cba")
        seed_arg = ["--seed", str(seed)]
        commands = [
            Command(
                ["sweep", "rate-error", "--config", config, "--output", rate_dir,
                 "--jobs", "1", *seed_arg],
                0,
                _report_files(rate_dir),
                lambda blobs: checker.check_error_report(
                    blobs, "rate-error", profiles, sweep["rates"], len(sweep["trace_lengths"]),
                    sweep["seeds_per_cell"],
                ),
                1,
            ),
            Command(
                ["sweep", "cba", "--config", config, "--output", cba_dir, "--jobs", "1",
                 *seed_arg],
                0,
                _report_files(cba_dir),
                lambda blobs: checker.check_cba(blobs, monitor, sweep),
                1,
            ),
        ]
        return Workload(name, False, output_dir, [config], commands, units)

    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
