"""Command-line surface: simulate, monitor, sweep, calibrate.

Exit codes are a stable contract:

  0  success (monitor: completed with no alert)
  1  usage or config error
  2  data or validation error
  3  monitor completed and at least one alert was raised
  4  detector uninformative

No environment variable changes what a command does; seeds change only
via --seed.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .config import RunConfig, SCHEMA_VERSION, load_run_config
from .errors import (
    DriftRiskError,
    UninformativeDetectorError,
    ValidationError,
    check_range,
)
from .estimation import calibrate_profile, conditional_accuracy
from .experiments import (
    accuracy_error_sweep,
    cba_surface,
    derive_seed,
    rate_error_sweep,
    risk_curve,
)
from .detectors import SyntheticDetector
from .monitor import Monitor
from .simulation import clean_batch_threshold, generate_stream, run_deployment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALERT = 3
EXIT_UNINFORMATIVE = 4

_SIM_DETECTOR_TAG = 7
_SIM_VALIDATION_TAG = 8


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _load_config(path: str) -> RunConfig:
    try:
        return load_run_config(path)
    except FileNotFoundError:
        raise _CliError(EXIT_USAGE, f"config file not found: {path}") from None
    except DriftRiskError as exc:
        raise _CliError(EXIT_USAGE, f"config error: {exc}") from exc


def _require(config: RunConfig, *sections: str) -> None:
    try:
        config.require(*sections)
    except ValidationError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc


def _simulate_threshold(config: RunConfig, stream_config) -> float:
    """Batch-correctness threshold for a simulated deployment.

    Explicit in the config when given; otherwise 0.5 for single-sample
    batches and the 1st-percentile clean-validation rule for larger ones,
    seeded deterministically from the (possibly overridden) stream seed.
    """
    if config.stream.correct_threshold is not None:
        return config.stream.correct_threshold
    return clean_batch_threshold(
        np.random.default_rng(derive_seed(stream_config.seed, _SIM_VALIDATION_TAG)),
        config.oracle.ind_accuracy,
        stream_config.batch_size,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    _require(config, "stream", "oracle", "monitor")
    stream_config = config.stream.config
    if args.seed is not None:
        try:
            stream_config = replace(stream_config, seed=args.seed)
        except ValidationError as exc:
            raise _CliError(EXIT_USAGE, f"config error: {exc}") from exc
    stream = generate_stream(stream_config, config.oracle)
    detector = SyntheticDetector(
        config.monitor.profile, derive_seed(stream_config.seed, _SIM_DETECTOR_TAG)
    )
    monitor = Monitor(config.monitor)
    trace = run_deployment(
        stream, detector, monitor, _simulate_threshold(config, stream_config)
    )
    output = Path(args.output)
    if args.format == "structured":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(
                io.format_rows(io.TRACE_COLUMNS, io.trace_columns(trace), "structured")
            )
    else:
        io.write_trace_csv(output, trace)
    return EXIT_OK


# Lines of a regular-file verdict input per observe_many call.  Larger
# chunks cost memory and buy no speed: replaying 100k case-study verdicts
# (Linux x86_64, Python 3.11) peaked at 30.9 MB with 1024-line chunks,
# 33.9 MB with 4096 and 89 MB with 2**16, which was also 11% slower.
VERDICT_CHUNK_LINES = 1024


def _is_regular_file(stream) -> bool:
    """Whether a stream reads a regular file, as opposed to a pipe, a tty or memory."""
    try:
        return stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
    except OSError:  # io.UnsupportedOperation: no file descriptor
        return False


def _assess_each(monitor, verdicts, first_index, out, output_format, flush) -> bool:
    """Observe verdicts one at a time and write a row for each.

    Returns whether any row alerted.
    """
    any_alert = False
    for index, verdict in enumerate(verdicts, start=first_index):
        assessment = monitor.observe(verdict)
        any_alert = any_alert or assessment.alert
        io.emit_assessment(out, io.assessment_row(index, verdict, assessment), output_format)
        if flush:
            out.flush()
    return any_alert


def _assess_chunks(monitor, lines, out, output_format) -> bool:
    """Assess VERDICT_CHUNK_LINES lines per observe_many call, rows as in _assess_each.

    Returns whether any row alerted.
    """
    any_alert = False
    index = 0
    renderer = io.AssessmentRenderer(output_format)
    for verdicts in io.iter_verdict_chunks(lines, VERDICT_CHUNK_LINES):
        try:
            assessments = monitor.observe_many(verdicts)
        except DriftRiskError:
            # observe_many leaves the monitor unchanged when a verdict fails;
            # the scalar loop writes the rows before that verdict, then raises.
            # It takes bools: fmt() prints an np.bool_ as True, not 1.
            alerted = _assess_each(
                monitor, verdicts.tolist(), index, out, output_format, flush=False
            )
            any_alert = any_alert or alerted
        else:
            out.write(renderer.rows(index, verdicts, assessments))
            any_alert = any_alert or bool(assessments.alert.any())
        index += len(verdicts)
    return any_alert


def cmd_monitor(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    _require(config, "monitor")
    monitor = Monitor(config.monitor)

    # Bytes that are not UTF-8 are read as lone surrogates, whatever the
    # locale, so the line parser refuses them with their line number.
    if args.input is None or args.input == "-":
        lines = sys.stdin
        close_input = None
        if hasattr(lines, "reconfigure"):
            lines.reconfigure(errors="surrogateescape")
    else:
        try:
            close_input = open(args.input, encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise _CliError(EXIT_DATA, f"cannot read verdicts: {exc}") from exc
        lines = close_input

    out_handle = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        if args.format != "structured":
            out_handle.write(",".join(io.ASSESSMENT_COLUMNS) + "\n")
        if _is_regular_file(lines):
            # Every verdict is already there: assess in chunks, flush on close.
            any_alert = _assess_chunks(monitor, lines, out_handle, args.format)
        else:
            # A reader on stdout may wait for each reply before sending the
            # next verdict, so every row is flushed there.
            any_alert = _assess_each(
                monitor, io.iter_verdicts(lines), 0, out_handle, args.format,
                flush=out_handle is sys.stdout,
            )
    except ValidationError as exc:
        raise _CliError(EXIT_DATA, f"verdict stream: {exc}") from exc
    finally:
        if close_input is not None:
            close_input.close()
        if out_handle is not sys.stdout:
            out_handle.close()
    return EXIT_ALERT if any_alert else EXIT_OK


_RATE_REPORT_COLUMNS = (
    "trace_length", "tpr", "tnr", "ba", "rate",
    "n", "mae", "mean_signed_error", "refused",
)
_ACCURACY_REPORT_COLUMNS = (
    "batch_size", "trace_length", "tpr", "tnr", "ba", "rate",
    "n", "mae", "mean_signed_error", "baseline_mae", "refused",
)
_RISK_REPORT_COLUMNS = (
    "kind", "rate", "estimated_rv", "actual_rv", "estimated_base", "actual_base",
)
_CBA_REPORT_COLUMNS = ("classifier_delta", "detector_delta", "risk")


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one sweep kind and write its report.csv and metadata.json.

    Every config error stops the command before the output directory is
    made, so a sweep that fails leaves nothing behind.
    """
    config = _load_config(args.config)
    _require(config, "sweep")
    master_seed = config.sweep.master_seed if args.seed is None else args.seed
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "kind": args.kind,
        "master_seed": master_seed,
        "grid": config.sweep.to_dict(),
    }
    try:
        check_range("--jobs", args.jobs, 1, integer=True)
        sweep = replace(config.sweep, master_seed=master_seed)
        if args.kind == "rate-error":
            columns = _RATE_REPORT_COLUMNS
            rows = rate_error_sweep(sweep, jobs=args.jobs).to_rows()
        elif args.kind == "accuracy-error":
            _require(config, "oracle")
            columns = _ACCURACY_REPORT_COLUMNS
            rows = accuracy_error_sweep(sweep, config.oracle, jobs=args.jobs).to_rows()
        elif args.kind == "risk-curve":
            _require(config, "oracle", "monitor")
            if config.monitor.costs is None or config.monitor.risk_threshold is None:
                raise _CliError(
                    EXIT_USAGE, "risk-curve needs monitor costs and risk_threshold"
                )
            result = risk_curve(
                sweep,
                config.oracle,
                config.monitor.profile,
                config.monitor.costs,
                config.monitor.risk_threshold,
            )
            columns = _RISK_REPORT_COLUMNS
            rows = [{"kind": "point", **row} for row in result.to_rows()]
            for curve, rate in sorted(result.crossings.items()):
                rows.append({"kind": f"crossing_{curve}", "rate": rate})
            metadata["crossings"] = result.crossings
            metadata["threshold"] = result.threshold
        else:  # cba; the parser accepts no other kind
            _require(config, "monitor")
            if config.monitor.costs is None:
                raise _CliError(EXIT_USAGE, "cba needs monitor costs")
            if sweep.operating_rate is None:
                raise _CliError(EXIT_USAGE, "cba needs sweep.operating_rate")
            result = cba_surface(
                sweep.classifier_deltas,
                sweep.detector_deltas,
                config.monitor.tree_params(sweep.operating_rate),
                config.monitor.costs,
            )
            columns = _CBA_REPORT_COLUMNS
            rows = result.rows
            metadata["detector_marginal"] = result.detector_marginal
            metadata["classifier_marginal"] = result.classifier_marginal
    except ValidationError as exc:
        raise _CliError(EXIT_USAGE, f"config error: {exc}") from exc

    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    io.write_rows_csv(output / "report.csv", rows, columns)
    io.write_json(output / "metadata.json", metadata)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        records = io.read_labeled_records(args.input)
    except FileNotFoundError:
        raise _CliError(EXIT_DATA, f"labeled data file not found: {args.input}") from None
    judged = [(verdict, is_ood) for is_ood, verdict, _ in records if verdict is not None]
    if not judged:
        raise _CliError(
            EXIT_DATA, "labeled data has no verdict values; cannot calibrate a profile"
        )
    profile = calibrate_profile(judged)
    table = conditional_accuracy(records)
    fragment = {
        "schema_version": SCHEMA_VERSION,
        "monitor": {
            "profile": {"tpr": profile.tpr, "tnr": profile.tnr},
            "accuracies": table.to_dict(),
        },
    }
    io.write_json(Path(args.output), fragment)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftrisk",
        description="Runtime accuracy and risk assessment for deployed models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--format",
            choices=("csv", "structured"),
            default="csv",
            help="record output format",
        )

    p_sim = sub.add_parser("simulate", help="run one simulated deployment")
    common(p_sim)
    p_sim.add_argument("--output", required=True, help="trace file to write")
    p_sim.set_defaults(func=cmd_simulate)

    p_mon = sub.add_parser("monitor", help="assess a verdict stream")
    common(p_mon)
    p_mon.add_argument("--input", default=None, help="verdict file (default: stdin)")
    p_mon.add_argument("--output", default=None, help="assessment file (default: stdout)")
    p_mon.set_defaults(func=cmd_monitor)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    p_sweep.add_argument(
        "kind", choices=("rate-error", "accuracy-error", "risk-curve", "cba")
    )
    common(p_sweep)
    p_sweep.add_argument("--output", required=True, help="output directory")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers across sweep cells: at least 1, and at most one "
        "per CPU and per cell",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit a profile and accuracy table")
    p_cal.add_argument("--input", required=True, help="labeled CSV (is_ood,verdict,is_correct)")
    p_cal.add_argument("--output", required=True, help="config fragment to write")
    p_cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"driftrisk: {exc}", file=sys.stderr)
        return exc.code
    except UninformativeDetectorError as exc:
        print(f"driftrisk: {exc}", file=sys.stderr)
        return EXIT_UNINFORMATIVE
    except DriftRiskError as exc:
        print(f"driftrisk: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # The reader of stdout stopped early, as `driftrisk monitor | head -1`
        # does: not an error.  Point stdout at the null device, so that the
        # flush at interpreter exit has somewhere to write the rest.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OSError as exc:
        print(f"driftrisk: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
