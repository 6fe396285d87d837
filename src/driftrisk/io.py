"""File formats: labeled calibration data, verdict streams, reports.

All numeric output is printed with 9 significant digits so repeated runs
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import CalibrationError, ValidationError
from .simulation import DeploymentTrace

SCHEMA_VERSION = 1

_TRUTHY = {"1", "true", "t", "yes"}
_FALSY = {"0", "false", "f", "no"}


def fmt(value) -> str:
    """Render one value for delimited output (floats at 9 significant digits)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _parse_bool(raw: str, context: str) -> bool:
    token = raw.strip().lower()
    if token in _TRUTHY:
        return True
    if token in _FALSY:
        return False
    raise ValidationError(f"{context}: expected a boolean 0/1 value, got {raw!r}")


def read_labeled_records(path: str | Path) -> list[tuple[bool, bool | None, bool]]:
    """Read (is_ood, verdict, is_correct) calibration rows from a CSV file.

    The header must name is_ood and is_correct; the verdict column is
    optional, and individual verdict fields may be empty for samples that
    were never judged.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        columns = reader.fieldnames or []
        for required in ("is_ood", "is_correct"):
            if required not in columns:
                raise CalibrationError(f"labeled data is missing the {required!r} column")
        has_verdict = "verdict" in columns
        rows = []
        for line_no, row in enumerate(reader, start=2):
            is_ood = _parse_bool(row["is_ood"], f"line {line_no}, column is_ood")
            is_correct = _parse_bool(row["is_correct"], f"line {line_no}, column is_correct")
            verdict = None
            if has_verdict and row["verdict"] not in (None, ""):
                verdict = _parse_bool(row["verdict"], f"line {line_no}, column verdict")
            rows.append((is_ood, verdict, is_correct))
    if not rows:
        raise CalibrationError("labeled data file contains no rows")
    return rows


def iter_verdicts(lines: Iterable[str]) -> Iterator[bool]:
    """Parse a verdict stream, one 0/1 per line; blank lines are skipped.

    Malformed lines raise with the offending line number in the message.
    """
    for line_no, line in enumerate(lines, start=1):
        token = line.strip()
        if not token:
            continue
        if token == "0":
            yield False
        elif token == "1":
            yield True
        else:
            raise ValidationError(f"line {line_no}: expected verdict 0 or 1, got {token!r}")


def write_rows_csv(path: str | Path, rows: Sequence[dict], columns: Sequence[str]) -> None:
    """Write dict rows as CSV with a fixed column order."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row.get(column)) for column in columns])


def write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


TRACE_COLUMNS = (
    "index",
    "is_ood",
    "verdict",
    "batch_accuracy",
    "batch_correct",
    "p_hat",
    "expected_accuracy",
    "expected_risk",
    "alert",
)


def trace_rows(trace: DeploymentTrace) -> list[dict]:
    """One row per batch.

    tolist() turns array entries into Python scalars: fmt() prints a bool
    as 0/1 but an np.bool_ as True/False, and json rejects np.bool_.
    """
    assessments = trace.assessments
    risks = assessments.expected_risk
    columns = zip(  # in TRACE_COLUMNS order, after the index
        trace.is_ood.tolist(),
        trace.verdict.tolist(),
        trace.batch_accuracy.tolist(),
        trace.batch_correct.tolist(),
        assessments.corrected.tolist(),
        assessments.expected_accuracy.tolist(),
        [None] * len(trace) if risks is None else risks.tolist(),
        assessments.alert.tolist(),
    )
    return [dict(zip(TRACE_COLUMNS, (index, *values))) for index, values in enumerate(columns)]


def write_trace_csv(path: str | Path, trace: DeploymentTrace) -> None:
    """Export a deployment trace, one batch per row."""
    write_rows_csv(path, trace_rows(trace), TRACE_COLUMNS)


ASSESSMENT_COLUMNS = (
    "index",
    "verdict",
    "raw_mean",
    "p_hat",
    "clamped",
    "fill_fraction",
    "using_prior",
    "expected_accuracy",
    "expected_risk",
    "alert",
)


def assessment_row(index: int, verdict: bool, assessment) -> dict:
    estimate = assessment.p_event
    return {
        "index": index,
        "verdict": verdict,
        "raw_mean": estimate.raw_mean,
        "p_hat": estimate.corrected,
        "clamped": estimate.clamped,
        "fill_fraction": estimate.fill_fraction,
        "using_prior": assessment.using_prior,
        "expected_accuracy": assessment.expected_accuracy,
        "expected_risk": assessment.expected_risk,
        "alert": assessment.alert,
    }


def emit_assessment(handle: TextIO, row: dict, output_format: str) -> None:
    """Write one assessment record as CSV fields or a JSON line.

    It does not flush; a caller whose reader waits on each line flushes.
    """
    if output_format == "structured":
        payload = {
            key: (float(fmt(value)) if isinstance(value, float) else value)
            for key, value in row.items()
        }
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        handle.write(",".join(fmt(row.get(column)) for column in ASSESSMENT_COLUMNS) + "\n")
