"""File formats: labeled calibration data, verdict streams, reports.

All numeric output is printed with 9 significant digits so repeated runs
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import CalibrationError, ValidationError
from .monitor import Assessments
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


def _parse_bool(raw: str | None, context: str) -> bool:
    if raw is None:  # csv.DictReader's value for a field missing from a short row
        raise ValidationError(f"{context}: missing value")
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
    # Bytes that are not UTF-8 are read as lone surrogates, which no boolean
    # field parses, so the row that holds them is refused with its line number.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.DictReader(handle)
        try:
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
        except csv.Error as exc:  # such as a field over the csv module's size limit
            # line_num counts the lines read before the one that failed.
            raise ValidationError(f"line {reader.line_num + 1}: {exc}") from exc
    if not rows:
        raise CalibrationError("labeled data file contains no rows")
    return rows


def _parse_verdicts(
    lines: Iterable[str], first_line_no: int
) -> tuple[list[bool], ValidationError | None]:
    """The verdicts on lines numbered from first_line_no; blank lines are skipped.

    Parsing stops at the first malformed line: the verdicts before it come
    back with a ValidationError naming that line, for the caller to raise
    once it has used them.
    """
    verdicts = []
    for line_no, line in enumerate(lines, start=first_line_no):
        token = line.strip()
        if token == "1":
            verdicts.append(True)
        elif token == "0":
            verdicts.append(False)
        elif token:
            return verdicts, ValidationError(
                f"line {line_no}: expected verdict 0 or 1, got {token!r}"
            )
    return verdicts, None


def iter_verdict_chunks(lines: Iterable[str], size: int) -> Iterator[list[bool]]:
    """Parse a verdict stream, one 0/1 per line, ``size`` lines at a time.

    Yields the verdicts of each run of ``size`` lines.  A malformed line
    raises a ValidationError with its line number, after the verdicts
    before it in its run have been yielded.
    """
    lines = iter(lines)
    line_no = 1
    while chunk := list(islice(lines, size)):
        verdicts, error = _parse_verdicts(chunk, line_no)
        yield verdicts
        if error is not None:
            raise error
        line_no += len(chunk)


def iter_verdicts(lines: Iterable[str]) -> Iterator[bool]:
    """Parse a verdict stream by the iter_verdict_chunks rule, line by line.

    Each verdict is yielded as soon as its line is read, for a reader that
    answers one verdict at a time.
    """
    for line_no, line in enumerate(lines, start=1):
        verdicts, error = _parse_verdicts((line,), line_no)
        if error is not None:
            raise error
        yield from verdicts


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


def trace_columns(trace: DeploymentTrace) -> list:
    """The TRACE_COLUMNS fields of a trace, one format_rows column each.

    The float columns are the trace's float64 arrays.  The bool columns
    go through tolist(): fmt() prints a bool as 0/1 but an np.bool_ as
    True/False, and json rejects np.bool_.
    """
    assessments = trace.assessments
    risks = assessments.expected_risk
    return [
        list(range(len(trace))),
        trace.is_ood.tolist(),
        trace.verdict.tolist(),
        trace.batch_accuracy,
        trace.batch_correct.tolist(),
        assessments.corrected,
        assessments.expected_accuracy,
        [None] * len(trace) if risks is None else risks,
        assessments.alert.tolist(),
    ]


def write_trace_csv(path: str | Path, trace: DeploymentTrace) -> None:
    """Export a deployment trace as csv, one batch per row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\n")
        handle.write(format_rows(TRACE_COLUMNS, trace_columns(trace), "csv"))


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


def assessment_columns(
    first_index: int, verdicts: list[bool], assessments: Assessments
) -> list:
    """The ASSESSMENT_COLUMNS fields of one observe_many call, one format_rows column each.

    Row i is the assessment_row of verdict ``verdicts[i]`` at index
    ``first_index + i``.  The float columns are the float64 arrays of
    ``assessments``; the bool columns are lists, for the reason trace_columns gives.
    """
    risks = assessments.expected_risk
    return [
        list(range(first_index, first_index + len(verdicts))),
        verdicts,
        assessments.raw_mean,
        assessments.corrected,
        assessments.clamped.tolist(),
        assessments.fill_fraction,
        assessments.using_prior.tolist(),
        assessments.expected_accuracy,
        [None] * len(verdicts) if risks is None else risks,
        assessments.alert.tolist(),
    ]


def _json_float(value: float) -> str:
    """A finite float as a JSON line prints it, at 9 significant digits."""
    return repr(float(format(value, ".9g")))


def _json_value(value) -> str:
    """A value as a JSON line prints it."""
    return _json_float(value) if isinstance(value, float) else json.dumps(value)


# fmt() and _json_value() for the exact types that tolist() gives, mostly
# as C-level calls; a column of any other type goes through those functions.
_CSV_CELLS = {float: "{:.9g}".format, bool: ("0", "1").__getitem__, int: str}
_JSON_CELLS = {float: _json_float, bool: ("false", "true").__getitem__, int: str}


@lru_cache(maxsize=8)
def _json_layout(names: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
    """(column, key prefix) of each field of a JSON line, in sorted-key order."""
    return tuple((names.index(name), f'"{name}": ') for name in sorted(names))


def _column_cells(column, cell_rules: dict, fallback, prefix: str = "") -> list[str]:
    """Each entry of a non-empty column as its cell rule renders it, after prefix.

    A float column is rendered once per distinct bit pattern (so 0.0 and
    -0.0 keep their own text) and each row takes its value's text.
    """
    if isinstance(column[0], float):  # a Python float or an np.float64
        bits = np.asarray(column, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        render = cell_rules[float]
        texts = [prefix + render(value) for value in distinct.view(np.float64).tolist()]
        return list(map(texts.__getitem__, inverse.tolist()))
    cells = map(cell_rules.get(type(column[0]), fallback), column)
    return list(map(prefix.__add__, cells)) if prefix else list(cells)


def format_rows(names: tuple[str, ...], columns: Sequence, output_format: str) -> str:
    """Rows given column by column, as csv lines or sorted-key JSON lines.

    ``columns[j]`` holds field ``names[j]`` (a plain identifier) of every
    row, all of one type.  A float column is a float64 array or a list of
    floats, and each distinct bit pattern in it is rendered once; any other
    column is a list as ``tolist()`` gives it.  A csv field reads as fmt()
    renders it; a JSON line equals ``json.dumps`` with sorted keys of the
    row with each float rounded to 9 significant digits.
    """
    if len(columns[0]) == 0:
        return ""
    if output_format == "structured":
        cells = [
            _column_cells(columns[j], _JSON_CELLS, _json_value, prefix)
            for j, prefix in _json_layout(names)
        ]
        return "{" + "}\n{".join(map(", ".join, zip(*cells))) + "}\n"
    cells = [_column_cells(column, _CSV_CELLS, fmt) for column in columns]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def emit_assessment(handle: TextIO, row: dict, output_format: str) -> None:
    """Write one record (field name to value, in column order) as format_rows would.

    The values are rendered one by one by the same cell rules, which costs
    a single row less than format_rows's work per column.  It does not
    flush; a caller whose reader waits on each line flushes.
    """
    if output_format == "structured":
        values = tuple(row.values())
        line = "{" + ", ".join([
            prefix + _JSON_CELLS.get(type(values[j]), _json_value)(values[j])
            for j, prefix in _json_layout(tuple(row))
        ]) + "}\n"
    else:
        line = ",".join([_CSV_CELLS.get(type(value), fmt)(value) for value in row.values()]) + "\n"
    handle.write(line)
