"""File formats: labeled calibration data, verdict streams, reports.

All numeric output is printed with 9 significant digits so repeated runs
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import CalibrationError, ValidationError
from .monitor import Assessments
from .simulation import DeploymentTrace

SCHEMA_VERSION = 1

_TRUTHY = {"1", "true", "t", "yes"}
_FALSY = {"0", "false", "f", "no"}

# The line "1\n" as a little-endian uint16; "0\n" differs from it in the
# lowest bit alone.
_ONE_LINE = ord("1") | ord("\n") << 8


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


def _chunk_verdicts(
    chunk: list[str], first_line_no: int
) -> tuple[np.ndarray, ValidationError | None]:
    """_parse_verdicts of a list of lines, with the verdicts as a bool array."""
    text = "".join(chunk)
    # A run that is not ASCII never passes the byte check, so it is not encoded.
    if len(text) == 2 * len(chunk) and text.isascii():
        pairs = np.frombuffer(text.encode("ascii"), dtype="<u2")
        if ((pairs | 1) == _ONE_LINE).all():
            return pairs == _ONE_LINE, None
    verdicts, error = _parse_verdicts(chunk, first_line_no)
    return np.array(verdicts, dtype=bool), error


def iter_verdict_chunks(lines: Iterable[str], size: int) -> Iterator[np.ndarray]:
    """Parse a verdict stream, one 0/1 per line, ``size`` lines at a time.

    ``lines`` are as a text file yields them: each ends in a newline, but
    perhaps the last.  Yields the verdicts of each run of ``size`` lines as
    a 1-D bool array.  A malformed line raises a ValidationError with its
    line number, after the verdicts before it in its run have been yielded.

    A run whose every line is a 0 or a 1 and a newline is read as bytes,
    two to a line, with no Python work per line.  Any other run goes
    through the line parser of iter_verdicts, which reads that run the same.
    """
    lines = iter(lines)
    line_no = 1
    while chunk := list(islice(lines, size)):
        verdicts, error = _chunk_verdicts(chunk, line_no)
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


# A renderer keeps the text of about this many window states at most, one
# chunk's worth more at worst; past it, it starts over.
_STATE_TEXTS = 2**14


def _distinct_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first position of each distinct pair (a[i], b[i]), and each i's pair number."""
    order = np.lexsort((a, b))
    a, b = a[order], b[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _state_column(assessments: Assessments, name: str, rows: np.ndarray):
    """Field ``name`` of the rows at ``rows``, as a format_rows column.

    ``name`` is an ASSESSMENT_COLUMNS field but index and verdict; each is
    the Assessments entry of that name, but p_hat, which is ``corrected``.
    """
    values = getattr(assessments, "corrected" if name == "p_hat" else name)
    if values is None:  # expected_risk, without costs
        return [None] * len(rows)
    values = values[rows]
    return values if values.dtype == np.float64 else values.tolist()


class AssessmentRenderer:
    """The rows of one monitor's observe_many calls, in the bytes of format_rows.

    Under one monitor, every field of a row but index and verdict is a
    function of the window state, the pair (raw_mean, fill_fraction):
    using_prior follows from the fill; pre_clamp and p_hat from raw_mean
    and using_prior; clamped, expected_accuracy, expected_risk and alert
    from p_hat, by element-wise IEEE operations.  So the renderer keeps
    the text of each state it has written, keyed by the bit patterns of
    the pair, and writes a row as its index, its verdict and its state's
    text.  The states it does not hold yet are rendered column by column
    by the cell rules of format_rows.

    A chunk in which most rows have a state of their own, as with decay
    below 1, would find few of its states again, and keeping them costs
    more than rendering its rows: its rows go through format_rows as they
    are, and no state is kept.
    """

    def __init__(self, output_format: str) -> None:
        self._format = output_format
        if output_format == "structured":
            self._rules, self._fallback = _JSON_CELLS, _json_value
            self._sep, self._start, self._end = ", ", "{", "}\n"
            fields = [
                (ASSESSMENT_COLUMNS[j], prefix) for j, prefix in _json_layout(ASSESSMENT_COLUMNS)
            ]
        else:
            self._rules, self._fallback = _CSV_CELLS, fmt
            self._sep, self._start, self._end = ",", "", "\n"
            fields = [(name, "") for name in ASSESSMENT_COLUMNS]
        names = [name for name, _ in fields]
        index, verdict = names.index("index"), names.index("verdict")
        # The state fields before the index, between it and the verdict,
        # and after the verdict, each with its key prefix.
        self._runs = (fields[:index], fields[index + 1 : verdict], fields[verdict + 1 :])
        self._index_prefix, self._verdict_prefix = fields[index][1], fields[verdict][1]
        # (raw_mean bits, fill_fraction bits) -> for a negative and for a
        # positive verdict, the text of a row before and after its index.
        self._texts: dict[tuple[int, int], tuple[tuple[str, str], ...]] = {}

    def rows(self, first_index: int, verdicts: np.ndarray, assessments: Assessments) -> str:
        """The rows of one observe_many call: verdict i at index first_index + i."""
        count = len(verdicts)
        raw = assessments.raw_mean.view(np.int64)
        fill = assessments.fill_fraction.view(np.int64)
        first, state = _distinct_pairs(raw, fill)
        if 2 * len(first) > count:
            every = np.arange(count)
            columns = [
                list(range(first_index, first_index + count)),
                verdicts.tolist(),
                *(_state_column(assessments, name, every) for name in ASSESSMENT_COLUMNS[2:]),
            ]
            return format_rows(ASSESSMENT_COLUMNS, columns, self._format)
        texts = self._texts
        if len(texts) > _STATE_TEXTS:
            texts.clear()
        keys = list(zip(raw[first].tolist(), fill[first].tolist()))
        found = list(map(texts.get, keys))
        missing = [j for j, text in enumerate(found) if text is None]
        if missing:
            new = self._state_texts(assessments, first[missing])
            for j, text in zip(missing, new):
                found[j] = text
            texts.update(zip(map(keys.__getitem__, missing), new))
        # halves[2 * s + v]: the text around the index of state s with verdict v.
        halves = list(chain.from_iterable(found))
        return "".join(map(
            str.join,
            map(str, range(first_index, first_index + count)),
            map(halves.__getitem__, (2 * state + verdicts).tolist()),
        ))

    def _state_texts(self, assessments: Assessments, rows: np.ndarray) -> list:
        """The texts that the renderer keeps, of the states of the rows at ``rows``."""
        before, between, after = (
            [
                _column_cells(_state_column(assessments, name, rows), self._rules,
                              self._fallback, prefix)
                for name, prefix in run
            ]
            for run in self._runs
        )
        count, sep = len(rows), self._sep
        heads = [
            self._start + sep.join(cells)
            for cells in zip(*before, [self._index_prefix] * count)
        ]
        mids = [
            sep.join(cells)
            for cells in zip([""] * count, *between, [self._verdict_prefix] * count)
        ]
        ends = [sep.join(cells) + self._end for cells in zip([""] * count, *after)]
        negative, positive = self._rules[bool](False), self._rules[bool](True)
        return [
            ((head, mid + negative + end), (head, mid + positive + end))
            for head, mid, end in zip(heads, mids, ends)
        ]


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
