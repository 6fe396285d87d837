"""File ingestion and emission: labeled data, verdicts, traces, formatting."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftrisk.detectors import SyntheticDetector
from driftrisk.errors import CalibrationError, ValidationError
from driftrisk.estimation import DetectorProfile
from driftrisk.io import (
    ASSESSMENT_COLUMNS,
    TRACE_COLUMNS,
    emit_assessment,
    fmt,
    format_rows,
    iter_verdict_chunks,
    iter_verdicts,
    read_labeled_records,
    trace_columns,
    write_rows_csv,
    write_trace_csv,
)
from driftrisk.monitor import Monitor, MonitorConfig
from driftrisk.simulation import AccuracyOracle, StreamConfig, generate_stream, run_deployment

from conftest import make_full_table


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333"
        assert fmt(12345678912.0) == "1.23456789e+10"

    def test_bools_and_none(self):
        assert fmt(True) == "1"
        assert fmt(False) == "0"
        assert fmt(None) == ""
        assert fmt(7) == "7"


class TestIterVerdicts:
    def test_parses_bits_and_skips_blanks(self):
        lines = ["1\n", "0\n", "\n", " 1 \n"]
        assert list(iter_verdicts(lines)) == [True, False, True]

    def test_malformed_line_number_reported(self):
        with pytest.raises(ValidationError, match="line 2"):
            list(iter_verdicts(["0\n", "yes\n"]))

    def test_chunks_yield_the_lines_before_a_malformed_one(self):
        chunks = iter_verdict_chunks(["1\n", "\n", "0\n", "1\n", "0\n", "x\n", "1\n"], 4)
        assert next(chunks) == [True, False, True]
        assert next(chunks) == [False]
        with pytest.raises(ValidationError, match="line 6: expected verdict 0 or 1, got 'x'"):
            next(chunks)


# Values of the types tolist() gives for each assessment column.
ROW_VALUES = st.tuples(
    st.integers(0, 10**9),
    st.booleans(),
    *[st.floats(allow_nan=False, allow_infinity=False)] * 2,
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    *[st.floats(allow_nan=False, allow_infinity=False)] * 2,
    st.booleans(),
)


@st.composite
def repeating_floats(draw):
    """A float column drawn from a few values, so that values repeat.

    The pool holds both zeros (equal, but printed apart), values printed
    in exponent form or cut to 9 digits, and a few floats of any kind.
    """
    pool = [0.0, -0.0, 1e-05, 12345678912.0, 1 / 3]
    pool += draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


class TestFormatRows:
    @settings(max_examples=200, deadline=None, database=None)
    @given(column=repeating_floats())
    @example(column=[0.0, -0.0, 0.0])
    @example(column=[])
    def test_distinct_floats_render_as_each_row_would(self, column):
        # The float column comes first, so the empty check reads an array too.
        names = ("value", "index")
        index = list(range(len(column)))
        expected = {
            "csv": "".join(f"{fmt(value)},{i}\n" for value, i in zip(column, index)),
            "structured": "".join(
                json.dumps({"value": float(fmt(value)), "index": i}, sort_keys=True) + "\n"
                for value, i in zip(column, index)
            ),
        }
        for values in (column, np.array(column, dtype=np.float64)):
            for output_format, text in expected.items():
                assert format_rows(names, [values, index], output_format) == text

    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=st.lists(ROW_VALUES, max_size=5), priced=st.booleans())
    def test_equals_fmt_and_json_dumps_row_by_row(self, rows, priced):
        # format_rows renders columns, emit_assessment one row; both must
        # equal fmt() fields and json.dumps of the 9-digit row.
        rows = [row[:8] + ((row[8] if priced else None),) + row[9:] for row in rows]
        columns = [list(column) for column in zip(*rows)] or [[] for _ in ASSESSMENT_COLUMNS]
        expected = {
            "csv": "".join(",".join(fmt(value) for value in row) + "\n" for row in rows),
            "structured": "".join(
                json.dumps(
                    {
                        name: float(fmt(value)) if isinstance(value, float) else value
                        for name, value in zip(ASSESSMENT_COLUMNS, row)
                    },
                    sort_keys=True,
                )
                + "\n"
                for row in rows
            ),
        }
        for output_format, text in expected.items():
            assert format_rows(ASSESSMENT_COLUMNS, columns, output_format) == text
            handle = io.StringIO()
            for row in rows:
                emit_assessment(handle, dict(zip(ASSESSMENT_COLUMNS, row)), output_format)
            assert handle.getvalue() == text


class TestLabeledRecords:
    def test_reads_rows(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("is_ood,verdict,is_correct\n1,1,0\n0,,1\n")
        rows = read_labeled_records(path)
        assert rows == [(True, True, False), (False, None, True)]

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("is_ood,verdict\n1,1\n")
        with pytest.raises(CalibrationError, match="is_correct"):
            read_labeled_records(path)

    def test_bad_value_line_number(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("is_ood,verdict,is_correct\n1,1,1\nmaybe,0,1\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_labeled_records(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("is_ood,verdict,is_correct\n")
        with pytest.raises(CalibrationError, match="no rows"):
            read_labeled_records(path)


class TestWriteRows:
    def test_missing_fields_left_empty(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(path, [{"a": 1.0}, {"a": 2.0, "b": True}], ("a", "b"))
        assert path.read_text() == "a,b\n1,\n2,1\n"


class TestTraceExport:
    @pytest.fixture
    def trace(self):
        profile = DetectorProfile(0.8, 0.7)
        stream = generate_stream(
            StreamConfig(batch_size=4, shift_rate=0.5, horizon=60, uniform=False, seed=3),
            AccuracyOracle.single(0.9, 0.33),
        )
        monitor = Monitor(
            MonitorConfig(
                topology="base",
                profile=profile,
                accuracies=make_full_table(0.9, 0.33),
                trace_capacity=10,
                prior_rate=0.5,
            )
        )
        return run_deployment(stream, SyntheticDetector(profile, seed=4), monitor, 0.5)

    def test_csv_flags_read_zero_one(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["index"] for row in rows] == [str(i) for i in range(len(trace))]
        for column in ("is_ood", "verdict", "batch_correct"):
            values = [row[column] for row in rows]
            assert set(values) == {"0", "1"}
            assert values == [str(int(v)) for v in getattr(trace, column).tolist()]

    def test_structured_rows_are_json_bools(self, tmp_path, trace):
        path = tmp_path / "trace.jsonl"
        path.write_text(format_rows(TRACE_COLUMNS, trace_columns(trace), "structured"))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["verdict"] for r in records] == trace.verdict.tolist()
        assert all(type(r["is_ood"]) is bool for r in records)
