"""File ingestion and emission: labeled data, verdicts, traces, formatting."""

from __future__ import annotations

import csv
import io
import json
from itertools import cycle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftrisk.io as driftrisk_io
from driftrisk.detectors import SyntheticDetector
from driftrisk.errors import CalibrationError, ValidationError
from driftrisk.estimation import DetectorProfile
from driftrisk.io import (
    ASSESSMENT_COLUMNS,
    TRACE_COLUMNS,
    AssessmentRenderer,
    _json_float,
    _parse_verdicts,
    assessment_row,
    emit_assessment,
    fmt,
    format_rows,
    iter_verdict_chunks,
    iter_verdicts,
    read_labeled_records,
    step_row_renderer,
    trace_columns,
    write_rows_csv,
    write_trace_csv,
)
from driftrisk.monitor import Assessment, Monitor, MonitorConfig
from driftrisk.simulation import AccuracyOracle, StreamConfig, generate_stream, run_deployment

from conftest import assessment_columns, case_study_config_dict, make_full_table


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333"
        assert fmt(12345678912.0) == "1.23456789e+10"

    def test_bools_and_none(self):
        assert fmt(True) == "1"
        assert fmt(False) == "0"
        assert fmt(None) == ""
        assert fmt(7) == "7"


class TestJsonFloat:
    @settings(max_examples=1000, deadline=None, database=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @example(value=1e-05)
    @example(value=9.99999999e8)
    @example(value=1e9)
    @example(value=123456789012345.0)
    @example(value=1e16)
    @example(value=-0.0)
    @example(value=0.0)
    @example(value=5e-324)
    @example(value=1.7976931348623157e308)
    def test_equals_repr_and_json_dumps_at_nine_digits(self, value):
        rounded = float(format(value, ".9g"))
        assert _json_float(value) == repr(rounded) == json.dumps(rounded)


class TestIterVerdicts:
    def test_parses_bits_and_skips_blanks(self):
        lines = ["1\n", "0\n", "\n", " 1 \n"]
        assert list(iter_verdicts(lines)) == [True, False, True]

    def test_malformed_line_number_reported(self):
        with pytest.raises(ValidationError, match="line 2"):
            list(iter_verdicts(["0\n", "yes\n"]))

    def test_chunks_yield_the_lines_before_a_malformed_one(self):
        chunks = iter_verdict_chunks(["1\n", "\n", "0\n", "1\n", "0\n", "x\n", "1\n"], 4)
        assert next(chunks).tolist() == [True, False, True]
        assert next(chunks).tolist() == [False]
        with pytest.raises(ValidationError, match="line 6: expected verdict 0 or 1, got 'x'"):
            next(chunks)


# Lines as a text file yields them: the two that the byte check reads, then
# lines that only the line parser reads: padded, with a carriage return,
# blank, a bad token, and a byte that is not UTF-8 (read as a surrogate).
PLAIN_LINES = st.sampled_from(["0\n", "1\n"])
OTHER_LINES = st.sampled_from([" 1\n", "0\r\n", "\n", "x\n", "\udcff\n"])


def chunks_by_the_line_parser(lines: list[str], size: int) -> tuple[list, str | None]:
    """The verdicts of each run of ``size`` lines by _parse_verdicts, and its error."""
    chunks = []
    for start in range(0, len(lines), size):
        verdicts, error = _parse_verdicts(lines[start : start + size], start + 1)
        chunks.append(verdicts)
        if error is not None:
            return chunks, str(error)
    return chunks, None


class TestIterVerdictChunks:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        lines=st.lists(st.one_of(PLAIN_LINES, OTHER_LINES), max_size=40),
        last=st.sampled_from(["", "0", "1", " 1", "x"]),
        size=st.integers(1, 8),
    )
    @example(lines=["1\n", "0\n"] * 8, last="", size=4)
    @example(lines=["1\n", "0\n"] * 4, last="1", size=3)
    def test_equals_the_line_parser(self, lines, last, size):
        # ``last`` is a final line with no newline, or none.
        lines = lines + [last] if last else lines
        expected, message = chunks_by_the_line_parser(lines, size)
        chunks, error = [], None
        try:
            for chunk in iter_verdict_chunks(lines, size):
                assert chunk.dtype == bool and chunk.ndim == 1
                chunks.append(chunk.tolist())
        except ValidationError as exc:
            error = str(exc)
        assert (chunks, error) == (expected, message)


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


@st.composite
def monitor_configs(draw) -> MonitorConfig:
    """Case-study monitors with windows short enough for states to recur."""
    payload = case_study_config_dict()["monitor"]
    capacity = draw(st.integers(1, 6))
    payload.update(
        topology=draw(st.sampled_from(["base", "rv"])),
        trace_capacity=capacity,
        min_fill=draw(st.integers(1, capacity)),
        decay=draw(st.sampled_from([1.0, 0.9, 0.5])),
        profile=draw(st.sampled_from([{"tpr": 0.95, "tnr": 0.55}, {"tpr": 0.9, "tnr": 0.85}])),
        intervention_counts_as=draw(st.sampled_from(["correct", "excluded"])),
    )
    if not draw(st.booleans()):
        del payload["risk_threshold"]
    if not draw(st.booleans()):
        del payload["costs"]
    return MonitorConfig.from_dict(payload)


def reference_rows(first_index, verdicts, assessments, output_format) -> str:
    columns = assessment_columns(first_index, verdicts.tolist(), assessments)
    return format_rows(ASSESSMENT_COLUMNS, columns, output_format)


class TestAssessmentRenderer:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        config=monitor_configs(),
        verdicts=st.lists(st.booleans(), max_size=300),
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
        output_format=st.sampled_from(["csv", "structured"]),
        kept=st.sampled_from([0, 1, 2**14]),
    )
    def test_equals_format_rows_chunk_by_chunk(
        self, config, verdicts, sizes, output_format, kept
    ):
        # ``kept`` stands in for the renderer's size limit: 0 and 1 start
        # over at almost every chunk.
        monitor, renderer = Monitor(config), AssessmentRenderer(output_format)
        index = 0
        with mock.patch.object(driftrisk_io, "_STATE_TEXTS", kept):
            for size in cycle(sizes):
                if index >= len(verdicts):
                    break
                chunk = np.array(verdicts[index : index + size], dtype=bool)
                assessments = monitor.observe_many(chunk)
                expected = reference_rows(index, chunk, assessments, output_format)
                assert renderer.rows(index, chunk, assessments) == expected
                index += len(chunk)

    @pytest.mark.parametrize("output_format", ["csv", "structured"])
    def test_each_state_is_rendered_once(self, output_format):
        # A window of 4 with decay 1 has at most 14 states (raw_mean k/fill,
        # fill 1 to 4), so each chunk after the first finds them all kept.
        payload = case_study_config_dict()["monitor"]
        payload.update(trace_capacity=4, min_fill=2)
        monitor = Monitor(MonitorConfig.from_dict(payload))
        renderer = AssessmentRenderer(output_format)
        state_texts = AssessmentRenderer._state_texts
        rendered, states = [], set()

        def counting(self, assessments, rows):
            rendered.append(len(rows))
            return state_texts(self, assessments, rows)

        rng = np.random.default_rng(24)
        with mock.patch.object(AssessmentRenderer, "_state_texts", counting):
            for index in range(0, 2000, 400):
                chunk = rng.random(400) < 0.4
                assessments = monitor.observe_many(chunk)
                expected = reference_rows(index, chunk, assessments, output_format)
                assert renderer.rows(index, chunk, assessments) == expected
                states.update(zip(assessments.raw_mean.tolist(),
                                  assessments.fill_fraction.tolist()))
        assert sum(rendered) == len(states) <= 14
        assert len(rendered) == 1

    def test_a_state_is_its_mean_and_its_fill(self):
        # raw_mean 0.5 at fill 2 (kept from the first chunk, in warm-up)
        # and at fill 4 (the second chunk) are two states, with two texts.
        payload = case_study_config_dict()["monitor"]
        payload.update(trace_capacity=4, min_fill=3)
        monitor = Monitor(MonitorConfig.from_dict(payload))
        renderer = AssessmentRenderer("csv")
        index = 0
        for bits in ([1, 0] + [0] * 8, [1, 1, 0, 0]):
            chunk = np.array(bits, dtype=bool)
            assessments = monitor.observe_many(chunk)
            expected = reference_rows(index, chunk, assessments, "csv")
            assert renderer.rows(index, chunk, assessments) == expected
            index += len(chunk)
        assert len(renderer._texts) == 6

    def test_kept_states_are_bounded(self):
        # Past the limit the renderer starts over at its next chunk, so it
        # holds at most the limit plus one chunk's states.
        payload = case_study_config_dict()["monitor"]
        payload.update(trace_capacity=6, min_fill=1)
        monitor = Monitor(MonitorConfig.from_dict(payload))
        renderer = AssessmentRenderer("structured")
        rng = np.random.default_rng(6)
        with mock.patch.object(driftrisk_io, "_STATE_TEXTS", 2):
            for index in range(0, 600, 60):
                chunk = rng.random(60) < 0.5
                assessments = monitor.observe_many(chunk)
                expected = reference_rows(index, chunk, assessments, "structured")
                assert renderer.rows(index, chunk, assessments) == expected
                states = set(zip(assessments.raw_mean.tolist(),
                                 assessments.fill_fraction.tolist()))
                assert 0 < len(renderer._texts) <= 2 + len(states)

    def test_a_chunk_of_distinct_states_is_not_kept(self):
        # With decay below 1 and a long window, no two rows share a state.
        payload = case_study_config_dict()["monitor"]
        payload.update(decay=0.98)
        monitor, renderer = Monitor(MonitorConfig.from_dict(payload)), AssessmentRenderer("csv")
        chunk = np.random.default_rng(3).random(300) < 0.6
        assessments = monitor.observe_many(chunk)
        assert renderer.rows(7, chunk, assessments) == reference_rows(7, chunk, assessments, "csv")
        assert renderer._texts == {}

    def test_an_empty_chunk_has_no_rows(self):
        monitor = Monitor(MonitorConfig.from_dict(case_study_config_dict()["monitor"]))
        empty = np.zeros(0, dtype=bool)
        for output_format in ("csv", "structured"):
            assert AssessmentRenderer(output_format).rows(0, empty, monitor.assess(empty)) == ""


class TestStepRowRenderer:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        rows=st.lists(
            # A fill fraction is never zero or negative.
            ROW_VALUES.map(lambda row: row[:5] + (abs(row[5]) or 1.0,) + row[6:]),
            max_size=5,
        ),
        priced=st.booleans(),
        output_format=st.sampled_from(["csv", "structured"]),
    )
    def test_equals_format_rows(self, rows, priced, output_format):
        rows = [row[:8] + ((row[8] if priced else None),) + row[9:] for row in rows]
        columns = [list(column) for column in zip(*rows)] or [[] for _ in ASSESSMENT_COLUMNS]
        render = step_row_renderer(output_format)
        rendered = []
        for index, verdict, raw, p_hat, clamped, fill, prior, accuracy, risk, alert in rows:
            # pre_clamp is not printed.
            assessment = Assessment(raw, p_hat, clamped, fill, prior, accuracy, risk, alert, None)
            rendered.append(render(index, verdict, assessment))
        assert "".join(rendered) == format_rows(ASSESSMENT_COLUMNS, columns, output_format)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        config=monitor_configs(),
        verdicts=st.lists(st.booleans(), max_size=60),
        output_format=st.sampled_from(["csv", "structured"]),
    )
    def test_rows_of_a_monitor_equal_its_observe_many_rows(
        self, config, verdicts, output_format
    ):
        monitor, render = Monitor(config), step_row_renderer(output_format)
        rows = "".join(render(i, v, monitor.step(v)) for i, v in enumerate(verdicts))
        chunk = np.array(verdicts, dtype=bool)
        assessments = Monitor(config).observe_many(chunk)
        assert rows == reference_rows(0, chunk, assessments, output_format)

    @pytest.mark.parametrize("output_format", ["csv", "structured"])
    def test_equals_emit_assessment_of_assessment_row(self, output_format):
        monitor = Monitor(MonitorConfig.from_dict(case_study_config_dict()["monitor"]))
        render, handle = step_row_renderer(output_format), io.StringIO()
        rows = []
        for index, verdict in enumerate([True, False] * 300):
            assessment = monitor.step(verdict)
            rows.append(render(index, verdict, assessment))
            emit_assessment(handle, assessment_row(index, verdict, assessment), output_format)
        assert handle.getvalue() == "".join(rows)


def test_assessment_columns_are_the_assessment_fields():
    # The record and the rows share one order: corrected is written as
    # p_hat, and pre_clamp is not written.
    fields = [{"corrected": "p_hat"}.get(name, name) for name in Assessment._fields]
    assert ASSESSMENT_COLUMNS[:2] == ("index", "verdict")
    assert list(ASSESSMENT_COLUMNS[2:]) == fields[:-1] and fields[-1] == "pre_clamp"


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
