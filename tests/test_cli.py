"""Command-line contract: exit codes, outputs, determinism."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftrisk import cli
from driftrisk.cli import (
    EXIT_ALERT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_UNINFORMATIVE,
    EXIT_USAGE,
    VERDICT_CHUNK_LINES,
    main,
)
from driftrisk.config import parse_run_config
from driftrisk.experiments import derive_seed
from driftrisk.monitor import Monitor

from conftest import CASE_STUDY_COSTS, case_study_config_dict


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(case_study_config_dict()))
    return str(path)


def write_verdicts(tmp_path, bits, name="verdicts.txt") -> str:
    path = tmp_path / name
    path.write_text("".join(f"{int(b)}\n" for b in bits))
    return str(path)


def child_env(**extra) -> dict:
    """The environment of a ``python -m driftrisk`` child in any working directory.

    A relative PYTHONPATH (such as the "src" of an uninstalled checkout)
    points at nothing from another directory, so the directory that holds
    the imported package goes first, as an absolute path, with the
    parent's entries after it.
    """
    import driftrisk

    package_root = str(Path(driftrisk.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


class TestSimulate:
    def test_writes_trace_with_horizon_rows(self, tmp_path, config_path):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config_path, "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 401  # header + one row per batch
        assert lines[0] == (
            "index,is_ood,verdict,batch_accuracy,batch_correct,"
            "p_hat,expected_accuracy,expected_risk,alert"
        )

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", config_path, "--output", str(out_a)])
        main(["simulate", "--config", config_path, "--output", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", config_path, "--output", str(out_a)])
        main(["simulate", "--config", config_path, "--output", str(out_b), "--seed", "7"])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_structured_format(self, tmp_path, config_path):
        out = tmp_path / "trace.jsonl"
        main(["simulate", "--config", config_path, "--output", str(out), "--format", "structured"])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 400
        assert {"index", "p_hat", "expected_risk", "alert"} <= set(rows[0])

    def test_invalid_config_value_exits_usage(self, tmp_path):
        payload = case_study_config_dict()
        payload["stream"]["shift_rate"] = 1.3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_negative_seed_flag_exits_usage(self, tmp_path, config_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--config", config_path, "--output", str(out), "--seed", "-1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "driftrisk: config error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--output", "x.csv"]
        )
        assert code == EXIT_USAGE

    def test_config_not_utf8_exits_usage(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"schema_version": 1, "\xff": 1}')
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--config", str(path), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"driftrisk: config error: config {path}: invalid JSON (")
        assert "Traceback" not in err
        assert not out.exists()

    def test_batch_threshold_is_the_validation_rule(self, tmp_path):
        # batch_size 16 without correct_threshold: the 1st percentile of the
        # mean accuracy of 1000 clean batches, drawn from the generator of
        # the stream seed and tag 8, as written out here.
        payload = case_study_config_dict()
        payload["stream"]["batch_size"] = 16
        config = parse_run_config(payload)
        rng = np.random.default_rng(derive_seed(42, 8))
        accs = (rng.random((1000, 16)) < payload["oracle"]["ind_accuracy"]).mean(axis=1)
        expected = float(np.percentile(accs, 1.0))
        assert cli._simulate_threshold(config, config.stream.config) == expected

        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        # 16ths print exactly at 9 significant digits.
        assert [row["batch_correct"] for row in rows] == [
            str(int(float(row["batch_accuracy"]) >= expected)) for row in rows
        ]


class TestMonitorCommand:
    def test_quiet_stream_no_alert(self, tmp_path, capsys):
        payload = case_study_config_dict()
        payload["monitor"]["profile"] = {"tpr": 1.0, "tnr": 1.0}
        payload["monitor"]["trace_capacity"] = 10
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        verdicts = write_verdicts(tmp_path, [0] * 40)
        code = main(["monitor", "--config", str(config), "--input", verdicts])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        last = captured.out.strip().splitlines()[-1].split(",")
        assert float(last[3]) == 0.0  # corrected rate

    def test_alert_exit_code(self, tmp_path, config_path):
        # Construct a stream whose observed positive rate corresponds, via
        # the forward bias relation, to a true rate of 0.9, whose expected
        # risk breaches the configured threshold.
        from driftrisk.estimation import DetectorProfile, forward_bias

        observed = forward_bias(0.9, DetectorProfile(0.95, 0.55))
        period = 20
        positives = round(observed * period)
        bits = [int(i % period < positives) for i in range(300)]
        verdicts = write_verdicts(tmp_path, bits)
        code = main(["monitor", "--config", config_path, "--input", verdicts])
        assert code == EXIT_ALERT

    def test_malformed_line_diagnostic(self, tmp_path, config_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\ntwo\n")
        code = main(["monitor", "--config", config_path, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert "line 3" in captured.err

    def test_verdict_file_not_utf8(self, tmp_path, config_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0\n1\n\xff\n1\n")
        out = tmp_path / "out.csv"
        code = main(["monitor", "--config", config_path, "--input", str(path),
                     "--output", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err == "driftrisk: verdict stream: line 3: expected verdict 0 or 1, got '\\udcff'\n"
        # The header and the rows of the two verdicts before line 3.
        assert len(out.read_text().splitlines()) == 3

    def test_piped_verdicts_not_utf8_under_strict_stdin(self, tmp_path, config_path):
        # PYTHONIOENCODING=utf-8 makes stdin strict, as a UTF-8 locale does.
        result = subprocess.run(
            [sys.executable, "-m", "driftrisk", "monitor", "--config", config_path],
            input=b"0\n1\n\xff\n1\n",
            capture_output=True,
            env=child_env(PYTHONIOENCODING="utf-8"),
        )
        assert result.returncode == EXIT_DATA
        assert result.stderr.decode() == (
            "driftrisk: verdict stream: line 3: expected verdict 0 or 1, got '\\udcff'\n"
        )
        assert len(result.stdout.decode().splitlines()) == 3

    def test_uninformative_detector_exit(self, tmp_path):
        payload = case_study_config_dict()
        payload["monitor"]["profile"] = {"tpr": 0.5, "tnr": 0.5}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        verdicts = write_verdicts(tmp_path, [0, 1, 0])
        code = main(["monitor", "--config", str(config), "--input", verdicts])
        assert code == EXIT_UNINFORMATIVE

    def test_output_file_and_formats(self, tmp_path, config_path):
        verdicts = write_verdicts(tmp_path, [0, 1, 0, 0])
        out_csv = tmp_path / "a.csv"
        out_jsonl = tmp_path / "a.jsonl"
        main(["monitor", "--config", config_path, "--input", verdicts, "--output", str(out_csv)])
        main(
            [
                "monitor", "--config", config_path, "--input", verdicts,
                "--output", str(out_jsonl), "--format", "structured",
            ]
        )
        assert len(out_csv.read_text().splitlines()) == 5  # header + 4 records
        rows = [json.loads(line) for line in out_jsonl.read_text().splitlines()]
        assert [row["verdict"] for row in rows] == [False, True, False, False]

    def test_stdin_source(self, tmp_path, config_path, monkeypatch, capsys):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO("0\n0\n1\n"))
        code = main(["monitor", "--config", config_path])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert len(captured.out.strip().splitlines()) == 4

    @pytest.mark.parametrize("output_format", ["csv", "structured"])
    def test_stdout_is_flushed_once_per_verdict(
        self, tmp_path, config_path, monkeypatch, output_format
    ):
        # A client that waits for each reply before sending the next verdict
        # needs every row on stdout flushed as soon as it is written.
        import io as _io

        class CountingStdout(_io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushes = 0
                self.unflushed_rows = []

            def write(self, text):
                self.unflushed_rows.append(text)
                return super().write(text)

            def flush(self):
                self.flushes += 1
                self.unflushed_rows.clear()
                super().flush()

        stdout = CountingStdout()
        monkeypatch.setattr("sys.stdin", _io.StringIO("0\n1\n\n1\n0\n0\n"))
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(["monitor", "--config", config_path, "--format", output_format]) == EXIT_OK
        assert stdout.flushes == 5
        assert stdout.unflushed_rows == []


    def test_missing_cost_entry_fails_before_any_row(self, tmp_path, capsys):
        payload = case_study_config_dict()
        del payload["monitor"]["costs"]["failed_detection"]
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        verdicts = write_verdicts(tmp_path, [0, 1, 0])
        out = tmp_path / "assessments.csv"
        code = main(["monitor", "--config", str(config), "--input", verdicts])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert "reachable leaf" in captured.err and "has no cost entry" in captured.err
        assert captured.out == ""
        code = main(
            ["monitor", "--config", str(config), "--input", verdicts, "--output", str(out)]
        )
        assert code == EXIT_DATA
        assert not out.exists()


def monitor_bytes(config, text, output_format, source, tmp_dir, to_stdout=False):
    """Exit code, stderr and output bytes of one monitor run over ``text``.

    ``source`` "file" passes --input, "stdin-file" redirects stdin from a
    regular file, and "stdin-memory" gives stdin as a StringIO (no fileno),
    which takes the line-by-line path.  The rows go to a file given by
    --output, which the line-by-line path does not flush per row, or with
    ``to_stdout`` to a stdout that it flushes after every row.
    """
    tmp_dir = Path(tmp_dir)
    config_path = tmp_dir / "config.json"
    config_path.write_text(json.dumps(config))
    verdicts = tmp_dir / "verdicts.txt"
    verdicts.write_text(text)
    out = tmp_dir / f"out-{source}.txt"
    argv = ["monitor", "--config", str(config_path), "--format", output_format]
    stderr, stdout = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "stderr", stderr))
        if to_stdout:
            stack.enter_context(mock.patch.object(sys, "stdout", stdout))
        else:
            argv += ["--output", str(out)]
        if source == "file":
            argv += ["--input", str(verdicts)]
        elif source == "stdin-file":
            handle = stack.enter_context(open(verdicts, encoding="utf-8"))
            stack.enter_context(mock.patch.object(sys, "stdin", handle))
        else:
            stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(text)))
        code = main(argv)
    if to_stdout:
        return code, stderr.getvalue(), stdout.getvalue().encode()
    return code, stderr.getvalue(), out.read_bytes() if out.exists() else None


VERDICT_LINES = st.sampled_from(["0\n", "1\n", "\n", " \n", " 1 \n", "\t0\r\n"])


@st.composite
def monitor_configs(draw):
    payload = case_study_config_dict()
    monitor = payload["monitor"]
    capacity = draw(st.integers(1, 12))
    monitor.update(
        topology=draw(st.sampled_from(["base", "rv"])),
        trace_capacity=capacity,
        min_fill=draw(st.integers(1, capacity)),
        decay=draw(st.sampled_from([1.0, 0.9, 0.5])),
        prior_rate=draw(st.sampled_from([0.3, 0, 1])),
        profile=draw(st.sampled_from([{"tpr": 0.95, "tnr": 0.55}, {"tpr": 1.0, "tnr": 1.0}])),
        intervention_counts_as=draw(st.sampled_from(["correct", "excluded"])),
    )
    if not draw(st.booleans()):
        del monitor["costs"], monitor["risk_threshold"]
    return payload


class TestMonitorRegularFile:
    """A regular-file input is assessed in chunks; a pipe line by line.

    Both must write the same bytes and exit with the same code.
    """

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        config=monitor_configs(),
        lines=st.lists(VERDICT_LINES, max_size=60),
        bad_line=st.one_of(st.none(), st.integers(0, 60)),
        chunk_lines=st.integers(1, 9),
        output_format=st.sampled_from(["csv", "structured"]),
    )
    def test_chunked_file_equals_line_by_line(
        self, config, lines, bad_line, chunk_lines, output_format
    ):
        if bad_line is not None:
            lines.insert(min(bad_line, len(lines)), "2\n")
        text = "".join(lines)
        with tempfile.TemporaryDirectory() as tmp_dir, mock.patch.object(
            cli, "VERDICT_CHUNK_LINES", chunk_lines
        ):
            chunked = monitor_bytes(config, text, output_format, "file", tmp_dir)
            line_by_line = monitor_bytes(config, text, output_format, "stdin-memory", tmp_dir)
            flushed = monitor_bytes(
                config, text, output_format, "stdin-memory", tmp_dir, to_stdout=True
            )
        assert chunked == line_by_line == flushed

    @pytest.mark.parametrize("output_format", ["csv", "structured"])
    @pytest.mark.parametrize("decay", [1.0, 0.97])
    @pytest.mark.parametrize("priced", [True, False])
    def test_longer_than_one_chunk(self, tmp_path, output_format, decay, priced):
        config = case_study_config_dict()
        config["monitor"]["decay"] = decay
        if not priced:
            del config["monitor"]["costs"], config["monitor"]["risk_threshold"]
        rng = np.random.default_rng(3)
        lines = ["1\n" if v else "0\n" for v in rng.random(2 * VERDICT_CHUNK_LINES + 300) < 0.6]
        # Blank lines at the end of the first chunk and the start of the
        # second and third.
        for at in (2 * VERDICT_CHUNK_LINES, VERDICT_CHUNK_LINES, VERDICT_CHUNK_LINES - 1):
            lines[at] = "\n"
        text = "".join(lines)
        chunked = monitor_bytes(config, text, output_format, "file", tmp_path)
        assert chunked == monitor_bytes(config, text, output_format, "stdin-memory", tmp_path)
        assert chunked[2].count(b"\n") == len(lines) - 3 + (output_format == "csv")

    def test_malformed_line_past_first_chunk(self, tmp_path):
        bad = VERDICT_CHUNK_LINES + 200  # 1-based line number of the bad line
        text = "".join("1\n" if i % 2 else "0\n" for i in range(bad - 1)) + "yes\n" + "1\n" * 50
        code, err, out = monitor_bytes(case_study_config_dict(), text, "csv", "file", tmp_path)
        assert code == EXIT_DATA
        assert f"line {bad}: expected verdict 0 or 1, got 'yes'" in err
        rows = out.decode().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(bad - 1))
        assert (code, err, out) == monitor_bytes(
            case_study_config_dict(), text, "csv", "stdin-memory", tmp_path
        )

    def test_alert_only_in_a_later_chunk(self, tmp_path):
        # All-negative verdicts estimate a rate of 0 (no alert); a run of
        # positives estimates 1, whose rv risk is above the threshold.
        text = "0\n" * (VERDICT_CHUNK_LINES + 100) + "1\n" * 150
        code, _, out = monitor_bytes(case_study_config_dict(), text, "csv", "file", tmp_path)
        assert code == EXIT_ALERT
        alerts = [row.rsplit(",", 1)[1] for row in out.decode().splitlines()[1:]]
        assert "1" not in alerts[:VERDICT_CHUNK_LINES + 100]
        assert "1" in alerts

    def test_redirected_stdin_takes_the_chunked_path(self, tmp_path):
        text = "".join("1\n" if i % 3 else "0\n" for i in range(3000))
        calls = []
        observe_many = Monitor.observe_many

        def counting(self, verdicts):
            calls.append(len(verdicts))
            return observe_many(self, verdicts)

        with mock.patch.object(Monitor, "observe_many", counting):
            redirected = monitor_bytes(
                case_study_config_dict(), text, "structured", "stdin-file", tmp_path
            )
        assert calls == [1024, 1024, 952]
        assert redirected == monitor_bytes(
            case_study_config_dict(), text, "structured", "stdin-memory", tmp_path
        )

    def test_failing_verdict_inside_a_chunk(self, tmp_path):
        # A perfect detector in "excluded" mode cannot renormalize once the
        # estimated rate reaches 1: the rows before that verdict are written.
        config = case_study_config_dict()
        config["monitor"].update(
            profile={"tpr": 1.0, "tnr": 1.0}, intervention_counts_as="excluded",
            trace_capacity=5,
        )
        text = "0\n" * 40 + "1\n" * 10
        chunked = monitor_bytes(config, text, "csv", "file", tmp_path)
        assert chunked[0] == EXIT_DATA and "cannot renormalize" in chunked[1]
        assert len(chunked[2].splitlines()) == 1 + 44
        assert chunked == monitor_bytes(config, text, "csv", "stdin-memory", tmp_path)
        assert chunked == monitor_bytes(
            config, text, "csv", "stdin-memory", tmp_path, to_stdout=True
        )

    @pytest.mark.parametrize("output_format", ["csv", "structured"])
    def test_rows_before_a_failing_verdict_print_each_verdict(self, tmp_path, output_format):
        # The chunk that fails is written by the scalar loop, which must get
        # bools: fmt() prints an np.bool_ as True, and json refuses one.
        config = case_study_config_dict()
        config["monitor"].update(
            profile={"tpr": 1.0, "tnr": 1.0}, intervention_counts_as="excluded",
            trace_capacity=5,
        )
        # The window of 5 first holds only 1s at index 32, which estimates rate 1.
        bits = [0, 1, 1] * 10 + [1] * 10
        code, err, out = monitor_bytes(
            config, "".join(f"{b}\n" for b in bits), output_format, "file", tmp_path
        )
        assert code == EXIT_DATA and "cannot renormalize" in err
        lines = out.decode().splitlines()
        if output_format == "csv":
            assert [line.split(",")[1] for line in lines[1:]] == [str(b) for b in bits[:32]]
        else:
            verdicts = [json.loads(line)["verdict"] for line in lines]
            assert verdicts == [bool(b) for b in bits[:32]]
            assert all(type(v) is bool for v in verdicts)


# Config values of the wrong type or outside their domain: each must stop
# at config load with exit 1 and a message, never a Python traceback.
BAD_FIELD_VALUES = [
    ("stream", "shift_rate", "0.3", "shift_rate must be a number"),
    ("stream", "batch_size", 1.5, "batch_size must be an integer"),
    ("stream", "horizon", True, "horizon must be an integer"),
    ("stream", "seed", -4, "seed must be >= 0, got -4"),
    ("oracle", "folds", 5, "oracle.folds must be a list, got 5"),
    ("oracle", "folds", {"accuracy": 0.5}, "oracle.folds must be a list, got {'accuracy': 0.5}"),
    ("oracle", "folds", [], "oracle needs at least one OOD fold"),
    ("monitor", "risk_threshold", "high", "risk_threshold must be a number"),
    ("monitor", "decay", "0.9", "decay must be a number"),
    ("monitor", "prior_rate", "0.3", "prior_rate must be a number"),
    ("monitor", "trace_capacity", 2.5, "trace_capacity must be an integer"),
    ("monitor", "risk_threshold", -1, "risk_threshold must be >= 0"),
    ("monitor", "epsilon", -1, "epsilon must be >= 0, got -1"),
    (
        "monitor",
        "costs",
        {**CASE_STUDY_COSTS, "failed_detection": math.nan},
        "cost for outcome 'failed_detection' must be finite",
    ),
    (
        "monitor",
        "costs",
        {**CASE_STUDY_COSTS, "failed_detection": True},
        "cost for outcome 'failed_detection' must be a number",
    ),
    ("sweep", "operating_rate", "0.9", "operating_rate must be a number"),
    ("sweep", "horizon", 2.5, "horizon must be an integer"),
    # Sweep values that no sweep kind can run: every kind stops at load.
    ("sweep", "trace_lengths", [0], "trace_lengths entry must be >= 1, got 0"),
    ("sweep", "trace_lengths", [-3], "trace_lengths entry must be >= 1, got -3"),
    ("sweep", "batch_sizes", [0], "batch_sizes entry must be >= 1, got 0"),
    ("sweep", "seeds_per_cell", 0, "seeds_per_cell must be >= 1, got 0"),
    ("sweep", "validation_batches", 0, "validation_batches must be >= 1, got 0"),
    ("sweep", "risk_trace_length", 0, "risk_trace_length must be >= 1, got 0"),
    ("sweep", "percentile", 101, "percentile must be in [0, 100], got 101"),
    # The sweep monitors' prior never reaches an output, so it is no key.
    ("sweep", "prior_rate", 0.5, "unknown keys in sweep: ['prior_rate']"),
    ("sweep", "grid_step", 0, "grid_step must be in (0, 1], got 0"),
    ("sweep", "operating_rate", -0.1, "operating_rate must be in [0, 1], got -0.1"),
    ("sweep", "rates", [1.5], "rates entry must be in [0, 1], got 1.5"),
    ("sweep", "rates", None, "rates must be a list, got None"),
    ("sweep", "topology", "tree", "topology must be 'base' or 'rv', got 'tree'"),
    ("sweep", "master_seed", -1, "master_seed must be >= 0, got -1"),
    ("sweep", "classifier_deltas", [1.5], "classifier_deltas entry must be in [0, 1], got 1.5"),
    ("sweep", "detector_deltas", [-0.5], "detector_deltas entry must be in [0, 1], got -0.5"),
    ("sweep", "mixture_fraction", 2.0, "mixture_fraction must be in [0, 1], got 2.0"),
    # cba reads no rates, so an empty list stops only the kinds that do; an
    # optional fifth field names the sweep kind a row runs under (default cba).
    ("sweep", "rates", [], "grid needs at least one rate", "risk-curve"),
    # Only risk-curve reads the risk horizon, which must exceed its trace length.
    ("sweep", "risk_horizon", -5, "risk_horizon (-5) must exceed risk_trace_length (50)",
     "risk-curve"),
    ("sweep", "risk_horizon", 50, "risk_horizon (50) must exceed risk_trace_length (50)",
     "risk-curve"),
    # Out-of-range numbers: every one is worded by errors.check_range.
    ("monitor", "prior_rate", 1.5, "prior_rate must be in [0, 1], got 1.5"),
    ("monitor", "decay", 0, "decay must be in (0, 1], got 0"),
    ("monitor", "trace_capacity", 0, "trace_capacity must be in [1, 1000000], got 0"),
    # Sizes refused before anything of that size is allocated.
    ("monitor", "trace_capacity", 10**12,
     "trace_capacity must be in [1, 1000000], got 1000000000000"),
    ("stream", "horizon", 10**15,
     "horizon x batch_size must be at most 10000000 samples, got 1000000000000000 x 1"),
    ("stream", "batch_size", 10**5,
     "horizon x batch_size must be at most 10000000 samples, got 400 x 100000"),
    ("sweep", "grid_step", 1e-9, "grid_step must be at least 0.01, got 1e-09"),
    ("sweep", "risk_horizon", 10**13,
     "risk_horizon must be at most 10000000 samples, got 10000000000000", "risk-curve"),
    ("sweep", "risk_horizon", 10**13,
     "risk_horizon must be at most 10000000 samples, got 10000000000000"),
    ("sweep", "horizon", 10**13,
     "horizon x max(batch_sizes) must be at most 10000000 samples, got 10000000000000 x 1",
     "accuracy-error"),
    ("sweep", "batch_sizes", [1, 10**5],
     "horizon x max(batch_sizes) must be at most 10000000 samples, got 200 x 100000",
     "accuracy-error"),
    ("sweep", "seeds_per_cell", 10**15,
     "seeds_per_cell must be at most 1000000, got 1000000000000000"),
    ("sweep", "seeds_per_cell", 10**15,
     "seeds_per_cell must be at most 1000000, got 1000000000000000", "rate-error"),
    ("sweep", "validation_batches", 10**15,
     "validation_batches x max(batch_sizes) must be at most 10000000 samples, "
     "got 1000000000000000 x 1"),
    ("monitor", "profile", {"tpr": 1.5, "tnr": 0.55}, "tpr must be in [0, 1], got 1.5"),
    ("monitor", "profile", {"tpr": 0.95, "tnr": -0.1}, "tnr must be in [0, 1], got -0.1"),
    (
        "monitor",
        "accuracies",
        {"ind_neg": {"accuracy": 1.2, "support": 1}},
        "accuracy for condition 'ind_neg' must be in [0, 1], got 1.2",
    ),
    (
        "monitor",
        "accuracies",
        {"ind_neg": {"accuracy": 0.9, "support": -1}},
        "support for condition 'ind_neg' must be >= 0, got -1",
    ),
    (
        "monitor",
        "costs",
        {**CASE_STUDY_COSTS, "failed_detection": -1.0},
        "cost for outcome 'failed_detection' must be >= 0, got -1.0",
    ),
    ("stream", "shift_rate", 1.5, "shift_rate must be in [0, 1], got 1.5"),
    ("stream", "batch_size", 0, "batch_size must be >= 1, got 0"),
    ("stream", "horizon", -1, "horizon must be >= 1, got -1"),
    ("stream", "mixture_fraction", 1.5, "mixture_fraction must be in [0, 1], got 1.5"),
    ("stream", "correct_threshold", 0, "correct_threshold must be in (0, 1], got 0"),
    ("stream", "correct_threshold", 1.5, "correct_threshold must be in (0, 1], got 1.5"),
    ("oracle", "ind_accuracy", 1.5, "ind_accuracy must be in [0, 1], got 1.5"),
    ("oracle", "folds", [{"accuracy": 1.5}], "fold accuracy must be in [0, 1], got 1.5"),
    (
        "oracle",
        "folds",
        [{"accuracy": 0.5, "weight": -1.0}],
        "fold weight must be >= 0, got -1.0",
    ),
]


class TestTypedConfigValidation:
    @pytest.mark.parametrize(
        "section,key,value,message,kind",
        [(*row, "cba")[:5] for row in BAD_FIELD_VALUES],
        ids=[f"{row[0]}: {row[3]}" for row in BAD_FIELD_VALUES],
    )
    def test_rejected_at_load_with_usage_exit(
        self, tmp_path, capsys, section, key, value, message, kind
    ):
        payload = case_study_config_dict()
        payload[section][key] = value
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "out.csv"
        if section in ("stream", "oracle"):
            argv = ["simulate", "--config", str(config), "--output", str(out)]
        elif section == "sweep":
            argv = ["sweep", kind, "--config", str(config), "--output", str(out)]
        else:
            verdicts = write_verdicts(tmp_path, [1] * 30)
            argv = ["monitor", "--config", str(config), "--input", verdicts,
                    "--output", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "Traceback" not in err
        assert err.startswith(f"driftrisk: config error: {message}")
        assert not out.exists()


class TestSweepCommand:
    def test_rate_error_outputs(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "rate-error", "--config", config_path, "--output", str(out)])
        assert code == EXIT_OK
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 1 * 3  # header + profiles x rates
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["kind"] == "rate-error"
        assert metadata["master_seed"] == 5
        assert metadata["schema_version"] == 1

    def test_accuracy_error_outputs(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "accuracy-error", "--config", config_path, "--output", str(out)]
        )
        assert code == EXIT_OK
        header = (out / "report.csv").read_text().splitlines()[0]
        assert "baseline_mae" in header

    def test_risk_curve_outputs_crossings(self, tmp_path, config_path):
        out = tmp_path / "risk"
        code = main(["sweep", "risk-curve", "--config", config_path, "--output", str(out)])
        assert code == EXIT_OK
        content = (out / "report.csv").read_text()
        for curve in ("rv_estimated", "rv_actual", "base_estimated", "base_actual"):
            assert f"crossing_{curve}" in content
        metadata = json.loads((out / "metadata.json").read_text())
        assert "crossings" in metadata

    def test_cba_outputs_rectangular_surface(self, tmp_path, config_path):
        out = tmp_path / "cba"
        code = main(["sweep", "cba", "--config", config_path, "--output", str(out)])
        assert code == EXIT_OK
        rows = (out / "report.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2  # header + classifier x detector deltas
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["detector_marginal"] < 0
        assert metadata["classifier_marginal"] < 0

    def test_sweeps_byte_identical(self, tmp_path, config_path):
        for kind in ("rate-error", "accuracy-error", "risk-curve", "cba"):
            out_a = tmp_path / f"{kind}-a"
            out_b = tmp_path / f"{kind}-b"
            assert main(["sweep", kind, "--config", config_path, "--output", str(out_a)]) == EXIT_OK
            assert main(["sweep", kind, "--config", config_path, "--output", str(out_b)]) == EXIT_OK
            assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    def test_seed_override_recorded(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        main(["sweep", "rate-error", "--config", config_path, "--output", str(out), "--seed", "77"])
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["master_seed"] == 77

    def test_full_profile_grid_row_count(self, tmp_path):
        # grid_step 0.1 expands to the 55-profile lattice; one row per cell.
        payload = case_study_config_dict()
        payload["sweep"].pop("profiles")
        payload["sweep"]["grid_step"] = 0.1
        payload["sweep"]["seeds_per_cell"] = 5
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "grid-sweep"
        assert main(["sweep", "rate-error", "--config", str(config), "--output", str(out)]) == EXIT_OK
        rows = (out / "report.csv").read_text().splitlines()
        assert len(rows) == 1 + 55 * 3  # header + profiles x rates

    def test_jobs_flag_matches_serial(self, tmp_path, config_path):
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        main(["sweep", "rate-error", "--config", config_path, "--output", str(out_serial)])
        main(
            ["sweep", "rate-error", "--config", config_path, "--output", str(out_parallel),
             "--jobs", "2"]
        )
        assert (out_serial / "report.csv").read_bytes() == (
            out_parallel / "report.csv"
        ).read_bytes()

    @pytest.mark.parametrize("kind", ["rate-error", "cba"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_usage(self, tmp_path, capsys, config_path, kind, jobs):
        out = tmp_path / "out"
        argv = ["sweep", kind, "--config", config_path, "--output", str(out), "--jobs", jobs]
        assert main(argv) == EXIT_USAGE
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,change,message",
        [
            ("rate-error", {"profiles": None}, "sweep needs either 'profiles' or 'grid_step'"),
            ("accuracy-error", {"rates": []}, "grid needs at least one rate"),
            ("rate-error", {"profiles": []}, "grid needs at least one detector profile"),
            ("accuracy-error", {"horizon": 50}, "horizon must exceed every trace length"),
        ],
    )
    def test_error_sweep_rules_exit_usage(self, tmp_path, capsys, kind, change, message):
        payload = case_study_config_dict()
        payload["sweep"].update(change)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "sweep"
        assert main(["sweep", kind, "--config", str(config), "--output", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"driftrisk: config error: {message}")
        assert not out.exists()
        # The other sweep kinds do not need these rules.
        assert main(["sweep", "cba", "--config", str(config), "--output", str(out)]) == EXIT_OK

    @pytest.mark.parametrize(
        "kind,change,code,message",
        [
            ("accuracy-error", lambda p: p.pop("oracle"), EXIT_USAGE,
             "config is missing required section(s): oracle"),
            ("risk-curve", lambda p: p.pop("oracle"), EXIT_USAGE,
             "config is missing required section(s): oracle"),
            ("risk-curve", lambda p: p["monitor"].pop("risk_threshold"), EXIT_USAGE,
             "risk-curve needs monitor costs and risk_threshold"),
            ("risk-curve", lambda p: p["monitor"].update(profile={"tpr": 0.5, "tnr": 0.5}),
             EXIT_UNINFORMATIVE,
             "detector uninformative: TPR + TNR - 1 = 0 <= 0.05; "
             "corrected rate estimates would be dominated by noise"),
            ("cba", lambda p: p["sweep"].pop("operating_rate"), EXIT_USAGE,
             "cba needs sweep.operating_rate"),
            ("cba", lambda p: p["monitor"].pop("costs"), EXIT_USAGE, "cba needs monitor costs"),
            ("cba", lambda p: p.pop("monitor"), EXIT_USAGE,
             "config is missing required section(s): monitor"),
        ],
        ids=["accuracy-error-no-oracle", "risk-curve-no-oracle", "risk-curve-no-threshold",
             "risk-curve-uninformative", "cba-no-operating-rate", "cba-no-costs",
             "cba-no-monitor"],
    )
    def test_failed_sweep_writes_nothing(self, tmp_path, capsys, kind, change, code, message):
        payload = case_study_config_dict()
        change(payload)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "sweep"
        assert main(["sweep", kind, "--config", str(config), "--output", str(out)]) == code
        assert capsys.readouterr().err == f"driftrisk: {message}\n"
        assert not out.exists()

    def test_negative_seed_flag_exits_usage(self, tmp_path, capsys, config_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "risk-curve", "--config", config_path, "--output", str(out)]
        assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "driftrisk: config error: master_seed must be >= 0"
        )
        assert not out.exists()

    def test_uninformative_profile_is_a_refused_cell(self, tmp_path):
        payload = case_study_config_dict()
        payload["sweep"]["profiles"] = [[0.9, 0.8], [0.5, 0.52]]
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "sweep"
        assert main(["sweep", "rate-error", "--config", str(config), "--output", str(out)]) == EXIT_OK
        with open(out / "report.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["refused"] for row in rows if row["tnr"] == "0.52"] == ["1"] * 3
        assert {row["refused"] for row in rows if row["tnr"] == "0.8"} == {"0"}

    def test_cba_requires_operating_rate(self, tmp_path):
        payload = case_study_config_dict()
        payload["sweep"]["operating_rate"] = None
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        code = main(["sweep", "cba", "--config", str(config), "--output", str(tmp_path / "o")])
        assert code == EXIT_USAGE


class TestCalibrateCommand:
    @staticmethod
    def write_labeled(tmp_path, rows, header="is_ood,verdict,is_correct"):
        path = tmp_path / "labeled.csv"
        path.write_text(header + "\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
        return str(path)

    def test_perfect_detector_profile(self, tmp_path):
        rows = [(1, 1, 0), (1, 1, 1), (0, 0, 1), (0, 0, 1)]
        labeled = self.write_labeled(tmp_path, rows)
        out = tmp_path / "fragment.json"
        assert main(["calibrate", "--input", labeled, "--output", str(out)]) == EXIT_OK
        fragment = json.loads(out.read_text())
        assert fragment["monitor"]["profile"] == {"tpr": 1.0, "tnr": 1.0}
        assert fragment["schema_version"] == 1

    def test_missing_column_named(self, tmp_path, capsys):
        path = tmp_path / "labeled.csv"
        path.write_text("verdict,is_correct\n1,1\n")
        code = main(["calibrate", "--input", str(path), "--output", str(tmp_path / "f.json")])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.err == "driftrisk: labeled data is missing the 'is_ood' column\n"

    @pytest.mark.parametrize(
        "content,message",
        [
            (
                b"is_ood,verdict,is_correct\n1,1,1\n0,\xff,1\n",
                "line 3, column verdict: expected a boolean 0/1 value, got '\\udcff'",
            ),
            (
                b"is_ood,verdict,is_correct\n1,1,1\n0,0\n",
                "line 3, column is_correct: missing value",
            ),
            (b"is_ood,verdict,is_correct\n1\n", "line 2, column is_correct: missing value"),
            (
                b'is_ood,verdict,is_correct\n1,1,1\n0,0,"' + b"x" * 200_000 + b'"\n',
                "line 3: field larger than field limit (131072)",
            ),
        ],
        ids=["not-utf8", "short-row", "one-field-row", "oversized-field"],
    )
    def test_bad_row_names_its_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "labeled.csv"
        path.write_bytes(content)
        out = tmp_path / "f.json"
        code = main(["calibrate", "--input", str(path), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err == f"driftrisk: {message}\n"
        assert not out.exists()

    def test_missing_class_diagnostic(self, tmp_path, capsys):
        labeled = self.write_labeled(tmp_path, [(1, 1, 0), (1, 0, 1)])
        code = main(["calibrate", "--input", labeled, "--output", str(tmp_path / "f.json")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "driftrisk: calibration data contains no non-event (InD) samples\n"
        )

    def test_fragment_feeds_back_bit_exact(self, tmp_path):
        # Calibrate, splice the fragment into a run config, monitor with it,
        # and check the table survives the round trip unchanged.
        rows = [(1, 1, 0)] * 7 + [(1, 0, 1)] * 3 + [(0, 0, 1)] * 9 + [(0, 1, 0)] * 1
        labeled = self.write_labeled(tmp_path, rows)
        fragment_path = tmp_path / "fragment.json"
        main(["calibrate", "--input", labeled, "--output", str(fragment_path)])
        fragment = json.loads(fragment_path.read_text())

        payload = case_study_config_dict()
        payload["monitor"]["profile"] = fragment["monitor"]["profile"]
        payload["monitor"]["accuracies"] = fragment["monitor"]["accuracies"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))

        from driftrisk.config import load_run_config

        loaded = load_run_config(config)
        assert loaded.monitor.accuracies.to_dict() == fragment["monitor"]["accuracies"]
        assert loaded.monitor.profile.tpr == fragment["monitor"]["profile"]["tpr"]

        verdicts = write_verdicts(tmp_path, [0, 1, 0])
        assert main(["monitor", "--config", str(config), "--input", verdicts]) in (
            EXIT_OK,
            EXIT_ALERT,
        )


class TestSubprocessDeterminism:
    def test_fresh_interpreters_produce_identical_bytes(self, tmp_path, config_path):
        # In-process reruns share one hash seed; fresh interpreters do not,
        # so this catches any accidental dependence on set or str-hash order.
        # Each run gets its own explicit PYTHONHASHSEED, so a seed pinned in
        # the parent's environment cannot make the two runs share one.
        payload = case_study_config_dict()
        payload["stream"]["horizon"] = 150
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        outputs = []
        for tag, hash_seed in (("a", "1"), ("b", "2")):
            env = child_env(PYTHONHASHSEED=hash_seed)
            out = tmp_path / f"trace-{tag}.csv"
            sweep_dir = tmp_path / f"cba-{tag}"
            for argv in (
                ["simulate", "--config", str(config), "--output", str(out)],
                ["sweep", "cba", "--config", str(config), "--output", str(sweep_dir)],
            ):
                command = [sys.executable, "-m", "driftrisk", *argv]
                result = subprocess.run(
                    command,
                    capture_output=True,
                    cwd=str(tmp_path),
                    env=env,
                )
                assert result.returncode == 0, (
                    f"argv: {command}\nPYTHONPATH: {env['PYTHONPATH']}\n"
                    f"PYTHONHASHSEED: {hash_seed}\nstderr: {result.stderr.decode()}"
                )
            outputs.append(
                out.read_bytes()
                + (sweep_dir / "report.csv").read_bytes()
                + (sweep_dir / "metadata.json").read_bytes()
            )
        assert outputs[0] == outputs[1]


class TestReaderClosesStdout:
    """``driftrisk monitor ... | head -1``: the reader leaves after one line."""

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_exits_ok_with_nothing_on_stderr(self, tmp_path, config_path, source):
        # 20k rows are far more than a pipe buffer holds, so the monitor
        # is still writing when the reader goes.
        verdicts = write_verdicts(tmp_path, np.random.default_rng(3).random(20_000) < 0.6)
        argv = [sys.executable, "-m", "driftrisk", "monitor", "--config", config_path]
        if source == "file":
            argv += ["--input", verdicts]
        child = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if source == "pipe" else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        feeder = None
        if source == "pipe":

            def feed():
                # The child stops reading once it is done, so the rest of
                # the input may meet a closed pipe too.
                with contextlib.suppress(BrokenPipeError):
                    child.stdin.write(Path(verdicts).read_bytes())
                with contextlib.suppress(BrokenPipeError):
                    child.stdin.close()

            feeder = threading.Thread(target=feed)
            feeder.start()
        assert child.stdout.readline().startswith(b"index,verdict,")
        child.stdout.close()
        stderr = child.stderr.read()
        code = child.wait(timeout=60)
        if feeder is not None:
            feeder.join(timeout=60)
        child.stderr.close()
        assert (code, stderr) == (EXIT_OK, b"")


class TestOutputDiscipline:
    def test_unwritable_output_is_clean_usage_error(self, tmp_path, config_path, capsys):
        code = main(
            ["simulate", "--config", config_path,
             "--output", str(tmp_path / "no" / "such" / "dir" / "t.csv")]
        )
        assert code == EXIT_USAGE
        assert "driftrisk:" in capsys.readouterr().err

    def test_unwritable_monitor_output_closes_the_input(self, tmp_path, config_path, capsys):
        verdicts = write_verdicts(tmp_path, [0, 1, 0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["monitor", "--config", config_path, "--input", verdicts,
                 "--output", str(tmp_path / "no" / "such" / "dir" / "m.csv")]
            )
            gc.collect()
        assert code == EXIT_USAGE
        assert "driftrisk:" in capsys.readouterr().err
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_no_writes_outside_declared_paths(self, tmp_path, config_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out_dir = tmp_path / "outputs"
        out_dir.mkdir()
        verdicts = write_verdicts(tmp_path, [0, 1, 0])
        main(["simulate", "--config", config_path, "--output", str(out_dir / "trace.csv")])
        main(
            ["monitor", "--config", config_path, "--input", verdicts,
             "--output", str(out_dir / "monitor.csv")]
        )
        main(["sweep", "cba", "--config", config_path, "--output", str(out_dir / "cba")])
        assert list(workdir.iterdir()) == []


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["simulate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK
