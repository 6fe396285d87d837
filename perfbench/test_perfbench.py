"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from driftrisk.cli import main as cli_main  # noqa: E402


@pytest.fixture
def built(tmp_path):
    """Build a smoke workload's inputs in a temporary work directory."""

    def build(name: str, seed: int = 3):
        return workloads.build(name, seed, ROOT, str(tmp_path), "smoke")

    return build


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _bench(workload, tmp_path) -> run.Bench:
    deadline = run.time.perf_counter() + 60
    return run.Bench(workload, ROOT, str(tmp_path), deadline)


class TestChecker:
    def test_accepts_the_program_output_and_rejects_a_corrupted_row(self, built):
        workload = built("monitor-batch")
        command = workload.commands[0]
        assert cli_main(command.argv) == command.expected_rc == checker.EXIT_ALERT
        good = _read(command.outputs[0])
        assert command.check([good]) == []

        lines = good.decode().splitlines(keepends=True)
        fields = lines[2000].split(",")
        fields[8] = str(float(fields[8]) * 1.001)  # expected_risk
        lines[2000] = ",".join(fields)
        problems = command.check(["".join(lines).encode()])
        assert len(problems) == 1 and "expected_risk" in problems[0]

        del lines[5000]
        assert len(command.check(["".join(lines).encode()])) > 1

    def test_structured_rows_with_decay_match_the_reference(self, built):
        workload = built("monitor-live")
        command = workload.commands[0]
        out = os.path.join(os.path.dirname(command.argv[2]), "live.jsonl")
        argv = command.argv + ["--input", "-", "--output", out]
        stdin = b"".join(workload.lines)
        env = run.child_env(ROOT)
        proc = subprocess.run(
            [sys.executable, "-m", "driftrisk", *argv], input=stdin, env=env, cwd=ROOT
        )
        assert proc.returncode == command.expected_rc
        assert command.check([_read(out)]) == []

    def test_missing_rows_each_count_as_failed(self, built):
        workload = built("monitor-live")
        assert len(workload.commands[0].check([b""])) == workload.ops

    def test_wrong_exit_code_fails_every_row(self, built, tmp_path):
        workload = built("monitor-batch")
        workload.commands[0].expected_rc = checker.EXIT_OK
        result = _bench(workload, tmp_path).batch_pass(traced=False)
        assert result.failed == workload.ops

    def test_sweep_reports_pass_and_refusals_are_checked(self, built):
        workload = built("sweep-vectorized")
        rate, cba = workload.commands
        for command in (rate, cba):
            assert cli_main(command.argv) == 0
        blobs = [_read(path) for path in rate.outputs]
        assert rate.check(blobs) == []
        flipped = blobs[0].replace(b",1\n", b",0\n", 1)
        assert rate.check([flipped, blobs[1]])
        assert cba.check([_read(path) for path in cba.outputs]) == []


class TestLiveLoop:
    @pytest.mark.parametrize(
        "script",
        [
            "import sys, time; sys.stdin.readline(); time.sleep(30)",
            # echoes, but never flushes, so no reply reaches the pipe in time
            "import sys\nfor line in sys.stdin: sys.stdout.write(line)",
        ],
        ids=["hang", "lost-flush"],
    )
    def test_missing_reply_ends_the_loop_and_the_child_is_reaped(self, script, monkeypatch):
        monkeypatch.setattr(run, "REPLY_TIMEOUT_S", 0.3)
        child = run.Child(
            [sys.executable, "-c", script], run.child_env(ROOT), ROOT,
            subprocess.DEVNULL, subprocess.PIPE,
        )
        try:
            replies, _, _ = run.closed_loop(
                child, [b"1\n"] * 5, [], run.time.perf_counter() + 10
            )
        finally:
            child.reap()
        assert replies == []
        assert child.proc.returncode is not None


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        own = spans.self_times(parent, start, end)
        assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
        assert own.sum() == 10.0

    def test_tracer_nests_calls_and_times_each_next(self):
        tracer = spans.Tracer()

        def numbers():
            yield from range(3)

        inner = tracer.wrap("inner", lambda x: x)
        gen = tracer.wrap_generator("gen", numbers)
        outer = tracer.wrap("outer", lambda: [inner(x) for x in gen()])
        assert outer() == [0, 1, 2]
        names = [tracer.names[i] for i in tracer.name]
        assert names.count("gen") == 4  # three items and the final StopIteration
        assert names.count("inner") == 3
        assert all(p == 0 for p in tracer.parent[1:])
        recorded = {
            "names": np.array(tracer.names),
            "name": np.frombuffer(tracer.name, dtype=np.int32),
            "parent": np.frombuffer(tracer.parent, dtype=np.int64),
            "start": np.frombuffer(tracer.start, dtype=np.float64),
            "end": np.frombuffer(tracer.end, dtype=np.float64),
        }
        summary = spans.summarize(recorded)
        total = sum(entry["self_s"] for entry in summary.values())
        assert total == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)
        assert summary["inner"]["calls"] == 3


class TestInputs:
    def test_streams_depend_only_on_the_seed(self):
        a = workloads.verdict_stream(5, 9000, 500)
        assert np.array_equal(a, workloads.verdict_stream(5, 9000, 500))
        assert not np.array_equal(a, workloads.verdict_stream(6, 9000, 500))

    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
            run.END_TO_END
        )
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
            spans.PER_LAYER
        )


class TestSmoke:
    @pytest.mark.parametrize("trace", [0, 1])
    @pytest.mark.parametrize("name", workloads.NAMES)
    def test_workload_runs_correct(self, name, trace, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        argv = ["--workload", name, "--seed", "4", "--seconds", "0.5", "--trace", str(trace)]
        assert run.main(argv + ["--smoke"]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        table = spans.PER_LAYER if trace else run.END_TO_END
        assert list(result["metrics"]) == [metric for metric, _, _ in table]
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())

    def test_refuses_to_run_outside_a_checkout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["--workload", "monitor-batch", "--seed", "1", "--seconds", "1"]
        assert run.main(argv) != 0
        assert capsys.readouterr().out == ""
