"""driftrisk benchmark: four workloads through the CLI, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each pass of a workload runs ``driftrisk.cli.main`` in a fresh interpreter
(``worker.py``); monitor-live instead keeps one ``driftrisk monitor`` child
per pass and feeds it over a pipe, one verdict per reply.  Passes repeat
for ``--seconds``; every output is checked and a pass that fails counts
its operations as failed.  Timings are medians over passes.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` alternates untraced and traced passes and reports per-layer counts and
self times of the traced ones, with the tracing overhead.  The last line
of standard output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 15  # extra set-ups per run, so setup_s is a median of many
BUDGET_S = 170.0  # a run never takes longer than this
REPLY_TIMEOUT_S = 5.0  # monitor-live: per-verdict wait before a reply counts as missing

# End-to-end metrics, in BENCHMARK.json order: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("verdicts_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# What verdicts_per_s counts on the sweep workloads, printed under these names too.
THROUGHPUT_ALIAS = {
    "sweep-simulate": "sim_batches_per_s",
    "sweep-vectorized": "sweep_draws_per_s",
}


class LineReader:
    """Reads newline-terminated lines from a pipe with a timeout."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buffer = b""

    def readline(self, timeout: float) -> bytes | None:
        """A line; b"" at end of file; None when the timeout passes first."""
        deadline = time.perf_counter() + timeout
        while True:
            end = self.buffer.find(b"\n")
            if end >= 0:
                line, self.buffer = self.buffer[: end + 1], self.buffer[end + 1 :]
                return line
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([self.fd], [], [], remaining)[0]:
                return None
            chunk = os.read(self.fd, 65536)
            if not chunk:
                return b""
            self.buffer += chunk

    def drain(self, deadline: float) -> bool:
        """Discard output until end of file; False if the deadline passes first."""
        while True:
            line = self.readline(deadline - time.perf_counter())
            if line is None:
                return False
            if line == b"":
                return True


class Child:
    """A child process with a line reader on its stdout."""

    def __init__(
        self, argv: list[str], env: dict, cwd: str, stderr, stdin=subprocess.DEVNULL
    ) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=cwd
        )
        self.reader = LineReader(self.proc.stdout.fileno())

    def wait(self, deadline: float) -> int | None:
        """Exit code, or None if the child is still running at the deadline."""
        try:
            return self.proc.wait(max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return None

    def reap(self) -> None:
        """Kill the child if it still runs, wait for it, close its pipes."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                with contextlib.suppress(OSError):
                    pipe.close()


@dataclass
class Pass:
    """What one pass measured; times are None when the pass did not finish."""

    traced: bool
    setup_s: float | None = None
    run_s: float | None = None
    units: int = 0
    rss_kb: int | None = None
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    layers: dict | None = None


class Bench:
    """One workload's runs: passes, output checks, metrics."""

    def __init__(self, workload, root: str, work: str, deadline: float) -> None:
        self.workload = workload
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = child_env(root)
        self.stderr_path = os.path.join(work, "stderr.txt")
        self.result_path = os.path.join(work, "result.json")
        self.spans_path = os.path.join(work, "spans.npz")
        self.first_digest: dict[int, str] = {}
        self.problems: dict[tuple[int, str], list[str]] = {}
        self.notes: list[str] = []

    # -- children ---------------------------------------------------------

    def _spec(self, mode: str, traced: bool) -> str:
        path = os.path.join(self.work, f"spec-{mode}-{int(traced)}.json")
        if os.path.exists(path):
            return path
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "mode": mode,
                    "configs": self.workload.configs,
                    "commands": [c.argv for c in self.workload.commands],
                    "trace": traced,
                    "spans": self.spans_path,
                    "result": self.result_path,
                },
                handle,
            )
        return path

    @contextlib.contextmanager
    def _child(self, spec: str, stdin=subprocess.DEVNULL):
        with open(self.stderr_path, "wb") as stderr:
            child = Child([sys.executable, WORKER, spec], self.env, self.root, stderr, stdin)
            try:
                yield child
            finally:
                child.reap()

    def _fresh_outputs(self) -> None:
        """Give the next pass an empty output directory; remove the old one untimed."""
        out = self.workload.output_dir
        old = out + ".old"
        os.rename(out, old)
        shutil.rmtree(old)
        os.mkdir(out)

    def _note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    def _stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-400:].decode("utf-8", "replace").strip()

    def _read_result(self) -> dict | None:
        try:
            with open(self.result_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- passes -----------------------------------------------------------

    def setup_probe(self) -> float | None:
        """One set-up without the workload's commands."""
        if self.workload.live:
            return self.live_pass(traced=False, lines=self.workload.lines[:1]).setup_s
        with self._child(self._spec("setup", False)) as child:
            ready = child.reader.readline(self.deadline - time.perf_counter())
            setup = time.perf_counter() - child.start
            if ready != b"ready\n" or child.wait(self.deadline) != 0:
                self._note(f"set-up failed: {self._stderr_tail()}")
                return None
        return setup

    def batch_pass(self, traced: bool) -> Pass:
        workload = self.workload
        result = Pass(traced, failed=workload.ops)
        self._fresh_outputs()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.result_path)
        with self._child(self._spec("batch", traced)) as child:
            ready = child.reader.readline(self.deadline - time.perf_counter())
            setup = time.perf_counter() - child.start
            finished = ready == b"ready\n" and child.reader.drain(self.deadline)
            code = child.wait(self.deadline) if finished else None
        report = self._read_result()
        if code != 0 or report is None:
            self._note(f"pass failed (exit {code}): {self._stderr_tail()}")
            return result
        result.setup_s = setup
        result.run_s = sum(c["seconds"] for c in report["commands"])
        result.units = workload.units
        result.rss_kb = report["peak_rss_kb"]
        result.failed = 0
        for index, (command, outcome) in enumerate(zip(workload.commands, report["commands"])):
            if outcome["rc"] != command.expected_rc:
                self._note(f"{command.argv[:2]}: exit {outcome['rc']}, expected {command.expected_rc}")
                result.failed += command.ops
                continue
            blobs = []
            for path in command.outputs:
                with open(path, "rb") as handle:
                    blobs.append(handle.read())
            result.failed += self._check(index, command, blobs, result)
        if traced:
            result.layers = self._layers(report["cpu"], result.run_s)
        return result

    def live_pass(self, traced: bool, lines: list[bytes] | None = None) -> Pass:
        workload = self.workload
        command = workload.commands[0]
        lines = workload.lines if lines is None else lines
        result = Pass(traced)
        replies: list[bytes] = []
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.result_path)
        with self._child(self._spec("live", traced), stdin=subprocess.PIPE) as child:
            replies, first, last = closed_loop(child, lines, result.latencies, self.deadline)
            if replies:
                result.setup_s = first - child.start
            child.proc.stdin.close()
            # A healthy child exits as soon as its input ends.
            code = child.wait(min(self.deadline, time.perf_counter() + REPLY_TIMEOUT_S))
        if len(replies) > 1:
            result.run_s = last - first
            result.units = len(replies) - 1
        if len(lines) < len(workload.lines):  # a set-up probe checks nothing
            return result
        if code != command.expected_rc:
            self._note(f"monitor-live: exit {code}, expected {command.expected_rc}: "
                       f"{self._stderr_tail()}")
            result.failed = command.ops
            return result
        result.failed = self._check(0, command, [b"".join(replies)], result)
        report = self._read_result()
        if report is None or not result.run_s:
            self._note(f"monitor-live: no result from the child: {self._stderr_tail()}")
            result.failed = command.ops
            return result
        result.rss_kb = report["peak_rss_kb"]
        if traced:
            result.layers = self._layers(report["cpu"], result.run_s)
        return result

    def _check(self, index: int, command, blobs: list[bytes], result: Pass) -> int:
        """Failed operations in one command's outputs; each digest is checked once."""
        digest = hashlib.sha256(b"".join(len(b).to_bytes(8, "big") + b for b in blobs))
        digest = digest.hexdigest()
        result.digests.append(digest)
        first = self.first_digest.setdefault(index, digest)
        if digest != first:
            self._note(f"{' '.join(command.argv[:2])}: output digest {digest[:12]} differs "
                       f"from the first repeat's {first[:12]}")
            return command.ops
        if (index, digest) not in self.problems:
            try:
                problems = command.check(blobs)
            except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
                problems = [f"unreadable output: {exc!r}"] * command.ops
            self.problems[(index, digest)] = problems
            for problem in problems[:5]:
                self._note(problem)
        return min(len(self.problems[(index, digest)]), command.ops)

    def _layers(self, cpu: list[float], run_s: float) -> dict:
        with np.load(self.spans_path) as recorded:
            summary = spans.summarize(recorded)
        return {"summary": summary, "cpu": tuple(cpu), "run_s": run_s}

    # -- a run ------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        run_pass = self.live_pass if self.workload.live else self.batch_pass
        self.setup_probe()  # fills bytecode and page caches; not measured
        setups = [self.setup_probe() for _ in range(SETUP_PROBES)]
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(traced))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            enough = not trace or len(passes) >= 2
            if (enough and elapsed + typical > seconds) or time.perf_counter() > self.deadline:
                break
        return self.result(passes, setups, trace)

    def result(self, passes: list[Pass], setups: list, trace: bool) -> dict:
        workload = self.workload
        attempted = workload.ops * len(passes)
        failed = sum(p.failed for p in passes)
        untraced = [p for p in passes if not p.traced and p.run_s and p.rss_kb]
        setup = [s for s in setups + [p.setup_s for p in passes] if s is not None]
        finished = untraced and setup
        out = sys.stdout
        print(f"workload {workload.name}: {len(passes)} passes, {workload.units} verdicts "
              f"per pass, {attempted} operations, {failed} failed", file=out)
        for note in self.notes:
            print(f"  problem: {note}", file=out)
        digests = sorted({d for p in passes for d in p.digests})
        print(f"  output sha256: {' '.join(digests)}", file=out)
        print(f"  fail_ratio {failed / max(attempted, 1):.6g}", file=out)

        metrics: dict[str, dict] = {}
        if finished:
            run_s = statistics.median(p.run_s for p in untraced)
            values = {
                "setup_s": statistics.median(setup),
                "run_s": run_s,
                "verdicts_per_s": statistics.median(p.units / p.run_s for p in untraced),
                "peak_rss_mb": statistics.median(p.rss_kb / 1024 for p in untraced),
            }
            latencies = sorted(x for p in untraced for x in p.latencies)
            if latencies:
                for q in (50, 99):
                    value = latencies[min(len(latencies) - 1, len(latencies) * q // 100)]
                    print(f"  verdict_latency_p{q}_us {value * 1e6:.4f} us "
                          f"({len(latencies)} samples)", file=out)
            if workload.name in THROUGHPUT_ALIAS:
                print(f"  {THROUGHPUT_ALIAS[workload.name]} {values['verdicts_per_s']:.6g} 1/s",
                      file=out)
            if not trace:
                for name, unit, _ in END_TO_END:
                    metrics[name] = {"value": values[name], "unit": unit}
            else:
                metrics = self._per_layer(passes, run_s, workload)
                traced = next((p for p in passes if p.layers is not None), None)
                if traced is not None:
                    print("  spans of the first traced pass:", file=out)
                    for line in spans.span_table(traced.layers["summary"]):
                        print(f"    {line}", file=out)
            for name, metric in metrics.items():
                print(f"  {name} {metric['value']:.6g} {metric['unit']}", file=out)
        correct = bool(finished) and failed == 0 and (not trace or bool(metrics))
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }

    def _per_layer(self, passes: list[Pass], untraced_run_s: float, workload) -> dict:
        per_pass = [
            spans.per_layer(
                p.layers["summary"], p.layers["cpu"], p.layers["run_s"], untraced_run_s,
                workload.batch_sizes,
            )
            for p in passes
            if p.layers is not None
        ]
        if not per_pass:
            return {}
        return {
            name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
            for name, unit, _ in spans.PER_LAYER
        }


def closed_loop(child: Child, lines: list[bytes], latencies: list[float], deadline: float):
    """Send one line, wait for its reply, repeat.

    Returns the replies and the times the first and last arrived.  A reply
    that does not come within REPLY_TIMEOUT_S ends the loop; the verdicts
    not answered then count as missing rows.
    """
    fd = child.proc.stdin.fileno()
    replies: list[bytes] = []
    first = last = 0.0
    for line in lines:
        sent = time.perf_counter()
        try:
            os.write(fd, line)
        except BrokenPipeError:
            break
        reply = child.reader.readline(min(REPLY_TIMEOUT_S, deadline - sent))
        arrived = time.perf_counter()
        if not reply:
            break
        if replies:
            latencies.append(arrived - sent)
        else:
            first = arrived
        replies.append(reply)
        last = arrived
    return replies, first, last


def child_env(root: str) -> dict:
    """The environment of every child: this checkout's src, one thread.

    Interpreter settings such as PYTHONUNBUFFERED are dropped so that output
    buffering and bytecode caching behave as in a plain deployment: a lost
    per-line flush must show up as a missing reply.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("PYTHON") and key != "DRIFTRISK_JOBS"
    }
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "driftrisk", "cli.py")) or not os.path.isfile(
        os.path.join(root, "configs", "case_study.json")
    ):
        print("perfbench: run from the root of a driftrisk checkout "
              "(src/driftrisk and configs/case_study.json not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(name not in workloads.NAMES for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench-work")
    work = os.path.join(base, str(os.getpid()))
    results = {}
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            deadline = time.perf_counter() + BUDGET_S
            workload = workloads.build(
                name, args.seed, root, work, "smoke" if args.smoke else "full"
            )
            bench = Bench(workload, root, work, deadline)
            results[name] = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
