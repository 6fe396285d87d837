"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py SPEC.json

SPEC is a JSON object with ``mode``, ``configs``, ``commands``, ``trace``,
``spans`` and ``result``.  Modes:

* ``setup``: import driftrisk, load every config, print ``ready``, exit.
* ``batch``: as ``setup``, then run each command through
  ``driftrisk.cli.main`` and time it.
* ``live``: run the single command on this process's stdin and stdout and
  exit with its code; set-up ends at the first reply the caller reads.

``result`` receives each command's exit code and seconds, the CPU time
spent inside ``cli.main`` and the peak resident set.  With ``trace`` set,
spans go to ``spans``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def _peak_rss_kb() -> int:
    """Peak resident set of this program image.

    ``ru_maxrss`` would also count the parent's memory that the child
    shared between fork and exec, so read the image's own high-water mark.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    from driftrisk.cli import main as cli_main
    from driftrisk.config import load_run_config

    if spec["mode"] != "live":
        for path in spec["configs"]:
            load_run_config(path)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    if spec["mode"] == "setup":
        return 0

    run = cli_main
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        run = tracer.wrap(spans.ROOT, cli_main)

    commands = []
    user, system = _cpu()
    for argv in spec["commands"]:
        start = time.perf_counter()
        rc = run(argv)
        commands.append({"rc": rc, "seconds": time.perf_counter() - start})
    end_user, end_system = _cpu()
    if tracer is not None:
        tracer.save(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(
            {
                "commands": commands,
                "cpu": [end_user - user, end_system - system],
                "peak_rss_kb": _peak_rss_kb(),
            },
            handle,
        )
    return commands[-1]["rc"] if spec["mode"] == "live" else 0


if __name__ == "__main__":
    sys.exit(main())
