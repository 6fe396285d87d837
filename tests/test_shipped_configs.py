"""The example configs in configs/ load and run.

The other tests build their own documents, so a schema change could break
the shipped examples unnoticed.  Every file must load, simulate in both
formats and, when it has a sweep section, run the three sweep kinds that
take well under a second on it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from driftrisk.cli import EXIT_OK, main
from driftrisk.config import load_run_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_there_are_shipped_configs():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_shipped_config_runs(path, tmp_path):
    config = load_run_config(path)
    for output_format in ("csv", "structured"):
        out = tmp_path / f"trace.{output_format}"
        argv = ["simulate", "--config", str(path), "--format", output_format,
                "--output", str(out)]
        assert main(argv) == EXIT_OK
        assert out.stat().st_size > 0
    if config.sweep is not None:
        for kind in ("cba", "risk-curve", "rate-error"):
            out = tmp_path / kind
            argv = ["sweep", kind, "--config", str(path), "--jobs", "1", "--output", str(out)]
            assert main(argv) == EXIT_OK
            assert (out / "report.csv").exists() and (out / "metadata.json").exists()
