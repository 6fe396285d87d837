"""Every binding that perfbench/spans.py wraps by name still exists.

The tracer looks each name up with getattr when ``--trace 1`` installs its
wrappers, so a renamed or deleted function would only fail there.  This
test fails first.  spans.py is executed from its source, read only: no
bytecode is written next to it.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
spans = runpy.run_path(str(SPANS))


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, _ in spans["FUNCTIONS"]]
)
def test_traced_function_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module,cls,method", [(module, cls, method) for module, cls, method, _ in spans["METHODS"]]
)
def test_traced_method_is_bound(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))
