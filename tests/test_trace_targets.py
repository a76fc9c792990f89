"""Every function the benchmark tracer wraps still exists.

`perfbench/tracing.py` rebinds `multitri.<module>.<name>` for each pair it
lists; a pair that no longer resolves would make its traced figures read
0 instead of failing.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module,name", tracing.SPANNED + tracing.COUNTED,
                         ids=lambda x: x)
def test_traced_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"multitri.{module}"), name, None))


def test_call_counted_names_are_spanned():
    spanned = {f"{module}.{name}" for module, name in tracing.SPANNED}
    assert set(tracing.CALL_COUNTED) <= spanned
