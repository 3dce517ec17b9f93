"""The benchmark's trace wraps library functions by name; each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_span_targets_exist():
    # loaded by path and never installed, so no library function is wrapped
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, names in tracing.SPANS.items():
        home = tracing.MODULES[span.split(".")[0]]
        for name in names:
            assert callable(getattr(home, name, None)), (span, name)
