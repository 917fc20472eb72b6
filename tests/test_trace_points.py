"""The benchmark's `--trace 1` wraps package functions where callers look them up.

It sets module attributes by name, so a refactor that renames or stops
importing one of them would break tracing without failing anything else.
"""

import importlib.util
from pathlib import Path

from slabgreen import identity

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_trace_patch_points_exist():
    spec = importlib.util.spec_from_file_location("slabgreen_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = [(module, attr) for module, attr, _ in tracing.SPANS]
    points += [(identity, "green"), (identity, "integrate_adaptive")]
    missing = [f"{module.__name__}.{attr}" for module, attr in points if not callable(getattr(module, attr, None))]
    assert missing == []
