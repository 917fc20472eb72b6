"""The benchmark's `--trace 1` wraps package functions where callers look them up.

It sets module attributes by name, so a refactor that renames or stops
importing one of them would break tracing without failing anything else.
"""

import importlib.util
from pathlib import Path

from slabgreen import cli, config, identity

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_trace_patch_points_exist():
    spec = importlib.util.spec_from_file_location("slabgreen_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = [(module, attr) for module, attr, _ in tracing.SPANS]
    points += [(identity, "green"), (identity, "integrate_adaptive")]
    missing = [f"{module.__name__}.{attr}" for module, attr in points if not callable(getattr(module, attr, None))]
    assert missing == []


def test_main_reads_the_config_through_cli_parse_config(tmp_path, monkeypatch):
    """tracing.py times cli.parse_config; a call that bypasses that name would read 0 s."""
    calls = []

    def traced(path):
        calls.append(path)
        return config.parse_config(path)

    monkeypatch.setattr(cli, "parse_config", traced)
    path = tmp_path / "config.json"
    path.write_text('{"omega": 1.0, "separations": [[1.0, 2.0, 3.0]]}')
    assert cli.main(["tensor3d", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == [str(path)]
