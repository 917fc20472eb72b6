"""The benchmark's `--trace 1` wraps package functions where callers look them up.

It sets module attributes by name, so a refactor that renames or stops
importing one of them would break tracing without failing anything else.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from slabgreen import cli, config, identity, writer

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


@pytest.mark.parametrize(
    "argv, passes",
    [(["coefficients"], 2), (["decay-scan"], 1), (["decay-scan", "--oracle"], 1), (["limit-study"], 1), (["tensor3d"], 2),
     (["verify-identity"], 3)],
)
def test_sweeps_call_the_traced_names_once_per_block(tmp_path, monkeypatch, argv, passes):
    """tracing.py times these cli names per call; a sweep's block calls that bypass them would read 0 s.

    coefficients and tensor3d check every block before they write one, so they
    make each block's call twice. verify-identity makes its contexts for each
    block of omega rows three times: to check them, to check the sources and
    to write; it reports once per block of (omega, x_a) rows and integrates
    each omega row once.
    """
    calls = {"make_context": 0, "identity_report": 0, "decay_report": 0, "limit_study": 0, "green_tensor_vacuum": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    integrated = []  # the integrand's rows, per integral

    def adaptive(f, *args, _original=identity.integrate_adaptive, **kwargs):
        rows = set()

        def integrand(x, owners):
            rows.update(owners.tolist())
            return f(x, owners)

        try:
            return _original(integrand, *args, **kwargs)
        finally:
            integrated.append(rows)

    monkeypatch.setattr(identity, "integrate_adaptive", adaptive)
    monkeypatch.setattr(writer, "_SWEEP_ROWS", 4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "slab": {"half_length": 1.0}, "dielectric": {"type": "constant", "epsilon": [3.75, 2.0]},
        "omega": 1.0 if argv[0] in ("limit-study", "tensor3d") else {"start": 1.0, "stop": 2.0, "count": 10},
        # verify-identity: 10 omegas x 3 x 3 sources, one (omega, x_a) row of 3 rows per block
        "source": {"start": 1.5, "stop": 2.5, "count": 3} if argv[0] == "verify-identity" else 2.0,
        "limit_path": [[1.0, 0.5 ** i] for i in range(10)], "separations": [[1.0, i, 0.0] for i in range(10)],
    }))
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    blocks = 3  # 10 rows in blocks of 4
    expected = {
        "coefficients": {"make_context": passes * blocks},
        "verify-identity": {"make_context": passes * blocks, "identity_report": 10 * 3},
        "decay-scan": {"make_context": blocks, "decay_report": blocks},
        "limit-study": {"limit_study": blocks},
        "tensor3d": {"green_tensor_vacuum": passes * blocks},
    }[argv[0]]
    assert calls == {name: expected.get(name, 0) for name in calls}
    if argv[0] == "verify-identity":  # one integral per block of 4 omega rows, each row integrated once
        assert integrated == [set(range(4)), set(range(4)), set(range(2))]
    elif argv == ["decay-scan", "--oracle"]:
        assert integrated == [set(range(4)), set(range(4)), set(range(2))]
    else:
        assert integrated == []
