import ast
import cmath
import contextlib
import csv
import gc
import importlib.util
import io
import json
import math
import os
import platform
import re
import struct
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slabgreen import Constant, DomainError, Drude, SlabGeometry, boundary_term_f, cli, green, identity, make_context, slab_green, writer
from slabgreen.config import (
    _KEYS,
    _MAX_COUNT,
    _complex_list,
    _number,
    _parse_dielectric,
    _positive,
    _scalar_or_sweep,
    _separations,
    _string,
    parse_config,
)
from slabgreen.errors import row_errors

from processes import ROOT, Child
from regimes import absorbing_index, log_uniform, source_offset

LOSSY_EPS = [3.75, 2.0]  # (2 + 0.5i)^2


def config(**overrides):
    """This base config with `overrides` on top; a key given as None is left out."""
    base = {"slab": {"half_length": 1.0}, "dielectric": {"type": "constant", "epsilon": LOSSY_EPS}, "omega": 1.0,
            "source": 2.0}
    return {key: value for key, value in {**base, **overrides}.items() if value is not None}


def write_config(tmp_path, name="config.json", **overrides):
    """The path of config(**overrides), written as JSON."""
    path = tmp_path / name
    path.write_text(json.dumps(config(**overrides)))
    return str(path)


def cli_child(command, *flags, output="pipe", **overrides):
    """A child running `python -m slabgreen.cli command --config config.json *flags`, as users and the benchmark do,
    on config(**overrides)."""
    return Child("-m", "slabgreen.cli", command, "--config", "config.json", *flags, output=output,
                 files={"config.json": config(**overrides)})


def run_to_rows(tmp_path, argv):
    out = tmp_path / "out.csv"
    rc = cli.main(argv + ["--out", str(out)])
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return rc, rows


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["coefficients", "--config", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"omega": 1.0, "\xff": 2}', "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000 + b"]" * 100000, "invalid JSON: maximum recursion depth exceeded"),
        (b'{"omega": 1, "omega": 2, "separations": [[1, 2, 3]]}', "omega: duplicate key"),
        (b'{"dielectric": {"type": "constant", "epsilon": 2.0, "epsilon": 3.0}}', "epsilon: duplicate key"),
    ],
    ids=["not_utf8", "too_deep", "duplicate_key", "duplicate_nested_key"],
)
def test_unreadable_json_is_a_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert cli.main(["tensor3d", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32-be"])
def test_config_encoding_is_detected(tmp_path, capsys, encoding):
    text = json.dumps({"omega": 1.0, "separations": [[1.0, 2.0, 3.0]]})
    (tmp_path / "utf8.json").write_text(text, encoding="utf-8")
    (tmp_path / "other.json").write_text(text, encoding=encoding)
    outputs = []
    for name in ("utf8.json", "other.json"):
        assert cli.main(["tensor3d", "--config", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_coefficients_vacuum(tmp_path):
    path = write_config(tmp_path, dielectric={"type": "constant", "epsilon": [1.0, 0.0]})
    rc, rows = run_to_rows(tmp_path, ["coefficients", "--config", path])
    assert rc == 0
    assert len(rows) == 1
    assert float(rows[0]["abs_a_sq"]) == pytest.approx(1.0, abs=1e-14)
    assert float(rows[0]["d_re"]) == 0.0
    assert float(rows[0]["d_im"]) == 0.0


def test_coefficients_lossless_unitarity_column(tmp_path):
    path = write_config(
        tmp_path,
        dielectric={"type": "constant", "epsilon": [4.0, 0.0]},
        omega={"start": 0.5, "stop": 3.0, "count": 6},
    )
    rc, rows = run_to_rows(tmp_path, ["coefficients", "--config", path])
    assert rc == 0
    assert len(rows) == 6
    for row in rows:
        assert abs(float(row["unitarity_defect"])) <= 1e-12


def test_coefficients_lossy_defect_positive(tmp_path):
    path = write_config(tmp_path, dielectric={"type": "drude", "plasma_frequency": 2.0, "damping": 1.0})
    rc, rows = run_to_rows(tmp_path, ["coefficients", "--config", path])
    assert rc == 0
    assert float(rows[0]["unitarity_defect"]) > 0.0


def test_verify_identity_passes(tmp_path):
    path = write_config(tmp_path, source={"start": 1.5, "stop": 3.5, "count": 3})
    rc, rows = run_to_rows(tmp_path, ["verify-identity", "--config", path])
    assert rc == 0
    assert len(rows) == 9
    for row in rows:
        res = complex(float(row["residual_corrected_re"]), float(row["residual_corrected_im"]))
        assert abs(res) <= 1e-8
        assert row["error"] == ""


def test_verify_identity_unreachable_tolerance(tmp_path, capsys):
    path = write_config(tmp_path, source={"start": 1.5, "stop": 2.5, "count": 3})
    rc, rows = run_to_rows(tmp_path, ["verify-identity", "--config", path, "--tol", "1e-30"])
    assert rc == 2
    assert len(rows) == 9
    for row in rows:
        # Every row of the stalled omega shares its one integral's message and estimate.
        assert row["error"] == rows[0]["error"]
        assert row["error"].endswith("after 4096 panels")
        assert row["quadrature_error"] == rows[0]["quadrature_error"]
        assert row["lhs_re"] != ""  # best estimate still reported
        lhs = complex(float(row["lhs_re"]), float(row["lhs_im"]))
        im_g = float(row["im_g"])
        f = complex(float(row["f_re"]), float(row["f_im"]))
        assert complex(float(row["residual_corrected_re"]), float(row["residual_corrected_im"])) == lhs - im_g - f
        assert complex(float(row["residual_uncorrected_re"]), float(row["residual_uncorrected_im"])) == lhs - im_g


def test_verify_identity_nan_residual_is_a_violation(tmp_path, monkeypatch):
    # A NaN residual fails `abs(r) > tol`; it must still exit 2.
    real = cli.identity_report

    def nan_lhs(*args, **kwargs):
        report = real(*args, **kwargs)
        return report._replace(lhs=np.full_like(report.lhs, math.nan))

    monkeypatch.setattr(cli, "identity_report", nan_lhs)
    rc, rows = run_to_rows(tmp_path, ["verify-identity", "--config", write_config(tmp_path)])
    assert rc == 2
    assert [row["error"] for row in rows] == [""]


def test_verify_identity_factorised_grid(tmp_path):
    # One integral per omega: each pair is the x_a = x_b value times e^{ik(x_a - x_b)}.
    path = write_config(
        tmp_path,
        omega={"start": 1.0, "stop": 3.0, "count": 2},
        source={"start": 1.3, "stop": 2.9, "count": 3},
    )
    rc, rows = run_to_rows(tmp_path, ["verify-identity", "--config", path])
    assert rc == 0
    assert len(rows) == 18
    for omega in {row["omega"] for row in rows}:
        mine = [row for row in rows if row["omega"] == omega]
        diagonal = [row for row in mine if row["x_a"] == row["x_b"]]
        base = complex(float(diagonal[0]["lhs_re"]), float(diagonal[0]["lhs_im"]))
        for row in mine:
            x_a, x_b = float(row["x_a"]), float(row["x_b"])
            lhs = complex(float(row["lhs_re"]), float(row["lhs_im"]))
            assert abs(lhs - cmath.exp(1j * float(omega) * (x_a - x_b)) * base) <= 1e-15 * abs(base)
            assert row["quadrature_error"] == mine[0]["quadrature_error"]


def test_verify_identity_opaque_slab(tmp_path):
    # eps = -8.99 + 0.6i gives n = 0.1 + 3i; k Im(n) l = 900 is far past the
    # range where exp(k Im(n) l) is representable.
    path = write_config(
        tmp_path,
        slab={"half_length": 3.0},
        dielectric={"type": "constant", "epsilon": [-8.99, 0.6]},
        omega=100.0,
        source=4.0,
    )
    rc, rows = run_to_rows(tmp_path, ["verify-identity", "--config", path])
    assert rc == 0
    for row in rows:
        assert all(math.isfinite(float(row[key])) for key in row if key != "error")
        res = complex(float(row["residual_corrected_re"]), float(row["residual_corrected_im"]))
        assert abs(res) <= 1e-8


def test_verify_identity_extreme_frequency(tmp_path):
    # k = 1e300: a seed of one panel per interior wavelength would be
    # 7e299 panels; it is capped at half the panel budget.
    path = write_config(tmp_path, omega=1e300)
    rc, rows = run_to_rows(tmp_path, ["verify-identity", "--config", path])
    assert rc == 0
    assert all(math.isfinite(float(rows[0][key])) for key in rows[0] if key != "error")


# Frequency sweeps, one per dielectric kind, that mix good rows with failing
# ones: (dielectric, sweep, error message by row). The messages are those
# that evaluating each row on its own gives.
ROW_ERRORS = {
    "tabulated": (
        {"type": "tabulated", "samples": [[0.5, 2.0, 0.1], [1.0, 2.5, 0.2], [2.25, 3.0, 0.3]]},
        {"start": 0.25, "stop": 2.5, "count": 10},
        {0: "frequency 0.25 outside tabulated range [0.5, 2.25]; no extrapolation",
         9: "frequency 2.5 outside tabulated range [0.5, 2.25]; no extrapolation"},
    ),
    "drude_lorentz": (
        {"type": "drude_lorentz", "terms": [[4.0, 1.0, 0.0], [1.0, 0.0, 0.1]]},
        {"start": 0.5, "stop": 1.5, "count": 5},
        {2: "evaluation exactly at an undamped resonance"},
    ),
    "drude": (
        {"type": "drude", "plasma_frequency": 2.0, "damping": 0.0},
        {"start": 1.0, "stop": 3.0, "count": 5},
        {2: "degenerate medium: eps = 0 has no refractive index"},
    ),
    "constant": (
        {"type": "constant", "epsilon": [1e308, 1e308]},
        {"start": -1.0, "stop": 1.0, "count": 3},
        {0: "frequency must be positive", 1: "frequency must be positive",
         2: "slab amplitudes A, B, C, D and Y are not all finite"},
    ),
}
TABULATED = {"dielectric": ROW_ERRORS["tabulated"][0], "omega": ROW_ERRORS["tabulated"][1], "source": 1.5}

DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")


@pytest.mark.parametrize(
    "code, err",
    [
        pytest.param(0, b"coefficients: 1 rows, ", id="ok", marks=pytest.mark.child(cli_child("coefficients"))),
        pytest.param(1, b"error: wavelength: unknown key\n", id="config",
                     marks=pytest.mark.child(cli_child("coefficients", wavelength=3.0))),
        pytest.param(2, b"decay-scan (frequency): 10 rows, 2 failed\n", id="tolerance",
                     marks=pytest.mark.child(cli_child("decay-scan", **TABULATED))),
        pytest.param(3, b"error: [Errno 2] No such file or directory", id="out_file",
                     marks=pytest.mark.child(cli_child("coefficients", "--out", "missing/out.csv"))),
        pytest.param(3, b"error: [Errno 28] No space left on device\n", id="stdout_full",
                     marks=[DEV_FULL, pytest.mark.child(cli_child("coefficients", output="full"))]),
        pytest.param(3, b"error: [Errno 28] No space left on device\n", id="stdout_full_30000_rows", marks=[
            DEV_FULL,
            pytest.mark.child(cli_child("coefficients", output="full",
                                        omega={"start": 0.1, "stop": 5.0, "count": 30000})),
        ]),
        pytest.param(3, b"error: standard output is closed; give --out\n", id="stdout_closed",
                     marks=pytest.mark.child(cli_child("coefficients", output="closed"))),
    ],
)
def test_module_exit_codes(child, code, err):
    assert child.returncode == code
    assert child.stderr.startswith(err)
    assert b"Traceback" not in child.stderr
    assert b"Exception ignored" not in child.stderr
    if code in (1, 3):  # one error line, no summary
        assert child.stderr.count(b"\n") == 1
    if code == 0:
        assert child.stdout.startswith(b"omega,k,")


def test_main_leaves_the_heap_unfrozen(tmp_path, capsys):
    assert cli.main(["coefficients", "--config", write_config(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0


def run_main(tmp_path, capsys, argv):
    """cli.main's exit code, stderr and CSV bytes for `argv`, writing to out.csv."""
    out = tmp_path / "out.csv"
    code = cli.main([*argv, "--out", str(out)])
    return code, capsys.readouterr().err, out.read_bytes()


@pytest.mark.parametrize(
    "command, overrides",
    [("verify-identity", {"source": {"start": 1.5, "stop": 2.5, "count": 2}}),
     ("limit-study", {"limit_path": [[1.0, 0.1], [1.0, 1e-3], 2.0]})],
    ids=["verify_identity", "limit_study"],
)
def test_malloc_trim_changes_no_output(tmp_path, capsys, monkeypatch, command, overrides):
    """Where the C library has no malloc_trim, main writes the same bytes and messages, with the same status."""
    if platform.libc_ver()[0] == "glibc":
        assert cli._malloc_trim is not None
    argv = [command, "--config", write_config(tmp_path, **overrides)]
    trimmed = run_main(tmp_path, capsys, argv)
    monkeypatch.setattr(cli, "_malloc_trim", None)
    assert run_main(tmp_path, capsys, argv) == trimmed


def test_malloc_trim_runs_once_between_parse_and_compute(tmp_path, capsys, monkeypatch):
    events = []

    def recorded(name, func):
        def call(*args, **kwargs):
            events.append(name)
            return func(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "_malloc_trim", lambda pad: events.append(f"trim({pad})"))
    monkeypatch.setattr(cli, "parse_config", recorded("parse_config", cli.parse_config))
    monkeypatch.setattr(cli, "make_context", recorded("make_context", cli.make_context))
    path = write_config(tmp_path, source={"start": 1.5, "stop": 2.5, "count": 2})
    assert cli.main(["verify-identity", "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
    assert events[:3] == ["parse_config", "trim(0)", "make_context"]
    assert [event for event in events if event.startswith("trim")] == ["trim(0)"]
    # A configuration error exits 1 before the trim.
    for argv in (["--config", write_config(tmp_path, "bad.json", omega="x")], ["--config", path, "--tol", "-1"]):
        events.clear()
        assert cli.main(["verify-identity", *argv]) == 1
        assert events == ["parse_config"]


# Runs slabgreen.cli as __main__ with an exit hook that reports whether the heap is frozen.
FREEZE_PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("slabgreen.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.child(Child("-c", FREEZE_PROBE, "decay-scan", "--config", "config.json",
                         files={"config.json": config(**TABULATED)}))
def test_process_entry_freezes_after_main(child):
    assert child.returncode == 2  # main()'s status
    assert child.stderr == b"decay-scan (frequency): 10 rows, 2 failed\nfrozen at exit: True\n"


# Runs the argument lists of its JSON argument through cli.main in a fresh
# process and prints, as JSON, their exit codes and the resident kB of each
# BLAS library mapping before and after them (or null without /proc/self/smaps).
BLAS_PROBE = """\
import json, os, sys
from slabgreen import cli

def blas_rss():
    rss, name = {}, ""
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            fields = line.split()
            if not fields[0].endswith(":"):  # a mapping's header: range, perms, offset, device, inode, path
                name = " ".join(fields[5:])
            elif fields[0] == "Rss:" and "blas" in name:
                rss[name] = rss.get(name, 0) + int(fields[1])
    return rss

if not os.path.exists("/proc/self/smaps"):
    print("null")
    sys.exit()
before = blas_rss()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, before, blas_rss()]))
"""


@pytest.mark.child(Child("-c", BLAS_PROBE, json.dumps([
    ["verify-identity", "--config", "config.json", "--out", "out.csv"],
    ["decay-scan", "--oracle", "--config", "frequency.json", "--out", "out.csv"],
    ["tensor3d", "--config", "one.json", "--out", "out.csv"]]), files={
        "config.json": config(omega={"start": 1.0, "stop": 3.0, "count": 3},
                              source={"start": 1.5, "stop": 2.5, "count": 3}, separations=[[1.0, 0.5, 0.25]]),
        "frequency.json": config(source=1.5, omega={"start": 0.5, "stop": 2.0, "count": 20}),
        "one.json": config(separations=[[1.0, 0.5, 0.25]])}))
def test_subcommands_page_in_no_blas(child):
    """numpy's BLAS stays untouched: its library pages would add to every process's peak RSS.

    The quadrature sums its panels and vacuum_decay_3d contracts the dipole elementwise, not by `@`.
    """
    assert child.returncode == 0, child.stderr
    probe = json.loads(child.stdout)
    if probe is None:
        pytest.skip("needs /proc/self/smaps")
    codes, before, after = probe
    assert codes == [0, 0, 0]
    if not before:
        pytest.skip("numpy maps no BLAS library here")
    assert after == before


# Runs each argument list of its JSON argument through a freshly imported
# slabgreen.cli and prints, as JSON, each run's exit code, the slabgreen
# modules loaded once it is done and those loaded, in load order, whenever
# cli.parse_config read a config, then which of argparse, getopt and gettext
# any run loaded. The package's modules are dropped from sys.modules before
# each import, so each run starts as a process does.
IMPORT_PROBE = """\
import json, sys

def loaded():
    return [name for name in sys.modules if name.partition(".")[0] == "slabgreen"]

runs = []
for argv in json.loads(sys.argv[1]):
    for name in loaded():
        del sys.modules[name]
    from slabgreen import cli
    read, parse_config = [], cli.parse_config
    cli.parse_config = lambda path: read.append(loaded()) or parse_config(path)
    runs.append([cli.main(argv), sorted(loaded()), read])
print(json.dumps([runs, [name for name in ("argparse", "getopt", "gettext") if name in sys.modules]]))
"""


IMPORT_RUNS = [["tensor3d", "--config", "tensor.json"], ["coefficients", "--config", "config.json"],
               ["verify-identity", "--config", "config.json"], ["decay-scan", "--config", "config.json"],
               ["decay-scan", "--oracle", "--config", "config.json"],
               ["decay-scan", "--orac", "--config", "config.json"], ["limit-study", "--config", "limit.json"],
               ["tensor3d", "--oracle", "--config", "tensor.json"],
               ["coefficients", "--oracle", "--config", "config.json"],
               ["limit-study", "--oracle", "--config", "limit.json"]]


@pytest.mark.child(Child(
    "-c", IMPORT_PROBE, json.dumps([[*argv, "--out", "out.csv"] for argv in IMPORT_RUNS]),
    files={"config.json": config(source={"start": 1.5, "stop": 2.5, "count": 2}),
           "tensor.json": {"omega": 1.0, "separations": [[1.0, 0.5, 0.25]]}, "limit.json": config()}))
def test_each_subcommand_imports_only_the_modules_it_runs(child):
    """A process compiles each module it imports from source, so a subcommand imports only what it runs.

    Each one is loaded before the config is read: a module compiled mid-run
    leaves its compile peak on top of the run's data (see README, "What sets
    peak RSS"). Only verify-identity and decay-scan's --oracle integrate, so
    only they load identity; the other subcommands accept --oracle and load
    nothing for it.
    """
    assert child.returncode == 0, child.stderr
    base = ["cli", "config", "errors", "writer"]
    slab = [*base, "dielectric", "slab_green"]
    expected = [
        [*base, "vacuum3d"],  # tensor3d
        slab,  # coefficients
        [*slab, "identity"],  # verify-identity
        [*slab, "emission", "vacuum3d"],  # decay-scan
        [*slab, "emission", "identity", "vacuum3d"],  # decay-scan --oracle
        [*slab, "emission", "identity", "vacuum3d"],  # decay-scan --orac, loaded after the parse
        [*slab, "emission", "vacuum3d"],  # limit-study
        [*base, "vacuum3d"],  # tensor3d --oracle
        slab,  # coefficients --oracle
        [*slab, "emission", "vacuum3d"],  # limit-study --oracle
    ]
    runs, parsers = json.loads(child.stdout)
    names = [["slabgreen", *sorted(f"slabgreen.{module}" for module in modules)] for modules in expected]
    assert [[code, modules, [sorted(order) for order in read]] for code, modules, read in runs] == [
        [0, modules, [modules]] for modules in names]
    # --oracle loads identity ahead of the subcommand's modules, --orac only after the parse
    (oracle,), (abbreviated,) = runs[4][2], runs[5][2]
    assert oracle.index("slabgreen.identity") < oracle.index("slabgreen.emission")
    assert abbreviated.index("slabgreen.identity") > abbreviated.index("slabgreen.emission")
    # argparse's import and parser cost a process about 5 ms and 0.4 MB of peak RSS, getopt's gettext about 0.65 ms
    assert parsers == []


def test_the_csv_writer_imports_no_module_of_the_package():
    """writer.py, at module level and inside its functions, imports nothing of slabgreen: only cli knows the subcommands."""
    tree = ast.parse(Path(writer.__file__).read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert "import numpy as np" in imports  # the walk sees writer's own imports
    assert [text for text in imports if text.startswith("from .") or re.search(r"\bslabgreen\b", text)] == []


# Each cli name that benchmarks/tracing.py wraps, by the module that defines it, and each (module, name, defining
# module) that the patch probe looks up: those and emission's lhs_quadrature.
TRACED_HOMES = {"parse_config": "config", "make_context": "slab_green", "identity_report": "identity",
                "decay_report": "emission", "limit_study": "emission", "green_tensor_vacuum": "vacuum3d"}
TRACED_POINTS = [*(["cli", name, home] for name, home in TRACED_HOMES.items()),
                 ["emission", "lhs_quadrature", "identity"]]

# In a process that has imported slabgreen.cli alone, looks up each (module,
# name, defining module) of its first JSON argument, as tracing does; then wraps
# each name with setattr in its module and runs the argument lists of its second
# JSON argument through cli.main. Prints, as JSON, the module.name of each that
# resolved to its defining module's object, the exit codes and the calls of each
# wrapper.
PATCH_PROBE = """\
import importlib, json, sys
from slabgreen import cli

points, runs = map(json.loads, sys.argv[1:])
module = lambda name: importlib.import_module(f"slabgreen.{name}")
resolved = [f"{where}.{name}" for where, name, home in points if getattr(module(where), name) is getattr(module(home), name)]
calls = {f"{where}.{name}": 0 for where, name, _ in points}

def wrapped(key, original):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)
    return wrapper

for where, name, _ in points:
    setattr(module(where), name, wrapped(f"{where}.{name}", getattr(module(where), name)))
print(json.dumps([resolved, [cli.main(argv) for argv in runs], calls]))
"""


PATCH_RUNS = [["verify-identity", "--config", "frequency.json"], ["decay-scan", "--config", "frequency.json"],
              ["decay-scan", "--oracle", "--config", "frequency.json"], ["limit-study", "--config", "config.json"],
              ["tensor3d", "--config", "config.json"]]


@pytest.mark.child(Child(
    "-c", PATCH_PROBE, json.dumps(TRACED_POINTS), json.dumps([[*argv, "--out", "out.csv"] for argv in PATCH_RUNS]),
    files={"config.json": config(separations=[[1.0, 0.5, 0.25]]),
           "frequency.json": config(omega={"start": 1.0, "stop": 2.0, "count": 2})}))
def test_traced_names_resolve_and_stay_patched_in_a_fresh_process(child):
    """tracing.py looks up and wraps cli's names, and emission's lhs_quadrature, before main() has run: each must
    resolve, and main() must call the wrapper. In one test process an earlier main() has bound them all, so only a
    fresh process shows a name that does not resolve.
    """
    spec = importlib.util.spec_from_file_location("slabgreen_bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert sorted(attr for module, attr, _ in tracing.SPANS if module is cli) == sorted(TRACED_HOMES)
    assert child.returncode == 0, child.stderr
    resolved, codes, calls = json.loads(child.stdout)
    assert resolved == [f"{where}.{name}" for where, name, _ in TRACED_POINTS]
    assert codes == [0, 0, 0, 0, 0]
    assert [name for name, count in calls.items() if not count] == []


def test_installed_command_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"slabgreen": "slabgreen.cli:run"}


THREE_BLOCKS = {"start": 0.1, "stop": 5.0, "count": 2 * writer._BLOCK_ROWS + 100}


@pytest.mark.child(cli_child("coefficients", "--out", "out.csv", omega=THREE_BLOCKS),
                   cli_child("coefficients", omega=THREE_BLOCKS))
def test_module_stdout_matches_out_file(child):
    to_file, to_stdout = child
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_stdout.stdout == (to_file.cwd / "out.csv").read_bytes()
    assert to_stdout.stdout.count(b"\n") == THREE_BLOCKS["count"] + 1


@pytest.mark.parametrize(
    "summary",
    [
        pytest.param(b"10 rows, 2 failed\n", id="tabulated",
                     marks=pytest.mark.child(cli_child("decay-scan", **TABULATED))),
        pytest.param(b"3 rows, 3 failed\n", id="non_finite_oracle", marks=pytest.mark.child(cli_child(
            "decay-scan", "--oracle", dielectric=ROW_ERRORS["constant"][0], omega=ROW_ERRORS["constant"][1],
            source=1.5))),
        pytest.param(b"3 rows, 3 failed\n", id="phase_overflow_oracle", marks=pytest.mark.child(cli_child(
            "decay-scan", "--oracle", slab={"half_length": 1e200}, omega={"start": 1e199, "stop": 1e200, "count": 3},
            source=2e200))),
    ],
)
def test_module_failing_rows_write_no_warnings(child, summary):
    assert child.returncode == 2
    assert b"Traceback" not in child.stderr
    assert b"RuntimeWarning" not in child.stderr
    assert child.stderr.endswith(summary)


def test_row_template_matches_fmt(tmp_path):
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308, 1e-310, 0.1, 1.0 / 3.0,
              1.7976931348623157e308, 123456789.0, -2.5]
    out = tmp_path / "out.csv"
    errors = cli.row_errors(3)  # rows 0 and 1 are good: empty error cells
    errors[2] = "row failed, for a reason"
    columns = [("a", column) for column in np.array([values, values[::-1], values]).T]
    writer._write_csv(str(out), [(columns, errors)], kept=5)
    lines = out.read_text().splitlines()
    text = [format(float(v), ".17g") for v in values]
    assert lines[1] == ",".join(text) + ","
    assert lines[2] == ",".join(text[::-1]) + ","
    # A failed row keeps its first `kept` cells, blanks the rest and ends in its comma-free message.
    assert lines[3] == ",".join(text[:5] + [""] * (len(values) - 5) + ["row failed; for a reason"])


def test_broadcast_column_writes_like_a_copied_column(tmp_path):
    rows = writer._BLOCK_ROWS + 3
    x = np.linspace(0.1, 7.0, rows)
    y = np.sin(x) / 3.0
    y[5] = math.nan
    pairs = [("x", x), ("c", np.float64(1.0) / 3.0), ("y", y), ("d", np.array([-2.5e-310]))]
    header, columns = [name for name, _ in pairs], writer._columns(pairs)
    assert [column.strides[0] for column in columns] == [8, 0, 8, 0]
    errors = cli.row_errors(rows)
    # Failed rows at the first row, on a block boundary and at the last row; each keeps x and c.
    for i in (0, writer._BLOCK_ROWS, rows - 1):
        errors[i] = f"row {i} failed"
    out = {}
    copied = [(name, np.array(column)) for name, column in zip(header, columns)]
    for name, cols in (("broadcast", pairs), ("copied", copied)):
        out[name] = tmp_path / f"{name}.csv"
        writer._write_csv(str(out[name]), [(cols, errors)], kept=2)
    assert out["broadcast"].read_bytes() == out["copied"].read_bytes()
    lines = out["broadcast"].read_text().splitlines()
    assert len(lines) == rows + 1
    text = [format(float(value), ".17g") for value in (x[1], 1.0 / 3.0, y[1], -2.5e-310, x[writer._BLOCK_ROWS])]
    assert lines[2] == ",".join(text[:4]) + ","
    assert lines[1 + writer._BLOCK_ROWS] == f"{text[4]},{text[1]},,,row {writer._BLOCK_ROWS} failed"


def test_writer_makes_no_full_table_copy(tmp_path, monkeypatch):
    # Small blocks keep the test fast; at 16 rows the writer's fixed ~50 kB would exceed the bound.
    monkeypatch.setattr(writer, "_BLOCK_ROWS", 64)
    rows = 64 * writer._BLOCK_ROWS
    # 17-digit values: the longest text per number.
    arrays = list(np.random.default_rng(3).normal(size=(17, rows)))
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        writer._write_csv(str(out), [([(f"c{j}", array) for j, array in enumerate(arrays)], None)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * rows * 17 * 8
    assert out.read_text().count("\n") == rows + 1


# 28-row sweeps whose failed rows sit on, and on both sides of, the
# boundaries of 7-row blocks: sources at 0..7 lie inside the slab or on its
# face (rows 0-7), half lengths 15..28 reach past the source (rows 14-27),
# and 7, 8 and 15 are undamped resonances of the medium (rows 6, 7 and 14).
RESONANT = {"type": "drude_lorentz", "terms": [[1.0, 0.0, 0.5], [1.0, 7.0, 0.0], [1.0, 8.0, 0.0], [1.0, 15.0, 0.0]]}
# eps = 0 has no refractive index (rows 6, 7 and 21-27), so the last good row,
# 20, lies in an earlier block than the last row.
LIMIT_FAILED = {6, 7, *range(21, 28)}
LIMIT_PATH = [[0.0, 0.0] if i in LIMIT_FAILED else [1.0, 10.0 ** (-1 - 0.25 * i)] for i in range(28)]
BLOCK_SWEEPS = {
    "position": ({"slab": {"half_length": 7.5}, "omega": 0.3, "source": {"start": 0.0, "stop": 27.0, "count": 28}},
                 set(range(8))),
    "thickness": ({"slab": {"half_length": {"start": 1.0, "stop": 28.0, "count": 28}}, "omega": 0.3, "source": 14.5},
                  set(range(14, 28))),
    "frequency": ({"dielectric": RESONANT, "omega": {"start": 1.0, "stop": 28.0, "count": 28}}, {6, 7, 14}),
}


@pytest.mark.parametrize(
    "argv, overrides, failed",
    [(["coefficients"], {"dielectric": {"type": "drude_lorentz", "terms": [[1.0, 0.0, 0.5], [1.0, 7.0, 0.1]]},
                         "omega": {"start": 1.0, "stop": 28.0, "count": 28}}, set())]
    + [(["decay-scan", *flags], overrides, failed)
       for overrides, failed in BLOCK_SWEEPS.values() for flags in ([], ["--oracle"])]
    + [(["limit-study"], {"limit_path": LIMIT_PATH}, LIMIT_FAILED),
       (["tensor3d"], {"separations": [[0.5 * i - 7.0, 0.25, 1.0 - 0.125 * i] for i in range(28)]}, set())],
    ids=["coefficients"] + [f"{axis}{suffix}" for axis in BLOCK_SWEEPS for suffix in ("", "_oracle")]
    + ["limit_study", "tensor3d"],
)
def test_output_does_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch, argv, overrides, failed):
    path = write_config(tmp_path, **overrides)
    runs = []
    for rows in (writer._SWEEP_ROWS, 7):
        monkeypatch.setattr(writer, "_SWEEP_ROWS", rows)
        out = tmp_path / f"{rows}.csv"
        code = cli.main([*argv, "--config", path, "--out", str(out)])
        runs.append((code, out.read_bytes(), *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == (2 if failed else 0)
    lines = runs[0][1].decode().splitlines()[1:]
    assert len(lines) == 28
    if failed:  # a good row ends in an empty error cell
        assert {i for i, line in enumerate(lines) if not line.endswith(",")} == failed
    if argv[0] == "limit-study":  # the summary names the last good row
        assert f"at eps = {complex(*LIMIT_PATH[20])}," in runs[0][3]


# verify-identity grids whose blocks of (omega, x_a) rows span omega rows at
# 5 and 7 rows per block. The last two fail: one in its last omega's context
# and, earlier in the grid, in F; the other in F in its last row only.
IDENTITY_GRIDS = {
    "workhorse": ({"omega": {"start": 1.0, "stop": 20.0, "count": 4}, "source": {"start": 1.3, "stop": 2.9, "count": 4}},
                  [], 0, "verify-identity: 64 rows, max |lhs - Im G - F| = "),
    # Every row of a stalled omega keeps that omega's one estimate and message.
    "stalled": ({"omega": {"start": 1.0, "stop": 2.0, "count": 2}, "source": {"start": 1.5, "stop": 2.5, "count": 2}},
                ["--tol", "1e-30"], 2, "verify-identity: 8 rows, max |lhs - Im G - F| = "),
    # omega = 2 lies past the samples, and x_a = 0.5 inside the slab fails F in an earlier row.
    "context": ({"dielectric": {"type": "tabulated", "samples": [[0.5, 2, 0.1], [1.5, 2, 0.1]]},
                 "omega": {"start": 1, "stop": 2, "count": 2}, "source": {"start": 0.5, "stop": 2, "count": 2}},
                [], 1, "error: frequency 2.0 outside tabulated range [0.5, 1.5]; no extrapolation\n"),
    # Only the last row, x_a = x_b = 1e308, has a phase 2 l - x_a - x_b that overflows.
    "f_overflow": ({"source": {"start": 1.5, "stop": 1e308, "count": 5, "spacing": "log"}},
                   [], 1, "error: wave phase is not finite: k times a distance overflows\n"),
}


@pytest.mark.parametrize("grid", IDENTITY_GRIDS)
def test_verify_identity_does_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch, grid):
    overrides, flags, code, err = IDENTITY_GRIDS[grid]
    path = write_config(tmp_path, **overrides)
    runs = []
    for rows in (writer._SWEEP_ROWS, 7, 5):
        monkeypatch.setattr(writer, "_SWEEP_ROWS", rows)
        out = tmp_path / f"{rows}.csv"
        runs.append((cli.main(["verify-identity", "--config", path, "--out", str(out), *flags]),
                     out.read_bytes() if out.exists() else None, *capsys.readouterr()))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == code
    assert runs[0][3].startswith(err)
    assert (runs[0][1] is None) == (code == 1)  # a failing row leaves no file


@pytest.mark.parametrize("rows", ["shipped", 7])
def test_coefficients_checks_every_block_before_writing(tmp_path, capsys, monkeypatch, rows):
    """The only bad row lies in the last block: the run exits 1 with its message and writes no line."""
    if rows != "shipped":
        monkeypatch.setattr(writer, "_SWEEP_ROWS", rows)
    # Every frequency but the last, 2.0, lies in the table's range.
    medium = {"type": "tabulated", "samples": [[0.5, 2.0, 0.1], [1.999999999, 3.0, 0.3]]}
    path = write_config(tmp_path, dielectric=medium, omega={"start": 1.0, "stop": 2.0, "count": 2 * writer._SWEEP_ROWS + 1})
    out = tmp_path / "out.csv"
    err = "error: frequency 2.0 outside tabulated range [0.5, 1.999999999]; no extrapolation\n"
    assert cli.main(["coefficients", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", err)
    assert not out.exists()
    assert cli.main(["coefficients", "--config", path]) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("rows", ["shipped", 7])
def test_tensor3d_checks_every_block_before_writing(tmp_path, capsys, monkeypatch, rows):
    """The only bad separation lies in the last block: the run exits 1 with its message and writes no line.

    The dipole makes the vacuum rate underflow too, and the tensor's error comes first.
    """
    if rows != "shipped":
        monkeypatch.setattr(writer, "_SWEEP_ROWS", rows)
    # k R = 1e-155 is positive, but 1 / (k R)^2 overflows.
    separations = [[1.0, 0.5, -0.25]] * (2 * writer._SWEEP_ROWS) + [[1e-155, 0.0, 0.0]]
    path = write_config(tmp_path, separations=separations, emission={"dipole_moment": 1e-200})
    out = tmp_path / "out.csv"
    err = "error: Green tensor is not finite: k times the separation overflows or underflows\n"
    assert cli.main(["tensor3d", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", err)
    assert not out.exists()
    assert cli.main(["tensor3d", "--config", path]) == 1
    assert capsys.readouterr() == ("", err)


def test_tensor3d_error_does_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch):
    """The first tensor is not finite and the last separation's norm underflows to 0.

    One pass over every separation checks coincidence first, so every block size reports the last one.
    """
    separations = [[1e-155, 0.0, 0.0]] + [[1.0, 0.5, -0.25]] * 10 + [[1e-200, 1e-200, 0.0]]
    path = write_config(tmp_path, separations=separations)
    for rows in (writer._SWEEP_ROWS, 7):
        monkeypatch.setattr(writer, "_SWEEP_ROWS", rows)
        assert cli.main(["tensor3d", "--config", path]) == 1
        assert capsys.readouterr() == ("", "error: tensor real part is singular at coincident points\n")


def traced_peak(run):
    """The peak bytes that tracemalloc sees while run() runs, and what run() returns."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_sweeps_hold_one_block(tmp_path, capsys, monkeypatch):
    """A sweep of many blocks peaks far below the size of its whole table's arrays."""
    count = 4000
    # Small blocks, and a small write buffer, so that the sweep's own arrays would dominate the peak.
    # Tracing makes each of the 4000 rows' floats cost two traced allocations to format, which sets
    # most of this test's time; 256-row blocks of them at least keep the parts few (16, not 63).
    monkeypatch.setattr(writer, "_BLOCK_ROWS", 16)
    ctx = make_context(SlabGeometry(1.0), Drude(2.0, 0.1), np.linspace(0.2, 9.0, count))
    context_bytes = sum(field.nbytes for field in (ctx.k, ctx.n, *ctx.coefficients))
    medium = {"type": "drude", "plasma_frequency": 2.0, "damping": 0.1}
    path = write_config(tmp_path, dielectric=medium, omega={"start": 0.2, "stop": 9.0, "count": count})
    runs = [("coefficients", path, 256, 0.5 * context_bytes), ("decay-scan", path, 256, 0.5 * context_bytes)]
    # verify-identity: 2 omegas x 40 x 40 sources, 80 blocks of one (omega, x_a) row;
    # bound by half its table's 13 float columns.
    grid = write_config(tmp_path, "grid.json", dielectric=medium, omega={"start": 0.5, "stop": 3.0, "count": 2},
                        source={"start": 1.5, "stop": 3.0, "count": 40})
    runs.append(("verify-identity", grid, 64, 0.5 * 3200 * 13 * 8))
    # limit-study and tensor3d read their rows as JSON lists, whose parse peaks
    # above a block's arrays: bound what a run adds to that peak by half its
    # whole table, 1000 x (16 + 5 x 8) bytes of report or 1000 x 9 x 16 of tensors.
    lists = {
        "limit-study": ({"limit_path": [[1.0, 10.0 ** (-1 - 0.007 * i)] for i in range(1000)]}, 56),
        "tensor3d": ({"separations": [[0.5 + 0.004 * i, 0.25, -0.125] for i in range(1000)]}, 144),
    }
    # A first run in the process makes about 0.2 MB of one-time allocations; keep them out of the peak.
    assert cli.main(["coefficients", "--config", write_config(tmp_path, "one_row.json"), "--out", str(tmp_path / "out.csv")]) == 0
    for command, (overrides, row_bytes) in lists.items():
        rows = write_config(tmp_path, f"{command}.json", **overrides)
        runs.append((command, rows, 64, traced_peak(lambda: parse_config(rows))[0] + 0.5 * 1000 * row_bytes))
    for command, config, block, bound in runs:
        monkeypatch.setattr(writer, "_SWEEP_ROWS", block)
        peak, code = traced_peak(lambda: cli.main([command, "--config", config, "--out", str(tmp_path / "out.csv")]))
        assert code == 0
        assert peak < bound, command
    err = capsys.readouterr().err
    assert err.count(f": {count} rows") == 2
    assert err.count(": 1000 rows") == 2
    assert "verify-identity: 3200 rows" in err


def test_failing_tensor3d_holds_one_block(tmp_path, capsys, monkeypatch):
    """A tensor3d run whose last separation fails picks its error without building every tensor.

    Bounded as test_sweeps_hold_one_block bounds tensor3d: by the config's parse
    peak plus half the whole table's 1000 x 9 x 16 bytes of tensors.
    """
    monkeypatch.setattr(writer, "_SWEEP_ROWS", 64)
    # k R = 1e-155 is positive, but 1 / (k R)^2 overflows.
    separations = [[0.5 + 0.004 * i, 0.25, -0.125] for i in range(999)] + [[1e-155, 0.0, 0.0]]
    path = write_config(tmp_path, separations=separations)
    out = tmp_path / "out.csv"
    # A first run in the process makes one-time allocations; keep them out of the peak.
    assert cli.main(["tensor3d", "--config", write_config(tmp_path, "one_row.json", separations=[[1.0, 0.0, 0.0]]),
                     "--out", str(out)]) == 0
    out.unlink()
    bound = traced_peak(lambda: parse_config(path))[0] + 0.5 * 1000 * 144
    capsys.readouterr()
    peak, code = traced_peak(lambda: cli.main(["tensor3d", "--config", path, "--out", str(out)]))
    err = "error: Green tensor is not finite: k times the separation overflows or underflows\n"
    assert (code, capsys.readouterr().err) == (1, err)
    assert not out.exists()
    assert peak < bound


# Rows for the pre-write property; the first of each choice runs. A tabulated medium defined
# on [0.5, 1.5] fails omegas past it, and omega <= 0 fails every medium.
PRE_WRITE_MEDIA = [
    {"type": "constant", "epsilon": LOSSY_EPS}, {"type": "tabulated", "samples": [[0.5, 2.0, 0.1], [1.5, 3.0, 0.3]]}]
PRE_WRITE_OMEGA = st.fixed_dictionaries({
    "start": st.sampled_from([0.6, 1.0, 0.0]), "stop": st.sampled_from([1.4, 2.0]), "count": st.integers(1, 7)})
# Sources: a first one inside the slab fails F, and in a log sweep to 1e308 the last pair's
# phase k (2 l - x_a - x_b) overflows.
PRE_WRITE_SOURCES = st.sampled_from([(1.5, 3.0, "linear"), (0.5, 3.0, "linear"), (1.5, 1e308, "log")]).flatmap(
    lambda sweep: st.fixed_dictionaries({"start": st.just(sweep[0]), "stop": st.just(sweep[1]), "count": st.integers(1, 3),
                                         "spacing": st.just(sweep[2])}))
# Separations: good ones, a tensor that is not finite (k R = 1e-155) and a norm that underflows to 0 (coincident).
PRE_WRITE_SEPARATIONS = st.lists(
    st.sampled_from([[1.0, 0.5, -0.25], [0.3, -2.0, 1.0], [1e-155, 0.0, 0.0], [1e-200, 1e-200, 0.0]]), min_size=1, max_size=7)
PRE_WRITE_CONFIGS = {
    "coefficients": st.fixed_dictionaries({"dielectric": st.sampled_from(PRE_WRITE_MEDIA), "omega": PRE_WRITE_OMEGA}),
    "verify-identity": st.fixed_dictionaries({
        "dielectric": st.sampled_from(PRE_WRITE_MEDIA), "omega": PRE_WRITE_OMEGA, "source": PRE_WRITE_SOURCES}),
    "tensor3d": st.fixed_dictionaries({"omega": st.sampled_from([1.0, 2.0, 0.0]), "separations": PRE_WRITE_SEPARATIONS}),
}
PRE_WRITE_CASES = st.sampled_from(list(PRE_WRITE_CONFIGS)).flatmap(lambda c: st.tuples(st.just(c), PRE_WRITE_CONFIGS[c]))
TABULATED_SWEEP = {"dielectric": PRE_WRITE_MEDIA[1], "omega": {"start": 0.6, "stop": 2.0, "count": 5}}


@settings(max_examples=40)
@given(case=PRE_WRITE_CASES)
# The last omega lies past the table, and x_a = 0.5 fails F in the first rows: the context is reported.
@example(case=("verify-identity", {**TABULATED_SWEEP, "source": {"start": 0.5, "stop": 3.0, "count": 3}}))
# Only the last pair's phase overflows.
@example(case=("verify-identity", {"omega": {"start": 0.6, "stop": 1.4, "count": 3},
                                    "source": {"start": 1.5, "stop": 1e308, "count": 3, "spacing": "log"}}))
@example(case=("coefficients", TABULATED_SWEEP))
# The first tensor is not finite and a later norm underflows: coincidence is reported.
@example(case=("tensor3d", {"omega": 1.0, "separations": [[1e-155, 0.0, 0.0], [1.0, 0.5, -0.25], [1e-200, 1e-200, 0.0]]}))
# omega <= 0 and a coincident separation: the wavenumber is reported.
@example(case=("tensor3d", {"omega": 0.0, "separations": [[1.0, 0.5, -0.25], [1e-200, 1e-200, 0.0]]}))
def test_pre_write_checks_do_not_depend_on_the_block_size(tmp_path_factory, case):
    """A fail-fast subcommand writes the same bytes and reports the same error at any block size.

    Its stdout, stderr and exit code, and whether --out exists, are those of one block.
    """
    command, config = case
    folder = tmp_path_factory.mktemp("pre_write")
    path = folder / "config.json"
    path.write_text(json.dumps({"slab": {"half_length": 1.0}, "dielectric": PRE_WRITE_MEDIA[0], **config}))
    runs = []
    for rows in (1, 3, 1024):
        out = folder / f"{rows}.csv"
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            patch.setattr(writer, "_SWEEP_ROWS", rows)
            code = cli.main([command, "--config", str(path)])
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == code
        runs.append((code, stdout.getvalue(), stderr.getvalue(), out.read_text() if out.exists() else None))
    assert runs[0] == runs[1] == runs[2]
    code, text, err, written = runs[0]
    assert code in (0, 1, 2), err
    assert written == (None if code == 1 else text)  # a failing run writes no line, to either output
    assert (text == "") == (code == 1)


def _nudged(x, ulps):
    """x moved by `ulps` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _contexts_at(k):
    """verify-identity's context check at the one omega k (c = 1) of a lossy slab with l = 1."""
    cli._load("slab_green", "identity")
    return cli._context_check(SlabGeometry(1.0), Constant(3.75 + 2j), np.array([k]), 1.0)


def _sources(k):
    """Right-exterior sources, and sources within a few ulps of where their own F's phase 2k (x_s - l) is
    0.75, 1 or 1.5 times the largest float: at 1.5 it overflows, while their pairs with near sources stay finite."""
    edge = st.tuples(st.sampled_from([0.75, 1.0, 1.5]), st.integers(-3, 3)).map(
        lambda e: _nudged(1.0 + e[0] * sys.float_info.max / (2.0 * k), e[1]))
    return st.lists(st.one_of(st.floats(1.0, 1e6, exclude_min=True), edge), min_size=1, max_size=5)


# One source inside or on the slab (l = 1), or none, goes in at a drawn position.
OWN_CHECK_CASES = st.sampled_from([1.0, 1.3, 40.0]).flatmap(lambda k: st.tuples(
    st.just(k), _sources(k), st.sampled_from([None, 0.5, 1.0, -0.25]), st.integers(0, 5)))


@settings(max_examples=60)
@given(case=OWN_CHECK_CASES)
def test_each_sources_own_f_rejects_exactly_the_grids_whose_pairs_fail(case):
    """verify-identity's pre-write check of each source fails iff F over every pair does.

    Where it passes, G over the pairs raises nothing: identity_report gives G no error
    record, so a miss would fail the run after its first lines are written.
    """
    k, sources, inside, at = case
    sources = np.array(sources if inside is None else [*sources[:at], inside, *sources[at:]])
    contexts = _contexts_at(k)
    ctx = contexts(slice(0, 1))
    pairs = row_errors((len(sources), len(sources)))
    boundary_term_f(sources[:, None], sources, ctx, pairs)
    try:
        next(cli._identity_blocks(contexts, 1, sources, 1e-8))
    except DomainError:
        assert np.not_equal(pairs, None).any()
    else:
        assert np.equal(pairs, None).all()
        green(sources[:, None], sources, ctx)


def test_an_overflowing_source_is_reported_before_a_later_inside_one(monkeypatch):
    """Sources are checked one by one, in order, at any block size.

    Over the pair grid the first failing row is (1.5, 0.5), which names the
    inside source; the source before it already overflows its own phase
    2k (x_s - l), though its pairs with 1.5 stay finite. A config's source
    sweep ascends, so the command line cannot list the two in this order.
    """
    k = 1.3
    sources = np.array([1.5, 1.0 + 0.75 * sys.float_info.max / k, 0.5])
    contexts = _contexts_at(k)
    with pytest.raises(DomainError, match="^source must lie in the right exterior region$"):
        boundary_term_f(sources[:, None], sources, contexts(slice(0, 1)))
    for rows in (1, 3, 1024):
        monkeypatch.setattr(writer, "_SWEEP_ROWS", rows)
        with pytest.raises(DomainError, match="^wave phase is not finite: k times a distance overflows$"):
            next(cli._identity_blocks(contexts, 1, sources, 1e-8))


def test_verify_identity_checks_each_source_once_and_forms_pair_factors_twice(tmp_path, monkeypatch):
    """The pre-write pass checks omega x source entries in one _outgoing call per omega chunk.

    2 omegas x 40 x 40 sources in 64-row blocks: one omega chunk, then 80 blocks of one
    (omega, x_a) row, each of which forms its 40 pairs' factors twice: once for Im G and
    F, once for the quadrature phase. boundary_term_f is never called. The pre-write pass
    looks _outgoing up in slab_green when it runs, and identity imports it when it is imported.
    """
    calls = []
    original = slab_green._outgoing

    def counted(module):
        def outgoing(ctx, *sources, **kwargs):
            calls.append((module, math.prod(np.broadcast_shapes(ctx.shape, *map(np.shape, sources)))))
            return original(ctx, *sources, **kwargs)

        return outgoing

    monkeypatch.setattr(slab_green, "_outgoing", counted("writer"))
    monkeypatch.setattr(identity, "_outgoing", counted("identity"))
    monkeypatch.setattr(identity, "boundary_term_f", lambda *args, **kwargs: calls.append("boundary_term_f"))
    monkeypatch.setattr(writer, "_SWEEP_ROWS", 64)
    grid = write_config(tmp_path, dielectric={"type": "drude", "plasma_frequency": 2.0, "damping": 0.1},
                        omega={"start": 0.5, "stop": 3.0, "count": 2}, source={"start": 1.5, "stop": 3.0, "count": 40})
    assert cli.main(["verify-identity", "--config", grid, "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == [("writer", 2 * 40)] + [("identity", 40)] * (2 * 80)


ONE_VALUE_SWEEP = {"start": 3.0, "stop": 1.0, "count": 1}  # one value: start > stop is no error


# On top of write_config's base, leaves only its omega and the row's own keys.
BARE = {"slab": None, "dielectric": None, "source": None}
SOURCES = {"start": 1.5, "stop": 2.0, "count": 2}
SOURCE_SWEEP = {"start": 1.5, "stop": 3.0, "count": 3}
HUGE_EPSILON = {"type": "constant", "epsilon": [1e308, 1e308]}
# k (x_s - l) = 1e400 is not a float; cmath.exp used to raise ValueError on it.
PHASE_OVERFLOW = {"slab": {"half_length": 1e200}, "omega": 1e200, "source": 2e200}
PHASE_MESSAGE = "wave phase is not finite: k times a distance overflows"
K_MESSAGE = "wavenumber k and 1/k must be positive and finite"
PREFACTOR_MESSAGE = "emission prefactor is not a normal positive float: it under- or overflows"
UNDERFLOW_MESSAGE = "vacuum decay rate underflows: a factor is below the normal float range"
AMPLITUDES_MESSAGE = "slab amplitudes A, B, C, D and Y are not all finite"
ONE_SWEEP_MESSAGE = "decay-scan needs exactly one sweep among source, slab.half_length and omega; found "
SINGULAR_MESSAGE = "Green tensor is not finite: k times the separation overflows or underflows"


# The command line's failure contract, one table keyed by the test that runs
# each group of cases. A case is (subcommand, config on top of write_config's,
# flags, exit code, message). Exit 1 prints the message and writes no file.
# Exit 2 writes every row with its message, one for all rows or one per row
# ("" for a good row). A group of pytest.param cases is one test per id; a
# group of plain tuples is one test that runs them all.
FAILURES = {
    "test_unknown_top_level_key": [("coefficients", {"wavelength": 3.0}, [], 1, "wavelength: unknown key")],
    "test_unknown_nested_key": [
        ("coefficients", {"dielectric": {"type": "drude", "plasma_frequency": 2.0, "gamma": 1.0}}, [], 1,
         "dielectric.gamma: unknown key")],
    "test_missing_required_section": [("coefficients", BARE, [], 1, "slab.half_length: required for this subcommand")],
    "test_bad_sweep_spec": [("coefficients", {"omega": {"start": 2.0, "stop": 1.0, "count": 5}}, [], 1,
                             "omega.start: start must be < stop")],
    "test_overflowing_sweep_rejected": [
        pytest.param(command, {"omega": sweep}, [], 1, f"omega.stop: the sweep overflows: {formula} is not finite",
                     id=f"{name}-{command}")
        for name, sweep, formula in [
            # The step is inf, so the values were nan, inf, inf.
            ("linear_step", {"start": -1e308, "stop": 1e308, "count": 3}, "start + i * (stop - start) / (count - 1)"),
            # The step is finite, but the last value rounds past the largest float.
            ("linear_last_value", {"start": 0.0, "stop": 1.7976931348623157e308, "count": 4},
             "start + i * (stop - start) / (count - 1)"),
            # stop / start is inf, so every value after the first was inf.
            ("log_ratio", {"start": 1e-300, "stop": 1e300, "count": 9, "spacing": "log"},
             "start * (stop / start) ** (i / (count - 1))"),
        ]
        for command in ["decay-scan", "coefficients"]],
    # The configs test_config_branches rejects.
    "test_failures_keep_the_contract": [
        pytest.param("coefficients", {"omega": {"start": 1, "stop": 2, "count": 2, "spacing": "cubic"}}, [], 1,
                     "omega.spacing: expected 'linear' or 'log'", id="unknown_spacing"),
        pytest.param("coefficients", {"omega": {"start": 1, "stop": 2, "count": 0}}, [], 1,
                     "omega.count: expected an integer >= 1", id="zero_count"),
        pytest.param("coefficients", {"omega": {"start": 0, "stop": 2, "count": 2, "spacing": "log"}}, [], 1,
                     "omega.spacing: log spacing needs positive endpoints", id="log_spacing_non_positive"),
        pytest.param("limit-study", {"omega": ONE_VALUE_SWEEP}, [], 1,
                     "omega: a sweep is not allowed here; give a single number", id="one_value_sweep_limit_study"),
        # decay-scan needs exactly one sweep; the base config has none.
        pytest.param("decay-scan", {}, [], 1, ONE_SWEEP_MESSAGE + "0", id="decay_scan_no_sweep"),
        pytest.param("decay-scan", {"omega": {"start": 1, "stop": 2, "count": 2}, "source": SOURCES}, [], 1,
                     ONE_SWEEP_MESSAGE + "2", id="decay_scan_two_sweeps"),
        pytest.param("verify-identity", {"tolerances": {"quadrature": 0}}, [], 1,
                     "tolerances.quadrature: must be positive", id="zero_tolerance"),
        pytest.param("coefficients", {"slab": 5}, [], 1, "slab: expected an object", id="slab_not_object"),
        # Both samples are finite, but the slope between them is 1e312.
        pytest.param("coefficients",
                     {"dielectric": {"type": "tabulated", "samples": [[1, 1, 1], [1.000000000001, 1e300, 1]]}}, [], 1,
                     "dielectric: sample slope (values[j+1] - values[j]) / (omegas[j+1] - omegas[j]) overflows",
                     id="tabulated_slope_overflow")],
    "test_sweep_count_is_capped": [
        pytest.param("coefficients", {"omega": {"start": 1.0, "stop": 2.0, **sweep}}, [], 1,
                     f"omega.count: expected an integer <= {_MAX_COUNT}", id=name)
        for name, sweep in [("1e30", {"count": 10**30}), ("1e12", {"count": 10**12}),
                            ("1e12_log", {"count": 10**12, "spacing": "log"}),
                            ("cap_plus_one", {"count": _MAX_COUNT + 1})]],
    "test_decay_scan_needs_exactly_one_sweep": [
        ("decay-scan", {"omega": {"start": 0.5, "stop": 2.0, "count": 4},
                        "source": {"start": 1.5, "stop": 2.5, "count": 4}}, [], 1, ONE_SWEEP_MESSAGE + "2")],
    "test_units_must_be_a_unit_system_name": [
        pytest.param("tensor3d", {**BARE, "units": units, "separations": [[1.0, 2.0, 3.0]]}, [], 1,
                     "units: expected 'natural' or 'si'", id=name)
        for name, units in [("list", []), ("object", {}), ("one_item_list", ["si"])]],
    "test_non_finite_config_numbers_rejected": [
        ("decay-scan", {"source": {"start": 1.5, "stop": 3.5, "count": 3},
                        "dielectric": {"type": "constant", "epsilon": [math.nan, 1.0]}}, [], 1,
         "dielectric.epsilon[0]: expected a finite number"),
        ("coefficients", {"dielectric": {"type": "constant", "epsilon": math.inf}}, [], 1,
         "dielectric.epsilon: expected a finite number")],
    # One failure for every subcommand: no row is written, and the exit code is 1.
    "test_bad_emission_parameters_fail_the_run": [
        pytest.param(argv[0], {"emission": {field: value}, "separations": [[1.0, 0.0, 0.0]],
                               **({"source": SOURCE_SWEEP} if argv[0] == "decay-scan" else {})}, argv[1:], 1,
                     f"{field} must be positive and finite", id=f"{name}-{field}-{value}")
        for field, value in [("dipole_moment", 0.0), ("surface_unit", -1.0)]
        for name, argv in [("decay_scan", ["decay-scan"]), ("decay_scan_oracle", ["decay-scan", "--oracle"]),
                           ("limit_study", ["limit-study"]), ("tensor3d", ["tensor3d"])]],
    # omega = 2 lies past the samples and x_a = 0.5 inside the slab: the
    # context's failure is reported, as coefficients reports it.
    "test_verify_identity_reports_a_context_failure_first": [
        ("verify-identity", {"dielectric": {"type": "tabulated", "samples": [[0.5, 2, 0.1], [1.5, 2, 0.1]]},
                             "omega": {"start": 1, "stop": 2, "count": 2},
                             "source": {"start": 0.5, "stop": 2, "count": 2}}, [], 1,
         "frequency 2.0 outside tabulated range [0.5, 1.5]; no extrapolation")],
    # A finite permittivity whose amplitudes overflow: D evaluates to NaN.
    "test_non_finite_amplitudes_rejected": [
        pytest.param(command, {"dielectric": HUGE_EPSILON, "omega": {"start": 1.0, "stop": 2.0, "count": 3}}, [], code,
                     AMPLITUDES_MESSAGE, id=f"{command}-{code}")
        for command, code in [("coefficients", 1), ("verify-identity", 1), ("decay-scan", 2)]],
    # |Y| overflows a float here; abs(Y) used to raise OverflowError.
    "test_resonance_denominator_overflow_is_a_row_error": [
        ("decay-scan", {"dielectric": HUGE_EPSILON, "omega": {"start": 5e-155, "stop": 1e-153, "count": 3},
                        "source": 1.5}, [], 2, AMPLITUDES_MESSAGE)],
    "test_phase_overflow_is_a_domain_error": [
        pytest.param("verify-identity", PHASE_OVERFLOW, [], 1, PHASE_MESSAGE, id="verify-identity-overrides0-1"),
        pytest.param("decay-scan", {**PHASE_OVERFLOW, "omega": {"start": 1e199, "stop": 1e200, "count": 3}}, [], 2,
                     PHASE_MESSAGE, id="decay-scan-overrides1-2"),
        pytest.param("limit-study", PHASE_OVERFLOW, [], 2, PHASE_MESSAGE, id="limit-study-overrides2-2")],
    # 2 k^2 |d|^2 overflows a float; it used to raise OverflowError.
    "test_rate_overflow_is_a_row_error": [
        ("decay-scan", {"slab": {"half_length": 1e-150}, "source": 2e-150,
                        "omega": {"start": 1e159, "stop": 2e159, "count": 2}}, ["--oracle"], 2,
         "emission rate is not finite: its prefactor overflows")],
    # Frequency sweeps that mix good rows with failing ones; coefficients stops at the first failing frequency.
    "test_sweep_row_errors_per_dielectric": [
        *(pytest.param("decay-scan", {"dielectric": dielectric, "omega": omega, "source": 1.5}, [], 2,
                       [messages.get(i, "") for i in range(omega["count"])], id=kind)
          for kind, (dielectric, omega, messages) in ROW_ERRORS.items()),
        *(pytest.param("coefficients", {"dielectric": dielectric, "omega": omega, "source": 1.5}, [], 1,
                       messages[min(messages)], id=f"{kind}-coefficients")
          for kind, (dielectric, omega, messages) in ROW_ERRORS.items())],
    "test_sweep_row_errors_per_axis": [
        pytest.param("decay-scan", overrides, flags, 2, messages, id=f"{axis}-{route}")
        for axis, overrides, messages in [
            # Sources at 0.5 and 1 lie in the slab.
            ("position", {"source": {"start": 0.5, "stop": 2.0, "count": 4}},
             ["source must lie in the right exterior region"] * 2 + ["", ""]),
            # The geometry check comes first, the source check last.
            ("thickness", {"slab": {"half_length": {"start": -1.0, "stop": 2.0, "count": 4}}, "source": 1.5},
             ["slab half length must be positive and finite"] * 2 + ["", "source must lie in the right exterior region"]),
            # The amplitudes are checked before the source.
            ("position_non_finite", {"dielectric": HUGE_EPSILON, "source": {"start": 0.5, "stop": 2.0, "count": 4}},
             AMPLITUDES_MESSAGE),
        ]
        for route, flags in [("closed_form", []), ("oracle", ["--oracle"])]],
    "test_dipole_overflow_is_not_a_traceback": [
        pytest.param(command, {"emission": {"dipole_moment": 1e200}, **overrides}, [], code, message,
                     id=f"{command}-overrides{i}-{code}")
        for i, (command, overrides, code, message) in enumerate([
            ("decay-scan", {"source": SOURCE_SWEEP}, 2, "emission rate is not finite: its prefactor overflows"),
            ("limit-study", {}, 2, "emission rate is not finite: its prefactor overflows"),
            ("tensor3d", {"separations": [[1.0, 0.0, 0.0]]}, 1,
             "vacuum decay rate is not finite: its prefactor overflows"),
        ])],
    "test_tensor3d_non_finite_tensor_exits_1": [
        pytest.param("tensor3d", {**BARE, "omega": 1e-300, "separations": [[1e-10, 0.0, 0.0]]}, [], 1,
                     SINGULAR_MESSAGE, id="kr_underflow"),
        pytest.param("tensor3d", {**BARE, "separations": [[1e300, 1e300, 0.0]]}, [], 1, SINGULAR_MESSAGE,
                     id="distance_overflow")],
    "test_tensor3d_coincident_rejected": [
        ("tensor3d", {**BARE, "separations": [[0.0, 0.0, 0.0]]}, [], 1,
         "separations[0]: coincident points: the full tensor is singular at r = 0")],
    "test_limit_study_source_errors_exit_1": [
        # At k*l = 1e200 the default source l + 1/k rounds onto the face x = l.
        pytest.param("limit-study", {"dielectric": None, "source": None, "omega": 1e200}, [], 1,
                     "the default source l + 1/k falls on the slab face; the source must be given",
                     id="default_on_face"),
        pytest.param("limit-study", {"dielectric": None, "omega": 1e200, "source": 1.0}, [], 1,
                     "source must lie in the right exterior region", id="given_on_face"),
        # omega / c underflows to k = 0, so l + 1/k cannot be formed.
        pytest.param("limit-study", {"dielectric": None, "source": None, "units": "si", "omega": 1e-320}, [], 1,
                     "wavenumber must be positive", id="k_underflow")],
    "test_out_of_range_scales_fail_without_nan": [
        # At omega = 1e-320 the reciprocal 1/k overflows.
        pytest.param("verify-identity", {"omega": 1e-320, "source": SOURCES}, [], 1, K_MESSAGE, id="verify_k"),
        pytest.param("limit-study", {"omega": 1e-320}, [], 2, K_MESSAGE, id="limit_k"),
        pytest.param("decay-scan", {"omega": {"start": 1e-320, "stop": 1e-319, "count": 3}}, [], 2, K_MESSAGE,
                     id="decay_k"),
        # |d|^2 underflows to 0, or the reference rate k |d|^2 / S is subnormal.
        pytest.param("decay-scan", {"source": SOURCES, "emission": {"dipole_moment": 1e-200}}, ["--oracle"], 2,
                     PREFACTOR_MESSAGE, id="decay_dipole_oracle"),
        pytest.param("decay-scan", {"source": SOURCES, "emission": {"dipole_moment": 1e-10, "surface_unit": 1e300}},
                     [], 2, PREFACTOR_MESSAGE, id="decay_subnormal_reference"),
        pytest.param("limit-study", {"emission": {"dipole_moment": 1e-200}}, [], 2, PREFACTOR_MESSAGE,
                     id="limit_dipole"),
        # hbar eps0 S underflows to 0, so the prefactor is inf.
        pytest.param("limit-study", {"emission": {"surface_unit": 1e-320}}, ["--units", "si"], 2,
                     "emission rate is not finite: its prefactor overflows", id="limit_surface_si"),
        pytest.param("tensor3d", {"omega": 1e-150, "emission": {"dipole_moment": 1e150},
                                  "separations": [[1.0, 0.0, 0.0]]}, [], 1, UNDERFLOW_MESSAGE, id="tensor3d_underflow"),
        # The rate's two routes both reach exactly 0.
        pytest.param("tensor3d", {"emission": {"dipole_moment": 1e-200}, "separations": [[1.0, 0.0, 0.0]]}, [], 1,
                     UNDERFLOW_MESSAGE, id="tensor3d_dipole_zero_rate"),
        pytest.param("tensor3d", {"omega": 1e-120, "separations": [[1.0, 0.0, 0.0]]}, [], 1, UNDERFLOW_MESSAGE,
                     id="tensor3d_k_zero_rate")],
}


def check_failure(tmp_path, capsys, command, overrides, flags, code, message):
    # In process, a traceback fails the test as an exception and a RuntimeWarning as an error.
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", write_config(tmp_path, **overrides), *flags, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert not re.search(r"\bnan\b", err, re.IGNORECASE)  # "resonance" holds "nan" but not the word
    if code == 1:
        assert err == f"error: {message}\n"
        assert not out.exists()
        return
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    messages = [message] * len(rows) if isinstance(message, str) else message
    # CSV cells keep no commas.
    assert rows and [row[-1] for row in rows] == [text.replace(",", ";") for text in messages]
    kept = cli._COMMANDS[command][1]
    for row, text in zip(rows, messages):
        cells = row[:kept] if text else row[:-1]
        assert all(math.isfinite(float(cell)) for cell in cells)
        assert row[len(cells):-1] == [""] * (len(row) - 1 - len(cells))


def failure_test(cases):
    """A test that runs check_failure on `cases`: one per id, or all in one if they are plain tuples."""
    if all(type(case) is tuple for case in cases):
        def test(tmp_path, capsys):
            for i, case in enumerate(cases):
                (tmp_path / str(i)).mkdir()
                check_failure(tmp_path / str(i), capsys, *case)
        return test

    @pytest.mark.parametrize("command, overrides, flags, code, message", cases)
    def test(tmp_path, capsys, command, overrides, flags, code, message):
        check_failure(tmp_path, capsys, command, overrides, flags, code, message)
    return test


# Each key becomes a module-level test, which pytest collects under that name.
globals().update((name, failure_test(cases)) for name, cases in FAILURES.items())


@pytest.mark.parametrize(
    "command, config, code, err",
    [
        ("coefficients", [1.0, 2.0], 1, "error: expected an object\n"),
        ("coefficients", {"omega": ONE_VALUE_SWEEP}, 0, "coefficients: 1 rows"),
        ("decay-scan", {"omega": ONE_VALUE_SWEEP}, 0, "decay-scan (frequency): 1 rows, 0 failed\n"),
        ("coefficients", None, 1, "error: cannot read config: "),
    ],
    ids=["top_level_array", "one_value_sweep_coefficients", "one_value_sweep_decay_scan", "missing_file"],
)
def test_config_branches(tmp_path, capsys, command, config, code, err):
    # A config of None names a file that does not exist.
    path = tmp_path / "config.json"
    if isinstance(config, dict):
        path = Path(write_config(tmp_path, **config))
    elif config is not None:
        path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(err)
    if code == 1:
        return
    header, *rows = out.read_text().splitlines()
    assert header.startswith("omega,") and len(rows) == 1 and rows[0].startswith("3,")


@pytest.mark.parametrize(
    "command, make, path",
    [
        ("coefficients", lambda rows: {"dielectric": {"type": "drude_lorentz", "terms": rows}}, "dielectric.terms"),
        ("coefficients", lambda rows: {"dielectric": {"type": "tabulated", "samples": rows}}, "dielectric.samples"),
        ("tensor3d", lambda rows: {"separations": rows}, "separations"),
    ],
    ids=["terms", "samples", "separations"],
)
@pytest.mark.parametrize(
    "rows, where",
    [([], ""), ([[1.0, 2.0, 3.0], [1.0, 2.0]], "[1]"), ([[1.0, "x", 3.0]], "[0][1]")],
    ids=["empty", "short_row", "non_number"],
)
def test_number_rows_rejected(tmp_path, capsys, command, make, path, rows, where):
    assert cli.main([command, "--config", write_config(tmp_path, **make(rows))]) == 1
    assert f"error: {path}{where}: expected " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        # Each list also holds a later bad entry: the first one in row-then-column order is reported.
        ("tensor3d", {"separations": [[1.0, 0.0, 0.0]] * 700 + [[1.0, "x", True], [1.0, 0.0]]},
         "separations[700][1]: expected a number"),
        ("tensor3d", {"separations": [[1.0, 0.0, 0.0]] * 700 + [[1.0, 0.0, True], ["x", 0.0, 0.0]]},
         "separations[700][2]: expected a number"),
        ("limit-study", {"limit_path": [[1.0, 0.1]] * 5999 + [[1.0, "x"]]}, "limit_path[5999][1]: expected a number"),
        ("limit-study", {"limit_path": [[1.0, 0.1]] * 10 + [[1.0], [True, 0.1]]},
         "limit_path[10]: expected a number or a [re, im] pair"),
        ("coefficients", {"dielectric": {"type": "tabulated", "samples": [[0.5, 2.0, 0.1]] * 3 + [[1.0, 2.5], [1.0]]}},
         "dielectric.samples[3]: expected [omega, re, im]"),
        ("coefficients", {"dielectric": {"type": "drude_lorentz", "terms": [[4.0, 1.0, 0.1], ["INF", "x", 0.1]]}},
         "dielectric.terms[1][0]: expected a finite number"),
    ],
    ids=["separations_string_before_bool", "separations_bool", "limit_path_string", "limit_path_short_pair",
         "samples_short_row", "terms_overflow"],
)
def test_long_number_lists_report_first_bad_path(tmp_path, capsys, command, overrides, message):
    path = tmp_path / "config.json"
    config = {"slab": {"half_length": 1.0}, "dielectric": {"type": "constant", "epsilon": LOSSY_EPS},
              "omega": 1.0, **overrides}
    # 1e400 is a JSON number that Python's json module reads as inf.
    path.write_text(json.dumps(config).replace('"INF"', "1e400"))
    assert cli.main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


USAGE = "usage: slabgreen "


# CONFIG in an argument stands for the path of a valid config.
@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["verify-identity", "--config", "CONFIG", "--tol", "inf"], 1, "", "error: --tol: expected a finite number\n"),
        (["verify-identity", "--config", "CONFIG", "--tol", "abc"], 1, "", USAGE),
        (["verify-identity"], 1, "", USAGE),
        (["verify-identity", "--config", "CONFIG", "--help"], 0, USAGE, ""),
        ([], 1, "", USAGE),
        (["verify", "--config", "CONFIG"], 1, "", USAGE),
        (["coefficients", "--config", "CONFIG", "--bogus"], 1, "", USAGE),
        (["coefficients", "--config", "CONFIG", "extra"], 1, "", USAGE),
        (["coefficients", "--config", "CONFIG", "--units", "kelvin"], 1, "", USAGE),
        (["coefficients", "--config", "CONFIG", "--o", "out.csv"], 1, "", USAGE),
        (["coefficients", "--config=CONFIG"], 0, "omega,k,", "coefficients: 1 rows, "),
        (["coefficients", "--conf", "CONFIG"], 0, "omega,k,", "coefficients: 1 rows, "),
        (["coefficients", "-h"], 0, USAGE, ""),
    ],
    ids=["tol_inf", "tol_not_a_number", "missing_config", "help", "no_subcommand", "unknown_subcommand", "bogus",
         "stray_positional", "units_kelvin", "ambiguous_prefix", "config_equals", "config_prefix", "subcommand_help"],
)
def test_exit_codes(tmp_path, capsys, argv, code, out, err):
    # Usage errors and non-finite tolerances are configuration errors (1), not
    # tolerance violations (2); main() returns every status, --help's too.
    config = write_config(tmp_path)
    assert cli.main([arg.replace("CONFIG", config) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(out) and captured.err.startswith(err)
    if err == USAGE:  # a usage line and one error line, and no output
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith(USAGE) and error.startswith("slabgreen: error: ")
    if out == USAGE:  # the help, and nothing on stderr
        assert captured.err == ""


# Arguments near every branch of getopt's reading: exact names, prefixes (unique, ambiguous, empty), values
# given with = or as the next argument or missing, flags given a value, runs of short options, -- and -.
ARGUMENT = st.one_of(
    st.sampled_from(["--config", "--config=c.json", "--config=", "--conf", "--c", "--o", "--or", "--out", "--oracle",
                     "--oracle=1", "--orac=", "--help", "--h", "--he=x", "-h", "-hh", "-hx", "-x", "-h=", "--", "-",
                     "--=", "--bogus", "--tol", "--tol=1e-3", "--units=si", "--u", "x", ""]),
    st.text(alphabet="-=hco", max_size=5),
)


@settings(max_examples=400)
@given(args=st.lists(ARGUMENT, max_size=5))
def test_the_command_line_is_read_as_getopt_reads_it(args):
    """cli._options drops getopt, which loads gettext, and keeps its grammar and its messages."""
    import getopt

    try:
        opts, rest = getopt.getopt(args, "h", list(cli._OPTIONS))
        expected = {name.lstrip("-"): value for name, value in opts}, rest
    except getopt.GetoptError as error:
        expected = str(error)
    try:
        got = cli._options(args)
    except cli._UsageError as error:
        got = str(error)
    assert got == expected


@pytest.mark.parametrize(
    "tol, err",
    [
        ("0", "error: --tol: must be positive\n"),
        ("-1", "error: --tol: must be positive\n"),
        ("inf", "error: --tol: expected a finite number\n"),
        ("nan", "error: --tol: expected a finite number\n"),
    ],
    ids=["zero", "negative", "inf", "nan"],
)
def test_tol_is_read_like_the_config_tolerance(tmp_path, capsys, tol, err):
    assert cli.main(["verify-identity", "--config", write_config(tmp_path), "--tol", tol]) == 1
    assert capsys.readouterr().err == err
    # A bad config file is reported first.
    assert cli.main(["verify-identity", "--config", write_config(tmp_path, slab=5), "--tol", tol]) == 1
    assert capsys.readouterr().err == "error: slab: expected an object\n"


def test_decay_scan_position_vacuum(tmp_path):
    path = write_config(
        tmp_path,
        dielectric={"type": "constant", "epsilon": [1.0, 0.0]},
        source={"start": 1.5, "stop": 6.5, "count": 11},
    )
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path])
    assert rc == 0
    for row in rows:
        assert abs(float(row["gamma"])) <= 1e-15
        assert float(row["gamma_uncorrected"]) == pytest.approx(float(row["gamma_vac_1d"]), rel=1e-12)


def test_decay_scan_position_lossy_with_oracle(tmp_path):
    path = write_config(tmp_path, source={"start": 1.5, "stop": 6.5, "count": 11})
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path, "--oracle"])
    assert rc == 0
    gammas = {row["gamma"] for row in rows}
    assert len(gammas) == 1  # corrected rate is position independent, byte for byte
    uncorrected = [float(row["gamma_uncorrected"]) for row in rows]
    assert max(uncorrected) - min(uncorrected) > 0.1
    for row in rows:
        assert float(row["gamma_quadrature"]) == pytest.approx(float(row["gamma"]), rel=1e-7)


def test_decay_scan_thickness(tmp_path):
    path = write_config(
        tmp_path,
        slab={"half_length": {"start": 1e-3, "stop": 1.0, "count": 8, "spacing": "log"}},
        source=4.0,
    )
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path])
    assert rc == 0
    first, last = rows[0], rows[-1]
    assert float(first["normalized_corrected"]) < 1e-2
    assert float(first["gamma_uncorrected"]) == pytest.approx(float(first["gamma_vac_1d"]), rel=1e-2)
    assert float(last["normalized_corrected"]) > 0.1


def test_decay_scan_frequency(tmp_path):
    path = write_config(tmp_path, omega={"start": 0.5, "stop": 2.0, "count": 4}, source=5.0)
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path])
    assert rc == 0
    assert [float(row["omega"]) for row in rows] == [0.5, 1.0, 1.5, 2.0]


def test_decay_scan_marks_bad_rows(tmp_path):
    # Thickness sweep grows the slab past the fixed source position.
    path = write_config(
        tmp_path,
        slab={"half_length": {"start": 1.0, "stop": 3.0, "count": 3}},
        source=1.5,
    )
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path])
    assert rc == 2
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != ""
    assert rows[1]["gamma"] == ""


def test_limit_study_default_path(tmp_path):
    path = write_config(tmp_path)
    rc, rows = run_to_rows(tmp_path, ["limit-study", "--config", path])
    assert rc == 0
    assert len(rows) == 8
    assert float(rows[-1]["eps_im"]) == pytest.approx(1e-8)
    assert abs(float(rows[-1]["f_plus_im_g0"])) <= 1e-6


def test_limit_study_explicit_path(tmp_path):
    path = write_config(tmp_path, limit_path=[[1.0, 0.01], [1.0, 0.0001]])
    rc, rows = run_to_rows(tmp_path, ["limit-study", "--config", path])
    assert rc == 0
    assert len(rows) == 2
    assert float(rows[0]["gamma"]) / 0.01 == pytest.approx(float(rows[1]["gamma"]) / 0.0001, rel=0.02)


def test_limit_path_is_read_into_complex128(tmp_path):
    """Each entry is bit-equal to complex(re, im), for pairs, ints, bare numbers and -0.0."""
    node = [[1.5, -0.0], 2, -0.0, [-0.0, 3], [10**20, 0.25], 1e-300]
    expected = [complex(1.5, -0.0), complex(2, 0), complex(-0.0, 0), complex(-0.0, 3), complex(10**20, 0.25),
                complex(1e-300, 0)]
    values = _complex_list(node, "limit_path")
    assert values.dtype == np.complex128
    assert values.tobytes() == b"".join(struct.pack("=dd", z.real, z.imag) for z in expected)
    default = parse_config(write_config(tmp_path))["limit_path"]
    assert default.dtype == np.complex128 and not default.flags.writeable
    assert default.tobytes() == b"".join(struct.pack("=dd", 1.0, 10.0**-m) for m in range(1, 9))


def test_tensor3d_rows(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"omega": 1.0, "separations": [[0.0, 0.0, 1.0]]}))
    rc, rows = run_to_rows(tmp_path, ["tensor3d", "--config", str(path)])
    assert rc == 0
    row = rows[0]
    assert float(row["gamma0"]) == pytest.approx(1.0 / (3 * math.pi), rel=1e-15)
    assert float(row["im_g0_coincident_diag"]) == pytest.approx(1.0 / (6 * math.pi), rel=1e-15)
    # on-axis separation: transverse xx equals yy, off-diagonals vanish
    assert row["g_xx_re"] == row["g_yy_re"]
    assert float(row["g_xy_re"]) == 0.0


def test_units_si(tmp_path):
    path = write_config(tmp_path, omega=1.0e15)
    rc, rows = run_to_rows(tmp_path, ["coefficients", "--config", path, "--units", "si"])
    assert rc == 0
    assert float(rows[0]["k"]) == pytest.approx(1.0e15 / 299792458.0, rel=1e-15)


def test_si_and_natural_units_agree_through_k(tmp_path):
    # Frequency enters only through k = omega / c: an SI run at omega and a
    # natural-units run at the float omega / c, with the same lengths, give
    # the same normalized rates and the same tensor.
    omega_si = 1.3e15
    scan = {"slab": {"half_length": 2e-7}, "source": {"start": 2.5e-7, "stop": 9e-7, "count": 7}}
    tensor = {"separations": [[0.0, 0.0, 1e-7], [2e-7, -1e-7, 3e-7], [5e-6, 0.0, 0.0]]}
    rows = {}
    for units, omega in (("si", omega_si), ("natural", omega_si / 299792458.0)):
        scan_path = write_config(tmp_path, f"scan-{units}.json", units=units, omega=omega, **scan)
        tensor_path = tmp_path / f"tensor-{units}.json"
        tensor_path.write_text(json.dumps({"units": units, "omega": omega, **tensor}))
        rc_scan, scan_rows = run_to_rows(tmp_path, ["decay-scan", "--config", scan_path, "--oracle"])
        rc_tensor, tensor_rows = run_to_rows(tmp_path, ["tensor3d", "--config", str(tensor_path)])
        assert rc_scan == rc_tensor == 0
        rows[units] = (scan_rows, tensor_rows)
    pairs = [
        (si[name], nat[name])
        for table_si, table_nat in zip(rows["si"], rows["natural"])
        for si, nat in zip(table_si, table_nat, strict=True)
        for name in si
        if name in ("normalized_corrected", "normalized_uncorrected") or name.startswith("g_")
    ]
    assert len(pairs) == 7 * 2 + 3 * 18
    for si, nat in pairs:
        assert abs(float(si) - float(nat)) <= 1e-14 * abs(float(nat))


@settings(max_examples=10)
@given(n=absorbing_index(), k=log_uniform(-1.0, 1.3), l=st.floats(0.1, 3.0), kd=source_offset(),
       alpha=log_uniform(-1.0, 1.0))
def test_scaling_omega_up_and_lengths_down_changes_no_column(tmp_path_factory, n, k, l, kd, alpha):
    """(omega, l, x_s) -> (alpha omega, l / alpha, x_s / alpha) keeps coefficients' a and d and decay-scan's rates.

    The command-line half of tests/test_emission.py::test_scaling_k_up_and_lengths_down_changes_nothing, with its
    bound. The medium is the constant epsilon = n^2, and k = omega in natural units.
    """
    folder = tmp_path_factory.mktemp("scaling")
    eps, x_s = n * n, l + kd / k
    medium = {"type": "constant", "epsilon": [eps.real, eps.imag]}
    runs = []
    for omega, half, source in [(k, l, x_s), (alpha * k, l / alpha, x_s / alpha)]:
        path = write_config(folder, slab={"half_length": half}, dielectric=medium,
                            omega={"start": omega, "stop": omega, "count": 1}, source=source)
        (rc_a, (coefficients,)), (rc_b, (rates,)) = (run_to_rows(folder, [command, "--config", path])
                                                       for command in ("coefficients", "decay-scan"))
        assert rc_a == rc_b == 0
        runs.append([complex(float(coefficients[f"{name}_re"]), float(coefficients[f"{name}_im"])) for name in "ad"]
                    + [float(rates[name]) for name in ("normalized_corrected", "normalized_uncorrected")])
    original, scaled = runs
    a, d = original[:2]
    bound = 4 * sys.float_info.epsilon * (1 + abs(a) ** 2 + abs(d) ** 2 + 2 * abs(d)) * (
        k * (1 + abs(n)) * l + k * (x_s - l) + 1)
    assert max(abs(x - y) for x, y in zip(original, scaled)) <= bound


def test_emission_config_scaling(tmp_path):
    base = write_config(tmp_path, "a.json", source={"start": 2.0, "stop": 3.0, "count": 2})
    scaled = write_config(
        tmp_path, "b.json",
        source={"start": 2.0, "stop": 3.0, "count": 2},
        emission={"dipole_moment": 2.0},
    )
    _, rows_base = run_to_rows(tmp_path, ["decay-scan", "--config", base])
    _, rows_scaled = run_to_rows(tmp_path, ["decay-scan", "--config", scaled])
    assert float(rows_scaled[0]["gamma"]) == pytest.approx(4.0 * float(rows_base[0]["gamma"]), rel=1e-14)


def test_output_io_error(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = cli.main(["coefficients", "--config", path, "--out", str(tmp_path / "missing" / "out.csv")])
    assert rc == 3


def test_output_path_from_config(tmp_path):
    out = tmp_path / "from_config.csv"
    path = write_config(tmp_path, output={"path": str(out), "format": "csv"})
    assert cli.main(["coefficients", "--config", path]) == 0
    assert out.exists()


def test_stdout_output(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["coefficients", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("omega,k,")
    assert captured.out.endswith("\n")
    assert "coefficients:" in captured.err


def test_sweep_count_cap_is_allowed(tmp_path):
    config = cli.parse_config(write_config(tmp_path, omega={"start": 1.0, "stop": 2.0, "count": _MAX_COUNT}))
    assert config["omega"].shape == (_MAX_COUNT,)
    assert config["omega"][-1] == 2.0


class _ContextReached(Exception):
    pass


def _context_reached(*args, **kwargs):
    raise _ContextReached


@pytest.mark.parametrize(
    "omega, sources, rows",
    [(1.0, 100000, 10**10), ({"start": 1.0, "stop": 2.0, "count": 2}, 708, 1002528)],
    ids=["1e5_sources", "2_omegas_708_sources"],
)
def test_verify_identity_grid_is_capped(tmp_path, capsys, monkeypatch, omega, sources, rows):
    monkeypatch.setattr(cli, "make_context", _context_reached)  # the cap comes first
    path = write_config(tmp_path, omega=omega, source={"start": 1.5, "stop": 3.0, "count": sources})
    assert cli.main(["verify-identity", "--config", path]) == 1
    assert capsys.readouterr().err == (
        f"error: source: the omega x source x source grid has {rows} rows, more than {_MAX_COUNT}\n"
    )


def test_verify_identity_grid_cap_is_allowed(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "make_context", _context_reached)
    path = write_config(tmp_path, source={"start": 1.5, "stop": 3.0, "count": 1000})
    with pytest.raises(_ContextReached):
        cli.main(["verify-identity", "--config", path])


# A near-lossless Drude slab at its plasma frequency, where the closed-form
# rate and the quadrature part at tol 1e-14 (ROADMAP item 1): the scaled
# disagreement is 0.98, 0.69, 340, 1.65 and 1.2 times 2 k tol on the rows.
NEAR_LOSSLESS_DRUDE = {
    "dielectric": {"type": "drude", "plasma_frequency": 1.0, "damping": 1e-12},
    "source": 1.5, "omega": {"start": 0.999999, "stop": 1.000001, "count": 5},
}


@pytest.mark.parametrize("flags, over", [(["--tol", "1e-14"], 3), ([], 0)], ids=["tol_1e-14", "default_tol"])
def test_decay_scan_oracle_gate(tmp_path, capsys, flags, over):
    path = write_config(tmp_path, **NEAR_LOSSLESS_DRUDE)
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path, "--oracle", *flags])
    assert rc == (2 if over else 0)
    assert len(rows) == 5 and all(row["error"] == "" for row in rows)  # the rows are written as they are
    tol = float(flags[1]) if flags else 1e-8
    assert sum(float(row["quadrature_error_scaled"]) > 2.0 * float(row["omega"]) * tol for row in rows) == over
    gate = f"decay-scan: {over} rows with quadrature_error_scaled > 2 k tol (tol {tol:.1e})\n"
    assert capsys.readouterr().err == "decay-scan (frequency): 5 rows, 0 failed\n" + (gate if over else "")


FULL = b"error: [Errno 28] No space left on device\n"


# "-u" gives the child unbuffered stdout, as PYTHONUNBUFFERED=1 does: the
# help text's write then fails at once instead of at the closing flush.
# "-u" gives the child unbuffered stdout, as PYTHONUNBUFFERED=1 does: the
# help text's write then fails at once instead of at the closing flush.
@pytest.mark.parametrize(
    "code, stderr",
    [
        pytest.param(0, b"", id="pipe", marks=pytest.mark.child(Child("-m", "slabgreen.cli", "--help"))),
        pytest.param(3, FULL, id="stdout_full",
                     marks=[DEV_FULL, pytest.mark.child(Child("-m", "slabgreen.cli", "--help", output="full"))]),
        pytest.param(3, FULL, id="stdout_full_unbuffered",
                     marks=[DEV_FULL, pytest.mark.child(Child("-u", "-m", "slabgreen.cli", "--help", output="full"))]),
        pytest.param(3, FULL, id="subcommand_stdout_full_unbuffered", marks=[
            DEV_FULL, pytest.mark.child(Child("-u", "-m", "slabgreen.cli", "coefficients", "--help", output="full"))]),
        pytest.param(0, None, id="stdout_closed",
                     marks=pytest.mark.child(Child("-m", "slabgreen.cli", "--help", output="closed"))),
    ],
)
def test_module_help_exit_codes(child, code, stderr):
    if child.output == "pipe":
        assert child.stdout.startswith(b"usage: slabgreen ")
    assert child.returncode == code
    if child.output == "closed":  # the child's sys.stdout is None, so the help goes to stderr
        assert child.stderr.startswith(b"usage: slabgreen ")
    else:
        assert child.stderr == stderr


@pytest.mark.child(Child("-c", FREEZE_PROBE, "--help"))
def test_process_entry_freezes_after_help(child):
    assert child.returncode == 0
    assert child.stderr == b"frozen at exit: True\n"


def test_readme_config_parses_and_names_every_key(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Library quick start")]
    start = section.index("```json\n") + len("```json\n")
    path = tmp_path / "readme.json"
    path.write_text(section[start:section.index("```", start)])
    config = cli.parse_config(str(path))
    assert config["source"].shape == (11,)
    for key in _KEYS:
        assert f"`{key}`" in section


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out:
        warnings.simplefilter("error", RuntimeWarning)
        exec(section[start:section.index("```", start)], {})
    corrected, uncorrected, error, rate = out.getvalue().splitlines()
    assert float(corrected) < 1e-12
    assert abs(float(uncorrected) - 0.418) < 1e-3
    assert error == "None"
    assert math.isfinite(float(rate))


# Config values for the fuzz of main(): two numbers in three moderate, the
# third an extreme (zero, the subnormals, the edges of the float range,
# integers past it), and now and then a list or an object where a scalar
# belongs.
FUZZ_EXTREME = st.sampled_from([
    0, 5e-324, -5e-324, 1e-300, 1e-160, 1e-12, 1e12, 1e154, 1e160, 1e300, 1.7e308, -1.0, -1e160, -1.7e308,
    10**400, -(2**64),
])
FUZZ_NUMBER = st.integers(0, 2).flatmap(lambda i: FUZZ_EXTREME if i == 2 else st.floats(0.1, 10.0))
FUZZ_PAIR = st.lists(FUZZ_NUMBER, min_size=2, max_size=2)
FUZZ_TRIPLES = st.lists(st.lists(FUZZ_NUMBER, min_size=3, max_size=3), min_size=1, max_size=3)
FUZZ_JUNK = st.sampled_from([None, True, "x", [], {}, [1.0], {"start": 1.0}, {"type": "constant"}])
FUZZ_SWEEP = st.fixed_dictionaries(
    {"start": FUZZ_NUMBER, "stop": FUZZ_NUMBER, "count": st.integers(0, 3).flatmap(
        lambda i: st.sampled_from([0, True, 10**12, 10**30]) if i == 3 else st.integers(1, 3))},
    optional={"spacing": st.sampled_from(["linear", "log", []])},
)
# A value of the shape each reader of _KEYS takes; the readers of a set
# of words are looked up by path in FUZZ_WORDS.
FUZZ_SHAPES = {
    _scalar_or_sweep: FUZZ_NUMBER | FUZZ_SWEEP,
    _number: FUZZ_NUMBER,
    _positive: FUZZ_NUMBER,
    _parse_dielectric: st.one_of(
        st.fixed_dictionaries({"type": st.just("constant"), "epsilon": FUZZ_NUMBER | FUZZ_PAIR}),
        st.fixed_dictionaries({"type": st.just("drude"), "plasma_frequency": FUZZ_NUMBER},
                              optional={"damping": FUZZ_NUMBER}),
        st.fixed_dictionaries({"type": st.just("drude_lorentz"), "terms": FUZZ_TRIPLES}),
        st.fixed_dictionaries({"type": st.just("tabulated"),
                               "samples": st.lists(st.lists(FUZZ_NUMBER, min_size=3, max_size=3), min_size=2, max_size=3)}),
    ),
    _complex_list: st.lists(FUZZ_NUMBER | FUZZ_PAIR, min_size=1, max_size=3),
    _separations: FUZZ_TRIPLES,
    _string: st.just("unused.csv"),  # --out overrides it
}
FUZZ_WORDS = {"units": st.sampled_from(["natural", "si"]), "output.format": st.just("csv")}


FUZZ_MEDIA = [
    {"type": "constant", "epsilon": LOSSY_EPS},
    {"type": "drude", "plasma_frequency": 2.0, "damping": 0.5},
    {"type": "drude_lorentz", "terms": [[1.0, 1.5, 0.3]]},
    {"type": "tabulated", "samples": [[0.5, 2.0, 0.5], [2.5, 3.0, 1.0]]},
]
# A config that every subcommand runs, by _KEYS path.
FUZZ_BASE = {
    "units": "natural", "slab.half_length": 1.0, "dielectric": FUZZ_MEDIA[0], "omega": 1.0, "source": 2.0,
    "emission.dipole_moment": 1.0, "emission.surface_unit": 1.0, "tolerances.quadrature": 1e-8,
    "limit_path": [[1.0, 0.1]], "separations": [[1.0, 2.0, 3.0]], "output.format": "csv", "output.path": "unused.csv",
}
# The sweeps of decay-scan's three axes; verify-identity sweeps the source.
# The last thickness reaches past the source, and the last frequency lies
# past the tabulated samples, so those rows fail and the others run.
FUZZ_SWEEPS = {
    "source": {"start": 1.5, "stop": 3.0, "count": 2},
    "slab.half_length": {"start": 0.5, "stop": 2.5, "count": 3},
    "omega": {"start": 1.0, "stop": 3.0, "count": 3},
}
# One draw of the subcommand, shared by the test's command and its config.
FUZZ_COMMAND = st.shared(st.sampled_from(list(cli._COMMANDS)), key="command")


def nested(flat):
    """The JSON config of a dict keyed by _KEYS path."""
    config = {}
    for key, value in flat.items():
        *parents, name = key.split(".")
        node = config
        for parent in parents:
            node = node.setdefault(parent, {})
        node[name] = value
    return config


@st.composite
def fuzz_configs(draw, command):
    """A base config for `command` with some keys of _KEYS drawn anew, left out or given junk.

    The base takes a medium of any dielectric type; decay-scan sweeps one of
    its three axes and verify-identity the source. Of 32 draws per key, 27
    keep the base value, 3 draw a value of the key reader's shape, 1 leaves
    the key out and 1 gives it junk. Hypothesis favours 0, so 0 keeps the
    base value.
    """
    base = {**FUZZ_BASE, "dielectric": draw(st.sampled_from(FUZZ_MEDIA))}
    if command in ("decay-scan", "verify-identity"):
        axis = draw(st.sampled_from(list(FUZZ_SWEEPS))) if command == "decay-scan" else "source"
        base[axis] = FUZZ_SWEEPS[axis]
    config = {}
    for key, (reader, _) in _KEYS.items():
        kind = draw(st.integers(0, 31))
        if kind < 27:
            config[key] = base[key]
        elif kind < 30:
            config[key] = draw(FUZZ_SHAPES[reader] if reader in FUZZ_SHAPES else FUZZ_WORDS[key])
        elif kind == 31:
            config[key] = draw(FUZZ_JUNK)
    return nested(config)


FUZZ_SLAB = {"slab": {"half_length": 1.0}, "dielectric": {"type": "constant", "epsilon": 2.0}}


@settings(max_examples=200)
@given(command=FUZZ_COMMAND, oracle=st.booleans(), config=FUZZ_COMMAND.flatmap(fuzz_configs))
@example(command="tensor3d", oracle=False, config={"units": [], "omega": 1.0, "separations": [[1.0, 2.0, 3.0]]})
@example(command="verify-identity", oracle=False, config={
    "slab": {"half_length": 1e-12}, "dielectric": {"type": "constant", "epsilon": [-1e160, 50]},
    "omega": 1e300, "source": 2})
@example(command="coefficients", oracle=False, config={**FUZZ_SLAB, "omega": {"start": 1, "stop": 2, "count": 10**30}})
@example(command="decay-scan", oracle=True, config={
    **FUZZ_SLAB, "source": 2.0, "omega": {"start": 1, "stop": 2, "count": 10**12, "spacing": "log"}})
# Each sweep axis of decay-scan, with failed rows among good ones.
@example(command="decay-scan", oracle=True, config=nested({
    **FUZZ_BASE, "dielectric": FUZZ_MEDIA[3], "omega": FUZZ_SWEEPS["omega"]}))
@example(command="decay-scan", oracle=False, config=nested({
    **FUZZ_BASE, "dielectric": FUZZ_MEDIA[1], "slab.half_length": FUZZ_SWEEPS["slab.half_length"]}))
@example(command="decay-scan", oracle=True, config=nested({
    **FUZZ_BASE, "dielectric": FUZZ_MEDIA[2], "source": FUZZ_SWEEPS["source"]}))
# Near-lossless and near-vacuum media; accuracy there is not asserted.
@example(command="decay-scan", oracle=True, config={
    "slab": {"half_length": 1.0}, "dielectric": {"type": "drude", "plasma_frequency": 1, "damping": 1e-12},
    "omega": {"start": 0.999999, "stop": 1.000001, "count": 5}, "source": 1.5})
@example(command="limit-study", oracle=False, config={
    "slab": {"half_length": 1.0}, "omega": 1.0, "source": 2.0, "limit_path": [[1, 1e-14], [1, 1e-300], [1, 0]]})
@example(command="coefficients", oracle=False, config={
    **FUZZ_SLAB, "dielectric": {"type": "constant", "epsilon": [0, 2e-12]}, "omega": 1.0})
@example(command="coefficients", oracle=False, config={  # exit 1: "slab is degenerate"
    **FUZZ_SLAB, "dielectric": {"type": "constant", "epsilon": [0, 2e-26]}, "omega": 1.0})
@example(command="verify-identity", oracle=False, config={
    **FUZZ_SLAB, "dielectric": {"type": "constant", "epsilon": [2.25, 3e-14]}, "omega": 3,
    "source": {"start": 1.5, "stop": 2, "count": 2}})
def test_main_fuzz_exits_cleanly(tmp_path_factory, command, oracle, config):
    """Every config ends in a documented exit code, with no warning, and only finite numbers in the CSV.

    On exit 0 no row fails. On exit 2 a failed row keeps finite leading cells,
    leaves the rest blank and ends in its message; every other row is finite.
    """
    folder = tmp_path_factory.mktemp("fuzz")
    path, out = folder / "config.json", folder / "out.csv"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(out), *(["--oracle"] if oracle else [])]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)  # a RuntimeWarning is an error in this suite
    assert code in (0, 1, 2, 3), err.getvalue()
    assert code != 1 or not out.exists(), err.getvalue()  # a failed run writes no partial table
    if code in (0, 2):
        with open(out, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        for row in rows:
            cells, message = (row[:-1], row[-1]) if header[-1] == "error" else (row, "")
            kept = cells[:cells.index("")] if message and "" in cells else cells
            assert all(math.isfinite(float(cell)) for cell in kept), row
            assert cells[len(kept):] == [""] * (len(cells) - len(kept)), row
            assert code == 2 or message == "", row
