import cmath
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slabgreen import cli

LOSSY_EPS = [3.75, 2.0]  # (2 + 0.5i)^2


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "slab": {"half_length": 1.0},
        "dielectric": {"type": "constant", "epsilon": LOSSY_EPS},
        "omega": 1.0,
        "source": 2.0,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run_to_rows(tmp_path, argv):
    out = tmp_path / "out.csv"
    rc = cli.main(argv + ["--out", str(out)])
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return rc, rows


def test_unknown_top_level_key(tmp_path, capsys):
    path = write_config(tmp_path, wavelength=3.0)
    assert cli.main(["coefficients", "--config", path]) == 1
    assert "wavelength" in capsys.readouterr().err


def test_unknown_nested_key(tmp_path, capsys):
    path = write_config(tmp_path, dielectric={"type": "drude", "plasma_frequency": 2.0, "gamma": 1.0})
    assert cli.main(["coefficients", "--config", path]) == 1
    assert "dielectric.gamma" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["coefficients", "--config", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_required_section(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"omega": 1.0}))
    assert cli.main(["coefficients", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "slab.half_length" in err or "dielectric" in err


def test_bad_sweep_spec(tmp_path, capsys):
    path = write_config(tmp_path, omega={"start": 2.0, "stop": 1.0, "count": 5})
    assert cli.main(["coefficients", "--config", path]) == 1
    assert "start" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decay-scan", "coefficients"])
@pytest.mark.parametrize(
    "sweep, formula",
    [
        # The step is inf, so the values were nan, inf, inf.
        ({"start": -1e308, "stop": 1e308, "count": 3}, "start + i * (stop - start) / (count - 1)"),
        # The step is finite, but the last value rounds past the largest float.
        ({"start": 0.0, "stop": 1.7976931348623157e308, "count": 4}, "start + i * (stop - start) / (count - 1)"),
        # stop / start is inf, so every value after the first was inf.
        ({"start": 1e-300, "stop": 1e300, "count": 9, "spacing": "log"},
         "start * (stop / start) ** (i / (count - 1))"),
    ],
    ids=["linear_step", "linear_last_value", "log_ratio"],
)
def test_overflowing_sweep_rejected(tmp_path, capsys, command, sweep, formula):
    assert cli.main([command, "--config", write_config(tmp_path, omega=sweep)]) == 1
    assert capsys.readouterr().err == f"error: omega.stop: the sweep overflows: {formula} is not finite\n"


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


@pytest.mark.parametrize(
    "command, code",
    [("coefficients", 1), ("verify-identity", 1), ("decay-scan", 2)],
)
def test_non_finite_amplitudes_rejected(tmp_path, capsys, command, code):
    # A finite permittivity whose amplitudes overflow: D evaluates to NaN.
    path = write_config(tmp_path, dielectric={"type": "constant", "epsilon": [1e308, 1e308]},
                        omega={"start": 1.0, "stop": 2.0, "count": 3})
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", path, "--out", str(out)]) == code
    if command == "decay-scan":
        with open(out, newline="") as handle:
            assert all("not all finite" in row["error"] for row in csv.DictReader(handle))
    else:
        assert "not all finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, code",
    [
        ("verify-identity", {}, 1),
        ("decay-scan", {"omega": {"start": 1e199, "stop": 1e200, "count": 3}}, 2),
        ("limit-study", {}, 2),
    ],
)
def test_phase_overflow_is_a_domain_error(tmp_path, capsys, command, overrides, code):
    # k (x_s - l) = 1e400 is not a float; cmath.exp used to raise ValueError on it.
    config = {"slab": {"half_length": 1e200}, "omega": 1e200, "source": 2e200, **overrides}
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", write_config(tmp_path, **config), "--out", str(out)]) == code
    message = "wave phase is not finite"
    if code == 1:
        assert message in capsys.readouterr().err
    else:
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(message in row["error"] for row in rows)


def test_resonance_denominator_overflow_is_a_row_error(tmp_path):
    # |Y| overflows a float here; abs(Y) used to raise OverflowError.
    path = write_config(tmp_path, dielectric={"type": "constant", "epsilon": [1e308, 1e308]},
                        omega={"start": 5e-155, "stop": 1e-153, "count": 3}, source=1.5)
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path])
    assert rc == 2
    assert all("not all finite" in row["error"] for row in rows)


def test_rate_overflow_is_a_row_error(tmp_path):
    # 2 k^2 |d|^2 overflows a float; it used to raise OverflowError.
    path = write_config(tmp_path, slab={"half_length": 1e-150}, source=2e-150,
                        omega={"start": 1e159, "stop": 2e159, "count": 2})
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path, "--oracle"])
    assert rc == 2
    assert all(row["error"] == "emission rate is not finite: its prefactor overflows" for row in rows)


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


@pytest.mark.parametrize("kind", ROW_ERRORS)
def test_sweep_row_errors_per_dielectric(tmp_path, capsys, kind):
    dielectric, omega, expected = ROW_ERRORS[kind]
    path = write_config(tmp_path, dielectric=dielectric, omega=omega, source=1.5)
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path])
    assert rc == 2
    # CSV cells keep no commas.
    cells = [expected.get(i, "").replace(",", ";") for i in range(omega["count"])]
    assert [row["error"] for row in rows] == cells
    for row in rows:
        assert (row["gamma"] == "") == (row["error"] != "")
        assert row["error"] or math.isfinite(float(row["gamma_uncorrected"]))
    capsys.readouterr()
    # coefficients stops at the first failing frequency, with its message.
    assert cli.main(["coefficients", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {expected[min(expected)]}\n"


@pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["closed_form", "oracle"])
@pytest.mark.parametrize(
    "overrides, expected",
    [
        # Sources at 0.5 and 1 lie in the slab.
        ({"source": {"start": 0.5, "stop": 2.0, "count": 4}},
         ["source must lie in the right exterior region"] * 2 + ["", ""]),
        # The geometry check comes first, the source check last.
        ({"slab": {"half_length": {"start": -1.0, "stop": 2.0, "count": 4}}, "source": 1.5},
         ["slab half length must be positive and finite"] * 2 + ["", "source must lie in the right exterior region"]),
        # The amplitudes are checked before the source.
        ({"dielectric": {"type": "constant", "epsilon": [1e308, 1e308]},
          "source": {"start": 0.5, "stop": 2.0, "count": 4}},
         ["slab amplitudes A; B; C; D and Y are not all finite"] * 4),
    ],
    ids=["position", "thickness", "position_non_finite"],
)
def test_sweep_row_errors_per_axis(tmp_path, flags, overrides, expected):
    path = write_config(tmp_path, **overrides)
    rc, rows = run_to_rows(tmp_path, ["decay-scan", "--config", path, *flags])
    assert rc == 2
    assert [row["error"] for row in rows] == expected


def run_module(*args):
    """Run `python -m slabgreen.cli` in a child process, as users and the benchmark do."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "slabgreen.cli", *args], capture_output=True, env=env)


def test_module_stdout_matches_out_file(tmp_path):
    count = 2 * cli._BLOCK_ROWS + 100
    path = write_config(tmp_path, omega={"start": 0.1, "stop": 5.0, "count": count})
    out = tmp_path / "out.csv"
    to_file = run_module("coefficients", "--config", path, "--out", str(out))
    to_stdout = run_module("coefficients", "--config", path)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_stdout.stdout == out.read_bytes()
    assert to_stdout.stdout.count(b"\n") == count + 1


@pytest.mark.parametrize(
    "overrides, flags",
    [
        ({"dielectric": ROW_ERRORS["tabulated"][0], "omega": ROW_ERRORS["tabulated"][1], "source": 1.5}, []),
        ({"dielectric": ROW_ERRORS["constant"][0], "omega": ROW_ERRORS["constant"][1], "source": 1.5}, ["--oracle"]),
        ({"slab": {"half_length": 1e200}, "omega": {"start": 1e199, "stop": 1e200, "count": 3},
          "source": 2e200}, ["--oracle"]),
        ({"omega": {"start": 0.5, "stop": 2.0, "count": 4}, "emission": {"dipole_moment": 0.0}}, []),
    ],
    ids=["tabulated", "non_finite_oracle", "phase_overflow_oracle", "zero_dipole"],
)
def test_module_failing_rows_write_no_warnings(tmp_path, overrides, flags):
    result = run_module("decay-scan", "--config", write_config(tmp_path, **overrides), *flags)
    assert result.returncode == 2
    assert b"Traceback" not in result.stderr
    assert b"RuntimeWarning" not in result.stderr
    assert result.stderr.endswith(b" failed\n")


@pytest.mark.parametrize(
    "command, overrides, code",
    [
        ("decay-scan", {"source": {"start": 1.5, "stop": 3.0, "count": 3}}, 2),
        ("limit-study", {}, 2),
        ("tensor3d", {"separations": [[1.0, 0.0, 0.0]]}, 1),
    ],
)
def test_dipole_overflow_is_not_a_traceback(tmp_path, command, overrides, code):
    path = write_config(tmp_path, emission={"dipole_moment": 1e200}, **overrides)
    result = run_module(command, "--config", path)
    assert result.returncode == code
    assert b"Traceback" not in result.stderr
    assert b"RuntimeWarning" not in result.stderr
    if code == 2:
        assert b"emission rate is not finite" in result.stdout
    else:
        assert result.stderr == b"error: vacuum decay rate is not finite: its prefactor overflows\n"


@pytest.mark.parametrize(
    "config",
    [
        {"omega": 1e-300, "separations": [[1e-10, 0.0, 0.0]]},  # kR underflows
        {"omega": 1.0, "separations": [[1e300, 1e300, 0.0]]},  # |r| overflows
    ],
    ids=["kr_underflow", "distance_overflow"],
)
def test_tensor3d_non_finite_tensor_exits_1(tmp_path, config):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(config))
    result = run_module("tensor3d", "--config", str(path))
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr == b"error: Green tensor is not finite: k times the separation overflows or underflows\n"


@pytest.mark.parametrize(
    "overrides, message",
    [
        # At k*l = 1e200 the default source l + 1/k rounds onto the face x = l.
        ({"omega": 1e200}, "the default source l + 1/k falls on the slab face; the source must be given"),
        ({"omega": 1e200, "source": 1.0}, "source must lie in the right exterior region"),
        # omega / c underflows to k = 0, so l + 1/k cannot be formed.
        ({"units": "si", "omega": 1e-320}, "wavenumber must be positive"),
    ],
    ids=["default_on_face", "given_on_face", "k_underflow"],
)
def test_limit_study_source_errors_exit_1(tmp_path, capsys, overrides, message):
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"slab": {"half_length": 1.0}, **overrides}))
    assert cli.main(["limit-study", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


K_MESSAGE = "wavenumber k and 1/k must be positive and finite"
PREFACTOR_MESSAGE = "emission prefactor is not a normal positive float: it under- or overflows"
SOURCES = {"start": 1.5, "stop": 2.0, "count": 2}


@pytest.mark.parametrize(
    "command, overrides, flags, code, message",
    [
        # At omega = 1e-320 the reciprocal 1/k overflows.
        ("verify-identity", {"omega": 1e-320, "source": SOURCES}, [], 1, K_MESSAGE),
        ("limit-study", {"omega": 1e-320}, [], 2, K_MESSAGE),
        ("decay-scan", {"omega": {"start": 1e-320, "stop": 1e-319, "count": 3}}, [], 2, K_MESSAGE),
        # |d|^2 underflows to 0, or the reference rate k |d|^2 / S is subnormal.
        ("decay-scan", {"source": SOURCES, "emission": {"dipole_moment": 1e-200}}, ["--oracle"], 2,
         PREFACTOR_MESSAGE),
        ("decay-scan", {"source": SOURCES, "emission": {"dipole_moment": 1e-10, "surface_unit": 1e300}}, [], 2,
         PREFACTOR_MESSAGE),
        ("limit-study", {"emission": {"dipole_moment": 1e-200}}, [], 2, PREFACTOR_MESSAGE),
        # hbar eps0 S underflows to 0, so the prefactor is inf.
        ("limit-study", {"emission": {"surface_unit": 1e-320}}, ["--units", "si"], 2,
         "emission rate is not finite: its prefactor overflows"),
        ("tensor3d", {"omega": 1e-150, "emission": {"dipole_moment": 1e150}, "separations": [[1.0, 0.0, 0.0]]},
         [], 1, "vacuum decay rate underflows: a factor is below the normal float range"),
    ],
    ids=["verify_k", "limit_k", "decay_k", "decay_dipole_oracle", "decay_subnormal_reference",
         "limit_dipole", "limit_surface_si", "tensor3d_underflow"],
)
def test_out_of_range_scales_fail_without_nan(tmp_path, capsys, command, overrides, flags, code, message):
    # In process, a traceback fails the test as an exception and a RuntimeWarning as an error.
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", write_config(tmp_path, **overrides), *flags, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "nan" not in err
    if code == 1:
        assert err == f"error: {message}\n"
        return
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and all(row["error"] == message for row in rows)
    assert not any(cell == "nan" for row in rows for cell in row.values())


def test_row_template_matches_fmt(tmp_path):
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308, 1e-310, 0.1, 1.0 / 3.0,
              1.7976931348623157e308, 123456789.0, -2.5]
    out = tmp_path / "out.csv"
    errors = cli.row_errors(3)  # rows 0 and 1 are good: empty error cells
    errors[2] = "row failed, for a reason"
    table = cli._Table(np.array([values, values[::-1], values]), errors, kept=5)
    cli._write_csv(str(out), ["a"] * len(values), table)
    lines = out.read_text().splitlines()
    text = [format(float(v), ".17g") for v in values]
    assert lines[1] == ",".join(text) + ","
    assert lines[2] == ",".join(text[::-1]) + ","
    # A failed row keeps its first `kept` cells, blanks the rest and ends in its comma-free message.
    assert lines[3] == ",".join(text[:5] + [""] * (len(values) - 5) + ["row failed; for a reason"])


def test_non_finite_config_numbers_rejected(tmp_path, capsys):
    path = write_config(tmp_path, source={"start": 1.5, "stop": 3.5, "count": 3},
                        dielectric={"type": "constant", "epsilon": [math.nan, 1.0]})
    assert cli.main(["decay-scan", "--config", path]) == 1
    assert "dielectric.epsilon[0]" in capsys.readouterr().err
    path = write_config(tmp_path, dielectric={"type": "constant", "epsilon": math.inf})
    assert cli.main(["coefficients", "--config", path]) == 1
    assert "dielectric.epsilon" in capsys.readouterr().err


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
    "flags, code",
    [(["--tol", "inf"], 1), (["--tol", "abc"], 1), (None, 1), (["--help"], 0)],
    ids=["tol_inf", "tol_not_a_number", "missing_config", "help"],
)
def test_exit_codes(tmp_path, flags, code):
    # Usage errors and non-finite tolerances are configuration errors (1), not
    # tolerance violations (2); argparse reports usage errors through SystemExit.
    argv = ["verify-identity"] if flags is None else ["verify-identity", "--config", write_config(tmp_path), *flags]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code


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


def test_decay_scan_needs_exactly_one_sweep(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["decay-scan", "--config", path]) == 1
    path = write_config(
        tmp_path,
        omega={"start": 0.5, "stop": 2.0, "count": 4},
        source={"start": 1.5, "stop": 2.5, "count": 4},
    )
    assert cli.main(["decay-scan", "--config", path]) == 1


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


def test_tensor3d_coincident_rejected(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"omega": 1.0, "separations": [[0.0, 0.0, 0.0]]}))
    assert cli.main(["tensor3d", "--config", str(path)]) == 1
    assert "singular" in capsys.readouterr().err


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
