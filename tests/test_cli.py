import csv
import json
import math

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
    path = write_config(tmp_path)
    rc, rows = run_to_rows(tmp_path, ["verify-identity", "--config", path, "--tol", "1e-30"])
    assert rc == 2
    row = rows[0]
    assert row["error"] != ""
    assert row["lhs_re"] != ""  # best estimate still reported
    lhs = complex(float(row["lhs_re"]), float(row["lhs_im"]))
    im_g = float(row["im_g"])
    f = complex(float(row["f_re"]), float(row["f_im"]))
    assert complex(float(row["residual_corrected_re"]), float(row["residual_corrected_im"])) == lhs - im_g - f
    assert complex(float(row["residual_uncorrected_re"]), float(row["residual_uncorrected_im"])) == lhs - im_g


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
    # k = 1e300: the seed of a tenth of a wavelength per panel would be
    # 2e301 panels; it is capped at the panel budget.
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
