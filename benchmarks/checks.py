"""Independent checks of the CSV files that `slabgreen` writes.

Nothing here imports slabgreen. Closed-form columns are recomputed with
numpy over whole columns at once, and the slab amplitudes come from the 2x2
characteristic (transfer) matrix of a homogeneous layer, not from the
package's Fabry-Perot formulas. Quadrature columns are held to the requested
tolerance. All configs use natural units with the default dipole moment and
surface unit, so the one-dimensional vacuum rate equals omega.
"""

import numpy as np

RTOL = 1e-10  # closed-form columns against the recomputation
QUAD_TOL = 1e-8  # the CLI's default quadrature tolerance; configs do not override it

_TENSOR = [f"g_{i}{j}_{part}" for i in "xyz" for j in "xyz" for part in ("re", "im")]
HEADERS = {
    "coefficients": [
        "omega", "k", "n_re", "n_im", "a_re", "a_im", "b_re", "b_im", "c_re", "c_im",
        "d_re", "d_im", "y_re", "y_im", "abs_a_sq", "abs_d_sq", "unitarity_defect",
    ],
    "verify-identity": [
        "omega", "x_a", "x_b", "lhs_re", "lhs_im", "im_g", "f_re", "f_im",
        "residual_corrected_re", "residual_corrected_im",
        "residual_uncorrected_re", "residual_uncorrected_im", "quadrature_error", "error",
    ],
    "decay-scan": [
        "omega", "half_length", "x_s", "gamma", "gamma_uncorrected", "gamma_vac_1d",
        "normalized_corrected", "normalized_uncorrected", "error",
    ],
    "decay-scan --oracle": [
        "omega", "half_length", "x_s", "gamma", "gamma_uncorrected", "gamma_vac_1d",
        "normalized_corrected", "normalized_uncorrected", "gamma_quadrature",
        "quadrature_error_scaled", "error",
    ],
    "limit-study": [
        "eps_re", "eps_im", "gamma", "gamma_uncorrected", "f_plus_im_g0",
        "abs_a_sq", "abs_d_sq", "error",
    ],
    "tensor3d": ["r_x", "r_y", "r_z", *_TENSOR, "im_g0_coincident_diag", "gamma0"],
}


def sweep_values(node):
    """The CLI's linear sweep, or a scalar as a one-element array."""
    if not isinstance(node, dict):
        return np.array([float(node)])
    start, stop, count = float(node["start"]), float(node["stop"]), node["count"]
    if count == 1:
        return np.array([start])
    return start + np.arange(count) * ((stop - start) / (count - 1))


def permittivity(node, omega):
    kind = node["type"]
    if kind == "constant":
        return np.full(omega.shape, complex(*node["epsilon"]))
    if kind == "drude":
        return 1.0 - node["plasma_frequency"] ** 2 / (omega * (omega + 1j * node["damping"]))
    if kind == "drude_lorentz":
        eps = np.ones(omega.shape, dtype=complex)
        for strength, resonance, damping in node["terms"]:
            eps += strength / (resonance**2 - omega**2 - 1j * damping * omega)
        return eps
    if kind == "tabulated":
        table = np.array(node["samples"], dtype=float)
        return np.interp(omega, table[:, 0], table[:, 1]) + 1j * np.interp(omega, table[:, 0], table[:, 2])
    raise ValueError(f"unknown dielectric type {kind!r}")


def refractive_index(eps):
    n = np.sqrt(eps)
    return np.where(n.imag < 0.0, -n, n)


def amplitudes(eps, k, half_length):
    """Transmission A and front-face reflection D of the slab.

    From the characteristic matrix M = [[cos d, -i sin d / n], [-i n sin d, cos d]]
    with d = 2 k n l and vacuum on both sides: A = 2 / (M11 + M12 + M21 + M22)
    and D = (M11 + M12 - M21 - M22) / (M11 + M12 + M21 + M22). n -+ 1/n is
    written (eps -+ 1) / n so that D keeps its digits as eps -> 1.
    """
    n = refractive_index(eps)
    sin = np.sin(2.0 * k * n * half_length)
    den = 2.0 * np.cos(2.0 * k * n * half_length) - 1j * (eps + 1.0) / n * sin
    return 2.0 / den, 1j * (eps - 1.0) / n * sin / den


def rates(omega, a, d, k, half_length, x_s):
    """Corrected and uncorrected rates for a unit dipole in natural units."""
    corrected = 0.5 * omega * (1.0 - abs(a) ** 2 - abs(d) ** 2)
    uncorrected = omega * (1.0 + (d * np.exp(-2j * k * (half_length - x_s))).real)
    return corrected, uncorrected


def _close(got, want, scale=0.0, rtol=RTOL):
    """|got - want| <= rtol * max(|want|, scale), elementwise.

    `scale` is the size of the terms a column is a difference of, for columns
    that cancel (1 - |A|^2 - |D|^2 as the loss vanishes, F + Im G0).
    """
    return np.abs(got - want) <= rtol * np.maximum(np.abs(want), scale)


def read_csv(path):
    """Header list and an (rows, columns) string array."""
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    cells = [line.split(",") for line in lines[1:-1]]
    header = lines[0].split(",")
    if any(len(row) != len(header) for row in cells):
        raise ValueError("ragged CSV rows")
    return header, np.array(cells, dtype=str).reshape(len(cells), len(header))


class _Table:
    def __init__(self, header, cells):
        self._index = {name: i for i, name in enumerate(header)}
        self.cells = cells

    def __getitem__(self, name):
        column = self.cells[:, self._index[name]]
        return np.where(column == "", "nan", column).astype(float)

    def complex(self, prefix):
        return self[f"{prefix}_re"] + 1j * self[f"{prefix}_im"]


def _coefficients(job, t):
    cfg = job.config
    omega = sweep_values(cfg["omega"])
    l = cfg["slab"]["half_length"]
    eps = permittivity(cfg["dielectric"], omega)
    a, d = amplitudes(eps, omega, l)
    abs_a_sq, abs_d_sq = abs(a) ** 2, abs(d) ** 2
    return [
        ("omega", _close(t["omega"], omega)),
        ("k", _close(t["k"], omega)),
        ("n", _close(t.complex("n"), refractive_index(eps))),
        ("A", _close(t.complex("a"), a)),
        ("D", _close(t.complex("d"), d)),
        ("abs_a_sq", _close(t["abs_a_sq"], abs_a_sq)),
        ("abs_d_sq", _close(t["abs_d_sq"], abs_d_sq)),
        ("unitarity_defect", _close(t["unitarity_defect"], 1.0 - abs_a_sq - abs_d_sq, 1.0)),
    ]


def _decay_scan(job, t):
    cfg = job.config
    omega = sweep_values(cfg["omega"])
    l, x_s = cfg["slab"]["half_length"], cfg["source"]
    a, d = amplitudes(permittivity(cfg["dielectric"], omega), omega, l)
    gamma, gamma_unc = rates(omega, a, d, omega, l, x_s)
    checks = [
        ("omega", _close(t["omega"], omega)),
        ("gamma", _close(t["gamma"], gamma, omega)),
        ("gamma_uncorrected", _close(t["gamma_uncorrected"], gamma_unc, omega)),
        ("gamma_vac_1d", _close(t["gamma_vac_1d"], omega)),
        ("normalized_corrected", _close(t["normalized_corrected"], gamma / omega, 1.0)),
        ("normalized_uncorrected", _close(t["normalized_uncorrected"], gamma_unc / omega, 1.0)),
    ]
    if "--oracle" in job.flags:
        # gamma_quadrature / gamma_vac = 2k Re(lhs), so a quadrature error
        # within tol moves the scaled column by at most 2k tol.
        bound = 2.0 * omega * QUAD_TOL
        checks += [
            ("quadrature_error_scaled", t["quadrature_error_scaled"] <= bound),
            ("gamma_quadrature", np.abs(t["gamma_quadrature"] - gamma) / omega <= bound),
        ]
    return checks


def _limit_study(job, t):
    cfg = job.config
    omega, l, x_s = cfg["omega"], cfg["slab"]["half_length"], cfg["source"]
    eps = np.array(cfg["limit_path"], dtype=float) @ np.array([1.0, 1j])
    a, d = amplitudes(eps, omega, l)
    gamma, gamma_unc = rates(omega, a, d, omega, l, x_s)
    f_plus_im_g0 = (1.0 - abs(a) ** 2 - abs(d) ** 2
                    - 2.0 * (d * np.exp(-2j * omega * (l - x_s))).real) / (4.0 * omega)
    # D is proportional to eps - 1, which the program forms as n*n - 1 from a
    # rounded square root; allow that ~1e-15 absolute error, relative to eps - 1.
    d_rtol = RTOL + 2e-15 / np.abs(eps - 1.0)
    return [
        ("eps", _close(t.complex("eps"), eps)),
        ("gamma", _close(t["gamma"], gamma, omega)),
        ("gamma_uncorrected", _close(t["gamma_uncorrected"], gamma_unc, omega)),
        ("f_plus_im_g0", _close(t["f_plus_im_g0"], f_plus_im_g0, 1.0 / omega)),
        ("abs_a_sq", _close(t["abs_a_sq"], abs(a) ** 2)),
        ("abs_d_sq", _close(t["abs_d_sq"], abs(d) ** 2, rtol=d_rtol)),
    ]


def _verify_identity(job, t):
    cfg = job.config
    l = cfg["slab"]["half_length"]
    sources = sweep_values(cfg["source"])
    omega, x_a, x_b = (g.ravel() for g in np.meshgrid(sweep_values(cfg["omega"]), sources, sources, indexing="ij"))
    a, d = amplitudes(permittivity(cfg["dielectric"], omega), omega, l)
    k = omega
    # Exterior sources on the right: G(x_a, x_b) and the closed-form boundary term F.
    reflected = d * np.exp(-1j * k * (2.0 * l - x_a - x_b))
    im_g = ((0.5j / k) * (reflected + np.exp(1j * k * np.abs(x_a - x_b)))).imag
    phase = np.exp(1j * k * (x_a - x_b))
    f = -((abs(a) ** 2 + abs(d) ** 2) * phase + 1.0 / phase + 2.0 * reflected.real) / (4.0 * k)
    corrected = t.complex("residual_corrected")
    uncorrected = t.complex("residual_uncorrected")
    return [
        ("grid", _close(t["omega"], omega) & _close(t["x_a"], x_a) & _close(t["x_b"], x_b)),
        ("im_g", _close(t["im_g"], im_g, 1.0 / k)),
        ("f", _close(t.complex("f"), f, 1.0 / k)),
        ("residual_corrected", np.abs(corrected) <= QUAD_TOL),
        ("residual_uncorrected_minus_f", np.abs(uncorrected - f) <= QUAD_TOL),
        ("quadrature_error", t["quadrature_error"] <= QUAD_TOL),
    ]


def _tensor3d(job, t):
    omega = job.config["omega"]
    r = np.array(job.config["separations"], dtype=float)
    dist = np.linalg.norm(r, axis=1)
    u = r / dist[:, None]
    kr = omega * dist
    g0 = np.exp(1j * kr) / (4.0 * np.pi * dist)
    diag = g0 * (1.0 + 1j / kr - 1.0 / kr**2)
    outer = g0 * (-1.0 - 3j / kr + 3.0 / kr**2)
    tensor = diag[:, None, None] * np.eye(3) + outer[:, None, None] * u[:, :, None] * u[:, None, :]
    got = np.stack([t.complex(f"g_{i}{j}") for i in "xyz" for j in "xyz"], axis=1).reshape(-1, 3, 3)
    scale = np.abs(tensor).max(axis=(1, 2))[:, None, None]
    return [
        ("separation", np.all(_close(np.stack([t["r_x"], t["r_y"], t["r_z"]], axis=1), r), axis=1)),
        ("tensor", np.all(_close(got, tensor, scale), axis=(1, 2))),
        ("im_g0_coincident_diag", _close(t["im_g0_coincident_diag"], omega / (6.0 * np.pi))),
        ("gamma0", _close(t["gamma0"], omega**3 / (3.0 * np.pi))),
    ]


_ROW_CHECKS = {
    "coefficients": _coefficients,
    "decay-scan": _decay_scan,
    "limit-study": _limit_study,
    "verify-identity": _verify_identity,
    "tensor3d": _tensor3d,
}


def check_output(job, exit_code, csv_path):
    """Check one job's exit code and CSV.

    Returns (job_failed, failed_rows, messages). A job-level failure (exit
    code, missing or malformed file, header, row count) fails every row,
    since none of them can be trusted.
    """
    if exit_code != 0:
        return True, job.rows, [f"{job.name}: exit code {exit_code}, expected 0"]
    try:
        header, cells = read_csv(csv_path)
    except (OSError, ValueError) as exc:
        return True, job.rows, [f"{job.name}: unreadable CSV: {exc}"]
    if header != HEADERS[" ".join((job.command, *job.flags))]:
        return True, job.rows, [f"{job.name}: unexpected header {header}"]
    if len(cells) != job.rows:
        return True, job.rows, [f"{job.name}: {len(cells)} rows, expected {job.rows}"]
    table = _Table(header, cells)
    try:
        checks = _ROW_CHECKS[job.command](job, table)
    except ValueError as exc:
        return True, job.rows, [f"{job.name}: unparsable cell: {exc}"]
    bad = np.zeros(job.rows, dtype=bool)
    messages = []
    if "error" in header:
        checks.append(("error cell", table.cells[:, -1] == ""))
    for name, ok in checks:
        ok = np.broadcast_to(ok, bad.shape)
        if not ok.all():
            messages.append(f"{job.name}: {name} fails on {int((~ok).sum())} rows, first at row {int(np.argmin(ok))}")
        bad |= ~ok
    return False, int(bad.sum()), messages
