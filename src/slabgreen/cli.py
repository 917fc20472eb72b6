"""Command-line front end: JSON config in, deterministic CSV out.

Subcommands
-----------
coefficients     slab amplitudes A, B, C, D, Y per frequency
verify-identity  quadrature check of the corrected identity on a source grid
decay-scan       emission rates swept over position, thickness or frequency
limit-study      diagnostics along a permittivity path approaching vacuum
tensor3d         free-space dyadic tensor components and the vacuum rate

CSV goes to --out (default stdout) with a fixed header, 17-significant-digit
floats and '\n' line endings, so identical configs give byte-identical
files. Human-readable summaries go to stderr. Exit codes: 0 success, 1
configuration or validation error, 2 numerical tolerance violation, 3 output
I/O error.
"""

import argparse
import contextlib
import json
import math
import sys
from collections import namedtuple
from functools import cached_property

import numpy as np

from .dielectric import Constant, Drude, DrudeLorentz, Tabulated
from .emission import EmissionParams, decay_report, limit_study
from .errors import ConfigError, DomainError, raise_first, row_errors
from .identity import identity_report
from .slab_green import SlabGeometry, make_context
from .vacuum3d import green_tensor_vacuum, im_green_coincident, vacuum_decay_3d

_CONSTANTS = {
    "natural": {"hbar": 1.0, "epsilon0": 1.0, "c": 1.0},
    "si": {"hbar": 1.054571817e-34, "epsilon0": 8.8541878128e-12, "c": 299792458.0},
}

_DEFAULT_TOL = 1e-8
# CSV rows formatted and written at a time.
_BLOCK_ROWS = 1024
# Default permittivity path for limit-study: eps = 1 + i 10^-m.
_DEFAULT_LIMIT_PATH = [complex(1.0, 10.0**-m) for m in range(1, 9)]


RunConfig = namedtuple(
    "RunConfig",
    "units slab_half_length dielectric omega source dipole_moment surface_unit quad_tol limit_path separations "
    "output_path",
)


def _object(node, path, allowed, required=()):
    """Check that a config node is an object with no unknown and no missing keys."""
    if not isinstance(node, dict):
        raise ConfigError(path, "expected an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(prefix + unknown[0], "unknown key")
    for key in required:
        if key not in node:
            raise ConfigError(prefix + key, "required")
    return node


def _number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, "expected a number")
    # NaN fails every comparison, and integers too large for a float fail
    # here before float() could overflow.
    if not abs(node) <= sys.float_info.max:
        raise ConfigError(path, "expected a finite number")
    return float(node)


def _complex_pair(node, path):
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(_number(node, path), 0.0)
    if isinstance(node, list) and len(node) == 2:
        return complex(_number(node[0], f"{path}[0]"), _number(node[1], f"{path}[1]"))
    raise ConfigError(path, "expected a number or a [re, im] pair")


def _rows(node, path, shape):
    """Check for a non-empty list of number rows as wide as `shape`, e.g. "[x, y, z]"."""
    if not isinstance(node, list) or not node:
        raise ConfigError(path, f"expected a non-empty list of {shape}")
    width = shape.count(",") + 1
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != width:
            raise ConfigError(f"{path}[{i}]", f"expected {shape}")
        rows.append(tuple(_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)))
    return rows


def _scalar_or_sweep(node, path):
    """A number, or a sweep object expanded into the array of its values."""
    if isinstance(node, dict):
        _object(node, path, {"start", "stop", "count", "spacing"}, ("start", "stop", "count"))
        start = _number(node["start"], f"{path}.start")
        stop = _number(node["stop"], f"{path}.stop")
        count = node["count"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(f"{path}.count", "expected an integer >= 1")
        spacing = node.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{path}.spacing", "expected 'linear' or 'log'")
        if count > 1 and not start < stop:
            raise ConfigError(f"{path}.start", "start must be < stop")
        if spacing == "log" and (start <= 0.0 or stop <= 0.0):
            raise ConfigError(f"{path}.spacing", "log spacing needs positive endpoints")
        if count == 1:
            return np.array([start])
        if spacing == "log":
            # Python's power per element: numpy's vector power may round differently.
            ratio, formula = stop / start, "start * (stop / start) ** (i / (count - 1))"
            values = np.array([start * ratio ** (i / (count - 1)) for i in range(count)])
        else:
            formula = "start + i * (stop - start) / (count - 1)"
            with np.errstate(all="ignore"):  # an overflowing span gives nan and inf, rejected below
                values = start + np.arange(count) * ((stop - start) / (count - 1))
        if not np.isfinite(values).all():
            raise ConfigError(f"{path}.stop", f"the sweep overflows: {formula} is not finite")
        return values
    return _number(node, path)


def _parse_dielectric(node, path):
    if not isinstance(node, dict):
        raise ConfigError(path, "expected an object with a 'type' key")
    kind = node.get("type")
    try:
        if kind == "constant":
            _object(node, path, {"type", "epsilon"}, ("epsilon",))
            return Constant(_complex_pair(node["epsilon"], f"{path}.epsilon"))
        if kind == "drude":
            _object(node, path, {"type", "plasma_frequency", "damping"}, ("plasma_frequency",))
            return Drude(
                plasma_frequency=_number(node["plasma_frequency"], f"{path}.plasma_frequency"),
                damping=_number(node.get("damping", 0.0), f"{path}.damping"),
            )
        if kind == "drude_lorentz":
            _object(node, path, {"type", "terms"})
            terms = _rows(node.get("terms"), f"{path}.terms", "[strength, resonance, damping]")
            return DrudeLorentz(terms=tuple(terms))
        if kind == "tabulated":
            _object(node, path, {"type", "samples"})
            samples = _rows(node.get("samples"), f"{path}.samples", "[omega, re, im]")
            return Tabulated(
                omegas=tuple(omega for omega, _, _ in samples),
                values=tuple(complex(re, im) for _, re, im in samples),
            )
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.type", "expected one of constant, drude, drude_lorentz, tabulated")


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration; unknown keys are errors."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(None, f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(None, f"invalid JSON: {exc}") from exc
    _object(
        raw,
        None,
        {"units", "slab", "dielectric", "omega", "source", "emission", "tolerances",
         "limit_path", "separations", "output"},
    )

    units = raw.get("units", "natural")
    if units not in _CONSTANTS:
        raise ConfigError("units", "expected 'natural' or 'si'")

    half_length = None
    if "slab" in raw:
        slab = _object(raw["slab"], "slab", {"half_length"}, ("half_length",))
        half_length = _scalar_or_sweep(slab["half_length"], "slab.half_length")

    dielectric = _parse_dielectric(raw["dielectric"], "dielectric") if "dielectric" in raw else None
    omega = _scalar_or_sweep(raw["omega"], "omega") if "omega" in raw else None
    source = _scalar_or_sweep(raw["source"], "source") if "source" in raw else None

    dipole, surface = 1.0, 1.0
    if "emission" in raw:
        emission = _object(raw["emission"], "emission", {"dipole_moment", "surface_unit"})
        dipole = _number(emission.get("dipole_moment", 1.0), "emission.dipole_moment")
        surface = _number(emission.get("surface_unit", 1.0), "emission.surface_unit")

    quad_tol = _DEFAULT_TOL
    if "tolerances" in raw:
        tolerances = _object(raw["tolerances"], "tolerances", {"quadrature"})
        quad_tol = _number(tolerances.get("quadrature", _DEFAULT_TOL), "tolerances.quadrature")
        if not quad_tol > 0.0:
            raise ConfigError("tolerances.quadrature", "must be positive")

    limit_path = None
    if "limit_path" in raw:
        node = raw["limit_path"]
        if not isinstance(node, list) or not node:
            raise ConfigError("limit_path", "expected a non-empty list of [re, im] pairs")
        limit_path = [_complex_pair(item, f"limit_path[{i}]") for i, item in enumerate(node)]

    separations = None
    if "separations" in raw:
        separations = _rows(raw["separations"], "separations", "[x, y, z]")
        for i, point in enumerate(separations):
            if point == (0.0, 0.0, 0.0):
                raise ConfigError(f"separations[{i}]", "coincident points: the full tensor is singular at r = 0")

    output_path = None
    if "output" in raw:
        output = _object(raw["output"], "output", {"path", "format"})
        if output.get("format", "csv") != "csv":
            raise ConfigError("output.format", "only 'csv' is supported")
        if "path" in output:
            if not isinstance(output["path"], str):
                raise ConfigError("output.path", "expected a string")
            output_path = output["path"]

    return RunConfig(
        units=units,
        slab_half_length=half_length,
        dielectric=dielectric,
        omega=omega,
        source=source,
        dipole_moment=dipole,
        surface_unit=surface,
        quad_tol=quad_tol,
        limit_path=limit_path,
        separations=separations,
        output_path=output_path,
    )


class _Table(namedtuple("_Table", "values errors kept", defaults=(None, 0))):
    """CSV rows of a subcommand.

    Each row of the float array `values` is one line. With an error record
    (see errors.row_errors, one entry per row in row order) the header ends
    in an `error` column and every line in an error cell: empty on a good
    row, while a failed row keeps its first `kept` cells, leaves the others
    blank and ends in its message. No `__slots__`: `failed` is cached.
    """

    @cached_property
    def failed(self) -> list:
        """Indices of the rows that carry an error message."""
        return [] if self.errors is None else np.flatnonzero(np.not_equal(self.errors, None)).tolist()


def _require(value, path):
    if value is None:
        raise ConfigError(path, "required for this subcommand")
    return value


def _scalar(value, path):
    value = _require(value, path)
    if isinstance(value, np.ndarray):
        raise ConfigError(path, "a sweep is not allowed here; give a single number")
    return value


def _values(value, path):
    return np.atleast_1d(_require(value, path))


def _tolerance(config, args):
    return args.tol if args.tol is not None else config.quad_tol


def _emission_params(config, consts, errors=None):
    return EmissionParams(
        dipole_moment=config.dipole_moment,
        hbar=consts["hbar"],
        epsilon0=consts["epsilon0"],
        surface_unit=config.surface_unit,
        errors=errors,
    )


def _complex(name, z):
    """The real and imaginary parts of z as the columns name_re and name_im."""
    return [(f"{name}_re", np.real(z)), (f"{name}_im", np.imag(z))]


def _columns(columns):
    """The header and the float rows of a subcommand's (name, values) columns.

    The values broadcast against each other; the rows run over the broadcast
    shape in C order. The writer adds the `error` column of a table that has
    an error record.
    """
    header, arrays = zip(*columns)
    return header, np.stack(np.broadcast_arrays(*arrays), axis=-1).reshape(-1, len(header))


def _cmd_coefficients(config, consts, args):
    """Slab amplitudes A, B, C, D, Y per frequency."""
    geometry = SlabGeometry(_scalar(config.slab_half_length, "slab.half_length"))
    model = _require(config.dielectric, "dielectric")
    omega = _values(config.omega, "omega")
    errors = row_errors(omega.shape)
    ctx = make_context(geometry, model, omega, c=consts["c"], errors=errors)
    raise_first(errors)
    co = ctx.coefficients
    abs_a_sq = abs(co.A) ** 2
    abs_d_sq = abs(co.D) ** 2
    defect = 1.0 - abs_a_sq - abs_d_sq
    header, values = _columns([
        ("omega", omega), ("k", ctx.k), *_complex("n", ctx.n),
        *_complex("a", co.A), *_complex("b", co.B), *_complex("c", co.C), *_complex("d", co.D), *_complex("y", co.Y),
        ("abs_a_sq", abs_a_sq), ("abs_d_sq", abs_d_sq), ("unitarity_defect", defect),
    ])
    worst = float(np.max(abs(defect), initial=0.0))
    summary = [f"coefficients: {len(values)} rows, max |1 - |A|^2 - |D|^2| = {worst:.6e}"]
    return header, _Table(values), summary, 0


def _cmd_verify_identity(config, consts, args):
    """Check the corrected identity on an (x_a, x_b) grid."""
    geometry = SlabGeometry(_scalar(config.slab_half_length, "slab.half_length"))
    model = _require(config.dielectric, "dielectric")
    sources = _values(config.source, "source")
    tol = _tolerance(config, args)
    # Rows run over omega, then x_a, then x_b: one context row per omega.
    omega = _values(config.omega, "omega")[:, None, None]
    x_a, x_b = sources[:, None], sources
    errors = row_errors(omega.shape)
    ctx = make_context(geometry, model, omega, c=consts["c"], errors=errors)
    grid = np.broadcast_to(errors, (len(omega), len(sources), len(sources))).copy()
    rep = identity_report(x_a, x_b, ctx, tol=tol, errors=grid)
    res_corr, res_unc = rep.residual_corrected, rep.residual_uncorrected
    header, values = _columns([
        ("omega", omega), ("x_a", x_a), ("x_b", x_b), *_complex("lhs", rep.lhs), ("im_g", rep.im_g),
        *_complex("f", rep.f), *_complex("residual_corrected", res_corr), *_complex("residual_uncorrected", res_unc),
        ("quadrature_error", rep.quadrature_estimate_error),
    ])
    table = _Table(values, rep.error, len(header))
    worst = np.max(abs(res_corr))  # a NaN residual shows
    summary = [f"verify-identity: {len(values)} rows, max |lhs - Im G - F| = {worst:.6e} (tol {tol:.1e})"]
    status = 2 if table.failed or not (abs(res_corr) <= tol).all() else 0  # NaN fails too
    return header, table, summary, status


def _sweep_axis(config):
    axes = {
        "position": config.source,
        "thickness": config.slab_half_length,
        "frequency": config.omega,
    }
    swept = [name for name, value in axes.items() if isinstance(value, np.ndarray)]
    if len(swept) != 1:
        raise ConfigError(
            None,
            "decay-scan needs exactly one sweep among source, slab.half_length and omega; "
            f"found {len(swept)}",
        )
    return swept[0]


def _cmd_decay_scan(config, consts, args):
    """Emission rates over a position, thickness or frequency sweep."""
    axis = _sweep_axis(config)
    tol = _tolerance(config, args)

    # _sweep_axis leaves exactly one of the three as a sweep; the other two
    # are one-element arrays that broadcast along it.
    omega = _values(config.omega, "omega")
    half_length = _values(config.slab_half_length, "slab.half_length")
    x_s = _values(config.source, "source")

    model = _require(config.dielectric, "dielectric")
    errors = row_errors(max(map(len, (omega, half_length, x_s))))
    geometry = SlabGeometry(half_length, errors=errors)
    ctx = make_context(geometry, model, omega, c=consts["c"], errors=errors)
    params = _emission_params(config, consts, errors)
    rep = decay_report(params, ctx, x_s, oracle_tol=tol if args.oracle else None, errors=errors)
    with np.errstate(all="ignore"):  # the numbers of failed rows are never written
        columns = [
            ("omega", omega), ("half_length", half_length), ("x_s", x_s), ("gamma", rep.gamma_corrected),
            ("gamma_uncorrected", rep.gamma_uncorrected), ("gamma_vac_1d", rep.gamma_vac_1d),
            ("normalized_corrected", rep.normalized_corrected), ("normalized_uncorrected", rep.normalized_uncorrected),
        ]
        if args.oracle:
            scaled = abs(rep.gamma_quadrature - rep.gamma_corrected) / rep.gamma_vac_1d
            columns += [("gamma_quadrature", rep.gamma_quadrature), ("quadrature_error_scaled", scaled)]
    header, values = _columns(columns)
    table = _Table(values, errors, 3)
    summary = [f"decay-scan ({axis}): {len(errors)} rows, {len(table.failed)} failed"]
    return header, table, summary, 2 if table.failed else 0


def _cmd_limit_study(config, consts, args):
    """Diagnostics along a permittivity path approaching vacuum."""
    geometry = SlabGeometry(_scalar(config.slab_half_length, "slab.half_length"))
    k = _scalar(config.omega, "omega") / consts["c"]
    params = _emission_params(config, consts)
    x_source = None if config.source is None else _scalar(config.source, "source")
    path = config.limit_path if config.limit_path is not None else _DEFAULT_LIMIT_PATH
    errors = row_errors(len(path))
    study = limit_study(params, geometry, path, k, x_source=x_source, errors=errors)
    eps = study.epsilon
    header, values = _columns([
        *_complex("eps", eps), ("gamma", study.gamma), ("gamma_uncorrected", study.gamma_uncorrected),
        ("f_plus_im_g0", study.f_plus_im_g0), ("abs_a_sq", study.abs_a_sq), ("abs_d_sq", study.abs_d_sq),
    ])
    table = _Table(values, errors, 2)
    summary = [f"limit-study: {len(path)} rows, {len(table.failed)} failed"]
    good = np.flatnonzero(np.equal(errors, None))
    if good.size:
        last = good[-1]
        summary.append(
            f"limit-study: at eps = {complex(eps[last])}, gamma/gamma_vac = "
            f"{study.gamma[last] / params.gamma_vacuum_1d(k):.3e}, F + Im G0 = {study.f_plus_im_g0[last]:.3e}"
        )
    return header, table, summary, 2 if table.failed else 0


def _cmd_tensor3d(config, consts, args):
    """Free-space dyadic tensor components and the vacuum rate."""
    omega = _scalar(config.omega, "omega")
    k = omega / consts["c"]
    separations = _require(config.separations, "separations")
    gamma0 = vacuum_decay_3d(_emission_params(config, consts), k)
    im_diag = im_green_coincident(k)[0, 0]
    tensors = green_tensor_vacuum(k, separations, (0.0, 0.0, 0.0))
    components = zip((f"g_{i}{j}" for i in "xyz" for j in "xyz"), tensors.reshape(-1, 9).T)
    header, values = _columns([
        *zip(("r_x", "r_y", "r_z"), np.transpose(separations)),
        *(column for name, z in components for column in _complex(name, z)),
        ("im_g0_coincident_diag", im_diag), ("gamma0", gamma0),
    ])
    summary = [
        f"tensor3d: {len(values)} rows at omega = {omega}",
        f"tensor3d: gamma0 = {gamma0:.12e}, Im G0 coincident diagonal = {im_diag:.12e}",
    ]
    return header, _Table(values), summary, 0


_COMMANDS = {
    "coefficients": _cmd_coefficients,
    "verify-identity": _cmd_verify_identity,
    "decay-scan": _cmd_decay_scan,
    "limit-study": _cmd_limit_study,
    "tensor3d": _cmd_tensor3d,
}


def _write_csv(path, header, table):
    """Write the header and the rows, formatting a block of rows at a time.

    Every number goes through the "%.17g" template, which gives the same text
    as format(float(value), ".17g"): a good row through the row template, a
    failed row's kept cells through a template of `kept` cells.
    """
    values, kept = table.values, table.kept
    width = values.shape[1]
    row = ["%.17g"] * width
    if table.errors is not None:  # the error column, empty on a good row
        header, row = [*header, "error"], [*row, ""]
    line = ",".join(row) + "\n"
    output = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with output as handle:
        handle.write(",".join(header) + "\n")
        start = 0
        for stop in [*table.failed, len(values)]:
            for first in range(start, stop, _BLOCK_ROWS):
                block = values[first:min(first + _BLOCK_ROWS, stop)]
                handle.write(line * len(block) % tuple(block.ravel().tolist()))
            if stop < len(values):
                cells = "%.17g," * kept % tuple(values[stop, :kept].tolist()) + "," * (width - kept)
                # The message lands in a CSV cell; keep it comma-free.
                handle.write(cells + table.errors.flat[stop].replace(",", ";") + "\n")
            start = stop + 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like configuration errors, instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run configuration")
    common.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    common.add_argument("--tol", type=float, default=None,
                        help="quadrature tolerance, overrides the config (default 1e-8)")
    common.add_argument("--oracle", action="store_true",
                        help="add quadrature cross-check columns where applicable (decay-scan)")
    common.add_argument("--units", choices=["natural", "si"], default=None,
                        help="unit system, overrides the config (default natural)")
    parser = _Parser(prog="slabgreen", description="Slab Green function verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=func.__doc__)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.tol is not None and not 0.0 < args.tol < math.inf:
            raise ConfigError(None, "--tol must be positive and finite")
        units = args.units if args.units is not None else config.units
        consts = _CONSTANTS[units]
        header, table, summary, status = _COMMANDS[args.command](config, consts, args)
        _write_csv(args.out if args.out is not None else config.output_path, header, table)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in summary:
        print(line, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
