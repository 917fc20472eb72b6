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
import gc
import json
import math
import os
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

# CSV rows formatted and written at a time. At 256 the writer's floats and
# text for a 17-column table stay near 0.3 MB, below the compute peak of a
# 30000-row sweep, and the write is no slower than with larger blocks.
_BLOCK_ROWS = 256
# The most values a sweep may hold. A 300000-row coefficients run peaks at 77 MB.
_MAX_COUNT = 10**6


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


def _unique_keys(pairs):
    """A JSON object's dict; a key given twice is an error, like an unknown key."""
    node = dict(pairs)
    if len(node) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(key, "duplicate key")
            seen.add(key)
    return node


def _path(path):
    """The text of a config path: a string, or a (path, index) pair such as (("separations", 3), 1).

    Number lists name their entries by pairs, so the text, here
    "separations[3][1]", is built only for an error message.
    """
    if not isinstance(path, tuple):
        return path
    parent, index = path
    return f"{_path(parent)}[{index}]"


def _number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(_path(path), "expected a number")
    # NaN fails every comparison, and integers too large for a float fail
    # here before float() could overflow.
    if not abs(node) <= sys.float_info.max:
        raise ConfigError(_path(path), "expected a finite number")
    return float(node)


def _complex_pair(node, path):
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(_number(node, path), 0.0)
    if isinstance(node, list) and len(node) == 2:
        return complex(_number(node[0], (path, 0)), _number(node[1], (path, 1)))
    raise ConfigError(_path(path), "expected a number or a [re, im] pair")


def _rows(node, path, shape):
    """Check for a non-empty list of number rows as wide as `shape`, e.g. "[x, y, z]"."""
    if not isinstance(node, list) or not node:
        raise ConfigError(path, f"expected a non-empty list of {shape}")
    width = shape.count(",") + 1
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != width:
            raise ConfigError(f"{path}[{i}]", f"expected {shape}")
        rows.append(tuple(_number(v, ((path, i), j)) for j, v in enumerate(row)))
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
        if count > _MAX_COUNT:
            raise ConfigError(f"{path}.count", f"expected an integer <= {_MAX_COUNT}")
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


def _choice(choices, message):
    """A reader that accepts one of `choices`, a tuple, so an unhashable node fails the test, not a hash."""
    def read(node, path):
        if node not in choices:
            raise ConfigError(path, message)
        return node
    return read


def _positive(node, path):
    value = _number(node, path)
    if not value > 0.0:
        raise ConfigError(path, "must be positive")
    return value


def _complex_list(node, path):
    if not isinstance(node, list) or not node:
        raise ConfigError(path, "expected a non-empty list of [re, im] pairs")
    return [_complex_pair(item, (path, i)) for i, item in enumerate(node)]


def _separations(node, path):
    separations = _rows(node, path, "[x, y, z]")
    for i, point in enumerate(separations):
        if point == (0.0, 0.0, 0.0):
            raise ConfigError(f"{path}[{i}]", "coincident points: the full tensor is singular at r = 0")
    return separations


def _string(node, path):
    if not isinstance(node, str):
        raise ConfigError(path, "expected a string")
    return node


_REQUIRED = object()
# Every config key: its dotted path -> (reader, default), in the order the
# keys are read and checked. A key missing from its object takes the
# default. A _REQUIRED key must be in its object whenever the object is
# given, and is None when the object is not.
_KEYS = {
    "units": (_choice(("natural", "si"), "expected 'natural' or 'si'"), "natural"),
    "slab.half_length": (_scalar_or_sweep, _REQUIRED),
    "dielectric": (_parse_dielectric, None),
    "omega": (_scalar_or_sweep, None),
    "source": (_scalar_or_sweep, None),
    "emission.dipole_moment": (_number, 1.0),
    "emission.surface_unit": (_number, 1.0),
    "tolerances.quadrature": (_positive, 1e-8),
    # limit-study's permittivity path: eps = 1 + i 10^-m.
    "limit_path": (_complex_list, tuple(complex(1.0, 10.0**-m) for m in range(1, 9))),
    "separations": (_separations, None),
    "output.format": (_choice(("csv",), "only 'csv' is supported"), "csv"),
    "output.path": (_string, None),
}


def parse_config(path: str) -> dict:
    """Load and validate a JSON run configuration: the value of each _KEYS path.

    Unknown and repeated keys are errors. The file is read as bytes, so json
    detects UTF-8, -16 or -32 (RFC 8259) whatever the locale's encoding.
    """
    try:
        with open(path, "rb") as handle:
            raw = json.loads(handle.read(), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(None, f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(None, f"invalid JSON: {exc}") from exc
    objects = {"": _object(raw, None, {key.partition(".")[0] for key in _KEYS})}
    config = {}
    for key, (read, default) in _KEYS.items():
        parent, _, name = key.rpartition(".")
        if parent not in objects:  # the first key of a nested object checks the object
            names = {k.rpartition(".")[2]: d for k, (_, d) in _KEYS.items() if k.startswith(f"{parent}.")}
            required = [n for n, d in names.items() if d is _REQUIRED]
            objects[parent] = _object(raw[parent], parent, names, required) if parent in raw else {}
        node = objects[parent]
        config[key] = read(node[name], key) if name in node else (None if default is _REQUIRED else default)
    return config


class _Table(namedtuple("_Table", "columns errors kept", defaults=(None, 0))):
    """CSV rows of a subcommand, held as its columns.

    `columns` are 1-d float arrays of one length, one per CSV column, and
    their i-th entries make line i. With an error record
    (see errors.row_errors, one entry per row in row order) the header ends
    in an `error` column and every line in an error cell: empty on a good
    row, while a failed row keeps its first `kept` cells, leaves the others
    blank and ends in its message. No `__slots__`: `failed` is cached.
    """

    @cached_property
    def failed(self) -> list:
        """Indices of the rows that carry an error message."""
        return [] if self.errors is None else np.flatnonzero(np.not_equal(self.errors, None)).tolist()


def _require(config, path):
    if config[path] is None:
        raise ConfigError(path, "required for this subcommand")
    return config[path]


def _scalar(config, path):
    value = _require(config, path)
    if isinstance(value, np.ndarray):
        raise ConfigError(path, "a sweep is not allowed here; give a single number")
    return value


def _values(config, path):
    return np.atleast_1d(_require(config, path))


def _emission_params(config, consts, errors=None):
    return EmissionParams(
        dipole_moment=config["emission.dipole_moment"],
        hbar=consts["hbar"],
        epsilon0=consts["epsilon0"],
        surface_unit=config["emission.surface_unit"],
        errors=errors,
    )


def _complex(name, z):
    """The real and imaginary parts of z as the columns name_re and name_im."""
    return [(f"{name}_re", np.real(z)), (f"{name}_im", np.imag(z))]


def _columns(columns):
    """The header and the 1-d columns of a subcommand's (name, values) pairs.

    The values broadcast against each other; the rows run over the broadcast
    shape in C order. A column is a view where reshaping allows, so a value
    broadcast along a 1-d sweep stays one value with stride 0. The writer
    adds the `error` column of a table that has an error record.
    """
    header, arrays = zip(*columns)
    return header, [array.reshape(-1) for array in np.broadcast_arrays(*arrays)]


def _cmd_coefficients(config, consts, args):
    """Slab amplitudes A, B, C, D, Y per frequency."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    model = _require(config, "dielectric")
    omega = _values(config, "omega")
    errors = row_errors(omega.shape)
    ctx = make_context(geometry, model, omega, c=consts["c"], errors=errors)
    raise_first(errors)
    co = ctx.coefficients
    abs_a_sq = abs(co.A) ** 2
    abs_d_sq = abs(co.D) ** 2
    defect = 1.0 - abs_a_sq - abs_d_sq
    header, columns = _columns([
        ("omega", omega), ("k", ctx.k), *_complex("n", ctx.n),
        *_complex("a", co.A), *_complex("b", co.B), *_complex("c", co.C), *_complex("d", co.D), *_complex("y", co.Y),
        ("abs_a_sq", abs_a_sq), ("abs_d_sq", abs_d_sq), ("unitarity_defect", defect),
    ])
    worst = float(np.max(abs(defect), initial=0.0))
    summary = [f"coefficients: {len(omega)} rows, max |1 - |A|^2 - |D|^2| = {worst:.6e}"]
    return header, _Table(columns), summary, 0


def _cmd_verify_identity(config, consts, args):
    """Check the corrected identity on an (x_a, x_b) grid."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    model = _require(config, "dielectric")
    sources = _values(config, "source")
    tol = config["tolerances.quadrature"]
    # Rows run over omega, then x_a, then x_b: one context row per omega.
    omega = _values(config, "omega")[:, None, None]
    x_a, x_b = sources[:, None], sources
    errors = row_errors(omega.shape)
    ctx = make_context(geometry, model, omega, c=consts["c"], errors=errors)
    grid = np.broadcast_to(errors, (len(omega), len(sources), len(sources))).copy()
    rep = identity_report(x_a, x_b, ctx, tol=tol, errors=grid)
    res_corr, res_unc = rep.residual_corrected, rep.residual_uncorrected
    header, columns = _columns([
        ("omega", omega), ("x_a", x_a), ("x_b", x_b), *_complex("lhs", rep.lhs), ("im_g", rep.im_g),
        *_complex("f", rep.f), *_complex("residual_corrected", res_corr), *_complex("residual_uncorrected", res_unc),
        ("quadrature_error", rep.quadrature_estimate_error),
    ])
    table = _Table(columns, rep.error, len(header))
    worst = np.max(abs(res_corr))  # a NaN residual shows
    summary = [f"verify-identity: {grid.size} rows, max |lhs - Im G - F| = {worst:.6e} (tol {tol:.1e})"]
    status = 2 if table.failed or not (abs(res_corr) <= tol).all() else 0  # NaN fails too
    return header, table, summary, status


def _sweep_axis(config):
    axes = {
        "position": config["source"],
        "thickness": config["slab.half_length"],
        "frequency": config["omega"],
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
    tol = config["tolerances.quadrature"]

    # _sweep_axis leaves exactly one of the three as a sweep; the other two
    # are one-element arrays that broadcast along it.
    omega = _values(config, "omega")
    half_length = _values(config, "slab.half_length")
    x_s = _values(config, "source")

    model = _require(config, "dielectric")
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
    header, columns = _columns(columns)
    table = _Table(columns, errors, 3)
    summary = [f"decay-scan ({axis}): {len(errors)} rows, {len(table.failed)} failed"]
    return header, table, summary, 2 if table.failed else 0


def _cmd_limit_study(config, consts, args):
    """Diagnostics along a permittivity path approaching vacuum."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    k = _scalar(config, "omega") / consts["c"]
    params = _emission_params(config, consts)
    x_source = None if config["source"] is None else _scalar(config, "source")
    path = config["limit_path"]
    errors = row_errors(len(path))
    study = limit_study(params, geometry, path, k, x_source=x_source, errors=errors)
    eps = study.epsilon
    header, columns = _columns([
        *_complex("eps", eps), ("gamma", study.gamma), ("gamma_uncorrected", study.gamma_uncorrected),
        ("f_plus_im_g0", study.f_plus_im_g0), ("abs_a_sq", study.abs_a_sq), ("abs_d_sq", study.abs_d_sq),
    ])
    table = _Table(columns, errors, 2)
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
    omega = _scalar(config, "omega")
    k = omega / consts["c"]
    separations = _require(config, "separations")
    gamma0 = vacuum_decay_3d(_emission_params(config, consts), k)
    im_diag = im_green_coincident(k)[0, 0]
    tensors = green_tensor_vacuum(k, separations, (0.0, 0.0, 0.0))
    components = zip((f"g_{i}{j}" for i in "xyz" for j in "xyz"), tensors.reshape(-1, 9).T)
    header, columns = _columns([
        *zip(("r_x", "r_y", "r_z"), np.transpose(separations)),
        *(column for name, z in components for column in _complex(name, z)),
        ("im_g0_coincident_diag", im_diag), ("gamma0", gamma0),
    ])
    summary = [
        f"tensor3d: {len(separations)} rows at omega = {omega}",
        f"tensor3d: gamma0 = {gamma0:.12e}, Im G0 coincident diagonal = {im_diag:.12e}",
    ]
    return header, _Table(columns), summary, 0


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
    as format(float(value), ".17g"). A column with stride 0 is one broadcast
    value: it is formatted once, into the row template. The other columns are
    copied into a block of rows only as that block is written, so no matrix
    of the whole table is made. A failed row's kept cells go through a
    template of `kept` cells.
    """
    columns, kept = table.columns, table.kept
    rows = len(columns[0])
    varying = [column for column in columns if column.strides[0]]
    row = ["%.17g" if column.strides[0] else "%.17g" % float(column[0]) for column in columns]
    if table.errors is not None:  # the error column, empty on a good row
        header, row = [*header, "error"], [*row, ""]
    line = ",".join(row) + "\n"
    block = np.empty((_BLOCK_ROWS, len(varying)))
    if path is None and sys.stdout is None:  # the process started with fd 1 closed
        raise OSError("standard output is closed; give --out")
    output = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with output as handle:
        handle.write(",".join(header) + "\n")
        start = 0
        for stop in [*table.failed, rows]:
            for first in range(start, stop, _BLOCK_ROWS):
                cells = block[:min(_BLOCK_ROWS, stop - first)]
                for j, column in enumerate(varying):
                    cells[:, j] = column[first:first + len(cells)]
                handle.write(line * len(cells) % tuple(cells.ravel().tolist()))
            if stop < rows:
                cells = "%.17g," * kept % tuple(float(column[stop]) for column in columns[:kept])
                # The message lands in a CSV cell; keep it comma-free.
                handle.write(cells + "," * (len(columns) - kept) + table.errors.flat[stop].replace(",", ";") + "\n")
            start = stop + 1
        handle.flush()  # a write error on stdout surfaces here, as exit 3, not at shutdown


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
        for key, flag in (("units", args.units), ("tolerances.quadrature", args.tol), ("output.path", args.out)):
            if flag is not None:
                config[key] = flag
        header, table, summary, status = _COMMANDS[args.command](config, _CONSTANTS[config["units"]], args)
        _write_csv(config["output.path"], header, table)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in summary:
        print(line, file=sys.stderr)
    return status


def run():
    """The process entry of `slabgreen` and `python -m slabgreen.cli`: exit with main()'s status.

    Once main() has returned, gc.freeze() moves every live object, most of
    them numpy's and the package's from import, out of the collector's
    reach, so the full collections of interpreter shutdown have next to
    nothing to scan. main() itself freezes nothing: tests and library
    callers run it in-process.
    """
    try:
        status = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        status = exc.code
    gc.freeze()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if status == 0:  # --help's text; main() reports a failed CSV write itself (exit 3)
            print(f"error: {exc}", file=sys.stderr)
            status = 3
        # Point fd 1 at devnull, so that shutdown's flush of the unwritten
        # text cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    run()
