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
import ctypes
import gc
import importlib
import os
import sys

import numpy as np

from .config import _CONSTANTS, _MAX_COUNT, _positive, parse_config
from .errors import ConfigError, DomainError, row_errors
from .writer import _blocks, _checked_blocks, _complex, _context_check, _identity_blocks, _write_csv

# The names the subcommands take from the modules that not all of them run.
# main() imports the subcommand's modules (_COMMANDS) and binds their names
# before it builds the parser; __getattr__ binds them on first use, as
# cli.make_context, for callers and tracing that look them up here.
_NAMES = {
    "slab_green": ("SlabGeometry", "make_context"),
    "identity": ("identity_report",),
    "vacuum3d": ("EmissionParams", "_tensor_separation", "green_tensor_vacuum", "im_green_coincident",
                 "vacuum_decay_3d"),
    "emission": ("decay_report", "limit_study"),
}


def _load(*modules):
    """Import `modules` and bind their _NAMES here, except a name already bound, such as a tracing wrapper."""
    for module in modules:
        source = importlib.import_module(f".{module}", __package__)
        for name in _NAMES[module]:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name):
    for module, names in _NAMES.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


try:  # glibc's malloc_trim; other C libraries lack it, and Windows loads no CDLL(None)
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


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


def _emission_params(config, consts):
    return EmissionParams(
        dipole_moment=config["emission.dipole_moment"],
        hbar=consts["hbar"],
        epsilon0=consts["epsilon0"],
        surface_unit=config["emission.surface_unit"],
    )


def _cmd_coefficients(config, consts, args):
    """Slab amplitudes A, B, C, D, Y per frequency."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    model = _require(config, "dielectric")
    omega = _values(config, "omega")
    contexts = _context_check(make_context, geometry, model, omega, consts["c"])
    worst = 0.0
    for rows in _checked_blocks(len(omega), contexts):
        ctx = contexts(rows)
        co = ctx.coefficients
        abs_a_sq = abs(co.A) ** 2
        abs_d_sq = abs(co.D) ** 2
        defect = 1.0 - abs_a_sq - abs_d_sq
        yield [
            ("omega", omega[rows]), ("k", ctx.k), *_complex("n", ctx.n),
            *_complex("a", co.A), *_complex("b", co.B), *_complex("c", co.C), *_complex("d", co.D), *_complex("y", co.Y),
            ("abs_a_sq", abs_a_sq), ("abs_d_sq", abs_d_sq), ("unitarity_defect", defect),
        ], None
        worst = np.maximum(worst, np.max(abs(defect), initial=0.0))  # a NaN shows
    return [f"coefficients: {len(omega)} rows, max |1 - |A|^2 - |D|^2| = {worst:.6e}"], 0


def _cmd_verify_identity(config, consts, args):
    """Check the corrected identity on an (x_a, x_b) grid."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    model = _require(config, "dielectric")
    sources = _values(config, "source")
    tol = config["tolerances.quadrature"]
    omega = _values(config, "omega")
    rows = len(omega) * len(sources) ** 2
    if rows > _MAX_COUNT:  # checked before any context is made
        raise ConfigError("source", f"the omega x source x source grid has {rows} rows, more than {_MAX_COUNT}")
    contexts = _context_check(make_context, geometry, model, omega, consts["c"])
    worst, status = 0.0, 0
    for w, x_a, ctx, interior in _identity_blocks(contexts, len(omega), sources, tol):
        rep = identity_report(x_a, sources, ctx, tol, interior)
        res_corr, res_unc = rep.residual_corrected, rep.residual_uncorrected
        yield [
            ("omega", omega[w]), ("x_a", x_a), ("x_b", sources), *_complex("lhs", rep.lhs), ("im_g", rep.im_g),
            *_complex("f", rep.f), *_complex("residual_corrected", res_corr), *_complex("residual_uncorrected", res_unc),
            ("quadrature_error", rep.quadrature_estimate_error),
        ], rep.error
        worst = np.maximum(worst, np.max(abs(res_corr)))  # a NaN residual shows
        if np.not_equal(rep.error, None).any() or not (abs(res_corr) <= tol).all():  # NaN fails too
            status = 2
    return [f"verify-identity: {rows} rows, max |lhs - Im G - F| = {worst:.6e} (tol {tol:.1e})"], status


def _cmd_decay_scan(config, consts, args):
    """Emission rates over a position, thickness or frequency sweep."""
    paths = {"frequency": "omega", "thickness": "slab.half_length", "position": "source"}
    swept = [axis for axis, path in paths.items() if isinstance(config[path], np.ndarray)]
    if len(swept) != 1:
        message = "decay-scan needs exactly one sweep among source, slab.half_length and omega"
        raise ConfigError(None, f"{message}; found {len(swept)}")
    # The other two are one-element arrays that broadcast along the sweep.
    sweep = [_values(config, path) for path in paths.values()]
    tol = config["tolerances.quadrature"]
    model = _require(config, "dielectric")
    params = _emission_params(config, consts)
    total = max(map(len, sweep))
    failed = over = 0
    for rows in _blocks(total):
        omega, half_length, x_s = (values if len(values) == 1 else values[rows] for values in sweep)
        errors = row_errors(max(map(len, (omega, half_length, x_s))))
        geometry = SlabGeometry(half_length, errors=errors)
        ctx = make_context(geometry, model, omega, c=consts["c"], errors=errors)
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
        yield columns, errors
        good = np.equal(errors, None)
        failed += good.size - np.count_nonzero(good)
        if args.oracle:
            # A quadrature within tol moves the scaled column by at most 2k tol; NaN fails too.
            over += np.count_nonzero(good & ~(scaled <= 2.0 * ctx.k * tol))
    summary = [f"decay-scan ({swept[0]}): {total} rows, {failed} failed"]
    if over:
        summary.append(f"decay-scan: {over} rows with quadrature_error_scaled > 2 k tol (tol {tol:.1e})")
    return summary, 2 if failed or over else 0


def _cmd_limit_study(config, consts, args):
    """Diagnostics along a permittivity path approaching vacuum."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    k = _scalar(config, "omega") / consts["c"]
    params = _emission_params(config, consts)
    x_source = None if config["source"] is None else _scalar(config, "source")
    path = config["limit_path"]
    failed = last = 0
    for rows in _blocks(len(path)):
        errors = row_errors(len(path[rows]))
        study = limit_study(params, geometry, path[rows], k, x_source=x_source, errors=errors)
        yield [
            *_complex("eps", study.epsilon), ("gamma", study.gamma), ("gamma_uncorrected", study.gamma_uncorrected),
            ("f_plus_im_g0", study.f_plus_im_g0), ("abs_a_sq", study.abs_a_sq), ("abs_d_sq", study.abs_d_sq),
        ], errors
        good = np.flatnonzero(np.equal(errors, None))
        failed += len(errors) - good.size
        if good.size:  # the last good row so far
            last = study._make(values[good[-1]] for values in study)
    summary = [f"limit-study: {len(path)} rows, {failed} failed"]
    if last:
        summary.append(
            f"limit-study: at eps = {complex(last.epsilon)}, gamma/gamma_vac = "
            f"{last.gamma / params.gamma_vacuum_1d(k):.3e}, F + Im G0 = {last.f_plus_im_g0:.3e}"
        )
    return summary, 2 if failed else 0


def _cmd_tensor3d(config, consts, args):
    """Free-space dyadic tensor components and the vacuum rate."""
    omega = _scalar(config, "omega")
    k = omega / consts["c"]
    separations = _require(config, "separations")
    origin = (0.0, 0.0, 0.0)
    # Each check runs over every separation, as one call would; a failing tensor is reported before the rate.
    checks = [lambda rows, f=f: f(k, separations[rows], origin) for f in (_tensor_separation, green_tensor_vacuum)]
    blocks = _checked_blocks(len(separations), *checks)
    gamma0 = vacuum_decay_3d(_emission_params(config, consts), k)
    im_diag = im_green_coincident(k)[0, 0]
    for rows in blocks:
        tensors = green_tensor_vacuum(k, separations[rows], origin)
        components = zip((f"g_{i}{j}" for i in "xyz" for j in "xyz"), tensors.reshape(-1, 9).T)
        yield [
            *zip(("r_x", "r_y", "r_z"), np.transpose(separations[rows])),
            *(column for name, z in components for column in _complex(name, z)),
            ("im_g0_coincident_diag", im_diag), ("gamma0", gamma0),
        ], None
    return [
        f"tensor3d: {len(separations)} rows at omega = {omega}",
        f"tensor3d: gamma0 = {gamma0:.12e}, Im G0 coincident diagonal = {im_diag:.12e}",
    ], 0


# Each subcommand yields its table's parts (see writer._write_csv) and returns
# its summary lines and exit status; with it, the number of leading cells a
# failed row keeps (None: all of them), and the _NAMES modules it runs.
_COMMANDS = {
    "coefficients": (_cmd_coefficients, 0, ("slab_green",)),
    "verify-identity": (_cmd_verify_identity, None, ("identity", "slab_green")),
    "decay-scan": (_cmd_decay_scan, 3, ("emission", "slab_green", "vacuum3d")),
    "limit-study": (_cmd_limit_study, 2, ("emission", "slab_green", "vacuum3d")),
    "tensor3d": (_cmd_tensor3d, 0, ("vacuum3d",)),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like configuration errors, instead of argparse's 2."""

    def print_help(self, file=None):
        if file is not None or sys.stdout is None:
            return super().print_help(file)
        # argparse's own print drops an unbuffered write's OSError; main() reports it as exit 3.
        sys.stdout.write(self.format_help())
        sys.stdout.flush()

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
    for name, (func, _, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=func.__doc__)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The subcommand's modules load before the parser is built (see README,
    # "What sets peak RSS"). argparse accepts a line only with the subcommand
    # first: the top-level parser takes -h alone.
    if argv and argv[0] in _COMMANDS:
        _load(*_COMMANDS[argv[0]][2])
    try:
        args = build_parser().parse_args(argv)
        config = parse_config(args.config)
        if args.tol is not None:
            _positive(args.tol, "--tol")
        for key, flag in (("units", args.units), ("tolerances.quadrature", args.tol), ("output.path", args.out)):
            if flag is not None:
                config[key] = flag
        if _malloc_trim is not None:  # hand the import's and the parse's freed heap back to the OS
            _malloc_trim(0)
        command, kept, _ = _COMMANDS[args.command]
        parts = command(config, _CONSTANTS[config["units"]], args)
        summary, status = _write_csv(config["output.path"], parts, kept)
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
    except OSError:  # main() has reported the failed write (exit 3)
        # Point fd 1 at devnull, so that shutdown's flush of the unwritten
        # text cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    run()
