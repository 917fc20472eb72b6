"""Command-line front end: JSON config in, deterministic CSV out.

CSV goes to --out (default stdout) with a fixed header, 17-significant-digit
floats and '\n' line endings, so identical configs give byte-identical
files. Human-readable summaries go to stderr. Exit codes: 0 success, 1
configuration or validation error, 2 numerical tolerance violation, 3 output
I/O error. `slabgreen --help` lists the subcommands and the options.
"""

import ctypes
import gc
import importlib
import os
import sys

import numpy as np

from . import _DEFINED_IN, __getattr__  # noqa: F401
from .config import _CONSTANTS, _MAX_COUNT, _positive, parse_config
from .errors import ConfigError, DomainError, raise_first, row_errors
from .writer import _blocks, _checked_blocks, _complex, _write_csv
from . import writer


def _load(*modules):
    """Import `modules` and bind each here with its public names, except a name already bound, such as a tracing wrapper.

    Before main() loads them, the package's __getattr__ (PEP 562) resolves a name looked up here, as cli.make_context.
    """
    for module in modules:
        source = globals().setdefault(module, importlib.import_module(f".{module}", __package__))
        for name in _DEFINED_IN[module].split():
            globals().setdefault(name, getattr(source, name))


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


def _context_check(geometry, model, omega, c):
    """A check for _checked_blocks that also returns a block's contexts; a failing row raises its DomainError."""
    def contexts(rows):
        errors = row_errors(omega[rows].shape)
        ctx = make_context(geometry, model, omega[rows], c=c, errors=errors)
        raise_first(errors)
        return ctx

    return contexts


def _identity_blocks(contexts, count, sources, tol):
    """The blocks of verify-identity's grid of omegas x sources x sources, once all are checked.

    Rows run over omega, then x_a, then x_b. `contexts` is the _context_check
    of the `count` omegas, taken writer._SWEEP_ROWS at a time; a block holds
    as many whole (omega, x_a) rows as fit in writer._SWEEP_ROWS rows, at
    least one. Every context is checked, then each source's checks
    (slab_green._outgoing) at each omega, which a pair fails exactly where one
    of its sources does. Then each omega row's interior integral is computed
    once; each block gives its omega rows, x_a, context and integral.
    """
    size = len(sources)
    step = max(1, writer._SWEEP_ROWS // size)  # (omega, x_a) rows per block

    @np.errstate(all="ignore")  # an overflowing phase fails its row
    def source_checks(chunk):
        ctx = contexts(chunk)
        errors = row_errors((ctx.shape[0], size))
        slab_green._outgoing(ctx.take(np.arange(ctx.shape[0])[:, None]), sources, errors=errors)
        raise_first(errors)

    for chunk in _checked_blocks(count, contexts, source_checks):
        rows = contexts(chunk)
        stalls = row_errors(rows.shape)
        value, estimate = identity.interior_integral(rows, tol, stalls)
        pairs = range(chunk.start * size, min(chunk.stop, count) * size)
        for start in range(pairs.start, pairs.stop, step):
            pair = np.arange(start, min(start + step, pairs.stop))
            w = pair // size - chunk.start
            if w[0] == w[-1]:  # one omega row: one context row, and an omega column the writer formats once
                w = w[:1]
            w = w[:, None]
            yield chunk.start + w, sources[pair % size, None], rows.take(w), (value[w], estimate[w], stalls[w])


def _cmd_coefficients(config, consts, oracle):
    """Slab amplitudes A, B, C, D, Y per frequency."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    model = _require(config, "dielectric")
    omega = _values(config, "omega")
    contexts = _context_check(geometry, model, omega, consts["c"])
    worst = 0.0
    for rows in _checked_blocks(len(omega), contexts):
        ctx = contexts(rows)
        co = ctx.coefficients
        abs_a_sq, abs_d_sq, defect = slab_green._power_balance(ctx)
        yield [
            ("omega", omega[rows]), ("k", ctx.k), *_complex("n", ctx.n),
            *_complex("a", co.A), *_complex("b", co.B), *_complex("c", co.C), *_complex("d", co.D), *_complex("y", co.Y),
            ("abs_a_sq", abs_a_sq), ("abs_d_sq", abs_d_sq), ("unitarity_defect", defect),
        ], None
        worst = np.maximum(worst, np.max(abs(defect), initial=0.0))  # a NaN shows
    return [f"coefficients: {len(omega)} rows, max |1 - |A|^2 - |D|^2| = {worst:.6e}"], 0


def _cmd_verify_identity(config, consts, oracle):
    """Check the corrected identity on an (x_a, x_b) grid."""
    geometry = SlabGeometry(_scalar(config, "slab.half_length"))
    model = _require(config, "dielectric")
    sources = _values(config, "source")
    tol = config["tolerances.quadrature"]
    omega = _values(config, "omega")
    rows = len(omega) * len(sources) ** 2
    if rows > _MAX_COUNT:  # checked before any context is made
        raise ConfigError("source", f"the omega x source x source grid has {rows} rows, more than {_MAX_COUNT}")
    contexts = _context_check(geometry, model, omega, consts["c"])
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


def _cmd_decay_scan(config, consts, oracle):
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
        rep = decay_report(params, ctx, x_s, oracle_tol=tol if oracle else None, errors=errors)
        with np.errstate(all="ignore"):  # the numbers of failed rows are never written
            columns = [
                ("omega", omega), ("half_length", half_length), ("x_s", x_s), ("gamma", rep.gamma_corrected),
                ("gamma_uncorrected", rep.gamma_uncorrected), ("gamma_vac_1d", rep.gamma_vac_1d),
                ("normalized_corrected", rep.normalized_corrected), ("normalized_uncorrected", rep.normalized_uncorrected),
            ]
            if oracle:
                scaled = abs(rep.gamma_quadrature - rep.gamma_corrected) / rep.gamma_vac_1d
                columns += [("gamma_quadrature", rep.gamma_quadrature), ("quadrature_error_scaled", scaled)]
        yield columns, errors
        good = np.equal(errors, None)
        failed += good.size - np.count_nonzero(good)
        if oracle:
            # A quadrature within tol moves the scaled column by at most 2k tol; NaN fails too.
            over += np.count_nonzero(good & ~(scaled <= 2.0 * ctx.k * tol))
    summary = [f"decay-scan ({swept[0]}): {total} rows, {failed} failed"]
    if over:
        summary.append(f"decay-scan: {over} rows with quadrature_error_scaled > 2 k tol (tol {tol:.1e})")
    return summary, 2 if failed or over else 0


def _cmd_limit_study(config, consts, oracle):
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


def _cmd_tensor3d(config, consts, oracle):
    """Free-space dyadic tensor components and the vacuum rate."""
    omega = _scalar(config, "omega")
    k = omega / consts["c"]
    separations = _require(config, "separations")
    origin = (0.0, 0.0, 0.0)
    # Each check runs over every separation, as one call would; a failing tensor is reported before the rate.
    checks = [lambda rows, f=f: f(k, separations[rows], origin)
              for f in (vacuum3d._tensor_separation, green_tensor_vacuum)]
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


# Each subcommand, given the config, its constants and --oracle, yields its
# table's parts (see writer._write_csv) and returns its summary lines and exit
# status; with it, the leading cells a failed row keeps (None: all), the modules it
# runs and those that --oracle adds (main() loads these first; see _load).
_COMMANDS = {
    "coefficients": (_cmd_coefficients, 0, ("slab_green",), ()),
    "verify-identity": (_cmd_verify_identity, None, ("identity", "slab_green"), ()),
    "decay-scan": (_cmd_decay_scan, 3, ("emission", "slab_green", "vacuum3d"), ("identity",)),
    "limit-study": (_cmd_limit_study, 2, ("emission", "slab_green", "vacuum3d"), ()),
    "tensor3d": (_cmd_tensor3d, 0, ("vacuum3d",), ()),
}

# Each option's spec ("=": it takes a value) and help line; --config, required, first and --help last.
_OPTIONS = {
    "config=": ("--config PATH", "the JSON run configuration"),
    "out=": ("--out PATH", "CSV output path (default: stdout)"),
    "tol=": ("--tol X", "quadrature tolerance, overrides the config (default 1e-8)"),
    "oracle": ("--oracle", "add quadrature cross-check columns (decay-scan)"),
    "units=": (f"--units {'|'.join(_CONSTANTS)}", "unit system, overrides the config (default natural)"),
    "help": ("-h, --help", "print this help and exit"),
}
_USAGE = "usage: slabgreen <subcommand> --config PATH " + " ".join(f"[{flag}]" for flag, _ in list(_OPTIONS.values())[1:-1])
_HELP = "\n".join([
    _USAGE, "", "Slab Green function verification toolkit. Subcommands:",
    *(f"  {name:20}{func.__doc__ or ''}" for name, (func, *_) in _COMMANDS.items()),
    "", "Options (a unique prefix, such as --conf, works too, and so does --option=value):",
    *(f"  {flag:20}{text}" for flag, text in _OPTIONS.values()), ""])


class _UsageError(Exception):
    """A command line that does not follow the usage line."""


def _options(args):
    """The options and the remaining arguments, read as getopt.getopt(args, "h", _OPTIONS) reads them.

    getopt is not imported: it loads gettext for its messages, which cost
    every process about 0.1 MB of peak RSS (see README, "Start-up"). A
    repeated option's last value wins.
    """
    options = {}
    while args and args[0].startswith("-") and args[0] != "-":
        arg, args = args[0], args[1:]
        if arg == "--":
            break
        if not arg.startswith("--"):  # -h, or a run of them
            for letter in arg[1:]:
                if letter != "h":
                    raise _UsageError(f"option -{letter} not recognized")
                options["h"] = ""
            continue
        name, has_value, value = arg[2:].partition("=")
        specs = [spec for spec in _OPTIONS if spec.startswith(name)]
        if not specs:
            raise _UsageError(f"option --{name} not recognized")
        if name not in specs and f"{name}=" not in specs:  # a prefix, which must be unique
            if len(specs) > 1:
                raise _UsageError(f"option --{name} not a unique prefix")
            name = specs[0].rstrip("=")
        if f"{name}=" not in _OPTIONS:
            if has_value:
                raise _UsageError(f"option --{name} must not have an argument")
        elif not has_value:
            if not args:
                raise _UsageError(f"option --{name} requires argument")
            value, args = args[0], args[1:]
        options[name] = value
    return options, args


def _parse(argv):
    """Read `<subcommand> [options]`: the subcommand, None for --help, and the options; a usage error raises."""
    command = argv[0] if argv else None
    options, stray = _options(argv[1:] if command in _COMMANDS else argv)
    if "h" in options or "help" in options:
        return None, options
    if command not in _COMMANDS:
        raise _UsageError(f"the first argument must be a subcommand: {', '.join(_COMMANDS)}")
    if stray:
        raise _UsageError(f"unrecognized arguments: {' '.join(stray)}")
    if "config" not in options:
        raise _UsageError("the following arguments are required: --config")
    if "units" in options and options["units"] not in _CONSTANTS:
        raise _UsageError(f"argument --units: invalid choice: {options['units']!r}")
    try:
        if "tol" in options:
            options["tol"] = float(options["tol"])
    except ValueError:
        raise _UsageError(f"argument --tol: invalid float value: {options['tol']!r}") from None
    return command, options


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The subcommand's modules load first, and those its --oracle adds ahead of them (see
    # README, "What sets peak RSS").
    if argv and argv[0] in _COMMANDS:
        _load(*(_COMMANDS[argv[0]][3] if "--oracle" in argv else ()), *_COMMANDS[argv[0]][2])
    try:
        command, options = _parse(argv)
        if command is None:  # with no stdout (fd 1 closed) the help goes to stderr
            print(_HELP, end="", file=sys.stdout or sys.stderr, flush=True)
            return 0
        if "oracle" in options:  # an abbreviated --oracle, such as --orac, loads them here
            _load(*_COMMANDS[command][3])
        config = parse_config(options["config"])
        if "tol" in options:
            _positive(options["tol"], "--tol")
        for key, name in (("units", "units"), ("tolerances.quadrature", "tol"), ("output.path", "out")):
            if name in options:
                config[key] = options[name]
        if _malloc_trim is not None:  # hand the import's and the parse's freed heap back to the OS
            _malloc_trim(0)
        run_command, kept, *_ = _COMMANDS[command]
        parts = run_command(config, _CONSTANTS[config["units"]], "oracle" in options)
        summary, status = _write_csv(config["output.path"], parts, kept)
    except _UsageError as exc:
        print(f"{_USAGE}\nslabgreen: error: {exc}", file=sys.stderr)
        return 1
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
    status = main()
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
