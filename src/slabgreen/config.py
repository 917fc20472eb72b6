"""The run configuration: a JSON file read and checked into a dict keyed by dotted path.

`_KEYS` names every key once, with its reader and default; `parse_config`
walks it. A value that fails its reader raises ConfigError with the key's
path, which the command line reports as exit 1.
"""

import json
import sys

import numpy as np

from .errors import ConfigError, DomainError

# The most values a sweep may hold. A 300000-row coefficients run peaks at 33.6 MB.
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
    from .dielectric import Constant, Drude, DrudeLorentz, Tabulated  # imported for a `dielectric` key alone

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
    """A complex128 array, filled entry by entry, so no list of Python complex objects is kept."""
    if not isinstance(node, list) or not node:
        raise ConfigError(path, "expected a non-empty list of [re, im] pairs")
    values = np.empty(len(node), complex)
    for i, item in enumerate(node):
        values[i] = _complex_pair(item, (path, i))
    return values


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


# The physical constants of each unit system the `units` key names.
_CONSTANTS = {
    "natural": {"hbar": 1.0, "epsilon0": 1.0, "c": 1.0},
    "si": {"hbar": 1.054571817e-34, "epsilon0": 8.8541878128e-12, "c": 299792458.0},
}


# limit-study's default permittivity path, eps = 1 + i 10^-m, read-only as every config shares it.
_DEFAULT_PATH = np.array([complex(1.0, 10.0**-m) for m in range(1, 9)])
_DEFAULT_PATH.flags.writeable = False

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
    "limit_path": (_complex_list, _DEFAULT_PATH),
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
