"""Green functions, the boundary-corrected spectral identity, and emission
rates for a one-dimensional absorbing slab, plus the free-space 3D baseline.

Everything is a pure function of immutable inputs; contexts and models can be
shared freely across threads.

A public name, or a submodule, is imported on first use (PEP 562), so a
process imports only the modules it runs.
"""

import importlib

# numpy is imported before any module of the package is compiled: when
# cli.py was compiled first, its freed compile memory lay under numpy's
# objects, and a decay-scan --oracle process peaked about 0.1 MB higher.
import numpy  # noqa: F401

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_DEFINED_IN = {
    "dielectric": "Constant DielectricModel Drude DrudeLorentz Tabulated permittivity refractive_index",
    "emission": "DecayRateReport LimitStudyReport decay_from_quadrature decay_rate_corrected decay_rate_uncorrected "
                "decay_report limit_study",
    "errors": "ConfigError DomainError QuadratureError",
    "identity": "IdentityReport boundary_term_b boundary_term_f identity_report integrate_adaptive lhs_quadrature",
    "slab_green": "SlabCoefficients SlabGeometry WaveContext coefficients context_from_index green green_dx "
                  "green_vacuum_1d helmholtz_residual interface_mismatch make_context",
    "vacuum3d": "EmissionParams green_tensor_vacuum im_green_coincident scalar_green_g0 vacuum_decay_3d",
}
_MODULE_OF = {name: module for module, names in _DEFINED_IN.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in {*_DEFINED_IN, "cli", "config", "writer"}:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
