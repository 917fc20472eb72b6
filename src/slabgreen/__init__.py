"""Green functions, the boundary-corrected spectral identity, and emission
rates for a one-dimensional absorbing slab, plus the free-space 3D baseline.

Everything is a pure function of immutable inputs; contexts and models can be
shared freely across threads.
"""

from .dielectric import (
    Constant,
    DielectricModel,
    Drude,
    DrudeLorentz,
    Tabulated,
    permittivity,
    refractive_index,
)
from .emission import (
    DecayRateReport,
    EmissionParams,
    LimitStudyReport,
    decay_from_quadrature,
    decay_rate_corrected,
    decay_rate_uncorrected,
    decay_report,
    limit_study,
)
from .errors import ConfigError, DomainError, QuadratureError
from .identity import (
    IdentityReport,
    boundary_term_b,
    boundary_term_f,
    identity_report,
    integrate_adaptive,
    lhs_quadrature,
)
from .slab_green import (
    SlabCoefficients,
    SlabGeometry,
    WaveContext,
    coefficients,
    context_from_index,
    green,
    green_dx,
    green_vacuum_1d,
    helmholtz_residual,
    interface_mismatch,
    make_context,
)
from .vacuum3d import (
    green_tensor_vacuum,
    im_green_coincident,
    scalar_green_g0,
    vacuum_decay_3d,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Constant",
    "DecayRateReport",
    "DielectricModel",
    "DomainError",
    "Drude",
    "DrudeLorentz",
    "EmissionParams",
    "IdentityReport",
    "LimitStudyReport",
    "QuadratureError",
    "SlabCoefficients",
    "SlabGeometry",
    "Tabulated",
    "WaveContext",
    "boundary_term_b",
    "boundary_term_f",
    "coefficients",
    "context_from_index",
    "decay_from_quadrature",
    "decay_rate_corrected",
    "decay_rate_uncorrected",
    "decay_report",
    "green",
    "green_dx",
    "green_tensor_vacuum",
    "green_vacuum_1d",
    "helmholtz_residual",
    "identity_report",
    "im_green_coincident",
    "integrate_adaptive",
    "interface_mismatch",
    "lhs_quadrature",
    "limit_study",
    "make_context",
    "permittivity",
    "refractive_index",
    "scalar_green_g0",
    "vacuum_decay_3d",
]
