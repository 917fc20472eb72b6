"""Free-space dyadic Green tensor and the three-dimensional vacuum decay rate.

The tensor solving [curl curl - (omega/c)^2] G = delta(r - r') 1 in vacuum is

    G_ij(r_a, r_b) = g0 [ (1 + i/(kR) - 1/(kR)^2) delta_ij
                          + (-1 - 3i/(kR) + 3/(kR)^2) u_i u_j ],

with R = |r_a - r_b|, u the unit separation, k = omega/c and the scalar
wave g0 = e^{ikR} / (4 pi R). This equals delta_ij g0 + (1/k^2) times the
Hessian of g0 in the separation variable; the real part diverges at
coincidence but the imaginary part has the finite limit (k/6pi) times the
identity, which sets the vacuum rate omega^3 |d|^2 / (3 pi hbar eps0 c^3).
"""

import math

import numpy as np

from .emission import EmissionParams
from .errors import DomainError, check, plain


def _spherical_wave(omega, r_a, r_b, c, singular):
    """Separations s = r_a - r_b (3-vectors along the last axis), R = |s|, kR and e^{ikR} / (4 pi R).

    `singular` is the DomainError message for a coincident pair.
    """
    if not c > 0.0:
        raise DomainError("speed of light must be positive")
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    if r_a.shape[-1:] != (3,) or r_b.shape[-1:] != (3,):
        raise DomainError("positions must be 3-vectors")
    s = r_a - r_b
    dist = np.linalg.norm(s, axis=-1)
    check(dist != 0.0, singular)
    kr = (omega / c) * dist
    return s, dist, kr, np.exp(1j * kr) / (4.0 * math.pi * dist)


def scalar_green_g0(omega: float, r_a, r_b, c: float = 1.0) -> complex:
    """Scalar spherical wave e^{i(omega/c)R} / (4 pi R); singular at R = 0."""
    if omega < 0.0:
        raise DomainError("frequency must be >= 0")
    _, _, _, g0 = _spherical_wave(omega, r_a, r_b, c, "scalar Green function is singular at coincident points")
    return plain(g0)


@np.errstate(all="ignore")  # a kR that overflows or underflows gives a non-finite tensor, checked below
def green_tensor_vacuum(omega: float, r_a, r_b, c: float = 1.0) -> np.ndarray:
    """Full dyadic tensor between distinct points.

    `r_a` and `r_b` are 3-vectors or arrays of them along the last axis,
    broadcast against each other; the result has shape (..., 3, 3), a 3x3
    complex array for one pair.
    """
    if not omega > 0.0:
        raise DomainError("frequency must be positive")
    s, dist, kr, g0 = _spherical_wave(omega, r_a, r_b, c, "tensor real part is singular at coincident points")
    u = s / dist[..., None]
    diag = g0 * (1.0 + 1j / kr - 1.0 / kr**2)
    outer = g0 * (-1.0 - 3j / kr + 3.0 / kr**2)
    tensor = diag[..., None, None] * np.eye(3) + outer[..., None, None] * (u[..., :, None] * u[..., None, :])
    check(np.isfinite(tensor), "Green tensor is not finite: k times the separation overflows or underflows")
    return tensor


def im_green_coincident(omega: float, c: float = 1.0) -> np.ndarray:
    """Finite coincident-point limit of Im G: (omega / 6 pi c) times the identity."""
    if not omega > 0.0:
        raise DomainError("frequency must be positive")
    if not c > 0.0:
        raise DomainError("speed of light must be positive")
    return (omega / (6.0 * math.pi * c)) * np.eye(3)


def vacuum_decay_3d(params: EmissionParams) -> float:
    """Vacuum rate omega0^3 |d|^2 / (3 pi hbar eps0 c^3).

    Computed both in closed form and by contracting the dipole with the
    coincident Im G limit; the two routes must agree to rounding.
    """
    w, d, c = np.float64(params.omega0), params.dipole_moment, np.float64(params.c)
    with np.errstate(all="ignore"):  # numpy powers round like Python's but overflow to inf
        closed = w**3 * (d * d) / (3.0 * math.pi * params.hbar * params.epsilon0 * c**3)
    check(np.isfinite(closed), "vacuum decay rate is not finite: its prefactor overflows")
    dipole = np.array([0.0, 0.0, d])
    contraction = dipole @ im_green_coincident(w, c) @ dipole
    contracted = 2.0 * (w * w) / (params.hbar * params.epsilon0 * (c * c)) * contraction
    if abs(contracted - closed) > 1e-12 * closed:
        raise RuntimeError("vacuum rate routes disagree beyond rounding; internal bug")
    return float(closed)
