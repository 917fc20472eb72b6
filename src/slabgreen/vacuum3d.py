"""Free-space dyadic Green tensor and the three-dimensional vacuum decay rate.

The tensor solving [curl curl - k^2] G = delta(r - r') 1 in vacuum, k = omega/c, is

    G_ij(r_a, r_b) = g0 [ (1 + i/(kR) - 1/(kR)^2) delta_ij
                          + (-1 - 3i/(kR) + 3/(kR)^2) u_i u_j ],

with R = |r_a - r_b|, u the unit separation and the scalar wave
g0 = e^{ikR} / (4 pi R). This equals delta_ij g0 + (1/k^2) times the
Hessian of g0 in the separation variable; the real part diverges at
coincidence but the imaginary part has the finite limit (k/6pi) times the
identity, which sets the vacuum rate k^3 |d|^2 / (3 pi hbar eps0).

EmissionParams, the dipole and unit constants of this rate and of the
slab's rates (emission.py, which re-exports it), lives here, so the vacuum
rate needs no module of the slab.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, check, plain


class EmissionParams(namedtuple("EmissionParams", "dipole_moment hbar epsilon0 surface_unit")):
    """Dipole moment and unit-system constants.

    The frequency enters only through the wavenumber k = omega / c, which
    the rates take from the wave context. surface_unit is the cross-section
    that keeps one-dimensional rates in 1/s; it cancels from every normalized
    quantity. Natural units (hbar = eps0 = 1) are the default.
    """

    __slots__ = ()

    def __new__(cls, dipole_moment=1.0, hbar=1.0, epsilon0=1.0, surface_unit=1.0):
        self = super().__new__(cls, dipole_moment, hbar, epsilon0, surface_unit)
        for name, value in zip(self._fields, self):
            check((value > 0.0) & np.isfinite(value), f"{name} must be positive and finite")
        return self

    # np.divide: a denominator that underflows to 0 gives inf, not ZeroDivisionError.
    # The rates fail a row whose prefactor is not a normal float (emission._normal_prefactor).

    @np.errstate(all="ignore")
    def gamma_vacuum_1d(self, k):
        """One-dimensional free-space reference rate k |d|^2 / (hbar eps0 S)."""
        d = self.dipole_moment
        return plain(np.divide(k * (d * d), self.hbar * self.epsilon0 * self.surface_unit))

    @np.errstate(all="ignore")
    def rate_prefactor(self, k):
        """2 k^2 |d|^2 / (hbar eps0 S), multiplying Im G + F."""
        d = self.dipole_moment
        return plain(np.divide(2.0 * (k * k) * (d * d), self.hbar * self.epsilon0 * self.surface_unit))


def _separation(r_a, r_b, singular):
    """Separations s = r_a - r_b and R = |s|; `singular` is the message for R = 0."""
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    if r_a.shape[-1:] != (3,) or r_b.shape[-1:] != (3,):
        raise DomainError("positions must be 3-vectors")
    check(np.isfinite(r_a).all() & np.isfinite(r_b).all(), "positions must be finite")
    s = r_a - r_b
    dist = np.linalg.norm(s, axis=-1)
    check(dist != 0.0, singular)
    return s, dist


@np.errstate(all="ignore")  # R = inf from a norm that overflows fails the tensor's own check
def _tensor_separation(k, r_a, r_b):
    """green_tensor_vacuum's checks before a tensor (wavenumber, positions, coincidence): s and R."""
    check((k > 0.0) & np.isfinite(k), "wavenumber must be positive and finite")
    return _separation(r_a, r_b, "tensor real part is singular at coincident points")


@np.errstate(all="ignore")  # a separation whose norm overflows gives a non-finite value, checked below
def scalar_green_g0(k: float, r_a, r_b) -> complex:
    """Scalar spherical wave e^{ikR} / (4 pi R); singular at R = 0."""
    check((k >= 0.0) & np.isfinite(k), "wavenumber must be >= 0 and finite")
    _, dist = _separation(r_a, r_b, "scalar Green function is singular at coincident points")
    g0 = np.exp(1j * (k * dist)) / (4.0 * math.pi * dist)
    check(np.isfinite(g0), "scalar Green function is not finite: k times the separation overflows")
    return plain(g0)


@np.errstate(all="ignore")  # a kR that overflows or underflows gives a non-finite tensor, checked below
def green_tensor_vacuum(k: float, r_a, r_b) -> np.ndarray:
    """Full dyadic tensor between distinct points.

    `r_a` and `r_b` are 3-vectors or arrays of them along the last axis,
    broadcast against each other; the result has shape (..., 3, 3), a 3x3
    complex array for one pair.
    """
    s, dist = _tensor_separation(k, r_a, r_b)
    kr = k * dist
    g0 = np.exp(1j * kr) / (4.0 * math.pi * dist)
    u = s / dist[..., None]
    diag = g0 * (1.0 + 1j / kr - 1.0 / kr**2)
    outer = g0 * (-1.0 - 3j / kr + 3.0 / kr**2)
    tensor = diag[..., None, None] * np.eye(3) + outer[..., None, None] * (u[..., :, None] * u[..., None, :])
    check(np.isfinite(tensor), "Green tensor is not finite: k times the separation overflows or underflows")
    return tensor


def im_green_coincident(k: float) -> np.ndarray:
    """Finite coincident-point limit of Im G: (k / 6 pi) times the identity."""
    check((k > 0.0) & np.isfinite(k), "wavenumber must be positive and finite")
    return (k / (6.0 * math.pi)) * np.eye(3)


def vacuum_decay_3d(params, k: float) -> float:
    """Vacuum rate k^3 |d|^2 / (3 pi hbar eps0), k = omega / c, for the d, hbar and eps0 of an EmissionParams.

    Computed both in closed form and by contracting the dipole with the
    coincident Im G limit; the two routes must agree to rounding.
    """
    k, d = np.float64(k), params.dipole_moment
    dipole = np.array([0.0, 0.0, d])
    with np.errstate(all="ignore"):  # numpy powers round like Python's but overflow to inf
        # Elementwise, not by `@`, which would page in BLAS; raises unless 0 < k < inf.
        contraction = (dipole[:, None] * im_green_coincident(k) * dipole).sum()
        k3, d2, den = k**3, d * d, 3.0 * math.pi * params.hbar * params.epsilon0
        closed = k3 * d2 / den
    check(np.isfinite(closed), "vacuum decay rate is not finite: its prefactor overflows")
    normal = min(k3, d2, den, closed) >= np.finfo(float).tiny  # else the routes lose digits, or reach 0
    check(normal, "vacuum decay rate underflows: a factor is below the normal float range")
    contracted = 2.0 * (k * k) / (params.hbar * params.epsilon0) * contraction
    if abs(contracted - closed) > 1e-12 * closed:
        raise RuntimeError("vacuum rate routes disagree beyond rounding; internal bug")
    return float(closed)
