"""Spontaneous-emission rates of a dipole next to the absorbing slab.

Two rates are computed side by side as diagnostics:

    gamma            boundary-corrected rate, proportional to
                     1 - |A|^2 - |D|^2; position independent.
    gamma_uncorrected  the rate obtained when the boundary term is dropped,
                     proportional to 1 + Re{D e^{-2ik(l - x_s)}}; it
                     oscillates with the source position.

Both are reported in absolute units and normalized by the one-dimensional
free-space reference k |d|^2 / (hbar eps0 S), k = omega / c. The quadrature
route recomputes the corrected rate from the identity's left-hand side and
serves as an independent check.
"""

from collections import namedtuple

import numpy as np

from .dielectric import Constant
from .errors import check, plain, raise_first, row_errors
from .identity import boundary_term_f, lhs_quadrature
from .slab_green import SlabGeometry, WaveContext, _outgoing, make_context


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
    # The rates fail a row whose prefactor is not a normal float (_normal_prefactor).

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


# The rates take arrays of rows: the context's fields and the source
# position broadcast against each other. With an error record (see
# errors.check) failing rows are marked instead of raising.


def _finite_rate(rate, errors):
    check(np.isfinite(rate), "emission rate is not finite: its prefactor overflows", errors)
    return plain(rate)


def _normal_prefactor(prefactor, errors):
    """Fail the rows whose prefactor is 0, subnormal or not finite: it would not carry the rate's digits."""
    normal = (prefactor >= np.finfo(float).tiny) & np.isfinite(prefactor)
    check(normal, "emission prefactor is not a normal positive float: it under- or overflows", errors)


@np.errstate(all="ignore")
def decay_rate_corrected(params: EmissionParams, ctx: WaveContext, errors=None) -> float:
    """Boundary-corrected rate (k |d|^2 / 2 hbar eps0 S) (1 - |A|^2 - |D|^2).

    Has no source-position argument because the corrected rate has none.
    """
    co = ctx.coefficients
    return _finite_rate(0.5 * params.gamma_vacuum_1d(ctx.k) * (1.0 - abs(co.A) ** 2 - abs(co.D) ** 2), errors)


@np.errstate(all="ignore")
def decay_rate_uncorrected(params: EmissionParams, ctx: WaveContext, x_source, errors=None) -> float:
    """Rate 2k gamma_vac Im G(x_s, x_s) = gamma_vac Re(u rho) (see slab_green._outgoing); oscillates with x_s."""
    ((u, rho, _),) = _outgoing(ctx, x_source, errors=errors)
    return _finite_rate(params.gamma_vacuum_1d(ctx.k) * (u * rho).real, errors)


def decay_from_quadrature(
    params: EmissionParams,
    ctx: WaveContext,
    x_source,
    tol: float = 1e-8,
    errors=None,
) -> float:
    """Corrected rate recomputed from the quadrature left side of the identity.

    One batched quadrature serves all rows (see lhs_quadrature). With an
    error record, a row whose quadrature fails is marked with the error's
    message; without one, the QuadratureError or DomainError propagates.
    """
    lhs, _ = lhs_quadrature(x_source, x_source, ctx, tol=tol, errors=errors)
    prefactor = params.rate_prefactor(ctx.k)
    with np.errstate(all="ignore"):  # failed rows carry any k
        rate = _finite_rate(prefactor * np.real(lhs), errors)
    _normal_prefactor(prefactor, errors)
    return rate


class DecayRateReport(namedtuple("DecayRateReport", "gamma_corrected gamma_uncorrected gamma_quadrature gamma_vac_1d")):
    __slots__ = ()

    @property
    def normalized_corrected(self) -> float:
        return self.gamma_corrected / self.gamma_vac_1d

    @property
    def normalized_uncorrected(self) -> float:
        return self.gamma_uncorrected / self.gamma_vac_1d


def decay_report(
    params: EmissionParams,
    ctx: WaveContext,
    x_source,
    oracle_tol: float | None = None,
    errors=None,
) -> DecayRateReport:
    """Bundle all rates at one source position, or for arrays of rows; the quadrature column is optional."""
    gamma = decay_rate_corrected(params, ctx, errors)
    gamma_unc = decay_rate_uncorrected(params, ctx, x_source, errors)
    gamma_quad = None
    if oracle_tol is not None:
        gamma_quad = decay_from_quadrature(params, ctx, x_source, tol=oracle_tol, errors=errors)
    gamma_vac = params.gamma_vacuum_1d(ctx.k)
    _normal_prefactor(gamma_vac, errors)
    return DecayRateReport(gamma, gamma_unc, gamma_quad, gamma_vac)


LimitStudyReport = namedtuple("LimitStudyReport", "epsilon gamma gamma_uncorrected f_plus_im_g0 abs_a_sq abs_d_sq")
LimitStudyReport.__doc__ = "Columns along a permittivity path; the numbers of a failed entry carry no meaning."


def limit_study(
    params: EmissionParams,
    geometry: SlabGeometry,
    eps_path,
    k: float,
    x_source: float | None = None,
    errors=None,
) -> LimitStudyReport:
    """Diagnostics along a permittivity path, typically eps -> 1, at vacuum wavenumber k = omega / c.

    Reports both rates, the no-coupling witness F + Im G0 (which tends to
    zero as the medium decouples) and the amplitude magnitudes. The whole
    path is evaluated as one array. With an error record (one entry per path
    entry) a failing entry marks its row; without one the first failing
    entry raises its DomainError. The source defaults to one reduced
    wavelength beyond the slab face.
    """
    check(k > 0.0, "wavenumber must be positive")  # omega / c may underflow
    l = geometry.half_length
    if x_source is None:
        x_source = l + 1.0 / k
        check(x_source > l, "the default source l + 1/k falls on the slab face; the source must be given")
    check(np.greater(x_source, l), "source must lie in the right exterior region")
    eps = np.array([complex(raw) for raw in eps_path], complex)
    record = row_errors(eps.shape) if errors is None else errors
    # A constant permittivity does not depend on the frequency: build the context at omega = k, c = 1.
    ctx = make_context(geometry, Constant(eps, errors=record), k, errors=record)
    f = boundary_term_f(x_source, x_source, ctx, errors=record)
    rates = decay_report(params, ctx, x_source, errors=record)
    if errors is None:
        raise_first(record)
    co = ctx.coefficients
    with np.errstate(all="ignore"):  # the numbers of failed rows are dropped
        # Im G0(x_s, x_s) = Im (i/2k) is exactly 1/2k.
        return LimitStudyReport(
            eps, rates.gamma_corrected, rates.gamma_uncorrected, f.real + 0.5 / k, abs(co.A) ** 2, abs(co.D) ** 2
        )
