"""Spontaneous-emission rates of a dipole next to the absorbing slab.

Two rates are computed side by side as diagnostics:

    gamma            boundary-corrected rate, proportional to
                     1 - |A|^2 - |D|^2; position independent.
    gamma_uncorrected  the rate obtained when the boundary term is dropped,
                     proportional to 1 + Re{D e^{-2ik(l - x_s)}}; it
                     oscillates with the source position.

Both are reported in absolute units and normalized by the one-dimensional
free-space reference omega0 |d|^2 / (hbar eps0 c S). The quadrature route
recomputes the corrected rate from the identity's left-hand side and serves
as an independent check.
"""

import cmath
import math
from dataclasses import dataclass

from .dielectric import Constant
from .errors import DomainError
from .identity import boundary_term_f, lhs_quadrature
from .slab_green import SlabGeometry, WaveContext, _require_right_sources, green_vacuum_1d, make_context


@dataclass(frozen=True)
class EmissionParams:
    """Transition frequency, dipole moment and unit-system constants.

    surface_unit is the cross-section that keeps one-dimensional rates in
    1/s; it cancels from every normalized quantity. Natural units
    (hbar = eps0 = c = 1) are the default.
    """

    omega0: float
    dipole_moment: float = 1.0
    hbar: float = 1.0
    epsilon0: float = 1.0
    c: float = 1.0
    surface_unit: float = 1.0

    def __post_init__(self):
        for name in ("omega0", "dipole_moment", "hbar", "epsilon0", "c", "surface_unit"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive and finite")

    @property
    def gamma_vacuum_1d(self) -> float:
        """One-dimensional free-space reference rate omega0 |d|^2 / (hbar eps0 c S)."""
        return self.omega0 * self.dipole_moment**2 / (self.hbar * self.epsilon0 * self.c * self.surface_unit)

    @property
    def rate_prefactor(self) -> float:
        """2 omega0^2 |d|^2 / (hbar eps0 c^2 S), multiplying Im G + F."""
        return 2.0 * self.omega0**2 * self.dipole_moment**2 / (
            self.hbar * self.epsilon0 * self.c**2 * self.surface_unit
        )


def _require_matching_frequency(params: EmissionParams, ctx: WaveContext):
    if abs(ctx.omega - params.omega0) > 1e-12 * params.omega0:
        raise DomainError("wave context was built at a different frequency than omega0")


def decay_rate_corrected(params: EmissionParams, ctx: WaveContext) -> float:
    """Boundary-corrected rate (omega0 |d|^2 / 2 hbar eps0 c S) (1 - |A|^2 - |D|^2).

    Has no source-position argument because the corrected rate has none.
    """
    _require_matching_frequency(params, ctx)
    co = ctx.coefficients
    return 0.5 * params.gamma_vacuum_1d * (1.0 - abs(co.A) ** 2 - abs(co.D) ** 2)


def decay_rate_uncorrected(params: EmissionParams, ctx: WaveContext, x_source: float) -> float:
    """Rate from Im G alone; oscillates with the source position."""
    _require_matching_frequency(params, ctx)
    l = ctx.geometry.half_length
    _require_right_sources(l, x_source)
    co = ctx.coefficients
    osc = (co.D * cmath.exp(-2j * ctx.k * (l - x_source))).real
    return params.gamma_vacuum_1d * (1.0 + osc)


def decay_from_quadrature(
    params: EmissionParams,
    ctx: WaveContext,
    x_source: float,
    tol: float = 1e-8,
) -> float:
    """Corrected rate recomputed from the quadrature left side of the identity."""
    _require_matching_frequency(params, ctx)
    value, _ = lhs_quadrature(x_source, x_source, ctx, tol=tol)
    return params.rate_prefactor * value.real


@dataclass(frozen=True)
class DecayRateReport:
    gamma_corrected: float
    gamma_uncorrected: float
    gamma_quadrature: float | None
    gamma_vac_1d: float

    @property
    def normalized_corrected(self) -> float:
        return self.gamma_corrected / self.gamma_vac_1d

    @property
    def normalized_uncorrected(self) -> float:
        return self.gamma_uncorrected / self.gamma_vac_1d


def decay_report(
    params: EmissionParams,
    ctx: WaveContext,
    x_source: float,
    oracle_tol: float | None = None,
) -> DecayRateReport:
    """Bundle all rates at one source position; the quadrature column is optional."""
    gamma = decay_rate_corrected(params, ctx)
    gamma_unc = decay_rate_uncorrected(params, ctx, x_source)
    gamma_quad = None
    if oracle_tol is not None:
        gamma_quad = decay_from_quadrature(params, ctx, x_source, tol=oracle_tol)
    return DecayRateReport(
        gamma_corrected=gamma,
        gamma_uncorrected=gamma_unc,
        gamma_quadrature=gamma_quad,
        gamma_vac_1d=params.gamma_vacuum_1d,
    )


@dataclass(frozen=True)
class LimitStudyRow:
    """One path entry; a failed entry keeps NaN numbers and sets `error`."""

    epsilon: complex
    gamma: float = math.nan
    gamma_uncorrected: float = math.nan
    f_plus_im_g0: float = math.nan
    abs_a_sq: float = math.nan
    abs_d_sq: float = math.nan
    error: str | None = None


def limit_study(
    params: EmissionParams,
    geometry: SlabGeometry,
    eps_path,
    x_source: float | None = None,
) -> list[LimitStudyRow]:
    """Diagnostics along a permittivity path, typically eps -> 1.

    Each row reports both rates, the no-coupling witness F + Im G0 (which
    tends to zero as the medium decouples) and the amplitude magnitudes. A
    failing path entry marks its row instead of aborting the table. The
    source defaults to one reduced wavelength beyond the slab face.
    """
    k = params.omega0 / params.c
    x_s = geometry.half_length + 1.0 / k if x_source is None else x_source
    _require_right_sources(geometry.half_length, x_s)
    rows = []
    for raw in eps_path:
        eps = complex(raw)
        try:
            if eps.imag < 0.0:
                raise DomainError("path entries must be passive: Im eps >= 0")
            ctx = make_context(geometry, Constant(eps), params.omega0, c=params.c)
            co = ctx.coefficients
            f = boundary_term_f(x_s, x_s, ctx)
            im_g0 = green_vacuum_1d(x_s, x_s, k).imag
            rows.append(
                LimitStudyRow(
                    epsilon=eps,
                    gamma=decay_rate_corrected(params, ctx),
                    gamma_uncorrected=decay_rate_uncorrected(params, ctx, x_s),
                    f_plus_im_g0=f.real + im_g0,
                    abs_a_sq=abs(co.A) ** 2,
                    abs_d_sq=abs(co.D) ** 2,
                )
            )
        except DomainError as exc:
            rows.append(LimitStudyRow(epsilon=eps, error=str(exc)))
    return rows
