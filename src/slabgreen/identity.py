"""The corrected spectral identity for the slab Green function.

For two exterior source points x_a and x_b on the right of the slab,

    k^2 * integral_{-l}^{l} Im(eps) G(x, x_a) G*(x, x_b) dx
        = Im G(x_a, x_b) + F(x_a, x_b),

where F is a boundary term that survives even in the vacuum limit; dropping
it is what makes the widely used identity (left side = Im G alone) fail for a
finite medium. This module computes the left side by adaptive quadrature, F
in closed form, and the flux product b from which F can also be assembled,
and packages the residuals of the corrected and uncorrected versions.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .slab_green import WaveContext, _require_right_sources, _waves, green, green_dx

# Gauss-Legendre pair on one panel: the 16-node value is kept, the 8-node
# value only feeds the error estimate. The rules share no nodes, so a panel
# costs 24 integrand values.
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(8)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate([_NODES_LO, _NODES_HI])
_MAX_PANELS = 4096
# Panels per integrand call; bounds the integrand's temporaries.
_BLOCK = 128


def _panels(f, lo, hi):
    """16-node value and |GL16 - GL8| error estimate of each panel [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fine = np.empty(len(lo), complex)
    coarse = np.empty(len(lo), complex)
    for start in range(0, len(lo), _BLOCK):
        block = slice(start, start + _BLOCK)
        values = f(mid[block, None] + half[block, None] * _NODES)
        coarse[block] = (values[:, :8] * _WEIGHTS_LO).sum(axis=1)
        fine[block] = (values[:, 8:] * _WEIGHTS_HI).sum(axis=1)
    fine *= half
    coarse *= half
    return fine, np.abs(fine - coarse)


def integrate_adaptive(f, a: float, b: float, tol: float, initial_panels: int = 1):
    """Adaptively integrate a complex-valued function over [a, b].

    `f` maps an array of points to an array of values of the same shape. The
    interval starts as `initial_panels` equal panels. Each round bisects
    every panel whose error estimate per unit length exceeds tol / (b - a),
    until the summed estimate drops below `tol` (absolute); a round that
    would pass the budget of 4096 panels splits only the densest panels
    that fit. Returns (value, error_estimate). Raises QuadratureError
    carrying the best estimate when the budget runs out first or the
    estimate is not finite.
    """
    if not tol > 0.0:
        raise DomainError("quadrature tolerance must be positive")
    if not b > a:
        raise DomainError("integration interval is empty or reversed")
    initial_panels = max(1, int(initial_panels))
    lo = a + np.arange(initial_panels) * ((b - a) / initial_panels)
    hi = np.append(lo[1:], b)
    value, err = _panels(f, lo, hi)
    while err.sum() > tol:
        density = err / (hi - lo)
        split = np.flatnonzero(density > tol / (b - a))
        split = split[np.argsort(-density[split], kind="stable")[: max(0, _MAX_PANELS - len(lo))]]
        if not split.size:
            break
        keep = np.ones(len(lo), bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _panels(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value, err = np.concatenate([value[keep], new_value]), np.concatenate([err[keep], new_err])

    total_value, total_err = complex(value.sum()), float(err.sum())
    if not total_err <= tol:
        raise QuadratureError(
            f"quadrature stalled at error {total_err:.3e} (tol {tol:.3e}) after {len(lo)} panels",
            best_estimate=total_value,
            error_estimate=total_err,
        )
    return total_value, total_err


def boundary_term_b(x_b: float, x_a: float, ctx: WaveContext, box_half_length: float) -> complex:
    """Flux product b(x_b, x_a) = -[G*(x, x_b) dG/dx(x, x_a)] between the box edges.

    Evaluated with the analytic branch derivatives at x = -L and x = +L,
    where L = box_half_length must exceed the slab and both source points.
    The value is independent of L; tests pin that instead of assuming it.
    """
    _require_right_sources(ctx.geometry.half_length, x_a, x_b)
    big_l = box_half_length
    if not big_l > max(ctx.geometry.half_length, x_a, x_b):
        raise DomainError("box must strictly contain the slab and both source points")
    at_left = green(-big_l, x_b, ctx).conjugate() * green_dx(-big_l, x_a, ctx)
    at_right = green(big_l, x_b, ctx).conjugate() * green_dx(big_l, x_a, ctx)
    return at_left - at_right


def boundary_term_f(x_a: float, x_b: float, ctx: WaveContext) -> complex:
    """Closed-form boundary term F(x_a, x_b) of the corrected identity.

    F = -(1/4k) [ (|A|^2 + |D|^2) e^{ik(x_a - x_b)} + e^{-ik(x_a - x_b)}
                  + 2 Re{ D e^{-ik(2l - x_a - x_b)} } ]

    Real for x_a = x_b; for a vacuum slab it reduces to -cos(k(x_a - x_b))/2k,
    exactly minus the imaginary part of the free-space Green function.
    """
    _require_right_sources(ctx.geometry.half_length, x_a, x_b)
    co = ctx.coefficients
    k = ctx.k
    l = ctx.geometry.half_length
    phase = cmath.exp(1j * k * (x_a - x_b))
    cross = 2.0 * (co.D * cmath.exp(-1j * k * (2 * l - x_a - x_b))).real
    return -((abs(co.A) ** 2 + abs(co.D) ** 2) * phase + 1.0 / phase + cross) / (4.0 * k)


def lhs_quadrature(
    x_a: float,
    x_b: float,
    ctx: WaveContext,
    tol: float = 1e-8,
):
    """Adaptive quadrature of k^2 Im(eps) G(x, x_a) G*(x, x_b) over the slab.

    The integrand oscillates like exp(i k n x), so the initial panels are
    capped at a tenth of the interior wavelength before any adaptation (and
    their number at the panel budget). Returns (value, error_estimate) with
    error_estimate <= tol on success.
    """
    l = ctx.geometry.half_length
    _require_right_sources(l, x_a, x_b)
    eps_i = ctx.epsilon.imag

    def integrand(x):
        # G = (i/2k) times the summed waves, so k^2 G_a G_b* = (1/4) sum_a conj(sum_b).
        ua, ub = (sum(a for a, _ in _waves(x, x_s, ctx, "inside")) for x_s in (x_a, x_b))
        return (0.25 * eps_i) * ua * ub.conj()

    panels = 1
    if ctx.n.real > 0.0:
        wavelength = 2.0 * math.pi / (ctx.k * ctx.n.real)
        panels = max(1, math.ceil(min(2.0 * l / (wavelength / 10.0), _MAX_PANELS)))
    return integrate_adaptive(integrand, -l, l, tol, initial_panels=panels)


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the identity at one (x_a, x_b) pair and their residuals.

    When the quadrature stalls, `lhs` and `quadrature_estimate_error` hold its
    best estimate and `error` says why; otherwise `error` is None.
    """

    lhs: complex
    im_g: float
    f: complex
    quadrature_estimate_error: float
    error: str | None = None

    @property
    def residual_corrected(self) -> complex:
        return self.lhs - self.im_g - self.f

    @property
    def residual_uncorrected(self) -> complex:
        return self.lhs - self.im_g


def identity_report(
    x_a: float,
    x_b: float,
    ctx: WaveContext,
    tol: float = 1e-8,
) -> IdentityReport:
    """Assemble quadrature left side, Im G and F; a stalled quadrature sets `error`."""
    error = None
    try:
        lhs, quad_err = lhs_quadrature(x_a, x_b, ctx, tol=tol)
    except QuadratureError as exc:
        lhs, quad_err, error = exc.best_estimate, exc.error_estimate, str(exc)
    return IdentityReport(
        lhs=lhs,
        im_g=green(x_a, x_b, ctx).imag,
        f=boundary_term_f(x_a, x_b, ctx),
        quadrature_estimate_error=quad_err,
        error=error,
    )
