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
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .slab_green import WaveContext, green, green_dx, region

# Embedded Gauss-Legendre pair: the 16-node value is kept, the 8-node value
# only feeds the per-panel error estimate.
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(8)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(16)


def integrate_adaptive(f, a: float, b: float, tol: float, initial_panels: int = 1, max_panels: int = 4096):
    """Adaptively integrate a complex-valued function over [a, b].

    The interval starts as `initial_panels` equal panels; the panel with the
    largest error estimate is bisected until the summed estimate drops below
    `tol` (absolute). Returns (value, error_estimate). Raises QuadratureError
    carrying the best estimate when the panel budget runs out first.
    """
    if not tol > 0.0:
        raise DomainError("quadrature tolerance must be positive")
    if not b > a:
        raise DomainError("integration interval is empty or reversed")
    initial_panels = max(1, int(initial_panels))

    def eval_panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        coarse = 0.0 + 0.0j
        for xi, wi in zip(_NODES_LO, _WEIGHTS_LO):
            coarse += wi * f(mid + half * xi)
        fine = 0.0 + 0.0j
        for xi, wi in zip(_NODES_HI, _WEIGHTS_HI):
            fine += wi * f(mid + half * xi)
        coarse *= half
        fine *= half
        return fine, abs(fine - coarse)

    # Heap entries carry a sequence number so ties break deterministically.
    heap = []
    seq = 0
    step = (b - a) / initial_panels
    for i in range(initial_panels):
        lo = a + i * step
        hi = b if i == initial_panels - 1 else a + (i + 1) * step
        value, err = eval_panel(lo, hi)
        heapq.heappush(heap, (-err, seq, lo, hi, value, err))
        seq += 1

    total_err = sum(entry[5] for entry in heap)
    while total_err > tol and len(heap) < max_panels:
        worst = heapq.heappop(heap)
        _, _, lo, hi, value, err = worst
        if err == 0.0:
            heapq.heappush(heap, worst)
            break
        mid = 0.5 * (lo + hi)
        left_value, left_err = eval_panel(lo, mid)
        right_value, right_err = eval_panel(mid, hi)
        heapq.heappush(heap, (-left_err, seq, lo, mid, left_value, left_err))
        seq += 1
        heapq.heappush(heap, (-right_err, seq, mid, hi, right_value, right_err))
        seq += 1
        total_err += left_err + right_err - err

    total_value = sum(entry[4] for entry in heap)
    total_err = sum(entry[5] for entry in heap)
    if total_err > tol:
        raise QuadratureError(
            f"quadrature stalled at error {total_err:.3e} (tol {tol:.3e}) after {len(heap)} panels",
            best_estimate=total_value,
            error_estimate=total_err,
        )
    return total_value, total_err


def _require_right_sources(ctx, *points):
    l = ctx.geometry.half_length
    for x in points:
        if region(x, l) != "right":
            raise DomainError("source points must lie in the right exterior region")


def boundary_term_b(x_b: float, x_a: float, ctx: WaveContext, box_half_length: float) -> complex:
    """Flux product b(x_b, x_a) = -[G*(x, x_b) dG/dx(x, x_a)] between the box edges.

    Evaluated with the analytic branch derivatives at x = -L and x = +L,
    where L = box_half_length must exceed the slab and both source points.
    The value is independent of L; tests pin that instead of assuming it.
    """
    _require_right_sources(ctx, x_a, x_b)
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
    _require_right_sources(ctx, x_a, x_b)
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
    max_panels: int = 4096,
):
    """Adaptive quadrature of k^2 Im(eps) G(x, x_a) G*(x, x_b) over the slab.

    The integrand oscillates like exp(i k n x), so the initial panels are
    capped at a tenth of the interior wavelength before any adaptation.
    Returns (value, error_estimate) with error_estimate <= tol on success.
    """
    _require_right_sources(ctx, x_a, x_b)
    k = ctx.k
    l = ctx.geometry.half_length
    eps_i = ctx.epsilon.imag

    def integrand(x):
        ga = green(x, x_a, ctx)
        gb = green(x, x_b, ctx)
        return (k * k * eps_i) * ga * gb.conjugate()

    panels = 1
    if ctx.n.real > 0.0:
        wavelength = 2.0 * math.pi / (k * ctx.n.real)
        panels = max(1, math.ceil(2.0 * l / (wavelength / 10.0)))
    return integrate_adaptive(integrand, -l, l, tol, initial_panels=panels, max_panels=max_panels)


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
    max_panels: int = 4096,
) -> IdentityReport:
    """Assemble quadrature left side, Im G and F; a stalled quadrature sets `error`."""
    error = None
    try:
        lhs, quad_err = lhs_quadrature(x_a, x_b, ctx, tol=tol, max_panels=max_panels)
    except QuadratureError as exc:
        lhs, quad_err, error = exc.best_estimate, exc.error_estimate, str(exc)
    return IdentityReport(
        lhs=lhs,
        im_g=green(x_a, x_b, ctx).imag,
        f=boundary_term_f(x_a, x_b, ctx),
        quadrature_estimate_error=quad_err,
        error=error,
    )
