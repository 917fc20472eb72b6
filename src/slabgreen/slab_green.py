"""Closed-form outgoing-wave Green function of an absorbing slab in one dimension.

The slab occupies [-l, l], has complex refractive index n, and sits in vacuum.
For a point source at x_s in the exterior, the Green function of

    [-d^2/dx^2 - k^2 eps(x)] G(x, x_s) = delta(x - x_s)

with outgoing waves at infinity is a sum of plane waves in each observer
region (left of the slab, inside, right). The waves are tabulated for a
source on the right; a source on the left is handled through the mirror
symmetry G(x, x_s) = G(-x, -x_s) of the centered slab.

The slab amplitudes are

    A = 4n e^{2iknl} / Y              transmission
    B = 2(n+1) e^{ik(n-1)l} / Y       interior, left-going
    C = 2(n-1) e^{ik(3n-1)l} / Y      interior, right-going
    D = (n^2-1)(e^{4iknl} - 1) / Y    reflection
    Y = (n+1)^2 - (n-1)^2 e^{4iknl}

and carry all the Fabry-Perot physics: |A|^2 + |D|^2 = 1 for a lossless slab,
< 1 with absorption. They are evaluated for whole arrays of rows (a sweep over
frequency or thickness) in one pass; a single evaluation point is a sweep of
one row.
"""

from collections import namedtuple

import numpy as np

from .dielectric import DielectricModel, permittivity, refractive_index
from .errors import check, plain

_PHASE_OVERFLOW = "wave phase is not finite: k times a distance overflows"


class SlabGeometry(namedtuple("SlabGeometry", "half_length")):
    """Slab spanning [-half_length, half_length].

    `half_length` may be an array, one slab per row; with an error record
    (`errors`, see errors.check) invalid rows are marked instead of raising.
    """

    __slots__ = ()

    def __new__(cls, half_length, errors=None):
        check((half_length > 0.0) & np.isfinite(half_length), "slab half length must be positive and finite", errors)
        return super().__new__(cls, half_length)


SlabCoefficients = namedtuple("SlabCoefficients", "A B C D Y")


class WaveContext(namedtuple("WaveContext", "k n geometry coefficients")):
    """One (geometry, medium, wavenumber) evaluation point with cached amplitudes.

    The fields may also be arrays of rows, as `make_context` builds them for a
    sweep; `take` picks rows out of such a context. It is a plain record:
    `coefficients` checks the wavenumber before any context is built.
    """

    __slots__ = ()

    @property
    def epsilon(self) -> complex:
        return self.n * self.n

    @property
    def shape(self):
        """Shape of the rows: the fields broadcast against each other."""
        return np.broadcast(self.k, self.n, self.geometry.half_length, *self.coefficients).shape

    def take(self, index):
        """The context of the rows `index`, counted in the flattened `shape`."""
        columns = np.broadcast_arrays(self.k, self.n, self.geometry.half_length, *self.coefficients)
        k, n, l, *amplitudes = (v.reshape(-1)[index] for v in columns)
        return WaveContext(k, n, SlabGeometry(l), SlabCoefficients(*amplitudes))


@np.errstate(all="ignore")
def coefficients(geometry: SlabGeometry, n, k, errors=None) -> SlabCoefficients:
    """Fabry-Perot amplitudes of the slab for a unit exterior wave.

    n, k and the half length may be arrays of rows; the amplitudes are then
    arrays too. Requires Im n >= 0 so the interior exponential is bounded.
    The resonance denominator Y cannot vanish for an absorbing medium; the
    guard below only fires for contrived lossless edge cases and reports
    them instead of dividing by almost zero. With an error record (see
    errors.check) failing rows are marked instead of raising.
    """
    n = np.asarray(n, complex)
    _check_wavenumber(k, errors)  # the one wavenumber check of every context
    check(np.logical_not(n.imag < 0.0), "refractive index must have Im n >= 0", errors)
    l = geometry.half_length
    e4 = np.exp(4j * k * n * l)
    y = (n + 1) ** 2 - (n - 1) ** 2 * e4
    check(
        np.logical_not(abs(y) < 1e-12 * abs(n + 1) ** 2),
        "slab is degenerate: resonance denominator Y is numerically zero",
        errors,
    )
    amplitudes = (
        4 * n * np.exp(2j * k * n * l) / y,
        2 * (n + 1) * np.exp(1j * k * (n - 1) * l) / y,
        2 * (n - 1) * np.exp(1j * k * (3 * n - 1) * l) / y,
        (n * n - 1) * (e4 - 1) / y,
        y,
    )
    finite = np.logical_and.reduce([np.isfinite(a) for a in amplitudes])
    check(finite, "slab amplitudes A, B, C, D and Y are not all finite", errors)
    return SlabCoefficients(*map(plain, amplitudes))


def make_context(
    geometry: SlabGeometry, model: DielectricModel, omega, c: float = 1.0, errors=None
) -> WaveContext:
    """Build a WaveContext from a dielectric model at one frequency.

    This is where the frequency becomes the wavenumber k = omega / c, the
    one frequency variable of everything downstream. `omega` (or the
    geometry) may be an array; every field of the context is then an array
    of rows. With an error record (see errors.check) failing rows are marked
    instead of raising.
    """
    check(c > 0.0, "speed of light must be positive", errors)
    omega = plain(np.asarray(omega, float))
    n = refractive_index(permittivity(model, omega, errors), errors)
    k = omega / c
    return WaveContext(k=k, n=n, geometry=geometry, coefficients=coefficients(geometry, n, k, errors))


def context_from_index(geometry: SlabGeometry, n, k) -> WaveContext:
    """Context built directly from an index at wavenumber k; n and k may be arrays of rows."""
    return WaveContext(k, plain(np.asarray(n, complex)), geometry, coefficients(geometry, n, k))


def _check_wavenumber(k, errors=None):
    """G divides by k, so 1/k must be finite too; callers ignore floating-point warnings."""
    ok = np.greater(k, 0.0) & np.isfinite(k) & np.isfinite(np.divide(1.0, k))
    check(ok, "wavenumber k and 1/k must be positive and finite", errors)


def _waves(x, x_s, ctx, where):
    """Plane waves (amplitude a, wavenumber q) of region `where` for x_s > l.

    For x in `where` the amplitudes sum to (2k/i) G(x, x_s) and each has
    x-derivative i q a; x, x_s and the rows of ctx may be arrays. Interior
    exponents are measured from the interface the wave decays away from, so
    no factor overflows however opaque the slab is, for x inside it.
    """
    co = ctx.coefficients
    k, n, l = ctx.k, ctx.n, ctx.geometry.half_length
    if where == "left":
        return ((co.A * np.exp(-1j * k * (2 * l + x - x_s)), -k),)
    if where == "inside":
        ikn = 1j * k * n
        shift = 1j * k * (x_s - l)
        return (
            (2 * (n + 1) / co.Y * np.exp(ikn * (l - x) + shift), -k * n),
            (2 * (n - 1) / co.Y * np.exp(ikn * (3 * l + x) + shift), k * n),
        )
    return (
        (co.D * np.exp(-1j * k * (2 * l - x - x_s)), k),
        (np.exp(1j * k * abs(x - x_s)), np.where(x > x_s, k, -k)),
    )


@np.errstate(all="ignore")  # a phase that overflows fails its row
def _outgoing(ctx, *sources, errors=None):
    """Per source x_s > l, the factors (u, rho, lam) that the identity's right side is built from.

    Phase convention: D and u = e^{ik(x_s - l)} are referenced at the face
    x = l; rho = conj(u) + D u and lam = A u are the source's outgoing
    amplitudes to the right and left, up to a factor e^{-ikl} common to all
    sources. So G(x_a, x_b) = (i/2k)(e^{ik|x_a - x_b|} + D u_a u_b), Im G =
    Re(u_a rho_b)/2k and F = -(rho_a conj(rho_b) + lam_a conj(lam_b))/4k.
    Every source must lie right of the slab, then each one's round trip phase
    k(2l - x_s - x_s) be finite; failing rows are marked in `errors` or raise.
    """
    l, co = ctx.geometry.half_length, ctx.coefficients
    for x_s in sources:
        check(np.greater(x_s, l), "source must lie in the right exterior region", errors)
    for x_s in sources:  # G's reflected phase at x_a = x_b = x_s; it bounds k(x_s - l) too
        check(np.isfinite(ctx.k * (2 * l - x_s - x_s)), _PHASE_OVERFLOW, errors)
    phases = (np.exp(1j * (ctx.k * (x_s - l))) for x_s in sources)
    return [(u, np.conj(u) + co.D * u, co.A * u) for u in phases]


@np.errstate(all="ignore")
def _green_and_dx(x, x_source, ctx):
    """G and dG/dx at observers x for exterior sources x_source, broadcast against ctx's rows.

    Each region's wave sum counts where x lies in it (the faces are inside);
    adding the zeros of the other regions is exact. A left source is mirrored.
    """
    l = ctx.geometry.half_length
    check(np.abs(x_source) > l, "source must lie strictly outside the slab")
    check(np.isfinite(x), "observer position must be finite")
    x, x_s = np.sign(x_source) * x, np.abs(x_source)
    g = dg = 0
    for where, inside in (("left", x < -l), ("inside", np.abs(x) <= l), ("right", x > l)):
        waves = _waves(x, x_s, ctx, where)
        g = g + np.where(inside, sum(a for a, _ in waves), 0)
        dg = dg + np.where(inside, sum(q * a for a, q in waves), 0)
    g, dg = (0.5j / ctx.k) * g, (-0.5 * np.sign(x_source) / ctx.k) * dg
    check(np.isfinite(g) & np.isfinite(dg), _PHASE_OVERFLOW)
    return g, dg


def green(x, x_source, ctx: WaveContext):
    """G(x, x_source) for exterior sources: a plain complex, or an array for arrays of points or rows.

    Continuous everywhere, including at x = x_source where only the derivative jumps.
    """
    return plain(_green_and_dx(x, x_source, ctx)[0])


def green_dx(x, x_source, ctx: WaveContext):
    """Analytic observer derivative dG/dx; undefined exactly at the source."""
    check(np.not_equal(x, x_source), "derivative is discontinuous at the source position")
    return plain(_green_and_dx(x, x_source, ctx)[1])


@np.errstate(all="ignore")
def green_vacuum_1d(x, x_prime, k):
    """Free-space Green function (i/2k) e^{ik|x - x'|}, for arrays too."""
    _check_wavenumber(k)
    phase = k * np.abs(np.subtract(x, x_prime))
    check(np.isfinite(phase), _PHASE_OVERFLOW)
    return plain((0.5j / k) * np.exp(1j * phase))


def helmholtz_residual(x, x_source, ctx: WaveContext, h):
    """Second-order finite-difference residual of the defining equation at x.

    Returns |(2G(x) - G(x+h) - G(x-h))/h^2 - k^2 eps(x) G(x)|, which decays
    like h^2 wherever G is smooth. The stencil must stay clear of the source
    and of the interfaces, where G or its derivatives are not smooth, and
    x + h and x - h must differ from x.
    """
    check((h > 0.0) & (0.0 < h * h) & (h * h < np.inf), "step h and h^2 must be positive and finite")
    l = ctx.geometry.half_length
    clearance = np.minimum(np.abs(np.subtract(x, x_source)), np.abs(np.abs(x) - l))
    check(np.logical_not(clearance < 2.0 * h), "stencil crosses the source or an interface")
    g0, gp, gm = (green(np.add(x, d), x_source, ctx) for d in (0.0, h, -h))
    check((np.add(x, h) != x) & (np.subtract(x, h) != x), "step h is below the rounding of x: x + h or x - h equals x")
    eps_x = np.where(np.abs(x) <= l, ctx.epsilon, 1.0 + 0.0j)
    with np.errstate(all="ignore"):
        residual = abs((2.0 * g0 - gp - gm) / (h * h) - ctx.k * ctx.k * eps_x * g0)
    check(np.isfinite(residual), "Helmholtz residual is not finite: h^2 or k^2 eps G is out of range")
    return plain(residual)


@np.errstate(all="ignore")
def interface_mismatch(ctx: WaveContext, x_source):
    """Worst continuity defect of G and dG/dx across the two interfaces, per row.

    Both one-sided limits come from the plane waves of the adjacent regions,
    so the result is a pure consistency check on the amplitudes.
    """
    l = ctx.geometry.half_length
    _outgoing(ctx, x_source)
    worst = 0.0
    for x, outside in ((l, "right"), (-l, "left")):
        # Inside minus outside waves; the sums are 2k/i and -2k times the jumps.
        waves = _waves(x, x_source, ctx, "inside") + tuple((-a, q) for a, q in _waves(x, x_source, ctx, outside))
        for defect in (sum(a for a, _ in waves), sum(q * a for a, q in waves)):
            worst = np.maximum(worst, abs(defect))
    check(np.isfinite(worst), _PHASE_OVERFLOW)
    return plain(worst / (2 * ctx.k))
