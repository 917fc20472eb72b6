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

from dataclasses import InitVar, dataclass

import numpy as np

from .dielectric import DielectricModel, permittivity, refractive_index
from .errors import DomainError, check, plain


@dataclass(frozen=True)
class SlabGeometry:
    """Slab spanning [-half_length, half_length].

    `half_length` may be an array, one slab per row; with an error record
    (`errors`, see errors.check) invalid rows are marked instead of raising.
    """

    half_length: float
    errors: InitVar = None

    def __post_init__(self, errors):
        l = self.half_length
        check((l > 0.0) & np.isfinite(l), "slab half length must be positive and finite", errors)


@dataclass(frozen=True)
class SlabCoefficients:
    A: complex
    B: complex
    C: complex
    D: complex
    Y: complex


@dataclass(frozen=True)
class WaveContext:
    """One (geometry, medium, wavenumber) evaluation point with cached amplitudes.

    The fields may also be arrays of rows, as `make_context` builds them for a
    sweep; `take` picks rows out of such a context.
    """

    k: float
    n: complex
    geometry: SlabGeometry
    coefficients: SlabCoefficients
    errors: InitVar = None

    def __post_init__(self, errors):
        check((self.k > 0.0) & np.isfinite(self.k), "wavenumber must be positive and finite", errors)

    @property
    def epsilon(self) -> complex:
        return self.n * self.n

    def _fields(self):
        co = self.coefficients
        return (self.k, self.n, self.geometry.half_length, co.A, co.B, co.C, co.D, co.Y)

    @property
    def shape(self):
        """Shape of the rows: the fields broadcast against each other."""
        return np.broadcast(*self._fields()).shape

    def take(self, index):
        """The context of the rows `index`, counted in the flattened `shape`."""
        k, n, l, *amplitudes = (v.reshape(-1)[index] for v in np.broadcast_arrays(*self._fields()))
        return WaveContext(k, n, SlabGeometry(l), SlabCoefficients(*amplitudes))


def region(x: float, half_length: float) -> str:
    """Classify a coordinate as 'left', 'inside' or 'right' of the slab."""
    if x < -half_length:
        return "left"
    if x > half_length:
        return "right"
    return "inside"


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
    check(np.greater(k, 0.0), "wavenumber must be positive", errors)
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
    return WaveContext(k=k, n=n, geometry=geometry, coefficients=coefficients(geometry, n, k, errors), errors=errors)


def context_from_index(geometry: SlabGeometry, n: complex, k: float) -> WaveContext:
    """Context built directly from an index at wavenumber k."""
    return WaveContext(k=k, n=complex(n), geometry=geometry, coefficients=coefficients(geometry, n, k))


def _waves(x, x_s, ctx, where):
    """Plane waves (amplitude a, wavenumber q) of region `where` for x_s > l.

    The amplitudes sum to (2k/i) G(x, x_s) and each has x-derivative i q a.
    `x` may be an array of points that all lie in `where`. Interior exponents
    are measured from the interface the wave decays away from, so no factor
    overflows however opaque the slab is.
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


def _require_exterior_source(x_s, half_length):
    if abs(x_s) <= half_length:
        raise DomainError("source must lie strictly outside the slab")


def _require_right_sources(half_length, *sources, errors=None):
    for x_s in sources:
        check(np.greater(x_s, half_length), "source must lie in the right exterior region", errors)


def _wave_factor(phase, errors=None):
    """e^{i phase} for a real phase k*(...); a phase that overflowed fails its row."""
    check(np.isfinite(phase), "wave phase is not finite: k times a distance overflows", errors)
    return np.exp(1j * phase)


def green(x: float, x_source: float, ctx: WaveContext) -> complex:
    """Evaluate G(x, x_source) for an exterior source.

    The value is continuous everywhere, including at x = x_source where only
    the derivative jumps.
    """
    l = ctx.geometry.half_length
    _require_exterior_source(x_source, l)
    if x_source < 0:
        x, x_source = -x, -x_source
    return complex((0.5j / ctx.k) * sum(a for a, _ in _waves(x, x_source, ctx, region(x, l))))


def green_dx(x: float, x_source: float, ctx: WaveContext) -> complex:
    """Analytic observer derivative dG/dx; undefined exactly at the source."""
    l = ctx.geometry.half_length
    _require_exterior_source(x_source, l)
    if x == x_source:
        raise DomainError("derivative is discontinuous at the source position")
    scale = -0.5 / ctx.k
    if x_source < 0:
        x, x_source, scale = -x, -x_source, -scale
    return complex(scale * sum(q * a for a, q in _waves(x, x_source, ctx, region(x, l))))


def green_vacuum_1d(x: float, x_prime: float, k: float) -> complex:
    """Free-space Green function (i/2k) e^{ik|x - x'|}."""
    if not k > 0.0:
        raise DomainError("wavenumber must be positive")
    return complex((0.5j / k) * _wave_factor(k * abs(x - x_prime)))


def helmholtz_residual(x: float, x_source: float, ctx: WaveContext, h: float) -> float:
    """Second-order finite-difference residual of the defining equation at x.

    Returns |(2G(x) - G(x+h) - G(x-h))/h^2 - k^2 eps(x) G(x)|, which decays
    like h^2 wherever G is smooth. The stencil must stay clear of the source
    and of the interfaces, where G or its derivatives are not smooth.
    """
    if not h > 0.0:
        raise DomainError("step must be positive")
    l = ctx.geometry.half_length
    if min(abs(x - x_source), abs(x - l), abs(x + l)) < 2.0 * h:
        raise DomainError("stencil crosses the source or an interface")
    g0 = green(x, x_source, ctx)
    gp = green(x + h, x_source, ctx)
    gm = green(x - h, x_source, ctx)
    eps_x = ctx.epsilon if region(x, l) == "inside" else 1.0 + 0.0j
    return abs((2.0 * g0 - gp - gm) / (h * h) - ctx.k * ctx.k * eps_x * g0)


def interface_mismatch(ctx: WaveContext, x_source: float) -> float:
    """Worst continuity defect of G and dG/dx across the two interfaces.

    Both one-sided limits come from the plane waves of the adjacent regions,
    so the result is a pure consistency check on the amplitudes.
    """
    l = ctx.geometry.half_length
    _require_right_sources(l, x_source)
    defects = []
    for x, outside in ((l, "right"), (-l, "left")):
        # Inside minus outside waves; the sums are 2k/i and -2k times the jumps.
        outer = tuple((-a, q) for a, q in _waves(x, x_source, ctx, outside))
        waves = _waves(x, x_source, ctx, "inside") + outer
        defects += [sum(a for a, _ in waves), sum(q * a for a, q in waves)]
    return max(abs(d) for d in defects) / (2 * ctx.k)
