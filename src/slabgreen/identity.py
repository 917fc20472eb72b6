"""The corrected spectral identity for the slab Green function.

For two exterior source points x_a and x_b on the right of the slab,

    k^2 * integral_{-l}^{l} Im(eps) G(x, x_a) G*(x, x_b) dx
        = Im G(x_a, x_b) + F(x_a, x_b),

where F is a boundary term that survives even in the vacuum limit; dropping
it is what makes the widely used identity (left side = Im G alone) fail for a
finite medium. This module computes the left side by adaptive quadrature,
Im G from the sources' amplitudes (slab_green._outgoing) with F from the same
ones (slab_green._boundary_term), the flux product b from which F can also
be assembled, and the residuals of the corrected and uncorrected versions.
"""

import math
from collections import namedtuple
from itertools import accumulate

import numpy as np

from .errors import QuadratureError, check, plain, raise_first, row_errors
from .slab_green import WaveContext, _boundary_term, _outgoing, _waves, green, green_dx

# Gauss-Kronrod pair on one panel (QUADPACK qk15, Piessens et al. 1983): the
# 15-node Kronrod value is kept, and the 7-node Gauss rule on its odd-indexed
# nodes only feeds the error estimate, so a panel costs 15 integrand values.
# Positive halves, outermost first; K15 is exact to degree 22, G7 to degree 13.
_KRONROD_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_KRONROD_W = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_NODES = np.array([-x for x in _KRONROD_X[:-1]] + list(_KRONROD_X[::-1]))
# Column 0 weighs all 15 values (K15), column 1 the odd-indexed ones (G7).
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = _KRONROD_W + _KRONROD_W[-2::-1]
_WEIGHTS[1::2, 1] = _GAUSS_W + _GAUSS_W[-2::-1]
_MAX_PANELS = 4096
# Panels per integrand call; bounds the integrand's temporaries.
_BLOCK = 128
# Rows refined together; bounds the live panels however many rows fill their budget.
_GROUP = 64


def _panels(f, lo, hi, rows):
    """K15 value and |K15 - G7| error estimate of each panel [lo, hi] of row `rows`."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sums = np.empty((len(lo), 2), complex)
    for start in range(0, len(lo), _BLOCK):
        block = slice(start, start + _BLOCK)
        values = f(mid[block, None] + half[block, None] * _NODES, rows[block])
        # Summed elementwise, not by `@`: a matrix product would call BLAS, whose
        # library pages would then add to every quadrature process's peak RSS.
        sums[block] = (values[..., None] * _WEIGHTS).sum(axis=1)
    fine, coarse = half * sums.T
    # The two rules can agree to the last bit; a panel's estimate never drops below its rounding.
    return fine, np.maximum(np.abs(fine - coarse), np.finfo(float).eps * np.abs(fine))


def _refine(f, rows, a, b, tol, seeds):
    """Integrate the rows `rows` together: each one's value, error estimate and panel count."""
    size = len(rows)
    owner = np.repeat(np.arange(size), seeds)
    first = np.fromiter(accumulate(seeds.tolist(), initial=0), int, size + 1)  # each row's first panel, then the end
    lo = a[owner] + (np.arange(len(owner)) - first[owner]) * ((b - a) / seeds)[owner]
    hi = np.append(lo[1:], 0.0)
    hi[first[1:] - 1] = b
    value, err = _panels(f, lo, hi, rows[owner])
    live = np.ones(size, bool)
    while (live := live & (np.bincount(owner, err, size) > tol)).any():
        # Per row: the panels denser than tol / (b - a), as many as its budget allows. Only a round
        # that would pass a row's budget sorts them, densest first; the counts are compared in Python,
        # as numpy's integer comparisons would page in code for this alone (README, "What sets peak RSS").
        density = err / (hi - lo)
        split = np.flatnonzero(live[owner] & (density > (tol / (b - a))[owner]))
        count, room = np.bincount(owner[split], minlength=size), _MAX_PANELS - np.bincount(owner, minlength=size)
        if any(c > r for c, r in zip(count.tolist(), room.tolist())):
            split = split[np.lexsort((-density[split], owner[split]))]
            rank = np.arange(len(split)) - np.searchsorted(owner[split], owner[split])
            split, count = split[rank < room[owner[split]]], np.minimum(count, room)
        live &= count.astype(bool)
        keep = np.ones(len(lo), bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new = [np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]), np.tile(owner[split], 2)]
        new += _panels(f, new[0], new[1], rows[new[2]])
        pairs = zip((lo, hi, owner, value, err), new)
        lo, hi, owner, value, err = (np.concatenate([old[keep], add]) for old, add in pairs)
    total = np.bincount(owner, value.real, size) + 1j * np.bincount(owner, value.imag, size)
    return total, np.bincount(owner, err, size), np.bincount(owner, minlength=size)


def integrate_adaptive(f, a, b, tol, initial_panels=1, errors=None):
    """Adaptively integrate complex-valued functions over [a, b], one per row.

    a, b, tol and initial_panels broadcast to the rows. `f(x, rows)` maps
    points, one line per panel, and the flat index of each panel's row to
    values shaped like the points. A row starts as `initial_panels` equal
    panels; each round bisects every panel whose error estimate per unit
    length exceeds tol / (b - a), until the row's summed estimate is below
    its tol (absolute). Only a round that would pass some row's budget of
    4096 panels sorts its panels, so that such a row splits its densest
    ones that fit; any other round splits them all, unsorted. Returns (value,
    error_estimate) per row. A row fails when its budget runs out or its
    estimate is not finite: with an error record (see errors.check) it is
    marked, and rows already marked are skipped; without one, the first
    raises QuadratureError carrying its best estimate.
    """
    arrays = np.broadcast_arrays(*map(np.asarray, (a, b, tol, initial_panels)))
    shape = arrays[0].shape
    a, b, tol, seeds = (v.ravel() for v in arrays)
    check(np.all(tol > 0.0), "quadrature tolerance must be positive")
    check((b > a).reshape(shape), "integration interval is empty or reversed", errors)
    record = row_errors(shape) if errors is None else errors
    value, estimate = np.full(a.size, math.nan, complex), np.full(a.size, math.nan)
    panels = np.zeros(a.size, int)
    todo = np.flatnonzero(np.equal(record, None))
    for start in range(0, len(todo), _GROUP):
        rows = todo[start:start + _GROUP]
        seed = np.maximum(1, seeds[rows]).astype(int)
        value[rows], estimate[rows], panels[rows] = _refine(f, rows, a[rows], b[rows], tol[rows], seed)
    failed = todo[np.logical_not(estimate[todo] <= tol[todo])].tolist()
    messages = [f"quadrature stalled at error {estimate[i]:.3e} (tol {tol[i]:.3e}) after {panels[i]} panels"
                for i in failed]
    if errors is None and failed:
        raise QuadratureError(messages[0], complex(value[failed[0]]), float(estimate[failed[0]]))
    if failed:
        record.flat[failed] = messages
    return plain(value.reshape(shape)), plain(estimate.reshape(shape))


def boundary_term_b(x_b, x_a, ctx: WaveContext, box_half_length):
    """Flux product b(x_b, x_a) = -[G*(x, x_b) dG/dx(x, x_a)] between the box edges.

    Evaluated with the analytic branch derivatives at x = -L and x = +L,
    where L = box_half_length must exceed the slab and both source points.
    The value is independent of L, which tests pin; all arguments may be arrays.
    """
    l, big_l = ctx.geometry.half_length, box_half_length
    _outgoing(ctx, x_a, x_b)
    contains = np.greater(big_l, np.maximum(np.maximum(l, x_a), x_b)) & np.isfinite(big_l)
    check(contains, "box must be finite and strictly contain the slab and both source points")
    at_left, at_right = (np.conj(green(x, x_b, ctx)) * green_dx(x, x_a, ctx) for x in (-big_l, big_l))
    return plain(at_left - at_right)


def boundary_term_f(x_a, x_b, ctx: WaveContext, errors=None) -> complex:
    """Closed-form boundary term F(x_a, x_b) = -(rho_a conj(rho_b) + lam_a conj(lam_b)) / 4k of the corrected identity.

    rho and lam are the sources' outgoing amplitudes (see slab_green._outgoing;
    slab_green._boundary_term forms F). For a vacuum slab F is -cos(k(x_a - x_b))/2k,
    exactly minus the imaginary part of the free-space Green function. The
    sources and the context may be arrays of rows; with an error record (see
    errors.check) failing rows are marked instead of raising.
    """
    return plain(_boundary_term(ctx.k, *_outgoing(ctx, x_a, x_b, errors=errors)))


@np.errstate(all="ignore")  # a non-finite integrand gives a non-finite estimate, which fails its row
def interior_integral(rows: WaveContext, tol, errors=None):
    """Adaptive quadrature of (Im eps / 4) |v|^2 over the slab for each row of a 1-d context.

    v are the interior waves of a source on the slab's right face (see
    lhs_quadrature). Each row starts at one panel per interior wavelength
    2 pi / (k |n|), at most half the budget. Returns (value,
    error_estimate) per row; stalled rows fail as in integrate_adaptive.
    """
    half = rows.geometry.half_length

    def integrand(x, owners):
        at = rows.take(owners[:, None])
        v = sum(a for a, _ in _waves(x, at.geometry.half_length, at, "inside"))
        return (0.25 * at.epsilon.imag) * (v.real * v.real + v.imag * v.imag)

    # |n|, not Re n: an opaque slab's panels could otherwise be far wider than its skin
    # depth 1 / (k Im n), and K15 and G7 would both miss the skin layer at a panel's end
    # and agree. Half the budget at most, so one round can still split every seed panel.
    seeds = np.ceil(np.minimum(half * rows.k * abs(rows.n) / math.pi, _MAX_PANELS // 2))
    return integrate_adaptive(integrand, -half, half, tol, seeds, errors)


@np.errstate(all="ignore")  # a phase that overflows fails its row
def lhs_quadrature(x_a, x_b, ctx: WaveContext, tol: float = 1e-8, errors=None, interior=None):
    """Adaptive quadrature of k^2 Im(eps) G(x, x_a) G*(x, x_b) over the slab, for arrays of rows too.

    For x_s > l the interior waves are e^{ik(x_s - l)} v(x), with v those of
    a source on the face, so the integrand is e^{ik(x_a - x_b)} (Im eps/4)
    |v|^2: one batched integral per row of the context (interior_integral)
    serves every source pair, with the same error estimate since the phase
    has modulus one. `interior`, the (value, error_estimate, error record)
    of that integral for each row of the context, skips the quadrature.
    Returns (value, error_estimate). With an error record (see errors.check)
    failing rows are marked and rows it fails are skipped; else they raise.
    """
    (u_a, _, _), (u_b, _, _) = _outgoing(ctx, x_a, x_b, errors=errors)
    phase = u_a * np.conj(u_b)
    del u_a, u_b, _  # the quadrature below then holds the phase alone
    shape = ctx.shape
    record = row_errors(np.broadcast_shapes(shape, np.shape(phase))) if errors is None else errors
    if interior is None:
        owner = np.broadcast_to(np.arange(math.prod(shape)).reshape(shape), record.shape)
        index = np.flatnonzero(np.bincount(owner[np.equal(record, None)], minlength=math.prod(shape)))
        stalls = None if errors is None else row_errors(index.shape)
        value, estimate, failed = np.full(shape, math.nan, complex), np.full(shape, math.nan), row_errors(shape)
        value.flat[index], estimate.flat[index] = interior_integral(ctx.take(index), tol, stalls)
        failed.flat[index] = stalls
    else:
        value, estimate, failed = interior
    failed, estimate = (np.broadcast_to(v, record.shape) for v in (failed, estimate))
    check(np.equal(failed, None), lambda new: failed[new], errors)
    return plain(phase * value), plain(estimate)


class IdentityReport(namedtuple("IdentityReport", "lhs im_g f quadrature_estimate_error error", defaults=(None,))):
    """Both sides of the identity at one (x_a, x_b) pair, or arrays of pairs, and their residuals.

    When the quadrature stalls, `lhs` and `quadrature_estimate_error` hold its
    best estimate and `error` says why; otherwise `error` is None.
    """

    __slots__ = ()

    @property
    def residual_corrected(self) -> complex:
        return self.lhs - self.im_g - self.f

    @property
    def residual_uncorrected(self) -> complex:
        return self.lhs - self.im_g


@np.errstate(all="ignore")  # failed rows carry any Im G and F
def identity_report(x_a, x_b, ctx: WaveContext, tol: float = 1e-8, interior=None) -> IdentityReport:
    """Assemble quadrature left side, Im G and F; a stalled quadrature sets `error`.

    For arrays of rows (a grid of source pairs per context row, say) every
    field is an array, `error` one message or None per row. `_outgoing`
    checks the sources (see slab_green) and the first failing row raises its
    DomainError. `interior` is passed on to lhs_quadrature.
    """
    errors = row_errors(np.broadcast_shapes(ctx.shape, np.shape(x_a), np.shape(x_b)))
    a, b = _outgoing(ctx, x_a, x_b, errors=errors)  # (u, rho, lam) per source; Im G = Re(u_a rho_b) / 2k
    im_g, f = plain((a[0] * b[1]).real / (2.0 * ctx.k)), plain(_boundary_term(ctx.k, a, b))
    del a, b  # the quadrature below then holds Im G and F alone
    raise_first(errors)
    lhs, quad_err = lhs_quadrature(x_a, x_b, ctx, tol, errors, interior)
    return IdentityReport(lhs, im_g, f, quad_err, plain(errors))
