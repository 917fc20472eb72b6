"""Complex permittivity models and the refractive-index branch.

Every built-in model is passive: Im eps(omega) >= 0 for omega > 0, i.e. the
medium may absorb but never amplify. The refractive index n = sqrt(eps) is
taken on the branch with Im n >= 0, so that exp(i*k*n*x) decays into an
absorbing medium; ties on the real axis are broken toward Re n >= 0.
"""

from collections import namedtuple
from typing import Union

import numpy as np

from .errors import check, plain


class Constant(namedtuple("Constant", "epsilon")):
    """Frequency-independent permittivity.

    `epsilon` may be an array, one medium per row; with an error record
    (`errors`, see errors.check) invalid rows are marked instead of raising.
    """

    __slots__ = ()

    def __new__(cls, epsilon, errors=None):
        check(np.isfinite(epsilon), "model parameters must be finite", errors)
        check(
            np.logical_not(np.imag(epsilon) < 0.0),
            "gain media are not supported: Im epsilon must be >= 0",
            errors,
        )
        return super().__new__(cls, epsilon)


class DrudeLorentz(namedtuple("DrudeLorentz", "terms")):
    """Sum of Lorentz oscillators: eps = 1 + sum_j s_j / (w_j^2 - omega^2 - i*g_j*omega).

    Each term is (strength, resonance, damping); the strength is an absolute
    weight with units of angular frequency squared. A zero resonance turns the
    term into a Drude pole with s_j = wp^2.
    """

    __slots__ = ()

    def __new__(cls, terms):
        terms = tuple(tuple(float(v) for v in term) for term in terms)
        check(len(terms) > 0, "at least one oscillator term is required")
        for term in terms:
            check(len(term) == 3, "each term must be (strength, resonance, damping)")
            check(np.isfinite(term), "model parameters must be finite")
            check(np.greater_equal(term, 0.0), "oscillator strength, resonance and damping must be >= 0")
        return super().__new__(cls, terms)


def Drude(plasma_frequency: float, damping: float = 0.0) -> DrudeLorentz:
    """Free-carrier response eps(omega) = 1 - wp^2 / (omega^2 + i*gamma*omega).

    It is the Drude-Lorentz pole of zero resonance and strength wp^2.
    """
    check(np.isfinite([plasma_frequency, damping]), "model parameters must be finite")
    check(plasma_frequency > 0.0, "plasma frequency must be positive")
    check(damping >= 0.0, "damping must be >= 0")
    return DrudeLorentz(((plasma_frequency * plasma_frequency, 0.0, damping),))


class Tabulated(namedtuple("Tabulated", "omegas values")):
    """Sampled permittivity, linearly interpolated in omega; no extrapolation."""

    __slots__ = ()

    def __new__(cls, omegas, values):
        omegas = tuple(float(w) for w in omegas)
        values = tuple(complex(v) for v in values)
        check(len(omegas) >= 2, "tabulated model needs at least 2 samples")
        check(len(omegas) == len(values), "sample frequencies and values must have equal length")
        check(np.isfinite([*omegas, *values]), "model parameters must be finite")
        check(np.less(omegas[:-1], omegas[1:]), "sample frequencies must be strictly increasing")
        # The interpolation weight divides by distances within the span.
        check(np.isfinite(omegas[-1] - omegas[0]), "sample frequency span omegas[-1] - omegas[0] overflows")
        check(np.imag(values) >= 0.0, "gain media are not supported: Im epsilon must be >= 0")
        return super().__new__(cls, omegas, values)


DielectricModel = Union[Constant, DrudeLorentz, Tabulated]


@np.errstate(all="ignore")
def permittivity(model: DielectricModel, omega, errors=None):
    """Evaluate eps(omega) for one of the built-in models.

    `omega` may be an array (and so may a Constant's epsilon); eps is then an
    array of the rows. Raises DomainError for omega <= 0 and, for tabulated
    data, for frequencies outside the sampled range; with an error record
    (see errors.check) those rows are marked instead.
    """
    w = np.asarray(omega, float)
    check(w > 0.0, "frequency must be positive", errors)
    if isinstance(model, Constant):
        eps = np.broadcast_arrays(np.asarray(model.epsilon, complex), w)[0]
    elif isinstance(model, DrudeLorentz):
        eps = np.ones(w.shape, complex)
        for strength, resonance, damping in model.terms:
            den = resonance * resonance - w * w - 1j * damping * w
            check(den != 0, "evaluation exactly at an undamped resonance", errors)
            eps = eps + strength / den
    elif isinstance(model, Tabulated):
        lo, hi = model.omegas[0], model.omegas[-1]
        check(
            np.logical_not((w < lo) | (w > hi)),
            lambda bad: [
                f"frequency {x} outside tabulated range [{lo}, {hi}]; no extrapolation"
                for x in np.broadcast_to(w, bad.shape)[bad].tolist()
            ],
            errors,
        )
        grid, values = np.array(model.omegas), np.array(model.values)
        j = np.searchsorted(grid, w, side="right")
        top = j == len(grid)
        j = np.clip(j, 1, len(grid) - 1)
        t = (w - grid[j - 1]) / (grid[j] - grid[j - 1])
        eps = np.where(top, values[-1], values[j - 1] * (1.0 - t) + values[j] * t)
    else:
        raise TypeError(f"unknown dielectric model type: {type(model).__name__}")
    return plain(eps)


@np.errstate(all="ignore")
def refractive_index(eps, errors=None):
    """Square root of eps on the absorbing branch; eps may be an array of rows.

    Im n >= 0 always; when Im n = 0 the sign is chosen so Re n >= 0. The
    branch is continuous across the negative real eps axis, which is where
    metals live; eps = 0 has no usable root.
    """
    eps = np.asarray(eps, complex)
    check(eps != 0, "degenerate medium: eps = 0 has no refractive index", errors)
    n = np.sqrt(eps)
    return plain(np.where((n.imag < 0.0) | ((n.imag == 0.0) & (n.real < 0.0)), -n, n))
