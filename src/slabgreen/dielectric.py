"""Complex permittivity models and the refractive-index branch.

Every built-in model is passive: Im eps(omega) >= 0 for omega > 0, i.e. the
medium may absorb but never amplify. The refractive index n = sqrt(eps) is
taken on the branch with Im n >= 0, so that exp(i*k*n*x) decays into an
absorbing medium; ties on the real axis are broken toward Re n >= 0.
"""

import bisect
import cmath
from dataclasses import dataclass
from typing import Union

from .errors import DomainError


def _require_finite(*values):
    if not all(cmath.isfinite(v) for v in values):
        raise DomainError("model parameters must be finite")


@dataclass(frozen=True)
class Constant:
    """Frequency-independent permittivity."""

    epsilon: complex

    def __post_init__(self):
        _require_finite(self.epsilon)
        if complex(self.epsilon).imag < 0.0:
            raise DomainError("gain media are not supported: Im epsilon must be >= 0")


@dataclass(frozen=True)
class Drude:
    """Free-carrier response eps(omega) = 1 - wp^2 / (omega^2 + i*gamma*omega)."""

    plasma_frequency: float
    damping: float = 0.0

    def __post_init__(self):
        _require_finite(self.plasma_frequency, self.damping)
        if not self.plasma_frequency > 0.0:
            raise DomainError("plasma frequency must be positive")
        if self.damping < 0.0:
            raise DomainError("damping must be >= 0")


@dataclass(frozen=True)
class DrudeLorentz:
    """Sum of Lorentz oscillators: eps = 1 + sum_j s_j / (w_j^2 - omega^2 - i*g_j*omega).

    Each term is (strength, resonance, damping); the strength is an absolute
    weight with units of angular frequency squared. A zero resonance turns the
    term into a Drude pole with s_j = wp^2.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple(tuple(float(v) for v in term) for term in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise DomainError("at least one oscillator term is required")
        for term in terms:
            if len(term) != 3:
                raise DomainError("each term must be (strength, resonance, damping)")
            _require_finite(*term)
            strength, resonance, damping = term
            if strength < 0.0 or resonance < 0.0 or damping < 0.0:
                raise DomainError("oscillator strength, resonance and damping must be >= 0")


@dataclass(frozen=True)
class Tabulated:
    """Sampled permittivity, linearly interpolated in omega; no extrapolation."""

    omegas: tuple
    values: tuple

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        values = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)
        if len(omegas) < 2:
            raise DomainError("tabulated model needs at least 2 samples")
        if len(omegas) != len(values):
            raise DomainError("sample frequencies and values must have equal length")
        _require_finite(*omegas, *values)
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise DomainError("sample frequencies must be strictly increasing")
        if any(v.imag < 0.0 for v in values):
            raise DomainError("gain media are not supported: Im epsilon must be >= 0")


DielectricModel = Union[Constant, Drude, DrudeLorentz, Tabulated]


def permittivity(model: DielectricModel, omega: float) -> complex:
    """Evaluate eps(omega) for one of the built-in models.

    Raises DomainError for omega <= 0 and, for tabulated data, for
    frequencies outside the sampled range.
    """
    if not omega > 0.0:
        raise DomainError("frequency must be positive")
    if isinstance(model, Constant):
        return complex(model.epsilon)
    if isinstance(model, Drude):
        return 1.0 - model.plasma_frequency**2 / (omega * (omega + 1j * model.damping))
    if isinstance(model, DrudeLorentz):
        eps = 1.0 + 0.0j
        for strength, resonance, damping in model.terms:
            den = resonance * resonance - omega * omega - 1j * damping * omega
            if den == 0:
                raise DomainError("evaluation exactly at an undamped resonance")
            eps += strength / den
        return eps
    if isinstance(model, Tabulated):
        lo, hi = model.omegas[0], model.omegas[-1]
        if omega < lo or omega > hi:
            raise DomainError(
                f"frequency {omega} outside tabulated range [{lo}, {hi}]; no extrapolation"
            )
        j = bisect.bisect_right(model.omegas, omega)
        if j == len(model.omegas):
            return model.values[-1]
        w0, w1 = model.omegas[j - 1], model.omegas[j]
        t = (omega - w0) / (w1 - w0)
        return model.values[j - 1] * (1.0 - t) + model.values[j] * t
    raise TypeError(f"unknown dielectric model type: {type(model).__name__}")


def refractive_index(eps: complex) -> complex:
    """Square root of eps on the absorbing branch.

    Im n >= 0 always; when Im n = 0 the sign is chosen so Re n >= 0. The
    branch is continuous across the negative real eps axis, which is where
    metals live; eps = 0 has no usable root.
    """
    eps = complex(eps)
    if eps == 0:
        raise DomainError("degenerate medium: eps = 0 has no refractive index")
    n = cmath.sqrt(eps)
    if n.imag < 0.0 or (n.imag == 0.0 and n.real < 0.0):
        n = -n
    return n
