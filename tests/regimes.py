"""The suite's named hard regimes, as hypothesis strategies.

The paper's claim is hardest to check where the numbers cancel, underflow or
overflow. Each regime below is one such place, drawn log-uniformly where it
spans decades:

- absorbing: Re n in [0.05, 4] with Im n = 10^e, e in [-14, 1], from
  near-lossless resonances to lossy slabs;
- epsilon near zero (ENZ): |n| = sqrt(2) 10^e, e in [-15, 0], with arg n in
  [0, pi/2], the ray n = s (1 + i) turned across the absorbing quadrant;
- opaque: Re n in [0, 4] with Im n = 10^e, e in [0, 3], where A underflows
  and nothing may overflow;
- near-perfect mirror: Re n = 10^e, e in [-3, -1], with Im n = 10^e, e in
  [1.5, 3], where D -> -1 and 1 + Re D is about 2 / |n|^2, with the source
  beside it, k (x_s - l) in 10^[-9, -3];
- source offsets: k (x_s - l) = 10^e, e in [-9, 6], from a source at the
  face to one a million wavelengths out;
- high k l: k l = 10^e, e in [-1.3, 3], up to a slab a thousand wavelengths
  across, where the phases k n l are large;
- Drude near its plasma frequency: omega / omega_p = 1 -+ 10^e, e in [-8, -1],
  with damping gamma / omega_p = 10^e, e in [-8, -1], where epsilon passes
  near zero from the metallic side to the dielectric one.

A property draws a regime whole. Where its bound fails on part of one, it
passes a narrower range and a comment names the draw that fails.
"""

import cmath
import math

from hypothesis import strategies as st


def log_uniform(low, high):
    """10^e for e drawn from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


def absorbing_index(re=(0.05, 4.0), log_im=(-14.0, 1.0)):
    """n = Re n + i 10^e on the absorbing branch."""
    return st.builds(complex, st.floats(*re), log_uniform(*log_im))


def enz_index(log_scale=(-15.0, 0.0)):
    """n = sqrt(2) 10^e e^{i phi} with phi in [0, pi/2]; at phi = pi/4 it is 10^e (1 + i)."""
    return st.builds(lambda e, phi: cmath.rect(math.sqrt(2.0) * 10.0 ** e, phi),
                     st.floats(*log_scale), st.floats(0.0, math.pi / 2))


def opaque_index():
    """Im n up to 1e3: k Im(n) l reaches 1e5 at k l = 100."""
    return absorbing_index(re=(0.0, 4.0), log_im=(0.0, 3.0))


def mirror_index():
    """Small Re n and Im n from 10^1.5 to 10^3: a near-perfect mirror, D -> -1."""
    return st.builds(complex, log_uniform(-3.0, -1.0), log_uniform(1.5, 3.0))


def mirror_offset():
    """k (x_s - l) from 1e-9 to 1e-3: a source beside the mirror, where 1 + Re(D e^{2ik(x_s - l)}) cancels most."""
    return source_offset((-9.0, -3.0))


def hard_index():
    """Any of the absorbing, ENZ and opaque regimes."""
    return st.one_of(absorbing_index(), enz_index(), opaque_index())


def source_offset(log=(-9.0, 6.0)):
    """k (x_s - l), the source's distance from the right face in units of 1/k."""
    return log_uniform(*log)


def high_kl(log=(-1.3, 3.0)):
    """k l, the slab's half length in units of 1/k, from 0.05 to 1e3."""
    return log_uniform(*log)


def drude_near_plasma(log_detuning=(-8.0, -1.0), log_damping=(-8.0, -1.0)):
    """n = sqrt(1 - 1 / (x (x + i g))) of a Drude medium at x = omega / omega_p = 1 -+ 10^e, g = gamma / omega_p."""
    def index(sign, detuning, g):
        x = 1 + sign * detuning
        return cmath.sqrt(1 - 1 / (x * (x + 1j * g)))

    return st.builds(index, st.sampled_from([-1.0, 1.0]), log_uniform(*log_detuning), log_uniform(*log_damping))
