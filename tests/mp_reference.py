"""The suite's arbitrary-precision reference for A, D, G, F and the absorbed power, written from the formulas,
not from the package.

Phase convention, the package's: n = sqrt(eps) with Im n >= 0, and

    Y = (n+1)^2 - (n-1)^2 e^{4iknl},  A = 4n e^{2iknl} / Y,  D = (n^2-1)(e^{4iknl} - 1) / Y,

where D is referenced at the face x = l: for right sources, at distances
d = x - l from the face,

    G(x_a, x_b) = (i/2k) [e^{ik|d_a - d_b|} + D e^{ik(d_a + d_b)}].

D e^{-2ikl}, a reflection referenced at x = 0, is not the package's D. Up to
a common factor e^{-ikl}, a source's outgoing amplitudes are rho = e^{-ikd} +
D e^{ikd} to the right and lambda = A e^{ikd} to the left, and

    F(x_a, x_b) = -(rho_a conj(rho_b) + lambda_a conj(lambda_b)) / 4k.

The slab is centred, so G(x_a, x_b) = G(-x_a, -x_b) gives G for two left
sources. The absorbed power is the energy balance, by quadrature:

    1 - |A|^2 - |D|^2 = k Im(eps) |A|^2 integral_0^{2l} |cos(kns) - (i/n) sin(kns)|^2 ds.
"""

import pytest

mp = pytest.importorskip("mpmath").mp


def index(eps):
    """The absorbing branch of sqrt(eps): Im n >= 0, and Re n >= 0 where Im n = 0."""
    with mp.workdps(30):
        n = mp.sqrt(mp.mpc(eps))
        return complex(-n if n.imag < 0 or (n.imag == 0 and n.real < 0) else n)


def amplitudes(n, k, l):
    """A and D at mpmath's working precision, for mpmath n, k and l."""
    e4 = mp.exp(4j * k * n * l)
    y = (n + 1) ** 2 - (n - 1) ** 2 * e4
    return 4 * n * mp.exp(2j * k * n * l) / y, (n * n - 1) * (e4 - 1) / y


def reference(n, k, l, x_a, x_b):
    """A, D, G(x_a, x_b) and F(x_a, x_b) to 30 digits, as Python complexes."""
    with mp.workdps(30):
        n, k, l = mp.mpc(n), mp.mpf(k), mp.mpf(l)
        a, d = amplitudes(n, k, l)
        d_a, d_b = mp.mpf(x_a) - l, mp.mpf(x_b) - l
        g = 0.5j / k * (mp.expj(k * abs(d_a - d_b)) + d * mp.expj(k * (d_a + d_b)))
        rho_a, rho_b = (mp.expj(-k * s) + d * mp.expj(k * s) for s in (d_a, d_b))
        f = -(rho_a * mp.conj(rho_b) + abs(a) ** 2 * mp.expj(k * (d_a - d_b))) / (4 * k)
        return tuple(map(complex, (a, d, g, f)))


def absorbed(n, k, l):
    """1 - |A|^2 - |D|^2 from the energy balance, by mp.quad over the slab, as a Python float."""
    with mp.workdps(30):
        n, k, l = mp.mpc(n), mp.mpf(k), mp.mpf(l)
        a, _ = amplitudes(n, k, l)
        integral = mp.quad(lambda s: abs(mp.cos(k * n * s) - 1j / n * mp.sin(k * n * s)) ** 2, [0, 2 * l])
        return float(k * (n * n).imag * abs(a) ** 2 * integral)


def power(n, k, l):
    """1 - |A|^2 - |D|^2 to 50 digits, from the formulas, as a Python float."""
    with mp.workdps(50):
        a, d = amplitudes(mp.mpc(n), mp.mpf(k), mp.mpf(l))
        return float(1 - abs(a) ** 2 - abs(d) ** 2)
