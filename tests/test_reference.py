"""An arbitrary-precision reference for A, D, G and F, written from the formulas, not from the package.

Phase convention, the package's: n = sqrt(eps) with Im n >= 0, and

    Y = (n+1)^2 - (n-1)^2 e^{4iknl},  A = 4n e^{2iknl} / Y,  D = (n^2-1)(e^{4iknl} - 1) / Y,

where D is referenced at the face x = l: for right sources, at distances
d = x - l from the face,

    G(x_a, x_b) = (i/2k) [e^{ik|d_a - d_b|} + D e^{ik(d_a + d_b)}].

D e^{-2ikl}, a reflection referenced at x = 0, is not the package's D. Up to
a common factor e^{-ikl}, a source's outgoing amplitudes are rho = e^{-ikd} +
D e^{ikd} to the right and lambda = A e^{ikd} to the left, and

    F(x_a, x_b) = -(rho_a conj(rho_b) + lambda_a conj(lambda_b)) / 4k.
"""

import pytest
from hypothesis import given, settings, strategies as st

from slabgreen import SlabGeometry, boundary_term_f, context_from_index, green

mp = pytest.importorskip("mpmath").mp


def index(eps):
    """The absorbing branch of sqrt(eps): Im n >= 0, and Re n >= 0 where Im n = 0."""
    with mp.workdps(30):
        n = mp.sqrt(mp.mpc(eps))
        return complex(-n if n.imag < 0 or (n.imag == 0 and n.real < 0) else n)


def reference(n, k, l, x_a, x_b):
    """A, D, G(x_a, x_b) and F(x_a, x_b) to 30 digits, as Python complexes."""
    with mp.workdps(30):
        n, k, l = mp.mpc(n), mp.mpf(k), mp.mpf(l)
        e4 = mp.exp(4j * k * n * l)
        y = (n + 1) ** 2 - (n - 1) ** 2 * e4
        a, d = 4 * n * mp.exp(2j * k * n * l) / y, (n * n - 1) * (e4 - 1) / y
        d_a, d_b = mp.mpf(x_a) - l, mp.mpf(x_b) - l
        g = 0.5j / k * (mp.expj(k * abs(d_a - d_b)) + d * mp.expj(k * (d_a + d_b)))
        rho_a, rho_b = (mp.expj(-k * s) + d * mp.expj(k * s) for s in (d_a, d_b))
        f = -(rho_a * mp.conj(rho_b) + abs(a) ** 2 * mp.expj(k * (d_a - d_b))) / (4 * k)
        return tuple(map(complex, (a, d, g, f)))


def test_the_reference_has_the_packages_phase_convention():
    """At n = 2 + 0.5i, k = 1.3, l = 1 the reference's n, A and D are the context's."""
    a, d, _, _ = reference(index(3.75 + 2j), 1.3, 1.0, 2.0, 2.0)
    co = context_from_index(SlabGeometry(1.0), 2 + 0.5j, 1.3).coefficients
    assert index(3.75 + 2j) == 2 + 0.5j
    assert abs(co.A - a) <= 1e-14 * abs(a) and abs(co.D - d) <= 1e-14 * abs(d)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(re_n=st.floats(0.05, 4.0), im_n=st.floats(-14.0, 0.5).map(lambda e: 10.0 ** e), k=st.floats(0.05, 20.0),
       l=st.floats(0.1, 3.0), kd=st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), min_size=1, max_size=3))
def test_f_and_g_match_the_reference(re_n, im_n, k, l, kd):
    """boundary_term_f and green to 1e-12 of (1 + |A|^2 + |D|^2 + 2|D|) / 4k, for k (x_s - l) <= 1e3."""
    n = complex(re_n, im_n)
    ctx = context_from_index(SlabGeometry(l), n, k)
    sources = [l + s / k for s in kd]
    for x_a in sources:
        for x_b in sources:
            a, d, g, f = reference(n, k, l, x_a, x_b)
            scale = (1 + abs(a) ** 2 + abs(d) ** 2 + 2 * abs(d)) / (4 * k)
            assert abs(boundary_term_f(x_a, x_b, ctx) - f) <= 1e-12 * scale
            assert abs(green(x_a, x_b, ctx) - g) <= 1e-12 * scale
