import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slabgreen import (
    Constant,
    DomainError,
    Drude,
    DrudeLorentz,
    SlabGeometry,
    Tabulated,
    make_context,
    permittivity,
    refractive_index,
)
from slabgreen.errors import row_errors


def test_constant_vacuum():
    assert permittivity(Constant(1.0 + 0.0j), 0.7) == 1.0 + 0.0j


def test_drude_lossless_arithmetic():
    # 1 - 4/1 with no damping
    assert permittivity(Drude(plasma_frequency=2.0), 1.0) == -3.0 + 0.0j


def test_drude_lossy_value_and_imaginary_part():
    eps = permittivity(Drude(plasma_frequency=2.0, damping=1.0), 1.0)
    assert eps == pytest.approx(-1.0 + 2.0j, abs=1e-15)
    # independent route: Im eps = wp^2 g / (w (w^2 + g^2))
    assert eps.imag == pytest.approx(4.0 * 1.0 / (1.0 * (1.0 + 1.0)), rel=1e-14)
    assert eps.imag > 0.0


def test_drude_lorentz_zero_resonance_reduces_to_drude():
    drude = Drude(plasma_frequency=2.0, damping=1.0)
    assert drude == DrudeLorentz(terms=((4.0, 0.0, 1.0),))
    omega = np.linspace(0.01, 20.0, 2001)
    # The explicit free-carrier formula, bit for bit.
    assert np.array_equal(permittivity(drude, omega), 1.0 - 4.0 / (omega * (omega + 1j * 1.0)))


def test_drude_plasma_frequency_overflow_is_a_domain_error():
    # wp^2 overflows to inf, which the pole's finiteness check rejects.
    with pytest.raises(DomainError, match="model parameters must be finite"):
        Drude(plasma_frequency=1e200, damping=0.1)


def test_drude_lorentz_resonance_absorbs():
    dl = DrudeLorentz(terms=((2.0, 3.0, 0.5),))
    eps = permittivity(dl, 3.0)
    assert eps.imag > 0.0
    with pytest.raises(DomainError):
        permittivity(DrudeLorentz(terms=((2.0, 3.0, 0.0),)), 3.0)  # undamped pole


def test_tabulated_linear_interpolation():
    model = Tabulated(omegas=(1.0, 3.0), values=(2.0 + 1.0j, 4.0 + 3.0j))
    assert permittivity(model, 2.0) == pytest.approx(3.0 + 2.0j, abs=1e-15)
    assert permittivity(model, 1.0) == 2.0 + 1.0j
    assert permittivity(model, 3.0) == 4.0 + 3.0j


def test_tabulated_no_extrapolation():
    model = Tabulated(omegas=(1.0, 3.0), values=(2.0 + 1.0j, 4.0 + 3.0j))
    with pytest.raises(DomainError):
        permittivity(model, 0.5)
    with pytest.raises(DomainError):
        permittivity(model, 3.5)


def test_tabulated_validation():
    with pytest.raises(DomainError):
        Tabulated(omegas=(1.0,), values=(2.0,))
    with pytest.raises(DomainError):
        Tabulated(omegas=(3.0, 1.0), values=(2.0, 2.0))
    with pytest.raises(DomainError):
        Tabulated(omegas=(1.0, 3.0), values=(2.0 - 0.1j, 2.0))
    # The span 2e308 overflows, and the interpolation weight would divide by it.
    with pytest.raises(DomainError, match="span"):
        Tabulated(omegas=(-1e308, 1e308), values=(2.0 + 0.1j, 3.0 + 0.2j))


def test_gain_models_rejected():
    with pytest.raises(DomainError):
        Constant(1.0 - 0.2j)
    with pytest.raises(DomainError):
        Drude(plasma_frequency=2.0, damping=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(DomainError):
        Constant(complex(bad, 1.0))
    with pytest.raises(DomainError):
        Constant(complex(2.0, bad))
    with pytest.raises(DomainError):
        Drude(plasma_frequency=bad)
    with pytest.raises(DomainError):
        Drude(plasma_frequency=2.0, damping=bad)
    with pytest.raises(DomainError):
        DrudeLorentz(terms=((1.0, bad, 0.3),))
    with pytest.raises(DomainError):
        Tabulated(omegas=(1.0, bad), values=(2.0, 2.0))
    with pytest.raises(DomainError):
        Tabulated(omegas=(1.0, 3.0), values=(2.0, complex(bad, 0.0)))


def test_nonpositive_frequency_rejected():
    with pytest.raises(DomainError):
        permittivity(Constant(2.0 + 0.0j), 0.0)
    with pytest.raises(DomainError):
        permittivity(Drude(plasma_frequency=2.0), -1.0)


def test_passivity_sampled_sweep():
    wp = 2.0
    models = [
        Constant(3.75 + 2.0j),
        Drude(plasma_frequency=wp, damping=1.0),
        Drude(plasma_frequency=wp, damping=0.0),
        DrudeLorentz(terms=((1.0, 2.0, 0.3), (4.0, 0.0, 0.7))),
        Tabulated(omegas=(1e-3, 10.0 * wp), values=(5.0 + 1.0j, 1.1 + 0.2j)),
    ]
    for model in models:
        for i in range(1, 1001):
            omega = 10.0 * wp * i / 1000.0
            if isinstance(model, Tabulated) and omega < model.omegas[0]:
                continue
            assert permittivity(model, omega).imag >= 0.0


@given(
    wp=st.floats(1e-3, 1e3),
    damping=st.floats(0.0, 1e3),
    omega=st.floats(1e-6, 1e4),
)
def test_passivity_random_drude(wp, damping, omega):
    assert permittivity(Drude(plasma_frequency=wp, damping=damping), omega).imag >= 0.0


# Finite parameters from 0 and the subnormals up to the largest float.
EXTREME = st.one_of(
    st.sampled_from([0.0, 1e-320, 1e-300, 1e-160, 1.0, 1e160, 1e300, 1.7e308]),
    st.floats(0.0, 1.7e308, allow_subnormal=True),
)
MODELS = {
    "constant": lambda a, b, c: Constant(complex(a, b)),
    "drude": lambda a, b, c: Drude(plasma_frequency=a, damping=b),
    "drude_lorentz": lambda a, b, c: DrudeLorentz(terms=((a, b, c),)),
    "tabulated": lambda a, b, c: Tabulated(omegas=(a, b), values=(complex(c, a), complex(b, c))),
}


@given(kind=st.sampled_from(sorted(MODELS)), a=EXTREME, b=EXTREME, c=EXTREME, omega=EXTREME, half=EXTREME)
def test_extreme_models_raise_or_mark_rows(kind, a, b, c, omega, half):
    # Either the model is rejected, or every row of the context is finite or
    # marked; any other exception or a RuntimeWarning fails the test.
    try:
        model = MODELS[kind](a, b, c)
    except DomainError:
        return
    errors = row_errors(2)
    ctx = make_context(SlabGeometry(half, errors=errors), model, np.array([omega, 1.0]), errors=errors)
    good = np.equal(errors, None)
    co = ctx.coefficients
    for field in (ctx.k, ctx.n, co.A, co.B, co.C, co.D, co.Y):
        assert np.isfinite(np.broadcast_to(field, good.shape)[good]).all()


def test_refractive_index_trivial_cases():
    assert refractive_index(1.0 + 0.0j) == 1.0 + 0.0j
    n = refractive_index(-3.0 + 0.0j)
    assert n == pytest.approx(1j * math.sqrt(3.0), abs=1e-15)


def test_refractive_index_squares_back():
    eps = 4.0 + 3.0j
    n = refractive_index(eps)
    assert n.imag > 0.0
    assert abs(n * n - eps) <= 1e-14 * abs(eps)


def test_refractive_index_zero_rejected():
    with pytest.raises(DomainError):
        refractive_index(0.0)


@given(
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False)
)
def test_branch_roundtrip_and_half_plane(eps):
    n = refractive_index(eps)
    assert abs(n * n - eps) <= 1e-14 * abs(eps)
    assert n.imag >= 0.0
    if n.imag == 0.0:
        assert n.real >= 0.0


def _no_sign_flip(path):
    ns = [refractive_index(e) for e in path]
    for a, b in zip(ns, ns[1:]):
        assert abs(b - a) < abs(b + a)


def test_branch_continuity_across_negative_axis():
    # Upper-half-plane arc passing over eps = -4, then a slide along the cut.
    arc = [4.0 * cmath.exp(1j * math.pi * t / 200.0) for t in range(201)]
    _no_sign_flip(arc)
    _no_sign_flip([complex(-1.0 - 0.04 * j, 0.0) for j in range(201)])


def _segment_clears_origin(a, b, margin):
    # True distance from the segment [a, b] to eps = 0, not just the sampled
    # minimum: a path crossing zero between samples rotates the root by 90
    # degrees and legitimately breaks the no-flip inequality.
    d = b - a
    length_sq = abs(d) ** 2
    if length_sq == 0.0:
        return abs(a) >= margin
    t = max(0.0, min(1.0, -(a.real * d.real + a.imag * d.imag) / length_sq))
    return abs(a + t * d) >= margin


@given(
    a=st.complex_numbers(min_magnitude=0.1, max_magnitude=100.0, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(min_magnitude=0.1, max_magnitude=100.0, allow_nan=False, allow_infinity=False),
)
def test_branch_continuity_on_passive_segments(a, b):
    # Restrict to the closed upper half plane, where passive media live; the
    # segment between two such points stays there, and the branch is
    # continuous along it as long as it keeps clear of eps = 0.
    a = complex(a.real, abs(a.imag))
    b = complex(b.real, abs(b.imag))
    if not _segment_clears_origin(a, b, 1e-3):
        return
    _no_sign_flip([a + (b - a) * t / 64.0 for t in range(65)])
