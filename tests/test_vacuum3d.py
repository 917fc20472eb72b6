import cmath
import math

import numpy as np
import pytest

from slabgreen import (
    DomainError,
    EmissionParams,
    green_tensor_vacuum,
    im_green_coincident,
    scalar_green_g0,
    vacuum_decay_3d,
)


def test_scalar_wave_value():
    got = scalar_green_g0(1.0, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    assert got == pytest.approx(cmath.exp(1j) / (4 * math.pi), abs=1e-16)
    assert got.real == pytest.approx(0.0430, abs=5e-5)
    assert got.imag == pytest.approx(0.0670, abs=5e-5)


def test_scalar_wave_static_limit():
    r = [0.3, -0.4, 1.2]
    dist = math.sqrt(0.09 + 0.16 + 1.44)
    got = scalar_green_g0(1e-12, r, [0.0, 0.0, 0.0])
    assert got == pytest.approx(1.0 / (4 * math.pi * dist), rel=1e-10)


def test_scalar_wave_imaginary_short_distance_limit():
    # Im g0 -> k / 4 pi as the separation shrinks.
    k = 1.0
    got = scalar_green_g0(k, [0.0, 0.0, 1e-4], [0.0, 0.0, 0.0])
    assert got.imag == pytest.approx(k / (4 * math.pi), rel=1e-8)


def test_scalar_wave_coincident_rejected():
    with pytest.raises(DomainError):
        scalar_green_g0(1.0, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    # Wavenumbers outside the domain: k >= 0 and finite for g0, whose static k = 0 stays allowed.
    for k in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="wavenumber must be >= 0 and finite"):
            scalar_green_g0(k, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    assert scalar_green_g0(0.0, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]) == 1.0 / (4 * math.pi)
    # k > 0 and finite for the tensor and its coincident limit.
    for k in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="wavenumber must be positive and finite"):
            green_tensor_vacuum(k, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="wavenumber must be positive and finite"):
            im_green_coincident(k)


def test_scalar_wave_overflow_is_a_domain_error():
    # The norm of the separation overflows.
    with pytest.raises(DomainError, match="scalar Green function is not finite"):
        scalar_green_g0(1.0, [1e300, 1e300, 0.0], [0.0, 0.0, 0.0])


def _finite_difference_tensor(omega, r_a, r_b, h=1e-2):
    """Oracle: delta_ij g0 minus (1/k^2) times the mixed second derivative of
    g0 in (r_a, r_b), the sign that solves the curl-curl equation. Richardson
    extrapolation upgrades the centered stencil to fourth order."""
    r_a = np.asarray(r_a, float)
    r_b = np.asarray(r_b, float)
    k = omega

    def mixed(i, j, step):
        ei = np.zeros(3)
        ej = np.zeros(3)
        ei[i] = step
        ej[j] = step
        return (
            scalar_green_g0(omega, r_a + ei, r_b + ej)
            - scalar_green_g0(omega, r_a + ei, r_b - ej)
            - scalar_green_g0(omega, r_a - ei, r_b + ej)
            + scalar_green_g0(omega, r_a - ei, r_b - ej)
        ) / (4.0 * step * step)

    out = np.zeros((3, 3), complex)
    for i in range(3):
        for j in range(3):
            coarse = mixed(i, j, h)
            fine = mixed(i, j, h / 2)
            out[i, j] = (4.0 * fine - coarse) / 3.0
    return np.eye(3) * scalar_green_g0(omega, r_a, r_b) - out / k**2


@pytest.mark.parametrize(
    "r_a, r_b",
    [
        ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),
        ([0.1, -0.2, 0.7], [-0.3, 0.4, 0.1]),
        ([2.0, 1.0, -1.5], [0.0, 0.0, 0.0]),
    ],
)
def test_tensor_against_finite_difference_oracle(r_a, r_b):
    omega = 1.0
    got = green_tensor_vacuum(omega, r_a, r_b)
    oracle = _finite_difference_tensor(omega, r_a, r_b)
    assert np.max(np.abs(got - oracle)) <= 1e-8


def test_tensor_reciprocity():
    forward = green_tensor_vacuum(1.3, [0.2, 0.5, -0.1], [1.0, -0.4, 0.6])
    backward = green_tensor_vacuum(1.3, [1.0, -0.4, 0.6], [0.2, 0.5, -0.1])
    assert np.max(np.abs(forward - backward.T)) <= 1e-12


def test_tensor_far_field_transverse_dominates():
    k_dist = 1000.0
    tensor = green_tensor_vacuum(1.0, [0.0, 0.0, k_dist], [0.0, 0.0, 0.0])
    radial = abs(tensor[2, 2])
    transverse = abs(tensor[0, 0])
    assert radial / transverse == pytest.approx(2.0 / k_dist, rel=0.05)


def test_tensor_array_matches_pair_calls():
    rng = np.random.default_rng(5)
    r_a = rng.normal(size=(40, 3)) * 10.0 ** rng.uniform(-3.0, 2.0, size=(40, 1))
    r_b = np.array([0.3, -0.2, 0.1])
    got = green_tensor_vacuum(1.7, r_a, r_b)
    assert got.shape == (40, 3, 3)
    for point, tensor in zip(r_a, got):
        expected = green_tensor_vacuum(1.7, point, r_b)
        assert expected.shape == (3, 3)
        assert np.max(np.abs(tensor - expected)) <= 1e-14 * np.max(np.abs(expected))
    # r_a and r_b broadcast against each other.
    swapped = green_tensor_vacuum(1.7, r_b, r_a)
    assert np.max(np.abs(swapped - got.transpose(0, 2, 1))) <= 1e-14 * np.max(np.abs(got))


def test_tensor_array_rejects_any_coincident_pair():
    with pytest.raises(DomainError, match="singular at coincident points"):
        green_tensor_vacuum(1.0, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError, match="3-vectors"):
        green_tensor_vacuum(1.0, [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
    # A non-finite coordinate is a bad position, not k times the separation overflowing.
    for r_a in ([math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [[0.0, 0.0, 1.0], [0.0, -math.inf, 0.0]]):
        with pytest.raises(DomainError, match="^positions must be finite$"):
            green_tensor_vacuum(1.0, r_a, [0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="^positions must be finite$"):
            scalar_green_g0(1.0, [0.0, 0.0, 0.0], r_a)


def test_tensor_coincident_rejected():
    with pytest.raises(DomainError):
        green_tensor_vacuum(1.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_im_coincident_value_and_scaling():
    got = im_green_coincident(1.0)
    assert np.allclose(got, np.eye(3) / (6 * math.pi), atol=1e-16)
    assert got[0, 0] == pytest.approx(0.0530516, abs=1e-7)
    assert np.allclose(im_green_coincident(2.0), 2.0 * got, atol=1e-16)
    assert np.trace(got) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)


def test_im_coincident_is_numeric_limit_of_tensor():
    lim = im_green_coincident(1.0)
    errors = []
    for dist in (1e-2, 1e-3):
        tensor = green_tensor_vacuum(1.0, [0.0, 0.0, dist], [0.0, 0.0, 0.0])
        errors.append(np.max(np.abs(tensor.imag - lim)) / lim[0, 0])
    assert errors[1] <= 1e-4
    # second order in the separation
    assert errors[0] / errors[1] >= 50.0


def test_vacuum_decay_rate():
    gamma0 = vacuum_decay_3d(EmissionParams(), 1.0)
    assert gamma0 == pytest.approx(1.0 / (3 * math.pi), rel=1e-15)
    assert gamma0 == pytest.approx(0.1061033, abs=1e-7)


def test_vacuum_decay_dipole_scaling():
    base = vacuum_decay_3d(EmissionParams(), 1.0)
    doubled = vacuum_decay_3d(EmissionParams(dipole_moment=2.0), 1.0)
    assert doubled == pytest.approx(4.0 * base, rel=1e-15)


def test_vacuum_decay_routes_agree_over_frequency_grid():
    # vacuum_decay_3d raises internally if the closed form and the Im-G
    # contraction disagree beyond 1e-12 relative; sweep to exercise that.
    for exponent in range(-3, 4):
        k = 10.0**exponent
        expected = k**3 / (3 * math.pi)
        assert vacuum_decay_3d(EmissionParams(), k) == pytest.approx(expected, rel=1e-12)


def test_vacuum_decay_underflow_is_a_domain_error():
    # k^3 underflows to 0 while the contraction route keeps about 1.06e-151.
    with pytest.raises(DomainError, match="vacuum decay rate underflows"):
        vacuum_decay_3d(EmissionParams(dipole_moment=1e150), 1e-150)
    # Here both routes reach exactly 0, so they agree; the rate must still fail, not read 0.
    with pytest.raises(DomainError, match="vacuum decay rate underflows"):
        vacuum_decay_3d(EmissionParams(dipole_moment=1e-200), 1.0)
    with pytest.raises(DomainError, match="vacuum decay rate underflows"):
        vacuum_decay_3d(EmissionParams(), 1e-120)
