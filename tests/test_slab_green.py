import cmath
import math

import pytest
from hypothesis import given, strategies as st

from slabgreen import (
    Constant,
    DomainError,
    SlabGeometry,
    coefficients,
    context_from_index,
    green,
    green_dx,
    green_vacuum_1d,
    helmholtz_residual,
    interface_mismatch,
    make_context,
    refractive_index,
    region,
)
from conftest import N_LOSSY


def airy_amplitudes(n, k, half_length):
    """Independent route to the slab amplitudes: Airy summation of a single
    film with equal claddings. Transmission includes the propagation phase
    through the film, reflection is referenced at the near face."""
    r = (1 - n) / (1 + n)
    phase = cmath.exp(1j * k * n * (2 * half_length))
    denom = 1 - r * r * phase * phase
    transmission = (1 - r * r) * phase / denom
    reflection = r * (1 - phase * phase) / denom
    return transmission, reflection


def test_vacuum_coefficients_collapse():
    co = coefficients(SlabGeometry(1.0), 1.0 + 0.0j, 1.0)
    assert co.Y == pytest.approx(4.0, abs=1e-15)
    assert co.A == pytest.approx(cmath.exp(2j), abs=1e-15)
    assert co.B == pytest.approx(1.0, abs=1e-15)
    assert co.C == 0.0
    assert co.D == 0.0


@pytest.mark.parametrize("n", [2.0 + 0.0j, 1.3 + 0.0j, 3.7 + 0.0j])
@pytest.mark.parametrize("k", [0.3, 1.0, 6.0])
def test_real_index_unitarity(n, k):
    co = coefficients(SlabGeometry(1.0), n, k)
    assert abs(abs(co.A) ** 2 + abs(co.D) ** 2 - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2.0 + 0.0j, 2.0 + 0.5j, 0.1 + 3.0j, 1.0 + 1e-4j])
def test_transfer_matrix_oracle(n):
    k, half = 1.0, 1.0
    co = coefficients(SlabGeometry(half), n, k)
    transmission, reflection = airy_amplitudes(n, k, half)
    assert co.A == pytest.approx(transmission, rel=1e-13, abs=1e-15)
    assert co.D == pytest.approx(reflection, rel=1e-13, abs=1e-15)


def test_lossy_slab_absorbs(lossy_ctx):
    co = lossy_ctx.coefficients
    assert abs(co.A) ** 2 + abs(co.D) ** 2 < 1.0
    assert interface_mismatch(lossy_ctx, 2.0) <= 1e-12


def test_vacuum_interface_mismatch_is_exact(vacuum_ctx):
    assert interface_mismatch(vacuum_ctx, 2.0) <= 1e-16


def test_interface_mismatch_grid():
    indices = [1.0, 1.5, 2.0, 3.5, 1.2 + 0.05j, 2.0 + 0.5j, 1.0 + 1.0j, 0.5 + 1.5j, 0.1 + 3.0j, 4.0 + 0.2j]
    k_half_products = [0.1 + 1.1 * i for i in range(10)]
    offsets = [0.001 + 0.7 * i for i in range(10)]
    for n in indices:
        for k_half in k_half_products:
            ctx = context_from_index(SlabGeometry(1.0), n, k_half)
            for off in offsets:
                x_s = 1.0 + off
                scale = max(
                    abs(green(1.0, x_s, ctx)),
                    abs(green(-1.0, x_s, ctx)),
                    abs(green_dx(1.0, x_s, ctx)),
                    abs(green_dx(-1.0, x_s, ctx)),
                )
                assert interface_mismatch(ctx, x_s) <= 1e-12 * scale


def test_vacuum_green_equals_free_space(vacuum_ctx):
    k = vacuum_ctx.k
    for x in (-5.0, -1.0, 0.0, 0.4, 1.0, 2.0, 2.5, 7.0):
        got = green(x, 2.5, vacuum_ctx)
        assert got == pytest.approx(green_vacuum_1d(x, 2.5, k), rel=1e-14, abs=1e-15)


def test_green_vacuum_1d_values():
    assert green_vacuum_1d(0.3, 0.3, 1.0) == 0.5j
    assert green_vacuum_1d(0.0, math.pi, 1.0) == pytest.approx(-0.5j, abs=1e-15)
    assert green_vacuum_1d(1.0, 1.0, 2.0).imag == pytest.approx(0.25, abs=1e-16)
    with pytest.raises(DomainError):
        green_vacuum_1d(0.0, 1.0, 0.0)


def test_green_vacuum_1d_phase_overflow_is_a_domain_error():
    # The phase k |x - x'| overflows.
    with pytest.raises(DomainError, match="wave phase is not finite"):
        green_vacuum_1d(0.0, 1e300, 1e300)


def test_im_green_at_source_reflection_form(lossy_ctx):
    k = lossy_ctx.k
    half = lossy_ctx.geometry.half_length
    d = lossy_ctx.coefficients.D
    for x_s in (1.3, 2.0, 4.7):
        expected = (1.0 + (d * cmath.exp(-2j * k * (half - x_s))).real) / (2.0 * k)
        assert green(x_s, x_s, lossy_ctx).imag == pytest.approx(expected, rel=1e-14)


def test_reciprocity_right_region(lossy_ctx):
    for x, x_p in [(1.5, 2.5), (2.0, 6.0), (1.1, 1.2)]:
        forward = green(x, x_p, lossy_ctx)
        backward = green(x_p, x, lossy_ctx)
        assert abs(forward - backward) <= 1e-14 * abs(forward)


def test_reciprocity_across_regions(lossy_ctx):
    # Observer on the left, source on the right, then swapped.
    forward = green(-3.0, 2.0, lossy_ctx)
    backward = green(2.0, -3.0, lossy_ctx)
    assert abs(forward - backward) <= 1e-14 * abs(forward)


@given(
    x=st.floats(-8.0, 8.0),
    x_s=st.floats(1.001, 9.0),
    flip=st.booleans(),
)
def test_mirror_symmetry(x, x_s, flip):
    ctx = context_from_index(SlabGeometry(1.0), N_LOSSY, 1.0)
    source = -x_s if flip else x_s
    direct = green(x, source, ctx)
    mirrored = green(-x, -source, ctx)
    assert isinstance(direct, complex)
    assert direct == mirrored


def test_region_tags():
    half = 1.0
    assert [region(x, half) for x in (-4.0, -2.0)] == ["left", "left"]
    assert [region(x, half) for x in (-1.0, 0.2, 1.0)] == ["inside"] * 3
    assert [region(x, half) for x in (2.0, 3.0)] == ["right", "right"]


def test_radiation_condition(lossy_ctx):
    k = lossy_ctx.k
    delta = 0.37
    # Outgoing to the right beyond the source: phase advances as +k dx.
    g1 = green(6.0, 2.0, lossy_ctx)
    g2 = green(6.0 + delta, 2.0, lossy_ctx)
    ratio = g2 / g1
    assert cmath.phase(ratio) == pytest.approx(k * delta, rel=1e-10)
    assert abs(ratio) == pytest.approx(1.0, rel=1e-12)
    # Outgoing to the left: phase advances as -k dx.
    g1 = green(-6.0, 2.0, lossy_ctx)
    g2 = green(-6.0 - delta, 2.0, lossy_ctx)
    ratio = g2 / g1
    assert cmath.phase(ratio) == pytest.approx(k * delta, rel=1e-10)


def _one_sided_jump(ctx, x_s, h):
    """Second-order one-sided derivative estimates on both sides of the source."""
    g0 = green(x_s, x_s, ctx)
    right = (-3.0 * g0 + 4.0 * green(x_s + h, x_s, ctx) - green(x_s + 2 * h, x_s, ctx)) / (2.0 * h)
    left = (3.0 * g0 - 4.0 * green(x_s - h, x_s, ctx) + green(x_s - 2 * h, x_s, ctx)) / (2.0 * h)
    return right - left


def test_derivative_jump_is_minus_one(lossy_ctx):
    jumps = [_one_sided_jump(lossy_ctx, 2.0, h) for h in (4e-4, 2e-4, 1e-4)]
    assert jumps[-1] == pytest.approx(-1.0, abs=1e-6)
    order = math.log2(abs(jumps[0] - jumps[1]) / abs(jumps[1] - jumps[2]))
    assert order >= 1.8


@pytest.mark.parametrize("x, expected_scale", [(0.3, None), (3.3, None), (-2.2, None)])
def test_helmholtz_residual_second_order(lossy_ctx, x, expected_scale):
    r_h = helmholtz_residual(x, 2.0, lossy_ctx, 1e-3)
    r_h2 = helmholtz_residual(x, 2.0, lossy_ctx, 5e-4)
    assert 3.0 <= r_h / r_h2 <= 5.0


def test_helmholtz_residual_vacuum_bound(vacuum_ctx):
    k = vacuum_ctx.k
    for x in (0.2, -0.4, 3.1):
        h = 1e-3
        g_mag = abs(green(x, 2.0, vacuum_ctx))
        bound = 2.0 * (k**4 * g_mag / 12.0) * h * h
        assert helmholtz_residual(x, 2.0, vacuum_ctx, h) <= bound


def test_helmholtz_residual_guards(lossy_ctx):
    with pytest.raises(DomainError):
        helmholtz_residual(2.0005, 2.0, lossy_ctx, 1e-3)  # stencil crosses the source
    with pytest.raises(DomainError):
        helmholtz_residual(1.0005, 2.0, lossy_ctx, 1e-3)  # stencil crosses the interface
    with pytest.raises(DomainError):
        helmholtz_residual(0.3, 2.0, lossy_ctx, 0.0)


def test_source_position_validation(lossy_ctx):
    for bad in (0.0, 0.5, -1.0, 1.0):
        with pytest.raises(DomainError):
            green(0.0, bad, lossy_ctx)
    with pytest.raises(DomainError):
        green_dx(2.0, 2.0, lossy_ctx)  # derivative undefined at the source


def test_degenerate_resonance_guard():
    # eps on the negative real axis, tiny enough that Y underflows the guard.
    with pytest.raises(DomainError):
        make_context(SlabGeometry(1.0), Constant(-1e-26 + 0.0j), 1.0)


def test_geometry_and_context_validation():
    with pytest.raises(DomainError):
        SlabGeometry(0.0)
    with pytest.raises(DomainError):
        SlabGeometry(float("inf"))
    with pytest.raises(DomainError):
        coefficients(SlabGeometry(1.0), 2.0 - 0.1j, 1.0)  # wrong half plane
    with pytest.raises(DomainError):
        coefficients(SlabGeometry(1.0), 2.0 + 0.1j, 0.0)


def test_context_coefficient_consistency(lossy_ctx):
    n, k, half = lossy_ctx.n, lossy_ctx.k, lossy_ctx.geometry.half_length
    y = (n + 1) ** 2 - (n - 1) ** 2 * cmath.exp(4j * k * n * half)
    assert lossy_ctx.coefficients.Y == pytest.approx(y, rel=1e-15)
    assert lossy_ctx.epsilon == pytest.approx(n * n, rel=1e-15)


@given(
    re=st.floats(-20.0, 20.0),
    im=st.floats(0.0, 20.0),
    k_half=st.floats(0.05, 20.0),
)
def test_interior_exponential_bounded(re, im, k_half):
    eps = complex(re, im)
    if abs(eps) < 1e-6:
        return
    n = refractive_index(eps)
    assert abs(cmath.exp(4j * k_half * n)) <= 1.0 + 1e-12


def test_opaque_slab_stays_finite():
    # k Im(n) l = 900: the interior amplitudes B and C underflow while
    # exp(-+ikn x) alone would overflow.
    n = refractive_index(-8.99 + 0.6j)
    assert n == pytest.approx(0.1 + 3.0j, rel=1e-12)
    ctx = context_from_index(SlabGeometry(3.0), n, 100.0)
    x_s = 4.0
    for i in range(61):
        x = -3.0 + 0.1 * i
        assert cmath.isfinite(green(x, x_s, ctx))
        assert cmath.isfinite(green_dx(x, x_s, ctx))
    scale = max(
        abs(green(3.0, x_s, ctx)),
        abs(green(-3.0, x_s, ctx)),
        abs(green_dx(3.0, x_s, ctx)),
        abs(green_dx(-3.0, x_s, ctx)),
    )
    assert interface_mismatch(ctx, x_s) <= 1e-12 * scale


@given(
    x=st.floats(-6.0, 6.0),
    x_s=st.floats(1.05, 6.0),
    flip=st.booleans(),
)
def test_green_dx_matches_central_difference(x, x_s, flip):
    ctx = context_from_index(SlabGeometry(1.0), N_LOSSY, 1.0)
    h = 1e-5
    # Keep the stencil inside one smooth piece: clear of the source and of
    # the interfaces, where G is only once differentiable.
    source = -x_s if flip else x_s
    if min(abs(x - source), abs(x - 1.0), abs(x + 1.0)) < 10 * h:
        return
    fd = (green(x + h, source, ctx) - green(x - h, source, ctx)) / (2 * h)
    assert abs(green_dx(x, source, ctx) - fd) <= 1e-8
