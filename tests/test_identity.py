import cmath
import math

import pytest

from slabgreen import (
    DomainError,
    QuadratureError,
    SlabGeometry,
    boundary_term_b,
    boundary_term_f,
    context_from_index,
    green,
    identity_report,
    integrate_adaptive,
    lhs_quadrature,
)


def test_integrator_polynomial_exact():
    value, err = integrate_adaptive(lambda x: 3 * x * x + 1j * x, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(1.0 + 0.5j, abs=1e-14)
    assert err <= 1e-12


def test_integrator_oscillatory():
    m = 35
    value, err = integrate_adaptive(lambda x: cmath.exp(1j * m * x), 0.0, 2 * math.pi, 1e-10)
    assert abs(value) <= 1e-10
    assert err <= 1e-10


def test_integrator_honest_error_estimate():
    exact = (cmath.exp(2j * 3.0) - 1.0) / 2j
    value, err = integrate_adaptive(lambda x: cmath.exp(2j * x), 0.0, 3.0, 1e-10)
    assert abs(value - exact) <= max(err, 1e-13)


def test_integrator_budget_exhaustion():
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda x: math.sin(500.0 * x), 0.0, 1.0, 1e-30, max_panels=64)
    exc = info.value
    assert exc.error_estimate > 1e-30
    assert abs(exc.best_estimate - (1 - math.cos(500.0)) / 500.0) < 1e-3


def test_integrator_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, 0.0)


def test_b_vacuum_value(vacuum_ctx):
    b = boundary_term_b(2.0, 2.0, vacuum_ctx, 5.0)
    assert b == pytest.approx(-0.5j, abs=1e-14)


def test_b_box_independence(lossy_ctx):
    b5 = boundary_term_b(2.0, 2.0, lossy_ctx, 5.0)
    b50 = boundary_term_b(2.0, 2.0, lossy_ctx, 50.0)
    assert abs(b5 - b50) <= 1e-10 * abs(b5)


def test_b_antisymmetry(lossy_ctx):
    x_a, x_b = 2.0, 3.0
    lhs = boundary_term_b(x_a, x_b, lossy_ctx, 7.0).conjugate()
    rhs = -boundary_term_b(x_b, x_a, lossy_ctx, 7.0)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_b_finite_difference_oracle(lossy_ctx):
    # Recompute b with centered finite differences in place of the analytic
    # derivative; agreement validates the closed-form dG/dx used in b.
    box = 6.0
    h = 1e-6
    x_a, x_b = 2.0, 2.5

    def fd_dx(x, x_s):
        return (green(x + h, x_s, lossy_ctx) - green(x - h, x_s, lossy_ctx)) / (2 * h)

    fd_b = (
        green(-box, x_b, lossy_ctx).conjugate() * fd_dx(-box, x_a)
        - green(box, x_b, lossy_ctx).conjugate() * fd_dx(box, x_a)
    )
    assert boundary_term_b(x_b, x_a, lossy_ctx, box) == pytest.approx(fd_b, abs=1e-8)


def test_b_validation(lossy_ctx):
    with pytest.raises(DomainError):
        boundary_term_b(2.0, 2.0, lossy_ctx, 1.5)  # box smaller than a source
    with pytest.raises(DomainError):
        boundary_term_b(0.5, 2.0, lossy_ctx, 5.0)  # source not in right region
    with pytest.raises(DomainError):
        boundary_term_b(-3.0, 2.0, lossy_ctx, 5.0)


def test_f_vacuum_is_minus_im_g0(vacuum_ctx):
    f = boundary_term_f(2.0, 2.0, vacuum_ctx)
    assert f == pytest.approx(-0.5, abs=1e-15)
    # General offsets too: F = -cos(k dx)/2k in vacuum.
    f = boundary_term_f(2.0, 3.2, vacuum_ctx)
    assert f == pytest.approx(-math.cos(1.2) / 2.0, abs=1e-14)


def test_f_real_at_coincidence(lossy_ctx):
    f = boundary_term_f(2.7, 2.7, lossy_ctx)
    assert abs(f.imag) <= 1e-14


def test_f_coincident_closed_form(lossy_ctx):
    co = lossy_ctx.coefficients
    k = lossy_ctx.k
    half = lossy_ctx.geometry.half_length
    for x_s in (1.2, 2.0, 3.8):
        expected = -(
            1.0 + abs(co.A) ** 2 + abs(co.D) ** 2
            + 2.0 * (co.D * cmath.exp(-2j * k * (half - x_s))).real
        ) / (4.0 * k)
        assert boundary_term_f(x_s, x_s, lossy_ctx) == pytest.approx(expected, rel=1e-14)


def test_f_assembled_from_b(lossy_ctx):
    x_a, x_b = 2.0, 3.0
    assembled = (
        boundary_term_b(x_b, x_a, lossy_ctx, 8.0)
        - boundary_term_b(x_a, x_b, lossy_ctx, 8.0).conjugate()
    ) / 2j
    closed = boundary_term_f(x_a, x_b, lossy_ctx)
    assert abs(closed - assembled) <= 1e-12 * abs(closed)


def test_lhs_vacuum_is_zero(vacuum_ctx):
    value, err = lhs_quadrature(2.0, 2.0, vacuum_ctx, tol=1e-10)
    assert value == 0.0
    assert err == 0.0


def test_corrected_identity_closes(lossy_ctx):
    value, err = lhs_quadrature(2.0, 2.0, lossy_ctx, tol=1e-8)
    im_g = green(2.0, 2.0, lossy_ctx).imag
    f = boundary_term_f(2.0, 2.0, lossy_ctx)
    assert abs(value - im_g - f) <= 1e-8
    assert err <= 1e-8


def test_uncorrected_identity_misses_exactly_f(lossy_ctx):
    value, _ = lhs_quadrature(2.0, 2.0, lossy_ctx, tol=1e-8)
    im_g = green(2.0, 2.0, lossy_ctx).imag
    f = boundary_term_f(2.0, 2.0, lossy_ctx)
    assert abs((value - im_g) - f) <= 1e-8
    assert abs(f) >= 0.1  # the missing piece is far from negligible


def test_vacuum_report_assembly(vacuum_ctx):
    rep = identity_report(2.0, 2.0, vacuum_ctx, tol=1e-8)
    assert rep.lhs == 0.0
    assert rep.im_g == pytest.approx(0.5, abs=1e-15)
    assert rep.f == pytest.approx(-0.5, abs=1e-15)
    assert abs(rep.residual_corrected) <= 1e-15


def test_report_fields(lossy_ctx):
    rep = identity_report(2.0, 2.0, lossy_ctx, tol=1e-8)
    assert rep.residual_corrected == rep.lhs - rep.im_g - rep.f
    assert rep.residual_uncorrected == rep.lhs - rep.im_g
    assert rep.quadrature_estimate_error <= 1e-8
    assert abs(rep.residual_corrected) <= max(1e-8, 1e-10 * abs(rep.lhs))


def test_report_sweep_of_pairs(lossy_ctx, metal_ctx):
    points = [1.3, 2.0, 2.9, 4.1, 5.5]
    pairs = [(a, b) for a in points for b in points][:20]
    for ctx in (lossy_ctx, metal_ctx):
        for x_a, x_b in pairs:
            rep = identity_report(x_a, x_b, ctx, tol=1e-8)
            assert abs(rep.residual_corrected) <= max(1e-8, 1e-10 * abs(rep.lhs))
            assert abs(rep.residual_uncorrected - rep.f) <= max(1e-8, 1e-10 * abs(rep.lhs))


def test_no_coupling_limit_of_f():
    ctx = context_from_index(SlabGeometry(1.0), cmath.sqrt(1 + 1e-8j), 1.0)
    f = boundary_term_f(2.0, 2.0, ctx)
    assert abs(f + 0.5) <= 1e-6


def test_identity_off_diagonal_pair(lossy_ctx):
    rep = identity_report(1.7, 3.4, lossy_ctx, tol=1e-8)
    assert abs(rep.residual_corrected) <= 1e-8
    assert rep.lhs.imag != 0.0  # genuinely complex off the diagonal


def test_report_propagates_quadrature_failure(lossy_ctx):
    rep = identity_report(2.0, 2.0, lossy_ctx, tol=1e-30, max_panels=32)
    assert "stalled" in rep.error
    assert rep.quadrature_estimate_error > 1e-30
    assert rep.residual_corrected == rep.lhs - rep.im_g - rep.f


def test_lhs_validation(lossy_ctx):
    with pytest.raises(DomainError):
        lhs_quadrature(0.2, 2.0, lossy_ctx)
    with pytest.raises(DomainError):
        lhs_quadrature(2.0, 2.0, lossy_ctx, tol=-1.0)
