import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slabgreen import (
    Constant,
    DomainError,
    DrudeLorentz,
    EmissionParams,
    SlabGeometry,
    boundary_term_f,
    context_from_index,
    decay_from_quadrature,
    decay_rate_corrected,
    decay_rate_uncorrected,
    decay_report,
    limit_study,
    make_context,
    refractive_index,
)
from slabgreen.errors import row_errors

PARAMS = EmissionParams()


def test_vacuum_rate_is_zero(vacuum_ctx):
    assert decay_rate_corrected(PARAMS, vacuum_ctx) == pytest.approx(0.0, abs=1e-15)
    assert decay_rate_uncorrected(PARAMS, vacuum_ctx, 2.0) == PARAMS.gamma_vacuum_1d(vacuum_ctx.k)


def test_lossless_rate_is_zero():
    for n in (1.5, 2.0, 3.7):
        ctx = context_from_index(SlabGeometry(1.0), complex(n), 1.0)
        assert abs(decay_rate_corrected(PARAMS, ctx)) <= 1e-12 * PARAMS.gamma_vacuum_1d(ctx.k)


def test_corrected_rate_normalization(lossy_ctx):
    co = lossy_ctx.coefficients
    rep = decay_report(PARAMS, lossy_ctx, 2.0)
    expected = (1.0 - abs(co.A) ** 2 - abs(co.D) ** 2) / 2.0
    assert rep.normalized_corrected == pytest.approx(expected, abs=1e-12)
    assert rep.gamma_vac_1d == PARAMS.gamma_vacuum_1d(lossy_ctx.k)


def test_corrected_rate_matches_quadrature(lossy_ctx):
    gamma = decay_rate_corrected(PARAMS, lossy_ctx)
    assert gamma > 0.0
    oracle = decay_from_quadrature(PARAMS, lossy_ctx, 2.0, tol=1e-10)
    assert oracle == pytest.approx(gamma, rel=1e-7)


def test_quadrature_rate_position_independent(lossy_ctx):
    values = [decay_from_quadrature(PARAMS, lossy_ctx, x_s, tol=1e-10) for x_s in (1.5, 2.0, 3.7)]
    for value in values[1:]:
        assert value == pytest.approx(values[0], rel=1e-7)


def test_oracle_equivalence_grid():
    indices = [1.5 + 0.2j, 2.0 + 0.5j, 1.1 + 1.0j, 0.3 + 2.0j, 3.0 + 0.05j]
    wavenumbers = [0.3, 0.7, 1.0, 2.0, 4.0]
    offsets = [0.1, 0.5, 1.0, 2.0, 5.0]
    for n in indices:
        for k in wavenumbers:
            ctx = context_from_index(SlabGeometry(1.0), n, k)
            gamma = decay_rate_corrected(PARAMS, ctx)
            for off in offsets:
                oracle = decay_from_quadrature(PARAMS, ctx, 1.0 + off, tol=1e-10)
                assert oracle == pytest.approx(gamma, rel=1e-7, abs=1e-10 * PARAMS.gamma_vacuum_1d(k))


def test_uncorrected_rate_oscillates_with_period_pi_over_k(lossy_ctx):
    k = lossy_ctx.k
    half = lossy_ctx.geometry.half_length
    count = 4001
    span = 4.0 * math.pi / k
    xs = [half + 1e-3 + span * i / (count - 1) for i in range(count)]
    values = [decay_rate_uncorrected(PARAMS, lossy_ctx, x) for x in xs]
    peaks = []
    for i in range(1, count - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            # parabolic refinement of the peak position
            denom = values[i - 1] - 2 * values[i] + values[i + 1]
            shift = 0.5 * (values[i - 1] - values[i + 1]) / denom
            peaks.append(xs[i] + shift * (xs[1] - xs[0]))
    assert len(peaks) >= 3
    spacings = [b - a for a, b in zip(peaks, peaks[1:])]
    period = sum(spacings) / len(spacings)
    assert period == pytest.approx(math.pi / k, rel=1e-3)


def test_discrepancy_witness(lossy_ctx):
    # The two rates are not a small correction apart: somewhere on the grid
    # they disagree by more than a tenth of the free-space reference.
    gamma = decay_rate_corrected(PARAMS, lossy_ctx)
    gap = max(
        abs(decay_rate_uncorrected(PARAMS, lossy_ctx, 1.01 + 0.05 * i) - gamma)
        for i in range(100)
    )
    assert gap > 0.1 * PARAMS.gamma_vacuum_1d(lossy_ctx.k)


def test_rate_difference_equals_boundary_term(lossy_ctx):
    x_s = 2.0
    gamma = decay_rate_corrected(PARAMS, lossy_ctx)
    gamma_unc = decay_rate_uncorrected(PARAMS, lossy_ctx, x_s)
    f = boundary_term_f(x_s, x_s, lossy_ctx)
    assert gamma_unc - gamma == pytest.approx(-PARAMS.rate_prefactor(lossy_ctx.k) * f.real, abs=1e-8)


def test_uncorrected_requires_right_region(lossy_ctx):
    for bad in (-2.0, 0.5, 1.0):
        with pytest.raises(DomainError):
            decay_rate_uncorrected(PARAMS, lossy_ctx, bad)


def test_params_validation():
    with pytest.raises(DomainError):
        EmissionParams(dipole_moment=-1.0)


def test_prefactor_outside_normal_range_is_a_domain_error(lossy_ctx):
    # hbar eps0 S underflows to 0: a Python-float k divides to inf, not ZeroDivisionError.
    assert EmissionParams(hbar=1e-34, epsilon0=1e-11, surface_unit=1e-320).gamma_vacuum_1d(1.0) == math.inf
    for params in (EmissionParams(dipole_moment=1e-200), EmissionParams(dipole_moment=1e-10, surface_unit=1e300)):
        with pytest.raises(DomainError, match="emission prefactor is not a normal positive float"):
            decay_report(params, lossy_ctx, 2.0)


def test_dipole_scaling(lossy_ctx):
    doubled = EmissionParams(dipole_moment=2.0)
    assert decay_rate_corrected(doubled, lossy_ctx) == pytest.approx(
        4.0 * decay_rate_corrected(PARAMS, lossy_ctx), rel=1e-14
    )


NO_COUPLING_PATH = [complex(1.0, 10.0**-m) for m in range(1, 9)]


def test_limit_study_no_coupling_diagnostics():
    errors = row_errors(len(NO_COUPLING_PATH))
    study = limit_study(PARAMS, SlabGeometry(1.0), NO_COUPLING_PATH, 1.0, x_source=2.0, errors=errors)
    assert all(error is None for error in errors)
    assert study.epsilon.tolist() == NO_COUPLING_PATH
    # Rate vanishes linearly in the loss: gamma / Im(eps) stays bounded.
    ratios = study.gamma / study.epsilon.imag
    assert np.all((0.0 < ratios) & (ratios < 10.0))
    assert abs(study.f_plus_im_g0[-1]) <= 1e-6
    assert study.gamma[-1] / PARAMS.gamma_vacuum_1d(1.0) <= 1e-7
    assert study.gamma_uncorrected[-1] == pytest.approx(PARAMS.gamma_vacuum_1d(1.0), rel=1e-7)
    # Without a record the same path gives the same columns.
    plain_study = limit_study(PARAMS, SlabGeometry(1.0), NO_COUPLING_PATH, 1.0, x_source=2.0)
    assert np.array_equal(plain_study.gamma, study.gamma)
    assert np.array_equal(plain_study.f_plus_im_g0, study.f_plus_im_g0)


def test_limit_study_exact_vacuum_row():
    study = limit_study(PARAMS, SlabGeometry(1.0), [1.0 + 0.0j], 1.0, x_source=2.0)
    assert abs(study.gamma[0]) <= 1e-15
    assert study.gamma_uncorrected[0] == pytest.approx(PARAMS.gamma_vacuum_1d(1.0), abs=1e-15)
    assert study.abs_d_sq[0] <= 1e-30
    assert study.abs_a_sq[0] == pytest.approx(1.0, abs=1e-15)
    # F = -Im G0 = -1/2k exactly in vacuum.
    assert abs(study.f_plus_im_g0[0]) <= 1e-15


def test_limit_study_marks_failed_rows():
    path = [1.0 + 0.1j, 0.0j, 1.0 - 0.5j, 1.0 + 0.01j]
    errors = row_errors(len(path))
    study = limit_study(PARAMS, SlabGeometry(1.0), path, 1.0, x_source=2.0, errors=errors)
    assert errors[0] is None and errors[3] is None
    # The degenerate eps = 0 and the gain medium fail with their own messages.
    for i in (1, 2):
        with pytest.raises(DomainError) as scalar:
            limit_study(PARAMS, SlabGeometry(1.0), [path[i]], 1.0, x_source=2.0)
        assert errors[i] == str(scalar.value)
    assert "eps = 0" in errors[1]
    assert "passive" in errors[2]
    good = limit_study(PARAMS, SlabGeometry(1.0), [path[0], path[3]], 1.0, x_source=2.0)
    assert study.gamma[[0, 3]] == pytest.approx(good.gamma, rel=1e-14)
    # Without a record the first failing entry raises, whatever check fails first.
    with pytest.raises(DomainError, match="eps = 0"):
        limit_study(PARAMS, SlabGeometry(1.0), [0.0j, 1.0 - 0.5j], 1.0, x_source=2.0)


def test_limit_study_default_source():
    errors = row_errors(1)
    study = limit_study(PARAMS, SlabGeometry(1.0), [1.0 + 0.01j], 1.0, errors=errors)
    assert errors[0] is None
    explicit = limit_study(PARAMS, SlabGeometry(1.0), [1.0 + 0.01j], 1.0, x_source=1.0 + 1.0 / 1.0)
    assert study.gamma_uncorrected.tolist() == explicit.gamma_uncorrected.tolist()


def test_small_loss_ratio_converges():
    geometry = SlabGeometry(1.0)
    ratios = []
    for m in range(1, 9):
        delta = 10.0**-m
        ctx = make_context(geometry, Constant(complex(1.0, delta)), 1.0)
        ratios.append(decay_rate_corrected(PARAMS, ctx) / delta)
    assert abs(ratios[-1] / ratios[-2] - 1.0) <= 0.01


@given(
    re=st.floats(-10.0, 10.0),
    im=st.floats(0.0, 10.0),
    k_half=st.floats(0.05, 12.0),
)
def test_passivity_bound_on_amplitudes(re, im, k_half):
    eps = complex(re, im)
    if abs(eps) < 1e-6:
        return
    ctx = context_from_index(SlabGeometry(1.0), refractive_index(eps), k_half)
    co = ctx.coefficients
    assert abs(co.A) ** 2 + abs(co.D) ** 2 <= 1.0 + 1e-12


def _reference_row(terms, omega, half_length, x_s):
    """One row of a frequency sweep in plain cmath, as it was evaluated before the closed forms took arrays."""
    eps = 1.0 + 0.0j
    for strength, resonance, damping in terms:
        eps += strength / (resonance * resonance - omega * omega - 1j * damping * omega)
    n = cmath.sqrt(eps)
    if n.imag < 0.0 or (n.imag == 0.0 and n.real < 0.0):
        n = -n
    k, l = omega, half_length
    e4 = cmath.exp(4j * k * n * l)
    y = (n + 1) ** 2 - (n - 1) ** 2 * e4
    a = 4 * n * cmath.exp(2j * k * n * l) / y
    d = (n * n - 1) * (e4 - 1) / y
    gamma = 0.5 * omega * (1.0 - abs(a) ** 2 - abs(d) ** 2)
    gamma_unc = omega * (1.0 + (d * cmath.exp(-2j * k * (l - x_s))).real)
    f = -((abs(a) ** 2 + abs(d) ** 2) + 1.0 + 2.0 * (d * cmath.exp(-2j * k * (l - x_s))).real) / (4.0 * k)
    return a, d, gamma, gamma_unc, f


def test_frequency_sweep_matches_row_by_row_reference():
    # Bounds of the array evaluation against the row-by-row one: 1e-12 of the
    # amplitude for A and D, 1e-12 of gamma_vac_1d (= omega) for the rates.
    terms = ((4.0, 1.0, 0.3), (1.0, 0.0, 0.1))
    geometry = SlabGeometry(1.0)
    omega = 0.2 + np.arange(200) * 0.025
    ctx = make_context(geometry, DrudeLorentz(terms), omega)
    gamma = decay_rate_corrected(PARAMS, ctx)
    gamma_unc = decay_rate_uncorrected(PARAMS, ctx, 1.5)
    f = boundary_term_f(1.5, 1.5, ctx)
    co = ctx.coefficients
    for i, w in enumerate(omega.tolist()):
        a, d, g, g_unc, f_ref = _reference_row(terms, w, 1.0, 1.5)
        assert abs(co.A[i] - a) <= 1e-12 * abs(a)
        assert abs(co.D[i] - d) <= 1e-12 * abs(d)
        assert abs(gamma[i] - g) <= 1e-12 * w
        assert abs(gamma_unc[i] - g_unc) <= 1e-12 * w
        assert abs(f[i] - f_ref) <= 1e-12 / w
        # A single frequency runs the same code as a sweep of one row.
        single = make_context(geometry, DrudeLorentz(terms), w)
        assert isinstance(single.coefficients.D, complex)
        assert abs(single.coefficients.D - co.D[i]) <= 1e-14 * abs(d)
