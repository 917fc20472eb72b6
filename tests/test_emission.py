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

PARAMS = EmissionParams(omega0=1.0)


def test_vacuum_rate_is_zero(vacuum_ctx):
    assert decay_rate_corrected(PARAMS, vacuum_ctx) == pytest.approx(0.0, abs=1e-15)
    assert decay_rate_uncorrected(PARAMS, vacuum_ctx, 2.0) == PARAMS.gamma_vacuum_1d


def test_lossless_rate_is_zero():
    for n in (1.5, 2.0, 3.7):
        ctx = context_from_index(SlabGeometry(1.0), complex(n), 1.0)
        assert abs(decay_rate_corrected(PARAMS, ctx)) <= 1e-12 * PARAMS.gamma_vacuum_1d


def test_corrected_rate_normalization(lossy_ctx):
    co = lossy_ctx.coefficients
    rep = decay_report(PARAMS, lossy_ctx, 2.0)
    expected = (1.0 - abs(co.A) ** 2 - abs(co.D) ** 2) / 2.0
    assert rep.normalized_corrected == pytest.approx(expected, abs=1e-12)
    assert rep.gamma_vac_1d == PARAMS.gamma_vacuum_1d


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
            params = EmissionParams(omega0=k)
            gamma = decay_rate_corrected(params, ctx)
            for off in offsets:
                oracle = decay_from_quadrature(params, ctx, 1.0 + off, tol=1e-10)
                assert oracle == pytest.approx(gamma, rel=1e-7, abs=1e-10 * params.gamma_vacuum_1d)


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
    assert gap > 0.1 * PARAMS.gamma_vacuum_1d


def test_rate_difference_equals_boundary_term(lossy_ctx):
    x_s = 2.0
    gamma = decay_rate_corrected(PARAMS, lossy_ctx)
    gamma_unc = decay_rate_uncorrected(PARAMS, lossy_ctx, x_s)
    f = boundary_term_f(x_s, x_s, lossy_ctx)
    assert gamma_unc - gamma == pytest.approx(-PARAMS.rate_prefactor * f.real, abs=1e-8)


def test_uncorrected_requires_right_region(lossy_ctx):
    for bad in (-2.0, 0.5, 1.0):
        with pytest.raises(DomainError):
            decay_rate_uncorrected(PARAMS, lossy_ctx, bad)


def test_frequency_mismatch_guard(lossy_ctx):
    with pytest.raises(DomainError):
        decay_rate_corrected(EmissionParams(omega0=2.0), lossy_ctx)


def test_params_validation():
    with pytest.raises(DomainError):
        EmissionParams(omega0=0.0)
    with pytest.raises(DomainError):
        EmissionParams(omega0=1.0, dipole_moment=-1.0)


def test_dipole_scaling(lossy_ctx):
    doubled = EmissionParams(omega0=1.0, dipole_moment=2.0)
    assert decay_rate_corrected(doubled, lossy_ctx) == pytest.approx(
        4.0 * decay_rate_corrected(PARAMS, lossy_ctx), rel=1e-14
    )


def test_limit_study_no_coupling_diagnostics():
    geometry = SlabGeometry(1.0)
    rows = limit_study(PARAMS, geometry, [complex(1.0, 10.0**-m) for m in range(1, 9)], x_source=2.0)
    assert all(row.error is None for row in rows)
    # Rate vanishes linearly in the loss: gamma / Im(eps) stays bounded.
    ratios = [row.gamma / row.epsilon.imag for row in rows]
    assert all(0.0 < r < 10.0 for r in ratios)
    last = rows[-1]
    assert abs(last.f_plus_im_g0) <= 1e-6
    assert last.gamma / PARAMS.gamma_vacuum_1d <= 1e-7
    assert last.gamma_uncorrected == pytest.approx(PARAMS.gamma_vacuum_1d, rel=1e-7)


def test_limit_study_exact_vacuum_row():
    rows = limit_study(PARAMS, SlabGeometry(1.0), [1.0 + 0.0j], x_source=2.0)
    row = rows[0]
    assert abs(row.gamma) <= 1e-15
    assert row.gamma_uncorrected == pytest.approx(PARAMS.gamma_vacuum_1d, abs=1e-15)
    assert row.abs_d_sq <= 1e-30


def test_limit_study_marks_failed_rows():
    rows = limit_study(PARAMS, SlabGeometry(1.0), [1.0 + 0.1j, 0.0j, 1.0 - 0.5j, 1.0 + 0.01j], x_source=2.0)
    assert rows[0].error is None
    assert rows[1].error is not None  # degenerate eps = 0
    assert rows[2].error is not None  # gain medium
    assert rows[3].error is None
    assert math.isnan(rows[1].gamma)


def test_limit_study_default_source():
    rows = limit_study(PARAMS, SlabGeometry(1.0), [1.0 + 0.01j])
    assert rows[0].error is None


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
    params = EmissionParams(omega0=omega)
    gamma = decay_rate_corrected(params, ctx)
    gamma_unc = decay_rate_uncorrected(params, ctx, 1.5)
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
