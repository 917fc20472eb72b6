import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slabgreen import (
    Constant,
    DecayRateReport,
    DomainError,
    DrudeLorentz,
    EmissionParams,
    IdentityReport,
    LimitStudyReport,
    SlabCoefficients,
    SlabGeometry,
    Tabulated,
    WaveContext,
    boundary_term_b,
    coefficients,
    context_from_index,
    green,
    green_dx,
    green_vacuum_1d,
    helmholtz_residual,
    interface_mismatch,
    make_context,
    refractive_index,
)
from slabgreen.errors import row_errors
from conftest import N_LOSSY
from regimes import absorbing_index, log_uniform


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


def _face_scale(ctx, x_s):
    """Largest |G| or |dG/dx| on the two faces, per row."""
    half = ctx.geometry.half_length
    faces = [f(x, x_s, ctx) for f in (green, green_dx) for x in (half, -half)]
    return np.max(np.abs(np.broadcast_arrays(*faces)), axis=0)


def test_interface_mismatch_grid():
    # 10 indices x 10 values of k l x 10 source offsets, one array context.
    indices = [1.0, 1.5, 2.0, 3.5, 1.2 + 0.05j, 2.0 + 0.5j, 1.0 + 1.0j, 0.5 + 1.5j, 0.1 + 3.0j, 4.0 + 0.2j]
    n = np.array(indices)[:, None, None]
    k_half = (0.1 + 1.1 * np.arange(10))[:, None]
    x_s = 1.0 + (0.001 + 0.7 * np.arange(10))
    ctx = context_from_index(SlabGeometry(1.0), n, k_half)
    mismatch = interface_mismatch(ctx, x_s)
    assert mismatch.shape == (10, 10, 10)
    assert np.all(mismatch <= 1e-12 * _face_scale(ctx, x_s))


def test_vacuum_green_equals_free_space(vacuum_ctx):
    x = np.array([-5.0, -1.0, 0.0, 0.4, 1.0, 2.0, 2.5, 7.0])
    got = green(x, 2.5, vacuum_ctx)
    assert got == pytest.approx(green_vacuum_1d(x, 2.5, vacuum_ctx.k), rel=1e-14, abs=1e-15)


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


@pytest.mark.parametrize("k", [0.0, -1.0, math.inf, math.nan, 1e-320])
def test_wavenumber_and_its_reciprocal_checked_once(k):
    # k = 1e-320 is positive and finite, but G's 1/k overflows; a Python 0.0 must not divide.
    with pytest.raises(DomainError, match="wavenumber k and 1/k must be positive and finite"):
        coefficients(SlabGeometry(1.0), 2.0 + 0.5j, k)


def test_context_coefficient_consistency(lossy_ctx):
    n, k, half = lossy_ctx.n, lossy_ctx.k, lossy_ctx.geometry.half_length
    y = (n + 1) ** 2 - (n - 1) ** 2 * cmath.exp(4j * k * n * half)
    assert lossy_ctx.coefficients.Y == pytest.approx(y, rel=1e-15)
    assert lossy_ctx.epsilon == pytest.approx(n * n, rel=1e-15)


@settings(max_examples=50)
@given(n=absorbing_index(), k=log_uniform(-1.0, 1.3), l=st.floats(0.1, 3.0))
def test_interior_amplitudes_meet_the_exterior_waves(n, k, l):
    """The interior field B e^{-iknx} + C e^{iknx} and its x-derivative are continuous at both faces.

    Outside, the field is e^{-ikx} + D e^{-2ikl} e^{ikx} on the right and A e^{-ik(x + 2l)} on the left;
    the derivative is compared divided by ik. This is the one check of the c_re and c_im columns.
    """
    assume(k * n.imag * l <= 15.0)  # no term over- or underflows
    co = context_from_index(SlabGeometry(l), n, k).coefficients
    inward, outward, face = cmath.exp(-1j * k * n * l), cmath.exp(1j * k * n * l), cmath.exp(-1j * k * l)
    waves = [co.B * inward, co.C * outward, co.B * outward, co.C * inward]  # at x = l, then at x = -l
    b_right, c_right, b_left, c_left = waves
    residuals = [
        b_right + c_right - face * (1 + co.D),
        n * (c_right - b_right) + face * (1 - co.D),
        b_left + c_left - co.A * face,
        n * (c_left - b_left) + co.A * face,
    ]
    scale = 1 + abs(co.A) + abs(co.D) + abs(n) * sum(map(abs, waves))
    assert max(map(abs, residuals)) <= 1e-13 * scale


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
    x = -3.0 + 0.1 * np.arange(61)
    assert np.all(np.isfinite(green(x, x_s, ctx)))
    assert np.all(np.isfinite(green_dx(x, x_s, ctx)))
    assert interface_mismatch(ctx, x_s) <= 1e-12 * _face_scale(ctx, x_s)


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


K10 = context_from_index(SlabGeometry(1.0), N_LOSSY, 10.0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: green(math.nan, 2.0, K10), "observer position must be finite", id="green-nan-x"),
        pytest.param(lambda: green(0.3, math.nan, K10), "source must lie strictly outside", id="green-nan-source"),
        pytest.param(lambda: green(0.3, math.inf, K10), "wave phase is not finite", id="green-inf-source"),
        *(
            pytest.param(lambda f=f, x=x: f(x, 2.0, K10), message, id=f"{f.__name__}-{x:g}")
            for f in (green, green_dx)
            for x, message in (
                (1e308, "wave phase is not finite"),
                (-1e308, "wave phase is not finite"),
                (math.inf, "observer position must be finite"),
                (-math.inf, "observer position must be finite"),
            )
        ),
        pytest.param(lambda: interface_mismatch(K10, 1e308), "wave phase is not finite", id="mismatch-1e308"),
        pytest.param(lambda: boundary_term_b(2.0, 2.0, K10, 1e308), "wave phase is not finite", id="b-box-1e308"),
        pytest.param(lambda: boundary_term_b(2.0, 2.0, K10, math.inf), "box must be finite", id="b-box-inf"),
        pytest.param(lambda: helmholtz_residual(math.nan, 2.0, K10, 1e-3), "observer position", id="fd-nan-x"),
        pytest.param(lambda: helmholtz_residual(0.3, 2.0, K10, math.inf), r"step h and h\^2 must be", id="fd-inf-step"),
        pytest.param(lambda: helmholtz_residual(0.3, 2.0, K10, 1e-200), r"step h and h\^2 must be", id="fd-tiny-step"),
        pytest.param(lambda: helmholtz_residual(0.3, 2.0, K10, 1e-17), "below the rounding of x", id="fd-step-below-ulp"),
        pytest.param(
            lambda: helmholtz_residual(np.array([3.0, 1e6]), 2.0, K10, 1e-11),
            "below the rounding of x",
            id="fd-step-below-ulp-array",
        ),
        pytest.param(
            lambda: helmholtz_residual(0.3, 2.0, context_from_index(SlabGeometry(1.0), 1.5, 1e160), 1e-3),
            "residual is not finite",
            id="fd-k-squared-overflows",
        ),
        pytest.param(lambda: green_vacuum_1d(0.0, 1.0, 1e-320), "1/k must be", id="vacuum-tiny-k"),
    ],
)
def test_check_routes_fail_with_domain_error(call, message):
    # RuntimeWarnings are errors in this suite, so an overflow that only warned fails here too.
    with pytest.raises(DomainError, match=message):
        call()


def test_check_routes_scalar_and_array_results(lossy_ctx):
    assert type(green(0.3, 2.0, lossy_ctx)) is complex
    assert type(green_dx(0.3, 2.0, lossy_ctx)) is complex
    assert type(boundary_term_b(2.0, 2.5, lossy_ctx, 5.0)) is complex
    assert type(green_vacuum_1d(0.3, 2.0, 1.0)) is complex
    assert type(helmholtz_residual(0.3, 2.0, lossy_ctx, 1e-3)) is float
    assert type(interface_mismatch(lossy_ctx, 2.0)) is float
    # Rows (3, 1) against points (4,): every route broadcasts to (3, 4), entry by entry equal to scalar calls.
    n = np.array([[N_LOSSY], [1.5 + 0.1j], [0.1 + 3.0j]])
    ctx = context_from_index(SlabGeometry(1.0), n, 2.0)
    x = np.array([-2.0, 0.3, 0.5, 4.0])
    sources = np.array([1.5, 2.0, 2.5, 3.0])
    # numpy's array loops may round a complex product differently from its scalar path, so
    # entries agree to rounding. The finite difference divides that rounding by h^2 = 1e-4 and
    # subtracts terms some 1e5 times its ~2e-5 result; the mismatch is itself rounding.
    close, fd, rounding = dict(rel=1e-14, abs=0.0), dict(rel=1e-6, abs=0.0), dict(rel=0.0, abs=1e-15)
    routes = [
        (lambda c, i: green(x[i], -2.5, c), green(x, -2.5, ctx), close),
        (lambda c, i: green_dx(x[i], 2.5, c), green_dx(x, 2.5, ctx), close),
        (lambda c, i: helmholtz_residual(x[i], 2.5, c, 1e-2), helmholtz_residual(x, 2.5, ctx, 1e-2), fd),
        (lambda c, i: interface_mismatch(c, sources[i]), interface_mismatch(ctx, sources), rounding),
        (lambda c, i: boundary_term_b(sources[i], 2.0, c, 5.0), boundary_term_b(sources, 2.0, ctx, 5.0), close),
        (lambda c, i: green_vacuum_1d(x[i], 2.5, c.k), green_vacuum_1d(x, 2.5, np.full((3, 1), 2.0)), close),
    ]
    for scalar, array, tolerance in routes:
        assert isinstance(array, np.ndarray) and array.shape == (3, 4)
        for row, index in np.ndindex(3, 4):
            one = context_from_index(SlabGeometry(1.0), n[row, 0], 2.0)
            assert array[row, index] == pytest.approx(scalar(one, index), **tolerance)


_UNIT = SlabCoefficients(1, 2, 3, 4, 5)
# (record, its repr, None or a build with invalid rows given an error record, the rows it marks)
_RECORDS = [
    (
        SlabGeometry(1.0),
        "SlabGeometry(half_length=1.0)",
        lambda errors: SlabGeometry(np.array([1.0, -1.0]), errors=errors),
        [None, "slab half length must be positive and finite"],
    ),
    (
        Constant(2 + 1j),
        "Constant(epsilon=(2+1j))",
        lambda errors: Constant(np.array([2 - 1j, 2 + 1j]), errors=errors),
        ["gain media are not supported: Im epsilon must be >= 0", None],
    ),
    (
        EmissionParams(hbar=2.0),
        "EmissionParams(dipole_moment=1.0, hbar=2.0, epsilon0=1.0, surface_unit=1.0)",
        None,
        None,
    ),
    (DrudeLorentz([(4, 0, 0.5)]), "DrudeLorentz(terms=((4.0, 0.0, 0.5),))", None, None),
    (Tabulated([1, 2], [2, 3j]), "Tabulated(omegas=(1.0, 2.0), values=((2+0j), 3j))", None, None),
    (_UNIT, "SlabCoefficients(A=1, B=2, C=3, D=4, Y=5)", None, None),
    (
        WaveContext(1.0, 2.0, SlabGeometry(1.0), _UNIT),
        "WaveContext(k=1.0, n=2.0, geometry=SlabGeometry(half_length=1.0), coefficients=" + repr(_UNIT) + ")",
        None,
        None,
    ),
    (
        IdentityReport(1j, 0.5, 0.25j, 1e-9),
        "IdentityReport(lhs=1j, im_g=0.5, f=0.25j, quadrature_estimate_error=1e-09, error=None)",
        None,
        None,
    ),
    (
        DecayRateReport(1.0, 2.0, None, 4.0),
        "DecayRateReport(gamma_corrected=1.0, gamma_uncorrected=2.0, gamma_quadrature=None, gamma_vac_1d=4.0)",
        None,
        None,
    ),
    (
        LimitStudyReport(1, 2, 3, 4, 5, 6),
        "LimitStudyReport(epsilon=1, gamma=2, gamma_uncorrected=3, f_plus_im_g0=4, abs_a_sq=5, abs_d_sq=6)",
        None,
        None,
    ),
]


@pytest.mark.parametrize("record, text, invalid, marked", _RECORDS, ids=[type(r[0]).__name__ for r in _RECORDS])
def test_public_records_are_immutable_field_reprs(record, text, invalid, marked):
    # Immutable records can be shared freely across threads.
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    assert repr(record) == text
    if invalid is not None:
        errors = row_errors(2)
        invalid(errors)  # marks rows instead of raising
        assert errors.tolist() == marked
