import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slabgreen import (
    DomainError,
    DrudeLorentz,
    EmissionParams,
    QuadratureError,
    SlabGeometry,
    boundary_term_b,
    boundary_term_f,
    context_from_index,
    decay_rate_uncorrected,
    green,
    identity_report,
    integrate_adaptive,
    interface_mismatch,
    lhs_quadrature,
    make_context,
)
from slabgreen import identity
from slabgreen.errors import row_errors
from slabgreen.identity import _NODES, _WEIGHTS

from processes import Child
from regimes import absorbing_index, enz_index, high_kl, opaque_index, source_offset

EPS = np.finfo(float).eps


@pytest.mark.parametrize("rule, nodes, weights, degree", [
    ("K15", _NODES, _WEIGHTS[:, 0], 22),
    ("G7", _NODES[1::2], _WEIGHTS[1::2, 1], 13),
])
def test_pinned_rule_exact_for_monomials(rule, nodes, weights, degree):
    for d in range(degree + 1):
        terms = weights * nodes**d
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        # A few rounding units of the sum of the terms' magnitudes.
        assert abs(terms.sum() - exact) <= 4 * np.finfo(float).eps * abs(terms).sum(), (rule, d)
    d = degree + 1 if degree % 2 else degree + 2
    assert abs(weights @ nodes**d - 2.0 / (d + 1)) > 1e-12  # and no further


def test_pinned_gauss_rule_is_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.abs(_NODES[1::2] - nodes).max() <= 2 * np.finfo(float).eps
    assert np.abs(_WEIGHTS[1::2, 1] - weights).max() <= 2 * np.finfo(float).eps
    assert not _WEIGHTS[::2, 1].any()  # the Kronrod-only nodes do not enter G7


# Neither numpy.polynomial nor dataclasses is imported: both only added start-up time.
# The star import loads every submodule that cli does not.
@pytest.mark.child(Child(
    "-c", "import sys, slabgreen.cli; from slabgreen import *; "
    "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial') or m == 'dataclasses'))"))
def test_package_import_leaves_numpy_polynomial_out(child):
    assert child.returncode == 0, child.stderr
    assert child.stdout == b"[]\n"


def test_integrator_polynomial_exact():
    value, err = integrate_adaptive(lambda x, rows: 3 * x * x + 1j * x, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(1.0 + 0.5j, abs=1e-14)
    assert err <= 1e-12


def test_integrator_oscillatory():
    m = 35
    value, err = integrate_adaptive(lambda x, rows: np.exp(1j * m * x), 0.0, 2 * math.pi, 1e-10)
    assert abs(value) <= 1e-10
    assert err <= 1e-10


def test_integrator_honest_error_estimate():
    exact = (cmath.exp(2j * 3.0) - 1.0) / 2j
    value, err = integrate_adaptive(lambda x, rows: np.exp(2j * x), 0.0, 3.0, 1e-10)
    assert abs(value - exact) <= max(err, 1e-13)


def test_integrator_budget_exhaustion():
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda x, rows: np.sin(500.0 * x), 0.0, 1.0, 1e-30)
    exc = info.value
    assert "after 4096 panels" in str(exc)
    assert exc.error_estimate > 1e-30
    assert abs(exc.best_estimate - (1 - math.cos(500.0)) / 500.0) < 1e-3


def test_integrator_rejects_nan_integrand():
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda x, rows: np.full(x.shape, np.nan), 0.0, 1.0, 1e-8)
    assert math.isnan(info.value.error_estimate)


def test_integrator_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x, rows: x, 1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x, rows: x, 0.0, 1.0, 0.0)


# One batch: two rows that converge, one with a NaN integrand, one that fills its budget.
BATCH = [
    (lambda x: 3 * x * x + 1j * x, 1.0, 1e-12),
    (lambda x: np.exp(35j * x), 2 * math.pi, 1e-10),
    (lambda x: np.full(x.shape, np.nan), 1.0, 1e-8),
    (lambda x: np.sin(500.0 * x), 1.0, 1e-30),
]


def _batch_integrand(x, rows):
    values = np.empty(x.shape, complex)
    for i, (f, _, _) in enumerate(BATCH):
        mine = rows == i
        values[mine] = f(x[mine])
    return values


def test_integrator_batch_matches_single_rows():
    errors = row_errors(len(BATCH))
    values, estimates = integrate_adaptive(
        _batch_integrand, 0.0, [b for _, b, _ in BATCH], [tol for _, _, tol in BATCH], errors=errors
    )
    for i, (f, b, tol) in enumerate(BATCH):
        try:
            single, single_err = integrate_adaptive(lambda x, rows: f(x), 0.0, b, tol)
            message = None
        except QuadratureError as exc:
            single, single_err, message = exc.best_estimate, exc.error_estimate, str(exc)
        if message is None:
            assert errors[i] is None
            assert abs(values[i] - single) <= 1e-15 * max(1.0, abs(single))
            assert estimates[i] <= tol
        elif math.isnan(single_err):
            assert errors[i] == message
            assert math.isnan(estimates[i])
        else:
            # At the roundoff floor the panels chosen may differ by rounding, not the panel count.
            assert errors[i].startswith("quadrature stalled at error ")
            assert errors[i].split(")")[1] == message.split(")")[1] == " after 4096 panels"
            assert abs(values[i] - single) <= 1e-12
            assert estimates[i] == pytest.approx(single_err, rel=0.1)
    assert [error is None for error in errors] == [True, True, False, False]
    assert "stalled at error nan" in errors[2]


def test_integrator_batch_raises_first_failing_row():
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(_batch_integrand, 0.0, [b for _, b, _ in BATCH], [tol for _, _, tol in BATCH])
    assert "stalled at error nan" in str(info.value)


def test_refinement_within_budget_calls_no_sort_or_search(tmp_path, monkeypatch):
    """Rounds that pass no row's budget split every candidate unsorted: no lexsort, searchsorted or cumsum.

    Pinned on a batch that refines over several rounds and on an in-process decay-scan --oracle;
    both give the same values, and the same CSV bytes, as without the patch.
    """
    from slabgreen import cli

    m = np.array([5.0, 20.0, 35.0])
    calls = []

    def forbidden(*args, **kwargs):
        raise AssertionError("a sort or search kernel was called")

    def waves(x, rows):
        calls.append(len(x))
        return np.exp(1j * m[rows, None] * x)

    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({
        "slab": {"half_length": 1.0},
        "dielectric": {"type": "drude_lorentz", "terms": [[4.0, 1.0, 0.3], [1.0, 0.0, 0.1]]},
        "omega": {"start": 0.2, "stop": 5.0, "count": 20},
        "source": 1.4,
    }))
    runs = []
    for patched in (False, True):
        for name in ("lexsort", "searchsorted", "cumsum") if patched else ():
            monkeypatch.setattr(np, name, forbidden)
        calls.clear()
        values, estimates = integrate_adaptive(waves, np.zeros(3), 3.0, 1e-10)
        out = tmp_path / f"oracle{patched}.csv"
        assert cli.main(["decay-scan", "--config", str(config), "--out", str(out), "--oracle"]) == 0
        runs.append((values.tobytes(), estimates.tobytes(), out.read_bytes(), len(calls)))
    assert runs[0] == runs[1]
    assert runs[0][3] >= 4  # the seed panels, then at least three rounds of refinement
    assert np.all(estimates <= 1e-10)
    assert np.allclose(values, (np.exp(3j * m) - 1) / (1j * m), rtol=0, atol=1e-10)


def test_a_round_that_binds_the_budget_splits_the_densest_panels(monkeypatch):
    """With a 16-panel budget, the rounds that would pass it split only the panels nearest a narrow peak.

    The tails of a Lorentzian peak of width 1e-3 at 0.62 keep many panels candidates, so two
    rounds would pass the budget; each sorts its candidates, and the last one has room for one
    split, which must be of the panel that holds the peak.
    """
    monkeypatch.setattr(identity, "_MAX_PANELS", 16)
    lexsort, sorts, panels = np.lexsort, [], []
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(keys) or lexsort(keys))

    def peak(x, rows):
        panels.append(x)
        return 1e-3 / ((x - 0.62) ** 2 + 1e-6) + 0j

    with pytest.raises(QuadratureError, match=r"\(tol 1\.000e-10\) after 16 panels$"):
        integrate_adaptive(peak, 0.0, 1.0, 1e-10)
    assert len(sorts) == 2
    # The last round's new panels, recovered from their outermost Kronrod nodes: the two halves of one
    # panel, which holds the peak.
    x = panels[-1]
    mid, half = (x[:, -1] + x[:, 0]) / 2, (x[:, -1] - x[:, 0]) / (2 * _NODES[-1])
    lo, hi = np.sort(mid - half), np.sort(mid + half)
    assert len(x) == 2 and math.isclose(hi[0], lo[1]) and hi[1] - lo[0] < 0.02
    assert lo[0] < 0.62 < hi[1]


def test_lhs_batch_matches_scipy_quad_vec():
    integrate = pytest.importorskip("scipy.integrate")
    terms = ((4.0, 1.0, 0.3), (1.0, 0.0, 0.1))  # Drude-Lorentz as in the oracle workload
    omega = np.linspace(0.2, 5.0, 50)
    geometry, x_s = SlabGeometry(1.0), 1.5
    ctx = make_context(geometry, DrudeLorentz(terms), omega)
    lhs, estimate = lhs_quadrature(x_s, x_s, ctx, tol=1e-10)

    def integrand(x):
        return ctx.k**2 * ctx.epsilon.imag * abs(green(x, x_s, ctx)) ** 2

    reference, _ = integrate.quad_vec(integrand, -1.0, 1.0, epsabs=1e-13, epsrel=0.0, norm="max")
    assert np.all(estimate <= 1e-10)
    assert np.max(abs(lhs - reference)) <= 1e-10


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


def flux_rows(k_offset):
    """Rows (n, k l, log10 k, k (x_a - l), k (x_b - l), k (L - max(x_a, x_b))), k L below ~1e3 beyond the sources."""
    row = st.tuples(absorbing_index(), st.floats(0.05, 500.0), st.floats(-1.0, 2.0), k_offset, k_offset,
                    st.floats(0.01, 400.0))
    return st.lists(row, min_size=1, max_size=64)


def flux_route_error(rows):
    """The third route to F, F = (b(x_b, x_a) - conj b(x_a, x_b)) / 2i from the flux at the box edges, against the
    closed form: the error, the scale (1 + |A|^2 + |D|^2 + 2|D|) / 4k and k (x_s - l) of the farther source, by row."""
    n, k_half, log_k, k_da, k_db, k_margin = map(np.array, zip(*rows))
    k = 10.0**log_k
    half = k_half / k
    ctx = context_from_index(SlabGeometry(half), n, k)
    x_a, x_b = half + k_da / k, half + k_db / k
    box = np.maximum(x_a, x_b) + k_margin / k
    flux = (boundary_term_b(x_b, x_a, ctx, box) - np.conj(boundary_term_b(x_a, x_b, ctx, box))) / 2j
    co = ctx.coefficients
    scale = (1.0 + abs(co.A) ** 2 + abs(co.D) ** 2 + 2.0 * abs(co.D)) / (4.0 * k)
    return abs(flux - boundary_term_f(x_a, x_b, ctx)), scale, np.maximum(k_da, k_db)


# Sources stop at k (x_s - l) = 1e2: far ones' phases round past 1e-12 of the scale, by 4.7 times at
# n = 1 + 1i, k l = 1, k = 1, k (x_a - l) = 1, k (x_b - l) = 1e5, k (L - x_b) = 1.00001.
@settings(max_examples=40)
@given(rows=flux_rows(source_offset((-9.0, 2.0))))
def test_flux_route_f_matches_closed_form_in_hard_regimes(rows):
    # Over near-lossless, opaque and high k l rows at once.
    error, scale, _ = flux_route_error(rows)
    assert np.all(error <= 1e-12 * scale)


@settings(max_examples=20)
@given(rows=flux_rows(source_offset()))
def test_flux_route_f_matches_closed_form_for_far_sources(rows):
    """Sources up to k (x_s - l) = 1e6, to test_far_sources_match_the_reference's (1e-12 + 2 eps k (x_s - l)) scale."""
    error, scale, k_d = flux_route_error(rows)
    assert np.all(error <= (1e-12 + 2.0 * EPS * k_d) * scale)


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
    rep = identity_report(2.0, 2.0, lossy_ctx, tol=1e-30)
    assert "stalled" in rep.error
    assert rep.quadrature_estimate_error > 1e-30
    assert rep.residual_corrected == rep.lhs - rep.im_g - rep.f


def test_lhs_validation(lossy_ctx):
    with pytest.raises(DomainError):
        lhs_quadrature(0.2, 2.0, lossy_ctx)
    with pytest.raises(DomainError):
        lhs_quadrature(2.0, 2.0, lossy_ctx, tol=-1.0)


@settings(max_examples=40)
@given(
    n=absorbing_index(),
    k=st.floats(0.5, 300.0),
    half=st.floats(0.1, 5.0),
    offsets=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)),
)
def test_identity_closes_in_hard_regimes(n, k, half, offsets):
    # Thick opaque slabs (k Im(n) l up to 1.5e4), near-lossless resonances
    # and high k l, where the seed panels alone may fill the budget.
    ctx = context_from_index(SlabGeometry(half), n, k)
    co = ctx.coefficients
    assert abs(co.A) ** 2 + abs(co.D) ** 2 <= 1.0 + 1e-12
    x_a, x_b = (half + offset for offset in offsets)
    assert interface_mismatch(ctx, x_a) <= 1e-10
    rep = identity_report(x_a, x_b, ctx)
    assert rep.error is None
    values = [rep.lhs, rep.im_g, rep.f, rep.quadrature_estimate_error,
              rep.residual_corrected, rep.residual_uncorrected]
    assert all(cmath.isfinite(value) for value in values)
    assert abs(rep.residual_corrected) <= 1e-8


@settings(max_examples=40)
@given(
    n=absorbing_index(),
    k=st.floats(0.5, 300.0),
    half=st.floats(0.1, 5.0),
    offset=st.floats(0.01, 2.0),
    log_tol=st.floats(-12.0, -8.0),
)
# Seeded by Re n alone this opaque slab is one panel, on which K15 and G7 both
# miss the skin layer: the left side came out 900 times too small, "converged".
@example(n=0.05 + 10j, k=59.0, half=1.0, offset=1.0, log_tol=-8.0)
@example(n=2.0 + 0.5j, k=1.0, half=1.0, offset=1.0, log_tol=-10.0)
@example(n=1.5 + 1e-6j, k=50.0, half=5.0, offset=1.0, log_tol=-10.0)
@example(n=1.5 + 1e-3j, k=300.0, half=5.0, offset=1.0, log_tol=-10.0)
@example(n=0.1 + 3j, k=1.0, half=1.0, offset=1.0, log_tol=-10.0)
@example(n=3.0 + 1e-2j, k=200.0, half=2.0, offset=1.0, log_tol=-10.0)
def test_energy_balance_in_hard_regimes(n, k, half, offset, log_tol):
    # Poynting's theorem for the slab: the absorbed power 4k LHS(x_s, x_s) is
    # what is neither reflected nor transmitted. The right side uses no
    # quadrature, so a seed panel on which K15 and G7 agree before it is
    # resolved (false convergence) shows here.
    ctx = context_from_index(SlabGeometry(half), n, k)
    tol = 10.0**log_tol
    lhs, estimate = lhs_quadrature(half + offset, half + offset, ctx, tol=tol)
    co = ctx.coefficients
    assert estimate <= tol
    assert abs(4.0 * k * lhs.real - (1.0 - abs(co.A) ** 2 - abs(co.D) ** 2)) <= 4.0 * k * tol + 1e-13


def rank_one_error(n, k, kl, kd):
    """identity_report's |Im G + F - e^{ik(x_a - x_b)} (1 - |A|^2 - |D|^2) / 4k| over right sources, with the
    quadrature skipped, and its scale (1 + |A|^2 + |D|^2 + 2|D|) / 4k."""
    l = kl / k
    ctx = context_from_index(SlabGeometry(l), n, k)
    co = ctx.coefficients
    x_a = l + np.array(kd)[:, None] / k
    x_b = x_a.T
    rep = identity_report(x_a, x_b, ctx, interior=(0j, 0.0, row_errors(())))
    expected = np.exp(1j * k * (x_a - x_b)) * (1 - abs(co.A) ** 2 - abs(co.D) ** 2) / (4 * k)
    scale = (1 + abs(co.A) ** 2 + abs(co.D) ** 2 + 2 * abs(co.D)) / (4 * k)
    return np.abs(rep.im_g + rep.f - expected), scale


# ENZ stops at |n| = sqrt(2) 1e-12: below it the degeneracy guard raises, at n = sqrt(2) 1e-13, k = 1, k l = 1.
RANK_ONE_INDEX = st.one_of(absorbing_index(), enz_index((-12.0, 0.0)), opaque_index())


@settings(max_examples=40)
@given(
    n=RANK_ONE_INDEX,
    k=st.floats(0.1, 20.0),
    kl=high_kl(),
    # Sources stop at k (x_s - l) = 1e2: the phase e^{ik(x_a - x_b)} of far ones rounds past 1e-12 of the scale,
    # by 10 times at n = 1 + 1i, k = 1.5, k l = 1, k (x_s - l) = [1, 1e5].
    kd=st.lists(source_offset((-9.0, 2.0)), min_size=1, max_size=6),
)
@example(n=0.3 + 1e-14j, k=17.0, kl=1e3, kd=[1e-9, 1.0, 100.0])  # the top of high_kl(), near-lossless
def test_im_g_plus_f_is_rank_one_over_a_grid_of_sources(n, k, kl, kd):
    """identity_report's Im G + F over right sources is e^{ik(x_a - x_b)} (1 - |A|^2 - |D|^2) / 4k.

    To 1e-12 of (1 + |A|^2 + |D|^2 + 2|D|) / 4k, at Im n down to 1e-14, near epsilon = 0 and k l up
    to 1e3: over the grid the sum is one phase times the absorbed power. The quadrature is skipped.
    """
    error, scale = rank_one_error(n, k, kl, kd)
    assert error.max() <= 1e-12 * scale


@settings(max_examples=20)
@given(n=RANK_ONE_INDEX, k=st.floats(0.1, 20.0), kl=high_kl(), kd=st.lists(source_offset(), min_size=1, max_size=6))
def test_im_g_plus_f_is_rank_one_for_far_sources(n, k, kl, kd):
    """Sources up to k (x_s - l) = 1e6, to test_far_sources_match_the_reference's (1e-12 + 2 eps k (x_s - l)) scale."""
    error, scale = rank_one_error(n, k, kl, kd)
    assert error.max() <= (1e-12 + 2.0 * EPS * max(kd)) * scale


RIGHT = "source must lie in the right exterior region"
PHASE = "wave phase is not finite: k times a distance overflows"


def test_every_source_is_checked_right_of_the_slab_before_any_phase():
    """Row by row, a pair's first message: a source not right of the slab, on either side, before an overflowing phase.

    At k = 1.3, l = 1 the source 1.5e308 overflows k (x_s - l) itself; the columns hold inf in its
    place, so every pair with either also overflows k (x_a - x_b), whichever form the phases take.
    0.5 lies inside the slab and -0.25 left of it.
    """
    ctx = context_from_index(SlabGeometry(1.0), 2 + 0.5j, 1.3)
    sources = np.array([1.5, 0.5, 1.5e308, -0.25])
    expected = [[None, RIGHT, PHASE, RIGHT], [RIGHT] * 4, [PHASE, RIGHT, PHASE, RIGHT], [RIGHT] * 4]
    for evaluate in (boundary_term_f, lhs_quadrature):
        errors = row_errors((4, 4))
        evaluate(sources[:, None], np.where(sources > 1e300, np.inf, sources), ctx, errors=errors)
        assert errors.tolist() == expected, evaluate.__name__
        for x_a, x_b in ((1.5e308, 0.5), (0.5, 1.5e308)):
            with pytest.raises(DomainError, match=f"^{RIGHT}$"):
                evaluate(x_a, x_b, ctx)
    errors = row_errors(4)
    decay_rate_uncorrected(EmissionParams(), ctx, sources, errors)
    assert errors.tolist() == [None, RIGHT, PHASE, RIGHT]
    with pytest.raises(DomainError, match=f"^{RIGHT}$"):
        identity_report(sources[:, None], sources, ctx)
