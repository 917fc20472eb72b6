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

The slab is centred, so G(x_a, x_b) = G(-x_a, -x_b) gives G for two left
sources. The absorbed power is the energy balance, by quadrature:

    1 - |A|^2 - |D|^2 = k Im(eps) |A|^2 integral_0^{2l} |cos(kns) - (i/n) sin(kns)|^2 ds.
"""

import csv
import json
import sys

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from slabgreen import (
    Drude,
    EmissionParams,
    SlabGeometry,
    boundary_term_f,
    cli,
    context_from_index,
    decay_rate_corrected,
    decay_rate_uncorrected,
    green,
    identity_report,
    limit_study,
    make_context,
)
from slabgreen.slab_green import _power_balance

mp = pytest.importorskip("mpmath").mp
EPS = sys.float_info.epsilon


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


def test_the_reference_has_the_packages_phase_convention():
    """At n = 2 + 0.5i, k = 1.3, l = 1 the reference's n, A and D are the context's."""
    a, d, _, _ = reference(index(3.75 + 2j), 1.3, 1.0, 2.0, 2.0)
    co = context_from_index(SlabGeometry(1.0), 2 + 0.5j, 1.3).coefficients
    assert index(3.75 + 2j) == 2 + 0.5j
    assert abs(co.A - a) <= 1e-14 * abs(a) and abs(co.D - d) <= 1e-14 * abs(d)


def test_the_absorbed_power_is_the_energy_balance():
    """At n = 2 + 0.5i, k = 1.3, l = 1 the quadrature and 1 - |A|^2 - |D|^2 of the reference agree."""
    a, d, _, _ = reference(2 + 0.5j, 1.3, 1.0, 2.0, 2.0)
    assert absorbed(2 + 0.5j, 1.3, 1.0) == pytest.approx(1 - abs(a) ** 2 - abs(d) ** 2, rel=1e-15)


# The properties below evaluate mpmath at each example, so shrinking a failure
# took about 85 s; without the shrink phase a failing example is reported as drawn.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=30, derandomize=True, deadline=None, phases=NO_SHRINK)
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
            assert abs(green(-x_a, -x_b, ctx) - g) <= 1e-12 * scale  # both sources left, by the mirror


# Far sources: x_s carries a rounding of eps x_s, so a phase k (x_s - l) is conditioned to about
# eps k (x_s - l). The worst error met here is 0.55 of that times the scale below (from `green`,
# at k (x_s - l) = 9e4), so C = 2 leaves room without hiding a factor that loses digits as the
# distance grows.
C = 2.0


@settings(max_examples=20, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(re_n=st.floats(0.05, 4.0), im_n=st.floats(-14.0, 0.5).map(lambda e: 10.0 ** e), k=st.floats(0.05, 20.0),
       l=st.floats(0.1, 3.0), kd=st.lists(st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e), min_size=1, max_size=3))
@example(re_n=2.0, im_n=0.5, k=1.3, l=1.0, kd=[1.3e6, 1.3e6 - 0.7, 1.3])
@example(re_n=0.3, im_n=1e-14, k=17.0, l=2.5, kd=[1e6, 7e5])
def test_far_sources_match_the_reference(re_n, im_n, k, l, kd):
    """F, G, identity_report's Im G and F and the uncorrected rate 2k gamma_vac Im G(x_s, x_s), for k (x_s - l) <= 1e6.

    Each to (1e-12 + C eps k (x_s - l)) of (1 + |A|^2 + |D|^2 + 2|D|) / 4k, x_s the farther source.
    """
    n = complex(re_n, im_n)
    ctx = context_from_index(SlabGeometry(l), n, k)
    sources = np.array([l + s / k for s in kd])
    report = identity_report(sources[:, None], sources, ctx)
    rates = decay_rate_uncorrected(EmissionParams(), ctx, sources)  # gamma_vac = k in natural units
    for i, x_a in enumerate(sources):
        for j, x_b in enumerate(sources):
            a, d, g, f = reference(n, k, l, x_a, x_b)
            scale = (1 + abs(a) ** 2 + abs(d) ** 2 + 2 * abs(d)) / (4 * k)
            bound = (1e-12 + C * EPS * k * (max(x_a, x_b) - l)) * scale
            assert abs(boundary_term_f(x_a, x_b, ctx) - f) <= bound
            assert abs(green(x_a, x_b, ctx) - g) <= bound
            assert abs(report.im_g[i, j] - g.imag) <= bound
            assert abs(report.f[i, j] - f) <= bound
            if i == j:
                assert abs(rates[i] - 2 * k * k * g.imag) <= 2 * k * k * bound


# The corrected rate is 1 - |A|^2 - |D|^2 in units of gamma_vac / 2, a difference of numbers up to
# 1 + |A|^2 + |D|^2, so today it is accurate to that scale, not to its own size: near a lossless
# slab its relative error grows without bound (n = 1.5 + 1e-14i below: about 1e-3). The worst
# error met here is 4.0 eps (1 + |A|^2 + |D|^2), so c = 8.
c = 8.0


@settings(max_examples=6, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(re_n=st.floats(0.05, 4.0), im_n=st.floats(-14.0, 0.0).map(lambda e: 10.0 ** e), k=st.floats(0.05, 3.0),
       l=st.floats(0.1, 2.0))
@example(re_n=1.5, im_n=1e-14, k=3.0, l=1.0)
def test_the_corrected_rate_matches_the_absorbed_power(re_n, im_n, k, l):
    """decay_rate_corrected / (gamma_vac / 2) to c eps (1 + |A|^2 + |D|^2) of the absorbed power, an absolute bound."""
    n = complex(re_n, im_n)
    ctx = context_from_index(SlabGeometry(l), n, k)
    a, d, _, _ = reference(n, k, l, l + 1.0, l + 1.0)
    rate = decay_rate_corrected(EmissionParams(), ctx) / (0.5 * k)  # gamma_vac = k in natural units
    assert abs(rate - absorbed(n, k, l)) <= c * EPS * (1 + abs(a) ** 2 + abs(d) ** 2)


def power(n, k, l):
    """1 - |A|^2 - |D|^2 to 50 digits, from the formulas, as a Python float."""
    with mp.workdps(50):
        a, d = amplitudes(mp.mpc(n), mp.mpf(k), mp.mpf(l))
        return float(1 - abs(a) ** 2 - abs(d) ** 2)


# ROADMAP item 1's targets. The absorbed power cancels near a lossless slab and at epsilon near
# zero (ENZ), where the shipped Drude model turns the corrected rate's sign; these cases fail
# today and must pass once item 1 lands. The opaque and ordinary slabs pass today and guard
# item 1's closed form, which overflowed as first written (nan at l = 100, inf at l = 300).
ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@pytest.mark.parametrize("medium, k, l", [
    pytest.param(0.1 + 3j, 1.0, 1.0, id="opaque_l1"),
    pytest.param(0.1 + 3j, 1.0, 100.0, id="opaque_l100"),
    pytest.param(2 + 0.5j, 1.0, 1.0, id="workhorse"),
    pytest.param(2 + 0.5j, 1.0, 300.0, id="workhorse_l300"),
    pytest.param(2 + 0.5j, 1.3, 1.0, id="workhorse_k1.3"),
    pytest.param(1.5 + 1e-3j, 50.0, 5.0, id="k50_l5"),
    pytest.param(1.5 + 1e-14j, 3.0, 1.0, id="near_lossless_1e-14", marks=ITEM_1),  # 1.6e-3 relative today
    pytest.param(1.5 + 1e-11j, 3.0, 1.0, id="near_lossless_1e-11", marks=ITEM_1),  # 1.9e-6
    pytest.param(1e-6 * (1 + 1j), 1.0, 1.0, id="enz_1e-6", marks=ITEM_1),  # off by a factor of 6.1
    pytest.param(1e-9 * (1 + 1j), 1.0, 1.0, id="enz_1e-9", marks=ITEM_1),  # 6.6e9
    pytest.param(Drude(1.0, 1e-12), 1.0, 1.0, id="drude_sign", marks=ITEM_1),  # -1.1669e-11 for +1.1667e-12
])
def test_the_absorbed_power_matches_the_reference_to_1e_12_relative(medium, k, l):
    """_power_balance's 1 - |A|^2 - |D|^2, and for a Drude model the corrected rate that reads it, to 1e-12 relative.

    The reference takes the context's own n, so only the absorbed power's arithmetic is checked.
    """
    if isinstance(medium, complex):
        ctx = context_from_index(SlabGeometry(l), medium, k)
        absorbed_power = _power_balance(ctx)[2]
    else:
        ctx = make_context(SlabGeometry(l), medium, k)
        absorbed_power = decay_rate_corrected(EmissionParams(), ctx) / (0.5 * k)  # gamma_vac = k in natural units
    reference_power = power(ctx.n, k, l)
    assert abs(absorbed_power - reference_power) <= 1e-12 * abs(reference_power)


def drude_decay_scan(tmp_path):
    """The rows of decay-scan, run in-process, for the shipped Drude model (omega_p = 1, gamma = 1e-12) at l = 1,
    x_s = 2, over five omegas from 0.999999 to 1.000001."""
    config, out = tmp_path / "drude.json", tmp_path / "drude.csv"
    config.write_text(json.dumps({
        "slab": {"half_length": 1.0}, "dielectric": {"type": "drude", "plasma_frequency": 1.0, "damping": 1e-12},
        "source": 2.0, "omega": {"start": 0.999999, "stop": 1.000001, "count": 5},
    }))
    assert cli.main(["decay-scan", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        return list(csv.DictReader(handle))


def test_the_shipped_drude_run_succeeds_at_the_command_line(tmp_path):
    """What holds today of ROADMAP item 1's Drude run, on the array path the command line takes: no row fails."""
    rows = drude_decay_scan(tmp_path)
    assert len(rows) == 5
    assert all(row["error"] == "" for row in rows)


@ITEM_1  # the omega = 1 row reads 7.957e-12 for 1.1667e-12; the other four are off by 1.2-2.8 %
def test_the_shipped_drude_run_matches_the_reference_to_1e_12_relative(tmp_path):
    """Each row's gamma to 1e-12 relative of 0.5 omega (1 - |A|^2 - |D|^2), with gamma_vac = k = omega in natural units.

    The reference is written at 50 digits from the row's omega: eps = 1 - 1/(omega (omega + 1e-12 i)).
    """
    for row in drude_decay_scan(tmp_path):
        with mp.workdps(50):
            omega = mp.mpf(float(row["omega"]))
            a, d = amplitudes(mp.sqrt(1 - 1 / (omega * (omega + mp.mpc(0, 1e-12)))), omega, mp.mpf(1))
            gamma = float(omega * (1 - abs(a) ** 2 - abs(d) ** 2) / 2)
        assert abs(float(row["gamma"]) - gamma) <= 1e-12 * abs(gamma)


# ROADMAP item 11's target: limit-study's witness F + Im G0 to full relative precision along both
# paths to vacuum. It is formed as F.real + 0.5/k, which cancels an O(1/k) term, so the cases near
# eps = 1 fail today and must pass once the witness form lands. Those at delta = 1e-1 and 1e-2 pass
# today and guard that form. eps = 1 + 1e-8 i is left out: it reads about 7e-12, so its verdict
# would depend on rounding.
ITEM_11 = pytest.mark.xfail(strict=True, reason="ROADMAP item 11")


@pytest.mark.parametrize("eps", [
    pytest.param(1 + 1e-1j, id="im_1e-1"),  # 3.6e-15 relative today
    pytest.param(1 + 1e-2j, id="im_1e-2"),  # 1.2e-14
    pytest.param(1 + 1e-1, id="re_1e-1"),  # 1.7e-15
    pytest.param(1 + 1e-2, id="re_1e-2"),  # 1.7e-13
    pytest.param(1 + 1e-10j, id="im_1e-10", marks=ITEM_11),  # 9.0e-7
    pytest.param(1 + 1e-12j, id="im_1e-12", marks=ITEM_11),  # 7.2e-5
    pytest.param(1 + 1e-14j, id="im_1e-14", marks=ITEM_11),  # 1.1e-2
    pytest.param(1 + 1e-10, id="re_1e-10", marks=ITEM_11),  # 2.9e-6
    pytest.param(1 + 1e-12, id="re_1e-12", marks=ITEM_11),  # 4.7e-4
])
def test_the_witness_matches_the_reference_to_1e_12_relative(eps):
    """limit_study's f_plus_im_g0 = F(x_s, x_s) + 1/2k at k = l = 1 and the default source x_s = 2, to 1e-12 relative.

    The reference is written at 50 digits from eps itself: n = sqrt(eps), with Im n >= 0 as Im eps >= 0.
    """
    study = limit_study(EmissionParams(), SlabGeometry(1.0), [eps], 1.0)
    with mp.workdps(50):
        a, d = amplitudes(mp.sqrt(mp.mpc(eps)), mp.mpf(1), mp.mpf(1))
        rho = mp.expj(-1) + d * mp.expj(1)  # at k (x_s - l) = 1
        witness = float(0.5 - (abs(rho) ** 2 + abs(a) ** 2) / 4)
    assert abs(study.f_plus_im_g0[0] - witness) <= 1e-12 * abs(witness)
