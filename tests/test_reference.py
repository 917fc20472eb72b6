"""The package against the arbitrary-precision reference in mp_reference.py."""

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

from mp_reference import absorbed, amplitudes, index, mp, power, reference
from regimes import absorbing_index, drude_near_plasma, log_uniform, mirror_index, mirror_offset, source_offset

EPS = sys.float_info.epsilon


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


# Sources stop at k (x_s - l) = 1e3: the far ones' phase rounding fails 1e-12, by 35 times at n = 3.656 + 1.03e-14i,
# k = 20, l = 0.442, k (x_s - l) = 5.7e5. test_far_sources_match_the_reference bounds that rounding.
@settings(max_examples=30, phases=NO_SHRINK)
@given(n=st.one_of(absorbing_index(), drude_near_plasma()), k=st.floats(0.05, 20.0), l=st.floats(0.1, 3.0),
       kd=st.lists(source_offset((-9.0, 3.0)), min_size=1, max_size=3))
def test_f_and_g_match_the_reference(n, k, l, kd):
    """boundary_term_f and green to 1e-12 of (1 + |A|^2 + |D|^2 + 2|D|) / 4k, for k (x_s - l) <= 1e3."""
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


@settings(max_examples=20, phases=NO_SHRINK)
@given(n=absorbing_index(), k=st.floats(0.05, 20.0), l=st.floats(0.1, 3.0),
       kd=st.lists(source_offset(), min_size=1, max_size=3))
@example(n=2.0 + 0.5j, k=1.3, l=1.0, kd=[1.3e6, 1.3e6 - 0.7, 1.3])
@example(n=0.3 + 1e-14j, k=17.0, l=2.5, kd=[1e6, 7e5])
def test_far_sources_match_the_reference(n, k, l, kd):
    """F, G, identity_report's Im G and F and the uncorrected rate 2k gamma_vac Im G(x_s, x_s), for k (x_s - l) <= 1e6.

    Each to (1e-12 + C eps k (x_s - l)) of (1 + |A|^2 + |D|^2 + 2|D|) / 4k, x_s the farther source.
    """
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


# Beside a near-perfect mirror the uncorrected rate gamma_vac (1 + Re(D e^{2ik(x_s - l)})) cancels: 1 + Re D is
# about 2 / |n|^2, so rounding D costs about eps |n|^2 / 2 relative. The bound, recorded: 2 eps |n|^2 relative,
# 4.4e-10 at |n| = 1e3. Over 6000 random draws the worst was 0.89 eps |n|^2 (n = 0.0079 + 33.2i, k = 0.359,
# l = 0.627, k (x_s - l) = 9.3e-8) and the largest relative error 1.4e-10 (n = 0.033 + 839.5i, k = 0.150,
# l = 0.844, k (x_s - l) = 2.7e-5). The three examples read 5.0e-11, 1.8e-11 and 5.0e-14.
@settings(max_examples=30, phases=NO_SHRINK)
@given(n=mirror_index(), k=log_uniform(-1.0, 1.3), l=st.floats(0.1, 3.0),
       kd=st.lists(mirror_offset(), min_size=1, max_size=3))
@example(n=0.001 + 1000j, k=1.0, l=1.0, kd=[1e-9])
@example(n=0.001 + 500j, k=1.0, l=1.0, kd=[1e-8])
@example(n=0.01 + 50j, k=1.0, l=1.0, kd=[1e-6])
def test_the_uncorrected_rate_beside_a_mirror_matches_the_reference(n, k, l, kd):
    """decay_rate_uncorrected against 2k gamma_vac Im G(x_s, x_s) of the reference, to 2 eps |n|^2 relative."""
    ctx = context_from_index(SlabGeometry(l), n, k)
    sources = np.array([l + s / k for s in kd])
    rates = decay_rate_uncorrected(EmissionParams(), ctx, sources)  # gamma_vac = k in natural units
    for rate, x_s in zip(rates, sources):
        expected = 2 * k * k * reference(n, k, l, x_s, x_s)[2].imag
        assert abs(rate - expected) <= 2 * EPS * abs(n) ** 2 * abs(expected)


# The corrected rate is 1 - |A|^2 - |D|^2 in units of gamma_vac / 2, a difference of numbers up to
# 1 + |A|^2 + |D|^2, so today it is accurate to that scale, not to its own size: near a lossless
# slab its relative error grows without bound (n = 1.5 + 1e-14i below: about 1e-3). The worst
# error met here is 4.0 eps (1 + |A|^2 + |D|^2), so c = 8.
c = 8.0


@settings(max_examples=6, phases=NO_SHRINK)
@given(n=absorbing_index(), k=st.floats(0.05, 3.0), l=st.floats(0.1, 2.0))
@example(n=1.5 + 1e-14j, k=3.0, l=1.0)
def test_the_corrected_rate_matches_the_absorbed_power(n, k, l):
    """decay_rate_corrected / (gamma_vac / 2) to c eps (1 + |A|^2 + |D|^2) of the absorbed power, an absolute bound."""
    ctx = context_from_index(SlabGeometry(l), n, k)
    a, d, _, _ = reference(n, k, l, l + 1.0, l + 1.0)
    rate = decay_rate_corrected(EmissionParams(), ctx) / (0.5 * k)  # gamma_vac = k in natural units
    assert abs(rate - absorbed(n, k, l)) <= c * EPS * (1 + abs(a) ** 2 + abs(d) ** 2)


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
