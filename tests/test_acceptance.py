"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
All quantities are in natural units (hbar = eps0 = c = 1) with the workhorse
slab n = 2 + 0.5i, k = 1, half length 1 unless a criterion says otherwise.
"""

import cmath
import json
import math
import time

from slabgreen import (
    EmissionParams,
    SlabGeometry,
    boundary_term_b,
    boundary_term_f,
    cli,
    context_from_index,
    decay_from_quadrature,
    decay_rate_corrected,
    decay_rate_uncorrected,
    green,
    green_dx,
    green_tensor_vacuum,
    identity_report,
    im_green_coincident,
    interface_mismatch,
    vacuum_decay_3d,
)

N_LOSSY = 2 + 0.5j


def _ctx(n=N_LOSSY, k=1.0, half=1.0):
    return context_from_index(SlabGeometry(half), n, k)


def _verdict(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_corrected_identity_holds():
    started = time.perf_counter()
    rep = identity_report(2.0, 2.0, _ctx(), tol=1e-8)
    elapsed = time.perf_counter() - started
    residual = abs(rep.residual_corrected)
    ok = residual <= 1e-8 and elapsed < 1.0
    assert _verdict(1, ok, f"|lhs - Im G - F| = {residual:.3e} (<= 1e-8), {elapsed * 1e3:.1f} ms")


def test_criterion_02_uncorrected_identity_fails_by_f():
    rep = identity_report(2.0, 2.0, _ctx(), tol=1e-8)
    mismatch = abs(rep.residual_uncorrected - rep.f)
    ok = mismatch <= 1e-8 and abs(rep.f) >= 0.1
    assert _verdict(2, ok, f"|(lhs - Im G) - F| = {mismatch:.3e}, |F| = {abs(rep.f):.4f} (>= 0.1)")


def test_criterion_03_no_coupling_limit():
    ctx = _ctx(n=cmath.sqrt(1 + 1e-8j))
    k, x_s = ctx.k, 2.0
    f_defect = abs(boundary_term_f(x_s, x_s, ctx) + 1.0 / (2.0 * k))
    params = EmissionParams(omega0=ctx.omega)
    normalized = decay_rate_corrected(params, ctx) / params.gamma_vacuum_1d
    ok = f_defect <= 1e-6 and normalized <= 1e-7
    assert _verdict(3, ok, f"|F + 1/2k| = {f_defect:.3e} (<= 1e-6), gamma/gamma_vac = {normalized:.3e} (<= 1e-7)")


def test_criterion_04_lossless_unitarity():
    worst_defect = 0.0
    worst_rate = 0.0
    params = None
    for i in range(5):
        n = 1.1 + (4.0 - 1.1) * i / 4.0
        for j in range(5):
            k = 0.1 + (10.0 - 0.1) * j / 4.0
            ctx = _ctx(n=complex(n), k=k)
            co = ctx.coefficients
            worst_defect = max(worst_defect, abs(abs(co.A) ** 2 + abs(co.D) ** 2 - 1.0))
            params = EmissionParams(omega0=ctx.omega)
            worst_rate = max(worst_rate, abs(decay_rate_corrected(params, ctx)) / params.gamma_vacuum_1d)
    ok = worst_defect <= 1e-12 and worst_rate <= 1e-12
    assert _verdict(4, ok, f"25 configs: max ||A|^2+|D|^2 - 1| = {worst_defect:.2e}, max gamma/gamma_vac = {worst_rate:.2e}")


def test_criterion_05_position_independence_vs_oscillation():
    ctx = _ctx()
    params = EmissionParams(omega0=1.0)
    half, k = ctx.geometry.half_length, ctx.k
    grid = [half + 0.01 + (4.0 * math.pi / k) * i / 99.0 for i in range(100)]

    gamma_values = {decay_rate_corrected(params, ctx) for _ in grid}
    constant = len(gamma_values) == 1
    gamma = next(iter(gamma_values))

    worst_oracle = max(
        abs(decay_from_quadrature(params, ctx, x_s, tol=1e-10) / gamma - 1.0) for x_s in grid
    )

    count = 4001
    xs = [half + 1e-3 + (4.0 * math.pi / k) * i / (count - 1) for i in range(count)]
    values = [decay_rate_uncorrected(params, ctx, x) for x in xs]
    peaks = []
    for i in range(1, count - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            denom = values[i - 1] - 2 * values[i] + values[i + 1]
            shift = 0.5 * (values[i - 1] - values[i + 1]) / denom
            peaks.append(xs[i] + shift * (xs[1] - xs[0]))
    spacings = [b - a for a, b in zip(peaks, peaks[1:])]
    period = sum(spacings) / len(spacings)
    period_err = abs(period / (math.pi / k) - 1.0)

    ok = constant and worst_oracle <= 1e-7 and period_err <= 1e-3
    assert _verdict(
        5,
        ok,
        f"gamma constant over 100 x_s: {constant}, quadrature deviation {worst_oracle:.2e} "
        f"(<= 1e-7), measured period/(pi/k) - 1 = {period_err:.2e} (<= 1e-3)",
    )


def test_criterion_06_boundary_term_box_independence():
    ctx = _ctx()
    near = boundary_term_b(2.0, 2.0, ctx, 5.0)
    far = boundary_term_b(2.0, 2.0, ctx, 50.0)
    rel = abs(near - far) / abs(near)
    ok = rel <= 1e-10
    assert _verdict(6, ok, f"|b(L=5) - b(L=50)| / |b| = {rel:.2e} (<= 1e-10)")


def test_criterion_07_interface_and_jump_oracles():
    ctx = _ctx()
    x_s = 2.0
    half = ctx.geometry.half_length
    scale = max(
        abs(green(half, x_s, ctx)),
        abs(green(-half, x_s, ctx)),
        abs(green_dx(half, x_s, ctx)),
        abs(green_dx(-half, x_s, ctx)),
    )
    mismatch_ok = interface_mismatch(ctx, x_s) <= 1e-12 * scale

    def jump(h):
        g0 = green(x_s, x_s, ctx)
        right = (-3 * g0 + 4 * green(x_s + h, x_s, ctx) - green(x_s + 2 * h, x_s, ctx)) / (2 * h)
        left = (3 * g0 - 4 * green(x_s - h, x_s, ctx) + green(x_s - 2 * h, x_s, ctx)) / (2 * h)
        return right - left

    jumps = [jump(h) for h in (4e-4, 2e-4, 1e-4)]
    jump_err = abs(jumps[-1] - (-1.0))
    order = math.log2(abs(jumps[0] - jumps[1]) / abs(jumps[1] - jumps[2]))
    ok = mismatch_ok and jump_err <= 1e-6 and order >= 2.0 - 0.2
    assert _verdict(
        7,
        ok,
        f"interface mismatch <= 1e-12 scale: {mismatch_ok}, |jump + 1| = {jump_err:.2e} "
        f"(<= 1e-6), observed order = {order:.2f}",
    )


def test_criterion_08_vacuum_3d_baseline():
    params = EmissionParams(omega0=1.0)
    closed = vacuum_decay_3d(params)
    lim = im_green_coincident(1.0)
    dipole = params.dipole_moment
    contracted = 2.0 * params.omega0**2 * dipole**2 * lim[2, 2] / (
        params.hbar * params.epsilon0 * params.c**2
    )
    routes = abs(closed - contracted) / closed
    value_err = abs(closed - 1.0 / (3.0 * math.pi))

    tensor = green_tensor_vacuum(1.0, [0.0, 0.0, 1e-3], [0.0, 0.0, 0.0])
    limit_err = max(
        abs(tensor.imag[i][j] - lim[i][j]) for i in range(3) for j in range(3)
    ) / lim[0, 0]

    ok = routes <= 1e-12 and value_err <= 1e-7 and limit_err <= 1e-4
    assert _verdict(
        8,
        ok,
        f"gamma0 = {closed:.10f} (1/3pi), route difference {routes:.1e} (<= 1e-12), "
        f"coincident-limit error {limit_err:.1e} (<= 1e-4)",
    )


def test_criterion_09_small_loss_scaling():
    params = EmissionParams(omega0=1.0)
    ratios = []
    for m in range(1, 9):
        delta = 10.0**-m
        ctx = _ctx(n=cmath.sqrt(1 + 1j * delta))
        ratios.append(decay_rate_corrected(params, ctx) / delta)
    tail_change = abs(ratios[-1] / ratios[-2] - 1.0)
    ok = tail_change <= 0.01 and all(math.isfinite(r) for r in ratios)
    assert _verdict(
        9,
        ok,
        f"gamma/delta at delta=1e-8: {ratios[-1]:.6f}, change between two smallest deltas "
        f"{tail_change:.2e} (<= 1%)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    slab_config = {
        "slab": {"half_length": 1.0},
        "dielectric": {"type": "constant", "epsilon": [3.75, 2.0]},
        "omega": 1.0,
        "source": {"start": 1.5, "stop": 3.5, "count": 3},
    }
    tensor_config = {"omega": 1.0, "separations": [[0.0, 0.0, 1.0], [0.3, 0.4, 0.5]]}
    scan_config = dict(slab_config, source={"start": 1.5, "stop": 6.5, "count": 10})
    limit_config = dict(slab_config, source=2.0)
    slab_path = tmp_path / "slab.json"
    slab_path.write_text(json.dumps(slab_config))
    tensor_path = tmp_path / "tensor.json"
    tensor_path.write_text(json.dumps(tensor_config))
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(json.dumps(scan_config))
    limit_path = tmp_path / "limit.json"
    limit_path.write_text(json.dumps(limit_config))

    invocations = {
        "coefficients": ["coefficients", "--config", str(slab_path)],
        "verify-identity": ["verify-identity", "--config", str(slab_path)],
        "decay-scan": ["decay-scan", "--config", str(scan_path), "--oracle"],
        "limit-study": ["limit-study", "--config", str(limit_path)],
        "tensor3d": ["tensor3d", "--config", str(tensor_path)],
    }
    mismatched = []
    for name, argv in invocations.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.csv"
            rc = cli.main(argv + ["--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    assert _verdict(10, ok, f"byte-identical CSV for all 5 subcommands (mismatches: {mismatched or 'none'})")
