"""The benchmark's own output checks, run on seed 0 of every workload.

`benchmarks/checks.py` recomputes each job's CSV independently of the
package; a job it fails would count as an incorrect output in the bench.
Both bench modules are loaded by path: `benchmarks/` is not a package.
"""

import importlib.util
import json
import random
from pathlib import Path

import numpy as np
import pytest

from slabgreen import cli
from slabgreen.dielectric import Tabulated, permittivity

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"slabgreen_bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


def _seed0_jobs():
    for workload, generate in sorted(workloads.WORKLOADS.items()):
        rng = random.Random(0)  # the bench draws the set-up job after the workload's jobs
        for job in (*generate(rng), workloads.setup_job(rng)):
            yield pytest.param(job, id=f"{workload}-{job.name}")


@pytest.mark.parametrize("job", _seed0_jobs())
def test_bench_job_output_passes_its_checks(tmp_path, job):
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps(job.config))
    rc = cli.main([job.command, "--config", str(config), "--out", str(out), *job.flags])
    assert checks.check_output(job, rc, out) == (False, 0, [])


def test_tabulated_interpolation_on_the_bench_table():
    """On the seed-0 table: exact at every sample, and the convex combination of its neighbours between them."""
    job = workloads.closed_form_scan(random.Random(0))[0]
    samples = np.array(job.config["dielectric"]["samples"])
    omegas, values = samples[:, 0], samples[:, 1] + 1j * samples[:, 2]
    model = Tabulated(omegas, values)
    assert (permittivity(model, omegas) == values).all()

    w = np.concatenate([checks.sweep_values(job.config["omega"]), (omegas[:-1] + omegas[1:]) / 2])
    j = np.clip(np.searchsorted(omegas, w, side="right"), 1, len(omegas) - 1)
    t = (w - omegas[j - 1]) / (omegas[j] - omegas[j - 1])
    convex = values[j - 1] * (1.0 - t) + values[j] * t
    assert (abs(permittivity(model, w) - convex) <= 1e-15 * abs(convex)).all()
