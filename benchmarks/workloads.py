"""Seeded generators for the benchmark's workloads.

Each generator turns a `random.Random` into the list of jobs that make up
one pass. The seed only jitters input values (source positions, oscillator
and table parameters, separations); k*l, grid sizes and row counts are fixed,
so every seed asks the program for the same amount of work. The program sees
nothing but the JSON configs written from these jobs.
"""

from dataclasses import dataclass

LOSSY_EPS = [3.75, 2.0]  # n = 2 + 0.5i


@dataclass(frozen=True)
class Job:
    """One `slabgreen` invocation: subcommand, config and the rows it must write."""

    name: str
    command: str
    config: dict
    rows: int
    flags: tuple = ()


def _sweep(start, stop, count):
    return {"start": start, "stop": stop, "count": count}


def identity_grid(rng):
    """verify-identity: many source pairs sharing one (omega, l), plus one hard k*l."""
    start = 1.2 + 0.3 * rng.random()
    grid = Job(
        name="identity_grid",
        command="verify-identity",
        config={
            "slab": {"half_length": 1.0},
            "dielectric": {"type": "constant", "epsilon": LOSSY_EPS},
            "omega": _sweep(1.0, 20.0, 4),
            "source": _sweep(start, start + 1.0 + 0.5 * rng.random(), 4),
        },
        rows=4 * 4 * 4,
    )
    start = 5.2 + 0.3 * rng.random()
    hard = Job(
        name="identity_k50_l5",
        command="verify-identity",
        config={
            "slab": {"half_length": 5.0},
            "dielectric": {"type": "constant", "epsilon": LOSSY_EPS},
            "omega": 50.0,
            "source": _sweep(start, start + 0.5 + 0.5 * rng.random(), 2),
        },
        rows=2 * 2,
    )
    return [grid, hard]


def oracle_scan(rng):
    """decay-scan --oracle: one small, fresh integral per frequency row."""
    def jitter(value, spread):
        return value * (1.0 + spread * (2.0 * rng.random() - 1.0))

    terms = [
        [jitter(4.0, 0.02), jitter(1.0, 0.01), jitter(0.3, 0.02)],
        [jitter(1.0, 0.02), 0.0, jitter(0.1, 0.02)],  # zero resonance: a Drude pole
    ]
    count = 1000
    return [
        Job(
            name="oracle_scan",
            command="decay-scan",
            config={
                "slab": {"half_length": 1.0},
                "dielectric": {"type": "drude_lorentz", "terms": terms},
                "omega": _sweep(0.2, 5.0, count),
                "source": 1.2 + 0.5 * rng.random(),
            },
            rows=count,
            flags=("--oracle",),
        )
    ]


def closed_form_scan(rng):
    """Closed-form subcommands only: no quadrature anywhere in the pass."""
    samples = [
        [0.1 + 0.01 * i, 1.5 + rng.random(), 0.05 + 0.5 * rng.random()] for i in range(1000)
    ]
    count = 30000
    path_len = 6000
    limit_path = []
    for i in range(path_len):
        t = i / (path_len - 1)
        limit_path.append([1.0 + 0.1 * rng.random() * (1.0 - t), 10.0 ** (-1.0 - 7.0 * t)])
    separations = []
    while len(separations) < 1500:
        point = [rng.uniform(-5.0, 5.0) for _ in range(3)]
        if sum(v * v for v in point) > 0.01:
            separations.append(point)
    return [
        Job(
            name="decay_tabulated",
            command="decay-scan",
            config={
                "slab": {"half_length": 1.0},
                "dielectric": {"type": "tabulated", "samples": samples},
                "omega": _sweep(0.2, 9.0, count),
                "source": 1.2 + 0.5 * rng.random(),
            },
            rows=count,
        ),
        Job(
            name="coefficients_drude",
            command="coefficients",
            config={
                "slab": {"half_length": 1.0},
                "dielectric": {
                    "type": "drude",
                    "plasma_frequency": 2.0 + 0.2 * rng.random(),
                    "damping": 0.1 + 0.02 * rng.random(),
                },
                "omega": _sweep(0.2, 9.0, count),
            },
            rows=count,
        ),
        Job(
            name="limit_path",
            command="limit-study",
            config={
                "slab": {"half_length": 1.0},
                "omega": 1.0,
                "source": 1.5 + 0.5 * rng.random(),
                "limit_path": limit_path,
            },
            rows=path_len,
        ),
        Job(
            name="tensor3d",
            command="tensor3d",
            config={"omega": 0.5 + rng.random(), "separations": separations},
            rows=len(separations),
        ),
    ]


def setup_job(rng):
    """The smallest useful process: one tensor3d row."""
    point = [0.5 + rng.random(), 0.25, 0.125]
    return Job(
        name="setup",
        command="tensor3d",
        config={"omega": 1.0, "separations": [point]},
        rows=1,
    )


WORKLOADS = {
    "identity-grid": identity_grid,
    "oracle-scan": oracle_scan,
    "closed-form-scan": closed_form_scan,
}
