"""End-to-end and per-layer benchmark of the slabgreen command line.

Run from the repository root:

    python3 benchmarks/run.py --workload identity-grid --seed 1 --seconds 35 --trace 0

With --trace 0 the benchmark is a closed loop with one client: it runs one
`python -m slabgreen.cli` process at a time over the workload's job list (one
pass) until --seconds have passed, and at least twice. It reports medians
over passes of the pass wall time, the children's CPU time from os.wait4 and
their peak RSS, plus the set-up time of a one-row tensor3d process.

A shared host's speed drifts with its neighbours' load, by up to half over
minutes, which no length of run averages out. So a calibration process
(calibrate.py, fixed work that imports nothing from slabgreen) runs before
each set-up sample and after each job, and every timing is reported at the
reference host speed: measured time x REFERENCE_CALIBRATION_S / calibration
time measured next to it. A change to the package moves the measured time
and not the calibration. The unscaled timings are printed too and kept in
result.json under "raw".

With --trace 1 it runs the same jobs in-process through `cli.main`: one
untraced pass, then two traced passes (see tracing.py), and reports per-layer
counts and self times, the tracing overhead, start-up timings and direct
probes of single public functions. This run does a fixed amount of work and
ignores --seconds.

Which end-to-end metric each layer should move, and on which workload:
startup.* and cli.parse_config_s move setup_s everywhere; cli.self_s (sweep
loop, formatting, CSV write), dielectric.*, slab_green.make_context_*,
emission.* and vacuum3d.* move wall_s and peak_rss_mb on closed-form-scan;
slab_green.green_* and identity.* move wall_s and cpu_s on identity-grid and
oracle-scan, and identity.integrals must stay 0 on closed-form-scan.

Every output is checked (checks.py), and every pass must reproduce the first
pass's CSVs byte for byte. The last line on stdout is one JSON object with
the keys correct, attempted, failed and metrics; a human-readable report goes
to stderr, and the full record with machine facts to
.bench_out/<workload>-seed<seed>-trace<0|1>/result.json.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

# One client with one thread: numpy's BLAS pool would otherwise add a second
# busy thread to every process on a two-core host. Set before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
# Wall and CPU time of calibrate.py at the usual speed of a 2-vCPU Xeon (KVM)
# host with Python 3.11.7 and numpy 2.4.6. A timing is reported as measured
# time x this / the calibration time measured next to it (see measure).
REFERENCE_CALIBRATION_S = 0.4

# Metric names and units live in BENCHMARK.json at the repository root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
# Counts, and ratios of counts, must repeat exactly between two traced passes with one seed.
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes", "ratio")]
# Hand-timed single runs quoted in ROADMAP.md (2 cores, Python 3.11.7, numpy 2.4.6).
BASELINE = {
    "startup.numpy_import_s": 0.105,
    "startup.import_total_s": 0.150,
    "slab_green.make_context_us": 8.0,
    "slab_green.green_us": 2.7,
    "identity.report_ms.workhorse": 1.7,
    "identity.report_ms.k20": 30.0,
    "identity.report_ms.k50_l5": 400.0,
}
# A probe reproduces the baseline when it is within this factor of it either
# way; the baseline figures are single runs on a shared host.
BASELINE_FACTOR = 1.5
IMPORT_TIMES = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import slabgreen; print(t1 - t0, time.perf_counter() - t1)"
)


def file_digest(path):
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Outputs:
    """Every job's output, checked once the timed work is over.

    The first output of each job is kept and checked; every later one must
    repeat it byte for byte, and one that does not is kept and checked too.
    Checks wait until the end because they need numpy and memory, and a
    child's peak RSS includes what its parent held when it was started.
    Operations are jobs and rows; a failed check fails its row or job.
    """

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._first = {}  # job name -> (exit code, sha256 of the CSV)
        self._repeats = defaultdict(int)  # job name -> outputs identical to the first
        self._kept = []  # (job, exit code, kept CSV, differs from the first)

    def record(self, job, exit_code):
        path = self.run_dir / f"{job.name}.csv"
        output = (exit_code, file_digest(path))
        first = self._first.setdefault(job.name, output)
        differs = output != first
        if first is not output and not differs:
            self._repeats[job.name] += 1
            path.unlink(missing_ok=True)
            return
        # Move the file away, so that a run that writes nothing cannot pass.
        kept = path.with_suffix(f".{len(self._kept)}.csv")
        if path.is_file():
            path.rename(kept)
        self._kept.append((job, exit_code, kept, differs))

    def check(self):
        import checks

        for job, exit_code, path, differs in self._kept:
            job_failed, failed_rows, messages = checks.check_output(job, exit_code, path)
            path.unlink(missing_ok=True)
            if differs:
                job_failed = True
                messages.append(f"{job.name}: output differs from the first run of this job and seed")
            times = 1 if differs else 1 + self._repeats[job.name]
            self.add(times * (1 + job.rows), times * (int(job_failed) + failed_rows), messages)

    def add(self, attempted, failed, messages=()):
        self.attempted += attempted
        self.failed += failed
        self.messages += [m for m in messages if m not in self.messages]


def stats(values):
    values = sorted(values)
    quartiles = statistics.quantiles(values, n=4)
    return {"median": quartiles[1], "p25": quartiles[0], "p75": quartiles[2],
            "min": values[0], "max": values[-1], "n": len(values), "samples": values}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd, log):
    """Run one process to completion; returns (exit code, wall seconds, rusage)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def cli_argv(job, run_dir):
    return [job.command, "--config", str(run_dir / f"{job.name}.json"),
            "--out", str(run_dir / f"{job.name}.csv"), *job.flags]


def run_job(job, run_dir):
    argv = [sys.executable, "-m", "slabgreen.cli", *cli_argv(job, run_dir)]
    return run_child(argv, run_dir, run_dir / f"{job.name}.stderr")


def measure(jobs, setup, run_dir, seconds, outputs):
    """Untraced closed loop: one set-up sample and one pass, until `seconds` have passed.

    A calibration runs before each set-up sample and after each job. Returns
    the timings scaled to the reference host speed, and the raw ones.
    """
    def calibrate():
        code, wall, usage = run_child([sys.executable, str(CALIBRATE)], run_dir, run_dir / "calibrate.stderr")
        if code != 0:
            raise RuntimeError(f"calibration exited with {code}; see {run_dir / 'calibrate.stderr'}")
        return wall, usage.ru_utime + usage.ru_stime

    def timed_setup():
        code, wall, _ = run_job(setup, run_dir)
        outputs.record(setup, code)
        return wall

    def calibrated(run):
        """Run `run()` and calibrate after it: its result and the mean (wall, CPU) calibration around it."""
        result = run()
        calibrations.append(calibrate())
        (wall_0, cpu_0), (wall_1, cpu_1) = calibrations[-2:]
        return result, 0.5 * (wall_0 + wall_1), 0.5 * (cpu_0 + cpu_1)

    # The first process in a fresh checkout also compiles the package's
    # bytecode, which users pay once; keep it out of set-up time.
    timed_setup()
    calibrations = [calibrate()]
    raw = {"wall_s": [], "cpu_s": [], "setup_s": []}
    scaled = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    start = time.perf_counter()
    while len(raw["wall_s"]) < 2 or time.perf_counter() - start < seconds:
        # The set-up sample is scaled by the calibration just before it, and
        # each job by the calibrations on either side of it.
        setup_wall = timed_setup()
        raw["setup_s"].append(setup_wall)
        scaled["setup_s"].append(REFERENCE_CALIBRATION_S * setup_wall / calibrations[-1][0])
        sums = defaultdict(float)
        peak_rss = 0
        for job in jobs:
            (code, wall, usage), cal_wall, cal_cpu = calibrated(lambda: run_job(job, run_dir))
            outputs.record(job, code)
            cpu = usage.ru_utime + usage.ru_stime
            sums["wall_s"] += wall
            sums["cpu_s"] += cpu
            sums["scaled_wall_s"] += REFERENCE_CALIBRATION_S * wall / cal_wall
            sums["scaled_cpu_s"] += REFERENCE_CALIBRATION_S * cpu / cal_cpu
            peak_rss = max(peak_rss, usage.ru_maxrss)
        raw["wall_s"].append(sums["wall_s"])
        raw["cpu_s"].append(sums["cpu_s"])
        scaled["wall_s"].append(sums["scaled_wall_s"])
        scaled["cpu_s"].append(sums["scaled_cpu_s"])
        scaled["peak_rss_mb"].append(peak_rss / 1024.0)

    cal_wall = [wall for wall, _ in calibrations]
    cal_cpu = [cpu for _, cpu in calibrations]
    extra = {
        "raw": {name: stats(values) for name, values in raw.items()},
        "calibration": {"wall_s": stats(cal_wall), "cpu_s": stats(cal_cpu)},
    }
    return {name: stats(values) for name, values in scaled.items()}, extra


def startup_probes(run_dir, runs=5):
    """Interpreter start, then `import numpy` and `import slabgreen` timed inside a process."""
    interp, numpy_s, import_s = [], [], []
    for _ in range(runs):
        interp.append(run_child([sys.executable, "-c", "pass"], run_dir, run_dir / "probe.stderr")[1])
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMES], cwd=run_dir, env=child_env(),
                             capture_output=True, text=True, check=True).stdout.split()
        numpy_s.append(float(out[0]))
        import_s.append(float(out[1]))
    return {
        "startup.interp_s": statistics.median(interp),
        "startup.numpy_import_s": statistics.median(numpy_s),
        "startup.import_s": statistics.median(import_s),
    }


def in_process_pass(jobs, run_dir, outputs, tracer=None):
    """Run the jobs through cli.main; returns their summed wall time, rows and CSV bytes."""
    from slabgreen import cli

    total = 0.0
    counts = {"cli.rows": 0, "cli.csv_bytes": 0}
    with open(run_dir / "in_process.stderr", "a") as err, contextlib.redirect_stderr(err):
        for job_id, job in enumerate(jobs):
            argv = cli_argv(job, run_dir)
            start = time.perf_counter()
            code = cli.main(argv) if tracer is None else tracer.run_job(job_id, argv)
            total += time.perf_counter() - start
            path = run_dir / f"{job.name}.csv"
            if path.is_file():
                counts["cli.rows"] += path.read_bytes().count(b"\n") - 1
                counts["cli.csv_bytes"] += path.stat().st_size
            outputs.record(job, code)
    return total, counts


def write_spans(tracer, path):
    origin = min((span[1] for span in tracer.spans), default=0.0)
    with open(path, "w") as out:
        for span_id, (name, start, end, parent, job) in enumerate(tracer.spans):
            out.write(json.dumps([span_id, name, round(1e6 * (start - origin), 3),
                                  round(1e6 * (end - origin), 3), parent, job]) + "\n")


def traced(jobs, run_dir, outputs):
    """In-process traced run: untraced pass, two traced passes, probes."""
    sys.path.insert(0, str(SRC))
    import slabgreen
    import tracing

    if Path(slabgreen.__file__).resolve().parent != SRC / "slabgreen":
        raise RuntimeError(f"imported slabgreen from {slabgreen.__file__}, not from {SRC}")

    metrics = startup_probes(run_dir)
    untraced_s, _ = in_process_pass(jobs, run_dir, outputs)
    passes = []
    for i in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            _, counts = in_process_pass(jobs, run_dir, outputs, tracer)
        layer = tracer.layer_metrics()
        layer.update(counts)
        layer["trace.traced_s"] = tracer.traced_s()
        passes.append(layer)
        if i == 0:
            write_spans(tracer, run_dir / "spans.jsonl")

    unstable = [name for name in COUNTS if passes[0][name] != passes[1][name]]
    outputs.add(1, int(bool(unstable)), [f"counts differ between two traced passes: {unstable}"] if unstable else [])
    for name, value in passes[0].items():
        metrics[name] = value if name in COUNTS else 0.5 * (value + passes[1][name])
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - untraced_s
    metrics.update(tracing.layer_probes())

    measured = dict(metrics, **{"startup.import_total_s": metrics["startup.numpy_import_s"] + metrics["startup.import_s"]})
    baseline = {
        name: {"baseline": value, "measured": measured[name], "ratio": measured[name] / value,
               "reproduced": 1.0 / BASELINE_FACTOR <= measured[name] / value <= BASELINE_FACTOR}
        for name, value in BASELINE.items()
    }
    return metrics, {"baseline": baseline, "layer_shares": layer_shares(metrics)}


def layer_shares(metrics):
    """Self time of each layer as a share of the traced job time."""
    total = metrics["trace.traced_s"]
    names = [name for name, unit in PER_LAYER_UNITS.items()
             if unit == "s" and not name.startswith(("startup.", "trace."))]
    return {name: metrics[name] / total for name in names} if total > 0 else {}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine_facts(seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(),
        "seed": seed,
    }


def report(workload, seed, trace, metrics, extra, outputs):
    print(f"{workload} seed {seed} trace {trace}: {outputs.attempted} attempted, {outputs.failed} failed",
          file=sys.stderr)
    for message in outputs.messages[:20]:
        print(f"  FAILED {message}", file=sys.stderr)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name, unit in units.items():
        value = metrics[name]
        if isinstance(value, dict):
            print(f"  {name:32s} {value['median']:.6g} {unit}  (quartiles {value['p25']:.6g}-"
                  f"{value['p75']:.6g}, range {value['min']:.6g}-{value['max']:.6g}, n={value['n']})",
                  file=sys.stderr)
        else:
            print(f"  {name:32s} {value:.6g} {unit}", file=sys.stderr)
    for group in ("raw", "calibration"):
        for name, value in extra.get(group, {}).items():
            print(f"  {group + '.' + name:32s} {value['median']:.6g} s  (quartiles {value['p25']:.6g}-"
                  f"{value['p75']:.6g}, n={value['n']})", file=sys.stderr)
    for name, share in extra.get("layer_shares", {}).items():
        print(f"  share of traced time  {name:28s} {100.0 * share:5.1f} %", file=sys.stderr)
    for name, row in extra.get("baseline", {}).items():
        verdict = "reproduced" if row["reproduced"] else "NOT reproduced"
        print(f"  baseline {name:30s} measured {row['measured']:.4g} vs {row['baseline']:.4g}"
              f" (x{row['ratio']:.2f}): {verdict} within x{BASELINE_FACTOR}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slabgreen" / "cli.py").is_file():
        print(f"error: no slabgreen sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    jobs = workloads.WORKLOADS[args.workload](rng)
    setup = workloads.setup_job(rng)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for job in (*jobs, setup):
        (run_dir / f"{job.name}.json").write_text(json.dumps(job.config))

    outputs = Outputs(run_dir)
    started = time.perf_counter()
    if args.trace:
        metrics, extra = traced(jobs, run_dir, outputs)
    else:
        metrics, extra = measure(jobs, setup, run_dir, args.seconds, outputs)
    outputs.check()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "run_s": time.perf_counter() - started,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "failed_frac": outputs.failed / outputs.attempted,
        "failures": outputs.messages,
        "metrics": {name: {"unit": unit, "value": metrics[name]} for name, unit in units.items()},
        **extra,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    for path in run_dir.glob("*.csv"):  # checked already; keep the configs and the record
        path.unlink()
    report(args.workload, args.seed, args.trace, metrics, extra, outputs)

    def value(entry):
        return entry["median"] if isinstance(entry, dict) else entry

    print(json.dumps({
        "correct": outputs.failed == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": value(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
