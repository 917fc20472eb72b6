"""Compare two slabgreen source trees on the benchmark's jobs, byte for byte.

    python3 tools/compare_trees.py OLD_SRC NEW_SRC [--seeds 0 3 11]

OLD_SRC and NEW_SRC are directories that hold a `slabgreen` package, such as
the `src` directories of two checkouts. For each seed, each workload of
benchmarks/workloads.py gives its jobs and then its set-up job, drawn from
one random.Random(seed) as benchmarks/run.py draws them. Every job runs as
`python -m slabgreen.cli` once with each tree on PYTHONPATH, as the bench
runs it: from a run directory named like the bench's, with the config and
CSV given by their paths there, and with the bench's one BLAS thread
(`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`, `MKL_NUM_THREADS` = 1). Both trees
run each job from the same directory, and each tree is on PYTHONPATH through
a link of the same length, so no path that a child sees differs between the
trees: messages match, and the peak RSS of a child, which moves with the
length of its paths, compares like for like. The script lists every job
whose CSV bytes (or whether the CSV exists), stdout, stderr or exit code
differ, and exits 1 if any does; otherwise it exits 0. It uses only the
standard library.

For each job whose two CSVs differ, it then prints, per column, how many
rows differ, the largest relative difference |a - b| / max(|a|, |b|) of one
cell (inf where a cell is not a number on one side), and the largest |a - b|
relative to the column's largest finite magnitude in either file. The second
tells a last-digit change from a real one where a cell is near zero, such as
the rounding noise of an imaginary part that is 0 in exact arithmetic, which
reads about 1 cell by cell. The two files are kept until every job has run
and are then read line by line, side by side.

For every job it also prints each tree's peak RSS (the child's ru_maxrss
from os.wait4) and wall time, where the bench reports only each pass's
largest peak over its jobs. A seed given more than once runs its jobs again,
so `--seeds 43 43 43` gives three samples of each job; the tree that runs
first alternates from one seed in the list to the next, so neither always
runs on a warmer machine. At the end, per job, it prints each tree's median
peak RSS over its samples and in how many pairs the new tree's was higher.
Then, per workload and seed, it prints each tree's pass peak, the largest
peak RSS of the workload's jobs without its set-up job, which is what the
bench reports as peak_rss_mb, and the job that gave it; and per workload,
the median change of the pass peak over the seeds, the interquartile range
of those changes, the bench's peak_rss_mb bound (from BENCHMARK.json), at
how many seeds the new tree's was higher, and at how many seeds each job
gave the new tree's pass peak. A median change inside that range is no
result.
Last, it prints each tree's line count per module of slabgreen/, as
`wc -l` counts them, and in total.
"""

import argparse
import collections
import csv
import hashlib
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import workloads  # noqa: E402


# benchmarks/run.py's one BLAS thread per process, set before numpy loads.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def jobs(seeds):
    """(label, job, i, run directory name, pass) for every workload's jobs and set-up job at the i-th seed.

    They come in run.py's draw order, and the directory is named as run.py
    names its run directory. The pass is (i, seed, workload) for the jobs of
    the workload's pass and None for its set-up job, which run.py keeps out
    of the pass.
    """
    for i, seed in enumerate(seeds):
        for workload, generate in workloads.WORKLOADS.items():
            rng = random.Random(seed)
            in_pass = [(job, (i, seed, workload)) for job in generate(rng)]
            for job, key in (*in_pass, (workloads.setup_job(rng), None)):
                yield f"seed {seed} {workload} {job.name}", job, i, f"{workload}-seed{seed}-trace0", key


def digest(path):
    """The sha256 of a file, read 1 MiB at a time, or None if there is none.

    A child started by vfork, as subprocess does, counts this process's peak
    RSS in its own ru_maxrss, so the CSVs are hashed, never held whole.
    """
    if not path.is_file():
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def run(src, job, directory):
    """Run one job with `src` on PYTHONPATH, from `directory`, with its config and CSV there as run.py gives them.

    Returns (exit code, stdout, stderr, the CSV's sha256 or None) and the
    child's (peak RSS in MB, wall seconds).
    """
    config, out = directory / f"{job.name}.json", directory / f"{job.name}.csv"
    config.write_text(json.dumps(job.config))
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), **THREADS)
    argv = [sys.executable, "-m", "slabgreen.cli", job.command, "--config", str(config), "--out", str(out), *job.flags]
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=directory, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage, which Popen.wait drops
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        result = child.returncode, stdout.read(), stderr.read(), digest(out)
    return result, (usage.ru_maxrss / 1024.0, wall)


def number(cell):
    """The float of a CSV cell, or None where it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def difference(a, b):
    """|a - b| of two CSV cells: 0 where their text is equal, inf where one is not a finite number."""
    if a == b:
        return 0.0
    a, b = number(a), number(b)
    if a is None or b is None or not math.isfinite(a - b):
        return math.inf
    return abs(a - b)


def relative(a, b):
    """|a - b| / max(|a|, |b|) of two CSV cells: 0 where they are equal, inf where one is not a number."""
    spread = difference(a, b)
    if spread in (0.0, math.inf):  # 0 and -0 differ only in text
        return spread
    return spread / max(abs(float(a)), abs(float(b)))


def column_differences(old, new):
    """Per column of two CSV files, and the row counts.

    Each column that differs gives (name, rows that differ, largest relative
    difference of a cell, largest difference relative to the column's
    largest finite magnitude in either file).
    """
    with open(old, newline="") as a, open(new, newline="") as b:
        rows = itertools.zip_longest(csv.reader(a), csv.reader(b), fillvalue=[])
        names = [x if x == y else f"{x}/{y}" for x, y in itertools.zip_longest(*next(rows), fillvalue="")]
        width, lengths = len(names), [0, 0]
        counts, largest, spread, size = [0] * width, [0.0] * width, [0.0] * width, [0.0] * width
        for old_row, new_row in rows:
            lengths = [lengths[0] + bool(old_row), lengths[1] + bool(new_row)]
            for j, (x, y) in enumerate(zip(old_row, new_row)):
                for value in map(number, (x, y)):
                    if value is not None and math.isfinite(value):
                        size[j] = max(size[j], abs(value))
                if x != y:
                    counts[j] += 1
                    largest[j] = max(largest[j], relative(x, y))
                    spread[j] = max(spread[j], difference(x, y))
    scaled = [d / m if m else (0.0 if d == 0.0 else math.inf) for d, m in zip(spread, size)]
    return [entry for entry in zip(names, counts, largest, scaled) if entry[1]], lengths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the old source tree (a directory holding slabgreen/)")
    parser.add_argument("new", type=Path, help="the new source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 11])
    args = parser.parse_args(argv)
    trees = [args.old.resolve(), args.new.resolve()]
    for tree in trees:
        if not (tree / "slabgreen" / "cli.py").is_file():
            parser.error(f"no slabgreen package under {tree}")
    differ, count, peaks = [], 0, {}  # peaks: label -> the (old, new) peak RSS of each sample
    pass_peaks = {}  # (i, seed, workload) -> the (old, new) largest (peak RSS, job name) of the pass's jobs
    with tempfile.TemporaryDirectory() as scratch:
        links = [Path(scratch, name) for name in ("old", "new")]
        for link, tree in zip(links, trees):
            link.symlink_to(tree, target_is_directory=True)
        kept = []  # (label, old CSV, new CSV) of the jobs whose two CSVs differ
        for label, job, i, run_dir, in_pass in jobs(args.seeds):
            directory = Path(scratch, run_dir)
            directory.mkdir(exist_ok=True)
            order = [0, 1] if i % 2 == 0 else [1, 0]  # which tree runs first alternates from seed to seed
            results, outputs = {}, [Path(scratch, f"{count}-{link.name}.csv") for link in links]
            for side in order:  # each CSV is moved out of the directory before the other tree runs
                results[side] = run(links[side], job, directory)
                if results[side][0][3] is not None:
                    (directory / f"{job.name}.csv").replace(outputs[side])
            (old, old_cost), (new, new_cost) = results[0], results[1]
            peaks.setdefault(label, []).append((old_cost[0], new_cost[0]))
            if in_pass is not None:
                old_peak, new_peak = pass_peaks.get(in_pass, ((0.0, ""), (0.0, "")))
                pass_peaks[in_pass] = max(old_peak, (old_cost[0], job.name)), max(new_peak, (new_cost[0], job.name))
            count += 1
            print(f"{label}: peak RSS {old_cost[0]:.2f} -> {new_cost[0]:.2f} MB, "
                  f"wall {old_cost[1]:.3f} -> {new_cost[1]:.3f} s")
            fields = [name for name, a, b in zip(("exit code", "stdout", "stderr", "csv"), old, new) if a != b]
            if fields:
                differ.append(label)
                print(f"{label}: {', '.join(fields)} differ (exit {old[0]} -> {new[0]})")
            if None not in (old[3], new[3]) and old[3] != new[3]:
                kept.append((label, *outputs))
            else:
                for path in outputs:
                    path.unlink(missing_ok=True)
        for label, old, new in kept:
            columns, (old_rows, new_rows) = column_differences(old, new)
            if old_rows != new_rows:
                print(f"{label}: {old_rows} -> {new_rows} rows")
            for name, rows, largest, scaled in columns:
                print(f"{label}: column {name}: {rows} rows differ, largest relative difference {largest:.3g}, "
                      f"{scaled:.3g} of the column's largest magnitude")
    for label, pairs in peaks.items():
        old_peaks, new_peaks = zip(*pairs)
        higher = sum(new > old for old, new in pairs)
        print(f"{label}: median peak RSS {statistics.median(old_peaks):.3f} -> {statistics.median(new_peaks):.3f} MB "
              f"over {len(pairs)} pairs, new higher in {higher}")
    changes, setters = {}, {}  # workload -> per seed, the new tree's pass peak minus the old one's, and its job
    for (_, seed, workload), ((old_peak, old_job), (new_peak, new_job)) in pass_peaks.items():
        print(f"seed {seed} {workload}: pass peak RSS {old_peak:.3f} ({old_job}) -> {new_peak:.3f} ({new_job}) MB")
        changes.setdefault(workload, []).append(new_peak - old_peak)
        setters.setdefault(workload, []).append(new_job)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(metric["bound"] for metric in spec["end_to_end"] if metric["name"] == "peak_rss_mb")
    for workload, deltas in changes.items():
        # Quartiles of the per-seed changes themselves; one seed has no spread to give.
        q1, _, q3 = statistics.quantiles(deltas, n=4, method="inclusive") if len(deltas) > 1 else [math.nan] * 3
        print(f"{workload}: pass peak RSS median change {statistics.median(deltas):+.3f} MB over {len(deltas)} seeds "
              f"(IQR {q3 - q1:.3f} MB, bound {bound} MB), new higher in {sum(delta > 0 for delta in deltas)}")
        jobs_at = collections.Counter(setters[workload]).most_common()
        jobs_at = ", ".join(f"{name} at {seeds}" for name, seeds in jobs_at)
        print(f"{workload}: new pass peak set by {jobs_at} of {len(deltas)} seeds")
    lines = [{path.name: path.read_bytes().count(b"\n") for path in (tree / "slabgreen").glob("*.py")} for tree in trees]
    for module in sorted(set(lines[0]) | set(lines[1])):
        print(f"slabgreen/{module}: {lines[0].get(module, 0)} -> {lines[1].get(module, 0)} lines")
    print(f"slabgreen: {sum(lines[0].values())} -> {sum(lines[1].values())} lines")
    print(f"{len(differ)} of {count} jobs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
