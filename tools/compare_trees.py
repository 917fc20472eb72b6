"""Compare two slabgreen source trees on the benchmark's jobs, byte for byte.

    python3 tools/compare_trees.py OLD_SRC NEW_SRC [--seeds 0 3 11]

OLD_SRC and NEW_SRC are directories that hold a `slabgreen` package, such as
the `src` directories of two checkouts. For each seed, each workload of
benchmarks/workloads.py gives its jobs and then its set-up job, drawn from
one random.Random(seed) as benchmarks/run.py draws them. Every job runs as
`python -m slabgreen.cli` once with each tree on PYTHONPATH, from a
directory of its own that holds the same config, so relative paths in
messages match. The script lists every job whose CSV bytes (or whether the
CSV exists), stdout, stderr or exit code differ, and exits 1 if any does;
otherwise it exits 0. It uses only the standard library.

For each job whose two CSVs differ, it then prints, per column, how many
rows differ and the largest relative difference |a - b| / max(|a|, |b|)
between them (inf where a cell is not a number on one side). The two files
are kept until every job has run and are then read line by line, side by
side.

For every job it also prints each tree's peak RSS (the child's ru_maxrss
from os.wait4) and wall time, where the bench reports only each pass's
largest peak over its jobs. A seed given more than once runs its jobs again,
so `--seeds 43 43 43` gives three alternating samples of each job.
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads  # noqa: E402


def jobs(seeds):
    """(label, job) for every workload's jobs and set-up job at each seed, in run.py's draw order."""
    for seed in seeds:
        for workload, generate in workloads.WORKLOADS.items():
            rng = random.Random(seed)
            for job in (*generate(rng), workloads.setup_job(rng)):
                yield f"seed {seed} {workload} {job.name}", job


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
    """Run one job with `src` on PYTHONPATH.

    Returns (exit code, stdout, stderr, the CSV's sha256 or None) and the
    child's (peak RSS in MB, wall seconds).
    """
    config, out = directory / "config.json", directory / "out.csv"
    config.write_text(json.dumps(job.config))
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "slabgreen.cli", job.command, "--config", config.name, "--out", out.name, *job.flags]
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


def relative(a, b):
    """|a - b| / max(|a|, |b|) of two CSV cells: 0 where they are equal, inf where one is not a number."""
    if a == b:
        return 0.0
    try:
        a, b = float(a), float(b)
    except ValueError:
        return math.inf
    difference = abs(a - b)
    if not math.isfinite(difference):
        return math.inf
    return difference / max(abs(a), abs(b)) if difference else 0.0  # 0 and -0 differ only in text


def column_differences(old, new):
    """Per column of two CSV files: (name, rows that differ, largest relative difference), and the row counts."""
    with open(old, newline="") as a, open(new, newline="") as b:
        rows = itertools.zip_longest(csv.reader(a), csv.reader(b), fillvalue=[])
        names = [x if x == y else f"{x}/{y}" for x, y in itertools.zip_longest(*next(rows), fillvalue="")]
        counts, largest, lengths = [0] * len(names), [0.0] * len(names), [0, 0]
        for old_row, new_row in rows:
            lengths = [lengths[0] + bool(old_row), lengths[1] + bool(new_row)]
            for j, (x, y) in enumerate(zip(old_row, new_row)):
                if x != y:
                    counts[j] += 1
                    largest[j] = max(largest[j], relative(x, y))
    return [entry for entry in zip(names, counts, largest) if entry[1]], lengths


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
    differ, count = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        directories = [Path(scratch, name) for name in ("old", "new")]
        for directory in directories:
            directory.mkdir()
        kept = []  # (label, old CSV, new CSV) of the jobs whose two CSVs differ
        for label, job in jobs(args.seeds):
            (old, old_cost), (new, new_cost) = (run(tree, job, path) for tree, path in zip(trees, directories))
            count += 1
            print(f"{label}: peak RSS {old_cost[0]:.2f} -> {new_cost[0]:.2f} MB, "
                  f"wall {old_cost[1]:.3f} -> {new_cost[1]:.3f} s")
            fields = [name for name, a, b in zip(("exit code", "stdout", "stderr", "csv"), old, new) if a != b]
            if fields:
                differ.append(label)
                print(f"{label}: {', '.join(fields)} differ (exit {old[0]} -> {new[0]})")
            if None not in (old[3], new[3]) and old[3] != new[3]:
                kept.append((label, *((directory / "out.csv").rename(Path(scratch, f"{count}-{directory.name}.csv"))
                                      for directory in directories)))
        for label, old, new in kept:
            columns, (old_rows, new_rows) = column_differences(old, new)
            if old_rows != new_rows:
                print(f"{label}: {old_rows} -> {new_rows} rows")
            for name, rows, largest in columns:
                print(f"{label}: column {name}: {rows} rows differ, largest relative difference {largest:.3g}")
    print(f"{len(differ)} of {count} jobs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
