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
"""

import argparse
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads  # noqa: E402


def jobs(seeds):
    """(label, job, i) for every workload's jobs and set-up job at the i-th seed, in run.py's draw order."""
    for i, seed in enumerate(seeds):
        for workload, generate in workloads.WORKLOADS.items():
            rng = random.Random(seed)
            for job in (*generate(rng), workloads.setup_job(rng)):
                yield f"seed {seed} {workload} {job.name}", job, i


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
    with tempfile.TemporaryDirectory() as scratch:
        directories = [Path(scratch, name) for name in ("old", "new")]
        for directory in directories:
            directory.mkdir()
        kept = []  # (label, old CSV, new CSV) of the jobs whose two CSVs differ
        for label, job, i in jobs(args.seeds):
            order = [0, 1] if i % 2 == 0 else [1, 0]  # which tree runs first alternates from seed to seed
            results = {side: run(trees[side], job, directories[side]) for side in order}
            (old, old_cost), (new, new_cost) = results[0], results[1]
            peaks.setdefault(label, []).append((old_cost[0], new_cost[0]))
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
            for name, rows, largest, scaled in columns:
                print(f"{label}: column {name}: {rows} rows differ, largest relative difference {largest:.3g}, "
                      f"{scaled:.3g} of the column's largest magnitude")
    for label, pairs in peaks.items():
        old_peaks, new_peaks = zip(*pairs)
        higher = sum(new > old for old, new in pairs)
        print(f"{label}: median peak RSS {statistics.median(old_peaks):.3f} -> {statistics.median(new_peaks):.3f} MB "
              f"over {len(pairs)} pairs, new higher in {higher}")
    print(f"{len(differ)} of {count} jobs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
