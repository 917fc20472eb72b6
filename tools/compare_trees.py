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
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
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


def run(src, job, directory):
    """Run one job with `src` on PYTHONPATH; returns (exit code, stdout, stderr, CSV bytes or None)."""
    config, out = directory / "config.json", directory / "out.csv"
    config.write_text(json.dumps(job.config))
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "slabgreen.cli", job.command, "--config", config.name, "--out", out.name, *job.flags]
    done = subprocess.run(argv, cwd=directory, env=env, stdin=subprocess.DEVNULL, capture_output=True)
    return done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None


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
        for label, job in jobs(args.seeds):
            old, new = (run(tree, job, directory) for tree, directory in zip(trees, directories))
            count += 1
            fields = [name for name, a, b in zip(("exit code", "stdout", "stderr", "csv"), old, new) if a != b]
            if fields:
                differ.append(label)
                print(f"{label}: {', '.join(fields)} differ (exit {old[0]} -> {new[0]})")
    print(f"{len(differ)} of {count} jobs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
