"""Every child process the suite starts: one child environment, one launcher and the session's queue of children.

A test names its children with `@pytest.mark.child(Child(...))`, or a case of it with
`marks=pytest.mark.child(Child(...))`. conftest.py queues the children of the selected tests, starts them when the first
test sets up, LIMIT at a time, and hands each test the finished runs of its own (README, "Install and test").
"""

import contextlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# Children running at once, each about 30 MB. They run at niceness 10, so the in-process tests take a CPU first
# where both want one. Measured on 2 vCPUs only, where 2 at once beat 1.
LIMIT = min(4, os.cpu_count() or 1)
DEV_FULL = os.path.exists("/dev/full")

# The child imports the package from this checkout. Its stdout is buffered, as users get it: PYTHONUNBUFFERED is
# dropped, so a write error waits for a flush, as it does for them.
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


class Child:
    """The interpreter on `args`, run in a directory of its own that holds `files` (name -> JSON value).

    `output` is its stdout: "pipe", "full" (/dev/full, where every write fails) or "closed".
    """

    def __init__(self, *args, output="pipe", files={}):
        self.args, self.output, self.files = args, output, files

    def start(self, cwd):
        """Writes the files into `cwd` and starts the child there, at niceness 10."""
        cwd.mkdir()
        for name, value in self.files.items():
            (cwd / name).write_text(json.dumps(value))
        closed = self.output == "closed"
        with open("/dev/full", "wb") if self.output == "full" else contextlib.nullcontext() as full:
            proc = subprocess.Popen(
                [sys.executable, *self.args], stdout=full or (None if closed else subprocess.PIPE),
                stderr=subprocess.PIPE, env=ENV, cwd=cwd, preexec_fn=(lambda: os.close(1)) if closed else None)
        os.setpriority(os.PRIO_PROCESS, proc.pid, 10)
        return proc


class Finished(NamedTuple):
    output: str  # the Child's
    returncode: int
    stdout: bytes | None  # None unless the child's stdout was a pipe
    stderr: bytes
    cwd: Path


class Children:
    """The children of one session's selected tests, queued in the order the tests run."""

    def __init__(self, children, directory):
        # A /dev/full child's test is skipped where the device is missing.
        self.queued = [child for child in children if DEV_FULL or child.output != "full"]
        self.started = {}  # Child -> (Popen, cwd), until its test has the run
        self.cwds = (directory / str(i) for i in itertools.count())

    def start(self, child):
        self.queued.remove(child)
        cwd = next(self.cwds)
        self.started[child] = child.start(cwd), cwd

    def top_up(self):
        """Starts queued children while fewer than LIMIT run."""
        while self.queued and sum(proc.poll() is None for proc, _ in self.started.values()) < LIMIT:
            self.start(self.queued[0])

    def wait(self, children):
        """The Finished run of each of `children`, alone if there is one; a queued child starts first."""
        runs = []
        for child in children:
            if child in self.queued:
                self.start(child)
            proc, cwd = self.started[child]
            stdout, stderr = proc.communicate(timeout=60)  # one that hangs fails its test; close() kills it
            del self.started[child]
            runs.append(Finished(child.output, proc.returncode, stdout, stderr, cwd))
        return runs[0] if len(runs) == 1 else tuple(runs)

    def close(self):
        """Kills and reaps every child no test had the run of."""
        for proc, _ in self.started.values():
            proc.kill()
            proc.communicate()
        self.started.clear()
