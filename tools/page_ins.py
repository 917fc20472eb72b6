"""Attribute one slabgreen job's resident-memory growth to the package's source lines.

    python3 tools/page_ins.py [--src SRC] [--top N] COMMAND --config PATH --out PATH [...]

Everything from COMMAND on is a `slabgreen` command line. The job runs
in-process through `cli.main`, with SRC (default: this checkout's `src`)
first on sys.path. From `cli._malloc_trim` on, that is, once the config is
read and the freed heap handed back, every line event of a frame whose code
lies in SRC's `slabgreen/` reads `RssFile` and `RssAnon` from
/proc/self/status, and any growth since the last reading is charged to the
line that ran before it. A call into numpy or the standard library raises no
line event of its own, so what it pages in is charged to the package line
that made the call. RssFile is file-backed memory, mostly the code pages of
numpy's shared library, which the kernel maps in on first use; RssAnon is
heap and array memory. Only growth is charged: memory handed back makes no
line negative.

The script prints the N lines (default 12) that grew most, in kB, with
their source text, then both totals: each figure at the start and at the
end, the growth charged to any line, and the process's peak (ru_maxrss).
The tracer's own readings and its table of lines allocate a little heap,
which counts towards RssAnon; a line that a job runs for the first time
can be charged a few kB of it. The job's stdout and stderr pass through,
and the script exits with the job's exit code. It uses only the standard
library and needs /proc (Linux); elsewhere it exits with a message.
"""

import argparse
import linecache
import os
import sys
from pathlib import Path

STATUS = "/proc/self/status"
FIELDS = (b"RssFile:", b"RssAnon:")


def read_rss(fd):
    """RssFile and RssAnon of this process, in kB."""
    text = os.pread(fd, 8192, 0)
    return tuple(int(text[text.index(key) + len(key):text.index(b"kB", text.index(key))]) for key in FIELDS)


class PageIns:
    """A sys.settrace tracer that charges RSS growth to the package line that ran."""

    def __init__(self, package_dir):
        self.package_dir = str(package_dir) + os.sep
        self.fd = os.open(STATUS, os.O_RDONLY)
        self.grown = {}  # (file, line) -> [RssFile kB, RssAnon kB]
        self.where = None
        self.start = self.last = read_rss(self.fd)

    def charge(self):
        now = read_rss(self.fd)
        if now != self.last and self.where is not None:
            grown = self.grown.setdefault(self.where, [0, 0])
            for i in (0, 1):
                grown[i] += max(0, now[i] - self.last[i])
        self.last = now

    def ours(self, frame):
        return frame.f_code.co_filename.startswith(self.package_dir)

    def global_trace(self, frame, event, arg):
        return self.local_trace if self.ours(frame) else None

    def local_trace(self, frame, event, arg):
        self.charge()
        if event == "line":
            self.where = (frame.f_code.co_filename, frame.f_lineno)
        elif event == "return":  # back to the caller's line, if it is the package's
            caller = frame.f_back
            self.where = (caller.f_code.co_filename, caller.f_lineno) if caller and self.ours(caller) else None
        return self.local_trace

    def begin(self, frame):
        """Trace from here on, in new frames and in `frame` and its callers."""
        self.start = self.last = read_rss(self.fd)
        while frame is not None:
            if self.ours(frame):
                frame.f_trace = self.local_trace
                self.where = self.where or (frame.f_code.co_filename, frame.f_lineno)
            frame = frame.f_back
        sys.settrace(self.global_trace)

    def end(self):
        sys.settrace(None)
        self.charge()

    def report(self, top):
        import resource  # Unix only, as is /proc; imported here so that elsewhere the /proc message shows

        rows = sorted(self.grown.items(), key=lambda item: -sum(item[1]))[:top]
        print(f"{'RssFile kB':>10} {'RssAnon kB':>10}  line")
        for (path, line), (file_kb, anon_kb) in rows:
            text = linecache.getline(path, line).strip()
            print(f"{file_kb:>10} {anon_kb:>10}  {Path(path).name}:{line}  {text[:90]}")
        charged = [sum(grown[i] for grown in self.grown.values()) for i in (0, 1)]
        for i, name in enumerate(("RssFile", "RssAnon")):
            print(f"{name}: {self.start[i]} -> {self.last[i]} kB from the trim to the end,"
                  f" {charged[i]} kB growth charged to lines")
        print(f"peak RSS (ru_maxrss): {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss} kB")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the slabgreen package (default: this checkout's src)")
    parser.add_argument("--top", type=int, default=12, help="lines to print (default 12)")
    parser.add_argument("job", nargs=argparse.REMAINDER, help="a slabgreen command line")
    args = parser.parse_args(argv)
    if not args.job:
        parser.error("give a slabgreen command line, such as: decay-scan --config c.json --out o.csv --oracle")
    if not os.path.exists(STATUS):
        sys.exit(f"page_ins: {STATUS} is missing; this script needs Linux's /proc")
    sys.path.insert(0, str(args.src.resolve()))
    from slabgreen import cli

    tracer = PageIns(args.src.resolve() / "slabgreen")
    trim = cli._malloc_trim

    def traced_trim(pad):
        status = trim(pad) if trim is not None else 0
        tracer.begin(sys._getframe(1))
        return status

    cli._malloc_trim = traced_trim
    try:
        status = cli.main(args.job)
    finally:
        tracer.end()
    tracer.report(args.top)
    return status


if __name__ == "__main__":
    sys.exit(main())
