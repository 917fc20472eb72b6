"""Per-layer tracing of slabgreen from outside the package.

Public functions are replaced, at the module where callers look them up, by
wrappers that time each call; `installed` puts the originals back. Every
wrapped call contributes to its layer's call count and self time (its
duration minus the time of the wrapped calls it made). Calls above the
per-node level are also kept as spans (name, start, end, parent id, job id)
in memory. Per-node calls (`green` and the quadrature integrand) run millions
of times per pass, so they are only counted and timed, not stored.
"""

import contextlib
import statistics
import time
from collections import defaultdict

from slabgreen import cli, emission, identity, slab_green

# Layer names of the spans, keyed by the attribute wrapped in each module.
SPANS = [
    (cli, "parse_config", "cli.parse_config"),
    (cli, "make_context", "slab_green.make_context"),
    (cli, "identity_report", "identity.report"),
    (cli, "decay_report", "emission.decay_report"),
    (cli, "limit_study", "emission.limit_study"),
    (cli, "green_tensor_vacuum", "vacuum3d.green_tensor"),
    (slab_green, "permittivity", "dielectric.permittivity"),
    (emission, "lhs_quadrature", "identity.lhs_quadrature"),
    (emission, "make_context", "slab_green.make_context"),
]


class Tracer:
    """Spans and per-layer totals of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent id, job id]; id = list index
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.converged = 0
        self.job = -1
        # One frame per open call: [time spent in wrapped callees, id of the
        # nearest enclosing span]. The bottom frame stands for the caller.
        self._stack = [[0.0, -1]]

    def wrap(self, name, fn, record=True):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1]
            span_id = len(spans) if record else parent
            if record:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if record:
                    spans[span_id] = [name, start, end, parent, self.job]

        return traced

    def run_job(self, job_id, argv):
        """Run `cli.main(argv)` as one job span."""
        self.job = job_id
        return self.wrap("cli.main", cli.main)(argv)

    @contextlib.contextmanager
    def installed(self):
        adaptive = identity.integrate_adaptive

        def integrate(f, *args, **kwargs):
            result = adaptive(self.wrap("identity.integrand", f, record=False), *args, **kwargs)
            self.converged += 1
            return result

        patches = [(module, attr, self.wrap(name, getattr(module, attr))) for module, attr, name in SPANS]
        patches.append((identity, "green", self.wrap("slab_green.green", identity.green, record=False)))
        patches.append((identity, "integrate_adaptive", self.wrap("identity.integrate_adaptive", integrate)))
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def layer_metrics(self):
        """Counts and self times by layer, under the benchmark's metric names."""
        calls, self_s = self.calls, self.self_s
        integrals = calls["identity.integrate_adaptive"]
        evals = calls["identity.integrand"]
        return {
            "cli.parse_config_s": self_s["cli.parse_config"],
            "cli.self_s": self_s["cli.main"],
            "dielectric.permittivity_calls": calls["dielectric.permittivity"],
            "dielectric.permittivity_s": self_s["dielectric.permittivity"],
            "slab_green.make_context_calls": calls["slab_green.make_context"],
            "slab_green.make_context_s": self_s["slab_green.make_context"],
            "slab_green.green_calls": calls["slab_green.green"],
            "slab_green.green_s": self_s["slab_green.green"],
            "identity.integrals": integrals,
            "identity.integrand_evals": evals,
            # With no integrals there is nothing per integral, and none failed.
            "identity.evals_per_integral": evals / integrals if integrals else 0.0,
            "identity.converged_frac": self.converged / integrals if integrals else 1.0,
            "identity.quad_self_s": self_s["identity.integrate_adaptive"],
            "identity.integrand_self_s": self_s["identity.integrand"],
            "identity.report_s": self_s["identity.report"] + self_s["identity.lhs_quadrature"],
            "emission.decay_report_calls": calls["emission.decay_report"],
            "emission.decay_report_s": self_s["emission.decay_report"],
            "emission.limit_study_s": self_s["emission.limit_study"],
            "vacuum3d.green_tensor_calls": calls["vacuum3d.green_tensor"],
            "vacuum3d.green_tensor_s": self_s["vacuum3d.green_tensor"],
        }

    def traced_s(self):
        """Wall time of the job spans together."""
        return sum(end - start for name, start, end, _, _ in self.spans if name == "cli.main")


def probe(fn, batch_seconds=0.02, batches=5):
    """Median seconds per call of `fn()` over `batches` timed batches."""
    def batch(count):
        start = time.perf_counter()
        for _ in range(count):
            fn()
        return time.perf_counter() - start

    count = 1
    while batch(count) < batch_seconds:
        count *= 2
    return statistics.median(batch(count) / count for _ in range(batches))


def layer_probes():
    """Direct timings of public functions on the reference inputs of the ROADMAP baseline."""
    from slabgreen import Constant, SlabGeometry, green, identity_report, make_context

    model = Constant(3.75 + 2.0j)  # n = 2 + 0.5i
    unit = SlabGeometry(1.0)
    workhorse = make_context(unit, model, 1.0)
    k20 = make_context(unit, model, 20.0)
    k50_l5 = make_context(SlabGeometry(5.0), model, 50.0)
    return {
        "slab_green.make_context_us": 1e6 * probe(lambda: make_context(unit, model, 1.0)),
        "slab_green.green_us": 1e6 * probe(lambda: green(0.3, 2.0, workhorse)),
        "identity.report_ms.workhorse": 1e3 * probe(lambda: identity_report(2.0, 2.0, workhorse)),
        "identity.report_ms.k20": 1e3 * probe(lambda: identity_report(2.0, 2.0, k20)),
        "identity.report_ms.k50_l5": 1e3 * probe(lambda: identity_report(6.0, 6.0, k50_l5), batches=3),
    }
