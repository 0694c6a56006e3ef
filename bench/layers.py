"""Per-layer timing for the traced run.

Each layer of fracbif is timed at its boundary: the benchmark replaces
the names that callers look a layer's functions up through (the
binding in the calling module) with a wrapper that counts the call and
adds its duration.  Times are inclusive; a layer called from inside
another counts in both.  A name that a later version of the package no
longer has is recorded as absent and its metrics read 0.
"""

import os
import time
import types
from collections import defaultdict


class LayerTrace:
    """Seconds and counts per layer key, kept in memory."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.absent = set()
        self.calls = 0
        self.paused = False
        self._depth = defaultdict(int)

    def reset(self):
        self.seconds.clear()
        self.counts.clear()
        self.calls = 0

    def wrap(self, owner, name, key, after=None):
        """Time calls made through owner.name under key.

        after(trace, args, kwargs, result, seconds) records what the
        result says about the work done (iterations, bytes, ...).
        Only the outermost of nested calls under one key is timed.
        """
        orig = getattr(owner, name, None)
        if orig is None:
            self.absent.add(key)
            return
        depth = self._depth

        def timed(*args, **kwargs):
            if depth[key] or self.paused:
                return orig(*args, **kwargs)
            depth[key] += 1
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                depth[key] -= 1
                self.seconds[key] += dt
                self.counts[key] += 1
                self.calls += 1
            if after is not None:
                after(self, args, kwargs, out, dt)
            return out

        setattr(owner, name, staticmethod(timed) if isinstance(owner, type) else timed)


def _iterations(metric):
    def after(trace, args, kwargs, out, dt):
        trace.counts[metric] += out.iterations
    return after


def _multistart(trace, args, kwargs, reports, dt):
    trace.counts["solvers.multistart_starts"] += len(reports)
    trace.counts["solvers.multistart_nontrivial"] += sum(
        1 for r in reports if r.converged and r.classification != "zero")
    # the bisection predicate is the one multistart that stops early
    if kwargs.get("stop_at_nontrivial"):
        trace.counts["bifurcation.predicate_evals"] += 1
        trace.seconds["bifurcation.predicate"] += dt


def _continuation(trace, args, kwargs, diagram, dt):
    trace.counts["bifurcation.continuation_points"] += len(diagram.points)


def _written(trace, args, kwargs, out, dt):
    trace.counts["output.bytes"] += os.path.getsize(args[0])


def install(trace):
    """Wrap every layer boundary of the fracbif package."""
    from fracbif import bifurcation, cli, diagnostics, kernel, solvers

    w = trace.wrap
    w(kernel.KernelMatrix, "from_sigma", "kernel.assemble")
    for mod in (solvers, diagnostics):
        w(mod, "seminorm_energy", "kernel.energy")
        w(mod, "total_energy", "solvers.total_energy")
        w(mod, "total_gradient", "solvers.total_gradient")
    w(solvers, "seminorm_energy_and_operator", "kernel.fused")
    for mod in (solvers, bifurcation, diagnostics):
        w(mod, "apply_operator", "kernel.operator")
        w(mod, "f_values", "reaction")
    w(solvers, "F_values", "reaction")
    for mod in (solvers, bifurcation):
        w(mod, "minimize", "solvers.minimize", _iterations("solvers.minimize_iterations"))
    w(bifurcation, "minimize_multistart", "solvers.multistart", _multistart)
    w(bifurcation, "find_saddle", "solvers.saddle", _iterations("solvers.saddle_iterations"))
    w(solvers, "_batch_energy", "solvers.path_batch")
    w(solvers, "_refine_downhill_direction", "solvers.climb")
    w(solvers, "_newton_polish", "solvers.polish")
    for mod in (cli, bifurcation):
        w(mod, "principal_eigenpair", "solvers.eigen", _iterations("solvers.eigen_iterations"))
    w(bifurcation, "estimate_lambda_star", "bifurcation.threshold")
    w(bifurcation, "continue_branch", "bifurcation.continuation", _continuation)
    for name in ("write_solution_csv", "write_eigen_csv", "write_run_record",
                 "write_branch_csv", "write_diagram_svg"):
        w(cli, name, "output.write", _written)


def call_cost(calls=20000):
    """Seconds one wrapper adds to a call, measured on a no-op."""
    ns = types.SimpleNamespace(noop=lambda: None)
    bare = ns.noop
    LayerTrace().wrap(ns, "noop", "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        ns.noop()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def metrics(trace, names, rounds):
    """Per-round value of each named per-layer metric from the trace.

    Names ending in _s read seconds, names ending in _calls read call
    counts, other names read the count recorded under that name.
    """
    out = {}
    for name in names:
        if name.endswith("_s"):
            value = trace.seconds[name[:-2]]
        elif name.endswith("_calls"):
            value = trace.counts[name[:-6]]
        else:
            value = trace.counts[name]
        out[name] = value / rounds
    return out
