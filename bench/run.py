#!/usr/bin/env python3
"""fracbif benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload solve-n128 --seed 0 --seconds 25 --trace 0

Workloads (exponents of demo.cfg: p = 3, s = 0.3, q = 2.5, r = 1.5):

  solve-n128      `fracbif solve` at lambda = 12.5, n = 128 (CLI, in-process)
  threshold-n128  estimate_lambda_star on bracket (5, 9), width 0.05, on (-1, 1)
                  and on the stretched domain (-2, 2) (public API)
  eigen-n1024     `fracbif eigen` at n = 1024 (CLI, in-process)

A run sets up several times (setup_s is the median import plus the
median set-up), then repeats whole rounds of the workload, stopping at
the round end nearest to --seconds; wall_s is the median round.  Every
output is checked against bench/reference.py, which does not use
fracbif.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import os
import sys

# Thread pools are sized when numpy loads, so pin them before any import of it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEMO = {"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5}
BRACKET = (5.0, 9.0)  # demo.cfg's starting bracket for lambda*
SETUPS = 5          # set-up repetitions per run; setup_s takes their median
IMPORTS = 4         # fresh interpreters timing the import, besides the run's own
# The reference sums in another order, from weights computed another way.
# On the demo outputs its residuals agree with the program's to ~1e-14,
# while the program may stop just under its tolerance; this much above
# the tolerance is allowed so that rounding alone never fails a check.
RESIDUAL_SLACK = 1.001


class Ops:
    """Counts the program calls of a run, times them and records check failures."""

    RUSAGE = ("ru_utime", "ru_stime", "ru_minflt", "ru_nivcsw")

    def __init__(self, trace=None):
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.wall = 0.0
        self.rusage = dict.fromkeys(self.RUSAGE, 0.0)

    def call(self, fn, *args, timed=True, ok=None, **kwargs):
        """Run one program call; returns its result, or None when it failed.

        An untimed call (a check) is left out of the trace too.
        """
        self.attempted += 1
        if self.trace is not None:
            self.trace.paused = not timed
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            out = None
        finally:
            if self.trace is not None:
                self.trace.paused = False
        dt = time.perf_counter() - t0
        if timed:
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            self.wall += dt
            for field in self.RUSAGE:
                self.rusage[field] += getattr(r1, field) - getattr(r0, field)
        if out is None or (ok is not None and not ok(out)):
            self.failed += 1
            print("bench: %s failed (returned %r)" % (getattr(fn, "__name__", fn), out),
                  file=sys.stderr)
            return None
        return out

    def check(self, cond, what):
        if not cond:
            self.problems.append(what)


def write_config(path, **values):
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write("%s = %s\n" % (key, value))


def load_csv(path):
    import numpy as np
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def residual_limit(tol, energy):
    return RESIDUAL_SLACK * tol * max(1.0, abs(energy))


class Workload:
    """Config, one set-up and one round of a workload."""

    warmup = 0
    n = 128
    extra = {}
    # where the configuration places lambda* before any search; only the
    # threshold search narrows it
    lambda_star_width = BRACKET[1] - BRACKET[0]

    def __init__(self, fb, ref, work):
        self.fb = fb
        self.ref = ref
        self.config = os.path.join(work, "run.cfg")
        self.out = os.path.join(work, "out")
        write_config(self.config, **DEMO, **{"mesh.n": self.n, "out": self.out},
                     **self.extra)

    def resolve(self):
        from fracbif.config import parse_config_file, resolve
        return resolve(parse_config_file(self.config))

    def domains(self, cfg):
        return [(cfg.domain_a, cfg.domain_b)]

    def solver_seed(self, seed, k):
        """Seed the program gets in round k of a run with benchmark seed `seed`."""
        return 1000 * seed + k

    def setup(self):
        """What a run pays before its first solver iteration."""
        cfg = self.resolve()
        return cfg, [self.fb.KernelMatrix.from_sigma(self.fb.build_mesh(a, b, cfg.mesh_n),
                                                     cfg.p * cfg.s)
                     for a, b in self.domains(cfg)]

    def cli(self, ops, command, seed):
        from fracbif import cli
        argv = [command, "--config", self.config, "--seed", str(seed), "--threads", "1"]
        return ops.call(cli.main, argv, ok=lambda rc: rc == 0) is not None


class Solve(Workload):
    warmup = 1
    extra = {"lambda": 12.5}

    def round(self, ops, seed):
        if not self.cli(ops, "solve", seed):
            return
        cfg = self.resolve()
        _, u, v = load_csv(os.path.join(self.out, "solution.csv"))[:, :3].T
        prob = self.ref.Problem(cfg.mesh_n, cfg.domain_a, cfg.domain_b,
                                cfg.p, cfg.s, cfg.q, cfg.r)
        lam = cfg.lam
        Eu, Ev = prob.energy(u, lam), prob.energy(v, lam)
        ops.check(prob.residual(u, lam) <= residual_limit(cfg.tol, Eu), "residual of u")
        ops.check(prob.residual(v, lam) <= residual_limit(cfg.tol, Ev), "residual of v")
        ops.check(bool((v > 0).all() and (v < u).all()), "0 < v < u at every node")
        ops.check(v.max() > self.fb.SolverOptions().zero_tol, "sup v above the zero tolerance")
        ops.check(Eu < 0.0 < Ev, "E(u) < 0 < E(v)")
        ops.check(abs(u - u[::-1]).max() <= 1e-6 * u.max(), "u symmetric under x -> -x")


class Eigen(Workload):
    n = 1024

    def round(self, ops, seed):
        if not self.cli(ops, "eigen", seed):
            return
        cfg = self.resolve()
        with open(os.path.join(self.out, "eigen.json")) as fh:
            value = json.load(fh)["value"]
        phi = load_csv(os.path.join(self.out, "eigen.csv"))[:, 1]
        prob = self.ref.Problem(cfg.mesh_n, cfg.domain_a, cfg.domain_b,
                                cfg.p, cfg.s, cfg.q, cfg.r)
        ops.check(prob.eigen_residual(phi, value) <= residual_limit(cfg.tol, value),
                  "eigen residual")
        ops.check(bool((phi > 0).all()), "eigenfunction strictly positive")
        ops.check(abs(prob.h * float((phi ** cfg.p).sum()) - 1.0) <= 1e-10,
                  "h * sum u^p = 1")


class Threshold(Workload):
    extra = {"lambda": 12.5, "bracket_lo": BRACKET[0], "bracket_hi": BRACKET[1], "width": 0.05}
    stretch = 2.0

    def solver_seed(self, seed, k):
        # One round takes about half a minute, so a run cannot average over
        # start sets as solve-n128 does, and the starts change the work of
        # a search by 10-20 %.  The searches use the demo.cfg seed instead.
        return 0

    def domains(self, cfg):
        L = self.stretch
        return [(cfg.domain_a, cfg.domain_b), (L * cfg.domain_a, L * cfg.domain_b)]

    def search(self, seed):
        from fracbif import bifurcation
        from fracbif.config import problem_params
        cfg, kernels = self.setup()
        params = problem_params(cfg)
        # the options `fracbif bifurcation` builds from the same config
        opts = self.fb.SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter, starts=cfg.starts,
                                     path_points=cfg.path_points, damping=cfg.damping,
                                     width=cfg.width)
        found = []
        for kern in kernels:
            est = bifurcation.estimate_lambda_star(
                kern, params, (cfg.bracket_lo, cfg.bracket_hi), opts=opts,
                seed=seed, threads=1)
            found.append((kern, est))
        return cfg, params, opts, found

    def round(self, ops, seed):
        res = ops.call(self.search, seed)
        if res is None:
            return
        cfg, params, opts, ((kern, est), (_, est_l)) = res
        lo, hi = est.method_record["bisection_bracket"]
        lo_l, hi_l = est_l.method_record["bisection_bracket"]
        ops.check(est.bracket_width <= cfg.width and est_l.bracket_width <= cfg.width,
                  "bracket width at most the configured width")
        # lambda*(L) = lambda*(1) * L^(-sigma (q - r) / (p - r)) holds exactly on the mesh
        c = self.stretch ** (-params.sigma * (params.q - params.r) / (params.p - params.r))
        ops.check(c * lo <= hi_l and lo_l <= c * hi,
                  "scaled bracket (%.6g, %.6g) overlaps the stretched one (%.6g, %.6g)"
                  % (c * lo, c * hi, lo_l, hi_l))
        self.lambda_star_width = est.bracket_width
        top = self.fb.with_lambda(params, hi)
        reports = ops.call(self.fb.minimize_multistart, kern, self.fb.ReactionModel.plain(top),
                           opts, seed=seed, threads=1, stop_at_nontrivial=True, timed=False)
        if reports is None:
            return
        rep = self.fb.select_solution(reports, opts.zero_tol)
        u = rep.solution.values
        prob = self.ref.Problem(cfg.mesh_n, cfg.domain_a, cfg.domain_b,
                                cfg.p, cfg.s, cfg.q, cfg.r)
        ops.check(u.max() > opts.zero_tol
                  and prob.residual(u, hi) <= residual_limit(cfg.tol, prob.energy(u, hi)),
                  "nontrivial solution with confirmed residual at the bracket's upper end")


WORKLOADS = {"solve-n128": Solve, "threshold-n128": Threshold, "eigen-n1024": Eigen}


IMPORT = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, %r); "
          "import numpy, fracbif, fracbif.cli; print(time.perf_counter() - t)")


def import_seconds(count):
    """Import time of numpy and fracbif in `count` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        res = subprocess.run([sys.executable, "-c", IMPORT % SRC], capture_output=True,
                             text=True, check=True, timeout=120)
        out.append(float(res.stdout))
    return out


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS")}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracbif", "__init__.py")):
        print("bench: no package source at src/fracbif; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (part of importing the package)
    import fracbif
    import fracbif.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if not fracbif.__file__.startswith(SRC + os.sep):
        print("bench: imported fracbif from %s, not from src/" % fracbif.__file__,
              file=sys.stderr)
        return 2

    import layers
    import reference

    trace = None
    if args.trace:
        trace = layers.LayerTrace()
        layers.install(trace)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as work:
        wl = WORKLOADS[args.workload](fracbif, reference, work)
        setups = []
        for _ in range(SETUPS):
            s0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - s0)
        imports = [import_s] + import_seconds(IMPORTS)
        setup_s = statistics.median(imports) + statistics.median(setups)

        # untimed rounds first: the first solve in a process runs cold
        warm = Ops(trace)
        for k in range(wl.warmup):
            wl.round(warm, wl.solver_seed(args.seed, k))
        if trace is not None:
            trace.reset()
        ops = Ops(trace)
        rounds, widths = [], []
        start = time.perf_counter()
        k = wl.warmup
        while True:
            before = ops.wall
            wl.round(ops, wl.solver_seed(args.seed, k))
            rounds.append(ops.wall - before)
            widths.append(wl.lambda_star_width)
            k += 1
            # stop at the round end nearest to --seconds
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 / len(rounds)) >= args.seconds:
                break

    attempted = warm.attempted + ops.attempted
    failed = warm.failed + ops.failed
    problems = warm.problems + ops.problems
    for what in problems:
        print("bench: check failed: %s" % what, file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print("rounds %d, round seconds %s, setups %s, imports %s"
          % (len(rounds), " ".join("%.3f" % r for r in rounds),
             " ".join("%.4f" % s for s in setups), " ".join("%.4f" % s for s in imports)))

    if args.trace:
        n = len(rounds)
        ru = ops.rusage
        trace.seconds.update({"proc.cpu_user": ru["ru_utime"], "proc.cpu_sys": ru["ru_stime"],
                              "trace.wall": sum(rounds),
                              "trace.overhead": trace.calls * layers.call_cost()})
        trace.counts.update({"proc.minor_faults": ru["ru_minflt"],
                             "proc.invol_ctx_switches": ru["ru_nivcsw"]})
        starts = trace.counts["solvers.multistart_starts"]
        names = [m["name"] for m in spec["per_layer"]]
        values = layers.metrics(trace, names, n)
        ratio = "solvers.multistart_nontrivial_ratio"
        if ratio in values:
            values[ratio] = trace.counts["solvers.multistart_nontrivial"] / starts if starts else 0.0
        if trace.absent:
            print("absent layers (read 0): %s" % ", ".join(sorted(trace.absent)))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"wall_s": statistics.median(rounds), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "lambda_star_width": statistics.median(widths)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
