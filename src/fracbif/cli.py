"""Command-line entry point.

Four subcommands share one configuration format (key=value file plus
flag overrides, flags win):

* eigen        principal eigenvalue and eigenfunction of the operator
* solve        both solutions at one reaction strength
* bifurcation  branch trace, threshold estimate, CSV/SVG/JSON artifacts
* verify       self-contained numerical check suite

Exit codes: 0 success, 1 config error, 2 solver failure, 3 only the
zero solution exists, 4 verification failure.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .bifurcation import build_diagram, solve_at_lambda
from .config import (ConfigError, config_hash, parse_config_file,
                     problem_params, require, resolve)
from .core import MeshError, ParameterError, build_mesh
from .diagnostics import boundary_ratios
from .kernel import KernelMatrix
from .output import (write_branch_csv, write_diagram_svg, write_eigen_csv,
                     write_kernel_csv, write_run_record, write_solution_csv)
from .solvers import (SolverError, SolverOptions, nontrivial,
                      principal_eigenpair)
from .verify import run_verification


def _make_kernel(mesh, sigma, hook):
    kern = KernelMatrix.from_sigma(mesh, sigma)
    return hook(kern) if hook is not None else kern


def _solver_options(cfg):
    return SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter,
                         starts=cfg.starts, path_points=cfg.path_points,
                         damping=cfg.damping, width=cfg.width)


def _meta(cfg):
    return {"version": __version__, "config_hash": config_hash(cfg),
            "seed": cfg.seed}


def _record(cfg, command):
    rec = _meta(cfg)
    rec.update(command=command,
               params={"p": cfg.p, "s": cfg.s, "q": cfg.q, "r": cfg.r,
                       "lambda": cfg.lam},
               mesh={"a": cfg.domain_a, "b": cfg.domain_b, "n": cfg.mesh_n},
               threads=cfg.threads)
    return rec


def _outdir(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _parse_bracket(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--bracket expects LO,HI, got %r" % text)
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError("--bracket expects two numbers, got %r" % text)
    return lo, hi


def _resolve_config(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "out": args.out, "seed": args.seed, "threads": args.threads,
        "lam": getattr(args, "lam", None),
        "lambda_min": getattr(args, "lambda_min", None),
        "lambda_max": getattr(args, "lambda_max", None),
        "steps": getattr(args, "steps", None),
        "width": getattr(args, "width", None),
    }
    bracket = getattr(args, "bracket", None)
    if bracket is not None:
        overrides["bracket_lo"], overrides["bracket_hi"] = _parse_bracket(bracket)
    return resolve(file_values, overrides)


def _require_operator_params(cfg):
    require(cfg, "p", "s")
    if not (cfg.p > 1.0 and 0.0 < cfg.s < 1.0 and cfg.p * cfg.s < 1.0):
        raise ConfigError("need p > 1, 0 < s < 1 and p*s < 1; got p=%g, s=%g"
                          % (cfg.p, cfg.s))


def cmd_eigen(cfg, args, kernel_hook):
    _require_operator_params(cfg)
    mesh = build_mesh(cfg.domain_a, cfg.domain_b, cfg.mesh_n)
    kern = _make_kernel(mesh, cfg.p * cfg.s, kernel_hook)
    eig = principal_eigenpair(kern, cfg.p, _solver_options(cfg))
    if not eig.converged:
        raise SolverError("eigen iteration did not converge "
                          "(residual %.3e after %d iterations)"
                          % (eig.residual, eig.iterations))
    out = _outdir(cfg)
    meta = _meta(cfg)
    write_eigen_csv(os.path.join(out, "eigen.csv"), mesh,
                    eig.eigenfunction.values, meta)
    if args.dump_kernel:
        write_kernel_csv(out, kern, meta)
    rec = _record(cfg, "eigen")
    rec.update(value=eig.value, residual=eig.residual,
               iterations=eig.iterations)
    write_run_record(os.path.join(out, "eigen.json"), rec)
    print("principal eigenvalue %.12g (residual %.3e, %d iterations)"
          % (eig.value, eig.residual, eig.iterations))
    return 0


def cmd_solve(cfg, args, kernel_hook):
    params = problem_params(cfg)
    mesh = build_mesh(cfg.domain_a, cfg.domain_b, cfg.mesh_n)
    kern = _make_kernel(mesh, params.sigma, kernel_hook)
    opts = _solver_options(cfg)
    out = _outdir(cfg)
    meta = _meta(cfg)
    rec = _record(cfg, "solve")

    bp = solve_at_lambda(kern, params, opts=opts, seed=cfg.seed,
                         threads=cfg.threads)
    rec["diagnostics"] = bp.diagnostics
    saddle = bp.v_saddle if bp.saddle_note is None else None
    if bp.saddle_note:
        rec["saddle_note"] = bp.saddle_note

    if args.dump_kernel:
        write_kernel_csv(out, kern, meta)
    u = bp.u_big.solution.values
    if not nontrivial(bp.u_big, opts.zero_tol):
        write_solution_csv(os.path.join(out, "solution.csv"), mesh, params.s,
                           u, None, meta)
        rec["outcome"] = "no nontrivial solution"
        write_run_record(os.path.join(out, "solution.json"), rec)
        print("no nontrivial solution at lambda=%.6g" % params.lam)
        return 3

    v = saddle.solution.values if saddle is not None else None
    write_solution_csv(os.path.join(out, "solution.csv"), mesh, params.s,
                       u, v, meta)
    sup_ratio, holder_ratio = boundary_ratios(bp.u_big.solution, params.s)
    rec["outcome"] = ("two ordered solutions" if v is not None
                      else "one solution")
    rec["boundary"] = {"sup_ratio": sup_ratio, "holder_ratio": holder_ratio}
    write_run_record(os.path.join(out, "solution.json"), rec)
    line = "solution sup norm %.6g, energy %.6g" % (
        bp.u_big.solution.sup_norm, bp.u_big.energy)
    if v is not None:
        line += "; saddle sup norm %.6g, energy %.6g" % (
            saddle.solution.sup_norm, saddle.energy)
    print(line)
    return 0


def cmd_bifurcation(cfg, args, kernel_hook):
    require(cfg, "p", "s", "q", "r", "lambda_min", "lambda_max",
            "bracket_lo", "bracket_hi")
    cfg.lam = cfg.lam if cfg.lam is not None else cfg.lambda_max
    params = problem_params(cfg)
    mesh = build_mesh(cfg.domain_a, cfg.domain_b, cfg.mesh_n)
    kern = _make_kernel(mesh, params.sigma, kernel_hook)
    opts = _solver_options(cfg)
    grid = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.steps)
    diagram = build_diagram(kern, params, grid,
                            (cfg.bracket_lo, cfg.bracket_hi),
                            opts=opts, seed=cfg.seed, threads=cfg.threads)
    out = _outdir(cfg)
    meta = _meta(cfg)
    write_branch_csv(os.path.join(out, "branch.csv"), diagram, meta)
    write_diagram_svg(os.path.join(out, "diagram.svg"), diagram, meta)
    if args.dump_kernel:
        write_kernel_csv(out, kern, meta)
    rec = _record(cfg, "bifurcation")
    rec.update(lambda_star_estimate=diagram.lambda_star_estimate,
               bracket_width=diagram.bracket_width,
               method_record=diagram.method_record,
               points=[bp.diagnostics | {"lambda": bp.lam}
                       | ({"saddle_note": bp.saddle_note} if bp.saddle_note
                          else {})
                       for bp in diagram.points])
    write_run_record(os.path.join(out, "bifurcation.json"), rec)
    print("lambda* estimate %.8g (bracket width %.3g, %d branch points)"
          % (diagram.lambda_star_estimate, diagram.bracket_width,
             len(diagram.points)))
    mr = diagram.method_record
    if mr["fold_estimate"] is None:
        print("fold solve did not converge: %s" % mr["fold_note"])
    else:
        print("fold solve lambda*_h %.10g (residual %.3g, %d Newton steps)"
              % (mr["fold_estimate"], mr["fold_residual"],
                 mr["fold_iterations"]))
    for warning in diagram.method_record.get("warnings", []):
        print("warning: %s" % warning, file=sys.stderr)
    return 0


def cmd_verify(cfg, args, kernel_hook):
    problem_params(cfg)
    _solver_options(cfg)
    passed, results = run_verification(cfg, kernel_hook=kernel_hook)
    for name, ok, detail in results:
        print("%-18s %s  %s" % (name, "ok" if ok else "FAIL", detail))
    rec = _record(cfg, "verify")
    rec["results"] = [{"name": n, "passed": ok, "detail": d}
                      for n, ok, d in results]
    write_run_record(os.path.join(_outdir(cfg), "verify.json"), rec)
    if not passed:
        failures = ", ".join(n for n, ok, _ in results if not ok)
        print("verification failed: %s" % failures, file=sys.stderr)
        return 4
    print("all checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracbif",
        description="discrete fractional p-Laplacian two-power reaction solver")
    parser.add_argument("--version", action="version",
                        version="fracbif " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH",
                        help="key=value configuration file")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--seed", type=int, metavar="N")
        sp.add_argument("--threads", type=int, metavar="N",
                        help="worker threads")
        sp.add_argument("--dump-kernel", action="store_true",
                        help="also write kernel.csv and kernel_tails.csv")

    sp = sub.add_parser("eigen", help="principal eigenpair of the operator")
    common(sp)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("solve", help="solutions at one reaction strength")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, metavar="X",
                    help="reaction strength")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("bifurcation",
                        help="branch trace and threshold estimate")
    common(sp)
    sp.add_argument("--lambda-min", dest="lambda_min", type=float, metavar="X")
    sp.add_argument("--lambda-max", dest="lambda_max", type=float, metavar="X")
    sp.add_argument("--steps", type=int, metavar="N",
                    help="number of grid points")
    sp.add_argument("--bracket", metavar="LO,HI",
                    help="initial bisection bracket for lambda*")
    sp.add_argument("--width", type=float, metavar="W",
                    help="target bracket width")
    sp.set_defaults(func=cmd_bifurcation)

    sp = sub.add_parser("verify", help="run the numerical check suite")
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None, kernel_hook=None):
    """Run one subcommand; returns its exit code.

    kernel_hook, when given, receives every kernel the command assembles
    and returns the one to use, so the checks can be pointed at a
    deliberately corrupted kernel.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg, args, kernel_hook)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (ParameterError, MeshError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except SolverError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
