"""Branch tracing and the existence threshold lambda*.

For small reaction strength the only solution is zero; above a
threshold a pair of ordered positive solutions appears (an energy
minimizer and a mountain-pass point below it).  The threshold is
estimated two independent ways:

* bisection on the predicate "multi-start minimization finds a
  converged nontrivial solution", down to a requested bracket width;
* continuation of the nontrivial branch from above with warm starts,
  recording where it folds (the warm-started solve collapses to zero
  and a fresh multi-start confirms).

Both are operational: they see the discrete problem through solver
basins, so they may disagree slightly; the method record keeps both
and flags disagreement beyond 10% relative.
"""

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, with_lambda
from .diagnostics import check_ordering, hopf_ratio
from .kernel import apply_operator
from .reaction import ReactionModel, f_values
from .solvers import (SaddleNotFound, SolverError, SolverOptions,
                      find_saddle, minimize, minimize_multistart,
                      principal_eigenpair, select_solution, solve_above)


@dataclass
class BranchPoint:
    """Solver outcome at one reaction strength."""

    lam: float
    u_big: object                # SolveReport
    v_saddle: object = None      # SolveReport or None
    diagnostics: dict = None


@dataclass
class BifurcationDiagram:
    points: list
    lambda_star_estimate: float = None
    bracket_width: float = None
    method_record: dict = None


def _nontrivial(report, zero_tol):
    return report.converged and report.solution.sup_norm > zero_tol


def _point_diagnostics(params, bp):
    u = bp.u_big
    diag = {"sup_u": u.solution.sup_norm, "energy_u": u.energy,
            "hopf_u": hopf_ratio(u.solution, params.s),
            "iterations_u": u.iterations, "residual_u": u.residual,
            "converged": u.converged,
            "sup_v": float("nan"), "energy_v": float("nan"),
            "hopf_v": float("nan"), "margin": float("nan"),
            "weighted_margin": float("nan"),
            "iterations_v": 0, "residual_v": float("nan")}
    if bp.v_saddle is not None:
        v = bp.v_saddle
        margin, weighted = check_ordering(u.solution, v.solution, params.s)
        diag.update(sup_v=v.solution.sup_norm, energy_v=v.energy,
                    hopf_v=hopf_ratio(v.solution, params.s),
                    margin=margin, weighted_margin=weighted,
                    iterations_v=v.iterations, residual_v=v.residual,
                    converged=u.converged and v.converged)
    return diag


def solve_at_lambda(kern, params, warm_start=None, opts=None, seed=0,
                    threads=1, with_saddle=True):
    """Minimizer (warm-started or multi-start) plus its saddle companion.

    When the saddle search raises SaddleNotFound, the exception carries
    the minimizer's BranchPoint (without a saddle) as its point.
    """
    opts = opts or SolverOptions()
    model = ReactionModel.plain(params)
    if warm_start is not None:
        warm = np.asarray(getattr(warm_start, "values", warm_start), dtype=float)
        rep = minimize(kern, model, warm, opts)
    else:
        reports = minimize_multistart(kern, model, opts, seed=seed,
                                      threads=threads)
        rep = select_solution(reports, opts.zero_tol)
    bp = BranchPoint(lam=params.lam, u_big=rep)
    if with_saddle and _nontrivial(rep, opts.zero_tol):
        try:
            bp.v_saddle = find_saddle(kern, params, rep.solution.values, opts,
                                      seed=seed)
        except SaddleNotFound as exc:
            bp.diagnostics = _point_diagnostics(params, bp)
            exc.point = bp
            raise
    bp.diagnostics = _point_diagnostics(params, bp)
    return bp


def continue_branch(kern, params, lam_grid, opts=None, seed=0, threads=1,
                    with_saddles=True, stop_at_fold=False):
    """Trace the branch over a monotone grid, warm-starting downward.

    Returns a diagram with points in ascending lambda; the method
    record holds the fold bracket (first dead, last alive) seen from
    above.  A warm start that collapses is re-checked by multi-start
    before the branch is declared dead there.  With stop_at_fold the
    trace ends at the first dead point below an alive one.
    """
    opts = opts or SolverOptions()
    grid = np.asarray(lam_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ParameterError("lambda grid needs at least two points")
    diffs = np.diff(grid)
    if np.all(diffs > 0.0):
        grid = grid[::-1]
    elif not np.all(diffs < 0.0):
        raise ParameterError("lambda grid must be strictly monotone")
    points = []
    warm = None
    last_alive = None
    fold = None
    for lam in grid:
        pr = with_lambda(params, lam)
        bp = solve_at_lambda(kern, pr, warm_start=warm, opts=opts, seed=seed,
                             threads=threads, with_saddle=with_saddles)
        if warm is not None and not _nontrivial(bp.u_big, opts.zero_tol):
            bp = solve_at_lambda(kern, pr, warm_start=None, opts=opts,
                                 seed=seed, threads=threads,
                                 with_saddle=with_saddles)
        if _nontrivial(bp.u_big, opts.zero_tol):
            warm = bp.u_big.solution.values
            last_alive = float(lam)
        else:
            warm = None
            if last_alive is not None and fold is None:
                fold = (float(lam), last_alive)
        points.append(bp)
        if stop_at_fold and fold is not None:
            break
    record = {"fold_bracket": fold, "fold_upper": last_alive,
              "grid": [float(x) for x in grid]}
    return BifurcationDiagram(points=list(reversed(points)),
                              method_record=record)


def estimate_lambda_star(kern, params, bracket, opts=None, seed=0, threads=1):
    """Bisection estimate of the existence threshold, cross-checked
    against the continuation fold.

    Returns a BifurcationDiagram carrying only the estimate fields and
    a method record (bisection bracket, fold bracket, agreement flag,
    analytic lower bound from the principal eigenvalue).
    """
    opts = opts or SolverOptions()
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ParameterError("bracket must satisfy 0 < lo < hi, got %r" % (bracket,))
    cache = {}

    def found_nontrivial(lam):
        if lam not in cache:
            pr = with_lambda(params, lam)
            reports = minimize_multistart(kern, ReactionModel.plain(pr), opts,
                                          seed=seed, threads=threads,
                                          stop_at_nontrivial=True)
            cache[lam] = any(_nontrivial(r, opts.zero_tol) for r in reports)
        return cache[lam]

    if found_nontrivial(lo):
        for _ in range(8):
            lo *= 0.5
            if not found_nontrivial(lo):
                break
        else:
            raise SolverError(
                "nontrivial solutions persist down to lambda=%g; "
                "lower the bracket" % lo)
    if not found_nontrivial(hi):
        for _ in range(8):
            hi *= 2.0
            if found_nontrivial(hi):
                break
        else:
            eig = principal_eigenpair(kern, params.p, opts)
            raise SolverError(
                "no nontrivial solution up to lambda=%g; the threshold lies "
                "above min(1, eigenvalue)=%g, raise the bracket"
                % (hi, min(1.0, eig.value)))
    while hi - lo > opts.width:
        mid = 0.5 * (lo + hi)
        if found_nontrivial(mid):
            hi = mid
        else:
            lo = mid
    estimate = 0.5 * (lo + hi)

    grid = np.linspace(1.6 * estimate, 0.4 * estimate, 14)
    trace = continue_branch(kern, params, grid, opts=opts, seed=seed,
                            threads=threads, with_saddles=False,
                            stop_at_fold=True)
    fold = trace.method_record["fold_bracket"]
    if fold is None and trace.method_record["fold_upper"] is not None:
        wider = np.linspace(0.4 * estimate, 0.1 * estimate, 7)
        lower = continue_branch(kern, params, wider, opts=opts, seed=seed,
                                threads=threads, with_saddles=False,
                                stop_at_fold=True)
        fold = lower.method_record["fold_bracket"]
    warnings = []
    fold_estimate = None
    agreement = None
    if fold is None:
        warnings.append("continuation found no fold in the scanned range")
    else:
        fold_estimate = 0.5 * (fold[0] + fold[1])
        agreement = abs(estimate - fold_estimate) / max(estimate, fold_estimate)
        if agreement > 0.10:
            warnings.append(
                "bisection and fold estimates disagree by %.1f%%"
                % (100.0 * agreement))
    record = {"bisection_bracket": (lo, hi),
              "fold_bracket": fold, "fold_estimate": fold_estimate,
              "agreement_rel": agreement, "warnings": warnings,
              "predicate_evaluations": len(cache)}
    return BifurcationDiagram(points=[], lambda_star_estimate=estimate,
                              bracket_width=hi - lo, method_record=record)


def build_diagram(kern, params, lam_grid, bracket, opts=None, seed=0,
                  threads=1, with_saddles=True):
    """Full diagram: threshold estimate plus branch points on a grid."""
    est = estimate_lambda_star(kern, params, bracket, opts=opts, seed=seed,
                               threads=threads)
    trace = continue_branch(kern, params, lam_grid, opts=opts, seed=seed,
                            threads=threads, with_saddles=with_saddles)
    record = dict(trace.method_record)
    record.update(est.method_record)
    return BifurcationDiagram(points=trace.points,
                              lambda_star_estimate=est.lambda_star_estimate,
                              bracket_width=est.bracket_width,
                              method_record=record)


def biggest_solution(kern, params, known, opts=None):
    """Least solution above the nodewise maximum of known solutions.

    Every input must be residual-verified; their pointwise max is a
    discrete subsolution (exactly, nodewise), so solve_above applies.
    That max must be mirror-even, as solve_above requires of its anchor.
    """
    opts = opts or SolverOptions()
    stack = []
    for item in known:
        sol = getattr(item, "solution", item)
        values = np.asarray(getattr(sol, "values", sol), dtype=float)
        res = float(np.max(np.abs(
            apply_operator(kern, values, params.p)
            - kern.mesh.h * f_values(ReactionModel.plain(params), values))))
        if res > 1e-6 * max(1.0, float(np.max(np.abs(values)))):
            raise ParameterError(
                "known solution has residual %.3e, not residual-verified" % res)
        stack.append(values)
    if not stack:
        raise ParameterError("need at least one known solution")
    top = np.max(np.vstack(stack), axis=0)
    return solve_above(kern, params, top, opts)
