"""Branch tracing and the existence threshold lambda*.

For small reaction strength the only solution is zero; above a
threshold a pair of ordered positive solutions appears (an energy
minimizer and a mountain-pass point below it).  The threshold is
bracketed by bisection on the predicate "multi-start minimization
finds a converged nontrivial solution", down to a requested width.
Below a closed-form lower bound lambda_low (lambda_lower_bound: the
principal eigenfunction and the discrete Picone inequality prove that
zero is the only solution there) the predicate is answered without a
search.  Warm starts then follow the branch down from the bracket's
upper end: it must die at the lower end, or the multi-start missed it
there and a warning says where it died.
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


BOUND_MARGIN = 1e-10     # relative shrink of lambda_low, for the rounding of mu


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
            "iterations_v": 0, "residual_v": float("nan"), "morse_v": None}
    if bp.v_saddle is not None:
        v = bp.v_saddle
        margin, weighted = check_ordering(u.solution, v.solution, params.s)
        diag.update(sup_v=v.solution.sup_norm, energy_v=v.energy,
                    hopf_v=hopf_ratio(v.solution, params.s),
                    margin=margin, weighted_margin=weighted,
                    iterations_v=v.iterations, residual_v=v.residual,
                    morse_v=v.morse_index,
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
                    with_saddles=True):
    """Trace the branch over a monotone grid, warm-starting downward.

    Returns a diagram with points in ascending lambda; the method
    record holds the grid and the fold bracket (first dead, last alive)
    seen from above, at the grid's resolution.  A warm start that
    collapses is re-checked by multi-start before the branch is
    declared dead there.
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
    record = {"fold_bracket": fold, "grid": [float(x) for x in grid]}
    return BifurcationDiagram(points=list(reversed(points)),
                              method_record=record)


def lambda_lower_bound(kern, params, opts=None, eigenpair=None):
    """Reaction strength lambda_low below which zero is the only
    solution on kern, or None where no certificate is possible.

    Let phi > 0 be principal_eigenpair's eigenfunction on kern (or that
    of the eigenpair given) and mu = min_i A(phi)_i / (h phi_i^(p-1)).
    For a symmetric kernel with K, T >= 0 the discrete Picone
    inequality (Brasco and Franzina, Kodai Math. J. 37, 2014) gives,
    for every u >= 0,

        sum_i A(phi)_i u_i^p / phi_i^(p-1) <= pairing(A(u), u),

    so mu h sum u^p <= pairing(A(u), u).  A solution is nonnegative
    (the reaction vanishes for t <= 0), and at one

        pairing(A(u), u) = h sum f(u_i) u_i <= G(lam) h sum u_i^p,
        G(lam) = max_t f(t) / t^(p-1)
               = (q-r)/(p-q) (lam (p-q)/(p-r))^((p-r)/(q-r)),

    the maximum taken at t* = ((p-r) / (lam (p-q)))^(1/(q-r)).  A
    nontrivial solution therefore needs G(lam) >= mu, that is

        lam >= lambda_low = (p-r)/(p-q) (mu (p-q)/(q-r))^((q-r)/(p-r)).

    This holds for any positive phi, converged or not, for p above and
    below 2; the nearer phi is to the eigenfunction, the nearer mu is
    to the eigenvalue and lambda_low to the threshold.  The value
    returned is shrunk by the relative margin BOUND_MARGIN, which covers
    the rounding of mu.  None is returned for a kernel that is not
    symmetric with K, T >= 0, for a phi with a node that is not
    positive, and for mu <= 0.
    """
    if eigenpair is None:
        eigenpair = principal_eigenpair(kern, params.p, opts)
    phi = eigenpair.eigenfunction.values
    p, q, r = params.p, params.q, params.r
    # a node that is not positive (or whose power underflows) leaves a
    # zero here
    den = kern.mesh.h * np.maximum(phi, 0.0) ** (p - 1.0)
    if not (np.array_equal(kern.K, kern.K.T) and np.all(kern.K >= 0.0)
            and np.all(kern.T >= 0.0) and np.all(den > 0.0)):
        return None
    mu = float(np.min(apply_operator(kern, phi, p) / den))
    if not mu > 0.0:
        return None
    lam = (p - r) / (p - q) * (mu * (p - q) / (q - r)) ** ((q - r) / (p - r))
    return (1.0 - BOUND_MARGIN) * lam


def estimate_lambda_star(kern, params, bracket, opts=None, seed=0, threads=1):
    """Bisection estimate of the existence threshold, checked by warm
    starts at the bisection's own bracket (lo, hi).

    The principal eigenpair is solved once, for lambda_lower_bound; a
    predicate at a lambda below that bound is answered "zero only"
    without a multi-start.  From the solution at hi, warm starts run at
    hi - (hi - lo) 2^k for k = 0..7 while above zero, until one
    collapses: the fold bracket is (that lambda, the last one alive),
    so (lo, hi) if the bisection is right.  A branch alive at lo, or
    never dead (fold bracket None), warns.

    Returns a BifurcationDiagram carrying only the estimate fields and
    a method record: the bisection and fold brackets, the fold midpoint
    and its relative distance from the estimate, warnings, the number
    of lambdas the predicate decided (predicate_evaluations), the bound
    (lambda_lower_bound, None without a certificate) and how many of
    those lambdas it decided alone (certified_predicates).
    """
    opts = opts or SolverOptions()
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ParameterError("bracket must satisfy 0 < lo < hi, got %r" % (bracket,))
    eig = principal_eigenpair(kern, params.p, opts)
    lam_low = lambda_lower_bound(kern, params, eigenpair=eig)
    cache = {}

    def certified(lam):
        # zero is the only solution below the bound
        return lam_low is not None and lam < lam_low

    def nontrivial_at(lam):
        if lam not in cache:
            cache[lam] = None
            if not certified(lam):
                pr = with_lambda(params, lam)
                reports = minimize_multistart(kern, ReactionModel.plain(pr),
                                              opts, seed=seed, threads=threads,
                                              stop_at_nontrivial=True)
                cache[lam] = next((r for r in reports
                                   if _nontrivial(r, opts.zero_tol)), None)
        return cache[lam]

    if nontrivial_at(lo):
        for _ in range(8):
            lo *= 0.5
            if not nontrivial_at(lo):
                break
        else:
            raise SolverError(
                "nontrivial solutions persist down to lambda=%g; "
                "lower the bracket" % lo)
    if not nontrivial_at(hi):
        for _ in range(8):
            hi *= 2.0
            if nontrivial_at(hi):
                break
        else:
            raise SolverError(
                "no nontrivial solution up to lambda=%g; the threshold lies "
                "above min(1, eigenvalue)=%g, raise the bracket"
                % (hi, min(1.0, eig.value)))
    while hi - lo > opts.width:
        mid = 0.5 * (lo + hi)
        if nontrivial_at(mid):
            hi = mid
        else:
            lo = mid
    estimate = 0.5 * (lo + hi)

    warm, live, fold = cache[hi].solution.values, hi, None
    for k in range(8):
        lam = hi - (hi - lo) * 2.0 ** k
        if lam <= 0.0:
            break
        rep = minimize(kern, ReactionModel.plain(with_lambda(params, lam)),
                       warm, opts)
        if not _nontrivial(rep, opts.zero_tol):
            fold = (lam, live)
            break
        warm, live = rep.solution.values, lam
    warnings = []
    if live < hi:
        warnings.append("the branch is still alive at lambda=%g, below the "
                        "bisection bracket (%g, %g)" % (live, lo, hi))
    fold_estimate = agreement = None
    if fold is None:
        warnings.append("the warm-started branch did not die down to "
                        "lambda=%g" % live)
    else:
        fold_estimate = 0.5 * (fold[0] + fold[1])
        agreement = abs(estimate - fold_estimate) / max(estimate, fold_estimate)
    record = {"bisection_bracket": (lo, hi),
              "fold_bracket": fold, "fold_estimate": fold_estimate,
              "agreement_rel": agreement, "warnings": warnings,
              "predicate_evaluations": len(cache),
              "lambda_lower_bound": lam_low,
              "certified_predicates": sum(map(certified, cache))}
    return BifurcationDiagram(points=[], lambda_star_estimate=estimate,
                              bracket_width=hi - lo, method_record=record)


def build_diagram(kern, params, lam_grid, bracket, opts=None, seed=0,
                  threads=1, with_saddles=True):
    """Full diagram: threshold estimate plus branch points on a grid.

    The method record is the estimate's, plus the grid and the grid's
    own fold bracket (continue_branch's fold_bracket) as grid_fold_bracket.
    """
    est = estimate_lambda_star(kern, params, bracket, opts=opts, seed=seed,
                               threads=threads)
    trace = continue_branch(kern, params, lam_grid, opts=opts, seed=seed,
                            threads=threads, with_saddles=with_saddles)
    record = dict(est.method_record,
                  grid=trace.method_record["grid"],
                  grid_fold_bracket=trace.method_record["fold_bracket"])
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
