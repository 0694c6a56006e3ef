"""Branch tracing and the existence threshold lambda*.

For small reaction strength the only solution is zero; above a
threshold a pair of ordered positive solutions appears (an energy
minimizer and a mountain-pass point below it).  On the mesh the
threshold is the turning point lambda*_h of the minimizer branch, which
solve_fold finds by Newton steps on the fold system from the minimizer
at the bracket's upper end.  The predicate "a converged nontrivial
minimizer exists" then brackets it, a quarter of the requested width
either side; where the fold solve fails, or the predicates disagree
with it, bisection on the same predicate narrows the bracket to the
width.  Once the bracket's upper end holds a minimizer, each predicate
first descends from it; only where that descent collapses does a
multi-start decide.  Below a closed-form lower bound lambda_low
(lambda_lower_bound: the principal eigenfunction and the discrete
Picone inequality prove that zero is the only solution there) the
predicate is answered without a search.  One descent at the bracket's
lower end, from the minimizer at its upper end, checks the bracket: the
branch must be gone there, or the searches missed it and a warning says
so.
"""

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, with_lambda
from .diagnostics import check_ordering, hopf_ratio
from .kernel import apply_operator
from .reaction import ReactionModel
from .solvers import (SaddleNotFound, SolverError, SolverOptions,
                      find_saddle, minimize, minimize_multistart, nontrivial,
                      principal_eigenpair, select_solution, solve_fold)


BOUND_MARGIN = 1e-10     # relative shrink of lambda_low, for the rounding of mu


@dataclass
class BranchPoint:
    """Solver outcome at one reaction strength."""

    lam: float
    u_big: object                # SolveReport
    v_saddle: object = None      # SolveReport or None
    diagnostics: dict = None
    saddle_note: str = None      # why there is no converged saddle


@dataclass
class BifurcationDiagram:
    points: list
    lambda_star_estimate: float = None
    bracket_width: float = None
    method_record: dict = None


def _find_minimizer(kern, model, opts, warm=None, seed=0, threads=1,
                    stop_early=False, mu=0.0):
    """Minimizer at model's lambda, warm start first.

    One descent from warm is kept when it ends converged and nontrivial:
    minimize stops only where the Hessian is positive definite, so that
    is a local minimizer on the branch warm came from (natural-parameter
    continuation; Allgower and Georg, Numerical Continuation Methods,
    1990).  When it collapses, or without warm, the multi-start decides
    (select_solution of its reports; stop_early ends it at the first
    nontrivial one), so a zero answer always rests on the multi-start.
    Every descent stops at zero in the box that mu sets (minimize).
    """
    if warm is not None:
        rep = minimize(kern, model, warm, opts, mu=mu)
        if nontrivial(rep, opts.zero_tol):
            return rep
    reports = minimize_multistart(kern, model, opts, seed=seed,
                                  threads=threads, stop_at_nontrivial=stop_early,
                                  mu=mu)
    return select_solution(reports, opts.zero_tol)


def _point_diagnostics(params, bp):
    u = bp.u_big
    diag = {"sup_u": u.solution.sup_norm, "energy_u": u.energy,
            "hopf_u": hopf_ratio(u.solution, params.s),
            "iterations_u": u.iterations, "residual_u": u.residual,
            "converged": u.converged and bp.saddle_note is None,
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
                    morse_v=v.morse_index)
    return diag


def solve_at_lambda(kern, params, warm_start=None, opts=None, seed=0,
                    threads=1):
    """Minimizer plus its saddle companion.

    The minimizer is the descent from warm_start when that ends
    converged and nontrivial, and otherwise (or without warm_start) the
    multi-start's select_solution.

    When the saddle search raises SaddleNotFound, or its saddle did not
    converge, the point's saddle_note says why and its diagnostics read
    converged=False; an unconverged saddle stays as v_saddle, so its
    *_v diagnostics are kept.
    """
    opts = opts or SolverOptions()
    if warm_start is not None:
        warm_start = np.asarray(getattr(warm_start, "values", warm_start),
                                dtype=float)
    rep = _find_minimizer(kern, ReactionModel.plain(params), opts, warm_start,
                          seed=seed, threads=threads)
    bp = BranchPoint(lam=params.lam, u_big=rep)
    if nontrivial(rep, opts.zero_tol):
        try:
            v = bp.v_saddle = find_saddle(kern, params, rep.solution.values,
                                          opts)
        except SaddleNotFound as exc:
            bp.saddle_note = str(exc)
        else:
            if not v.converged:
                bp.saddle_note = ("saddle search did not converge (Morse "
                                  "index %s, residual %.3e)"
                                  % (v.morse_index, v.residual))
    bp.diagnostics = _point_diagnostics(params, bp)
    return bp


def continue_branch(kern, params, lam_grid, opts=None, seed=0, threads=1):
    """Trace the branch over a monotone grid, warm-starting downward.

    Returns a diagram of the points alone, in ascending lambda.  Each
    point is warm-started from the last one alive (solve_at_lambda), so
    the branch is declared dead only where a multi-start finds it gone
    too.
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
    for lam in grid:
        bp = solve_at_lambda(kern, with_lambda(params, lam), warm_start=warm,
                             opts=opts, seed=seed, threads=threads)
        warm = (bp.u_big.solution.values
                if nontrivial(bp.u_big, opts.zero_tol) else None)
        points.append(bp)
    return BifurcationDiagram(points=list(reversed(points)))


def _picone_mu(kern, phi, p):
    """mu = min_i A(phi)_i / (mass_i phi_i^(p-1)), the constant of the
    discrete Picone inequality for phi (see lambda_lower_bound), or None
    for a phi with a node that is not positive.
    """
    # a node that is not positive (or whose power underflows) leaves a
    # zero here
    den = kern.mass * np.maximum(phi, 0.0) ** (p - 1.0)
    if not np.all(den > 0.0):
        return None
    return float(np.min(apply_operator(kern, phi, p) / den))


def lambda_lower_bound(kern, params, opts=None, eigenpair=None):
    """Reaction strength lambda_low below which zero is the only
    solution on kern, or None where no certificate is possible.

    Let phi > 0 be principal_eigenpair's eigenfunction on kern (or that
    of the eigenpair given) and mu = min_i A(phi)_i / (mass_i
    phi_i^(p-1)), with mass the node measure of KernelMatrix.mass.
    For a symmetric kernel with K, T >= 0 the discrete Picone
    inequality (Brasco and Franzina, Kodai Math. J. 37, 2014) gives,
    for every u >= 0,

        sum_i A(phi)_i u_i^p / phi_i^(p-1) <= pairing(A(u), u),

    so mu sum mass u^p <= pairing(A(u), u).  A solution is nonnegative
    (the reaction vanishes for t <= 0), and at one

        pairing(A(u), u) = sum mass_i f(u_i) u_i <= G(lam) sum mass_i u_i^p,
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
    return _lower_bound_and_mu(kern, params, eigenpair)[0]


def _lower_bound_and_mu(kern, params, eigenpair):
    """(lambda_low, mu): lambda_lower_bound for the eigenpair given and
    the Picone constant mu it rests on, or (None, None)."""
    if not (np.array_equal(kern.K, kern.K.T) and np.all(kern.K >= 0.0)
            and np.all(kern.T >= 0.0)):
        return None, None
    mu = _picone_mu(kern, eigenpair.eigenfunction.values, params.p)
    if mu is None or not mu > 0.0:
        return None, None
    p, q, r = params.p, params.q, params.r
    lam = (p - r) / (p - q) * (mu * (p - q) / (q - r)) ** ((q - r) / (p - r))
    return (1.0 - BOUND_MARGIN) * lam, mu


def estimate_lambda_star(kern, params, bracket, opts=None, seed=0, threads=1):
    """Threshold estimate: the branch's turning point lambda*_h, bracketed
    by the existence predicate, and checked by one descent at that
    bracket's lower end.

    The principal eigenpair is solved once, for lambda_lower_bound; a
    predicate at a lambda below that bound is answered "zero only"
    without a search.  Any other predicate descends first from the
    nontrivial solution cached at the current hi, once there is one,
    and answers "nontrivial" when that descent ends converged and
    nontrivial (a local minimizer: minimize stops only where the
    Hessian is positive definite).  Otherwise a multi-start stopping at
    its first nontrivial report decides, so a "zero only" answer rests
    on the multi-start alone.  Every predicate's descent stops at zero
    below the floor t-(lambda, mu) of every nontrivial solution, mu the
    Picone constant behind lambda_low (solvers._zero_floor), or below
    the sign threshold delta where there is no bound.

    A bracket whose lo is nontrivial moves down: lo becomes hi and
    halves; one whose hi is zero only moves up: hi becomes lo and
    doubles.  Then, from each new nontrivial hi, solve_fold runs from
    the minimizer cached there, until one attempt converges.  If its
    lambda*_h has lambda_low <= lambda*_h and
    lo < lambda*_h -+ width/4 < hi, the next predicates are at
    lambda*_h + width/4 and, descending from the solution found there,
    at lambda*_h - width/4: if both agree with lambda*_h the bracket is
    (lambda*_h - width/4, lambda*_h + width/4).  Every other predicate is
    at the bracket's midpoint, until the bracket is no wider than width.

    Then one descent runs at the final lo from the minimizer cached at
    the final hi (natural-parameter continuation), stopping at zero only
    below delta, unless the predicate at lo already ran that descent
    with the floor.  A descent that ends nontrivial means the searches
    missed the branch at lo, and warns; so does a converged lambda*_h
    outside (lo, hi) or below lambda_low.

    Returns a BifurcationDiagram carrying only the estimate fields and
    a method record: the bisection bracket (lo, hi); the fold solve's
    lambda*_h (fold_estimate, None when no attempt converged), its
    residual and Newton steps (fold_residual, fold_iterations), and
    the reasons of the attempts that failed or were not used
    (fold_note); the relative distance of lambda*_h from the bracket
    midpoint (agreement_rel); warnings; the number of lambdas the
    predicate decided (predicate_evaluations), the bound
    (lambda_lower_bound, None without a certificate) and how many of
    those lambdas it decided alone (certified_predicates).
    """
    opts = opts or SolverOptions()
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ParameterError("bracket must satisfy 0 < lo < hi, got %r" % (bracket,))
    eig = principal_eigenpair(kern, params.p, opts)
    lam_low, mu = _lower_bound_and_mu(kern, params, eig)
    # the Picone constant behind lam_low, shrunk like it for rounding:
    # the predicates' descents stop at zero below the floor it sets
    mu = 0.0 if lam_low is None else (1.0 - BOUND_MARGIN) * mu
    cache = {}
    descended = {}      # lambda -> the warm start its predicate descended from

    def certified(lam):
        # zero is the only solution below the bound
        return lam_low is not None and lam < lam_low

    def nontrivial_at(lam):
        if lam not in cache:
            cache[lam] = None
            if not certified(lam):
                # no warm start until hi is known to be nontrivial
                top = cache.get(hi)
                if top is not None:
                    descended[lam] = top.solution.values
                rep = _find_minimizer(
                    kern, ReactionModel.plain(with_lambda(params, lam)), opts,
                    descended.get(lam), seed=seed, threads=threads,
                    stop_early=True, mu=mu)
                if nontrivial(rep, opts.zero_tol):
                    cache[lam] = rep
        return cache[lam]

    if nontrivial_at(lo):
        for _ in range(8):
            lo, hi = 0.5 * lo, lo
            if not nontrivial_at(lo):
                break
        else:
            raise SolverError(
                "nontrivial solutions persist down to lambda=%g; "
                "lower the bracket" % lo)
    if not nontrivial_at(hi):
        for _ in range(8):
            lo, hi = hi, 2.0 * hi
            if nontrivial_at(hi):
                break
        else:
            raise SolverError(
                "no nontrivial solution up to lambda=%g; the threshold lies "
                "above min(1, eigenvalue)=%g, raise the bracket"
                % (hi, min(1.0, eig.value)))
    fold = None         # the fold solve that converged
    notes = []          # why each attempt placed no predicates
    tried = None        # the hi of the last attempt
    queue = []
    quarter = 0.25 * opts.width
    while hi - lo > opts.width:
        # a later attempt reaches the same lambda*_h, and a bracket that
        # only narrows cannot start to admit it
        if fold is None and hi != tried:
            tried = hi
            attempt = solve_fold(kern, with_lambda(params, hi),
                                 cache[hi].solution.values, opts)
            lam = attempt.lam
            if not attempt.converged:
                notes.append("from hi=%g: %s" % (hi, attempt.note))
            elif lam_low is not None and lam < lam_low:
                notes.append("from hi=%g: lambda*_h=%g lies below lambda_low"
                             % (hi, lam))
            elif not (lo < lam - quarter and lam + quarter < hi):
                notes.append("from hi=%g: lambda*_h=%g -+ width/4 leaves "
                             "(%g, %g)" % (hi, lam, lo, hi))
            else:
                queue = [lam + quarter, lam - quarter]
            if attempt.converged:
                fold = attempt
        # a placed predicate outside the bracket can decide nothing
        queue = [lam for lam in queue if lo < lam < hi]
        mid = queue.pop(0) if queue else 0.5 * (lo + hi)
        if nontrivial_at(mid):
            hi = mid
        else:
            lo = mid
    estimate = 0.5 * (lo + hi)

    warnings = []
    warm = cache[hi].solution.values
    # the predicate at lo may have run this descent already, with the
    # floor, and it did not end nontrivial, or hi would lie at or below
    # lo; otherwise it runs without mu, so that it tests the searches
    # against the certificate that mu and lam_low come from rather than
    # rests on it
    if descended.get(lo) is not warm and nontrivial(
            minimize(kern, ReactionModel.plain(with_lambda(params, lo)),
                     warm, opts), opts.zero_tol):
        warnings.append("the branch is still alive at lambda=%g, the lower "
                        "end of the bisection bracket (%g, %g)" % (lo, lo, hi))
    fold_estimate = fold_residual = fold_iterations = agreement = None
    if fold is not None:
        fold_estimate = fold.lam
        fold_residual, fold_iterations = fold.residual, fold.iterations
        agreement = abs(estimate - fold.lam) / max(estimate, fold.lam)
        if not lo <= fold.lam <= hi:
            warnings.append("the fold solve's lambda*_h=%g lies outside the "
                            "bisection bracket (%g, %g)" % (fold.lam, lo, hi))
        if lam_low is not None and fold.lam < lam_low:
            warnings.append("the fold solve's lambda*_h=%g lies below "
                            "lambda_low=%g" % (fold.lam, lam_low))
    if tried is None:
        notes.append("not attempted: the bracket was no wider than width")
    record = {"bisection_bracket": (lo, hi), "fold_estimate": fold_estimate,
              "fold_residual": fold_residual,
              "fold_iterations": fold_iterations,
              "fold_note": "; ".join(notes) or None,
              "agreement_rel": agreement, "warnings": warnings,
              "predicate_evaluations": len(cache),
              "lambda_lower_bound": lam_low,
              "certified_predicates": sum(map(certified, cache))}
    return BifurcationDiagram(points=[], lambda_star_estimate=estimate,
                              bracket_width=hi - lo, method_record=record)


def build_diagram(kern, params, lam_grid, bracket, opts=None, seed=0,
                  threads=1):
    """Full diagram: estimate_lambda_star's threshold estimate and method
    record, with continue_branch's points on the grid."""
    diagram = estimate_lambda_star(kern, params, bracket, opts=opts, seed=seed,
                                   threads=threads)
    diagram.points = continue_branch(kern, params, lam_grid, opts=opts,
                                     seed=seed, threads=threads).points
    return diagram
