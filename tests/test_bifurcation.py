import numpy as np
import pytest

from fracbif import (KernelError, KernelMatrix, ParameterError, ReactionModel,
                     SolverError, SolverOptions, apply_operator,
                     assemble_kernel, build_diagram, build_mesh,
                     continue_branch, estimate_lambda_star,
                     find_saddle, lambda_lower_bound, minimize,
                     minimize_multistart, principal_eigenpair,
                     scan_reaction_slack, select_solution, solve_at_lambda,
                     solve_fold, validate_params, with_lambda)
from fracbif import bifurcation, solvers

# exponent sets (p, s, q, r) with the bracket their threshold search
# starts from, on n = 32
EXPONENT_SETS = [((3.0, 0.3, 2.5, 1.5), (5.0, 9.0)),
                 ((1.8, 0.4, 1.6, 1.2), (5.0, 12.0)),
                 ((4.0, 0.2, 3.0, 2.0), (2.0, 30.0)),
                 ((2.0, 0.3, 1.7, 1.3), (2.0, 30.0)),
                 ((1.5, 0.5, 1.3, 1.1), (2.0, 30.0)),
                 ((2.5, 0.3, 2.0, 1.5), (2.0, 30.0)),
                 ((3.0, 0.2, 2.0, 1.2), (2.0, 30.0))]

# the bisection bracket of each set before the fold solve placed the
# predicates (width 0.05, seed 0)
BISECTION_BRACKETS = [(6.4375, 6.46875), (8.0625, 8.08984), (4.98047, 5.00781),
                      (6.86719, 6.89453), (6.375, 6.40234), (5.39062, 5.41797),
                      (5.14453, 5.17188)]


def exponent_problem(exps, n=32, a=-1.0, b=1.0):
    p, s, q, r = exps
    params = validate_params({"p": p, "s": s, "q": q, "r": r, "lambda": 8.0})
    return assemble_kernel(build_mesh(a, b, n), params), params


@pytest.fixture(scope="module")
def coarse_problem():
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 8.0})
    mesh = build_mesh(-1.0, 1.0, 32)
    kern = assemble_kernel(mesh, params)
    return kern, params


@pytest.fixture(scope="module")
def coarse_estimate(coarse_problem):
    kern, params = coarse_problem
    return estimate_lambda_star(kern, params, (5.0, 9.0), seed=0)


def test_estimate_record_structure(coarse_estimate):
    est = coarse_estimate
    lam_star = est.lambda_star_estimate
    assert 5.0 < lam_star < 9.0
    rec = est.method_record
    lo, hi = rec["bisection_bracket"]
    assert lo < lam_star < hi
    assert est.bracket_width == pytest.approx(hi - lo)
    assert est.bracket_width <= 0.05
    assert rec["predicate_evaluations"] >= 4
    # lambda*_h placed the last two predicates a quarter width either side
    assert (lo, hi) == (rec["fold_estimate"] - 0.0125,
                        rec["fold_estimate"] + 0.0125)
    assert rec["fold_residual"] <= 1e-9 and rec["fold_iterations"] >= 1
    assert rec["fold_note"] is None
    assert rec["agreement_rel"] <= 1e-15
    assert rec["warnings"] == []


def test_estimate_bisection_bracket(coarse_estimate):
    # the fold solve from hi = 9 gives lambda*_h, and the predicates at
    # lambda*_h + width/4 and lambda*_h - width/4 agree with it
    rec = coarse_estimate.method_record
    lam = rec["fold_estimate"]
    assert lam == pytest.approx(6.4591688477, abs=1e-10)
    assert rec["bisection_bracket"] == (lam - 0.0125, lam + 0.0125)


def test_estimate_expands_low_bracket(coarse_problem, coarse_estimate):
    kern, params = coarse_problem
    est = estimate_lambda_star(kern, params, (0.6, 0.9), seed=0)
    # the bracket doubles upward until it straddles the threshold, so
    # the estimate must land near the one from a honest bracket
    assert est.lambda_star_estimate == pytest.approx(
        coarse_estimate.lambda_star_estimate, rel=0.02)


def test_estimate_rejects_malformed_bracket(coarse_problem):
    kern, params = coarse_problem
    for bad in ((0.0, 1.0), (-2.0, 3.0), (4.0, 2.0)):
        with pytest.raises(ParameterError):
            estimate_lambda_star(kern, params, bad, seed=0)


def test_estimate_gives_up_on_hopeless_bracket(coarse_problem):
    kern, params = coarse_problem
    # eight doublings of 2e-4 stay far below the threshold
    with pytest.raises(SolverError, match="no nontrivial solution"):
        estimate_lambda_star(kern, params, (1e-4, 2e-4), seed=0)


def test_estimate_records_the_lower_bound(coarse_problem, coarse_estimate):
    kern, params = coarse_problem
    rec = coarse_estimate.method_record
    assert rec["lambda_lower_bound"] == lambda_lower_bound(kern, params)
    assert rec["lambda_lower_bound"] < rec["bisection_bracket"][1]
    # of the lambdas 5, 9 and lambda*_h -+ width/4 only 5 lies below it
    assert rec["certified_predicates"] == 1


@pytest.mark.parametrize("exps,bracket", EXPONENT_SETS)
def test_lambda_lower_bound_is_where_the_reaction_scan_turns(exps, bracket):
    # with eps = mu, f(t) <= eps t^(p-1) for every t exactly below the
    # closed form, and not just above it; the bound stays below the
    # bracket's upper end, and near its lower end
    kern, params = exponent_problem(exps)
    p, q, r = params.p, params.q, params.r
    eig = principal_eigenpair(kern, p)
    low = lambda_lower_bound(kern, params, eigenpair=eig)
    phi = eig.eigenfunction.values
    # mu from the full kernel, against the even one's in lambda_low
    full = KernelMatrix.full_from_sigma(kern.mesh, kern.sigma)
    mu = np.min(apply_operator(full, phi, p)
                / (kern.mesh.h * phi ** (p - 1.0)))
    assert mu == pytest.approx(eig.value, rel=1e-8)
    for lam, above in ((0.999999 * low, False), (1.001 * low, True)):
        t_star = ((p - r) / (lam * (p - q))) ** (1.0 / (q - r))
        slack = scan_reaction_slack(with_lambda(params, lam), mu,
                                    t_max=3.0 * t_star)
        assert (slack > 0.0) == above
        assert slack >= 0.0      # f(0) = 0
    rec = estimate_lambda_star(kern, params, bracket, seed=0).method_record
    lo, hi = rec["bisection_bracket"]
    assert rec["lambda_lower_bound"] == low
    assert 0.999 * low <= lo and low < hi


@pytest.mark.parametrize("bracket", [(5.0, 9.0), (0.6, 0.9)])
def test_lower_bound_keeps_the_brackets_with_fewer_searches(
        coarse_problem, monkeypatch, bracket):
    kern, params = coarse_problem
    seeing = bifurcation.minimize_multistart
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return seeing(*args, **kwargs)

    monkeypatch.setattr(bifurcation, "minimize_multistart", counted)
    with_bound = estimate_lambda_star(kern, params, bracket, seed=0)
    searched = len(calls)
    monkeypatch.setattr(bifurcation, "_lower_bound_and_mu",
                        lambda *args, **kwargs: (None, None))
    calls.clear()
    without = estimate_lambda_star(kern, params, bracket, seed=0)
    on, off = with_bound.method_record, without.method_record
    for key in ("bisection_bracket", "predicate_evaluations", "warnings"):
        assert on[key] == off[key], key
    assert with_bound.lambda_star_estimate == without.lambda_star_estimate
    assert off["lambda_lower_bound"] is None
    assert off["certified_predicates"] == 0
    # (5, 9): the lambda 5; (0.6, 0.9): 0.6, 0.9, 1.8 and 3.6 below 7.2
    assert on["certified_predicates"] == {(5.0, 9.0): 1, (0.6, 0.9): 4}[bracket]
    assert searched == len(calls) - on["certified_predicates"]


def test_lambda_lower_bound_stretches_exactly():
    # on (-L, L) the weights scale by L^(1-sigma) and h by L, so mu
    # scales by L^-sigma and lambda_low by L^(-sigma (q-r)/(p-r))
    exps = (3.0, 0.3, 2.5, 1.5)
    narrow = lambda_lower_bound(*exponent_problem(exps, 64))
    wide = lambda_lower_bound(*exponent_problem(exps, 64, -2.0, 2.0))
    assert wide == pytest.approx(2.0 ** -0.6 * narrow, rel=1e-10)


def test_multistart_below_the_lower_bound_finds_only_zero(coarse_problem):
    kern, params = coarse_problem
    low = lambda_lower_bound(kern, params)
    reports = minimize_multistart(
        kern, ReactionModel.plain(with_lambda(params, 0.999 * low)), seed=0)
    assert len(reports) == 10
    for rep in reports:
        assert rep.converged and rep.classification == "zero"


def test_lambda_lower_bound_needs_a_certificate(coarse_problem):
    kern, params = coarse_problem
    eig = principal_eigenpair(kern, params.p)
    assert lambda_lower_bound(kern, params, eigenpair=eig) is not None
    K = kern.K.copy()
    K[0, 1] *= 1.5                      # not symmetric: no kernel at all
    with pytest.raises(KernelError, match="not symmetric"):
        KernelMatrix(K, kern.T, kern.sigma, kern.mesh)
    K = kern.K.copy()
    K[0, 1] = K[1, 0] = -K[0, 1]        # a negative weight
    assert lambda_lower_bound(KernelMatrix(K, kern.T, kern.sigma, kern.mesh),
                              params, eigenpair=eig) is None
    eig.eigenfunction.values[3] = 0.0   # a zero node
    assert lambda_lower_bound(kern, params, eigenpair=eig) is None
    # p = 6: the eigen solve stops at residual 7.8e-2, and mu = -21.9
    kern6, params6 = exponent_problem((6.0, 0.1, 5.0, 4.0))
    assert lambda_lower_bound(kern6, params6) is None


def test_estimate_warns_when_the_bisection_misses_the_branch(
        coarse_problem, monkeypatch):
    # a predicate search blind below lambda = 6.9 (warm descent and
    # multistart alike see only zero) puts the bisection bracket above
    # the true one, (6.4375, 6.46875); the descent at its lower end from
    # the minimizer at its upper end finds the branch still alive
    kern, params = coarse_problem
    seeing = bifurcation._find_minimizer

    def blind(kern, model, opts, *args, **kwargs):
        if model.params.lam < 6.9:
            return minimize(kern, model, np.zeros(kern.n), opts)
        return seeing(kern, model, opts, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "_find_minimizer", blind)
    rec = estimate_lambda_star(kern, params, (5.0, 9.0), seed=0).method_record
    lo, hi = rec["bisection_bracket"]
    assert lo >= 6.9 - 0.05
    assert rec["warnings"]
    # the fold solve does not ask the predicate, and says so too
    assert rec["fold_estimate"] == pytest.approx(6.4591688477, abs=1e-10)
    assert ("the fold solve's lambda*_h=6.45917 lies outside the bisection "
            "bracket (%g, %g)" % (lo, hi)) in rec["warnings"]
    assert ("the branch is still alive at lambda=%g, the lower end of the "
            "bisection bracket (%g, %g)" % (lo, lo, hi)) in rec["warnings"]


def test_estimate_warns_when_lambda_star_h_lies_below_the_bound(
        coarse_problem, monkeypatch):
    # a bound just above lambda*_h = 6.45917 certifies 6.4375 as zero
    # only and leaves lambda*_h inside the bracket (6.4375, 6.46875), so
    # only the bound check sees the contradiction; the one converged
    # attempt, from hi = 9, is refused and not repeated
    kern, params = coarse_problem
    certificate = bifurcation._lower_bound_and_mu
    monkeypatch.setattr(bifurcation, "_lower_bound_and_mu",
                        lambda *args: (6.46, certificate(*args)[1]))
    rec = estimate_lambda_star(kern, params, (5.0, 9.0), seed=0).method_record
    assert rec["bisection_bracket"] == (6.4375, 6.46875)
    assert rec["fold_estimate"] == pytest.approx(6.4591688477, abs=1e-10)
    assert rec["fold_note"] == ("from hi=9: lambda*_h=6.45917 lies below "
                                "lambda_low")
    assert rec["warnings"] == ["the fold solve's lambda*_h=6.45917 lies "
                               "below lambda_low=6.46"]


def test_warm_starts_decide_the_nontrivial_predicates(coarse_problem,
                                                      monkeypatch):
    # once the bisection holds a nontrivial hi, each predicate descends
    # from it first, so a multistart runs only where the branch is gone:
    # at 9, where there is no hi yet, and at lambda*_h - width/4, which
    # descends from the solution at lambda*_h + width/4; that descent is
    # the check of the bracket's lower end, which is not run again
    kern, params = coarse_problem
    seeing, descending = bifurcation.minimize_multistart, bifurcation.minimize
    searched, descended = [], []

    def logged(kern, model, *args, **kwargs):
        reports = seeing(kern, model, *args, **kwargs)
        found = any(r.converged and r.classification != "zero"
                    for r in reports)
        searched.append((model.params.lam, found))
        return reports

    def logged_descent(kern, model, *args, **kwargs):
        descended.append(model.params.lam)
        return descending(kern, model, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "minimize_multistart", logged)
    monkeypatch.setattr(bifurcation, "minimize", logged_descent)
    rec = estimate_lambda_star(kern, params, (5.0, 9.0), seed=0).method_record
    lam = rec["fold_estimate"]
    assert rec["bisection_bracket"] == (lam - 0.0125, lam + 0.0125)
    assert descended == [lam + 0.0125, lam - 0.0125]
    assert rec["warnings"] == []
    assert rec["predicate_evaluations"] == 4
    assert rec["certified_predicates"] == 1
    assert searched == [(9.0, True), (lam - 0.0125, False)]
    first = next(k for k, (_, found) in enumerate(searched) if found)
    assert searched[first + 1:]
    assert not any(found for _, found in searched[first + 1:])
    searching = rec["predicate_evaluations"] - rec["certified_predicates"]
    assert len(searched) < searching


def test_estimate_follows_the_singular_branch_down_to_the_lower_bound():
    # p < 2: the multistart alone answered "zero only" at 6.58 and put
    # the bracket at (6.566, 6.594), while the branch lives down to
    # 6.4845, just above lambda_low = 6.4808
    kern, params = exponent_problem((1.3, 0.5, 1.2, 1.1))
    rec = estimate_lambda_star(kern, params, (2.0, 30.0),
                               opts=SolverOptions(width=0.05),
                               seed=0).method_record
    _, hi = rec["bisection_bracket"]
    assert rec["warnings"] == []
    assert hi - 0.05 <= rec["lambda_lower_bound"]


def test_singular_search_descends_through_the_scaled_shift(monkeypatch):
    # at p < 2 the Hessian's near-tie entries are huge: shifts of the
    # unscaled Hessian from 1e-3 max |H| took 6070 descent steps here,
    # and the eigendecomposition step that the scaled shift replaced
    # took 287
    descent, steps = solvers._descend, []

    def counted(*args):
        out = descent(*args)
        steps.append(out[-1])
        return out

    monkeypatch.setattr(solvers, "_descend", counted)
    kern, params = exponent_problem((1.3, 0.5, 1.2, 1.1), n=64)
    rec = estimate_lambda_star(kern, params, (2.0, 30.0),
                               seed=0).method_record
    assert rec["bisection_bracket"] == (6.40234375, 6.4296875)
    assert rec["fold_estimate"] == pytest.approx(6.4234951, abs=5e-8)
    assert sum(steps) <= 287


@pytest.mark.parametrize("exps,bracket", [
    # the bracket sits on lambda_low = 6.744, on no evidence: a point far
    # from stationary passes the energy-relative stop test all the way
    ((1.2, 0.4, 1.15, 1.1), (6.73046875, 6.7578125)),
    # the bracket's lower end lies below lambda_low = 6.4808: a
    # multistart descent at lambda = 30 stops at sup u = 1.6e9 with a
    # residual of 204, 9e-10 of |E|, and every warm descent below takes
    # no step from there, at energies near +1e13 whose size passes the
    # same energy-relative test
    ((1.3, 0.5, 1.25, 1.2), (6.45703125, 6.484375))])
def test_estimate_warns_where_the_singular_branch_outlives_the_bracket(
        exps, bracket):
    # the descent at the bracket's lower end is the only check that
    # flags these brackets; the residual scale and zero test planned for
    # the singular range (ROADMAP item 7) will move them, and this test
    # with them
    kern, params = exponent_problem(exps)
    rec = estimate_lambda_star(kern, params, (2.0, 30.0),
                               seed=0).method_record
    assert rec["bisection_bracket"] == bracket
    assert rec["fold_estimate"] is None
    assert rec["warnings"] == [
        "the branch is still alive at lambda=%g, the lower end of the "
        "bisection bracket (%g, %g)" % (bracket[0], *bracket)]


@pytest.mark.parametrize("exps,bracket,bisected",
                         [e + (b,) for e, b in zip(EXPONENT_SETS,
                                                   BISECTION_BRACKETS)])
def test_fold_solve_lies_inside_the_bisection_bracket(exps, bracket,
                                                      bisected):
    rec = estimate_lambda_star(*exponent_problem(exps), bracket,
                               seed=0).method_record
    assert rec["fold_residual"] <= 1e-9
    assert bisected[0] < rec["fold_estimate"] < bisected[1]
    lo, hi = rec["bisection_bracket"]
    assert lo < rec["fold_estimate"] < hi
    assert rec["warnings"] == []


def test_fold_solve_stretches_exactly():
    # lambda*_h on (-L, L) is L^(-sigma (q-r)/(p-r)) times the one on
    # (-1, 1), exactly on the mesh, as every solution scales
    exps = (3.0, 0.3, 2.5, 1.5)
    narrow, wide = (
        estimate_lambda_star(*exponent_problem(exps, 64, -L, L), (5.0, 9.0),
                             seed=0).method_record["fold_estimate"]
        for L in (1.0, 2.0))
    assert wide == pytest.approx(2.0 ** -0.6 * narrow, rel=1e-10)


def test_fold_solve_settles_under_mesh_refinement():
    # lambda*_h falls towards the continuum threshold as the mesh is
    # refined, each change less than half the one before
    folds = []
    for n in (32, 64, 128, 256):
        kern, params = exponent_problem((3.0, 0.3, 2.5, 1.5), n)
        pr = with_lambda(params, 9.0)
        u = select_solution(minimize_multistart(
            kern, ReactionModel.plain(pr), seed=0, stop_at_nontrivial=True))
        fold = solve_fold(kern, pr, u.solution)
        assert fold.converged and fold.residual <= 1e-9
        folds.append(fold.lam)
    steps = np.diff(folds)
    assert np.all(steps < 0.0)
    assert np.all(np.abs(steps[1:]) < 0.5 * np.abs(steps[:-1]))


@pytest.mark.parametrize("bracket,searched,start", [
    # zero only at 0.6 and 0.9: lo moves up with hi as hi doubles
    ((0.6, 0.9), [0.6, 0.9, 1.8, 3.6, 7.2], 7.2),
    # nontrivial at 5: hi moves down with lo, and 9 is never asked
    ((5.0, 9.0), [5.0, 2.5], 5.0)])
def test_estimate_expands_the_bracket_on_both_sides(monkeypatch, bracket,
                                                    searched, start):
    kern, params = exponent_problem((3.0, 0.3, 2.5, 1.5), 32, -2.0, 2.0)
    asked, started = [], []
    seeing, folding = bifurcation._find_minimizer, bifurcation.solve_fold

    def logged(kern, model, *args, **kwargs):
        asked.append(model.params.lam)
        return seeing(kern, model, *args, **kwargs)

    def logged_fold(kern, params, *args, **kwargs):
        started.append(params.lam)
        return folding(kern, params, *args, **kwargs)

    # with no bound every predicate searches, so each one is logged
    monkeypatch.setattr(bifurcation, "_lower_bound_and_mu",
                        lambda *args, **kwargs: (None, None))
    monkeypatch.setattr(bifurcation, "_find_minimizer", logged)
    monkeypatch.setattr(bifurcation, "solve_fold", logged_fold)
    rec = estimate_lambda_star(kern, params, bracket, seed=0).method_record
    lam = rec["fold_estimate"]
    assert started == [start]
    assert asked == searched + [lam + 0.0125, lam - 0.0125]
    assert rec["bisection_bracket"] == (lam - 0.0125, lam + 0.0125)
    assert rec["predicate_evaluations"] == len(asked)


@pytest.mark.parametrize("a,b,most", [(-1.0, 1.0, 3), (-2.0, 2.0, 4)])
def test_predicate_past_the_fold_descends_from_the_fold_point(monkeypatch, a,
                                                              b, most):
    # from the minimizer at hi = 9 this descent took 9 steps on (-1, 1)
    # and 8 on (-2, 2); the fold point lies next to the branch there
    kern, params = exponent_problem((3.0, 0.3, 2.5, 1.5), 128, a, b)
    descents, folds = [], []
    descending, folding = bifurcation.minimize, bifurcation.solve_fold

    def logged(kern, model, u0, *args, **kwargs):
        rep = descending(kern, model, u0, *args, **kwargs)
        descents.append((model.params.lam, u0, rep))
        return rep

    def logged_fold(*args, **kwargs):
        folds.append(folding(*args, **kwargs))
        return folds[-1]

    monkeypatch.setattr(bifurcation, "minimize", logged)
    monkeypatch.setattr(bifurcation, "solve_fold", logged_fold)
    rec = estimate_lambda_star(kern, params, (5.0, 9.0), seed=0).method_record
    (fold,) = folds
    assert fold.converged and rec["fold_estimate"] == fold.lam
    lam, u0, rep = descents[0]
    assert lam == fold.lam + 0.0125
    assert u0 is fold.solution.values
    assert rep.converged and rep.iterations <= most
    assert rec["bisection_bracket"] == (fold.lam - 0.0125, fold.lam + 0.0125)


def test_stretching_the_domain_scales_both_solutions_exactly():
    # u_L = L^(sigma/(p-r)) u_1 at lambda_L = lambda L^(-sigma(q-r)/(p-r)),
    # exactly on the mesh; sigma = 0.9 gives the factor 2^0.6 at L = 2
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 8.0})
    c = 2.0 ** 0.6
    pairs = []
    for L, lam in ((1.0, 8.0), (2.0, 8.0 / c)):
        pr = with_lambda(params, lam)
        kern = assemble_kernel(build_mesh(-L, L, 64), pr)
        u = select_solution(minimize_multistart(
            kern, ReactionModel.plain(pr), seed=0))
        v = find_saddle(kern, pr, u.solution.values)
        assert u.converged and v.converged
        pairs.append((u.solution.values, v.solution.values))
    (u1, v1), (u2, v2) = pairs
    assert np.max(np.abs(u2 - c * u1)) <= 1e-7 * np.max(u2)
    assert np.max(np.abs(v2 - c * v1)) <= 1e-7 * np.max(v2)


def test_stretching_the_domain_scales_the_threshold(coarse_problem,
                                                    coarse_estimate):
    kern, params = coarse_problem
    wide = assemble_kernel(build_mesh(-2.0, 2.0, kern.mesh.n), params)
    est = estimate_lambda_star(wide, params, (5.0, 9.0), seed=0)
    c = 2.0 ** -0.6
    lo, hi = coarse_estimate.method_record["bisection_bracket"]
    lo_l, hi_l = est.method_record["bisection_bracket"]
    assert c * lo <= hi_l and lo_l <= c * hi
    assert est.method_record["warnings"] == []


def test_solve_at_lambda_subcritical(coarse_problem):
    kern, params = coarse_problem
    bp = solve_at_lambda(kern, with_lambda(params, 0.5), seed=0)
    assert bp.lam == 0.5
    assert bp.u_big.classification == "zero"
    assert bp.v_saddle is None
    d = bp.diagnostics
    assert d["sup_u"] == 0.0
    assert d["converged"]
    assert np.isnan(d["sup_v"])
    assert np.isnan(d["margin"])


def test_solve_at_lambda_supercritical(small_problem, small_big_solution):
    kern, params = small_problem
    bp = solve_at_lambda(kern, params, seed=0)
    assert bp.u_big.energy == small_big_solution.energy
    assert bp.v_saddle is not None
    d = bp.diagnostics
    assert d["converged"]
    assert d["margin"] > 0.0
    assert d["weighted_margin"] > 0.0
    assert d["hopf_u"] > 0.0 and d["hopf_v"] > 0.0
    assert d["energy_u"] < 0.0 < d["energy_v"]
    assert d["sup_v"] < d["sup_u"]
    assert d["residual_u"] <= 1e-8 and d["residual_v"] <= 1e-8
    assert d["morse_v"] == 1


def test_solve_at_lambda_warm_start(small_problem, small_big_solution):
    kern, params = small_problem
    u = small_big_solution.solution.values
    bp = solve_at_lambda(kern, params, warm_start=u, seed=0)
    assert float(np.max(np.abs(bp.u_big.solution.values - u))) <= 1e-9
    assert bp.u_big.iterations <= small_big_solution.iterations


def test_solve_at_lambda_searches_where_the_warm_start_collapses(
        small_problem, small_big_solution):
    # a warm start from zero ends at zero; the multistart then finds the
    # minimizer a cold solve finds
    kern, params = small_problem
    bp = solve_at_lambda(kern, params, warm_start=np.zeros(kern.n), seed=0)
    assert bp.u_big.energy == small_big_solution.energy


def test_continue_branch_finds_fold(coarse_problem):
    kern, params = coarse_problem
    grid = np.linspace(4.0, 9.0, 6)
    diagram = continue_branch(kern, params, grid, seed=0)
    lams = [bp.lam for bp in diagram.points]
    assert lams == sorted(lams)
    sups = np.array([bp.diagnostics["sup_u"] for bp in diagram.points])
    alive = sups > 1e-6
    # dead below the fold, alive above, and the branch grows with lambda
    assert not alive[0]
    assert alive[-1]
    idx = np.where(alive)[0]
    assert np.all(np.diff(idx) == 1)
    assert np.all(np.diff(sups[idx]) > 0.0)
    # the fold lies between the last dead and the first alive point
    assert (lams[idx[0] - 1], lams[idx[0]]) == (6.0, 7.0)


def test_continue_branch_grid_validation(coarse_problem):
    kern, params = coarse_problem
    with pytest.raises(ParameterError):
        continue_branch(kern, params, [7.0], seed=0)
    with pytest.raises(ParameterError):
        continue_branch(kern, params, [7.0, 9.0, 8.0], seed=0)


def test_build_diagram_merges_estimate_and_branch(coarse_problem,
                                                  coarse_estimate):
    kern, params = coarse_problem
    grid = np.linspace(7.5, 9.0, 3)
    d1 = build_diagram(kern, params, grid, (5.0, 9.0), seed=0)
    assert d1.lambda_star_estimate == coarse_estimate.lambda_star_estimate
    assert len(d1.points) == 3
    # the estimate's record as it is, with nothing of the grid's
    assert d1.method_record == coarse_estimate.method_record
    assert all(bp.diagnostics["sup_u"] > 0 for bp in d1.points)
    d2 = build_diagram(kern, params, grid, (5.0, 9.0), seed=0)
    assert d2.lambda_star_estimate == d1.lambda_star_estimate
    assert [b.u_big.energy for b in d2.points] == \
        [b.u_big.energy for b in d1.points]

