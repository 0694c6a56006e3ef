import numpy as np
import pytest

from fracbif import (KernelMatrix, ParameterError, ReactionModel,
                     SolverError, apply_operator, assemble_kernel,
                     build_diagram, build_mesh, biggest_solution,
                     continue_branch, estimate_lambda_star, find_saddle,
                     lambda_lower_bound, minimize_multistart,
                     principal_eigenpair, scan_reaction_slack,
                     select_solution, solve_at_lambda, validate_params,
                     with_lambda)
from fracbif import bifurcation

# exponent sets (p, s, q, r) with the bracket their threshold search
# starts from, on n = 32
EXPONENT_SETS = [((3.0, 0.3, 2.5, 1.5), (5.0, 9.0)),
                 ((1.8, 0.4, 1.6, 1.2), (5.0, 12.0)),
                 ((4.0, 0.2, 3.0, 2.0), (2.0, 30.0)),
                 ((2.0, 0.3, 1.7, 1.3), (2.0, 30.0)),
                 ((1.5, 0.5, 1.3, 1.1), (2.0, 30.0)),
                 ((2.5, 0.3, 2.0, 1.5), (2.0, 30.0)),
                 ((3.0, 0.2, 2.0, 1.2), (2.0, 30.0))]


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
    assert rec["predicate_evaluations"] >= 5
    assert rec["fold_bracket"] is not None
    assert rec["fold_estimate"] == pytest.approx(
        0.5 * (rec["fold_bracket"][0] + rec["fold_bracket"][1]))
    # the two operational estimates agree on this mesh
    assert rec["agreement_rel"] <= 0.10
    assert rec["warnings"] == []


def test_estimate_bisection_bracket(coarse_estimate):
    assert coarse_estimate.method_record["bisection_bracket"] == \
        (6.4375, 6.46875)


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
    # the lambdas 5, 6 and 6.25 of the bisection from (5, 9) lie below it
    assert rec["certified_predicates"] == 3


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
    mu = np.min(apply_operator(kern, phi, p) / (kern.mesh.h * phi ** (p - 1.0)))
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
    monkeypatch.setattr(bifurcation, "lambda_lower_bound",
                        lambda *args, **kwargs: None)
    calls.clear()
    without = estimate_lambda_star(kern, params, bracket, seed=0)
    on, off = with_bound.method_record, without.method_record
    for key in ("bisection_bracket", "fold_bracket", "predicate_evaluations",
                "warnings"):
        assert on[key] == off[key], key
    assert with_bound.lambda_star_estimate == without.lambda_star_estimate
    assert off["lambda_lower_bound"] is None
    assert off["certified_predicates"] == 0
    assert on["certified_predicates"] >= 3
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
    K[0, 1] *= 1.5                      # not symmetric
    assert lambda_lower_bound(KernelMatrix(K, kern.T, kern.sigma, kern.mesh),
                              params, eigenpair=eig) is None
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
    # a multistart blind below lambda = 6.9 puts the bisection bracket
    # above the true one, (6.4375, 6.46875); the warm starts from its
    # upper end follow the branch below it and find where it dies
    kern, params = coarse_problem
    seeing = bifurcation.minimize_multistart

    def blind(kern, model, *args, **kwargs):
        if model.params.lam < 6.9:
            return []
        return seeing(kern, model, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "minimize_multistart", blind)
    rec = estimate_lambda_star(kern, params, (5.0, 9.0), seed=0).method_record
    lo, hi = rec["bisection_bracket"]
    assert lo >= 6.9 - 0.05
    assert rec["warnings"]
    fold = rec["fold_bracket"]
    assert fold[1] < lo
    assert fold[0] <= 6.4375 and 6.46875 <= fold[1]


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
        v = find_saddle(kern, pr, u.solution.values, seed=0)
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
    bp = solve_at_lambda(kern, params, warm_start=u, with_saddle=False,
                         seed=0)
    assert float(np.max(np.abs(bp.u_big.solution.values - u))) <= 1e-9
    assert bp.u_big.iterations <= small_big_solution.iterations


def test_continue_branch_finds_fold(coarse_problem):
    kern, params = coarse_problem
    grid = np.linspace(4.0, 9.0, 6)
    diagram = continue_branch(kern, params, grid, seed=0,
                              with_saddles=False)
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
    fold = diagram.method_record["fold_bracket"]
    assert fold is not None
    assert fold[0] < fold[1]
    assert not alive[lams.index(fold[0])]
    assert alive[lams.index(fold[1])]


def test_continue_branch_grid_validation(coarse_problem):
    kern, params = coarse_problem
    with pytest.raises(ParameterError):
        continue_branch(kern, params, [7.0], seed=0)
    with pytest.raises(ParameterError):
        continue_branch(kern, params, [7.0, 9.0, 8.0], seed=0)


def test_build_diagram_merges_estimate_and_branch(coarse_problem):
    kern, params = coarse_problem
    grid = np.linspace(7.5, 9.0, 3)
    d1 = build_diagram(kern, params, grid, (5.0, 9.0), seed=0,
                       with_saddles=False)
    assert d1.lambda_star_estimate is not None
    assert len(d1.points) == 3
    assert "bisection_bracket" in d1.method_record
    assert "fold_bracket" in d1.method_record
    assert all(bp.diagnostics["sup_u"] > 0 for bp in d1.points)
    d2 = build_diagram(kern, params, grid, (5.0, 9.0), seed=0,
                       with_saddles=False)
    assert d2.lambda_star_estimate == d1.lambda_star_estimate
    assert [b.u_big.energy for b in d2.points] == \
        [b.u_big.energy for b in d1.points]


def test_build_diagram_keeps_both_fold_brackets(coarse_problem,
                                                coarse_estimate):
    # a grid that straddles lambda* has a fold bracket of its own, which
    # the estimate's fold_bracket used to overwrite in the merged record
    kern, params = coarse_problem
    grid = np.linspace(4.0, 9.0, 6)
    diagram = build_diagram(kern, params, grid, (5.0, 9.0), seed=0,
                            with_saddles=False)
    rec = diagram.method_record
    trace = continue_branch(kern, params, grid, seed=0, with_saddles=False)
    assert rec["grid_fold_bracket"] == trace.method_record["fold_bracket"]
    assert rec["grid_fold_bracket"] == (6.0, 7.0)
    assert rec["fold_bracket"] == coarse_estimate.method_record["fold_bracket"]
    assert rec["fold_bracket"] != rec["grid_fold_bracket"]
    assert rec["grid"] == trace.method_record["grid"]


def test_biggest_solution_tops_known_pair(small_problem, small_big_solution,
                                          small_saddle):
    kern, params = small_problem
    out = biggest_solution(kern, params,
                           [small_saddle, small_big_solution])
    u = small_big_solution.solution.values
    assert out.classification == "pinned"
    assert float(np.max(np.abs(out.solution.values - u))) <= 1e-9


def test_biggest_solution_rejects_unverified_input(small_problem,
                                                   small_big_solution):
    kern, params = small_problem
    u = small_big_solution.solution.values
    with pytest.raises(ParameterError, match="residual"):
        biggest_solution(kern, params, [0.7 * u])
    with pytest.raises(ParameterError):
        biggest_solution(kern, params, [])
