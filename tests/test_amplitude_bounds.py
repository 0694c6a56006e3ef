"""Every nonnegative nontrivial critical point u has
t-(lambda, mu) <= max u <= t+(lambda): the multistart caps its starts at
the ceiling t+, and the threshold predicates' descents stop at zero
below the Picone floor t-.  The lemmas are checked on vectors built
around the bounds, without a descent; the mechanisms on the solver."""

import math

import numpy as np
import pytest

from fracbif import (KernelMatrix, ReactionModel, SolverOptions,
                     assemble_kernel, build_mesh, estimate_lambda_star,
                     minimize, minimize_multistart, mirror_fold,
                     principal_eigenpair, select_solution,
                     sign_threshold_delta, total_gradient, validate_params,
                     with_lambda)
from fracbif import bifurcation, solvers
from fracbif.bifurcation import BOUND_MARGIN, _picone_mu
from fracbif.solvers import (_amplitude_ceiling, _ratio, _ratio_peak,
                             _zero_floor, default_starts)

DEMO = (3.0, 0.3, 2.5, 1.5)
# one exponent set for each p of the lemma tests, at a lambda where the
# bounds are tight enough that a doubled c or mu breaks them
LEMMA_SETS = [((1.3, 0.5, 1.2, 1.1), 12.5), ((2.0, 0.3, 1.7, 1.3), 12.5),
              ((3.0, 0.3, 2.5, 1.5), 8.0), ((5.0, 0.15, 4.0, 3.0), 6.0)]
# the exponent sets of the threshold tests (tests/test_bifurcation.py)
EXPONENT_SETS = [(3.0, 0.3, 2.5, 1.5), (1.8, 0.4, 1.6, 1.2),
                 (4.0, 0.2, 3.0, 2.0), (2.0, 0.3, 1.7, 1.3),
                 (1.5, 0.5, 1.3, 1.1), (2.5, 0.3, 2.0, 1.5),
                 (3.0, 0.2, 2.0, 1.2)]


def problem(exps, lam, n):
    p, s, q, r = exps
    params = validate_params({"p": p, "s": s, "q": q, "r": r, "lambda": lam})
    return assemble_kernel(build_mesh(-1.0, 1.0, n), params), params


def certified_mu(kern, params):
    """The mu estimate_lambda_star passes: the Picone constant of the
    principal eigenfunction, shrunk like lambda_low."""
    phi = principal_eigenpair(kern, params.p).eigenfunction.values
    return (1.0 - BOUND_MARGIN) * _picone_mu(kern, phi, params.p)


def kernels(exps, lam):
    """Full and folded kernels on an odd and an even mesh."""
    for n in (31, 32):
        kern, params = problem(exps, lam, n)
        yield kern, params
        yield kern.fold(), params


@pytest.mark.parametrize("exps,lam", LEMMA_SETS)
def test_no_critical_point_peaks_above_the_ceiling(exps, lam):
    # the bound is sharp where u is flat at the node of least 2 T / mass:
    # every pair term vanishes there
    rng = np.random.default_rng(0)
    for kern, params in kernels(exps, lam):
        model = ReactionModel.plain(params)
        top = _amplitude_ceiling(kern, params)
        j = int(np.argmin(2.0 * kern.T / kern.mass))
        m = kern.n
        for factor in (1.0 + 1e-6, 1.01, 2.0, 10.0):
            t = factor * top
            rough = t * rng.random(m)
            topped = t * np.minimum(1.0, 2.0 * rng.random(m))
            for u in (np.full(m, t), rough, topped):
                u[j] = t
                g = total_gradient(kern, model, u)
                assert np.all(g[u == np.max(u)] > 0.0)
        c = 2.0 * kern.T[j] / kern.mass[j]
        assert _ratio_peak(params) <= top
        # rounded up: the root lies between top and the float below it
        assert _ratio(params, np.nextafter(top, 0.0)) >= c > _ratio(params,
                                                                    top)


def test_ceiling_is_the_same_on_a_folded_kernel():
    for n in (31, 32):
        kern, params = problem(DEMO, 12.5, n)
        assert (_amplitude_ceiling(kern.fold(), params)
                == _amplitude_ceiling(kern, params))


def test_ceiling_is_none_where_no_bound_holds():
    kern, params = problem(DEMO, 12.5, 32)
    assert _amplitude_ceiling(kern, with_lambda(params, 0.0)) is None
    # max h = 17.0 at lambda = 12.5 scales like lambda^1.5, below
    # c = 4.45 at lambda = 0.5: zero is the only critical point there
    assert _amplitude_ceiling(kern, with_lambda(params, 0.5)) == 0.0
    K = kern.K.copy()
    K[0, 1] = K[1, 0] = -K[0, 1]        # a negative pair weight
    assert _amplitude_ceiling(KernelMatrix(K, kern.T, kern.sigma, kern.mesh),
                              params) is None
    no_tail = KernelMatrix(kern.K, 0.0 * kern.T, kern.sigma, kern.mesh)
    assert _amplitude_ceiling(no_tail, params) is None
    # at r = 1.1, t* = (2 / lambda)^20 underflows to 0 at lambda = 1e30;
    # at r = 1.01, (lambda / c)^20, the bracket's upper end, overflows
    for r, lam in ((1.1, 1e30), (1.01, 1e17)):
        kern, params = problem((1.2, 0.4, 1.15, r), lam, 32)
        assert _amplitude_ceiling(kern, params) is None
    # t* overflows at 5e-16, but max h = h(t*), taken in logs, is far
    # below c there: zero is the only critical point
    kern, params = problem((1.2, 0.4, 1.15, 1.1), 5e-16, 32)
    assert _amplitude_ceiling(kern, params) == 0.0


@pytest.mark.parametrize("exps,lam", LEMMA_SETS)
def test_no_nontrivial_critical_point_peaks_below_the_floor(exps, lam):
    # g.u > 0 for every u >= 0 with 0 < max u < t-: the Picone bound is
    # nearly sharp along the eigenfunction phi
    rng = np.random.default_rng(1)
    p = exps[0]
    for n in (31, 32):
        full, params = problem(exps, lam, n)
        phi = principal_eigenpair(full, p).eigenfunction.values
        phi = phi / np.max(phi)
        mu = _picone_mu(full, phi, p)
        model = ReactionModel.plain(params)
        bottom = _zero_floor(params, mu)
        for kern, shape in ((full, phi), (full.fold(), mirror_fold(phi))):
            m = kern.n
            for factor in (1.0 - 1e-6, 0.5, 1e-3):
                t = factor * bottom
                sparse = t * np.where(rng.random(m) < 0.5, 0.0,
                                      rng.random(m))
                sparse[0] = t
                for u in (t * shape, t * np.sqrt(shape), np.full(m, t),
                          t * rng.random(m), sparse):
                    assert float(total_gradient(kern, model, u) @ u) > 0.0
        assert sign_threshold_delta(params) < bottom < _ratio_peak(params)
        # rounded down: the root lies between bottom and the float above
        assert (_ratio(params, bottom) < mu
                <= _ratio(params, np.nextafter(bottom, np.inf)))


@pytest.mark.parametrize("exps,lam", LEMMA_SETS)
def test_floor_at_zero_mu_is_the_sign_threshold(exps, lam):
    _, params = problem(exps, lam, 32)
    delta = sign_threshold_delta(params)
    for mu in (0.0, -0.0, -1.0):
        assert _zero_floor(params, mu) == delta
    # the smaller root of h = 0 is delta
    assert abs(_ratio(params, delta)) <= 1e-12 * delta ** (params.r
                                                           - params.p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exps", [DEMO, (1.3, 0.5, 1.2, 1.1)])
def test_multistart_at_lambda_zero_ends_at_zero_at_once(exps):
    # at lambda = 0, h(t) = -t^(r-p) < 0 <= mu for every t > 0: the
    # floor is inf, and every start ends at zero in one step, before a
    # shifted step could divide by the zero Hessian at u = 0
    kern, params = problem(exps, 0.0, 32)
    for mu in (0.0, 1.0):
        assert _zero_floor(params, mu) == math.inf
    for rep in minimize_multistart(kern, ReactionModel.plain(params), seed=0):
        assert not np.any(rep.solution.values)
        assert rep.iterations == 1
        assert rep.converged and rep.classification == "zero"


def test_floor_below_the_lower_bound_stays_under_the_peak():
    # where mu exceeds max h no nontrivial critical point exists; the
    # floor then nears t*, and below it h is still < mu
    kern, params = problem(DEMO, 12.5, 32)
    low = bifurcation.lambda_lower_bound(kern, params)
    below = with_lambda(params, 0.9 * low)
    mu = certified_mu(kern, params)
    bottom = _zero_floor(below, mu)
    assert bottom <= _ratio_peak(below)
    assert bottom == pytest.approx(_ratio_peak(below), rel=1e-12)
    assert _ratio(below, bottom) < mu


def test_capped_starts_peak_at_the_ceiling(monkeypatch):
    kern, params = problem(DEMO, 12.5, 128)
    top = _amplitude_ceiling(kern, params)
    assert top == pytest.approx(7.7465423348, rel=1e-10)
    seen = []

    def recorded(kern, model, u0, opts=None, mu=0.0):
        seen.append(u0)
        return solvers.SolveReport(solution=None, energy=0.0, residual=0.0,
                                   iterations=0, converged=True,
                                   classification="zero")

    monkeypatch.setattr(solvers, "minimize", recorded)
    minimize_multistart(kern, ReactionModel.plain(params), seed=3)
    plain = default_starts(kern.mesh, params, 10, 3)
    capped = 0
    for u0, ref in zip(seen, plain):
        if np.max(ref) <= top:
            assert np.array_equal(u0, ref)
        else:
            capped += 1
            assert np.array_equal(u0, ref * (top / np.max(ref)))
            assert np.max(u0) == pytest.approx(top, rel=1e-15)
    assert len(seen) == 10 and 0 < capped < 10
    # no bound at lambda = 0: every start is default_starts' own
    seen.clear()
    zero = with_lambda(params, 0.0)
    minimize_multistart(kern, ReactionModel.plain(zero), seed=3)
    for u0, ref in zip(seen, default_starts(kern.mesh, zero, 10, 3)):
        assert np.array_equal(u0, ref)


def test_demo_minimizer_lies_under_the_ceiling():
    kern, params = problem(DEMO, 12.5, 128)
    rep = select_solution(minimize_multistart(kern,
                                              ReactionModel.plain(params)))
    assert rep.converged and rep.classification == "minimizer"
    assert rep.solution.sup_norm == pytest.approx(5.03, abs=5e-3)
    assert rep.solution.sup_norm < _amplitude_ceiling(kern, params)


@pytest.mark.parametrize("exps", EXPONENT_SETS)
def test_converged_reports_lie_between_the_floor_and_the_ceiling(exps):
    n = 128 if exps == DEMO else 32
    kern, params = problem(exps, 12.5, n)
    mu = certified_mu(kern, params)
    bottom, top = _zero_floor(params, mu), _amplitude_ceiling(kern, params)
    reports = minimize_multistart(kern, ReactionModel.plain(params), seed=0)
    found = [rep for rep in reports
             if rep.converged and rep.classification != "zero"]
    assert found
    for rep in found:
        assert bottom <= rep.solution.sup_norm <= top


def test_zero_report_skips_the_full_kernel_pass(monkeypatch):
    # A(0) = f(0) = 0 on any kernel, so the exact zero's report is
    # _report's without computing it
    kern, params = problem(DEMO, 0.5, 32)
    model = ReactionModel.plain(params)
    u0 = default_starts(kern.mesh, params, 10, 0)[5]
    opts = SolverOptions()
    rep = minimize(kern, model, u0, opts)
    ref = solvers._report(kern, model, np.zeros(kern.n), rep.iterations,
                          opts.tol, "zero")
    for field in ("energy", "residual", "iterations", "converged",
                  "classification", "morse_index"):
        assert getattr(rep, field) == getattr(ref, field)
    assert math.copysign(1.0, rep.energy) == math.copysign(1.0, ref.energy)
    assert np.array_equal(rep.solution.values, ref.solution.values)
    assert rep.solution.mesh == ref.solution.mesh

    def refused(*args, **kwargs):
        raise AssertionError("the zero report computed the full kernel pass")

    monkeypatch.setattr(solvers, "_report", refused)
    assert minimize(kern, model, u0, opts).classification == "zero"


def test_floor_shortens_the_zero_only_predicate():
    # the multistart at lambda*_h - width/4 of the n = 32 demo ends at
    # zero from every start, with or without the floor
    kern, params = problem(DEMO, 6.4466688477, 32)
    model = ReactionModel.plain(params)
    mu = certified_mu(kern, params)
    assert _zero_floor(params, mu) > 2.0 * sign_threshold_delta(params)
    plain = minimize_multistart(kern, model, seed=0)
    floored = minimize_multistart(kern, model, seed=0, mu=mu)
    for reports in (plain, floored):
        assert all(rep.converged and rep.classification == "zero"
                   for rep in reports)
    assert sum(rep.iterations for rep in floored) < sum(
        rep.iterations for rep in plain)


def test_bracket_check_descends_without_the_floor(monkeypatch):
    # singular row 3 of ROADMAP's table: every predicate descent gets
    # the floor, and the check at the bracket's lower end, below
    # lambda_low, does not
    kern, params = problem((1.2, 0.4, 1.15, 1.1), 8.0, 32)
    descending, calls = bifurcation.minimize, []

    def logged(kern, model, u0, opts=None, mu=0.0):
        calls.append((model.params.lam, mu))
        return descending(kern, model, u0, opts, mu)

    monkeypatch.setattr(bifurcation, "minimize", logged)
    rec = estimate_lambda_star(kern, params, (2.0, 30.0),
                               seed=0).method_record
    lo = rec["bisection_bracket"][0]
    assert rec["warnings"]
    assert calls[-1] == (lo, 0.0)
    assert calls[:-1] and all(mu > 0.0 for _, mu in calls[:-1])
