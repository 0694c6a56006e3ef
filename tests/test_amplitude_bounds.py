"""Every nonnegative nontrivial critical point u has max u <= t+(lambda):
the multistart caps its starts at that ceiling.  Along every ray the
energy is the fibering map S t^p - (lambda/q) A t^q + (1/r) B t^r, and
a descent stops at zero where it rises on the whole segment from 0
(solvers._rises_from_zero); with the Picone constant mu that set holds
every u >= 0 below the floor t-(lambda, mu), the smaller root of
h = mu, which floor() computes here as the oracle.  The lemmas are
checked on vectors built around the bounds, without a descent; the
mechanisms on the solver."""

import math

import numpy as np
import pytest

from fracbif import (KernelMatrix, SolverOptions,
                     assemble_kernel, build_mesh, estimate_lambda_star,
                     find_saddle, minimize, minimize_multistart, mirror_fold,
                     principal_eigenpair, select_solution,
                     sign_threshold_delta, total_energy, total_gradient,
                     validate_params, with_lambda)
from fracbif import bifurcation, solvers
from fracbif.bifurcation import BOUND_MARGIN, _picone_mu
from fracbif.kernel import seminorm_energy
from fracbif.solvers import (_amplitude_ceiling, _lambda_at_peak, _ratio,
                             _ratio_peak, _rises_from_zero, default_starts)

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
    return (1.0 - BOUND_MARGIN) * _picone_mu(kern, mirror_fold(phi), params.p)


def floor(params, mu):
    """t-, the smaller root of h(t) = _ratio(params, t) = mu, rounded
    down by bisection of [delta, t*], where h rises from 0 to max h: the
    sign threshold delta itself at mu <= 0, and near t* where mu exceeds
    max h."""
    lo = sign_threshold_delta(params)
    if not mu > 0.0:
        return lo
    hi = _ratio_peak(params)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _ratio(params, mid) < mu:
            lo = mid
        else:
            hi = mid
    return lo


def kernels(exps, lam):
    """Full and even kernels on an odd and an even mesh."""
    for n in (31, 32):
        kern, params = problem(exps, lam, n)
        yield KernelMatrix.full_from_sigma(kern.mesh, kern.sigma), params
        yield kern, params


@pytest.mark.parametrize("exps,lam", LEMMA_SETS)
def test_no_critical_point_peaks_above_the_ceiling(exps, lam):
    # the bound is sharp where u is flat at the node of least 2 T / mass:
    # every pair term vanishes there
    rng = np.random.default_rng(0)
    for kern, params in kernels(exps, lam):
        top = _amplitude_ceiling(kern, params)
        j = int(np.argmin(2.0 * kern.T / kern.mass))
        m = len(kern.T)
        for factor in (1.0 + 1e-6, 1.01, 2.0, 10.0):
            t = factor * top
            rough = t * rng.random(m)
            topped = t * np.minimum(1.0, 2.0 * rng.random(m))
            for u in (np.full(m, t), rough, topped):
                u[j] = t
                g = total_gradient(kern, params, u)
                assert np.all(g[u == np.max(u)] > 0.0)
        c = 2.0 * kern.T[j] / kern.mass[j]
        assert _ratio_peak(params) <= top
        # rounded up: the root lies between top and the float below it
        assert _ratio(params, np.nextafter(top, 0.0)) >= c > _ratio(params,
                                                                    top)


def test_ceiling_is_the_same_on_a_folded_kernel():
    # c = min 2 T / mass of the even kernel is the full kernel's over the
    # first half of the nodes, which holds its minimum on these meshes
    for n in (31, 32):
        kern, params = problem(DEMO, 12.5, n)
        full = KernelMatrix.full_from_sigma(kern.mesh, kern.sigma)
        assert (_amplitude_ceiling(kern, params)
                == _amplitude_ceiling(full, params))


@pytest.mark.parametrize("exps", EXPONENT_SETS)
def test_ceiling_vanishes_below_the_picone_law_of_the_constant(exps):
    # c = min 2 T / mass is the Picone constant of the constant vector,
    # as A(1) = 2 T, so the ceiling is 0.0 below G^-1(c), the same law
    # that turns the eigenfunction's Picone constant into lambda_low
    for n in (31, 32):
        kern, params = problem(exps, 12.5, n)
        for k in (kern, KernelMatrix.full_from_sigma(kern.mesh, kern.sigma)):
            c = float(np.min(2.0 * k.T / k.mass))
            assert _picone_mu(k, np.ones(len(k.T)), params.p) == c
            at = _lambda_at_peak(params, c)
            below = with_lambda(params, (1.0 - 1e-9) * at)
            above = with_lambda(params, (1.0 + 1e-9) * at)
            assert _amplitude_ceiling(k, below) == 0.0
            assert _amplitude_ceiling(k, above) > 0.0
    eig = principal_eigenpair(kern, params.p)
    low, mu = bifurcation._lower_bound_and_mu(kern, params, eig)
    assert low == (1.0 - BOUND_MARGIN) * _lambda_at_peak(params, mu)


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
    # t* overflows at 5e-16, but lambda is far below G^-1(c), where
    # max h = c: zero is the only critical point
    kern, params = problem((1.2, 0.4, 1.15, 1.1), 5e-16, 32)
    assert _amplitude_ceiling(kern, params) == 0.0


@pytest.mark.parametrize("exps,lam", LEMMA_SETS)
def test_no_nontrivial_critical_point_peaks_below_the_floor(exps, lam):
    # g.u > 0 for every u >= 0 with 0 < max u < t-, and the energy rises
    # on the segment from 0 to u by the fibering test: the Picone bound
    # is nearly sharp along the eigenfunction phi
    rng = np.random.default_rng(1)
    p = exps[0]
    for n in (31, 32):
        even, params = problem(exps, lam, n)
        full = KernelMatrix.full_from_sigma(even.mesh, even.sigma)
        phi = principal_eigenpair(even, p).eigenfunction.values
        phi = phi / np.max(phi)
        mu = _picone_mu(full, phi, p)
        bottom = floor(params, mu)
        for kern, shape in ((full, phi), (even, mirror_fold(phi))):
            m = len(kern.T)
            for factor in (1.0 - 1e-6, 0.5, 1e-3):
                t = factor * bottom
                sparse = t * np.where(rng.random(m) < 0.5, 0.0,
                                      rng.random(m))
                sparse[0] = t
                for u in (t * shape, t * np.sqrt(shape), np.full(m, t),
                          t * rng.random(m), sparse):
                    assert float(total_gradient(kern, params, u) @ u) > 0.0
                    assert _rises_from_zero(kern, params, u, mu)
        assert sign_threshold_delta(params) < bottom < _ratio_peak(params)
        # rounded down: the root lies between bottom and the float above
        assert (_ratio(params, bottom) < mu
                <= _ratio(params, np.nextafter(bottom, np.inf)))


@pytest.mark.parametrize("exps,lam", LEMMA_SETS)
def test_energy_along_a_ray_is_the_fibering_map(exps, lam):
    # E(t u) = S(u) t^p - (lambda/q) A t^q + (1/r) B t^r, with A and B the
    # sums of mass u+^q and u+^r, also where u has negative entries
    rng = np.random.default_rng(2)
    p, q, r = exps[0], exps[2], exps[3]
    for kern, params in kernels(exps, lam):
        m = len(kern.T)
        u = _ratio_peak(params) * (2.0 * rng.random(m) - 0.5)
        up = np.maximum(u, 0.0)
        A = float(np.sum(kern.mass * up ** q))
        B = float(np.sum(kern.mass * up ** r))
        S = seminorm_energy(kern, u, p)
        for t in (0.3, 1.0, 2.0):
            terms = (S * t ** p, -lam / q * A * t ** q, B / r * t ** r)
            assert total_energy(kern, params, t * u) == pytest.approx(
                sum(terms), rel=0.0, abs=1e-13 * sum(map(abs, terms)))


@pytest.mark.parametrize("exps,lam", LEMMA_SETS)
def test_floor_at_zero_mu_is_the_sign_threshold(exps, lam):
    # without a Picone constant the fibering test is psi(1) = B - lambda A
    # > 0, which on a flat u holds exactly below delta, the floor at mu = 0
    _, params = problem(exps, lam, 32)
    delta = sign_threshold_delta(params)
    for mu in (0.0, -0.0, -1.0):
        assert floor(params, mu) == delta
        for kern, _ in kernels(exps, lam):
            flat = np.ones(len(kern.T))
            assert _rises_from_zero(kern, params, (1.0 - 1e-6) * delta * flat,
                                    mu)
            assert not _rises_from_zero(kern, params,
                                        (1.0 + 1e-6) * delta * flat, mu)
    # the smaller root of h = 0 is delta
    assert abs(_ratio(params, delta)) <= 1e-12 * delta ** (params.r
                                                           - params.p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exps", [DEMO, (1.3, 0.5, 1.2, 1.1)])
def test_multistart_at_lambda_zero_ends_at_zero_at_once(exps):
    # at lambda = 0 the energy along every ray is S t^p + B t^r / r, which
    # rises: the fibering test holds everywhere, and every start ends at
    # zero in one step, before a shifted step could divide by the zero
    # Hessian at u = 0
    kern, params = problem(exps, 0.0, 32)
    rng = np.random.default_rng(3)
    for mu in (0.0, 1.0):
        for scale in (1e-6, 1.0, 1e6):
            u = scale * rng.random(len(kern.T))
            assert _rises_from_zero(kern, params, u, mu)
    for rep in minimize_multistart(kern, params, seed=0):
        assert not np.any(rep.solution.values)
        assert rep.iterations == 1
        assert rep.converged and rep.classification == "zero"


def test_floor_below_the_lower_bound_stays_under_the_peak():
    # where mu exceeds max h no nontrivial critical point exists; the
    # floor then nears t*, and below it h is still < mu.  psi(t) is
    # t^(p-r) sum mass u^p (mu - h(t u)) > 0 there for every u >= 0 that
    # is not zero, so the fibering test holds at every amplitude
    kern, params = problem(DEMO, 12.5, 32)
    low = bifurcation.lambda_lower_bound(kern, params)
    below = with_lambda(params, 0.9 * low)
    mu = certified_mu(kern, params)
    bottom = floor(below, mu)
    assert bottom <= _ratio_peak(below)
    assert bottom == pytest.approx(_ratio_peak(below), rel=1e-12)
    assert _ratio(below, bottom) < mu
    rng = np.random.default_rng(4)
    for kern, _ in kernels(DEMO, 12.5):
        for scale in np.logspace(-6.0, 6.0, 13):
            u = scale * bottom * rng.random(len(kern.T))
            assert _rises_from_zero(kern, below, u, mu)


def test_capped_starts_peak_at_the_ceiling(monkeypatch):
    kern, params = problem(DEMO, 12.5, 128)
    top = _amplitude_ceiling(kern, params)
    assert top == pytest.approx(7.7465423348, rel=1e-10)
    seen = []

    def recorded(kern, params, u0, opts=None, mu=0.0):
        seen.append(u0)
        return solvers.SolveReport(solution=None, energy=0.0, residual=0.0,
                                   iterations=0, converged=True,
                                   classification="zero")

    monkeypatch.setattr(solvers, "minimize", recorded)
    minimize_multistart(kern, params, seed=3)
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
    minimize_multistart(kern, zero, seed=3)
    for u0, ref in zip(seen, default_starts(kern.mesh, zero, 10, 3)):
        assert np.array_equal(u0, ref)


def test_demo_minimizer_lies_under_the_ceiling():
    kern, params = problem(DEMO, 12.5, 128)
    rep = select_solution(minimize_multistart(kern,
                                              params))
    assert rep.converged and rep.classification == "minimizer"
    assert rep.solution.sup_norm == pytest.approx(5.03, abs=5e-3)
    assert rep.solution.sup_norm < _amplitude_ceiling(kern, params)


@pytest.mark.parametrize("exps", EXPONENT_SETS)
def test_converged_reports_lie_between_the_floor_and_the_ceiling(exps):
    # and the fibering test, which no critical point but zero passes,
    # fails at each of them, and at the demo's mountain-pass saddle
    n = 128 if exps == DEMO else 32
    kern, params = problem(exps, 12.5, n)
    mu = certified_mu(kern, params)
    bottom, top = floor(params, mu), _amplitude_ceiling(kern, params)
    reports = minimize_multistart(kern, params, seed=0)
    found = [rep for rep in reports
             if rep.converged and rep.classification != "zero"]
    assert found
    for rep in found:
        assert bottom <= rep.solution.sup_norm <= top
        assert not _rises_from_zero(kern, params,
                                    mirror_fold(rep.solution.values), mu)
    if exps == DEMO:
        v = find_saddle(kern, params, select_solution(reports).solution)
        assert v.converged and v.morse_index == 1
        assert not _rises_from_zero(kern, params,
                                    mirror_fold(v.solution.values), mu)


def test_zero_report_skips_the_full_kernel_pass(monkeypatch):
    # A(0) = f(0) = 0, so the exact zero's report is _report's at energy
    # 0 and gradient 0; like every report it reads the energy and
    # gradient of the descent's last pass, and evaluates nothing after it
    kern, params = problem(DEMO, 0.5, 32)
    m = len(kern.T)
    u0 = default_starts(kern.mesh, params, 10, 0)[5]
    opts = SolverOptions()
    rep = minimize(kern, params, u0, opts)
    ref = solvers._report(kern, np.zeros(m), 0.0, np.zeros(m),
                          rep.iterations, opts.tol, "zero")
    for field in ("energy", "residual", "iterations", "converged",
                  "classification", "morse_index"):
        assert getattr(rep, field) == getattr(ref, field)
    assert math.copysign(1.0, rep.energy) == math.copysign(1.0, ref.energy)
    assert np.array_equal(rep.solution.values, ref.solution.values)
    assert rep.solution.mesh == ref.solution.mesh

    descend, evaluate = solvers._descend, solvers._energy_and_gradient
    passes = []

    def descended(*args, **kwargs):
        passes.clear()
        out = descend(*args, **kwargs)
        passes.append(None)     # the descent's end
        return out

    def counted(*args):
        passes.append(args)
        return evaluate(*args)

    monkeypatch.setattr(solvers, "_descend", descended)
    monkeypatch.setattr(solvers, "_energy_and_gradient", counted)
    rep = minimize(kern, with_lambda(params, 12.5), u0,
                   opts)
    assert rep.converged and rep.classification == "minimizer"
    assert passes[-1] is None
    w = passes[-2][2]
    E, g = evaluate(*passes[-2])
    assert rep.energy == E and rep.residual == solvers._residual(kern, g)
    assert np.array_equal(rep.solution.values, np.concatenate((w, w[::-1])))


def test_floor_shortens_the_zero_only_predicate():
    # the multistart at lambda*_h - width/4 of the n = 32 demo ends at
    # zero from every start, with or without mu; mu more than doubles
    # the floor, and the fibering test it widens ends the descents in
    # 34 steps, against 63 without it
    kern, params = problem(DEMO, 6.4466688477, 32)
    mu = certified_mu(kern, params)
    assert floor(params, mu) > 2.0 * sign_threshold_delta(params)
    plain = minimize_multistart(kern, params, seed=0)
    floored = minimize_multistart(kern, params, seed=0, mu=mu)
    for reports in (plain, floored):
        assert all(rep.converged and rep.classification == "zero"
                   for rep in reports)
    assert sum(rep.iterations for rep in floored) <= 34 < sum(
        rep.iterations for rep in plain)


def test_certified_mu_ends_the_crawl_at_zero():
    # singular row 3 at lambda = 12.5: from the fifth start the descent
    # crawls towards zero through indefinite Hessians, 859 steps without
    # mu; with it the fibering test ends it within a few steps
    kern, params = problem((1.2, 0.4, 1.15, 1.1), 12.5, 32)
    top = _amplitude_ceiling(kern, params)
    u0 = default_starts(kern.mesh, params, 10, 0)[4]
    u0 = u0 * min(1.0, top / float(np.max(u0)))    # the multistart's cap
    rep = minimize(kern, params, u0,
                   mu=certified_mu(kern, params))
    assert rep.converged and rep.classification == "zero"
    assert not np.any(rep.solution.values)
    assert rep.iterations <= 20


def test_threshold_search_descent_steps(monkeypatch):
    # a cost guard, counted rather than timed: the threshold searches of
    # the demo at n = 128 on (-1, 1) and (-2, 2) take 106 descent steps
    # in all, where stopping only below the floor t- took 162
    descend, steps = solvers._descend, []

    def counted(*args, **kwargs):
        out = descend(*args, **kwargs)
        steps.append(out[3])
        return out

    monkeypatch.setattr(solvers, "_descend", counted)
    _, params = problem(DEMO, 12.5, 128)
    for a, b in ((-1.0, 1.0), (-2.0, 2.0)):
        kern = assemble_kernel(build_mesh(a, b, 128), params)
        rec = estimate_lambda_star(kern, params, (5.0, 9.0),
                                   SolverOptions(width=0.05),
                                   seed=0).method_record
        assert not rec["warnings"]
    assert len(steps) == 32
    assert sum(steps) <= 106


def test_bracket_check_descends_without_the_floor(monkeypatch):
    # singular row 3 of ROADMAP's table: every predicate descent gets
    # the floor, and the check at the bracket's lower end, below
    # lambda_low, does not
    kern, params = problem((1.2, 0.4, 1.15, 1.1), 8.0, 32)
    descending, calls = bifurcation.minimize, []

    def logged(kern, params, u0, opts=None, mu=0.0):
        calls.append((params.lam, mu))
        return descending(kern, params, u0, opts, mu)

    monkeypatch.setattr(bifurcation, "minimize", logged)
    rec = estimate_lambda_star(kern, params, (2.0, 30.0),
                               seed=0).method_record
    lo = rec["bisection_bracket"][0]
    assert rec["warnings"]
    assert calls[-1] == (lo, 0.0)
    assert calls[:-1] and all(mu > 0.0 for _, mu in calls[:-1])
