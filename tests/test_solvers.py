import dataclasses

import numpy as np
import pytest

from fracbif import (KernelMatrix, MountainPassPath, ParameterError,
                     ReactionModel, SaddleNotFound, SolverError,
                     SolverOptions, assemble_kernel, build_mesh,
                     continue_branch, find_saddle, minimize,
                     minimize_multistart, principal_eigenpair,
                     select_solution, seminorm_energy, solve_above,
                     total_energy, total_gradient, validate_params,
                     with_lambda)
from fracbif.reaction import F_values, f_values
from fracbif.solvers import _batch_energy


def make_params(p, lam=2.0):
    # exponent triple 1 < r < q < p with p*s < 1
    return validate_params({"p": p, "s": 0.3 / p, "q": 1.0 + 0.75 * (p - 1.0),
                            "r": 1.0 + 0.25 * (p - 1.0), "lambda": lam})


def test_solver_options_defaults_and_immutability():
    opts = SolverOptions()
    assert opts.tol == 1e-9
    assert opts.starts == 10
    assert opts.path_points == 41
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.tol = 1e-3


def test_total_energy_composition():
    params = make_params(2.5)
    mesh = build_mesh(-1.0, 1.0, 14)
    kern = assemble_kernel(mesh, params)
    model = ReactionModel.plain(params)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(14)
    expect = (seminorm_energy(kern, u, params.p)
              - mesh.h * float(np.sum(F_values(model, u))))
    assert total_energy(kern, model, u) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7])
def test_total_gradient_matches_finite_differences(p):
    params = make_params(p)
    mesh = build_mesh(-1.0, 1.0, 10)
    kern = assemble_kernel(mesh, params)
    model = ReactionModel.plain(params)
    rng = np.random.default_rng(4)
    for _ in range(4):
        u = 0.5 + rng.random(10)
        g = total_gradient(kern, model, u)
        fd = np.empty(10)
        step = 1e-6
        for i in range(10):
            e = np.zeros(10)
            e[i] = step
            fd[i] = (total_energy(kern, model, u + e)
                     - total_energy(kern, model, u - e)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) / scale < 1e-6


def test_principal_eigenpair_matches_dense_matrix():
    mesh = build_mesh(-1.0, 1.0, 40)
    kern = KernelMatrix.from_sigma(mesh, 0.4)
    res = principal_eigenpair(kern, 2.0)
    matrix = 2.0 * (np.diag(kern.K.sum(axis=1) + kern.T) - kern.K)
    dense = np.linalg.eigvalsh(matrix / mesh.h)[0]
    assert res.value == pytest.approx(dense, rel=1e-10)
    assert res.converged
    u = res.eigenfunction.values
    assert np.all(u > 0.0)
    assert mesh.h * np.sum(np.abs(u) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_principal_eigenpair_below_two_reports_honestly():
    """For 1 < p < 2 the quotient is C1 but not C2 (the operator kink
    sits at equal neighbor values, which a symmetric eigenfunction
    hits exactly), so on some meshes the descent stalls above the
    residual target.  The value still settles; the report must say
    converged=False rather than pretend."""
    mesh = build_mesh(-1.0, 1.0, 24)
    kern = KernelMatrix.from_sigma(mesh, 0.6)
    opts = dataclasses.replace(SolverOptions(), max_iter=20000)
    res = principal_eigenpair(kern, 1.5, opts)
    assert not res.converged
    assert res.residual > 1e-9
    assert res.residual < 1e-2
    assert res.value > 0.0
    assert np.all(res.eigenfunction.values > 0.0)


def test_principal_eigenpair_gives_up_on_a_slow_residual():
    # for p < 2 the residual here decays like 1/iterations (1.9e-5 after
    # 50000 of them): the stall rule stops early and says so
    kern = KernelMatrix.from_sigma(build_mesh(-1.0, 1.0, 40), 0.45)
    res = principal_eigenpair(kern, 1.5)
    assert not res.converged
    assert res.iterations <= 10000
    assert 1e-9 < res.residual < 1e-3
    assert res.value == pytest.approx(11.2517213576, rel=1e-8)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_principal_eigenvalue_scales_with_kernel(p):
    mesh = build_mesh(-1.0, 1.0, 24)
    kern = KernelMatrix.from_sigma(mesh, 0.45)
    scaled = KernelMatrix(K=3.0 * kern.K, T=3.0 * kern.T,
                          sigma=kern.sigma, mesh=mesh)
    base = principal_eigenpair(kern, p)
    big = principal_eigenpair(scaled, p)
    assert big.value == pytest.approx(3.0 * base.value, rel=1e-10)
    # normalization is independent of the kernel scale
    assert mesh.h * np.sum(np.abs(big.eigenfunction.values) ** p) == \
        pytest.approx(1.0, rel=1e-12)


def test_minimize_descends_from_any_start():
    params = make_params(2.5, lam=6.0)
    mesh = build_mesh(-1.0, 1.0, 20)
    kern = assemble_kernel(mesh, params)
    model = ReactionModel.plain(params)
    rng = np.random.default_rng(3)
    u0 = rng.random(20)
    rep = minimize(kern, model, u0, SolverOptions())
    assert rep.energy <= total_energy(kern, model, u0) + 1e-12
    assert rep.converged


def test_warm_start_converges_below_the_armijo_resolution():
    # the continuation grid of the n = 32 threshold search: warm-starting
    # lambda = 7.9423 from the lambda = 9.1337 branch point reaches the
    # minimizer, where the Armijo decrease falls below the rounding of E
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 8.0})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    grid = np.linspace(1.6, 0.4, 14) * 6.453125
    trace = continue_branch(kern, params, grid[:3], seed=0,
                            with_saddles=False)
    point = trace.points[0]
    assert point.lam == pytest.approx(9.1337, abs=1e-4)
    start = point.u_big
    assert start.converged
    model = ReactionModel.plain(with_lambda(params, grid[4]))
    rep = minimize(kern, model, start.solution.values)
    assert rep.converged
    assert rep.classification == "minimizer"
    assert rep.residual <= 1e-9 * max(1.0, abs(rep.energy))


def test_singular_multistart_converges():
    # 1 < p < 2: steepest descent ran all 50000 iterations of every
    # nontrivial start here and stopped at residual ~1e-8
    params = validate_params({"p": 1.8, "s": 0.4, "q": 1.6, "r": 1.2,
                              "lambda": 8.1})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    reports = minimize_multistart(kern, ReactionModel.plain(params), seed=0)
    assert any(r.classification == "minimizer" for r in reports)
    for rep in reports:
        assert rep.converged
        assert rep.iterations <= 1000


def test_multistart_iteration_count_guard(small_problem):
    # the multistart behind small_big_solution took 1660 iterations in
    # all with Barzilai-Borwein steepest descent
    kern, params = small_problem
    reports = minimize_multistart(kern, ReactionModel.plain(params), seed=0)
    assert sum(r.iterations for r in reports) < 1660 // 2


def test_subcritical_multistart_lands_on_exact_zero():
    """Below the existence threshold every start must fall into the
    zero basin, and the zero is reported exactly, not approximately."""
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 0.5})
    mesh = build_mesh(-1.0, 1.0, 32)
    kern = assemble_kernel(mesh, params)
    reports = minimize_multistart(kern, ReactionModel.plain(params), seed=0)
    assert len(reports) == 10
    for rep in reports:
        assert rep.classification == "zero"
        assert rep.converged
        assert np.all(rep.solution.values == 0.0)
    pick = select_solution(reports)
    assert pick.classification == "zero"


def test_multistart_deterministic_and_thread_invariant(small_problem):
    kern, params = small_problem
    model = ReactionModel.plain(params)
    a = minimize_multistart(kern, model, seed=7)
    b = minimize_multistart(kern, model, seed=7)
    c = minimize_multistart(kern, model, seed=7, threads=2)
    for x, y in ((a, b), (a, c)):
        assert [r.energy for r in x] == [r.energy for r in y]
        for rx, ry in zip(x, y):
            assert np.array_equal(rx.solution.values, ry.solution.values)
    d = minimize_multistart(kern, model, seed=8)
    assert any(not np.array_equal(rx.solution.values, rd.solution.values)
               for rx, rd in zip(a, d))


def test_multistart_short_circuit(small_problem):
    kern, params = small_problem
    model = ReactionModel.plain(params)
    reports = minimize_multistart(kern, model, seed=0,
                                  stop_at_nontrivial=True)
    assert len(reports) <= 10
    assert reports[-1].classification == "minimizer"


def test_select_solution_prefers_lowest_energy(small_problem):
    kern, params = small_problem
    model = ReactionModel.plain(params)
    reports = minimize_multistart(kern, model, seed=0)
    pick = select_solution(reports)
    nontrivial = [r for r in reports if r.classification == "minimizer"]
    assert pick.energy == min(r.energy for r in nontrivial)
    assert pick.energy < 0.0


def test_solve_above_pins_and_returns_known_solutions(small_problem,
                                                      small_big_solution,
                                                      small_saddle):
    kern, params = small_problem
    u = small_big_solution.solution.values
    v = small_saddle.solution.values
    # an exact solution is its own least solution from above
    out = solve_above(kern, params, v)
    assert out.classification == "pinned"
    assert out.converged
    assert float(np.max(np.abs(out.solution.values - v))) <= 1e-9
    out2 = solve_above(kern, params, u)
    assert float(np.max(np.abs(out2.solution.values - u))) <= 1e-9


def test_solve_above_warns_on_bad_anchor(small_problem, small_big_solution):
    kern, params = small_problem
    u = small_big_solution.solution.values
    # scaling a solution down breaks the subsolution inequality near the
    # boundary (the negative reaction term dominates there), so the
    # anchor check must fire; the minimizer still lands back on u
    with pytest.warns(UserWarning, match="subsolution inequality"):
        out = solve_above(kern, params, 0.9 * u)
    assert float(np.min(out.solution.values - 0.9 * u)) >= 0.0
    assert float(np.max(np.abs(out.solution.values - u))) <= 1e-6


def test_find_saddle_sits_between_zero_and_ceiling(small_problem,
                                                   small_big_solution,
                                                   small_saddle):
    kern, params = small_problem
    u = small_big_solution.solution.values
    v = small_saddle.solution.values
    assert small_saddle.classification == "saddle"
    assert small_saddle.converged
    scale = max(1.0, abs(small_saddle.energy))
    assert small_saddle.residual <= 1e-9 * scale
    assert float(np.min(v)) > 0.0
    assert float(np.min(u - v)) > 0.0
    # mountain-pass level sits above both endpoint energies
    assert small_saddle.energy >= max(0.0, small_big_solution.energy)
    assert small_saddle.energy > 0.0


def test_find_saddle_returns_path(small_problem, small_big_solution):
    kern, params = small_problem
    u = small_big_solution.solution.values
    rep, path = find_saddle(kern, params, u, seed=0, return_path=True)
    assert isinstance(path, MountainPassPath)
    assert path.points.shape[1] == kern.n
    assert np.array_equal(path.points[0], np.zeros(kern.n))
    assert np.allclose(path.points[-1], u)
    assert path.energies.shape == (path.points.shape[0],)
    assert path.max_index == int(np.argmax(path.energies))
    assert np.array_equal(path.points[path.max_index], rep.solution.values)
    # the climb updates only the maximal point's energy; every row must
    # still carry the energy of the point it belongs to
    model = ReactionModel.capped(params, u)
    assert np.array_equal(path.energies, _batch_energy(kern, model, path.points))


def test_find_saddle_rejects_zero_ceiling(small_problem):
    kern, params = small_problem
    with pytest.raises(SaddleNotFound):
        find_saddle(kern, params, np.zeros(kern.n), seed=0)


def test_find_saddle_rejects_nonminimizing_ceiling(small_problem):
    kern, params = small_problem
    with pytest.raises(SolverError, match="not a local minimizer"):
        find_saddle(kern, params, np.full(kern.n, 1.0), seed=0)


def test_find_saddle_needs_enough_path_points(small_problem,
                                              small_big_solution):
    kern, params = small_problem
    opts = dataclasses.replace(SolverOptions(), path_points=3)
    with pytest.raises(ParameterError):
        find_saddle(kern, params, small_big_solution.solution.values,
                    opts=opts, seed=0)
