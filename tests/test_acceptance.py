"""End-to-end acceptance checks for the solver stack.

Each test prints one PASS/FAIL line (visible under pytest -s) and
asserts the documented tolerances.  The expensive shared inputs (the
threshold estimate and the branch solutions at n=200/400) are computed
once per module; the tests are ordered so no single test adds more
than about a minute of work on one core.
"""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from fracbif import (KernelMatrix, ReactionModel, assemble_kernel,
                     build_mesh, estimate_lambda_star, f_values,
                     minimize_multistart, pair_weight_quadrature,
                     principal_eigenpair, sign_threshold_delta,
                     solve_at_lambda, tail_weight_quadrature, total_energy,
                     total_gradient, validate_params,
                     verify_operator_properties, with_lambda)
from fracbif.cli import main

BASE = {"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print("FAIL %s" % label)
        raise
    print("PASS %s" % label)


@pytest.fixture(scope="module")
def problem200():
    params = validate_params(dict(BASE, **{"lambda": 1.0}))
    mesh = build_mesh(-1.0, 1.0, 200)
    return assemble_kernel(mesh, params), params


@pytest.fixture(scope="module")
def lambda_star(problem200):
    kern, params = problem200
    return estimate_lambda_star(kern, params, (5.0, 9.0), seed=0)


@pytest.fixture(scope="module")
def branch_solutions(problem200, lambda_star):
    kern, params = problem200
    est = lambda_star.lambda_star_estimate
    out = {}
    for mult in (1.5, 2.0, 3.0):
        out[mult] = solve_at_lambda(kern, with_lambda(params, mult * est),
                                    seed=0)
    return out


def test_01_kernel_matches_quadrature_oracle():
    with criterion("01 closed-form kernel vs quadrature oracle"):
        for sigma in (0.3, 0.5, 0.8):
            for n in (2, 3, 5):
                mesh = build_mesh(-1.0, 1.0, n)
                kern = KernelMatrix.from_sigma(mesh, sigma)
                edges = mesh.cell_edges
                for i in range(n):
                    for j in range(i + 1, n):
                        ref = pair_weight_quadrature(
                            (edges[i], edges[i + 1]),
                            (edges[j], edges[j + 1]), sigma)
                        assert abs(kern.K[i, j] - ref) <= 1e-8 * ref
                    ref_t = tail_weight_quadrature(
                        (edges[i], edges[i + 1]), (mesh.a, mesh.b), sigma)
                    assert abs(kern.T[i] - ref_t) <= 1e-8 * ref_t
        cells = KernelMatrix.from_sigma(build_mesh(0.0, 2.0, 2), 0.5)
        assert abs(cells.K[0, 1] - (8.0 - 4.0 * np.sqrt(2.0))) <= 1e-12


def test_02_energy_gradient_matches_finite_differences():
    with criterion("02 energy gradient vs central differences"):
        for p in (1.5, 2.0, 2.7):
            for sigma in (0.3, 0.6 * min(1.0, 1.0 / p)):
                params = validate_params(
                    {"p": p, "s": sigma / p, "q": 1.0 + 0.75 * (p - 1.0),
                     "r": 1.0 + 0.25 * (p - 1.0), "lambda": 2.0})
                mesh = build_mesh(-1.0, 1.0, 40)
                kern = assemble_kernel(mesh, params)
                model = ReactionModel.plain(params)
                rng = np.random.default_rng(0)
                for _ in range(20):
                    u = 0.3 + rng.random(40)
                    g = total_gradient(kern, model, u)
                    fd = np.empty(40)
                    for i in range(40):
                        e = np.zeros(40)
                        e[i] = 1e-6
                        fd[i] = (total_energy(kern, model, u + e)
                                 - total_energy(kern, model, u - e)) / 2e-6
                    scale = max(1.0, float(np.max(np.abs(g))))
                    assert float(np.max(np.abs(g - fd))) / scale < 1e-6


def test_03_operator_monotonicity_properties(problem200):
    with criterion("03 operator monotonicity on 200 seeded pairs"):
        kern, params = problem200
        out = verify_operator_properties(kern, params.p, trials=200, seed=0)
        assert out["passed"], out["failures"]
        assert out["worst"]["mon-i"] >= -1e-12
        assert out["worst"]["mon-ii"] > 1e-14
        assert out["worst"]["mon-iii"] >= -1e-12


def test_04_principal_eigenvalue_matches_dense():
    with criterion("04 iterative eigenvalue vs dense decomposition"):
        mesh = build_mesh(-1.0, 1.0, 200)
        kern = KernelMatrix.from_sigma(mesh, 0.4)
        res = principal_eigenpair(kern, 2.0)
        assert res.converged
        matrix = 2.0 * (np.diag(kern.K.sum(axis=1) + kern.T) - kern.K)
        dense = float(np.linalg.eigvalsh(matrix / mesh.h)[0])
        assert abs(res.value - dense) <= 1e-8 * dense
        u = res.eigenfunction.values
        assert np.all(u > 0.0) or np.all(u < 0.0)


def test_05_no_solution_below_the_bound(problem200):
    with criterion("05 only the zero solution at small lambda"):
        kern, params = problem200
        eig = principal_eigenpair(kern, params.p)
        lam = 0.5 * min(1.0, 0.9 * eig.value)
        reports = minimize_multistart(
            kern, ReactionModel.plain(with_lambda(params, lam)), seed=0)
        assert len(reports) == 10
        for rep in reports:
            assert rep.converged
            assert rep.solution.sup_norm < 1e-6


def test_09_threshold_estimates_agree(problem200, lambda_star):
    with criterion("09 bisection and fold threshold estimates agree"):
        kern, params = problem200
        rec = lambda_star.method_record
        assert rec["fold_estimate"] is not None
        assert rec["agreement_rel"] <= 0.10
        eig = principal_eigenpair(kern, params.p)
        assert lambda_star.lambda_star_estimate > min(1.0, 0.999 * eig.value)


def test_06_two_ordered_solutions_above_threshold(branch_solutions):
    with criterion("06 ordered solution pair at 2x the threshold"):
        bp = branch_solutions[2.0]
        u = bp.u_big
        v = bp.v_saddle
        assert u.converged and v is not None and v.converged
        assert u.residual <= 1e-8 * max(1.0, abs(u.energy))
        assert v.residual <= 1e-8 * max(1.0, abs(v.energy))
        assert float(np.min(v.solution.values)) > 0.0
        assert float(np.min(u.solution.values - v.solution.values)) > 0.0
        assert u.energy < 0.0
        assert v.energy >= max(0.0, u.energy)


def test_07_branch_grows_with_lambda(branch_solutions):
    with criterion("07 minimizer branch increases with lambda"):
        mults = sorted(branch_solutions)
        s = 0.3
        for lo, hi in zip(mults, mults[1:]):
            ulo = branch_solutions[lo].u_big.solution
            uhi = branch_solutions[hi].u_big.solution
            diff = uhi.values - ulo.values
            assert float(np.min(diff)) > 0.0
            weighted = diff / ulo.mesh.dist ** s
            assert float(np.min(weighted)) > 0.0


def test_10_solutions_clear_the_small_amplitude_gap(branch_solutions,
                                                    problem200, lambda_star):
    with criterion("10 solutions exceed the reaction sign threshold"):
        kern, params = problem200
        est = lambda_star.lambda_star_estimate
        for mult, bp in branch_solutions.items():
            pr = with_lambda(params, mult * est)
            delta = sign_threshold_delta(pr)
            assert bp.u_big.solution.sup_norm > delta
            grid = np.linspace(0.0, delta, 100_001)
            vals = f_values(ReactionModel.plain(pr), grid)
            assert float(np.max(vals)) <= 1e-12


def test_08_boundary_ratio_positive_and_stable(branch_solutions, problem200,
                                               lambda_star):
    with criterion("08 Hopf ratio positive and mesh-stable"):
        kern, params = problem200
        s = params.s
        for bp in branch_solutions.values():
            assert bp.diagnostics["hopf_u"] > 0.0
            assert bp.diagnostics["hopf_v"] > 0.0
        est = lambda_star.lambda_star_estimate
        pr = with_lambda(params, 2.0 * est)
        mesh400 = build_mesh(-1.0, 1.0, 400)
        kern400 = assemble_kernel(mesh400, pr)
        bp400 = solve_at_lambda(kern400, pr, seed=0)
        assert bp400.diagnostics["converged"]
        for key in ("hopf_u", "hopf_v"):
            coarse = branch_solutions[2.0].diagnostics[key]
            fine = bp400.diagnostics[key]
            assert fine > 0.0
            assert abs(fine - coarse) / fine <= 0.10


def test_11_branch_csv_reproducible(tmp_path):
    with criterion("11 bifurcation artifacts byte-identical across runs"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "p = 3.0\ns = 0.3\nq = 2.5\nr = 1.5\nlambda = 13.0\n"
            "mesh.n = 64\nseed = 0\n"
            "lambda_min = 7.0\nlambda_max = 13.0\nsteps = 5\n"
            "bracket_lo = 5.0\nbracket_hi = 9.0\n")
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert main(["bifurcation", "--config", str(cfg),
                     "--out", out1]) == 0
        assert main(["bifurcation", "--config", str(cfg),
                     "--out", out2]) == 0
        a = open(os.path.join(out1, "branch.csv"), "rb").read()
        b = open(os.path.join(out2, "branch.csv"), "rb").read()
        assert a == b
        rows = a.decode().splitlines()
        assert len(rows) == 2 + 5
        rec = json.load(open(os.path.join(out1, "bifurcation.json")))
        assert rec["lambda_star_estimate"] > 0.0
