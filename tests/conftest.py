import numpy as np
import pytest

from fracbif import (assemble_kernel, build_mesh, find_saddle,
                     minimize_multistart, select_solution, validate_params)

# one small supercritical problem shared by the solver-facing tests;
# session scope keeps the cost of the nonlinear solves to a single run


@pytest.fixture(scope="session")
def small_problem():
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 8.0})
    mesh = build_mesh(-1.0, 1.0, 48)
    kern = assemble_kernel(mesh, params)
    return kern, params


@pytest.fixture(scope="session")
def small_big_solution(small_problem):
    kern, params = small_problem
    reports = minimize_multistart(kern, params, seed=0)
    report = select_solution(reports)
    assert report.converged and report.classification == "minimizer"
    return report


@pytest.fixture(scope="session")
def small_saddle(small_problem, small_big_solution):
    kern, params = small_problem
    return find_saddle(kern, params, small_big_solution.solution.values)
