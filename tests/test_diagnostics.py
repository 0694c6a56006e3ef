import tracemalloc

import numpy as np
import pytest

from fracbif import (GridFunction, KernelMatrix, ParameterError,
                     boundary_ratios, check_ordering,
                     build_mesh, gradient_check, hopf_ratio,
                     verify_operator_properties)


def profile(mesh, s, scale=1.0):
    return GridFunction(scale * mesh.dist ** s, mesh)


def test_hopf_ratio_of_scaled_distance_profile():
    mesh = build_mesh(-1.0, 1.0, 30)
    u = profile(mesh, 0.3, scale=2.0)
    assert hopf_ratio(u, 0.3) == pytest.approx(2.0, rel=1e-14)
    flat = GridFunction(np.zeros(30), mesh)
    assert hopf_ratio(flat, 0.3) == 0.0
    dented = u.values.copy()
    dented[5] = -0.1
    assert hopf_ratio(GridFunction(dented, mesh), 0.3) < 0.0


def test_boundary_ratios_of_distance_profile():
    mesh = build_mesh(-1.0, 1.0, 30)
    u = profile(mesh, 0.3)
    sup_r, holder_r = boundary_ratios(u, 0.3)
    assert sup_r == pytest.approx(1.0, rel=1e-14)
    assert holder_r == pytest.approx(0.0, abs=1e-12)
    # u = d^0.2 divided by d^0.3 blows up toward the boundary
    sup_r2, holder_r2 = boundary_ratios(profile(mesh, 0.2), 0.3, alpha=0.1)
    assert sup_r2 > 1.0
    assert holder_r2 > 0.0


def test_boundary_ratios_match_the_dense_quotients_in_bounded_memory():
    # the Holder quotient taken over blocks of rows is the maximum over
    # all pairs bit for bit, and needs no n x n arrays (36 MiB at this n)
    for n in (2, 129, 1030):
        mesh = build_mesh(-1.0, 1.0, n)
        u = GridFunction(np.random.default_rng(n).random(n), mesh)
        w = u.values / mesh.dist ** 0.3
        i, j = np.triu_indices(n, k=1)
        dense = float(np.max(np.abs(w[i] - w[j])
                             / np.abs(mesh.nodes[i] - mesh.nodes[j])
                             ** (0.9 * 0.3)))
        del i, j
        tracemalloc.start()
        try:
            sup_r, holder_r = boundary_ratios(u, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert holder_r == dense
        assert sup_r == float(np.max(w))
        assert peak < 2 * 2 ** 20


def test_boundary_ratios_alpha_range():
    mesh = build_mesh(-1.0, 1.0, 10)
    u = profile(mesh, 0.3)
    with pytest.raises(ParameterError):
        boundary_ratios(u, 0.3, alpha=0.3)
    with pytest.raises(ParameterError):
        boundary_ratios(u, 0.3, alpha=-0.05)


def test_check_ordering_margins():
    mesh = build_mesh(-1.0, 1.0, 25)
    u = profile(mesh, 0.3, scale=3.0)
    v = profile(mesh, 0.3, scale=1.0)
    margin, weighted = check_ordering(u, v, s=0.3)
    assert margin == pytest.approx(2.0 * np.min(mesh.dist ** 0.3), rel=1e-12)
    assert weighted == pytest.approx(2.0, rel=1e-12)
    margin_only, nothing = check_ordering(u, v)
    assert nothing is None
    assert margin_only == margin
    other = profile(build_mesh(-1.0, 1.0, 26), 0.3)
    with pytest.raises(ValueError):
        check_ordering(u, other)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7])
def test_operator_properties_hold(p):
    mesh = build_mesh(-1.0, 1.0, 16)
    kern = KernelMatrix.full_from_sigma(mesh, 0.55)
    out = verify_operator_properties(kern, p, trials=60, seed=1)
    assert out["passed"]
    assert out["failures"] == []
    assert out["worst"]["mon-ii"] > 1e-14


@pytest.mark.parametrize("trials", [0, -3])
def test_operator_properties_need_a_trial(trials):
    kern = KernelMatrix.full_from_sigma(build_mesh(-1.0, 1.0, 16), 0.55)
    with pytest.raises(ParameterError, match="trials"):
        verify_operator_properties(kern, 2.0, trials=trials)


def test_operator_properties_catch_broken_kernel():
    mesh = build_mesh(-1.0, 1.0, 16)
    kern = KernelMatrix.full_from_sigma(mesh, 0.55)
    bad = KernelMatrix(K=-kern.K, T=kern.T, sigma=kern.sigma, mesh=mesh)
    out = verify_operator_properties(bad, 2.0, trials=60, seed=1)
    assert not out["passed"]
    assert len(out["failures"]) > 0
    assert set(out["failures"]) <= {"mon-i", "mon-ii", "mon-iii"}


def test_gradient_check_small_for_all_variants():
    params_mesh = build_mesh(-1.0, 1.0, 12)
    from fracbif import validate_params, assemble_kernel
    params = validate_params({"p": 2.2, "s": 0.35, "q": 1.9, "r": 1.4,
                              "lambda": 3.0})
    rng = np.random.default_rng(2)
    for kern in (assemble_kernel(params_mesh, params),
                 KernelMatrix.full_from_sigma(params_mesh, params.sigma)):
        u = 0.4 + 0.1 * rng.random(len(kern.T))
        assert gradient_check(kern, params, u) < 1e-7
