import dataclasses

import numpy as np
import pytest

from fracbif import (GridFunction, KernelMatrix, MeshMismatchError,
                     ParameterError, SaddleNotFound, SolveReport,
                     SolverError, SolverOptions, apply_operator,
                     assemble_kernel, build_mesh, continue_branch,
                     find_saddle, minimize, minimize_multistart, mirror_fold,
                     mirror_unfold, odd_power, principal_eigenpair,
                     select_solution, seminorm_energy, solve_fold,
                     total_energy, total_gradient, total_hessian,
                     validate_params, with_lambda)
from fracbif import solvers
from fracbif.kernel import pairwise_energy
from fracbif.reaction import F_values, f_values
from fracbif.solvers import (STALL_WINDOW, _capped, _damped_newton,
                             _descend, _eigen_jacobian, _eigen_newton,
                             default_starts)


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


@pytest.mark.parametrize("field,value", [
    ("tol", 0.0), ("tol", -1.0), ("width", 0.0), ("damping", -0.2),
    ("tol", float("nan")), ("starts", 0), ("max_iter", 0),
    ("path_points", 4)])
def test_solver_options_reject_out_of_range_values(field, value):
    with pytest.raises(ParameterError, match=field):
        SolverOptions(**{field: value})


def test_total_energy_composition():
    params = make_params(2.5)
    mesh = build_mesh(-1.0, 1.0, 14)
    kern = KernelMatrix.full_from_sigma(mesh, params.sigma)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(14)
    expect = (seminorm_energy(kern, u, params.p)
              - mesh.h * float(np.sum(F_values(params, u))))
    assert total_energy(kern, params, u) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7])
def test_total_gradient_matches_finite_differences(p):
    params = make_params(p)
    mesh = build_mesh(-1.0, 1.0, 10)
    kern = KernelMatrix.full_from_sigma(mesh, params.sigma)
    rng = np.random.default_rng(4)
    for _ in range(4):
        u = 0.5 + rng.random(10)
        g = total_gradient(kern, params, u)
        fd = np.empty(10)
        step = 1e-6
        for i in range(10):
            e = np.zeros(10)
            e[i] = step
            fd[i] = (total_energy(kern, params, u + e)
                     - total_energy(kern, params, u - e)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) / scale < 1e-6


@pytest.mark.parametrize("variant", ["plain"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_total_hessian_matches_gradient_differences(p, variant):
    params = make_params(p)
    n = 10
    kern = KernelMatrix.full_from_sigma(build_mesh(-1.0, 1.0, n),
                                        params.sigma)
    rng = np.random.default_rng(7)
    u = 0.5 + rng.random(n)
    u[0] = -0.3             # the reaction is flat for t <= 0
    H = total_hessian(kern, params, u)
    assert np.array_equal(H, H.T)
    step = 1e-6
    fd = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        fd[:, j] = (total_gradient(kern, params, u + e)
                    - total_gradient(kern, params, u - e)) / (2.0 * step)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))


@pytest.mark.parametrize("variant", ["plain"])
@pytest.mark.parametrize("n", [10, 11])
def test_folded_total_hessian_matches_gradient_differences(n, variant):
    params = make_params(2.5)
    half = assemble_kernel(build_mesh(-1.0, 1.0, n), params)
    kern = KernelMatrix.full_from_sigma(half.mesh, params.sigma)
    rng = np.random.default_rng(11)
    m = len(half.T)
    w = 0.5 + rng.random(m)
    w[0] = -0.3             # the reaction is flat for t <= 0
    u = mirror_unfold(w, n)
    H = total_hessian(half, params, w)
    assert np.array_equal(H, H.T)
    step = 1e-6
    fd = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = step
        fd[:, j] = (total_gradient(half, params, w + e)
                    - total_gradient(half, params, w - e)) / (2.0 * step)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))
    # and the folded gradient is the full one times mass / h
    g = total_gradient(kern, params, u)
    assert np.allclose(total_gradient(half, params, w),
                       half.mass / kern.mesh.h * g[:m],
                       rtol=1e-12, atol=1e-12 * np.max(np.abs(g)))


@pytest.mark.parametrize("variant", ["plain"])
def test_total_hessian_finite_at_ties_and_zero_nodes(variant):
    # p < 2 and r < 2 put infinite powers at a tie and at a zero node
    params = validate_params({"p": 1.5, "s": 0.2, "q": 1.35, "r": 1.2,
                              "lambda": 2.0})
    kern = KernelMatrix.full_from_sigma(build_mesh(-1.0, 1.0, 12),
                                        params.sigma)
    u = np.linspace(0.1, 1.2, 12)
    u[[0, 5, 11]] = 0.0
    u[7] = u[8]
    with np.errstate(all="raise"):
        H = total_hessian(kern, params, u)
    assert np.all(np.isfinite(H))


def test_morse_index_of_minimizer_and_saddle(small_problem,
                                             small_big_solution,
                                             small_saddle):
    kern, params = small_problem
    curv_u = np.linalg.eigvalsh(total_hessian(
        kern, params, mirror_fold(small_big_solution.solution.values)))
    assert curv_u[0] > 0.0
    curv_v, Q = np.linalg.eigh(total_hessian(
        kern, params, mirror_fold(small_saddle.solution.values)))
    assert curv_v[0] < 0.0 < curv_v[1]
    phi = Q[:, 0] * np.sign(Q[0, 0])
    assert np.all(phi > 0.0)


def test_saddle_has_morse_index_one_in_the_even_subspace():
    # at lambda = 12.5 the lowest odd mode of the full Hessian at v is
    # negative too, so v has Morse index two in the full space
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 48), params)
    u = select_solution(minimize_multistart(kern, params, seed=0))
    v = find_saddle(kern, params, u.solution.values)
    assert v.converged
    h = kern.mesh.h
    # the even Hessian in the metric of the full space, D^-1/2 H D^-1/2
    # with D = mass / h, against the Hessian on the full kernel
    root = np.sqrt(h / kern.mass)
    H = total_hessian(kern, params, mirror_fold(v.solution.values))
    even = np.linalg.eigvalsh(root[:, None] * H * root[None, :]) / h
    full = np.linalg.eigvalsh(total_hessian(
        KernelMatrix.full_from_sigma(kern.mesh, kern.sigma), params,
        v.solution.values)) / h
    assert even[0] < 0.0 < even[1]
    assert full[0] < full[1] < 0.0 < full[2]
    assert even[0] == pytest.approx(full[0], rel=1e-8)


@pytest.mark.parametrize("n,lam,most", [(128, 12.5, 60), (64, 40.0, 200)])
def test_saddle_newton_finish_converges_at_index_one(n, lam, most):
    # the reflection climb took 191-206 iterations at the demo point
    # (n = 128) and 1194 at lambda = 40, n = 64; the ray-peak descent
    # steps with the exact Hessian of the peaks near the saddle, so its
    # Newton tail reaches the saddle's target by itself
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": lam})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, n), params)
    u = select_solution(minimize_multistart(kern, params, seed=0))
    v = find_saddle(kern, params, u.solution.values)
    curv = np.linalg.eigvalsh(total_hessian(
        kern, params, mirror_fold(v.solution.values)))
    assert v.converged
    assert curv[0] < 0.0 < curv[1]
    assert v.morse_index == 1
    assert v.iterations <= most


def test_saddle_descent_steps_with_the_hessian_of_the_peaks():
    # J(w) = E(peak of w's ray) has the Hessian H_S = H_T - k k^T / e.He,
    # k = H e - (e.H e) e, at a peak z where g = 0: its second difference
    # along the tangent k matches d.H_S d, and misses the tangent
    # Hessian's d.H_T d = d.H d by about 23 %.  Stepping with H_S near
    # the saddle, the search takes 14 iterations at the demo point; with
    # H_T alone it took 19
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 128), params)
    u = select_solution(minimize_multistart(kern, params, seed=0))
    v = find_saddle(kern, params, u.solution.values)
    assert v.converged and v.iterations <= 15
    z = mirror_fold(v.solution.values)
    H = total_hessian(kern, params, z)
    e = z / np.linalg.norm(z)
    He = H @ e
    eHe = float(e @ He)
    assert eHe < 0.0
    k = He - eHe * e
    d = k * (1e-3 * np.linalg.norm(z) / np.linalg.norm(k))

    def J(w):
        return solvers._ray_peak(kern, params, w,
                                 *pairwise_energy(kern, w, params.p))[2]

    second = J(z + d) + J(z - d) - 2.0 * J(z)
    dHd = float(d @ H @ d)
    dHSd = dHd - float(k @ d) ** 2 / eHe
    assert second == pytest.approx(dHSd, rel=1e-4)
    assert abs(second - dHd) > 0.1 * second


@pytest.mark.parametrize("p,s,q,r", [(4.0, 0.2, 3.0, 2.0),
                                     (5.0, 0.15, 4.0, 3.0)])
def test_saddle_retried_finish_reaches_the_mountain_pass(p, s, q, r):
    # at lambda = 12.5, n = 32 the first finish of the path search, now
    # deleted, stopped at Morse index 0 and 6, and only a finish retried
    # after more path descent converged at index one
    params = validate_params({"p": p, "s": s, "q": q, "r": r,
                              "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    u = select_solution(minimize_multistart(kern, params, seed=0))
    v = find_saddle(kern, params, u.solution.values)
    curv = np.linalg.eigvalsh(total_hessian(
        kern, params, mirror_fold(v.solution.values)))
    assert v.converged and v.morse_index == 1
    assert curv[0] < 0.0 < curv[1]


@pytest.mark.parametrize("p,s,q,r", [(3.0, 0.3, 2.5, 1.5),
                                     (1.8, 0.4, 1.6, 1.2),
                                     (6.0, 0.1, 5.0, 4.0),
                                     (1.5, 0.5, 1.3, 1.1)])
@pytest.mark.parametrize("n", [31, 32])
def test_ray_peak_is_the_energy_maximum_along_the_ray(p, s, q, r, n):
    # along the ray of w the energy peaks at t1 w, where g.w = 0, and
    # falls from there to the trough of the slope psi at t0; a ray has a
    # peak exactly where psi(t0) = B - k (lam A)^((p-r)/(p-q)) < 0, so
    # above one lam_c.  Random w >= 0 with zeros and ties, at lambdas on
    # both sides of lam_c, two of them within 1e-6 of it
    kern = assemble_kernel(build_mesh(-1.0, 1.0, n), validate_params(
        {"p": p, "s": s, "q": q, "r": r, "lambda": 1.0}))
    rng = np.random.default_rng(n)
    m = len(kern.T)
    for _draw in range(5):
        w = rng.uniform(0.0, 2.0, m)
        w[rng.uniform(size=m) < 0.25] = 0.0
        w[2:5] = w[2]
        w[0] = 1.0
        S, Aw = pairwise_energy(kern, w, p)
        A = float(np.sum(kern.mass * w ** q))
        B = float(np.sum(kern.mass * w ** r))
        k = (p - q) / (p - r) * ((q - r) / ((p - r) * p * S)) ** (
            (q - r) / (p - q))
        lam_c = (B / k) ** ((p - q) / (p - r)) / A
        for lam in lam_c * np.array([1.0 - 1e-6, 1.0 + 1e-6]):
            pr = validate_params(
                {"p": p, "s": s, "q": q, "r": r, "lambda": lam})
            peak = solvers._ray_peak(kern, pr, w, S, Aw)
            assert (peak is None) == (lam < lam_c)
        for lam in lam_c * np.array([0.3, 0.9, 1.1, 3.0]):
            pr = validate_params(
                {"p": p, "s": s, "q": q, "r": r, "lambda": lam})
            t0 = ((q - r) * lam * A / ((p - r) * p * S)) ** (1.0 / (p - q))
            peak = solvers._ray_peak(kern, pr, w, S, Aw)
            ray = np.linspace(0.0, 1.0, 41)[1:]
            if lam < lam_c:
                # psi >= 0: the energy never falls along the ray
                assert peak is None
                E = [total_energy(kern, pr, t * 3.0 * t0 * w) for t in ray]
                assert np.all(np.diff(E) >= -1e-12 * np.max(np.abs(E)))
                continue
            z, Az, E1, g1 = peak
            t1 = z[0]
            assert 0.0 < t1 < t0
            assert np.array_equal(z, t1 * w)
            # the energy and gradient from homogeneity are those at z
            g = total_gradient(kern, pr, z)
            assert E1 == pytest.approx(total_energy(kern, pr, z),
                                       rel=1e-12, abs=1e-300)
            assert np.max(np.abs(g1 - g)) <= 1e-12 * np.max(np.abs(Az))
            terms = (p * S * t1 ** (p - 1.0) + lam * A * t1 ** (q - 1.0)
                     + B * t1 ** (r - 1.0))
            assert abs(float(g @ w)) <= 1e-12 * terms
            below = [total_energy(kern, pr, t * t1 * w) for t in ray[:-1]]
            above = [total_energy(kern, pr, (t1 + t * (t0 - t1)) * w)
                     for t in ray]
            assert max(below) < E1 and max(above) < E1


def test_saddle_converges_on_a_fine_mesh():
    # the path search ended at Morse index 5 here, with sup v 0.156; the
    # minimizer comes from one descent from the n = 128 one, repeated
    # cell by cell
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 12.5})
    coarse = select_solution(minimize_multistart(
        assemble_kernel(build_mesh(-1.0, 1.0, 128), params), params, seed=0))
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 1024), params)
    u = minimize(kern, params, np.repeat(coarse.solution.values, 8))
    assert u.converged
    v = find_saddle(kern, params, u.solution.values)
    assert v.converged and v.morse_index == 1
    assert np.all(v.solution.values > 0.0)
    assert np.all(v.solution.values < u.solution.values)
    assert abs(v.solution.sup_norm - 0.1910) < 1e-3


def test_odd_mesh_path_step_follows_the_full_space_gradient():
    # the middle node of an odd mesh has half the mass of the others; a
    # path step that moved it by half its full-space gradient g h / mass
    # left this search at Morse index 2 after 184 iterations (residual
    # 1.8e-3)
    params = validate_params({"p": 4.0, "s": 0.2, "q": 3.0, "r": 2.0,
                              "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 31), params)
    u = select_solution(minimize_multistart(kern, params, seed=0))
    v = find_saddle(kern, params, u.solution.values)
    assert v.converged and v.morse_index == 1
    assert v.iterations <= 100


def test_principal_eigenpair_matches_dense_matrix():
    mesh = build_mesh(-1.0, 1.0, 40)
    res = principal_eigenpair(KernelMatrix.from_sigma(mesh, 0.4), 2.0)
    kern = KernelMatrix.full_from_sigma(mesh, 0.4)
    matrix = 2.0 * (np.diag(kern.K.sum(axis=1) + kern.T) - kern.K)
    dense = np.linalg.eigvalsh(matrix / mesh.h)[0]
    assert res.value == pytest.approx(dense, rel=1e-10)
    assert res.converged
    u = res.eigenfunction.values
    assert np.all(u > 0.0)
    assert mesh.h * np.sum(np.abs(u) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_principal_eigenpair_below_two_reports_honestly():
    """For 1 < p < 2 the quotient is C1 but not C2 (the operator kink
    sits at equal neighbor values, which the flat top of the
    eigenfunction comes close to), so for p near 1 the Newton steps can
    stop short, even in the even subspace: here the residual stops
    moving at 5.6e-6, where the iteration gives up after 85 steps (it
    ran on to 203, at the same residual to 0.1 %, before it watched for
    that).  The report must then say converged=False rather than
    pretend."""
    mesh = build_mesh(-1.0, 1.0, 64)
    kern = KernelMatrix.from_sigma(mesh, 0.2)
    opts = dataclasses.replace(SolverOptions(), max_iter=20000)
    res = principal_eigenpair(kern, 1.15, opts)
    assert not res.converged
    assert res.residual > 1e-9
    assert res.residual < 1e-2
    assert res.value > 0.0
    assert np.all(res.eigenfunction.values > 0.0)


def test_principal_eigenpair_gives_up_on_a_slow_residual():
    # p = 1.15: after 30 Newton steps no trial length lowers the
    # residual, and the run stops there and says so rather than spend
    # max_iter; a descent run on to 50000 iterations also missed the
    # target (residual 2.8e-4) at the same value to 2e-15, so the value
    # has settled to 1e-7; the reported residual is the full-space one,
    # to the rounding of the sums on the full kernel
    mesh = build_mesh(-1.0, 1.0, 53)
    kern = KernelMatrix.from_sigma(mesh, 0.1)
    res = principal_eigenpair(kern, 1.15)
    assert not res.converged
    assert res.iterations <= 100
    assert 1e-9 < res.residual < 1e-3
    assert res.value == pytest.approx(41.4640842301, rel=1e-7)
    u = res.eigenfunction.values
    full = np.max(np.abs(apply_operator(
        KernelMatrix.full_from_sigma(mesh, 0.1), u, 1.15)
        - res.value * mesh.h * odd_power(u, 1.15)))
    assert res.residual == pytest.approx(full, rel=1e-9)


@pytest.mark.parametrize("p,n,sigma,steps,value", [
    (1.2, 256, 0.2, 906, 21.7299874378),
    (1.15, 47, 0.2, 570, 21.7547144697)])
def test_principal_eigenpair_gives_up_once_the_residual_stops_moving(
        monkeypatch, p, n, sigma, steps, value):
    # every step here still lowers the residual a little, so without a
    # test on its progress the iteration ran `steps` steps; a residual
    # that falls by less than STALL_DECREASE over STALL_WINDOW steps now
    # ends it well before that.  Where it ends is a matter of rounding:
    # at n = 256, starts 1e-15 apart (or another summation order or
    # BLAS thread count) stop after 17 to 335 steps, some because no
    # trial lowers the residual, at residuals from 1.6e-6 to 1.9e-4 and
    # at values within 6.2e-8 relative.  So the committed start and
    # three perturbed ones must all give up short of `steps`, below the
    # residual bound of the slow-residual test, at the same value
    kern = KernelMatrix.from_sigma(build_mesh(-1.0, 1.0, n), sigma)
    m = (n + 1) // 2
    rng = np.random.default_rng(0)
    for xi in [np.zeros(m)] + [rng.standard_normal(m) for _ in range(3)]:
        monkeypatch.setattr(
            solvers, "_eigen_newton", lambda kern, p, u, opts, xi=xi:
            _eigen_newton(kern, p, u * (1.0 + 1e-15 * xi), opts))
        res = principal_eigenpair(kern, p)
        assert not res.converged
        assert res.iterations <= 0.6 * steps
        assert 1e-9 < res.residual < 1e-3
        assert res.value == pytest.approx(value, rel=1e-7)
        assert np.all(res.eigenfunction.values > 0.0)


def eigen_system(kern, p, w, R):
    # the bordered eigen system, written out from its definition
    top = apply_operator(kern, w, p) - R * kern.mass * odd_power(w, p)
    return np.append(top, np.sum(kern.mass * np.abs(w) ** p) - 1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [20, 21])
def test_eigen_jacobian_matches_central_differences(p, n):
    half = KernelMatrix.from_sigma(build_mesh(-1.0, 1.0, n), 0.4)
    m = len(half.T)
    rng = np.random.default_rng(n)
    w = 0.5 + rng.random(m)
    R = 3.7
    J = _eigen_jacobian(half, p, w, R, np.empty((m + 1, m + 1)))
    assert J.shape == (m + 1, m + 1)
    x = np.append(w, R)
    fd = np.empty_like(J)
    step = 1e-6
    for k in range(m + 1):
        e = np.zeros(m + 1)
        e[k] = step
        plus, minus = x + e, x - e
        fd[:, k] = (eigen_system(half, p, plus[:m], plus[m])
                    - eigen_system(half, p, minus[:m], minus[m])) / (2.0 * step)
    assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))
    assert J[m, m] == 0.0


def test_principal_eigenpair_newton_finish_converges_below_two():
    # a gradient descent on the Rayleigh quotient stopped here at 6000
    # iterations with residual 5.9e-4; the Newton steps converge to the
    # value that descent reached when run on without a stall test
    mesh = build_mesh(-1.0, 1.0, 47)
    kern = KernelMatrix.from_sigma(mesh, 0.1)
    res = principal_eigenpair(kern, 1.35)
    assert res.converged
    assert res.iterations < 100
    assert res.value == pytest.approx(41.4087185441, rel=1e-7)
    assert np.all(res.eigenfunction.values > 0.0)


def test_principal_eigenpair_stops_on_a_singular_system(monkeypatch):
    # with no Newton step to take the iteration stops where it started,
    # and the report says so, with the residual the full kernel gives
    mesh = build_mesh(-1.0, 1.0, 40)
    kern = KernelMatrix.from_sigma(mesh, 0.4)
    p = 3.0
    u = mirror_unfold(mirror_fold((mesh.dist / np.max(mesh.dist)) ** (0.4 / p)),
                      mesh.n)
    u /= (mesh.h * np.sum(u ** p)) ** (1.0 / p)
    Au = apply_operator(KernelMatrix.full_from_sigma(mesh, 0.4), u, p)
    start = np.max(np.abs(Au - float(Au @ u) * mesh.h * odd_power(u, p)))

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    res = principal_eigenpair(kern, p)
    assert not res.converged
    assert res.iterations == 0
    assert res.residual == pytest.approx(start, rel=1e-12)
    assert res.residual > 1e-9 * res.value


def test_principal_eigenpair_caps_the_newton_step_at_the_iterate():
    # the first Newton step here is longer than the iterate; taken from
    # t = 1 the damped iteration stops at residual 0.125 after 3 steps
    kern = KernelMatrix.from_sigma(build_mesh(-1.0, 1.0, 32), 0.3)
    res = principal_eigenpair(kern, 4.0)
    assert res.converged
    assert res.value == pytest.approx(13.838709734532612, rel=1e-10)
    assert np.all(res.eigenfunction.values > 0.0)


def test_principal_eigenpair_converges_on_the_sweep():
    # every mesh of the 128-mesh sweep, singular (p < 2) and degenerate
    # (p > 2) alike, converges to a positive eigenfunction of unit mass
    for p in (1.3, 1.4, 1.5, 1.6, 1.8, 2.5, 3.0, 4.0):
        for n in (17, 32, 47, 64):
            mesh = build_mesh(-1.0, 1.0, n)
            for sigma in (0.1, 0.3, 0.5, 0.7):
                res = principal_eigenpair(KernelMatrix.from_sigma(mesh, sigma), p)
                assert res.converged, (p, n, sigma)
                u = res.eigenfunction.values
                assert np.all(u > 0.0), (p, n, sigma)
                assert mesh.h * np.sum(u ** p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p,n,sigma", [
    (1.3, 16, 0.2), (1.3, 16, 0.45), (1.3, 16, 0.7), (1.3, 32, 0.2),
    (1.3, 32, 0.7), (1.6, 16, 0.2), (1.6, 16, 0.45), (1.6, 16, 0.7),
    (1.6, 32, 0.2), (1.6, 32, 0.45), (1.6, 32, 0.7), (1.5, 24, 0.6),
    (1.5, 40, 0.45), (1.3, 32, 0.45)])
def test_principal_eigenpair_below_two_converges_when_even(p, n, sigma):
    # the full-space iteration stalled on every one of these meshes; in
    # the even subspace the mirror ties u_i = u_(n-1-i) are gone, and
    # the last one, where a gradient descent on the Rayleigh quotient
    # still gave up, converges with the Newton steps
    mesh = build_mesh(-1.0, 1.0, n)
    kern = KernelMatrix.from_sigma(mesh, sigma)
    res = principal_eigenpair(kern, p)
    assert res.converged
    assert res.residual <= 1e-9 * max(1.0, res.value)
    u = res.eigenfunction.values
    assert np.all(u > 0.0)
    assert np.array_equal(u, u[::-1])
    assert mesh.h * np.sum(u ** p) == pytest.approx(1.0, rel=1e-12)
    if (p, n, sigma) == (1.5, 40, 0.45):
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


def test_folded_minimize_matches_full_descent_at_odd_n():
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 33), params)
    opts = SolverOptions()
    u0 = default_starts(kern.mesh, params, 10, 0)[4]
    rep = minimize(kern, params, u0, opts)
    assert rep.converged and rep.classification == "minimizer"
    u = rep.solution.values
    assert np.array_equal(u, u[::-1])
    # the same descent on the full kernel, from the unsymmetrized start
    whole = KernelMatrix.full_from_sigma(kern.mesh, kern.sigma)
    full, E, g, _ = _descend(whole, params, u0, opts)
    assert E == total_energy(whole, params, full)
    assert np.max(np.abs(total_gradient(whole, params, full))) <= 1e-9 * abs(E)
    assert rep.energy == pytest.approx(E, rel=1e-12)
    assert np.max(np.abs(u - full)) <= 1e-7 * np.max(u)


def test_eigen_newton_on_a_full_kernel_keeps_full_space_terms():
    # the loop weighs node sums by KernelMatrix.mass, so on a full
    # kernel it is the plain full-space iteration
    mesh = build_mesh(-1.0, 1.0, 40)
    res = principal_eigenpair(KernelMatrix.from_sigma(mesh, 0.4), 2.0)
    (u, *_), _ = _eigen_newton(KernelMatrix.full_from_sigma(mesh, 0.4), 2.0,
                               (mesh.dist / np.max(mesh.dist)) ** 0.2,
                               SolverOptions())
    assert mesh.h * np.sum(u ** 2) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(u - res.eigenfunction.values)) <= 1e-6 * np.max(u)


def test_minimize_descends_from_any_start():
    params = make_params(2.5, lam=6.0)
    mesh = build_mesh(-1.0, 1.0, 20)
    kern = assemble_kernel(mesh, params)
    rng = np.random.default_rng(3)
    u0 = rng.random(20)
    rep = minimize(kern, params, u0, SolverOptions())
    full = KernelMatrix.full_from_sigma(mesh, params.sigma)
    assert rep.energy <= total_energy(full, params, u0) + 1e-12
    assert rep.converged


@pytest.mark.parametrize("max_iter", [1, 2])
def test_minimize_clears_the_negative_part_it_steps_into(max_iter):
    # from 3 with three nodes at each end at -2 (E = 1611.7) the descent
    # starts from the positive part (E = 298.9), and every trial point is
    # projected onto u >= 0, where the reaction's zero for t <= 0 makes
    # the energy no higher; so the report, even one cut short by
    # max_iter, is nonnegative (E = 298.43 at one step)
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 12.5})
    mesh = build_mesh(-1.0, 1.0, 32)
    kern = assemble_kernel(mesh, params)
    u0 = np.full(32, 3.0)
    u0[:3] = u0[-3:] = -2.0
    rep = minimize(kern, params, u0, SolverOptions(max_iter=max_iter))
    assert rep.iterations == max_iter
    assert np.min(rep.solution.values) >= 0.0
    full = KernelMatrix.full_from_sigma(mesh, params.sigma)
    assert rep.energy == pytest.approx(
        total_energy(full, params, rep.solution.values), rel=1e-12)


def test_minimize_multistart_never_evaluates_a_negative_point(monkeypatch):
    # at this point the multistart accepted 4 steps into u < 0 and
    # clipped them afterwards; a projected trial has no negative node
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 40.0})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    evaluate, lowest = solvers._energy_and_gradient, []

    def recorded(kern, params, u):
        lowest.append(float(np.min(u)))
        return evaluate(kern, params, u)

    monkeypatch.setattr(solvers, "_energy_and_gradient", recorded)
    reports = minimize_multistart(kern, params, seed=0)
    assert select_solution(reports).converged
    assert len(lowest) > len(reports) and min(lowest) >= 0.0


def test_minimize_from_its_own_minimizer_takes_no_step(monkeypatch):
    # the stop test comes before the solve: a converged start costs one
    # Hessian and its Cholesky factorization, and no Newton system
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 128), params)
    ref = select_solution(minimize_multistart(kern, params, seed=0))
    assert ref.converged and ref.classification == "minimizer"
    solve, calls = np.linalg.solve, []

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    rep = minimize(kern, params, ref.solution.values)
    assert rep.converged and rep.iterations == 0 and not calls
    assert rep.energy == ref.energy
    assert np.array_equal(rep.solution.values, ref.solution.values)


def test_warm_start_converges_below_the_armijo_resolution():
    # the continuation grid of the n = 32 threshold search: warm-starting
    # lambda = 7.9423 from the lambda = 9.1337 branch point reaches the
    # minimizer, where the Armijo decrease falls below the rounding of E
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 8.0})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    grid = np.linspace(1.6, 0.4, 14) * 6.453125
    trace = continue_branch(kern, params, grid[:3], seed=0)
    point = trace.points[0]
    assert point.lam == pytest.approx(9.1337, abs=1e-4)
    start = point.u_big
    assert start.converged
    rep = minimize(kern, with_lambda(params, grid[4]), start.solution.values)
    assert rep.converged
    assert rep.classification == "minimizer"
    assert rep.residual <= 1e-9 * max(1.0, abs(rep.energy))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_newton_finish_does_not_stop_at_the_saddle(small_problem,
                                                            small_saddle,
                                                            seed):
    # the Hessian is indefinite at the saddle: without the Cholesky
    # check one Newton step from here landed back on it, an uphill step
    # by less than rounding that the approximate Wolfe test accepts
    kern, params = small_problem
    v = small_saddle.solution.values
    noise = np.random.default_rng(seed).standard_normal(kern.n)
    noise += noise[::-1]
    start = v + 1e-6 * np.max(v) * noise / np.max(np.abs(noise))
    rep = minimize(kern, params, start)
    assert rep.converged
    E_v = small_saddle.energy
    assert (rep.classification == "zero"
            or rep.energy < E_v - 1e-6 * max(1.0, abs(E_v)))


def test_minimize_takes_a_shifted_step_where_cholesky_fails(monkeypatch,
                                                            small_problem):
    # only the first factorization fails: the residual test waits for a
    # successful one, so failing them all would never let the run stop
    kern, params = small_problem
    u0 = default_starts(kern.mesh, params, 10, 0)[6]
    ref = minimize(kern, params, u0)
    cholesky, shifted = np.linalg.cholesky, solvers._shifted_step
    calls = {"cholesky": 0, "shifted": 0}

    def first_fails(H):
        calls["cholesky"] += 1
        if calls["cholesky"] == 1:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(H)

    def counted(H, g, shift):
        calls["shifted"] += 1
        return shifted(H, g, shift)

    monkeypatch.setattr(np.linalg, "cholesky", first_fails)
    monkeypatch.setattr(solvers, "_shifted_step", counted)
    rep = minimize(kern, params, u0)
    assert calls["shifted"] == 1
    assert ref.converged and rep.converged
    assert rep.classification == "minimizer"
    u = ref.solution.values
    assert float(np.max(np.abs(rep.solution.values - u))) <= 1e-9 * np.max(u)
    assert abs(rep.energy - ref.energy) <= 1e-12 * max(1.0, abs(ref.energy))


def test_minimize_multistart_needs_no_eigendecomposition(monkeypatch):
    # the demo point: the climbs from near zero pass indefinite Hessians
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 128), params)
    ref = select_solution(minimize_multistart(kern, params, seed=0))

    def refused(H):
        raise AssertionError("minimize called eigh")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    rep = select_solution(minimize_multistart(kern, params, seed=0))
    assert rep.converged and rep.classification == "minimizer"
    assert rep.energy == ref.energy
    assert np.array_equal(rep.solution.values, ref.solution.values)


# minimize_multistart (n = 32, seed 0) with the L-BFGS descent that
# minimize took before it became a Newton descent: converged starts,
# converged nontrivial starts, and the selected energy
LBFGS_MULTISTARTS = [
    ((1.5, 0.5, 1.3, 1.1), 12.5, 10, 7, -4.760473761394188),
    ((1.8, 0.4, 1.6, 1.2), 12.5, 10, 7, -15.059315116308852),
    ((3.0, 0.3, 2.5, 1.5), 12.5, 10, 8, -33.34823777379148),
    ((6.0, 0.1, 5.0, 4.0), 12.5, 10, 8, -6.3522662356080986),
    ((1.5, 0.5, 1.3, 1.1), 40.0, 10, 8, -53170.00534848607),
    ((1.8, 0.4, 1.6, 1.2), 40.0, 10, 8, -902587.5830006665),
    ((3.0, 0.3, 2.5, 1.5), 40.0, 10, 8, -44356.72697659259),
    ((6.0, 0.1, 5.0, 4.0), 40.0, 10, 8, -9660.875576156417),
]


def test_minimize_multistart_keeps_the_lbfgs_results():
    # the exponent sets of the low-p, demo and high-p corners: at p < 2
    # the Hessian is indefinite near zero, and at p = 6 its pair weights
    # |u_i - u_j|^4 vanish where u is flat
    for (p, s, q, r), lam, conv, nontrivial, E in LBFGS_MULTISTARTS:
        params = validate_params({"p": p, "s": s, "q": q, "r": r,
                                  "lambda": lam})
        kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
        reports = minimize_multistart(kern, params, seed=0)
        assert sum(rep.converged for rep in reports) >= conv
        assert sum(rep.converged and rep.classification != "zero"
                   for rep in reports) >= nontrivial
        assert select_solution(reports).energy == pytest.approx(E, rel=1e-10)


def test_minimize_climbs_from_near_zero_at_low_p():
    # start 2 sits at sup 1.7e-4 where the Hessian is indefinite; the
    # L-BFGS descent took 7737 steps from here to the same minimizer
    params = validate_params({"p": 1.8, "s": 0.4, "q": 1.6, "r": 1.2,
                              "lambda": 40.0})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 128), params)
    u0 = default_starts(kern.mesh, params, 10, 0)[2]
    rep = minimize(kern, params, u0)
    assert rep.converged
    assert rep.classification == "minimizer"
    assert rep.iterations <= 50
    assert rep.energy == pytest.approx(-1346369.60, rel=1e-8)


def test_singular_multistart_converges():
    # 1 < p < 2: steepest descent ran all 50000 iterations of every
    # nontrivial start here and stopped at residual ~1e-8
    params = validate_params({"p": 1.8, "s": 0.4, "q": 1.6, "r": 1.2,
                              "lambda": 8.1})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    reports = minimize_multistart(kern, params, seed=0)
    assert any(r.classification == "minimizer" for r in reports)
    for rep in reports:
        assert rep.converged
        assert rep.iterations <= 1000


def test_multistart_iteration_count_guard(small_problem):
    # the multistart behind small_big_solution took 1660 iterations in
    # all with Barzilai-Borwein steepest descent
    kern, params = small_problem
    reports = minimize_multistart(kern, params, seed=0)
    assert sum(r.iterations for r in reports) < 1660 // 2


def test_subcritical_multistart_lands_on_exact_zero():
    """Below the existence threshold every start must fall into the
    zero basin, and the zero is reported exactly, not approximately."""
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 0.5})
    mesh = build_mesh(-1.0, 1.0, 32)
    kern = assemble_kernel(mesh, params)
    reports = minimize_multistart(kern, params, seed=0)
    assert len(reports) == 10
    for rep in reports:
        assert rep.classification == "zero"
        assert rep.converged
        assert np.all(rep.solution.values == 0.0)
    pick = select_solution(reports)
    assert pick.classification == "zero"


def test_multistart_deterministic_and_thread_invariant(small_problem):
    kern, params = small_problem
    a = minimize_multistart(kern, params, seed=7)
    b = minimize_multistart(kern, params, seed=7)
    c = minimize_multistart(kern, params, seed=7, threads=2)
    for x, y in ((a, b), (a, c)):
        assert [r.energy for r in x] == [r.energy for r in y]
        for rx, ry in zip(x, y):
            assert np.array_equal(rx.solution.values, ry.solution.values)
    d = minimize_multistart(kern, params, seed=8)
    assert any(not np.array_equal(rx.solution.values, rd.solution.values)
               for rx, rd in zip(a, d))


def test_multistart_short_circuit(small_problem):
    kern, params = small_problem
    reports = minimize_multistart(kern, params, seed=0,
                                  stop_at_nontrivial=True)
    assert len(reports) <= 10
    assert reports[-1].classification == "minimizer"


def test_select_solution_prefers_lowest_energy(small_problem):
    kern, params = small_problem
    reports = minimize_multistart(kern, params, seed=0)
    pick = select_solution(reports)
    nontrivial = [r for r in reports if r.classification == "minimizer"]
    assert pick.energy == min(r.energy for r in nontrivial)
    assert pick.energy < 0.0


def test_select_solution_takes_the_first_start_within_rounding():
    # copies of one minimizer from several starts differ in their last
    # bits; the pick is the first of them, not the one rounded lowest
    mesh = build_mesh(-1.0, 1.0, 8)

    def report(energy):
        return SolveReport(solution=GridFunction(np.ones(8), mesh),
                           energy=energy, residual=0.0, iterations=0,
                           converged=True, classification="minimizer")

    reports = [report(-1.0), report(-2.0), report(-2.0 - 1e-14),
               report(-2.0 + 1e-14)]
    assert select_solution(reports) is reports[1]
    reports.append(report(-2.0 - 1e-12))
    assert select_solution(reports) is reports[-1]


def test_find_saddle_rejects_a_ceiling_that_is_not_even(small_problem,
                                                        small_big_solution,
                                                        small_saddle):
    # the search sees only the mirror average of the ceiling, which
    # poses a different problem unless the ceiling is even
    kern, params = small_problem
    u = small_big_solution.solution.values.copy()
    u[0] *= 1.1
    with pytest.raises(ParameterError, match="ceiling is not mirror-even"):
        find_saddle(kern, params, u)
    # an asymmetry at rounding level is folded away
    u = small_big_solution.solution.values
    noise = np.random.default_rng(5).standard_normal(kern.n)
    out = find_saddle(kern, params, u * (1.0 + 1e-12 * noise))
    v = small_saddle.solution.values
    assert float(np.max(np.abs(out.solution.values - v))) <= 1e-9


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("entry", ["minimize", "find_saddle"])
def test_start_and_ceiling_lengths_are_checked_on_the_full_mesh(
        small_problem, small_big_solution, entry, extra):
    # n - 1 values fold to the same length as n, so the length must be
    # checked, and named, on the full mesh before folding
    kern, params = small_problem
    u = small_big_solution.solution.values
    bad = np.resize(u, kern.n + extra)
    with pytest.raises(MeshMismatchError,
                       match="expected %d nodal values" % kern.n):
        if entry == "minimize":
            minimize(kern, params, bad)
        else:
            find_saddle(kern, params, bad)


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


def test_find_saddle_rejects_zero_ceiling(small_problem):
    kern, params = small_problem
    with pytest.raises(SaddleNotFound):
        find_saddle(kern, params, np.zeros(kern.n))


def test_find_saddle_never_returns_the_zero_function():
    # here a search that reaches no saddle ends on a ray peak, above the
    # zero function: it reports that point, unconverged, where the
    # mountain-pass path search once collapsed onto v = 0
    params = validate_params({"p": 1.8, "s": 0.4, "q": 1.6, "r": 1.2,
                              "lambda": 40.0})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    reports = minimize_multistart(kern, params, seed=0)
    u_big = select_solution(reports)
    assert u_big.converged and u_big.classification == "minimizer"
    rep = find_saddle(kern, params, u_big.solution.values)
    assert rep.solution.sup_norm > 0.0
    assert rep.energy > 0.0
    assert not rep.converged


@pytest.mark.parametrize("ceiling", ["one", "saddle", "1.1u", "0.9u"])
def test_find_saddle_rejects_nonminimizing_ceiling(small_problem,
                                                   small_big_solution,
                                                   small_saddle, ceiling):
    # u_big must pass minimize's stopping test: a small residual and a
    # positive definite Hessian.  The saddle fails the second part, the
    # scaled minimizers the first
    kern, params = small_problem
    u = small_big_solution.solution.values
    u_big = {"one": np.full(kern.n, 1.0),
             "saddle": small_saddle.solution.values,
             "1.1u": 1.1 * u, "0.9u": 0.9 * u}[ceiling]
    with pytest.raises(SolverError, match="not a local minimizer"):
        find_saddle(kern, params, u_big)


def test_find_saddle_needs_enough_path_points(small_problem,
                                              small_big_solution):
    kern, params = small_problem
    with pytest.raises(ParameterError):
        opts = dataclasses.replace(SolverOptions(), path_points=3)
        find_saddle(kern, params, small_big_solution.solution.values,
                    opts=opts)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_damped_newton_never_accepts_an_inadmissible_trial(bad):
    # x - (-1) = 0 has its root outside the admissible x > 0, where the
    # residual reads bad: every step stops short of x = 0, and the stall
    # rule ends the crawl towards it
    def point(x):
        return x, float(abs(x[0] + 1.0)) if x[0] > 0.0 else bad, 1e-9

    state, iterations = _damped_newton(
        point, lambda s: _capped(-(s[0] + 1.0), s[0]), point(np.array([1.0])),
        SolverOptions().max_iter)
    assert 0.0 < state[0][0] < 1e-2
    assert STALL_WINDOW < iterations < 2 * STALL_WINDOW


def test_find_saddle_rejects_a_point_above_the_ceiling(
        monkeypatch, small_problem, small_big_solution, small_saddle):
    # the descent has no box: a point of index one with a small residual
    # that rises above u_big at one node is not the mountain pass below it
    kern, params = small_problem
    assert small_saddle.converged
    w_big = mirror_fold(small_big_solution.solution.values)
    descend = solvers._peak_descent

    def above(kern, params, peak, opts):
        (z, Az, E, g), steps = descend(kern, params, peak, opts)
        z = z.copy()
        z[0] = 1.01 * w_big[0]
        return (z, Az, E, g), steps

    monkeypatch.setattr(solvers, "_peak_descent", above)
    rep = find_saddle(kern, params, small_big_solution.solution.values)
    v = rep.solution.values
    assert rep.morse_index == 1 and np.all(v > 0.0)
    assert rep.residual == small_saddle.residual
    assert v[0] > small_big_solution.solution.values[0]
    assert not rep.converged


def fold_from(exps, n, lam):
    p, s, q, r = exps
    params = validate_params({"p": p, "s": s, "q": q, "r": r, "lambda": lam})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, n), params)
    u = select_solution(minimize_multistart(
        kern, params, seed=0, stop_at_nontrivial=True))
    return kern, params, solve_fold(kern, params, u.solution)


def test_solve_fold_makes_the_even_hessian_singular():
    # at lambda*_h the folded Hessian has a zero eigenvalue, with a
    # positive even eigenvector, and the branch lives just above it
    kern, params, fold = fold_from((3.0, 0.3, 2.5, 1.5), 33, 9.0)
    assert fold.converged and fold.note is None and fold.residual <= 1e-9
    curv = np.linalg.eigvalsh(total_hessian(
        kern, with_lambda(params, fold.lam),
        mirror_fold(fold.solution.values)))
    assert abs(curv[0]) <= 1e-12 * curv[1]
    phi = fold.null_vector.values
    assert np.all(phi > 0.0) and np.array_equal(phi, phi[::-1])
    above = minimize(kern, with_lambda(params, fold.lam + 0.01),
                     fold.solution.values)
    assert above.converged and above.classification == "minimizer"


@pytest.mark.parametrize("exps", [(2.0, 0.3, 1.7, 1.3), (1.3, 0.5, 1.2, 1.1)])
def test_solve_fold_far_from_the_fold_fails_without_raising(exps):
    # from lambda = 30 the Newton steps stall far above the fold; the
    # attempt ends unconverged and says why
    _, _, fold = fold_from(exps, 32, 30.0)
    assert not fold.converged
    assert fold.lam > 0.0 and fold.residual > 1e-9
    assert fold.note.startswith("residual")


def test_solve_fold_from_zero_ends_unconverged():
    # at w = 0 the operator vanishes, so the start's residual is
    # infinite and no Newton direction can be formed there
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 8.0})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 32), params)
    fold = solve_fold(kern, params, np.zeros(kern.n))
    assert not fold.converged
    assert fold.iterations == 0 and fold.lam == 8.0
    assert fold.residual == np.inf
    assert fold.note.startswith("residual inf after 0 Newton steps")
