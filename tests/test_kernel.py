import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from fracbif import (KernelError, KernelMatrix, MeshMismatchError, Mesh1D,
                     apply_operator, assemble_kernel,
                     build_mesh, mirror_fold, mirror_unfold, odd_power,
                     pairing, seminorm_energy, seminorm_energy_and_operator,
                     total_energy, validate_params)
from fracbif.core import curvature_power
from fracbif.kernel import operator_hessian, pairwise_energy


def overlap_pair_weight(cell_i, cell_j, sigma):
    """Independent oracle for one kernel entry.

    Substituting u = y - x turns the double integral of |x-y|^(-1-sigma)
    over two disjoint cells into a single integral of m(u) * u^(-1-sigma),
    where m(u) is the length of the overlap between cell_i and cell_j
    shifted left by u (a trapezoid profile).  Integrated numerically with
    the kink locations handed to the quadrature.
    """
    (a1, b1), (a2, b2) = sorted([tuple(cell_i), tuple(cell_j)])
    w1, w2 = b1 - a1, b2 - a2
    lo, hi = a2 - b1, b2 - a1

    def f(u):
        m = min(u - lo, w1, w2, hi - u)
        return m * u ** (-1.0 - sigma)

    kinks = sorted({lo + min(w1, w2), lo + max(w1, w2)})
    val, err = integrate.quad(f, lo, hi, points=kinks, limit=400,
                              epsabs=1e-13, epsrel=1e-12)
    return val


def tail_weight_oracle(cell, domain, sigma):
    a1, b1 = cell
    a, b = domain

    def f(x):
        right = (b - x) ** (-sigma) / sigma
        left = (x - a) ** (-sigma) / sigma
        return right + left

    # full_output silences the endpoint-singularity roundoff warning;
    # the comparison tolerance below still polices the accuracy
    out = integrate.quad(f, a1, b1, limit=400, epsabs=1e-12,
                         epsrel=1e-11, full_output=1)
    return out[0]


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_kernel_entries_match_quadrature(sigma, n):
    mesh = build_mesh(-1.0, 1.0, n)
    kern = KernelMatrix.full_from_sigma(mesh, sigma)
    edges = mesh.cell_edges
    for i in range(n):
        for j in range(n):
            ci = (edges[i], edges[i + 1])
            cj = (edges[j], edges[j + 1])
            if i == j:
                assert kern.K[i, j] == 0.0
                continue
            ref = overlap_pair_weight(ci, cj, sigma)
            assert kern.K[i, j] == pytest.approx(ref, rel=1e-9)
        ref_t = tail_weight_oracle((edges[i], edges[i + 1]),
                                   (mesh.a, mesh.b), sigma)
        assert kern.T[i] == pytest.approx(ref_t, rel=1e-9)


def test_adjacent_unit_cells_closed_form():
    # cells (0,1) and (1,2) at sigma = 1/2 integrate to 8 - 4*sqrt(2)
    mesh = build_mesh(0.0, 2.0, 2)
    kern = KernelMatrix.full_from_sigma(mesh, 0.5)
    assert kern.K[0, 1] == pytest.approx(8.0 - 4.0 * np.sqrt(2.0), abs=1e-12)


def test_unit_cell_tail_closed_form():
    # cell (0,1) inside (-1,1) at sigma = 1/2: both-sided tail is 4*sqrt(2)
    mesh = build_mesh(-1.0, 1.0, 2)
    kern = KernelMatrix.full_from_sigma(mesh, 0.5)
    assert kern.T[1] == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-12)
    assert kern.T[0] == kern.T[1]


def test_kernel_structure():
    mesh = build_mesh(-1.0, 1.0, 12)
    kern = KernelMatrix.full_from_sigma(mesh, 0.6)
    assert np.array_equal(kern.K, kern.K.T)
    assert np.all(np.diag(kern.K) == 0.0)
    off = kern.K[~np.eye(12, dtype=bool)]
    assert np.all(off > 0.0)
    assert np.all(kern.T > 0.0)
    # entries decay monotonically away from the diagonal
    row = kern.K[0, 1:]
    assert np.all(np.diff(row) < 0.0)
    assert kern.n == 12


def test_kernel_scaling_with_mesh_width():
    # |x-y|^(-1-sigma) dx dy scales like length^(1-sigma)
    sigma = 0.45
    k1 = KernelMatrix.full_from_sigma(build_mesh(0.0, 1.0, 6), sigma)
    k2 = KernelMatrix.full_from_sigma(build_mesh(0.0, 2.0, 6), sigma)
    factor = 2.0 ** (1.0 - sigma)
    assert np.allclose(k2.K, factor * k1.K, rtol=1e-12)
    assert np.allclose(k2.T, factor * k1.T, rtol=1e-12)


def test_from_sigma_rejects_bad_input():
    mesh = build_mesh(0.0, 1.0, 4)
    edges = np.array([0.0, 0.1, 0.5, 0.8, 1.0])
    nodes = 0.5 * (edges[:-1] + edges[1:])
    dist = np.minimum(nodes - 0.0, 1.0 - nodes)
    uneven = Mesh1D(0.0, 1.0, 4, edges, nodes, 0.25, dist)
    for assemble in (KernelMatrix.from_sigma, KernelMatrix.full_from_sigma):
        with pytest.raises(KernelError):
            assemble(mesh, 0.0)
        with pytest.raises(KernelError):
            assemble(mesh, 1.0)
        with pytest.raises(KernelError):
            assemble(uneven, 0.5)


def test_assemble_kernel_uses_product_order():
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5})
    mesh = build_mesh(-1.0, 1.0, 5)
    kern = assemble_kernel(mesh, params)
    direct = KernelMatrix.from_sigma(mesh, params.p * params.s)
    assert kern.even and np.array_equal(kern.K, direct.K)
    assert kern.sigma == pytest.approx(0.9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_energy_operator_euler_identity(p):
    # the p-homogeneous form satisfies <A(u), u> = p * E(u)
    rng = np.random.default_rng(11)
    mesh = build_mesh(-1.0, 1.0, 20)
    kern = KernelMatrix.full_from_sigma(mesh, min(0.6, 0.95 / p))
    for _ in range(5):
        u = rng.standard_normal(20)
        lhs = pairing(apply_operator(kern, u, p), u)
        rhs = p * seminorm_energy(kern, u, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7])
def test_operator_is_energy_gradient(p):
    rng = np.random.default_rng(7)
    mesh = build_mesh(-1.0, 1.0, 10)
    kern = KernelMatrix.full_from_sigma(mesh, 0.5)
    u = rng.standard_normal(10)
    grad = apply_operator(kern, u, p)
    step = 1e-6
    fd = np.empty(10)
    for k in range(10):
        e = np.zeros(10)
        e[k] = step
        fd[k] = (seminorm_energy(kern, u + e, p)
                 - seminorm_energy(kern, u - e, p)) / (2.0 * step)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


def test_energy_and_operator_share_values():
    rng = np.random.default_rng(5)
    mesh = build_mesh(-1.0, 1.0, 15)
    kern = KernelMatrix.full_from_sigma(mesh, 0.7)
    u = rng.standard_normal(15)
    e, a = seminorm_energy_and_operator(kern, u, 2.4)
    assert e == pytest.approx(seminorm_energy(kern, u, 2.4), rel=1e-14)
    assert np.allclose(a, apply_operator(kern, u, 2.4), rtol=1e-14)


def test_pairing_checks_shapes():
    with pytest.raises(MeshMismatchError):
        pairing(np.zeros(4), np.zeros(5))


def test_energy_converges_under_refinement():
    # evaluate a fixed smooth profile on finer and finer meshes; the
    # discrete energies should approach a limit with shrinking gaps
    sigma = 0.6

    def energy_at(n):
        mesh = build_mesh(-1.0, 1.0, n)
        kern = KernelMatrix.full_from_sigma(mesh, sigma)
        u = np.cos(0.5 * np.pi * mesh.nodes)
        return seminorm_energy(kern, u, 2.0)

    e = [energy_at(n) for n in (25, 50, 100, 200)]
    gaps = np.abs(np.diff(e))
    assert gaps[1] < gaps[0]
    assert gaps[2] < gaps[1]


def dense_energy_oracle(K, T, u, p):
    """Naive double sum over all ordered pairs, summed exactly."""
    D = u[:, None] - u[None, :]
    terms = list((K * np.abs(D) ** p).ravel())
    terms += list(2.0 * T * np.abs(u) ** p)
    return math.fsum(terms) / p


def dense_operator_oracle(K, T, u, p):
    D = u[:, None] - u[None, :]
    return (2.0 * np.sum(K * np.sign(D) * np.abs(D) ** (p - 1.0), axis=1)
            + 2.0 * T * odd_power(u, p))


def oracle_kernel(n, rng, toeplitz):
    if n == 1:
        mesh = Mesh1D(0.0, 1.0, 1, np.array([0.0, 1.0]), np.array([0.5]),
                      1.0, np.array([0.5]))
        return KernelMatrix(K=np.zeros((1, 1)), T=np.array([3.0]),
                            sigma=0.5, mesh=mesh)
    kern = KernelMatrix.full_from_sigma(build_mesh(-1.0, 1.0, n), 0.6)
    if toeplitz:
        return kern
    K = rng.random((n, n))
    K = K + K.T
    np.fill_diagonal(K, 0.0)
    return KernelMatrix(K=K, T=rng.random(n), sigma=kern.sigma,
                        mesh=kern.mesh)


def oracle_values(n, rng):
    # an eighth-spaced grid of values: ties, zeros and negative entries,
    # and no near-ties to spoil a central difference
    return rng.integers(-12, 13, n) / 8.0


@pytest.mark.parametrize("toeplitz", [True, False])
@pytest.mark.parametrize("p", [1.3, 1.8, 2.0, 3.0, 4.5])
def test_discrete_picone_inequality(p, toeplitz):
    # sum_i A(phi)_i u_i^p / phi_i^(p-1) <= pairing(A(u), u) for every
    # phi > 0 and u >= 0 (Brasco and Franzina, Kodai Math. J. 37, 2014),
    # with equality for u a multiple of phi: what lambda_lower_bound
    # rests on
    rng = np.random.default_rng(int(10 * p))
    for n in (2, 5, 64):
        kern = oracle_kernel(n, rng, toeplitz)
        for _ in range(20):
            phi = rng.uniform(0.05, 2.0, n)
            phi[:n // 2] = phi[-1]              # ties in phi
            u = np.abs(oracle_values(n, rng))   # ties and zeros in u
            for v in (u, 0.7 * phi):
                lhs = float(np.sum(apply_operator(kern, phi, p) * v ** p
                                   / phi ** (p - 1.0)))
                rhs = pairing(apply_operator(kern, v, p), v)
                assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("toeplitz", [True, False])
@pytest.mark.parametrize("n", [1, 2, 5, 128, 1030])
@pytest.mark.parametrize("p", [1.3, 2.0, 3.0, 4.5])
def test_pairwise_energy_matches_dense_double_sum(p, n, toeplitz):
    rng = np.random.default_rng(n)
    kern = oracle_kernel(n, rng, toeplitz)
    U = np.vstack([oracle_values(n, rng) for _ in range(3)])
    U[1, :n // 2] = U[1, -1]           # a long run of ties
    U[2, :] = 0.0
    U[2, n // 3] = -0.75
    for u in U:
        e, g = pairwise_energy(kern, u, p)
        ref = dense_energy_oracle(kern.K, kern.T, u, p)
        assert e == pytest.approx(ref, rel=1e-13, abs=1e-300)
        op = dense_operator_oracle(kern.K, kern.T, u, p)
        scale = max(1.0, float(np.max(np.abs(op))))
        assert np.max(np.abs(g - op)) <= 1e-12 * scale
        step = 1e-5
        coords = range(n) if n <= 128 else rng.choice(n, 8, replace=False)
        for k in coords:
            bump = np.zeros(n)
            bump[k] = step
            fd = (pairwise_energy(kern, u + bump, p)[0]
                  - pairwise_energy(kern, u - bump, p)[0]) / (2.0 * step)
            assert abs(fd - g[k]) <= 1e-6 * scale


@pytest.mark.parametrize("n", [64, 127, 129, 1030])
@pytest.mark.parametrize("p", [1.3, 3.0])
def test_pairwise_energy_blocks_cover_every_pair(p, n):
    # at n = 129 and 1030 the last block of rows of K is partial (127 +
    # 2 rows, 68 x 15 + 10), and at n = 64 and 127 one block holds all
    # of K; every vector agrees with the dense double sum
    rng = np.random.default_rng(n)
    kern = oracle_kernel(n, rng, toeplitz=False)
    for _ in range(3):
        u = oracle_values(n, rng)
        e, g = pairwise_energy(kern, u, p)
        ref = dense_energy_oracle(kern.K, kern.T, u, p)
        assert e == pytest.approx(ref, rel=1e-13, abs=1e-300)
        op = dense_operator_oracle(kern.K, kern.T, u, p)
        scale = max(1.0, float(np.max(np.abs(op))))
        assert np.max(np.abs(g - op)) <= 1e-12 * scale


def test_pairwise_energy_rejects_wrong_shapes():
    # one vector of n values only: a stack of them, (2, n), is no batch
    kern = KernelMatrix.full_from_sigma(build_mesh(-1.0, 1.0, 6), 0.5)
    even = KernelMatrix.from_sigma(kern.mesh, 0.5)
    with pytest.raises(MeshMismatchError, match="expected 3 nodal values"):
        seminorm_energy(even, np.zeros(6), 2.0)
    for bad in (np.zeros(5), np.zeros((2, 5)), np.zeros((2, 6)),
                np.zeros((2, 2, 6)), np.zeros((1, 6)), np.float64(0.0)):
        for sums in (pairwise_energy, seminorm_energy, apply_operator,
                     seminorm_energy_and_operator):
            with pytest.raises(MeshMismatchError):
                sums(kern, bad, 2.0)


def test_operator_working_set_is_bounded():
    # the dense form allocated several n x n arrays (8 MB each at this n)
    n = 1024
    kern = KernelMatrix.full_from_sigma(build_mesh(-1.0, 1.0, n), 0.9)
    u = np.cos(0.5 * np.pi * kern.mesh.nodes)
    for evaluate in (lambda: apply_operator(kern, u, 2.5),
                     lambda: seminorm_energy(kern, u, 2.5)):
        tracemalloc.start()
        try:
            evaluate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def test_even_assembly_never_builds_the_full_kernel():
    # the even kernel is m x m, m = 1024, 8 MiB; the full n x n kernel
    # the solvers once folded is 32 MiB, more than the whole budget
    n = 2048
    m = (n + 1) // 2
    mesh = build_mesh(-1.0, 1.0, n)
    tracemalloc.start()
    try:
        kern = KernelMatrix.from_sigma(mesh, 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kern.K.shape == (m, m)
    assert peak <= 3 * m * m * 8


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_operator_hessian_is_built_in_one_array(p):
    # the formula with its temporaries spelled out, as it was written
    # before the in-place build (3 n x n arrays at its peak)
    n = 512
    kern = KernelMatrix.full_from_sigma(build_mesh(-1.0, 1.0, n), 0.45)
    u = np.random.default_rng(7).random(n)
    u[3] = u[7]         # a tie and a zero node: floored powers for p < 2
    u[10] = 0.0
    scale = float(np.linalg.norm(u))
    W = kern.K * curvature_power(u[:, None] - u[None, :], p - 2.0, scale)
    expect = -W
    expect[np.diag_indices_from(expect)] += (
        np.sum(W, axis=1) + kern.T * curvature_power(u, p - 2.0, scale))
    expect = 2.0 * (p - 1.0) * expect
    del W
    tracemalloc.start()
    try:
        H = operator_hessian(kern, u, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(H, expect)
    assert peak <= 1.25 * n * n * 8


FOLD_SIZES = [2, 3, 7, 33, 128, 1024]


def folded(full):
    """The even-subspace kernel of a full one, computed from its entries:
    K'[i][j] = 2 (K[i][j] + K[i][n-1-j]) with a zero diagonal, T' = 2 T[:m]
    and mass 2h, the middle node of an odd mesh counted once."""
    n = full.n
    m = (n + 1) // 2
    K = full.K[:m, :m] + full.K[:m, ::-1][:, :m]
    copies = np.full(m, 2.0)
    if n % 2:
        K[:, -1] = K[-1, :] = full.K[:m, m - 1]
        copies[-1] = 1.0
    np.fill_diagonal(K, 0.0)
    K *= 2.0
    return K, copies * full.T[:m], copies * full.mass[:m]


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_even_kernel_is_the_fold_of_the_full_one(n):
    # bit for bit, so that every solver repeats the iterates it took when
    # it folded the full kernel itself
    for a, b, sigma in ((-1.0, 1.0, 0.45), (-2.0, 2.0, 0.9), (0.0, 3.0, 0.1)):
        mesh = build_mesh(a, b, n)
        full = KernelMatrix.full_from_sigma(mesh, sigma)
        even = KernelMatrix.from_sigma(mesh, sigma)
        K, T, mass = folded(full)
        assert np.array_equal(even.K, K)
        assert np.array_equal(even.T, T)
        assert np.array_equal(even.mass, mass)
        assert even.even and not full.even
        assert even.n == full.n == n and even.mesh == mesh
        # the half mesh stands for the whole interval
        assert abs(even.mass.sum() - full.mass.sum()) <= 1e-15 * (b - a)
        assert full.mass.sum() == pytest.approx(b - a, abs=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", FOLD_SIZES)
def test_fold_energy_and_operator_identities(n, p):
    # E'(w) = E(U w) and A'(w) = (mass / h) A(U w)[:m] between the two
    # assemblies, U the even unfolding
    mesh = build_mesh(-1.0, 1.0, n)
    kern = KernelMatrix.full_from_sigma(mesh, 0.45)
    half = KernelMatrix.from_sigma(mesh, 0.45)
    m = (n + 1) // 2
    h = mesh.h
    params = validate_params({"p": p, "s": 0.45 / p,
                              "q": 1.0 + 0.75 * (p - 1.0),
                              "r": 1.0 + 0.25 * (p - 1.0), "lambda": 2.0})
    rng = np.random.default_rng(n)
    for _ in range(3):
        w = rng.standard_normal(m)
        u = mirror_unfold(w, n)
        assert np.array_equal(u, u[::-1])
        assert np.array_equal(mirror_fold(u), w)
        E, A = seminorm_energy_and_operator(kern, u, p)
        e, a = seminorm_energy_and_operator(half, w, p)
        assert abs(E - e) <= 1e-13 * abs(E)
        assert (np.max(np.abs(half.mass / h * A[:m] - a))
                <= 1e-13 * np.max(np.abs(A)))
        # the even problem carries the full energy, reaction included
        E = total_energy(kern, params, u)
        e = total_energy(half, params, w)
        assert abs(E - e) <= 1e-13 * abs(E)


@pytest.mark.parametrize("n", [2, 3, 9, 10, 127, 128])
@pytest.mark.parametrize("sigma", [0.1, 0.45, 0.9])
def test_assemblies_are_symmetric_by_construction(n, sigma):
    # the two assemblies skip the symmetry check that a kernel built by
    # hand gets, so their weights must be symmetric to the bit
    mesh = build_mesh(-1.0, 1.0, n)
    for kern in (KernelMatrix.from_sigma(mesh, sigma),
                 KernelMatrix.full_from_sigma(mesh, sigma)):
        assert np.array_equal(kern.K, kern.K.T)
        again = KernelMatrix(K=kern.K, T=kern.T, sigma=kern.sigma,
                             mesh=kern.mesh)
        assert np.array_equal(again.mass, kern.mass)


@pytest.mark.parametrize("n", [9, 10])
def test_kernel_matrix_checks_its_weights(n):
    # a kernel built by hand from an even kernel's K and T gets the even
    # masses; weights of the wrong shape or without symmetry are refused
    even = KernelMatrix.from_sigma(build_mesh(-1.0, 1.0, n), 0.45)
    full = KernelMatrix.full_from_sigma(even.mesh, 0.45)
    for kern in (even, full):
        again = KernelMatrix(K=kern.K, T=kern.T, sigma=kern.sigma,
                             mesh=kern.mesh)
        assert np.array_equal(again.mass, kern.mass)
        assert again.even == kern.even
        # nothing is cached on a kernel: it holds its fields and no more
        assert [f.name for f in dataclasses.fields(kern)] == [
            "K", "T", "sigma", "mesh", "mass"]
        assert set(vars(kern)) == {f.name for f in dataclasses.fields(kern)}
    lopsided = even.K.copy()
    lopsided[0, 1] *= 1.5
    for fields, message in ((dict(K=lopsided), "not symmetric"),
                            (dict(K=even.K[:, :-1]), "weights K of shape"),
                            (dict(K=full.K), "weights K of shape"),
                            (dict(T=even.T[:-1]), "tails T of shape"),
                            (dict(mass=even.mass[:-1]), "mass of shape"),
                            (dict(T=full.T), "weights K of shape")):
        args = dict(K=even.K, T=even.T, sigma=even.sigma, mesh=even.mesh,
                    mass=even.mass)
        args.update(fields)
        with pytest.raises(KernelError, match=message):
            KernelMatrix(**args)
