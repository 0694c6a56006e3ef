"""The seminorm energy along segments and rays, and the passes over the
pairs that the saddle search takes: S is p-homogeneous, which gives
the energy at a ray's peak from the pass at any point of the ray, and
convex, and the search evaluates every point it reaches once."""

import inspect

import numpy as np
import pytest

from fracbif import (KernelMatrix, ReactionModel, assemble_kernel,
                     build_mesh, find_saddle, minimize_multistart,
                     select_solution, validate_params)
from fracbif import kernel
from fracbif.kernel import pairwise_energy

DEMO = (3.0, 0.3, 2.5, 1.5)


def test_saddle_search_takes_one_pairwise_pass_a_point(monkeypatch):
    # pairwise_energy always returns the energy and the operator; the
    # peak of a ray comes from the pass at the trial point, the Newton
    # finish starts from the descent's last peak and the report reads
    # the finish's last state, so no vector is passed twice: 27 passes
    # at the demo point, 38 with the tangent Hessian alone near the
    # saddle, where the path search took 101 (97 distinct)
    assert list(inspect.signature(kernel.pairwise_energy).parameters) == [
        "kern", "u", "p"]
    params = validate_params({"p": DEMO[0], "s": DEMO[1], "q": DEMO[2],
                              "r": DEMO[3], "lambda": 12.5})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 128), params)
    u = select_solution(minimize_multistart(kern, ReactionModel.plain(params),
                                            seed=0))
    passes, vectors = kernel.pairwise_energy, []

    def counted(kern, u, p):
        vectors.append(np.asarray(u, dtype=float).tobytes())
        return passes(kern, u, p)

    monkeypatch.setattr(kernel, "pairwise_energy", counted)
    rep = find_saddle(kern, params, u.solution.values)
    assert rep.converged
    assert 0 < len(vectors) <= 35
    assert len(set(vectors)) == len(vectors)


@pytest.mark.parametrize("p", [1.3, 1.8, 3.0, 5.0])
@pytest.mark.parametrize("folded", [False, True])
def test_seminorm_energy_bounds_hold_to_the_margin(p, folded):
    # convexity (in its S^(1/p) form and in the plain one) and
    # p-homogeneity, each for S as computed and within a relative
    # 1e-12, about 9000 units of roundoff
    params = validate_params({"p": p, "s": 0.3 / p, "q": 1.0 + 0.75 * (p - 1.0),
                              "r": 1.0 + 0.25 * (p - 1.0), "lambda": 2.0})
    mesh = build_mesh(-1.0, 1.0, 33)
    kern = (assemble_kernel(mesh, params) if folded
            else KernelMatrix.full_from_sigma(mesh, params.sigma))
    rng = np.random.default_rng(int(10 * p) + folded)
    count = 200
    A = rng.uniform(0.0, 2.0, (count, len(kern.T)))
    B = rng.uniform(0.0, 2.0, (count, len(kern.T)))
    for X in (A, B):
        X[rng.uniform(size=X.shape) < 0.2] = 0.0       # zeros
        X[:, 3:7] = X[:, 3:4]                           # ties
    A[::10] = B[::10]                                   # a = b
    B[5::10] = 1e-3 * A[5::10]                          # far apart in size
    t = rng.uniform(0.0, 1.0, count)
    t[:4] = [0.0, 1.0, 1e-9, 1.0 - 1e-9]
    Z = A + t[:, None] * (B - A)
    Sa, Sb, Sz = (np.array([pairwise_energy(kern, x, p)[0] for x in X])
                  for X in (A, B, Z))
    gauge = ((1.0 - t) * Sa ** (1.0 / p) + t * Sb ** (1.0 / p)) ** p
    chord = (1.0 - t) * Sa + t * Sb
    assert np.all(Sz <= gauge * (1.0 + 1e-12))
    assert np.all(gauge <= chord * (1.0 + 1e-12))
    tp = t ** p * Sa
    St = np.array([pairwise_energy(kern, ta, p)[0] for ta in t[:, None] * A])
    assert np.all(np.abs(St - tp) <= 1e-12 * tp)
