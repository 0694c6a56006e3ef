"""The mountain-pass path search evaluates only the points whose energy
bound reaches the best energy found, and must pick the point, and the
bits of its energy, that the energies of the whole path give."""

import functools
import inspect

import numpy as np
import pytest

from fracbif import (KernelMatrix, ReactionModel, SaddleNotFound,
                     SolverOptions, assemble_kernel, build_mesh, find_saddle,
                     mirror_fold, minimize_multistart, select_solution,
                     validate_params)
from fracbif import kernel, solvers
from fracbif.kernel import pairwise_energy

DEMO = (3.0, 0.3, 2.5, 1.5)


@functools.lru_cache(maxsize=None)
def problem(p, s, q, r, lam, n):
    """Kernel, parameters and the selected minimizer at seed 0."""
    params = validate_params({"p": p, "s": s, "q": q, "r": r, "lambda": lam})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, n), params)
    u = select_solution(minimize_multistart(kern, ReactionModel.plain(params),
                                            seed=0))
    assert u.converged and u.classification == "minimizer"
    return kern, params, u.solution.values


def outcome(kern, params, u, opts=None):
    """find_saddle's report as bits, or the SaddleNotFound message."""
    try:
        rep = find_saddle(kern, params, u, opts=opts)
    except SaddleNotFound as exc:
        return "SaddleNotFound: %s" % exc
    return (rep.solution.values.tobytes(), rep.energy, rep.residual,
            rep.iterations, rep.converged, rep.morse_index)


def path_energies(kern, model, Z):
    """total_energy of every point of the path Z."""
    return np.array([solvers.total_energy(kern, model, z) for z in Z])


def dense_highest(kern, model, Z, upper, energies, known, gradients):
    # every point's energy, as the search computed it before the bound,
    # and gradient
    for k, z in enumerate(Z):
        energies[k], gradients[k] = solvers._energy_and_gradient(kern, model, z)
    known[:] = True
    return 1 + int(np.argmax(energies[1:-1]))


@pytest.mark.parametrize("point,n,opts,raises", [
    (DEMO + (12.5,), 128, None, False),
    (DEMO + (7.0,), 128, None, False),
    ((1.8, 0.4, 1.6, 1.2, 12.5), 32, None, False),
    ((4.0, 0.2, 3.0, 2.0, 40.0), 32, None, False),
    ((5.0, 0.15, 4.0, 3.0, 40.0), 32, None, False),
    ((1.5, 0.5, 1.3, 1.1, 12.5), 32, None, True),
    # the loop runs out right after a step
    (DEMO + (12.5,), 128, SolverOptions(max_iter=5), False),
])
def test_lazy_maximum_is_the_whole_path_maximum(monkeypatch, point, n, opts,
                                               raises):
    kern, params, u = problem(*point, n)
    highest = solvers._highest
    calls = []

    def checked(kern, model, Z, upper, energies, known, gradients):
        dense = path_energies(kern, model, Z)
        unknown = ~known
        assert np.all(upper[unknown] >= dense[unknown])
        m = highest(kern, model, Z, upper, energies, known, gradients)
        assert energies[known].tobytes() == dense[known].tobytes()
        assert m == 1 + int(np.argmax(dense[1:-1]))
        # the search steps from the gradient of the evaluation that found m
        assert (gradients[m].tobytes()
                == solvers.total_gradient(kern, model, Z[m]).tobytes())
        calls.append(m)
        return m

    monkeypatch.setattr(solvers, "_highest", checked)
    lazy = outcome(kern, params, u, opts)
    monkeypatch.setattr(solvers, "_highest", dense_highest)
    assert lazy == outcome(kern, params, u, opts)
    assert isinstance(lazy, str) == raises
    if opts is not None:
        assert len(calls) == opts.max_iter


def test_run_out_search_evaluates_the_moved_point(monkeypatch):
    # at the max_iter exit the path has just been redistributed, and the
    # collapse test reads the energy of the new point at the old index m
    kern, params, u = problem(*DEMO, 12.5, 128)
    fk, model = kern, ReactionModel.plain(params)
    energy = solvers.total_energy
    last = []

    def recorded(kern, model, z):
        out = energy(kern, model, z)
        last[:] = [z.copy(), out]
        return out

    monkeypatch.setattr(solvers, "total_energy", recorded)
    opts = SolverOptions(max_iter=5)
    Z, m, iterations, _ = solvers._mountain_pass(fk, model, mirror_fold(u),
                                                 opts.path_points, opts)
    assert iterations == 5
    point, E = last
    assert np.array_equal(point, Z[m])
    assert E == path_energies(fk, model, Z)[m]


def test_saddle_search_evaluates_a_tenth_of_the_path(monkeypatch):
    # the whole path took (path_points - 2) rows an iteration; at the
    # demo point _highest evaluates 40 of them in 38 iterations, each by
    # one pass that gives its energy and gradient
    kern, params, u = problem(*DEMO, 12.5, 128)
    energy, highest = solvers._energy_and_gradient, solvers._highest
    searching, rows = [], []

    def counted(*args):
        rows.extend(searching)
        return energy(*args)

    def search(*args):
        searching.append(1)
        try:
            return highest(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(solvers, "_energy_and_gradient", counted)
    monkeypatch.setattr(solvers, "_highest", search)
    rep = find_saddle(kern, params, u)
    assert rep.converged
    whole = (SolverOptions().path_points - 2) * rep.iterations
    assert 0 < len(rows) <= whole / 10
    assert (len(rows), rep.iterations) == (40, 38)


def test_saddle_search_takes_one_pairwise_pass_a_point(monkeypatch):
    # pairwise_energy always returns the energy and the operator, and
    # the search reads E and g of its highest point from the pass that
    # found it: 101 passes at the demo point, where a second, fused pass
    # after an energy-only one took 136
    assert list(inspect.signature(kernel.pairwise_energy).parameters) == [
        "kern", "u", "p"]
    kern, params, u = problem(*DEMO, 12.5, 128)
    passes, calls = kernel.pairwise_energy, []

    def counted(*args):
        calls.append(1)
        return passes(*args)

    monkeypatch.setattr(kernel, "pairwise_energy", counted)
    rep = find_saddle(kern, params, u)
    assert rep.converged
    assert len(calls) <= 101


@pytest.mark.parametrize("p", [1.3, 1.8, 3.0, 5.0])
@pytest.mark.parametrize("folded", [False, True])
def test_seminorm_energy_bounds_hold_to_the_margin(p, folded):
    # the two inequalities the path bound rests on, convexity (in its
    # S^(1/p) form and in the plain one) and p-homogeneity, each for S
    # as computed and within _widened's margin (here with F = 0)
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
    Z = A + t[:, None] * (B - A)                        # as _reequispace
    Sa, Sb, Sz = (np.array([pairwise_energy(kern, x, p)[0] for x in X])
                  for X in (A, B, Z))
    gauge = ((1.0 - t) * Sa ** (1.0 / p) + t * Sb ** (1.0 / p)) ** p
    chord = (1.0 - t) * Sa + t * Sb
    zero = np.zeros(count)
    assert np.all(Sz <= solvers._widened(gauge, zero))
    assert np.all(gauge <= solvers._widened(chord, zero))
    tp = t ** p * Sa
    St = np.array([pairwise_energy(kern, ta, p)[0] for ta in t[:, None] * A])
    assert np.all(np.abs(St - tp) <= solvers._widened(tp, zero) - tp)


def test_highest_keeps_the_first_of_tied_maxima():
    # rows 2 and 4 are the same point, the path's highest; row 4, whose
    # bound is not finite, is evaluated first, and row 2, whose bound
    # is its energy exactly, must still be evaluated and win the tie
    kern, params, u = problem(*DEMO, 12.5, 128)
    fk, model = kern, ReactionModel.plain(params)
    w = mirror_fold(u)
    frac = np.linspace(0.0, 1.0, 41) ** 2
    k = int(np.argmax(path_energies(fk, model, frac[:, None] * w)))
    Z = frac[[0, k - 1, k, k + 1, k, k + 2, -1], None] * w
    dense = path_energies(fk, model, Z)
    assert dense[2] == dense[4] == np.max(dense)
    upper = dense.copy()
    upper[4] = np.inf
    known = np.zeros(len(Z), dtype=bool)
    known[[0, -1]] = True
    energies = np.where(known, dense, 0.0)
    gradients = np.zeros_like(Z)
    assert solvers._highest(fk, model, Z, upper, energies, known,
                            gradients) == 2
    assert energies[2] == dense[2]
    assert np.array_equal(gradients[2], solvers.total_gradient(fk, model, Z[2]))
    assert not known[[1, 3, 5]].any()
