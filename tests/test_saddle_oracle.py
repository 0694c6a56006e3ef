"""The mountain-pass saddle checked without trusting the solver.

Every saddle search at a spread of admissible points must end in one of
three honest ways: SaddleNotFound, a report with converged=False, or a
point v that the benchmark's reference discretisation (bench/reference.py,
written apart from fracbif) confirms: its residual there meets the
solver tolerance, 0 < v < u at every node, E(v) > max(0, E(u)), and the
Hessian of the reference energy over even functions, built by central
differences of the reference gradient, has exactly one negative
eigenvalue.
"""

import functools
import importlib.util
import os

import numpy as np
import pytest

from fracbif import (SaddleNotFound, assemble_kernel,
                     build_mesh, find_saddle, minimize_multistart,
                     mirror_fold, select_solution, solvers, validate_params)

_SPEC = importlib.util.spec_from_file_location(
    "bench_reference", os.path.join(os.path.dirname(__file__), os.pardir,
                                    "bench", "reference.py"))
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

N = 32


def even_morse_index(prob, v, lam, rel=1e-6):
    """Negative eigenvalues of the reference Hessian over even functions.

    Column j differentiates the reference gradient along v_j (e_j +
    e_(n-1-j)), so the matrix is D B'HB D with D = diag(v) on the first
    n/2 nodes: congruent to the even-subspace Hessian B'HB, hence of the
    same inertia (Sylvester), and the steps stay inside v > 0 however
    small v is at the boundary.  The matrix is scaled to a unit diagonal
    before its eigenvalues are taken, another congruence: where v spans
    many decades the eigenvalues of D B'HB D that belong to the tails
    lie below eigvalsh's rounding of eps times its norm, and their signs
    would be noise.  The steps scale with v, so v must be positive at
    every node: otherwise ValueError.
    """
    if not np.all(v > 0.0):
        raise ValueError("the oracle steps in proportion to v, which has a "
                         "node at %.3e" % v.min())
    n = v.size
    m = n // 2

    def gradient(w):
        f, _ = reference.reaction(w, lam, prob.q, prob.r)
        return reference.operator(prob.k, prob.T, w, prob.p) - prob.h * f

    M = np.empty((m, m))
    for j in range(m):
        step = np.zeros(n)
        step[j] = step[n - 1 - j] = rel * v[j]
        M[:, j] = v[:m] * (gradient(v + step) - gradient(v - step))[:m] / (2.0 * rel)
    M = 0.5 * (M + M.T)
    scale = 1.0 / np.sqrt(np.abs(np.diagonal(M)))
    return int(np.sum(np.linalg.eigvalsh(M * scale[:, None] * scale) < 0.0))


# the n = 32 saddle sweep, seed 0: ten exponent sets (p < 2, p >= 4)
# at lambda = 12.5 and 40, with how each search ends: "converged" (at
# Morse index one), "SaddleNotFound", or "unconverged" (converged=False)
SWEEP = {
    (3.0, 0.3, 2.5, 1.5, 12.5): "converged",
    (3.0, 0.3, 2.5, 1.5, 40.0): "converged",
    (1.8, 0.4, 1.6, 1.2, 12.5): "converged",
    (1.8, 0.4, 1.6, 1.2, 40.0): "unconverged",
    (2.0, 0.3, 1.7, 1.3, 12.5): "converged",
    (2.0, 0.3, 1.7, 1.3, 40.0): "converged",
    (4.0, 0.2, 3.0, 2.0, 12.5): "converged",
    (4.0, 0.2, 3.0, 2.0, 40.0): "converged",
    (4.0, 0.2, 2.0, 1.5, 12.5): "converged",
    (4.0, 0.2, 2.0, 1.5, 40.0): "unconverged",
    (6.0, 0.1, 5.0, 4.0, 12.5): "converged",
    (6.0, 0.1, 5.0, 4.0, 40.0): "converged",
    (1.5, 0.5, 1.3, 1.1, 12.5): "unconverged",
    (1.5, 0.5, 1.3, 1.1, 40.0): "unconverged",
    (2.5, 0.3, 2.0, 1.5, 12.5): "converged",
    (2.5, 0.3, 2.0, 1.5, 40.0): "converged",
    (3.0, 0.2, 2.0, 1.2, 12.5): "converged",
    (3.0, 0.2, 2.0, 1.2, 40.0): "unconverged",
    (5.0, 0.15, 4.0, 3.0, 12.5): "converged",
    (5.0, 0.15, 4.0, 3.0, 40.0): "converged",
}

# the energy of each converged saddle of SWEEP, as the search took it
# with the tangent Hessian alone; a change of the steps moves it only by
# the tolerance
ENERGY = {
    (3.0, 0.3, 2.5, 1.5, 12.5): 0.007228969535185405,
    (3.0, 0.3, 2.5, 1.5, 40.0): 0.0003808868759880617,
    (1.8, 0.4, 1.6, 1.2, 12.5): 0.0003446493553051047,
    (2.0, 0.3, 1.7, 1.3, 12.5): 6.592580710794462e-05,
    (2.0, 0.3, 1.7, 1.3, 40.0): 2.2160198858222812e-07,
    (4.0, 0.2, 3.0, 2.0, 12.5): 0.00034097053875452755,
    (4.0, 0.2, 3.0, 2.0, 40.0): 1.4723887765897795e-05,
    (4.0, 0.2, 2.0, 1.5, 12.5): 1.0678718615783628e-05,
    (6.0, 0.1, 5.0, 4.0, 12.5): 4.025773916459986e-07,
    (6.0, 0.1, 5.0, 4.0, 40.0): 2.601176644947764e-09,
    (2.5, 0.3, 2.0, 1.5, 12.5): 5.2423391374987e-05,
    (2.5, 0.3, 2.0, 1.5, 40.0): 3.844133885793977e-07,
    (3.0, 0.2, 2.0, 1.2, 12.5): 0.0012851548702724042,
    (5.0, 0.15, 4.0, 3.0, 12.5): 1.0332002807207981e-05,
    (5.0, 0.15, 4.0, 3.0, 40.0): 1.8006303811254592e-07,
}

# (p, s, q, r, lambda): every converged saddle of SWEEP, p < 2, p >= 4,
# near and far above lambda*.  (6, 0.1, 5, 4; 12.5), where the path
# search stopped at Morse index 11, and (6, 0.1, 5, 4; 40) and
# (3, 0.2, 2, 1.2; 12.5), which the ray-peak search gained
POINTS = [(3.0, 0.3, 2.5, 1.5, 12.5), (1.8, 0.4, 1.6, 1.2, 12.5),
          (2.0, 0.3, 1.7, 1.3, 12.5), (4.0, 0.2, 3.0, 2.0, 12.5),
          (4.0, 0.2, 3.0, 2.0, 40.0), (6.0, 0.1, 5.0, 4.0, 12.5),
          (5.0, 0.15, 4.0, 3.0, 12.5), (2.0, 0.3, 1.7, 1.3, 40.0),
          (6.0, 0.1, 5.0, 4.0, 40.0), (3.0, 0.2, 2.0, 1.2, 12.5),
          (3.0, 0.3, 2.5, 1.5, 40.0), (4.0, 0.2, 2.0, 1.5, 12.5),
          (2.5, 0.3, 2.0, 1.5, 12.5), (2.5, 0.3, 2.0, 1.5, 40.0),
          (5.0, 0.15, 4.0, 3.0, 40.0)]


@functools.lru_cache(maxsize=None)
def search(p, s, q, r, lam):
    """The minimizer u at (p, s, q, r; lambda) on n = N, and find_saddle's
    report from it, or None where it raises SaddleNotFound."""
    params = validate_params({"p": p, "s": s, "q": q, "r": r, "lambda": lam})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, N), params)
    u = select_solution(minimize_multistart(kern, params, seed=0))
    assert u.converged and u.classification == "minimizer"
    try:
        rep = find_saddle(kern, params, u.solution.values)
    except SaddleNotFound:
        rep = None
    return u, rep


@pytest.mark.parametrize("p,s,q,r,lam", POINTS)
def test_saddle_is_confirmed_by_the_reference_or_reported_as_failed(p, s, q,
                                                                    r, lam):
    u, rep = search(p, s, q, r, lam)
    if rep is None or not rep.converged:
        return
    prob = reference.Problem(N, -1.0, 1.0, p, s, q, r)
    uu, v = u.solution.values, rep.solution.values
    Eu, Ev = prob.energy(uu, lam), prob.energy(v, lam)
    # relative to the saddle's own scale, as the solver's test is: the
    # absolute bound alone passes any point of small enough A(v)
    Av = reference.operator(prob.k, prob.T, v, p)
    assert prob.residual(v, lam) <= 1e-9 * min(max(1.0, abs(Ev)),
                                               float(np.abs(Av).max()))
    assert np.all(v > 0.0) and np.all(v < uu)
    assert Ev > max(0.0, Eu)
    assert even_morse_index(prob, v, lam) == 1
    assert rep.morse_index == 1


@pytest.mark.parametrize("p,s,q,r,lam", list(SWEEP))
def test_saddle_sweep_outcome_matches_the_table(p, s, q, r, lam):
    # a change to the saddle search that gains or loses a saddle here
    # must update SWEEP, and a gained saddle belongs in POINTS and ENERGY
    # as well
    _u, rep = search(p, s, q, r, lam)
    if rep is None:
        outcome = "SaddleNotFound"
    elif rep.converged:
        assert rep.morse_index == 1
        assert rep.energy == pytest.approx(ENERGY[p, s, q, r, lam], rel=1e-9)
        outcome = "converged"
    else:
        outcome = "unconverged"
    assert outcome == SWEEP[p, s, q, r, lam]


def test_oracle_counts_the_index_of_a_spike_with_tiny_tails():
    # the search ends unconverged here, at a spike with nodes that are
    # exactly 0; the spike checked is that point with its zero nodes
    # replaced by even tails from 1e-27 to 1e-16.  Unscaled, the
    # oracle's matrix had eigenvalues below its rounding at such a spike
    # and counted 7 negative ones
    p, s, q, r, lam = 4.0, 0.2, 2.0, 1.5, 40.0
    _u, rep = search(p, s, q, r, lam)
    assert not rep.converged
    v = rep.solution.values.copy()
    zero = np.flatnonzero(v[:N // 2] == 0.0)
    assert zero.size > 0
    prob = reference.Problem(N, -1.0, 1.0, p, s, q, r)
    with pytest.raises(ValueError):
        even_morse_index(prob, v, lam)
    v[zero] = v[N - 1 - zero] = np.geomspace(1e-27, 1e-16, zero.size)
    assert v.min() < 1e-20 * v.max()
    params = validate_params({"p": p, "s": s, "q": q, "r": r, "lambda": lam})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, N), params)
    index = solvers._morse_index(kern, params, mirror_fold(v))
    assert even_morse_index(prob, v, lam) == index == 1
