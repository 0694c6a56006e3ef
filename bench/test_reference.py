"""The benchmark's reference against fracbif.verify's quadrature.

    python3 -m pytest bench/test_reference.py

The quadrature integrates the kernel numerically, a separate
derivation of the same weights the reference takes in closed form.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference  # noqa: E402
from fracbif.verify import pair_weight_quadrature, tail_weight_quadrature  # noqa: E402


@pytest.mark.parametrize("n,a,b,sigma", [(5, -1.0, 1.0, 0.9), (6, -2.0, 2.0, 0.3),
                                         (4, 0.0, 1.0, 0.5)])
def test_weights_match_quadrature(n, a, b, sigma):
    k, T = reference.weights(n, a, b, sigma)
    edges = np.linspace(a, b, n + 1)
    cells = list(zip(edges[:-1], edges[1:]))
    for i in range(n):
        for j in range(i + 1, n):
            assert k[j - i] == pytest.approx(
                pair_weight_quadrature(cells[i], cells[j], sigma), rel=1e-10)
        assert T[i] == pytest.approx(tail_weight_quadrature(cells[i], (a, b), sigma),
                                     rel=1e-10)


def test_residual_is_the_energy_gradient():
    prob = reference.Problem(7, -1.0, 1.0, 3.0, 0.3, 2.5, 1.5)
    u = np.random.default_rng(0).uniform(0.2, 2.0, 7)
    lam, eps = 4.0, 1e-6
    f, _ = reference.reaction(u, lam, prob.q, prob.r)
    grad = reference.operator(prob.k, prob.T, u, prob.p) - prob.h * f
    fd = [(prob.energy(u + eps * e, lam) - prob.energy(u - eps * e, lam)) / (2 * eps)
          for e in np.eye(7)]
    assert np.allclose(grad, fd, rtol=1e-7, atol=1e-9)
    assert prob.residual(u, lam) == pytest.approx(np.abs(grad).max())
