"""lambda*_h checked by the saddle-node normal form, apart from the fold solve.

Near a simple fold lambda*_h both branches follow the saddle-node normal
form (Keller 1977; Crandall and Rabinowitz, Arch. Rational Mech. Anal.
52, 1973).  With d = lambda - lambda*_h, the least eigenvalue of the
even-subspace Hessian is

    kappa_u = c sqrt(d) + O(d)      at the minimizer u(lambda),
    kappa_v = -c sqrt(d) + O(d)     at the mountain-pass point v(lambda),

and E(v) - E(u) = C d^1.5 + O(d^2).  So kappa_u / sqrt(d) and
(E(v) - E(u)) / d^1.5 tend to constants, and kappa_v / kappa_u to -1,
each with a correction of O(sqrt(d)); and kappa_u^2 = c^2 d + O(d^1.5),
so the secant through its values at d and d/2 meets lambda*_h within
O(d^1.5).  The points come from minimize and find_saddle alone, and the
eigenvalues from eigvalsh: solve_fold only names the lambda*_h checked.
"""

import numpy as np
import pytest

from fracbif import (ReactionModel, assemble_kernel, build_mesh, find_saddle,
                     minimize, minimize_multistart, mirror_fold,
                     select_solution, solve_fold, total_hessian,
                     validate_params, with_lambda)

# d halves from 0.16 to 0.005
STEPS = 0.16 / 2.0 ** np.arange(6)
# a correction of O(d^a) shrinks by 2^-a from each d to the next; the
# observed factor may exceed that by this much before the asymptotic
# regime
SLACK = 1.25


def _shrinks_like(corrections, order):
    """Whether each correction has the sign of the one before and at most
    SLACK * 2^-order of its size, as a correction of O(d^order) does
    once d halves."""
    ratios = np.asarray(corrections[1:]) / np.asarray(corrections[:-1])
    return bool(np.all((ratios > 0.0) & (ratios <= SLACK * 2.0 ** -order)))


@pytest.fixture(scope="module")
def demo_branches():
    """lambda*_h of the demo at n = 128, from the fold solve started at
    the minimizer at lambda = 9, and at lambda*_h + d for each d of
    STEPS: kappa_u, kappa_v and E(v) - E(u)."""
    params = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                              "lambda": 9.0})
    kern = assemble_kernel(build_mesh(-1.0, 1.0, 128), params)
    u9 = select_solution(minimize_multistart(kern,
                                             ReactionModel.plain(params),
                                             seed=0))
    fold = solve_fold(kern, params, u9.solution)
    assert fold.converged
    rows = []
    for d in STEPS:
        near = with_lambda(params, fold.lam + d)
        model = ReactionModel.plain(near)
        u = minimize(kern, model, fold.solution.values)
        assert u.converged and u.classification == "minimizer"
        v = find_saddle(kern, near, u.solution.values)
        assert v.converged and v.morse_index == 1
        kappa_u, kappa_v = (
            float(np.linalg.eigvalsh(total_hessian(
                kern, model, mirror_fold(w.solution.values)))[0])
            for w in (u, v))
        rows.append((kappa_u, kappa_v, v.energy - u.energy))
    return fold.lam, np.array(rows)


def test_both_branches_follow_the_normal_form(demo_branches):
    _, rows = demo_branches
    kappa_u, kappa_v, gap = rows.T
    assert np.all(kappa_u > 0.0) and np.all(kappa_v < 0.0)
    assert np.all(gap > 0.0)
    # c + O(sqrt(d)) and C + O(sqrt(d)): the steps between successive d
    assert _shrinks_like(np.diff(kappa_u / np.sqrt(STEPS)), 0.5)
    assert _shrinks_like(np.diff(gap / STEPS ** 1.5), 0.5)
    # -1 + O(sqrt(d))
    assert _shrinks_like(1.0 + kappa_v / kappa_u, 0.5)


def test_the_zero_of_the_least_curvature_meets_the_fold(demo_branches):
    lam_h, rows = demo_branches
    lam = lam_h + STEPS
    square = rows[:, 0] ** 2
    zeros = lam[:-1] - square[:-1] * np.diff(lam) / np.diff(square)
    # lambda*_h + O(d^1.5)
    assert _shrinks_like(zeros - lam_h, 1.5)
