"""Qualitative checks on computed solutions.

Positive solutions of the continuous problem behave like dist(x)^s at
the boundary: the ratio u/d^s is bounded above (weighted sup norm),
bounded below away from zero (Hopf-type ratio), and Holder continuous
with any exponent below s.  These diagnostics report the discrete
counterparts and the ordering margins between two solutions, and hold
the operator-property trials and the finite-difference gradient check
that the verify command runs.
"""

import numpy as np

from .core import ParameterError, odd_power
from .kernel import PAIR_BUDGET, apply_operator, pairing, seminorm_energy
from .solvers import total_energy, total_gradient

MON_EXPONENTS = (1.0, 1.7, 2.4)  # the t of the mon-iii probes, cycled
MON_TOL = 1e-12                  # slack of the mon-i and mon-iii checks
FD_STEP = 1e-6                   # central-difference step of gradient_check


def hopf_ratio(u, s):
    """min_i u_i / dist_i^s; positive iff u sits above a multiple of d^s."""
    return float(np.min(u.values / u.mesh.dist ** s))


def boundary_ratios(u, s, alpha=None):
    """Weighted boundary norms of u/d^s.

    Returns (sup_ratio, holder_ratio): the sup norm of w = u/d^s and
    the discrete Holder quotient max |w_i - w_j| / |x_i - x_j|^alpha.
    alpha defaults to 0.9*s and must satisfy 0 <= alpha < s.  The
    quotients are taken over blocks of rows of at most PAIR_BUDGET
    pairs, as the pairwise sums are.
    """
    if alpha is None:
        alpha = 0.9 * s
    if not 0.0 <= alpha < s:
        raise ParameterError("need 0 <= alpha < s, got alpha=%g, s=%g" % (alpha, s))
    w = u.values / u.mesh.dist ** s
    x = u.mesh.nodes
    rows = max(1, PAIR_BUDGET // len(w))
    holder = 0.0
    for lo in range(0, len(w), rows):
        dw = np.abs(w[lo:lo + rows, None] - w)
        dx = np.abs(x[lo:lo + rows, None] - x)
        quotient = np.divide(dw, dx ** alpha, out=np.zeros_like(dw),
                             where=dx > 0.0)
        holder = max(holder, float(np.max(quotient)))
    return float(np.max(np.abs(w))), holder


def check_ordering(u, v, s=None):
    """Margins of u >= v: plain min(u - v) and, when s is given, the
    weighted margin min((u - v)/d^s)."""
    if u.mesh != v.mesh:
        raise ValueError("ordering check needs both functions on one mesh")
    diff = u.values - v.values
    margin = float(np.min(diff))
    if s is None:
        return margin, None
    weighted = float(np.min(diff / u.mesh.dist ** s))
    return margin, weighted


def verify_operator_properties(kern, p, trials=200, seed=0):
    """Monotonicity/positivity trials for the discrete operator.

    For seeded random pairs (u, v) this checks, with slack MON_TOL:

    * pairing(A(u), u+) >= p * energy(u+), same with -u^- and u^-;
    * pairing(A(u) - A(v), (u - v)+) > 0 whenever (u - v)+ is nonzero;
    * pairing(A(u) - A(v), odd_power(u - v, t + 1)) >= 0 for t >= 1,
      t cycling through MON_EXPONENTS.

    Returns a dict of worst margins and an overall pass flag; with no
    trial there is nothing to pass, so trials < 1 raises ParameterError.
    """
    if not trials >= 1:
        raise ParameterError("trials must be at least 1, got %r" % trials)
    rng = np.random.default_rng(seed)
    n = len(kern.T)
    worst = {"mon-i": np.inf, "mon-ii": np.inf, "mon-iii": np.inf}
    for k in range(trials):
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        u = scale * rng.standard_normal(n)
        v = scale * rng.standard_normal(n)
        Au = apply_operator(kern, u, p)
        Av = apply_operator(kern, v, p)

        up = np.maximum(u, 0.0)
        um = np.maximum(-u, 0.0)
        mi = min(pairing(Au, up) - p * seminorm_energy(kern, up, p),
                 pairing(Au, -um) - p * seminorm_energy(kern, um, p))
        worst["mon-i"] = min(worst["mon-i"], mi)

        w = np.maximum(u - v, 0.0)
        if np.max(w) > 0.0:
            worst["mon-ii"] = min(worst["mon-ii"], pairing(Au - Av, w))

        t = MON_EXPONENTS[k % len(MON_EXPONENTS)]
        probe = odd_power(u - v, t + 1.0)
        worst["mon-iii"] = min(worst["mon-iii"], pairing(Au - Av, probe))
    checks = {"mon-i": worst["mon-i"] >= -MON_TOL,
              "mon-ii": worst["mon-ii"] > 1e-14,
              "mon-iii": worst["mon-iii"] >= -MON_TOL}
    return {"worst": worst, "checks": checks,
            "passed": all(checks.values()),
            "failures": sorted(k for k, ok in checks.items() if not ok)}


def gradient_check(kern, params, u):
    """Max relative sup-error of the analytic gradient against central
    differences, of step FD_STEP, of the total energy."""
    u = np.asarray(getattr(u, "values", u), dtype=float)
    g = total_gradient(kern, params, u)
    fd = np.empty_like(g)
    for i in range(len(u)):
        bump = np.zeros_like(u)
        bump[i] = FD_STEP
        fd[i] = (total_energy(kern, params, u + bump)
                 - total_energy(kern, params, u - bump)) / (2.0 * FD_STEP)
    denom = max(float(np.max(np.abs(g))), 1e-300)
    return float(np.max(np.abs(fd - g))) / denom
