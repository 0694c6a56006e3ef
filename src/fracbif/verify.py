"""Self-contained verification suite behind the `verify` command.

Re-derives the kernel weights by numerical quadrature (independent of
the closed form), finite-differences the energy gradient, re-solves the
p=2 eigenproblem densely, and scans the reaction inequalities (among
them the one behind the closed-form nonexistence bound lambda_low).  Each
check returns (name, passed, detail); the command exits nonzero if any
fails.  Evidence that several checks read (the kernel comparison, the
n = 32 kernel, the operator-property trials) is computed once and
shared; a step that raises is not kept, so it runs again, and fails,
in every check that reads it.  The kernel, gradient and operator checks
draw vectors that are not even, so they run on the full n x n kernel
(KernelMatrix.full_from_sigma); the eigen and nonexistence checks run
the solvers, on the even kernel that they take, and the p = 2 eigen
oracle compares with the dense eigenvalues of the full one.

The quadrature oracle reduces each double integral over a cell pair to
one dimension: with m(rho) the measure of {(x, y) in C_i x C_j :
|x - y| = rho} collapsed along the diagonal,

    K[i][j] = integral rho^-(1+sigma) * m(rho) d(rho),

where m is a piecewise-linear trapezoid profile.  Substituting
rho = e^v turns the endpoint singularity into a decaying exponential,
which fixed Gauss-Legendre panels integrate to near machine precision
for every sigma in (0, 1); the same reduction handles exterior tails
with an exponentially decaying upper end.
"""

from functools import cache, partial

import numpy as np

from .core import build_mesh, with_lambda
from .bifurcation import _lower_bound_and_mu
from .config import problem_params
from .diagnostics import gradient_check, verify_operator_properties
from .kernel import KernelMatrix, apply_operator, pairing, seminorm_energy
from .reaction import (ReactionModel, scan_reaction_slack,
                       sign_threshold_delta, f_values)
from .solvers import SolverOptions, _ratio_peak, principal_eigenpair

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_DECAY = 45.0          # e^-45 ~ 3e-20: relative truncation of exp tails


def _log_panels(sigma, rho_kinks, infinite):
    """Panel breakpoints in v = log(rho) covering the integration range.

    Exponential extensions (toward the rho = 0 singularity and toward
    rho = infinity) are cut where the integrand has decayed by e^-45
    relative, but never further than 700 log units so rho stays inside
    the float64 window; that keeps truncation below 1e-8 relative for
    sigma in [0.03, 0.97], far past any exponent used here.
    """
    finite = sorted(set(float(k) for k in rho_kinks if k > 0.0))
    vs = [np.log(k) for k in finite]
    if rho_kinks[0] == 0.0:
        vs.insert(0, vs[0] - min(_DECAY / (1.0 - sigma), 700.0))
    if infinite:
        vs.append(vs[-1] + min(_DECAY / sigma, 700.0))
    panels = []
    for v0, v1 in zip(vs[:-1], vs[1:]):
        k = max(1, int(np.ceil((v1 - v0) / 3.0)))
        edges = np.linspace(v0, v1, k + 1)
        panels.extend(zip(edges[:-1], edges[1:]))
    return panels


def _power_weight_integral(sigma, rho_kinks, m, infinite=False):
    """integral rho^-(1+sigma) m(rho) d(rho) via log-substituted Gauss panels.

    rho_kinks: sorted breakpoints of m (first may be 0, the singular
    end); with infinite=True the range extends to rho = infinity where
    m must be bounded.  The integrand is evaluated as
    exp(log m - sigma*v), which cannot overflow where m is positive.
    """
    total = 0.0
    for v0, v1 in _log_panels(sigma, rho_kinks, infinite):
        half = 0.5 * (v1 - v0)
        v = 0.5 * (v0 + v1) + half * _GL_NODES
        mm = np.asarray(m(np.exp(v)), dtype=float)
        pos = mm > 0.0
        g = np.zeros_like(mm)
        g[pos] = np.exp(np.log(mm[pos]) - sigma * v[pos])
        total += half * float(np.sum(_GL_WEIGHTS * g))
    return total


def pair_weight_quadrature(cell_i, cell_j, sigma):
    """Quadrature value of the pair weight for two disjoint cells."""
    (a1, b1), (a2, b2) = sorted([tuple(cell_i), tuple(cell_j)])
    if b1 > a2 + 1e-15 * max(abs(b1), abs(a2), 1.0):
        raise ValueError("cells overlap")
    w1 = b1 - a1
    w2 = b2 - a2
    gap = a2 - b1

    def m(rho):
        d = rho - gap
        return np.clip(np.minimum(d, w1 + w2 - d), 0.0,
                       min(w1, w2))

    kinks = [gap, gap + min(w1, w2), gap + max(w1, w2), gap + w1 + w2]
    return _power_weight_integral(sigma, kinks, m)


def tail_weight_quadrature(cell, domain, sigma):
    """Quadrature value of the exterior tail weight of one cell."""
    a1, b1 = cell
    a, b = domain
    w = b1 - a1

    def side(gap):
        # overlap measure is a ramp rho - gap saturating at the cell
        # width; keeping it in this form avoids cancellation when the
        # cell touches the boundary (gap = 0, rho tiny)
        def m(rho):
            return np.clip(rho - gap, 0.0, w)
        return _power_weight_integral(sigma, [gap, gap + w], m,
                                      infinite=True)

    return side(b - b1) + side(a1 - a)


def _kernel_checks(make_kernel, sigma):
    mesh = build_mesh(-1.0, 1.0, 3)
    kern = make_kernel(mesh, sigma)
    worst_pair = 0.0
    for i in range(mesh.n):
        for j in range(i + 1, mesh.n):
            ref = pair_weight_quadrature(
                (mesh.cell_edges[i], mesh.cell_edges[i + 1]),
                (mesh.cell_edges[j], mesh.cell_edges[j + 1]), sigma)
            worst_pair = max(worst_pair, abs(kern.K[i, j] - ref) / abs(ref))
    worst_tail = 0.0
    for i in range(mesh.n):
        ref = tail_weight_quadrature(
            (mesh.cell_edges[i], mesh.cell_edges[i + 1]), (-1.0, 1.0), sigma)
        worst_tail = max(worst_tail, abs(kern.T[i] - ref) / abs(ref))

    mesh2 = build_mesh(-1.0, 1.0, 2)
    kern2 = make_kernel(mesh2, 0.5)
    anchor = abs(kern2.K[0, 1] - (8.0 - 4.0 * np.sqrt(2.0)))
    tail_anchor = abs(kern2.T[1] - 4.0 * np.sqrt(2.0))
    return worst_pair, worst_tail, anchor, tail_anchor


def run_verification(cfg, kernel_hook=None):
    """Execute every check; returns (all_passed, [(name, ok, detail)]).

    kernel_hook, when given, receives every kernel assembled, full and
    even, and returns the one to check."""
    results = []
    hook = kernel_hook or (lambda k: k)

    def make_kernel(mesh, sigma):
        return hook(KernelMatrix.full_from_sigma(mesh, sigma))

    def make_even_kernel(mesh, sigma):
        return hook(KernelMatrix.from_sigma(mesh, sigma))

    def run(name, func):
        try:
            ok, detail = func()
        except Exception as exc:           # a crashed check is a failed check
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append((name, bool(ok), detail))

    params = problem_params(cfg)
    sigma = params.sigma
    quick = SolverOptions(tol=cfg.tol, max_iter=min(cfg.max_iter, 4000))

    kernel_report = cache(lambda: _kernel_checks(make_kernel, sigma))
    kernel32 = cache(lambda: make_kernel(build_mesh(-1.0, 1.0, 32), sigma))
    mon_report = cache(lambda: verify_operator_properties(
        kernel32(), params.p, trials=cfg.trials, seed=cfg.seed))

    def kernel_oracle():
        worst_pair, _, anchor, _ = kernel_report()
        ok = worst_pair <= 1e-8 and anchor <= 1e-12
        return ok, ("pair rel err %.2e, two-cell anchor err %.2e"
                    % (worst_pair, anchor))

    def tail_oracle():
        _, worst_tail, _, tail_anchor = kernel_report()
        ok = worst_tail <= 1e-8 and tail_anchor <= 1e-12
        return ok, ("tail rel err %.2e, two-cell anchor err %.2e"
                    % (worst_tail, tail_anchor))

    def gradient():
        mesh = build_mesh(-1.0, 1.0, 24)
        kern = make_kernel(mesh, sigma)
        model = ReactionModel.plain(params)
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for _ in range(5):
            u = rng.standard_normal(mesh.n)
            worst = max(worst, gradient_check(kern, model, u))
        return worst <= 1e-6, "max rel gradient err %.2e" % worst

    def euler_identity():
        kern = kernel32()
        rng = np.random.default_rng(cfg.seed + 1)
        worst = 0.0
        for _ in range(50):
            u = rng.standard_normal(kern.n)
            lhs = pairing(apply_operator(kern, u, params.p), u)
            rhs = params.p * seminorm_energy(kern, u, params.p)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        return worst <= 1e-12, "identity rel err %.2e" % worst

    def eigen_oracle():
        mesh = build_mesh(-1.0, 1.0, 80)
        eig = principal_eigenpair(make_even_kernel(mesh, 0.4), 2.0, quick)
        kern = make_kernel(mesh, 0.4)
        M = 2.0 * (np.diag(kern.K.sum(axis=1) + kern.T) - kern.K)
        values = np.linalg.eigvalsh(M / mesh.h)
        rel = abs(eig.value - values[0]) / abs(values[0])
        return (eig.converged and rel <= 1e-7,
                "rel eigenvalue err %.2e" % rel)

    def mon(which):
        report = mon_report()
        return (report["checks"][which],
                "worst margin %.3e" % report["worst"][which])

    def delta_threshold():
        if params.lam <= 0.0:
            return True, "skipped (lambda = 0)"
        delta = sign_threshold_delta(params)
        t = np.linspace(0.0, delta, 20_001)
        model = ReactionModel.plain(params)
        worst = float(np.max(f_values(model, t)))
        past = float(f_values(model, np.array([2.0 * delta]))[0])
        return (worst <= 1e-12 and past > 0.0,
                "max f on [0, delta] = %.2e, f(2 delta) = %.2e" % (worst, past))

    def nonexistence():
        # the closed-form lambda_low of lambda_lower_bound is where the
        # scanned reaction first rises above mu t^(p-1), with mu the
        # Picone constant of the eigenfunction it rests on
        mesh = build_mesh(-1.0, 1.0, 64)
        kern = make_even_kernel(mesh, sigma)
        eig = principal_eigenpair(kern, params.p, quick)
        if not eig.converged:
            return False, "eigen solve did not converge"
        lam_low, mu = _lower_bound_and_mu(kern, params, eig)
        if lam_low is None:
            return False, "no nonexistence certificate for this kernel"
        slack = []
        for lam in ((1.0 - 1e-6) * lam_low, 1.001 * lam_low):
            # the scan covers the maximiser of f(t) / t^(p-1)
            at = with_lambda(params, lam)
            slack.append(scan_reaction_slack(at, mu,
                                             t_max=3.0 * _ratio_peak(at)))
        return slack[0] <= 0.0 < slack[1], (
            "max f - mu t^(p-1) over scan = %.2e below lambda_low = %.6g, "
            "%.2e above (mu = %.6g)" % (slack[0], lam_low, slack[1], mu))

    run("kernel-oracle", kernel_oracle)
    run("tail-oracle", tail_oracle)
    run("gradient", gradient)
    run("euler-identity", euler_identity)
    run("eigen-oracle-p2", eigen_oracle)
    for which in ("mon-i", "mon-ii", "mon-iii"):
        run(which, partial(mon, which))
    run("delta-threshold", delta_threshold)
    run("nonexistence-scan", nonexistence)
    return all(ok for _, ok, _ in results), results
