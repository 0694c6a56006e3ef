"""Energy descent, eigenpair search, and the mountain-pass saddle.

All solvers work on the total energy

    total_energy(u) = seminorm_energy(u) - h * sum_i F(i, u_i)

whose exact gradient is apply_operator(u) - h * f(., u).  minimize
takes damped Newton steps on the exact Hessian (total_hessian) with
every curvature taken by its modulus, so each step descends: the Newton
step where a Cholesky factorization shows the Hessian positive
definite, and elsewhere one through its eigendecomposition.  Each step
backtracks from the full length until Armijo's decrease holds; near a
minimizer that decrease drops below the rounding of the energy (1e-13 *
max(1, |E|)), and from there a step is accepted on its slope instead,
by the approximate Wolfe test of Hager and Zhang, so descent runs on to
the residual target rather than stalling on noise.  principal_eigenpair
takes damped Newton steps on the bordered eigen system (the eigen
equation plus the normalization, solved for the eigenfunction and the
eigenvalue together with the exact Hessian of the operator) from its
first iterate, each accepted only if the residual falls, and gives up
once no step lowers it or the residual has stopped moving.
find_saddle runs a mountain-pass search on the capped energy between
the zero function and a known minimizer: the maximal-energy point of a
piecewise-linear path is pushed downhill, with the path redistributed
at fixed arclength fractions, until progress stalls at the path
resolution.  The maximal point alone then takes damped min-max Newton
steps on the exact Hessian (total_hessian), and the result counts if
it converges to a point of Morse index one.  Otherwise the search
returns to where the descent stopped and climbs to the saddle by
reflecting the gradient across the lowest eigenvector of that Hessian,
with a plain Newton polish for the degenerate modes.  The rest of the
path stays where the descent left it.  The saddle search reads
curvature from that Hessian alone.

The solutions sought are even under the mirror map of the interval, so
every solver works in the even subspace: it folds the kernel
(KernelMatrix.fold), the reaction model and its start onto the first
ceil(n/2) nodes on entry, solves there, and unfolds the result.  On
the folded kernel the energy of a point is half the energy of its
unfolding and the gradient is the full one times the node weight, so
the stopping tests read the full-space energy copies * E and residual
sup |g / weight| (KernelMatrix.copies is 2 on a folded kernel and 1 on
a full one, so the loops are right on either).  Every report carries
the energy and residual of the unfolded point measured on the full
kernel, computed after the folded kernel is released: a kernel that is
not mirror symmetric cannot pass for converged.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (GridFunction, MeshMismatchError, ParameterError,
                   curvature_power, mirror_fold, mirror_unfold, odd_power)
from .kernel import (apply_operator, operator_hessian, pairwise_energy,
                     seminorm_energy, seminorm_energy_and_operator)
from .reaction import (ReactionModel, F_values, df_values, f_values,
                       sign_threshold_delta)


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a trustworthy result."""


class SaddleNotFound(SolverError):
    """Raised when the mountain-pass path collapses onto an endpoint.

    bifurcation.solve_at_lambda sets point to the BranchPoint of the
    minimizer it had found, without a saddle, so callers can keep it.
    """

    point = None


NEWTON_HALVINGS = 8     # step lengths t, t/2, ... an eigen Newton step may try
STALL_WINDOW = 20       # eigen Newton steps over which the residual must fall
STALL_DECREASE = 5e-3   # by this fraction, or the eigen iteration gives up
SADDLE_ROUNDS = 60      # min-max Newton steps the saddle finish may take
ARMIJO = 1e-4           # sufficient-decrease fraction of every line search
BACKTRACK = 0.5         # step shrink factor while backtracking
STEP_MAX = 1e2          # cap on the step scale of the saddle's path descent


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the descent-based solvers; a value out of range
    raises ParameterError."""

    tol: float = 1e-9
    max_iter: int = 50_000
    zero_tol: float = 1e-6
    starts: int = 10
    path_points: int = 41
    damping: float = 0.2
    width: float = 0.05

    def __post_init__(self):
        # a zero or negative tolerance or width is never met, a path descent
        # with zero or negative damping never moves, so the loops that
        # read them run on to their caps or forever; with no start there
        # is no report to select, and with no step nothing converges
        for name in ("tol", "width", "damping"):
            if not getattr(self, name) > 0.0:
                raise ParameterError("%s must be positive, got %r"
                                     % (name, getattr(self, name)))
        for name, least in (("starts", 1), ("max_iter", 1),
                            ("path_points", 5)):
            if not getattr(self, name) >= least:
                raise ParameterError("%s must be at least %d, got %r"
                                     % (name, least, getattr(self, name)))


@dataclass
class SolveReport:
    """Outcome of one energy descent (or saddle search)."""

    solution: GridFunction
    energy: float
    residual: float
    iterations: int
    converged: bool
    classification: str
    morse_index: int = None     # saddles: negative even-subspace curvatures


@dataclass
class EigenResult:
    value: float
    eigenfunction: GridFunction
    residual: float
    iterations: int
    converged: bool


@dataclass
class MountainPassPath:
    points: np.ndarray      # (P, n) path in state space, endpoints fixed
    energies: np.ndarray    # (P,)
    max_index: int


def _check_compat(kern, params):
    sigma = params.p * params.s
    if abs(kern.sigma - sigma) > 1e-9 * max(1.0, sigma):
        raise MeshMismatchError(
            "kernel of order %g used with parameters of order p*s=%g"
            % (kern.sigma, sigma))


def total_energy(kern, model, u):
    """Seminorm energy minus the integrated reaction primitive."""
    S = seminorm_energy(kern, u, model.params.p)
    return S - kern.mesh.h * float(np.sum(kern.weight * F_values(model, u)))


def total_gradient(kern, model, u):
    """Exact gradient of total_energy at u."""
    A = apply_operator(kern, u, model.params.p)
    return A - kern.mesh.h * kern.weight * f_values(model, u)


def total_hessian(kern, model, u):
    """Exact Hessian of total_energy at u, a dense symmetric n x n matrix."""
    H = operator_hessian(kern, u, model.params.p)
    H[np.diag_indices_from(H)] -= kern.mesh.h * kern.weight * df_values(model, u)
    return H


def _energy_and_gradient(kern, model, u):
    S, A = seminorm_energy_and_operator(kern, u, model.params.p)
    h = kern.mesh.h
    E = S - h * float(np.sum(kern.weight * F_values(model, u)))
    g = A - h * kern.weight * f_values(model, u)
    return E, g


def _batch_energy(kern, model, Z):
    """total_energy for every row of Z at once."""
    S = pairwise_energy(kern, Z, model.params.p)
    return S - kern.mesh.h * np.sum(kern.weight * F_values(model, Z), axis=1)


def _sup(x):
    return float(np.max(np.abs(x)))


def _residual(kern, g):
    """Sup-norm of the full-space gradient that a folded gradient g stands for."""
    return _sup(g / kern.weight)


def _scale(kern, E):
    """max(1, |energy|) of the full-space point that a point of energy E
    on kern stands for."""
    return max(1.0, kern.copies * abs(E))


def _require_even(u, what):
    """Reject a bound vector that is not even under the mirror map.

    An anchor or ceiling enters the folded problem as its mirror
    average, which is the problem posed only if the vector is even: to
    within 1e-6 of max(1, sup|u|), the slack the pin and range checks
    already allow, as folding moves it by at most half of that.
    """
    gap = _sup(u - u[::-1])
    if gap > 1e-6 * max(1.0, _sup(u)):
        raise ParameterError(
            "%s is not mirror-even (|u_i - u_(n-1-i)| up to %.3e): the "
            "solvers work in the even subspace" % (what, gap))


def _report(kern, model, u, iterations, tol, classification):
    """SolveReport for a full-space point u, with its energy and residual
    measured on the full kernel."""
    E, g = _energy_and_gradient(kern, model, u)
    residual = _sup(g)
    return SolveReport(solution=GridFunction(u, kern.mesh), energy=float(E),
                       residual=residual, iterations=iterations,
                       converged=residual <= tol * max(1.0, abs(E)),
                       classification=classification)


def _rounding(E):
    """Rounding level of an energy E: changes below it carry no signal."""
    return 1e-13 * max(1.0, abs(E))


def _slope_accepts(E, E_new, slope, gd):
    """Approximate Wolfe test (Hager & Zhang, SIAM J. Optim. 16, 2005)
    for a step along a descent direction d (gd = g.d < 0, slope =
    g_new.d), used once the Armijo decrease is below the rounding of E:
    the energy rose by no more than that rounding and the slope along d
    has not overshot."""
    return E_new <= E + _rounding(E) and slope <= -0.8 * gd


def _clip_box(w, top):
    return np.minimum(np.maximum(w, 0.0), top)


def minimize(kern, model, u0, opts=None):
    """Damped Newton descent on the total energy, with the Hessian's
    curvatures taken by their modulus.

    Every step builds the exact Hessian H (total_hessian) and takes
    d = -|H|^-1 g, where |H| is H with each eigenvalue c replaced by
    max(|c|, 1e-9 max|c|): the Newton step where a Cholesky
    factorization shows H positive definite, and elsewhere a descent
    direction that moves away from saddles along the negative modes
    (saddle-free Newton, Dauphin et al., NeurIPS 2014; modified Newton,
    Nocedal and Wright, Numerical Optimization, section 3.4).  Each
    step backtracks from the full length until Armijo's decrease holds,
    or, below the rounding of the energy, the approximate Wolfe test.

    Stops when the gradient sup-norm falls below tol * max(1, |E|) at a
    point where the Cholesky factorization succeeds, so never at a
    saddle; when backtracking finds no acceptable step (converged=False);
    or after max_iter accepted steps.  For the plain reaction the
    negative part of the result is removed and descent resumed, which
    never increases the energy; exact critical points are nonnegative
    anyway.  Descent runs in the even subspace from the mirror average
    of u0; the report is measured on kern.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, model.params)
    w, iterations = _descend(kern.fold(), model.fold(), mirror_fold(u0), opts)
    u = mirror_unfold(w, kern.n)
    cls = "zero" if _sup(u) <= opts.zero_tol else "minimizer"
    return _report(kern, model, u, iterations, opts.tol, cls)


def _descend(kern, model, u0, opts, shift=0.0):
    """minimize's descent on a folded (or full) kernel; returns the
    point reached and the number of accepted steps.  The stopping test
    reads the energy scale of E + shift, so a caller whose model's
    energy differs from the reported one by a constant can stop on the
    reported scale."""
    # Inside the box max(u) < delta the reaction primitive is <= 0, so
    # the energy is >= 0 there while energy(0) = 0, and pairing the
    # operator with u+ shows zero is the only critical point in the
    # box: descent that enters it can be finished at zero exactly.
    delta = None
    if model.variant == "plain" and model.params.lam > 0.0:
        delta = sign_threshold_delta(model.params)
    u = np.array(u0, dtype=float)
    E, g = _energy_and_gradient(kern, model, u)

    def search(d, gd):
        # backtrack from u + d until Armijo's decrease holds or, below
        # the rounding of E, the approximate Wolfe test; returns the
        # accepted point with its energy and gradient, or None
        t = 1.0
        while t > 1e-20:
            u_new = u + t * d
            E_new, g_new = _energy_and_gradient(kern, model, u_new)
            decrease = -ARMIJO * t * gd
            if decrease > _rounding(E):
                accepted = E_new <= E - decrease
            else:
                accepted = _slope_accepts(E, E_new, float(g_new @ d), gd)
            if accepted:
                return u_new, E_new, g_new
            t *= BACKTRACK
        return None

    iterations = 0
    for _round in range(4):
        while iterations < opts.max_iter:
            if delta is not None and float(np.max(u)) < delta:
                u = np.zeros_like(u)
                E = 0.0
                g = np.zeros_like(g)
                iterations += 1
                break
            H = total_hessian(kern, model, u)
            try:
                np.linalg.cholesky(H)       # succeeds iff H is positive definite
            except np.linalg.LinAlgError:
                curv, Q = np.linalg.eigh(H)
                curv = np.abs(curv)
                d = -(Q @ ((Q.T @ g) / np.maximum(curv, 1e-9 * np.max(curv))))
            else:
                if _residual(kern, g) <= opts.tol * _scale(kern, E + shift):
                    break
                # numpy has no triangular solve: one general solve of H
                # costs less than two through the Cholesky factor
                d = -np.linalg.solve(H, g)
            gd = float(g @ d)
            moved = search(d, gd) if gd < 0.0 else None
            if moved is None:
                break       # no acceptable step left
            u, E, g = moved
            iterations += 1
        if model.variant == "plain" and float(np.min(u)) < 0.0:
            u = np.maximum(u, 0.0)
            E, g = _energy_and_gradient(kern, model, u)
            continue
        break
    return u, iterations


def default_starts(mesh, params, count, seed):
    """Randomized positive starting profiles, amplitudes spread around
    the sign-threshold scale so at least one lands in a nontrivial
    basin whenever there is one."""
    rng = np.random.default_rng(seed)
    base = (mesh.dist / np.max(mesh.dist)) ** params.s
    scale = sign_threshold_delta(params) if params.lam > 0.0 else 1.0
    amps = scale * np.logspace(-0.5, 2.5, count)
    starts = []
    for amp in amps:
        jitter = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, mesh.n)
        starts.append(amp * base * jitter)
    return starts


def minimize_multistart(kern, model, opts=None, seed=0, threads=1,
                        stop_at_nontrivial=False):
    """Run minimize from the default randomized starts; returns all reports.

    With stop_at_nontrivial the sweep short-circuits at the first
    converged nontrivial solution (useful inside bisection predicates).
    Thread count never changes the reports, only the wall time.
    """
    opts = opts or SolverOptions()
    starts = default_starts(kern.mesh, model.params, opts.starts, seed)
    if threads > 1 and not stop_at_nontrivial:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(lambda u0: minimize(kern, model, u0, opts),
                                    starts))
        return reports
    reports = []
    for u0 in starts:
        rep = minimize(kern, model, u0, opts)
        reports.append(rep)
        if (stop_at_nontrivial and rep.converged
                and rep.classification != "zero"):
            break
    return reports


def select_solution(reports, zero_tol=1e-6):
    """Lowest-energy converged nontrivial report, else the cleanest zero."""
    nontrivial = [r for r in reports
                  if r.converged and r.solution.sup_norm > zero_tol]
    if nontrivial:
        return min(nontrivial, key=lambda r: r.energy)
    return min(reports, key=lambda r: (not r.converged, r.residual))


def solve_above(kern, params, subsol, opts=None):
    """Least solution above a nonnegative subsolution.

    Minimizes the energy with the reaction frozen below the anchor,
    which pins every critical point above the anchor.  The anchor is
    checked for the subsolution inequality first (a warning only: a
    discretized subsolution may violate it at truncation level).  The
    descent runs in the even subspace, so the anchor must be even under
    the mirror map (node i <-> n-1-i) to within 1e-6 of
    max(1, sup|anchor|); otherwise ParameterError.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, params)
    subsol = np.asarray(getattr(subsol, "values", subsol), dtype=float)
    _require_even(subsol, "anchor")
    plain = ReactionModel.plain(params)
    slack = apply_operator(kern, subsol, params.p) - kern.mesh.h * f_values(plain, subsol)
    worst = float(np.max(slack))
    if worst > 1e-6 * max(1.0, _sup(subsol)):
        warnings.warn("anchor violates the subsolution inequality by %.3e" % worst)
    folded = kern.fold()
    model = ReactionModel.floored(params, subsol).fold()
    # above the anchor the floored primitive differs from the plain one
    # by a constant, so the energies differ by their difference at the
    # anchor: the descent stops on the scale of the plain energy, which
    # the report is measured on
    shift = -folded.mesh.h * float(np.sum(folded.weight * (
        F_values(plain, model.anchor) - F_values(model, model.anchor))))
    w, iterations = _descend(folded, model, mirror_fold(subsol), opts, shift)
    del folded
    u = mirror_unfold(w, kern.n)
    pin = float(np.min(u - subsol))
    if pin < -1e-6 * max(1.0, _sup(subsol)):
        raise SolverError("minimizer dropped %.3e below the anchor" % -pin)
    return _report(kern, plain, u, iterations, opts.tol, "pinned")


def principal_eigenpair(kern, p, opts=None, start=None):
    """Smallest Rayleigh quotient of the discrete operator.

    Solves the eigen equation A(u) = R h |u|^(p-2) u with the
    normalization h * sum |u_i|^p = 1 for (u, R) together, by damped
    Newton steps on this bordered system with the exact Hessian of the
    energy (kernel.operator_hessian); the border is needed, as the
    Jacobian of the eigen equation alone is singular at the eigenpair.
    Every trial point is replaced by its absolute value and
    renormalized, and the eigenvalue estimate is the quotient
    pairing(A(u), u) there.  Returns the eigenvalue, a nonnegative
    eigenfunction with h*sum|u|^p = 1, and the sup-norm of the
    eigen-equation residual.

    Each step solves the system once.  Its first trial length is
    t = min(1, |u| / |d|) for the Newton direction d, so no trial is
    longer than the iterate, and it tries up to NEWTON_HALVINGS lengths
    t, t/2, t/4, ...; a trial is accepted only if the residual falls.
    iterations counts the accepted steps.  Gives up, with
    converged=False, when the system is singular, when no trial is
    accepted, or when the residual has fallen by less than the fraction
    STALL_DECREASE over the last STALL_WINDOW steps (for p near 1 the
    linear model misses the kink of the operator near the flat top of
    the eigenfunction, and the residual can stop short of tol, or crawl
    towards a plateau above it).  The iteration runs in the even subspace
    from the mirror average of the start; the value and the residual of
    the result are measured on kern, after the folded kernel is
    released.
    """
    opts = opts or SolverOptions()
    if start is None:
        u = (kern.mesh.dist / np.max(kern.mesh.dist)) ** (kern.sigma / p)
    else:
        u = np.asarray(getattr(start, "values", start), dtype=float)
    w, iterations = _eigen_newton(kern.fold(), p, mirror_fold(np.abs(u)), opts)
    u = mirror_unfold(w, kern.n)
    Au = apply_operator(kern, u, p)
    R = float(np.dot(Au, u))
    residual = _sup(Au - R * kern.mesh.h * odd_power(u, p))
    return EigenResult(value=R, eigenfunction=GridFunction(u, kern.mesh),
                       residual=residual, iterations=iterations,
                       converged=residual <= opts.tol * max(1.0, R))


def _eigen_newton(kern, p, u, opts):
    """principal_eigenpair's damped Newton iteration, in full-space
    terms on a folded kernel: a node stands for c = copies * weight nodes
    of the full mesh, so every sum over nodes is weighted by c and the
    operator is divided by the weight.  Returns the point reached, of
    unit full-space mass, and the number of Newton steps."""
    h = kern.mesh.h
    c = kern.copies * kern.weight

    def state(v):
        # v at unit mass, its quotient, its eigen-equation residual
        # vector and that vector's sup-norm
        nv = (h * float(np.sum(c * np.abs(v) ** p))) ** (1.0 / p)
        if nv == 0.0:
            raise SolverError("eigen iteration degenerated to zero")
        v = v / nv
        Av = apply_operator(kern, v, p) / kern.weight
        R = float(np.sum(c * Av * v))
        rvec = Av - R * h * odd_power(v, p)
        return v, R, rvec, _sup(rvec)

    u, R, rvec, residual = state(u)
    iterations = 0
    history = [residual]
    while iterations < opts.max_iter and residual > opts.tol * max(1.0, R):
        if (iterations >= STALL_WINDOW and residual
                > (1.0 - STALL_DECREASE) * history[-1 - STALL_WINDOW]):
            break       # the residual has stopped moving
        # u has unit mass, so the normalization row of F is zero
        try:
            d = np.linalg.solve(_eigen_jacobian(kern, p, u, R),
                                -np.append(rvec, 0.0))[:-1]
        except np.linalg.LinAlgError:
            break
        # no trial is longer than the iterate
        nu, nd = float(np.linalg.norm(u)), float(np.linalg.norm(d))
        t = 1.0 if nd <= nu else nu / nd
        for _half in range(NEWTON_HALVINGS):
            trial = state(np.abs(u + t * d))
            if trial[3] < residual:
                break
            t *= BACKTRACK
        else:
            break       # no trial lowers the residual
        u, R, rvec, residual = trial
        iterations += 1
        history.append(residual)
    return u, iterations


def _eigen_jacobian(kern, p, w, R):
    """Jacobian of the bordered eigen system at (w, R) on kern.

    The system, for unknowns w (folded or full) and R, is
        F(w, R) = [op(w) - R h phi_p(w);  h sum c |w|^p - 1]
    with op(w) = A(w) / weight, phi_p the signed power |w|^(p-1) sign(w)
    and c = copies * weight.  Its (m+1) x (m+1) Jacobian has the block
    operator_hessian / weight - R h (p-1) diag|w|^(p-2), built in place
    in the bordered matrix, the column -h phi_p(w) and the row
    p c h phi_p(w).  The block alone is singular at an eigenpair, with w
    in its kernel by (p-1)-homogeneity; the border makes the system
    regular there, since the row pairs with w to p h sum c|w|^p = p.
    """
    m = len(w)
    h = kern.mesh.h
    B = np.empty((m + 1, m + 1))
    J = operator_hessian(kern, w, p, out=B[:m, :m])
    J /= kern.weight[:, None]
    J[np.diag_indices(m)] -= R * h * (p - 1.0) * curvature_power(
        w, p - 2.0, float(np.linalg.norm(w)))
    phi = odd_power(w, p)
    B[:m, m] = -h * phi
    B[m, :m] = p * kern.copies * kern.weight * h * phi
    B[m, m] = 0.0
    return B


def _reequispace(Z, frac):
    """Redistribute path points at fixed arclength fractions.

    frac gives the target cumulative-arclength fraction of every point;
    keeping it non-uniform preserves a resolution bias along the path
    across redistributions.  Only the descent phase of find_saddle
    redistributes: the climb moves the maximal point alone.
    """
    seg = np.linalg.norm(np.diff(Z, axis=0), axis=1)
    total = float(np.sum(seg))
    if total <= 0.0:
        raise SaddleNotFound("mountain-pass path has zero length")
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = total * frac
    idx = np.clip(np.searchsorted(cum, targets[1:-1], side="right") - 1,
                  0, len(seg) - 1)
    t = (targets[1:-1] - cum[idx]) / np.where(seg[idx] > 0.0, seg[idx], 1.0)
    out = np.empty_like(Z)
    out[0] = Z[0]
    out[-1] = Z[-1]
    out[1:-1] = Z[idx] + t[:, None] * (Z[idx + 1] - Z[idx])
    return out


def find_saddle(kern, params, u_big, opts=None, seed=0, return_path=False):
    """Mountain-pass critical point between 0 and a known minimizer.

    Works on the energy with the reaction capped above u_big, for which
    both endpoints are local minimizers (probed before starting).  The
    returned point satisfies 0 <= v <= u_big up to solver tolerance and
    its residual is reported for the uncapped reaction, which coincides
    with the capped one on that range.

    The descent phase moves the maximal point of the path and
    redistributes the path after every step.  Once progress stalls,
    that point alone takes up to SADDLE_ROUNDS min-max Newton steps
    (_newton_polish; Li & Zhou, SIAM J. Sci. Comput. 23, 2001), which
    are kept if they reach the residual target at a point where the
    Hessian has exactly one negative eigenvalue.  Otherwise the point
    goes back to where the descent left it and climbs: each climb step
    reflects the gradient across the lowest eigenvector of the exact
    Hessian at that point (Choi & McKenna, Nonlinear Anal. 20, 1993),
    with plain Newton polishing once it slows.  The other path points
    stay where the descent left them, so their energies stay exact and
    only the maximal point's energy is recomputed.  iterations counts
    the descent steps plus the Newton steps kept, or plus the climb.

    The search runs in the even subspace, where the saddle has Morse
    index one (in the full space the lowest odd mode can be negative
    too), so u_big must be even under the mirror map to within 1e-6 of
    max(1, sup|u_big|); otherwise ParameterError.  The report carries
    that index (morse_index, the number of negative eigenvalues of the
    folded Hessian of the capped energy at the result, which is the
    plain one below the ceiling) and has converged=False unless it is
    one.  The path returned with return_path is unfolded, with its
    energies measured on kern for the ceiling u_big.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, params)
    u_big = np.asarray(getattr(u_big, "values", u_big), dtype=float)
    _require_even(u_big, "ceiling")
    if _sup(u_big) <= opts.zero_tol:
        raise SaddleNotFound("ceiling solution is numerically zero")
    P = int(opts.path_points)
    Z, m, iterations, index = _mountain_pass(kern.fold(), params,
                                             mirror_fold(u_big), P, opts, seed)
    v = mirror_unfold(Z[m], kern.n)
    bound_tol = 1e-6 * max(1.0, _sup(u_big))
    if float(np.min(v)) < -bound_tol or float(np.max(v - u_big)) > bound_tol:
        raise SolverError("saddle point escaped the [0, ceiling] range")
    report = _report(kern, ReactionModel.plain(params), v, iterations,
                     opts.tol, "saddle")
    # a critical point of any other Morse index is not the mountain pass
    report.morse_index = index
    report.converged = report.converged and index == 1
    if return_path:
        Z = mirror_unfold(Z, kern.n)
        energies = _batch_energy(kern, ReactionModel.capped(params, u_big), Z)
        return report, MountainPassPath(points=Z, energies=energies, max_index=m)
    return report


def _mountain_pass(kern, params, u_big, P, opts, seed):
    """find_saddle's search on a folded (or full) kernel; returns the
    path, the index of its maximal point, the number of iterations and
    the Morse index of the capped energy at that point."""
    model = ReactionModel.capped(params, u_big)
    _probe_local_min(kern, model, np.zeros_like(u_big), params, seed)
    _probe_local_min(kern, model, u_big, params, seed + 1)

    # quadratic spacing: the barrier hugs the zero endpoint once the
    # minimizer towers over the saddle, and a uniform path would bury
    # it inside the first segment
    frac = np.linspace(0.0, 1.0, P) ** 2
    Z = frac[:, None] * u_big[None, :]
    energies = _batch_energy(kern, model, Z)
    end_energy = max(energies[0], energies[-1])
    step = None
    climb_step = None
    best_residual = np.inf
    stall = 0
    polish_left = 3
    iterations = 0
    index = None
    phase = "descent"
    v_prev = g_prev = None
    m = 1 + int(np.argmax(energies[1:-1]))
    while iterations < opts.max_iter:
        iterations += 1
        if phase == "descent":
            # once the climb starts the index is frozen: the climber
            # walks freely, and only Z[m] and energies[m] are read again
            m = 1 + int(np.argmax(energies[1:-1]))
        E_m, g = _energy_and_gradient(kern, model, Z[m])
        residual = _residual(kern, g)
        scale = _scale(kern, E_m)
        if residual <= opts.tol * scale:
            break
        if residual < 0.95 * best_residual:
            best_residual = residual
            stall = 0
        else:
            stall += 1
        # descend while the best residual keeps improving; switch once
        # it stalls at the path resolution, avoiding moments when the
        # residual spikes from a redistribution
        if phase == "descent" and ((stall >= 15 and residual <= 2.0 * best_residual)
                                   or stall > 80):
            phase = "climb"
            stall = 0
            # the min-max Newton finish counts only if it converges to a
            # point of Morse index one; otherwise the climb starts from
            # the point the descent left
            w, res_w, steps = _newton_polish(
                kern, model, Z[m], opts.tol * scale,
                min(SADDLE_ROUNDS, opts.max_iter - iterations), minmax=True)
            E_w = total_energy(kern, model, w)
            if (res_w <= opts.tol * _scale(kern, E_w)
                    and _morse_index(kern, model, w) == 1):
                Z[m] = w
                energies[m] = E_w
                iterations += steps
                index = 1
                break
        elif phase == "climb" and stall > 120:
            break
        if phase == "descent":
            if step is None:
                step = 1.0 / max(1.0, residual)
            step = min(step * 2.0, STEP_MAX)
            gg = float(g @ g)
            # projected step: boundary nodes overshoot below zero
            # otherwise, and redistribution then smears the violation
            # along the whole path
            while step > 1e-20:
                trial = _clip_box(Z[m] - opts.damping * step * g, u_big)
                E_try = total_energy(kern, model, trial)
                if E_try <= E_m - ARMIJO * opts.damping * step * gg:
                    break
                step *= BACKTRACK
            Z[m] = trial
            Z = _reequispace(Z, frac=frac)
            energies = _batch_energy(kern, model, Z)
        else:
            # in the even subspace the mountain-pass point has Morse
            # index one: the climb reflects across the lowest mode alone
            mode = np.linalg.eigh(total_hessian(kern, model, Z[m]))[1][:, 0]

            def reflect(vec):
                return vec - 2.0 * float(mode @ vec) * mode

            d = reflect(g)
            if climb_step is None:
                climb_step = opts.damping / max(1.0, residual)
            if v_prev is not None:
                dv = Z[m] - v_prev
                dd = d - reflect(g_prev)
                sy = float(dv @ dd)
                if sy > 0.0:
                    # flat modes need steps ~ 1/curvature, far beyond
                    # the descent-phase cap; acceptance guards excess
                    climb_step = min(max(float(dv @ dv) / sy, 1e-12), 1e8)
            moved = False
            for _try in range(40):
                w = _clip_box(Z[m] - climb_step * d, u_big)
                res_try = _residual(kern, total_gradient(kern, model, w))
                if res_try < residual:
                    v_prev, g_prev = Z[m].copy(), g
                    Z[m] = w
                    climb_step = min(climb_step * 1.25, 1e8)
                    moved = True
                    break
                climb_step *= 0.5
            if moved:
                energies[m] = total_energy(kern, model, Z[m])
            want_polish = not moved or (stall >= 8 and residual <= 1e-4 * scale)
            if want_polish and polish_left > 0:
                polish_left -= 1
                w, res_p, _steps = _newton_polish(kern, model, Z[m],
                                                  opts.tol * scale)
                if res_p < residual:
                    Z[m] = w
                    v_prev = g_prev = None
                    stall = 0
                    best_residual = min(best_residual, res_p)
                    energies[m] = total_energy(kern, model, Z[m])
                    continue
            if not moved:
                break
        if energies[m] <= end_energy + 1e-12 * scale:
            _check_not_collapsed(Z[m], u_big)
    # the zero function is critical too: a maximal point that stopped at
    # an endpoint is no saddle, however small its residual
    _check_not_collapsed(Z[m], u_big)
    if index is None:
        index = _morse_index(kern, model, Z[m])
    return Z, m, iterations, index


def _check_not_collapsed(v, u_big):
    """Raise SaddleNotFound if v lies within 1e-8 * max(1, sup u_big) of
    either end of the mountain-pass path, the zero function or u_big."""
    gap = min(np.linalg.norm(v), np.linalg.norm(v - u_big))
    if gap <= 1e-8 * max(1.0, _sup(u_big)):
        raise SaddleNotFound("mountain-pass path collapsed onto an endpoint")


def _morse_index(kern, model, v):
    """Number of negative eigenvalues of the exact Hessian at v."""
    return int(np.sum(np.linalg.eigvalsh(total_hessian(kern, model, v)) < 0.0))


def _newton_polish(kern, model, v, tol_scale, rounds=6, minmax=False):
    """Damped Newton steps on the exact Hessian (total_hessian).

    Each step inverts the Hessian through its eigendecomposition, with
    curvatures below 1e-9 of the largest dropped.  With minmax every
    curvature is taken by its modulus except the lowest, which is taken
    negative: the min-max Newton step toward a saddle of Morse index one
    (Li & Zhou, SIAM J. Sci. Comput. 23, 2001), which is the Newton step
    where the Hessian has exactly one negative eigenvalue and elsewhere
    climbs the lowest mode and descends all the others.  Without it the
    step is the plain Newton step.  Treating every mode at once also
    handles the leftover gradient in flat, coupled modes near the
    critical point, where per-direction steps stall.  Candidate steps
    are projected onto the box where the capped reaction agrees with the
    plain one, halved up to 30 times, and kept only when the gradient
    sup-norm falls, so the iterate cannot leave the basin it started
    in.  Stops once that residual is at most tol_scale or after rounds
    steps; returns the point, its residual and the number of steps
    taken.
    """
    top = model.ceiling if model.ceiling is not None else np.inf
    g = total_gradient(kern, model, v)
    res = _residual(kern, g)
    steps = 0
    while steps < rounds and res > tol_scale:
        curv, Q = np.linalg.eigh(total_hessian(kern, model, v))
        floor = 1e-9 * float(np.max(np.abs(curv)))
        keep = np.abs(curv) > floor
        if minmax:
            curv = np.abs(curv)
            curv[0] = -curv[0]
        coef = Q.T @ g
        d = -(Q[:, keep] @ (coef[keep] / curv[keep]))
        t = 1.0
        for _half in range(30):
            w = _clip_box(v + t * d, top)
            gw = total_gradient(kern, model, w)
            rw = _residual(kern, gw)
            if rw < res:
                v, g, res = w, gw, rw
                break
            t *= 0.5
        else:
            break
        steps += 1
    return v, res, steps


def _probe_local_min(kern, model, point, params, seed, probes=6):
    """Check a path endpoint is a local minimizer of the capped energy."""
    rng = np.random.default_rng(seed)
    top = max(_sup(point), sign_threshold_delta(params) if params.lam > 0 else 1.0)
    amp = 1e-3 * top
    E0 = total_energy(kern, model, point)
    for _ in range(probes):
        pert = amp * rng.standard_normal(point.shape)
        if total_energy(kern, model, point + pert) < E0 - 1e-10 * max(1.0, abs(E0)):
            raise SolverError("path endpoint is not a local minimizer")
