"""Energy descent, eigenpair search, and the mountain-pass saddle.

All solvers work on the total energy

    total_energy(u) = seminorm_energy(u) - sum_i mass_i F(i, u_i),

with mass from KernelMatrix.mass, whose exact gradient is
apply_operator(u) - mass f(., u).  minimize takes damped Newton steps on
the exact Hessian (total_hessian), modified where it is indefinite so
that each step descends: the Newton step where a Cholesky factorization
shows the Hessian positive definite, and elsewhere the Newton step of
the Hessian scaled to a unit diagonal and shifted by a multiple of the
identity, doubled until it factors.  Each step backtracks from the full
length until Armijo's decrease holds; near a minimizer that decrease
drops below the rounding of the energy (1e-13 * max(1, |E|)), and from
there a step is accepted on its slope instead, by the approximate Wolfe
test of Hager and Zhang, so descent runs on to the residual target
rather than stalling on noise.  Every nontrivial critical point u >= 0
has t- <= max u <= t+, each bound a root of f(t) / t^(p-1) = c for a
constant c of the kernel (a Picone constant, and min 2 T / mass): a
descent that enters the box max u < t- ends at zero (_descend), and
minimize_multistart scales its starts down to peak at most t+
(_amplitude_ceiling), to zero where zero is the only critical point.
principal_eigenpair takes damped Newton steps on the bordered eigen
system (the eigen equation plus the normalization, solved for the
eigenfunction and the eigenvalue together with the exact Hessian of the
operator) from its first iterate, each accepted only if the residual
falls, and gives up once no step lowers it or the residual has stopped
moving.  solve_fold finds the turning point of the minimizer branch,
where the Hessian turns singular, by the same damped Newton loop on the
extended system of the minimizer, the null vector of its Hessian and
lambda.  find_saddle runs a mountain-pass search between the zero
function and a known minimizer u_big, on the
energy restricted to the box 0 <= z <= u_big: the maximal-energy point
of a piecewise-linear path is pushed downhill, each step projected onto
the box, with the path redistributed at fixed arclength fractions,
until progress stalls at the path resolution.  A step needs only the
highest path point, so the search keeps an upper bound on the seminorm
energy S of every path point and evaluates the energy only where that
bound, less the point's reaction sum, reaches the best energy found:
S is convex and p-homogeneous for p > 1, so S^(1/p) is convex, and S is
bounded by its value where a point was evaluated, by t^p S(u_big) on
the initial path t u_big, and at a redistributed point by the chord of
S^(1/p) between the two points it is interpolated from.  Each bound is
widened by 1e-12 of |S| + |sum mass F|, far above the rounding of S and
of the interpolated points, so the search picks the same point, with
the same bits of its energy, as the energies of the whole path would
(_mountain_pass).  The maximal point alone then takes min-max Newton
steps on the exact Hessian (total_hessian), the search's only source of
curvature, by the damped Newton loop of the eigen and fold solves, and
the result counts if it converges to a point of Morse index one.
Otherwise the descent resumes from where it stopped, and the finish is
tried again at its next stall; the rest of the path stays put.

The solutions sought are even under the mirror map of the interval, so
every solver works in the even subspace: it folds the kernel
(KernelMatrix.fold), the reaction model and its start onto the first
ceil(n/2) nodes on entry, solves there, and unfolds the result.  On
the folded kernel the energy of a point is the energy of its unfolding
and the gradient is the full one times mass / h, so the stopping tests
read the full-space residual sup |g h / mass| (mass is h on a full
kernel, so the loops are right on either).  Every report carries the
energy and residual of the unfolded point measured on the full kernel,
computed after the folded kernel is released: a kernel that is not
mirror symmetric cannot pass for converged.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (GridFunction, MeshMismatchError, ParameterError,
                   curvature_power, mirror_fold, mirror_unfold, odd_power,
                   with_lambda)
from .kernel import (_check_values, apply_operator, operator_hessian,
                     seminorm_energy, seminorm_energy_and_operator)
from .reaction import (ReactionModel, F_values, df_values, f_values,
                       sign_threshold_delta)


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a trustworthy result."""


class SaddleNotFound(SolverError):
    """Raised when the mountain-pass path crosses no barrier."""


NEWTON_HALVINGS = 8     # step lengths an eigen or fold Newton step may try
SADDLE_HALVINGS = 30    # step lengths a min-max Newton step may try
STALL_WINDOW = 20       # Newton steps over which the residual must fall
STALL_DECREASE = 5e-3   # by this fraction, or the Newton iteration gives up
SADDLE_ROUNDS = 60      # min-max Newton steps the saddle finish may take
ARMIJO = 1e-4           # sufficient-decrease fraction of every line search
BACKTRACK = 0.5         # step shrink factor while backtracking
STEP_MAX = 1e2          # cap on the step scale of the saddle's path descent
# the shift of an indefinite scaled Hessian (Nocedal and Wright, Numerical
# Optimization, Algorithm 3.3 and the remarks after it): its least value,
# the factor it grows by until the Cholesky factorization succeeds, and
# the fraction of a descent's last shift that the next search starts from
SHIFT_START = 1e-3
SHIFT_GROWTH = 2.0
SHIFT_REUSE = 0.125


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
class FoldResult:
    """Outcome of solve_fold: the branch's turning point lam, where the
    Hessian at solution is singular along null_vector."""

    lam: float
    solution: GridFunction
    null_vector: GridFunction
    residual: float
    iterations: int
    converged: bool
    note: str = None        # why it did not converge


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
    return S - float(np.sum(kern.mass * F_values(model, u)))


def total_gradient(kern, model, u):
    """Exact gradient of total_energy at u."""
    return _operator_and_gradient(kern, model, u)[1]


def total_hessian(kern, model, u):
    """Exact Hessian of total_energy at u, a dense symmetric n x n matrix."""
    H = operator_hessian(kern, u, model.params.p)
    np.einsum("ii->i", H)[...] -= kern.mass * df_values(model, u)
    return H


def _energy_and_gradient(kern, model, u):
    S, A = seminorm_energy_and_operator(kern, u, model.params.p)
    E = S - float(np.sum(kern.mass * F_values(model, u)))
    g = A - kern.mass * f_values(model, u)
    return E, g


def _reaction_sums(kern, model, Z):
    """sum_i mass_i F(i, z_i) for every row z of Z: the reaction sums
    of the path points, which _mountain_pass subtracts from their
    seminorm energy bounds."""
    return np.sum(kern.mass * F_values(model, Z), axis=1)


def _sup(x):
    return float(np.max(np.abs(x)))


def _residual(kern, g):
    """Sup-norm of the full-space gradient that a folded gradient g stands for."""
    return _sup(g * (kern.mesh.h / kern.mass))


def _scale(E):
    """max(1, |E|), the scale of the tests on an energy E."""
    return max(1.0, abs(E))


def _require_even(u):
    """Reject a ceiling that is not even under the mirror map.

    The ceiling enters the folded problem as its mirror average, which
    is the problem posed only if the ceiling is even: to within 1e-6 of
    max(1, sup|u|), the slack the range check already allows, as
    folding moves it by at most half of that.
    """
    gap = _sup(u - u[::-1])
    if gap > 1e-6 * max(1.0, _sup(u)):
        raise ParameterError(
            "ceiling is not mirror-even (|u_i - u_(n-1-i)| up to %.3e): "
            "the solvers work in the even subspace" % gap)


def _report(kern, model, u, iterations, tol, classification):
    """SolveReport for a full-space point u, with its energy and residual
    measured on the full kernel."""
    E, g = _energy_and_gradient(kern, model, u)
    residual = _sup(g)
    return SolveReport(solution=GridFunction(u, kern.mesh), energy=float(E),
                       residual=residual, iterations=iterations,
                       converged=residual <= tol * _scale(E),
                       classification=classification)


def _rounding(E):
    """Rounding level of an energy E: changes below it carry no signal."""
    return 1e-13 * _scale(E)


def _slope_accepts(E, E_new, slope, gd):
    """Approximate Wolfe test (Hager & Zhang, SIAM J. Optim. 16, 2005)
    for a step along a descent direction d (gd = g.d < 0, slope =
    g_new.d), used once the Armijo decrease is below the rounding of E:
    the energy rose by no more than that rounding and the slope along d
    has not overshot."""
    return E_new <= E + _rounding(E) and slope <= -0.8 * gd


def _clip_box(w, top):
    return np.minimum(np.maximum(w, 0.0), top)


def minimize(kern, model, u0, opts=None, mu=0.0):
    """Damped modified Newton descent on the total energy.

    Every step builds the exact Hessian H (total_hessian).  Where a
    Cholesky factorization shows H positive definite the step is the
    Newton step d = -H^-1 g.  Elsewhere it is d = -S (A + tau I)^-1 S g
    (_shifted_step): A = S H S is H scaled to a unit diagonal by
    S = diag(|H_ii|)^(-1/2), and tau the first shift of a doubling
    sequence at which A + tau I has a Cholesky factor, so d descends
    (Cholesky with added multiple of the identity, Nocedal and Wright,
    Numerical Optimization, Algorithm 3.3).  The scaling sizes the shift
    to every node: at p < 2 the near-tie entries of H are huge, and one
    shift sized to them would crawl by gradient steps everywhere else.
    Each step backtracks from the full length until Armijo's decrease
    holds, or, below the rounding of the energy, the approximate Wolfe
    test.

    Stops when the gradient sup-norm falls below tol * max(1, |E|) at a
    point where the Cholesky factorization succeeds, so never at a
    saddle; when backtracking finds no acceptable step (converged=False);
    or after max_iter accepted steps.  The negative part of the result
    is removed and descent resumed, which never increases the energy;
    exact critical points are nonnegative anyway.  Descent that enters
    the box max u < _zero_floor(params, mu), where zero is the only
    critical point, ends at zero exactly; mu > 0, a Picone constant of
    kern, widens that box from the sign threshold delta to the floor of
    every nontrivial solution.  Descent runs in the even subspace from
    the mirror average of u0; the report is measured on kern, except
    that of an exact zero, whose energy and residual are 0 on any
    kernel.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, model.params)
    u0 = _check_values(kern, u0)
    w, iterations = _descend(kern.fold(), model, mirror_fold(u0), opts, mu)
    u = mirror_unfold(w, kern.n)
    if not np.any(u):
        return SolveReport(solution=GridFunction(u, kern.mesh), energy=0.0,
                           residual=0.0, iterations=iterations,
                           converged=True, classification="zero")
    cls = "zero" if _sup(u) <= opts.zero_tol else "minimizer"
    return _report(kern, model, u, iterations, opts.tol, cls)


def _descend(kern, model, u0, opts, mu=0.0):
    """minimize's descent on a folded (or full) kernel; returns the
    point reached and the number of accepted steps.

    Descent that enters the box max u < t- = _zero_floor(params, mu) is
    finished at zero exactly; at lam = 0 the box is all of space, so
    descent ends at zero on its first step.  For u >= 0 in the box,
    0 < u_i < t- gives h(u_i) < mu for h(t) = f(t) / t^(p-1), and
    mu sum mass u^p is at most pairing(A(u), u) (the discrete Picone
    inequality, see bifurcation.lambda_lower_bound; at mu = 0 because
    A(u).u = p S(u)), so g.u >= sum_i mass_i u_i^p (mu - h(u_i)) > 0 for
    g the gradient.  As t u lies in the box for 0 < t <= 1, E(t u)
    rises with t there: E(u) > 0 = E(0), zero is the only critical
    point in the box, and the segment from u to 0 descends.  A u with
    negative entries has E(u) >= E(u+), taking positive parts lowering
    every term of S.  On a folded kernel w stands for its unfolding U w,
    with the same E and g.w, so the argument is the full one.
    """
    floor = _zero_floor(model.params, mu)
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
    shift = SHIFT_START
    for _round in range(4):
        while iterations < opts.max_iter:
            if float(np.max(u)) < floor:
                u = np.zeros_like(u)
                E = 0.0
                g = np.zeros_like(g)
                iterations += 1
                break
            H = total_hessian(kern, model, u)
            try:
                np.linalg.cholesky(H)       # succeeds iff H is positive definite
            except np.linalg.LinAlgError:
                d, shift = _shifted_step(H, g, shift)
            else:
                if _residual(kern, g) <= opts.tol * _scale(E):
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
        if float(np.min(u)) < 0.0:
            u = np.maximum(u, 0.0)
            E, g = _energy_and_gradient(kern, model, u)
            continue
        break
    return u, iterations


def _shifted_step(H, g, shift):
    """Descent direction -S (A + tau I)^-1 S g at an indefinite H.

    A = S H S is H scaled to a unit diagonal, S = diag(|H_ii|)^(-1/2),
    with |H_ii| floored at eps max |H_ii| so that a vanishing diagonal
    stays finite.  tau is the first of t, 2t, 4t, ... at which the
    Cholesky factorization of A + tau I succeeds.  t is SHIFT_START, or
    SHIFT_START - min A_ii where a diagonal entry is negative, as no
    smaller shift can succeed there; or SHIFT_REUSE * shift if that is
    larger, so a descent whose Hessians stay indefinite starts each
    search near its last shift.  Returns the direction and tau."""
    diag = np.abs(np.diagonal(H))
    floor = np.finfo(float).eps * float(np.max(diag))
    S = 1.0 / np.sqrt(np.maximum(diag, floor))
    A = H * S[:, None] * S[None, :]
    a = np.diagonal(A).copy()
    tau = max(SHIFT_START - min(0.0, float(np.min(a))), SHIFT_REUSE * shift)
    # ends for a finite H: A + tau I is diagonally dominant, so positive
    # definite, once tau exceeds the row sums of |A|
    while True:
        np.einsum("ii->i", A)[...] = a + tau
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            tau *= SHIFT_GROWTH
        else:
            return -S * np.linalg.solve(A, S * g), tau


def default_starts(mesh, params, count, seed):
    """Randomized positive starting profiles, amplitudes spread around
    the sign-threshold scale so at least one lands in a nontrivial
    basin whenever there is one."""
    rng = np.random.default_rng(seed)
    base = (mesh.dist / np.max(mesh.dist)) ** params.s
    scale = sign_threshold_delta(params) if params.lam > 0.0 else 1.0
    if not scale * 10.0 ** 2.5 * 1.2 < np.inf:     # 1.2: the largest jitter
        raise ParameterError("lam=%g is too small: the largest start, 10^2.5 "
                             "lam^(-1/(q-r)), overflows a float" % params.lam)
    amps = scale * np.logspace(-0.5, 2.5, count)
    starts = []
    for amp in amps:
        jitter = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, mesh.n)
        starts.append(amp * base * jitter)
    return starts


def _ratio(params, t):
    """h(t) = f(t) / t^(p-1) = lam t^(q-p) - t^(r-p) for t > 0: it rises
    from -inf to its maximum at _ratio_peak, then falls to 0."""
    return params.lam * t ** (params.q - params.p) - t ** (params.r - params.p)


def _ratio_peak(params):
    """Where h peaks: t* = ((p-r) / (lam (p-q)))^(1/(q-r)), lam > 0."""
    p, q, r = params.p, params.q, params.r
    return ((p - r) / (params.lam * (p - q))) ** (1.0 / (q - r))


def _bisect(inside, lo, hi):
    """[lo, hi] narrowed until its midpoint rounds onto an end, keeping
    inside(lo) and not inside(hi) where they hold at the start."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if inside(mid):
            lo = mid
        else:
            hi = mid


def _zero_floor(params, mu):
    """t-, the smaller root of h(t) = mu, rounded down: no nontrivial
    critical point u >= 0 has max u < t- (proof in _descend).  At
    lam = 0 it is inf: h(t) = -t^(r-p) < 0 <= max(mu, 0) for every
    t > 0, so zero is the only critical point u >= 0.  At mu <= 0 it is
    the sign threshold delta, the root of h = 0, itself.  Bisection of
    [delta, t*] keeps its lower end, where h < mu; where mu exceeds
    max h, so that no nontrivial critical point exists, that end nears
    t*."""
    if params.lam == 0.0:
        return np.inf
    delta = sign_threshold_delta(params)
    if not mu > 0.0:
        return delta
    return _bisect(lambda t: _ratio(params, t) < mu, delta,
                   _ratio_peak(params))[0]


def _amplitude_ceiling(kern, params):
    """t+, above which no critical point u >= 0 of the energy on kern
    (full or folded) peaks: 0.0 where zero is the only one, and None
    where no bound is known.

    With c = min_i 2 T_i / mass_i: at a node i where u is largest every
    pair term K_ij (u_i - u_j)^(p-1) of A(u)_i is >= 0, so
    A(u)_i >= 2 T_i u_i^(p-1), and g_i = A(u)_i - mass_i f(u_i) >=
    mass_i u_i^(p-1) (c - h(u_i)).  A critical point, g_i = 0, so has
    h(u_i) >= c, that is max u <= t+, the larger root of h = c.  It lies in
    [t*, (lam / c)^(1/(p-q))], as h(t) < lam t^(q-p), and bisection
    returns the upper end of that bracket, at or above the root.  0.0
    where max h = h(t*) = (q-r)/(p-q) (lam (p-q)/(p-r))^((p-r)/(q-r)),
    compared in logs so that no lam overflows it, is below c.  None at
    lam = 0, where K has a negative entry or c <= 0, and where the
    bracket's ends underflow or overflow a float.  On a
    folded kernel T and mass are both doubled (neither at an odd mesh's
    middle node), so c is the full kernel's.
    """
    c = float(np.min(2.0 * kern.T / kern.mass))
    if not (params.lam > 0.0 and c > 0.0 and np.all(kern.K >= 0.0)):
        return None
    p, q, r = params.p, params.q, params.r
    if (np.log((q - r) / (p - q)) + (p - r) / (q - r) * (
            np.log(params.lam) + np.log((p - q) / (p - r)))) < np.log(c):
        return 0.0      # max h < c: zero is the only critical point
    try:
        peak = _ratio_peak(params)
        far = (params.lam / c) ** (1.0 / (p - q))
    except OverflowError:
        return None
    if not peak > 0.0 or _ratio(params, peak) < c:
        return None
    return _bisect(lambda t: _ratio(params, t) >= c, peak, far)[1]


def minimize_multistart(kern, model, opts=None, seed=0, threads=1,
                        stop_at_nontrivial=False, mu=0.0):
    """Run minimize (with mu) from the default randomized starts;
    returns all reports.

    A start that peaks above _amplitude_ceiling, the bound of every
    critical point's peak, is scaled down to peak there; the others are
    default_starts' own.  With stop_at_nontrivial the sweep
    short-circuits at the first converged nontrivial solution (useful
    inside bisection predicates).  Thread count never changes the
    reports, only the wall time.
    """
    opts = opts or SolverOptions()
    starts = default_starts(kern.mesh, model.params, opts.starts, seed)
    top = _amplitude_ceiling(kern, model.params)
    if top is not None:
        for k, u0 in enumerate(starts):
            peak = float(np.max(u0))
            if peak > top:
                starts[k] = u0 * (top / peak)
    if threads > 1 and not stop_at_nontrivial:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(
                lambda u0: minimize(kern, model, u0, opts, mu), starts))
        return reports
    reports = []
    for u0 in starts:
        rep = minimize(kern, model, u0, opts, mu)
        reports.append(rep)
        if stop_at_nontrivial and nontrivial(rep, opts.zero_tol):
            break
    return reports


def nontrivial(report, zero_tol):
    """Whether a report is converged with sup norm above zero_tol."""
    return report.converged and report.solution.sup_norm > zero_tol


def select_solution(reports, zero_tol=SolverOptions.zero_tol):
    """Lowest-energy converged nontrivial report, else the cleanest zero."""
    found = [r for r in reports if nontrivial(r, zero_tol)]
    if found:
        return min(found, key=lambda r: r.energy)
    return min(reports, key=lambda r: (not r.converged, r.residual))


def principal_eigenpair(kern, p, opts=None):
    """Smallest Rayleigh quotient of the discrete operator.

    Solves the eigen equation A(u) = R mass |u|^(p-2) u with the
    normalization sum mass_i |u_i|^p = 1 for (u, R) together, by damped
    Newton steps on this bordered system with the exact Hessian of the
    energy (kernel.operator_hessian); the border is needed, as the
    Jacobian of the eigen equation alone is singular at the eigenpair.
    Every trial point is replaced by its absolute value and
    renormalized, and the eigenvalue estimate is the quotient
    pairing(A(u), u) there.  Returns the eigenvalue, a nonnegative
    eigenfunction with sum mass |u|^p = 1, and the sup-norm of the
    eigen-equation residual.

    Each step (_damped_newton) solves the system once, caps the Newton
    step at the iterate's length (_capped) and tries up to
    NEWTON_HALVINGS lengths 1, 1/2, 1/4, ... of that; a trial is
    accepted only if the residual falls, and iterations counts the
    accepted steps.  Gives up, with converged=False, when the system is
    singular, when no trial is accepted, or when the residual has fallen
    by less than the fraction STALL_DECREASE over the last STALL_WINDOW
    steps (for p near 1 the linear model misses the kink of the operator
    near the flat top of the eigenfunction, and the residual can stop
    short of tol, or crawl towards a plateau above it).  The iteration
    runs in the even subspace from (d / max d)^(sigma/p), d the distance
    to the boundary; the value and the residual of the result are
    measured on kern, after the folded kernel is released.
    """
    opts = opts or SolverOptions()
    u = (kern.mesh.dist / np.max(kern.mesh.dist)) ** (kern.sigma / p)
    w, iterations = _eigen_newton(kern.fold(), p, mirror_fold(u), opts)
    u = mirror_unfold(w, kern.n)
    Au = apply_operator(kern, u, p)
    R = float(np.dot(Au, u))
    residual = _sup(Au - R * kern.mass * odd_power(u, p))
    return EigenResult(value=R, eigenfunction=GridFunction(u, kern.mesh),
                       residual=residual, iterations=iterations,
                       converged=residual <= opts.tol * max(1.0, R))


def _damped_newton(point, direction, x, max_iter, trials):
    """Damped Newton iteration, shared by the eigen, fold and saddle
    solves.

    point(x) returns the state of an iterate x, a tuple whose first
    three entries are the admissible point that x stands for, its
    residual and the residual target; direction(state) returns the
    Newton direction d there, and raises LinAlgError where the system is
    singular.  Each step solves the system once and tries up to trials
    lengths 1, 1/2, 1/4, ... of d, the full step first (a cap on its
    length is the caller's, in d: _capped); a trial is accepted only if
    its residual is below the current one, so a trial with a non-finite
    residual never is.  Stops at the target, at once when the start's
    residual is not finite (point may then return those three entries
    alone), when the system is singular, when no trial is accepted, when
    the residual has fallen by less than the fraction STALL_DECREASE
    over the last STALL_WINDOW steps, or after max_iter steps.  Returns
    the last state and the number of accepted steps.
    """
    state = point(x)
    iterations = 0
    history = [state[1]]
    while iterations < max_iter and state[2] < state[1] < np.inf:
        if (iterations >= STALL_WINDOW and state[1]
                > (1.0 - STALL_DECREASE) * history[-1 - STALL_WINDOW]):
            break       # the residual has stopped moving
        try:
            d = direction(state)
        except np.linalg.LinAlgError:
            break
        x = state[0]
        t = 1.0
        for _half in range(trials):
            trial = point(x + t * d)
            if trial[1] < state[1]:
                break
            t *= BACKTRACK
        else:
            break       # no trial lowers the residual
        state = trial
        iterations += 1
        history.append(state[1])
    return state, iterations


def _capped(d, x):
    """d scaled down, where it is longer, to the length of x."""
    nx, nd = float(np.linalg.norm(x)), float(np.linalg.norm(d))
    return d if nd <= nx else d * (nx / nd)


def _eigen_newton(kern, p, u, opts):
    """principal_eigenpair's damped Newton iteration (_damped_newton) on
    a folded (or full) kernel for A(w) = R mass |w|^(p-2) w,
    sum mass |w|^p = 1: the full-space system, each equation times
    mass / h, stopped on the full-space residual.  Every trial point is
    taken through |.| and brought to unit mass.  Returns the point
    reached, of unit mass, and the number of Newton steps."""

    def point(v):
        # v at unit mass, its residual and target, its quotient and its
        # eigen-equation residual vector
        v = np.abs(v)
        nv = float(np.sum(kern.mass * v ** p)) ** (1.0 / p)
        if nv == 0.0:
            raise SolverError("eigen iteration degenerated to zero")
        v = v / nv
        Av = apply_operator(kern, v, p)
        R = float(np.sum(Av * v))
        rvec = Av - R * kern.mass * odd_power(v, p)
        return v, _residual(kern, rvec), opts.tol * max(1.0, R), R, rvec

    def direction(state):
        # v has unit mass, so the normalization row of F is zero
        v, _, _, R, rvec = state
        return _capped(np.linalg.solve(_eigen_jacobian(kern, p, v, R),
                                       -np.append(rvec, 0.0))[:-1], v)

    state, iterations = _damped_newton(point, direction, u, opts.max_iter,
                                       NEWTON_HALVINGS)
    return state[0], iterations


def solve_fold(kern, params, u, opts=None):
    """Turning point of the minimizer branch, from a minimizer u at
    params.lam.

    The branch turns back at lambda*_h, where the Hessian of the energy
    becomes singular along the branch; there (w, phi, lambda) is an
    isolated solution of the extended system (Moore and Spence, SIAM J.
    Numer. Anal. 17, 1980)

        F(w, phi, lam) = [G(w, lam);  H(w, lam) phi;  l.phi - 1] = 0,

    with G = total_gradient, H = total_hessian and l the unit lowest
    eigenvector of H at the start.  Its Jacobian is

        [[H, 0, G_lam], [D_phi H, H, H_lam phi], [0, l^T, 0]],

    with G_lam = -mass w+^(q-1), H_lam = -mass (q-1) diag(w+^(q-2)) and
    D_phi H, the derivative of H along phi, from a central difference of
    total_hessian.  Damped Newton steps (_damped_newton) start from
    (u, l, params.lam) in the even subspace.  A trial at a lambda
    outside (0, inf), or where A(w) = 0, has an infinite residual and is
    never accepted.

    The residual is the largest of sup |G| / sup |A(w)|,
    (sup |H phi| / sup |phi|) / (sup |A(w)| / sup |w|), both in the
    full-space metric, and |l.phi - 1|: relative, so that no scale of
    the solution passes for converged, and free of the near-ties of
    H's entries at p < 2 (H w = (p-1) A(w) - mass f'(w) w is finite
    where they blow up).  The result is converged when that residual,
    with G of the unfolded point measured on kern, is at most tol and
    the point is nontrivial (sup above zero_tol); otherwise note says
    why not.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, params)
    u = _check_values(kern, getattr(u, "values", u))
    fk = kern.fold()
    w = mirror_fold(u)
    m = len(w)
    _, Q = np.linalg.eigh(total_hessian(fk, ReactionModel.plain(params), w))
    l = Q[:, 0] * np.sign(np.sum(Q[:, 0]))

    def point(x):
        w, phi, lam = x[:m], x[m:-1], float(x[-1])
        if not 0.0 < lam < np.inf:
            return x, np.inf, opts.tol
        model = ReactionModel.plain(with_lambda(params, lam))
        A, G = _operator_and_gradient(fk, model, w)
        scale = _residual(fk, A)
        if not scale > 0.0:
            return x, np.inf, opts.tol
        H = total_hessian(fk, model, w)
        F = np.concatenate((G, H @ phi, [float(l @ phi) - 1.0]))
        res = max(_residual(fk, G) / scale,
                  _residual(fk, F[m:-1]) * _sup(w) / (scale * _sup(phi)),
                  abs(F[-1]))
        return x, res, opts.tol, model, H, F

    def direction(state):
        x, _, _, model, H, F = state
        w, phi = x[:m], x[m:-1]
        q = model.params.q
        eps = 1e-6 * max(1.0, _sup(w)) / _sup(phi)
        wp = np.maximum(w, 0.0)
        J = np.zeros((2 * m + 1, 2 * m + 1))
        J[:m, :m] = J[m:-1, m:-1] = H
        J[m:-1, :m] = (total_hessian(fk, model, w + eps * phi)
                       - total_hessian(fk, model, w - eps * phi)) / (2.0 * eps)
        J[:m, -1] = -fk.mass * wp ** (q - 1.0)
        J[m:-1, -1] = -fk.mass * (q - 1.0) * np.where(
            w > 0.0, curvature_power(wp, q - 2.0, float(np.linalg.norm(w))),
            0.0) * phi
        J[-1, m:-1] = l
        return _capped(np.linalg.solve(J, -F), x)

    state, iterations = _damped_newton(
        point, direction, np.concatenate((w, l, [params.lam])),
        opts.max_iter, NEWTON_HALVINGS)
    x, residual = state[0], state[1]
    lam = float(x[-1])
    u = mirror_unfold(x[:m], kern.n)
    if residual < np.inf:
        # G on the full kernel, which sees an asymmetry the folded one
        # cannot; H phi stays in the even subspace, where the fold lives
        A, G = _operator_and_gradient(
            kern, ReactionModel.plain(with_lambda(params, lam)), u)
        residual = max(residual, _residual(kern, G) / _residual(kern, A))
    note = None
    if not residual <= opts.tol:
        note = ("residual %.3e after %d Newton steps, at lambda=%g"
                % (residual, iterations, lam))
    elif _sup(u) <= opts.zero_tol:
        note = "ended at zero, at lambda=%g" % lam
    return FoldResult(lam=lam, solution=GridFunction(u, kern.mesh),
                      null_vector=GridFunction(mirror_unfold(x[m:-1], kern.n),
                                               kern.mesh),
                      residual=residual, iterations=iterations,
                      converged=note is None, note=note)


def _operator_and_gradient(kern, model, w):
    A = apply_operator(kern, w, model.params.p)
    return A, A - kern.mass * f_values(model, w)


def _eigen_jacobian(kern, p, w, R):
    """Jacobian of the bordered eigen system at (w, R) on kern.

    The system, for unknowns w (folded or full) and R, is
        F(w, R) = [A(w) - R mass phi_p(w);  sum mass |w|^p - 1]
    with phi_p the signed power |w|^(p-1) sign(w).  Its (m+1) x (m+1)
    Jacobian has the block operator_hessian - R (p-1) diag(mass
    |w|^(p-2)), built in place in the bordered matrix, the column
    -mass phi_p(w) and the row p mass phi_p(w).  The block alone is
    singular at an eigenpair, with w in its kernel by (p-1)-homogeneity;
    the border makes the system regular there, since the row pairs with
    w to p sum mass |w|^p = p.
    """
    m = len(w)
    B = np.empty((m + 1, m + 1))
    J = operator_hessian(kern, w, p, out=B[:m, :m])
    np.einsum("ii->i", J)[...] -= R * (p - 1.0) * kern.mass * curvature_power(
        w, p - 2.0, float(np.linalg.norm(w)))
    phi = kern.mass * odd_power(w, p)
    B[:m, m] = -phi
    B[m, :m] = p * phi
    B[m, m] = 0.0
    return B


def _reequispace(Z, frac):
    """Redistribute path points at fixed arclength fractions.

    frac gives the target cumulative-arclength fraction of every point;
    keeping it non-uniform preserves a resolution bias along the path
    across redistributions.  Only the path descent of find_saddle
    redistributes: the Newton finish moves the maximal point alone.

    Returns the new path and, for its interior points, the segment
    index k and the weight t of each: new point j is computed as
    Z[k] + t (Z[k+1] - Z[k]), the convex combination (1-t) Z[k] +
    t Z[k+1] up to a few units of roundoff in each component when
    0 <= t <= 1.  _mountain_pass bounds the new points' seminorm
    energies by the same weights.
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
    return out, idx, t


def find_saddle(kern, params, u_big, opts=None, return_path=False):
    """Mountain-pass critical point between 0 and a known minimizer.

    u_big must pass minimize's own stopping test, or SolverError says
    it is not a local minimizer: its gradient sup-norm on kern is at
    most tol * max(1, |E|), and a Cholesky factorization of the folded
    Hessian there succeeds.  The search runs on the energy restricted to
    the box 0 <= z <= u_big: every step is projected onto the box, and
    redistribution takes convex combinations of path points, so the
    returned point satisfies 0 <= v <= u_big.

    The path descent moves the maximal point of the path and
    redistributes the path after every step.  Once progress stalls,
    that point alone takes up to SADDLE_ROUNDS min-max Newton steps
    (_newton_polish; Li & Zhou, SIAM J. Sci. Comput. 23, 2001), which
    are kept if they reach the residual target at a point where the
    Hessian has exactly one negative eigenvalue.  Otherwise the point
    goes back to where the descent left it, the descent resumes, and
    the finish is tried again at the next stall; the search gives up
    when a finish fails and the descent has not lowered its best
    residual since the finish before.  The other path points stay where
    the descent left them.  iterations counts the descent steps plus the
    Newton steps kept.  SaddleNotFound is raised when the maximal point
    ends no higher than both endpoints.

    Each step needs only the path's highest point, not every point's
    energy.  The search bounds the seminorm energy S of each point from
    above: by S itself where the point was evaluated, by t^p S(u_big)
    on the initial path t u_big (S is p-homogeneous), and at a point
    that redistribution interpolates between a and b at weight t by
    ((1-t) S(a)^(1/p) + t S(b)^(1/p))^p, which is at most
    (1-t) S(a) + t S(b) (S is convex for p > 1, so S^(1/p) is too; the
    proof is in _mountain_pass).  Every bound is widened by
    1e-12 (|S| + |sum mass F|), about 9000 units of roundoff, which
    covers the rounding of S, of the interpolated points and of
    the bound's own arithmetic (_widened).  Only the points whose bound,
    less their reaction sum, reaches the best energy found are
    evaluated, so every iteration, and so the report, is bit for bit
    what the energies of the whole path give.

    The search runs in the even subspace, where the saddle has Morse
    index one (in the full space the lowest odd mode can be negative
    too), so u_big must be even under the mirror map to within 1e-6 of
    max(1, sup|u_big|); otherwise ParameterError.  The report carries
    that index (morse_index, the number of negative eigenvalues of the
    folded Hessian at the result) and has converged=False unless it is
    one.  The path returned with return_path is unfolded, with its
    energies measured on kern.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, params)
    u_big = _check_values(kern, getattr(u_big, "values", u_big))
    _require_even(u_big)
    if _sup(u_big) <= opts.zero_tol:
        raise SaddleNotFound("ceiling solution is numerically zero")
    model = ReactionModel.plain(params)
    fk, w_big = kern.fold(), mirror_fold(u_big)
    E, g = _energy_and_gradient(kern, model, u_big)
    try:
        np.linalg.cholesky(total_hessian(fk, model, w_big))
        minimal = _sup(g) <= opts.tol * _scale(E)
    except np.linalg.LinAlgError:
        minimal = False
    if not minimal:
        raise SolverError("path endpoint is not a local minimizer")
    P = int(opts.path_points)
    Z, m, iterations, index = _mountain_pass(fk, model, w_big, P, opts)
    v = mirror_unfold(Z[m], kern.n)
    bound_tol = 1e-6 * max(1.0, _sup(u_big))
    if float(np.min(v)) < -bound_tol or float(np.max(v - u_big)) > bound_tol:
        raise SolverError("saddle point escaped the [0, ceiling] range")
    report = _report(kern, model, v, iterations, opts.tol, "saddle")
    # a critical point of any other Morse index is not the mountain pass
    report.morse_index = index
    report.converged = report.converged and index == 1
    if return_path:
        Z = mirror_unfold(Z, kern.n)
        energies = np.array([total_energy(kern, model, z) for z in Z])
        return report, MountainPassPath(points=Z, energies=energies, max_index=m)
    return report


def _mountain_pass(kern, model, u_big, P, opts):
    """find_saddle's search on a folded (or full) kernel, in the box
    0 <= z <= u_big; returns the path, the index of its maximal point,
    the number of iterations and the Morse index at that point.

    An iteration needs only the index m of the highest interior point
    (np.argmax's first maximum) and its energy, so the other points'
    energies are bounded rather than computed (_highest).  top holds an
    upper bound on the seminorm energy S of every point:

      - S itself, read back from the energy E as E + sum mass F, where
        a point was evaluated, or moved by the path step;
      - t^p S(u_big) at t u_big on the initial path, S being
        p-homogeneous: S(t u) = t^p S(u) for t >= 0;
      - ((1-t) top[k]^(1/p) + t top[k+1]^(1/p))^p at a point that
        _reequispace puts at weight t on segment k.  For p > 1 every
        term K |z_i - z_j|^p and T |z_i|^p of S is convex, so S is
        convex, and with p-homogeneity S^(1/p) is convex too: for a, b
        with alpha = S(a)^(1/p), beta = S(b)^(1/p) positive, (a + b) /
        (alpha + beta) is the convex combination of a / alpha and
        b / beta at weights alpha / (alpha + beta) and
        beta / (alpha + beta), where S is 1, so S <= 1 there, which
        is S(a + b)^(1/p) <= alpha + beta (a zero alpha or beta is the
        limit of small positive ones).  Hence, for 0 <= t <= 1,
            S((1-t) a + t b) <= ((1-t) S(a)^(1/p) + t S(b)^(1/p))^p
                             <= (1-t) S(a) + t S(b),
        the last by the convexity of x^p; the first, closer bound is
        the one kept.  A weight outside [0, 1] gives no bound, and top
        is inf there.

    Each bound is widened by _widened's margin, so that it holds for S
    as computed, and then top - sum mass F bounds the computed E from
    above at O(n) cost a point.  Every energy the search keeps is
    total_energy of one point, so m and energies[m] carry the bits that
    the energies of the whole path give, at every exit of the loop;
    where max_iter ends it, right after a step, the point at index m is
    evaluated.
    """
    # The zero endpoint needs no check: the primitive is <= 0 for
    # 0 <= t < delta = lam^(-1/(q-r)) (for every t at lam = 0), so in
    # the box the energy is >= 0 = E(0) wherever max z < delta.

    # quadratic spacing: the barrier hugs the zero endpoint once the
    # minimizer towers over the saddle, and a uniform path would bury
    # it inside the first segment
    frac = np.linspace(0.0, 1.0, P) ** 2
    Z = frac[:, None] * u_big[None, :]
    # energies are exact where known is set: at the endpoints, which
    # never move, and at the points _highest evaluates
    known = np.zeros(P, dtype=bool)
    known[[0, -1]] = True
    energies = np.zeros(P)
    energies[-1] = total_energy(kern, model, Z[-1])     # E(0) = 0
    F = _reaction_sums(kern, model, Z)
    p = model.params.p
    top = _widened(frac ** p * _widened(energies[-1] + F[-1], F[-1]), F)
    end_energy = max(energies[0], energies[-1])
    step = None
    best_residual = finish_best = np.inf
    stall = 0
    iterations = 0
    index = None
    while iterations < opts.max_iter:
        iterations += 1
        m = _highest(kern, model, Z, top - F, energies, known)
        top[known] = _widened(energies[known] + F[known], F[known])
        E_m, g = _energy_and_gradient(kern, model, Z[m])
        residual = _residual(kern, g)
        scale = _scale(E_m)
        if residual <= opts.tol * scale:
            break
        if residual < 0.95 * best_residual:
            best_residual = residual
            stall = 0
        else:
            stall += 1
        # descend while the best residual keeps improving; finish once
        # it stalls at the path resolution, avoiding moments when the
        # residual spikes from a redistribution
        if (stall >= 15 and residual <= 2.0 * best_residual) or stall > 80:
            stall = 0
            # the min-max Newton finish counts only if it converges to a
            # point of Morse index one; otherwise the descent resumes
            # from the point it left and the finish is tried again at
            # the next stall
            w, res_w, steps = _newton_polish(
                kern, model, Z[m], u_big, opts.tol * scale,
                min(SADDLE_ROUNDS, opts.max_iter - iterations))
            E_w = total_energy(kern, model, w)
            if (res_w <= opts.tol * _scale(E_w)
                    and _morse_index(kern, model, w) == 1):
                Z[m] = w
                energies[m] = E_w
                iterations += steps
                index = 1
                break
            if best_residual == finish_best:
                break       # no descent progress since the last finish
            finish_best = best_residual
        if step is None:
            step = 1.0 / max(1.0, residual)
        step = min(step * 2.0, STEP_MAX)
        gf = g * (kern.mesh.h / kern.mass)     # the full-space gradient
        gg = float(g @ gf)
        # projected step: boundary nodes overshoot below zero
        # otherwise, and redistribution then smears the violation
        # along the whole path
        while step > 1e-20:
            trial = _clip_box(Z[m] - opts.damping * step * gf, u_big)
            E_try = total_energy(kern, model, trial)
            if E_try <= E_m - ARMIJO * opts.damping * step * gg:
                break
            step *= BACKTRACK
        Z[m] = trial
        F_try = _reaction_sums(kern, model, trial[None])[0]
        top[m] = _widened(E_try + F_try, F_try)
        Z, seg, t = _reequispace(Z, frac=frac)
        F = _reaction_sums(kern, model, Z)
        root = top ** (1.0 / p)
        chord = ((1.0 - t) * root[seg] + t * root[seg + 1]) ** p
        top[1:-1] = _widened(np.where((t >= 0.0) & (t <= 1.0), chord, np.inf),
                             F[1:-1])
        known[1:-1] = False
    else:
        # max_iter ends the loop right after a step, which moved the
        # point at index m
        energies[m] = total_energy(kern, model, Z[m])
    # the zero function is critical too: a maximal point no higher than
    # the endpoints (to rounding) is no saddle, however small its residual
    if energies[m] <= end_energy + 1e-12 * scale:
        raise SaddleNotFound("mountain-pass path collapsed onto an endpoint")
    if index is None:
        index = _morse_index(kern, model, Z[m])
    return Z, m, iterations, index


def _widened(S, F):
    """An upper bound S on a path point's seminorm energy, widened by
    the rounding margin 1e-12 (|S| + |F|), F the point's sum mass F.

    The margin, about 9000 units of roundoff u = 2^-53 of that scale,
    covers with room to spare each rounding that one bound of
    _mountain_pass has to absorb:

      - the computed S: its terms are nonnegative, each off by about
        (p + 3) u, and summed pairwise within blocks of rows and in
        order across the blocks, so S is off by a few dozen u of S;
      - a path point that is itself rounded: t u_big, or
        Z[k] + t (Z[k+1] - Z[k]), is off by a few u in each component
        from the exact point, which moves S by about p times that,
        relative;
      - S read back as E + F from a computed E = S - F: off by about
        2u (|E| + |F|) <= 2u (|S| + 2|F|);
      - the bound's own arithmetic, t^p S or the chord of S^(1/p):
        a few p u, relative.

    Every new bound is widened again, so the margin of each
    redistribution covers that redistribution's rounding.
    """
    return S + 1e-12 * (np.abs(S) + np.abs(F))


def _highest(kern, model, Z, upper, energies, known):
    """Index m of the highest interior point of the path Z, the first
    maximum np.argmax finds among every point's exact energy, with that
    energy in energies[m].

    upper bounds every point's computed energy from above; energies
    holds exact energies (total_energy's) where known is set, and the
    points evaluated here are added to both.  The unknown point of highest
    bound, a bound that is not finite counting as the highest, is
    evaluated, one at a time, while that bound is not below the best
    exact energy: every point left out is then strictly lower than that
    best, so the first maximum of the exact energies is the first
    maximum of them all.
    """
    exact = np.where(known, energies, -np.inf)[1:-1]
    order = np.where(known, -np.inf,
                     np.where(np.isfinite(upper), upper, np.inf))[1:-1]
    best = np.max(exact)
    while True:
        j = int(np.argmax(order))
        if order[j] < best or known[1 + j]:
            return 1 + int(np.argmax(exact))
        exact[j] = energies[1 + j] = total_energy(kern, model, Z[1 + j])
        known[1 + j] = True
        order[j] = -np.inf
        best = np.max(exact)


def _morse_index(kern, model, v):
    """Number of negative eigenvalues of the exact Hessian at v."""
    return int(np.sum(np.linalg.eigvalsh(total_hessian(kern, model, v)) < 0.0))


def _newton_polish(kern, model, v, top, tol_scale, rounds):
    """Min-max Newton steps toward a saddle of Morse index one (Li &
    Zhou, SIAM J. Sci. Comput. 23, 2001), by _damped_newton.

    Each direction inverts the exact Hessian (total_hessian) through its
    eigendecomposition, with curvatures below 1e-9 of the largest
    dropped and every curvature taken by its modulus except the lowest,
    which is taken negative: the Newton step where the Hessian has
    exactly one negative eigenvalue, and elsewhere a climb of the lowest
    mode and a descent of all the others.  Points are projected onto
    the box 0 <= z <= top.  A step tries up to SADDLE_HALVINGS lengths,
    the full one first and uncapped (fewer lengths, or the eigen solve's
    cap, lose saddles the search finds otherwise), and is kept only when
    the gradient sup-norm falls.  Stops at tol_scale or after rounds
    steps; returns the point, its residual and the number of steps.
    """

    def point(z):
        z = _clip_box(z, top)
        g = total_gradient(kern, model, z)
        return z, _residual(kern, g), tol_scale, g

    def direction(state):
        z, _, _, g = state
        curv, Q = np.linalg.eigh(total_hessian(kern, model, z))
        keep = np.abs(curv) > 1e-9 * float(np.max(np.abs(curv)))
        curv = np.abs(curv)
        curv[0] = -curv[0]
        return -(Q[:, keep] @ ((Q.T @ g)[keep] / curv[keep]))

    state, steps = _damped_newton(point, direction, v, rounds, SADDLE_HALVINGS)
    return state[0], state[1], steps
