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
length, with every trial point projected onto u >= 0 (projected Newton,
Bertsekas, SIAM J. Control Optim. 20, 1982), until Armijo's decrease
holds; near a minimizer that decrease drops below the rounding of the
energy (1e-13 * max(1, |E|)), and from there a step is accepted on its
slope instead, by the approximate Wolfe test of Hager and Zhang, so
descent runs on to the residual target rather than stalling on noise.
Along a ray the energy is the fibering map
E(t u) = S(u) t^p - (lam/q) A t^q + (1/r) B t^r, A and B sums of mass
u+^q and u+^r: a descent that reaches a u from which it rises on the
whole segment to 0 ends at zero (_rises_from_zero, with a Picone
constant of the kernel bounding S from below).  Every nontrivial
critical point u >= 0 has max u <= t+, the larger root of
f(t) / t^(p-1) = min 2 T / mass, and minimize_multistart scales its
starts down to peak at most t+ (_amplitude_ceiling), to zero where zero
is the only critical point.
principal_eigenpair takes damped Newton steps on the bordered eigen
system (the eigen equation plus the normalization, solved for the
eigenfunction and the eigenvalue together with the exact Hessian of the
operator) from its first iterate, each accepted only if the residual
falls, and gives up once no step lowers it or the residual has stopped
moving.  solve_fold finds the turning point of the minimizer branch,
where the Hessian turns singular, by the same damped Newton loop on the
extended system of the minimizer, the null vector of its Hessian and
lambda.  find_saddle finds the mountain-pass point below a minimizer
u_big as the least energy peak along the rays from zero (Li and Zhou,
SIAM J. Sci. Comput. 23, 2001): a ray peaks at the first root of the
fibering map's slope, and Newton steps descend over the peaks from the
peak of u_big's ray, on the Hessian restricted to the tangent of the
peaks and, near the saddle, on the exact Hessian of the energy of the
peaks, its Schur complement along the ray, so that the descent's tail
converges quadratically to the saddle's own residual target.  The
result counts if it is a point of Morse index one strictly between 0
and u_big.

The solutions sought are even under the mirror map of the interval, so
every solver works in the even subspace: it takes the even kernel of
KernelMatrix.from_sigma as it is, folds its start onto the first
m = ceil(n/2) nodes (mirror_fold), solves there, and unfolds the result
to the n nodes of the mesh.  On the even kernel the energy of a point is
the energy of its unfolding and the gradient is the full one times
mass / h (the identities in kernel), so the stopping tests read the
full-space residual sup |g h / mass|, and every report carries the
full-space energy and residual of the unfolded point, read off the last
pass over the even kernel.  A full kernel (KernelMatrix.full_from_sigma)
is rejected with KernelError.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (GridFunction, MeshMismatchError, ParameterError,
                   curvature_power, mirror_fold, mirror_unfold, odd_power,
                   with_lambda)
from .kernel import (KernelError, _check_values, apply_operator,
                     operator_hessian, seminorm_energy,
                     seminorm_energy_and_operator)
from .reaction import (ReactionModel, F_values, df_values, f_values,
                       sign_threshold_delta)


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a trustworthy result."""


class SaddleNotFound(SolverError):
    """Raised when the energy has no peak along the ray of the minimizer."""


NEWTON_HALVINGS = 8     # step lengths an eigen or fold Newton step may try
STALL_WINDOW = 20       # Newton steps over which the residual must fall
STALL_DECREASE = 5e-3   # by this fraction, or the Newton iteration gives up
ARMIJO = 1e-4           # sufficient-decrease fraction of every line search
BACKTRACK = 0.5         # step shrink factor while backtracking
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
    raises ParameterError.  No solver reads path_points or damping;
    they are checked, as the configuration and the benchmark pass them."""

    tol: float = 1e-9
    max_iter: int = 50_000
    zero_tol: float = 1e-6
    starts: int = 10
    path_points: int = 41
    damping: float = 0.2
    width: float = 0.05

    def __post_init__(self):
        # a zero or negative tolerance or width is never met, so the loops
        # that read them run on to their caps or forever; with no start
        # there is no report to select, and with no step nothing converges
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


def _check_even(kern):
    if not kern.even:
        raise KernelError("the solvers take the even-subspace kernel "
                          "(KernelMatrix.from_sigma), not a full one")


def _check_compat(kern, params):
    _check_even(kern)
    sigma = params.p * params.s
    if abs(kern.sigma - sigma) > 1e-9 * max(1.0, sigma):
        raise MeshMismatchError(
            "kernel of order %g used with parameters of order p*s=%g"
            % (kern.sigma, sigma))


def total_energy(kern, model, u):
    """Seminorm energy minus the integrated reaction primitive."""
    S = seminorm_energy(kern, u, model.params.p)
    return S - float((kern.mass * F_values(model, u)).sum())


def total_gradient(kern, model, u):
    """Exact gradient of total_energy at u."""
    return _energy_and_gradient(kern, model, u)[1]


def total_hessian(kern, model, u):
    """Exact Hessian of total_energy at u, a dense symmetric n x n matrix."""
    H = operator_hessian(kern, u, model.params.p)
    np.einsum("ii->i", H)[...] -= kern.mass * df_values(model, u)
    return H


def _energy_and_gradient(kern, model, u):
    return _total(kern, model, u,
                  *seminorm_energy_and_operator(kern, u, model.params.p))


def _total(kern, model, u, S, A):
    """Total energy and gradient at u from its seminorm energy S and
    operator A."""
    E = S - float((kern.mass * F_values(model, u)).sum())
    return E, A - kern.mass * f_values(model, u)


def _sup(x):
    return float(np.abs(x).max())


def _residual(kern, g):
    """Sup-norm of the full-space gradient that a gradient g on kern
    stands for."""
    return _sup(g * (kern.mesh.h / kern.mass))


def _scale(E):
    """max(1, |E|), the scale of the tests on an energy E."""
    return max(1.0, abs(E))


def _require_even(u):
    """Reject a ceiling that is not even under the mirror map.

    The ceiling enters the even problem as its mirror average, which
    is the problem posed only if the ceiling is even: to within 1e-6 of
    max(1, sup|u|), the slack the range check already allows, as
    folding moves it by at most half of that.
    """
    gap = _sup(u - u[::-1])
    if gap > 1e-6 * max(1.0, _sup(u)):
        raise ParameterError(
            "ceiling is not mirror-even (|u_i - u_(n-1-i)| up to %.3e): "
            "the solvers work in the even subspace" % gap)


def _report(kern, w, E, g, iterations, tol, classification):
    """SolveReport for the unfolding of an even-subspace point w with
    energy E and gradient g on kern: the full-space energy and residual
    of that unfolding."""
    residual = _residual(kern, g)
    return SolveReport(solution=GridFunction(mirror_unfold(w, kern.n),
                                             kern.mesh), energy=float(E),
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
    test.  Descent starts from the positive part of u0 and projects
    every trial point onto u >= 0, where the critical points sought lie;
    projection never raises the energy (_descend).

    Stops when the gradient sup-norm falls below tol * max(1, |E|) at a
    point where the Cholesky factorization succeeds, so never at a
    saddle; when backtracking finds no acceptable step (converged=False);
    or after max_iter accepted steps.  Descent that reaches a point u
    from which the energy rises along the whole segment to 0, by the
    fibering bound of _rises_from_zero, ends at zero exactly: no other
    critical point lies in that set.  mu > 0, a Picone constant of kern,
    widens the set; it then holds every u >= 0 below the floor t- of
    every nontrivial solution.  Descent runs in the even subspace from
    the mirror average of u0, and the report carries the full-space
    energy and residual of its last point.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, model.params)
    u0 = _check_values(u0, kern.n)
    w, E, g, iterations = _descend(kern, model, mirror_fold(u0), opts, mu)
    cls = "zero" if _sup(w) <= opts.zero_tol else "minimizer"
    return _report(kern, w, E, g, iterations, opts.tol, cls)


def _descend(kern, model, u0, opts, mu=0.0):
    """minimize's descent on an even (or full) kernel from the positive
    part of u0; returns the point reached, its energy and gradient, and
    the number of accepted steps.

    The step is _peak_descent's: d = -H^-1 g where H is positive
    definite, else _shifted_step's, and the trial of length t is
    max(u + t d, 0), projected Newton on u >= 0 (Bertsekas, SIAM J.
    Control Optim. 20, 1982).  Projection never raises the energy
    (|a+ - b+| <= |a - b|, T |u+|^p <= T |u|^p, F = 0 for t <= 0), so a
    length Armijo's test accepts unprojected passes it projected.  The
    stop test is made before the solve, so the last point costs none.

    Descent that reaches a point where _rises_from_zero holds is
    finished at zero exactly: the energy rises along the whole segment
    from 0 to that point, so zero is the only critical point there and
    the jump to it descends.  The test is skipped where E is below
    minus its rounding, as it can hold only where E > 0; at lam = 0 it
    holds everywhere, so descent ends at zero on its first step.
    """
    u = np.maximum(u0, 0.0)
    E, g = _energy_and_gradient(kern, model, u)

    def trial(t):
        u_new = np.maximum(u + t * d, 0.0)
        return (u_new, *_energy_and_gradient(kern, model, u_new))

    iterations = 0
    shift = SHIFT_START
    while iterations < opts.max_iter:
        if (not E < -_rounding(E)
                and _rises_from_zero(kern, model.params, u, mu)):
            u = np.zeros_like(u)
            E = 0.0
            g = np.zeros_like(g)
            iterations += 1
            break
        H = total_hessian(kern, model, u)
        if _definite(H):
            if _residual(kern, g) <= opts.tol * _scale(E):
                break
            d = -np.linalg.solve(H, g)  # numpy has no triangular solve
        else:
            d, shift = _shifted_step(H, g, shift)
        moved = _backtrack(trial, E, g, d)
        if moved is None:
            break       # no acceptable step left
        u, E, g = moved
        iterations += 1
    return u, E, g, iterations


def _backtrack(trial, E, g, d):
    """Backtracking from a point of energy E and gradient g along d:
    trial(t), a tuple ending with the energy and gradient of the step
    of length t (None where that step has no point), for t = 1, 1/2,
    ... > 1e-20 until Armijo's decrease holds or, below the rounding of
    E, the approximate Wolfe test.  None where g.d >= 0 or no length
    is accepted."""
    gd = float(g @ d)
    t = 1.0
    while gd < 0.0 and t > 1e-20:
        new = trial(t)
        if new is not None:
            E_new, g_new = new[-2], new[-1]
            decrease = -ARMIJO * t * gd
            if decrease > _rounding(E):
                accepted = E_new <= E - decrease
            else:
                accepted = _slope_accepts(E, E_new, float(g_new @ d), gd)
            if accepted:
                return new
        t *= BACKTRACK
    return None


def _definite(H):
    """Whether a Cholesky factorization shows the symmetric H positive
    definite."""
    try:
        np.linalg.cholesky(H)       # succeeds iff H is positive definite
    except np.linalg.LinAlgError:
        return False
    return True


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
    floor = np.finfo(float).eps * float(diag.max())
    S = 1.0 / np.sqrt(np.maximum(diag, floor))
    A = H * S[:, None] * S[None, :]
    a = np.diagonal(A).copy()
    tau = max(SHIFT_START - min(0.0, float(a.min())), SHIFT_REUSE * shift)
    # ends for a finite H: A + tau I is diagonally dominant, so positive
    # definite, once tau exceeds the row sums of |A|
    while True:
        np.einsum("ii->i", A)[...] = a + tau
        if _definite(A):
            return -S * np.linalg.solve(A, S * g), tau
        tau *= SHIFT_GROWTH


def default_starts(mesh, params, count, seed):
    """Randomized positive starting profiles, amplitudes spread around
    the sign-threshold scale so at least one lands in a nontrivial
    basin whenever there is one."""
    rng = np.random.default_rng(seed)
    base = (mesh.dist / mesh.dist.max()) ** params.s
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


def _lambda_at_peak(params, mu):
    """G^-1(mu) = (p-r)/(p-q) (mu (p-q)/(q-r))^((q-r)/(p-r)), mu >= 0,
    the lam at which the peak G(lam) = h(t*) of h is mu; G rises with
    lam, so h < mu everywhere below it.  lam of params is not read."""
    p, q, r = params.p, params.q, params.r
    return (p - r) / (p - q) * (mu * (p - q) / (q - r)) ** ((q - r) / (p - r))


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


def _rises_from_zero(kern, params, u, mu):
    """Whether the energy on kern (full or even) rises along the whole
    segment from 0 to u, by the fibering map of Drabek and Pohozaev
    (Proc. Roy. Soc. Edinburgh 127A, 1997): no critical point other
    than zero lies in the star-shaped set where this holds.

    With W, A, B the sums of mass u+^p, u+^q, u+^r, the energy along
    the ray is E(t u) = S(u) t^p - (lam/q) A t^q + (1/r) B t^r.  Taking
    positive parts lowers every term of S, and mu, a Picone constant of
    kern (bifurcation.lambda_lower_bound; 0 where there is none), gives
    p S(u+) = pairing(A(u+), u+) >= mu W, so

        dE(t u)/dt = p S(u) t^(p-1) - lam A t^(q-1) + B t^(r-1)
                   >= t^(r-1) psi(t),
        psi(t) = mu W t^(p-r) - lam A t^(q-r) + B.

    psi > 0 on (0, 1] thus makes E rise on the segment, and E(u) > 0.
    At a critical point v, psi_v(1) <= g(v).v = 0.  As
    psi(t) = t^(p-r) sum mass u+^p (mu - h(t u+)), h = _ratio, the set
    contains the box max u < t-, the smaller root of h = mu.  The least
    value of psi on (0, 1] is _psi_least's.  It holds where lam A = 0:
    at lam = 0 psi >= B > 0, and where u+ = 0 E(t u) = t^p S(u) does
    not fall, and a critical point v <= 0 has p S(v) = g(v).v = 0, so
    v = 0 for positive tails T.
    """
    p, q, r = params.p, params.q, params.r
    up = np.maximum(u, 0.0)
    lam_A = params.lam * float((kern.mass * up ** q).sum())
    if lam_A == 0.0:
        return True
    B = float((kern.mass * up ** r).sum())
    mu_W = max(mu, 0.0) * float((kern.mass * up ** p).sum())
    return _psi_least(params, mu_W, lam_A, B, 1.0)[1] > 0.0


def _psi(params, a, lam_A, B, t):
    """psi(t) = a t^(p-r) - lam_A t^(q-r) + B: with a = p S(w), lam_A =
    lam sum mass w+^q and B = sum mass w+^r, t^(r-1) psi(t) is the slope
    dE(t w)/dt of the fibering map, and with a = mu W a bound of it from
    below (_rises_from_zero)."""
    p, q, r = params.p, params.q, params.r
    return a * t ** (p - r) - lam_A * t ** (q - r) + B


def _psi_least(params, a, lam_A, B, cap=np.inf):
    """Where on (0, cap] psi (_psi) is least, and its value there, for
    a, B >= 0 and lam_A > 0: psi falls from B and, where a > 0, rises
    past t0 = ((q-r) lam_A / ((p-r) a))^(1/(p-q)), where
    psi(t0) = B - (p-q)/(p-r) lam_A t0^(q-r).  A power too large for a
    float raises OverflowError."""
    p, q, r = params.p, params.q, params.r
    # t0^(p-q)
    ratio = (q - r) * lam_A / ((p - r) * a) if a > 0.0 else np.inf
    if ratio >= cap ** (p - q):
        return cap, _psi(params, a, lam_A, B, cap)
    return (ratio ** (1.0 / (p - q)),
            B - (p - q) / (p - r) * lam_A * ratio ** ((q - r) / (p - q)))


def _amplitude_ceiling(kern, params):
    """t+, above which no critical point u >= 0 of the energy on kern
    (full or even) peaks: 0.0 where zero is the only one, and None
    where no bound is known.

    With c = min_i 2 T_i / mass_i: at a node i where u is largest every
    pair term K_ij (u_i - u_j)^(p-1) of A(u)_i is >= 0, so
    A(u)_i >= 2 T_i u_i^(p-1), and g_i = A(u)_i - mass_i f(u_i) >=
    mass_i u_i^(p-1) (c - h(u_i)).  A critical point, g_i = 0, so has
    h(u_i) >= c, that is max u <= t+, the larger root of h = c.  It lies in
    [t*, (lam / c)^(1/(p-q))], as h(t) < lam t^(q-p), and bisection
    returns the upper end of that bracket, at or above the root.  0.0
    where max h < c, lam < _lambda_at_peak(params, c): c is the Picone
    constant of the constant vector (A(1) = 2 T), and this is the law of
    bifurcation.lambda_lower_bound.  None at
    lam = 0, where K has a negative entry or c <= 0, and where the
    bracket's ends underflow or overflow a float.  On an
    even kernel T and mass are both doubled (neither at an odd mesh's
    middle node), so c is the full kernel's over the first m nodes.
    """
    c = float((2.0 * kern.T / kern.mass).min())
    if not (params.lam > 0.0 and c > 0.0 and (kern.K >= 0.0).all()):
        return None
    if params.lam < _lambda_at_peak(params, c):
        return 0.0      # max h < c: zero is the only critical point
    try:
        peak = _ratio_peak(params)
        far = (params.lam / c) ** (1.0 / (params.p - params.q))
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
            peak = float(u0.max())
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
    to the boundary; the value and the full-space residual of the result
    are those of the last Newton state.
    """
    opts = opts or SolverOptions()
    _check_even(kern)
    u = (kern.mesh.dist / kern.mesh.dist.max()) ** (kern.sigma / p)
    state, iterations = _eigen_newton(kern, p, mirror_fold(u), opts)
    w, residual, target, R = state[:4]
    return EigenResult(value=R,
                       eigenfunction=GridFunction(mirror_unfold(w, kern.n),
                                                  kern.mesh),
                       residual=residual, iterations=iterations,
                       converged=residual <= target)


def _damped_newton(point, direction, state, max_iter):
    """Damped Newton iteration, shared by the eigen and fold solves.

    point(x) returns the state of an iterate x, a tuple whose first
    three entries are the admissible point that x stands for, its
    residual and the residual target; state is the start's.
    direction(state) returns the Newton direction d there, and raises
    LinAlgError where the system is singular.  Each step solves the
    system once and tries up to NEWTON_HALVINGS lengths 1, 1/2, 1/4,
    ... of d, the full step first (a cap on its length is the caller's,
    in d: _capped); a trial is accepted only if its residual is below the
    current one, so a trial with a non-finite residual never is.  Stops
    at the target, at once when the start's residual is not finite
    (point may then return those three entries alone), when the system
    is singular, when no trial is accepted, when the residual has
    stalled (_stalled), or after max_iter steps.  Returns the last state
    and the number of accepted steps.
    """
    iterations = 0
    history = [state[1]]
    while (iterations < max_iter and state[2] < state[1] < np.inf
           and not _stalled(history)):
        try:
            d = direction(state)
        except np.linalg.LinAlgError:
            break
        x = state[0]
        t = 1.0
        for _half in range(NEWTON_HALVINGS):
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


def _stalled(history):
    """Whether the residual, history[-1] after len(history) - 1 steps,
    has fallen by less than the fraction STALL_DECREASE over the last
    STALL_WINDOW of them: the stall rule of _damped_newton and
    _peak_descent."""
    return (len(history) > STALL_WINDOW and history[-1]
            > (1.0 - STALL_DECREASE) * history[-1 - STALL_WINDOW])


def _capped(d, x):
    """d scaled down, where it is longer, to the length of x."""
    nx, nd = float(np.linalg.norm(x)), float(np.linalg.norm(d))
    return d if nd <= nx else d * (nx / nd)


def _eigen_newton(kern, p, u, opts):
    """principal_eigenpair's damped Newton iteration (_damped_newton) on
    an even (or full) kernel for A(w) = R mass |w|^(p-2) w,
    sum mass |w|^p = 1: the full-space system, each equation times
    mass / h, stopped on the full-space residual.  Every trial point is
    taken through |.| and brought to unit mass.  Returns the last state,
    (w, residual, target, R, residual vector) with w of unit mass, and
    the number of Newton steps."""

    def point(v):
        # v at unit mass, its residual and target, its quotient and its
        # eigen-equation residual vector
        v = np.abs(v)
        nv = float((kern.mass * v ** p).sum()) ** (1.0 / p)
        if nv == 0.0:
            raise SolverError("eigen iteration degenerated to zero")
        v = v / nv
        Av = apply_operator(kern, v, p)
        R = float((Av * v).sum())
        rvec = Av - R * kern.mass * odd_power(v, p)
        return v, _residual(kern, rvec), opts.tol * max(1.0, R), R, rvec

    # one bordered matrix for all steps: a new (m+1) x (m+1) array each
    # step is allocated from fresh pages, and page-faulted all over again
    B = np.empty((len(u) + 1, len(u) + 1))

    def direction(state):
        # v has unit mass, so the normalization row of F is zero
        v, _, _, R, rvec = state
        return _capped(np.linalg.solve(_eigen_jacobian(kern, p, v, R, B),
                                       -np.append(rvec, 0.0))[:-1], v)

    return _damped_newton(point, direction, point(u), opts.max_iter)


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
    where they blow up).  The result is converged when that residual at
    the last Newton state is at most tol and the point is nontrivial
    (sup above zero_tol); otherwise note says why not.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, params)
    u = _check_values(getattr(u, "values", u), kern.n)
    w = mirror_fold(u)
    m = len(w)
    _, Q = np.linalg.eigh(total_hessian(kern, ReactionModel.plain(params), w))
    l = Q[:, 0] * np.sign(Q[:, 0].sum())

    def point(x):
        w, phi, lam = x[:m], x[m:-1], float(x[-1])
        if not 0.0 < lam < np.inf:
            return x, np.inf, opts.tol
        model = ReactionModel.plain(with_lambda(params, lam))
        A = apply_operator(kern, w, model.params.p)
        G = A - kern.mass * f_values(model, w)
        scale = _residual(kern, A)
        if not scale > 0.0:
            return x, np.inf, opts.tol
        H = total_hessian(kern, model, w)
        F = np.concatenate((G, H @ phi, [float(l @ phi) - 1.0]))
        res = max(_residual(kern, G) / scale,
                  _residual(kern, F[m:-1]) * _sup(w) / (scale * _sup(phi)),
                  abs(F[-1]))
        return x, res, opts.tol, model, H, F

    # every step writes the same blocks; the others stay zero
    J = np.zeros((2 * m + 1, 2 * m + 1))

    def direction(state):
        x, _, _, model, H, F = state
        w, phi = x[:m], x[m:-1]
        q = model.params.q
        eps = 1e-6 * max(1.0, _sup(w)) / _sup(phi)
        wp = np.maximum(w, 0.0)
        J[:m, :m] = J[m:-1, m:-1] = H
        J[m:-1, :m] = (total_hessian(kern, model, w + eps * phi)
                       - total_hessian(kern, model, w - eps * phi)
                       ) / (2.0 * eps)
        J[:m, -1] = -kern.mass * wp ** (q - 1.0)
        J[m:-1, -1] = -kern.mass * (q - 1.0) * np.where(
            w > 0.0, curvature_power(wp, q - 2.0, float(np.linalg.norm(w))),
            0.0) * phi
        J[-1, m:-1] = l
        return _capped(np.linalg.solve(J, -F), x)

    state, iterations = _damped_newton(
        point, direction, point(np.concatenate((w, l, [params.lam]))),
        opts.max_iter)
    x, residual = state[0], state[1]
    lam = float(x[-1])
    note = None
    if not residual <= opts.tol:
        note = ("residual %.3e after %d Newton steps, at lambda=%g"
                % (residual, iterations, lam))
    elif _sup(x[:m]) <= opts.zero_tol:
        note = "ended at zero, at lambda=%g" % lam
    return FoldResult(lam=lam,
                      solution=GridFunction(mirror_unfold(x[:m], kern.n),
                                            kern.mesh),
                      null_vector=GridFunction(mirror_unfold(x[m:-1], kern.n),
                                               kern.mesh),
                      residual=residual, iterations=iterations,
                      converged=note is None, note=note)


def _eigen_jacobian(kern, p, w, R, out=None):
    """Jacobian of the bordered eigen system at (w, R) on kern, built in
    out when given, else in a new (m+1) x (m+1) array.

    The system, for unknowns w (even or full) and R, is
        F(w, R) = [A(w) - R mass phi_p(w);  sum mass |w|^p - 1]
    with phi_p the signed power |w|^(p-1) sign(w).  Its (m+1) x (m+1)
    Jacobian has the block operator_hessian - R (p-1) diag(mass
    |w|^(p-2)), the column -mass phi_p(w) and the row p mass phi_p(w).
    The block alone is singular at an eigenpair, with w in its kernel by
    (p-1)-homogeneity; the border makes the system regular there, since
    the row pairs with w to p sum mass |w|^p = p.  The block is built in
    a contiguous m x m array of its own and copied in, as
    operator_hessian's elementwise passes run at about half the speed on
    the strided leading block; the array is freed on return, before the
    solve, so it adds nothing to the solve's peak memory.
    """
    m = len(w)
    B = np.empty((m + 1, m + 1)) if out is None else out
    J = operator_hessian(kern, w, p)
    np.einsum("ii->i", J)[...] -= R * (p - 1.0) * kern.mass * curvature_power(
        w, p - 2.0, float(np.linalg.norm(w)))
    B[:m, :m] = J
    phi = kern.mass * odd_power(w, p)
    B[:m, m] = -phi
    B[m, :m] = p * phi
    B[m, m] = 0.0
    return B


def find_saddle(kern, params, u_big, opts=None):
    """Mountain-pass critical point between 0 and a known minimizer.

    u_big must pass minimize's own stopping test, or SolverError says
    it is not a local minimizer: its full-space gradient sup-norm is at
    most tol * max(1, |E|), and a Cholesky factorization of the
    even-subspace Hessian there succeeds.

    The mountain-pass point is the least energy peak along the rays from
    zero (the local minimax method of Li & Zhou, SIAM J. Sci. Comput.
    23, 2001).  The search descends over the ray peaks (_ray_peak,
    _peak_descent) from the peak of u_big's ray, below u_big, until the
    residual meets the target below; iterations counts its steps.
    SaddleNotFound is raised where u_big's ray has no peak.

    The search runs in the even subspace, where the saddle has Morse
    index one (in the full space the lowest odd mode can be negative
    too), so u_big must be even under the mirror map to within 1e-6 of
    max(1, sup|u_big|); otherwise ParameterError.  The report carries
    that index (morse_index, the number of negative eigenvalues of the
    even-subspace Hessian at the result) and has converged=True only
    where it is one, the result v satisfies 0 < v < u_big at every node,
    and its residual is at most tol * min(max(1, |E|), sup |A(v)|)
    (_saddle_target), as the absolute test alone passes any point of
    small enough A.  Its energy and residual are the descent's last
    peak's.
    """
    opts = opts or SolverOptions()
    _check_compat(kern, params)
    u_big = _check_values(getattr(u_big, "values", u_big), kern.n)
    _require_even(u_big)
    if _sup(u_big) <= opts.zero_tol:
        raise SaddleNotFound("ceiling solution is numerically zero")
    model = ReactionModel.plain(params)
    w_big = mirror_fold(u_big)
    S, A = seminorm_energy_and_operator(kern, w_big, params.p)
    E, g = _total(kern, model, w_big, S, A)
    if not (_definite(total_hessian(kern, model, w_big))
            and _residual(kern, g) <= opts.tol * _scale(E)):
        raise SolverError("ceiling solution is not a local minimizer")
    peak = _ray_peak(kern, model, w_big, S, A)
    if peak is None:
        raise SaddleNotFound("the energy has no peak along the ray of the "
                             "minimizer")
    (z, Az, E, g), iterations = _peak_descent(kern, model, peak, opts)
    report = _report(kern, z, E, g, iterations, opts.tol, "saddle")
    # a critical point of any other Morse index is not the mountain
    # pass, none has a zero node (there A(z) < 0 = mass f(0)), and the
    # one sought lies below u_big
    report.morse_index = _morse_index(kern, model, z)
    report.converged = (
        report.residual <= _saddle_target(kern, opts.tol, E, Az)
        and report.morse_index == 1
        and bool((z > 0.0).all() and (z < w_big).all()))
    return report


def _saddle_target(kern, tol, E, A):
    """tol * min(max(1, |E|), sup |A|), the residual a saddle of energy
    E and operator A must reach: the absolute test alone passes any
    point of small enough A."""
    return tol * min(_scale(E), _residual(kern, A))


def _ray_peak(kern, model, w, S, Aw):
    """(z, A(z), E(z), g(z)) at the energy's peak z = t1 w along the
    ray of w >= 0, from the seminorm energy S and operator Aw at w, or
    None where the ray has no peak.

    dE(t w)/dt = t^(r-1) psi(t), psi of _psi with a = p S, so E peaks
    on the ray exactly where psi(t0) < 0 (_psi_least), at the root t1
    of psi in (0, t0), bisected to adjacent floats.  S is
    p-homogeneous, so E and g at z need no pass over the pairs there.
    """
    params = model.params
    p = params.p
    a = p * S
    lam_A = params.lam * float((kern.mass * w ** params.q).sum())
    B = float((kern.mass * w ** params.r).sum())
    try:
        t0, least = _psi_least(params, a, lam_A, B)
    except OverflowError:
        return None
    if not least < 0.0:
        return None
    t1 = _bisect(lambda t: _psi(params, a, lam_A, B, t) > 0.0, 0.0, t0)[0]
    z = t1 * w
    Az = t1 ** (p - 1.0) * Aw
    return (z, Az, *_total(kern, model, z, t1 ** p * S, Az))


def _peak_descent(kern, model, peak, opts):
    """find_saddle's descent over the ray peaks, from peak = (z, A(z),
    E, g) of _ray_peak; returns the last peak and the number of steps.

    A step is d = -H_T^-1 g (_shifted_step's where H_T is indefinite)
    for H = total_hessian(z) restricted to the tangent of the peaks,
    H_T = P H P + c e e^T = H - e (H e)^T - (H e) e^T + (e^T H e + c) e e^T,
    e = z / |z|, P = I - e e^T, c the mean of |diag H|: rank-one
    updates, cheaper than P H P.  Where a Cholesky factorization shows
    H_T positive definite and e^T H e < 0, as at a peak, the step is
    d = -H_S^-1 g instead, with
    H_S = H_T - k k^T / (e^T H e),  k = H e - (e^T H e) e,
    the Schur complement of H along the ray: the exact Hessian of
    w -> E(peak of w's ray) on the tangent, less the term of g, which
    vanishes at the saddle.  The update is positive semidefinite there,
    so H_S stays definite, and the descent's tail converges
    quadratically where with H_T it converged linearly (find_saddle
    takes 14 iterations at the demo point, 19 with H_T alone).  Used at
    every step, H_S moves the search: it leads (6, .1, 5, 4; 40) to an
    off-centre point of index one, and with the term of g added to k it
    ends (3, .2, 2, 1.2; 12.5) unconverged at index two.  g.z = 0 at a
    peak, so d is tangent.  The trial of length s is the peak of the ray
    of max(z + s d, 0), accepted by _backtrack.  Stops at the residual
    target of _saddle_target, when no trial is accepted, when the
    residual has stalled (_stalled), or after max_iter steps.
    """
    p = model.params.p
    z, Az, E, g = peak
    shift = SHIFT_START
    history = [_residual(kern, g)]

    def trial(s):
        w = np.maximum(z + s * d, 0.0)
        return _ray_peak(kern, model, w,
                         *seminorm_energy_and_operator(kern, w, p))

    while len(history) <= opts.max_iter:
        if (history[-1] <= _saddle_target(kern, opts.tol, E, Az)
                or _stalled(history)):
            break
        H = total_hessian(kern, model, z)
        c = float(np.abs(np.diagonal(H)).mean())
        e = z / np.linalg.norm(z)
        He = H @ e
        eHe = float(e @ He)
        b = He - 0.5 * (eHe + c) * e
        H -= np.outer(e, b)
        H -= np.outer(b, e)
        if _definite(H):
            if eHe < 0.0:
                # near the saddle: H_S, the exact Hessian of the peaks
                k = He - eHe * e
                H -= np.outer(k, k / eHe)
            d = -np.linalg.solve(H, g)
        else:
            d, shift = _shifted_step(H, g, shift)
        moved = _backtrack(trial, E, g, d)
        if moved is None:
            break       # no acceptable step left
        z, Az, E, g = moved
        history.append(_residual(kern, g))
    return (z, Az, E, g), len(history) - 1


def _morse_index(kern, model, v):
    """Number of negative eigenvalues of the exact Hessian at v."""
    return int((np.linalg.eigvalsh(total_hessian(kern, model, v)) < 0.0).sum())
