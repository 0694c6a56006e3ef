"""Discrete fractional p-Laplacian on an interval mesh.

For piecewise-constant functions on a uniform cell mesh, extended by
zero outside (a, b), the Gagliardo double integral with kernel
|x - y|^(-(1+sigma)) splits into pairwise cell-cell weights K[i][j] and
exterior tail weights T[i].  Both have closed forms through the second
antiderivative of the kernel,

    Q(t) = t^(1-sigma) / (sigma * (1 - sigma)),   t >= 0,

namely, for cells [a1, b1] and [a2, b2] with b1 <= a2,

    K = Q(a2-a1) - Q(a2-b1) - Q(b2-a1) + Q(b2-b1),

and for the tail of cell [a1, b1] past the right endpoint b,

    Q(b-a1) - Q(b-b1),

symmetrically on the left.  On the uniform mesh K[i][j] depends on
|i - j| only, so the first row is built from Q at the n + 1 edge
offsets and copied along the diagonals.  The diagonal vanishes: a
function constant on a cell has no self-interaction.  Adjacent cells
are fine because 1 + sigma < 2 keeps the pair integral convergent.

The energy carried by a vector u of nodal values, one for each node of
the kernel, is, summed over all ordered pairs of the symmetric K,

    seminorm_energy(u) = (1/p) * [ sum_{i,j} K[i][j] |u_i-u_j|^p
                                   + 2 sum_i T[i] |u_i|^p ],

and apply_operator returns its exact gradient, the discrete operator

    A(u)_i = 2 * sum_{j!=i} K[i][j] op(u_i-u_j, p) + 2 T[i] op(u_i, p)

with op the signed power.  pairing(A(u), u) = p * seminorm_energy(u)
by p-homogeneity.  Both come from pairwise_energy, which walks K in
dense blocks of whole rows against all its columns: row i of a block
gives A(u)_i directly, and every pair is visited twice, once from each
end.  A block holds at most PAIR_BUDGET differences (128 KiB), whatever
the size of K, and nothing is cached on the kernel.  operator_hessian,
the dense Jacobian of A, is the one exception of the size of K.

The solutions the solvers look for are even under the mirror map
x -> a + b - x, which sends node i to node n-1-i, and a critical point
of the energy restricted to even vectors is a critical point of the
full energy (symmetric criticality, Palais 1979).  KernelMatrix.from_sigma
assembles the kernel of that restriction on the first m = ceil(n/2)
nodes and nothing else: on the uniform mesh K[i][j] = k[|i-j|], so

    K'[i][j] = 2 (K[i][j] + K[i][n-1-j]) = 2 (k[|i-j|] + k[n-1-i-j]),

Toeplitz plus Hankel, with a zero diagonal, and T' = 2 T[:m].  For the
even unfolding U w of a half-mesh vector w

    seminorm_energy(K', w) = seminorm_energy(K, U w),
    apply_operator(K', w) = (mass / h) apply_operator(K, U w)[:m],

so the full-space energy, operator and residual of an even point come
from the even kernel, whose pairwise sums cover a quarter of the pairs
and whose m x m weights a quarter of the memory.  The middle node of an
odd mesh is its own mirror: its pairs are not summed with their
mirrors, and its tail and its mass are not doubled.
KernelMatrix.full_from_sigma assembles the n x n kernel of the full
space, for the checks that need vectors that are not even.

KernelMatrix.mass, the measure of the full mesh that a node stands for,
is h on a full kernel and 2h on an even one (h at an odd mesh's middle
node).  The solvers weigh every reaction sum by mass, so the even
problem carries the full energy.
"""

from dataclasses import dataclass

import numpy as np

from .core import Mesh1D, MeshMismatchError, curvature_power

# entries u_i - u_j per block of the pairwise sums (rows of K x n); a
# single row of K longer than this is a block of its own
PAIR_BUDGET = 1 << 14


class KernelError(ValueError):
    """Raised for inadmissible kernel orders, non-uniform meshes, and
    weights of the wrong shape or without symmetry."""


def _copies(n):
    """How many nodes of an n-node mesh each even-subspace node stands
    for: 2, and 1 at the middle node of an odd mesh."""
    copies = np.full((n + 1) // 2, 2.0)
    if n % 2:
        copies[-1] = 1.0
    return copies


def _weights(mesh, sigma):
    """sigma as a float, the first row k of the full K (K[i][j] =
    k[|i-j|]) and the n tails T; KernelError for a sigma outside (0, 1)
    or a mesh that is not uniform."""
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0 - 1e-12:
        raise KernelError(
            "kernel order sigma must lie in (0, 1), got sigma=%g" % sigma)
    edges = mesh.cell_edges
    widths = np.diff(edges)
    if not np.allclose(widths, widths[0], rtol=1e-12, atol=0.0):
        raise KernelError("kernel assembly needs a uniform mesh")

    def Q(t):
        # second antiderivative of t^(-(1+sigma)), zero at 0
        t = np.maximum(t, 0.0)
        return t ** (1.0 - sigma) / (sigma * (1.0 - sigma))

    n = mesh.n
    # cells 0 and d: Q(t_d) - Q(t_{d-1}) - Q(t_{d+1}) + Q(t_d)
    q = Q(edges - edges[0])
    k = np.zeros(n)
    k[1:] = 2.0 * q[1:n] - q[:n - 1] - q[2:]
    lo = edges[:-1]
    hi = edges[1:]
    T = (Q(mesh.b - lo) - Q(mesh.b - hi)) + (Q(hi - mesh.a) - Q(lo - mesh.a))
    return sigma, k, T


def _toeplitz(k, size):
    """K[i][j] = k[|i - j|] on size x size nodes, as a read-only view:
    row i is a window of k mirrored about 0."""
    mirrored = np.concatenate((k[size - 1:0:-1], k[:size]))
    return np.lib.stride_tricks.sliding_window_view(mirrored, size)[::-1]


@dataclass(frozen=True)
class KernelMatrix:
    """Pairwise weights K (symmetric, zero diagonal), tails T, order sigma.

    The kernel of the even subspace (from_sigma) holds m = ceil(n/2)
    nodes of the n-node mesh, the full kernel (full_from_sigma) all n;
    mesh is the full mesh either way, so results unfold to n nodes.
    mass is the measure of the full mesh that each node stands for: by
    default h on a full kernel, and on an even one 2h, with h at the
    middle node of an odd mesh.  K must be square and symmetric, with T
    and mass of its size, n or m; KernelError otherwise.
    """

    K: np.ndarray
    T: np.ndarray
    sigma: float
    mesh: Mesh1D
    mass: np.ndarray = None

    def __post_init__(self):
        self._check_fields(symmetric=False)

    @classmethod
    def _assembled(cls, K, T, sigma, mesh):
        """The kernel of weights K that are symmetric by construction:
        __post_init__'s checks less the O(size^2) one of symmetry."""
        kern = cls.__new__(cls)
        for name, value in (("K", K), ("T", T), ("sigma", sigma),
                            ("mesh", mesh), ("mass", None)):
            object.__setattr__(kern, name, value)
        kern._check_fields(symmetric=True)
        return kern

    def _check_fields(self, symmetric):
        """Check the shapes, and the symmetry of K unless it is known,
        and fill in the default mass."""
        n = self.mesh.n
        size = np.shape(self.T)
        if size not in ((n,), ((n + 1) // 2,)):
            raise KernelError(
                "tails T of shape %r: need n=%d entries (full kernel) or "
                "ceil(n/2)=%d (even kernel)" % (size, n, (n + 1) // 2))
        if np.shape(self.K) != size * 2:
            raise KernelError("weights K of shape %r with %d tails"
                              % (np.shape(self.K), size[0]))
        if not (symmetric or np.array_equal(self.K, self.K.T)):
            raise KernelError("weights K are not symmetric")
        if self.mass is None:
            mass = self.mesh.h * (_copies(n) if self.even else np.ones(n))
            object.__setattr__(self, "mass", mass)
        elif np.shape(self.mass) != size:
            raise KernelError("mass of shape %r with %d tails"
                              % (np.shape(self.mass), size[0]))

    @property
    def n(self):
        """Nodes of the full mesh."""
        return self.mesh.n

    @property
    def even(self):
        """Whether this is the kernel of the even subspace."""
        return len(self.T) < self.mesh.n

    @classmethod
    def from_sigma(cls, mesh, sigma):
        """Kernel |x-y|^(-(1+sigma)) of the even subspace on mesh.

        K'[i][j] = 2 (k[|i-j|] + k[n-1-i-j]) with a zero diagonal, for
        k the first row of the full K; for odd n the middle node's pairs
        are not summed with their mirrors.  T' = 2 T[:m] and mass 2h,
        neither doubled at an odd mesh's middle node.  Only the m x m
        result is allocated: both terms are windows of k.
        """
        sigma, k, T = _weights(mesh, sigma)
        n = mesh.n
        m = (n + 1) // 2
        # k[n-1-i-j] = k reversed at i + j: a Hankel window
        K = _toeplitz(k, m) + np.lib.stride_tricks.sliding_window_view(
            k[::-1], m)[:m]
        if n % 2:
            K[:, -1] = K[-1, :] = k[m - 1::-1]
        np.fill_diagonal(K, 0.0)
        K *= 2.0
        return cls._assembled(K, _copies(n) * T[:m], sigma, mesh)

    @classmethod
    def full_from_sigma(cls, mesh, sigma):
        """Kernel |x-y|^(-(1+sigma)) of the full space on mesh, n x n."""
        sigma, k, T = _weights(mesh, sigma)
        return cls._assembled(_toeplitz(k, mesh.n).copy(), T, sigma, mesh)


def assemble_kernel(mesh, params):
    """KernelMatrix for the problem's kernel order sigma = p*s."""
    return KernelMatrix.from_sigma(mesh, params.p * params.s)


def _check_values(u, n):
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise MeshMismatchError(
            "expected %d nodal values, got shape %r" % (n, u.shape))
    return u


def pairwise_energy(kern, u, p, gradient=False):
    """Seminorm energy of a vector u of nodal values, one for each node
    of kern (m on an even kernel, n on a full one), with gradient=True
    also the operator A(u).

    The sums run over the blocks of rows of K that the module docstring
    describes; any other shape of u raises MeshMismatchError.
    """
    n = len(kern.T)
    u = _check_values(u, n)
    rows = min(n, max(1, PAIR_BUDGET // n))
    D_buf, t_buf = np.empty((2, rows * n))
    pair = 0.0
    grad = np.empty(n) if gradient else None
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        D = D_buf[:(hi - lo) * n].reshape(hi - lo, n)
        t = t_buf[:D.size].reshape(D.shape)
        np.subtract(u[lo:hi, None], u[None, :], out=D)
        if gradient:
            np.abs(D, out=t)
            np.power(t, p - 1.0, out=t)
            np.copysign(t, D, out=t)
            t *= kern.K[lo:hi]
            np.sum(t, axis=1, out=grad[lo:hi])
            D *= t
            pair += np.sum(D)
        else:
            # |D|^(p-1) K |D|, multiplied as the operator's t D is,
            # so that both give the same bits
            np.abs(D, out=D)
            np.power(D, p - 1.0, out=t)
            t *= kern.K[lo:hi]
            t *= D
            pair += np.sum(t)
    absu = np.abs(u)
    up1 = absu ** (p - 1.0)
    energy = float((pair + 2.0 * np.sum(kern.T * up1 * absu)) / p)
    if gradient:
        grad += kern.T * np.copysign(up1, u)
        grad *= 2.0
        return energy, grad
    return energy


def seminorm_energy(kern, u, p):
    """(1/p) times the discrete Gagliardo p-seminorm to the p-th power."""
    return pairwise_energy(kern, u, p)


def apply_operator(kern, u, p):
    """Discrete fractional p-Laplacian; exact gradient of seminorm_energy."""
    return pairwise_energy(kern, u, p, gradient=True)[1]


def seminorm_energy_and_operator(kern, u, p):
    """Energy and its gradient together, sharing the pairwise powers."""
    return pairwise_energy(kern, u, p, gradient=True)


def operator_hessian(kern, u, p, out=None):
    """Dense Jacobian of apply_operator at u, the Hessian of seminorm_energy.

    With W = K * |u_i - u_j|^(p-2) it is
    2(p-1) [diag(W 1 + T |u|^(p-2)) - W], read through curvature_power
    so that for p < 2 a tie or a zero node stays finite.  Unlike the
    pairwise sums it holds n x n floats: it is built in place in one
    n x n array, out when given (for instance the leading block of a
    bordered matrix), else a new one.
    """
    u = _check_values(u, len(kern.T))
    scale = float(np.linalg.norm(u))
    H = np.subtract.outer(u, u, out=out)
    curvature_power(H, p - 2.0, scale, out=H)
    H *= kern.K
    diag = np.sum(H, axis=1) + kern.T * curvature_power(u, p - 2.0, scale)
    np.negative(H, out=H)
    np.einsum("ii->i", H)[...] += diag     # a view, also of a strided out
    H *= 2.0 * (p - 1.0)
    return H


def pairing(au, phi):
    """Duality pairing of an operator output with a test vector."""
    au = np.asarray(au, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if au.shape != phi.shape:
        raise MeshMismatchError(
            "pairing of mismatched shapes %r and %r" % (au.shape, phi.shape))
    return float(np.dot(au, phi))
