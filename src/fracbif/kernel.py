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

The energy carried by a vector u of nodal values is, summed over all
ordered pairs of the symmetric K,

    seminorm_energy(u) = (1/p) * [ sum_{i,j} K[i][j] |u_i-u_j|^p
                                   + 2 sum_i T[i] |u_i|^p ],

and apply_operator returns its exact gradient, the discrete operator

    A(u)_i = 2 * sum_{j!=i} K[i][j] op(u_i-u_j, p) + 2 T[i] op(u_i, p)

with op the signed power.  pairing(A(u), u) = p * seminorm_energy(u)
by p-homogeneity.  Both come from pairwise_energy, which walks K in
dense blocks of whole rows against all n columns: row i of a block
gives A(u)_i directly, and every pair is visited twice, once from each
end.  A block holds at most PAIR_BUDGET differences (128 KiB), whatever
n is, and nothing is cached on the kernel.  operator_hessian, the dense
Jacobian of A, is the one n x n exception.

The solutions the solvers look for are even under the mirror map
x -> a + b - x, which sends node i to node n-1-i, and a critical point
of the energy restricted to even vectors is a critical point of the
full energy (symmetric criticality, Palais 1979).  KernelMatrix.fold
returns the kernel of that restriction on the first m = ceil(n/2)
nodes: K'[i][j] = 2 (K[i][j] + K[i][n-1-j]) and T' = 2 T[:m], so that
for the even unfolding U w of a half-mesh vector w

    seminorm_energy(K', w) = seminorm_energy(K, U w),
    apply_operator(K', w) = (mass / h) apply_operator(K, U w)[:m],

and every pairwise sum covers a quarter of the pairs.
KernelMatrix.mass, the measure of the full mesh that a node stands for,
is h on an assembled kernel and 2h on a folded one.  The middle node of
an odd mesh is its own mirror: its pairs are not summed with their
mirrors, and its tail and its mass are not doubled.  The solvers weigh
every reaction sum by mass, so a folded problem carries the full energy.
"""

from dataclasses import dataclass

import numpy as np

from .core import Mesh1D, MeshMismatchError, curvature_power

# entries u_i - u_j per block of the pairwise sums (rows of K x n); a
# single row of K longer than this is a block of its own
PAIR_BUDGET = 1 << 14


class KernelError(ValueError):
    """Raised for inadmissible kernel orders or non-uniform meshes."""


@dataclass(frozen=True)
class KernelMatrix:
    """Pairwise weights K (symmetric, zero diagonal), tails T, order sigma.

    mass is the measure of the full mesh that each node stands for: the
    cell width h at every node (the default), or on a folded kernel 2h,
    and h at the middle node of an odd mesh.
    """

    K: np.ndarray
    T: np.ndarray
    sigma: float
    mesh: Mesh1D
    mass: np.ndarray = None

    def __post_init__(self):
        if self.mass is None:
            object.__setattr__(self, "mass", np.full(len(self.T), self.mesh.h))

    @property
    def n(self):
        return self.mesh.n

    def fold(self):
        """Kernel of the even subspace on the first m = ceil(n/2) nodes.

        K'[i][j] = 2 (K[i][j] + K[i][n-1-j]) with a zero diagonal,
        T' = 2 T[:m] and mass 2h, so that the energy of a half-mesh
        vector is the full energy of its even unfolding; for odd n the
        middle node's pairs are not summed with their mirrors, and its
        tail and mass are not doubled.  The mesh is the first m cells
        of this one.  A new kernel on every call: nothing is cached on
        this one.  A folded kernel (mass[0] != h) does not fold again.
        """
        if self.mass[0] != self.mesh.h:
            raise KernelError("kernel is already folded")
        n = self.n
        m = (n + 1) // 2
        K = self.K[:m, :m] + self.K[:m, ::-1][:, :m]
        copies = np.full(m, 2.0)
        if n % 2:
            K[:, -1] = K[-1, :] = self.K[:m, m - 1]
            copies[-1] = 1.0
        np.fill_diagonal(K, 0.0)
        K *= 2.0
        mesh = self.mesh
        half = Mesh1D(a=mesh.a, b=float(mesh.cell_edges[m]), n=m,
                      cell_edges=mesh.cell_edges[:m + 1], nodes=mesh.nodes[:m],
                      h=mesh.h, dist=mesh.dist[:m])
        return KernelMatrix(K=K, T=copies * self.T[:m], sigma=self.sigma,
                            mesh=half, mass=copies * self.mass[:m])

    @classmethod
    def from_sigma(cls, mesh, sigma):
        """Assemble the weights for kernel |x-y|^(-(1+sigma)) on mesh."""
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
        # row i of K is k[|i - j|]: a window of the mirrored first row
        mirrored = np.concatenate((k[:0:-1], k))
        K = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()
        lo = edges[:-1]
        hi = edges[1:]
        T = (Q(mesh.b - lo) - Q(mesh.b - hi)) + (Q(hi - mesh.a) - Q(lo - mesh.a))
        return cls(K=K, T=T, sigma=sigma, mesh=mesh)


def assemble_kernel(mesh, params):
    """KernelMatrix for the problem's kernel order sigma = p*s."""
    return KernelMatrix.from_sigma(mesh, params.p * params.s)


def _check_values(kern, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (kern.n,):
        raise MeshMismatchError(
            "expected %d nodal values, got shape %r" % (kern.n, u.shape))
    return u


def pairwise_energy(kern, u, p, gradient=False):
    """Seminorm energy of a vector u of n nodal values, with
    gradient=True also the operator A(u).

    The sums run over the blocks of rows of K that the module docstring
    describes; any shape of u other than (n,) raises MeshMismatchError.
    """
    u = _check_values(kern, u)
    n = kern.n
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
    u = _check_values(kern, u)
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
