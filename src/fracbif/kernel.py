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

The energy carried by a vector u of nodal values is, summed over the
upper triangle of the symmetric K,

    seminorm_energy(u) = (2/p) * [ sum_{i<j} K[i][j] |u_i-u_j|^p
                                   + sum_i T[i] |u_i|^p ],

and apply_operator returns its exact gradient, the discrete operator

    A(u)_i = 2 * sum_{j!=i} K[i][j] op(u_i-u_j, p) + 2 T[i] op(u_i, p)

with op the signed power.  pairing(A(u), u) = p * seminorm_energy(u)
by p-homogeneity.  Both come from pairwise_energy, which needs one
power |u_i-u_j|^(p-1) per pair i < j (the pair term is antisymmetric,
so it is added to row i and subtracted from row j) and visits the
triangle in chunks of whole rows of at most PAIR_BUDGET pairs: every
temporary holds at most PAIR_BUDGET floats (128 KiB), whatever n is.
operator_hessian, the dense Jacobian of A, is the one n x n exception.

The solutions the solvers look for are even under the mirror map
x -> a + b - x, which sends node i to node n-1-i, and a critical point
of the energy restricted to even vectors is a critical point of the
full energy (symmetric criticality, Palais 1979).  KernelMatrix.fold
returns the kernel of that restriction on the first m = ceil(n/2)
nodes: K'[i][j] = K[i][j] + K[i][n-1-j] and T' = T[:m], so that for
the even unfolding U w of a half-mesh vector w

    seminorm_energy(K, U w) = 2 seminorm_energy(K', w),
    apply_operator(K, U w)[:m] = apply_operator(K', w) / weight,

and every pairwise sum covers a quarter of the pairs.  For odd n the
middle node is its own mirror: its pairs are not doubled, its tail is
halved, and it carries weight 1/2 where every other node carries 1
(the full kernel has weight 1 everywhere).  The reaction sums of the
solvers are weighted the same way, and KernelMatrix.copies (2 on a
folded kernel, 1 otherwise) turns energies back into full-space ones.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Mesh1D, MeshMismatchError, curvature_power

# pairs per chunk of the triangle; a single row longer than this is
# one chunk of its own
PAIR_BUDGET = 1 << 14


class KernelError(ValueError):
    """Raised for inadmissible kernel orders or non-uniform meshes."""


@dataclass(frozen=True)
class KernelMatrix:
    """Pairwise weights K (symmetric, zero diagonal), tails T, order sigma.

    weight is the share of a node in the reaction sums: 1 everywhere
    (the default), except 1/2 at the middle node of a folded odd mesh.
    copies is the number of full-mesh nodes a node of weight 1 stands
    for: 1, or 2 on a folded kernel, whose energies are half those of
    the unfoldings.
    """

    K: np.ndarray
    T: np.ndarray
    sigma: float
    mesh: Mesh1D
    weight: np.ndarray = None
    copies: int = 1

    def __post_init__(self):
        if self.weight is None:
            object.__setattr__(self, "weight", np.ones(len(self.T)))

    @property
    def n(self):
        return self.mesh.n

    def fold(self):
        """Kernel of the even subspace on the first m = ceil(n/2) nodes.

        K'[i][j] = K[i][j] + K[i][n-1-j] with a zero diagonal, T' = T[:m]
        and the same cell width; for odd n the middle node's pairs keep
        their single weight, its tail is halved and its weight is 1/2.
        The mesh is the first m cells of this one.  A new kernel on
        every call: nothing is cached on this one.  A folded kernel
        does not fold again.
        """
        if self.copies != 1:
            raise KernelError("kernel is already folded")
        n = self.n
        m = (n + 1) // 2
        K = self.K[:m, :m] + self.K[:m, ::-1][:, :m]
        weight = np.ones(m)
        if n % 2:
            K[:, -1] = K[-1, :] = self.K[:m, m - 1]
            weight[-1] = 0.5
        np.fill_diagonal(K, 0.0)
        mesh = self.mesh
        half = Mesh1D(a=mesh.a, b=float(mesh.cell_edges[m]), n=m,
                      cell_edges=mesh.cell_edges[:m + 1], nodes=mesh.nodes[:m],
                      h=mesh.h, dist=mesh.dist[:m])
        return KernelMatrix(K=K, T=weight * self.T[:m], sigma=self.sigma,
                            mesh=half, weight=weight, copies=2)

    @cached_property
    def triangle(self):
        """The pairs i < j of K row by row, cut into chunks of whole rows.

        Each chunk is (rows, counts, starts, J, W): the slice of rows it
        covers, the number of pairs in each row and the offset of each
        row's first pair, the column index of every pair and its weight
        K[i, j].  Read from K as given, so any symmetric K works,
        Toeplitz or not; K must not change after the first evaluation.
        """
        n = self.K.shape[0]
        I, J = np.triu_indices(n, k=1)
        W = self.K[I, J]
        counts = np.arange(n - 1, 0, -1)
        first = np.concatenate(([0], np.cumsum(counts)))
        chunks = []
        lo = 0
        while lo < n - 1:
            hi = lo + 1
            while hi < n - 1 and first[hi + 1] - first[lo] <= PAIR_BUDGET:
                hi += 1
            a, b = first[lo], first[hi]
            chunks.append((slice(lo, hi), counts[lo:hi], first[lo:hi] - a,
                           J[a:b], W[a:b]))
            lo = hi
        return tuple(chunks)

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


def pairwise_energy(kern, U, p, gradient=False):
    """Seminorm energy of one vector or of every row of a batch.

    U has shape (n,) or (m, n).  Returns the energy (a float, or an
    array of m), and with gradient=True also the operator A(U), shaped
    like U.  Rows are evaluated one at a time over the chunks of
    kern.triangle; each energy is a pairwise np.sum per chunk, so a row
    of a batch gets exactly the energy it gets alone.
    """
    U = np.asarray(U, dtype=float)
    n = kern.n
    if U.ndim not in (1, 2) or U.shape[-1] != n:
        raise MeshMismatchError(
            "expected %d nodal values, got shape %r" % (n, U.shape))
    batch = U.reshape(-1, n)
    energy = np.empty(batch.shape[0])
    grad = np.zeros_like(batch) if gradient else None
    for k, u in enumerate(batch):
        pair = 0.0
        for rows, counts, starts, J, W in kern.triangle:
            D = np.repeat(u[rows], counts) - u[J]
            A = np.abs(D)
            A1 = A ** (p - 1.0)
            if gradient:
                t = W * np.copysign(A1, D)
                pair += float(np.sum(t * D))
                grad[k, rows] += np.add.reduceat(t, starts)
                grad[k] -= np.bincount(J, t, minlength=n)
            else:
                pair += float(np.sum(W * A1 * A))
        absu = np.abs(u)
        up1 = absu ** (p - 1.0)
        tail = float(np.sum(kern.T * up1 * absu))
        energy[k] = 2.0 * (pair + tail) / p
        if gradient:
            grad[k] = 2.0 * (grad[k] + kern.T * np.copysign(up1, u))
    if U.ndim == 1:
        energy = float(energy[0])
        grad = grad[0] if gradient else None
    return (energy, grad) if gradient else energy


def _check_values(kern, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (kern.n,):
        raise MeshMismatchError(
            "expected %d nodal values, got shape %r" % (kern.n, u.shape))
    return u


def seminorm_energy(kern, u, p):
    """(1/p) times the discrete Gagliardo p-seminorm to the p-th power."""
    return pairwise_energy(kern, _check_values(kern, u), p)


def apply_operator(kern, u, p):
    """Discrete fractional p-Laplacian; exact gradient of seminorm_energy."""
    return pairwise_energy(kern, _check_values(kern, u), p, gradient=True)[1]


def seminorm_energy_and_operator(kern, u, p):
    """Energy and its gradient together, sharing the pairwise powers."""
    return pairwise_energy(kern, _check_values(kern, u), p, gradient=True)


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
