"""Problem parameters, interval meshes, and grid functions.

The model problem lives on an open interval (a, b): a fractional
p-Laplacian of order s with a sublinear two-power reaction
lam*t^(q-1) - t^(r-1), exponents ordered 1 < r < q < p.  Functions are
piecewise constant on a uniform cell mesh and extend by zero outside
the interval, so a grid function is just the vector of cell-midpoint
values together with its mesh.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """Raised when problem parameters violate the admissible range."""


class MeshError(ValueError):
    """Raised for bad mesh requests (n < 2, empty interval, ...)."""


class MeshMismatchError(ValueError):
    """Raised when arrays from different meshes are combined."""


def odd_power(a, t):
    """Signed power |a|^(t-1) * sign(a), elementwise, with value 0 at 0.

    This is the odd extension of the power a^(t-1) from a > 0 to the
    whole line; t must be positive.  Scalars in, scalar out.
    """
    if t <= 0:
        raise ParameterError("odd_power exponent must be positive, got %r" % t)
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    nz = a != 0.0
    out[nz] = np.sign(a[nz]) * np.abs(a[nz]) ** (t - 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def curvature_power(a, e, scale):
    """|a|^e elementwise, as the second derivatives of the energy use it.

    A negative e (p < 2, q < 2 or r < 2) makes the power infinite at an
    exact tie or a zero node; there |a| is floored at
    1e-6 * max(1, scale), the step of a central difference on a vector
    of norm scale, so the value stays finite.  Elsewhere it is exact.
    """
    a = np.abs(a)
    if e < 0.0:
        a = np.maximum(a, 1e-6 * max(1.0, scale))
    return a ** e


def mirror_fold(u):
    """Mirror average of u on its first m = ceil(n/2) nodes.

    Node i and node n-1-i are mirror images under x -> a + b - x; for an
    odd n the middle node is its own.  Works on the last axis, so a
    batch of rows folds row by row.  An even u folds exactly.
    """
    u = np.asarray(u, dtype=float)
    m = (u.shape[-1] + 1) // 2
    return 0.5 * (u[..., :m] + u[..., ::-1][..., :m])


def mirror_unfold(w, n):
    """The even vector on n nodes whose first ceil(n/2) values are w."""
    w = np.asarray(w, dtype=float)
    return np.concatenate((w, w[..., :n - w.shape[-1]][..., ::-1]), axis=-1)


@dataclass(frozen=True)
class ProblemParams:
    """Admissible exponent/parameter record.

    p, s, q, r are the exponents (1 < r < q < p, 0 < s < 1, p*s < 1 so
    the critical exponent p/(1 - p*s) is finite), lam >= 0 is the
    reaction strength, c0 the growth constant of the plain reaction and
    pstar the critical exponent.  Use validate_params to build one from
    a raw mapping.
    """

    p: float
    s: float
    q: float
    r: float
    lam: float
    c0: float = field(default=None)
    pstar: float = field(default=None)

    def __post_init__(self):
        for name in ("p", "s", "q", "r", "lam"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParameterError("parameter %s must be a finite number, got %r" % (name, v))
        if not 0.0 < self.s < 1.0:
            raise ParameterError("need 0 < s < 1, got s=%g" % self.s)
        if not 1.0 < self.r < self.q < self.p:
            raise ParameterError(
                "exponents must satisfy 1 < r < q < p, got r=%g, q=%g, p=%g"
                % (self.r, self.q, self.p))
        if self.lam < 0.0:
            raise ParameterError("lam must be nonnegative, got %g" % self.lam)
        sigma = self.p * self.s
        if sigma >= 1.0:
            raise ParameterError(
                "need p*s < 1 for the interval model, got p*s=%g" % sigma)
        object.__setattr__(self, "pstar", self.p / (1.0 - sigma))
        if self.c0 is None:
            object.__setattr__(self, "c0", self.lam + 1.0)
        elif self.c0 <= 0.0:
            raise ParameterError("c0 must be positive, got %g" % self.c0)

    @property
    def sigma(self):
        """Order of the kernel singularity exponent, p*s."""
        return self.p * self.s


def with_lambda(params, lam):
    """Copy of params at a different reaction strength (c0 recomputed)."""
    return ProblemParams(p=params.p, s=params.s, q=params.q, r=params.r,
                         lam=float(lam))


_PARAM_KEYS = {"p", "s", "q", "r", "lambda", "lam", "c0"}


def validate_params(raw):
    """Build a ProblemParams from a raw mapping.

    Accepts both "lambda" and "lam" for the reaction strength.  Raises
    ParameterError naming the offending key or constraint.
    """
    unknown = set(raw) - _PARAM_KEYS
    if unknown:
        raise ParameterError("unknown parameter keys: %s" % ", ".join(sorted(unknown)))
    if "lambda" in raw and "lam" in raw:
        raise ParameterError("give either 'lambda' or 'lam', not both")
    missing = [k for k in ("p", "s", "q", "r") if k not in raw]
    if missing:
        raise ParameterError("missing parameter keys: %s" % ", ".join(missing))
    lam = raw.get("lambda", raw.get("lam", 0.0))
    return ProblemParams(p=float(raw["p"]), s=float(raw["s"]), q=float(raw["q"]),
                         r=float(raw["r"]), lam=float(lam),
                         c0=(float(raw["c0"]) if "c0" in raw else None))


@dataclass(frozen=True)
class Mesh1D:
    """Uniform cell mesh of an interval (a, b).

    nodes are the n cell midpoints, cell_edges the n+1 edges, h the
    cell width and dist the distance of each node to the boundary.
    """

    a: float
    b: float
    n: int
    cell_edges: np.ndarray
    nodes: np.ndarray
    h: float
    dist: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, Mesh1D) and self.a == other.a
                and self.b == other.b and self.n == other.n)


def build_mesh(a, b, n):
    """Uniform mesh of (a, b) with n cells; needs n >= 2 and a < b."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise MeshError("empty interval: need a < b, got a=%g, b=%g" % (a, b))
    n = int(n)
    if n < 2:
        raise MeshError("need at least 2 cells, got n=%d" % n)
    edges = np.linspace(a, b, n + 1)
    nodes = 0.5 * (edges[:-1] + edges[1:])
    dist = np.minimum(nodes - a, b - nodes)
    return Mesh1D(a=a, b=b, n=n, cell_edges=edges, nodes=nodes,
                  h=(b - a) / n, dist=dist)


@dataclass
class GridFunction:
    """Nodal values of a piecewise-constant function on a Mesh1D."""

    values: np.ndarray
    mesh: Mesh1D

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n,):
            raise MeshMismatchError(
                "grid function has %d values for a mesh with %d cells"
                % (self.values.size, self.mesh.n))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")

    @property
    def sup_norm(self):
        return float(np.max(np.abs(self.values)))
