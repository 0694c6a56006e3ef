"""Two-power reaction lam*t^(q-1) - t^(r-1), plain or capped by a ceiling.

The plain reaction acts on the positive part of t and vanishes for
t <= 0.  The capped one, used by the mountain-pass search, freezes the
q-power above a nodal ceiling value c_i,
f(i, t) = lam*c_i^(q-1) - t^(r-1), which caps minimizers and path
points below the ceiling while keeping the primitive well defined.

All evaluations are vectorized over nodes.
"""

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, curvature_power, mirror_fold, odd_power


@dataclass(frozen=True)
class ReactionModel:
    """The reaction bound to a parameter record, plain or capped.

    ceiling is the nodal value array of the capped reaction (None for
    the plain one).
    """

    params: object
    ceiling: np.ndarray = None

    @classmethod
    def plain(cls, params):
        return cls(params=params)

    @classmethod
    def capped(cls, params, ceiling):
        return cls(params=params, ceiling=np.asarray(ceiling, dtype=float))

    def fold(self):
        """The model on the even subspace: the ceiling mirror-averaged
        onto the first ceil(n/2) nodes (see KernelMatrix.fold)."""
        if self.ceiling is None:
            return self
        return ReactionModel.capped(self.params, mirror_fold(self.ceiling))


def _plain_f(params, t):
    tp = np.maximum(np.asarray(t, dtype=float), 0.0)
    return params.lam * tp ** (params.q - 1.0) - tp ** (params.r - 1.0)


def _plain_F(params, t):
    tp = np.maximum(np.asarray(t, dtype=float), 0.0)
    return params.lam * tp ** params.q / params.q - tp ** params.r / params.r


def f_values(model, u):
    """Reaction at every node for nodal values u."""
    u = np.asarray(u, dtype=float)
    pr = model.params
    c = model.ceiling
    if c is None:
        return _plain_f(pr, u)
    frozen = pr.lam * np.maximum(c, 0.0) ** (pr.q - 1.0) - odd_power(u, pr.r)
    return np.where(u < c, _plain_f(pr, u), frozen)


def _plain_df(params, t, scale):
    tp = np.maximum(t, 0.0)
    d = (params.lam * (params.q - 1.0) * curvature_power(tp, params.q - 2.0, scale)
         - (params.r - 1.0) * curvature_power(tp, params.r - 2.0, scale))
    return np.where(t > 0.0, d, 0.0)


def df_values(model, u):
    """t-derivative of the reaction at every node for nodal values u.

    Zero for t <= 0 in the plain reaction; above the ceiling only the
    r-power term is left.  Negative powers are read through
    curvature_power, so t -> 0+ with r < 2 gives a large finite value.
    """
    u = np.asarray(u, dtype=float)
    pr = model.params
    scale = float(np.linalg.norm(u))
    if model.ceiling is None:
        return _plain_df(pr, u, scale)
    frozen = -(pr.r - 1.0) * curvature_power(u, pr.r - 2.0, scale)
    return np.where(u < model.ceiling, _plain_df(pr, u, scale), frozen)


def F_values(model, u):
    """Primitive of the reaction (in t, from 0) at every node."""
    u = np.asarray(u, dtype=float)
    pr = model.params
    c = model.ceiling
    if c is None:
        return _plain_F(pr, u)
    above = (_plain_F(pr, c)
             + pr.lam * np.maximum(c, 0.0) ** (pr.q - 1.0) * (u - c)
             - (np.abs(u) ** pr.r - np.abs(c) ** pr.r) / pr.r)
    return np.where(u < c, _plain_F(pr, u), above)


def sign_threshold_delta(params):
    """Largest delta with f <= 0 on [0, delta]: lam^(-1/(q-r))."""
    if params.lam <= 0.0:
        raise ParameterError("sign threshold needs lam > 0, got %g" % params.lam)
    return params.lam ** (-1.0 / (params.q - params.r))


def scan_reaction_slack(params, eps, t_max=100.0, samples=100_000):
    """max over a dense t-grid of f(t) - eps*t^(p-1); <= 0 certifies the bound."""
    t = np.linspace(0.0, float(t_max), int(samples))
    slack = _plain_f(params, t) - eps * t ** (params.p - 1.0)
    return float(np.max(slack))
