"""Two-power reaction lam*t^(q-1) - t^(r-1) and its truncations.

The plain reaction acts on the positive part of t and vanishes for
t <= 0.  Two position-dependent variants support the ordered-solution
machinery:

* "floored": below a nodal anchor value w_i the reaction is frozen at
  its anchor value, f(i, t) = plain(max(t, w_i)).  Minimizing the
  corresponding energy pins the minimizer above the anchor.
* "capped": above a nodal ceiling value c_i the q-power is frozen,
  f(i, t) = lam*c_i^(q-1) - t^(r-1), which caps minimizers and path
  points below the ceiling while keeping the primitive well defined.

All evaluations are vectorized over nodes.
"""

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, odd_power


@dataclass(frozen=True)
class ReactionModel:
    """Reaction variant bound to a parameter record.

    anchor/ceiling are nodal value arrays for the truncated variants
    (None for the plain one); c0 is an effective growth constant with
    |f(i, t)| <= c0 * (1 + |t|^(q-1)) for all nodes and arguments.
    """

    params: object
    variant: str
    anchor: np.ndarray = None
    ceiling: np.ndarray = None
    c0: float = None

    @classmethod
    def plain(cls, params):
        return cls(params=params, variant="plain", c0=params.lam + 1.0)

    @classmethod
    def floored(cls, params, anchor):
        anchor = np.asarray(anchor, dtype=float)
        top = float(np.max(np.maximum(anchor, 0.0), initial=0.0))
        c0 = (params.lam + 1.0) * (1.0 + top ** (params.q - 1.0))
        return cls(params=params, variant="floored", anchor=anchor, c0=c0)

    @classmethod
    def capped(cls, params, ceiling):
        ceiling = np.asarray(ceiling, dtype=float)
        top = float(np.max(np.maximum(ceiling, 0.0), initial=0.0))
        c0 = (params.lam + 1.0) * (1.0 + top ** (params.q - 1.0))
        return cls(params=params, variant="capped", ceiling=ceiling, c0=c0)


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
    if model.variant == "plain":
        return _plain_f(pr, u)
    if model.variant == "floored":
        return _plain_f(pr, np.maximum(u, model.anchor))
    if model.variant == "capped":
        c = model.ceiling
        frozen = pr.lam * np.maximum(c, 0.0) ** (pr.q - 1.0) - odd_power(u, pr.r)
        return np.where(u < c, _plain_f(pr, u), frozen)
    raise ParameterError("unknown reaction variant %r" % model.variant)


def F_values(model, u):
    """Primitive of the reaction (in t, from 0) at every node."""
    u = np.asarray(u, dtype=float)
    pr = model.params
    if model.variant == "plain":
        return _plain_F(pr, u)
    if model.variant == "floored":
        w = model.anchor
        fw = _plain_f(pr, w)
        return (fw * (np.minimum(u, w) - np.minimum(0.0, w))
                + _plain_F(pr, np.maximum(u, w)) - _plain_F(pr, np.maximum(0.0, w)))
    if model.variant == "capped":
        c = model.ceiling
        above = (_plain_F(pr, c)
                 + pr.lam * np.maximum(c, 0.0) ** (pr.q - 1.0) * (u - c)
                 - (np.abs(u) ** pr.r - np.abs(c) ** pr.r) / pr.r)
        return np.where(u < c, _plain_F(pr, u), above)
    raise ParameterError("unknown reaction variant %r" % model.variant)


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
