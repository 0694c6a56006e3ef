"""Two-power reaction lam*t^(q-1) - t^(r-1).

The reaction acts on the positive part of t and vanishes for t <= 0.
All evaluations are vectorized over nodes.
"""

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, curvature_power

SLACK_SAMPLES = 100_000     # grid points of scan_reaction_slack


@dataclass(frozen=True)
class ReactionModel:
    """The reaction bound to a parameter record."""

    params: object

    @classmethod
    def plain(cls, params):
        return cls(params=params)


def _plain_f(params, t):
    tp = np.maximum(np.asarray(t, dtype=float), 0.0)
    return params.lam * tp ** (params.q - 1.0) - tp ** (params.r - 1.0)


def f_values(model, u):
    """Reaction at every node for nodal values u."""
    return _plain_f(model.params, u)


def df_values(model, u):
    """t-derivative of the reaction at every node for nodal values u.

    Zero for t <= 0.  Negative powers are read through curvature_power,
    so t -> 0+ with r < 2 gives a large finite value.
    """
    u = np.asarray(u, dtype=float)
    pr = model.params
    tp = np.maximum(u, 0.0)
    scale = float(np.linalg.norm(u))
    d = (pr.lam * (pr.q - 1.0) * curvature_power(tp, pr.q - 2.0, scale)
         - (pr.r - 1.0) * curvature_power(tp, pr.r - 2.0, scale))
    return np.where(u > 0.0, d, 0.0)


def F_values(model, u):
    """Primitive of the reaction (in t, from 0) at every node."""
    pr = model.params
    tp = np.maximum(np.asarray(u, dtype=float), 0.0)
    return pr.lam * tp ** pr.q / pr.q - tp ** pr.r / pr.r


def sign_threshold_delta(params):
    """Largest delta with f <= 0 on [0, delta]: lam^(-1/(q-r)).

    ParameterError for a lam so small that delta overflows a float."""
    if params.lam <= 0.0:
        raise ParameterError("sign threshold needs lam > 0, got %g" % params.lam)
    try:
        return params.lam ** (-1.0 / (params.q - params.r))
    except OverflowError:
        raise ParameterError(
            "lam=%g is too small: the sign threshold lam^(-1/(q-r)) "
            "overflows a float" % params.lam) from None


def scan_reaction_slack(params, eps, t_max=100.0):
    """max over a dense t-grid of f(t) - eps*t^(p-1); <= 0 certifies the bound."""
    t = np.linspace(0.0, float(t_max), SLACK_SAMPLES)
    slack = _plain_f(params, t) - eps * t ** (params.p - 1.0)
    return float(slack.max())
