"""Two-power reaction lam*t^(q-1) - t^(r-1).

The reaction acts on the positive part of t and vanishes for t <= 0.
All evaluations are vectorized over nodes.
"""

import numpy as np

from .core import ParameterError, curvature_power

SLACK_SAMPLES = 100_000     # grid points of scan_reaction_slack


class ReactionModel:
    """plain(params) is params: the reaction and the solvers take the
    ProblemParams record itself.  Only bench/run.py still calls it, and
    ROADMAP item 4a deletes it."""

    @staticmethod
    def plain(params):
        return params


def f_values(params, u):
    """Reaction at every node for nodal values u."""
    tp = np.maximum(np.asarray(u, dtype=float), 0.0)
    return params.lam * tp ** (params.q - 1.0) - tp ** (params.r - 1.0)


def df_values(params, u):
    """t-derivative of the reaction at every node for nodal values u.

    Zero for t <= 0.  Negative powers are read through curvature_power,
    so t -> 0+ with r < 2 gives a large finite value.
    """
    u = np.asarray(u, dtype=float)
    lam, q, r = params.lam, params.q, params.r
    tp = np.maximum(u, 0.0)
    scale = float(np.linalg.norm(u))
    d = (lam * (q - 1.0) * curvature_power(tp, q - 2.0, scale)
         - (r - 1.0) * curvature_power(tp, r - 2.0, scale))
    return np.where(u > 0.0, d, 0.0)


def F_values(params, u):
    """Primitive of the reaction (in t, from 0) at every node."""
    tp = np.maximum(np.asarray(u, dtype=float), 0.0)
    return (params.lam * tp ** params.q / params.q
            - tp ** params.r / params.r)


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
    slack = f_values(params, t) - eps * t ** (params.p - 1.0)
    return float(slack.max())
