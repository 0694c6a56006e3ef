import numpy as np
import pytest
from scipy import integrate

from fracbif import (F_values, ParameterError, ReactionModel, f_values,
                     scan_reaction_slack, sign_threshold_delta,
                     validate_params)

PARAMS = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                          "lambda": 4.0})


def make_models(n=6):
    rng = np.random.default_rng(42)
    ceiling = 1.0 + rng.random(n)
    return [ReactionModel.plain(PARAMS),
            ReactionModel.capped(PARAMS, ceiling)]


def at_node(values, model, i, t, n=6):
    """values (f_values or F_values) at node i, every node set to t."""
    return float(values(model, np.full(n, float(t)))[i])


def test_plain_formula_positive_part():
    model = ReactionModel.plain(PARAMS)
    t = np.array([0.5, 1.0, 2.0])
    expect = 4.0 * t ** 1.5 - t ** 0.5
    assert np.allclose(f_values(model, t), expect, rtol=1e-14)
    # the reaction only sees the positive part of its argument
    assert np.all(f_values(model, np.array([-3.0, -0.1, 0.0])) == 0.0)


def test_scalar_f_matches_vectorized():
    """The reaction at node i depends only on the value at node i."""
    rng = np.random.default_rng(5)
    for model in make_models():
        for t in (-1.0, 0.0, 0.05, 0.3, 0.9, 1.7, 5.0):
            for i in range(6):
                u = rng.uniform(-2.0, 3.0, size=6)
                u[i] = t
                assert f_values(model, u)[i] == pytest.approx(
                    at_node(f_values, model, i, t), rel=1e-14, abs=1e-300)


def test_primitive_matches_quadrature():
    """F must be the antiderivative of f vanishing at zero, per node."""
    for model in make_models():
        assert at_node(F_values, model, 2, 0.0) == 0.0
        for t in (-2.0, -0.4, 0.2, 0.8, 1.4, 3.0):
            for i in (0, 3, 5):
                kinks = []
                if model.ceiling is not None:
                    kinks.append(float(model.ceiling[i]))
                pts = [k for k in kinks if min(0.0, t) < k < max(0.0, t)]
                ref, err = integrate.quad(
                    lambda x: at_node(f_values, model, i, x), 0.0, t,
                    points=pts or None, limit=200, epsabs=1e-12)
                assert at_node(F_values, model, i, t) == pytest.approx(
                    ref, abs=5e-11)


def test_primitive_vectorization():
    rng = np.random.default_rng(9)
    u = rng.uniform(-2.0, 3.0, size=6)
    for model in make_models():
        vals = F_values(model, u)
        for i in range(6):
            assert vals[i] == pytest.approx(
                at_node(F_values, model, i, u[i]), rel=1e-13, abs=1e-300)


def test_capped_variant_freezes_growth():
    ceiling = np.full(4, 1.5)
    model = ReactionModel.capped(PARAMS, ceiling)
    c = 1.5
    # continuous across the cap
    assert at_node(f_values, model, 1, c - 1e-9, n=4) == pytest.approx(
        at_node(f_values, model, 1, c + 1e-9, n=4), abs=1e-6)
    # beyond the cap the consuming power keeps growing, so f decreases
    ts = np.linspace(c, 4.0, 50)
    seq = [at_node(f_values, model, 1, t, n=4) for t in ts]
    assert all(b < a for a, b in zip(seq, seq[1:]))


def test_sign_threshold():
    delta = sign_threshold_delta(PARAMS)
    assert delta == pytest.approx(4.0 ** (-1.0 / 1.0))
    model = ReactionModel.plain(PARAMS)
    grid = np.linspace(0.0, delta, 500)
    assert np.all(f_values(model, grid) <= 1e-15)
    assert at_node(f_values, model, 0, 1.05 * delta) > 0.0
    zero_lam = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                                "lambda": 0.0})
    with pytest.raises(ParameterError):
        sign_threshold_delta(zero_lam)


def test_reaction_slack_scan_sign():
    small = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                             "lambda": 0.4})
    big = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                           "lambda": 50.0})
    assert scan_reaction_slack(small, 1.0) <= 0.0
    assert scan_reaction_slack(big, 1.0) > 0.0


def test_growth_envelope():
    # |f(i, t)| <= c0 * (1 + |t|^(q-1)) with c0 = (lam + 1) * (1 +
    # top^(q-1)), top the largest ceiling value (0 for the plain reaction)
    rng = np.random.default_rng(17)
    t = rng.uniform(-50.0, 50.0, size=200)
    for model in make_models():
        q = model.params.q
        top = 0.0 if model.ceiling is None else float(np.max(model.ceiling))
        c0 = (model.params.lam + 1.0) * (1.0 + top ** (q - 1.0))
        for i in (0, 2, 5):
            vals = np.array([at_node(f_values, model, i, x) for x in t])
            cap = c0 * (1.0 + np.abs(t) ** (q - 1.0))
            assert np.all(np.abs(vals) <= cap * (1.0 + 1e-12))
