import numpy as np
import pytest
from scipy import integrate

from fracbif import (F_values, ParameterError, f_values,
                     scan_reaction_slack, sign_threshold_delta,
                     validate_params)

PARAMS = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                          "lambda": 4.0})


def at_node(values, params, i, t, n=6):
    """values (f_values or F_values) at node i, every node set to t."""
    return float(values(params, np.full(n, float(t)))[i])


def test_plain_formula_positive_part():
    t = np.array([0.5, 1.0, 2.0])
    expect = 4.0 * t ** 1.5 - t ** 0.5
    assert np.allclose(f_values(PARAMS, t), expect, rtol=1e-14)
    # the reaction only sees the positive part of its argument
    assert np.all(f_values(PARAMS, np.array([-3.0, -0.1, 0.0])) == 0.0)


def test_scalar_f_matches_vectorized():
    """The reaction at node i depends only on the value at node i."""
    rng = np.random.default_rng(5)
    for t in (-1.0, 0.0, 0.05, 0.3, 0.9, 1.7, 5.0):
        for i in range(6):
            u = rng.uniform(-2.0, 3.0, size=6)
            u[i] = t
            assert f_values(PARAMS, u)[i] == pytest.approx(
                at_node(f_values, PARAMS, i, t), rel=1e-14, abs=1e-300)


def test_primitive_matches_quadrature():
    """F must be the antiderivative of f vanishing at zero, per node."""
    assert at_node(F_values, PARAMS, 2, 0.0) == 0.0
    for t in (-2.0, -0.4, 0.2, 0.8, 1.4, 3.0):
        for i in (0, 3, 5):
            ref, err = integrate.quad(
                lambda x: at_node(f_values, PARAMS, i, x), 0.0, t,
                limit=200, epsabs=1e-12)
            assert at_node(F_values, PARAMS, i, t) == pytest.approx(
                ref, abs=5e-11)


def test_primitive_vectorization():
    rng = np.random.default_rng(9)
    u = rng.uniform(-2.0, 3.0, size=6)
    vals = F_values(PARAMS, u)
    for i in range(6):
        assert vals[i] == pytest.approx(
            at_node(F_values, PARAMS, i, u[i]), rel=1e-13, abs=1e-300)


def test_sign_threshold():
    delta = sign_threshold_delta(PARAMS)
    assert delta == pytest.approx(4.0 ** (-1.0 / 1.0))
    grid = np.linspace(0.0, delta, 500)
    assert np.all(f_values(PARAMS, grid) <= 1e-15)
    assert at_node(f_values, PARAMS, 0, 1.05 * delta) > 0.0
    zero_lam = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                                "lambda": 0.0})
    with pytest.raises(ParameterError):
        sign_threshold_delta(zero_lam)
    # lam^(-1/(q-r)) = 1e400 overflows a float
    tiny = validate_params({"p": 1.2, "s": 0.4, "q": 1.15, "r": 1.1,
                            "lambda": 1e-20})
    with pytest.raises(ParameterError, match="overflows"):
        sign_threshold_delta(tiny)


def test_reaction_slack_scan_sign():
    small = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                             "lambda": 0.4})
    big = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                           "lambda": 50.0})
    assert scan_reaction_slack(small, 1.0) <= 0.0
    assert scan_reaction_slack(big, 1.0) > 0.0


def test_growth_envelope():
    # |f(i, t)| <= (lam + 1) * (1 + |t|^(q-1))
    rng = np.random.default_rng(17)
    t = rng.uniform(-50.0, 50.0, size=200)
    q = PARAMS.q
    for i in (0, 2, 5):
        vals = np.array([at_node(f_values, PARAMS, i, x) for x in t])
        cap = (PARAMS.lam + 1.0) * (1.0 + np.abs(t) ** (q - 1.0))
        assert np.all(np.abs(vals) <= cap * (1.0 + 1e-12))
