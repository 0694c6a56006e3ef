import numpy as np
import pytest

from fracbif import (GridFunction, MeshError, MeshMismatchError,
                     ParameterError, build_mesh, odd_power, validate_params,
                     with_lambda)


def test_odd_power_matches_signed_magnitude():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(50) * 10.0
    for t in (1.5, 2.0, 3.0, 4.7):
        expect = np.sign(a) * np.abs(a) ** (t - 1.0)
        assert np.allclose(odd_power(a, t), expect, rtol=1e-14)


def test_odd_power_zero_and_scalars():
    assert odd_power(0.0, 1.5) == 0.0
    assert odd_power(np.array([0.0, -0.0]), 2.3).tolist() == [0.0, 0.0]
    assert odd_power(-2.0, 3.0) == -4.0
    assert isinstance(odd_power(1.7, 2.0), float)


def test_odd_power_rejects_nonpositive_exponent():
    with pytest.raises(ParameterError):
        odd_power(1.0, 0.0)
    with pytest.raises(ParameterError):
        odd_power(1.0, -2.0)


def test_validate_params_happy_path():
    pr = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "lambda": 4.0})
    assert pr.lam == 4.0
    assert pr.sigma == pytest.approx(0.9)


def test_validate_params_lambda_alias():
    a = validate_params({"p": 2.0, "s": 0.4, "q": 1.8, "r": 1.2, "lam": 1.0})
    assert a.lam == 1.0
    with pytest.raises(ParameterError):
        validate_params({"p": 2.0, "s": 0.4, "q": 1.8, "r": 1.2,
                         "lam": 1.0, "lambda": 1.0})


def test_validate_params_names_missing_and_unknown_keys():
    with pytest.raises(ParameterError, match="missing parameter keys: s, q"):
        validate_params({"p": 3.0, "r": 1.5})
    with pytest.raises(ParameterError, match="unknown parameter keys: zeta"):
        validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "zeta": 1})
    with pytest.raises(ParameterError, match="unknown parameter keys: c0"):
        validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "c0": 1})


def test_validate_params_enforces_ranges():
    base = {"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5}
    with pytest.raises(ParameterError):
        validate_params(dict(base, s=1.2))
    with pytest.raises(ParameterError):
        validate_params(dict(base, r=2.6))        # r > q
    with pytest.raises(ParameterError):
        validate_params(dict(base, q=3.5))        # q > p
    with pytest.raises(ParameterError):
        validate_params(dict(base, r=1.0))        # r must exceed 1
    with pytest.raises(ParameterError):
        validate_params(dict(base, s=0.5))        # p*s = 1.5 >= 1
    with pytest.raises(ParameterError):
        validate_params(dict(base, **{"lambda": -1.0}))
    with pytest.raises(ParameterError):
        validate_params(dict(base, p=float("nan")))


def test_with_lambda_changes_only_the_reaction_strength():
    pr = validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "lambda": 4.0})
    pr2 = with_lambda(pr, 9.0)
    assert pr2.lam == 9.0
    assert (pr2.p, pr2.s, pr2.q, pr2.r) == (pr.p, pr.s, pr.q, pr.r)


def test_build_mesh_geometry():
    mesh = build_mesh(-1.0, 1.0, 8)
    assert mesh.h == pytest.approx(0.25)
    assert mesh.nodes[0] == pytest.approx(-0.875)
    assert mesh.nodes[-1] == pytest.approx(0.875)
    assert np.all(np.diff(mesh.cell_edges) > 0)
    # distance to the nearer endpoint, symmetric on a symmetric interval
    assert mesh.dist[0] == pytest.approx(0.125)
    assert np.allclose(mesh.dist, mesh.dist[::-1])


def test_build_mesh_rejects_bad_requests():
    with pytest.raises(MeshError):
        build_mesh(1.0, -1.0, 10)
    with pytest.raises(MeshError):
        build_mesh(0.0, 0.0, 10)
    with pytest.raises(MeshError):
        build_mesh(0.0, 1.0, 1)


def test_mesh_equality_is_by_interval_and_size():
    assert build_mesh(0.0, 1.0, 16) == build_mesh(0.0, 1.0, 16)
    assert build_mesh(0.0, 1.0, 16) != build_mesh(0.0, 1.0, 17)


def test_grid_function_shape_checks():
    mesh = build_mesh(0.0, 1.0, 5)
    g = GridFunction(np.arange(5.0), mesh)
    assert g.sup_norm == 4.0
    with pytest.raises(MeshMismatchError):
        GridFunction(np.zeros(4), mesh)
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0, np.nan, 0.0, 0.0]), mesh)
