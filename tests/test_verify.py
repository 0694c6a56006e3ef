import numpy as np
import pytest

from fracbif import (ConfigError, KernelMatrix, build_mesh,
                     pair_weight_quadrature, resolve, run_verification,
                     tail_weight_quadrature)
from fracbif import verify


@pytest.mark.parametrize("sigma", [0.05, 0.3, 0.55, 0.8, 0.95])
def test_quadrature_oracle_agrees_with_closed_form(sigma):
    """The log-substitution quadrature and the antiderivative formula
    are two independent evaluations of the same integrals; agreement
    across the sigma range validates both."""
    mesh = build_mesh(-1.3, 0.9, 7)
    kern = KernelMatrix.full_from_sigma(mesh, sigma)
    edges = mesh.cell_edges
    for i, j in ((0, 1), (0, 6), (2, 3), (1, 5)):
        ref = pair_weight_quadrature((edges[i], edges[i + 1]),
                                     (edges[j], edges[j + 1]), sigma)
        assert kern.K[i, j] == pytest.approx(ref, rel=1e-11)
    for i in (0, 3, 6):
        ref = tail_weight_quadrature((edges[i], edges[i + 1]),
                                     (mesh.a, mesh.b), sigma)
        assert kern.T[i] == pytest.approx(ref, rel=1e-11)


def test_run_verification_reports_all_checks():
    cfg = resolve({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "lam": 8.0,
                   "mesh_n": 48, "trials": 60})
    passed, results = run_verification(cfg)
    names = [name for name, ok, detail in results]
    assert names == ["kernel-oracle", "tail-oracle", "gradient",
                     "euler-identity", "eigen-oracle-p2", "mon-i", "mon-ii",
                     "mon-iii", "delta-threshold", "nonexistence-scan"]
    assert passed
    for name, ok, detail in results:
        assert ok, "%s failed: %s" % (name, detail)
        assert isinstance(detail, str) and detail


def test_run_verification_flags_corrupted_kernel():
    cfg = resolve({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "lam": 8.0,
                   "mesh_n": 48, "trials": 60})

    def hook(kern):
        K = kern.K.copy()
        K[0, 1] = K[1, 0] = 1.5 * K[0, 1]
        return KernelMatrix(K=K, T=kern.T, sigma=kern.sigma, mesh=kern.mesh)

    passed, results = run_verification(cfg, kernel_hook=hook)
    assert not passed
    failed = [name for name, ok, _ in results if not ok]
    assert "kernel-oracle" in failed


def test_run_verification_runs_shared_evidence_once(monkeypatch):
    cfg = resolve({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "lam": 8.0,
                   "mesh_n": 48, "trials": 60})
    calls = {"kernel": 0, "operator": 0, "assembled": 0}

    def counted(key, func):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(verify, "_kernel_checks",
                        counted("kernel", verify._kernel_checks))
    monkeypatch.setattr(verify, "verify_operator_properties",
                        counted("operator", verify.verify_operator_properties))
    passed, _ = run_verification(cfg, kernel_hook=counted("assembled",
                                                          lambda k: k))
    assert passed
    # two kernels for the oracles, one each for gradient and
    # nonexistence-scan, two (the even one and the full one) for
    # eigen-oracle-p2, and one n = 32 kernel that euler-identity and the
    # mon-* trials share
    assert calls == {"kernel": 1, "operator": 1, "assembled": 7}


def test_run_verification_fails_every_check_of_a_raising_step():
    cfg = resolve({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "lam": 8.0,
                   "mesh_n": 48, "trials": 60})

    def hook(kern):
        raise RuntimeError("no kernel")

    passed, results = run_verification(cfg, kernel_hook=hook)
    assert not passed
    details = {name: (ok, detail) for name, ok, detail in results}
    for name in ("kernel-oracle", "tail-oracle", "mon-i", "mon-ii", "mon-iii"):
        assert details[name] == (False, "raised RuntimeError: no kernel")


def test_run_verification_names_a_missing_lambda():
    cfg = resolve({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "mesh_n": 48})
    with pytest.raises(ConfigError, match="missing config key: lambda"):
        run_verification(cfg)
