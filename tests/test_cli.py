import json
import os

import numpy as np
import pytest

from fracbif import KernelMatrix, SaddleNotFound
from fracbif.cli import main
import fracbif.bifurcation as bifurcation_module

BASE = {"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5, "lambda": 8.0,
        "domain.a": -1.0, "domain.b": 1.0, "mesh.n": 48, "seed": 0}


def write_config(path, **overrides):
    entries = dict(BASE)
    entries.update(overrides)
    lines = ["# generated by the test suite"]
    for key, value in entries.items():
        if value is None:
            continue
        lines.append("%s = %s" % (key, value))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def outdir(tmp_path):
    return str(tmp_path / "out")


def test_missing_lambda_is_a_config_error(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"lambda": None})
    code = main(["solve", "--config", cfg, "--out", outdir])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "lambda" in err


def test_missing_p_is_named(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", p=None)
    code = main(["eigen", "--config", cfg, "--out", outdir])
    assert code == 1
    assert "missing config key: p" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, outdir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3.0\nwobble = 1\n")
    code = main(["eigen", "--config", str(cfg), "--out", outdir])
    assert code == 1
    assert "wobble" in capsys.readouterr().err


def test_malformed_bracket_flag(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    code = main(["bifurcation", "--config", cfg, "--out", outdir,
                 "--lambda-min", "7", "--lambda-max", "9", "--steps", "3",
                 "--bracket", "1,,"])
    assert code == 1
    assert "--bracket" in capsys.readouterr().err


def test_bad_threads_env(tmp_path, outdir, capsys, monkeypatch):
    monkeypatch.setenv("FRACBIF_THREADS", "many")
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 24})
    code = main(["eigen", "--config", cfg, "--out", outdir])
    assert code == 1
    assert "FRACBIF_THREADS" in capsys.readouterr().err


def test_eigen_writes_artifacts(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", p=2.0, s=0.2, q=1.8, r=1.2,
                       **{"mesh.n": 24})
    code = main(["eigen", "--config", cfg, "--out", outdir])
    assert code == 0
    assert "principal eigenvalue" in capsys.readouterr().out
    csv = open(os.path.join(outdir, "eigen.csv")).read()
    assert csv.startswith("# fracbif ")
    assert "config_hash=" in csv and "seed=0" in csv.splitlines()[0]
    assert csv.splitlines()[1] == "x,phi"
    rec = json.load(open(os.path.join(outdir, "eigen.json")))
    assert rec["command"] == "eigen"
    assert rec["value"] > 0.0
    assert rec["seed"] == 0
    assert "timestamp" not in rec


def test_eigen_output_is_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 24})
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    assert main(["eigen", "--config", cfg, "--out", out1]) == 0
    assert main(["eigen", "--config", cfg, "--out", out2]) == 0
    a = open(os.path.join(out1, "eigen.csv"), "rb").read()
    b = open(os.path.join(out2, "eigen.csv"), "rb").read()
    assert a == b


def test_kernel_hook_scales_eigenvalue(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 24})
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    assert main(["eigen", "--config", cfg, "--out", out1]) == 0
    base = json.load(open(os.path.join(out1, "eigen.json")))["value"]

    def doubled(kern):
        return KernelMatrix(K=2.0 * kern.K, T=2.0 * kern.T,
                            sigma=kern.sigma, mesh=kern.mesh)

    assert main(["eigen", "--config", cfg, "--out", out2],
                kernel_hook=doubled) == 0
    hooked = json.load(open(os.path.join(out2, "eigen.json")))["value"]
    assert hooked == pytest.approx(2.0 * base, rel=1e-10)


@pytest.mark.parametrize("n", [24, 25])
def test_eigen_fails_on_a_kernel_without_mirror_symmetry(tmp_path, outdir,
                                                         capsys, n):
    # the solver works on the folded kernel, which cannot see the broken
    # pair; the full-space residual of the unfolded result must
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": n})

    def lopsided(kern):
        K = kern.K.copy()
        K[0, 1] = K[1, 0] = 1.5 * K[0, 1]
        return KernelMatrix(K=K, T=kern.T, sigma=kern.sigma, mesh=kern.mesh)

    code = main(["eigen", "--config", cfg, "--out", outdir],
                kernel_hook=lopsided)
    assert code == 2
    assert "did not converge" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "eigen.json"))


def test_verify_passes_on_clean_kernel(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 64})
    code = main(["verify", "--config", cfg, "--out", outdir])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    rec = json.load(open(os.path.join(outdir, "verify.json")))
    assert all(item["passed"] for item in rec["results"])
    assert len(rec["results"]) >= 10


def test_verify_catches_corrupted_kernel(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 64})

    def corrupt(kern):
        return KernelMatrix(K=1.02 * kern.K, T=kern.T,
                            sigma=kern.sigma, mesh=kern.mesh)

    code = main(["verify", "--config", cfg, "--out", outdir],
                kernel_hook=corrupt)
    captured = capsys.readouterr()
    assert code == 4
    assert "verification failed" in captured.err
    assert "kernel-oracle" in captured.err
    rec = json.load(open(os.path.join(outdir, "verify.json")))
    assert any(not item["passed"] for item in rec["results"])


def test_solve_subcritical_exits_three(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"lambda": 0.5, "mesh.n": 32})
    code = main(["solve", "--config", cfg, "--out", outdir])
    assert code == 3
    assert "no nontrivial solution" in capsys.readouterr().out
    rec = json.load(open(os.path.join(outdir, "solution.json")))
    assert rec["outcome"] == "no nontrivial solution"
    lines = open(os.path.join(outdir, "solution.csv")).read().splitlines()
    assert lines[1] == "x,u,v,u_over_ds,v_over_ds"
    assert lines[2].split(",")[2] == "nan"


def test_solve_reports_both_solutions(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg")
    code = main(["solve", "--config", cfg, "--out", outdir,
                 "--dump-kernel"])
    out = capsys.readouterr().out
    assert code == 0
    assert "solution sup norm" in out and "saddle sup norm" in out
    rec = json.load(open(os.path.join(outdir, "solution.json")))
    assert rec["outcome"] == "two ordered solutions"
    assert rec["diagnostics"]["margin"] > 0.0
    assert rec["boundary"]["hopf_ratio"] > 0.0
    assert os.path.exists(os.path.join(outdir, "kernel.csv"))
    assert os.path.exists(os.path.join(outdir, "kernel_tails.csv"))
    rows = open(os.path.join(outdir, "solution.csv")).read().splitlines()
    assert len(rows) == 2 + 48
    u2 = float(rows[2].split(",")[1])
    v2 = float(rows[2].split(",")[2])
    assert 0.0 < v2 < u2


def test_solve_keeps_minimizer_when_saddle_not_found(tmp_path, outdir,
                                                      capsys, monkeypatch):
    calls = []
    multistart = bifurcation_module.minimize_multistart

    def counted(*args, **kwargs):
        calls.append(1)
        return multistart(*args, **kwargs)

    def no_saddle(*args, **kwargs):
        raise SaddleNotFound("mountain-pass path collapsed onto an endpoint")

    monkeypatch.setattr(bifurcation_module, "minimize_multistart", counted)
    monkeypatch.setattr(bifurcation_module, "find_saddle", no_saddle)
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 32})
    code = main(["solve", "--config", cfg, "--out", outdir])
    assert code == 0
    assert len(calls) == 1
    assert "saddle sup norm" not in capsys.readouterr().out
    rec = json.load(open(os.path.join(outdir, "solution.json")))
    assert rec["saddle_note"] == "mountain-pass path collapsed onto an endpoint"
    assert rec["outcome"] == "one solution"
    assert rec["diagnostics"]["sup_u"] > 0.0
    assert rec["diagnostics"]["iterations_v"] == 0


def test_lambda_flag_overrides_file(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"lambda": 8.0, "mesh.n": 32})
    code = main(["solve", "--config", cfg, "--out", outdir,
                 "--lambda", "0.5"])
    assert code == 3


def test_threads_precedence(tmp_path, capsys, monkeypatch):
    cfg_nothreads = write_config(tmp_path / "a.cfg", **{"mesh.n": 24})
    cfg_threads = write_config(tmp_path / "b.cfg", threads=2,
                               **{"mesh.n": 24})
    env_out = str(tmp_path / "env_out")
    file_out = str(tmp_path / "file_out")
    flag_out = str(tmp_path / "flag_out")
    monkeypatch.setenv("FRACBIF_THREADS", "3")
    assert main(["eigen", "--config", cfg_nothreads, "--out", env_out]) == 0
    assert json.load(open(os.path.join(env_out, "eigen.json")))["threads"] == 3
    assert main(["eigen", "--config", cfg_threads, "--out", file_out]) == 0
    assert json.load(open(os.path.join(file_out, "eigen.json")))["threads"] == 2
    assert main(["eigen", "--config", cfg_threads, "--out", flag_out,
                 "--threads", "4"]) == 0
    assert json.load(open(os.path.join(flag_out, "eigen.json")))["threads"] == 4


def test_bifurcation_artifacts_and_reproducibility(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 32},
                       lambda_min=7.0, lambda_max=9.0, steps=3,
                       bracket_lo=5.0, bracket_hi=9.0)
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    assert main(["bifurcation", "--config", cfg, "--out", out1]) == 0
    stdout = capsys.readouterr().out
    assert "lambda* estimate" in stdout
    branch = open(os.path.join(out1, "branch.csv")).read()
    lines = branch.splitlines()
    assert lines[1].startswith("lambda,sup_u,sup_v,")
    assert len(lines) == 2 + 3
    rec = json.load(open(os.path.join(out1, "bifurcation.json")))
    assert rec["lambda_star_estimate"] > 5.0
    assert rec["bracket_width"] <= 0.05
    assert len(rec["points"]) == 3
    svg = open(os.path.join(out1, "diagram.svg")).read()
    # every branch point is drawn: one circle per finite sup value
    alive = sum(1 for line in lines[2:]
                if float(line.split(",")[1]) > 1e-6)
    saddles = sum(1 for line in lines[2:]
                  if line.split(",")[2] != "nan")
    assert svg.count('class="branch-u"') == 3
    assert svg.count('class="branch-v"') == saddles
    assert alive == 3
    # second run reproduces the CSV byte for byte
    assert main(["bifurcation", "--config", cfg, "--out", out2]) == 0
    a = open(os.path.join(out1, "branch.csv"), "rb").read()
    b = open(os.path.join(out2, "branch.csv"), "rb").read()
    assert a == b


def test_bifurcation_width_flag(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 32},
                       lambda_min=7.0, lambda_max=9.0, steps=2,
                       bracket_lo=5.0, bracket_hi=9.0)
    assert main(["bifurcation", "--config", cfg, "--out", outdir,
                 "--width", "0.02"]) == 0
    rec = json.load(open(os.path.join(outdir, "bifurcation.json")))
    assert rec["bracket_width"] <= 0.02


def test_hopeless_bracket_is_a_solver_failure(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 32},
                       lambda_min=7.0, lambda_max=9.0, steps=2)
    code = main(["bifurcation", "--config", cfg, "--out", outdir,
                 "--bracket", "1e-4,2e-4"])
    assert code == 2
    assert "solver failure" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
