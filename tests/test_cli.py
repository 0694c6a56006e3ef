import dataclasses
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


def test_zero_width_is_a_config_error(tmp_path, outdir, capsys):
    # a width of 0 is never met: the bisection spun on adjacent floats
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 32},
                       lambda_min=7.0, lambda_max=9.0, steps=2,
                       bracket_lo=5.0, bracket_hi=9.0)
    code = main(["bifurcation", "--config", cfg, "--out", outdir,
                 "--width", "0"])
    assert code == 1
    assert "width must be positive" in capsys.readouterr().err
    assert not os.path.exists(outdir)


def test_zero_starts_is_a_config_error(tmp_path, outdir, capsys):
    # no start gives no report to select from; verify, which runs no
    # multistart, rejects the same config as the solver commands do
    cfg = write_config(tmp_path / "run.cfg", starts=0)
    for command in ("solve", "verify"):
        code = main([command, "--config", cfg, "--out", outdir])
        assert code == 1
        assert "starts must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(outdir)


def test_zero_trials_is_a_config_error(tmp_path, outdir, capsys):
    # with no operator trial the mon-* checks passed on nothing
    cfg = write_config(tmp_path / "run.cfg", trials=0)
    code = main(["verify", "--config", cfg, "--out", outdir])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "trials must be at least 1" in err
    assert not os.path.exists(outdir)


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_negative_seed_is_a_config_error(tmp_path, outdir, capsys, command):
    # numpy rejects a negative seed only once the run is under way
    cfg = write_config(tmp_path / "run.cfg")
    code = main([command, "--config", cfg, "--out", outdir, "--seed", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "seed must be at least 0" in err
    assert not os.path.exists(outdir)


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
def test_eigen_rejects_a_hook_that_breaks_the_even_kernel(tmp_path, outdir,
                                                          capsys, n):
    # the hook receives the even kernel, K' of ceil(n/2) nodes; weights
    # it leaves without symmetry, or tails and masses of the wrong
    # length, end the run as a config error, before any solve or output
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": n})

    def lopsided(kern):
        K = kern.K.copy()
        K[0, 1] = 1.5 * K[0, 1]
        return KernelMatrix(K=K, T=kern.T, sigma=kern.sigma, mesh=kern.mesh)

    def full_tails(kern):
        return KernelMatrix(K=kern.K, T=np.resize(kern.T, n),
                            sigma=kern.sigma, mesh=kern.mesh)

    def short_mass(kern):
        return KernelMatrix(K=kern.K, T=kern.T, sigma=kern.sigma,
                            mesh=kern.mesh, mass=kern.mass[1:])

    for hook, message in ((lopsided, "not symmetric"),
                          (full_tails, "weights K of shape"),
                          (short_mass, "mass of shape")):
        code = main(["eigen", "--config", cfg, "--out", outdir],
                    kernel_hook=hook)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and message in err
        assert "Traceback" not in err
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
    code = main(["solve", "--config", cfg, "--out", outdir, "--dump-kernel"])
    assert code == 3
    for name in ("kernel.csv", "kernel_tails.csv"):
        assert os.path.exists(os.path.join(outdir, name)), name
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
    diag = rec["diagnostics"]
    assert diag["margin"] > 0.0 and diag["weighted_margin"] > 0.0
    assert diag["morse_v"] == 1
    assert diag["residual_u"] <= 1e-8
    assert set(rec["boundary"]) == {"holder_ratio", "sup_ratio"}
    assert diag["hopf_u"] > 0.0
    assert rec["boundary"]["sup_ratio"] >= diag["hopf_u"]
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
    assert rec["diagnostics"]["morse_v"] is None


def test_solve_claims_two_solutions_only_for_a_converged_saddle(
        tmp_path, outdir, capsys):
    # at this point the saddle search stops short of the residual
    # target, at even-subspace Morse index 1
    cfg = write_config(tmp_path / "run.cfg", p=1.5, s=0.5, q=1.3, r=1.1,
                       **{"lambda": 12.5, "mesh.n": 32})
    assert main(["solve", "--config", cfg, "--out", outdir]) == 0
    assert "saddle sup norm" not in capsys.readouterr().out
    rec = json.load(open(os.path.join(outdir, "solution.json")))
    diag = rec["diagnostics"]
    assert rec["outcome"] == "one solution"
    assert diag["converged"] is False
    assert diag["morse_v"] == 1
    assert diag["sup_v"] > 0.0 and diag["iterations_v"] > 0
    assert diag["residual_v"] > 1e-9
    assert rec["saddle_note"] == (
        "saddle search did not converge (Morse index 1, residual %.3e)"
        % diag["residual_v"])
    rows = open(os.path.join(outdir, "solution.csv")).read().splitlines()
    v = [float(line.split(",")[2]) for line in rows[2:]]
    assert len(v) == 32 and all(np.isnan(v))


def test_bifurcation_notes_an_unconverged_saddle(tmp_path, outdir, capsys):
    # the point of the test above as a grid point: the same note as
    # solve gives, with the saddle's diagnostics kept
    cfg = write_config(tmp_path / "run.cfg", p=1.5, s=0.5, q=1.3, r=1.1,
                       lambda_min=12.5, lambda_max=13.0, steps=2,
                       bracket_lo=2.0, bracket_hi=20.0, **{"mesh.n": 32})
    assert main(["bifurcation", "--config", cfg, "--out", outdir]) == 0
    point = json.load(open(os.path.join(outdir, "bifurcation.json")))[
        "points"][0]
    assert point["lambda"] == 12.5
    assert point["converged"] is False
    assert point["morse_v"] == 1
    assert point["residual_v"] > 1e-9
    assert point["saddle_note"] == (
        "saddle search did not converge (Morse index 1, residual %.3e)"
        % point["residual_v"])
    rows = open(os.path.join(outdir, "branch.csv")).read().splitlines()
    row = dict(zip(rows[1].split(","), rows[2].split(",")))
    assert float(row["sup_v"]) == point["sup_v"] > 0.0
    assert row["converged"] == "0"


def test_lambda_whose_sign_threshold_overflows_is_a_config_error(
        tmp_path, outdir, capsys):
    # lam^(-1/(q-r)) = 1e400 is no float: the starts cannot be scaled
    cfg = write_config(tmp_path / "run.cfg", p=1.2, s=0.4, q=1.15, r=1.1,
                       **{"lambda": 1e-20, "mesh.n": 16})
    code = main(["solve", "--config", cfg, "--out", outdir])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "lam=1e-20" in err and "overflows" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lambda_whose_largest_start_overflows_is_a_config_error(
        tmp_path, outdir, capsys):
    # delta = lam^(-1/(q-r)) = 1e306 is a float, but 10^2.5 delta is not
    cfg = write_config(tmp_path / "run.cfg", p=1.2, s=0.4, q=1.15, r=1.1,
                       **{"lambda": 5e-16, "mesh.n": 16})
    code = main(["solve", "--config", cfg, "--out", outdir])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "lam=5e-16" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [1e-15, 1e-10, 0.01])
def test_solve_far_below_lambda_low_exits_three(tmp_path, outdir, capsys,
                                                lam):
    # max f(t) / t^(p-1) lies below the ceiling's constant c there, so
    # every start is scaled to zero and no start is mistaken for a
    # solution (sup u = 1.46e40 at lam = 0.01 without that)
    cfg = write_config(tmp_path / "run.cfg", p=1.2, s=0.4, q=1.15, r=1.1,
                       **{"lambda": lam, "mesh.n": 16})
    code = main(["solve", "--config", cfg, "--out", outdir])
    assert code == 3
    assert "no nontrivial solution" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_at_lambda_zero_exits_three(tmp_path, outdir, capsys):
    # zero is the only solution at lambda = 0, and every descent ends
    # there at once, without dividing by the zero Hessian of u = 0
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 32})
    code = main(["solve", "--config", cfg, "--out", outdir, "--lambda", "0"])
    assert code == 3
    assert "no nontrivial solution" in capsys.readouterr().out


def test_lambda_flag_overrides_file(tmp_path, outdir, capsys):
    cfg = write_config(tmp_path / "run.cfg", **{"lambda": 8.0, "mesh.n": 32})
    code = main(["solve", "--config", cfg, "--out", outdir,
                 "--lambda", "0.5"])
    assert code == 3


def test_threads_precedence(tmp_path, capsys):
    cfg_threads = write_config(tmp_path / "b.cfg", threads=2,
                               **{"mesh.n": 24})
    file_out = str(tmp_path / "file_out")
    flag_out = str(tmp_path / "flag_out")
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


def test_bifurcation_prints_the_fold_solve(tmp_path, outdir, capsys,
                                           monkeypatch):
    cfg = write_config(tmp_path / "run.cfg", **{"mesh.n": 32},
                       lambda_min=7.0, lambda_max=9.0, steps=2,
                       bracket_lo=5.0, bracket_hi=9.0)
    assert main(["bifurcation", "--config", cfg, "--out", outdir]) == 0
    lines = capsys.readouterr().out.splitlines()
    rec = json.load(open(os.path.join(outdir, "bifurcation.json")))
    mr = rec["method_record"]
    at = next(k for k, line in enumerate(lines)
              if line.startswith("lambda* estimate"))
    assert lines[at + 1] == (
        "fold solve lambda*_h %.10g (residual %.3g, %d Newton steps)"
        % (mr["fold_estimate"], mr["fold_residual"], mr["fold_iterations"]))
    assert 6.45 < mr["fold_estimate"] < 6.47
    # a fold solve that never converges leaves the bisection to itself,
    # and the line after the estimate says why
    fold = bifurcation_module.solve_fold

    def stalled(kern, params, u, opts):
        return fold(kern, params, u, dataclasses.replace(opts, max_iter=1))

    monkeypatch.setattr(bifurcation_module, "solve_fold", stalled)
    assert main(["bifurcation", "--config", cfg, "--out", outdir]) == 0
    lines = capsys.readouterr().out.splitlines()
    rec = json.load(open(os.path.join(outdir, "bifurcation.json")))
    mr = rec["method_record"]
    assert mr["fold_estimate"] is None and mr["fold_note"]
    at = next(k for k, line in enumerate(lines)
              if line.startswith("lambda* estimate"))
    assert lines[at + 1] == "fold solve did not converge: %s" % mr["fold_note"]
    assert mr["fold_note"].startswith("from hi=9: residual")
    assert rec["bracket_width"] <= 0.05


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
