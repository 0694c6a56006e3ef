"""The committed out/ against a fresh run of demo.cfg.

A refactor must reproduce the demo artifacts to solver tolerance: every
value to 1e-7 relative, the threshold search's decisions (the lambda*
fields of method_record) and each solution's converged flag and Morse
index exactly.  Residuals and iteration counts may move with rounding
and are not compared.  The committed files themselves must be what the
code writes: a rerun of the four commands with one BLAS thread
reproduces every one of them byte for byte.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fracbif
from fracbif.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(ROOT, "out")
RTOL = 1e-7
# method_record fields that a different rounding of the energies could
# move: the bound rests on the eigenfunction's operator
ROUNDED_RECORD_FIELDS = ("lambda_lower_bound",)


def _skipped(key):
    return "residual" in key or "iterations" in key


def _compare(new, old, where, exact=False):
    if isinstance(old, dict):
        assert sorted(new) == sorted(old), where
        for key in old:
            if not _skipped(key):
                _compare(new[key], old[key], "%s.%s" % (where, key),
                         exact or key in ("converged", "morse_v")
                         or (where.endswith("method_record")
                             and key not in ROUNDED_RECORD_FIELDS))
    elif isinstance(old, list):
        assert len(new) == len(old), where
        for k, (a, b) in enumerate(zip(new, old)):
            _compare(a, b, "%s[%d]" % (where, k), exact)
    elif isinstance(old, float) and not exact:
        assert isinstance(new, float), where
        assert math.isclose(new, old, rel_tol=RTOL, abs_tol=0.0), (
            "%s: %r against %r" % (where, new, old))
    else:
        assert new == old, "%s: %r against %r" % (where, new, old)


def _read_csv(path):
    lines = open(path).read().splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return header, body[0], body[1:]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    for command in ("eigen", "solve", "bifurcation"):
        args = [command, "--config", os.path.join(ROOT, "demo.cfg"),
                "--out", out]
        assert main(args) == 0, command
    return out


@pytest.mark.parametrize("name", ["eigen.json", "solution.json",
                                  "bifurcation.json"])
def test_run_records_match_committed(fresh, name):
    new = json.load(open(os.path.join(fresh, name)))
    old = json.load(open(os.path.join(COMMITTED, name)))
    _compare(new, old, name)


@pytest.mark.parametrize("name", ["eigen.csv", "solution.csv", "branch.csv"])
def test_csv_values_match_committed(fresh, name):
    header, columns, rows = _read_csv(os.path.join(fresh, name))
    old_header, old_columns, old_rows = _read_csv(os.path.join(COMMITTED, name))
    assert (header, columns) == (old_header, old_columns)
    assert len(rows) == len(old_rows)
    for column, new, old in zip(columns, np.array(rows).T,
                                np.array(old_rows).T):
        if _skipped(column):
            continue
        if column == "converged":
            assert list(new) == list(old)
        else:
            np.testing.assert_allclose(new.astype(float), old.astype(float),
                                       rtol=RTOL, atol=0.0, equal_nan=True,
                                       err_msg="%s column %s" % (name, column))


def test_one_thread_rerun_reproduces_out_byte_for_byte(tmp_path):
    # under the default BLAS threading the last bits of some values can
    # differ between runs, so every thread count is pinned to one before
    # the process loads numpy
    src = os.path.dirname(os.path.dirname(fracbif.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("eigen", "solve", "bifurcation", "verify"):
        subprocess.run([sys.executable, "-m", "fracbif.cli", command,
                        "--config", os.path.join(ROOT, "demo.cfg"),
                        "--out", str(tmp_path)],
                       env=env, capture_output=True, check=True)
    names = sorted(os.listdir(COMMITTED))
    assert sorted(os.listdir(tmp_path)) == names
    moved = [name for name in names
             if (tmp_path / name).read_bytes()
             != open(os.path.join(COMMITTED, name), "rb").read()]
    assert moved == []
