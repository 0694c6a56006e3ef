import json

import numpy as np
import pytest

from fracbif import build_mesh
from fracbif.output import (fmt, write_eigen_csv, write_run_record,
                            write_solution_csv)

META = {"version": "0", "config_hash": "0" * 16, "seed": 0}


def test_fmt_is_fixed_width_scientific():
    assert fmt(1.0) == "1.0000000000000000e+00"
    assert fmt(float("nan")) == "nan"
    assert fmt(np.float64(-0.25)) == "-2.5000000000000000e-01"
    # 17 significant digits round-trip doubles exactly
    x = 0.1 + 0.2
    assert float(fmt(x)) == x


@pytest.mark.parametrize("with_v", [True, False])
def test_csv_rows_hold_each_value_as_fmt_writes_it(tmp_path, with_v):
    # the row-by-row loop the writers replaced is the reference
    mesh = build_mesh(-1.0, 1.0, 9)
    rng = np.random.default_rng(3)
    u = rng.random(9) * 10.0 ** rng.integers(-300, 300, 9)
    u[:2] = 0.0, -0.0
    v = rng.random(9)
    v[2:4] = np.nan, np.inf
    d = mesh.dist ** 0.3
    vv = v if with_v else np.full(9, np.nan)
    path = tmp_path / "solution.csv"
    write_solution_csv(str(path), mesh, 0.3, u, v if with_v else None, META)
    assert path.read_text().splitlines()[2:] == [
        ",".join([fmt(mesh.nodes[i]), fmt(u[i]), fmt(vv[i]),
                  fmt(u[i] / d[i]), fmt(vv[i] / d[i])]) for i in range(9)]
    path = tmp_path / "eigen.csv"
    write_eigen_csv(str(path), mesh, v, META)
    assert path.read_text().splitlines()[2:] == [
        fmt(mesh.nodes[i]) + "," + fmt(v[i]) for i in range(9)]


def test_run_record_is_strict_json(tmp_path):
    path = tmp_path / "rec.json"
    record = {"value": np.float64(2.5), "count": np.int64(3),
              "flag": np.bool_(True), "missing": float("nan"),
              "grid": np.array([1.0, 2.0]),
              "nested": {"inf": float("inf")}}
    write_run_record(str(path), record)
    text = path.read_text()
    # NaN/inf have no strict-JSON encoding; they must come out as null
    loaded = json.loads(text, parse_constant=lambda s: (_ for _ in ()).throw(
        ValueError("non-strict JSON constant: %s" % s)))
    assert loaded["value"] == 2.5
    assert loaded["count"] == 3
    assert loaded["flag"] is True
    assert loaded["missing"] is None
    assert loaded["nested"]["inf"] is None
    assert loaded["grid"] == [1.0, 2.0]


def test_writers_need_meta(tmp_path):
    # a missing meta fails at the call, before any file is opened
    mesh = build_mesh(-1.0, 1.0, 4)
    path = tmp_path / "eigen.csv"
    with pytest.raises(TypeError, match="meta"):
        write_eigen_csv(str(path), mesh, np.ones(4))
    with pytest.raises(TypeError, match="meta"):
        write_solution_csv(str(path), mesh, 0.3, np.ones(4), None)
    assert not path.exists()
