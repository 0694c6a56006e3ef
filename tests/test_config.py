import pytest

from fracbif import ConfigError, RunConfig, config_hash, parse_config_file, resolve


def test_parse_basic_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# two-power reaction\n"
        "p = 3.0\n"
        "lambda = 4.0   # inline comment\n"
        "mesh.n = 100\n"
        "out = results\n"
        "\n"
        "mesh.n = 120\n")
    values = parse_config_file(str(path))
    assert values == {"p": 3.0, "lam": 4.0, "mesh_n": 120, "out": "results"}


def test_parse_errors_carry_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 3.0\nseed abc\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2"):
        parse_config_file(str(path))
    path.write_text("nose = 1\n")
    with pytest.raises(ConfigError, match="unknown config key: nose"):
        parse_config_file(str(path))
    path.write_text("p =\n")
    with pytest.raises(ConfigError, match="missing config value"):
        parse_config_file(str(path))
    path.write_text("mesh.n = few\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_config_file(str(path))


def test_parse_missing_file_names_path():
    with pytest.raises(ConfigError, match="no_such_file"):
        parse_config_file("no_such_file.cfg")


def test_resolve_precedence():
    cfg = resolve({"p": 3.0, "seed": 5}, {"seed": 9})
    assert cfg.p == 3.0
    assert cfg.seed == 9
    assert cfg.mesh_n == 200          # untouched default
    # None overrides are "flag not given" and must not clobber
    cfg2 = resolve({"seed": 5}, {"seed": None})
    assert cfg2.seed == 5


@pytest.mark.parametrize("field,value", [("seed", -1), ("trials", 0),
                                         ("trials", -5), ("threads", 0)])
def test_resolve_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        resolve({"p": 3.0}, {field: value})


def test_config_hash_tracks_numbers_not_destinations():
    a = resolve({"p": 3.0, "s": 0.3})
    b = resolve({"p": 3.0, "s": 0.3, "out": "elsewhere", "threads": 8})
    c = resolve({"p": 3.0, "s": 0.31})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16
    int(config_hash(a), 16)


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.tol == 1e-9
    assert cfg.width == 0.05
    assert cfg.steps == 12
    assert cfg.out == "out"
    assert cfg.p is None
