"""Plain key=value run configuration.

Files look like

    p = 3.0
    s = 0.3
    q = 2.5
    r = 1.5
    lambda = 4.0
    domain.a = -1.0
    domain.b = 1.0
    mesh.n = 200

with '#' comments; later assignments win.  Command-line flags override
file values.  The resolved configuration hashes to a hex digest that
output files embed, so identical settings are recognizable.
"""

import hashlib
from dataclasses import dataclass, fields

from .core import validate_params
from .solvers import SolverOptions


class ConfigError(ValueError):
    """Bad, unknown, or missing configuration entries."""


@dataclass
class RunConfig:
    p: float = None
    s: float = None
    q: float = None
    r: float = None
    lam: float = None
    domain_a: float = -1.0
    domain_b: float = 1.0
    mesh_n: int = 200
    tol: float = SolverOptions.tol
    max_iter: int = SolverOptions.max_iter
    starts: int = SolverOptions.starts
    path_points: int = SolverOptions.path_points
    damping: float = SolverOptions.damping
    width: float = SolverOptions.width
    seed: int = 0
    threads: int = 1
    lambda_min: float = None
    lambda_max: float = None
    steps: int = 12
    bracket_lo: float = None
    bracket_hi: float = None
    trials: int = 200
    out: str = "out"


# the RunConfig fields whose file key differs from the field name
_ALIASES = {"lam": "lambda", "domain_a": "domain.a", "domain_b": "domain.b",
            "mesh_n": "mesh.n"}
_KEY_TO_FIELD = {_ALIASES.get(f.name, f.name): f.name
                 for f in fields(RunConfig)}

_INT_FIELDS = {f.name for f in fields(RunConfig) if f.type is int}
_STR_FIELDS = {f.name for f in fields(RunConfig) if f.type is str}


def parse_config_file(path):
    """Read a key=value file into a {field: value} dict."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError("%s:%d: expected key = value, got %r"
                              % (path, lineno, line.rstrip()))
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError("%s:%d: unknown config key: %s" % (path, lineno, key))
        if not raw:
            raise ConfigError("%s:%d: missing config value for key: %s"
                              % (path, lineno, key))
        out[_KEY_TO_FIELD[key]] = _coerce(key, _KEY_TO_FIELD[key], raw)
    return out


def _coerce(key, field_name, raw):
    if field_name in _STR_FIELDS:
        return raw
    try:
        if field_name in _INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError("config key %s has non-numeric value %r" % (key, raw))


def resolve(file_values=None, overrides=None):
    """Merge defaults, file values, and flag overrides into a RunConfig."""
    cfg = RunConfig()
    for source in (file_values or {}), (overrides or {}):
        for name, value in source.items():
            if value is None:
                continue
            if not hasattr(cfg, name):
                raise ConfigError("unknown config field: %s" % name)
            setattr(cfg, name, value)
    # numpy rejects a negative seed deep inside a run, with no operator
    # trial the verify checks would pass on nothing, and a thread count
    # below one would be written into the run record
    for name, least in (("seed", 0), ("trials", 1), ("threads", 1)):
        if not getattr(cfg, name) >= least:
            raise ConfigError("%s must be at least %d, got %r"
                              % (name, least, getattr(cfg, name)))
    return cfg


def require(cfg, *keys):
    """Raise ConfigError naming the first unset required key."""
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError("missing config key: %s" % _ALIASES.get(key, key))


def problem_params(cfg):
    require(cfg, "p", "s", "q", "r", "lam")
    return validate_params({"p": cfg.p, "s": cfg.s, "q": cfg.q, "r": cfg.r,
                            "lambda": cfg.lam})


def config_hash(cfg):
    """Hex digest of the resolved configuration (order-independent).

    Skips fields that cannot change the computed numbers (output
    directory, worker count), so runs that differ only there share a
    hash and their artifacts stay byte-comparable.
    """
    parts = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        if f.name in ("out", "threads"):
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = "%.17g" % value
        parts.append("%s=%s" % (f.name, value))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
