"""Checks that tie the package to its README and keep its modules tidy."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracbif

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = sorted(p for p in Path(fracbif.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _section(text, title):
    """Body of the '## title' section, fenced code blocks removed."""
    body = text.split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]
    return re.sub(r"```.*?```", "", body, flags=re.S)


def _resolve(name):
    for root in (fracbif, fracbif.verify):
        obj = root
        try:
            for part in name.removeprefix("fracbif.").split("."):
                obj = getattr(obj, part)
        except AttributeError:
            continue
        return True
    return False


def test_readme_python_api_names_exist():
    names = re.findall(r"`([^`]+)`", _section(README.read_text(), "Python API"))
    assert len(names) >= 20
    missing = [name for name in names if not _resolve(name)]
    assert not missing, "README names that fracbif lacks: %s" % missing


def test_bench_wraps_every_layer_but_the_known_gaps():
    # bench/layers.py times a layer by wrapping the function it names and
    # reads 0 for a name the package lacks, so a renamed function would
    # silently zero its layer; install patches the package, hence the
    # subprocess.  The gaps are the harness's stale names.
    code = ("import sys; sys.path[:0] = [%r, %r]\n"
            "import layers\n"
            "trace = layers.LayerTrace()\n"
            "layers.install(trace)\n"
            "print(' '.join(sorted(trace.absent)))"
            % (str(BENCH), str(Path(fracbif.__file__).parents[1])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert set(out.split()) == {"reaction", "solvers.climb",
                                "solvers.path_batch"}


def test_readme_names_every_verify_check():
    bullet = README.read_text().split("\n* `verify`", 1)[1]
    named = re.findall(r"`([^`]+)`", bullet.split("\n\n", 1)[0])
    cfg = fracbif.resolve({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                           "lam": 8.0, "trials": 1})
    _, results = fracbif.run_verification(cfg)
    assert named == [name for name, _, _ in results]


def test_readme_names_every_method_record_key():
    bullet = README.read_text().split("\n* `bifurcation`", 1)[1]
    sentence = bullet.split("`method_record` holds", 1)[1].split(". ", 1)[0]
    named = [name for name in re.findall(r"`([^`]+)`", sentence)
             if name.isidentifier()]
    params = fracbif.validate_params({"p": 3.0, "s": 0.3, "q": 2.5, "r": 1.5,
                                      "lambda": 8.0})
    kern = fracbif.assemble_kernel(fracbif.build_mesh(-1.0, 1.0, 32), params)
    rec = fracbif.estimate_lambda_star(kern, params, (5.0, 9.0),
                                       seed=0).method_record
    assert sorted(named) == sorted(rec)


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join("%s (line %d)" % (n, ln) for ln, n in unused))
