"""Checks that tie the package to its README and keep its modules tidy."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fracbif

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = Path(__file__).resolve().parents[1] / "bench"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
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
                                "solvers.path_batch", "solvers.polish"}


def _attribute_sites(paths, attr):
    """(file, top-level function) of every use of the attribute attr."""
    sites = set()
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            if any(isinstance(node, ast.Attribute) and node.attr == attr
                   for node in ast.walk(top)):
                sites.add((path.name, getattr(top, "name", None)))
    return sites


def test_solvers_take_the_even_kernel_and_nothing_folds_it():
    # the even kernel is assembled directly; the full n x n one only
    # where a check needs vectors that are not even: verify's kernel and
    # operator checks, the --dump-kernel writer and the demos that print
    # rows of K
    package = sorted(Path(fracbif.__file__).parent.glob("*.py"))
    assert not hasattr(fracbif.KernelMatrix, "fold")
    assert _attribute_sites(package, "fold") == set()
    sites = _attribute_sites(package + sorted(DEMOS.glob("*.py")),
                             "full_from_sigma")
    assert sites == {("verify.py", "run_verification"),
                     ("cli.py", "_dump_kernel"),
                     ("kernel_profile.py", "main"),
                     ("principal_eigenvalue.py", "dense_reference")}


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


def _constants(tree):
    """Upper-case names bound at the top level of a module."""
    names = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                names[target.id] = node.lineno
    return names


def test_module_constants_are_all_read():
    # a constant left behind by a deletion is read nowhere; a name that
    # only a docstring mentions is not read
    package = Path(fracbif.__file__).parent.glob("*.py")
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in package}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = sorted("%s:%d %s" % (name, line, const)
                    for name, tree in trees.items()
                    for const, line in _constants(tree).items()
                    if const not in read)
    assert not unread, "constants read nowhere in the package: %s" % unread


def _private_definitions(tree):
    """Private module-level functions and private methods of a module's
    classes: (name, node) for each def whose name starts with one
    underscore."""
    defs = []
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        defs += [(node.name, node) for node in members
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_")
                 and not node.name.startswith("__")]
    return defs


def _references(node):
    """Names that node loads, and the attributes it reads."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, ast.Name) and isinstance(sub.ctx,
                                                               ast.Load)
                   or isinstance(sub, ast.Attribute))


def test_private_functions_are_all_referenced():
    # a helper left behind by a deletion is referenced nowhere but in its
    # own body; a test's use does not keep it alive
    package = Path(fracbif.__file__).parent.glob("*.py")
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in package}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = sorted("%s:%d %s" % (name, node.lineno, func)
                    for name, tree in trees.items()
                    for func, node in _private_definitions(tree)
                    if used[func] == _references(node)[func])
    assert not unused, "private functions referenced nowhere: %s" % unused
