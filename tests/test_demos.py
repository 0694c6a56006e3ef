import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def test_all_five_demos_are_checked():
    assert DEMOS == ["energy_landscape.py", "kernel_profile.py",
                     "principal_eigenvalue.py", "threshold_search.py",
                     "two_solutions.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_with_default_arguments(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         os.path.join(ROOT, "demos", name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
