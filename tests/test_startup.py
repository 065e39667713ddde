"""Start-up guards: what importing fpmap and running its chain load.

The package root re-exports nothing, and `fpmap run` takes every stage from
the chain modules, so the duality tools load only for the commands that use
them. Each check runs in a fresh interpreter, because this test process has
imported every module already.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# a graded cost norm at p=5, dim=5 and seed 0, with the default limits: the
# shape of a cost-p5 benchmark config
COST_P5_RUN = {"prime": 5, "dim": 5, "threads": 1,
               "norm": {"kind": "cost_completion", "prime": 5, "dim": 5,
                        "seed": 0, "graded": True},
               "limits": {"max_tuple": 4, "l": 1, "m": 5}}


def fresh_python(*args, cwd=None):
    """A new interpreter with this checkout's src/ first on its path."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    done = fresh_python("-c", "import sys, fpmap; print(sorted(m for m in sys.modules "
                              "if m.split('.')[0] in ('fpmap', 'numpy')))")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "['fpmap']\n"


def test_a_run_leaves_the_duality_module_unloaded(tmp_path):
    cfg = write_json(tmp_path / "run.json", COST_P5_RUN)
    out = str(tmp_path / "report.json")
    done = fresh_python("-c", "import sys; from fpmap.cli import main; "
                              f"rc = main(['run', '--config', {cfg!r}, '--out', {out!r}]); "
                              "print(rc, 'fpmap.duality' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 False\n"
    assert json.loads(Path(out).read_text())["verdict"] == "pass"


# sha256 of the stdout of each command, captured before the coarser check and
# the Boolean counterexample changed modules
PINNED = {
    "map": (["duality", "--check", "map", "--spec", "seeded.json"],
            "daf21713fc8e5ef1a62ff43744d4e3f11c3af1f0784382e664bba12dd38a2680"),
    "kernel": (["duality", "--check", "kernel", "--spec", "seeded.json"],
               "92ed7cf0396e356908e1a9767d2be52fb4549615afeb1635fbcff83cb3a64e27"),
    "coarser": (["duality", "--check", "coarser", "--spec", "run.json"],
                "f0caa9da7c17dffedf0fcd4a8c6e91f62210dab2d520f05413daccf93b23e96e"),
    "demo-boolean": (["demo-boolean", "--points", "5"],
                     "14b993608b9c7055967069898e8fe2d1ad0203cdab346d8786bf973e012e7fdf"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_duality_commands_keep_their_bytes(tmp_path, name):
    write_json(tmp_path / "seeded.json", {"kind": "seeded", "prime": 3, "dim": 5, "seed": 10})
    write_json(tmp_path / "run.json", COST_P5_RUN)
    argv, digest = PINNED[name]
    done = fresh_python("-m", "fpmap.cli", *argv, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest
