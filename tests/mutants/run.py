"""Run the named mutants of mutants.py against the tests that must kill them.

    python tests/mutants/run.py

Every mutant is applied to a fresh copy of src/fpmap/ in a temporary
directory, and its test ids run with pytest from the repository root against
that copy. A mutant is killed when every one of its ids fails. The run exits 1
and names each mutant that survives, whose text does not occur exactly once in
its module, or whose ids pytest cannot run; it exits 0 when every mutant is
killed. Needs only pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[2]


def failed_ids(output: str) -> set[str]:
    """The node ids pytest's -rfE summary reports as failed or in error."""
    return {line.split(" ", 1)[1].split(" - ", 1)[0] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def check(mutant, work: Path) -> str | None:
    """None when ``mutant`` is killed, otherwise why it is not."""
    if not mutant.tests:
        return "no test ids"
    pkg = work / "fpmap"
    shutil.rmtree(pkg, ignore_errors=True)
    shutil.copytree(ROOT / "src" / "fpmap", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    path = pkg / mutant.module
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"its text occurs {text.count(mutant.old)} times in {mutant.module}"
    path.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(work), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    # 1: a test failed; any other code: pytest could not run the ids, as when
    # an id is not found or the mutant breaks an import
    if proc.returncode not in (0, 1):
        return f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
    failed = failed_ids(proc.stdout)
    passed = [t for t in mutant.tests if t not in failed]
    return f"survived {', '.join(passed)}" if passed else None


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory(prefix="fpmap-mutants-") as tmp:
        for mutant in MUTANTS:
            t0 = time.perf_counter()
            why = check(mutant, Path(tmp))
            print(f"{'killed' if why is None else 'FAILED'} {mutant.name} "
                  f"({time.perf_counter() - t0:.1f}s){'' if why is None else ': ' + why}",
                  flush=True)
            if why is not None:
                bad.append(mutant.name)
    if bad:
        print(f"{len(bad)} mutant(s) not killed: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
