"""Apply each listed mutant to a temporary copy of the project and run only
the test that must kill it.

    python scripts/mutants.py    # every mutant in scripts/mutants.json

A mutant is a JSON object with a ``name``, a ``file`` relative to the
project root, the ``old`` text it replaces (which must occur exactly once in
that file), the ``new`` text, and the pytest node ``test`` that must fail
once it is applied.  Every named test first runs on an unmutated copy and
must pass there, so a kill means the mutant, not a broken test.  One line per
mutant says KILLED, SURVIVED or STALE (its old text is not found exactly
once); a survivor is a gap in the tests to report, not a test to edit.
The copy holds src, tests, configs, scripts and pyproject.toml, and is
removed at the end, also when SIGTERM stops the run, which kills the pytest
run in progress and exits with status 143.  Otherwise the exit status is 1
when any mutant is not killed or a named test fails unmutated, else 0.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "scripts", "pyproject.toml")


def copy_project(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(copy: Path, nodes) -> int:
    """pytest's exit status for the nodes, run in the copy against its src."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check(copy: Path, mutant: dict) -> str:
    """KILLED, SURVIVED or STALE for one mutant, applied to the copy and
    undone afterwards."""
    path = copy / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        return "STALE"
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    try:
        # 1 is a failed test; any other status (a syntax error the mutant
        # makes, a missing node) is not a kill
        return "KILLED" if run_tests(copy, [mutant["test"]]) == 1 else "SURVIVED"
    finally:
        path.write_text(text)


def stop(signum, frame):
    """SIGTERM as SystemExit, so that subprocess.run kills its pytest child
    and the temporary copy is removed on the way out."""
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
    with open(ROOT / "scripts" / "mutants.json") as fh:
        mutants = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="pdmat-mutants-") as tmp:
        copy = Path(tmp)
        copy_project(copy)
        status = run_tests(copy, sorted({m["test"] for m in mutants}))
        if status != 0:
            print(f"named tests fail unmutated (pytest exit {status})")
            return 1
        results = [(m["name"], check(copy, m)) for m in mutants]
    width = max(len(name) for name, _ in results)
    for name, result in results:
        print(f"{name:{width}s}  {result}")
    killed = sum(result == "KILLED" for _, result in results)
    print(f"{killed}/{len(results)} killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
