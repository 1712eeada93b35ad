"""scripts/mutants.json stays in step with the code and the tests: every
mutant's old text occurs exactly once in its file, its new text differs, and
its test node names a test that exists, so a stale entry fails here and not
only in a full ``python scripts/mutants.py`` run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "scripts" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_applies_once(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]


def test_every_mutant_test_node_is_collected():
    # collection checks the test function and, for a parametrized node, its case
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    nodes = sorted({m["test"] for m in MUTANTS})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *nodes], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    # pytest collects a function once when it is named both bare and with a
    # case, so each node must show in the collected ids itself
    collected = done.stdout.splitlines()
    assert [n for n in nodes if not any(
        c == n or c.startswith(n + "[") for c in collected)] == []
