"""Pieces shared by run.py, its worker and the comparison command.
Standard library only, so run.py starts without numpy."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

# the shipped configs each workload runs, in order
WORKLOADS = {
    "growth": ("sobolev_growth",),
    "waterwave": ("waterwave",),
    "calculus": ("order_gain", "approx_rates", "splitting_orders", "loss_scan",
                 "schroedinger_precond", "invariants_suite"),
}


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tally(rounds_ops) -> tuple[int, int, list]:
    """Count attempted and failed operations over the rounds of one run.

    Each round is a list of operation records ``{"name", "ok", "detail",
    "digest"}``.  An operation fails when its own check failed, or when its
    output digest differs from the first repetition of the same operation.
    """
    first: dict = {}
    attempted = failed = 0
    problems = []
    for i, ops in enumerate(rounds_ops):
        for op in ops:
            attempted += 1
            ok, detail = bool(op["ok"]), op.get("detail", "")
            digest = op.get("digest")
            if digest is not None:
                ref = first.setdefault(op["name"], digest)
                if digest != ref:
                    ok, detail = False, "output differs from the first repetition"
            if not ok:
                failed += 1
                problems.append(f"round {i}: {op['name']}: {detail}")
    return attempted, failed, problems


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "pdmat").rglob("*.py")))


def src_digest(root: Path = ROOT) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "pdmat").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_env(root: Path = ROOT) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "src_digest": src_digest(root),
        "code.src_lines": src_lines(root),
    }
