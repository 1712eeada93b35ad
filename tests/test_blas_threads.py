"""Every pdmat process runs OpenBLAS on one thread, whatever the import
order; growth pool children inherit the count; an OPENBLAS_NUM_THREADS the
caller set is kept; LAPACK dstevd comes from numpy's own OpenBLAS.  Each
case runs in a fresh interpreter and reads the count each mapped OpenBLAS
reports; it skips where none is mapped."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

COUNTS = """
import ctypes, json, os

def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in (p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[os.path.basename(path)] = getattr(lib, sym)()
                break
    return out

"""

IMPORT_ORDERS = {
    "pdmat_first": "import pdmat\nimport scipy.linalg\n",
    "numpy_first": "import numpy\nimport pdmat\nimport scipy.linalg\n",
    "scipy_first": "import numpy, scipy.linalg\nimport pdmat\n",
}

POOL = """
import numpy
from pdmat import experiments
experiments._usable_cores = lambda: 2
experiments.growth_trajectory = lambda *job: {"pid": os.getpid(), **counts()}
# two jobs; the pool orders them by K * horizon / delta (items 1, 2 and 4)
children = experiments._trajectories([(None, 1, 1, None, 1)] * 2)
assert os.getpid() not in {child.pop("pid") for child in children}
"""


def run(code: str, threads: str | None = None):
    """The JSON the code prints last, run with pdmat's src on the path and
    OPENBLAS_NUM_THREADS unset or set to ``threads``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, "-c", COUNTS + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def reported(counts: dict) -> set:
    if not counts:
        pytest.skip("no OpenBLAS is mapped")
    return set(counts.values())


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_every_mapped_openblas_runs_one_thread(order):
    counts = run(IMPORT_ORDERS[order] + "print(json.dumps(counts()))")
    assert reported(counts) == {1}, counts


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_an_openblas_num_threads_the_caller_set_is_kept(order):
    counts = run(IMPORT_ORDERS[order] + "print(json.dumps(counts()))", threads="2")
    assert reported(counts) == {2}, counts


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_dstevd_is_bound_from_numpys_own_openblas(order):
    # numpy's wheel keeps its OpenBLAS in numpy.libs, beside numpy/; scipy's
    # is in scipy.libs, and which of the two was mapped first does not matter
    library, numpy_dir = run(IMPORT_ORDERS[order] + "import numpy\nfrom pdmat import _lapack\n"
                             "print(json.dumps([_lapack.LIBRARY, os.path.dirname("
                             "os.path.realpath(numpy.__file__))]))")
    if library is None:
        pytest.skip("numpy's library exports no dstevd")
    assert library.startswith(numpy_dir), library


def test_growth_pool_children_inherit_one_thread():
    children = run(POOL + "print(json.dumps(children))")
    assert len(children) == 2
    for counts in children:
        assert reported(counts) == {1}, counts
