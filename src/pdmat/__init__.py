"""Dense pseudo-differential matrix calculus and splitting experiments.

Modules
-------

core
    Index blocks, dense operator matrices, the diagonal difference calculus,
    weighted order seminorms, h^s weights and rough data (vectors are flat
    arrays), and order certification across refinement families (lists of
    matrices at increasing sizes).
periodic
    Bracket-norm inequalities for K-periodic matrices, embedding into
    truncated blocks, approximation rates.
spectral
    Discrete Fourier transform, finite-difference circulants and their
    diagonal Fourier forms, and multiplication matrices from grid samples or
    alias-summed coefficients.
operators
    Symbol and potential constructors on truncated blocks, and the
    symplectic defect of a propagator.
flows
    Reference propagators, Lie/Strang/composition splitting steps, and the
    split-system record that local error tables (with log-log order fits)
    and the derivative-loss scan both measure.
experiments
    Water-wave no-loss splitting, the normal-form preconditioner for the
    potential Schroedinger equation, and Sobolev-norm growth studies.
cli
    Batch driver: config parsing, sweep execution, CSV/JSON artifacts.

Every pdmat process runs OpenBLAS on one thread, since at these sizes a
second thread only spins; the Sobolev growth pool is the only parallelism.
An OPENBLAS_NUM_THREADS the caller set is kept.
"""

import ctypes
import os

__version__ = "0.1.0"

# before any submodule imports numpy, so every OpenBLAS loaded from here on
# starts with this count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _set_mapped_openblas_threads(count: str) -> None:
    """Give every OpenBLAS already mapped into this process ``count``
    threads, as one loaded later reads from OPENBLAS_NUM_THREADS; this
    reaches numpy's when numpy was imported before pdmat.  Does nothing
    where there is no /proc/self/maps, no OpenBLAS or no positive count."""
    try:
        threads = int(count)
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except (ValueError, OSError):
        return
    if threads < 1:
        return
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                if get() != threads:
                    put(threads)
                break


_set_mapped_openblas_threads(os.environ["OPENBLAS_NUM_THREADS"])

from . import core, flows, operators, periodic, spectral  # noqa: F401,E402
