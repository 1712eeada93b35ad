"""numpy's OpenBLAS through ctypes, the one module that knows its symbol
names (one prefix/suffix pair of SYMBOL_STYLES; ``64_`` means 64-bit
integers).

Importing it sets OPENBLAS_NUM_THREADS to 1 unless the caller set it, before
numpy loads, and gives every OpenBLAS already mapped that count, since at
these sizes a second thread only spins.  The same scan of /proc/self/maps
binds DSTEVD, LAPACKE's ``dstevd`` of the OpenBLAS under numpy's install
(not whichever was mapped first, so importing scipy before pdmat changes
nothing); it is None where numpy's library has no such routine (MKL,
Accelerate) or the scan finds none.  TRIDIAGONAL_ROUTINE names the symbol
and its library, or the numpy fallback, for the golden-digest environment.
"""

import ctypes
import os

# before numpy loads, so every OpenBLAS mapped from here on starts with it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

SYMBOL_STYLES = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))
COL_MAJOR = 102     # LAPACK_COL_MAJOR: V comes back Fortran-ordered, as from scipy's stevd


def _bind_openblas(count: str):
    """Set the thread count ``count`` (when it is a positive integer) of every
    mapped OpenBLAS and return (dstevd of numpy's OpenBLAS or None, its
    library path or None)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    try:
        threads = int(count)
    except ValueError:
        threads = 0
    # numpy's wheel keeps its OpenBLAS in numpy.libs, beside numpy/
    numpy_dir = os.path.dirname(os.path.realpath(np.__file__))
    found = None, None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in SYMBOL_STYLES:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get and put:
                break
        else:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        if threads >= 1 and get() != threads:
            put(threads)
        dstevd = getattr(lib, f"{prefix}LAPACKE_dstevd{suffix}", None)
        if dstevd and path.startswith(numpy_dir):
            integer = ctypes.c_int64 if suffix == "64_" else ctypes.c_int32
            dstevd.argtypes = [ctypes.c_int, ctypes.c_char, integer, ctypes.c_void_p,
                               ctypes.c_void_p, ctypes.c_void_p, integer]
            dstevd.restype = integer
            found = dstevd, path
    return found


DSTEVD, LIBRARY = _bind_openblas(os.environ["OPENBLAS_NUM_THREADS"])
TRIDIAGONAL_ROUTINE = "numpy.linalg.eigh" if DSTEVD is None else \
    f"{DSTEVD.__name__} ({os.path.basename(LIBRARY)})"


def stevd(d: np.ndarray, e: np.ndarray) -> tuple:
    """(w, V, info) of ``DSTEVD`` (job 'V') on copies of the diagonal d and
    subdiagonal e of a real symmetric tridiagonal matrix, since dstevd
    overwrites both: its eigenvalues w, its eigenvectors as the columns of
    the Fortran-ordered V, and LAPACK's ``info``."""
    n = len(d)
    out = np.empty((n + 2, n))     # rows: V^T, then w (from d), then e's copy
    out[n] = d
    out[n + 1, :n - 1] = e
    # one address for all three arrays; cheaper than out.ctypes.data
    z, row = ctypes.addressof(ctypes.c_char.from_buffer(out)), out.strides[0]
    info = DSTEVD(COL_MAJOR, b"V", n, z + n * row, z + (n + 1) * row, z, n)
    return out[n], out[:n].T, info
