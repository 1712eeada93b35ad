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
    Reference propagators, the Lie and Strang splitting steps, and the
    split-system record that local error tables (with log-log order fits)
    and the derivative-loss scan both measure.
experiments
    Water-wave no-loss splitting, the normal-form preconditioner for the
    potential Schroedinger equation, and Sobolev-norm growth studies.
cli
    Batch driver: config parsing, sweep execution, CSV/JSON artifacts.

Importing pdmat first imports ``_lapack``, which runs OpenBLAS on one thread
in every pdmat process (an OPENBLAS_NUM_THREADS the caller set is kept; the
Sobolev growth pool is the only parallelism) and binds LAPACK ``stevd`` from
numpy's OpenBLAS, so numpy is the one runtime dependency.
"""

__version__ = "0.1.0"

from . import _lapack  # noqa: F401,E402  (first: it sets the thread count before numpy loads)
from . import core, flows, operators, periodic, spectral  # noqa: F401,E402
