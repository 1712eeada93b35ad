"""Dense pseudo-differential matrix calculus and splitting experiments.

Modules
-------

core
    Index blocks, dense operator matrices, the diagonal difference calculus,
    weighted order seminorms, h^s weights and rough data (vectors are flat
    arrays), and order certification across refinement families (lists of
    matrices at increasing sizes).
periodic
    Bracket-norm inequalities, the family seminorm of a list of K-periodic
    matrices, embedding into truncated blocks, approximation rates.
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
"""

__version__ = "0.1.0"

from . import core, flows, operators, periodic, spectral  # noqa: F401,E402
