"""Discrete Fourier transform, finite differences, and aliased multiplication.

Everything is stored in centered order: position p along an axis holds index
a = p - K/2 with a in {-K/2..K/2-1}, matching the periodic matrix blocks.
Grid values and their transforms are flat complex arrays in that order, and
every function takes the period K and the dimension d beside them.  The
transform pair is

    (F u)_a = K^{-d} sum_b exp(-2 pi i a.b / K) u_b,
    (F^{-1} v)_a =      sum_b exp(+2 pi i a.b / K) v_b,

so K^{d/2} F is unitary.  :func:`dft` applies F by FFT; :func:`dft_matrix`
and :func:`idft_matrix` are the dense matrices of the pair.  A spectral
multiplier phi(a) on a periodic block is ``operators.fourier_multiplier``.
The finite differences and multiplication operators are translation
invariant: each is one table over the residues, gathered by ``core.toeplitz``.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import core
from .core import IndexBlock, OpMatrix, periodic_block

# alias sums of mult_matrix_from_coeffs stop after the first shell whose
# largest term is below ALIAS_TAIL_TOL, and after ALIAS_MAX_SHELLS at most
ALIAS_TAIL_TOL = 1e-18
ALIAS_MAX_SHELLS = 64


def sample(period: int, fn, d: int = 1) -> np.ndarray:
    """Values of a 2pi-periodic function at the grid points x_a = 2 pi a / K,
    flat in centered order.  ``fn`` takes d arrays, one coordinate of every
    grid point each, and is called once; a constant result is broadcast."""
    block = periodic_block(d, period)
    xs = block.indices().T * (2 * np.pi / period)
    return np.broadcast_to(np.asarray(fn(*xs), dtype=complex), (block.n,)).copy()


def dft(u: np.ndarray, period: int, d: int = 1) -> np.ndarray:
    """F u for grid values u, flat in centered order."""
    residues = np.fft.ifftshift(np.reshape(u, (period,) * d))
    return (np.fft.fftshift(np.fft.fftn(residues)) / period ** d).reshape(-1)


def dft_matrix(block: IndexBlock) -> np.ndarray:
    idx = block.indices()
    phase = idx.astype(float) @ idx.T.astype(float)   # a.b
    return np.exp(-2j * np.pi * phase / block.size) / block.size ** block.d


def idft_matrix(block: IndexBlock) -> np.ndarray:
    idx = block.indices()
    phase = idx.astype(float) @ idx.T.astype(float)
    return np.exp(2j * np.pi * phase / block.size)


# ---------------------------------------------------------------------------
# finite differences


def fd_matrix(j: int, sign: int, period: int, d: int = 1) -> OpMatrix:
    """Grid-side circulant of the forward/backward difference with 1/h scale:
    sign (u_{a+sign e_j} - u_a) / h, a two-entry stencil at m - n = 0 and
    m - n = -sign e_j."""
    block = periodic_block(d, period)
    if not 1 <= j <= d:
        raise ValueError(f"axis j must be in 1..{d}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h = 2 * np.pi / period
    step = np.zeros(d, dtype=np.int64)
    step[j - 1] = -sign
    stencil = np.zeros(block.n, dtype=complex)
    stencil[block.origin()] = -sign / h
    stencil[core._positions(block, step)[0]] = sign / h
    return core.toeplitz(block, stencil)


def fd_symbol(j: int, sign: int, period: int, d: int = 1) -> OpMatrix:
    """Fourier-side diagonal of the finite difference: (e^{i h a_j} - 1)/h
    forward, (1 - e^{-i h a_j})/h backward."""
    block = periodic_block(d, period)
    if not 1 <= j <= d:
        raise ValueError(f"axis j must be in 1..{d}")
    h = 2 * np.pi / period
    aj = block.indices()[:, j - 1].astype(float)
    if sign == 1:
        diag = (np.exp(1j * h * aj) - 1.0) / h
    elif sign == -1:
        diag = (1.0 - np.exp(-1j * h * aj)) / h
    else:
        raise ValueError("sign must be +1 or -1")
    return core.diagonal_matrix(block, diag)


# ---------------------------------------------------------------------------
# multiplication operators


def mult_matrix_from_samples(v: np.ndarray, period: int, d: int = 1) -> OpMatrix:
    """Fourier-side matrix of pointwise multiplication by the grid values v:
    entries are the discrete Fourier coefficients of v at the wrapped
    difference.  Non-finite values leave non-finite entries, which OpMatrix
    rejects."""
    return core.toeplitz(periodic_block(d, period), dft(v, period, d))


def mult_matrix_from_coeffs(coeff_fn, period: int, d: int = 1) -> OpMatrix:
    """Fourier-side multiplication matrix from exact coefficients, folded as
    the alias sum over coeff(a + l K) for each residue a; shells are added
    until negligible (ALIAS_TAIL_TOL, ALIAS_MAX_SHELLS), offsets l in
    lexicographic order within a shell, and the residue table is gathered by
    the wrapped difference."""
    block = periodic_block(d, period)
    residues = block.indices()
    table = np.zeros(block.n, dtype=complex)
    for shell in range(ALIAS_MAX_SHELLS):
        added = 0.0
        for l in itertools.product(range(-shell, shell + 1), repeat=d):
            if max(abs(c) for c in l) != shell:
                continue
            term = np.array([coeff_fn(*a) for a in residues + period * np.asarray(l)],
                            dtype=complex)
            table += term
            added = max(added, float(np.max(np.abs(term))))
        if shell and added < ALIAS_TAIL_TOL:
            break
    return core.toeplitz(block, table)
