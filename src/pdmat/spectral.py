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
"""

from __future__ import annotations

import itertools

import numpy as np

from . import core
from .core import IndexBlock, OpMatrix, periodic_block, representative

# alias sums of mult_matrix_from_coeffs stop after the first shell whose
# largest term is below ALIAS_TAIL_TOL, and after ALIAS_MAX_SHELLS at most
ALIAS_TAIL_TOL = 1e-18
ALIAS_MAX_SHELLS = 64


def sample(period: int, fn, d: int = 1) -> np.ndarray:
    """Values of a 2pi-periodic function at the grid points x_a = 2 pi a / K,
    flat in centered order."""
    xs = periodic_block(d, period).indices() * (2 * np.pi / period)
    return np.array([fn(*x) for x in xs], dtype=complex)


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
    """Grid-side circulant of the forward/backward difference with 1/h scale."""
    block = periodic_block(d, period)
    if not 1 <= j <= d:
        raise ValueError(f"axis j must be in 1..{d}")
    h = 2 * np.pi / period
    idx = block.indices().copy()
    idx[:, j - 1] += sign
    pos, _ = core._positions(block, idx)
    n = block.n
    ent = np.zeros((n, n), dtype=complex)
    if sign == 1:        # (u_{a+e_j} - u_a) / h
        ent[np.arange(n), pos] += 1.0 / h
        ent[np.arange(n), np.arange(n)] -= 1.0 / h
    elif sign == -1:     # (u_a - u_{a-e_j}) / h
        ent[np.arange(n), np.arange(n)] += 1.0 / h
        ent[np.arange(n), pos] -= 1.0 / h
    else:
        raise ValueError("sign must be +1 or -1")
    return OpMatrix(block, ent)


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
    block = periodic_block(d, period)
    vhat = dft(v, period, d)
    idx = block.indices()
    diff = representative(period, idx[:, None, :] - idx[None, :, :])
    pos, _ = core._positions(block, diff.reshape(-1, d))
    return OpMatrix(block, vhat[pos].reshape(block.n, block.n))


def mult_matrix_from_coeffs(coeff_fn, period: int, d: int = 1) -> OpMatrix:
    """Fourier-side multiplication matrix from exact coefficients, folded as
    the alias sum over coeff(diff + l K); shells are added until negligible
    (ALIAS_TAIL_TOL, ALIAS_MAX_SHELLS).

    For each alias offset l (shell by shell, offsets in lexicographic order)
    coeff_fn is called once per distinct diff + l K, in the order in which
    those first appear in row-major order over the entries, and its values
    are gathered.  Adding l K maps distinct differences to distinct values in
    the same order of first appearance, so the differences are grouped once
    and every offset reuses the grouping.
    """
    block = periodic_block(d, period)
    # allocated before the grouping's temporaries, so that freeing them
    # leaves no hole in the heap below the result
    ent = np.zeros((block.n, block.n), dtype=complex)
    idx = block.indices()
    diff = representative(period, idx[:, None, :] - idx[None, :, :])
    first, inverse = core._distinct_rows(diff)
    rows = diff.reshape(-1, d)[first]
    for shell in range(ALIAS_MAX_SHELLS):
        added = 0.0
        for l in itertools.product(range(-shell, shell + 1), repeat=d):
            if max(abs(c) for c in l) != shell:
                continue
            term = core._per_distinct(
                coeff_fn, rows + period * np.asarray(l, dtype=np.int64),
                inverse).reshape(block.n, block.n)
            ent += term
            added = max(added, float(np.max(np.abs(term))))
        if shell and added < ALIAS_TAIL_TOL:
            break
    return OpMatrix(block, ent)
