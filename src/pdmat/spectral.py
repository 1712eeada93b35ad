"""Discrete Fourier transform, finite differences, and aliased multiplication.

Everything is stored in centered order: position p along an axis holds index
a = p - K/2 with a in {-K/2..K/2-1}, matching the periodic matrix blocks.
The transform pair is

    (F u)_a = K^{-d} sum_b exp(-2 pi i a.b / K) u_b,
    (F^{-1} v)_a =      sum_b exp(+2 pi i a.b / K) v_b,

so K^{d/2} F is unitary.  :func:`dft` applies F by FFT; :func:`dft_matrix`
and :func:`idft_matrix` are the dense matrices of the pair.  A spectral
multiplier phi(a) on a periodic block is ``operators.fourier_multiplier``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import core
from .core import IndexBlock, OpMatrix, PERIODIC, periodic_block, representative

# alias sums of mult_matrix_from_coeffs stop after the first shell whose
# largest term is below ALIAS_TAIL_TOL, and after ALIAS_MAX_SHELLS at most
ALIAS_TAIL_TOL = 1e-18
ALIAS_MAX_SHELLS = 64


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex values over Z_K^d, flat in canonical centered order."""

    block: IndexBlock
    values: np.ndarray
    space: str = "grid"      # 'grid' (samples u_a) or 'freq' (coefficients)

    def __post_init__(self):
        if self.block.mode != PERIODIC:
            raise ValueError("grid functions live on periodic blocks")
        v = np.ascontiguousarray(self.values, dtype=complex).reshape(self.block.n)
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def period(self) -> int:
        return self.block.size

    def cube(self) -> np.ndarray:
        k, d = self.block.size, self.block.d
        return self.values.reshape((k,) * d)

    def to_residues(self) -> np.ndarray:
        return np.fft.ifftshift(self.cube())

    def norm(self, s: float = 0.0) -> float:
        return core.SobolevVec(self.block, self.values).norm(s)


def sample(period: int, fn, d: int = 1) -> GridFunction:
    """Sample a 2pi-periodic function at the grid points x_a = 2 pi a / K."""
    block = periodic_block(d, period)
    h = 2 * np.pi / period
    xs = block.indices() * h
    vals = np.array([fn(*x) for x in xs], dtype=complex)
    return GridFunction(block, vals, "grid")


def dft(u: GridFunction) -> GridFunction:
    k = u.period
    cube = np.fft.fftshift(np.fft.fftn(u.to_residues())) / k ** u.block.d
    return GridFunction(u.block, cube.reshape(-1), "freq")


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


def mult_matrix_from_samples(v_samples: GridFunction) -> OpMatrix:
    """Fourier-side matrix of pointwise multiplication: entries are the
    discrete Fourier coefficients of the samples at the wrapped difference."""
    block = v_samples.block
    vhat = dft(v_samples).values
    idx = block.indices()
    diff = representative(block.size, idx[:, None, :] - idx[None, :, :])
    pos, _ = core._positions(block, diff.reshape(-1, block.d))
    ent = vhat[pos].reshape(block.n, block.n)
    return OpMatrix(block, ent)


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
