"""Operator constructors on truncated blocks.

Built-in symbols, diagonal symbol multipliers, Toeplitz multiplication
operators built from Fourier coefficients, and the defect of a propagator
from preserving the canonical symplectic form.  A symbol is a plain callable
on d floats, and its order is what ``core.estimate_order`` certifies.  A
coefficient rule is pure: its value depends on k alone, so the Toeplitz
matrix evaluates it once per difference and gathers the table with
``core.toeplitz``.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from . import core
from .core import IndexBlock, OpMatrix


# ---------------------------------------------------------------------------
# symbols


def symbol_catalog(name: str):
    """Built-in symbol by name, a callable on d floats, for code and tests (no
    config key selects one): "laplacian" |x|^2, "first_derivative" i x_1,
    and "bracket_power" <x>^(1/2) = (1 + |x|^2)^(1/4), of order 1/2."""
    table = {
        "laplacian": lambda *x: sum(c * c for c in x),
        "first_derivative": lambda *x: 1j * x[0],
        "bracket_power": lambda *x: (1.0 + sum(c * c for c in x)) ** 0.25,
    }
    if name not in table:
        raise KeyError(f"unknown symbol {name!r}; known: {sorted(table)}")
    return table[name]


def cos_coeff(*k) -> float:
    """Coefficients of cos(x_1): 1/2 at k_1 = +-1 (other axes zero)."""
    return 0.5 if abs(k[0]) == 1 and all(c == 0 for c in k[1:]) else 0.0


def two_cos_coeff(*k) -> float:
    """Coefficients of 2 cos(x_1)."""
    return 2.0 * cos_coeff(*k)


def exp_decay_coeff(*k) -> float:
    """Real even coefficients e^{-|k|} (smooth potential with full spectrum)."""
    return math.exp(-sum(abs(c) for c in k))


def rough_even_coeff(seed: int = 7, cutoff: int = 32):
    """Random real even coefficients, uniform in [-1, 1] with no decay up to
    the cutoff and zero beyond: a rough truncated profile.  The first call in
    d dimensions draws the whole table of shape (cutoff + 1,)*d from the seed,
    read by |k|, so a value depends on k alone."""
    table = cache(lambda d: np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(cutoff + 1,) * d))

    def coeff(*k):
        key = tuple(abs(int(c)) for c in k)
        return 0.0 if max(key) > cutoff else float(table(len(key))[key])
    return coeff


# ---------------------------------------------------------------------------
# constructors


def fourier_multiplier(phi, block: IndexBlock) -> OpMatrix:
    """Diagonal matrix phi(m) over the active indices, real when every
    value of phi is real."""
    vals = np.array([phi(*row) for row in block.indices().astype(float)])
    if not np.all(np.isfinite(vals)):
        raise ValueError("symbol returned a non-finite value on the block")
    return core.diagonal_matrix(block, vals)


def toeplitz_potential(coeff_fn, block: IndexBlock) -> OpMatrix:
    """Toeplitz matrix of Fourier coefficients: entry(m, n) = coeff(m - n),
    with coeff_fn called once per difference; real when every coefficient
    is real."""
    if block.mode != core.TRUNCATED:
        raise ValueError("toeplitz_potential builds the truncated-side matrix; "
                         "use spectral.mult_matrix_from_coeffs on periodic blocks")
    diffs = core.difference_block(block).indices()
    return core.toeplitz(block, np.array([coeff_fn(*k) for k in diffs]))


# ---------------------------------------------------------------------------
# symplectic structure


def canonical_form(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def symplectic_defect(propagator: np.ndarray) -> float:
    """max |P^T J P - J|, with P^T J = [-P_lower^T, P_upper^T] formed by a
    signed block swap instead of a dense product (bit for bit the same)."""
    P, n = propagator, propagator.shape[0] // 2
    PtJ = np.concatenate([-P[n:].T, P[:n].T], axis=1)
    return float(np.max(np.abs(PtJ @ P - canonical_form(n))))
