"""Operator constructors and structure classes on truncated blocks.

Diagonal symbol multipliers, Toeplitz multiplication operators built from
Fourier coefficients, ordered compositions with declared-order bookkeeping,
the parity class that preserves odd sequences (Dirichlet conditions on the
torus), Hermitian entry scans, and 2x2 block generators whose flow preserves
the canonical symplectic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import core
from .core import IndexBlock, OpMatrix, SobolevVec


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True)
class SymbolSpec:
    """Symbol evaluator with a declared order (metadata only; certified order
    always comes from the refinement scan)."""

    evaluator: object          # callable on d floats -> complex
    declared_order: float
    name: str = ""

    def __call__(self, *x) -> complex:
        return self.evaluator(*x)


def _sech(y: float) -> float:
    # avoid overflow of cosh for large arguments
    return 2.0 * math.exp(-abs(y)) / (1.0 + math.exp(-2.0 * abs(y)))


def dispersion_symbol(mu: float = 1.0) -> SymbolSpec:
    """Square root of |k| tanh(sqrt(mu) |k|) / sqrt(mu); order 1/2."""
    rmu = math.sqrt(mu)

    def omega(*x):
        k = sum(abs(c) for c in x)
        return math.sqrt(k * math.tanh(rmu * k) / rmu)
    return SymbolSpec(omega, 0.5, f"omega(mu={mu})")


def dispersion_squared_symbol(mu: float = 1.0) -> SymbolSpec:
    rmu = math.sqrt(mu)

    def omega2(*x):
        k = sum(abs(c) for c in x)
        return k * math.tanh(rmu * k) / rmu
    return SymbolSpec(omega2, 1.0, f"omega2(mu={mu})")


def sech_smoothing_symbol(mu: float = 1.0) -> SymbolSpec:
    """Exponentially decaying depth factor sech(sqrt(mu) |k|); order 0."""
    rmu = math.sqrt(mu)
    return SymbolSpec(lambda *x: _sech(rmu * sum(abs(c) for c in x)), 0.0,
                      f"sech_gain(mu={mu})")


def symbol_table(mu: float = 1.0, power: float = 1.0) -> dict:
    """Built-in symbols addressable from experiment configs, by name."""
    return {
        "one": SymbolSpec(lambda *x: 1.0, 0.0, "one"),
        "laplacian": SymbolSpec(lambda *x: sum(c * c for c in x), 2.0, "laplacian"),
        "first_derivative": SymbolSpec(lambda *x: 1j * x[0], 1.0, "first_derivative"),
        "bracket_power": SymbolSpec(
            lambda *x: (1.0 + sum(c * c for c in x)) ** (power / 2.0),
            power, f"bracket^{power}"),
        "ww_omega": dispersion_symbol(mu),
        "ww_omega2": dispersion_squared_symbol(mu),
        "ww_gain": sech_smoothing_symbol(mu),
    }


def symbol_catalog(name: str, mu: float = 1.0, power: float = 1.0) -> SymbolSpec:
    """Built-in symbol by name."""
    table = symbol_table(mu, power)
    if name not in table:
        raise KeyError(f"unknown symbol {name!r}; known: {sorted(table)}")
    return table[name]


def cos_coeff(*k) -> float:
    """Coefficients of cos(x_1): 1/2 at k_1 = +-1 (other axes zero)."""
    return 0.5 if abs(k[0]) == 1 and all(c == 0 for c in k[1:]) else 0.0


def sin_coeff(*k) -> complex:
    """Coefficients of sin(x_1)."""
    if abs(k[0]) == 1 and all(c == 0 for c in k[1:]):
        return -0.5j if k[0] == 1 else 0.5j
    return 0.0


def two_cos_coeff(*k) -> float:
    """Coefficients of 2 cos(x_1)."""
    return 2.0 * cos_coeff(*k)


def exp_decay_coeff(*k) -> float:
    """Real even coefficients e^{-|k|} (smooth potential with full spectrum)."""
    return math.exp(-sum(abs(c) for c in k))


def rough_even_coeff(seed: int = 7, bound: float = 1.0, cutoff: int = 32):
    """Bounded random real even coefficients with no decay up to the cutoff,
    zero beyond: a rough truncated profile."""
    rng = np.random.default_rng(seed)
    cache: dict = {}

    def coeff(*k):
        key = tuple(abs(int(c)) for c in k)
        if max(key) > cutoff:
            return 0.0
        if key not in cache:
            cache[key] = float(rng.uniform(-bound, bound))
        return cache[key]
    return coeff


def potential_table(seed: int = 7) -> dict:
    """Fourier-coefficient rules for the built-in potentials, by name."""
    return {
        "cos": cos_coeff,
        "sin": sin_coeff,
        "two_cos": two_cos_coeff,
        "exp_decay": exp_decay_coeff,
        "rough_even": rough_even_coeff(seed),
    }


def potential_catalog(name: str, seed: int = 7):
    """Built-in potential's coefficient rule by name."""
    table = potential_table(seed)
    if name not in table:
        raise KeyError(f"unknown potential {name!r}; known: {sorted(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# constructors


def fourier_multiplier(phi, block: IndexBlock) -> OpMatrix:
    """Diagonal matrix phi(m) over the active indices."""
    ev = phi.evaluator if isinstance(phi, SymbolSpec) else phi
    vals = np.array([ev(*row) for row in block.indices().astype(float)],
                    dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("symbol returned a non-finite value on the block")
    return core.diagonal_matrix(block, vals)


def toeplitz_potential(coeff_fn, block: IndexBlock) -> OpMatrix:
    """Toeplitz matrix of Fourier coefficients: entry(m, n) = coeff(m - n).

    coeff_fn is called once per distinct difference m - n, in the order in
    which the differences first appear in row-major order over (m, n), and
    its values are gathered into the matrix.
    """
    if block.mode != core.TRUNCATED:
        raise ValueError("toeplitz_potential builds the truncated-side matrix; "
                         "use spectral.mult_matrix_fourier on periodic blocks")
    idx = block.indices()
    diff = idx[:, None, :] - idx[None, :, :]
    first, inverse = core._distinct_rows(diff)
    ent = core._per_distinct(coeff_fn, diff.reshape(-1, block.d)[first], inverse)
    return OpMatrix(block, ent.reshape(block.n, block.n))


def compose(factors, declared_orders=None) -> tuple[OpMatrix, float]:
    """Ordered product of matrices with the predicted order as the sum of the
    declared factor orders."""
    factors = list(factors)
    if not factors:
        raise ValueError("factor list must be nonempty")
    out = factors[0]
    for f in factors[1:]:
        out = core.matmul(out, f)
    order = float(sum(declared_orders)) if declared_orders is not None else math.nan
    return out, order


# ---------------------------------------------------------------------------
# structure checks


def hermitian_check(A: OpMatrix, tol: float = 1e-12) -> bool:
    return core.is_hermitian(A, tol)


def dirichlet_check(A: OpMatrix, tol: float = 1e-12) -> bool:
    """True when entry(-m, -n) = entry(m, n) for every active pair."""
    block = A.block
    neg = -block.indices()
    pos, valid = core._positions(block, neg)
    if not valid.all():
        raise AssertionError("symmetric blocks always contain -m")
    mirrored = A.entries[np.ix_(pos, pos)]
    scale = max(1.0, float(np.max(np.abs(A.entries))))
    return bool(np.max(np.abs(mirrored - A.entries)) <= tol * scale)


def project_odd(x: SobolevVec) -> SobolevVec:
    """Projection onto odd sequences x_{-k} = -x_k."""
    pos, _ = core._positions(x.block, -x.block.indices())
    return SobolevVec(x.block, 0.5 * (x.coeffs - x.coeffs[pos]))


def is_odd(x: SobolevVec, tol: float = 1e-12) -> bool:
    pos, _ = core._positions(x.block, -x.block.indices())
    scale = max(1.0, float(np.max(np.abs(x.coeffs))))
    return bool(np.max(np.abs(x.coeffs + x.coeffs[pos])) <= tol * scale)


def symbol_difference_growth(phi, alpha: int, radius: int) -> float:
    """Max of |finite difference of order alpha of phi| (1+|x|)^(alpha - r)
    over integer points, a direct probe of the symbol-derivative bounds."""
    ev = phi.evaluator if isinstance(phi, SymbolSpec) else phi
    r = phi.declared_order if isinstance(phi, SymbolSpec) else 0.0
    worst = 0.0
    for m in range(-radius, radius + 1):
        val = sum((-1) ** (alpha - j) * math.comb(alpha, j) * ev(float(m + j))
                  for j in range(alpha + 1))
        worst = max(worst, abs(val) * (1.0 + abs(m)) ** (alpha - r))
    return worst


# ---------------------------------------------------------------------------
# symplectic block systems


@dataclass(frozen=True, eq=False)
class SymplecticBlock:
    """Generator [[A, B], [C, -A^T]] with symmetric real B and C; its flow
    preserves the canonical form J = [[0, I], [-I, 0]]."""

    A: OpMatrix
    B: OpMatrix
    C: OpMatrix

    def __post_init__(self):
        core._check_same_block(self.A, self.B)
        core._check_same_block(self.A, self.C)
        for M, sym in ((self.A, False), (self.B, True), (self.C, True)):
            if np.max(np.abs(M.entries.imag)) > 1e-12 * max(1.0, np.max(np.abs(M.entries))):
                raise ValueError("blocks must have real entries")
            if sym and np.max(np.abs(M.entries - M.entries.T)) > \
                    1e-12 * max(1.0, np.max(np.abs(M.entries))):
                raise ValueError("off-diagonal blocks must be symmetric")

    @property
    def block(self) -> IndexBlock:
        return self.A.block

    def dense(self) -> np.ndarray:
        a = self.A.entries.real
        return np.block([[a, self.B.entries.real],
                         [self.C.entries.real, -a.T]])


def canonical_form(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def symplectic_defect(propagator: np.ndarray) -> float:
    n = propagator.shape[0] // 2
    J = canonical_form(n)
    return float(np.max(np.abs(propagator.T @ J @ propagator - J)))


def symplectic_flow(S: SymplecticBlock, t: float) -> tuple[np.ndarray, float]:
    """Dense exponential of the assembled block generator and the measured
    canonical-form defect of the resulting propagator."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    prop = scipy.linalg.expm(t * S.dense())
    if not np.all(np.isfinite(prop)):
        raise ArithmeticError("matrix exponential produced non-finite values")
    return prop, symplectic_defect(prop)
