"""Independent reference builders, one per workload.

Each builds from closed forms, entry by entry in plain loops, a quantity the
program also computes, so a check compares two computations that share no
code.  Index order is the canonical one of the program's blocks: the product
of the per-axis ranges, first axis slowest.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg


def agree(program, reference, rtol: float) -> tuple[bool, float]:
    """Entrywise agreement: max |P - R| <= rtol * max(1, max |R|).
    Returns (ok, max |P - R|)."""
    program, reference = np.asarray(program), np.asarray(reference)
    if program.shape != reference.shape:
        return False, math.inf
    err = float(np.max(np.abs(program - reference)))
    return err <= rtol * max(1.0, float(np.max(np.abs(reference)))), err


def periodic_range(period: int) -> range:
    return range(-period // 2, period // 2)


def folded_cos(j: int, period: int, amplitude: float) -> float:
    """Alias-folded coefficient of amplitude * cos(x) at index difference j
    on Z_K, K >= 4: amplitude/2 where j = +-1 mod K."""
    return amplitude / 2 if j % period in (1, period - 1) else 0.0


# ---------------------------------------------------------------------------
# growth: frozen-coefficient trajectory stepped with expm


def growth_hamiltonian(period: int, t: float) -> np.ndarray:
    """k^2 on the diagonal plus cos(t) times the folded 2 cos(x) matrix."""
    ks = periodic_range(period)
    H = np.zeros((period, period), dtype=complex)
    for i, m in enumerate(ks):
        H[i, i] = m * m
        for j, n in enumerate(ks):
            H[i, j] += math.cos(t) * folded_cos(m - n, period, 2.0)
    return H


def growth_final_state(period: int, horizon: float, delta: float,
                       x0: np.ndarray) -> np.ndarray:
    """x <- expm(i delta H(t_mid)) x over round(horizon / delta) steps."""
    x = np.asarray(x0, dtype=complex)
    for j in range(int(round(horizon / delta))):
        x = scipy.linalg.expm(1j * delta * growth_hamiltonian(period, (j + 0.5) * delta)) @ x
    return x


def growth_initial_state(period: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(period) + 1j * rng.standard_normal(period)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# water waves: the 2K x 2K generator on mu = 1, b = cos(x)


def waterwave_generator(period: int, mu: float = 1.0) -> np.ndarray:
    """[[0, diag(omega) + C], [-diag(omega), 0]] with omega the finite-depth
    dispersion, C(m, n) = d(m) bhat(m - n) d(n), d(k) = i k sech(sqrt(mu) k)
    omega(k)^(-1/2) and bhat the folded cos(x) coefficients."""
    rmu = math.sqrt(mu)

    def omega(k):
        return math.sqrt(abs(k) * math.tanh(rmu * abs(k)) / rmu)

    def d(k):
        return 0.0 if k == 0 else 1j * k / math.cosh(rmu * k) / math.sqrt(omega(k))

    ks = periodic_range(period)
    n = period
    G = np.zeros((2 * n, 2 * n), dtype=complex)
    for i, m in enumerate(ks):
        G[i, n + i] = omega(m)
        G[n + i, i] = -omega(m)
        for j, k in enumerate(ks):
            G[i, n + j] += d(m) * folded_cos(m - k, period, 1.0) * d(k)
    return G


# ---------------------------------------------------------------------------
# calculus: [laplacian, cos(x_1)] on a truncated block of Z^2


def truncated_indices(d: int, radius: int) -> list:
    return list(itertools.product(range(-radius, radius + 1), repeat=d))


def laplacian_cos_commutator(d: int, radius: int) -> np.ndarray:
    """(|m|^2 - |n|^2) bhat(m - n), bhat the coefficients of cos(x_1):
    1/2 where m - n = +-e_1."""
    idx = truncated_indices(d, radius)
    C = np.zeros((len(idx), len(idx)), dtype=complex)
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            diff = [a - b for a, b in zip(m, n)]
            if abs(diff[0]) == 1 and not any(diff[1:]):
                C[i, j] = 0.5 * (sum(a * a for a in m) - sum(b * b for b in n))
    return C
