"""Constructors, parity and Hermitian classes, symplectic block flows."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from pdmat import core, operators, spectral
from pdmat.core import truncated_block

SEED = 1789


# ---------------------------------------------------------------------------
# oracles: the parity class, symbol differences, symplectic block flows


def sin_coeff(*k) -> complex:
    """Coefficients of sin(x_1): a real potential outside the parity class."""
    if abs(k[0]) == 1 and all(c == 0 for c in k[1:]):
        return -0.5j if k[0] == 1 else 0.5j
    return 0.0


def scaled_identity(block, c=1.0):
    """c times the identity matrix over the block."""
    return core.OpMatrix(block, c * np.eye(block.n))


def dirichlet_check(A, tol=1e-12):
    """True when entry(-m, -n) = entry(m, n) for every active pair."""
    pos, _ = core._positions(A.block, -A.block.indices())
    mirrored = A.entries[np.ix_(pos, pos)]
    scale = max(1.0, float(np.max(np.abs(A.entries))))
    return bool(np.max(np.abs(mirrored - A.entries)) <= tol * scale)


def project_odd(block, x):
    """Projection onto odd sequences x_{-k} = -x_k."""
    pos, _ = core._positions(block, -block.indices())
    return 0.5 * (x - x[pos])


def is_odd(block, x, tol=1e-12):
    pos, _ = core._positions(block, -block.indices())
    scale = max(1.0, float(np.max(np.abs(x))))
    return bool(np.max(np.abs(x + x[pos])) <= tol * scale)


def symbol_difference_growth(symbol, order, alpha, radius):
    """Max of |finite difference of order alpha of the symbol|
    (1+|x|)^(alpha - order) over integer points."""
    worst = 0.0
    for m in range(-radius, radius + 1):
        val = sum((-1) ** (alpha - j) * math.comb(alpha, j) * symbol(float(m + j))
                  for j in range(alpha + 1))
        worst = max(worst, abs(val) * (1.0 + abs(m)) ** (alpha - order))
    return worst


def symplectic_generator(A, B, C):
    """Dense generator [[A, B], [C, -A^T]] of real blocks with B and C
    symmetric, whose flow preserves the canonical form."""
    for M, sym in ((A, False), (B, True), (C, True)):
        scale = max(1.0, np.max(np.abs(M.entries)))
        if np.max(np.abs(M.entries.imag)) > 1e-12 * scale:
            raise ValueError("blocks must have real entries")
        if sym and np.max(np.abs(M.entries - M.entries.T)) > 1e-12 * scale:
            raise ValueError("off-diagonal blocks must be symmetric")
    a = A.entries.real
    return np.block([[a, B.entries.real], [C.entries.real, -a.T]])


def symplectic_flow(S, t):
    """Dense exponential of a block generator and its measured
    canonical-form defect."""
    prop = scipy.linalg.expm(t * S)
    return prop, operators.symplectic_defect(prop)


# ---------------------------------------------------------------------------
# multipliers and potentials


def test_fourier_multiplier_basics():
    block = truncated_block(1, 8)
    I = operators.fourier_multiplier(lambda x: 1.0, block)
    assert np.max(np.abs(I.entries - np.eye(block.n))) == 0.0
    Q = operators.fourier_multiplier(operators.symbol_catalog("laplacian"), block)
    p, _ = core._positions(block, [[3]])
    assert Q.entries[p[0], p[0]] == 9.0
    assert core.is_diagonal(Q)


def test_fourier_multiplier_rejects_nonfinite():
    block = truncated_block(1, 4)
    with pytest.raises(ValueError):
        operators.fourier_multiplier(lambda x: math.nan, block)


def test_half_order_symbol_certifies_on_quarter_grid():
    symbol = operators.symbol_catalog("bracket_power")
    fam = [operators.fourier_multiplier(symbol, truncated_block(1, M))
           for M in (16, 32, 64)]
    assert core.estimate_order(fam).r_hat == 0.5


def test_toeplitz_potential_constant_and_cos():
    block = truncated_block(1, 6)
    C = operators.toeplitz_potential(lambda k: 3.0 if k == 0 else 0.0, block)
    assert np.max(np.abs(C.entries - 3.0 * np.eye(block.n))) == 0.0
    B = operators.toeplitz_potential(operators.cos_coeff, block)
    idx = block.indices()[:, 0]
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            assert B.entries[i, j] == (0.5 if abs(m - n) == 1 else 0.0)


def entrywise_toeplitz(coeff, block):
    """coeff(m - n) evaluated entry by entry, in row-major order."""
    idx = block.indices()
    return np.array([[coeff(*(m - n)) for n in idx] for m in idx], dtype=complex)


@pytest.mark.parametrize("d,M", [(1, 12), (2, 4)])
def test_toeplitz_potential_matches_entrywise(d, M):
    block = truncated_block(d, M)
    for make in (lambda: operators.exp_decay_coeff, lambda: sin_coeff,
                 lambda: operators.rough_even_coeff(SEED, cutoff=5)):
        # a fresh rule on each side; a rule's values depend on k alone
        B = operators.toeplitz_potential(make(), block)
        assert np.array_equal(B.entries, entrywise_toeplitz(make(), block))


def test_rough_even_coeff_is_a_function_of_k():
    for d in (1, 2):
        keys = list(itertools.product(range(-2, 9), repeat=d))
        forward, backward = (operators.rough_even_coeff(SEED, cutoff=6) for _ in "fb")
        values = [forward(*k) for k in keys]
        assert [backward(*k) for k in reversed(keys)][::-1] == values
        # one value per |k| up to the cutoff, and zero beyond it
        assert len(set(values)) == 7 ** d + 1
        assert [forward(*(-c for c in k)) for k in keys] == values


def test_toeplitz_potential_calls_rule_once_per_difference():
    calls = []

    def rule(*k):
        calls.append(k)
        return 1.0
    block = truncated_block(2, 3)
    operators.toeplitz_potential(rule, block)
    assert len(calls) == len(set(calls)) == (4 * 3 + 1) ** 2


def entrywise_alias_sum(coeff, period, d, tail_tol=1e-18):
    """Alias sum over coeff(diff + l K), shell by shell, entry by entry."""
    idx = core.periodic_block(d, period).indices()
    n = len(idx)
    diff = [[core.representative(period, m - k) for k in idx] for m in idx]
    ent = np.zeros((n, n), dtype=complex)
    for shell in range(64):
        added = 0.0
        for l in np.ndindex(*(2 * shell + 1,) * d):
            l = np.array(l) - shell
            if np.abs(l).max() != shell:
                continue
            term = np.array([[coeff(*(gap + period * l)) for gap in row]
                             for row in diff], dtype=complex)
            ent += term
            added = max(added, float(np.max(np.abs(term))))
        if shell and added < tail_tol:
            break
    return ent


@pytest.mark.parametrize("d,K,make", [
    (1, 16, lambda: operators.exp_decay_coeff),
    (1, 16, lambda: operators.rough_even_coeff(SEED)),
    (2, 8, lambda: operators.rough_even_coeff(SEED, cutoff=6)),
])
def test_mult_matrix_from_coeffs_matches_entrywise(d, K, make):
    P = spectral.mult_matrix_from_coeffs(make(), K, d)
    assert np.array_equal(P.entries, entrywise_alias_sum(make(), K, d))


def test_toeplitz_decay_constant():
    block = truncated_block(1, 32)
    B = operators.toeplitz_potential(operators.exp_decay_coeff, block)
    k = block.indices()[:, 0]
    dist = np.abs(k[:, None] - k[None, :])
    c4 = float(np.max(np.abs(B.entries) * (1 + dist) ** 4))
    oracle = max(math.exp(-j) * (1 + j) ** 4 for j in range(65))
    assert c4 == pytest.approx(oracle, rel=1e-12)
    assert c4 == pytest.approx(math.exp(-3) * 4 ** 4, rel=1e-12)  # worst at |m-n| = 3


def test_compose_certified_orders_match_declared():
    two_factor, three_factor = [], []
    for M in (16, 32, 64):
        block = truncated_block(1, M)
        A = operators.fourier_multiplier(operators.symbol_catalog("laplacian"), block)
        B = operators.toeplitz_potential(operators.cos_coeff, block)
        D = operators.fourier_multiplier(operators.symbol_catalog("first_derivative"), block)
        two_factor.append(core.matmul(A, B))
        three_factor.append(core.matmul(core.matmul(D, B), D))
    assert core.estimate_order(two_factor).r_hat <= 2.0
    assert core.estimate_order(three_factor).r_hat <= 2.0


# ---------------------------------------------------------------------------
# parity class


def test_dirichlet_identity_and_even_potential():
    block = truncated_block(1, 8)
    assert dirichlet_check(scaled_identity(block))
    assert dirichlet_check(
        operators.toeplitz_potential(operators.cos_coeff, block))
    assert not dirichlet_check(
        operators.toeplitz_potential(sin_coeff, block))


def test_parity_class_preserves_odd_sequences():
    block = truncated_block(1, 12)
    rng = np.random.default_rng(SEED)
    A = operators.toeplitz_potential(operators.cos_coeff, block) + \
        operators.fourier_multiplier(lambda x: x * x, block)
    assert dirichlet_check(A)
    for _ in range(5):
        x = rng.standard_normal(block.n) + 1j * rng.standard_normal(block.n)
        xo = project_odd(block, x)
        assert is_odd(block, xo)
        assert is_odd(block, A.entries @ xo)


def test_parity_class_stable_under_product_and_bracket():
    block = truncated_block(1, 10)
    A = operators.fourier_multiplier(lambda x: x * x, block)
    B = operators.toeplitz_potential(operators.cos_coeff, block)
    assert dirichlet_check(core.matmul(A, B))
    assert dirichlet_check(core.commutator(A, B))


# ---------------------------------------------------------------------------
# Hermitian class


def test_hermitian_examples():
    block = truncated_block(1, 10)
    assert core.is_hermitian(
        operators.fourier_multiplier(lambda x: x * x, block))
    assert core.is_hermitian(
        operators.toeplitz_potential(operators.cos_coeff, block))
    imag_cos = lambda k: 1j * operators.cos_coeff(k)
    assert not core.is_hermitian(
        operators.toeplitz_potential(imag_cos, block))


def test_hermitian_closure_under_scaled_bracket():
    block = truncated_block(1, 10)
    A = operators.fourier_multiplier(lambda x: x * x, block)
    B = operators.toeplitz_potential(operators.exp_decay_coeff, block)
    assert core.is_hermitian(core.OpMatrix(A.block, 1j * core.commutator(A, B).entries))


def test_diagonal_toeplitz_commutator_entry_formula():
    # closed-form oracle used against the generic commutator
    block = truncated_block(1, 16)
    phi = lambda x: x ** 2 - x
    A = operators.fourier_multiplier(phi, block)
    B = operators.toeplitz_potential(operators.exp_decay_coeff, block)
    C = core.commutator(A, B)
    idx = block.indices()[:, 0]
    oracle = np.array([[(phi(m) - phi(n)) * operators.exp_decay_coeff(m - n)
                        for n in idx] for m in idx])
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(C.entries - oracle)) < 1e-12 * scale


def test_symbol_difference_growth_probe():
    # finite differences of the order-1/2 symbol stay bounded in the
    # derivative-normalized scale
    symbol = operators.symbol_catalog("bracket_power")
    for alpha in (1, 2):
        assert symbol_difference_growth(symbol, 0.5, alpha, 64) < 4.0


# ---------------------------------------------------------------------------
# symplectic block systems


def test_symplectic_block_validation():
    block = truncated_block(1, 4)
    sym = operators.toeplitz_potential(operators.cos_coeff, block)
    skew = core.OpMatrix(block, np.triu(np.ones((block.n, block.n))) -
                         np.tril(np.ones((block.n, block.n))))
    with pytest.raises(ValueError):
        symplectic_generator(scaled_identity(block, 0.0), skew, sym)


def test_symplectic_flow_identity_at_zero():
    block = truncated_block(1, 6)
    S = symplectic_generator(scaled_identity(block, 0.0), scaled_identity(block),
                             scaled_identity(block, -1.0))
    prop, defect = symplectic_flow(S, 0.0)
    assert np.max(np.abs(prop - np.eye(2 * block.n))) == 0.0
    assert defect == 0.0


def test_symplectic_flow_harmonic_rotation():
    block = truncated_block(1, 6)
    S = symplectic_generator(scaled_identity(block, 0.0), scaled_identity(block),
                             scaled_identity(block, -1.0))
    t = 0.7
    prop, defect = symplectic_flow(S, t)
    n = block.n
    np.testing.assert_allclose(prop[:n, :n], np.cos(t) * np.eye(n), atol=1e-12)
    np.testing.assert_allclose(prop[:n, n:], np.sin(t) * np.eye(n), atol=1e-12)
    assert defect <= 1e-10


def test_symplectic_flow_wave_system():
    # generator [[0, Lap + V], [I, 0]] stays canonical over t in [0, 1]
    M = 32
    block = truncated_block(1, M)
    lap = operators.fourier_multiplier(lambda x: -x * x, block)
    V = operators.toeplitz_potential(operators.cos_coeff, block)
    S = symplectic_generator(scaled_identity(block, 0.0), lap + V, scaled_identity(block))
    for t in (0.25, 0.5, 1.0):
        _, defect = symplectic_flow(S, t)
        assert defect <= 1e-8


@pytest.mark.parametrize("n", [4, 64, 128])
def test_symplectic_defect_equals_the_dense_formula(n):
    # P^T J by a signed block swap gives the floats of the dense P.T @ J @ P
    rng = np.random.default_rng(SEED + n)
    P = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    J = operators.canonical_form(n)
    assert operators.symplectic_defect(P) == float(np.max(np.abs(P.T @ J @ P - J)))


def test_catalog_lookup_errors():
    with pytest.raises(KeyError):
        operators.symbol_catalog("no_such_symbol")
