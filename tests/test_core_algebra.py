"""Core matrix calculus: shifts, differences, seminorms, products, orders.

Expected values are either exact by definition or frozen from independent
brute-force oracles implemented inline (entry scans, direct convolution,
closed-form entries).
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from functools import cache, partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmat import core, experiments, operators
from pdmat.core import IndexBlock, OpMatrix, periodic_block, truncated_block

RNG_SEED = 20260808


def scaled_identity(block, c=1.0):
    """c times the identity matrix over the block."""
    return OpMatrix(block, c * np.eye(block.n))


def axis(block):
    return block.indices()[:, 0]


def diag_from(block, fn):
    return core.diagonal_matrix(block, np.array([fn(m) for m in axis(block)], dtype=complex))


def toeplitz_from(block, coeff):
    ii = axis(block)
    ent = np.array([[coeff(m - n) for n in ii] for m in ii], dtype=complex)
    return OpMatrix(block, ent)


def cos_coeff(k):
    return 0.5 if abs(k) == 1 else 0.0


def sin_coeff(k):
    if k == 1:
        return -0.5j
    if k == -1:
        return 0.5j
    return 0.0


def random_periodic(block, rng):
    e = rng.standard_normal((block.n, block.n)) + 1j * rng.standard_normal((block.n, block.n))
    return OpMatrix(block, e)


# ---------------------------------------------------------------------------
# blocks and vectors


def test_block_validation():
    with pytest.raises(ValueError):
        IndexBlock(3, core.TRUNCATED, 4)
    with pytest.raises(ValueError):
        IndexBlock(1, core.PERIODIC, 5)
    with pytest.raises(ValueError):
        IndexBlock(1, core.TRUNCATED, 0)


def test_periodic_wrap_arithmetic():
    assert core.representative(8, 4) == -4
    assert core.representative(8, -5) == 3
    assert core.bracket_norm(8, [7]) == 1
    np.testing.assert_array_equal(core.representative(8, np.array([[4, -5]])), [[-4, 3]])


def position_gather_toeplitz(block, values):
    """Oracle for core.toeplitz: the (n^2, d) differences m - n, located in
    the difference block through its index arithmetic."""
    idx = block.indices()
    pos, _ = core._positions(core.difference_block(block),
                             (idx[:, None, :] - idx[None, :, :]).reshape(-1, block.d))
    return values[pos].reshape(block.n, block.n)


def pairwise_bins(block):
    """Oracle for IndexBlock._pair_bins from the (n, n, d) differences:
    (bin of each pair, size and dist of each bin), with the bins in the
    order of a sort of the (size, dist) keys."""
    idx = block.indices()
    diff = idx[:, None, :] - idx[None, :, :]
    if block.mode == core.PERIODIC:
        diff = core.representative(block.size, diff)
    dist = np.abs(diff).sum(axis=2).ravel()
    l1 = np.abs(idx).sum(axis=1)
    span = dist.max() + 1
    key = (l1[:, None] + l1[None, :]).ravel() * span + dist
    order = np.argsort(key, kind="stable")
    opens = np.diff(key[order], prepend=-1) != 0    # first pair of each bin
    bin_id = np.empty_like(key)
    bin_id[order] = np.cumsum(opens) - 1
    return (bin_id, *np.divmod(key[order][opens], span))


BLOCKS = [truncated_block(1, 1), truncated_block(1, 7), periodic_block(1, 4),
          periodic_block(1, 10), truncated_block(2, 1), truncated_block(2, 4),
          periodic_block(2, 4), periodic_block(2, 6)]


def block_id(block):
    return f"{block.mode}_d{block.d}_{block.size}"


@pytest.mark.parametrize("block", BLOCKS, ids=block_id)
def test_toeplitz_matches_the_position_gather(block):
    n = core.difference_block(block).n
    values = np.array([1, 1j]) @ np.random.default_rng(RNG_SEED).standard_normal((2, n))
    assert np.array_equal(core.toeplitz(block, values).entries,
                          position_gather_toeplitz(block, values))


@pytest.mark.parametrize("block", BLOCKS, ids=block_id)
def test_pair_bins_match_the_pairwise_differences(block):
    for got, want in zip(block._pair_bins, pairwise_bins(block), strict=True):
        assert np.array_equal(got, want)


def test_sobolev_norm_matches_direct_sum():
    block = truncated_block(1, 10)
    rng = np.random.default_rng(RNG_SEED)
    c = rng.standard_normal(block.n) + 1j * rng.standard_normal(block.n)
    s = 1.5
    direct = math.sqrt(sum((1 + abs(int(m))) ** (2 * s) * abs(v) ** 2
                           for m, v in zip(axis(block), c)))
    norm = np.linalg.norm(core.sobolev_weights(block, s) * c)
    assert norm == pytest.approx(direct, rel=1e-14)


def rough_samples_by_row(block, s, n_samples, seed, zero_mean):
    """The per-row loop that rough_samples replaces: one uniform draw of n
    phases per sample, in order."""
    rng = np.random.default_rng(seed)
    amp = (1.0 + block._l1_sizes) ** (-s - 0.51)
    rows = []
    for _ in range(n_samples):
        row = amp * np.exp(2j * np.pi * rng.uniform(size=block.n))
        if zero_mean:
            row[block.origin()] = 0.0
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("block", [truncated_block(1, 8), periodic_block(2, 8)],
                         ids=["truncated_1d", "periodic_2d"])
@pytest.mark.parametrize("zero_mean", [False, True])
def test_rough_samples_rows_match_per_row_draws(block, zero_mean):
    out = core.rough_samples(block, 1.5, 4, RNG_SEED, zero_mean)
    assert isinstance(out, np.ndarray) and out.shape == (4, block.n)
    np.testing.assert_array_equal(
        out, rough_samples_by_row(block, 1.5, 4, RNG_SEED, zero_mean))
    assert (out[:, block.origin()] == 0.0).all() == zero_mean


# ---------------------------------------------------------------------------
# shift (the oracle that the difference oracle and the Leibniz rules use)


def gather_shift(A, j, sign):
    """Both-indices diagonal shift B(m, n) = A(m + sign*e_j, n + sign*e_j),
    each entry gathered from its source position through the index
    arithmetic of the block: periodic mode wraps, and a source outside a
    truncated block reads 0."""
    block = A.block
    idx = block.indices().copy()
    idx[:, j - 1] += sign
    pos, valid = core._positions(block, idx)
    return OpMatrix(block, np.where(np.outer(valid, valid),
                                    A.entries[np.ix_(pos, pos)], 0.0))


def test_shift_identity_unchanged_on_interior():
    A = scaled_identity(truncated_block(1, 6))
    B = gather_shift(A, 1, 1)
    # the source of the last row and column left the block
    assert np.array_equal(B.entries[:-1, :-1], A.entries[:-1, :-1])
    assert not B.entries[-1].any() and not B.entries[:, -1].any()


def test_shift_diagonal_by_definition():
    block = truncated_block(1, 6)
    A = diag_from(block, lambda m: m)
    B = gather_shift(A, 1, 1)
    for m in range(-6, 6):
        p = core._positions(block, [[m]])[0][0]
        assert B.entries[p, p] == m + 1
    assert B.entries[-1, -1] == 0.0


def test_shift_toeplitz_invariant():
    block = truncated_block(1, 8)
    A = toeplitz_from(block, lambda k: 1.0 / (1 + k * k))
    for sign in (1, -1):
        B = gather_shift(A, 1, sign)
        inner = slice(None, -1) if sign > 0 else slice(1, None)
        diff = B.entries[inner, inner] - A.entries[inner, inner]
        assert np.max(np.abs(diff)) < 1e-15


def test_shift_periodic_wraps():
    block = periodic_block(1, 8)
    A = diag_from(block, lambda m: float(m))
    B = gather_shift(A, 1, 1)
    p = core._positions(block, [[3]])[0][0]  # 3 + 1 wraps to -4
    assert B.entries[p, p] == -4.0


# ---------------------------------------------------------------------------
# delta


def test_delta_zero_alpha_is_identity_map():
    block = truncated_block(1, 5)
    A = toeplitz_from(block, cos_coeff)
    D = core.delta(A, (0,))
    np.testing.assert_array_equal(D.entries, A.entries)


def test_delta_toeplitz_vanishes_on_interior():
    block = truncated_block(1, 8)
    B = toeplitz_from(block, cos_coeff)
    for alpha in [(1,), (-1,)]:
        # 0 on the interior by invariance, and 0 off it by construction
        assert not core.delta(B, alpha).entries.any()


def test_delta_squares_forward_difference():
    block = truncated_block(1, 8)
    A = diag_from(block, lambda m: m * m)
    D = core.delta(A, (1,))
    for m in range(-8, 8):
        p = core._positions(block, [[m]])[0][0]
        assert D.entries[p, p] == (m + 1) ** 2 - m * m


def test_delta_rejects_alpha_as_large_as_radius():
    block = truncated_block(1, 2)
    A = scaled_identity(block)
    with pytest.raises(ValueError):
        core.delta(A, (2,))


def test_delta_2d_mixed_axes():
    block = truncated_block(2, 3)
    idx = block.indices()
    A = core.diagonal_matrix(block, (idx[:, 0] ** 2 + idx[:, 1]).astype(complex))
    D = core.delta(A, (1, -1))
    # oracle: apply the two one-axis differences by hand at (m1, m2) = (0, 0)
    f = lambda m1, m2: m1 * m1 + m2
    expected = (f(1, 0) - f(0, 0)) - (f(1, -1) - f(0, -1))
    p = core._positions(block, [[0, 0]])[0][0]
    assert D.entries[p, p] == expected
    with pytest.raises(ValueError, match="2 components"):
        core.delta(A, 1)


def brute_delta(block, entries, alpha):
    """Independent reference for the iterated difference: per active pair,
    evaluate the full stencil directly from the original entries, peeling
    the last axis off first, so the subtractions nest as core.delta nests
    them.  Returns the values, 0 off the interior, and the interior: the
    pairs whose stencil stays inside a truncated block."""
    idx = block.indices()
    lookup = {tuple(v): i for i, v in enumerate(idx)}

    def fetch(m, n):
        if block.mode == core.PERIODIC:
            m = tuple(core.representative(block.size, np.array(m)))
            n = tuple(core.representative(block.size, np.array(n)))
        if m not in lookup or n not in lookup:
            return None
        return entries[lookup[m], lookup[n]]

    def diff(m, n, remaining):
        for j in reversed(range(block.d)):
            a = remaining[j]
            if a != 0:
                step = np.zeros(block.d, dtype=int)
                step[j] = 1 if a > 0 else -1
                rest = list(remaining)
                rest[j] -= step[j]
                hi = diff(tuple(np.array(m) + step), tuple(np.array(n) + step), rest)
                lo = diff(m, n, rest)
                if hi is None or lo is None:
                    return None
                return hi - lo
        return fetch(m, n)

    out = np.zeros((block.n, block.n), dtype=complex)
    interior = np.zeros((block.n, block.n), dtype=bool)
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            val = diff(tuple(m), tuple(n), list(alpha))
            if val is not None:
                out[i, j] = val
                interior[i, j] = True
    return out, interior


@pytest.mark.parametrize("mode,alpha", [
    ("truncated", (1, 0)), ("truncated", (-2, 1)), ("truncated", (0, -1)),
    ("periodic", (1, 0)), ("periodic", (-2, 1)),
])
def test_delta_matches_brute_force_oracle_2d(mode, alpha):
    block = truncated_block(2, 4) if mode == "truncated" else periodic_block(2, 6)
    rng = np.random.default_rng(RNG_SEED)
    A = OpMatrix(block, rng.standard_normal((block.n, block.n))
                 + 1j * rng.standard_normal((block.n, block.n)))
    D = core.delta(A, alpha)
    ref, interior = brute_delta(block, A.entries, alpha)
    assert np.array_equal(D.entries[interior], ref[interior])
    assert not D.entries[~interior].any()


def gather_delta(A, alpha):
    """Oracle for core.delta: gathered differences iterated on the whole
    matrix, then 0 off the interior, the pairs (m, n) with m + alpha and
    n + alpha both inside the block."""
    out = A
    for j, a in enumerate(alpha, start=1):
        for _ in range(abs(a)):
            out = gather_shift(out, j, 1 if a >= 0 else -1) - out
    inside = core._positions(A.block, A.block.indices() + np.array(alpha))[1]
    return OpMatrix(A.block, np.where(np.outer(inside, inside), out.entries, 0.0))


@pytest.mark.parametrize("block,alphas", [
    (truncated_block(1, 5), [(2,), (-1,)]),
    (periodic_block(1, 8), [(2,), (-1,)]),
    (truncated_block(2, 3), [(1, -1), (-1, 0)]),
    (periodic_block(2, 6), [(1, -1), (-1, 0)]),
], ids=["truncated_1d", "periodic_1d", "truncated_2d", "periodic_2d"])
def test_shift_and_delta_match_gather_oracle(block, alphas):
    rng = np.random.default_rng(RNG_SEED + 3)
    n = block.n
    A = OpMatrix(block, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    for alpha in alphas:
        assert np.array_equal(core.delta(A, alpha).entries,
                              gather_delta(A, alpha).entries)


def test_seminorm_matches_brute_force_on_random_matrix():
    block = periodic_block(1, 12)
    rng = np.random.default_rng(RNG_SEED + 5)
    A = OpMatrix(block, rng.standard_normal((block.n, block.n))
                 + 1j * rng.standard_normal((block.n, block.n)))
    D, _ = brute_delta(block, A.entries, (1,))
    idx = axis(block)
    worst = 0.0
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            dist = abs(int(core.representative(block.size, m - n)))
            size = abs(int(m)) + abs(int(n))
            worst = max(worst, abs(D[i, j]) * (1 + dist) ** 3 /
                        (1 + size) ** (0.75 - 1))
    assert core.seminorm(A, (1,), 3, 0.75) == pytest.approx(worst, rel=1e-13)


# ---------------------------------------------------------------------------
# seminorm


def test_seminorm_zero_matrix():
    block = truncated_block(1, 5)
    zero = scaled_identity(block, 0.0)
    assert core.seminorm(zero, (0,), 3, 0.0) == 0.0


def test_seminorm_rejects_a_negative_decay():
    with pytest.raises(ValueError, match="decay"):
        core.seminorm(scaled_identity(truncated_block(1, 4)), (0,), -1, 0.0)


def test_seminorm_identity_attained_at_origin():
    block = truncated_block(1, 16)
    for decay in (0, 2, 8):
        assert core.seminorm(scaled_identity(block), (0,), decay, 0.0) == 1.0


def test_seminorm_square_symbol_brute_force_oracle():
    M = 64
    block = truncated_block(1, M)
    A = diag_from(block, lambda m: m * m)
    # independent scan over the definition
    oracle = max(m * m / (1 + 2 * abs(m)) ** 2 for m in range(-M, M + 1))
    val = core.seminorm(A, (0,), 0, 2.0)
    assert val == pytest.approx(oracle, rel=1e-14)
    assert val == pytest.approx(4096 / 16641, rel=1e-14)
    assert val < 1.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_seminorm_triangle_inequality(seed):
    block = periodic_block(1, 8)
    rng = np.random.default_rng(seed)
    A = random_periodic(block, rng)
    B = random_periodic(block, rng)
    spec = ((1,), 2, 0.5)
    assert core.seminorm(A + B, *spec) <= core.seminorm(A, *spec) + core.seminorm(B, *spec) + 1e-12


# ---------------------------------------------------------------------------
# product / commutator


def test_matmul_identity_and_diagonals():
    block = truncated_block(1, 6)
    A = toeplitz_from(block, cos_coeff)
    assert np.array_equal(core.matmul(A, scaled_identity(block)).entries, A.entries)
    D1 = diag_from(block, lambda m: m)
    D2 = diag_from(block, lambda m: 1.0 / (1 + m * m))
    P = core.matmul(D1, D2)
    np.testing.assert_allclose(np.diag(P.entries),
                               np.array([m / (1 + m * m) for m in axis(block)]))
    assert core.is_diagonal(P, 1e-12)


def test_matmul_block_mismatch():
    with pytest.raises(ValueError):
        core.matmul(scaled_identity(truncated_block(1, 4)),
                    scaled_identity(truncated_block(1, 5)))


def test_toeplitz_product_matches_fft_of_pointwise_product():
    # B_V B_W should equal B_{VW} up to the truncation tail; the oracle for
    # the coefficients of VW = cos*sin is an FFT of the sampled product.
    M = 64
    block = truncated_block(1, M)
    BV = toeplitz_from(block, cos_coeff)
    BW = toeplitz_from(block, sin_coeff)
    P = core.matmul(BV, BW)
    n_grid = 256
    x = 2 * np.pi * np.arange(n_grid) / n_grid
    vw_hat = np.fft.fft(np.cos(x) * np.sin(x)) / n_grid  # coeff of e^{ikx}
    def vw_coeff(k):
        return vw_hat[k % n_grid]
    BVW = toeplitz_from(block, vw_coeff)
    interior = slice(2, block.n - 2)
    err = np.max(np.abs(P.entries[interior, interior] - BVW.entries[interior, interior]))
    assert err < 1e-12


def test_matmul_truncation_tail_quantified_by_doubling():
    # the finite product replaces an infinite sum; comparing the product at
    # radius M with the one at radius 2M on a common inner window shows the
    # interior tail is negligible, while the block corner (always at zero
    # distance from the cut) keeps an O(1) loss however large M is
    from pdmat import periodic as per
    M, window = 16, 8
    def build(radius):
        block = truncated_block(1, radius)
        B1 = toeplitz_from(block, lambda k: math.exp(-abs(k)))
        B2 = toeplitz_from(block, lambda k: math.exp(-1.5 * abs(k)))
        return core.matmul(B1, B2)
    small, big = build(M), build(2 * M)
    inner = np.max(np.abs(per.restrict(small, window).entries -
                          per.restrict(big, window).entries))
    assert 0.0 < inner < 1e-8   # lost terms sit at distance >= M - window
    corner = np.abs(per.restrict(big, M).entries - small.entries)
    missing = sum(math.exp(-2.5 * j) for j in range(1, 60))
    assert corner.max() == pytest.approx(missing, rel=1e-10)


def test_commutator_trivial_cases():
    block = truncated_block(1, 8)
    A = toeplitz_from(block, cos_coeff)
    assert np.max(np.abs(core.commutator(A, A).entries)) == 0.0
    D1 = diag_from(block, lambda m: m)
    D2 = diag_from(block, lambda m: m * m)
    assert np.max(np.abs(core.commutator(D1, D2).entries)) == 0.0


def test_commutator_diagonal_toeplitz_closed_form():
    block = truncated_block(1, 16)
    A = diag_from(block, lambda m: m)
    B = toeplitz_from(block, cos_coeff)
    C = core.commutator(A, B)
    ii = axis(block)
    oracle = np.array([[(m - n) * cos_coeff(m - n) for n in ii] for m in ii])
    np.testing.assert_allclose(C.entries, oracle, atol=1e-13)


# ---------------------------------------------------------------------------
# the operator-norm bound


def test_apply_operator_norm_bound_uniform_over_radii():
    # ratio ||Ax||_{s-r} / (seminorm * ||x||_s) stays below a frozen constant
    # uniformly over the refinement radii; frozen from a scan with headroom.
    s, r = 2.0, 2.0
    decay = int(math.ceil(abs(s) + abs(r))) + 1 + 1
    frozen_bound = 3.0
    for M in (16, 32, 64):
        block = truncated_block(1, M)
        A = diag_from(block, lambda m: m * m) + toeplitz_from(block, cos_coeff)
        sem = core.seminorm(A, (0,), decay, r)
        w_out = core.sobolev_weights(block, s - r)
        w_in = core.sobolev_weights(block, s)
        worst = 0.0
        for x in core.rough_samples(block, s, 100, RNG_SEED):
            worst = max(worst, np.linalg.norm(w_out * (A.entries @ x)) /
                        (sem * np.linalg.norm(w_in * x)))
        assert worst < frozen_bound


# ---------------------------------------------------------------------------
# order certification


def test_estimate_order_identity_family():
    fam = [scaled_identity(truncated_block(1, M)) for M in (16, 32, 64)]
    assert core.estimate_order(fam).r_hat == 0.0


def test_estimate_order_square_symbol():
    fam = [diag_from(truncated_block(1, M), lambda m: m * m) for M in (16, 32, 64)]
    est = core.estimate_order(fam)
    assert est.r_hat == 2.0
    assert np.all(est.max_ratios >= 0.0)


def test_estimate_order_product_and_commutator_gain():
    prod_fam, comm_fam = [], []
    for M in (16, 32, 64):
        block = truncated_block(1, M)
        A = diag_from(block, lambda m: m * m)
        B = toeplitz_from(block, cos_coeff)
        prod_fam.append(core.matmul(A, B))
        comm_fam.append(core.commutator(A, B))
    assert core.estimate_order(prod_fam).r_hat == 2.0
    assert core.estimate_order(comm_fam).r_hat <= 1.0


def test_estimate_order_2d_square_symbol():
    fam = []
    for M in (4, 8, 16):
        block = truncated_block(2, M)
        idx = block.indices()
        fam.append(core.diagonal_matrix(
            block, (idx[:, 0] ** 2 + idx[:, 1] ** 2).astype(complex)))
    est = core.estimate_order(fam, decay_grid=(0, 2))
    assert est.r_hat == 2.0


def test_estimate_order_sentinel_when_nothing_certifies():
    # entries growing like exp(M) cannot be order-certified on a finite grid
    fam = []
    for M in (4, 8, 16):
        block = truncated_block(1, M)
        fam.append(diag_from(block, lambda m: math.exp(abs(m))))
    assert core.estimate_order(fam).r_hat == math.inf


@pytest.mark.parametrize("potential", ["cos", "exp_decay", "rough_even"])
def test_estimate_order_respects_reflection_adjoint_and_scaling(potential):
    # m -> -m, A -> A^H and A -> 8A commute with the diagonal differences, so
    # the seminorms stay the same bit for bit (8 times them for the scaling,
    # a power of two) and so does the certified order
    coeff = operators.rough_even_coeff(7, 15) if potential == "rough_even" \
        else getattr(operators, f"{potential}_coeff")
    family = [core.commutator(*experiments.schroedinger_pair(coeff, M))
              for M in (16, 32, 64)]
    base = core.estimate_order(family)
    for image, factor in ((lambda e: e[::-1, ::-1], 1.0), (lambda e: e.conj().T, 1.0),
                          (lambda e: 8.0 * e, 8.0)):
        est = core.estimate_order([OpMatrix(A.block, image(A.entries)) for A in family])
        assert np.array_equal(est.max_ratios, factor * base.max_ratios)
        assert est.r_hat == base.r_hat


def test_estimate_order_rejects_single_member_family():
    with pytest.raises(ValueError, match="at least 2"):
        core.estimate_order([scaled_identity(truncated_block(1, 8))])


def entrywise_order_scan(family, alpha_grid, decay_grid, order_grid):
    """Seminorm table of an order scan evaluated over every entry:
    |D| (1+dist)^decay / (1+size)^(r-|alpha|), dist and size read per entry
    from the indices, sup over the interior (the pairs (m, n) with m + alpha
    and n + alpha inside the block).  The two powers are taken
    on whole arrays, as the library takes them: vectorized and scalar pow may
    differ in the last place."""
    out = np.zeros((len(order_grid), len(alpha_grid), len(decay_grid), len(family)))
    for i_m, A in enumerate(family):
        block = A.block
        idx = block.indices()
        n = block.n
        dist = np.zeros((n, n))
        size = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                gap = idx[i] - idx[j]
                if block.mode == core.PERIODIC:
                    gap = core.representative(block.size, gap)
                dist[i, j] = np.abs(gap).sum()
                size[i, j] = np.abs(idx[i]).sum() + np.abs(idx[j]).sum()
        for i_a, alpha in enumerate(alpha_grid):
            D = core.delta(A, alpha)
            inside = core._positions(block, idx + np.array(alpha))[1]
            interior = np.outer(inside, inside)
            for i_n, decay in enumerate(decay_grid):
                for i_r, r in enumerate(order_grid):
                    ratio = np.abs(D.entries) * (1.0 + dist) ** decay / \
                        (1.0 + size) ** (r - sum(abs(a) for a in alpha))
                    out[i_r, i_a, i_n, i_m] = ratio[interior].max()
    return out


def stable_family(values, sizes, theta):
    """Scalar oracle of core._stable_rows for one seminorm sequence: tests in
    turn for all tiny, some tiny, growth past theta times the first value, the
    fitted log-log slope, and the non-increasing transient."""
    v = np.asarray(values, dtype=float)
    if np.all(v <= core._TINY):
        return True
    if np.any(v <= core._TINY):
        return bool(np.max(v) <= 1e-12)
    if np.max(v) > theta * v[0]:
        return False
    logs = np.log(np.asarray(sizes, float))
    slope = np.polyfit(logs, np.log(v), 1)[0]
    if slope <= core.GROWTH_TOL:
        return True
    g = np.diff(np.log(v)) / np.diff(logs)
    return bool(np.all(np.diff(g) <= 1e-9)) and g[-1] <= core.GROWTH_TOL


def stable_table(ratios, sizes):
    """Multiplicative stability of each (order, alpha, decay) row of a
    seminorm table across the family."""
    return np.array([[[stable_family(ratios[i_r, i_a, i_n], sizes,
                                     core.ORDER_THETA)
                       for i_n in range(ratios.shape[2])]
                      for i_a in range(ratios.shape[1])]
                     for i_r in range(ratios.shape[0])])


def seminorm_scan(family, alpha_grid, decay_grid, order_grid):
    """The same table as the order scans, one core.seminorm per entry."""
    return np.array([[[[core.seminorm(A, alpha, decay, r)
                        for A in family] for decay in decay_grid]
                      for alpha in alpha_grid] for r in order_grid])


@pytest.mark.parametrize("case", ["truncated_1d", "periodic_1d", "truncated_2d",
                                  "periodic_2d"])
def test_estimate_order_matches_entrywise_scan(case):
    # estimate_order probes ALPHA_GRIDS[d]; the differences outside it (a
    # second backward one, a mixed one) are checked through core.seminorm
    # against the same oracle
    rng = np.random.default_rng(RNG_SEED + 11)
    if case == "truncated_1d":
        fam = [core.commutator(diag_from(truncated_block(1, M), lambda m: m * m),
                               toeplitz_from(truncated_block(1, M),
                                             lambda k: math.exp(-abs(k))))
               for M in (6, 10, 16)]
        probes = ()
    elif case == "periodic_1d":
        fam = [random_periodic(periodic_block(1, K), rng) for K in (8, 12, 16)]
        probes = ((-2,),)
    elif case == "periodic_2d":
        fam = [random_periodic(periodic_block(2, K), rng) for K in (4, 6, 8)]
        probes = ((0, -2),)
    else:
        fam = []
        for M in (3, 4, 5):
            block = truncated_block(2, M)
            idx = block.indices()
            fam.append(core.diagonal_matrix(
                block, (idx[:, 0] ** 2 + idx[:, 1] ** 2).astype(complex)) +
                OpMatrix(block, 1e-3 * rng.standard_normal((block.n, block.n))))
        probes = ((1, 1),)
    alpha_grid = core.ALPHA_GRIDS[fam[0].block.d]
    decay_grid = (0, 2, 5)
    order_grid = core.ORDER_GRID
    est = core.estimate_order(fam, decay_grid)
    oracle = entrywise_order_scan(fam, alpha_grid, decay_grid, order_grid)
    assert est.alpha_grid == alpha_grid and est.order_grid == order_grid
    assert np.array_equal(est.max_ratios, oracle)
    certified = stable_table(oracle, est.sizes)
    assert np.array_equal(est.certified, certified)
    full = [r for r, c in zip(order_grid, certified) if c.all()]
    assert est.r_hat == (full[0] if full else math.inf)
    if probes:
        assert np.array_equal(
            seminorm_scan(fam, probes, decay_grid, order_grid),
            entrywise_order_scan(fam, probes, decay_grid, order_grid))


def random_family(mode, d, sizes, integer, seed):
    """Random members at the given sizes; small integer entries make exact
    ties and zero differences likely."""
    rng = np.random.default_rng(seed)
    fam = []
    for size in sizes:
        block = IndexBlock(d, mode, size)
        if integer:
            parts = rng.integers(-2, 3, size=(2, block.n, block.n))
        else:
            parts = rng.standard_normal((2, block.n, block.n))
        fam.append(OpMatrix(block, parts[0] + 1j * parts[1]))
    return fam


@st.composite
def small_families(draw):
    """(mode, d, sizes, integer, seed) of a small random family: truncated
    radii above the largest |alpha| of ALPHA_GRIDS[d], even periods."""
    mode = draw(st.sampled_from([core.TRUNCATED, core.PERIODIC]))
    d = draw(st.sampled_from([1, 2]))
    if mode == core.TRUNCATED:
        pool = range(3, 9) if d == 1 else range(2, 4)
    else:
        pool = range(4, 13, 2) if d == 1 else (4, 6)
    sizes = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3,
                          unique=True).map(sorted))
    return mode, d, sizes, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_families())
def test_estimate_order_matches_entrywise_scan_on_random_families(case):
    """The scan's backward magnitudes, read from the forward differences one
    step on (truncated) or through delta (periodic, wrapped), equal the
    entrywise sups bit for bit."""
    fam = random_family(*case)
    decay_grid = (0, 2)
    est = core.estimate_order(fam, decay_grid)
    assert np.array_equal(est.max_ratios, entrywise_order_scan(
        fam, core.ALPHA_GRIDS[case[1]], decay_grid, core.ORDER_GRID))


def test_pair_bin_index_is_compact():
    """The 2-d M = 12 block keeps one uint16 bin per position pair and no
    n^2-sized int64 array."""
    block = truncated_block(2, 12)
    bin_id, size, dist = block._pair_bins
    assert bin_id.dtype == np.uint16 and bin_id.shape == (block.n ** 2,)
    assert size.shape == dist.shape == (int(bin_id.max()) + 1,)
    cached = [v for value in vars(block).values()
              for v in (value if isinstance(value, tuple) else (value,))
              if isinstance(v, np.ndarray)]
    assert any(v is bin_id for v in cached)
    assert not [v for v in cached if v.size >= block.n ** 2 and v.dtype == np.int64]


# every alpha of the order scans, a second backward step, and mixed ones
CHUNK_ALPHAS = {1: (*core.ALPHA_GRIDS[1], (-2,)),
                2: (*core.ALPHA_GRIDS[2], (1, 1), (-1, 1), (2, 0))}


@pytest.mark.parametrize("chunk", [1, 7, 40, 1000, core.CHUNK_ENTRIES])
@pytest.mark.parametrize("block", [truncated_block(1, 5), periodic_block(1, 8),
                                   truncated_block(2, 3), periodic_block(2, 6)],
                         ids=lambda b: f"{b.mode}_d{b.d}_{b.size}")
def test_chunked_kernels_match_the_whole_arrays(block, chunk, monkeypatch):
    """Chunked bin maxima equal those of the whole difference, and the
    diagonal commutator the difference of the dense products, bit for bit.
    Chunks of 1 and 7 entries are one row each, so every row reads its halo;
    40 and 1000 entries give several rows and a last partial chunk."""
    monkeypatch.setattr(core, "CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(RNG_SEED + 37)
    real = rng.standard_normal((block.n, block.n))
    D = core.diagonal_matrix(block, rng.standard_normal(block.n))
    for A in (OpMatrix(block, real),
              OpMatrix(block, real + 1j * rng.standard_normal(real.shape))):
        alphas = CHUNK_ALPHAS[block.d]
        for alpha, got in zip(alphas, core._bin_maxima(A, alphas)):
            want = core._box_maxima(block, np.abs(core.delta(A, alpha).entries), ())
            assert np.array_equal(got, want), alpha
        for P, Q in ((D, A), (A, D)):
            assert np.array_equal(core.commutator(P, Q).entries,
                                  P.entries @ Q.entries - Q.entries @ P.entries)


def test_estimate_order_works_in_chunks():
    """Past its inputs and their bin ids, the scan of the 2-d M = 12 product
    family allocates a few chunks, well under one n^2 array.

    A chunk is `rows` rows of the leading axis plus a halo of one row (each
    alpha of ALPHA_GRIDS[2] has |alpha_1| <= 1), of side^3 entries each, at 8
    bytes (the family is real).  A difference step holds its input and
    output and np.abs the difference and its magnitudes, so two chunk arrays
    are alive at once; a third covers the bin ids (2 bytes an entry), numpy's
    ufunc buffers and the scan's tables, whose size is set by the bins."""
    family = [core.matmul(*laplacian_cos_2d(M)) for M in (4, 8, 12)]
    for A in family:
        A.block._pair_bins                  # part of the input, as in a run
    side, n = family[-1].block.side, family[-1].block.n
    rows = max(1, core.CHUNK_ENTRIES // side ** 3)
    bound = 3 * (rows + 1) * side ** 3 * 8
    assert bound < n * n * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        core.estimate_order(family)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound


def shipped_families(name):
    """The families the shipped runs and the benchmark certify: order_gain's
    product and commutator, the preconditioner's remainder, and the 2-d
    laplacian and cos(x_1) product and commutator."""
    if name == "remainder":
        assemble = cache(partial(experiments.schroedinger_assemble,
                                 operators.two_cos_coeff))
        return experiments.smoothing_remainder_family(assemble, (16, 32, 64))
    if name.startswith("order_gain"):
        pairs = [experiments.schroedinger_pair(operators.cos_coeff, M)
                 for M in (16, 32, 64)]
    else:
        pairs = [laplacian_cos_2d(M) for M in (4, 8, 12)]
    product = name.endswith("product")
    return [core.matmul(A, B) if product else core.commutator(A, B)
            for A, B in pairs]


@pytest.mark.parametrize("name", ["order_gain_product", "order_gain_commutator",
                                  "remainder", "cert_2d_product",
                                  "cert_2d_commutator"])
def test_certification_matches_the_scalar_oracle_on_shipped_families(name):
    est = core.estimate_order(shipped_families(name))
    assert np.array_equal(est.certified, stable_table(est.max_ratios, est.sizes))


@pytest.mark.parametrize("name", ["order_gain_product", "order_gain_commutator",
                                  "remainder", "cert_2d_product",
                                  "cert_2d_commutator"])
def test_one_fit_gives_the_per_row_slopes_on_shipped_families(name):
    """A least-squares fit with one column per row need not round each
    column as a one-column fit does; on the shipped families it does."""
    est = core.estimate_order(shipped_families(name))
    v = est.max_ratios.reshape(-1, len(est.sizes))
    logs = np.log(np.asarray(est.sizes, float))
    logv = np.log(v[np.all(v > core._TINY, axis=1)])
    slopes = np.polyfit(logs, logv.T, 1)[0]
    assert len(logv) and np.array_equal(
        slopes, [np.polyfit(logs, row, 1)[0] for row in logv])


def stable_row_cases(theta):
    """(sizes, rows): seminorm sequences of kinds that sit on an edge of the
    stability test: all zero or tiny, partly zero, a max of exactly theta
    times the first value, a power law within an ulp of GROWTH_TOL, a dying
    transient, or any positive sequence."""
    finite = dict(allow_nan=False, allow_infinity=False)
    scale = st.floats(1e-6, 1e6, **finite)
    zero = st.sampled_from([0.0, 1e-301, core._TINY])
    small = st.sampled_from([1e-13, 1e-12, 2e-12])

    def row(kind, sizes, a, b):
        n, s = len(sizes), np.asarray(sizes, float)
        if kind == "zero":
            return st.lists(zero, min_size=n, max_size=n)
        if kind == "partly_zero":
            return st.lists(st.one_of(zero, small, scale), min_size=n, max_size=n)
        if kind == "tie":
            return st.just([a] + [a * (1 + b * (theta - 1))] * (n - 2) + [theta * a])
        if kind == "power":
            return st.just(list(a * s ** (core.GROWTH_TOL * (1 + (b - 0.5) * 1e-15))))
        if kind == "transient":
            return st.just(list(a * s ** (3 * b * core.GROWTH_TOL) * (1 - b / s)))
        return st.lists(scale, min_size=n, max_size=n)

    kinds = st.sampled_from(["zero", "partly_zero", "tie", "power", "transient",
                             "any"])
    sizes = st.lists(st.integers(2, 400), min_size=2, max_size=5,
                     unique=True).map(sorted)
    return sizes.flatmap(lambda sz: st.tuples(st.just(sz), st.lists(
        st.tuples(kinds, scale, st.floats(0, 1, **finite)).flatmap(
            lambda k: row(k[0], sz, *k[1:])), min_size=1, max_size=12)))


def test_stable_rows_decide_each_edge():
    at_tol = [1.0, 1.0346999954950749, 1.1892071150027212]  # exponents rising
    assert np.polyfit(np.log([16.0, 32.0, 64.0]), np.log(at_tol), 1)[0] == \
        core.GROWTH_TOL
    above_tol = at_tol[:2] + [np.nextafter(at_tol[2], 2.0)]
    cases = [
        ((16, 32, 64), at_tol, True),           # slope exactly GROWTH_TOL
        ((16, 32, 64), above_tol, False),       # one ulp over, no transient
        ((2, 4, 2 ** 20), [1.0, 2.0, 2.0], True),   # at theta, dying transient
        ((2, 4, 2 ** 20), [1.0, 2.0, np.nextafter(2.0, 3.0)], False),
        ((2, 4, 8), [0.0, 0.0, 1e-301], True),
        ((2, 4, 8), [0.0, 1e-12, 0.0], True),
        ((2, 4, 8), [0.0, 2e-12, 0.0], False),
    ]
    for sizes, row, want in cases:
        assert core._stable_rows([row], sizes, core.ORDER_THETA).tolist() == [want]
        assert stable_family(row, sizes, core.ORDER_THETA) is want


@pytest.mark.parametrize("theta", [core.ORDER_THETA, 1.5])
def test_stable_rows_match_the_scalar_oracle(theta):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stable_row_cases(theta))
    def check(case):
        sizes, rows = case
        table = np.array(rows, dtype=float)
        got = core._stable_rows(table, sizes, theta)
        assert got.dtype == bool
        assert got.tolist() == [stable_family(v, sizes, theta) for v in table]

    check()


def envelope_order_scan(family, alpha_grid, decay_grid, order_grid):
    """Seminorm table of an order scan by one size envelope per decay: the
    n x n matrix |D| (1+dist)^decay, 0 off the interior, its max for
    each size |m|+|n|, divided per order by (1+size)^(r-|alpha|)."""
    out = np.zeros((len(order_grid), len(alpha_grid), len(decay_grid), len(family)))
    for i_m, A in enumerate(family):
        block = A.block
        idx = block.indices()
        diff = idx[:, None] - idx[None]
        if block.mode == core.PERIODIC:
            diff = core.representative(block.size, diff)
        dist = np.abs(diff).sum(axis=2).astype(float)
        l1 = np.abs(idx).sum(axis=1)
        size = (l1[:, None] + l1[None]).ravel()
        for i_a, alpha in enumerate(alpha_grid):
            D = gather_delta(A, alpha)
            absval = np.abs(D.entries)
            for i_n, decay in enumerate(decay_grid):
                env = np.zeros(size.max() + 1)
                np.maximum.at(env, size, (absval * (1.0 + dist) ** decay).ravel())
                for i_r, r in enumerate(order_grid):
                    out[i_r, i_a, i_n, i_m] = np.max(
                        env / (1.0 + np.arange(env.size)) ** (r - sum(map(abs, alpha))))
    return out


@pytest.mark.parametrize("case", ["truncated_1d", "periodic_1d", "truncated_2d",
                                  "periodic_2d"])
def test_estimate_order_matches_envelope_oracle(case):
    rng = np.random.default_rng(RNG_SEED + 17)
    d = 1 if case.endswith("1d") else 2
    if case.startswith("truncated"):
        blocks = [truncated_block(d, M) for M in ((6, 10, 16) if d == 1 else (3, 4, 6))]
    else:
        blocks = [periodic_block(d, K) for K in ((8, 12, 16) if d == 1 else (4, 6, 8))]
    fam = []
    for block in blocks:
        l1 = np.abs(block.indices()).sum(axis=1)
        fam.append(core.diagonal_matrix(block, (l1 ** 2).astype(complex)) +
                   OpMatrix(block, 1e-3 * rng.standard_normal((block.n, block.n))))
    alpha_grid, decay_grid = core.ALPHA_GRIDS[d], (0, 2, 4, 8)
    est = core.estimate_order(fam)
    oracle = envelope_order_scan(fam, alpha_grid, decay_grid, core.ORDER_GRID)
    assert np.array_equal(est.max_ratios, oracle)
    certified = stable_table(oracle, est.sizes)
    assert np.array_equal(est.certified, certified)
    if d == 2:
        # a mixed difference, outside ALPHA_GRIDS, through core.seminorm
        probe = ((-1, 1),)
        assert np.array_equal(
            seminorm_scan(fam, probe, decay_grid, core.ORDER_GRID),
            envelope_order_scan(fam, probe, decay_grid, core.ORDER_GRID))


def laplacian_cos_2d(M):
    block = truncated_block(2, M)
    return (operators.fourier_multiplier(operators.symbol_catalog("laplacian"), block),
            operators.toeplitz_potential(operators.cos_coeff, block))


def schroedinger_x_a(M):
    model = experiments.schroedinger_assemble(operators.two_cos_coeff, M)
    return model.X, model.A


def square_cos_1d(M):
    block = truncated_block(1, M)
    return (operators.fourier_multiplier(lambda x: x * x, block),
            operators.toeplitz_potential(operators.cos_coeff, block))


@pytest.mark.parametrize("build,M", [
    *[(square_cos_1d, M) for M in (16, 32, 64)],
    *[(schroedinger_x_a, M) for M in (16, 32, 64)],
    *[(laplacian_cos_2d, M) for M in (4, 8, 12)],
], ids=lambda v: getattr(v, "__name__", v))
def test_matmul_with_real_diagonal_factor_is_the_dense_product(build, M):
    A, B = build(M)
    assert sum(core._real_diagonal(F) for F in (A, B)) == 1
    for P, Q in ((A, B), (B, A)):
        assert np.array_equal(core.matmul(P, Q).entries, P.entries @ Q.entries)


def test_matmul_complex_diagonal_takes_the_dense_product():
    block = truncated_block(1, 8)
    k = axis(block).astype(float)
    D = core.diagonal_matrix(block, np.exp(1j * k))
    B = toeplitz_from(block, lambda j: 1.0 / (1 + j * j))
    assert D.exactly_diagonal and not core._real_diagonal(D)
    assert np.array_equal(core.matmul(D, B).entries, D.entries @ B.entries)


def dense_pair(M):
    """Two complex matrices with no diagonal factor, for the dense product."""
    block = truncated_block(1, M)
    rng = np.random.default_rng(RNG_SEED + M)
    return random_periodic(block, rng), toeplitz_from(block, lambda j: 1.0 / (1 + j * j))


@pytest.mark.parametrize("build,M", [
    *[(square_cos_1d, M) for M in (16, 32, 64)],
    *[(schroedinger_x_a, M) for M in (16, 32, 64)],
    *[(laplacian_cos_2d, M) for M in (4, 8, 12)],
    (dense_pair, 8),
], ids=lambda v: getattr(v, "__name__", v))
def test_commutator_is_the_difference_of_the_products(build, M):
    """Subtracting BA in place from AB gives AB - BA bit for bit."""
    A, B = build(M)
    for P, Q in ((A, B), (B, A)):
        C = core.commutator(P, Q)
        want = core.matmul(P, Q).entries - core.matmul(Q, P).entries
        assert C.entries.dtype == want.dtype and np.array_equal(C.entries, want)


def test_diagonal_commutator_holds_one_product():
    """The 2-d M = 12 commutator of the benchmark, a real diagonal and a
    dense real factor, keeps one n^2 float64 array alive: the AB it returns.
    BA comes a block of at most CHUNK_ENTRIES entries at a time, and a
    product with the strided diagonal may buffer each of its three operands
    (np.getbufsize() entries each).  The validation's n^2 bools come after
    the last block is freed, and at n = 625 they take fewer bytes than one
    block."""
    A, B = laplacian_cos_2d(12)
    n = A.block.n
    assert n * n <= core.CHUNK_ENTRIES * 8
    for P, Q in ((A, B), (B, A)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            C = core.commutator(P, Q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert C.entries.dtype == np.float64
        assert peak <= (n * n + core.CHUNK_ENTRIES + 3 * np.getbufsize()) * 8


@np.errstate(over="ignore", invalid="ignore")
def test_commutator_rejects_a_non_finite_product():
    block = truncated_block(1, 4)
    big = OpMatrix(block, np.full((block.n, block.n), 1e300))
    with pytest.raises(ValueError, match="finite"):
        core.commutator(big, scaled_identity(block, 2.0) + big)


# ---------------------------------------------------------------------------
# storage dtype


def test_entries_keep_the_dtype_of_their_data():
    """Real and integer data are stored as float64 and complex data as
    complex128, by every constructor and through the calculus."""
    block = truncated_block(1, 4)
    n = block.n
    D = operators.fourier_multiplier(operators.symbol_catalog("laplacian"), block)
    T = operators.toeplitz_potential(operators.cos_coeff, block)
    S = operators.toeplitz_potential(sin_coeff, block)
    real = [D, T, OpMatrix(block, np.eye(n)), OpMatrix(block, np.eye(n, dtype=int)),
            OpMatrix(block, np.eye(n, dtype=bool)),
            OpMatrix(block, np.eye(n, dtype=np.float32)),
            core.diagonal_matrix(block, np.arange(n)),
            core.diagonal_matrix(block, [1.0] * n),
            operators.fourier_multiplier(lambda x: int(x) ** 2, block),
            operators.toeplitz_potential(operators.exp_decay_coeff, block),
            operators.toeplitz_potential(operators.rough_even_coeff(), block),
            core.toeplitz(block, np.arange(core.difference_block(block).n)),
            D + T, D - T, core.matmul(D, T), core.matmul(T, T),
            core.commutator(D, T), core.delta(T, (1,)), core.delta(T, (-2,)),
            core.delta(OpMatrix(periodic_block(1, 4), np.ones((4, 4))), (1,))]
    cplx = [S, OpMatrix(block, np.eye(n, dtype=complex)),
            OpMatrix(block, np.eye(n, dtype=np.complex64)),
            core.diagonal_matrix(block, np.exp(1j * np.arange(n))),
            operators.fourier_multiplier(operators.symbol_catalog("first_derivative"),
                                         block),
            D + S, core.matmul(S, D), core.commutator(D, S), core.delta(S, (1,))]
    for A in real:
        assert A.entries.dtype == np.float64
    for A in cplx:
        assert A.entries.dtype == np.complex128


@pytest.mark.parametrize("name", ["order_gain_product", "order_gain_commutator",
                                  "cert_2d_product", "cert_2d_commutator"])
def test_real_and_complex_storage_certify_alike(name):
    """A family certifies bit for bit alike whether its real operators are
    stored as float64 or as complex128."""
    if name.startswith("order_gain"):
        pairs = [experiments.schroedinger_pair(operators.cos_coeff, M)
                 for M in (16, 32, 64)]
    else:
        pairs = [laplacian_cos_2d(M) for M in (4, 8, 12)]
    op = core.matmul if name.endswith("product") else core.commutator
    real = [op(A, B) for A, B in pairs]
    cplx = [op(*(OpMatrix(F.block, F.entries.astype(complex)) for F in pair))
            for pair in pairs]
    assert {F.entries.dtype for F in real} == {np.dtype(np.float64)}
    assert {F.entries.dtype for F in cplx} == {np.dtype(np.complex128)}
    est_real, est_cplx = core.estimate_order(real), core.estimate_order(cplx)
    assert np.array_equal(est_real.max_ratios, est_cplx.max_ratios)
    assert np.array_equal(est_real.certified, est_cplx.certified)
    assert est_real.r_hat == est_cplx.r_hat


# ---------------------------------------------------------------------------
# algebraic identities (periodic mode, no boundary)


def leibniz_case(seed):
    block = periodic_block(1, 8)
    rng = np.random.default_rng(seed)
    return block, random_periodic(block, rng), random_periodic(block, rng)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_product_difference_rule(seed):
    block, A, B = leibniz_case(seed)
    j = 1
    lhs = core.delta(core.matmul(A, B), (1,))
    rhs = core.matmul(core.delta(A, (1,)), gather_shift(B, j, 1)) + \
        core.matmul(A, core.delta(B, (1,)))
    scale = max(1.0, np.max(np.abs(lhs.entries)))
    assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-12 * scale


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_commutator_difference_rule(seed):
    block, A, B = leibniz_case(seed)
    dA = core.delta(A, (1,))
    dB = core.delta(B, (1,))
    lhs = core.delta(core.commutator(A, B), (1,))
    rhs = core.commutator(dA, B) + core.commutator(A, dB) + core.commutator(dA, dB)
    scale = max(1.0, np.max(np.abs(lhs.entries)))
    assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-12 * scale


def test_backward_product_difference_rule():
    block, A, B = leibniz_case(RNG_SEED)
    lhs = core.delta(core.matmul(A, B), (-1,))
    rhs = core.matmul(core.delta(A, (-1,)), gather_shift(B, 1, -1)) + \
        core.matmul(A, core.delta(B, (-1,)))
    scale = max(1.0, np.max(np.abs(lhs.entries)))
    assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# structure checks


def test_hermitian_scan_for_real_symbol():
    block = truncated_block(1, 12)
    assert core.is_hermitian(diag_from(block, lambda m: m * m))
    assert core.is_diagonal(diag_from(block, lambda m: m), 1e-12)


def is_diagonal_by_difference(A, tol=1e-12):
    """The diagonal scan through A - diag(diag(A)), as the oracle."""
    off = A.entries - np.diag(np.diag(A.entries))
    return bool(np.max(np.abs(off)) <= tol * max(1.0, np.max(np.abs(A.entries))))


def structure_cases():
    block = truncated_block(1, 4)
    n = block.n
    diag = np.diag(np.arange(1.0, n + 1) + 0.5j).astype(complex)
    cases = {"diagonal": diag, "zero": np.zeros((n, n), dtype=complex)}
    for name, (i, j), value in (
            ("nan_on_diagonal", (2, 2), math.nan),
            ("inf_on_diagonal", (2, 2), math.inf),
            ("complex_inf_on_diagonal", (2, 2), complex(1.0, -math.inf)),
            ("nan_off_diagonal", (1, 3), math.nan),
            ("inf_off_diagonal", (1, 3), math.inf),
            ("tiny_off_diagonal", (3, 1), 1e-14),
            ("small_off_diagonal", (3, 1), 1e-9),
            ("large_off_diagonal", (0, 4), 2.0)):
        entries = diag.copy()
        entries[i, j] = value
        cases[name] = entries
    big = diag.copy()
    big[0, 0] = 1e6
    big[4, 0] = 1e-7  # below 1e-12 * max |A| = 1e-6
    cases["off_diagonal_relative_to_scale"] = big
    # OpMatrix rejects non-finite entries, and the scan reads only .entries
    return {name: SimpleNamespace(entries=e) for name, e in cases.items()}


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-8])
def test_is_diagonal_matches_difference_oracle(tol):
    for name, A in structure_cases().items():
        with np.errstate(invalid="ignore"):
            want = is_diagonal_by_difference(A, tol)
            assert core.is_diagonal(A, tol) is want, name


@np.errstate(invalid="ignore")
def test_is_diagonal_rejects_non_finite_diagonal():
    cases = structure_cases()
    for tol in (0.0, 1e-12):
        for name in ("nan_on_diagonal", "inf_on_diagonal",
                     "complex_inf_on_diagonal", "nan_off_diagonal"):
            assert core.is_diagonal(cases[name], tol) is False, (name, tol)
        assert core.is_diagonal(cases["diagonal"], tol) is True
    assert core.is_diagonal(cases["tiny_off_diagonal"], 1e-12)
    assert not core.is_diagonal(cases["tiny_off_diagonal"], 0.0)
    assert core.is_diagonal(cases["off_diagonal_relative_to_scale"], 1e-12)
    # an infinite off-diagonal entry sets its own scale when tol > 0
    assert core.is_diagonal(cases["inf_off_diagonal"], 1e-12)
    assert not core.is_diagonal(cases["inf_off_diagonal"], 0.0)


def off_diagonal_cases(n, rng):
    """(name, entries): real and complex n x n matrices that are diagonal,
    zero, banded, dense, or diagonal but for one entry at each off-diagonal
    position in turn (a -0.0, a subnormal, an imaginary unit)."""
    diag = np.diag(rng.uniform(1.0, 2.0, n))
    yield "diagonal", diag
    yield "zero", np.zeros((n, n))
    yield "negative_zero", np.where(np.eye(n, dtype=bool), diag, -0.0)
    yield "banded", diag + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    yield "dense", rng.standard_normal((n, n))
    for i, j in itertools.product(range(n), repeat=2):
        if i != j:
            for value in (-0.0, 5e-324, 1.0, 1j):
                e = diag.astype(type(value))
                e[i, j] = value
                yield f"{i},{j}={value!r}", e


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_exactly_diagonal_matches_is_diagonal(n):
    """The strided scan of exactly_diagonal gives the verdict of
    is_diagonal(A, 0.0), which reads |A|, on finite entries of either dtype;
    n = 1 and 2 have no block, so they go through the property's function."""
    rng = np.random.default_rng(RNG_SEED)
    block = {3: truncated_block(1, 1), 4: periodic_block(1, 4),
             9: truncated_block(2, 1)}.get(n)
    for name, e in off_diagonal_cases(n, rng):
        for entries in (e, e.astype(complex)):
            if block is None:
                A = SimpleNamespace(block=SimpleNamespace(n=n), entries=entries)
                got = OpMatrix.exactly_diagonal.func(A)
            else:
                A = OpMatrix(block, entries)
                got = A.exactly_diagonal
            assert got is core.is_diagonal(A, 0.0), (name, entries.dtype)
            assert got is (not np.any(entries - np.diag(np.diag(entries)))), name


# ---------------------------------------------------------------------------
# convolution and Young's inequality


def convolve(x, y):
    """Full discrete convolution of finitely supported sequences (1d or 2d):
    the per-pair oracle of core.young_ratios."""
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim == 1:
        return np.convolve(x, y)
    out = np.zeros((len(x) + len(y) - 1, x.shape[1] + y.shape[1] - 1),
                   dtype=np.result_type(x, y))
    for i in range(len(x)):
        for j in range(len(y)):
            out[i + j] += np.convolve(x[i], y[j])
    return out


def lp_norm(x, p):
    a = np.abs(np.asarray(x)).ravel()
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    return float((a ** p).sum() ** (1.0 / p))


def young_pairs(rng):
    """The (x, y) pairs of the Young check, unpadded: one draw of the
    lengths of every x and y, then one standard normal draw of their real
    and imaginary parts, each row cut at its length."""
    lengths = rng.integers(1, 12, size=(2, core.YOUNG_PAIRS, 1))
    parts = rng.standard_normal((2, 2, core.YOUNG_PAIRS, 11))
    pairs = []
    for i in range(core.YOUNG_PAIRS):
        x, y = (parts[k, 0, i] + 1j * parts[k, 1, i] for k in (0, 1))
        pairs.append((x[:lengths[0, i, 0]], y[:lengths[1, i, 0]]))
    return pairs


def test_convolve_identities():
    x = np.array([1.0, 2.0, 3.0])
    d0 = np.array([1.0])
    np.testing.assert_array_equal(convolve(x, d0), x)
    da = np.zeros(4); da[1] = 1.0   # delta at offset 1
    db = np.zeros(5); db[2] = 1.0   # delta at offset 2
    z = convolve(da, db)
    assert z[3] == 1.0 and np.count_nonzero(z) == 1
    x2 = np.arange(6.0).reshape(2, 3)
    d2 = np.zeros((3, 2)); d2[1, 1] = 1.0   # delta at offset (1, 1)
    z2 = convolve(x2, d2)
    assert z2.shape == (4, 4)
    np.testing.assert_array_equal(z2[1:3, 1:4], x2)
    assert np.count_nonzero(z2) == np.count_nonzero(x2)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("p,q,r", [(1, 1, 1), (2, 1, 2), (2, 2, math.inf)])
def test_young_ratios_match_the_per_pair_oracle(seed, p, q, r):
    ratios = core.young_ratios(np.random.default_rng(seed), p, q, r)
    oracle = [lp_norm(convolve(x, y), r) / (lp_norm(x, p) * lp_norm(y, q))
              for x, y in young_pairs(np.random.default_rng(seed))]
    np.testing.assert_allclose(ratios, oracle, rtol=1e-13, atol=0)


@pytest.mark.parametrize("p,q,r", [(1, 1, 1), (2, 1, 2), (2, 2, math.inf)])
def test_young_inequality_seeded(p, q, r):
    ratios = core.young_ratios(np.random.default_rng(RNG_SEED), p, q, r)
    assert np.count_nonzero(ratios > 1 + 1e-12) == 0


def test_young_inequality_2d():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(50):
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((2, 5))
        lhs = lp_norm(convolve(x, y), 1)
        rhs = lp_norm(x, 1) * lp_norm(y, 1)
        assert lhs <= rhs * (1 + 1e-12)
