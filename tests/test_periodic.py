"""Periodic families, lists of K-periodic matrices at increasing periods:
bracket inequalities, family seminorms, member-by-member products and
commutators, embedding, and the with-loss approximation rates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pdmat import core, operators, periodic, spectral
from pdmat.core import OpMatrix, periodic_block, truncated_block


def d_plus_family(periods):
    return [spectral.fd_symbol(1, 1, k) for k in periods]


def d_minus_family(periods):
    return [spectral.fd_symbol(1, -1, k) for k in periods]


def mult_cos(period):
    return spectral.mult_matrix_from_samples(spectral.sample(period, np.cos), period)


def mult_cos_family(periods):
    return [mult_cos(k) for k in periods]


# ---------------------------------------------------------------------------
# bracket inequalities


@pytest.mark.parametrize("period", [4, 8, 16, 32])
@pytest.mark.parametrize("d", [1, 2])
def test_bracket_triangle_exhaustive(period, d):
    assert periodic.bracket_triangle_holds(period, d)


@pytest.mark.parametrize("period", [4, 8, 16, 32])
@pytest.mark.parametrize("d", [1, 2])
def test_bracket_peetre_exhaustive(period, d):
    assert periodic.bracket_peetre_holds(period, d)


def triangle_loop(period, d):
    """Oracle: one residue a at a time, as the checks were first written."""
    idx = periodic._all_residues(period, d)
    br = periodic.bracket_norm(period, idx)
    for ia, a in enumerate(idx):
        rab = periodic.bracket_norm(period, a[None, :] + idx)
        if np.any(rab > br[ia] + br):
            return False
    return True


def peetre_loop(period, d):
    """Oracle: one residue b and one extreme [a] at a time."""
    idx = periodic._all_residues(period, d)
    br = periodic.bracket_norm(period, idx)
    for ib, b in enumerate(idx):
        rcb = periodic.bracket_norm(period, idx - b[None, :])
        for ra in (0, d * (period // 2)):
            if np.any(1 + ra + br > 2 * (1 + ra + int(br[ib])) * (1 + rcb)):
                return False
    return True


@pytest.mark.parametrize("period", [4, 8, 16, 32])
@pytest.mark.parametrize("d", [1, 2])
def test_blocked_bracket_checks_match_loops(period, d):
    assert periodic.bracket_triangle_holds(period, d) == triangle_loop(period, d)
    assert periodic.bracket_peetre_holds(period, d) == peetre_loop(period, d)


@pytest.mark.parametrize("period", [4, 8, 16, 32])
@pytest.mark.parametrize("d", [1, 2])
def test_bracket_checks_compute_in_the_narrowest_exact_type(period, d):
    """Every (K, d) the invariants suite and the tests check: the checks'
    integer type is that of 2(1 + dK)^2, and the largest value they form,
    2(1 + dK/2 + max[b])(1 + max[c-b]) in int64, fits in it."""
    dtype = periodic._bracket_type(period, d)
    assert dtype == np.min_scalar_type(2 * (1 + d * period) ** 2)
    top = int(periodic.bracket_norm(period, periodic._all_residues(period, d)).max())
    assert 2 * (1 + d * (period // 2) + top) * (1 + top) <= np.iinfo(dtype).max
    assert periodic._residue_brackets(period, d).dtype == dtype
    for sign in (1, -1):
        assert {P.dtype for _, P in periodic._pair_brackets(period, d, sign)} == {dtype}
    if (period, d) == (32, 2):
        assert dtype == np.uint16


@pytest.mark.parametrize("entries", [64, 1000, 1 << 17])
@pytest.mark.parametrize("d", [1, 2])
def test_bracket_pair_blocks_match_direct_brackets(monkeypatch, d, entries):
    monkeypatch.setattr(periodic, "PAIR_BLOCK", entries)
    idx = periodic._all_residues(8, d)
    for sign in (1, -1):
        blocks = list(periodic._pair_brackets(8, d, sign))
        assert [rows.start for rows, _ in blocks] == list(
            range(0, len(idx), max(1, entries // len(idx))))
        direct = periodic.bracket_norm(8, sign * idx[:, None, :] + idx[None, :, :])
        assert np.array_equal(np.concatenate([p for _, p in blocks]), direct)


@pytest.mark.parametrize("d", [1, 2])
def test_broken_bracket_fails_both_checks(monkeypatch, d):
    """A bracket 1000 too large on coordinates congruent to 1 breaks both
    inequalities; the blocked checks and the loops must both see it."""
    def broken(period, a):
        r = core.representative(period, a)
        return (np.abs(r) + 1000 * (r == 1)).sum(axis=-1)
    monkeypatch.setattr(periodic, "bracket_norm", broken)
    for check in (periodic.bracket_triangle_holds, periodic.bracket_peetre_holds,
                  triangle_loop, peetre_loop):
        assert check(8, d) is False


def test_bracket_range():
    assert core.bracket_norm(8, [4]) == 4
    assert core.bracket_norm(8, [8]) == 0
    vals = [int(core.bracket_norm(8, [a])) for a in range(8)]
    assert min(vals) == 0 and max(vals) == 4


# ---------------------------------------------------------------------------
# family seminorms


def family_seminorm(family, alpha, decay, order):
    """Sup over the family's matrices, one per evaluated period, of the
    per-K seminorm: the finite-sample surrogate of the sup over all K."""
    return max(core.seminorm(A, alpha, decay, order) for A in family)


def zero_matrix(block):
    return OpMatrix(block, np.zeros((block.n, block.n)))


def test_dnorm_zero_family():
    fam = [zero_matrix(periodic_block(1, k)) for k in (8, 16)]
    assert family_seminorm(fam, (0,), 2, 0.0) == 0.0


def test_dnorm_forward_difference_bounded_by_one():
    fam = d_plus_family((16, 32, 64, 128))
    assert family_seminorm(fam, (0,), 0, 1.0) <= 1.0


def test_dnorm_mult_cos_non_increasing():
    fam = mult_cos_family((16, 32, 64, 128))
    vals = [core.seminorm(A, (0,), 4, 0.0) for A in fam]
    assert all(math.isfinite(v) for v in vals)
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_product_with_identity_family():
    for M in mult_cos_family((8, 16)):
        prod = core.matmul(M, OpMatrix(M.block, np.eye(M.block.n)))
        np.testing.assert_array_equal(prod.entries, M.entries)


def test_commutator_of_diagonal_families_vanishes():
    periods = (8, 16)
    for P, Q in zip(d_plus_family(periods), d_minus_family(periods)):
        assert np.max(np.abs(core.commutator(P, Q).entries)) < 1e-14


def test_product_of_families_adds_orders():
    periods = (16, 32, 64, 128)
    prod = [core.matmul(P, M)
            for P, M in zip(d_plus_family(periods), mult_cos_family(periods))]
    assert core.estimate_order(prod).r_hat <= 1.0


def test_commutator_of_families_gains_an_order():
    periods = (16, 32, 64, 128)
    comm = [core.commutator(P, M)
            for P, M in zip(d_plus_family(periods), mult_cos_family(periods))]
    assert core.estimate_order(comm).r_hat <= 0.0


# ---------------------------------------------------------------------------
# embedding


def test_embed_zero_and_diagonal():
    K = 8
    Z = zero_matrix(periodic_block(1, K))
    assert np.max(np.abs(periodic.embed(Z).entries)) == 0.0
    D = spectral.fd_symbol(1, 1, K)
    E = periodic.embed(D)
    assert E.block == truncated_block(1, K // 2)
    for a in range(-K // 2, K // 2):
        pk, _ = core._positions(D.block, [[a]])
        pt, _ = core._positions(E.block, [[a]])
        assert E.entries[pt[0], pt[0]] == D.entries[pk[0], pk[0]]
    # the padding row at +K/2 is zero
    pt, _ = core._positions(E.block, [[K // 2]])
    assert np.max(np.abs(E.entries[pt[0], :])) == 0.0


def test_embed_mult_cos_differs_from_toeplitz_by_alias_tail():
    # closed form: the embedded matrix minus the coefficient Toeplitz matrix
    # equals the sum of the coefficients shifted by +-K on the box
    K = 16
    E = periodic.embed(mult_cos(K))
    B = operators.toeplitz_potential(operators.cos_coeff, E.block)
    idx = E.block.indices()[:, 0]
    tail = np.zeros((E.block.n, E.block.n), dtype=complex)
    box = np.abs(idx) <= K // 2 - 1  # representative box, excluding padding
    box[idx == -K // 2] = True
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            if box[i] and box[j]:
                tail[i, j] = sum(operators.cos_coeff(m - n + l * K) for l in (-1, 1))
            else:
                tail[i, j] = -operators.cos_coeff(m - n)
    np.testing.assert_allclose(E.entries - B.entries, tail, atol=1e-14)


def test_aliasing_corner_does_not_vanish():
    # negative control: the corner entry keeps the first cosine coefficient
    for K in (8, 16, 32, 64):
        E = periodic.embed(mult_cos(K))
        B = operators.toeplitz_potential(operators.cos_coeff, E.block)
        pm, _ = core._positions(E.block, [[-K // 2]])
        pn, _ = core._positions(E.block, [[K // 2 - 1]])
        corner = abs((E.entries - B.entries)[pm[0], pn[0]])
        assert corner == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# approximation rates


def test_approx_error_zero_for_self():
    K = 16
    fam = mult_cos_family((K,))
    master = K // 2
    A_limit = periodic.embed(fam[0], radius=master)
    table = periodic.approx_error(A_limit, fam, s=2.0, s_prime=2.0, seed=3)
    assert table.rows[0]["error"] == 0.0


def test_approx_error_rejects_an_empty_or_truncated_family():
    A_limit = operators.fourier_multiplier(lambda x: 1j * x, truncated_block(1, 16))
    with pytest.raises(ValueError, match="nonempty family"):
        periodic.approx_error(A_limit, [], s=2.0, s_prime=2.0)
    with pytest.raises(ValueError, match="periodic matrix"):
        periodic.approx_error(A_limit, [A_limit], s=2.0, s_prime=2.0)


def test_finite_difference_rate_one_with_two_extra_derivatives():
    periods = (32, 64, 128)
    s = 2.0
    fam = d_plus_family(periods)
    master = max(periods)
    block = truncated_block(1, master)
    A_limit = operators.fourier_multiplier(lambda x: 1j * x, block)
    table = periodic.approx_error(A_limit, fam, s=s, s_prime=s, data_s=s + 2.0,
                                  seed=11)
    assert [r["K"] for r in table.rows] == list(periods)
    assert table.decay_rate == pytest.approx(1.0, abs=0.25)


def test_periodic_multiplier_rate_matches_gap_minus_order():
    # diagonal symbol of order 1: the windowing error decays at rate s-s'-r
    periods = (32, 64, 128)
    fam = [operators.fourier_multiplier(lambda x: 1j * x, periodic_block(1, k))
           for k in periods]
    block = truncated_block(1, max(periods))
    A_limit = operators.fourier_multiplier(lambda x: 1j * x, block)
    table = periodic.approx_error(A_limit, fam, s=4.0, s_prime=2.0, data_s=4.0,
                                  seed=13)
    assert table.decay_rate == pytest.approx(1.0, abs=0.25)


def test_multiplication_rate_matches_regularity_gap():
    # fitted from K = 32 on: at K = 16 the in-box aliasing of the e^{-|k|}
    # coefficients is still exponentially large and pollutes the fit
    periods = (32, 64, 128)
    fam = [spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, k)
           for k in periods]
    master = max(periods)
    block = truncated_block(1, master)
    A_limit = operators.toeplitz_potential(operators.exp_decay_coeff, block)
    table = periodic.approx_error(A_limit, fam, s=4.0, s_prime=2.0, data_s=4.0,
                                  seed=12)
    assert table.decay_rate == pytest.approx(2.0, abs=0.25)


# ---------------------------------------------------------------------------
# uniform boundedness of the action


def measured_action_constants(fam, order, s=2.0):
    decay = int(abs(s) + abs(order)) + 1 + 1
    dn = family_seminorm(fam, (0,), decay, order)
    consts = []
    for A in fam:
        w_out = core.sobolev_weights(A.block, s - order)
        w_in = core.sobolev_weights(A.block, s)
        worst = max(np.linalg.norm(w_out * (A.entries @ x)) /
                    (dn * np.linalg.norm(w_in * x))
                    for x in core.rough_samples(A.block, s, 20, 99))
        consts.append(worst)
    return consts


def test_action_bound_stable_for_multiplication_family():
    # constant measured at K=16 stays valid (within 1.1) at larger periods
    consts = measured_action_constants(mult_cos_family((16, 32, 64, 128)), 0.0)
    assert all(c <= 1.1 * consts[0] for c in consts[1:])


def test_action_bound_equilibrates_for_difference_family():
    # the discrete sup for the difference symbol approaches its uniform bound
    # slowly from below (maximizer near k ~ 0.16 K), so a K=16 baseline sees
    # a real creep; assert boundedness with frozen headroom plus shrinking
    # increments rather than the 1.1 factor that holds for multiplication
    consts = measured_action_constants(d_plus_family((16, 32, 64, 128)), 1.0)
    assert all(c <= 1.35 * consts[0] for c in consts[1:])
    growth = [consts[i + 1] / consts[i] for i in range(len(consts) - 1)]
    assert all(g2 < g1 for g1, g2 in zip(growth, growth[1:]))


def test_rough_data_is_marginal():
    # the generator produces data in h^s whose h^{s+1/4} norm grows with K
    s = 1.0
    def norm(period, s_norm):
        block = periodic_block(1, period)
        x = core.rough_samples(block, s, 1, 5)[0]
        return np.linalg.norm(core.sobolev_weights(block, s_norm) * x)
    assert norm(256, s) < 1.6 * norm(16, s)
    assert norm(256, s + 0.25) > 1.8 * norm(16, s + 0.25)
