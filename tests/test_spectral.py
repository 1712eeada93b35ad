"""Transforms, finite differences, aliased multiplication, compositions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pdmat import core, experiments, operators, spectral
from pdmat.core import periodic_block

SEED = 424242


def random_grid(period, d, seed):
    n = periodic_block(d, period).n
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# oracles: the inverse transform by FFT and both transforms by direct
# O(K^{2d}) summation, residue-order input, and grid-side multiplication


def idft(v, period, d=1):
    residues = np.fft.ifftshift(v.reshape((period,) * d))
    return (np.fft.fftshift(np.fft.ifftn(residues)) * period ** d).reshape(-1)


def dft_direct(u, period, d=1):
    return spectral.dft_matrix(periodic_block(d, period)) @ u


def idft_direct(v, period, d=1):
    return spectral.idft_matrix(periodic_block(d, period)) @ v


def from_residues(values):
    """1d grid values from values listed in residue order a = 0..K-1."""
    return np.fft.fftshift(np.asarray(values, dtype=complex))


def mult_grid(v_samples, u):
    """Pointwise product (V u)_a = V(a h) u_a on the grid side."""
    return v_samples * u


# ---------------------------------------------------------------------------
# transform


def test_dft_of_constant_is_delta_at_zero():
    u = spectral.sample(16, lambda x: 1.0)
    v = spectral.dft(u, 16)
    p0 = periodic_block(1, 16).origin()
    assert v[p0] == pytest.approx(1.0, abs=1e-14)
    rest = np.delete(v, p0)
    assert np.max(np.abs(rest)) < 1e-14


def test_dft_of_first_mode_is_delta_at_one():
    u = spectral.sample(16, lambda x: np.exp(1j * x))
    v = spectral.dft(u, 16)
    p1, _ = core._positions(periodic_block(1, 16), [[1]])
    assert v[p1[0]] == pytest.approx(1.0, abs=1e-13)
    rest = np.delete(v, p1[0])
    assert np.max(np.abs(rest)) < 1e-13


@pytest.mark.parametrize("period", [8, 32, 128, 256])
def test_round_trip_and_unitarity(period):
    u = random_grid(period, 1, SEED + period)
    w = idft(spectral.dft(u, period), period)
    assert np.max(np.abs(w - u)) < 1e-12
    w2 = spectral.dft(idft(u, period), period)
    assert np.max(np.abs(w2 - u)) < 1e-12
    scaled = period ** 0.5 * np.linalg.norm(spectral.dft(u, period))
    assert scaled == pytest.approx(np.linalg.norm(u), rel=1e-12)


@pytest.mark.parametrize("period,d", [(8, 1), (16, 1), (4, 2), (8, 2)])
def test_fft_matches_direct_oracle(period, d):
    u = random_grid(period, d, SEED + 10 * period + d)
    fast = spectral.dft(u, period, d)
    slow = dft_direct(u, period, d)
    assert np.max(np.abs(fast - slow)) < 1e-12
    fast_i = idft(u, period, d)
    slow_i = idft_direct(u, period, d)
    assert np.max(np.abs(fast_i - slow_i)) < 1e-10


def test_unitarity_of_scaled_transform_matrix():
    for period, d in ((64, 1), (128, 1), (16, 2)):
        block = periodic_block(d, period)
        Q = period ** (d / 2) * spectral.dft_matrix(block)
        defect = np.max(np.abs(Q.conj().T @ Q - np.eye(block.n)))
        assert defect < 1e-12


# ---------------------------------------------------------------------------
# finite differences


def test_fd_matrix_kills_constants():
    u = spectral.sample(8, lambda x: 1.0)
    D = spectral.fd_matrix(1, 1, 8)
    out = D.entries @ u
    assert np.max(np.abs(out)) < 1e-14


def test_fd_matrix_stencil_with_wrap():
    K = 4
    u = from_residues([0.0, 1.0, 2.0, 3.0])
    h = 2 * np.pi / K
    for sign, expected in ((1, [1.0, 1.0, 1.0, -3.0]),):
        D = spectral.fd_matrix(1, sign, K)
        out = D.entries @ u
        np.testing.assert_allclose(np.fft.ifftshift(out).real, np.array(expected) / h,
                                   atol=1e-14)


def test_fd_symbol_values():
    D = spectral.fd_symbol(1, 1, 4)
    h = np.pi / 2
    p0, _ = core._positions(D.block, [[0]])
    p1, _ = core._positions(D.block, [[1]])
    assert D.entries[p0[0], p0[0]] == 0.0
    assert D.entries[p1[0], p1[0]] == pytest.approx((np.exp(1j * h) - 1) / h)
    assert D.entries[p1[0], p1[0]] == pytest.approx((1j - 1) * 2 / np.pi)


@pytest.mark.parametrize("period,d", [(8, 1), (32, 1), (128, 1), (8, 2)])
@pytest.mark.parametrize("sign", [1, -1])
def test_conjugation_identity(period, d, sign):
    block = periodic_block(d, period)
    F = spectral.dft_matrix(block)
    Finv = spectral.idft_matrix(block)
    for j in range(1, d + 1):
        lhs = spectral.fd_matrix(j, sign, period, d).entries
        rhs = Finv @ spectral.fd_symbol(j, sign, period, d).entries @ F
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_fd_symbol_family_first_difference_bounded():
    fam = [spectral.fd_symbol(1, 1, k) for k in (16, 32, 64, 128)]
    vals = [core.seminorm(A, (1,), 0, 1.0) for A in fam]
    assert max(vals) <= 1.2  # |e^{ih} - 1| / h <= 1 plus wrap contribution


def test_fd_symbol_family_is_order_one():
    fam = [spectral.fd_symbol(1, 1, k) for k in (16, 32, 64, 128)]
    assert core.estimate_order(fam).r_hat <= 1.0


def test_grid_side_difference_family_not_certifiable():
    # negative control: the grid-side circulant has an O(K) entry at (0, 0)
    fam = [spectral.fd_matrix(1, 1, k) for k in (16, 32, 64)]
    assert core.estimate_order(fam).r_hat == math.inf


# ---------------------------------------------------------------------------
# multiplication matrices


def test_mult_matrix_of_one_is_identity():
    M = spectral.mult_matrix_from_samples(spectral.sample(8, lambda x: 1.0), 8)
    assert np.max(np.abs(M.entries - np.eye(8))) < 1e-14


def test_mult_matrix_cos_band():
    K = 8
    M = spectral.mult_matrix_from_samples(spectral.sample(K, np.cos), K)
    idx = M.block.indices()[:, 0]
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            expected = 0.5 if core.bracket_norm(K, a - b) == 1 else 0.0
            assert abs(M.entries[i, j] - expected) < 1e-14


def test_mult_matrix_two_paths_agree():
    # grid-sample transform vs alias-summed exact coefficients
    K = 16
    def v_fn(x):
        ks = np.arange(-60, 61)[:, None]
        return np.sum(np.exp(-np.abs(ks)) * np.exp(1j * ks * x), axis=0)
    M_samples = spectral.mult_matrix_from_samples(spectral.sample(K, v_fn), K)
    M_coeffs = spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, K)
    assert np.max(np.abs(M_samples.entries - M_coeffs.entries)) < 1e-12
    p1, _ = core._positions(M_samples.block, [[1]])
    p0, _ = core._positions(M_samples.block, [[0]])
    expected = sum(math.exp(-abs(1 + 16 * l)) for l in range(-5, 6))
    assert M_samples.entries[p1[0], p0[0]] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("period", [16, 32, 64])
def test_alias_sum_identity(period):
    # entrywise identity between the sampled-DFT matrix and the alias sum
    M_samples = spectral.mult_matrix_from_samples(spectral.sample(
        period, lambda x: sum(math.exp(-abs(k)) * np.exp(1j * k * x)
                              for k in range(-50, 51))), period)
    M_alias = spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, period)
    assert np.max(np.abs(M_samples.entries - M_alias.entries)) < 1e-10


def test_mult_matrix_nonfinite_samples_rejected():
    samples = spectral.sample(8, lambda x: 1.0)
    samples[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        spectral.mult_matrix_from_samples(samples, 8)


def test_mult_matrix_decay_constants_stable():
    # |entries| <= C_N (1 + [a-b])^{-N} with C_N measured at K=16 and stable
    for decay in (2, 4, 8):
        consts = []
        for K in (16, 32, 64, 128):
            M = spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, K)
            idx = M.block.indices()
            dist = core.bracket_norm(K, idx[:, None] - idx[None])
            consts.append(float(np.max(np.abs(M.entries) * (1 + dist) ** decay)))
        assert all(c <= 2.0 * consts[0] for c in consts)


def test_mult_grid_and_conjugation():
    K = 32
    u = random_grid(K, 1, SEED)
    v1 = spectral.sample(K, lambda x: 1.0)
    np.testing.assert_array_equal(mult_grid(v1, u), u)
    v2 = spectral.sample(K, lambda x: 2.0)
    np.testing.assert_allclose(mult_grid(v2, u), 2 * u)
    vc = spectral.sample(K, np.cos)
    direct = mult_grid(vc, u)
    M = spectral.mult_matrix_from_samples(vc, K)
    conj = idft(M.entries @ spectral.dft(u, K), K)
    assert np.max(np.abs(direct - conj)) < 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("d", [1, 2])
def test_sample_calls_fn_once_on_the_grid_arrays(d):
    K, calls = 8, []

    def fn(*xs):
        calls.append(xs)
        return sum(xs) + 1j * xs[0] ** 2

    u = spectral.sample(K, fn, d)
    xs = periodic_block(d, K).indices() * (2 * np.pi / K)
    assert len(calls) == 1 and [x.shape for x in calls[0]] == [(K ** d,)] * d
    np.testing.assert_array_equal(u, [sum(x) + 1j * x[0] ** 2 for x in xs])
    const = spectral.sample(K, lambda *xs: 3.0, d)
    assert const.shape == (K ** d,) and (const == 3.0).all()


# ---------------------------------------------------------------------------
# spectral multipliers and compositions


def test_periodic_multiplier_values():
    I = operators.fourier_multiplier(lambda x: 1.0, periodic_block(1, 8))
    assert np.max(np.abs(I.entries - np.eye(8))) < 1e-15
    Q = operators.fourier_multiplier(lambda x: abs(x) ** 2, periodic_block(1, 8))
    p, _ = core._positions(Q.block, [[-3]])
    assert Q.entries[p[0], p[0]] == 9.0


def test_water_wave_dispersion_value():
    model = experiments.WaterWaveModel(1.0)
    Q = operators.fourier_multiplier(
        lambda x: float(model.dispersion(np.array([x]))[0]) ** 2, periodic_block(1, 8))
    p, _ = core._positions(Q.block, [[2]])
    assert Q.entries[p[0], p[0]] == pytest.approx(2 * math.tanh(2.0), rel=1e-15)


def test_periodic_multiplier_nonfinite_rejected():
    with pytest.raises(ValueError):
        operators.fourier_multiplier(lambda x: 1.0 / x if x else math.inf,
                                     periodic_block(1, 8))


def divergence_form(period):
    """D+ M_{2 + cos} D-, the Fourier-side product of a forward difference,
    a potential and a backward difference."""
    potential = spectral.mult_matrix_from_samples(
        spectral.sample(period, lambda x: 2.0 + np.cos(x)), period)
    return core.matmul(core.matmul(spectral.fd_symbol(1, 1, period), potential),
                       spectral.fd_symbol(1, -1, period))


def test_compose_divergence_form_order_two():
    fam = [divergence_form(K) for K in (16, 32, 64, 128)]
    assert core.estimate_order(fam).r_hat <= 2.0


def test_compose_divergence_form_hermitian():
    assert core.is_hermitian(divergence_form(32), 1e-12)


def test_mult_matrix_2d_conjugation():
    K, d = 8, 2
    v = spectral.sample(K, lambda x, y: np.cos(x) * np.cos(y) + 2.0, d=d)
    u = random_grid(K, d, SEED + 3)
    direct = mult_grid(v, u)
    M = spectral.mult_matrix_from_samples(v, K, d)
    conj = idft(M.entries @ spectral.dft(u, K, d), K, d)
    assert np.max(np.abs(direct - conj)) < 1e-12 * np.max(np.abs(direct))


def test_periodic_multiplier_2d_values():
    Q = operators.fourier_multiplier(lambda x, y: x * x + abs(y), periodic_block(2, 8))
    p, _ = core._positions(Q.block, [[-3, 2]])
    assert Q.entries[p[0], p[0]] == 11.0

