"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line (visible with -s or in captured output) and asserts
the criterion exactly as pinned: order grids at step 0.25 with stability
factor 2.0, loss grids at step 0.25 with stability factor 1.5, fit bands of
0.25, and the stated absolute tolerances and runtime caps.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from pdmat import core, experiments, flows, operators, periodic, spectral
from pdmat.core import periodic_block, truncated_block

SEED = 1


def announce(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_commutator_order_gain():
    t0 = time.monotonic()
    prod_fam, comm_fam = [], []
    for M in (16, 32, 64):
        block = truncated_block(1, M)
        A = operators.fourier_multiplier(lambda x: x * x, block)
        B = operators.toeplitz_potential(operators.cos_coeff, block)
        prod_fam.append(core.matmul(A, B))
        comm_fam.append(core.commutator(A, B))
    r_prod = core.estimate_order(prod_fam, theta=2.0).r_hat
    r_comm = core.estimate_order(comm_fam, theta=2.0).r_hat
    elapsed = time.monotonic() - t0
    announce(1, "commutator order gain",
             r_prod == 2.0 and r_comm <= 1.0 and elapsed < 10.0,
             f"product={r_prod} commutator={r_comm} runtime={elapsed:.2f}s")


def test_criterion_02_periodic_commutator_gain():
    t0 = time.monotonic()
    periods = (16, 32, 64, 128)
    dplus = periodic.PeriodicFamily(lambda k: spectral.fd_symbol(1, 1, k),
                                    periods, "D+")
    mcos = periodic.PeriodicFamily(
        lambda k: spectral.mult_matrix_fourier(k, fn=np.cos), periods, "M_cos")
    comm = periodic.family_commutator(dplus, mcos)
    r_hat = periodic.family_order(comm, theta=2.0).r_hat
    elapsed = time.monotonic() - t0
    announce(2, "periodic commutator gain", r_hat <= 0.0 and elapsed < 10.0,
             f"r_hat={r_hat} runtime={elapsed:.2f}s")


def test_criterion_03_bracket_inequalities_exhaustive():
    ok = True
    for d in (1, 2):
        for K in (4, 8, 16, 32):
            ok &= periodic.bracket_triangle_holds(K, d)
            ok &= periodic.bracket_peetre_holds(K, d)
    announce(3, "bracket norm inequalities", ok, "exact, K in {4,8,16,32}, d in {1,2}")


def test_criterion_04_dft_unitarity_and_conjugation():
    worst_unitary, worst_conj = 0.0, 0.0
    for period, d in ((8, 1), (32, 1), (64, 1), (128, 1), (4, 2), (8, 2), (16, 2)):
        block = periodic_block(d, period)
        Q = period ** (d / 2) * spectral.dft_matrix(block)
        worst_unitary = max(worst_unitary,
                            float(np.max(np.abs(Q.conj().T @ Q - np.eye(block.n)))))
        F, Finv = spectral.dft_matrix(block), spectral.idft_matrix(block)
        for j in range(1, d + 1):
            for sign in (1, -1):
                lhs = spectral.fd_matrix(j, sign, period, d).entries
                rhs = Finv @ spectral.fd_symbol(j, sign, period, d).entries @ F
                worst_conj = max(worst_conj, float(np.max(np.abs(lhs - rhs))))
    announce(4, "transform unitarity and conjugation",
             worst_unitary <= 1e-12 and worst_conj <= 1e-12,
             f"unitarity={worst_unitary:.2e} conjugation={worst_conj:.2e}")


def test_criterion_05_alias_identity():
    worst = 0.0
    for K in (16, 32, 64):
        sampled = spectral.mult_matrix_fourier(
            K, fn=lambda x: sum(math.exp(-abs(j)) * np.exp(1j * j * x)
                                for j in range(-50, 51)))
        alias = spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, K)
        worst = max(worst, float(np.max(np.abs(sampled.entries - alias.entries))))
    announce(5, "aliasing identity", worst <= 1e-10, f"entrywise={worst:.2e}")


def test_criterion_06_approximation_rates():
    periods = (32, 64, 128)
    master = max(periods)
    block = truncated_block(1, master)
    s = 2.0
    fd_fam = periodic.PeriodicFamily(lambda k: spectral.fd_symbol(1, 1, k),
                                     periods, "fd")
    fd = periodic.approx_error(
        operators.fourier_multiplier(lambda x: 1j * x, block), fd_fam,
        s=s, s_prime=s, data_s=s + 2.0, n_samples=6, seed=SEED, probe="fd")
    mult_fam = periodic.PeriodicFamily(
        lambda k: spectral.mult_matrix_fourier(k, coeff_fn=operators.exp_decay_coeff),
        periods, "mult")
    mult = periodic.approx_error(
        operators.toeplitz_potential(operators.exp_decay_coeff, block), mult_fam,
        s=4.0, s_prime=2.0, data_s=4.0, n_samples=6, seed=SEED, probe="mult")
    announce(6, "approximation rates",
             abs(fd.decay_rate - 1.0) <= 0.25 and abs(mult.decay_rate - 2.0) <= 0.25,
             f"fd_rate={fd.decay_rate:.3f} mult_rate={mult.decay_rate:.3f}")


def test_criterion_07_splitting_local_orders():
    t0 = time.monotonic()
    block = truncated_block(1, 64)
    A = operators.fourier_multiplier(lambda x: x * x, block)
    B = operators.toeplitz_potential(operators.two_cos_coeff, block)
    tau_list = flows.default_tau_list(0.1, 7)
    system = flows.scalar_system(64, A, B, (flows.LIE, flows.STRANG))
    ok, details = True, []
    for s in (0.0, 1.0, 2.0):
        samples = core.rough_samples(block, s + 3.0, 6, SEED)
        tables = flows.error_table(system, tau_list, [
            (s, core.sobolev_weights(block, s), [x.coeffs for x in samples])])
        lie, strang = tables["lie", s], tables["strang", s]
        ok &= abs(lie.fit.slope - 2.0) <= 0.25
        ok &= abs(strang.fit.slope - 3.0) <= 0.25
        details.append(f"s={s:g}: lie={lie.fit.slope:.3f} strang={strang.fit.slope:.3f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    announce(7, "splitting local orders", ok,
             "; ".join(details) + f"; runtime={elapsed:.1f}s")


def test_criterion_08_derivative_loss():
    def schrodinger(M):
        block = truncated_block(1, M)
        return (operators.fourier_multiplier(lambda x: x * x, block),
                operators.toeplitz_potential(operators.two_cos_coeff, block))
    lie = flows.loss_scan(
        [flows.scalar_system(M, *schrodinger(M), (flows.LIE,)) for M in (16, 32, 64)],
        2.0, seed=SEED, stability_factor=1.5)["lie"]
    model = experiments.waterwave_model("waterwave")
    ww = flows.loss_scan(
        [experiments.waterwave_assemble(model, K).system((flows.STRANG,))
         for K in (32, 64, 128)], 2.0, seed=SEED, stability_factor=1.5)["strang"]
    announce(8, "derivative loss exponents",
             lie.certified and lie.sigma_hat == 1.0 and
             ww.certified and ww.sigma_hat == 0.0,
             f"lie_schrodinger={lie.sigma_hat} strang_waterwave={ww.sigma_hat}")


def test_criterion_09_waterwave_no_loss():
    model = experiments.waterwave_model("waterwave")
    res = experiments.waterwave_noloss_study(
        model, ["lie", "strang"], (32, 64, 128), flows.default_tau_list(0.1, 5),
        (1.0, 2.0, 3.0), seed=SEED)
    ok = True
    details = []
    systems = [experiments.waterwave_assemble(model, K).system((flows.STRANG,))
               for K in (32, 64, 128)]
    sigmas = []
    for s in (1.0, 2.0, 3.0):
        slope = res["slopes"][("strang", s)].slope
        ok &= abs(slope - 3.0) <= 0.25
        details.append(f"strang_s{s:g}={slope:.3f}")
        rep = flows.loss_scan(systems, s, seed=SEED)["strang"]
        sigmas.append(rep.sigma_hat)
        ok &= rep.certified and rep.sigma_hat == 0.0
    defect = max(res["symplectic_defect"].values())
    ok &= defect <= 1e-10
    ok &= res["b0_control"] <= 1e-12
    announce(9, "water waves without loss", ok,
             "; ".join(details) + f"; sigma={sigmas}"
             f" defect={defect:.1e} b0={res['b0_control']:.1e}")


def test_criterion_10_normal_form_preconditioner():
    res = experiments.preconditioned_lie_study(
        operators.two_cos_coeff, flows.default_tau_list(0.1, 7), (2.0,),
        (16, 32, 64), seed=SEED)
    model = experiments.schroedinger_assemble(operators.two_cos_coeff, 64)
    telescoping = experiments.telescoping_defect(model, 0.01, 10)
    slope = res["slopes"][2.0].slope
    ok = (res["homological_defect"] <= 1e-12 and
          res["remainder_order"] <= -2.0 and
          abs(slope - 2.0) <= 0.25 and
          res["loss_preconditioned"].sigma_hat == 0.0 and
          res["loss_baseline"].sigma_hat == 1.0 and
          telescoping <= 1e-10)
    announce(10, "normal-form preconditioner", ok,
             f"homological={res['homological_defect']:.1e} "
             f"R_order={res['remainder_order']} slope={slope:.3f} "
             f"sigma=({res['loss_preconditioned'].sigma_hat},"
             f"{res['loss_baseline'].sigma_hat}) telescoping={telescoping:.1e}")


def test_criterion_11_sobolev_growth():
    rho0, rhom1 = experiments.sobolev_growth_study(
        [(experiments.growth_model("growth_rho0"), (32, 64, 128), True),
         (experiments.growth_model("growth_rhom1"), (32, 64), False)],
        50.0, (1.0, 2.0), seed=SEED)
    ok = all(v <= 1e-8 for v in rho0["conservation"].values())
    spans = []
    for s in (1.0, 2.0):
        cs = [rho0["ratio"][(s, K)]["max_common"] for K in (32, 64, 128)]
        spans.append(max(cs) / min(cs))
        ok &= max(cs) <= 1.2 * min(cs)
    ok &= all(v <= 1e-8 for v in rhom1["conservation"].values())
    worst_exp = -math.inf
    for (s, K), exp in rhom1["exponent"].items():
        ok &= exp <= s / 2.0 + 0.1
        worst_exp = max(worst_exp, exp - s / 2.0)
    announce(11, "Sobolev growth bounds", ok,
             f"drift={max(rho0['conservation'].values()):.1e} "
             f"spans={[f'{v:.3f}' for v in spans]} "
             f"exp_margin={worst_exp:.3f}")


def test_criterion_12_young_inequality():
    rng = np.random.default_rng(SEED)
    violations = 0
    for p, q, r in ((1, 1, 1), (2, 1, 2), (2, 2, math.inf)):
        for _ in range(1000):
            nx, ny = rng.integers(1, 12, size=2)
            x = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
            y = rng.standard_normal(ny) + 1j * rng.standard_normal(ny)
            lhs = core.lp_norm(core.convolve(x, y), r)
            rhs = core.lp_norm(x, p) * core.lp_norm(y, q)
            violations += lhs > rhs * (1 + 1e-12)
    announce(12, "Young convolution inequality", violations == 0,
             f"violations={violations}/3000")
