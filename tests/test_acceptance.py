"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line (visible with -s or in captured output) and asserts
the criterion exactly as pinned: order grids at step 0.25 with stability
factor 2.0, loss grids at step 0.25 with stability factor 1.5, fit bands of
0.25, and the stated absolute tolerances and runtime caps.  The grids, step
sizes and stability factors are library constants, so the tests assert
their values instead of passing them.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from pdmat import (cli, core, experiments, flows, operators, periodic, reporting,
                   spectral)
from pdmat.core import periodic_block, truncated_block

SEED = 1


def announce(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_commutator_order_gain():
    assert core.GRID_STEP == 0.25 and core.ORDER_THETA == 2.0
    t0 = time.monotonic()
    prod_fam, comm_fam = [], []
    for M in (16, 32, 64):
        block = truncated_block(1, M)
        A = operators.fourier_multiplier(lambda x: x * x, block)
        B = operators.toeplitz_potential(operators.cos_coeff, block)
        prod_fam.append(core.matmul(A, B))
        comm_fam.append(core.commutator(A, B))
    r_prod = core.estimate_order(prod_fam).r_hat
    r_comm = core.estimate_order(comm_fam).r_hat
    elapsed = time.monotonic() - t0
    announce(1, "commutator order gain",
             r_prod == 2.0 and r_comm <= 1.0 and elapsed < 10.0,
             f"product={r_prod} commutator={r_comm} runtime={elapsed:.2f}s")


def test_criterion_02_periodic_commutator_gain():
    t0 = time.monotonic()
    # [D+, M_cos], one commutator per period
    comm = [core.commutator(
        spectral.fd_symbol(1, 1, k),
        spectral.mult_matrix_from_samples(spectral.sample(k, np.cos), k))
        for k in (16, 32, 64, 128)]
    r_hat = core.estimate_order(comm).r_hat
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
        sampled = spectral.mult_matrix_from_samples(spectral.sample(
            K, lambda x: sum(math.exp(-abs(j)) * np.exp(1j * j * x)
                             for j in range(-50, 51))), K)
        alias = spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, K)
        worst = max(worst, float(np.max(np.abs(sampled.entries - alias.entries))))
    announce(5, "aliasing identity", worst <= 1e-10, f"entrywise={worst:.2e}")


def test_criterion_06_approximation_rates():
    periods = (32, 64, 128)
    master = max(periods)
    block = truncated_block(1, master)
    s = 2.0
    fd = periodic.approx_error(
        operators.fourier_multiplier(lambda x: 1j * x, block),
        [spectral.fd_symbol(1, 1, k) for k in periods],
        s=s, s_prime=s, data_s=s + 2.0, seed=SEED)
    mult = periodic.approx_error(
        operators.toeplitz_potential(operators.exp_decay_coeff, block),
        [spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, k)
         for k in periods],
        s=4.0, s_prime=2.0, data_s=4.0, seed=SEED)
    announce(6, "approximation rates",
             abs(fd.decay_rate - 1.0) <= 0.25 and abs(mult.decay_rate - 2.0) <= 0.25,
             f"fd_rate={fd.decay_rate:.3f} mult_rate={mult.decay_rate:.3f}")


def test_criterion_07_splitting_local_orders():
    t0 = time.monotonic()
    block = truncated_block(1, 64)
    A = operators.fourier_multiplier(lambda x: x * x, block)
    B = operators.toeplitz_potential(operators.two_cos_coeff, block)
    assert flows.TAU_LIST == tuple(0.1 * 2.0 ** (-j) for j in range(7))
    system = flows.scalar_system(64, A, B, (flows.LIE, flows.STRANG))
    ok, details = True, []
    for s in (0.0, 1.0, 2.0):
        samples = core.rough_samples(block, s + 3.0, 6, SEED)
        tables = flows.error_table(system, [
            (s, core.sobolev_weights(block, s), samples)])
        lie, strang = tables["lie", s], tables["strang", s]
        ok &= abs(lie.fit.slope - 2.0) <= 0.25
        ok &= abs(strang.fit.slope - 3.0) <= 0.25
        details.append(f"s={s:g}: lie={lie.fit.slope:.3f} strang={strang.fit.slope:.3f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    announce(7, "splitting local orders", ok,
             "; ".join(details) + f"; runtime={elapsed:.1f}s")


def test_criterion_08_derivative_loss():
    assert flows.SIGMA_GRID == tuple(0.25 * j for j in range(9))
    assert flows.LOSS_THETA == 1.5
    def schrodinger(M):
        block = truncated_block(1, M)
        return (operators.fourier_multiplier(lambda x: x * x, block),
                operators.toeplitz_potential(operators.two_cos_coeff, block))
    lie = flows.loss_scan(
        [flows.scalar_system(M, *schrodinger(M), (flows.LIE,)) for M in (16, 32, 64)],
        2.0, seed=SEED)["lie"]
    model = experiments.waterwave_model("waterwave")
    ww = flows.loss_scan(
        [experiments.waterwave_assemble(model, K).system((flows.STRANG,))
         for K in (32, 64, 128)], 2.0, seed=SEED)["strang"]
    announce(8, "derivative loss exponents",
             lie.certified and lie.sigma_hat == 1.0 and
             ww.certified and ww.sigma_hat == 0.0,
             f"lie_schrodinger={lie.sigma_hat} strang_waterwave={ww.sigma_hat}")


def test_criterion_09_waterwave_no_loss():
    model = experiments.waterwave_model("waterwave")
    res = experiments.waterwave_noloss_study(
        model, (32, 64, 128), (1.0, 2.0, 3.0), seed=SEED)
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
    res = experiments.preconditioned_lie_study((2.0,), (16, 32, 64), seed=SEED)
    model = experiments.schroedinger_assemble(operators.two_cos_coeff, 64)
    telescoping = experiments.telescoping_defect(model)
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
        [(experiments.growth_model("growth_rho0"), (32, 64, 128)),
         (experiments.growth_model("growth_rhom1"), (32, 64))],
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
        violations += int(np.count_nonzero(
            core.young_ratios(rng, p, q, r) > 1 + 1e-12))
    announce(12, "Young convolution inequality", violations == 0,
             f"violations={violations}/3000")


# ---------------------------------------------------------------------------
# the shipped configs: their CLI gates hold the same bounds, and their
# outputs match the golden digests

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "scripts" / "golden_digests.json"

_spec = importlib.util.spec_from_file_location("seed_sweep",
                                               ROOT / "scripts" / "seed_sweep.py")
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)

# (criterion, config, gate name pattern, gates it matches, bound): the bounds
# written in the criteria above.  Criterion 2 has no CLI gate.
ACCEPTANCE_GATES = [
    (1, "order_gain", r"product_order_is_2", 1, 2.0),
    (1, "order_gain", r"commutator_order_le_1", 1, 1.0),
    (1, "order_gain", r"runtime_lt_10s", 1, 10.0),
    (3, "invariants_suite", r"bracket_inequalities_d[12]_K(4|8|16|32)", 8, 1),
    (4, "invariants_suite", r"dft_unitarity_d\d_K\d+", 5, 1e-12),
    (4, "invariants_suite", r"fd_conjugation_d\d_K\d+", 5, 1e-12),
    (5, "invariants_suite", r"alias_identity_K(16|32|64)", 3, 1e-10),
    (6, "approx_rates", r"fd_rate_near_1|mult_rate_near_2", 2, 0.25),
    (7, "splitting_orders", r"(lie|strang)_s[012]_slope", 6, 0.25),
    (7, "splitting_orders", r"runtime_lt_120s", 1, 120.0),
    (8, "loss_scan", r"lie_schrodinger_sigma_1", 1, 1.0),
    (8, "loss_scan", r"strang_waterwave_sigma_0", 1, 0.0),
    (9, "waterwave", r"waterwave_strang_s[123]_slope", 3, 0.25),
    (9, "waterwave", r"waterwave_(lie|strang)_no_loss", 2, 0.0),
    (9, "waterwave", r"waterwave_(lie|strang)_symplectic", 2, 1e-10),
    (9, "waterwave", r"waterwave_flat_bottom_exact", 1, 1e-12),
    (10, "schroedinger_precond", r"homological_identity", 1, 1e-12),
    (10, "schroedinger_precond", r"remainder_order_le_m2", 1, -2.0),
    (10, "schroedinger_precond", r"precond_slope_s2", 1, 0.25),
    (10, "schroedinger_precond", r"preconditioned_no_loss", 1, 0.0),
    (10, "schroedinger_precond", r"baseline_loses_one", 1, 1.0),
    (10, "schroedinger_precond", r"telescoping", 1, 1e-10),
    (11, "sobolev_growth", r"growth_rho(0|m1)_l2_conservation", 2, 1e-8),
    (11, "sobolev_growth", r"growth_rhom1_exponent_s1_K(32|64)", 2, 1.0 / 2.0 + 0.1),
    (11, "sobolev_growth", r"growth_rhom1_exponent_s2_K(32|64)", 2, 2.0 / 2.0 + 0.1),
    (12, "invariants_suite", r"young_inequality_p\d_q\d_r(\d|inf)", 3, 0),
]


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """{config: (manifest gates, fits, (seed, output digest))} of one run of
    each shipped config that an acceptance criterion covers."""
    runs = {}
    for stem in sorted({config for _, config, _, _, _ in ACCEPTANCE_GATES}):
        outdir = tmp_path_factory.mktemp(stem)
        cfg = cli.load_config(CONFIGS / f"{stem}.cfg")
        cli.run(cfg, outdir)
        runs[stem] = (reporting.read_manifest(outdir)["gates"],
                      json.loads((outdir / "fits.json").read_text()),
                      (cfg.seed, seed_sweep.output_digest(str(outdir))))
    return runs


def test_cli_gates_hold_the_acceptance_bounds(shipped_runs):
    for criterion, config, pattern, count, bound in ACCEPTANCE_GATES:
        gates = shipped_runs[config][0]
        matched = {name: gate["bound"] for name, gate in gates.items()
                   if re.fullmatch(pattern, name)}
        assert len(matched) == count, (criterion, config, pattern, sorted(matched))
        assert matched == dict.fromkeys(matched, bound), (criterion, config, matched)
    # criterion 11's ratio bound is relative: max over K <= 1.2 min over K
    gates, fits, _ = shipped_runs["sobolev_growth"]
    for s in (1, 2):
        gate = gates[f"growth_rho0_ratio_stable_s{s}"]
        span = fits[f"growth_rho0_ratio_span_s{s}"]
        assert gate["bound"] == pytest.approx(1.2 * gate["measured"] / span, rel=1e-12)


def test_shipped_outputs_match_the_golden_digests(shipped_runs):
    """results.csv and fits.json of every shipped run are bit-identical to
    the digests recorded for its seed, in the environment they were recorded
    in; elsewhere the digests cannot be expected to hold."""
    golden = json.loads(GOLDEN.read_text())
    here = seed_sweep.environment()
    if here != golden["environment"]:
        pytest.skip(f"digests recorded in {golden['environment']}, "
                    f"this is {here}")
    assert len(shipped_runs) == len(golden["digests"])
    for stem, (_, _, (seed, digest)) in shipped_runs.items():
        assert digest == golden["digests"][stem][str(seed)], (stem, seed)
