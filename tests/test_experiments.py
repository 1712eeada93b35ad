"""Application studies: water waves, preconditioner, Sobolev growth."""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import subprocess
import sys
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pdmat import _lapack, cli, core, experiments, flows, operators, periodic, \
    spectral

SEED = 2718


@pytest.fixture(scope="module")
def ww_ops():
    return experiments.waterwave_assemble(experiments.waterwave_model("waterwave"), 64)


@pytest.fixture(scope="module")
def schro_model():
    return experiments.schroedinger_assemble(operators.two_cos_coeff, 32)


def ww_eye(ops):
    """The identity of a water-wave state space (xi, v): a flow applied to it
    is the flow's matrix."""
    return np.eye(2 * ops.n, dtype=complex)


def is_identity(X) -> bool:
    return np.array_equal(X, np.eye(len(X)))


def sin_coeff(k) -> complex:
    """Coefficients of sin(x): a real potential whose coefficients are not."""
    return (-0.5j if k == 1 else 0.5j) if abs(k) == 1 else 0.0


def coupling_entry_formula(ops, n_idx: int, m_idx: int) -> complex:
    """Closed-form coupling entry: gain * omega^{-1/2} at both ends, the
    topography coefficient at the index difference, and i*k factors."""
    model, block = ops.model, ops.block
    kn, km = float(n_idx), float(m_idx)
    on, om = model.dispersion(np.array([kn]))[0], model.dispersion(np.array([km]))[0]
    if on == 0.0 or om == 0.0:
        return 0.0
    bhat = model.b_coeffs(int(core.representative(block.size, n_idx - m_idx)))
    return (model.gain(np.array([kn]))[0] * on ** -0.5 * bhat *
            model.gain(np.array([km]))[0] * om ** -0.5 * (1j * kn) * (1j * km))


# ---------------------------------------------------------------------------
# water waves


def test_flat_bottom_splitting_is_exact():
    model = experiments.WaterWaveModel(1.0, lambda *k: 0.0, "b0")
    ops = experiments.waterwave_assemble(model, 32)
    assert np.max(np.abs(ops.coupling)) == 0.0
    I = ww_eye(ops)
    for scheme in (flows.LIE, flows.STRANG):
        E = flows.compose(scheme, ops.coupling_prop, ops.rotation_prop, 0.1, I) - \
            ops.exact_prop(0.1, I)
        assert np.max(np.abs(E)) < 1e-12


def test_coupling_entries_match_closed_form(ww_ops):
    idx = ww_ops.block.indices()[:, 0]
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        i, j = rng.integers(0, ww_ops.n, size=2)
        expected = coupling_entry_formula(ww_ops, int(idx[i]), int(idx[j]))
        assert ww_ops.coupling[i, j] == pytest.approx(expected, abs=1e-14)


def test_coupling_zero_mode_pinned(ww_ops):
    p0 = ww_ops.block.origin()
    assert np.max(np.abs(ww_ops.coupling[p0, :])) == 0.0
    assert np.max(np.abs(ww_ops.coupling[:, p0])) == 0.0


def test_coupling_block_is_smoothing():
    fam = []
    for K in (16, 32, 64):
        ops = experiments.waterwave_assemble(experiments.waterwave_model("waterwave"), K)
        fam.append(core.OpMatrix(ops.block, ops.coupling))
    assert core.estimate_order(fam).r_hat <= 0.0


def test_rotation_flow_is_isometry(ww_ops):
    for s in (0.5, 2.0):
        w = ww_ops.weights(s)
        for t in (0.3, 1.0):
            P = ww_ops.rotation_prop(t, ww_eye(ww_ops))
            for x in ww_ops.sampler(s, 3, SEED):
                assert np.linalg.norm(w * (P @ x)) == pytest.approx(
                    np.linalg.norm(w * x), rel=1e-12)


def test_split_steps_preserve_canonical_form(ww_ops):
    for scheme in (flows.LIE, flows.STRANG):
        P = flows.compose(scheme, ww_ops.coupling_prop, ww_ops.rotation_prop, 0.05,
                          ww_eye(ww_ops))
        assert operators.symplectic_defect(P) <= 1e-10


def test_waterwave_strang_slope_and_no_loss():
    model = experiments.waterwave_model("waterwave")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = experiments.waterwave_noloss_study(model, (32, 64), (2.0,), seed=SEED)
    assert res["slopes"][("strang", 2.0)].slope == pytest.approx(3.0, abs=0.25)
    assert res["loss"]["strang"].sigma_hat == 0.0
    assert res["b0_control"] <= 1e-12
    # no warning: in particular the propagator norm bounds are stable in K
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


def test_waterwave_rough_bottom_no_loss():
    model = experiments.waterwave_model("waterwave_rough")
    rep = flows.loss_scan([experiments.waterwave_assemble(model, K).system((flows.STRANG,))
                           for K in (32, 64, 128)], 2.0)["strang"]
    assert rep.sigma_hat == 0.0 and rep.certified


def test_stvenant_is_the_mu_zero_model():
    assert experiments.waterwave_model("waterwave_stvenant").stvenant
    assert experiments.WaterWaveModel(0.0).stvenant
    assert not experiments.WaterWaveModel(0.1).stvenant
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        experiments.WaterWaveModel(-0.1)


def test_waterwave_stvenant_warns():
    model = experiments.waterwave_model("waterwave_stvenant")
    with pytest.warns(UserWarning) as caught:
        experiments.waterwave_noloss_study(model, (16, 32), (1.0,), seed=SEED)
    assert model.order_warning() in [str(w.message) for w in caught]


def test_waterwave_study_builds_each_step_once_per_scheme(monkeypatch):
    # the table applies each step once per tau to the data; a step's matrix
    # (the step applied to the identity) is built once per level for the
    # loss scan and once per scheme at K_ref for the symplectic and energy
    # checks, and never twice
    applied, built = [], []
    system = experiments.WaterWaveOperators.system

    def counted(ops, schemes):
        split = system(ops, schemes)

        def step(name, fn):
            return lambda tau, X: (built if is_identity(X) else applied).append(
                (ops.model.label, ops.block.size, name, tau)) or fn(tau, X)
        return dataclasses.replace(split, steps={
            name: step(name, fn) for name, fn in split.steps.items()})
    monkeypatch.setattr(experiments.WaterWaveOperators, "system", counted)
    tau_list = flows.TAU_LIST
    res = experiments.waterwave_noloss_study(
        experiments.waterwave_model("waterwave"), (16, 32), (1.0, 2.0, 3.0), seed=SEED)
    assert applied == [("waterwave", 32, name, tau) for tau in tau_list
                       for name in ("lie", "strang")]
    assert len(built) == len(set(built))
    assert Counter(built) == Counter(
        [("waterwave", K, name, flows.TAU_STAR) for K in (16, 32)
         for name in ("lie", "strang")] +
        [("waterwave", 32, name, tau_list[0]) for name in ("lie", "strang")] +
        [("b0", 16, "strang", tau_list[0])])
    assert len(res["error_rows"]) == 2 * 3 * len(tau_list)


def test_waterwave_study_builds_each_exact_propagator_once(monkeypatch):
    # matrices (applications to the identity): the loss step at every K, and
    # the flat bottom's one step; applications to data: the 3 norm-check
    # times for each of the 3 s at every K, and the 7 table steps at K_ref
    applied, built = [], []
    exact_prop = experiments.WaterWaveOperators.exact_prop

    def counted(ops, t, X):
        (built if is_identity(X) else applied).append((ops.model.label, ops.block.size, t))
        return exact_prop(ops, t, X)
    monkeypatch.setattr(experiments.WaterWaveOperators, "exact_prop", counted)
    tau_list = flows.TAU_LIST
    experiments.waterwave_noloss_study(
        experiments.waterwave_model("waterwave"), (32, 64, 128), (1.0, 2.0, 3.0),
        seed=SEED)
    assert built == [("waterwave", K, flows.TAU_STAR) for K in (32, 64, 128)] + \
        [("b0", 32, tau_list[0])]
    norm_checks = [("waterwave", K, t) for K in (32, 64, 128) for _ in range(3)
                   for t in (0.25, 0.5, 1.0)]
    assert applied == norm_checks + [("waterwave", 128, tau) for tau in tau_list]


@pytest.mark.parametrize("flow", ["rotation_prop", "coupling_prop", "exact_prop"])
def test_waterwave_flow_applied_to_a_block_matches_its_matrix(ww_ops, flow):
    f = getattr(ww_ops, flow)
    X = ww_ops.sampler(1.0, 4, SEED).T
    for t in (0.0, flows.TAU_STAR, 0.5):
        Y = f(t, X)
        assert Y.shape == X.shape
        assert np.max(np.abs(Y - f(t, ww_eye(ww_ops)) @ X)) <= 1e-13 * np.max(np.abs(X))


def test_waterwave_sampler_rows_concatenate_xi_and_v_draws(ww_ops):
    out = ww_ops.sampler(2.0, 3, SEED)
    xi = core.rough_samples(ww_ops.block, 2.0, 3, SEED, zero_mean=True)
    v = core.rough_samples(ww_ops.block, 2.0, 3, SEED + 1, zero_mean=True)
    assert out.shape == (3, 2 * ww_ops.n)
    for row, a, b in zip(out, xi, v):
        np.testing.assert_array_equal(row, np.concatenate([a, b]))


def test_waterwave_energy_measured(ww_ops):
    x = ww_ops.sampler(2.0, 1, SEED)[0]
    e0 = ww_ops.energy(x)
    assert math.isfinite(e0) and e0 > 0
    exact = ww_ops.exact_prop(0.5, ww_eye(ww_ops))
    assert ww_ops.energy(exact @ x) == pytest.approx(e0, rel=1e-8)


@pytest.mark.parametrize("K", [32, 64])
@pytest.mark.parametrize("probe", ["waterwave", "waterwave_mu01",
                                   "waterwave_rough", "waterwave_stvenant"])
def test_waterwave_exact_prop_matches_dense_expm(probe, K):
    _assert_exact_prop_matches_expm(
        experiments.waterwave_assemble(experiments.waterwave_model(probe), K))


def _assert_exact_prop_matches_expm(ops, dtype=complex):
    G = ops.generator()
    for t in (flows.TAU_STAR, 0.1, 0.5, 1.0):
        ref = scipy.linalg.expm(t * G)
        err = np.max(np.abs(ops.exact_prop(t, np.eye(2 * ops.n, dtype=dtype)) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))


def test_waterwave_exact_prop_reuses_one_eigendecomposition(monkeypatch):
    ops = experiments.waterwave_assemble(experiments.waterwave_model("waterwave"), 16)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    I = ww_eye(ops)
    first = ops.exact_prop(0.01, I)
    for t in (0.01, 0.02, 0.04):
        ops.exact_prop(t, I)
    assert len(calls) == 1
    assert np.array_equal(ops.exact_prop(0.01, I), first)


def _with_coupling(ops, coupling):
    return experiments.WaterWaveOperators(ops.model, ops.block, ops.omega, coupling)


def test_waterwave_exact_prop_rejects_non_hermitian_coupling(ww_ops):
    C = ww_ops.coupling.copy()
    C[1, 2] += 1e-6
    with pytest.raises(ValueError, match="waterwave: coupling is not Hermitian"):
        _with_coupling(ww_ops, C).exact_prop(0.1, ww_eye(ww_ops))


def test_waterwave_exact_prop_rejects_coupling_on_zero_mode(ww_ops):
    C = ww_ops.coupling.copy()
    p0 = ww_ops.block.origin()
    C[p0, 1] = C[1, p0] = 0.5
    with pytest.raises(ValueError, match="waterwave: coupling reaches a mode "
                                         r"with omega = 0 \(max entry 0.5\)"):
        _with_coupling(ww_ops, C).exact_prop(0.1, ww_eye(ww_ops))


@pytest.mark.parametrize("model", [
    # a constant bottom b = 10 makes omega + coupling negative at |k| = 1
    experiments.WaterWaveModel(1.0, lambda *k: 10.0 if k[0] == 0 else 0.0,
                               "constant_bottom"),
    experiments.waterwave_model("waterwave_rough", seed=4),
], ids=["constant_bottom", "rough_seed4"])
def test_waterwave_exact_prop_with_indefinite_energy_matches_dense_expm(model):
    ops = experiments.waterwave_assemble(model, 32)
    mu = ops.normal_modes[1]
    assert np.min((mu ** 2).real) < 0
    _assert_exact_prop_matches_expm(ops)


# a non-even bottom b = sin x: its multiplication matrix, coupling and
# normal-mode factor V are complex Hermitian, where an even bottom's are real
SIN_BOTTOM = experiments.WaterWaveModel(1.0, sin_coeff, "sin_bottom")


@pytest.mark.parametrize("model, dtype", [
    (experiments.waterwave_model("waterwave"), np.float64),
    (experiments.waterwave_model("waterwave_rough"), np.float64),
    (experiments.WaterWaveModel(1.0, lambda *k: 0.0, "b0"), np.float64),
    (SIN_BOTTOM, np.complex128),
], ids=["cos", "rough", "flat", "sin"])
def test_coupling_is_the_complex_product_of_deriv_mult_deriv(model, dtype):
    ops = experiments.waterwave_assemble(model, 32)
    assert ops.coupling.dtype == dtype
    # the derivative diagonal i k gain omega^{-1/2} (0 where omega is) and
    # the topography multiplication matrix
    k = ops.block.indices()[:, 0].astype(float)
    inv_sqrt = np.zeros_like(ops.omega)
    inv_sqrt[ops.omega > 0] = ops.omega[ops.omega > 0] ** -0.5
    d = 1j * (k * model.gain(k) * inv_sqrt)
    M = spectral.mult_matrix_from_coeffs(model.b_coeffs, 32).entries
    assert M.imag.any() == (dtype is np.complex128)
    np.testing.assert_array_equal(ops.coupling, (d[:, None] * M) * d[None, :])


@pytest.mark.parametrize("dtype", [float, complex])
def test_waterwave_exact_prop_on_a_non_even_bottom_matches_dense_expm(dtype):
    ops = experiments.waterwave_assemble(SIN_BOTTOM, 32)
    assert np.iscomplexobj(ops.normal_modes[2])
    _assert_exact_prop_matches_expm(ops, dtype)


def test_waterwave_steps_of_an_even_bottom_stay_real(ww_ops):
    eye = np.eye(2 * ww_ops.n)
    for name, step in ww_ops.system((flows.LIE, flows.STRANG)).steps.items():
        assert step(flows.TAU_LIST[0], eye).dtype == np.float64, name
    assert ww_ops.exact_prop(0.1, eye).dtype == np.float64


# ---------------------------------------------------------------------------
# preconditioner


def test_zero_potential_gives_trivial_transformation():
    model = experiments.schroedinger_assemble(lambda *k: 0.0, 8)
    assert np.max(np.abs(model.X.entries)) == 0.0
    assert np.max(np.abs(model.Z.entries)) == 0.0
    assert np.max(np.abs(model.R.entries)) < 1e-12


def test_change_of_variable_entry_hand_check(schro_model):
    # V = 2cos x: entry (1, 2) is V_hat(-1) / (i (1 - 4)) = i/3
    p1, _ = core._positions(schro_model.block, [[1]])
    p2, _ = core._positions(schro_model.block, [[2]])
    assert schro_model.X.entries[p1[0], p2[0]] == pytest.approx(1j / 3, abs=1e-15)
    assert core.is_hermitian(schro_model.X)
    idx = schro_model.block.indices()[:, 0]
    resonant = np.abs(idx[:, None]) == np.abs(idx[None, :])
    assert np.max(np.abs(np.where(resonant, schro_model.X.entries, 0.0))) == 0.0


def test_homological_identity(schro_model):
    assert experiments.homological_defect(schro_model) <= 1e-12 * 32 ** 2


def test_resonant_part_structure():
    model = experiments.schroedinger_assemble(operators.exp_decay_coeff, 8)
    idx = model.block.indices()[:, 0]
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            if m == n or m == -n:
                assert model.Z.entries[i, j] == model.B.entries[i, j]
            else:
                assert model.Z.entries[i, j] == 0.0
    assert core.is_hermitian(model.Z)


def loop_change_of_variable(model):
    """(X, Z) entry by entry: B / (i(m^2 - n^2)) off the resonant pairs
    m = +-n, B on them."""
    idx = model.block.indices()[:, 0]
    n = model.block.n
    X = np.zeros((n, n), dtype=complex)
    Z = np.zeros((n, n), dtype=complex)
    for i, m in enumerate(idx):
        for j, nn in enumerate(idx):
            if m == nn or m == -nn:
                Z[i, j] = model.B.entries[i, j]
            else:
                X[i, j] = model.B.entries[i, j] / (1j * float(m * m - nn * nn))
    return X, Z


def per_pair_resonant_flow(model, tau):
    """e^{i tau (A + Z)} from one Hermitian eigendecomposition per resonant
    block: the origin alone, then each pair {-m, m}."""
    H = (model.A + model.Z).entries
    radius = model.block.size
    out = np.zeros((model.block.n, model.block.n), dtype=complex)
    pairs = [[model.block.origin()]]
    for m in range(1, radius + 1):
        pairs.append([core._positions(model.block, [[-m]])[0][0],
                      core._positions(model.block, [[m]])[0][0]])
    for positions in pairs:
        w, V = np.linalg.eigh(H[np.ix_(positions, positions)])
        out[np.ix_(positions, positions)] = (V * np.exp(1j * tau * w)) @ V.conj().T
    return out


@pytest.mark.parametrize("radius", [8, 32])
@pytest.mark.parametrize("potential", [operators.two_cos_coeff, sin_coeff,
                                       operators.exp_decay_coeff],
                         ids=["two_cos", "sin", "exp_decay"])
def test_change_of_variable_matches_entry_loop(potential, radius):
    model = experiments.schroedinger_assemble(potential, radius)
    X, Z = loop_change_of_variable(model)
    assert np.array_equal(model.X.entries, X)
    assert np.array_equal(model.Z.entries, Z)


@pytest.mark.parametrize("radius", [8, 32])
@pytest.mark.parametrize("potential", ["two_cos", "exp_decay"])
def test_change_of_variable_exponentials_match_expm(potential, radius):
    # two_cos makes X tridiagonal (real factor, shared cos and sin products);
    # exp_decay makes it dense
    model = experiments.schroedinger_assemble(
        getattr(operators, f"{potential}_coeff"), radius)
    X = model.X.entries
    for sign, got in ((1, model.exp_x_plus), (-1, model.exp_x_minus)):
        assert np.max(np.abs(got - scipy.linalg.expm(sign * 1j * X))) <= 1e-14


def complex_change_of_variable(model):
    """(e^{iX}, e^{-iX}, R) as complex matrices, built from the tridiagonal
    factor of X the way a complex B builds them: (p p^H) * (C +- iS), then
    e^{iX} H e^{-iX} - A - Z mirrored from its lower triangle to exact
    Hermitian symmetry with a real diagonal."""
    w, V, p = flows.hermitian_eigh(model.X.entries)
    C, S = (V * np.cos(w)) @ V.T, (V * np.sin(w)) @ V.T
    phases = np.outer(p, p.conj())
    plus, minus = phases * (C + 1j * S), phases * (C - 1j * S)
    R = plus @ model.H.entries @ minus - model.A.entries - model.Z.entries
    lower = np.tri(model.block.n, k=-1, dtype=bool)
    R.T[lower] = R[lower].conj()
    np.fill_diagonal(R.imag, 0.0)
    return plus, minus, R


@pytest.mark.parametrize("radius", [4, 8, 16, 32, 64, 128])
def test_even_potential_change_of_variable_is_a_real_rotation(radius):
    # 2cos x: every entry of p p^H is real or imaginary, so the float64
    # e^{iX} is the real part of the complex construction bit for bit
    model = experiments.schroedinger_assemble(operators.two_cos_coeff, radius)
    E = model.exp_x_plus
    assert E.dtype == np.float64
    assert np.array_equal(E, complex_change_of_variable(model)[0].real)
    assert np.max(np.abs(E @ E.T - np.eye(model.block.n))) <= 1e-13
    assert np.array_equal(model.exp_x_minus, E.T)
    R = model.R.entries
    assert R.dtype == np.float64 and np.array_equal(R, R.T)


@pytest.mark.parametrize("radius", [4, 32, 128])
def test_odd_potential_keeps_the_complex_change_of_variable(radius):
    # sin x has imaginary coefficients, so B and e^{+-iX} stay complex
    model = experiments.schroedinger_assemble(sin_coeff, radius)
    plus, minus, R = complex_change_of_variable(model)
    for got, want in ((model.exp_x_plus, plus), (model.exp_x_minus, minus),
                      (model.R.entries, R)):
        assert got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("potential, tol", [("two_cos", 0.0), ("exp_decay", 1e-12)])
def test_block_diag_prop_matches_per_pair_flow(potential, tol):
    # exp_decay has even modes, so its resonant pairs are genuine 2x2 blocks
    model = experiments.schroedinger_assemble(
        getattr(operators, f"{potential}_coeff"), 8)
    for tau in (0.03, 0.5):
        err = np.max(np.abs(flows.exact_flow(model.resonant, tau, np.eye(model.block.n))
                            - per_pair_resonant_flow(model, tau)))
        assert err <= tol


@pytest.mark.parametrize("potential, radius", [("two_cos", 96), ("exp_decay", 64)])
def test_remainder_flow_at_large_radius(potential, radius):
    # the conjugation's roundoff grows like eps M^2, past the Hermitian scan's
    # tolerance relative to |R| ~ 1
    model = experiments.schroedinger_assemble(
        getattr(operators, f"{potential}_coeff"), radius)
    assert core.is_hermitian(model.R)
    flows.exact_flow(model.R, 0.01, np.eye(model.block.n))


def test_remainder_is_two_smoothing():
    assemble = partial(experiments.schroedinger_assemble, operators.two_cos_coeff)
    fam = experiments.smoothing_remainder_family(assemble, (16, 32, 64))
    assert core.estimate_order(fam).r_hat <= -2.0


def test_telescoping_identity(schro_model):
    assert experiments.telescoping_defect(schro_model) <= 1e-10


def test_preconditioned_study_assembles_each_radius_once(monkeypatch):
    built = []
    assemble = experiments.schroedinger_assemble

    def counting(v_coeffs, radius):
        built.append(radius)
        return assemble(v_coeffs, radius)
    monkeypatch.setattr(experiments, "schroedinger_assemble", counting)
    experiments.preconditioned_lie_study((2.0,), (8, 12, 16), seed=SEED)
    # M_ref, then the margin-2 remainder radii, then the remaining level
    assert built == [16, 24, 32, 8, 12]


def test_preconditioned_study_orders_and_loss():
    res = experiments.preconditioned_lie_study((2.0,), (16, 32, 64), seed=SEED)
    assert res["slopes"][2.0].slope == pytest.approx(2.0, abs=0.25)
    assert res["loss_preconditioned"].sigma_hat == 0.0
    assert res["loss_baseline"].sigma_hat == 1.0
    assert res["remainder_order"] <= -2.0


def test_complex_potential_rejected():
    # sin has conjugate-even coefficients (a real potential) and must pass;
    # a genuinely complex potential must not
    experiments.schroedinger_assemble(sin_coeff, 8)
    bad = lambda *k: 1j * operators.cos_coeff(*k)
    with pytest.raises(ValueError):
        experiments.schroedinger_assemble(bad, 8)


# the study's flows: of H, of the resonant generator A + Z, of the remainder R,
# and the preconditioned step
@pytest.mark.parametrize("flow", ["exact_prop", "block_diag_prop",
                                  "smoothing_prop", "preconditioned_prop"])
def test_schroedinger_flow_applied_to_a_block_matches_its_matrix(schro_model, flow):
    f = {"exact_prop": partial(flows.exact_flow, schro_model.H),
         "block_diag_prop": partial(flows.exact_flow, schro_model.resonant),
         "smoothing_prop": partial(flows.exact_flow, schro_model.R),
         "preconditioned_prop": schro_model.preconditioned_prop}[flow]
    X = core.rough_samples(schro_model.block, 1.0, 4, SEED).T
    for tau in (0.0, flows.TAU_STAR, 0.5):
        Y = f(tau, X)
        assert Y.shape == X.shape
        P = f(tau, np.eye(schro_model.block.n))
        assert np.max(np.abs(Y - P @ X)) <= 1e-13 * np.max(np.abs(X))


def test_exact_prop_reuses_one_eigendecomposition():
    model = experiments.schroedinger_assemble(operators.two_cos_coeff, 8)
    misses = flows._eigh_cached.cache_info().misses
    I = np.eye(model.block.n)
    first = flows.exact_flow(model.H, 0.01, I)
    for tau in (0.01, 0.02, 0.04):
        flows.exact_flow(model.H, tau, I)
    assert flows._eigh_cached.cache_info().misses == misses + 1
    assert np.array_equal(flows.exact_flow(model.H, 0.01, I), first)


# ---------------------------------------------------------------------------
# growth study


def test_diagonal_only_growth_is_isometric():
    model = experiments.GrowthModel(rho=0.0, label="free")
    model.perturbation_base = lambda block: np.zeros((block.n, block.n))
    res, = experiments.sobolev_growth_study([(model, (16,))], 5.0, (1.0,),
                                            seed=SEED)
    assert res["ratio"][(1.0, 16)] <= 1.0 + 1e-12
    assert res["conservation"][16] <= 1e-10


def _dense_growth(model, period, horizon, s_list, delta, x0):
    """The dense complex step: eigh(diag(phi) + cos(t_mid) base) per step."""
    block = core.periodic_block(1, period)
    phi = np.array([model.phi(float(k)) for k in block.indices()[:, 0]])
    base = model.perturbation_base(block)
    weights = {s: core.sobolev_weights(block, s) for s in s_list}
    x = np.asarray(x0, dtype=complex)
    norms = {s: [np.linalg.norm(weights[s] * x)] for s in s_list}
    for j in range(int(round(horizon / delta))):
        w, V = np.linalg.eigh(np.diag(phi) + math.cos((j + 0.5) * delta) * base)
        x = (V * np.exp(1j * delta * w)) @ (V.conj().T @ x)
        for s in s_list:
            norms[s].append(np.linalg.norm(weights[s] * x))
    return x, {s: np.array(v) for s, v in norms.items()}


@pytest.mark.parametrize("probe", ["growth_rho0", "growth_rhom1"])
@pytest.mark.parametrize("period", [16, 32, 64])
def test_parity_step_matches_dense_eigh(probe, period):
    model = experiments.growth_model(probe)
    x0 = core.rough_samples(core.periodic_block(1, period), 2.0, 1, SEED)[0]
    s_list = (0.0, 1.0, 2.0)
    tr = experiments.growth_trajectory(model, period, 2.0, s_list, 0.01, SEED,
                                       x0=x0)
    x, norms = _dense_growth(model, period, 2.0, s_list, 0.01, x0)
    assert len(tr["times"]) == 201
    assert np.linalg.norm(tr["final_state"] - x) <= 1e-12 * np.linalg.norm(x)
    for s in s_list:
        assert np.all(np.abs(tr["norms"][s] - norms[s]) <= 1e-12 * norms[s])


def _eigh_tridiagonal_growth(model, period, horizon, s_list, delta, x0):
    """The parity step through scipy.linalg.eigh_tridiagonal and
    np.linalg.norm: the bit-exact oracle of growth_trajectory's direct
    LAPACK stevd call and in-place norms."""
    block = core.periodic_block(1, period)
    Q, cols = experiments._parity_basis(block)
    phi = np.array([model.phi(float(k)) for k in block.indices()[:, 0]])
    D = Q.T @ (phi[:, None] * Q)
    T = Q.T @ model.perturbation_base(block).real @ Q
    x = np.asarray(x0, dtype=complex)
    y = Q.T @ np.column_stack([x.real, x.imag])
    a, b, e = np.diag(D), np.diag(T), np.diag(T, -1)
    weights = {s: core.sobolev_weights(block, s)[cols, None] for s in s_list}
    times = [0.0]
    norms = {s: [float(np.linalg.norm(weights[s] * y))] for s in s_list}
    for j in range(int(round(horizon / delta))):
        c = math.cos((j + 0.5) * delta)
        w, V = scipy.linalg.eigh_tridiagonal(a + c * b, c * e)
        y = V @ (np.exp(1j * delta * w)[:, None] * (V.T @ y).view(complex)).view(float)
        times.append((j + 1) * delta)
        for s in s_list:
            norms[s].append(float(np.linalg.norm(weights[s] * y)))
    return {"times": np.array(times),
            "norms": {s: np.array(v) for s, v in norms.items()},
            "final_state": (Q @ y).view(complex).ravel()}


@pytest.mark.parametrize("probe", ["growth_rho0", "growth_rhom1"])
@pytest.mark.parametrize("period", [16, 32, 64])
@pytest.mark.parametrize("delta", [0.01, 0.005])
def test_growth_step_bit_identical_to_eigh_tridiagonal(probe, period, delta):
    model = experiments.growth_model(probe)
    x0 = core.rough_samples(core.periodic_block(1, period), 2.0, 1, SEED)[0]
    s_list = (0.0, 1.0, 2.0)
    tr = experiments.growth_trajectory(model, period, 0.5, s_list, delta, SEED,
                                       x0=x0)
    ref = _eigh_tridiagonal_growth(model, period, 0.5, s_list, delta, x0)
    assert np.array_equal(tr["times"], ref["times"])
    assert list(tr["norms"]) == list(s_list)
    for s in s_list:
        assert tr["norms"][s].dtype == np.float64
        assert np.array_equal(tr["norms"][s], ref["norms"][s])
    assert np.array_equal(tr["final_state"], ref["final_state"])


def test_growth_step_failure_raises_linalg_error(monkeypatch):
    monkeypatch.setattr(_lapack, "DSTEVD", lambda *args: 1)     # info 1
    with pytest.raises(np.linalg.LinAlgError, match="step 0"):
        experiments.growth_trajectory(experiments.growth_model("growth_rho0"),
                                      16, 0.1, (0.0,), 0.01, SEED)


def test_growth_rejects_structure_it_cannot_step():
    odd_phi = experiments.GrowthModel(phi=lambda x: x ** 3, label="cubic")
    with pytest.raises(ValueError, match="phi is not even"):
        experiments.growth_trajectory(odd_phi, 16, 0.1, (0.0,), 0.01, SEED)
    wide = experiments.GrowthModel(label="wide")
    wide.perturbation_base = lambda block: \
        np.roll(np.eye(block.n), 2, 1) + np.roll(np.eye(block.n), -2, 1)
    with pytest.raises(ValueError, match="not tridiagonal"):
        experiments.growth_trajectory(wide, 16, 0.1, (0.0,), 0.01, SEED)
    imaginary = experiments.GrowthModel(label="imaginary")
    imaginary.perturbation_base = lambda block: 1j * np.eye(block.n)
    with pytest.raises(ValueError, match="not real"):
        experiments.growth_trajectory(imaginary, 16, 0.1, (0.0,), 0.01, SEED)
    not_finite = experiments.GrowthModel(
        phi=lambda x: math.nan if abs(x) == 5 else x * x, label="nan_at_5")
    with pytest.raises(ValueError, match="nan_at_5: .* not finite"):
        experiments.growth_trajectory(not_finite, 16, 0.1, (0.0,), 0.01, SEED)


def test_growth_rho0_bounded_and_conservative():
    model = experiments.growth_model("growth_rho0")
    res, = experiments.sobolev_growth_study([(model, (16, 32))], 10.0,
                                            (1.0, 2.0), seed=SEED)
    assert all(v <= 1e-8 for v in res["conservation"].values())
    for s in (1.0, 2.0):
        c16 = res["ratio"][(s, 16)]
        c32 = res["ratio"][(s, 32)]
        assert max(c16, c32) <= 1.2 * min(c16, c32) * 1.2
    assert res["richardson"] < 1e-4


def test_growth_rhom1_exponent_bounded():
    model = experiments.growth_model("growth_rhom1")
    res, = experiments.sobolev_growth_study([(model, (32,))], 20.0,
                                            (1.0, 2.0), seed=SEED)
    for s in (1.0, 2.0):
        assert res["exponent"][(s, 32)] <= s / 2.0 + 0.1


# ---------------------------------------------------------------------------
# the growth pool


@pytest.fixture
def cores(monkeypatch):
    """Sets the core count the growth pool is sized by."""
    return lambda n: monkeypatch.setattr(experiments, "_usable_cores", lambda: n)


def test_growth_pool_matches_serial_bit_for_bit(cores):
    model = experiments.growth_model("growth_rho0")
    jobs = [(model, K, 1.0, [0.0, 1.0], 0.01, SEED + K) for K in (16, 32)]
    trajs, studies = {}, {}
    for n in (2, 1):
        cores(n)
        trajs[n] = experiments._trajectories(jobs)
        studies[n], = experiments.sobolev_growth_study(
            [(model, (16, 32))], 4.0, (1.0, 2.0), seed=SEED)
    for pooled, serial in zip(trajs[2], trajs[1]):
        assert np.array_equal(pooled["times"], serial["times"])
        assert np.array_equal(pooled["final_state"], serial["final_state"])
        for s in (0.0, 1.0):
            assert np.array_equal(pooled["norms"][s], serial["norms"][s])
    assert "richardson" in studies[2]
    assert studies[2] == studies[1]


def test_growth_pool_runs_lambdas_it_never_pickles(cores, monkeypatch):
    """An instance-attribute lambda cannot be pickled, so the model reaches
    the children only through fork; the trajectories come back from them."""
    model = experiments.GrowthModel(rho=0.0, label="free")
    model.perturbation_base = lambda block: np.zeros((block.n, block.n))
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        pickle.dumps(model)
    trajectory = experiments.growth_trajectory
    monkeypatch.setattr(experiments, "growth_trajectory", lambda *args: {
        **trajectory(*args), "pid": os.getpid()})
    cores(2)
    out = experiments._trajectories([(model, K, 1.0, [0.0, 1.0], 0.01, SEED)
                                     for K in (16, 32, 64)])
    assert os.getpid() not in {tr["pid"] for tr in out}
    for tr in out:
        assert np.max(np.abs(tr["norms"][1.0] / tr["norms"][1.0][0] - 1)) <= 1e-12


@pytest.mark.skipif(_lapack.DSTEVD is None, reason="numpy's library has no dstevd")
def test_growth_step_failure_in_a_pool_child_raises_linalg_error(cores,
                                                                 monkeypatch):
    # info 1 for the K = 32 tridiagonals (n is DSTEVD's third argument)
    dstevd = _lapack.DSTEVD
    monkeypatch.setattr(_lapack, "DSTEVD", lambda *args: 1 if args[2] == 32
                        else dstevd(*args))
    cores(2)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"growth_rho0: stevd failed at step 0 \(info 1\)"):
        experiments.sobolev_growth_study(
            [(experiments.growth_model("growth_rho0"), (16, 32))], 2.0, (1.0,),
            seed=SEED)


def test_growth_studies_in_one_pool_match_each_study_alone(cores):
    studies = [(experiments.growth_model("growth_rho0"), (16, 32)),
               (experiments.growth_model("growth_rhom1"), (16,))]
    results = {}
    for n in (2, 1):
        cores(n)
        together = experiments.sobolev_growth_study(studies, 4.0, (1.0, 2.0),
                                                    seed=SEED)
        alone = [experiments.sobolev_growth_study([study], 4.0, (1.0, 2.0),
                                                  seed=SEED)[0]
                 for study in studies]
        assert together == alone
        assert "richardson" in together[0] and "richardson" in together[1]
        results[n] = together
    assert results[2] == results[1]


def test_growth_runner_makes_one_trajectories_call(monkeypatch):
    calls = []
    trajectories = experiments._trajectories
    monkeypatch.setattr(experiments, "_trajectories",
                        lambda jobs: calls.append(len(jobs)) or trajectories(jobs))
    cfg = cli.parse_config('experiment = "sobolev_growth"\nK_list = [32, 64]\n'
                           'horizon = 2.0\n')
    rows, _, gates = cli.run_sobolev_growth(cfg)
    # per probe: both periods plus the Richardson pair
    assert calls == [8]
    assert {r["probe"] for r in rows} == {"growth_rho0", "growth_rhom1"}
    assert all(g["ok"] for g in gates.values())


FORK_AFTER_BLAS = """
import numpy as np
from pdmat import experiments
a = np.random.default_rng(0).standard_normal((512, 512))
a @ a
experiments._usable_cores = lambda: 2
res, = experiments.sobolev_growth_study(
    [(experiments.growth_model("growth_rho0"), (16, 32))], 2.0, (1.0,), seed=1)
print(res["richardson"])
"""


def test_growth_pool_forks_after_blas_threads_start():
    # pdmat's default is one BLAS thread; a caller's count of 2 starts helpers
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", FORK_AFTER_BLAS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert 0.0 < float(done.stdout) < 1e-4


def test_validity_horizon():
    assert experiments.growth_model("growth_rho0").validity_horizon(32) == 32.0
    assert experiments.growth_model("growth_rhom1").validity_horizon(32) == 1024.0


def test_probe_registry():
    # every probe of a table builds its family's model from the table's values
    for name, (_, mu, rough) in experiments.WATERWAVE_PROBES.items():
        model = experiments.waterwave_model(name)
        assert (model.label, model.mu) == (name, mu)
        assert (model.b_coeffs is operators.cos_coeff) != rough
    for name, (_, rho, periods) in experiments.GROWTH_PROBES.items():
        model = experiments.growth_model(name)
        assert (model.label, model.rho) == (name, rho)
        assert periods is None or (isinstance(periods, int) and periods >= 1)
    assert not set(experiments.WATERWAVE_PROBES) & set(experiments.GROWTH_PROBES)
    assert experiments.waterwave_model("waterwave").mu == 1.0
    with pytest.raises(KeyError):
        experiments.waterwave_model("nope")
    with pytest.raises(KeyError):
        experiments.growth_model("nope")
