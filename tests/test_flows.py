"""Propagators, splitting steps, order fits, and the loss estimator."""

from __future__ import annotations

import ast
import inspect
import math
from dataclasses import replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from pdmat import _lapack, core, experiments, flows, operators, periodic, spectral
from pdmat.core import OpMatrix, periodic_block, truncated_block

SEED = 31415
# the triple jump: three Strang steps with the standard real weights, order 4
GAMMA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))


def triple_jump(a, b, tau, X):
    """The triple jump of the sub-flows a and b applied to the block X: Strang
    steps of size g tau for g = GAMMA, 1 - 2 GAMMA, GAMMA, in that order."""
    for g in (GAMMA, 1.0 - 2.0 * GAMMA, GAMMA):
        X = flows.compose(flows.STRANG, a, b, g * tau, X)
    return X


def triple_jump_step(A, B, tau, X):
    """The triple jump of the exact flows of the generators A and B."""
    return triple_jump(partial(flows.exact_flow, A), partial(flows.exact_flow, B),
                       tau, X)


def schrodinger_pair(M):
    block = truncated_block(1, M)
    A = operators.fourier_multiplier(lambda x: x * x, block)
    B = operators.toeplitz_potential(operators.two_cos_coeff, block)
    return A, B


def unitarity_defect(P):
    return float(np.max(np.abs(P @ P.conj().T - np.eye(P.shape[0]))))


def eye(n):
    """The identity of an n-dimensional state space: a flow applied to it is
    the flow's matrix."""
    return np.eye(n, dtype=complex)


def random_hermitian(block, rng, scale):
    X = rng.standard_normal((block.n, block.n)) + \
        1j * rng.standard_normal((block.n, block.n))
    H = (X + X.conj().T) / 2
    return OpMatrix(block, scale * H / np.linalg.norm(H, 2))


def random_tridiagonal(rng, n, zeros):
    """A Hermitian tridiagonal matrix with a diagonal of scale n^2 and
    complex subdiagonal entries, each exactly 0 with probability zeros."""
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    off[rng.random(n - 1) < zeros] = 0.0
    H = np.diag(n * n * rng.uniform(-1.0, 1.0, n)).astype(complex)
    H += np.diag(off, -1) + np.diag(off.conj(), 1)
    return H


def block_of(n):
    """A block with n points: truncated for odd n, periodic for even n."""
    return truncated_block(1, n // 2) if n % 2 else periodic_block(1, n)


# ---------------------------------------------------------------------------
# exact flows


def test_exact_flow_identity_at_zero():
    A, _ = schrodinger_pair(8)
    P = flows.exact_flow(A, 0.0, eye(A.block.n))
    assert np.max(np.abs(P - np.eye(A.block.n))) == 0.0


def test_exact_flow_diagonal_signs_at_pi():
    A, _ = schrodinger_pair(8)
    P = flows.exact_flow(A, math.pi, eye(A.block.n))
    diag = np.diag(P)
    np.testing.assert_allclose(np.abs(diag), 1.0, atol=1e-14)
    idx = A.block.indices()[:, 0]
    expected = np.exp(1j * math.pi * idx.astype(float) ** 2)
    np.testing.assert_allclose(diag, expected, atol=1e-12)


def test_exact_flow_unitary_for_hermitian_sum():
    A, B = schrodinger_pair(16)
    for t in (0.1, 0.5, 1.0):
        P = flows.exact_flow(A + B, t, eye(A.block.n))
        assert unitarity_defect(P) <= 1e-10
        x = core.rough_samples(A.block, 1.0, 1, SEED)[0]
        assert np.linalg.norm(P @ x) == pytest.approx(np.linalg.norm(x), rel=1e-10)


def test_exact_flow_nearly_diagonal_hermitian_keeps_off_diagonal():
    # off-diagonal entries at about 3e-13 of the largest entry pass the
    # default diagonal scan; the flow must still come from the eigenvectors,
    # since the entrywise exponential misses the dense oracle by more than
    # the tolerance
    block = truncated_block(1, 8)
    rng = np.random.default_rng(7)
    d = np.diag(rng.uniform(1.0, 10.0, block.n))
    G = OpMatrix(block, d + random_hermitian(block, rng, 1e-11).entries)
    assert core.is_diagonal(G, 1e-12)
    for t in (1.0, 10.0):
        ref = scipy.linalg.expm(1j * t * G.entries)
        assert np.max(np.abs(flows.exact_flow(G, t, eye(block.n)) - ref)) <= 1e-12
        entrywise = np.diag(np.exp(1j * t * np.diag(G.entries)))
        assert np.max(np.abs(entrywise - ref)) > 1e-12


def test_exact_flow_scans_each_generator_once(monkeypatch):
    scans, scan = [], OpMatrix.exactly_diagonal.func

    def counted(A):
        scans.append(A)
        return scan(A)

    prop = cached_property(counted)
    prop.__set_name__(OpMatrix, "exactly_diagonal")
    monkeypatch.setattr(OpMatrix, "exactly_diagonal", prop)
    A, B = schrodinger_pair(8)
    I = eye(A.block.n)
    for G in (A, A + B):
        first = flows.exact_flow(G, 0.3, I)
        for t in (0.1, 0.2, 0.3):
            flows.exact_flow(G, t, I)
        assert np.array_equal(flows.exact_flow(G, 0.3, I), first)
    assert [G.exactly_diagonal for G in scans] == [True, False]
    assert len(scans) == 2


def test_exact_flow_rejects_non_hermitian_generator():
    block = truncated_block(1, 8)
    shear = np.diag(np.arange(block.n, dtype=complex))
    shear[0, 1] = 1.0
    with pytest.raises(ValueError, match=r"Hermitian scan: n = 17, relative "
                                         r"defect 0\.0625 > tolerance 1e-12"):
        flows.exact_flow(OpMatrix(block, shear), 0.1, eye(block.n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 31 - 1),
       zeros=st.sampled_from((0.0, 0.2, 0.5)), t=st.sampled_from((0.05, 1.0, 10.0)))
def test_tridiagonal_factor_matches_dense_eigh(n, seed, zeros, t):
    # the dense complex eigh is the oracle of the stevd factor: the
    # reconstruction and the eigenvalues within 8n eps max|H|, and the flow,
    # its matrix Factor.exp and that matrix applied to X within
    # 8n eps (1 + t max|H|) of the dense formula
    rng = np.random.default_rng(seed)
    H = random_tridiagonal(rng, n, zeros)
    hmax = float(np.max(np.abs(H)))
    eps = np.finfo(float).eps
    factor = flows.hermitian_eigh(H)
    w, V, p = factor
    wd, Vd = np.linalg.eigh(H)
    assert (p is None) == (n < 3)
    if p is not None:
        assert V.dtype == np.float64 and np.all(np.abs(np.abs(p) - 1.0) <= 8 * n * eps)
        V = p[:, None] * V
    assert np.max(np.abs((V * w) @ V.conj().T - H)) <= 8 * n * eps * hmax
    assert np.max(np.abs(w - wd)) <= 8 * n * eps * hmax
    tol = 8 * n * eps * (1.0 + t * hmax)
    assert np.max(np.abs(factor.exp(t) - (Vd * np.exp(1j * t * wd)) @ Vd.conj().T)) \
        <= tol
    if n < 3:
        return
    X = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    dense = (Vd * np.exp(1j * t * wd)) @ (Vd.conj().T @ X)
    got = flows.exact_flow(OpMatrix(block_of(n), H), t, X)
    assert np.max(np.abs(got - dense)) <= tol * np.max(np.abs(X))
    assert np.max(np.abs(factor.apply(t, X) - factor.exp(t) @ X)) <= \
        tol * np.max(np.abs(X))


def test_hermitian_eigh_factors_a_wider_band_densely():
    # one entry two below the diagonal takes the dense path; stevd would
    # read only the tridiagonal part
    rng = np.random.default_rng(SEED)
    for n in (3, 4, 17):
        H = random_tridiagonal(rng, n, 0.0)
        H[2, 0] = 0.5 - 0.25j
        H[0, 2] = np.conj(H[2, 0])
        w, V, p = flows.hermitian_eigh(H)
        assert p is None
        assert np.max(np.abs((V * w) @ V.conj().T - H)) <= 1e-12 * np.max(np.abs(H))


def test_tridiagonal_generator_caches_a_real_factor():
    A, B = schrodinger_pair(64)
    w, V, p = flows._eigh_cached(A + B)
    assert V.dtype == np.float64 and V.shape == (129, 129)
    assert p.dtype == complex and w.dtype == np.float64


def test_tridiagonal_factor_failure_raises_linalg_error(monkeypatch):
    monkeypatch.setattr(_lapack, "DSTEVD", lambda *args: 1)     # info 1
    A, B = schrodinger_pair(8)
    with pytest.raises(np.linalg.LinAlgError, match=r"stevd failed \(info 1\)"):
        flows.exact_flow(A + B, 0.1, np.eye(A.block.n, dtype=complex))


def test_factor_tridiagonal_is_the_one_lapack_resolver():
    # src/pdmat calls _lapack.stevd once, in Factor.tridiagonal, and the
    # DSTEVD handle once, in _lapack.stevd; nothing looks LAPACK up elsewhere
    def calls(name):
        return [(path.name, node.lineno)
                for path in sorted(Path(flows.__file__).parent.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    for name, caller in (("stevd", flows.Factor.tridiagonal), ("DSTEVD", _lapack.stevd)):
        body, start = inspect.getsourcelines(caller)
        (path, line), = calls(name)
        assert path == Path(inspect.getsourcefile(caller)).name
        assert start <= line < start + len(body)
    assert calls("get_lapack_funcs") == []


def test_tridiagonal_factor_leaves_its_arguments_unchanged():
    # dstevd overwrites d and e, so the binding hands it copies
    rng = np.random.default_rng(SEED)
    d, e = rng.standard_normal(33), rng.standard_normal(32)
    d0, e0 = d.copy(), e.copy()
    w, V, _ = flows.Factor.tridiagonal(d, e, None)
    assert np.array_equal(d, d0) and np.array_equal(e, e0)
    T = np.diag(d0) + np.diag(e0, -1) + np.diag(e0, 1)
    assert np.max(np.abs((V * w) @ V.T - T)) <= 1e-13 * np.max(np.abs(T))


def test_tridiagonal_factor_without_dstevd_falls_back_to_eigh(monkeypatch):
    # with no dstevd in numpy's library, np.linalg.eigh factors the same
    # matrix: eigenvalues within 1e-13 and the flow within 1e-12 of stevd's,
    # and the growth step and the tridiagonal exact flow run on it
    rng = np.random.default_rng(SEED)
    A, B = schrodinger_pair(64)
    H = (A + B).entries
    d = np.ascontiguousarray(np.diagonal(H).real)
    e = np.abs(np.diagonal(H, -1))
    p = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(d)))
    X = rng.standard_normal((len(d), 3)) + 1j * rng.standard_normal((len(d), 3))
    small = schrodinger_pair(8)
    ref = flows.Factor.tridiagonal(d, e, p)
    flow = flows.exact_flow(small[0] + small[1], 0.1, eye(17))
    flows._eigh_cached.cache_clear()
    monkeypatch.setattr(_lapack, "DSTEVD", None)
    got = flows.Factor.tridiagonal(d, e, p)
    assert np.max(np.abs(got.w - ref.w)) <= 1e-13 * np.max(np.abs(ref.w))
    assert np.max(np.abs(got.apply(0.3, X) - ref.apply(0.3, X))) <= \
        1e-12 * np.max(np.abs(X))
    try:
        fallback = flows.exact_flow(small[0] + small[1], 0.1, eye(17))
    finally:
        flows._eigh_cached.cache_clear()
    assert np.max(np.abs(fallback - flow)) <= 1e-12
    tr = experiments.growth_trajectory(experiments.growth_model("growth_rho0"),
                                       16, 0.1, (0.0, 1.0), 0.01, SEED)
    assert np.max(np.abs(tr["norms"][0.0] / tr["norms"][0.0][0] - 1)) <= 1e-12


@pytest.mark.parametrize("data", ["complex_block", "real_identity"])
def test_real_dense_factor_matches_the_complex_oracle(data):
    # exp_decay makes A + B dense real symmetric: dsyevd gives a real V,
    # applied by two real products; the oracle factors it as complex, and
    # Factor.exp and Factor.apply meet it and each other within 1e-13
    H = experiments.schroedinger_assemble(operators.exp_decay_coeff, 8).H
    factor = flows._eigh_cached(H)
    w, V, p = factor
    assert V.dtype == np.float64 and p is None
    wd, Vd = np.linalg.eigh(H.entries.astype(complex))
    rng = np.random.default_rng(SEED)
    X = rng.standard_normal((H.block.n, 3)) + 1j * rng.standard_normal((H.block.n, 3)) \
        if data == "complex_block" else np.eye(H.block.n)
    for t in (0.0, 0.05, 0.5):
        got = flows.exact_flow(H, t, X)
        assert got.dtype == complex
        assert np.max(np.abs(got - (Vd * np.exp(1j * t * wd)) @ (Vd.conj().T @ X))) \
            <= 1e-13 * np.max(np.abs(X))
        assert np.max(np.abs(factor.exp(t) - (Vd * np.exp(1j * t * wd)) @ Vd.conj().T)) \
            <= 1e-13
        assert np.max(np.abs(factor.apply(t, X) - factor.exp(t) @ X)) <= \
            1e-13 * np.max(np.abs(X))


@pytest.mark.parametrize("generator", ["diagonal", "hermitian"])
def test_exact_flow_applied_to_a_block_matches_its_matrix(generator):
    A, B = schrodinger_pair(16)
    G = A if generator == "diagonal" else A + B
    assert G.exactly_diagonal == (generator == "diagonal")
    X = core.rough_samples(A.block, 1.0, 5, SEED).T
    for t in (0.0, 0.05, 1.0):
        Y = flows.exact_flow(G, t, X)
        assert Y.shape == X.shape
        assert np.max(np.abs(Y - flows.exact_flow(G, t, eye(G.block.n)) @ X)) <= \
            1e-13 * np.max(np.abs(X))


# ---------------------------------------------------------------------------
# split steps


def matrix_flow(matrix):
    """The flow f(t, X) of the matrix-valued t -> matrix(t)."""
    return lambda t, X: matrix(t) @ X


# shear: does not commute with the rotation
shear_flow = matrix_flow(lambda t: np.array([[1.0, t], [0.0, 1.0]], dtype=complex))
rotation_flow = matrix_flow(lambda t: np.array([[math.cos(t), math.sin(t)],
                                                [-math.sin(t), math.cos(t)]],
                                               dtype=complex))


def test_compose_ordering_convention():
    a, b, tau, I = shear_flow, rotation_flow, 0.3, eye(2)
    assert np.array_equal(flows.compose(flows.LIE, a, b, tau, I),
                          a(tau, I) @ b(tau, I))
    assert np.array_equal(flows.compose(flows.STRANG, a, b, tau, I),
                          b(tau / 2, I) @ (a(tau, I) @ b(tau / 2, I)))


def test_unknown_split_step_name_is_rejected():
    # without the check, every name but LIE would run a Strang step
    A, B = schrodinger_pair(4)
    with pytest.raises(ValueError, match="strnag"):
        flows.compose("strnag", shear_flow, rotation_flow, 0.1, eye(2))
    with pytest.raises(ValueError, match="strnag"):
        flows.split_step("strnag", A, B, 0.1, eye(A.block.n))


# the steps of two sub-flows a, b and of two generators A, B, by test id
COMPOSE_STEPS = [partial(flows.compose, flows.LIE),
                 partial(flows.compose, flows.STRANG), triple_jump]
SPLIT_STEPS = [partial(flows.split_step, flows.LIE),
               partial(flows.split_step, flows.STRANG), triple_jump_step]
STEP_IDS = ["lie", "strang", "triple_jump"]


@pytest.mark.parametrize("step", COMPOSE_STEPS, ids=STEP_IDS)
def test_compose_applied_to_a_block_matches_its_matrix(step):
    X = np.random.default_rng(SEED).standard_normal((2, 3)) + 0j
    P = step(shear_flow, rotation_flow, 0.3, eye(2))
    Y = step(shear_flow, rotation_flow, 0.3, X)
    assert np.max(np.abs(Y - P @ X)) <= 1e-14 * np.max(np.abs(X))


@pytest.mark.parametrize("step", SPLIT_STEPS, ids=STEP_IDS)
def test_split_step_applied_to_a_block_matches_its_matrix(step):
    A, B = schrodinger_pair(12)
    X = core.rough_samples(A.block, 1.0, 4, SEED).T
    Y = step(A, B, 0.05, X)
    P = step(A, B, 0.05, eye(A.block.n))
    assert np.max(np.abs(Y - P @ X)) <= 1e-13 * np.max(np.abs(X))


def test_split_step_identity_at_zero():
    A, B = schrodinger_pair(8)
    for step in SPLIT_STEPS:
        P = step(A, B, 0.0, eye(A.block.n))
        assert np.max(np.abs(P - np.eye(A.block.n))) < 1e-14


def test_split_step_exact_for_commuting_generators():
    block = truncated_block(1, 8)
    A = operators.fourier_multiplier(lambda x: x * x, block)
    B = operators.fourier_multiplier(lambda x: abs(x), block)
    I = eye(block.n)
    for tau in (0.5, 0.05):
        E = flows.split_step(flows.LIE, A, B, tau, I) - flows.exact_flow(A + B, tau, I)
        assert np.max(np.abs(E)) <= 1e-12


def test_split_step_rejects_large_tau():
    A, B = schrodinger_pair(8)
    with pytest.raises(ValueError):
        flows.split_step(flows.LIE, A, B, 0.7, eye(A.block.n))


def test_lie_step_error_scales_quadratically():
    K = 32
    A = operators.fourier_multiplier(lambda x: x * x, periodic_block(1, K))
    B = spectral.mult_matrix_from_samples(spectral.sample(K, np.cos), K)
    x = core.rough_samples(A.block, 3.0, 1, SEED)[0]
    errs, I = [], eye(K)
    for tau in (0.01, 0.005):
        E = flows.split_step(flows.LIE, A, B, tau, I) - flows.exact_flow(A + B, tau, I)
        errs.append(np.linalg.norm(E @ x))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


# ---------------------------------------------------------------------------
# a fourth-order step: the triple jump


def scalar_tables(A, B, schemes, cases) -> dict:
    """Error tables of the scalar split system of A and B, one per (step,
    s) for the (s, samples) cases."""
    system = flows.scalar_system(A.block.size, A, B, schemes)
    return flows.error_table(system, [
        (s, system.weights(s), samples) for s, samples in cases])


def test_fourth_order_composition_local_order():
    block = truncated_block(1, 8)
    rng = np.random.default_rng(5)
    A = random_hermitian(block, rng, 2.0)
    B = random_hermitian(block, rng, 2.0)
    samples = core.rough_samples(block, 2.0, 4, 11)
    system = replace(flows.scalar_system(block.size, A, B, ()),
                     steps={"triple_jump": partial(triple_jump_step, A, B)})
    tab, = flows.error_table(system, [(0.0, system.weights(0.0), samples)]).values()
    assert 4.6 <= tab.fit.slope <= 5.4
    assert tab.fit.n_dropped >= 1  # smallest steps hit the roundoff floor


# ---------------------------------------------------------------------------
# local error tables


def test_error_table_zero_generator_flagged():
    A, _ = schrodinger_pair(8)
    zero = OpMatrix(A.block, np.zeros((A.block.n, A.block.n)))
    samples = core.rough_samples(A.block, 2.0, 3, SEED)
    tab, = scalar_tables(A, zero, (flows.LIE,), [(0.0, samples)]).values()
    assert all(r["error"] <= 1e-12 for r in tab.rows)
    assert tab.fit is None


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
def test_lie_and_strang_slopes(s):
    A, B = schrodinger_pair(32)
    samples = core.rough_samples(A.block, s + 3.0, 5, SEED)
    tables = scalar_tables(A, B, (flows.LIE, flows.STRANG), [(s, samples)])
    assert tables["lie", s].fit.slope == pytest.approx(2.0, abs=0.25)
    assert tables["strang", s].fit.slope == pytest.approx(3.0, abs=0.25)


def test_periodic_and_truncated_measurements_agree():
    # band-limited potential: same Lie error on both sides within 10%, at
    # every step size
    K, s = 32, 1.0
    pa = operators.fourier_multiplier(lambda x: x * x, periodic_block(1, K))
    pb = spectral.mult_matrix_from_samples(spectral.sample(K, np.cos), K)
    tb = truncated_block(1, K // 2)
    ta = operators.fourier_multiplier(lambda x: x * x, tb)
    tpot = operators.toeplitz_potential(operators.cos_coeff, tb)
    per, = scalar_tables(pa, pb, (flows.LIE,),
                         [(s, core.rough_samples(pa.block, s, 6, 21))]).values()
    tru, = scalar_tables(ta, tpot, (flows.LIE,),
                         [(s, core.rough_samples(tb, s, 6, 21))]).values()
    for p_row, t_row in zip(per.rows, tru.rows, strict=True):
        ep, et = p_row["error"], t_row["error"]
        assert abs(ep - et) <= 0.10 * max(ep, et)


def per_s_error_table(step, exact, s, weights, xs):
    """The one-s error table, which builds every step(tau) - exact(tau) as a
    matrix (the flows applied to the identity) for each s, as the oracle of
    the applied, shared-data table."""
    ref = max(float(np.linalg.norm(weights * x)) for x in xs)
    floor = flows.FLOOR_FACTOR * np.finfo(float).eps * ref
    rows, I = [], eye(len(weights))
    for tau in flows.TAU_LIST:
        E = step(tau, I) - exact(tau, I)
        err = max(float(np.linalg.norm(weights * (E @ x))) for x in xs)
        rows.append({"tau": tau, "s": s, "error": err, "floored": err <= floor})
    fit = flows.fit_loglog([r["tau"] for r in rows],
                           [max(r["error"], 1e-300) for r in rows],
                           drop=[r["floored"] for r in rows])
    return flows.LocalErrorTable(rows, fit), floor


def assert_matches_per_s_oracle(tables, label, steps, exact, cases):
    """One table per (step, s) in that order, each matching the oracle of the
    reference step steps[name] and flow exact, which the caller builds apart
    from the system under test: every error within a tenth of the case's
    roundoff floor, the same floored flags, and slopes within 1e-6; its rows
    labelled with the step and the level."""
    assert list(tables) == [(name, case[0]) for name in steps for case in cases]
    for name, step in steps.items():
        for case in cases:
            tab = tables[name, case[0]]
            want, floor = per_s_error_table(step, exact, *case)
            assert [{k: r[k] for k in ("tau", "s", "floored")} for r in tab.rows] == \
                [{k: r[k] for k in ("tau", "s", "floored")} for r in want.rows]
            assert max(abs(r["error"] - w["error"])
                       for r, w in zip(tab.rows, want.rows)) <= 0.1 * floor
            assert {(r["scheme"], r["level"]) for r in tab.rows} == {(name, label)}
            assert (tab.fit is None) == (want.fit is None)
            if want.fit is not None:
                assert (tab.fit.n_points, tab.fit.n_dropped) == \
                    (want.fit.n_points, want.fit.n_dropped)
                assert tab.fit.slope == pytest.approx(want.fit.slope, abs=1e-6)


def waterwave_cases(K, s_list):
    ops = experiments.waterwave_assemble(experiments.waterwave_model("waterwave"), K)
    return ops, [(s, ops.weights(s), ops.sampler(s, flows.N_SAMPLES, SEED))
                 for s in s_list]


def waterwave_oracle(ops, schemes):
    """Each scheme's composition of the coupling flow with the rotation, by
    name, and the exact propagator: the reference of ops.system(schemes)."""
    return {scheme: partial(flows.compose, scheme, ops.coupling_prop,
                            ops.rotation_prop) for scheme in schemes}, ops.exact_prop


@pytest.mark.parametrize("scheme", [flows.LIE, flows.STRANG], ids=["lie", "strang"])
def test_waterwave_error_tables_match_per_s_oracle(scheme):
    ops, cases = waterwave_cases(32, (1.0, 2.0, 3.0))
    tables = flows.error_table(ops.system((scheme,)), cases)
    assert_matches_per_s_oracle(tables, 32, *waterwave_oracle(ops, (scheme,)), cases)
    assert [r["s"] for tab in tables.values() for r in tab.rows] == \
        [s for s in (1.0, 2.0, 3.0) for _ in flows.TAU_LIST]


@pytest.mark.parametrize("scheme", [flows.LIE, flows.STRANG], ids=["lie", "strang"])
def test_scalar_error_tables_match_per_s_oracle(scheme):
    A, B = schrodinger_pair(16)
    system = flows.scalar_system(16, A, B, (scheme,))
    cases = [(s, core.sobolev_weights(A.block, s),
              core.rough_samples(A.block, s + 3.0, flows.N_SAMPLES, SEED))
             for s in (0.0, 1.0, 2.0)]
    tables = flows.error_table(system, cases)
    assert_matches_per_s_oracle(
        tables, 16, {scheme: partial(flows.split_step, scheme, A, B)},
        partial(flows.exact_flow, A + B), cases)


def test_two_step_error_tables_match_per_s_oracle():
    ops, cases = waterwave_cases(32, (1.0, 2.0))
    schemes = (flows.LIE, flows.STRANG)
    tables = flows.error_table(ops.system(schemes), cases)
    assert_matches_per_s_oracle(tables, 32, *waterwave_oracle(ops, schemes), cases)


def test_single_s_error_table_matches_per_s_oracle():
    ops, cases = waterwave_cases(32, (2.0,))
    tables = flows.error_table(ops.system((flows.STRANG,)), cases)
    assert_matches_per_s_oracle(tables, 32, *waterwave_oracle(ops, (flows.STRANG,)),
                                cases)


def test_error_table_floors_each_case_by_its_own_data():
    # the error tau^4 sits on the lowest mode only, while the roundoff floor
    # grows with the weight 10^(4s) of the highest mode
    step = matrix_flow(lambda tau: np.diag([tau ** 4, 0.0, 0.0, 0.0]))
    exact = matrix_flow(lambda tau: np.zeros((4, 4)))
    system = flows.SplitSystem("toy", exact, {"toy": step}, None)
    cases = [(s, np.array([1.0, 1.0, 1.0, 10.0 ** (4 * s)]), [np.ones(4)])
             for s in (0.0, 1.0, 2.0)]
    tables = flows.error_table(system, cases)
    assert_matches_per_s_oracle(tables, "toy", {"toy": step}, exact, cases)
    tables = list(tables.values())
    assert [sum(r["floored"] for r in tab.rows) for tab in tables] == [0, 2, 5]
    assert [tab.fit.n_dropped for tab in tables[:2]] == [0, 2]
    assert tables[2].fit.slope == pytest.approx(4.0)


def test_error_table_rejects_a_repeated_s():
    # tables are keyed by (step, s), so a repeated s would merge two cases
    system = flows.SplitSystem("toy", np.zeros, {"toy": np.zeros}, None)
    cases = [(1.0, np.ones(2), [np.ones(2)]), (1.0, np.ones(2), [np.ones(2)])]
    with pytest.raises(ValueError, match="distinct s"):
        flows.error_table(system, cases)


def counted_system(system, calls):
    """The system with its exact flow and steps recording (name, tau, X)."""
    def counted(name, fn):
        return lambda tau, X: calls.append((name, tau, X)) or fn(tau, X)
    return replace(system, exact=counted("exact", system.exact),
                   steps={name: counted(name, step)
                          for name, step in system.steps.items()})


def test_error_table_builds_each_step_once_for_every_s():
    # every step and the exact flow once per tau, for every s and every step
    A, B = schrodinger_pair(8)
    calls = []
    system = counted_system(flows.scalar_system(8, A, B, (flows.LIE, flows.STRANG)),
                            calls)
    cases = [(s, core.sobolev_weights(A.block, s),
              core.rough_samples(A.block, s + 3.0, 4, SEED))
             for s in (0.0, 1.0, 2.0)]
    tables = flows.error_table(system, cases)
    assert [(name, tau) for name, tau, _ in calls] == \
        [(name, tau) for tau in flows.TAU_LIST for name in ("exact", "lie", "strang")]
    assert [tab.rows[0]["s"] for tab in tables.values()] == [0.0, 1.0, 2.0] * 2


@pytest.mark.parametrize("schemes", [(flows.LIE,), (flows.LIE, flows.STRANG)],
                         ids=["lie", "lie_strang"])
def test_error_table_applies_every_flow_to_the_stacked_data(schemes):
    # no step or exact flow is ever asked for its matrix: each one acts on
    # the block of every case's samples, stacked case by case as columns
    ops, cases = waterwave_cases(16, (1.0, 2.0, 3.0))
    calls = []
    flows.error_table(counted_system(ops.system(schemes), calls), cases)
    X = np.concatenate([xs for _, _, xs in cases]).T
    assert len(calls) == len(flows.TAU_LIST) * (1 + len(schemes))
    for _, _, data in calls:
        assert data is not None
        assert np.array_equal(data, X)


# ---------------------------------------------------------------------------
# propagator norm stability


def test_propagator_norms_stable_across_refinement():
    # measured bound on ||e^{it(A+B)}||_{h^s -> h^s} stays within 1.1 of the
    # coarsest level for the Schroedinger probe
    s = 2.0
    bounds = []
    for M in (16, 32, 64):
        A, B = schrodinger_pair(M)
        samples = core.rough_samples(A.block, s, 5, SEED)
        w = core.sobolev_weights(A.block, s)
        bounds.append(flows.propagator_norm_bound(
            partial(flows.exact_flow, A + B), (0.25, 0.5, 1.0), samples, w))
    assert all(b <= 1.1 * bounds[0] for b in bounds)


def test_propagator_norm_bound_matches_the_matrix_per_sample():
    A, B = schrodinger_pair(16)
    samples = core.rough_samples(A.block, 2.0, 5, SEED)
    w = core.sobolev_weights(A.block, 2.0)
    times = (0.25, 0.5, 1.0)
    want = max(np.linalg.norm(w * (flows.exact_flow(A + B, t, eye(A.block.n)) @ x)) /
               np.linalg.norm(w * x) for t in times for x in samples)
    got = flows.propagator_norm_bound(partial(flows.exact_flow, A + B), times,
                                      samples, w)
    assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# loss estimation


def scalar_systems(builder, labels, schemes) -> list:
    return [flows.scalar_system(M, *builder(M), schemes) for M in labels]


def test_loss_scan_commuting_pair_no_loss():
    def builder(M):
        block = truncated_block(1, M)
        return (operators.fourier_multiplier(lambda x: x * x, block),
                operators.fourier_multiplier(lambda x: abs(x), block))
    rep = flows.loss_scan(scalar_systems(builder, (8, 16, 32), (flows.LIE,)),
                          s=1.0)["lie"]
    assert rep.sigma_hat == 0.0 and rep.certified


def test_loss_scan_lie_schrodinger_one_derivative():
    rep = flows.loss_scan(scalar_systems(schrodinger_pair, (16, 32, 64), (flows.LIE,)),
                          s=2.0)["lie"]
    assert rep.sigma_hat == 1.0 and rep.certified


def test_loss_scan_strang_schrodinger_upper_bound():
    rep = flows.loss_scan(
        scalar_systems(schrodinger_pair, (16, 32, 64), (flows.STRANG,)),
        s=2.0)["strang"]
    assert rep.certified and rep.sigma_hat <= 2.0


def test_loss_scan_reports_each_step_as_a_scan_of_it_alone():
    # one scan of two steps builds each level's exact flow once and reports
    # each step as its own scan does, rows labelled with the step
    built = []
    systems = []
    for system in scalar_systems(schrodinger_pair, (16, 32, 64),
                                 (flows.LIE, flows.STRANG)):
        exact = system.exact
        systems.append(replace(system, exact=lambda tau, X, e=exact, M=system.label:
                               built.append((M, tau)) or e(tau, X)))
    both = flows.loss_scan(systems, s=2.0)
    assert built == [(M, flows.TAU_STAR) for M in (16, 32, 64)]
    assert list(both) == ["lie", "strang"]
    for name, rep in both.items():
        alone, = flows.loss_scan(
            [replace(system, steps={name: system.steps[name]}) for system in systems],
            s=2.0).values()
        assert (rep.sigma_hat, rep.certified, rep.rows) == \
            (alone.sigma_hat, alone.certified, alone.rows)
        assert {r["scheme"] for r in rep.rows} == {name}


def test_loss_scan_sentinel_when_uncertified():
    # a genuinely unstable artificial family: an error operator of order 3,
    # one more than the largest sigma of the grid can absorb
    def systems():
        out = []
        for M in (8, 16, 32):
            block = truncated_block(1, M)
            E = operators.fourier_multiplier(lambda x: x ** 3, block).entries
            out.append(flows.SplitSystem(
                M, lambda tau, X: np.zeros_like(X),
                {"full_order": lambda tau, X, E=E: E @ X},
                lambda s, b=block: core.sobolev_weights(b, s)))
        return out
    rep = flows.loss_scan(systems(), s=0.0)["full_order"]
    assert not rep.certified and rep.sigma_hat == flows.SIGMA_GRID[-1] == 2.0


def test_loss_scan_rejects_single_level():
    with pytest.raises(ValueError, match="at least 2 levels"):
        flows.loss_scan(scalar_systems(schrodinger_pair, (16,), (flows.LIE,)), s=2.0)


def test_ratio_sup_is_the_largest_unit_vector_ratio():
    rng = np.random.default_rng(SEED)
    E = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w_out, w_in = rng.uniform(0.5, 3.0, 6), rng.uniform(0.5, 3.0, 6)
    want = max(np.linalg.norm(w_out * E[:, k]) / w_in[k] for k in range(6))
    assert flows._ratio_sup(E, w_out, w_in) == pytest.approx(want, rel=1e-14)


def rough_ratio(E, w_out, w_in, xs) -> float:
    """The largest ||w_out * (E x)|| / ||w_in * x|| over the rows x of xs."""
    X = np.asarray(xs).T
    return float(np.max(np.linalg.norm(w_out[:, None] * (E @ X), axis=0) /
                        np.linalg.norm(w_in[:, None] * X, axis=0)))


def scan_rough_share(systems, draws, s) -> float:
    """The largest share of a row's column statistic that a rough data vector
    reaches, over every (step, level, sigma) row of the loss scan of the
    systems at s; draws[i](regularity) gives level i's flows.N_SAMPLES rough
    vectors, as the scan once drew them at s + sigma."""
    reports = flows.loss_scan(systems, s)
    worst = 0.0
    for system, draw in zip(systems, draws):
        eye = np.eye(system.weights(s).size)
        exact = system.exact(flows.TAU_STAR, eye)
        for name, step in system.steps.items():
            E = step(flows.TAU_STAR, eye) - exact
            for row in reports[name].rows:
                if row["level"] == system.label:
                    reg = s + row["sigma"]
                    worst = max(worst, rough_ratio(
                        E, system.weights(s), system.weights(reg), draw(reg)) /
                        row["norm_ratio"])
    return worst


def rough_draw(block, seed):
    """regularity -> the flows.N_SAMPLES rough vectors of block at seed."""
    return lambda reg: core.rough_samples(block, reg, flows.N_SAMPLES, seed)


def schrodinger_scan(radii, seed):
    systems, draws = [], []
    for M in radii:
        A, B = experiments.schroedinger_pair(operators.two_cos_coeff, M)
        systems.append(flows.scalar_system(M, A, B, (flows.LIE,)))
        draws.append(rough_draw(A.block, seed))
    return systems, draws


def precond_scan(radii, seed):
    """The levels of experiments.preconditioned_lie_study's loss scan."""
    systems, draws = [], []
    for M in radii:
        level = experiments.schroedinger_assemble(operators.two_cos_coeff, M)
        systems.append(flows.SplitSystem(
            M, partial(flows.exact_flow, level.H),
            {"precond_lie": level.preconditioned_prop,
             flows.LIE: partial(flows.split_step, flows.LIE, level.A, level.B)},
            partial(core.sobolev_weights, level.block)))
        draws.append(rough_draw(level.block, seed))
    return systems, draws


def waterwave_scan(probe, schemes, seed, bottom_seed):
    model = experiments.waterwave_model(probe, seed=bottom_seed)
    systems, draws = [], []
    for K in (32, 64, 128):
        ops = experiments.waterwave_assemble(model, K)
        systems.append(ops.system(schemes))
        draws.append(lambda reg, ops=ops: ops.sampler(reg, flows.N_SAMPLES, seed))
    return systems, draws


BOTH = (flows.LIE, flows.STRANG)
# (systems, draws), s and the largest share measured, for the loss scans of
# the shipped configs at seed 1 and the two closest cases found near them
ROUGH_SHARE_CASES = {
    "loss_scan_schrodinger": (lambda: schrodinger_scan((16, 32, 64), 1), 2.0, None),
    "loss_scan_waterwave": (
        lambda: waterwave_scan("waterwave", (flows.STRANG,), 1, 7), 2.0, None),
    "waterwave": (lambda: waterwave_scan("waterwave", BOTH, 1, 1), 1.0, None),
    "waterwave_rough": (
        lambda: waterwave_scan("waterwave_rough", BOTH, 1, 1), 1.0, None),
    "schroedinger_precond": (lambda: precond_scan((16, 32, 64), 1), 2.0, None),
    "schroedinger_precond_M8_64_seed4": (lambda: precond_scan((8, 64), 4), 1.0, 0.982),
    "waterwave_stvenant_seed3": (
        lambda: waterwave_scan("waterwave_stvenant", BOTH, 3, 3), 1.0, 0.906),
}


@pytest.mark.parametrize("case", ROUGH_SHARE_CASES)
def test_no_rough_vector_exceeds_the_loss_scan_column_statistic(case):
    # the loss scan once joined flows.N_SAMPLES rough vectors, drawn at
    # s + sigma per level, to the unit frequency vectors; on the shipped
    # families none of them ever set a sup, so the scan reads the columns only
    build, s, measured = ROUGH_SHARE_CASES[case]
    share = scan_rough_share(*build(), s)
    assert share <= 1.0
    if measured is not None:
        assert share == pytest.approx(measured, abs=5e-4)


@pytest.mark.parametrize("probe", ["fd", "mult"])
def test_no_rough_vector_exceeds_the_approximation_column_statistic(probe):
    # cli.run_approx_rates at seed 1: the rough vectors approx_error once drew
    # at data_s set no row's error either
    block = truncated_block(1, 128)
    limit, family, s, s_prime, data_s = {
        "fd": (operators.fourier_multiplier(lambda x: 1j * x, block),
               [spectral.fd_symbol(1, 1, K) for K in (32, 64, 128)], 2.0, 2.0, 4.0),
        "mult": (operators.toeplitz_potential(operators.exp_decay_coeff, block),
                 [spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, K)
                  for K in (32, 64, 128)], 4.0, 2.0, 4.0)}[probe]
    table = periodic.approx_error(limit, family, s, s_prime, data_s)
    xs = core.rough_samples(block, data_s, flows.N_SAMPLES, 1)
    for A, row in zip(family, table.rows):
        E = (limit - periodic.embed(A, radius=128)).entries
        assert rough_ratio(E, core.sobolev_weights(block, s_prime),
                           core.sobolev_weights(block, data_s), xs) <= row["error"]


def test_fit_loglog_recovers_slope():
    xs = np.array([1.0, 0.5, 0.25, 0.125])
    ys = 3.0 * xs ** 2.5
    fit = flows.fit_loglog(xs, ys)
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.residual < 1e-12
