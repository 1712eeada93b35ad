"""The three application studies, packaged as reproducible experiments.

Water waves: the linearized surface system with topography is split into a
per-frequency rotation and a nilpotent coupling; both substeps are exact and
symplectic, and the splitting converges at full order without extra
regularity on the data.  The reference flow of the unsplit system comes from
its Hamiltonian structure: with S = omega^{1/2}, the operator
S (omega + coupling) S is Hermitian, and one eigendecomposition of it per
assembled system gives the flow at every time as a rotation at the square
roots of its eigenvalues (a growing mode where an eigenvalue is negative).
That structure is checked first, and a failed check raises a ValueError
naming the model.  An even bottom (every shipped probe) has real Fourier
coefficients, so the coupling and S (omega + coupling) S are real symmetric,
the eigendecomposition is real, and every water-wave flow applies real
matrices, to complex data through their float view (flows.real_product).

Schroedinger preconditioner: a bounded change of variable conjugates the
stiff generator into a resonant part plus a Hermitian smoothing remainder,
both flowed by flows.exact_flow, so a pre- and post-processed Lie step
converges without loss of derivative, unlike the plain Lie baseline.  For a
one-band potential (2 cos x) the generator A + B and the change of variable
X are Hermitian tridiagonal, so flows.hermitian_eigh factors them with a real
orthogonal V, and e^{+-iX} are that flows.Factor's matrices at t = +-1; a
wider potential takes the dense path.  An even potential (real B, as
2 cos x) makes iX real antisymmetric, so e^{iX} is kept as one real
rotation E, e^{-iX} is its transpose, the remainder E H E^T - A - Z is real
symmetric with a real factor, and E and E^T act by real products.

Sobolev growth: for a diagonal generator plus a time-dependent Hermitian
perturbation of order rho < 1, the h^s norms grow at most polynomially with
exponent s/(1-rho); trajectories use exact frozen-coefficient steps so only
that bound is measured, not integrator error. The generator is real,
nearest-neighbour on Z_K and even under k -> -k, which is checked: in the
basis of even, then odd, sequences it is one symmetric tridiagonal matrix,
and each step diagonalizes that matrix exactly (flows.Factor.tridiagonal).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial

import numpy as np

from . import core, flows, operators, periodic, spectral
from .core import OpMatrix, periodic_block, truncated_block


# ---------------------------------------------------------------------------
# water waves


@dataclass(eq=False)
class WaterWaveModel:
    """Linearized water waves over topography b(x), depth parameter mu >= 0.

    mu = 0 (the "stvenant" shallow-water limit) turns the dispersion into |k|
    and the depth gain into 1; the coupling block is then order 1 and the
    no-loss theory does not apply (a warning is recorded).
    """

    mu: float = 1.0
    b_coeffs: object = operators.cos_coeff
    label: str = "waterwave"

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    @property
    def stvenant(self) -> bool:
        return self.mu == 0

    def dispersion(self, k: np.ndarray) -> np.ndarray:
        k = np.abs(k.astype(float))
        if self.stvenant:
            return k
        rmu = math.sqrt(self.mu)
        return np.sqrt(k * np.tanh(rmu * k) / rmu)

    def gain(self, k: np.ndarray) -> np.ndarray:
        if self.stvenant:
            return np.ones_like(k, dtype=float)
        rmu = math.sqrt(self.mu)
        ka = np.abs(k.astype(float)) * rmu
        return 2.0 * np.exp(-ka) / (1.0 + np.exp(-2.0 * ka))

    def order_warning(self) -> str | None:
        if self.stvenant:
            return ("coupling block has the same order as the dispersion "
                    "(rho = r); theory slope/loss bands are not asserted")
        return None


@dataclass(eq=False)
class WaterWaveOperators:
    """Assembled Fourier-side operators of the split system on one block."""

    model: WaterWaveModel
    block: object
    omega: np.ndarray            # per-frequency rotation speeds, 0 at k = 0
    coupling: np.ndarray         # the single nonzero block of the nilpotent part

    @property
    def n(self) -> int:
        return self.block.n

    def rotation_prop(self, t: float, X: np.ndarray) -> np.ndarray:
        """The rotation flow applied to a (2n, m) block X: per frequency, the
        2x2 rotation of (xi_k, v_k) by omega_k t."""
        c, s = np.cos(self.omega * t)[:, None], np.sin(self.omega * t)[:, None]
        xi, v = X[:self.n], X[self.n:]
        return np.concatenate([c * xi + s * v, c * v - s * xi])

    def coupling_prop(self, t: float, X: np.ndarray) -> np.ndarray:
        """The coupling flow applied to a (2n, m) block X: the coupling
        generator S is nilpotent of degree 2, so e^{tS} = I + tS."""
        out = X.astype(np.result_type(X, self.coupling))
        out[:self.n] += t * flows.real_product(self.coupling, X[self.n:])
        return out

    def generator(self) -> np.ndarray:
        gen = np.zeros((2 * self.n, 2 * self.n), dtype=complex)
        rng = np.arange(self.n)
        gen[rng, rng + self.n] = self.omega
        gen[rng + self.n, rng] = -self.omega
        gen[:self.n, self.n:] += self.coupling
        return gen

    @cached_property
    def normal_modes(self) -> tuple:
        """Factors of the exact flow from one Hermitian eigendecomposition.

        On the modes p where omega > 0, with S = omega^{1/2} and
        A = omega + coupling, L = S A S = V diag(lam) V^* is Hermitian (real
        symmetric, with a real V, for an even bottom), and the flow rotates
        at mu = sqrt(lam).  A negative lam (an indefinite energy, as a rough
        bottom of large amplitude gives) makes mu imaginary and the mode grow;
        the flow stays exact, since it needs only cos(mu t), mu sin(mu t) and
        sin(mu t) / mu, which are entire in lam.
        Returns (p, mu, S^-1 V, V^* S, S V, V^* S^-1).  A ValueError names the
        model and the measured value when the coupling is not Hermitian or
        touches a mode with omega = 0."""
        label, C = self.model.label, self.coupling
        scale = float(np.max(np.abs(C)))
        defect = float(np.max(np.abs(C - C.conj().T)))
        if defect > 1e-12 * scale:
            raise ValueError(f"{label}: coupling is not Hermitian (relative "
                             f"defect {defect / scale:.3g} > 1e-12)")
        p, z = np.flatnonzero(self.omega > 0), np.flatnonzero(self.omega <= 0)
        leak = float(max(np.max(np.abs(C[z, :]), initial=0.0),
                         np.max(np.abs(C[:, z]), initial=0.0)))
        if leak != 0.0:
            raise ValueError(f"{label}: coupling reaches a mode with omega = 0 "
                             f"(max entry {leak:.3g})")
        S = np.sqrt(self.omega[p])
        L = S[:, None] * (np.diag(self.omega[p]) + C[np.ix_(p, p)]) * S[None, :]
        lam, V = np.linalg.eigh(L)
        Vh = V.conj().T
        return (p, np.sqrt(lam.astype(complex)), V / S[:, None], Vh * S[None, :],
                V * S[:, None], Vh / S[None, :])

    def exact_prop(self, t: float, X: np.ndarray) -> np.ndarray:
        """e^{t G} X of generator() for a (2n, m) block X: with
        u = V^* S X_xi and v = V^* S^-1 X_v on the modes p, xi_p becomes
        S^-1 V (c u + mu s v) and v_p becomes S V (c v - (s/mu) u), with
        c = cos(mu t), s = sin(mu t) and s/mu = t at mu = 0 (see
        normal_modes); the modes with omega = 0 stay.  c, mu s and s/mu are
        real, a growing mode's too, since lam = mu^2 is; for an even bottom
        V is real, so a real X flows in real arithmetic and a complex one
        through its float view."""
        p, mu, xl, xr, yl, yr = self.normal_modes
        c, s = np.cos(mu * t), np.sin(mu * t)
        s_mu = np.divide(s, mu, out=np.full_like(s, t), where=mu != 0)
        c, mu_s, s_mu = (z.real[:, None] for z in (c, mu * s, s_mu))
        q = p + self.n
        u, v = flows.real_product(xr, X[p]), flows.real_product(yr, X[q])
        out = X.astype(np.result_type(X, xl))
        out[p] = flows.real_product(xl, c * u + mu_s * v)
        out[q] = flows.real_product(yl, c * v - s_mu * u)
        return out

    def system(self, schemes) -> flows.SplitSystem:
        """The split system of this block, one step per scheme name, with the
        coupling as the a flow and the rotation as the b flow of
        flows.compose."""
        return flows.SplitSystem(
            self.block.size, self.exact_prop,
            {scheme: partial(flows.compose, scheme, self.coupling_prop,
                             self.rotation_prop) for scheme in schemes},
            self.weights)

    def weights(self, s: float) -> np.ndarray:
        w = core.sobolev_weights(self.block, s)
        return np.concatenate([w, w])

    def sampler(self, regularity: float, n_samples: int, seed: int) -> np.ndarray:
        xi = core.rough_samples(self.block, regularity, n_samples, seed,
                                zero_mean=True)
        v = core.rough_samples(self.block, regularity, n_samples, seed + 1,
                               zero_mean=True)
        return np.concatenate([xi, v], axis=1)

    def energy(self, state: np.ndarray) -> float:
        # conserved quadratic form of the assembled system: the normal-mode
        # Hamiltonian, with omega + coupling on v (see normal_modes)
        xi, v = state[:self.n], state[self.n:]
        val = np.vdot(xi, self.omega * xi) + np.vdot(v, self.omega * v) \
            + np.vdot(v, self.coupling @ v)
        return 0.5 * float(val.real)


def waterwave_assemble(model: WaterWaveModel, period: int) -> WaterWaveOperators:
    """Build the rotation speeds and the coupling block on a periodic block.

    The zero mode is pinned: the rotation speed vanishes there and the
    coupling entries carry a factor k m that kills the mode, so the system
    lives on the zero-mean subspace.
    """
    block = periodic_block(1, period)
    k = block.indices()[:, 0].astype(float)
    omega = model.dispersion(k)
    gain = model.gain(k)
    inv_sqrt = np.zeros_like(omega)
    nz = omega > 0
    inv_sqrt[nz] = omega[nz] ** -0.5
    dr = k * gain * inv_sqrt
    mult = spectral.mult_matrix_from_coeffs(model.b_coeffs, period).entries
    if not mult.imag.any():
        mult = mult.real
    # (i dr) mult (i dr), real for a real mult
    coupling = -((dr[:, None] * mult) * dr[None, :])
    return WaterWaveOperators(model, block, omega, coupling)


def waterwave_noloss_study(model: WaterWaveModel, periods, s_list,
                           seed: int = 0) -> dict:
    """Order slopes, loss scan, per-step symplectic defect and energy drift
    of the Lie and Strang steps of the split water-wave system, with
    flows.N_SAMPLES data vectors per error-table case, steps flows.TAU_LIST
    and loss levels at flows.TAU_STAR.  The order warning of the model, an
    indefinite energy and unstable propagator norms are reported through
    warnings.warn."""
    out: dict = {}
    warn = model.order_warning()
    if warn:
        warnings.warn(warn)
    level_ops = {K: waterwave_assemble(model, K) for K in periods}
    # a negative eigenvalue of S (omega + coupling) S is a growing mode,
    # outside the positive-energy setting of the no-loss theory
    for K, ops_k in level_ops.items():
        lam_min = float(np.min((ops_k.normal_modes[1] ** 2).real))
        if lam_min < 0:
            warnings.warn(f"{model.label}: energy is indefinite at K={K} (min "
                          f"eigenvalue of S(omega+C)S {lam_min:.3g})")
    # propagator-norm stability across periods comes before any error run:
    # the error analysis is vacuous if the flows themselves are not bounded
    # uniformly in K on the probed time window
    stability_bounds = {s: [] for s in s_list}
    for ops_k in level_ops.values():
        for s, bounds in stability_bounds.items():
            bounds.append(flows.propagator_norm_bound(
                ops_k.exact_prop, (0.25, 0.5, 1.0),
                ops_k.sampler(s, flows.N_SAMPLES // 2, seed), ops_k.weights(s)))
    for s, bounds in stability_bounds.items():
        if max(bounds) > 1.1 * bounds[0]:
            warnings.warn(f"propagator norm bound at s={s} not stable across "
                          f"periods: {bounds}")
    systems = {K: ops_k.system((flows.LIE, flows.STRANG))
               for K, ops_k in level_ops.items()}
    ops, system = level_ops[max(periods)], systems[max(periods)]
    tables = flows.error_table(system, [
        (s, ops.weights(s), ops.sampler(s, flows.N_SAMPLES, seed)) for s in s_list])
    out["slopes"] = {key: tab.fit for key, tab in tables.items()}
    out["error_rows"] = [r for tab in tables.values() for r in tab.rows]
    out["loss"] = flows.loss_scan(list(systems.values()), s_list[0])
    out["symplectic_defect"], out["energy_drift"] = {}, {}
    x0 = ops.sampler(max(s_list), 1, seed)[0]
    e0 = ops.energy(x0)
    eye, tau = np.eye(2 * ops.n), flows.TAU_LIST[0]
    for name, step in system.steps.items():
        P = step(tau, eye)
        out["symplectic_defect"][name] = operators.symplectic_defect(P)
        out["energy_drift"][name] = abs(ops.energy(P @ x0) - e0) / max(abs(e0), 1e-300)
    flat = WaterWaveModel(mu=model.mu, b_coeffs=lambda *k: 0.0, label="b0")
    flat_ops = waterwave_assemble(flat, min(periods))
    flat_sys = flat_ops.system((flows.STRANG,))
    eye = np.eye(2 * flat_ops.n)
    E0 = flat_sys.steps[flows.STRANG](tau, eye) - flat_sys.exact(tau, eye)
    out["b0_control"] = float(np.max(np.abs(E0)))
    return out


# ---------------------------------------------------------------------------
# Schroedinger normal-form preconditioner

# remainder members are computed on a block this many times larger, then
# restricted (see smoothing_remainder_family)
REMAINDER_MARGIN = 2


@dataclass(eq=False)
class PreconditionedSchroedinger:
    """Assembled matrices of the conjugated system on a truncated block.

    The change of variable solves the homological identity exactly at finite
    dimension: A + B + i[X, A] = A + Z with Z supported on the resonant pairs
    {n, -n}.  R is the remainder e^{iX} H e^{-iX} - A - Z, made Hermitian
    from its lower triangle, since its roundoff eps |H| ~ eps M^2 fails the
    Hermitian scan of its flow from M = 64 or 96 on.  H = A + B, A + Z and
    R are built once, so their flows' factorizations are cached; A + Z is
    diagonal, and flows entrywise, for a potential with no modes at nonzero
    even frequencies (2cos x, sin x).  For an even potential (real B, such as
    2cos x) iX is real antisymmetric: exp_x_plus = e^{iX} is one float64
    matrix, exp_x_minus is its transpose, R is real symmetric and its
    factor real, and the change of variable is applied by real products."""

    block: object
    A: OpMatrix
    B: OpMatrix
    H: OpMatrix
    X: OpMatrix
    Z: OpMatrix
    R: OpMatrix
    exp_x_plus: np.ndarray
    exp_x_minus: np.ndarray

    @cached_property
    def resonant(self) -> OpMatrix:
        """The resonant generator A + Z."""
        return self.A + self.Z

    def preconditioned_prop(self, tau: float, X: np.ndarray) -> np.ndarray:
        """e^{-i self.X} (Lie step of the resonant generator and R, R's flow
        acting first) e^{i self.X} applied to the block X."""
        return flows.real_product(self.exp_x_minus, flows.split_step(
            flows.LIE, self.resonant, self.R, tau,
            flows.real_product(self.exp_x_plus, X)))


def resonant_mask(block) -> np.ndarray:
    """Boolean (n, n) mask of the resonant pairs |m| == |n| of a 1d block."""
    a = np.abs(block.indices()[:, 0])
    return a[:, None] == a[None, :]


def schroedinger_pair(potential, radius: int) -> tuple[OpMatrix, OpMatrix]:
    """A (squared frequencies k^2) and B (Toeplitz potential) on the 1d
    block of the radius."""
    block = truncated_block(1, radius)
    return (core.diagonal_matrix(block, block.indices()[:, 0].astype(float) ** 2),
            operators.toeplitz_potential(potential, block))


def schroedinger_assemble(v_coeffs, radius: int) -> PreconditionedSchroedinger:
    """Build A (squared frequencies), B (potential), the Hermitian change of
    variable X = B / (i(m^2 - n^2)) off the resonant pairs, the resonant part
    Z = B on them, and the Hermitian remainder R; for a real B, e^{iX} and R
    are float64 (see PreconditionedSchroedinger)."""
    if radius < 4:
        raise ValueError("radius must be at least 4")
    block = truncated_block(1, radius)
    idx = block.indices()[:, 0]
    for k in range(0, 2 * radius + 1):
        if abs(np.conj(v_coeffs(-k)) - v_coeffs(k)) > 1e-12:
            raise ValueError("potential must be real (conjugate-even coefficients)")
    A, B = schroedinger_pair(v_coeffs, radius)
    H = A + B
    n = block.n
    resonant = resonant_mask(block)
    sq = idx * idx
    # B / (i d) = -i (B / d) bit for bit, a complex division even for a real
    # B, and the integer d casts in buffers
    X = np.divide(B.entries, sq[:, None] - sq[None, :], where=~resonant,
                  out=np.zeros((n, n), dtype=complex), dtype=complex)
    X *= -1j
    Z = np.where(resonant, B.entries, 0.0)
    # a real B makes iX = B / d real antisymmetric: its phases are powers of
    # i, so e^{iX} is a real rotation, and its real part is taken bit for bit
    factor = flows.hermitian_eigh(X)
    exp_plus = factor.exp(1.0)
    if real := np.isrealobj(B.entries):
        exp_plus = exp_plus.real.copy()
        exp_minus = exp_plus.T
    else:
        exp_minus = factor.exp(-1.0)
    R = exp_plus @ H.entries @ exp_minus
    R -= A.entries
    R -= Z
    # eigh reads the lower triangle and the real diagonal; mirror them
    lower = np.tri(n, k=-1, dtype=bool)
    mirrored = R[lower]
    R.T[lower] = np.conjugate(mirrored, out=mirrored)
    if not real:
        np.fill_diagonal(R.imag, 0.0)
    return PreconditionedSchroedinger(block, A, B, H, OpMatrix(block, X),
                                      OpMatrix(block, Z), OpMatrix(block, R),
                                      exp_plus, exp_minus)


def homological_defect(model: PreconditionedSchroedinger) -> float:
    """Max entry of A + B + i[X, A] - (A + Z); zero by construction of X."""
    lhs = model.A.entries + model.B.entries + \
        1j * core.commutator(model.X, model.A).entries
    return float(np.max(np.abs(lhs - model.A.entries - model.Z.entries)))


def telescoping_defect(model: PreconditionedSchroedinger) -> float:
    """The conjugation commutes with iterating the inner step exactly: ten
    steps of size 0.01."""
    inner = flows.split_step(flows.LIE, model.resonant, model.R, 0.01,
                             np.eye(model.block.n, dtype=complex))

    def conjugated(Y):
        """e^{-iX} Y e^{iX}, the right factor as (e^{iX}^T Y^T)^T."""
        Y = flows.real_product(model.exp_x_minus, Y)
        return flows.real_product(model.exp_x_plus.T, Y.T).T

    lhs = np.linalg.matrix_power(conjugated(inner), 10)
    rhs = conjugated(np.linalg.matrix_power(inner, 10))
    return float(np.max(np.abs(lhs - rhs)))


def smoothing_remainder_family(assemble, radii) -> list[OpMatrix]:
    """Remainder family prepared for order certification.

    ``assemble(radius)`` returns the PreconditionedSchroedinger system of one
    radius (schroedinger_assemble with the potential bound).  Each member is
    computed exactly on a block REMAINDER_MARGIN times larger and then
    restricted, so the truncation boundary layer (an O(1/size) artifact of
    cutting the change-of-variable band) stays outside the certified window;
    entries below the backward-error scale of the conjugation (eps times the
    generator norm) are zeroed, since they are roundoff, not structure.
    """
    fam = []
    for M in radii:
        big = assemble(REMAINDER_MARGIN * M)
        scale = float(np.max(np.abs(big.A.entries)) + np.max(np.abs(big.B.entries)))
        thresh = 100 * np.finfo(float).eps * scale
        Rr = periodic.restrict(big.R, M)
        fam.append(OpMatrix(Rr.block,
                            np.where(np.abs(Rr.entries) < thresh, 0.0, Rr.entries)))
    return fam


def preconditioned_lie_study(s_list, radii, seed: int = 0) -> dict:
    """Local-order fit and loss scan of the pre/post-processed Lie step for
    the potential 2 cos x, with the plain Lie baseline for contrast, with
    flows.N_SAMPLES data vectors per error-table case, steps flows.TAU_LIST
    and loss levels at flows.TAU_STAR.  Each radius is assembled once, in the
    order of first use, by a memo that lives as long as this call."""
    assemble = cache(partial(schroedinger_assemble, operators.two_cos_coeff))
    out: dict = {}
    M_ref = max(radii)
    model = assemble(M_ref)
    out["homological_defect"] = homological_defect(model)
    out["telescoping_defect"] = telescoping_defect(model)
    out["remainder_order"] = core.estimate_order(
        smoothing_remainder_family(assemble, radii)).r_hat

    def system(M) -> flows.SplitSystem:
        """Radius M's preconditioned step, then the plain Lie step of A and
        B, against the flow of the model's H = A + B."""
        level = assemble(M)
        return flows.SplitSystem(
            M, partial(flows.exact_flow, level.H),
            {"precond_lie": level.preconditioned_prop,
             flows.LIE: partial(flows.split_step, flows.LIE, level.A, level.B)},
            partial(core.sobolev_weights, level.block))

    systems = {M: system(M) for M in radii}
    ref = systems[M_ref]
    tables = flows.error_table(
        replace(ref, steps={"precond_lie": ref.steps["precond_lie"]}),
        [(s, ref.weights(s), core.rough_samples(model.block, s + 3.0,
                                                flows.N_SAMPLES, seed))
         for s in s_list])
    out["slopes"] = {s: tab.fit for (_, s), tab in tables.items()}
    out["error_rows"] = [r for tab in tables.values() for r in tab.rows]
    reports = flows.loss_scan(list(systems.values()), s_list[0])
    out["loss_preconditioned"], out["loss_baseline"] = \
        reports["precond_lie"], reports[flows.LIE]
    return out


# ---------------------------------------------------------------------------
# growth of Sobolev norms
_JOBS: list = []  # a growth pool child's trajectories, filled by its initializer


@dataclass(eq=False)
class GrowthModel:
    """Diagonal generator plus a time-dependent Hermitian perturbation."""

    phi: object = staticmethod(lambda x: x * x)
    rho: float = 0.0
    label: str = "growth_rho0"

    def perturbation_base(self, block) -> np.ndarray:
        base = spectral.mult_matrix_from_coeffs(operators.two_cos_coeff,
                                                block.size).entries
        if self.rho != 0.0:
            j = core.sobolev_weights(block, self.rho / 2.0)
            base = (j[:, None] * base) * j[None, :]
        return base

    def validity_horizon(self, period: int) -> float:
        return float(period) ** (1.0 - self.rho)


def _parity_basis(block) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal Q from the reflection k -> -k on Z_K: the even unit
    sequences, then the odd ones, each ordered by |k|; with the position of
    one index k of each column."""
    idx = block.indices()
    partner, _ = core._positions(block, -idx)
    rep = np.flatnonzero(partner <= np.arange(block.n))
    rep = rep[np.argsort(np.abs(idx[rep, 0]), kind="stable")]
    pair = rep[partner[rep] != rep]
    even, odd = np.arange(len(rep)), np.arange(len(rep), block.n)
    Q = np.zeros((block.n, block.n))
    Q[rep, even] = Q[partner[rep], even] = np.where(partner[rep] == rep, 1.0,
                                                    math.sqrt(0.5))
    Q[pair, odd], Q[partner[pair], odd] = math.sqrt(0.5), -math.sqrt(0.5)
    return Q, np.concatenate([rep, pair])


def growth_trajectory(model: GrowthModel, period: int, horizon: float,
                      s_list, delta: float, seed: int,
                      x0: np.ndarray | None = None) -> dict:
    """Exact frozen-coefficient evolution; the perturbation is held constant
    at the step midpoint over each step.

    Steps are exact in the parity basis Q of ``_parity_basis``, where
    diag(phi) + cos(t) base is one symmetric tridiagonal matrix and the h^s
    weights (even in k) stay diagonal. This needs a real ``perturbation_base``
    and an even ``phi``; a ValueError names the structure that fails.

    Each step is one ``flows.Factor.tridiagonal`` (LAPACK ``stevd``, as
    ``scipy.linalg.eigh_tridiagonal`` picks for a full spectrum). Finiteness
    of the tridiagonal parts is checked once, before the first step (|cos|
    <= 1 keeps every step's input finite), and a nonzero ``info`` raises
    LinAlgError naming the step."""
    block = periodic_block(1, period)
    Q, cols = _parity_basis(block)
    phi = np.array([model.phi(float(k)) for k in block.indices()[:, 0]])
    base = model.perturbation_base(block)
    D, T = Q.T @ (phi[:, None] * Q), Q.T @ base.real @ Q
    tol = 16 * np.finfo(float).eps
    for failed, what in (
            (np.any(base.imag), "perturbation_base is not real"),
            (np.max(np.abs(D - np.diag(np.diag(D)))) > tol * np.max(np.abs(phi)),
             "Q^T diag(phi) Q is not diagonal: phi is not even in k"),
            (np.max(np.abs(np.triu(T, 2) + np.tril(T, -2))) >
             tol * np.max(np.abs(base)), "Q^T perturbation_base Q is not tridiagonal")):
        if failed:
            raise ValueError(f"{model.label}: {what}")
    x = core.rough_samples(block, max(s_list), 1, seed)[0] \
        if x0 is None else np.asarray(x0, dtype=complex)
    # the state is kept as real (re, im) columns, so V and Q stay real
    y = Q.T @ np.column_stack([x.real, x.imag])
    a, b, e = np.diag(D), np.diag(T), np.diag(T, -1)
    if not all(np.isfinite(v).all() for v in (a, b, e)):
        raise ValueError(f"{model.label}: phi or perturbation_base is not finite")
    W = np.stack([core.sobolev_weights(block, s)[cols, None] for s in s_list])
    n_steps = int(round(horizon / delta))
    norms = np.empty((len(s_list), n_steps + 1))

    def record(j):
        # the ddot and correctly rounded sqrt of np.linalg.norm on a real array
        for i, z in enumerate((W * y).reshape(len(s_list), -1)):
            norms[i, j] = math.sqrt(z.dot(z))

    record(0)
    for j in range(n_steps):
        c = math.cos((j + 0.5) * delta)
        try:
            factor = flows.Factor.tridiagonal(a + c * b, c * e, None)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(f"{model.label}: " + str(err).replace(
                "failed", f"failed at step {j}")) from err
        y = factor.apply(delta, y.view(complex)).view(float)
        record(j + 1)
    return {"times": np.arange(n_steps + 1) * delta,
            "norms": dict(zip(s_list, norms)),
            "final_state": (Q @ y).view(complex).ravel()}


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_job(i: int) -> dict:
    return growth_trajectory(*_JOBS[i])


def _trajectories(jobs) -> list:
    """growth_trajectory(*job) for each job, in order: longest (steps x K) first in
    one fork pool whose children inherit the jobs (none is pickled), or serially."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    workers = min(_usable_cores(), len(jobs))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [growth_trajectory(*job) for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_JOBS.extend, initargs=(jobs,)) as pool:
        done = {i: pool.submit(_run_job, i) for i in sorted(
            range(len(jobs)), key=lambda i: -jobs[i][1] * jobs[i][2] / jobs[i][4])}
    return [done[i].result() for i in range(len(jobs))]


def sobolev_growth_study(studies, horizon: float, s_list, delta: float = 1e-2,
                         seed: int = 0) -> list[dict]:
    """One result per (model, periods) study of the list, in order:
    conservation drift, each bound ratio's max over the validity window
    common to the periods, the fitted growth exponent of the h^s norms
    against the time bracket, and the step-halving (Richardson) check on the
    coarsest period.  Every study's trajectories run in one ``_trajectories``
    pool, sized by the cores, longest first."""
    s_all = sorted(set(list(s_list) + [0.0]))
    jobs = []
    for model, periods in studies:
        # one draw on the finest block, projected to each coarser one, so the
        # cross-K stability measures the dynamics and not data variance
        big = periodic_block(1, max(periods))
        x_big = core.rough_samples(big, max(s_all), 1, seed)[0]
        jobs += [(model, K, horizon, s_all, delta, seed + K,
                  x_big[core._positions(big, periodic_block(1, K).indices())[0]])
                 for K in periods]
        jobs += [(model, min(periods), min(2.0, horizon), s_all, step,
                  seed + min(periods)) for step in (delta / 2, delta)]
    trajs = iter(_trajectories(jobs))
    # each study's periods, then its Richardson pair
    return [_growth_result(model, horizon, s_list, periods, delta,
                           [next(trajs) for _ in range(len(periods) + 2)])
            for model, periods in studies]


def _growth_result(model: GrowthModel, horizon: float, s_list, periods,
                   delta: float, trajs) -> dict:
    out: dict = {"ratio": {}, "conservation": {}, "exponent": {}, "rows": []}
    common_valid = min(min(model.validity_horizon(K) for K in periods), horizon)
    for K, tr in zip(periods, trajs):
        t = tr["times"]
        l2 = tr["norms"][0.0]
        drift = np.abs(l2[1:] / l2[0] - 1.0) / np.maximum(t[1:], delta)
        out["conservation"][K] = float(np.max(drift))
        for s in s_list:
            bracket = (1.0 + t ** 2) ** 0.5
            ratio = tr["norms"][s] / (bracket ** (s / (1.0 - model.rho)) *
                                      tr["norms"][s][0])
            out["ratio"][(s, K)] = float(np.max(ratio[t <= common_valid]))
            late = t >= 1.0
            fit = flows.fit_loglog(bracket[late], np.maximum(
                tr["norms"][s][late] / tr["norms"][s][0], 1e-300))
            out["exponent"][(s, K)] = fit.slope
            out["rows"].append({"level": K, "s": s,
                                "ratio_max": out["ratio"][(s, K)],
                                "exponent": fit.slope,
                                "conservation": out["conservation"][K]})
    fine, coarse = (tr["final_state"] for tr in trajs[-2:])
    out["richardson"] = float(np.linalg.norm(fine - coarse) / np.linalg.norm(coarse))
    return out


# ---------------------------------------------------------------------------
# probe registry for the batch driver: name -> (description, model parameters)


WATERWAVE_PROBES = {    # description, mu, rough bottom
    "waterwave": ("water waves, mu=1, b=cos(x)", 1.0, False),
    "waterwave_mu01": ("water waves, mu=0.1, b=cos(x)", 0.1, False),
    "waterwave_rough": ("water waves, mu=1, bounded random even topography", 1.0, True),
    "waterwave_stvenant": ("shallow-water limit (order warning: rho = r)", 0.0, False),
}
GROWTH_PROBES = {       # description, rho, leading K_list periods run (None: all)
    "growth_rho0": ("growth study, order-0 time-periodic perturbation", 0.0, None),
    "growth_rhom1": ("growth study, order -1 smoothed perturbation", -1.0, 2),
}


def waterwave_model(name: str, seed: int = 7) -> WaterWaveModel:
    _, mu, rough = WATERWAVE_PROBES[name]
    if not rough:
        return WaterWaveModel(mu, operators.cos_coeff, name)
    # cutoff below half the smallest probed period, so every level resolves
    # the same profile and no aliasing transient pollutes scans
    return WaterWaveModel(mu, operators.rough_even_coeff(seed, cutoff=15), name)


def growth_model(name: str) -> GrowthModel:
    return GrowthModel(rho=GROWTH_PROBES[name][1], label=name)
