"""Reference propagators, splitting steps, and convergence measurements.

The reference flow is exact at finite dimension up to roundoff, so order
fits see only the splitting error: ``exact_flow`` exponentiates an exactly
diagonal generator entrywise and any other by the ``Factor`` of its
Hermitian eigendecomposition (a generator that is neither raises), the one
place that builds e^{itH} and, in ``Factor.tridiagonal``, calls LAPACK
``stevd`` (``_lapack.stevd``, from numpy's OpenBLAS, or dense
``np.linalg.eigh`` where numpy's LAPACK has none); the water-wave study
brings its own normal-mode flow.  A real factor acts by ``real_product``, a
real matrix times the float view of a complex block.  Every flow is a
callable ``f(t, X)`` that applies e^{tG} to an (n, m) block X of column
vectors; its matrix is the flow applied to the identity, which only the
operator measurements build.  Local-error tables apply each step to the
stacked data at the step sizes TAU_LIST and fit the step-size order; the
loss scan takes the error-to-data ratio over the extra-regularity exponents
SIGMA_GRID and certifies the smallest one for which it is multiplicatively
stable (within LOSS_THETA) as the block refines, which needs the error
matrix itself.  Both measure one-step errors of a ``SplitSystem``: the exact
flow of one refinement level, the split steps approximating it (each a
name, LIE or STRANG, that ``compose`` applies), and its h^s weights.  Every
run uses these grids, so they are module constants, not arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import _lapack, core
from .core import OpMatrix

TAU_MAX = 0.5           # largest step size a splitting step accepts
FLOOR_FACTOR = 100.0    # roundoff floor of error tables, in eps times the data
TAU_STAR = 0.005        # reference step size of a loss level's error matrix
TAU_LIST = tuple(0.1 * 2.0 ** (-j) for j in range(7))   # steps of every error table
N_SAMPLES = 6           # rough data vectors of each error-table case
SIGMA_GRID = tuple(core.GRID_STEP * j for j in range(9))  # loss candidates 0..2
LOSS_THETA = 1.5        # a stable loss ratio sequence stays within this factor
NOISE_FLOOR = 1e-11     # loss ratios at or below this certify at once
HERMITIAN_TOL = 1e-12   # relative defect a generator's eigendecomposition accepts


class Factor(NamedTuple):
    """H = P V diag(w) V^H P^H for P = diag(p) (P = I when p is None): the
    Hermitian eigendecomposition every exact flow e^{itH} is built from."""

    w: np.ndarray
    V: np.ndarray
    p: np.ndarray | None

    @classmethod
    def tridiagonal(cls, d, e, p) -> Factor:
        """The factor, with phases p or None, of the real symmetric tridiagonal
        matrix with diagonal d and subdiagonal e by LAPACK ``stevd`` of numpy's
        OpenBLAS (a nonzero ``info`` raises LinAlgError), or by np.linalg.eigh
        where that library has no such routine."""
        if _lapack.DSTEVD is None:
            return cls(*np.linalg.eigh(np.diag(d) + np.diag(e, -1)), p)
        w, V, info = _lapack.stevd(d, e)
        if info != 0:
            raise np.linalg.LinAlgError(f"stevd failed (info {info})")
        return cls(w, V, p)

    def apply(self, t: float, X: np.ndarray) -> np.ndarray:
        """e^{itH} X for an (n, m) block X; a real V as p * V(e^{itw} *
        V^T(conj(p) * X)), two ``real_product``s."""
        V, p, ex = self.V, self.p, np.exp(1j * t * self.w)
        if V.dtype.kind == "c":
            return (V * ex) @ (V.conj().T @ X)
        if p is not None:
            X = np.multiply(p.conj()[:, None], X, order="C")
        Y = real_product(V, ex[:, None] * real_product(V.T, X))
        return Y if p is None else p[:, None] * Y

    def exp(self, t: float) -> np.ndarray:
        """The matrix e^{itH}: (V e^{itw}) V^H, or (p p^H) * (C + iS) with the
        real C = V cos(tw) V^T and S = V sin(tw) V^T."""
        w, V, p = self
        if p is None:
            return (V * np.exp(1j * t * w)) @ V.conj().T
        C, S = (V * np.cos(t * w)) @ V.T, (V * np.sin(t * w)) @ V.T
        return np.outer(p, p.conj()) * (C + 1j * S)


def hermitian_eigh(H: np.ndarray) -> Factor:
    """The Factor of the Hermitian H, read from its lower triangle as by
    np.linalg.eigh, which factors it unless H is exactly tridiagonal (n >= 3,
    no nonzero entry below the subdiagonal).  Then p = cumprod(off/|off|) of
    the subdiagonal (1 where an entry is 0, p_0 = 1, complex divisions for
    any dtype) makes P^H H P real, and ``Factor.tridiagonal`` factors it."""
    n = len(H)
    if n < 3 or np.tril(H, -2).any():
        return Factor(*np.linalg.eigh(H), None)
    off = np.diagonal(H, -1)
    e = np.abs(off)
    phase = np.ones(n, dtype=complex)
    np.divide(off, e, out=phase[1:], where=e != 0, dtype=complex)
    d = np.ascontiguousarray(np.diagonal(H).real, dtype=float)
    return Factor.tridiagonal(d, e, np.cumprod(phase))


@lru_cache(maxsize=64)
def _eigh_cached(A: OpMatrix) -> Factor:
    if not core.is_hermitian(A, HERMITIAN_TOL):
        raise ValueError(f"matrix fails the Hermitian scan: n = {A.block.n}, "
                         f"relative defect {core.hermitian_defect(A):.3g} > "
                         f"tolerance {HERMITIAN_TOL:g}")
    return hermitian_eigh(A.entries)


def exact_flow(G: OpMatrix, t: float, X: np.ndarray) -> np.ndarray:
    """e^{i t G} X for an (n, m) block X: entrywise when G is exactly
    diagonal (a tolerance would drop off-diagonal entries), else by the
    Factor of G, which raises ValueError for a non-Hermitian G."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if G.exactly_diagonal:
        return np.exp(1j * t * np.diag(G.entries))[:, None] * X
    return _eigh_cached(G).apply(t, X)


def real_product(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X for an (n, m) block X; a real A times a complex X is one real
    product with the (n, 2m) float view of X, which holds the real and
    imaginary parts side by side, instead of a complex one."""
    if X.dtype.kind == "c" and A.dtype.kind != "c":
        return (A @ np.ascontiguousarray(X).view(float)).view(complex)
    return A @ X


# ---------------------------------------------------------------------------
# splitting steps


LIE = "lie"             # a(tau) b(tau)
STRANG = "strang"       # b(tau/2) a(tau) b(tau/2)
LOCAL_ORDER = {LIE: 2.0, STRANG: 3.0}   # theory slope of each step's local error


def compose(scheme: str, a, b, tau: float, X: np.ndarray) -> np.ndarray:
    """One splitting step of size tau, named LIE or STRANG, of the sub-flows
    ``a`` and ``b`` (callables f(t, X)) applied to the block X: the sub-flows
    act right to left, and X goes to the first one; X = I gives the step's
    matrix.  Any other name raises ValueError.

    Ordering convention (matrices act on column vectors, so the right-most
    factor acts first): Lie is a(tau) b(tau), so b acts first; Strang is
    b(tau/2) a(tau) b(tau/2), with b's half steps outside.
    """
    if scheme not in LOCAL_ORDER:
        raise ValueError(f"unknown split step {scheme!r}")
    subflows = ((b, tau), (a, tau)) if scheme == LIE else \
        ((b, tau / 2), (a, tau), (b, tau / 2))
    for f, t in subflows:
        X = f(t, X)
    return X


def split_step(scheme: str, A: OpMatrix, B: OpMatrix, tau: float,
               X: np.ndarray) -> np.ndarray:
    """The step ``compose(scheme, ...)`` of size tau of the exact flows of the
    generators A and B, applied to the block X."""
    if abs(tau) > TAU_MAX:
        raise ValueError(f"|tau| must be at most {TAU_MAX}")
    core._check_same_block(A, B)
    return compose(scheme, partial(exact_flow, A), partial(exact_flow, B), tau, X)


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    n_points: int
    n_dropped: int = 0


def fit_loglog(xs, ys, drop=None) -> FitResult | None:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.ones(len(xs), dtype=bool) if drop is None else ~np.asarray(drop)
    if keep.sum() < 2:
        return None
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sqrt(np.mean((ly - np.polyval([slope, intercept], lx)) ** 2)))
    return FitResult(float(slope), float(intercept), residual,
                     int(keep.sum()), int((~keep).sum()))


# ---------------------------------------------------------------------------
# local error in the step size


@dataclass(frozen=True, eq=False)
class SplitSystem:
    """One refinement level of a split evolution: ``exact`` is its exact flow
    and ``steps`` maps each split step's name to the step approximating it,
    all flows f(tau, X) as ``compose`` takes them; ``weights(s)`` gives the
    h^s weights of its state space."""

    label: object
    exact: object
    steps: dict
    weights: object


def scalar_system(label, A: OpMatrix, B: OpMatrix, schemes) -> SplitSystem:
    """The split flows of A and B on their scalar block, one step per scheme
    name, against the flow of A + B."""
    return SplitSystem(
        label, partial(exact_flow, A + B),
        {scheme: partial(split_step, scheme, A, B) for scheme in schemes},
        partial(core.sobolev_weights, A.block))


@dataclass(eq=False)
class LocalErrorTable:
    rows: list                  # dicts: scheme, level, tau, s, error, floored
    fit: FitResult | None       # slope of log error vs log tau


def error_table(system: SplitSystem, cases) -> dict:
    """One table per (step name, s) for the (s, weights, xs) cases: the sup
    over the data vectors xs of ||weights * (step(tau) - exact(tau)) x|| per
    step size tau of TAU_LIST, with a log-log slope over the points above the
    roundoff floor, FLOOR_FACTOR * eps times the largest weighted datum.
    Every case's data are stacked as the columns of one block X, and
    exact(tau, X) is applied once for every step and step(tau, X) once for
    every case; no matrix is built."""
    if len({s for s, _, _ in cases}) < len(cases):
        raise ValueError("error table cases must have distinct s")
    data = [np.asarray(xs) for _, _, xs in cases]
    X = np.concatenate(data).T
    W = np.concatenate([np.repeat(weights[:, None], len(xs), axis=1)
                        for (_, weights, _), xs in zip(cases, data)], axis=1)
    starts = np.cumsum([0] + [len(xs) for xs in data[:-1]])

    def case_sups(Y):
        """Per case, the largest weighted norm of its columns of Y."""
        return np.maximum.reduceat(np.linalg.norm(W * Y, axis=0), starts)

    floors = FLOOR_FACTOR * np.finfo(float).eps * case_sups(X)
    rows = {(name, s): [] for name in system.steps for s, _, _ in cases}
    for tau in TAU_LIST:
        exact = system.exact(tau, X)
        for name, step in system.steps.items():
            errs = case_sups(step(tau, X) - exact)
            for (s, _, _), err, floor in zip(cases, errs, floors):
                rows[name, s].append({"scheme": name, "level": system.label,
                                      "tau": tau, "s": s, "error": float(err),
                                      "floored": bool(err <= floor)})
    return {key: LocalErrorTable(out, fit_loglog(
        [r["tau"] for r in out], [max(r["error"], 1e-300) for r in out],
        drop=[r["floored"] for r in out])) for key, out in rows.items()}


# ---------------------------------------------------------------------------
# derivative-loss estimation


@dataclass(eq=False)
class LossReport:
    sigma_hat: float
    certified: bool
    rows: list                  # dicts: scheme, level, s, sigma, norm_ratio


def _ratio_sup(E: np.ndarray, w_out: np.ndarray, w_in: np.ndarray) -> float:
    """The largest ratio ||w_out * (E x)|| / ||w_in * x|| over the unit
    frequency vectors x: the largest weighted column norm of E."""
    cols = np.sqrt(((w_out[:, None] * np.abs(E)) ** 2).sum(axis=0))
    return float(np.max(cols / w_in))


def loss_scan(systems, s: float) -> dict:
    """One LossReport per step name of the systems, one system per refinement
    level: the smallest extra regularity sigma of SIGMA_GRID for which the
    ratio sup_x ||E x||_s / ||x||_{s+sigma} is stable across the levels
    (within factor LOSS_THETA, see core._stable_rows), with E the
    step's one-step error at TAU_STAR as a matrix, the flows applied to the
    identity of the level's state space (exact(TAU_STAR, I) is built once per
    level for every step).

    The sup is taken over the unit frequency vectors (``_ratio_sup``): a
    genuine loss makes these concentrated ratios grow across levels and
    rejects too-small candidates, while the grid maximum is reported
    (uncertified) when nothing stabilizes.  Stability needs a refinement, so
    at least 2 levels.
    """
    if len(systems) < 2:
        raise ValueError(f"loss scan needs at least 2 levels, got {len(systems)}")
    labels = [system.label for system in systems]
    errors = []
    for system in systems:
        eye = np.eye(system.weights(s).size)
        exact = system.exact(TAU_STAR, eye)
        errors.append({name: step(TAU_STAR, eye) - exact
                       for name, step in system.steps.items()})
    reports = {}
    for name in systems[0].steps:
        rows = []
        sigma_hat, certified = SIGMA_GRID[-1], False
        for sigma in SIGMA_GRID:
            vals = [_ratio_sup(E[name], system.weights(s), system.weights(s + sigma))
                    for system, E in zip(systems, errors)]
            rows += [{"scheme": name, "level": label, "s": s, "sigma": sigma,
                      "norm_ratio": v} for label, v in zip(labels, vals)]
            if max(vals) <= NOISE_FLOOR or \
                    core._stable_rows([vals], labels, LOSS_THETA)[0]:
                sigma_hat, certified = sigma, True
                break
        reports[name] = LossReport(sigma_hat, certified, rows)
    return reports


# ---------------------------------------------------------------------------
# propagator norm stability


def propagator_norm_bound(flow, times, samples, weights) -> float:
    """Measured sup over the times t and the data x (one per row of samples)
    of ||weights * flow(t, x)|| / ||weights * x||."""
    X = np.asarray(samples).T
    den = np.linalg.norm(weights[:, None] * X, axis=0)
    return max(float(np.max(np.linalg.norm(weights[:, None] * flow(t, X), axis=0)
                            / den)) for t in times)
