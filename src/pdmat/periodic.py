"""Families of periodic matrices indexed by the grid period K.

A family is a list of K-periodic matrices at strictly increasing even
periods, the list ``core.estimate_order`` certifies, and is the discrete
stand-in for an operator class membership that must be uniform in K: its
order is certified when the per-matrix weighted sups, taken with bracket
norms, stay stable as K grows.  Products and commutators of families are
taken member by member.  Embedding a K-periodic matrix into a truncated
block (entries kept on the representative box, zero outside) connects the
two worlds and exposes the aliasing error of grid discretizations, which is
measured by :func:`approx_error`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core, flows
from .core import OpMatrix, PERIODIC, TRUNCATED, bracket_norm, truncated_block


# ---------------------------------------------------------------------------
# bracket-norm inequalities (exact integer arithmetic)
PAIR_BLOCK = 1 << 17  # entries of each pair-bracket block


def _all_residues(period: int, d: int) -> np.ndarray:
    return np.array(list(itertools.product(range(period), repeat=d)), dtype=np.int64)


def _bracket_type(period: int, d: int) -> np.dtype:
    """Narrowest integer type that holds every value the checks form.  Each
    bracket they read, and the extreme [a] of the Peetre check, is at most
    B = d * max(largest 1d bracket, K/2), and each value at most
    2(1 + 2B)^2, which is 2(1 + dK)^2 for the bracket norm."""
    top = int(bracket_norm(period, np.arange(period)[:, None]).max())
    return np.min_scalar_type(2 * (1 + 2 * d * max(top, period // 2)) ** 2)


def _residue_brackets(period: int, d: int) -> np.ndarray:
    return bracket_norm(period, _all_residues(period, d)).astype(_bracket_type(period, d))


def _pair_brackets(period: int, d: int, sign: int):
    """(rows, P) for blocks of residues r, P[i, c] = [sign*r_i + c] for all c
    in order: outer sums of 1d brackets in the checks' integer type, at most
    PAIR_BLOCK entries each."""
    idx = _all_residues(period, d)
    table = bracket_norm(period, np.arange(-period, 2 * period)[:, None]).astype(
        _bracket_type(period, d))
    near = table[period + sign * idx[:, :, None] + np.arange(period)]
    step = max(1, PAIR_BLOCK // len(idx))
    for lo in range(0, len(idx), step):
        out = near[lo:lo + step, 0]
        for j in range(1, d):
            out = (out[:, :, None] + near[lo:lo + step, j, None, :]).reshape(len(out), -1)
        yield slice(lo, lo + step), out


def bracket_triangle_holds(period: int, d: int) -> bool:
    """Exhaustive check of [a+b] <= [a]+[b] over Z_K^d x Z_K^d."""
    br = _residue_brackets(period, d)
    return not any(np.any(rab > br[a, None] + br)
                   for a, rab in _pair_brackets(period, d, 1))


def bracket_peetre_holds(period: int, d: int) -> bool:
    """Exhaustive check of (1+[a]+[c]) <= 2(1+[a]+[b])(1+[c-b]).

    The inequality depends on a only through [a]; (1+t+[c])/(1+t+[b]) is
    monotone in t, so for each (b, c) it is enough to check the extreme
    attainable bracket values t in {0, d*K/2}.  This is an exact reduction
    covering every index triple without enumerating K^(3d) of them.
    """
    br = _residue_brackets(period, d)
    return not any(np.any(1 + ra + br > 2 * (1 + ra + br[b, None]) * (1 + rcb))
                   for b, rcb in _pair_brackets(period, d, -1)
                   for ra in (0, d * (period // 2)))


# ---------------------------------------------------------------------------
# embedding into the truncated class


def embed(AK: OpMatrix, radius: int | None = None) -> OpMatrix:
    """Embed a K-periodic matrix into a truncated block.

    Entries are copied on the representative box G_K x G_K and are zero
    outside.  The default radius K/2 is the smallest one containing G_K.
    """
    if AK.block.mode != PERIODIC:
        raise ValueError("embed expects a periodic matrix")
    K = AK.block.size
    if radius is None:
        radius = K // 2
    if radius < K // 2:
        raise ValueError("radius must cover the representative box")
    tblock = truncated_block(AK.block.d, radius)
    entries = np.zeros((tblock.n, tblock.n), dtype=AK.entries.dtype)
    pos, valid = core._positions(tblock, AK.block.indices())
    if not valid.all():
        raise AssertionError("representative box must fit in target block")
    entries[np.ix_(pos, pos)] = AK.entries
    return OpMatrix(tblock, entries)


def restrict(A: OpMatrix, radius: int) -> OpMatrix:
    """Sub-matrix of a truncated matrix on a smaller concentric block."""
    if A.block.mode != TRUNCATED or radius > A.block.size:
        raise ValueError("restrict needs a truncated matrix and smaller radius")
    sub = truncated_block(A.block.d, radius)
    pos, _ = core._positions(A.block, sub.indices())
    return OpMatrix(sub, A.entries[np.ix_(pos, pos)])


# ---------------------------------------------------------------------------
# approximation error against a truncated limit operator


@dataclass(eq=False)
class ApproxErrorTable:
    rows: list              # dicts: probe, K, s, s_prime, error, fitted_rate
    decay_rate: float       # least-squares exponent of error ~ K^(-rate)
    residual: float


def approx_error(A_limit: OpMatrix, family, s: float, s_prime: float,
                 data_s: float | None = None, seed: int = 0,
                 probe: str = "") -> ApproxErrorTable:
    """Measured operator distance sup_x ||(A_limit - embed(A^K)) x||_s' / ||x||_data
    per K-periodic matrix A^K of the family, K its block size, with a fitted
    decay exponent in K.

    ``A_limit`` lives on a master truncated block covering every embedded
    period; the same data family (regularity ``data_s``, default s) is used
    for all K so the rows are comparable.  The family joins flows.N_SAMPLES
    rough spread-out samples with every unit frequency vector: for these
    near-diagonal error operators the concentrated vectors realize the
    operator-norm ratio, which is what carries the sharp loss rates.  The
    embedded matrix is zero beyond the representative box, so the spectral
    tail contributes at every period.
    """
    if not family:
        raise ValueError("approx_error needs a nonempty family of periodic matrices")
    if A_limit.block.mode != TRUNCATED:
        raise ValueError("A_limit must be a truncated matrix")
    master = A_limit.block.size
    if master < max(A.block.size for A in family) // 2:
        raise ValueError("master block must cover every embedded period")
    if data_s is None:
        data_s = s
    xs = core.rough_samples(A_limit.block, data_s, flows.N_SAMPLES, seed)
    w_out = core.sobolev_weights(A_limit.block, s_prime)
    w_data = core.sobolev_weights(A_limit.block, data_s)
    rows = []
    for A in family:
        E = A_limit - embed(A, radius=master)
        rows.append({"probe": probe, "K": A.block.size, "s": s, "s_prime": s_prime,
                     "error": flows._ratio_sup(E.entries, w_out, w_data, xs)})
    fit = flows.fit_loglog([r["K"] for r in rows],
                           [max(r["error"], 1e-300) for r in rows])
    rate, residual = (math.nan, math.nan) if fit is None else (-fit.slope, fit.residual)
    for r in rows:
        r["fitted_rate"] = rate
    return ApproxErrorTable(rows, rate, residual)
