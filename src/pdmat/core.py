"""Dense calculus for truncated and periodic operator matrices.

The index geometry lives in :class:`IndexBlock`: either a symmetric truncated
block {-M..M}^d of Z^d, or the cyclic group Z_K^d with representatives taken
in {-K/2..K/2-1}^d (K even).  :class:`OpMatrix` is one dense matrix over the
active index set, stored as float64 when its data are real and as complex128
when they are complex, so real operators and their products and commutators
move half the bytes.  In truncated mode, a diagonal difference is taken
on the interior where its full shift stencil stays inside the block and reads
0 off it, so weighted sups run over interior entries only.  A vector is a
flat complex array over the same index order; its h^s norm is the l2 norm of
its product with :func:`sobolev_weights`.  A translation-invariant matrix,
whose entry (m, n) depends only on m - n, is one table over
:func:`difference_block` gathered by :func:`toeplitz`.  Index arithmetic over
position pairs goes one axis at a time: the position of m - n and the (size,
dist) bins below are axis sums of one (side, side) table per axis, so no
(n^2, d) array of differences is built.

The weighted sups computed by :func:`seminorm` quantify the order of an
operator (growth of entries and of their iterated diagonal differences along
the diagonal, decay away from it).  :func:`estimate_order` turns them into a
falsifiable certification: an order value is accepted when the seminorms stay
multiplicatively stable as the block is refined.  One array pass over the
table of seminorm sequences decides every (order, alpha, decay) cell, with one
least-squares fit for all the slopes.

The weight (1+dist)^decay / (1+size)^(order-|alpha|) reads a position pair
only through size = |m|+|n| and dist, and a block has few distinct (size,
dist) bins.  So every sup takes the max of |D| over the entries of each bin
once per (alpha, member), multiplies it by (1+dist)^decay per decay and
folds it onto sizes, then divides by (1+size)^(order-|alpha|) per order.
Multiplication and division by a positive constant are monotone under IEEE
rounding, so the max of the products is the product of the max: the result
equals the entrywise sup bit for bit, at one O(n^2) pass per (alpha, member).
Each pair's bin is looked up from its (size, dist) key, not sorted, and
kept as one small unsigned id per pair.  A scan takes the forward
difference by |alpha| once for every alpha with the same |alpha|, and reads
each backward difference from the same magnitudes |alpha_j| steps on.

Memory stays bounded.  A scan takes, makes magnitudes of and bins the
differences CHUNK_ENTRIES entries at a time (rows of m_1, with a halo of
|alpha_1| rows), so past its inputs and the block's bin ids (n^2 small ints)
it holds a few chunks.  A commutator with a real diagonal factor subtracts
BA from the AB it returns by blocks of CHUNK_ENTRIES entries, so it holds
one n^2 array of the result dtype, one block, and then the n^2 bools that
validate it; only two dense factors make it hold a second n^2 array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TRUNCATED = "truncated"
PERIODIC = "periodic"

_TINY = 1e-300
GRID_STEP = 0.25        # step of the order and loss grids
# largest log-log growth exponent of a stable seminorm sequence: half the
# grid step, so that a deficit of one grid step is rejected
GROWTH_TOL = GRID_STEP / 2
ORDER_GRID = tuple(GRID_STEP * j for j in range(-12, 13))   # candidate orders -3..3
ORDER_THETA = 2.0       # a stable seminorm sequence stays within this factor
# difference multi-indices alpha of the order scan, by dimension d
ALPHA_GRIDS = {1: ((0,), (1,), (-1,), (2,)),
               2: ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))}
# entries of an n x n matrix that a diagonal difference or a diagonal
# commutator works on at once
CHUNK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# index blocks


@dataclass(frozen=True)
class IndexBlock:
    """Active index set: dimension d, mode, and radius M or period K.

    Truncated mode covers {-size..size}^d; periodic mode covers Z_size^d with
    representatives in {-size/2..size/2-1}^d and index arithmetic mod size.
    """

    d: int
    mode: str
    size: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.mode == TRUNCATED:
            if self.size < 1:
                raise ValueError("truncated radius must be >= 1")
        elif self.mode == PERIODIC:
            if self.size < 4 or self.size % 2 != 0:
                raise ValueError("period must be even and >= 4")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def side(self) -> int:
        return 2 * self.size + 1 if self.mode == TRUNCATED else self.size

    @property
    def n(self) -> int:
        return self.side ** self.d

    @property
    def axis_range(self) -> range:
        if self.mode == TRUNCATED:
            return range(-self.size, self.size + 1)
        return range(-self.size // 2, self.size // 2)

    def indices(self) -> np.ndarray:
        """All active multi-indices, shape (n, d), in canonical order."""
        return self._indices

    # Arrays derived from the index set alone.  Each is computed on first use
    # and kept in the instance dict (cached_property writes there directly,
    # past the frozen __setattr__), so it lives exactly as long as the block.

    @cached_property
    def _indices(self) -> np.ndarray:
        idx = np.array(list(itertools.product(self.axis_range, repeat=self.d)),
                       dtype=np.int64)
        idx.setflags(write=False)
        return idx

    @cached_property
    def _l1_sizes(self) -> np.ndarray:
        out = np.abs(self._indices).sum(axis=1).astype(float)
        out.setflags(write=False)
        return out

    @cached_property
    def _pair_bins(self) -> tuple:
        """(bin_id, size, dist): the n^2 position pairs, flattened row-major,
        binned by size(m, n) = |m|+|n| and dist(m, n), which is |m-n|
        (truncated) or the bracket norm of m-n (periodic).  bin_id[p] is the
        bin of pair p, in the narrowest unsigned type that holds every bin;
        the bins run in (size, dist) order, and size[b], dist[b] are the ints
        of bin b.  Both are sums over the axes, so the key size * span + dist
        is the axis sum of one (side, side) table, and a lookup table over
        the keys present maps each key to its bin."""
        a = np.asarray(self.axis_range, dtype=np.int64)
        gap = a[:, None] - a[None, :]
        if self.mode == PERIODIC:
            gap = representative(self.size, gap)
        gap = np.abs(gap)
        span = self.d * int(gap.max()) + 1      # above every dist
        table = (np.abs(a)[:, None] + np.abs(a)[None, :]) * span + gap
        table = table.astype(np.min_scalar_type(self.d * int(table.max())))
        key = _axis_sum([table] * self.d).ravel()
        present = np.zeros(int(key.max()) + 1, dtype=bool)
        present[key] = True
        keys = np.flatnonzero(present)
        lookup = np.zeros(present.size, dtype=np.min_scalar_type(len(keys) - 1))
        lookup[keys] = np.arange(len(keys))
        out = (lookup[key], *np.divmod(keys, span))
        for arr in out:
            arr.setflags(write=False)
        return out

    def origin(self) -> int:
        """Position of the zero index."""
        off = self.size if self.mode == TRUNCATED else self.size // 2
        pos = 0
        for _ in range(self.d):
            pos = pos * self.side + off
        return pos


def truncated_block(d: int, radius: int) -> IndexBlock:
    return IndexBlock(d, TRUNCATED, radius)


def periodic_block(d: int, period: int) -> IndexBlock:
    return IndexBlock(d, PERIODIC, period)


def _positions(block: IndexBlock, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of multi-indices (n, d) in canonical order, plus validity.

    Periodic indices wrap mod K and are always valid; truncated indices
    outside the block get valid=False (their position entry is unusable).
    """
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    side = block.side
    if block.mode == PERIODIC:
        off = (idx + block.size // 2) % block.size
        valid = np.ones(len(idx), dtype=bool)
    else:
        off = idx + block.size
        valid = np.all((off >= 0) & (off < side), axis=1)
        off = np.clip(off, 0, side - 1)
    pos = off[:, 0]
    for k in range(1, block.d):
        pos = pos * side + off[:, k]
    return pos, valid


def _axis_sum(tables) -> np.ndarray:
    """(n, n) array over the position pairs (m, n) of a d-axis block in
    canonical order, whose entry is the sum over axes k of tables[k][m_k, n_k],
    each table (side, side) over the axis range."""
    out = tables[0]
    for t in tables[1:]:
        out = (out[:, None, :, None] + t[None, :, None, :]).reshape(
            out.shape[0] * t.shape[0], -1)
    return out


def representative(period: int, a) -> np.ndarray:
    """Representative of a mod K in {-K/2..K/2-1} (componentwise)."""
    a = np.asarray(a, dtype=np.int64)
    return (a + period // 2) % period - period // 2


def bracket_norm(period: int, a) -> np.ndarray:
    """l1 size of the representative of a, the periodic substitute for |a|."""
    r = representative(period, a)
    return np.abs(r).sum(axis=-1) if r.ndim > 0 else np.abs(r)


def sobolev_weights(block: IndexBlock, s: float) -> np.ndarray:
    """Diagonal h^s weights (1+|k|)^s over the active indices."""
    return (1.0 + block._l1_sizes) ** s


def difference_block(block: IndexBlock) -> IndexBlock:
    """Block of the differences m - n of two indices of ``block``: the
    truncated block of radius 2M, or the periodic block itself, where
    differences wrap mod K."""
    return truncated_block(block.d, 2 * block.size) if block.mode == TRUNCATED else block


# ---------------------------------------------------------------------------
# vectors


def rough_samples(block: IndexBlock, s: float, n_samples: int, seed: int,
                  zero_mean: bool = False) -> np.ndarray:
    """Seeded near-extremal h^s data, one sample per row of an (n_samples, n)
    array: |x_k| = (1+|k|)^(-s-0.51), random phases.

    Such x lies in h^s but in no h^(s+e) for e > 0.01, so an error sup over
    these vectors credits them with no more regularity than s.
    """
    rng = np.random.default_rng(seed)
    amp = (1.0 + block._l1_sizes) ** (-s - 0.51)
    out = amp * np.exp(2j * np.pi * rng.uniform(size=(n_samples, block.n)))
    if zero_mean:
        out[:, block.origin()] = 0.0
    return out


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, eq=False)
class OpMatrix:
    """Dense matrix over a block, stored in np.result_type(data, float): real
    or integer data as float64, complex data as complex128.  Instances are
    immutable values; all operations return new matrices."""

    block: IndexBlock
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        e = np.ascontiguousarray(e, dtype=np.result_type(e.dtype, float))
        n = self.block.n
        if e.shape != (n, n):
            raise ValueError(f"entries must have shape ({n}, {n})")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @cached_property
    def exactly_diagonal(self) -> bool:  # scanned once per matrix
        """No nonzero entry off the diagonal.  Past the first entry, rows of
        n + 1 flat entries each start off the diagonal and end on it, so the
        first n of each row are exactly the off-diagonal entries: a strided
        view, scanned with no temporary."""
        n = self.block.n
        return not self.entries.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any()

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        _check_same_block(self, other)
        return OpMatrix(self.block, self.entries + other.entries)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        _check_same_block(self, other)
        return OpMatrix(self.block, self.entries - other.entries)


def _check_same_block(a: OpMatrix, b: OpMatrix):
    if a.block != b.block:
        raise ValueError(f"block mismatch: {a.block} vs {b.block}")


def diagonal_matrix(block: IndexBlock, diag) -> OpMatrix:
    d = np.asarray(diag)
    if d.shape != (block.n,):
        raise ValueError(f"diagonal must have shape ({block.n},)")
    return OpMatrix(block, np.diag(d))


def toeplitz(block: IndexBlock, values: np.ndarray) -> OpMatrix:
    """Translation-invariant matrix: entry(m, n) = values[m - n], with one
    value per index of difference_block(block), in canonical order.  The
    position of m - n has digit (m_k - n_k) per axis k, shifted into the
    difference block's range and wrapped mod its side (periodic mode), so it
    is the axis sum of one (side, side) table per axis."""
    diff = difference_block(block)
    a = np.asarray(block.axis_range, dtype=np.int64)
    digits = (a[:, None] - a[None, :] - diff.axis_range.start) % diff.side
    pos = _axis_sum([digits * diff.side ** (block.d - 1 - k) for k in range(block.d)])
    return OpMatrix(block, values[pos])


def is_diagonal(A: OpMatrix, tol: float) -> bool:
    """Off-diagonal |A_ij| <= tol * max(1, max |A|), and a finite diagonal.
    At tol = 0 this is OpMatrix.exactly_diagonal, by way of |A|."""
    mag = np.abs(A.entries)
    bound = tol * max(1.0, np.max(mag))
    np.fill_diagonal(mag, 0.0)
    return bool(np.isfinite(np.diagonal(A.entries)).all() and np.max(mag) <= bound)


def hermitian_defect(A: OpMatrix) -> float:
    """max |A - A^H| relative to max(1, max |A|)."""
    scale = max(1.0, float(np.max(np.abs(A.entries))))
    return float(np.max(np.abs(A.entries - A.entries.conj().T))) / scale


def is_hermitian(A: OpMatrix, tol: float = 1e-12) -> bool:
    return hermitian_defect(A) <= tol


# ---------------------------------------------------------------------------
# difference calculus and seminorms


def _step_slices(d: int, j: int, sign: int) -> tuple:
    """(ahead, here): index tuples into a (side,)*2d view whose entries at
    ``ahead`` sit one step of sign*e_j past those at ``here``, with axes j-1
    and d+j-1 (axis j of m and of n) moving together."""
    ahead, here = [slice(None)] * (2 * d), [slice(None)] * (2 * d)
    head, tail = slice(None, -1), slice(1, None)
    for ax in (j - 1, d + j - 1):
        ahead[ax], here[ax] = (tail, head) if sign > 0 else (head, tail)
    return tuple(ahead), tuple(here)


def delta(A: OpMatrix, alpha) -> OpMatrix:
    """Iterated diagonal difference: per axis, alpha_j >= 0 composes the
    forward difference, A(m + e_j, n + e_j) - A(m, n), alpha_j <= 0 the
    backward one.

    Periodic mode wraps.  Truncated mode takes each unit step on the overlap
    of the two shifted slices of the (side,)*2d view, so the array shrinks by
    one along axis j of m and of n, and puts the survivors into zeros once,
    at the interior box.  The result is exactly 0 off its interior, where
    the stencil leaves the block, so apply it once with the full alpha
    rather than iterating it.
    """
    block = A.block
    alpha = _normalize_alpha(block.d, alpha)
    if not any(alpha):
        return A
    d, side, n = block.d, block.side, block.n
    view = A.entries.reshape((side,) * (2 * d))
    if block.mode == PERIODIC:
        for j, a in enumerate(alpha, start=1):
            sign = 1 if a >= 0 else -1
            for _ in range(abs(a)):
                view = np.roll(view, (-sign, -sign), (j - 1, d + j - 1)) - view
        return OpMatrix(block, view.reshape(n, n))
    box = _interior_box(block, alpha)
    for j, a in enumerate(alpha, start=1):
        ahead, here = _step_slices(d, j, 1 if a >= 0 else -1)
        for _ in range(abs(a)):
            view = view[ahead] - view[here]
    out = np.zeros((side,) * (2 * d), dtype=A.entries.dtype)
    out[box] = view
    return OpMatrix(block, out.reshape(n, n))


def _interior_box(block: IndexBlock, alpha: tuple) -> tuple:
    """Index tuple into the (side,)*2d view of a truncated block: the pairs
    (m, n) with m + alpha and n + alpha inside the block, where the stencil
    of delta(., alpha) stays inside it."""
    if _l1(alpha) >= block.size:
        raise ValueError("|alpha| >= radius leaves an empty interior")
    d, side = block.d, block.side
    box = [slice(None)] * (2 * d)
    for j, a in enumerate(alpha):
        box[j] = box[d + j] = slice(max(-a, 0), side - max(a, 0))
    return tuple(box)


def _normalize_alpha(d: int, alpha) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != d:
        raise ValueError(f"alpha must have {d} components")
    return alpha


def _l1(alpha) -> int:
    return int(sum(abs(a) for a in alpha))


def _window(arr: np.ndarray, ranges) -> np.ndarray:
    """arr at the positions of one range per leading axis, taken mod the
    axis length: a view where no range runs past the end, else a copy."""
    for ax, r in enumerate(ranges):
        if r.stop <= arr.shape[ax]:
            arr = arr[(slice(None),) * ax + (slice(r.start, r.stop),)]
        else:
            arr = arr.take(r, axis=ax, mode="wrap")
    return arr


def _box_maxima(block: IndexBlock, mag: np.ndarray, box) -> np.ndarray:
    """Max of mag, which holds |D| at the positions box of the (side,)*2d
    view (one range per axis, wrapping mod side; () is the whole view), over
    each (size, dist) bin of the block (see IndexBlock._pair_bins).  Every
    bin starts at 0 and mag >= 0, so the entries off the box count as 0."""
    bin_id, size, _ = block._pair_bins
    ids = _window(bin_id.reshape((block.side,) * (2 * block.d)), box)
    out = np.zeros(len(size))
    np.maximum.at(out, ids.ravel(), mag.ravel())
    return out


def _frame(block: IndexBlock, alpha: tuple) -> list:
    """Positions of delta(., alpha) along each axis of m (and of n), one
    range per axis: the interior box (truncated), or every position counted
    from max(-alpha_j, 0) (periodic).  The forward difference by |alpha|,
    taken from position 0 on, holds the magnitudes of delta(., alpha) at
    these positions."""
    if block.mode == TRUNCATED:
        return [range(s.start, s.stop) for s in _interior_box(block, alpha)[:block.d]]
    return [range(max(-a, 0), max(-a, 0) + block.side) for a in alpha]


def _forward_difference(view: np.ndarray, steps: tuple) -> np.ndarray:
    """The forward difference by steps of a (.,)*2d view, one axis at a
    time, each unit step on the overlap of the two shifted slices."""
    for j, k in enumerate(steps, start=1):
        ahead, here = _step_slices(len(steps), j, 1)
        for _ in range(k):
            view = view[ahead] - view[here]
    return view


def _bin_maxima(A: OpMatrix, alphas) -> list:
    """Max of |delta(A, alpha)| over each (size, dist) bin of the block, for
    each alpha of alphas.  Off the truncated interior the difference is 0,
    which leaves every sup of the nonnegative ratios unchanged, so only the
    interior is binned.  A backward difference of k steps is (-1)^k times
    the forward one k steps on, since fl(a - b) = -fl(b - a), so every alpha
    with the same |alpha| bins the magnitudes of one forward difference, each
    at its own frame (see _frame; periodic frames wrap).

    The difference is taken, made magnitudes and binned one chunk of
    CHUNK_ENTRIES entries of the (side,)*2d view at a time, a chunk being
    rows of the leading axis (m_1), read with a halo of |alpha_1| rows more.
    So besides the block's bin ids, no array larger than a few chunks is
    alive, and the maxima equal those of the whole difference bit for bit.
    """
    block = A.block
    view = A.entries.reshape((block.side,) * (2 * block.d))
    rows = max(1, CHUNK_ENTRIES // (view.size // block.side))
    out = {}
    for steps in dict.fromkeys(tuple(map(abs, alpha)) for alpha in alphas):
        frames = {alpha: _frame(block, alpha) for alpha in alphas
                  if tuple(map(abs, alpha)) == steps}
        length = [len(r) for r in next(iter(frames.values()))]
        full = [range(n + k) for n, k in zip(length, steps)]
        for alpha in frames:
            out[alpha] = np.zeros(len(block._pair_bins[1]))
        for start in range(0, length[0], rows):
            stop = min(start + rows, length[0])
            mag = np.abs(_forward_difference(_window(
                view, [range(start, stop + steps[0]), *full[1:], *full]), steps))
            for alpha, frame in frames.items():
                box = [frame[0][start:stop], *frame[1:], *frame]
                np.maximum(out[alpha], _box_maxima(block, mag, box), out=out[alpha])
            mag = None          # freed before the next chunk is differenced
    return [out[alpha] for alpha in alphas]


def _size_envelope(bin_max: np.ndarray, block: IndexBlock, decay: int) -> np.ndarray:
    """env[s] = max of |D| (1+dist)^decay over the entries with |m|+|n| = s,
    from the bin maxima, bit for bit (see the module docstring)."""
    _, size, dist = block._pair_bins
    env = np.zeros(int(size[-1]) + 1)
    np.maximum.at(env, size, bin_max * (1.0 + dist) ** decay)
    return env


def seminorm(A: OpMatrix, alpha, decay: int, order: float) -> float:
    """Weighted sup of the alpha-th diagonal difference of A.

    The weight is (1+dist)^decay / (1+size)^(order-|alpha|) with dist and
    size in the block's arithmetic and decay >= 0; the sup runs over the
    interior of the difference (see delta).
    """
    if decay < 0:
        raise ValueError("decay exponent must be >= 0")
    alpha = _normalize_alpha(A.block.d, alpha)
    env = _size_envelope(_bin_maxima(A, [alpha])[0], A.block, decay)
    return float(np.max(env / (1.0 + np.arange(env.size)) ** (order - _l1(alpha))))


# ---------------------------------------------------------------------------
# products and commutators


def matmul(A: OpMatrix, B: OpMatrix) -> OpMatrix:
    """Finite matrix product over the active index set (the truncation stands
    in for the infinite sum; off-diagonal decay makes the tail negligible)."""
    _check_same_block(A, B)
    return OpMatrix(A.block, _product(A, B))


def _product(A: OpMatrix, B: OpMatrix, rows=slice(None)) -> np.ndarray:
    """Rows of A @ B as a new array that nothing else holds."""
    # a real diagonal factor scales rows or columns: every other term of the
    # dense product is an exact zero, so the result is the same bit for bit
    if _real_diagonal(A):
        return np.diagonal(A.entries)[rows, None] * B.entries[rows]
    if _real_diagonal(B):
        return A.entries[rows] * np.diagonal(B.entries)
    return A.entries[rows] @ B.entries


def _real_diagonal(A: OpMatrix) -> bool:
    return A.exactly_diagonal and not np.diagonal(A.entries).imag.any()


def commutator(A: OpMatrix, B: OpMatrix) -> OpMatrix:
    """AB - BA, with BA subtracted in place from the AB it owns, and the
    result validated once.  Both products have the dtype np.result_type(A,
    B), and a non-finite intermediate leaves a non-finite entry, which
    OpMatrix rejects.  With a real diagonal factor BA is entrywise, so it is
    subtracted CHUNK_ENTRIES entries of rows at a time and one n^2 array is
    alive; two dense factors hold both products, since a product taken by
    blocks of rows need not round as the whole one does."""
    _check_same_block(A, B)
    out = _product(A, B)
    if _real_diagonal(A) or _real_diagonal(B):
        step = max(1, CHUNK_ENTRIES // len(out))
        for start in range(0, len(out), step):
            out[start:start + step] -= _product(B, A, slice(start, start + step))
    else:
        out -= _product(B, A)
    return OpMatrix(A.block, out)


# ---------------------------------------------------------------------------
# order certification


@dataclass(frozen=True, eq=False)
class OrderEstimate:
    """Result of an order-certification scan across a refinement family.

    ``max_ratios[i_r, i_a, i_n, i_m]`` is the seminorm of family member i_m at
    order grid point i_r for probe (alpha_grid[i_a], decay_grid[i_n]);
    ``certified[i_r, i_a, i_n]`` records multiplicative stability.  ``r_hat``
    is the smallest fully certified grid order, or +inf.  Only the listed
    decay exponents are probed (the class definition quantifies over all).
    """

    r_hat: float
    order_grid: tuple
    alpha_grid: tuple
    decay_grid: tuple
    sizes: tuple
    max_ratios: np.ndarray
    certified: np.ndarray


def _stable_rows(values, sizes, theta: float) -> np.ndarray:
    """Multiplicative stability of each row of a table of seminorm sequences
    across refinement (one column per family member, at the given sizes).

    A row is stable when it is all within _TINY of zero, or, with some entry
    that small, when its max is at most 1e-12.  Otherwise it needs
    boundedness within factor theta of its first value, and a growth trend
    consistent with an order deficit below GROWTH_TOL: either the fitted
    log-log slope stays under GROWTH_TOL, or the per-step growth exponents are
    non-increasing (a dying transient, typical of sups converging from below)
    with the final one under GROWTH_TOL.  A genuine power-law deficit keeps a
    constant per-step exponent equal to the deficit and is rejected.  One
    least-squares fit with a column per row gives every slope; logs are taken
    only of the rows that reach it, which have no zero.
    """
    v = np.asarray(values, dtype=float)
    some_tiny = np.any(v <= _TINY, axis=1)
    vmax = np.max(v, axis=1)
    # all entries <= _TINY implies max <= 1e-12
    stable = some_tiny & (vmax <= 1e-12)
    fit = ~some_tiny & ~(vmax > theta * v[:, 0])
    if fit.any():
        logs = np.log(np.asarray(sizes, float))
        logv = np.log(v[fit])
        slope = np.polyfit(logs, logv.T, 1)[0]
        g = np.diff(logv, axis=1) / np.diff(logs)
        transient = np.all(np.diff(g, axis=1) <= 1e-9, axis=1) & (g[:, -1] <= GROWTH_TOL)
        stable[fit] = (slope <= GROWTH_TOL) | transient
    return stable


def estimate_order(family, decay_grid=(0, 2, 4, 8),
                   order_grid=ORDER_GRID) -> OrderEstimate:
    """Certify the effective order of a family built at increasing M (or K).

    A grid order r is certified for one probe (alpha, decay), alpha from
    ALPHA_GRIDS[d] and decay from decay_grid, when the seminorm sequence
    across the family (a) stays within factor ORDER_THETA of its first value
    and (b) shows a fitted log-log growth exponent at most GROWTH_TOL (see
    _stable_rows).  r_hat is the smallest r of order_grid certified for
    every probe.

    The family needs at least 2 members.  Per member and alpha, one pass
    bins |D| by (size, dist); per decay, the bins fold onto one size envelope
    (the max of |D| (1+dist)^decay for each |m|+|n|), which yields the
    seminorms of every grid order, bit-identical to the entrywise sups (see
    the module docstring).
    """
    family = list(family)
    if len(family) < 2:
        raise ValueError("family must have at least 2 members, got "
                         f"{len(family)}")
    sizes = tuple(A.block.size for A in family)
    if sorted(sizes) != list(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("family must be built at strictly increasing sizes")
    alpha_grid = ALPHA_GRIDS[family[0].block.d]
    decay_grid = tuple(int(n) for n in decay_grid)
    order_grid = tuple(float(r) for r in order_grid)

    n_r, n_a, n_n, n_m = len(order_grid), len(alpha_grid), len(decay_grid), len(family)
    ratios = np.zeros((n_r, n_a, n_n, n_m))
    for i_m, A in enumerate(family):
        s = 1.0 + np.arange(A.block._pair_bins[1][-1] + 1)   # all sizes
        powers = {la: np.array([s ** (r - la) for r in order_grid])
                  for la in {_l1(alpha) for alpha in alpha_grid}}
        for i_a, (alpha, bin_max) in enumerate(zip(alpha_grid,
                                                    _bin_maxima(A, alpha_grid))):
            la = _l1(alpha)
            for i_n, decay in enumerate(decay_grid):
                env = _size_envelope(bin_max, A.block, decay)
                ratios[:, i_a, i_n, i_m] = np.max(env / powers[la], axis=1)
    certified = _stable_rows(ratios.reshape(-1, n_m), sizes,
                             ORDER_THETA).reshape(n_r, n_a, n_n)
    r_hat = next((r for r, c in zip(order_grid, certified) if c.all()), math.inf)
    return OrderEstimate(r_hat, order_grid, alpha_grid, decay_grid, sizes,
                         ratios, certified)


# ---------------------------------------------------------------------------
# Young's convolution inequality


YOUNG_WIDTH = 11        # longest sequence of the Young check
YOUNG_PAIRS = 1000      # random pairs per exponent triple of the Young check


def young_ratios(rng: np.random.Generator, p: float, q: float,
                 r: float) -> np.ndarray:
    """||x * y||_r / (||x||_p ||y||_q) for YOUNG_PAIRS random complex
    sequences x, y of lengths 1..YOUNG_WIDTH, which Young's inequality bounds
    by 1 when 1/p + 1/q = 1 + 1/r.  One draw gives the lengths of every x and
    y, one standard normal draw their real and imaginary parts as
    (YOUNG_PAIRS, YOUNG_WIDTH) rows, zeroed past each length.  The full
    convolutions of all pairs come from YOUNG_WIDTH shifted multiply-adds of
    the padded rows; zeros change no norm."""
    lengths = rng.integers(1, YOUNG_WIDTH + 1, size=(2, YOUNG_PAIRS, 1))
    parts = rng.standard_normal((2, 2, YOUNG_PAIRS, YOUNG_WIDTH))
    x, y = (parts[:, 0] + 1j * parts[:, 1]) * (np.arange(YOUNG_WIDTH) < lengths)
    conv = np.zeros((YOUNG_PAIRS, 2 * YOUNG_WIDTH - 1), dtype=complex)
    for k in range(YOUNG_WIDTH):
        conv[:, k:k + YOUNG_WIDTH] += x[:, k:k + 1] * y
    return _row_norms(conv, r) / (_row_norms(x, p) * _row_norms(y, q))


def _row_norms(a: np.ndarray, p: float) -> np.ndarray:
    """l^p norm of each row of a."""
    a = np.abs(a)
    if p == math.inf:
        return a.max(axis=1)
    return (a ** p).sum(axis=1) ** (1.0 / p)
