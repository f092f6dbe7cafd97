"""Frames, projection families, and the exact finite criteria on them.

A Frame is an ordered family of nonzero vectors; a ProjectionFamily is an
ordered family of validated orthogonal projections with cached range ONBs.
The checkers here (complement property, full spark, pointwise spanning)
are exact enumeration procedures; the constructors turn a failed check
into an explicit bad point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .linalg import (
    DEFAULT_TOL,
    Field,
    Tolerances,
    as_field_array,
    ensure_finite,
    image_rank,
    normalized,
    pow2_scaled,
    rank_cutoff,
)

# Rounding guard of the certain-spans screen that both exact walks run
# before their exact rank rule (_screen_spans).  A row's scatter matrix
# S = V V*, V its selected columns, is certified when the Cholesky
# elimination of S - t I with t = max(ratio * tr(S), floor) completes with
# positive pivots, so lam_min(S) > t.  The walks pass floor = (2 tau)^2,
# tau their one cutoff, which puts a certified sigma_min above 2 tau: twice
# the cutoff the exact rule would judge it at.  The ratio keeps that margin
# clear of rounding when tau is tiny against the row: forming S costs
# O(m eps tr(S)) per entry and Cholesky's backward error is
# O(n^2 eps ||S||), far below ratio * tr(S) >= 1e-8 * lam_max(S).  The
# screen never says "does not span": every row it leaves undecided is
# rechecked exactly on the raw columns, so no answer depends on it.  The
# subset walk's Laplace screen (_laplace_undecided) keeps the same ratio
# as a floor on the sigma_n it certifies, against ||V||_2.
_SCREEN_RATIO = 1e-8

# most rows per screen call in both exact walks.  The screen holds the
# lower triangles of the rows' scatter matrices, (n(n+1)/2, rows): a real
# chunk is n(n+1)/2 * 32 KB and fits a 2 MB L2 cache for n <= 10, a
# complex one n(n+1)/2 * 64 KB (n <= 7), half the n^2 * 64 KB of full
# complex matrices.  The bipartition walk screens both sides of a block of
# up to _CHUNK masks, so it splits that pass into chunks
_CHUNK = 4096
# the n-subset walk starts at this many rows and doubles up to _CHUNK, and
# the bipartition walk keeps at most this many prefixes per block, so an
# early deficient subset or failing bipartition costs little
_FIRST_CHUNK = 64
# the Laplace screen lets a block's heads share one product while it
# multiplies at most this many entries outside their tail ranges
_MERGE_WASTE = 2048
# most n-subsets full_spark enumerates by default (its cap)
_SUBSET_BUDGET = 5_000_000
# most rows complement_property's walk screens, two per node.  With at most
# 2^d nodes at depth d <= m-1 it screens under 2^(m+1) rows however little
# it prunes, so no frame of m <= 24 vectors is refused; past that, the cost
# is set by how early the parts span, not by m.
_WALK_BUDGET = 2 ** 25


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered family of m nonzero vectors as columns of an (n, m) array.

    Every decision on a frame is scale-invariant, so only an exactly zero
    column is refused, however small the others are.
    """

    vectors: np.ndarray
    field: Field

    def __post_init__(self):
        arr = as_field_array(self.vectors, self.field, "frame vectors")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("frame needs a nonempty (n, m) column array")
        ensure_finite(arr, "frame vectors")
        bad = np.flatnonzero(~arr.any(axis=0))
        if bad.size:
            raise ValueError(f"frame vector {bad[0] + 1} is zero")
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def size(self) -> int:
        return self.vectors.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.vectors[:, i]


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """Validated orthogonal projections stacked as an (m, n, n) array.

    bases holds an orthonormal basis of each projection's range, as an
    (n, rank) array; onb_union concatenates them.  Build through
    from_projections (matrices) or from_frame (vectors); the constructor
    assumes its arguments are already consistent.
    """

    projections: np.ndarray
    bases: tuple[np.ndarray, ...]
    field: Field

    @property
    def dim(self) -> int:
        return self.projections.shape[1]

    @property
    def size(self) -> int:
        return self.projections.shape[0]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.bases)

    @classmethod
    def from_projections(cls, mats, field: Field | None = None,
                         tol: Tolerances = DEFAULT_TOL) -> "ProjectionFamily":
        """Validate raw matrices as orthogonal projections and cache ONBs.

        Every check runs on the whole stack at once, under tol.proj_tol;
        the error names the first member that fails any of them, and the
        first check it fails, in the order: self-adjoint, idempotent,
        nonzero, equal to the projector onto its eigh range basis.
        """
        stack = np.stack([np.asarray(p) for p in mats])
        if field is None:
            field = Field.infer(stack)
        stack = as_field_array(stack, field, "projections")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("projections must be a family of square matrices")
        ensure_finite(stack, "projections")
        lam, vecs = np.linalg.eigh(stack)
        keep = lam > 0.5  # projection spectrum is {0, 1}; the gap is huge
        ranks = keep.sum(axis=1)
        onbs = vecs * keep[:, None, :]
        sym = _max_abs_each(stack - stack.conj().swapaxes(1, 2))
        idem = _max_abs_each(stack @ stack - stack)
        rebuilt = _max_abs_each(onbs @ onbs.conj().swapaxes(1, 2) - stack)
        faults = np.stack([sym >= tol.proj_tol, idem >= tol.proj_tol, ranks == 0,
                           rebuilt >= tol.proj_tol])
        if faults.any():
            i = int(np.flatnonzero(faults.any(axis=0))[0])
            reasons = [f"is not self-adjoint (residual {sym[i]:.3e})",
                       f"is not idempotent (residual {idem[i]:.3e})",
                       "is zero; ranks must be >= 1",
                       f"does not match its range ONB (residual {rebuilt[i]:.3e})"]
            raise ValueError(f"projection {i + 1} {reasons[int(np.argmax(faults[:, i]))]}")
        n = stack.shape[1]
        # eigenvalues ascend, so each range basis is a block of trailing columns
        bases = tuple(np.ascontiguousarray(v[:, n - r:]) for v, r in zip(vecs, ranks))
        return cls(stack, bases, field)

    @classmethod
    def from_frame(cls, f: Frame, tol: Tolerances = DEFAULT_TOL) -> "ProjectionFamily":
        """Rank-1 projections onto the lines spanned by the frame vectors.

        Each vector is normalized by linalg.normalized, at any scale, and
        must then have unit norm within tol.proj_tol; the error names the
        first that does not.
        """
        units = normalized(f.vectors, axis=0)
        resid = np.abs(np.einsum("im,im->m", units.conj(), units).real - 1.0)
        bad = np.flatnonzero(~(resid < tol.proj_tol))
        if bad.size:
            raise ValueError(f"frame vector {bad[0] + 1} does not normalize to a unit vector "
                             f"(residual {resid[bad[0]]:.3e})")
        stack = np.einsum("im,jm->mij", units, units.conj())
        return cls(stack, tuple(np.ascontiguousarray(units.T)[:, :, None]), f.field)


def _max_abs_each(a: np.ndarray) -> np.ndarray:
    """Max-entry norm of every matrix of an (m, n, n) stack."""
    return np.abs(a).max(axis=(1, 2))


@dataclass(frozen=True)
class PartitionWitness:
    """Bipartition where neither side spans: a complement-property failure.

    Indices are 0-based positions into the frame; rank_I and rank_Ic are
    exact numerical ranks of the two column sets at the frame's one
    cutoff (see complement_property).
    """

    side_I: tuple[int, ...]
    side_Ic: tuple[int, ...]
    rank_I: int
    rank_Ic: int


@dataclass(frozen=True)
class SpanningReport:
    spans: bool
    rank: int


def _side_rank(vectors: np.ndarray, idx, tau: float) -> int:
    if len(idx) == 0:
        return 0
    return int(np.count_nonzero(np.linalg.svd(vectors[:, list(idx)], compute_uv=False) > tau))


@functools.lru_cache(maxsize=None)
def _lower_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the lower triangle of an n x n matrix,
    column by column."""
    c, r = np.triu_indices(n)
    r.flags.writeable = c.flags.writeable = False
    return r, c


def _outer_table(vectors: np.ndarray) -> np.ndarray:
    """Lower triangles of the v_i v_i*, packed column by column into an
    (m, n(n+1)/2) table: column c of the triangle, rows c..n-1, sits in
    columns c*n - c(c-1)/2 onwards.

    The packed lower triangle of the scatter matrix of a 0/1 membership
    row s is then s @ table.
    """
    rows, cols = _lower_triangle(vectors.shape[0])
    return np.ascontiguousarray(vectors[rows].T * vectors[cols].T.conj())


def _table_dim(table: np.ndarray) -> int:
    """n of an _outer_table, from its n(n+1)/2 columns."""
    return (math.isqrt(8 * table.shape[1] + 1) - 1) // 2


def _screen_spans(table: np.ndarray, sel: np.ndarray, floor: float) -> np.ndarray:
    """Batched certain-spans screen over membership rows sel (k, m).

    table is _outer_table of the walk's vectors, so one product gives
    the lower triangle of every row's scatter matrix
    S = sum_i sel[i] v_i v_i*.  True means the selected columns certainly
    span, False means undecided: a row is certified when the Cholesky
    elimination of S - max(ratio * tr(S), floor) * I completes with
    positive pivots, which puts sigma_min of the selected columns above
    sqrt(floor) (see _SCREEN_RATIO for the rounding margin).
    """
    k = sel.shape[0]
    n = _table_dim(table)
    # one product for the whole chunk, laid out (n(n+1)/2, k) so that every
    # elimination step below runs over the chunk in contiguous rows
    a = table.T @ sel.T
    diag = [c * n - c * (c - 1) // 2 for c in range(n)]
    shift = np.maximum(_SCREEN_RATIO * a[diag].real.sum(axis=0), floor)
    for d in diag:
        a[d] -= shift
    alive = np.arange(k)
    # right-looking elimination: pivot, then the rank-1 Schur update of
    # the trailing lower triangle, one packed column at a time; a row
    # leaves at its first non-positive pivot
    for size in range(n, 0, -1):
        piv = a[0].real
        keep = piv > 0.0
        if not keep.all():
            a, piv, alive = a[:, keep], piv[keep], alive[keep]
        col = a[1:size] / np.sqrt(piv)
        a = a[size:]
        conj = col.conj()
        for c in range(size - 1):
            start = c * (size - 1) - c * (c - 1) // 2
            a[start:start + size - 1 - c] -= col[c:] * conj[c]
    spans = np.zeros(k, dtype=bool)
    spans[alive] = True
    return spans


def _open_sides(table: np.ndarray, sel: np.ndarray, floor: float) -> np.ndarray:
    """Rows of sel whose side may fail to span.

    A side with fewer than n vectors cannot span; the rest are open
    unless the screen certifies them, _CHUNK rows per screen call.
    """
    is_open = sel @ np.ones(sel.shape[1]) < _table_dim(table)
    rows = np.flatnonzero(~is_open)
    for lo in range(0, rows.size, _CHUNK):
        part = rows[lo:lo + _CHUNK]
        chunk = sel[lo:lo + _CHUNK] if rows.size == sel.shape[0] else sel[part]
        is_open[part] = ~_screen_spans(table, chunk, floor)
    return is_open


@functools.lru_cache(maxsize=32)
def _subsets_table(start: int, m: int, t: int) -> np.ndarray:
    """Every t-subset of range(start, m), in lexicographic order, one per
    row.

    Stored in the smallest unsigned type that holds m - 1 (uint8 up to
    m = 256), and read-only, since the cache hands every caller the same
    array.
    """
    combos = itertools.chain.from_iterable(itertools.combinations(range(start, m), t))
    table = np.fromiter(combos, dtype=np.min_scalar_type(max(m - 1, 0)))
    table = table.reshape(math.comb(m - start, t), t)
    table.flags.writeable = False
    return table


def _split_tables(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The head and tail index tables of the n-subsets of range(m): the
    h-subsets of range(m - t) and the t-subsets of range(h, m), h = n // 2,
    t = n - h (see _subset_spans)."""
    h = n // 2
    return _subsets_table(0, m - (n - h), h), _subsets_table(h, m, n - h)


def _subset_spans(heads: np.ndarray, tails: np.ndarray):
    """The n-subsets of range(m) in lexicographic order, in blocks of
    _FIRST_CHUNK subsets doubling up to _CHUNK, each named by its heads and
    the tail rows each of them takes.

    A subset is a head, its h = n // 2 smallest elements, and a tail, the
    other t = n - h (_split_tables).  The heads run over the rows of heads
    in order, and the tails of a head are the rows of tails that start
    past its last element: a suffix of that table.  A block (first, a, b)
    holds heads first, first + 1, ..., head first + i taking tail rows
    a[i] to b[i] - 1, so a block may end inside one head's suffix.
    Neither table has more rows than there are n-subsets: a head plus the
    last t indices, or the first h indices plus a tail, is an n-subset of
    its own.
    """
    last = heads[:, -1].astype(np.intp) if heads.shape[1] else np.full(1, -1)
    first_tail = np.searchsorted(tails[:, 0].astype(np.intp), last + 1)
    # position of each head's first subset, and one past its last
    ends = np.cumsum(tails.shape[0] - first_tail)
    begins = ends - (tails.shape[0] - first_tail)
    bounds, rows = [0], _FIRST_CHUNK
    while bounds[-1] < ends[-1]:
        bounds.append(min(bounds[-1] + rows, int(ends[-1])))
        rows = min(2 * rows, _CHUNK)
    # every block's heads and their tail rows at once, cut into blocks below
    lo, hi = np.array(bounds[:-1]), np.array(bounds[1:])
    first = np.searchsorted(ends, lo, side="right")
    count = np.searchsorted(ends, hi - 1, side="right") - first + 1
    block = np.repeat(np.arange(lo.size), count)
    head = np.arange(block.size) - np.repeat(np.cumsum(count) - count - first, count)
    shift = (first_tail - begins)[head]
    a = np.maximum(begins[head], lo[block]) + shift
    b = np.minimum(ends[head], hi[block]) + shift
    stop = np.cumsum(count).tolist()
    for i, start in enumerate([0] + stop[:-1]):
        yield first[i], a[start:stop[i]], b[start:stop[i]]


def _subset_blocks(m: int, n: int):
    """The n-subsets of range(m) in lexicographic order, as (rows, n)
    blocks of ascending indices (_subset_spans): one gather from each of
    the two cached index tables, with no per-subset Python."""
    heads, tails = _split_tables(m, n)
    for first, a, b in _subset_spans(heads, tails):
        count = b - a
        head = np.repeat(np.arange(first, first + count.size), count)
        tail = np.arange(head.size) + np.repeat(a - (np.cumsum(count) - count), count)
        yield np.concatenate([np.take(heads, head, axis=0), np.take(tails, tail, axis=0)], axis=1)


def _cholesky_undecided(v: np.ndarray, tau: float):
    """The Cholesky screen over the lexicographic subset blocks: for each
    block, the subsets it leaves undecided (_screen_spans at floor
    (2 tau)^2), in order."""
    m = v.shape[1]
    table = _outer_table(v)
    for idx in _subset_blocks(m, v.shape[0]):
        sel = np.zeros((idx.shape[0], m))
        # a one at each chosen column's flat position
        sel.reshape(-1)[(idx + np.arange(0, sel.size, m)[:, None]).ravel()] = 1.0
        yield idx[~_screen_spans(table, sel, (2.0 * tau) ** 2)]


@functools.lru_cache(maxsize=None)
def _cofactor_rows(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-row subsets of range(n) in lexicographic order, one per row,
    and for each of its k rows the position, among the (k-1)-row subsets,
    of the subset left when that row is struck out: the expansion of
    every k x k minor along its last column."""
    subsets = list(itertools.combinations(range(n), k))
    below = {s: i for i, s in enumerate(itertools.combinations(range(n), k - 1))}
    rows = np.array(subsets, dtype=np.intp)
    struck = np.array([[below[s[:j] + s[j + 1:]] for j in range(k)] for s in subsets],
                      dtype=np.intp)
    rows.flags.writeable = struck.flags.writeable = False
    return rows, struck


def _minor_table(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Every k x k minor of w on the column sets in the rows of cols, a
    (T, k) index table of ascending columns: a (C(n, k), T) array, row i
    over the i-th k-row subset of range(n) in lexicographic order.

    Laplace expansion along the last column, one level per column and no
    determinant call: an order-k minor is the alternating sum of k
    products of an entry of its last column with an order-(k-1) minor,
    added up in one fixed order.
    """
    idx = cols.astype(np.intp)
    minors = np.take(w, idx[:, 0], axis=1)
    for k in range(2, idx.shape[1] + 1):
        rows, struck = _cofactor_rows(w.shape[0], k)
        col = np.take(w, idx[:, k - 1], axis=1)
        prev = minors
        # the cofactor sign of the j-th row of a subset is (-1)^(k-1-j)
        minors = np.take(col, rows[:, -1], axis=0) * np.take(prev, struck[:, -1], axis=0)
        for j in range(k - 2, -1, -1):
            term = np.take(col, rows[:, j], axis=0) * np.take(prev, struck[:, j], axis=0)
            if (k - 1 - j) % 2:
                minors -= term
            else:
                minors += term
    return minors


@functools.lru_cache(maxsize=None)
def _laplace_pairing(n: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplace's expansion of an n x n determinant along its first h
    columns, det A = sum over the h-row subsets R of
    sign(R) det A[R, :h] det A[R^c, h:], with sign(R) the parity of the
    permutation that lists R and then R^c, each ascending.

    Returns, for the j-th (n-h)-row subset in lexicographic order, the
    position of its complement R among the h-row subsets and sign(R):
    head minors taken in that order and signed pair row for row with the
    tail minors in their own order.
    """
    heads = {s: i for i, s in enumerate(itertools.combinations(range(n), h))}
    order, sign = [], []
    for rest in itertools.combinations(range(n), n - h):
        perm = tuple(i for i in range(n) if i not in rest) + rest
        order.append(heads[perm[:h]])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        sign.append(-1.0 if inversions % 2 else 1.0)
    order, sign = np.array(order, dtype=np.intp), np.array(sign)
    order.flags.writeable = sign.flags.writeable = False
    return order, sign


class _Minors:
    """_minor_table of w on the rows of an index table, built as a walk
    reads them.

    The rows below a mark are built.  A read past the mark builds on to
    the furthest of the read's end, twice the mark and _FIRST_CHUNK rows,
    so a walk that stops early builds few rows, and one that reads the
    whole table builds it in a logarithmic number of calls.  The minors
    of a head table are paired: reordered and signed by _laplace_pairing.
    """

    def __init__(self, w: np.ndarray, table: np.ndarray, paired: bool):
        self.w, self.table, self.paired = w, table, paired
        size = math.comb(w.shape[0], table.shape[1])
        self.minors = np.empty((size, table.shape[0]), dtype=w.dtype)
        self.mark = 0

    def read(self, lo: int, hi: int) -> np.ndarray:
        """The minors of table rows lo to hi - 1, one column each."""
        if hi > self.mark:
            stop = min(max(hi, 2 * self.mark, _FIRST_CHUNK), self.table.shape[0])
            part = _minor_table(self.w, self.table[self.mark:stop])
            if self.paired:
                order, sign = _laplace_pairing(self.w.shape[0], self.table.shape[1])
                part = np.take(part, order, axis=0) * sign[:, None]
            self.minors[:, self.mark:stop] = part
            self.mark = stop
        return self.minors[:, lo:hi]


@functools.lru_cache(maxsize=32)
def _laplace_plan(m: int, n: int, first_chunk: int, chunk: int) -> tuple:
    """The products the Laplace screen takes over the subset blocks of
    _subset_spans, which depend only on the shape and the block sizes
    (first_chunk and chunk, the _FIRST_CHUNK and _CHUNK the blocks were
    cut at, key the cache).

    Returns (rows, a, b, blocks).  Entry i of the first three is a head
    of some block, rows[i] its place among the block's heads, taking tail
    rows a[i] to b[i] - 1; each block's entries are consecutive, sorted by
    (a, b).  blocks holds (first, count, groups) per block: its heads are
    first to first + count - 1, and each group (p, q, lo, hi) is one
    product, the signed minors of the heads of entries p to q - 1 times
    the minors of tail rows lo to hi - 1, which covers their ranges.

    A head takes a suffix of the tail table, all of it from the first tail
    past its last element, so heads that share a last element share a
    range; only the last head of a block may stop short, and only the
    first start late.  A block's heads, in range order, are merged
    greedily while their product multiplies at most _MERGE_WASTE entries
    outside their ranges: the group from entry p on is the longest whose
    waste, the sum over its heads of a[i] - a[p] plus, for a head that
    stops short, hi - b[i], is within the bound.  That waste grows with the
    group, so one bisection over all entries at once finds each entry's
    longest group, and following them from each block's start gives the
    groups.
    """
    heads, tails = _split_tables(m, n)
    spans = list(_subset_spans(heads, tails))
    count = np.array([span[1].size for span in spans])
    stop = np.cumsum(count)
    block = np.repeat(np.arange(count.size), count)
    a = np.concatenate([span[1] for span in spans])
    b = np.concatenate([span[2] for span in spans])
    order = np.lexsort((b, a, block))
    a, b = a[order], b[order]
    rows = order - (stop - count)[block]
    # s[q] - s[p] - (q - p) a[p] is the waste of entries p to q - 1 when
    # their product reaches their block's furthest tail, as every group of
    # two or more heads does; one head alone wastes nothing, and every
    # group takes at least its first head
    s = np.concatenate([[0], np.cumsum(a + np.maximum.reduceat(b, stop - count)[block] - b)])
    pos = np.arange(a.size)
    good, bad = pos + 1, stop[block] + 1
    while (bad - good > 1).any():
        mid = (good + bad) // 2
        fits = s[mid] - s[pos] - (mid - pos) * a <= _MERGE_WASTE
        good, bad = np.where(fits, mid, good), np.where(fits, bad, mid)
    longest = good.tolist()
    starts, cuts, p = [], [0], 0
    for end in stop.tolist():
        while p < end:
            starts.append(p)
            p = longest[p]
        cuts.append(len(starts))
    # the groups take the entries in turn, each up to the next one's start
    groups = list(zip(starts, starts[1:] + [a.size], a[starts].tolist(),
                      np.maximum.reduceat(b, starts).tolist()))
    blocks = tuple((int(span[0]), span[1].size, tuple(groups[i:j]))
                   for span, i, j in zip(spans, cuts, cuts[1:]))
    for array in (rows, a, b):
        array.flags.writeable = False
    return rows, a, b, blocks


def _laplace_undecided(v: np.ndarray, tau: float, smax: float):
    """The Laplace determinant screen over the lexicographic subset blocks:
    the subsets a block leaves undecided, in order, for each block where
    some product entry is not certified.

    v is scaled by 2^-e, exactly, to w with rho = ||w||_2 = smax / 2^e in
    [1/2, 1).  The h x h minors of each head and the t x t minors of each
    tail come from _minor_table (_Minors builds them as the blocks first
    read them), and Laplace's expansion along the head columns
    (_laplace_pairing) gives det w_S of every subset as the product of its
    head's signed minors with its tail's minors.  A block takes one matrix
    product per group of heads that share a tail range (_laplace_plan),
    and the entries of a product that fall outside a head's own tails are
    dropped among the undecided ones.  Since sigma_1(w_S) <= rho,
    sigma_n(w_S) >= |det w_S| / rho^(n-1), so a subset is certified when
    its computed |det w_S| exceeds rho^(n-1) max(2 tau / 2^e, ratio) plus
    the rounding bound below.  That puts sigma_n(v_S) above 2 tau, twice
    the cutoff (which also absorbs smax being numpy's ||v||_2, good to a
    few units in the last place), and above ratio ||v||_2
    (_SCREEN_RATIO), far above the rounding of the exact SVD test, so
    that test would pass every certified subset too.
    """
    n, m = v.shape
    h = n // 2
    heads, tails = _split_tables(m, n)
    e = int(np.frexp(smax)[1])
    w = v * np.ldexp(1.0, -e)
    rho = np.ldexp(smax, -e)
    head_minors = _Minors(w, heads, paired=True)
    tail_minors = _Minors(w, tails, paired=False)
    # Rounding: each term of det w_S's permutation expansion takes at most
    # h(h+1)/2 - 1 roundings in its head minor, t(t+1)/2 - 1 in its tail
    # minor and C(n, h) in the product and its sum, and a complex product
    # (within sqrt(2) gamma_2 < gamma_3) counts as three, n - 1 of them per
    # term; so the error is at most gamma_steps perm|w_S| <= gamma_steps
    # prod_j ||w_j||_1, doubled to cover the bound's own rounding.  Every
    # product entry is one sum of C(n, h) terms, a head's minors against a
    # tail's, however the heads and tails are grouped into products, and
    # the bound holds for any order of that sum, with or without fused
    # multiply-adds, so it does not depend on the plan.
    # Underflow adds at most a few smallest-subnormal units per operation,
    # below the ratio floor by hundreds of orders of magnitude.
    steps = h * (h + 1) // 2 + (n - h) * (n - h + 1) // 2 + math.comb(n, h)
    if np.iscomplexobj(w):
        steps += 2 * (n - 1)
    unit = np.finfo(np.float64).eps / 2
    slack = 2.0 * steps * unit / (1.0 - steps * unit) * np.abs(w).sum(axis=0).max() ** n
    cut = rho ** (n - 1) * max(np.ldexp(2.0 * tau, -e), _SCREEN_RATIO) + slack
    rows, a, b, blocks = _laplace_plan(m, n, _FIRST_CHUNK, _CHUNK)
    for first, count, groups in blocks:
        block = head_minors.read(first, first + count)
        found_heads, found_tails = [], []
        for p, q, lo, hi in groups:
            dets = block[:, rows[p:q]].T @ tail_minors.read(lo, hi)
            hit = np.flatnonzero(np.abs(dets) <= cut)
            if hit.size:
                # drop the entries outside each head's own tails
                entry, tail = np.divmod(hit, hi - lo)
                entry += p
                tail += lo
                own = (tail >= a[entry]) & (tail < b[entry])
                found_heads.append(rows[entry[own]])
                found_tails.append(tail[own])
        if found_heads:
            head, tail = np.concatenate(found_heads), np.concatenate(found_tails)
            # by head row, then tail row: lexicographic subset order
            order = np.lexsort((tail, head))
            yield np.concatenate([np.take(heads, head[order] + first, axis=0),
                                  np.take(tails, tail[order], axis=0)], axis=1)


def _first_deficient_subset(v: np.ndarray, tau: float, smax: float) -> tuple[int, ...] | None:
    """Lexicographically first n-subset of the columns of v that fails to
    span, as 0-based indices, or None when every n-subset spans.

    A subset spans when its sigma_n exceeds the cutoff tau; smax is
    ||v||_2, by which the Laplace screen scales v.  The subsets come in
    lexicographic blocks that numpy builds from two small cached index
    tables of heads and tails (_subset_spans): _FIRST_CHUNK subsets,
    doubling up to _CHUNK, so an early deficient subset costs little.  A
    screen certifies most subsets of a block, and every subset it leaves
    undecided gets the exact batched SVD, in order, so the first deficient
    subset is the one returned whichever screen ran.

    The Laplace screen (_laplace_undecided) costs one product of
    C(n, n // 2) terms per subset, over two tables of minors, C(n, n // 2)
    per head and per tail, taken a few products per block from a plan
    cached per shape (_laplace_plan) that wastes at most _MERGE_WASTE
    entries per product; it runs when those tables hold no more entries
    than the C(m, n) subsets they serve, which is from about m = 3n on.
    Smaller frames, whose tables would be larger (C(30, 15) minors for the
    one subset of a 30 x 30 frame), take the Cholesky screen
    (_cholesky_undecided): an n(n+1)/2-column membership product and an
    n-step elimination per subset.
    """
    n, m = v.shape
    h = n // 2
    entries = math.comb(n, h) * (math.comb(m - n + h, h) + math.comb(m - h, n - h))
    if entries <= math.comb(m, n):
        blocks = _laplace_undecided(v, tau, smax)
    else:
        blocks = _cholesky_undecided(v, tau)
    for idx in blocks:
        if not idx.size:
            continue
        s = np.linalg.svd(v[:, idx].transpose(1, 0, 2), compute_uv=False)
        deficient = np.flatnonzero(s[:, -1] <= tau)
        if deficient.size:
            return tuple(int(j) for j in idx[deficient[0]])
    return None


@functools.lru_cache(maxsize=None)
def _counting_bits(step: int) -> np.ndarray:
    """Row k holds the bits of k, low bit first, for k < 2^step."""
    table = (np.arange(1 << step)[:, None] >> np.arange(step) & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def complement_property(f: Frame, tol: Tolerances = DEFAULT_TOL) -> PartitionWitness | None:
    """Exact complement-property check.

    Returns None when every bipartition has a spanning side, else the
    first failing bipartition in mask order.  Vector 1 is pinned to side
    I, so masks run over the remaining m-1 vectors (bit j set puts vector
    j+2 on side I^c); 2^(m-1) bipartitions total.

    Every side is judged at one cutoff, tau = rank_cutoff(sigma_max(V), n):
    it spans when its sigma_n exceeds tau.  sigma_n only grows as vectors
    are added, so a side spans whenever some part of it does.  The walk
    runs on pow2_scaled(V), so no scale of V over- or underflows its squares.

    One walk decides every frame, depth first over blocks of mask
    prefixes, top bit first, each a (rows, m-1) 0/1 array of mask bits: a
    node fixes its top bits, which assign a part of each side (side I:
    vector 1 and the vectors of the unset bits; side I^c: those of the set
    bits).  Above depth n-1 no part holds n vectors and nothing can be
    pruned, so the root goes to depth n-1 in one step (or further, up to
    2 * _FIRST_CHUNK rows).  Below it, a block of at most _FIRST_CHUNK
    sorted prefixes goes down as many levels as keep it within
    2 * _FIRST_CHUNK rows, one for a full block, and straight to its
    leaves, the full masks, once they fit _CHUNK rows, so a frame with
    2^(m-1) <= _CHUNK walks one flat chunk.  The parts of both sides of
    every node and leaf go through the Cholesky screen in one pass
    (_open_sides, _screen_spans at floor (2 tau)^2), which certifies a
    part only when its sigma_n exceeds 2 tau.  A node with a certified
    part is dropped with its whole subtree: every completion of that side
    has sigma_n > 2 tau and spans, so no bipartition in it fails.
    Surviving blocks are taken lowest first, so leaves come in mask
    order, and every leaf with no certified side is re-checked with exact
    SVD ranks in that order: the first failing bipartition and its ranks
    do not depend on the screen or the pruning.  Below the first step the
    frontier holds at most two blocks per level.  The walk screens two
    rows per node and raises CapacityError past _WALK_BUDGET of them.
    """
    n, m = f.dim, f.size
    v = pow2_scaled(f.vectors)
    tau = rank_cutoff(np.linalg.norm(v, 2), n, tol)
    floor = (2.0 * tau) ** 2
    table = _outer_table(v)
    nbits = m - 1
    screened = 0
    # each block: its unassigned low bit count and the bits of its sorted
    # masks, one row each, whose unassigned bits are zero
    stack = [(nbits, np.zeros((1, nbits), dtype=np.uint8))]
    while stack:
        left, bits = stack.pop()
        rows = bits.shape[0]
        if rows << left <= _CHUNK:
            step = left
        else:
            # as many levels as keep the block within 2 * _FIRST_CHUNK rows,
            # and within _CHUNK rows all levels above depth n-1, where no
            # part holds n vectors and so nothing can be pruned
            fit = (2 * _FIRST_CHUNK // rows).bit_length() - 1
            room = (_CHUNK // rows).bit_length() - 1
            step = max(1, min(room, max(fit, n - 1 - (nbits - left))))
        left -= step
        # each mask followed by its 2^step children, the new bits counting up
        bits = np.repeat(bits, 1 << step, axis=0)
        bits.reshape(rows, 1 << step, nbits)[:, :, left:left + step] = _counting_bits(step)
        rows = bits.shape[0]
        screened += 2 * rows
        if screened > _WALK_BUDGET:
            raise CapacityError(f"the CP walk needs more than {_WALK_BUDGET} screened rows")
        # the parts of side I over those of side I^c, in one screen pass
        sel = np.zeros((2, rows, m))
        sel[0, :, 0] = 1.0
        sel[0, :, 1:] = np.arange(nbits) >= left
        sel[0, :, 1:] -= bits
        sel[1, :, 1:] = bits
        is_open = _open_sides(table, sel.reshape(2 * rows, m), floor)
        bits = bits[is_open[:rows] & is_open[rows:]]
        if left:
            stack += [(left, bits[i:i + _FIRST_CHUNK])
                      for i in range(0, bits.shape[0], _FIRST_CHUNK)][::-1]
            continue
        for row in bits.tolist():
            side_i = (0,) + tuple(j + 1 for j, bit in enumerate(row) if not bit)
            side_ic = tuple(j + 1 for j, bit in enumerate(row) if bit)
            rank_i = _side_rank(v, side_i, tau)
            if rank_i == n:
                continue
            rank_ic = _side_rank(v, side_ic, tau)
            if rank_ic == n:
                continue
            return PartitionWitness(side_i, side_ic, rank_i, rank_ic)
    return None


def full_spark(f: Frame, tol: Tolerances = DEFAULT_TOL,
               cap: int = _SUBSET_BUDGET) -> tuple[int, ...] | None:
    """Exact full-spark check over all n-element subsets.

    Returns None when every n-subset of columns has rank n, else the
    lexicographically first rank-deficient subset (0-based indices).

    Subsets are judged at complement_property's one cutoff tau: the walk
    (_first_deficient_subset) screens each lexicographic block of subsets
    and gives every subset the screen leaves undecided the exact batched
    SVD test sigma_n > tau, in order.  The screen is a Laplace expansion
    of each subset's determinant (one sum of C(n, n // 2) terms per
    subset, from matrix products over groups of subsets that share their
    tails) where its minor tables fit within the C(m, n) subsets, and a
    Cholesky elimination otherwise; either way the answer is the exact
    test's.  The walk runs on pow2_scaled(V).
    """
    n, m = f.dim, f.size
    if m < n:
        raise ValueError(f"full spark needs m >= n; got m={m}, n={n}")
    total = math.comb(m, n)
    if total > cap:
        raise CapacityError(f"C({m}, {n}) = {total} subsets exceeds cap {cap}")
    v = pow2_scaled(f.vectors)
    smax = np.linalg.norm(v, 2)
    return _first_deficient_subset(v, rank_cutoff(smax, n, tol), smax)


def image_matrix(p: ProjectionFamily, x: np.ndarray) -> np.ndarray:
    """Stack the images {P_i x} as columns of an (n, m) matrix."""
    x = as_field_array(np.asarray(x).reshape(-1), p.field, "point")
    if x.shape[0] != p.dim:
        raise ValueError(f"point has dimension {x.shape[0]}, family lives in dimension {p.dim}")
    return (p.projections @ x).T


def spanning_at(p: ProjectionFamily, x, tol: Tolerances = DEFAULT_TOL) -> SpanningReport:
    """Do the images {P_i x} span the whole space?  Any nonzero x will do."""
    x = np.asarray(x).reshape(-1)
    ensure_finite(x, "point")
    if not x.any():
        raise ValueError("spanning test point must be nonzero")
    rank = image_rank(image_matrix(p, normalized(x)), tol)
    return SpanningReport(spans=rank == p.dim, rank=rank)


def onb_union(p: ProjectionFamily) -> Frame:
    """Frame of the members' cached range bases, concatenated in order.

    Member i contributes rank_i columns, an orthonormal basis of its
    range, so a rank-1 family becomes a frame of unit vectors on its lines.
    """
    return Frame(np.concatenate(p.bases, axis=1), p.field)


def nonspanning_point_from_cp_failure(p: ProjectionFamily, f: Frame, w: PartitionWitness,
                                      tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Turn a failed ONB union into a point where spanning fails.

    f must be an ONB union of p and w a bipartition of f where neither
    side spans.  One SVD of the side-I columns gives their rank at
    complement_property's cutoff tau and x, the last column of the full
    left singular basis, orthogonal to side I up to tau.  Each P_i x then
    lies in the span of that subspace's side-I^c columns, which cannot
    span, so spanning_at(p, x) fails.
    """
    n = f.dim
    if max(w.side_I, default=-1) >= f.size or max(w.side_Ic, default=-1) >= f.size:
        raise ValueError("witness indices fall outside the frame")
    u, s, _ = np.linalg.svd(f.vectors[:, list(w.side_I)])
    if np.count_nonzero(s > rank_cutoff(np.linalg.norm(f.vectors, 2), n, tol)) == n:
        raise ValueError("witness side I spans the space; not a valid failure certificate")
    x = u[:, -1]
    report = spanning_at(p, x, tol)
    if report.spans:
        raise ValueError("constructed point spans; frame is not an ONB union of this family")
    return x
