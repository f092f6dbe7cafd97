"""Frames, projection families, and the exact finite criteria on them.

A Frame is an ordered family of nonzero vectors; a ProjectionFamily is an
ordered family of validated orthogonal projections with cached range ONBs.
The checkers here (complement property, full spark, pointwise spanning)
are exact enumeration procedures; the constructors turn a failed check
into an explicit bad point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, FieldError
from .linalg import (
    DEFAULT_TOL,
    Field,
    Tolerances,
    as_field_array,
    ensure_finite,
    haar_rotation,
    image_rank,
    max_abs,
    null_direction,
    numerical_rank,
    projector_from_basis,
    rank_cutoff,
)
from .seeding import spawn_rng

_STREAM_UNION = 2

# Margin of the certain-spans screen that both exact walks run before
# their exact rank rule (_screen_spans).  A row's scatter matrix S = V V*,
# V its selected columns, is certified when the Cholesky elimination of
# S - t I with t = max(ratio * tr(S), floor) completes with positive
# pivots.  Then lam_min(S) > t >= ratio * lam_max(S), since
# tr(S) >= lam_max(S), so sigma_min(V) > sqrt(ratio) * sigma_max(V); the
# ratio never drops below (2 * rank_cutoff(1, size))^2, which puts
# sigma_min at twice the rank rule's cutoff or more.  The floor, (2 tau)^2
# for a walk at a fixed cutoff tau and 0 otherwise, likewise puts
# sigma_min above 2 tau.  Rounding moves either bound by far less than the
# margin: forming S costs O(m eps tr(S)) per entry and Cholesky's backward
# error is O(n^2 eps ||S||), against ratio >= 1e-8.  The screen never says
# "does not span": every row it leaves undecided is rechecked exactly on
# the raw columns, so no answer depends on it.
_SCREEN_RATIO = 1e-8

# rows per batch in both exact walks: the bipartition walk's (n^2, rows)
# float64 screen array, n^2 * 32 KB, then fits a 2 MB L2 cache for n <= 7
_CHUNK = 4096
# the n-subset walk starts at this many rows and doubles up to _CHUNK, so
# an early deficient subset costs little
_FIRST_CHUNK = 64
# most n-subsets either walk enumerates: full_spark's default cap, and the
# budget of complement_property's full-spark shortcut
_SUBSET_BUDGET = 5_000_000


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered family of m nonzero vectors as columns of an (n, m) array."""

    vectors: np.ndarray
    field: Field

    def __post_init__(self):
        arr = as_field_array(self.vectors, self.field, "frame vectors")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("frame needs a nonempty (n, m) column array")
        ensure_finite(arr, "frame vectors")
        norms = np.linalg.norm(arr, axis=0)
        bad = np.flatnonzero(norms <= DEFAULT_TOL.proj_tol)
        if bad.size:
            raise ValueError(f"frame vector {bad[0] + 1} is numerically zero")
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
class Subspace:
    """Subspace of the ambient space, held as an orthonormal column basis."""

    onb: np.ndarray
    field: Field

    def __post_init__(self):
        arr = as_field_array(self.onb, self.field, "subspace basis")
        if arr.ndim != 2 or not 1 <= arr.shape[1] <= arr.shape[0]:
            raise ValueError("subspace basis must be (n, d) with 1 <= d <= n")
        ensure_finite(arr, "subspace basis")
        resid = max_abs(arr.conj().T @ arr - np.eye(arr.shape[1]))
        if resid >= DEFAULT_TOL.proj_tol:
            raise ValueError(f"subspace basis not orthonormal (residual {resid:.3e})")
        object.__setattr__(self, "onb", arr)

    @property
    def dim_ambient(self) -> int:
        return self.onb.shape[0]

    @property
    def dim(self) -> int:
        return self.onb.shape[1]


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """Validated orthogonal projections stacked as an (m, n, n) array.

    Each projection carries a cached ONB of its range in `subspaces`.
    Build through from_projections / from_subspaces; the constructor
    assumes its arguments are already consistent.
    """

    projections: np.ndarray
    subspaces: tuple[Subspace, ...]
    field: Field

    @property
    def dim(self) -> int:
        return self.projections.shape[1]

    @property
    def size(self) -> int:
        return self.projections.shape[0]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subspaces)

    @classmethod
    def from_projections(cls, mats, field: Field | None = None,
                         tol: Tolerances = DEFAULT_TOL) -> "ProjectionFamily":
        """Validate raw matrices as orthogonal projections and cache ONBs."""
        stack = np.stack([np.asarray(p) for p in mats])
        if field is None:
            field = Field.infer(stack)
        stack = as_field_array(stack, field, "projections")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("projections must be a family of square matrices")
        ensure_finite(stack, "projections")
        subspaces = []
        for i, p in enumerate(stack):
            sym = max_abs(p - p.conj().T)
            if sym >= tol.proj_tol:
                raise ValueError(f"projection {i + 1} is not self-adjoint (residual {sym:.3e})")
            idem = max_abs(p @ p - p)
            if idem >= tol.proj_tol:
                raise ValueError(f"projection {i + 1} is not idempotent (residual {idem:.3e})")
            lam, vecs = np.linalg.eigh(p)
            keep = lam > 0.5  # projection spectrum is {0, 1}; the gap is huge
            if not np.any(keep):
                raise ValueError(f"projection {i + 1} is zero; ranks must be >= 1")
            onb = vecs[:, keep]
            rebuilt = max_abs(onb @ onb.conj().T - p)
            if rebuilt >= tol.proj_tol:
                raise ValueError(f"projection {i + 1} does not match its range ONB "
                                 f"(residual {rebuilt:.3e})")
            subspaces.append(Subspace(onb, field))
        return cls(stack, tuple(subspaces), field)

    @classmethod
    def from_subspaces(cls, subspaces, tol: Tolerances = DEFAULT_TOL) -> "ProjectionFamily":
        subs = tuple(subspaces)
        if not subs:
            raise ValueError("need at least one subspace")
        fields = {s.field for s in subs}
        dims = {s.dim_ambient for s in subs}
        if len(fields) != 1:
            raise FieldError("subspaces mix scalar fields")
        if len(dims) != 1:
            raise ValueError("subspaces live in different ambient dimensions")
        stack = np.stack([projector_from_basis(s.onb, tol) for s in subs])
        return cls(stack, subs, fields.pop())

    @classmethod
    def from_frame(cls, f: Frame, tol: Tolerances = DEFAULT_TOL) -> "ProjectionFamily":
        """Rank-1 projections onto the lines spanned by the frame vectors."""
        units = f.vectors / np.linalg.norm(f.vectors, axis=0)
        subs = tuple(Subspace(units[:, i:i + 1], f.field) for i in range(f.size))
        return cls.from_subspaces(subs, tol)


@dataclass(frozen=True)
class PartitionWitness:
    """Bipartition where neither side spans: a complement-property failure.

    Indices are 0-based positions into the frame; rank_I and rank_Ic are
    exact numerical ranks of the two column sets.
    """

    side_I: tuple[int, ...]
    side_Ic: tuple[int, ...]
    rank_I: int
    rank_Ic: int


@dataclass(frozen=True)
class SpanningReport:
    spans: bool
    rank: int


def _side_rank(vectors: np.ndarray, idx, tol: Tolerances) -> int:
    if len(idx) == 0:
        return 0
    return numerical_rank(vectors[:, list(idx)], tol)


def _outer_table(vectors: np.ndarray) -> np.ndarray:
    """Rows v_i v_i* of the scatter matrices, flattened to an (m, n^2) table.

    The scatter matrix of a 0/1 membership row s is then s @ table.
    """
    cols = vectors.T
    return np.ascontiguousarray((cols[:, :, None] * cols[:, None, :].conj()).reshape(len(cols), -1))


def _screen_spans(table: np.ndarray, sel: np.ndarray, size: int, tol: Tolerances,
                  floor: float = 0.0) -> np.ndarray:
    """Batched certain-spans screen over membership rows sel (k, m).

    table is _outer_table of the walk's vectors, so one product gives
    every row's scatter matrix S = sum_i sel[i] v_i v_i*.  True means the
    selected columns certainly span, False means undecided: a row is
    certified when the Cholesky elimination of
    S - max(ratio * tr(S), floor) * I completes with positive pivots,
    which makes lam_min(S) exceed both ratio * tr(S) >= ratio * lam_max(S)
    and floor.  See _SCREEN_RATIO for why that implies the exact rank rule
    at this size, and sigma_min above sqrt(floor).
    """
    k = sel.shape[0]
    n = math.isqrt(table.shape[1])
    # one product for the whole chunk, laid out (n^2, k) so that every
    # elimination step below runs over the chunk in contiguous rows
    flat = table.T @ sel.T
    ratio = max(_SCREEN_RATIO, (2.0 * rank_cutoff(1.0, size, tol)) ** 2)
    flat[::n + 1] -= np.maximum(ratio * flat[::n + 1].real.sum(axis=0), floor)
    a = flat.reshape(n, n, k)
    alive = np.arange(k)
    # right-looking elimination: pivot, then the rank-1 Schur update of
    # the trailing block; a row leaves at its first non-positive pivot
    for _ in range(n):
        piv = a[0, 0].real
        keep = piv > 0.0
        if not keep.all():
            a, piv, alive = a[..., keep], piv[keep], alive[keep]
        col = a[1:, 0] / np.sqrt(piv)
        a = a[1:, 1:]
        a -= col[:, None] * col[None, :].conj()
    spans = np.zeros(k, dtype=bool)
    spans[alive] = True
    return spans


def _open_sides(table: np.ndarray, sel: np.ndarray, size: int, tol: Tolerances) -> np.ndarray:
    """Rows of sel whose side may fail to span.

    A side with fewer than n vectors cannot span; the rest are open
    unless the screen certifies them.
    """
    n = math.isqrt(table.shape[1])
    is_open = sel.sum(axis=1) < n
    rows = np.flatnonzero(~is_open)
    if rows.size:
        is_open[rows] = ~_screen_spans(table, sel[rows], size, tol)
    return is_open


def _first_deficient_subset(v: np.ndarray, tol: Tolerances,
                            tau: float = 0.0) -> tuple[int, ...] | None:
    """Lexicographically first n-subset of the columns of v that fails to
    span, as 0-based indices, or None when every n-subset spans.

    A subset spans when sigma_n exceeds both tau and its own rank cutoff
    rank_cutoff(sigma_max, n); with tau = 0 that is the rank rule at the
    subset's size.  Each chunk of subsets goes through the Cholesky screen
    (_screen_spans at size n, floor (2 tau)^2), and every subset it leaves
    undecided gets the exact batched SVD, in order, so the first deficient
    subset is the one returned.  Chunks start at _FIRST_CHUNK rows and
    double up to _CHUNK.
    """
    n, m = v.shape
    table = _outer_table(v)
    combos = itertools.combinations(range(m), n)
    rows = _FIRST_CHUNK
    while True:
        block = itertools.chain.from_iterable(itertools.islice(combos, rows))
        idx = np.fromiter(block, dtype=np.intp).reshape(-1, n)
        if not idx.size:
            return None
        rows = min(2 * rows, _CHUNK)
        sel = np.zeros((idx.shape[0], m))
        np.put_along_axis(sel, idx, 1.0, axis=1)
        idx = idx[~_screen_spans(table, sel, n, tol, floor=(2.0 * tau) ** 2)]
        sub = v[:, idx].transpose(1, 0, 2)  # (k, n, n), columns idx[k]
        s = np.linalg.svd(sub, compute_uv=False)
        deficient = np.flatnonzero(s[:, -1] <= np.maximum(tau, rank_cutoff(s[:, 0], n, tol)))
        if deficient.size:
            return tuple(int(j) for j in idx[deficient[0]])


def complement_property(f: Frame, tol: Tolerances = DEFAULT_TOL,
                        cap: int = 24) -> PartitionWitness | None:
    """Exact complement-property check.

    Returns None when every bipartition has a spanning side, else the
    first failing bipartition in mask order.  Vector 1 is pinned to side
    I, so masks run over the remaining m-1 vectors (bit j set puts vector
    j+2 on side I^c); 2^(m-1) bipartitions total.

    Full-spark shortcut: when m >= 2n-1 and the C(m, n) n-subsets are
    within _SUBSET_BUDGET, every bipartition has a side of n or more
    vectors, so CP holds when every n-subset has sigma_n above
    tau = rank_cutoff(sigma_max(V), max(n, m)).  A side S' containing
    such a subset has sigma_n(S') >= sigma_n(subset) > tau, and tau is at
    least the side's own cutoff rank_cutoff(sigma_max(S'), max(n, |S'|)),
    so the side spans under the rank rule and the walk would also return
    None.  The shortcut never returns a partition: when some n-subset
    falls at or below tau, the bipartition walk decides.

    The walk runs only when m <= cap.  Each chunk of masks goes through
    the Cholesky screen (_screen_spans at size max(n, m)): a side with at
    least n vectors whose scatter matrix S keeps lam_min(S) above
    ratio * tr(S) >= ratio * lam_max(S) certainly spans (see _SCREEN_RATIO
    for the trace bound and the backward-error margin).  Every bipartition
    with no certified side is re-checked with exact SVD ranks, so the
    answer and the witness do not depend on the screen.
    """
    n, m = f.dim, f.size
    v = f.vectors
    size = max(n, m)
    if m >= 2 * n - 1 and math.comb(m, n) <= _SUBSET_BUDGET:
        tau = rank_cutoff(np.linalg.norm(v, 2), size, tol)
        if _first_deficient_subset(v, tol, tau) is None:
            return None
    if m > cap:
        raise CapacityError(f"frame has {m} vectors and was not certified through full "
                            f"spark; the bipartition walk is capped at {cap}")
    table = _outer_table(v)
    nbits = m - 1
    total = 1 << nbits
    shifts = np.arange(nbits, dtype=np.uint64)

    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        sel_i = np.concatenate([np.ones((masks.size, 1)), 1.0 - bits], axis=1)
        candidates = np.flatnonzero(_open_sides(table, sel_i, size, tol))
        both = candidates[_open_sides(table, 1.0 - sel_i[candidates], size, tol)]
        for row in both:
            mask = int(masks[row])
            side_i = (0,) + tuple(j + 1 for j in range(nbits) if not (mask >> j) & 1)
            side_ic = tuple(j + 1 for j in range(nbits) if (mask >> j) & 1)
            rank_i = _side_rank(v, side_i, tol)
            if rank_i == n:
                continue
            rank_ic = _side_rank(v, side_ic, tol)
            if rank_ic == n:
                continue
            return PartitionWitness(side_i, side_ic, rank_i, rank_ic)
    return None


def full_spark(f: Frame, tol: Tolerances = DEFAULT_TOL,
               cap: int = _SUBSET_BUDGET) -> tuple[int, ...] | None:
    """Exact full-spark check over all n-element subsets.

    Returns None when every n-subset of columns has rank n, else the
    lexicographically first rank-deficient subset (0-based indices).

    The walk (_first_deficient_subset at tau = 0) puts each chunk of
    subsets through the Cholesky screen at size n, which certifies a
    subset whose scatter matrix keeps lam_min above ratio * tr >=
    ratio * lam_max (see _SCREEN_RATIO), and gives every subset it leaves
    undecided the exact batched SVD rank rule, in order.
    """
    n, m = f.dim, f.size
    if m < n:
        raise ValueError(f"full spark needs m >= n; got m={m}, n={n}")
    total = math.comb(m, n)
    if total > cap:
        raise CapacityError(f"C({m}, {n}) = {total} subsets exceeds cap {cap}")
    return _first_deficient_subset(f.vectors, tol)


def image_matrix(p: ProjectionFamily, x: np.ndarray) -> np.ndarray:
    """Stack the images {P_i x} as columns of an (n, m) matrix."""
    x = as_field_array(np.asarray(x).reshape(-1), p.field, "point")
    if x.shape[0] != p.dim:
        raise ValueError(f"point has dimension {x.shape[0]}, family lives in dimension {p.dim}")
    return (p.projections @ x).T


def spanning_at(p: ProjectionFamily, x, tol: Tolerances = DEFAULT_TOL) -> SpanningReport:
    """Do the images {P_i x} span the whole space?"""
    x = np.asarray(x).reshape(-1)
    ensure_finite(x, "point")
    nx = np.linalg.norm(x)
    if nx <= tol.proj_tol:
        raise ValueError("spanning test point must be nonzero")
    rank = image_rank(image_matrix(p, x / nx), tol)
    return SpanningReport(spans=rank == p.dim, rank=rank)


def onb_union(p: ProjectionFamily, seed: int = 0) -> Frame:
    """Frame of per-subspace orthonormal bases, randomly rotated in place.

    Each subspace contributes dim-many columns: its cached ONB pushed
    through a seeded Haar rotation of the same size, so the per-subspace
    span is unchanged while the basis choice varies with the seed.
    """
    rng = spawn_rng(seed, _STREAM_UNION)
    cols = []
    for s in p.subspaces:
        rot = haar_rotation(rng, s.dim, p.field)
        cols.append(s.onb @ rot)
    return Frame(np.concatenate(cols, axis=1), p.field)


def rank1_reduction(p: ProjectionFamily, tol: Tolerances = DEFAULT_TOL) -> Frame:
    """Unit vectors spanning the ranges of a rank-1 projection family."""
    bad = [i for i, s in enumerate(p.subspaces) if s.dim != 1]
    if bad:
        raise ValueError(f"projection {bad[0] + 1} has rank {p.subspaces[bad[0]].dim}; "
                         "rank-1 reduction needs all ranks equal to 1")
    cols = np.concatenate([s.onb for s in p.subspaces], axis=1)
    return Frame(cols, p.field)


def nonspanning_point_from_cp_failure(p: ProjectionFamily, f: Frame, w: PartitionWitness,
                                      tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Turn a failed ONB union into a point where spanning fails.

    f must be an ONB union of p and w a bipartition of f where neither
    side spans.  The returned unit x is the null direction of the side-I
    columns, so it is orthogonal to them; each P_i x then lies in the
    span of that subspace's side-I^c columns, which cannot span, so
    spanning_at(p, x) fails.
    """
    n = f.dim
    if max(w.side_I, default=-1) >= f.size or max(w.side_Ic, default=-1) >= f.size:
        raise ValueError("witness indices fall outside the frame")
    side = f.vectors[:, list(w.side_I)]
    if w.side_I and numerical_rank(side, tol) == n:
        raise ValueError("witness side I spans the space; not a valid failure certificate")
    x = null_direction(side, tol)
    report = spanning_at(p, x, tol)
    if report.spans:
        raise ValueError("constructed point spans; frame is not an ONB union of this family")
    return x
