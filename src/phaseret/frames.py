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
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CapacityError, FieldError
from .linalg import (
    DEFAULT_TOL,
    Field,
    Tolerances,
    as_field_array,
    ensure_finite,
    haar_rotation,
    max_abs,
    numerical_rank,
    orthogonal_complement_point,
    projector_from_basis,
)
from .seeding import spawn_rng

_STREAM_UNION = 2

# Gram-screen margin for the bipartition scan.  Eigenvalues of the scatter
# matrix are only accurate to ~eps * lam_max, so the batched screen can
# certify "spans" (lam_min well above noise) but never "does not span";
# anything below the margin is re-checked exactly on the raw columns.
_SCREEN_RATIO = 1e-8


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


def _screen_spans(vectors: np.ndarray, sel: np.ndarray, n: int) -> np.ndarray:
    """Batched certain-spans screen over membership rows sel (k, m).

    Works on the n x n scatter matrix sum_i sel[i] v_i v_i*; True means
    the selected columns certainly span, False means undecided.
    """
    w = vectors[None, :, :] * sel[:, None, :]
    scat = w @ vectors.conj().T
    lam = np.linalg.eigvalsh(scat)
    lam_min, lam_max = lam[:, 0], lam[:, -1]
    return lam_min > _SCREEN_RATIO * np.maximum(lam_max, 0.0)


def complement_property(f: Frame, tol: Tolerances = DEFAULT_TOL,
                        cap: int = 24, chunk: int = 8192) -> PartitionWitness | None:
    """Exact complement-property check by bipartition enumeration.

    Returns None when every bipartition has a spanning side, else the
    first failing bipartition in mask order.  Vector 1 is pinned to side
    I, so masks run over the remaining m-1 vectors (bit j set puts vector
    j+2 on side I^c); 2^(m-1) bipartitions total, m capped at `cap`.

    A batched eigenvalue screen certifies clearly spanning sides; every
    undecided bipartition is re-checked with exact SVD ranks, so witness
    choice does not depend on the screen.
    """
    n, m = f.dim, f.size
    if m > cap:
        raise CapacityError(f"frame has {m} vectors; bipartition enumeration capped at {cap}")
    v = f.vectors
    nbits = m - 1
    total = 1 << nbits
    shifts = np.arange(nbits, dtype=np.uint64)

    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        k = masks.size
        if nbits:
            bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        else:
            bits = np.zeros((k, 0))
        sel_i = np.concatenate([np.ones((k, 1)), 1.0 - bits], axis=1)
        sel_ic = 1.0 - sel_i
        size_i = sel_i.sum(axis=1)
        size_ic = sel_ic.sum(axis=1)

        # Side with fewer than n vectors cannot span; screen the rest.
        i_open = np.zeros(k, dtype=bool)
        rows = np.flatnonzero(size_i >= n)
        if rows.size:
            i_open[rows] = ~_screen_spans(v, sel_i[rows], n)
        i_open |= size_i < n
        candidates = np.flatnonzero(i_open)
        if candidates.size:
            ic_open = np.zeros(k, dtype=bool)
            rows = candidates[size_ic[candidates] >= n]
            if rows.size:
                ic_open[rows] = ~_screen_spans(v, sel_ic[rows], n)
            ic_open[candidates] |= size_ic[candidates] < n
            both = np.flatnonzero(i_open & ic_open)
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
               cap: int = 5_000_000, chunk: int = 4096) -> tuple[int, ...] | None:
    """Exact full-spark check over all n-element subsets.

    Returns None when every n-subset of columns has rank n, else the
    lexicographically first rank-deficient subset (0-based indices).
    """
    n, m = f.dim, f.size
    if m < n:
        raise ValueError(f"full spark needs m >= n; got m={m}, n={n}")
    total = math.comb(m, n)
    if total > cap:
        raise CapacityError(f"C({m}, {n}) = {total} subsets exceeds cap {cap}")
    v = f.vectors
    combos = itertools.combinations(range(m), n)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            return None
        idx = np.array(block, dtype=np.intp)
        sub = v[:, idx].transpose(1, 0, 2)  # (k, n, n), columns idx[k]
        s = np.linalg.svd(sub, compute_uv=False)
        cutoff = tol.rank_rtol * s[:, 0] * n
        deficient = np.flatnonzero(s[:, -1] <= cutoff)
        if deficient.size:
            return tuple(int(j) for j in idx[deficient[0]])


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


def image_rank(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of the images of a unit point, stacked as columns."""
    s = np.linalg.svd(a, compute_uv=False)
    # images of a unit point never exceed unit scale, so anchor the noise
    # floor at 1: when every image is float dust the rank is 0, not
    # whatever the dust happens to span
    cutoff = tol.rank_rtol * max(float(s[0]) if s.size else 0.0, 1.0) * max(a.shape)
    return int(np.count_nonzero(s > cutoff))


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


def union_owner(p: ProjectionFamily) -> tuple[int, ...]:
    """Map ONB-union column position -> owning subspace index."""
    owner = []
    for i, s in enumerate(p.subspaces):
        owner.extend([i] * s.dim)
    return tuple(owner)


def rank1_reduction(p: ProjectionFamily, tol: Tolerances = DEFAULT_TOL) -> Frame:
    """Unit vectors spanning the ranges of a rank-1 projection family."""
    bad = [i for i, s in enumerate(p.subspaces) if s.dim != 1]
    if bad:
        raise ValueError(f"projection {bad[0] + 1} has rank {p.subspaces[bad[0]].dim}; "
                         "rank-1 reduction needs all ranks equal to 1")
    cols = np.concatenate([s.onb for s in p.subspaces], axis=1)
    return Frame(cols, p.field)


def nonspanning_point_from_cp_failure(p: ProjectionFamily, f: Frame, w: PartitionWitness,
                                      tol: Tolerances = DEFAULT_TOL,
                                      seed: int = 0) -> np.ndarray:
    """Turn a failed ONB union into a point where spanning fails.

    f must be an ONB union of p and w a bipartition of f where neither
    side spans.  The returned unit x is orthogonal to the side-I columns;
    each P_i x then lies in the span of that subspace's side-I^c columns,
    which cannot span, so spanning_at(p, x) fails.
    """
    n = f.dim
    if max(w.side_I, default=-1) >= f.size or max(w.side_Ic, default=-1) >= f.size:
        raise ValueError("witness indices fall outside the frame")
    side = f.vectors[:, list(w.side_I)]
    if w.side_I and numerical_rank(side, tol) == n:
        raise ValueError("witness side I spans the space; not a valid failure certificate")
    if w.side_I:
        x = orthogonal_complement_point(side, tol, seed=seed, field=f.field)
    else:
        x = orthogonal_complement_point(None, tol, seed=seed, field=f.field, dim=n)
    report = spanning_at(p, x, tol)
    if report.spans:
        raise ValueError("constructed point spans; frame is not an ONB union of this family")
    return x
