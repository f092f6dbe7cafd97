"""Independent output checker, numpy only.

Nothing here imports phaseret.  Every claim a workload op returns is
recomputed from the raw arrays the benchmark generated: witness pairs
against the projections, failing bipartitions and rank-deficient subsets
against the frame columns, non-spanning points against the images.  Each
function returns None when the claim holds and a one-line reason when
it does not.

The thresholds are the library's documented defaults (the CLI's
--tol-witness, --tol-phase and --tol-rank), because the benchmark runs
every op under those defaults.
"""

from __future__ import annotations

import itertools

import numpy as np

WITNESS_TOL = 1e-9
PHASE_TOL = 1e-6
RANK_RTOL = 1e-10


def rank(a: np.ndarray) -> int:
    """Rank at the library's documented cutoff: rtol * sigma_max * max(shape)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return int(np.linalg.matrix_rank(a, rtol=RANK_RTOL * max(a.shape)))


def frame_projectors(vectors: np.ndarray) -> np.ndarray:
    """(m, n, n) rank-1 projectors onto the lines spanned by the columns."""
    units = vectors / np.linalg.norm(vectors, axis=0)
    return np.einsum("im,jm->mij", units, units.conj())


def witness_problem(projectors: np.ndarray, u, v) -> str | None:
    """A witness needs equal measurements and must not be a phase-equivalent pair."""
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    n = projectors.shape[1]
    if u.shape != (n,) or v.shape != (n,):
        return f"witness vectors have shapes {u.shape}, {v.shape}; expected ({n},)"
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        return "witness has non-finite entries"
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return "witness has a zero vector"
    meas_u = np.sum(np.abs(projectors @ u) ** 2, axis=1)
    meas_v = np.sum(np.abs(projectors @ v) ** 2, axis=1)
    mismatch = float(np.max(np.abs(meas_u - meas_v)))
    gap = 1.0 - abs(np.vdot(u, v)) / (nu * nv)
    if not mismatch < WITNESS_TOL:
        return f"witness measurement mismatch {mismatch:.3e} >= {WITNESS_TOL:g}"
    if not gap > PHASE_TOL:
        return f"witness phase gap {gap:.3e} <= {PHASE_TOL:g}"
    return None


def partition_problem(vectors: np.ndarray, side_i, side_ic) -> str | None:
    """A complement-property failure: a bipartition where neither side spans."""
    n, m = vectors.shape
    side_i, side_ic = list(side_i), list(side_ic)
    if sorted(side_i + side_ic) != list(range(m)):
        return "partition sides are not a bipartition of the frame"
    if 0 not in side_i:
        return "vector 1 is not on side I"
    for name, side in (("I", side_i), ("I^c", side_ic)):
        r = rank(vectors[:, side])
        if r >= n:
            return f"partition side {name} has rank {r}: it spans"
    return None


def subset_problem(vectors: np.ndarray, subset) -> str | None:
    """A full-spark failure: n distinct columns of rank below n."""
    n, m = vectors.shape
    subset = list(subset)
    if len(set(subset)) != n or not all(0 <= j < m for j in subset):
        return f"subset {subset} is not n = {n} distinct column indices"
    r = rank(vectors[:, subset])
    if r >= n:
        return f"subset {subset} has full rank {r}"
    return None


def nonspanning_problem(projectors: np.ndarray, x) -> str | None:
    """The images {P_i x} of a claimed non-spanning point must not span."""
    x = np.asarray(x).reshape(-1)
    nx = np.linalg.norm(x)
    if not np.isfinite(nx) or nx == 0.0:
        return "point is zero or non-finite"
    images = (projectors @ (x / nx)).T
    s = np.linalg.svd(images, compute_uv=False)
    # a unit point has images of at most unit length: anchor the cutoff at 1
    cutoff = RANK_RTOL * max(float(s[0]), 1.0) * max(images.shape)
    if np.count_nonzero(s > cutoff) >= projectors.shape[1]:
        return "images of the claimed non-spanning point span"
    return None


def is_full_spark(vectors: np.ndarray) -> bool:
    """Every n-subset of columns has rank n (exhaustive; for small frames)."""
    n, m = vectors.shape
    idx = np.array(list(itertools.combinations(range(m), n)), dtype=np.intp)
    ranks = np.linalg.matrix_rank(vectors[:, idx].transpose(1, 0, 2), rtol=RANK_RTOL * n)
    return bool(np.all(ranks == n))
