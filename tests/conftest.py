"""Shared helpers and independent brute-force oracles.

The oracles here deliberately avoid the package's own rank/enumeration
machinery: partitions are enumerated as raw subsets and ranks come from
numpy.linalg.matrix_rank, so a bug in the library's bitmask walk or SVD
cutoff cannot hide behind itself.
"""

import itertools

import numpy as np
import pytest

from phaseret import Field
from phaseret.certify import _tangent_jacobian


def brute_complement_property(vectors: np.ndarray) -> bool:
    """Check CP by enumerating every subset (2^m of them)."""
    n, m = vectors.shape
    for bits in range(2 ** m):
        side = [j for j in range(m) if bits & (1 << j)]
        other = [j for j in range(m) if not bits & (1 << j)]
        r_side = np.linalg.matrix_rank(vectors[:, side]) if side else 0
        r_other = np.linalg.matrix_rank(vectors[:, other]) if other else 0
        if r_side < n and r_other < n:
            return False
    return True


def _brute_rank(a: np.ndarray, cutoff: float | None) -> int:
    """numpy's matrix_rank: its default cutoff, or singular values above cutoff."""
    return int(np.linalg.matrix_rank(a, tol=cutoff))


def _frame_cutoff(vectors: np.ndarray, rtol: float | None) -> float | None:
    """rtol * sigma_max(V) * n for the whole (n, m) frame V, or None without rtol."""
    return None if rtol is None else rtol * np.linalg.norm(vectors, 2) * vectors.shape[0]


def brute_first_cp_failure(vectors: np.ndarray, rtol: float | None = None):
    """First failing bipartition in the library's documented order.

    Vector 0 stays on side I; bit j of the mask moves vector j+1 to the
    complement; masks ascend.  Reimplemented here from that sentence
    alone, as a cross-check on the vectorized walk.  Ranks use numpy's
    default cutoff, or, when rtol is given, one cutoff for every side:
    rtol * sigma_max(V) * n of the whole frame.
    """
    n, m = vectors.shape
    cutoff = _frame_cutoff(vectors, rtol)
    for mask in range(2 ** (m - 1)):
        side_ic = tuple(j + 1 for j in range(m - 1) if mask & (1 << j))
        side_i = tuple(j for j in range(m) if j not in side_ic)
        r_i = _brute_rank(vectors[:, side_i], cutoff) if side_i else 0
        r_ic = _brute_rank(vectors[:, side_ic], cutoff) if side_ic else 0
        if r_i < n and r_ic < n:
            return side_i, side_ic, r_i, r_ic
    return None


def brute_full_spark(vectors: np.ndarray, rtol: float | None = None):
    """First lexicographic dependent n-subset, or None if full spark.

    Ranks use numpy's default cutoff, or, when rtol is given, one cutoff
    for every subset: rtol * sigma_max(V) * n of the whole frame.
    """
    n, m = vectors.shape
    cutoff = _frame_cutoff(vectors, rtol)
    for combo in itertools.combinations(range(m), n):
        if _brute_rank(vectors[:, combo], cutoff) < n:
            return combo
    return None


def brute_image_rank(projections: np.ndarray, x: np.ndarray, rtol: float) -> int:
    """Rank of the images P_i x of a unit x, stacked as columns.

    Singular values count above rtol * max(sigma_max, 1) * max(shape):
    images of a unit point never exceed unit scale, so the floor is 1.
    """
    a = (projections @ x).T
    return int(np.linalg.matrix_rank(a, tol=rtol * max(np.linalg.norm(a, 2), 1.0) * max(a.shape)))


def random_unit_columns(rng: np.random.Generator, n: int, m: int, field: Field) -> np.ndarray:
    cols = rng.standard_normal((n, m))
    if field is Field.COMPLEX:
        cols = cols + 1j * rng.standard_normal((n, m))
    return cols / np.linalg.norm(cols, axis=0)


def random_projection_stack(rng: np.random.Generator, n: int, ranks, field: Field) -> np.ndarray:
    """Independent projection builder: QR of a Gaussian, then B B*."""
    mats = []
    for k in ranks:
        g = rng.standard_normal((n, k))
        if field is Field.COMPLEX:
            g = g + 1j * rng.standard_normal((n, k))
        q, _ = np.linalg.qr(g)
        mats.append(q @ q.conj().T)
    return np.stack(mats)


def stack_residual_and_jacobian(ops: np.ndarray, x: np.ndarray,
                                w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spanning search's residuals r_j = w* A_j x and tangent Jacobian in
    (dx, conj dw) at one pair of points.

    Not an oracle: it calls the library's solver kernel so that tests can
    hold the Jacobian against finite differences.
    """
    res, jac = _tangent_jacobian(ops, x[None, :], w[None, :])
    return res[0], jac[0]


def tangent_jacobian_error(ops: np.ndarray, theta: np.ndarray, h: float = 1e-6):
    """The search's tangent Jacobian against central differences at one point.

    theta is x for a real stack and (Re x, Im x) for a complex one; x is
    normalized, and w is the last left singular vector of A(x), taken
    with numpy's SVD: the pair the solver linearizes at.  Every flat
    real coordinate direction of x, then of w, is projected onto the
    tangent space of its unit sphere, and residuals computed here with
    plain products are differenced along the renormalized curve.
    Returns the relative error over all directions, the library's
    residual included, and the largest |J v| over the normal directions
    v = (x, 0) and (0, conj w), which the tangent Jacobian maps to zero.
    """
    def residual(x, w):
        return (ops @ x) @ w.conj()

    d = ops.shape[1]
    x = theta[:d] + 1j * theta[d:] if np.iscomplexobj(ops) else theta
    x = x / np.linalg.norm(x)
    w = np.linalg.svd((ops @ x).T)[0][:, -1]
    res, jac = stack_residual_and_jacobian(ops, x, w)
    exact, num = [res], [residual(x, w)]
    basis = np.eye(d, dtype=x.dtype)
    if np.iscomplexobj(ops):
        basis = np.concatenate([basis, 1j * basis])
    zero = np.zeros(d, dtype=x.dtype)
    for e in basis:
        for dx, dw in ((e - x * np.vdot(x, e), zero), (zero, e - w * np.vdot(w, e))):
            exact.append(jac @ np.concatenate([dx, dw.conj()]))
            plus, minus = (residual((x + s * dx) / np.linalg.norm(x + s * dx),
                                    (w + s * dw) / np.linalg.norm(w + s * dw))
                           for s in (h, -h))
            num.append((plus - minus) / (2 * h))
    exact, num = np.array(exact), np.array(num)
    rel = np.linalg.norm(exact - num) / max(np.linalg.norm(num), 1e-12)
    normal = max(np.linalg.norm(jac @ np.concatenate([x, zero])),
                 np.linalg.norm(jac @ np.concatenate([zero, w.conj()])))
    return rel, normal


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
