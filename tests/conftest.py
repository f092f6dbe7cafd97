"""Shared helpers and independent brute-force oracles.

The oracles here deliberately avoid the package's own rank/enumeration
machinery: partitions are enumerated as raw subsets and ranks come from
numpy.linalg.matrix_rank, so a bug in the library's bitmask walk or SVD
cutoff cannot hide behind itself.
"""

import itertools

import numpy as np
import pytest

from phaseret import DEFAULT_TOL, Field
from phaseret.certify import _sigma_eval


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


def _brute_rank(a: np.ndarray, rtol: float | None) -> int:
    """numpy's matrix_rank; with rtol, singular values above rtol * sigma_max * max(shape)."""
    if rtol is None:
        return int(np.linalg.matrix_rank(a))
    return int(np.linalg.matrix_rank(a, tol=rtol * np.linalg.norm(a, 2) * max(a.shape)))


def brute_first_cp_failure(vectors: np.ndarray, rtol: float | None = None):
    """First failing bipartition in the library's documented order.

    Vector 0 stays on side I; bit j of the mask moves vector j+1 to the
    complement; masks ascend.  Reimplemented here from that sentence
    alone, as a cross-check on the vectorized walk.  Ranks use numpy's
    default cutoff, or rtol * sigma_max * max(shape) when rtol is given.
    """
    n, m = vectors.shape
    for mask in range(2 ** (m - 1)):
        side_ic = tuple(j + 1 for j in range(m - 1) if mask & (1 << j))
        side_i = tuple(j for j in range(m) if j not in side_ic)
        r_i = _brute_rank(vectors[:, side_i], rtol) if side_i else 0
        r_ic = _brute_rank(vectors[:, side_ic], rtol) if side_ic else 0
        if r_i < n and r_ic < n:
            return side_i, side_ic, r_i, r_ic
    return None


def brute_full_spark(vectors: np.ndarray, rtol: float | None = None):
    """First lexicographic dependent n-subset, or None if full spark.

    Ranks use numpy's default cutoff, or rtol * sigma_max * n when rtol
    is given.
    """
    n, m = vectors.shape
    for combo in itertools.combinations(range(m), n):
        if _brute_rank(vectors[:, combo], rtol) < n:
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


def stack_sigma_and_grad(ops: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """The spanning search's sigma_min and gradient at one point, in flat real
    coordinates: theta is x for a real stack and (Re x, Im x) for a complex one.

    Not an oracle: it calls the library's objective so that tests can hold
    its gradient against finite differences.
    """
    cplx = np.iscomplexobj(ops)
    d = ops.shape[1]
    x = theta[:d] + 1j * theta[d:] if cplx else theta
    s, g, _ = _sigma_eval(ops, x[None, :], DEFAULT_TOL)
    g = np.concatenate([g[0].real, g[0].imag]) if cplx else g[0]
    return float(s[0]), g


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
