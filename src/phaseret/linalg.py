"""Field-generic dense linear algebra kernel.

Matrices are plain numpy arrays; the scalar field is carried explicitly by
the Field enum (real arrays are float64, complex arrays are complex128).
Vectors are 1-D arrays, column collections are (n, k) arrays.  All rank
decisions go through one relative singular-value threshold, rank_cutoff,
so that every "spans" question in the toolkit means the same thing.
Columns in K^n are judged at rank_cutoff(sigma_max, n), so adding
columns never lowers a rank under one fixed sigma_max.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import FieldError


class Field(enum.Enum):
    """Scalar field tag for vectors, frames, and projection families."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128) if self is Field.COMPLEX else np.dtype(np.float64)

    @classmethod
    def parse(cls, name: str) -> "Field":
        try:
            return cls(name.lower())
        except ValueError:
            raise FieldError(f"unknown scalar field {name!r}; expected 'real' or 'complex'") from None

    @classmethod
    def infer(cls, a: np.ndarray) -> "Field":
        return Field.COMPLEX if np.iscomplexobj(a) else Field.REAL


def as_field_array(a, field: Field, name: str = "matrix") -> np.ndarray:
    """Coerce to the field's dtype, rejecting complex data under a Real tag."""
    arr = np.asarray(a)
    if field is Field.REAL and np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag), initial=0.0) != 0.0:
            raise FieldError(f"{name} has nonzero imaginary parts but is tagged real")
        arr = arr.real
    return np.ascontiguousarray(arr, dtype=field.dtype)


def ensure_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def pow2_scaled(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """a times the power of two that puts its largest real or imaginary
    part in [1/2, 1), as one array or each vector along axis: exact in the
    normal range, and no norm of the result overflows or underflows."""
    real = not np.iscomplexobj(a)
    big = np.abs(a) if real else np.maximum(np.abs(a.real), np.abs(a.imag))
    e = -np.frexp(big.max(axis=axis, keepdims=True))[1]
    if real:
        return np.ldexp(a, e)
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, e), np.ldexp(a.imag, e)
    return out


def normalized(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """a over its 2-norm, as one vector or each along axis, after
    pow2_scaled: bit-identical to a / ||a|| in the normal range."""
    w = pow2_scaled(a, axis)
    return w / np.linalg.norm(w, axis=axis, keepdims=True)


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds threaded through every rank / witness decision.

    rank_rtol   relative singular-value cutoff for rank counting
    proj_tol    max-entry bound for projector and unit-norm validation; a
                point counts as zero only when it is exactly zero
    witness_tol bound on the measurement mismatch of a witness pair,
                relative to the pair's squared scale max(||u||, ||v||)^2
    phase_tol   bound below which two vectors count as phase-equivalent
    """

    rank_rtol: float = 1e-10
    proj_tol: float = 1e-8
    witness_tol: float = 1e-9
    phase_tol: float = 1e-6

    def __post_init__(self):
        for name in ("rank_rtol", "proj_tol", "witness_tol", "phase_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.rank_rtol < 1.0:
            raise ValueError("rank_rtol must be < 1")


DEFAULT_TOL = Tolerances()


def rank_cutoff(scale, size, tol: Tolerances):
    """The rank rule: a singular value counts toward the rank when it is
    strictly above rank_rtol * scale * size.

    For columns in K^n, size is n and scale bounds their sigma_max: the
    exact frame walks fix sigma_max(V) of the whole frame once per call.
    The image rule (_image_rank_from) takes max(sigma_max, 1) and the
    larger dimension.  scale may be an array for batched decisions.
    """
    return tol.rank_rtol * scale * size


def numerical_rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Count singular values above rank_cutoff(sigma_max, rows), the rank
    the exact frame walks give a whole frame.

    Returns 0 for an identically zero matrix.  Raises on empty or
    non-finite input.
    """
    arr = np.asarray(m)
    if arr.ndim != 2 or min(arr.shape) == 0:
        raise ValueError("numerical_rank needs a nonempty 2-D matrix")
    ensure_finite(arr, "matrix")
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.count_nonzero(s > rank_cutoff(s[0], arr.shape[0], tol)))


def _image_rank_from(s: np.ndarray, shape, tol: Tolerances) -> np.ndarray:
    """Image ranks from singular values s (..., r) of (..., d, k) image stacks."""
    # images of a unit point never exceed unit scale, so anchor the noise
    # floor at 1: when every image is float dust the rank is 0, not
    # whatever the dust happens to span
    cutoff = rank_cutoff(np.maximum(s[..., :1], 1.0), max(shape), tol)
    return np.count_nonzero(s > cutoff, axis=-1)


def image_rank(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of the images of a unit point, stacked as columns."""
    return int(_image_rank_from(np.linalg.svd(a, compute_uv=False), a.shape, tol))


def null_direction(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Unit vector orthogonal to the columns of a when they fail to span, else None.

    a holds the images of a unit point, or columns of comparable scale
    (see image_rank); the direction is the last column of the full left
    singular basis, the one of smallest residual |a* y|.  With fewer
    columns than rows it lies past the last singular value, and with no
    columns it is the last standard basis vector.
    """
    u, s, _ = np.linalg.svd(a)
    if _image_rank_from(s, a.shape, tol) == a.shape[0]:
        return None
    return u[:, -1]


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the column span, via SVD.

    The output Gram matrix is the identity to machine precision and the
    span equals the input span under numerical_rank's rule.  Raises
    when the columns are all numerically zero.
    """
    arr = np.asarray(vectors)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("orthonormalize needs at least one column")
    ensure_finite(arr, "vectors")
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    r = int(np.count_nonzero(s > rank_cutoff(s.max(initial=0.0), arr.shape[0], tol)))
    if r == 0:
        raise ValueError("columns span only the zero subspace")
    return u[:, :r]


def gaussian_matrix(rng: np.random.Generator, n: int, k: int, field: Field) -> np.ndarray:
    """Standard Gaussian (n, k) matrix over the given field."""
    if field is Field.COMPLEX:
        return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return rng.standard_normal((n, k))

