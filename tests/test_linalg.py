import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaseret import (
    DEFAULT_TOL,
    Field,
    FieldError,
    Tolerances,
    numerical_rank,
    orthonormalize,
)
from phaseret.linalg import (
    as_field_array,
    ensure_finite,
    gaussian_matrix,
    null_direction,
)


# ---------------------------------------------------------------------------
# fields and tolerances

def test_field_parse_and_dtype():
    assert Field.parse("real") is Field.REAL
    assert Field.parse("complex") is Field.COMPLEX
    assert Field.REAL.dtype == np.float64
    assert Field.COMPLEX.dtype == np.complex128
    with pytest.raises(FieldError):
        Field.parse("quaternion")


def test_field_infer():
    assert Field.infer(np.eye(2)) is Field.REAL
    assert Field.infer(np.eye(2) * (1 + 0j)) is Field.COMPLEX


def test_as_field_array_rejects_complex_under_real_tag():
    with pytest.raises(FieldError):
        as_field_array(np.array([1.0, 1j]), Field.REAL, "x")


def test_as_field_array_upcasts():
    out = as_field_array(np.array([1, 2]), Field.COMPLEX, "x")
    assert out.dtype == np.complex128


def test_ensure_finite():
    with pytest.raises(ValueError, match="NaN or Inf"):
        ensure_finite(np.array([1.0, np.nan]), "bad")


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank_rtol=0.0)
    with pytest.raises(ValueError):
        Tolerances(witness_tol=-1e-3)
    # defaults are the documented contract values
    assert DEFAULT_TOL.rank_rtol == 1e-10
    assert DEFAULT_TOL.witness_tol == 1e-9
    assert DEFAULT_TOL.phase_tol == 1e-6


# ---------------------------------------------------------------------------
# rank and singular values

def test_numerical_rank_hand_cases():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((2, 4))) == 0
    cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])  # e1, e2, e1+e2
    assert numerical_rank(cols) == 2
    assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_numerical_rank_relative_cutoff():
    # a tiny-but-honest second direction survives the relative cutoff
    m = np.diag([1.0, 1e-6])
    assert numerical_rank(m) == 2
    # below rank_rtol * sigma_max * max(shape) it is treated as noise
    m = np.diag([1.0, 1e-12])
    assert numerical_rank(m) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_numerical_rank_known_products(n, r, seed):
    r = min(r, n)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, r))
    b = rng.standard_normal((r, n))
    assert numerical_rank(a @ b) == r


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8), st.integers(0, 10 ** 6))
def test_rank_never_drops_when_appending(n, m, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((n, m))
    extra = rng.standard_normal((n, 1))
    assert numerical_rank(np.hstack([cols, extra])) >= numerical_rank(cols)


def test_rank_unchanged_by_copies_of_a_column():
    # the cutoff scales with the row count, not the column count, so 20
    # copies of e1 do not push e2 and e3 under it
    cols = np.hstack([np.eye(3), np.repeat(np.eye(3)[:, :1], 20, axis=1)])
    assert numerical_rank(cols, Tolerances(rank_rtol=1e-2)) == 3


# ---------------------------------------------------------------------------
# orthonormalization and projectors

def test_orthonormalize_spans_and_gram():
    cols = np.array([[1.0, 1.0], [0.0, 1.0]])
    q = orthonormalize(cols)
    assert q.shape == (2, 2)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-12)


def test_orthonormalize_drops_dependent_columns():
    cols = np.array([[1.0, 2.0], [1.0, 2.0]])
    q = orthonormalize(cols)
    assert q.shape == (2, 1)
    np.testing.assert_allclose(np.abs(q[:, 0]), [2 ** -0.5] * 2, atol=1e-12)


def test_orthonormalize_zero_input_raises():
    with pytest.raises(ValueError, match="zero subspace"):
        orthonormalize(np.zeros((3, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8), st.booleans(), st.integers(0, 10 ** 6))
def test_orthonormalize_idempotent_span(n, m, cplx, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((n, m))
    if cplx:
        cols = cols + 1j * rng.standard_normal((n, m))
    q = orthonormalize(cols)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-10)
    # same span: each original column reproduced by the projector
    p = q @ q.conj().T
    np.testing.assert_allclose(p @ cols, cols, atol=1e-8)
    # running it again changes nothing but basis; ranks agree
    assert orthonormalize(q).shape == q.shape


def test_null_direction_hand_case():
    y = null_direction(np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(np.linalg.norm(y), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(y), [2 ** -0.5] * 2, atol=1e-10)
    assert abs(y[0] + y[1]) < 1e-10


def test_null_direction_full_span_is_none():
    assert null_direction(np.eye(2)) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.booleans(), st.integers(0, 10 ** 6))
def test_null_direction_is_orthogonal(n, cplx, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    cols = rng.standard_normal((n, k))
    if cplx:
        cols = cols + 1j * rng.standard_normal((n, k))
    y = null_direction(cols)
    assert np.max(np.abs(cols.conj().T @ y)) < 1e-8 * np.linalg.norm(y) * np.max(
        np.linalg.norm(cols, axis=0))


# ---------------------------------------------------------------------------
# random matrix helpers

def test_gaussian_matrix_dtypes():
    rng = np.random.default_rng(0)
    assert gaussian_matrix(rng, 3, 2, Field.REAL).dtype == np.float64
    assert gaussian_matrix(rng, 3, 2, Field.COMPLEX).dtype == np.complex128

