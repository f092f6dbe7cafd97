import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaseret import (
    CapacityError,
    Field,
    Frame,
    PartitionWitness,
    ProjectionFamily,
    Tolerances,
    complement_property,
    full_spark,
    image_matrix,
    nonspanning_point_from_cp_failure,
    numerical_rank,
    onb_union,
    rank1_reduction,
    spanning_at,
)
from phaseret.certify import _sigma_eval
from phaseret.frames import Subspace, _outer_table, _screen_spans

from conftest import (
    _brute_rank,
    brute_complement_property,
    brute_first_cp_failure,
    brute_full_spark,
    brute_image_rank,
    random_projection_stack,
    random_unit_columns,
)


def real_frame(cols) -> Frame:
    return Frame(np.asarray(cols, dtype=np.float64), Field.REAL)


# ---------------------------------------------------------------------------
# construction and validation

def test_frame_shape_properties():
    f = real_frame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert f.dim == 2 and f.size == 3
    np.testing.assert_allclose(f.column(2), [1.0, 1.0])


def test_frame_rejects_zero_column():
    with pytest.raises(ValueError, match="zero"):
        real_frame([[1.0, 0.0], [0.0, 0.0]])


def test_subspace_requires_onb():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0], [1.0]]), Field.REAL)


def test_family_from_projections_validates():
    good = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    p = ProjectionFamily.from_projections(good)
    assert p.ranks == (1, 1) and p.dim == 2 and p.size == 2
    with pytest.raises(ValueError, match="idempotent"):
        ProjectionFamily.from_projections([np.diag([2.0, 0.0])])
    with pytest.raises(ValueError, match="self-adjoint"):
        ProjectionFamily.from_projections([np.array([[0.5, 0.4], [0.1, 0.5]])])
    with pytest.raises(ValueError, match="zero"):
        ProjectionFamily.from_projections([np.zeros((2, 2))])


def test_family_from_frame_is_rank_one():
    f = real_frame([[1.0, 3.0], [0.0, 4.0]])
    p = ProjectionFamily.from_frame(f)
    assert p.ranks == (1, 1)
    # second projector fixes (3,4)/5 and kills its complement
    v = np.array([3.0, 4.0]) / 5.0
    np.testing.assert_allclose(p.projections[1] @ v, v, atol=1e-12)
    np.testing.assert_allclose(p.projections[1] @ np.array([4.0, -3.0]), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# complement property

def test_cp_two_axes_fails():
    w = complement_property(real_frame(np.eye(2)))
    assert w is not None
    assert (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic) == ((0,), (1,), 1, 1)


def test_cp_mercedes_holds():
    assert complement_property(real_frame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])) is None


def test_cp_first_failure_ordering():
    # e1, e2, e3, e1+e2 in R^3: the earliest failing split keeps
    # {e1, e2, e1+e2} against {e3}
    cols = np.hstack([np.eye(3), np.array([[1.0], [1.0], [0.0]])])
    w = complement_property(real_frame(cols))
    assert w is not None
    assert w.side_I == (0, 1, 3) and w.side_Ic == (2,)
    assert w.rank_I == 2 and w.rank_Ic == 1
    assert brute_first_cp_failure(cols) == (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic)


def _gaussian(rng, shape, field):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if field is Field.COMPLEX else x


def _near_hyperplane_frame(rng, n, field=Field.REAL):
    # unit columns, a random subset of them pushed to within a random
    # distance of one hyperplane, so side ranks sit near every cutoff
    m = n + 1 + int(rng.integers(0, 3))
    cols = _gaussian(rng, (n, m), field)
    normal = _gaussian(rng, n, field)
    normal /= np.linalg.norm(normal)
    idx = rng.choice(m, size=int(rng.integers(n - 1, m)), replace=False)
    flat = cols[:, idx] - np.outer(normal, normal.conj() @ cols[:, idx])
    eps = 10.0 ** rng.uniform(-13, -1)
    cols[:, idx] = flat + eps * np.outer(normal, _gaussian(rng, idx.size, field))
    return cols / np.linalg.norm(cols, axis=0), normal


_RTOLS = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]


def _near_hyperplane_frames(field=Field.REAL):
    for n in (2, 3, 4):
        for seed in range(50):
            rng = np.random.default_rng(1000 * n + seed)
            cols, normal = _near_hyperplane_frame(rng, n, field)
            yield n, seed, cols, normal


@pytest.mark.parametrize("rtol", _RTOLS)
def test_cp_matches_brute_oracle_at_every_rank_tolerance(rtol):
    tol = Tolerances(rank_rtol=rtol)
    for n, seed, cols, _ in _near_hyperplane_frames():
        w = complement_property(real_frame(cols), tol)
        got = None if w is None else (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic)
        assert got == brute_first_cp_failure(cols, rtol), (n, seed)


@pytest.mark.parametrize("rtol", _RTOLS)
def test_full_spark_matches_brute_oracle_at_every_rank_tolerance(rtol):
    tol = Tolerances(rank_rtol=rtol)
    for n, seed, cols, _ in _near_hyperplane_frames():
        assert full_spark(real_frame(cols), tol) == brute_full_spark(cols, rtol), (n, seed)


@pytest.mark.parametrize("rtol", _RTOLS)
def test_cp_matches_brute_oracle_on_complex_frames_at_every_rank_tolerance(rtol):
    tol = Tolerances(rank_rtol=rtol)
    for n, seed, cols, _ in _near_hyperplane_frames(Field.COMPLEX):
        w = complement_property(Frame(cols, Field.COMPLEX), tol)
        got = None if w is None else (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic)
        assert got == brute_first_cp_failure(cols, rtol), (n, seed)


@pytest.mark.parametrize("rtol", _RTOLS)
def test_full_spark_matches_brute_oracle_on_complex_frames_at_every_rank_tolerance(rtol):
    tol = Tolerances(rank_rtol=rtol)
    for n, seed, cols, _ in _near_hyperplane_frames(Field.COMPLEX):
        assert full_spark(Frame(cols, Field.COMPLEX), tol) == brute_full_spark(cols, rtol), \
            (n, seed)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
@pytest.mark.parametrize("rtol", _RTOLS)
def test_screen_never_certifies_a_deficient_side_or_subset(rtol, field):
    # the screen may leave a spanning row undecided, but a row it certifies
    # must span under the same-cutoff oracle: CP sides are screened at size
    # max(n, m), n-subsets at size n, as in the two walks
    tol = Tolerances(rank_rtol=rtol)
    certified = 0
    for n, seed, cols, _ in _near_hyperplane_frames(field):
        m = cols.shape[1]
        sides = [s for k in range(n, m + 1) for s in itertools.combinations(range(m), k)]
        for rows, size in ((sides, max(n, m)), ([s for s in sides if len(s) == n], n)):
            sel = np.zeros((len(rows), m))
            for r, side in enumerate(rows):
                sel[r, list(side)] = 1.0
            spans = _screen_spans(_outer_table(cols), sel, size, tol)
            for side in itertools.compress(rows, spans):
                assert _brute_rank(cols[:, side], rtol) == n, (n, seed, side)
            certified += int(spans.sum())
    assert certified > 0


@pytest.mark.parametrize("rtol", _RTOLS)
def test_spanning_at_matches_brute_oracle_at_every_rank_tolerance(rtol):
    # at the hyperplane's normal the near-hyperplane images are small, so
    # the image rank sits near every cutoff
    tol = Tolerances(rank_rtol=rtol)
    for n, seed, cols, normal in _near_hyperplane_frames():
        stack = np.stack([np.outer(c, c) for c in cols.T])
        rank = brute_image_rank(stack, normal, rtol)
        report = spanning_at(ProjectionFamily.from_projections(stack, Field.REAL, tol),
                             normal, tol)
        assert (report.rank, report.spans) == (rank, rank == n), (n, seed)
        assert _sigma_eval(stack, normal[None, :], tol)[2][0] == (rank < n), (n, seed)


def test_cp_capacity():
    cols = np.hstack([np.eye(3), np.ones((3, 1))])
    with pytest.raises(CapacityError):
        complement_property(real_frame(cols), cap=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 7), st.booleans(), st.integers(0, 10 ** 6))
def test_cp_matches_brute_oracle(n, m, cplx, seed):
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if cplx else Field.REAL
    cols = random_unit_columns(rng, n, m, field)
    # plant occasional degeneracy so failing partitions actually occur
    if m >= 2 and rng.random() < 0.5:
        cols[:, -1] = cols[:, 0] * (1.1 if field is Field.REAL else 1.1j)
    w = complement_property(Frame(cols, field))
    assert (w is None) == brute_complement_property(cols)
    if w is not None:
        expect = brute_first_cp_failure(cols)
        assert expect is not None
        assert (w.side_I, w.side_Ic) == (expect[0], expect[1])
        assert (w.rank_I, w.rank_Ic) == (expect[2], expect[3])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_cp_invariant_under_permutation_and_scaling(n, m, seed):
    rng = np.random.default_rng(seed)
    cols = random_unit_columns(rng, n, m, Field.REAL)
    if rng.random() < 0.5:
        cols[:, -1] = 2.0 * cols[:, 0]
    base = complement_property(real_frame(cols)) is None
    perm = rng.permutation(m)
    scales = rng.uniform(0.5, 2.0, size=m)
    assert (complement_property(real_frame(cols[:, perm] * scales)) is None) == base


# ---------------------------------------------------------------------------
# full spark

def test_full_spark_parallel_pair():
    assert full_spark(real_frame([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])) == (0, 2)


def test_full_spark_mercedes():
    assert full_spark(real_frame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])) is None


def test_full_spark_complex_roots_of_unity():
    w = np.exp(2j * np.pi / 3)
    cols = np.array([[1.0, 1.0, 1.0], [1.0, w, w ** 2]])
    assert full_spark(Frame(cols, Field.COMPLEX)) is None


def test_full_spark_capacity():
    cols = np.hstack([np.eye(3), np.ones((3, 1))])
    with pytest.raises(CapacityError):
        full_spark(real_frame(cols), cap=2)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(2, 7), st.booleans(), st.integers(0, 10 ** 6))
def test_full_spark_matches_brute_oracle(n, m, cplx, seed):
    if m < n:
        m = n
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if cplx else Field.REAL
    cols = random_unit_columns(rng, n, m, field)
    if rng.random() < 0.5:
        cols[:, -1] = 1.3 * cols[:, 0]  # forced dependent pair
    assert full_spark(Frame(cols, field)) == brute_full_spark(cols)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_full_spark_implies_cp_at_critical_size(n, seed):
    # with m >= 2n-1 vectors, full spark forces the complement property:
    # any split has a side with >= n vectors, and those are independent
    rng = np.random.default_rng(seed)
    m = 2 * n - 1 + int(rng.integers(0, 3))
    cols = random_unit_columns(rng, n, m, Field.REAL)
    if full_spark(real_frame(cols)) is None:
        assert complement_property(real_frame(cols)) is None


# ---------------------------------------------------------------------------
# spanning evaluation

def test_image_matrix_and_spanning_at():
    p = ProjectionFamily.from_frame(real_frame(np.eye(2)))
    imgs = image_matrix(p, np.array([1.0, 0.0]))
    np.testing.assert_allclose(imgs, np.array([[1.0, 0.0], [0.0, 0.0]]))
    rep = spanning_at(p, np.array([1.0, 0.0]))
    assert rep.spans is False and rep.rank == 1
    rep = spanning_at(p, np.array([1.0, 1.0]))
    assert rep.spans is True and rep.rank == 2


def test_spanning_at_rejects_zero_point():
    p = ProjectionFamily.from_frame(real_frame(np.eye(2)))
    with pytest.raises(ValueError):
        spanning_at(p, np.zeros(2))


# ---------------------------------------------------------------------------
# ONB unions

@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_onb_union_columns_span_their_subspace(field, rng):
    stack = random_projection_stack(rng, 4, [2, 1, 3], field)
    p = ProjectionFamily.from_projections(stack, field)
    u = onb_union(p, seed=7)
    owner = tuple(np.repeat(np.arange(p.size), p.ranks))
    assert u.size == 6 and owner == (0, 0, 1, 2, 2, 2)
    for i, proj in enumerate(stack):
        cols = u.vectors[:, [j for j, o in enumerate(owner) if o == i]]
        # owned columns form an ONB of the i-th range
        np.testing.assert_allclose(cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-10)
        np.testing.assert_allclose(proj @ cols, cols, atol=1e-10)


def test_onb_union_seed_changes_basis_not_span():
    rng = np.random.default_rng(3)
    stack = random_projection_stack(rng, 3, [2, 2], Field.REAL)
    p = ProjectionFamily.from_projections(stack, Field.REAL)
    u1 = onb_union(p, seed=1)
    u2 = onb_union(p, seed=2)
    assert not np.allclose(u1.vectors, u2.vectors)
    owner = tuple(np.repeat(np.arange(p.size), p.ranks))
    for i in range(2):
        idx = [j for j, o in enumerate(owner) if o == i]
        a, b = u1.vectors[:, idx], u2.vectors[:, idx]
        # same column span either way
        np.testing.assert_allclose(a @ a.conj().T, b @ b.conj().T, atol=1e-10)


def test_onb_union_deterministic():
    rng = np.random.default_rng(4)
    stack = random_projection_stack(rng, 3, [1, 2], Field.COMPLEX)
    p = ProjectionFamily.from_projections(stack, Field.COMPLEX)
    np.testing.assert_array_equal(onb_union(p, seed=5).vectors, onb_union(p, seed=5).vectors)


# ---------------------------------------------------------------------------
# rank-1 reduction

def test_rank1_reduction_recovers_lines():
    f = real_frame([[1.0, 3.0], [0.0, 4.0]])
    g = rank1_reduction(ProjectionFamily.from_frame(f))
    for j in range(2):
        a = f.column(j) / np.linalg.norm(f.column(j))
        b = g.column(j)
        assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12


def test_rank1_reduction_rejects_higher_rank():
    p = ProjectionFamily.from_projections([np.eye(2)])
    with pytest.raises(ValueError, match="rank"):
        rank1_reduction(p)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.booleans(), st.integers(0, 10 ** 6))
def test_rank1_reduction_preserves_measurements(n, m, cplx, seed):
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if cplx else Field.REAL
    cols = random_unit_columns(rng, n, m, field)
    p = ProjectionFamily.from_frame(Frame(cols, field))
    g = rank1_reduction(p)
    for _ in range(5):
        x = rng.standard_normal(n)
        if cplx:
            x = x + 1j * rng.standard_normal(n)
        # ||P_i x||^2 == |<g_i, x>|^2 for unit g_i spanning the same line
        lhs = np.linalg.norm(p.projections @ x, axis=1) ** 2
        rhs = np.abs(g.vectors.conj().T @ x) ** 2
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# non-spanning point from a CP failure

def test_nonspanning_point_axes_example():
    f = real_frame(np.eye(2))
    p = ProjectionFamily.from_frame(f)
    w = complement_property(f)
    x = nonspanning_point_from_cp_failure(p, f, w)
    assert spanning_at(p, x).spans is False
    # side I = {e1}, so the point lives on the e2 axis
    assert abs(x[0]) < 1e-10 * np.linalg.norm(x)


def test_nonspanning_point_rejects_spanning_side():
    f = real_frame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    p = ProjectionFamily.from_frame(f)
    fake = PartitionWitness(side_I=(0, 1), side_Ic=(2,), rank_I=2, rank_Ic=1)
    with pytest.raises(ValueError):
        nonspanning_point_from_cp_failure(p, f, fake)


def test_nonspanning_point_empty_side_is_a_unit_point():
    # side I = () is orthogonal to everything; two vectors in R^3 span at no point
    f = real_frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    p = ProjectionFamily.from_frame(f)
    w = PartitionWitness(side_I=(), side_Ic=(0, 1), rank_I=0, rank_Ic=2)
    x = nonspanning_point_from_cp_failure(p, f, w)
    assert x.shape == (3,)
    np.testing.assert_allclose(np.linalg.norm(x), 1.0, atol=1e-12)
    assert spanning_at(p, x).spans is False


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_nonspanning_point_always_breaks_spanning(n, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n, 2 * n))
    cols = random_unit_columns(rng, n, m, Field.REAL)
    # collapse the frame onto a hyperplane so CP must fail
    cols[n - 1, :] = 0.0
    cols = cols / np.linalg.norm(cols, axis=0)
    f = Frame(cols, Field.REAL)
    w = complement_property(f)
    assert w is not None
    p = ProjectionFamily.from_frame(f)
    x = nonspanning_point_from_cp_failure(p, f, w)
    rep = spanning_at(p, x)
    assert rep.spans is False and rep.rank < n
