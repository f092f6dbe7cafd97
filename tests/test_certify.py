import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phaseret as pr
from phaseret import (
    Field,
    FieldError,
    Frame,
    ProjectionFamily,
    SearchConfig,
    Status,
    Tolerances,
    complex_counterexample,
    decide_real_rank1,
    full_spark,
    gen_full_spark,
    gen_random_frame,
    gen_random_projections,
    hermitian_nullspace_witness,
    joint_normalize,
    measurements,
    phase_gap,
    pr_falsifier,
    pr_witness_from_nonspanning,
    spanning_at,
    spanning_falsifier,
    verify_pr_witness,
)
import phaseret.certify as certify
from phaseret.certify import (
    _lifted_stack,
    _nullspace_matrices,
    _project_nullspace,
    _third_abs_eig_grad,
    hermitian_coords,
    hermitian_from_coords,
    trace_constraint_matrix,
)

from conftest import random_projection_stack, random_unit_columns, stack_sigma_and_grad

AXES = Frame(np.eye(2), Field.REAL)
MERCEDES = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), Field.REAL)


# ---------------------------------------------------------------------------
# measurements, gaps, normalization

def test_measurements_axes():
    p = ProjectionFamily.from_frame(AXES)
    np.testing.assert_allclose(measurements(p, np.array([3.0, 4.0])), [9.0, 16.0])


def test_phase_gap_extremes():
    u = np.array([1.0 + 0j, 1j])
    assert phase_gap(u, np.exp(0.7j) * u) == pytest.approx(0.0, abs=1e-12)
    assert phase_gap(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_joint_normalize_preserves_ratio():
    u = np.array([6.0, 8.0])
    v = np.array([0.5, 0.0])
    a, b = joint_normalize(u, v)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    np.testing.assert_allclose(b, v / 10.0)
    with pytest.raises(ValueError):
        joint_normalize(np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# witness verification

def test_verify_accepts_plus_minus_pair():
    p = ProjectionFamily.from_frame(AXES)
    chk = verify_pr_witness(p, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    assert chk.valid
    assert chk.max_mismatch == pytest.approx(0.0, abs=1e-12)
    assert chk.phase_gap == pytest.approx(1.0)


def test_verify_rejects_equal_and_scaled():
    p = ProjectionFamily.from_frame(AXES)
    u = np.array([1.0, 2.0])
    assert not verify_pr_witness(p, u, u).valid
    assert not verify_pr_witness(p, u, -u).valid


def test_verify_rejects_unimodular_multiple_complex():
    p = ProjectionFamily.from_frame(Frame(np.eye(2, dtype=complex), Field.COMPLEX))
    u = np.array([1.0, 1j])
    chk = verify_pr_witness(p, u, 1j * u)
    assert not chk.valid and chk.phase_gap == pytest.approx(0.0, abs=1e-12)


def test_verify_rejects_measurement_mismatch():
    p = ProjectionFamily.from_frame(AXES)
    chk = verify_pr_witness(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert not chk.valid and chk.max_mismatch == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 2 * np.pi), st.integers(0, 10 ** 6))
def test_verify_phase_invariance(angle, seed):
    rng = np.random.default_rng(seed)
    cols = random_unit_columns(rng, 3, 4, Field.COMPLEX)
    p = ProjectionFamily.from_frame(Frame(cols, Field.COMPLEX))
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    # same vector under a unimodular factor is never a witness
    assert not verify_pr_witness(p, u, np.exp(1j * angle) * u).valid


# ---------------------------------------------------------------------------
# forward construction from a non-spanning point

def test_witness_from_nonspanning_axes():
    p = ProjectionFamily.from_frame(AXES)
    x = np.array([1.0, 0.0])  # images {e1, 0} miss the e2 direction
    w = pr_witness_from_nonspanning(p, x)
    chk = verify_pr_witness(p, w.u, w.v)
    assert chk.valid and w.max_mismatch < 1e-12


def test_witness_from_nonspanning_rejects_spanning_point():
    p = ProjectionFamily.from_frame(AXES)
    with pytest.raises(ValueError):
        pr_witness_from_nonspanning(p, np.array([1.0, 1.0]))


def test_witness_from_nonspanning_zero_images():
    # single projector, point in its kernel: every image vanishes
    p = ProjectionFamily.from_projections([np.diag([1.0, 0.0, 0.0])])
    w = pr_witness_from_nonspanning(p, np.array([0.0, 1.0, 0.0]))
    assert verify_pr_witness(p, w.u, w.v).valid


# ---------------------------------------------------------------------------
# exact real decision

def test_decide_axes_fails_with_witness_and_partition():
    v = decide_real_rank1(AXES)
    assert v.status is Status.CERTIFIED_FAILS
    assert v.partition is not None and v.partition.side_I == (0,)
    assert v.witness is not None and v.witness.max_mismatch < 1e-12
    assert v.witness.phase_gap > 1e-6


def test_decide_mercedes_holds():
    v = decide_real_rank1(MERCEDES)
    assert v.status is Status.CERTIFIED_HOLDS
    assert v.method == "complement-property"
    assert v.witness is None and v.partition is None


def test_decide_rejects_complex():
    f = Frame(np.eye(2, dtype=complex), Field.COMPLEX)
    with pytest.raises(FieldError):
        decide_real_rank1(f)


def test_decide_capacity():
    cols = np.vstack([np.ones(30), np.arange(30)])
    with pytest.raises(pr.CapacityError):
        decide_real_rank1(Frame(cols, Field.REAL), cap=8)


def test_decide_loose_rank_tolerance_keeps_partition_without_witness():
    # at rank_rtol 1e-2 the first two vectors count as one line, so {1, 2} | {3}
    # fails; no direction is orthogonal to both within proj_tol, so no pair
    frame = Frame(np.array([[1.0, 1.0, 0.0], [0.0, 1e-5, 1.0]]), Field.REAL)
    v = decide_real_rank1(frame, Tolerances(rank_rtol=1e-2))
    assert v.status is Status.CERTIFIED_FAILS and v.method == "complement-property"
    assert v.partition is not None and v.partition.side_I == (0, 1)
    assert v.witness is None and v.point is None


# ---------------------------------------------------------------------------
# falsifiers

def test_spanning_falsifier_delegates_for_real_rank1():
    p = ProjectionFamily.from_frame(AXES)
    v = spanning_falsifier(p)
    assert v.status is Status.CERTIFIED_FAILS
    assert v.method == "complement-property"
    assert v.point is not None and spanning_at(p, v.point).spans is False


def test_spanning_falsifier_certifies_holds():
    p = ProjectionFamily.from_frame(MERCEDES)
    assert spanning_falsifier(p).status is Status.CERTIFIED_HOLDS


def test_spanning_falsifier_search_path():
    # two rank-1 projections in R^3 cannot span at any point
    rng = np.random.default_rng(0)
    stack = random_projection_stack(rng, 3, [1, 2], Field.COMPLEX)
    p = ProjectionFamily.from_projections(stack, Field.COMPLEX)
    v = spanning_falsifier(p, SearchConfig(restarts=16, seed=0))
    assert v.status is Status.FALSIFIED and v.method == "spanning-search"
    assert spanning_at(p, v.point).spans is False
    assert verify_pr_witness(p, v.witness.u, v.witness.v).valid


def _two_close_planes_and_one_more(seed: int, angle: float = 1e-3) -> np.ndarray:
    """Three rank-2 projections in R^3; the second is the first turned by angle."""
    rng = np.random.default_rng(seed)
    a = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    k = rng.standard_normal(3)
    k /= np.linalg.norm(k)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    rot = np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * cross @ cross
    c = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    return np.stack([q @ q.T for q in (a, rot @ a, c)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spanning_falsifier_loose_rank_tolerance_does_not_raise(seed):
    # the loose rule calls every point non-spanning long before a pair
    # verifies; such candidates are skipped, not turned into an error
    tol = Tolerances(rank_rtol=1e-2)
    p = ProjectionFamily.from_projections(_two_close_planes_and_one_more(seed), Field.REAL, tol)
    v = spanning_falsifier(p, SearchConfig(restarts=8, seed=seed, tol=tol))
    assert v.status in (Status.FALSIFIED, Status.NO_WITNESS_FOUND)
    if v.status is Status.FALSIFIED:
        assert verify_pr_witness(p, v.witness.u, v.witness.v, tol).valid
        assert spanning_at(p, v.point, tol).spans is False


class _CountingSigma:
    """Wraps the descent's objective and records the batch size of every call."""

    def __init__(self):
        self.batches = []

    def __call__(self, ops, X):
        self.batches.append(len(X))
        return self.inner(ops, X)


@pytest.fixture
def counting_sigma(monkeypatch):
    counter = _CountingSigma()
    counter.inner = certify._sigma_eval
    monkeypatch.setattr(certify, "_sigma_eval", counter)
    return counter


def test_descent_stops_once_best_point_fails_to_span(counting_sigma):
    # m = 4 < 2n - 1 real vectors: phase retrieval fails
    p = ProjectionFamily.from_frame(gen_random_frame(3, 4, Field.REAL, seed=1))
    cfg = SearchConfig(restarts=16, seed=0)
    v = pr_falsifier(p, cfg)
    assert v.status is Status.FALSIFIED
    assert verify_pr_witness(p, v.witness.u, v.witness.v).valid
    # one evaluation before the first iteration, one per iteration after it
    assert len(counting_sigma.batches) <= cfg.max_iters // 4


def test_descent_freezes_every_restart_when_pr_holds(counting_sigma):
    # m = 5 = 2n - 1 generic real vectors: phase retrieval holds
    p = ProjectionFamily.from_frame(gen_random_frame(3, 5, Field.REAL, seed=2))
    cfg = SearchConfig(restarts=16, seed=0)
    assert pr_falsifier(p, cfg).status is Status.NO_WITNESS_FOUND
    batches = counting_sigma.batches
    assert len(batches) <= cfg.max_iters // 4
    assert batches[0] == cfg.restarts
    # frozen restarts leave the batch and never come back
    assert all(b <= a for a, b in zip(batches, batches[1:]))
    assert batches[-1] < cfg.restarts


def test_pr_falsifier_real_cp_failure():
    p = ProjectionFamily.from_frame(AXES)
    v = pr_falsifier(p, SearchConfig(restarts=8, seed=0))
    assert v.status is Status.FALSIFIED
    assert v.method == "lifted-spanning"
    assert verify_pr_witness(p, v.witness.u, v.witness.v).valid


def test_pr_falsifier_inconclusive_when_pr_holds():
    p = ProjectionFamily.from_frame(MERCEDES)
    v = pr_falsifier(p, SearchConfig(restarts=8, seed=0))
    assert v.status is Status.NO_WITNESS_FOUND


def test_pr_falsifier_complex_rank1_uses_hermitian_stage():
    # the lifted search finds the rank-2 Hermitian nullspace element
    # uu* - vv* = 2(xw* + wx*) as the non-spanning pair (x, w)
    f = gen_random_frame(2, 3, Field.COMPLEX, seed=11)
    p = ProjectionFamily.from_frame(f)
    v = pr_falsifier(p, SearchConfig(restarts=8, seed=0))
    assert v.status is Status.FALSIFIED and v.method == "lifted-spanning"
    chk = verify_pr_witness(p, v.witness.u, v.witness.v)
    assert chk.valid and chk.max_mismatch < 1e-9


def test_pr_falsifier_complex_n4_m11_finds_verified_witness():
    f = gen_random_frame(4, 11, Field.COMPLEX, seed=0)
    p = ProjectionFamily.from_frame(f)
    v = pr_falsifier(p, SearchConfig(restarts=16, seed=0))
    assert v.status is Status.FALSIFIED and v.method == "lifted-spanning"
    assert verify_pr_witness(p, v.witness.u, v.witness.v).valid
    # the lifted point need not be a point where the complex images fail to span
    assert v.point is None


# ---------------------------------------------------------------------------
# Hermitian nullspace machinery

def test_hermitian_coords_roundtrip():
    q = np.array([[2.0, 1.0 - 3.0j], [1.0 + 3.0j, -1.0]])
    c = hermitian_coords(q)
    np.testing.assert_allclose(c, [2.0, -1.0, 1.0, -3.0])
    np.testing.assert_allclose(hermitian_from_coords(c, 2), q)


def test_trace_constraints_mercedes_hand_solution():
    f = Frame(MERCEDES.vectors.astype(complex), Field.COMPLEX)
    a = trace_constraint_matrix(f)
    assert a.shape == (3, 4)
    # the one-dimensional kernel is the skew direction [[0, i], [-i, 0]]
    q = np.array([[0.0, 1j], [-1j, 0.0]])
    np.testing.assert_allclose(a @ hermitian_coords(q), 0.0, atol=1e-12)
    assert np.linalg.matrix_rank(a) == 3


def test_hermitian_coords_layout_is_row_major():
    q = np.array([[7.0, 1 + 2j, 3 + 4j], [1 - 2j, 8.0, 5 + 6j], [3 - 4j, 5 - 6j, 9.0]])
    np.testing.assert_array_equal(hermitian_coords(q), [7, 8, 9, 1, 2, 3, 4, 5, 6])


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


@pytest.mark.parametrize("n", [2, 3, 5])
def test_trace_constraints_match_quadratic_forms(n):
    rng = np.random.default_rng(100 + n)
    cols = random_unit_columns(rng, n, 2 * n + 1, Field.COMPLEX)
    rows = trace_constraint_matrix(Frame(cols, Field.COMPLEX))
    for _ in range(3):
        q = _random_hermitian(rng, n)
        # tr(Q x x*) = x* Q x, column by column
        direct = np.array([np.vdot(x, q @ x).real for x in cols.T])
        np.testing.assert_allclose(rows @ hermitian_coords(q), direct, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hermitian_from_coords(hermitian_coords(q), n), q,
                                   rtol=0, atol=1e-15)


def test_hermitian_from_coords_batches_leading_axes():
    rng = np.random.default_rng(3)
    qs = [_random_hermitian(rng, 4) for _ in range(3)]
    coords = np.stack([hermitian_coords(q) for q in qs])
    np.testing.assert_array_equal(hermitian_from_coords(coords, 4), np.stack(qs))
    with pytest.raises(ValueError):
        hermitian_from_coords(coords, 3)


def test_nullspace_projection_matches_per_basis_sum():
    f = gen_random_frame(3, 5, Field.COMPLEX, seed=4)
    basis = _nullspace_matrices(f, pr.DEFAULT_TOL)
    assert basis.shape == (9 - 5, 3, 3)
    rng = np.random.default_rng(5)
    q = _random_hermitian(rng, 3)
    proj = _project_nullspace(q, basis)
    by_loop = sum(float(np.sum(b.conj() * q).real) * b for b in basis)
    np.testing.assert_allclose(proj, by_loop, rtol=0, atol=1e-13)
    np.testing.assert_allclose(_project_nullspace(proj, basis), proj, rtol=0, atol=1e-13)
    np.testing.assert_allclose(trace_constraint_matrix(f) @ hermitian_coords(proj), 0.0,
                               atol=1e-12)
    # the descent gradient is sign(lam) e* B e for the third-largest |eigenvalue|
    lam, vecs = np.linalg.eigh(proj)
    t = np.argsort(np.abs(lam))[::-1][2]
    e = vecs[:, t]
    by_loop = [np.sign(lam[t]) * (e.conj() @ b @ e).real for b in basis]
    np.testing.assert_allclose(_third_abs_eig_grad(proj, basis), by_loop, rtol=0, atol=1e-13)


def test_hermitian_witness_matches_hand_pair():
    f = Frame(MERCEDES.vectors.astype(complex), Field.COMPLEX)
    w = hermitian_nullspace_witness(f)
    assert w is not None and w.max_mismatch < 1e-12 and w.phase_gap > 0.9
    hand_u = np.array([1.0, -1j]) / np.sqrt(2)
    hand_v = np.array([1.0, 1j]) / np.sqrt(2)
    uu = w.u / np.linalg.norm(w.u)
    vv = w.v / np.linalg.norm(w.v)
    direct = min(1 - abs(np.vdot(uu, hand_u)), 1 - abs(np.vdot(vv, hand_v)))
    swapped = min(1 - abs(np.vdot(uu, hand_v)), 1 - abs(np.vdot(vv, hand_u)))
    assert min(direct, swapped) < 1e-8


def test_hermitian_witness_field_and_size_guards():
    with pytest.raises(FieldError):
        hermitian_nullspace_witness(MERCEDES)
    full = gen_random_frame(2, 4, Field.COMPLEX, seed=0)
    with pytest.raises(ValueError, match="n\\^2"):
        hermitian_nullspace_witness(full)


def test_hermitian_witness_nonspanning_frame_falls_back():
    cols = np.array([[1.0 + 0j, 1j], [0.0, 0.0], [0.0, 0.0]])
    f = Frame(cols, Field.COMPLEX)
    w = hermitian_nullspace_witness(f)
    p = ProjectionFamily.from_frame(f)
    assert verify_pr_witness(p, w.u, w.v).valid


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_hermitian_witness_random_three_vectors_c2(seed):
    rng = np.random.default_rng(seed)
    cols = random_unit_columns(rng, 2, 3, Field.COMPLEX)
    f = Frame(cols, Field.COMPLEX)
    w = hermitian_nullspace_witness(f, seed=seed)
    assert w is not None
    chk = verify_pr_witness(ProjectionFamily.from_frame(f), w.u, w.v)
    assert chk.valid and chk.max_mismatch < 1e-9


def test_hermitian_witness_n3():
    f = gen_random_frame(3, 5, Field.COMPLEX, seed=2)
    w = hermitian_nullspace_witness(f, seed=2)
    assert w is not None
    assert verify_pr_witness(ProjectionFamily.from_frame(f), w.u, w.v).valid


# ---------------------------------------------------------------------------
# generators

def test_gen_full_spark_real_nodes():
    f = gen_full_spark(3, 5, Field.REAL)
    np.testing.assert_allclose(f.vectors[0], 1.0)
    np.testing.assert_allclose(f.vectors[1], np.arange(5.0))
    assert full_spark(f) is None


def test_gen_full_spark_complex_roots():
    f = gen_full_spark(2, 4, Field.COMPLEX)
    np.testing.assert_allclose(f.vectors[1], np.exp(2j * np.pi * np.arange(4) / 4), atol=1e-12)
    assert full_spark(f) is None


def test_gen_full_spark_skips_verification_over_cap():
    # C(40, 8) ~ 7.6e7 subsets: construction still works, check is skipped
    f = gen_full_spark(8, 40, Field.COMPLEX)
    assert f.size == 40 and f.dim == 8


def test_gen_random_projections_seeded():
    a = gen_random_projections(3, [1, 2], Field.COMPLEX, seed=5)
    b = gen_random_projections(3, [1, 2], Field.COMPLEX, seed=5)
    c = gen_random_projections(3, [1, 2], Field.COMPLEX, seed=6)
    np.testing.assert_array_equal(a.projections, b.projections)
    assert not np.allclose(a.projections, c.projections)
    assert a.ranks == (1, 2)


def test_gen_random_projections_rank_bounds():
    full = gen_random_projections(2, [2], Field.REAL, seed=0)
    np.testing.assert_allclose(full.projections[0], np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        gen_random_projections(2, [3], Field.REAL)
    with pytest.raises(ValueError):
        gen_random_projections(2, [0], Field.REAL)


def test_gen_random_frame_seeded():
    a = gen_random_frame(3, 5, Field.REAL, seed=1)
    b = gen_random_frame(3, 5, Field.REAL, seed=1)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert a.field is Field.REAL and a.size == 5


# ---------------------------------------------------------------------------
# spanning-search objective

def fd_gradient(fn, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return g


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_sigma_gradient_on_both_stacks(field):
    rng = np.random.default_rng(42)
    cols = random_unit_columns(rng, 3, 4, field)
    p = ProjectionFamily.from_frame(Frame(cols, field))
    width = 2 * 3 if field is Field.REAL else 4 * 3
    for _ in range(5):
        theta = rng.standard_normal(width)
        # first half: a point for the projections, second half: for the lifted stack
        for ops, t in ((p.projections, theta[:width // 2]),
                       (_lifted_stack(p), theta[width // 2:])):
            val, grad = stack_sigma_and_grad(ops, t)
            num = fd_gradient(lambda s: stack_sigma_and_grad(ops, s)[0], t)
            assert val >= 0.0
            np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-7)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(step_init=-0.1)
    cfg = SearchConfig()
    assert cfg.restarts == 64 and cfg.max_iters == 500


# ---------------------------------------------------------------------------
# the packaged complex counterexample

def test_complex_counterexample_smoke():
    rep = complex_counterexample(2)
    assert rep.status is Status.FALSIFIED
    assert rep.frame.size == 3 and rep.frame.dim == 2
    assert rep.spanning_certified is True
    assert rep.min_active_inner >= 2
    p = rep.family
    chk = verify_pr_witness(p, rep.witness.u, rep.witness.v)
    assert chk.valid and chk.max_mismatch < 1e-9 and chk.phase_gap > 1e-3
