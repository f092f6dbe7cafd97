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
from phaseret.certify import _lifted_stack
from phaseret.linalg import rank_cutoff

from conftest import (
    brute_full_spark,
    random_projection_stack,
    random_unit_columns,
    tangent_jacobian_error,
)

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


def test_witness_from_nonspanning_zero_images_complex():
    # complex rank-0 branch: y is taken orthogonal to x, never a phase of it
    p = ProjectionFamily.from_projections([np.diag([1.0, 0.0, 0.0]).astype(complex)])
    assert p.field is Field.COMPLEX
    w = pr_witness_from_nonspanning(p, np.array([0.0, 1.0, 0.0], dtype=complex))
    chk = verify_pr_witness(p, w.u, w.v)
    assert chk.valid and chk.phase_gap > 0.5


def test_witness_from_nonspanning_is_deterministic():
    # y is the null direction of the images: no draw, so two calls agree
    p = ProjectionFamily.from_projections([np.diag([1.0, 0.0, 0.0])])
    x = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    w0 = pr_witness_from_nonspanning(p, x)
    w1 = pr_witness_from_nonspanning(p, x)
    np.testing.assert_array_equal(w0.u, w1.u)
    np.testing.assert_array_equal(w0.v, w1.v)
    assert verify_pr_witness(p, w0.u, w0.v).valid


def test_witness_from_nonspanning_loose_rank_tolerance_uses_null_direction():
    # at rank_rtol 1e-2 the image (1e-3, 0, 0) counts as rank 0; a y drawn
    # orthogonal to x alone would miss it, the null direction does not
    tol = Tolerances(rank_rtol=1e-2)
    p = ProjectionFamily.from_projections([np.diag([1.0, 0.0, 0.0])], tol=tol)
    w = pr_witness_from_nonspanning(p, np.array([1e-3, 1.0, 0.0]), tol)
    assert verify_pr_witness(p, w.u, w.v, tol).valid


def test_witness_from_nonspanning_dimension_one_has_no_second_direction():
    # 100 copies of P = [1] count as rank 0 at rank_rtol 1e-2, but R^1 has
    # no direction orthogonal to x, so no pair exists
    tol = Tolerances(rank_rtol=1e-2)
    p = ProjectionFamily.from_projections([np.eye(1)] * 100, tol=tol)
    with pytest.raises(RuntimeError):
        pr_witness_from_nonspanning(p, np.array([1.0]), tol)


@pytest.mark.parametrize("dtype", [float, complex])
def test_witness_from_nonspanning_zero_images_at_the_null_direction(dtype):
    # all images vanish at x = e3, whose null direction is x itself: the
    # first pair is phase-equivalent, so y is taken orthogonal to x
    p = ProjectionFamily.from_projections([np.diag([1.0, 0.0, 0.0]).astype(dtype)])
    w = pr_witness_from_nonspanning(p, np.array([0.0, 0.0, 1.0], dtype=dtype))
    chk = verify_pr_witness(p, w.u, w.v)
    assert chk.valid and chk.phase_gap > 0.5


# ---------------------------------------------------------------------------
# exact real decision

def test_decide_axes_fails_with_witness_and_partition():
    v = decide_real_rank1(AXES)
    assert v.status is Status.CERTIFIED_FAILS
    assert v.partition is not None and v.partition.side_I == (0,)
    assert v.witness is not None and v.witness.max_mismatch < 1e-12
    assert v.witness.phase_gap > 1e-6


def test_decide_witness_is_the_witness_of_its_point():
    # e1, e2, e1, e3 in R^3: the first failure is {1, 3, 4} | {2}, and the
    # decision turns its point into a pair exactly as the public helper does
    f = Frame(np.eye(3)[:, [0, 1, 0, 2]], Field.REAL)
    v = decide_real_rank1(f)
    assert v.status is Status.CERTIFIED_FAILS
    assert v.partition.side_I == (0, 2, 3) and v.partition.side_Ic == (1,)
    p = ProjectionFamily.from_frame(f)
    assert spanning_at(p, v.point).spans is False
    w = pr_witness_from_nonspanning(p, v.point)
    np.testing.assert_array_equal(v.witness.u, w.u)
    np.testing.assert_array_equal(v.witness.v, w.v)
    assert verify_pr_witness(p, v.witness.u, v.witness.v).valid


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
    # a repeated vector is never full spark, so past the cap the shortcut
    # cannot certify and the capped bipartition walk is all that is left
    cols = np.vstack([np.ones(30), np.arange(30)])
    cols[:, -1] = cols[:, 0]
    with pytest.raises(pr.CapacityError, match="not certified through full spark"):
        decide_real_rank1(Frame(cols, Field.REAL), cap=8)


def test_decide_past_cap_certifies_full_spark_frame():
    # m = 30 > 24 and m >= 2n-1: every 3-subset spans, so CP holds exactly
    v = decide_real_rank1(gen_random_frame(3, 30, Field.REAL, seed=0))
    assert v.status is Status.CERTIFIED_HOLDS and v.method == "complement-property"


def test_decide_past_cap_over_subset_budget_raises():
    # C(32, 8) = 10518300 n-subsets exceed the budget, so no shortcut runs
    with pytest.raises(pr.CapacityError, match="capped at 24"):
        decide_real_rank1(gen_random_frame(8, 32, Field.REAL, seed=0))


def test_decide_loose_rank_tolerance_keeps_partition_without_witness():
    # at rank_rtol 1e-2 the first two vectors count as one line, so {1, 2} | {3}
    # fails; the null direction of {1, 2} is only nearly orthogonal to the
    # second vector, so the pair built from it fails re-verification
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


def test_spanning_falsifier_certified_evidence_does_not_depend_on_seed():
    # m = 4 < 2n - 1: CP fails, and the exact decision draws nothing
    p = ProjectionFamily.from_frame(gen_random_frame(3, 4, Field.REAL, seed=0))
    a = spanning_falsifier(p, SearchConfig(seed=0))
    b = spanning_falsifier(p, SearchConfig(seed=1))
    assert a.status is b.status is Status.CERTIFIED_FAILS
    np.testing.assert_array_equal(a.point, b.point)
    np.testing.assert_array_equal(a.witness.u, b.witness.u)
    np.testing.assert_array_equal(a.witness.v, b.witness.v)
    assert verify_pr_witness(p, a.witness.u, a.witness.v).valid


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


def test_spanning_falsifier_past_cap_searches_generic_frame():
    # m = 30 > 24 with a repeated vector, so not full spark: no exact CP
    # verdict, the search runs instead and finds nothing (CP holds)
    cols = gen_random_frame(3, 30, Field.REAL, seed=0).vectors.copy()
    cols[:, -1] = cols[:, 0]
    p = ProjectionFamily.from_frame(Frame(cols, Field.REAL))
    v = spanning_falsifier(p, SearchConfig(restarts=16, seed=0))
    assert v.status is Status.NO_WITNESS_FOUND and v.method == "spanning-search"


def test_spanning_falsifier_past_cap_certifies_full_spark_frame():
    p = ProjectionFamily.from_frame(gen_random_frame(3, 30, Field.REAL, seed=0))
    v = spanning_falsifier(p, SearchConfig(restarts=16, seed=0))
    assert v.status is Status.CERTIFIED_HOLDS and v.method == "complement-property"


def test_spanning_falsifier_past_cap_finds_planted_point():
    # 29 vectors in the plane x3 = 0 plus one generic vector: every point
    # orthogonal to the last vector has its images in that plane
    rng = np.random.default_rng(0)
    cols = np.hstack([np.vstack([rng.standard_normal((2, 29)), np.zeros((1, 29))]),
                      rng.standard_normal((3, 1))])
    p = ProjectionFamily.from_frame(Frame(cols, Field.REAL))
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


def test_polish_halves_an_overshooting_gauss_newton_step():
    # two of the three planes are 1e-3 apart, so the Gauss-Newton system is
    # ill-conditioned and a full step from a random start overshoots; a
    # solver that stops at the first such step returns its start.  The loose
    # rule calls every start non-spanning, so the search offers every start.
    tol = Tolerances(rank_rtol=1e-2)
    ops = _two_close_planes_and_one_more(4)
    p = ProjectionFamily.from_projections(ops, Field.REAL, tol)
    starts = np.random.default_rng(4).standard_normal((40, 3))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    cfg = SearchConfig(tol=tol)

    def sigma_min(x):
        return np.linalg.svd((ops @ x).T, compute_uv=False)[-1]

    def solve(x0):
        *_, (rows, _, _) = certify._gauss_newton(ops, x0[None, :], cfg)
        return rows[0]

    reached = 0
    for x0 in starts:
        assert spanning_at(p, x0, tol).spans is False
        x = solve(x0)
        assert sigma_min(x) <= sigma_min(x0) * (1.0 + 1e-9)  # never above its start
        reached += sigma_min(x) < 1e-12
    # the full step from start 14 takes the residual up, so without the
    # halvings the solver would leave it at sigma_min 1.4e-4; without them
    # none of the 40 starts reaches the zero set
    assert sigma_min(starts[14]) > 1e-4
    assert sigma_min(solve(starts[14])) < 1e-12
    assert reached >= 5


class _CountingSigma:
    """Wraps the solver's evaluation and records the batch size of every call."""

    def __init__(self):
        self.batches = []

    def __call__(self, ops, X, tol):
        self.batches.append(len(X))
        return self.inner(ops, X, tol)


@pytest.fixture
def counting_sigma(monkeypatch):
    counter = _CountingSigma()
    counter.inner = certify._sigma_eval
    monkeypatch.setattr(certify, "_sigma_eval", counter)
    return counter


@pytest.fixture
def offers(monkeypatch):
    """Records every (ops, rows, ws) the solver offers the search."""
    seen = []
    solve = certify._gauss_newton

    def recording(ops, X, cfg):
        for rows, val, ws in solve(ops, X, cfg):
            seen.append((ops, rows, ws))
            yield rows, val, ws

    monkeypatch.setattr(certify, "_gauss_newton", recording)
    return seen


def _assert_offers_fail_to_span(offers):
    # each offered w is a unit vector with every |w* A_j x| within the
    # rank cutoff of the row's images, so the row fails to span
    assert offers
    for ops, rows, ws in offers:
        for x, w in zip(rows, ws):
            a = (ops @ x).T
            sigma_max = np.linalg.svd(a, compute_uv=False)[0]
            cutoff = rank_cutoff(max(sigma_max, 1.0), max(a.shape), Tolerances())
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12
            assert np.all(np.abs(w.conj() @ a) <= cutoff)


def test_descent_stops_once_best_point_fails_to_span(counting_sigma, offers):
    # m = 4 < 2n - 1 real vectors, and complex frames with m < 4n - 4 whose
    # lifted search once spent its whole budget: phase retrieval fails
    cases = [(gen_random_frame(3, 4, Field.REAL, seed=1), 0),
             (gen_random_frame(3, 7, Field.COMPLEX, seed=1), 1),
             (gen_random_frame(4, 11, Field.COMPLEX, seed=2), 2)]
    for frame, seed in cases:
        counting_sigma.batches.clear()
        offers.clear()
        p = ProjectionFamily.from_frame(frame)
        cfg = SearchConfig(restarts=16, seed=seed)
        v = pr_falsifier(p, cfg)
        assert v.status is Status.FALSIFIED
        assert verify_pr_witness(p, v.witness.u, v.witness.v).valid
        # one evaluation before the first round, one per round after it
        assert len(counting_sigma.batches) <= cfg.max_iters // 4, (frame.dim, frame.size)
        _assert_offers_fail_to_span(offers)


@pytest.mark.parametrize("n, m, field", [(4, 3, Field.REAL), (3, 4, Field.COMPLEX)])
def test_short_stack_is_falsified_after_one_sigma_batch(counting_sigma, offers, n, m, field):
    # m < n real vectors, or m + 1 < 2n lifted complex operators: the
    # stack is short at every point, so the solver's first evaluation
    # already flags every row and the search never takes a step
    p = ProjectionFamily.from_frame(gen_random_frame(n, m, field, seed=3))
    v = pr_falsifier(p, SearchConfig(restarts=16, seed=0))
    assert v.status is Status.FALSIFIED
    assert verify_pr_witness(p, v.witness.u, v.witness.v).valid
    assert counting_sigma.batches == [16]
    _assert_offers_fail_to_span(offers)


def test_descent_freezes_every_restart_when_pr_holds(counting_sigma, offers):
    # m = 5 = 2n - 1 generic real vectors: phase retrieval holds
    p = ProjectionFamily.from_frame(gen_random_frame(3, 5, Field.REAL, seed=2))
    cfg = SearchConfig(restarts=16, seed=0)
    assert pr_falsifier(p, cfg).status is Status.NO_WITNESS_FOUND
    batches = counting_sigma.batches
    assert len(batches) <= cfg.max_iters // 4
    assert batches[0] == cfg.restarts
    # stopped restarts leave the batch and never come back
    assert all(b <= a for a, b in zip(batches, batches[1:]))
    assert batches[-1] < cfg.restarts
    # no row is ever flagged, so the solver offers none
    assert offers == []


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
# Hermitian nullspace witness

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


@pytest.mark.parametrize("seed", [7, 11])
def test_hermitian_witness_full_spark_n6_returns_orthogonal_pair(seed):
    # the 2n-1 full-spark frame in C^6
    f = gen_full_spark(6, 11, Field.COMPLEX)
    w = hermitian_nullspace_witness(f, seed=seed)
    assert w is not None
    assert verify_pr_witness(ProjectionFamily.from_frame(f), w.u, w.v).valid
    assert abs(np.vdot(w.u, w.v)) < 1e-12


# ---------------------------------------------------------------------------
# generators

def test_gen_full_spark_real_nodes():
    # harmonic frame at theta_j = 2 pi j / m: odd n gets 1, cos k theta, sin k theta
    theta = 2 * np.pi * np.arange(5) / 5
    f = gen_full_spark(3, 5, Field.REAL)
    np.testing.assert_allclose(f.vectors, [np.ones(5), np.cos(theta), np.sin(theta)], atol=1e-15)
    assert full_spark(f) is None
    # even n gets half-integer frequencies
    theta = 2 * np.pi * np.arange(6) / 6
    f = gen_full_spark(4, 6, Field.REAL)
    np.testing.assert_allclose(f.vectors, [np.cos(theta / 2), np.sin(theta / 2),
                                           np.cos(1.5 * theta), np.sin(1.5 * theta)], atol=1e-15)
    assert full_spark(f) is None


def test_gen_full_spark_real_n10_m22_first_subset_has_full_rank():
    # the subset the Chebyshev-node Vandermonde frame lost under the rank
    # rule; the whole walk at this size takes seconds, this one minor does not
    f = certify._full_spark_frame(10, 22, Field.REAL)
    assert brute_full_spark(f.vectors[:, :10], rtol=Tolerances().rank_rtol) is None


def test_gen_full_spark_real_keeps_full_spark_at_larger_n():
    # sizes where equispaced nodes put minors under the rank rule
    for n, m in ((7, 13), (8, 10), (9, 17)):
        assert full_spark(gen_full_spark(n, m, Field.REAL)) is None


def test_gen_full_spark_names_the_subset_the_rank_rule_rejects():
    with pytest.raises(ValueError, match=r"subset \[1, 2, 3\]"):
        gen_full_spark(3, 5, Field.REAL, Tolerances(rank_rtol=0.5))


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
# spanning-search Jacobian

@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_sigma_gradient_on_both_stacks(field):
    # checks the solver's tangent Jacobian; the name predates it
    rng = np.random.default_rng(42)
    cols = random_unit_columns(rng, 3, 4, field)
    p = ProjectionFamily.from_frame(Frame(cols, field))
    width = 2 * 3 if field is Field.REAL else 4 * 3
    for _ in range(5):
        theta = rng.standard_normal(width)
        # first half: a point for the projections, second half: for the lifted stack
        for ops, t in ((p.projections, theta[:width // 2]),
                       (_lifted_stack(p), theta[width // 2:])):
            rel, normal = tangent_jacobian_error(ops, t)
            assert rel <= 1e-5
            assert normal <= 1e-12


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    cfg = SearchConfig()
    assert cfg.restarts == 64 and cfg.max_iters == 500


# ---------------------------------------------------------------------------
# the packaged complex counterexample

def test_complex_counterexample_smoke():
    rep = complex_counterexample(2)
    assert rep.status is Status.FALSIFIED
    assert rep.frame.size == 3 and rep.frame.dim == 2
    assert rep.spanning_certified is True
    p = rep.family
    chk = verify_pr_witness(p, rep.witness.u, rep.witness.v)
    assert chk.valid and chk.max_mismatch < 1e-9 and chk.phase_gap > 1e-3


def test_complex_counterexample_walks_the_subsets_once(monkeypatch):
    calls = []

    def counting_full_spark(f, tol):
        calls.append(f.size)
        return full_spark(f, tol)

    monkeypatch.setattr(certify, "full_spark", counting_full_spark)
    rep = complex_counterexample(3, SearchConfig(restarts=16))
    assert rep.spanning_certified is True and calls == [5]


def test_complex_counterexample_past_cap_is_not_certified():
    # C(25, 13) = 5200300 subsets exceed the full-spark cap: no certificate
    rep = complex_counterexample(13, SearchConfig(restarts=1, max_iters=1))
    assert rep.spanning_certified is False and rep.frame.size == 25


@pytest.mark.parametrize("seed", [0, 7])
def test_complex_counterexample_uses_lifted_search(seed):
    rep = complex_counterexample(6, SearchConfig(restarts=16, seed=seed))
    assert rep.status is Status.FALSIFIED and rep.method == "lifted-spanning"
    assert verify_pr_witness(rep.family, rep.witness.u, rep.witness.v).valid
