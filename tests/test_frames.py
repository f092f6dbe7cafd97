import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaseret import (
    CapacityError,
    Field,
    Frame,
    PartitionWitness,
    ProjectionFamily,
    SearchConfig,
    Tolerances,
    complement_property,
    full_spark,
    image_matrix,
    nonspanning_point_from_cp_failure,
    numerical_rank,
    onb_union,
    spanning_at,
    spanning_falsifier,
)
from phaseret import frames
from phaseret.certify import _sigma_eval
from phaseret.frames import _first_deficient_subset, _outer_table, _screen_spans

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
    # a tiny column is not zero: every frame decision is scale-invariant
    assert real_frame([[1.0, 1e-300], [0.0, 1e-300]]).size == 2


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


def _member_bases(stack):
    """Range ONB of every projection, from its own eigh."""
    out = []
    for p in stack:
        lam, vecs = np.linalg.eigh(p)
        out.append(vecs[:, lam > 0.5])
    return out


def _member_fault(stack, tol):
    """The error of a member-by-member validation: every check of the
    first member, then of the second, and so on."""
    for i, p in enumerate(stack):
        if np.max(np.abs(p - p.conj().T)) >= tol.proj_tol:
            return f"projection {i + 1} is not self-adjoint"
        if np.max(np.abs(p @ p - p)) >= tol.proj_tol:
            return f"projection {i + 1} is not idempotent"
        onb = _member_bases([p])[0]
        if onb.shape[1] == 0:
            return f"projection {i + 1} is zero"
        if np.max(np.abs(onb @ onb.conj().T - p)) >= tol.proj_tol:
            return f"projection {i + 1} does not match its range ONB"
    return None


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_family_from_frame_matches_its_members(field):
    rng = np.random.default_rng(8)
    cols = _gaussian(rng, (4, 9), field)
    p = ProjectionFamily.from_frame(Frame(cols, field))
    units = cols / np.linalg.norm(cols, axis=0)
    single = [b @ b.conj().T for b in (units[:, i:i + 1] for i in range(9))]
    np.testing.assert_array_equal(p.projections, np.stack(single))
    assert p.ranks == (1,) * 9
    for i, b in enumerate(p.bases):
        np.testing.assert_array_equal(b, units[:, i:i + 1])


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_family_from_projections_matches_its_members(field):
    rng = np.random.default_rng(9)
    ranks = [1, 3, 2, 4, 2, 1]
    stack = random_projection_stack(rng, 4, ranks, field)
    p = ProjectionFamily.from_projections(stack, field)
    np.testing.assert_array_equal(p.projections, stack)
    assert p.ranks == tuple(ranks)
    for b, ref in zip(p.bases, _member_bases(stack)):
        np.testing.assert_array_equal(b, ref)


def _faulty_stacks(field):
    """(stack, tol) pairs with members broken in every way the validation
    names, one or two at a time."""
    rng = np.random.default_rng(10)
    good = random_projection_stack(rng, 4, [1, 2, 1, 3, 2], field)
    skew = np.zeros((4, 4), dtype=good.dtype)
    skew[0, 1] = 1e-3
    tol = Tolerances()
    cases = []
    for i in range(5):
        for fault in ("scaled", "skew", "zero", "both"):
            s = good.copy()
            if fault == "scaled":
                s[i] *= 1.0 + 1e-3
            elif fault == "skew":
                s[i] += skew
            elif fault == "zero":
                s[i] = 0.0
            else:
                # not self-adjoint and not idempotent, then a zero member
                s[i] = 2.0 * s[i] + skew
                s[(i + 2) % 5] = 0.0
            cases.append((s, tol))
    # diag(1, 0.4, 0, 0) passes both first checks at proj_tol 0.3, but its
    # range ONB rebuilds diag(1, 0, 0, 0)
    s = good.copy()
    s[3] = np.diag([1.0, 0.4, 0.0, 0.0])
    cases.append((s, Tolerances(proj_tol=0.3)))
    return cases


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_family_from_projections_names_the_first_bad_member(field):
    for stack, tol in _faulty_stacks(field):
        expected = _member_fault(stack, tol)
        assert expected is not None
        with pytest.raises(ValueError, match=f"^{expected}[ ;]"):
            ProjectionFamily.from_projections(stack, field, tol)
    stack = _faulty_stacks(field)[0][0]
    stack[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match="projections contains NaN or Inf entries"):
        ProjectionFamily.from_projections(stack, field)


def test_family_from_frame_checks_units_at_the_callers_tolerance():
    # (1, 1, 1) / sqrt(3) has squared norm 1 + 2^-52 in floating point, so
    # it passes the default proj_tol and fails one below that rounding,
    # while e1 and (1, 2, 2) / 3 normalize exactly
    f = real_frame([[1.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, 2.0, 1.0]])
    assert ProjectionFamily.from_frame(f).ranks == (1, 1, 1)
    with pytest.raises(ValueError, match="^frame vector 3 does not normalize"):
        ProjectionFamily.from_frame(f, Tolerances(proj_tol=1e-17))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_onb_union_and_rank1_reduction_are_the_member_bases(field):
    # the family's bases are the member-by-member eigh bases to the bit, so
    # onb_union concatenates exactly those, and on a family of rank-1
    # projections (its rank-1 reduction) returns the normalized frame vectors
    rng = np.random.default_rng(12)
    stack = random_projection_stack(rng, 4, [2, 1, 3, 2], field)
    p = ProjectionFamily.from_projections(stack, field)
    np.testing.assert_array_equal(onb_union(p).vectors, np.concatenate(_member_bases(stack), axis=1))
    cols = _gaussian(rng, (3, 7), field)
    units = cols / np.linalg.norm(cols, axis=0)
    g = onb_union(ProjectionFamily.from_frame(Frame(cols, field)))
    np.testing.assert_array_equal(g.vectors, units)


# ---------------------------------------------------------------------------
# complement property

@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_cp_is_scale_invariant(field):
    # the walk's one cutoff is rank_rtol * ||V||_2 * n, so scaling the frame
    # moves no decision: each scaled frame fails first at the same
    # bipartition as the unscaled one, on planted failures (two hyperplanes)
    # and on generic frames of every size around 2n - 1
    rng = np.random.default_rng(23)
    compared = failures = 0
    for k in range(20):
        n = int(rng.integers(2, 5))
        cols = _gaussian(rng, (n, 2 * n + 1), field)
        if k % 2 == 0:
            cut = int(rng.integers(n, 2 * n))
            for side in (slice(None, cut), slice(cut, None)):
                h = _gaussian(rng, (n, 1), field)
                h /= np.linalg.norm(h)
                cols[:, side] -= h @ (h.conj().T @ cols[:, side])
        else:
            cols = cols[:, :int(rng.integers(n, 2 * n + 2))]
        ref = complement_property(Frame(cols, field))
        failures += ref is not None
        for scale in (1e-9, 1e-30, 1e-100, 1e-170, 1e100, 1e170):
            w = complement_property(Frame(scale * cols, field))
            assert (w is None) == (ref is None)
            if w is not None:
                assert (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic) == \
                    (ref.side_I, ref.side_Ic, ref.rank_I, ref.rank_Ic)
            compared += 1
    assert compared == 120 and 10 <= failures < 20


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


def _near_hyperplane_frame(rng, n, field=Field.REAL, m=None):
    # unit columns, a random subset of them pushed to within a random
    # distance of one hyperplane, so side ranks sit near every cutoff
    if m is None:
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
    # must span under the same-cutoff oracle: both walks screen every CP
    # side and n-subset at the floor (2 tau)^2 of their one cutoff
    # tau = rtol * sigma_max(frame) * n, so a certified row must have
    # sigma_n above tau
    certified = 0
    for n, seed, cols, _ in _near_hyperplane_frames(field):
        m = cols.shape[1]
        tau = rtol * np.linalg.norm(cols, 2) * n
        sides = [s for k in range(n, m + 1) for s in itertools.combinations(range(m), k)]
        sel = np.zeros((len(sides), m))
        for r, side in enumerate(sides):
            sel[r, list(side)] = 1.0
        spans = _screen_spans(_outer_table(cols), sel, (2.0 * tau) ** 2)
        for side in itertools.compress(sides, spans):
            assert _brute_rank(cols[:, side], tau) == n, (n, seed, side)
            assert np.linalg.svd(cols[:, side], compute_uv=False)[-1] > tau, (n, seed, side)
        certified += int(spans.sum())
    assert certified > 0


def _shortcut_frames(field):
    # m = 2n-1..2n+1, where full spark implies CP: near-hyperplane frames,
    # and every fourth frame with its last vector a multiple of its first,
    # which is never full spark
    for n in (2, 3, 4):
        for seed in range(24):
            rng = np.random.default_rng(5000 * n + seed)
            cols, _ = _near_hyperplane_frame(rng, n, field, m=2 * n - 1 + seed % 3)
            if seed % 4 == 3:
                cols[:, -1] = 1.5 * cols[:, 0]
            yield n, seed, cols


def _spark_above(cols: np.ndarray, tau: float) -> bool:
    """Every n-subset of columns has sigma_n > tau (numpy SVD, raw subsets)."""
    n, m = cols.shape
    return all(np.linalg.svd(cols[:, list(c)], compute_uv=False)[-1] > tau
               for c in itertools.combinations(range(m), n))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
@pytest.mark.parametrize("rtol", _RTOLS)
def test_cp_shortcut_matches_brute_oracle(rtol, field):
    # the bipartition walk gives the oracle's answer where full spark holds
    # and where it fails, and full spark at the frame's one cutoff must
    # imply CP under the oracle
    tol = Tolerances(rank_rtol=rtol)
    spark = walked = 0
    for n, seed, cols in _shortcut_frames(field):
        w = complement_property(Frame(cols, field), tol)
        got = None if w is None else (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic)
        expect = brute_first_cp_failure(cols, rtol)
        assert got == expect, (n, seed)
        if _spark_above(cols, rtol * np.linalg.norm(cols, 2) * n):
            assert expect is None, (n, seed)
            spark += 1
        else:
            walked += 1
    assert spark > 0 and walked > 0


def test_cp_shortcut_cutoff_is_the_largest_side_cutoff():
    # every pair spans at rtol * sigma_max(frame) * n, so the frame is full
    # spark; the whole frame (mask 0), which once failed at
    # rtol * sigma_max * m, spans at that same cutoff, so full spark, the
    # walk and the oracle agree that CP holds
    tol = Tolerances(rank_rtol=1e-2)
    c, s = 0.05 * np.cos(0.42), 0.05 * np.sin(0.42)
    cols = np.array([[1.0, c, c], [0.0, s, -s]])
    assert full_spark(real_frame(cols), tol) is None
    w = complement_property(real_frame(cols), tol)
    assert w is None
    assert brute_first_cp_failure(cols, 1e-2) is None


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def test_subset_walk_at_fixed_cutoff_matches_brute_oracle(field):
    # the first n-subset, in lexicographic order, whose sigma_n is at or
    # below tau, from the default cutoff rtol * sigma_max(frame) * n up
    for n, seed, cols in _shortcut_frames(field):
        m = cols.shape[1]
        smax = np.linalg.norm(cols, 2)
        for tau in (1e-10 * smax * n, 1e-3 * smax, 3e-2 * smax, 3e-1 * smax):
            expect = None
            for combo in itertools.combinations(range(m), n):
                s = np.linalg.svd(cols[:, combo], compute_uv=False)
                if s[-1] <= tau:
                    expect = combo
                    break
            assert _first_deficient_subset(cols, tau, smax) == expect, (n, seed, tau)


@pytest.mark.parametrize("chunks", [None, (4, 2)], ids=["default-blocks", "4-row-blocks"])
def test_subset_blocks_are_the_combinations_in_order(chunks, monkeypatch):
    # every n-subset of range(m), 1 <= n <= m <= 12, in lexicographic order,
    # in blocks of _FIRST_CHUNK rows doubling up to _CHUNK
    if chunks:
        monkeypatch.setattr(frames, "_CHUNK", chunks[0])
        monkeypatch.setattr(frames, "_FIRST_CHUNK", chunks[1])
    for m in range(1, 13):
        for n in range(1, m + 1):
            blocks = list(frames._subset_blocks(m, n))
            got = [tuple(row) for b in blocks for row in b.tolist()]
            assert got == list(itertools.combinations(range(m), n)), (m, n)
            rows = frames._FIRST_CHUNK
            for b in blocks[:-1]:
                assert b.shape[0] == rows, (m, n)
                rows = min(2 * rows, frames._CHUNK)
            assert 0 < blocks[-1].shape[0] <= rows, (m, n)


@pytest.mark.parametrize("n", [1, 2])
def test_subset_blocks_past_one_byte_of_indices(n):
    # m = 300 vectors: the index tables move past uint8, and every index
    # from 0 to 299 still comes out as itself
    assert frames._subsets_table(0, 300, 1).dtype == np.uint16
    assert frames._subsets_table(299, 300, 1).tolist() == [[299]]
    got = [tuple(row) for b in frames._subset_blocks(300, n) for row in b.tolist()]
    assert got == list(itertools.combinations(range(300), n))


def test_full_spark_past_one_byte_of_indices():
    # 300 distinct lines in R^2 are full spark; repeating line 5 as vector
    # 280 makes (5, 280) the first dependent pair, past index 255
    angles = np.linspace(0.0, np.pi, 300, endpoint=False)
    cols = np.vstack([np.cos(angles), np.sin(angles)])
    assert full_spark(real_frame(cols)) is None
    cols[:, 280] = 2.0 * cols[:, 5]
    assert full_spark(real_frame(cols)) == (5, 280)


def _bound_index_tables(monkeypatch):
    # fail before building any index table with more rows than the limit,
    # which a test sets to the number of subsets the table serves
    build, limit = frames._subsets_table, [0]

    def bounded(start, stop, t):
        assert math.comb(stop - start, t) <= limit[0], (start, stop, t)
        return build(start, stop, t)

    monkeypatch.setattr(frames, "_subsets_table", bounded)
    return limit


def _bound_minor_tables(monkeypatch):
    # fail before the minors that one walk's builder has made add up to
    # more entries than limit[0]; a test sets it to the C(m, n) subsets the
    # walk serves, and zeroes the count, limit[1], before each walk
    build, limit = frames._minor_table, [0, 0]

    def bounded(w, cols):
        limit[1] += cols.shape[0] * math.comb(w.shape[0], cols.shape[1])
        assert limit[1] <= limit[0], (w.shape, cols.shape, limit)
        return build(w, cols)

    monkeypatch.setattr(frames, "_minor_table", bounded)
    return limit


def _takes_laplace(n, m):
    # the rule of _first_deficient_subset: the two minor tables, C(n, h)
    # minors per head and per tail, hold no more than the C(m, n) subsets
    h = n // 2
    return math.comb(n, h) * (math.comb(m - n + h, h) + math.comb(m - h, n - h)) \
        <= math.comb(m, n)


@pytest.mark.parametrize("n, m", [(30, 30), (30, 31), (29, 31), (24, 24), (26, 26)])
def test_near_square_subset_walk_builds_small_tables(n, m, monkeypatch):
    # m close to n leaves few n-subsets, and the index tables stay as few;
    # the minor tables would hold C(n, n // 2) minors per head, C(30, 15)
    # = 155 M for the one subset of a 30 x 30 frame, so these frames take
    # the Cholesky screen and build none.  Summing columns 0 and 1 into
    # the last makes the first n - 1 columns and the last one the first
    # deficient subset
    _bound_index_tables(monkeypatch)[0] = math.comb(m, n)
    _bound_minor_tables(monkeypatch)[:] = [math.comb(m, n), 0]
    cols = np.random.default_rng((n, m)).standard_normal((n, m))
    assert full_spark(real_frame(cols)) is None
    cols[:, m - 1] = cols[:, 0] + cols[:, 1]
    assert full_spark(real_frame(cols)) == tuple(range(n - 1)) + (m - 1,)


def test_minor_tables_never_outgrow_the_subsets(monkeypatch):
    # a whole walk, which reads every row of both minor tables, over every
    # 2 <= n <= m <= 40 with C(m, n) <= 5000 and the near-square frames
    # past it: the Laplace screen runs only where its tables fit within
    # the subsets, and it runs on both real and complex frames
    limit = _bound_minor_tables(monkeypatch)
    shapes = [(n, m) for m in range(2, 41) for n in range(2, m + 1) if math.comb(m, n) <= 5000]
    shapes += [(24, 24), (26, 26), (28, 30), (29, 31), (30, 30), (30, 31)]
    laplace = 0
    for n, m in shapes:
        rng = np.random.default_rng((n, m))
        field = Field.COMPLEX if (n + m) % 2 else Field.REAL
        limit[:] = [math.comb(m, n), 0]
        full_spark(Frame(_gaussian(rng, (n, m), field), field))
        assert (limit[1] > 0) == _takes_laplace(n, m), (n, m)
        laplace += _takes_laplace(n, m)
    assert 50 < laplace < len(shapes) - 50


@pytest.mark.parametrize("n, m", [(2, 1500), (3, 300)])
def test_subset_walk_cost_does_not_grow_with_m(n, m, monkeypatch):
    # 1.1 M and 4.5 M subsets: one product of C(n, n // 2) terms each, not
    # an m-wide membership product; a column made a multiple of the first
    # makes the first n - 1 columns and that one the first deficient
    # subset, an early one, which builds the minors of few tails (the
    # whole 3 x 300 tables hold 134 k).  Lines at distinct angles keep
    # every pair of R^2 apart
    if n == 2:
        angles = np.linspace(0.0, np.pi, m, endpoint=False)
        cols = np.vstack([np.cos(angles), np.sin(angles)])
    else:
        cols = np.random.default_rng(m).standard_normal((n, m))
    assert _takes_laplace(n, m)
    limit = _bound_minor_tables(monkeypatch)
    limit[:] = [math.comb(m, n), 0]
    assert full_spark(real_frame(cols)) is None
    cols[:, m - 1] = -3.0 * cols[:, 0]
    limit[:] = [2 * frames._CHUNK * n, 0]
    assert full_spark(real_frame(cols)) == tuple(range(n - 1)) + (m - 1,)


def test_index_tables_never_outgrow_the_subsets(monkeypatch):
    limit = _bound_index_tables(monkeypatch)
    for m in range(1, 41):
        for n in range(1, m + 1):
            limit[0] = math.comb(m, n)
            if limit[0] <= 200_000:
                next(frames._subset_blocks(m, n))


def _lex_rank(subsets, m):
    # lexicographic position of each row of ascending indices among the
    # n-subsets of range(m): C(m, n) - 1 minus the count of those after it,
    # sum_i C(m - 1 - c_i, n - i) over 0-based i
    n = subsets.shape[1]
    # pascal[k, j] = C(k, j), each column the running sum of the one before
    pascal = np.zeros((m + 1, n + 1), dtype=np.int64)
    pascal[:, 0] = 1
    for j in range(1, n + 1):
        pascal[1:, j] = np.cumsum(pascal[:-1, j - 1])
    after = sum(pascal[m - 1 - subsets[:, i], n - i] for i in range(n))
    return math.comb(m, n) - 1 - after


def _plan_entries(m, n):
    # the entries all the Laplace plan's products multiply
    blocks = frames._laplace_plan(m, n, frames._FIRST_CHUNK, frames._CHUNK)[3]
    return sum((q - p) * (hi - lo) for _, _, groups in blocks for p, q, lo, hi in groups)


def _laplace_plan_coverage(m, n):
    # through the plan at the current block sizes, for every n-subset by
    # lexicographic position: how many of its own block's products multiply
    # it, and how many products of any block leave it unmasked
    heads, tails = frames._split_tables(m, n)
    rows, a, b, blocks = frames._laplace_plan(m, n, frames._FIRST_CHUNK, frames._CHUNK)
    total = math.comb(m, n)
    window, size = [0], frames._FIRST_CHUNK
    while window[-1] < total:
        window.append(min(window[-1] + size, total))
        size = min(2 * size, frames._CHUNK)
    assert len(blocks) == len(window) - 1
    count = np.array([block[1] for block in blocks])
    # one row per group: its entries, tail rows, first head, block window
    # and the end of its block's entries
    groups = np.array([(p, q, lo, hi, head0, w0, w1, end)
                       for (head0, _, gs), w0, w1, end
                       in zip(blocks, window, window[1:], np.cumsum(count))
                       for p, q, lo, hi in gs], dtype=np.intp)
    # the groups take the entries in turn, each block's heads once each
    assert (groups[1:, 0] == groups[:-1, 1]).all() and groups[0, 0] == 0
    assert groups[-1, 1] == rows.size
    # the greedy merge: a group of two or more heads multiplies at most
    # _MERGE_WASTE entries outside their ranges, and one that took the
    # next head of its block, in range order, too would multiply more
    size, taken = groups[:, 1] - groups[:, 0], np.add.reduceat(b - a, groups[:, 0])
    waste = size * (groups[:, 3] - groups[:, 2]) - taken
    assert (waste[size > 1] <= frames._MERGE_WASTE).all()
    grown, after = groups[:, 1] < groups[:, 7], np.minimum(groups[:, 1], rows.size - 1)
    wider = (size + 1) * (np.maximum(groups[:, 3], b[after]) - groups[:, 2]) \
        - taken - (b - a)[after]
    assert (wider[grown] > frames._MERGE_WASTE).all()
    block = np.repeat(np.arange(count.size), count)
    expect = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    assert (rows[np.lexsort((rows, block))] == expect).all()
    _, _, lo, hi, head0, w0, w1, _ = (np.repeat(column, size) for column in groups.T)
    head = head0 + rows
    # a head's subsets are those of the tail rows past its last element,
    # consecutive in lexicographic order from its first one
    first = np.searchsorted(tails[:, 0], heads[:, -1], side="right")[head]
    base = _lex_rank(np.concatenate([heads[head], tails[first]], axis=1).astype(np.intp), m) \
        - first
    assert (lo <= a).all() and (a < b).all() and (b <= hi).all()
    # only a head's own tails are unmasked
    assert (a >= first).all()
    start = np.maximum(lo, first)
    start, stop = np.clip(base + start, w0, w1), np.clip(base + np.maximum(hi, start), w0, w1)

    def spread(starts, stops):
        # how many of the ranges [starts[i], stops[i]) hold each position
        edges = np.bincount(starts, minlength=total + 1) - np.bincount(stops, minlength=total + 1)
        return np.cumsum(edges)[:-1]

    return spread(start, stop), spread(base + a, base + b)


def _laplace_shapes_up_to(limit):
    shapes = []
    for n in range(2, 30):
        m = n
        while math.comb(m, n) <= limit:
            shapes += [(n, m)] if _takes_laplace(n, m) else []
            m += 1
    return shapes


def test_laplace_plan_multiplies_every_subset_once():
    # every Laplace shape of up to 300 k subsets at the default block sizes:
    # each n-subset is multiplied once by its own block and left unmasked
    # once, and only a head's own tails are left unmasked
    shapes = _laplace_shapes_up_to(300_000)
    assert (5, 26) in shapes and (6, 20) in shapes and (3, 122) in shapes
    for n, m in shapes:
        multiplied, unmasked = _laplace_plan_coverage(m, n)
        assert (multiplied == 1).all() and (unmasked == 1).all(), (n, m)


def test_laplace_plan_in_small_blocks_multiplies_every_subset_once(monkeypatch):
    # 2-subset first blocks growing to 4, where many heads straddle blocks
    monkeypatch.setattr(frames, "_CHUNK", 4)
    monkeypatch.setattr(frames, "_FIRST_CHUNK", 2)
    for n, m in _laplace_shapes_up_to(5000):
        multiplied, unmasked = _laplace_plan_coverage(m, n)
        assert (multiplied == 1).all() and (unmasked == 1).all(), (n, m)


def test_laplace_plan_multiplies_few_entries_outside_the_subsets():
    # at the default block sizes, the products over every Laplace shape of
    # 10 k to 300 k subsets multiply at most 2.5 entries per subset; one
    # product per block over its heads' whole tail range took 5.78 at the
    # complex bench shape (6, 20) and 3.26 at the real one (5, 26)
    shapes = [(n, m) for n, m in _laplace_shapes_up_to(300_000) if math.comb(m, n) >= 10_000]
    assert (5, 26) in shapes and (6, 20) in shapes
    for n, m in shapes:
        assert _plan_entries(m, n) <= 2.5 * math.comb(m, n), (n, m)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def test_subset_walk_in_small_blocks_matches_brute_oracle(field, monkeypatch):
    # 2-row first blocks growing to 4 rows: the first deficient subset at
    # every cutoff comes out the same across many block boundaries.  The
    # Laplace plan cache is cleared so the walk runs on plans built at
    # these block sizes, whichever test ran first
    monkeypatch.setattr(frames, "_CHUNK", 4)
    monkeypatch.setattr(frames, "_FIRST_CHUNK", 2)
    frames._laplace_plan.cache_clear()
    frames_ = [(n, seed, cols) for n, seed, cols, _ in _near_hyperplane_frames(field)]
    frames_ += list(_shortcut_frames(field))
    for n, seed, cols in frames_:
        smax = np.linalg.norm(cols, 2)
        for rtol in _RTOLS:
            assert _first_deficient_subset(cols, rtol * smax * n, smax) == \
                brute_full_spark(cols, rtol), (n, seed, rtol)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def test_laplace_minors_and_signs_match_numpy_det(field):
    # every k x k minor of _minor_table, k = 1..n, over every k-row subset
    # in lexicographic order, and Laplace's expansion along the first h
    # columns for every split 1 <= h < n, against numpy's det, n = 1..8
    rng = np.random.default_rng(19)
    for n in range(1, 9):
        w = _gaussian(rng, (n, n + 3), field)
        for k in range(1, n + 1):
            cols = np.array(list(itertools.combinations(range(n + 3), k))[::7], dtype=np.uint8)
            minors = frames._minor_table(w, cols)
            assert minors.shape == (math.comb(n, k), cols.shape[0])
            for i, rows in enumerate(itertools.combinations(range(n), k)):
                expect = np.linalg.det(w[list(rows)][:, cols].transpose(1, 0, 2))
                np.testing.assert_allclose(minors[i], expect, rtol=1e-12, atol=1e-13)
        a = _gaussian(rng, (n, n), field)
        for h in range(1, n):
            order, sign = frames._laplace_pairing(n, h)
            head = frames._minor_table(a, np.arange(h)[None, :])[order, 0] * sign
            tail = frames._minor_table(a, np.arange(h, n)[None, :])[:, 0]
            np.testing.assert_allclose(head @ tail, np.linalg.det(a), rtol=1e-12)


def _laplace_shapes():
    # frames near a hyperplane on both sides of the Laplace rule
    for n, m in [(2, 6), (3, 8), (4, 9), (2, 9), (3, 11), (4, 13)]:
        for seed in range(4):
            yield n, m, seed


@pytest.mark.parametrize("rtol", _RTOLS)
def test_full_spark_matches_brute_oracle_on_both_sides_of_the_laplace_rule(rtol):
    tol = Tolerances(rank_rtol=rtol)
    sides = set()
    for field in (Field.REAL, Field.COMPLEX):
        for n, m, seed in _laplace_shapes():
            rng = np.random.default_rng((n, m, seed))
            cols, _ = _near_hyperplane_frame(rng, n, field, m=m)
            sides.add(_takes_laplace(n, m))
            for order in (np.arange(m), np.arange(m)[::-1], rng.permutation(m)):
                got = full_spark(Frame(cols[:, order], field), tol)
                assert got == brute_full_spark(cols[:, order], rtol), (n, m, seed, order)
    assert sides == {False, True}


def _planted_subset(rng, n, m, field, subset, ratio, rtol):
    # a generic frame whose columns in subset have sigma_n at ratio times
    # the frame's cutoff rtol * sigma_max * n (two rounds, as the cutoff
    # moves with sigma_max)
    cols = _gaussian(rng, (n, m), field)
    for _ in range(2):
        u, s, vh = np.linalg.svd(cols[:, subset])
        s[-1] = ratio * rtol * np.linalg.norm(cols, 2) * n
        cols[:, subset] = (u * s) @ vh
    return cols


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 3.2])
def test_full_spark_finds_subsets_planted_near_the_cutoff(ratio, field):
    # one n-subset at 0.5, 1, 2 and 3.2 times the cutoff (3.2 is the bench's
    # seed-5 spark-real case), on both sides of the Laplace rule, at the
    # default rank_rtol and a loose one, where other subsets of a generic
    # frame may fall below the cutoff too
    for rtol in (1e-10, 1e-3):
        for n, m in [(3, 8), (4, 9), (3, 12), (4, 14), (5, 16)]:
            rng = np.random.default_rng((n, m, int(10 * ratio)))
            subset = sorted(rng.choice(m, size=n, replace=False).tolist())
            cols = _planted_subset(rng, n, m, field, subset, ratio, rtol)
            got = full_spark(Frame(cols, field), Tolerances(rank_rtol=rtol))
            assert got == brute_full_spark(cols, rtol), (n, m, rtol)
            if rtol == 1e-10 and ratio != 1.0:
                assert got == (tuple(subset) if ratio < 1.0 else None), (n, m)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def test_subset_walk_at_extreme_column_scales(field):
    # frames scaled to 1e150 and 1e-150 with columns a thousandfold apart,
    # and columns spread from 1e-150 to 1e150: the Laplace screen works on
    # the frame scaled to unit norm, so nothing overflows (a warning fails
    # the test), and both screens give the oracle's answer
    rng = np.random.default_rng(150)
    for n, m in [(3, 8), (4, 9), (2, 9), (3, 11), (4, 13), (5, 16)]:
        for scale in (1e150, 1e-150, None):
            cols = _gaussian(rng, (n, m), field)
            cols *= 10.0 ** rng.uniform(-150, 150, m) if scale is None else \
                scale * 10.0 ** rng.uniform(-1.5, 1.5, m)
            if rng.integers(2):
                cols[:, -1] = 0.5 * cols[:, 0]
            smax = np.linalg.norm(cols, 2)
            for rtol in (1e-12, 1e-10, 1e-2):
                assert _first_deficient_subset(cols, rtol * smax * n, smax) == \
                    brute_full_spark(cols, rtol), (n, m, scale, rtol)


def test_no_screen_call_takes_more_than_one_chunk(monkeypatch):
    # both walks hand the screen at most _CHUNK rows per call: the subset
    # walk's blocks stop doubling there, and the bipartition walk splits
    # the two sides of a leaf block (up to 2 * _CHUNK rows) into chunks.
    # A Laplace block decides at most _CHUNK subsets too
    screened, spans = [], []
    subset_spans = frames._subset_spans

    def counting_screen(table, sel, floor):
        assert sel.shape[0] <= frames._CHUNK
        screened.append(sel.shape[0])
        return _screen_spans(table, sel, floor)

    def counting_spans(heads, tails):
        for first, a, b in subset_spans(heads, tails):
            assert (b - a).sum() <= frames._CHUNK
            spans.append(int((b - a).sum()))
            yield first, a, b

    monkeypatch.setattr(frames, "_screen_spans", counting_screen)
    monkeypatch.setattr(frames, "_subset_spans", counting_spans)
    rng = np.random.default_rng(16)
    # C(17, 8) = 24310 subsets on the Cholesky side of the rule
    assert not _takes_laplace(8, 17)
    assert full_spark(real_frame(rng.standard_normal((8, 17)))) is None
    assert max(screened) == frames._CHUNK and len(screened) > 7
    assert screened == spans
    screened.clear()
    spans.clear()
    # and C(18, 6) = 18564 on the Laplace side, whose plan reads the blocks
    # once per shape: cleared, so that it is built here through the wrapper
    # even when an earlier test cached it
    assert _takes_laplace(6, 18)
    frames._laplace_plan.cache_clear()
    assert full_spark(real_frame(rng.standard_normal((6, 18)))) is None
    assert not screened and max(spans) == frames._CHUNK and len(spans) > 7
    # the bipartition walk runs past one chunk to the failing bipartition
    w = complement_property(real_frame(np.repeat(np.eye(4), [6, 6, 6, 5], axis=1)))
    assert (w.side_Ic, w.rank_I, w.rank_Ic) == (tuple(range(6, 12)), 3, 1)
    assert screened.count(frames._CHUNK) >= 2
    monkeypatch.setattr(frames, "_CHUNK", 4)
    monkeypatch.setattr(frames, "_FIRST_CHUNK", 2)
    screened.clear()
    for _, _, cols in _pruned_walk_frames(Field.REAL):
        complement_property(real_frame(cols))
    assert max(screened) == 4


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


def test_cp_capacity(monkeypatch):
    # 2^3 masks in one flat step screen 16 rows, past a budget of 3
    cols = np.hstack([np.eye(3), np.ones((3, 1))])
    monkeypatch.setattr(frames, "_WALK_BUDGET", 3)
    with pytest.raises(CapacityError):
        complement_property(real_frame(cols))


@pytest.mark.parametrize("n, m", [(8, 32), (2, 200), (3, 100)])
def test_cp_holds_on_generic_frames_past_the_old_cap(n, m):
    # generic frames with m >= 2n-1 do phase retrieval; the walk certifies
    # them by pruning at m past 24 vectors, and past the 64 bits of a mask
    rng = np.random.default_rng((n, m))
    assert complement_property(real_frame(rng.standard_normal((n, m)))) is None


def test_cp_finds_the_planted_hyperplane_past_64_vectors():
    # 78 vectors in one plane of R^3, then 2 generic ones: the only failing
    # bipartition is the plane against the rest
    n, m, k = 3, 80, 2
    rng = np.random.default_rng((n, m))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    inside = q[:, :n - 1] @ rng.standard_normal((n - 1, m - k))
    cols = np.concatenate([inside, rng.standard_normal((n, k))], axis=1)
    w = complement_property(real_frame(cols))
    assert w == PartitionWitness(tuple(range(m - k)), tuple(range(m - k, m)), n - 1, n - 1)


def test_walk_screens_at_most_two_rows_per_node(monkeypatch):
    # with a screen that certifies nothing the walk prunes nothing: it
    # visits at most 2^d nodes at depth d <= m-1, two rows each, so it
    # screens fewer than 2^(m+1) rows, the bound _WALK_BUDGET rests on,
    # and every leaf's exact recheck still gives the oracle's answer
    screened = []

    def certify_nothing(table, sel, floor):
        screened.append(sel.shape[0])
        return np.zeros(sel.shape[0], dtype=bool)

    monkeypatch.setattr(frames, "_screen_spans", certify_nothing)
    m = 12
    monkeypatch.setattr(frames, "_WALK_BUDGET", 2 ** (m + 1))
    cols = np.random.default_rng(12).standard_normal((3, m))
    w = complement_property(real_frame(cols))
    assert w is None and brute_first_cp_failure(cols) is None
    assert 2 ** (m - 1) <= sum(screened) <= 2 ** (m + 1)


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


def _pruned_walk_frames(field):
    # the near-hyperplane sets, every fifth frame with its last vector a
    # multiple of its first
    for i, (n, seed, cols, _) in enumerate(_near_hyperplane_frames(field)):
        if i % 5 == 4:
            cols[:, -1] = 1.5 * cols[:, 0]
        yield n, seed, cols


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
@pytest.mark.parametrize("rtol", _RTOLS)
def test_pruned_walk_matches_brute_oracle_at_every_rank_tolerance(rtol, field, monkeypatch):
    # with 4-row chunks and 2-prefix blocks every walk of 8 or more
    # bipartitions goes down the prefix levels, so on these small frames
    # subtrees are pruned, and blocks split and must come back in mask order
    monkeypatch.setattr(frames, "_CHUNK", 4)
    monkeypatch.setattr(frames, "_FIRST_CHUNK", 2)
    tol = Tolerances(rank_rtol=rtol)
    for n, seed, cols in _pruned_walk_frames(field):
        w = complement_property(Frame(cols, field), tol)
        got = None if w is None else (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic)
        assert got == brute_first_cp_failure(cols, rtol), (n, seed)


@pytest.mark.parametrize("n, m", [(4, 16), (4, 18), (6, 18)])
def test_pruned_walk_skips_the_spanning_subtrees_of_a_late_failure(n, m, monkeypatch):
    # m - k vectors in one hyperplane, then k = n - 1 generic ones: the only
    # failing bipartition is the hyperplane against the rest, at mask
    # 2^(m-1) - 2^(m-1-k), and every node that puts a generic vector and
    # n - 1 hyperplane vectors on one side is certified and dropped
    rng = np.random.default_rng((n, m))
    k = n - 1
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    inside = q[:, :n - 1] @ rng.standard_normal((n - 1, m - k))
    cols = np.concatenate([inside, rng.standard_normal((n, k))], axis=1)
    screened = []

    def counting_screen(table, sel, floor):
        screened.append(sel.shape[0])
        return _screen_spans(table, sel, floor)

    monkeypatch.setattr(frames, "_screen_spans", counting_screen)
    w = complement_property(real_frame(cols))
    assert w == PartitionWitness(tuple(range(m - k)), tuple(range(m - k, m)), n - 1, n - 1)
    assert sum(screened) < 2 ** (m - 1) / 10


@pytest.mark.parametrize("cols, expect", [
    (np.array([[2.0]]), None),
    (np.array([[1.0, -2.0, 3.0]]), None),
    (np.array([[1.0], [0.0]]), ((0,), (), 1, 0)),
    (np.eye(3), ((0, 2), (1,), 2, 1)),
    (np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]]),
     ((0, 1, 2, 3), (), 2, 0)),
    (np.repeat(np.eye(3), [5, 5, 4], axis=1),
     ((0, 1, 2, 3, 4, 10, 11, 12, 13), (5, 6, 7, 8, 9), 2, 1)),
    (np.repeat(np.eye(2), [8, 7], axis=1), ((0, 1, 2, 3, 4, 5, 6, 7), tuple(range(8, 15)), 1, 1)),
], ids=["n1-m1", "n1-m3", "n2-m1", "eye3", "not-spanning", "eye3-repeated", "eye2-repeated"])
def test_cp_edge_cases(cols, expect):
    # the repeated bases walk 2^13 and 2^14 bipartitions, past one chunk.
    # In the last, side I holds e1 and spans unless it has no copy of e2,
    # and then I^c spans unless it is exactly the copies of e2: the only
    # failure.  The oracle takes a second there, so it checks the others.
    w = complement_property(real_frame(cols))
    got = None if w is None else (w.side_I, w.side_Ic, w.rank_I, w.rank_Ic)
    assert got == expect
    if cols.shape[1] < 15:
        assert brute_first_cp_failure(cols) == expect


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


def test_full_spark_judges_subsets_at_size_n():
    # a generic frame whose smallest subset sigma_5 sits 3.2 times above
    # rtol * sigma_max(frame) * n: a cutoff with size factor m = 26 would
    # report a deficient subset
    cols = np.random.default_rng((5, 2, 33)).standard_normal((5, 26))
    assert full_spark(real_frame(cols)) is None


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
    # only an exactly zero point: the question is scale-invariant, so a
    # point of any nonzero norm is answered as its unit vector is
    p = ProjectionFamily.from_frame(real_frame(np.eye(2)))
    with pytest.raises(ValueError):
        spanning_at(p, np.zeros(2))
    for x in ([1.0, 0.0], [1.0, 1.0]):
        for s in (1e-9, 1e-170, 5e-324, 1e170):
            assert spanning_at(p, s * np.array(x)) == spanning_at(p, np.array(x)), (x, s)


# ---------------------------------------------------------------------------
# ONB unions

@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_onb_union_columns_span_their_subspace(field, rng):
    stack = random_projection_stack(rng, 4, [2, 1, 3], field)
    p = ProjectionFamily.from_projections(stack, field)
    u = onb_union(p)
    owner = tuple(np.repeat(np.arange(p.size), p.ranks))
    assert u.size == 6 and owner == (0, 0, 1, 2, 2, 2)
    for i, proj in enumerate(stack):
        cols = u.vectors[:, [j for j, o in enumerate(owner) if o == i]]
        # owned columns form an ONB of the i-th range
        np.testing.assert_allclose(cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-10)
        np.testing.assert_allclose(proj @ cols, cols, atol=1e-10)


def test_onb_union_deterministic():
    # no seed: two families built from the same matrices give the same union
    rng = np.random.default_rng(4)
    stack = random_projection_stack(rng, 3, [1, 2], Field.COMPLEX)
    p, q = (ProjectionFamily.from_projections(stack, Field.COMPLEX) for _ in range(2))
    np.testing.assert_array_equal(onb_union(p).vectors, onb_union(q).vectors)


# ---------------------------------------------------------------------------
# rank-1 reduction: the ONB union of a family of rank-1 projections

def test_rank1_reduction_recovers_lines():
    f = real_frame([[1.0, 3.0], [0.0, 4.0]])
    g = onb_union(ProjectionFamily.from_frame(f))
    for j in range(2):
        a = f.column(j) / np.linalg.norm(f.column(j))
        b = g.column(j)
        assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12


def test_rank1_reduction_rejects_higher_rank():
    # a real family with one rank-2 member is not reduced to a frame for the
    # exact decision: the spanning search answers instead
    p = ProjectionFamily.from_projections([np.eye(2), np.diag([1.0, 0.0])])
    assert spanning_falsifier(p, SearchConfig(restarts=4)).method == "spanning-search"


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.booleans(), st.integers(0, 10 ** 6))
def test_rank1_reduction_preserves_measurements(n, m, cplx, seed):
    rng = np.random.default_rng(seed)
    field = Field.COMPLEX if cplx else Field.REAL
    cols = random_unit_columns(rng, n, m, field)
    p = ProjectionFamily.from_frame(Frame(cols, field))
    g = onb_union(p)
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
