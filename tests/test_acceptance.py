"""Desk-scale acceptance suite.

Each test prints a single ``ACCEPTANCE k: PASS/FAIL`` line (run pytest
with ``-s`` to see them) and enforces the stated tolerances exactly; no
criterion is weakened on failure.  Criteria 1-5 exercise the decision
procedures against each other and against constructed ground truth,
criterion 6 spot-checks the numerical kernels, criterion 7 pins budget
and reproducibility.
"""

import csv
import time

import numpy as np

import phaseret as pr
from conftest import tangent_jacobian_error
from phaseret import (
    Field,
    Frame,
    ProjectionFamily,
    SearchConfig,
    Status,
    complement_property,
    complex_counterexample,
    decide_real_rank1,
    full_spark,
    gen_random_frame,
    gen_random_projections,
    hermitian_nullspace_witness,
    nonspanning_point_from_cp_failure,
    numerical_rank,
    onb_union,
    orthonormalize,
    pr_falsifier,
    pr_witness_from_nonspanning,
    spanning_at,
    verify_pr_witness,
)
from phaseret.certify import _lifted_stack
from phaseret.cli import main as cli_main
from phaseret.serialize import frame_to_dict, save_json


def report(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {k} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. exact decision vs falsifier on random real frames

def test_acceptance_1_decision_vs_falsifier():
    start = time.perf_counter()
    combos = [(n, m) for n in (2, 3, 4) for m in range(n, 2 * n + 2)]
    cfg_restarts = 50
    disagreements = []
    bad_witnesses = []
    fails = holds = 0
    for k in range(200):
        n, m = combos[k % len(combos)]
        f = gen_random_frame(n, m, Field.REAL, seed=1000 + k)
        verdict = decide_real_rank1(f)
        p = ProjectionFamily.from_frame(f)
        search = pr_falsifier(p, SearchConfig(restarts=cfg_restarts, seed=k))
        if verdict.status is Status.CERTIFIED_FAILS:
            fails += 1
            w = verdict.witness
            if not (w.max_mismatch < 1e-9 and w.phase_gap > 1e-6):
                bad_witnesses.append((k, w.max_mismatch, w.phase_gap))
            if search.status is not Status.FALSIFIED:
                disagreements.append((k, n, m, verdict.status.value, search.status.value))
            else:
                sw = search.witness
                if not (sw.max_mismatch < 1e-9 and sw.phase_gap > 1e-6):
                    bad_witnesses.append((k, sw.max_mismatch, sw.phase_gap))
        else:
            holds += 1
            if search.status is not Status.NO_WITNESS_FOUND:
                disagreements.append((k, n, m, verdict.status.value, search.status.value))
    elapsed = time.perf_counter() - start
    ok = not disagreements and not bad_witnesses and elapsed < 120.0
    report(1, ok,
           f"200 real frames ({fails} certified-fails / {holds} certified-holds), "
           f"{len(disagreements)} disagreements, {len(bad_witnesses)} bad witnesses, "
           f"{elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 2. forward construction from non-spanning points, both fields

def _planted_nonspanning(field: Field, seed: int):
    """Family plus a point whose images provably fail to span."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    kind = seed % 3
    if kind == 0:
        # subspaces confined to a hyperplane; x has a component inside it
        g = rng.standard_normal((n, n))
        if field is Field.COMPLEX:
            g = g + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        w = q[:, : n - 1]
        mats = []
        for _ in range(int(rng.integers(2, 4))):
            k = int(rng.integers(1, n))
            inner = rng.standard_normal((n - 1, k))
            if field is Field.COMPLEX:
                inner = inner + 1j * rng.standard_normal((n - 1, k))
            b = w @ orthonormalize(inner)
            mats.append(b @ b.conj().T)
        p = ProjectionFamily.from_projections(mats, field)
        coeff = rng.standard_normal(n - 1)
        if field is Field.COMPLEX:
            coeff = coeff + 1j * rng.standard_normal(n - 1)
        x = q[:, n - 1] + 0.5 * (w @ coeff)
    elif kind == 1:
        # fewer lines than dimensions
        m = int(rng.integers(1, n))
        cols = rng.standard_normal((n, m))
        if field is Field.COMPLEX:
            cols = cols + 1j * rng.standard_normal((n, m))
        p = ProjectionFamily.from_frame(Frame(cols, field))
        x = rng.standard_normal(n)
        if field is Field.COMPLEX:
            x = x + 1j * rng.standard_normal(n)
    else:
        # every subspace orthogonal to x: all images vanish
        g = rng.standard_normal((n, n))
        if field is Field.COMPLEX:
            g = g + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        w = q[:, : n - 1]
        mats = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, n))
            inner = rng.standard_normal((n - 1, k))
            if field is Field.COMPLEX:
                inner = inner + 1j * rng.standard_normal((n - 1, k))
            b = w @ orthonormalize(inner)
            mats.append(b @ b.conj().T)
        p = ProjectionFamily.from_projections(mats, field)
        x = q[:, n - 1]
    return p, x


def test_acceptance_2_forward_construction():
    failures = []
    total = 0
    for field in (Field.REAL, Field.COMPLEX):
        for k in range(50):
            total += 1
            seed = 2000 + k
            p, x = _planted_nonspanning(field, seed)
            assert spanning_at(p, x).spans is False  # planted ground truth
            w = pr_witness_from_nonspanning(p, x)
            if not (w.max_mismatch < 1e-12):
                failures.append((field.value, k, w.max_mismatch))
    report(2, not failures and total == 100,
           f"{total} planted non-spanning points (50 real + 50 complex), "
           f"{len(failures)} above the 1e-12 mismatch bound")


# ---------------------------------------------------------------------------
# 3. CP failure of an ONB union -> non-spanning point -> verified witness

def test_acceptance_3_union_cp_machinery():
    exercised = 0
    exceptions = []
    for k in range(100):
        rng = np.random.default_rng(3000 + k)
        n = int(rng.integers(2, 5))
        m_proj = int(rng.integers(2, 4))
        ranks = [int(rng.integers(1, n)) for _ in range(m_proj)]
        p = gen_random_projections(n, ranks, Field.REAL, seed=3000 + k)
        blocks = np.split(onb_union(p).vectors, np.cumsum(p.ranks)[:-1], axis=1)
        for j in range(10):
            # each member's basis turned by its own rotation, the Q of a
            # seeded Gaussian: another ONB union of the same family
            turn = np.random.default_rng((3000 + k, j))
            f = Frame(np.hstack([b @ np.linalg.qr(turn.standard_normal((b.shape[1],) * 2))[0]
                                 for b in blocks]), Field.REAL)
            w = complement_property(f)
            if w is None:
                continue
            exercised += 1
            try:
                x = nonspanning_point_from_cp_failure(p, f, w)
                rep = spanning_at(p, x)
                if not (rep.spans is False and rep.rank < n):
                    exceptions.append((k, j, "point still spans"))
                    continue
                wit = pr_witness_from_nonspanning(p, x)
                chk = verify_pr_witness(p, wit.u, wit.v)
                if not chk.valid:
                    exceptions.append((k, j, "witness failed verification"))
            except Exception as exc:  # noqa: BLE001 - acceptance counts any blowup
                exceptions.append((k, j, repr(exc)))
    report(3, exercised > 0 and not exceptions,
           f"100 mixed-rank real families x 10 unions, {exercised} CP failures "
           f"exercised, {len(exceptions)} exceptions")


# ---------------------------------------------------------------------------
# 4. complex counterexamples at the critical size m = 2n-1

def test_acceptance_4_complex_counterexample():
    start = time.perf_counter()
    problems = []
    for n in (2, 3, 4):
        rep = complex_counterexample(n)
        if rep.status is not Status.FALSIFIED:
            problems.append((n, f"status {rep.status.value}"))
            continue
        if full_spark(rep.frame) is not None:
            problems.append((n, "frame is not full spark"))
        rng = np.random.default_rng(4000 + n)
        cols = rep.frame.vectors
        scale = np.linalg.norm(cols, axis=0)
        violations = 0
        for _ in range(1000):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            active = np.abs(cols.conj().T @ x) > 1e-8 * np.linalg.norm(x) * scale
            if int(active.sum()) < n:
                violations += 1
        if violations:
            problems.append((n, f"{violations} spot samples with < n active inner products"))
        w = rep.witness
        if not (w.max_mismatch < 1e-9 and w.phase_gap > 1e-3):
            problems.append((n, f"witness mm={w.max_mismatch:.2e} gap={w.phase_gap:.2e}"))
        if not verify_pr_witness(rep.family, w.u, w.v).valid:
            problems.append((n, "witness failed independent verification"))
    # hand-derived pair for {e1, e2, e1+e2} in C^2
    f = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex), Field.COMPLEX)
    w = hermitian_nullspace_witness(f)
    hand_u = np.array([1.0, -1j]) / np.sqrt(2)
    hand_v = np.array([1.0, 1j]) / np.sqrt(2)
    uu = w.u / np.linalg.norm(w.u)
    vv = w.v / np.linalg.norm(w.v)
    direct = max(1 - abs(np.vdot(uu, hand_u)), 1 - abs(np.vdot(vv, hand_v)))
    swapped = max(1 - abs(np.vdot(uu, hand_v)), 1 - abs(np.vdot(vv, hand_u)))
    if min(direct, swapped) > 1e-8:
        problems.append((2, "witness does not match the hand-derived pair"))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    report(4, ok,
           f"n in (2,3,4) falsified with full spark + 1000-sample activity check, "
           f"hand pair matched at n=2, {elapsed:.1f}s < 60s"
           + (f"; problems: {problems}" if problems else ""))


# ---------------------------------------------------------------------------
# 5. forward direction survives over C

def test_acceptance_5_complex_forward():
    failures = []
    for k in range(100):
        seed = 5000 + k
        p, x = _planted_nonspanning(Field.COMPLEX, seed)
        assert spanning_at(p, x).spans is False
        w = pr_witness_from_nonspanning(p, x)
        chk = verify_pr_witness(p, w.u, w.v)
        if not chk.valid:
            failures.append((k, chk.max_mismatch, chk.phase_gap))
    report(5, not failures,
           f"100 complex families with planted non-spanning points, "
           f"{len(failures)} constructed pairs failed verification")


# ---------------------------------------------------------------------------
# 6. numerical kernels

def test_acceptance_6_kernels():
    rng = np.random.default_rng(6000)
    rank_misses = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        r = int(rng.integers(0, min(n, m) + 1))
        cplx = bool(rng.integers(0, 2))
        if r == 0:
            mat = np.zeros((n, m), dtype=complex if cplx else float)
        else:
            a = rng.standard_normal((n, r))
            b = rng.standard_normal((r, m))
            if cplx:
                a = a + 1j * rng.standard_normal((n, r))
                b = b + 1j * rng.standard_normal((r, m))
            mat = a @ b
        if numerical_rank(mat) != r:
            rank_misses += 1

    worst_resid = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        cplx = bool(rng.integers(0, 2))
        g = rng.standard_normal((n, k))
        if cplx:
            g = g + 1j * rng.standard_normal((n, k))
        b = orthonormalize(g)
        p = b @ b.conj().T
        resid = max(
            np.max(np.abs(p @ p - p)),
            np.max(np.abs(p - p.conj().T)),
            np.max(np.abs(p @ b - b)),
            np.max(np.abs(b.conj().T @ b - np.eye(k))),
        )
        worst_resid = max(worst_resid, resid)

    jac_misses = 0
    worst_rel = worst_normal = 0.0
    for i in range(100):
        cplx = bool(i % 2)
        field = Field.COMPLEX if cplx else Field.REAL
        n = int(rng.integers(2, 5))
        ranks = [int(rng.integers(1, n + 1)) for _ in range(int(rng.integers(2, 5)))]
        p = gen_random_projections(n, ranks, field, seed=6500 + i)
        width = (4 if cplx else 2) * n
        theta = rng.standard_normal(width)
        # first half: a point for the projections, second half: for the lifted stack
        for ops, t in ((p.projections, theta[:width // 2]),
                       (_lifted_stack(p), theta[width // 2:])):
            rel, normal = tangent_jacobian_error(ops, t)
            worst_rel, worst_normal = max(worst_rel, rel), max(worst_normal, normal)
            if rel > 1e-5 or normal > 1e-12:
                jac_misses += 1

    ok = rank_misses == 0 and worst_resid < 1e-10 and jac_misses == 0
    report(6, ok,
           f"rank exact on 1000/1000 (misses={rank_misses}), projector residual "
           f"{worst_resid:.2e} < 1e-10, search's tangent Jacobian rel err {worst_rel:.2e} "
           f"<= 1e-5 against central differences at 100 points on both stacks, "
           f"normal directions mapped to {worst_normal:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 7. budget and reproducibility

def test_acceptance_7_budget_and_reproducibility(tmp_path):
    f = gen_random_frame(6, 20, Field.REAL, seed=7000)
    t0 = time.perf_counter()
    cp = complement_property(f)
    t_cp = time.perf_counter() - t0
    cp_ok = cp is None and t_cp < 30.0  # generic frame: all 2^19 splits checked

    g = gen_random_frame(4, 12, Field.REAL, seed=7001)
    t0 = time.perf_counter()
    spark = full_spark(g)
    t_spark = time.perf_counter() - t0
    spark_ok = spark is None and t_spark < 5.0

    # byte reproducibility across repeated CLI runs
    frame_path = str(tmp_path / "frame.json")
    save_json(frame_path, frame_to_dict(gen_random_frame(2, 3, Field.REAL, seed=7002)))
    def rerun_bytes(argv, out):
        """Run the exact same invocation twice, collecting the output bytes."""
        blobs = []
        for _ in range(2):
            cli_main(argv)
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        return blobs

    rep = str(tmp_path / "report.json")
    a, b = rerun_bytes(["falsify", frame_path, "--restarts", "8", "--seed", "7",
                        "--out", rep], rep)

    def squash_json(blob):
        import json
        obj = json.loads(blob)
        obj.pop("wall_time_s")
        return json.dumps(obj, sort_keys=True)

    json_ok = squash_json(a) == squash_json(b)

    sv = str(tmp_path / "survey.csv")
    a, b = rerun_bytes(["survey", "--n-range", "2", "--m-range", "2:3", "--field",
                        "real", "--trials", "4", "--seed", "3", "--out", sv], sv)

    def squash_csv(blob):
        rows = list(csv.DictReader(blob.decode().splitlines()))
        for r in rows:
            r.pop("mean_runtime")
        return rows

    csv_ok = squash_csv(a) == squash_csv(b)

    gen = str(tmp_path / "gen.json")
    a, b = rerun_bytes(["gen", "--kind", "random-proj", "--n", "3", "--ranks", "2,1",
                        "--field", "complex", "--seed", "11", "--out", gen], gen)
    gen_ok = a == b

    ok = cp_ok and spark_ok and json_ok and csv_ok and gen_ok
    report(7, ok,
           f"CP n=6 m=20 in {t_cp:.1f}s < 30s, full_spark C(12,4) in {t_spark:.2f}s "
           f"< 5s, reports byte-stable modulo wall time "
           f"(json={json_ok}, csv={csv_ok}, gen={gen_ok})")
