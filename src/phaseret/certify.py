"""Certifiers, falsifiers, and witness constructors for phase retrieval.

Three kinds of result are kept strictly apart: certified verdicts come
from exact finite procedures (complement property for real rank-1
families), falsified verdicts always carry a re-verified witness pair,
and failed searches are reported as inconclusive rather than as proof.

A witness pair (u, v) has equal measurements ||P_i u||^2 = ||P_i v||^2
for every i but is not a unimodular multiple pair, so it certifies that
the measurement map does not determine vectors up to phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CapacityError, FieldError
from .frames import (
    Frame,
    PartitionWitness,
    ProjectionFamily,
    Subspace,
    complement_property,
    full_spark,
    image_matrix,
    nonspanning_point_from_cp_failure,
    rank1_reduction,
)
from .linalg import (
    DEFAULT_TOL,
    Field,
    Tolerances,
    ensure_finite,
    gaussian_matrix,
    null_direction,
    orthonormalize,
    rank_cutoff,
)
from .seeding import spawn_rng

_STREAM_SUBSPACE = 3
_STREAM_SPAN_SEARCH = 4
_STREAM_FRAME = 9


class Status(enum.Enum):
    CERTIFIED_HOLDS = "certified-holds"
    CERTIFIED_FAILS = "certified-fails"
    FALSIFIED = "falsified"
    NO_WITNESS_FOUND = "no-witness-found"


@dataclass(frozen=True, eq=False)
class PrWitness:
    """Vector pair with equal measurements that is not phase-equivalent."""

    u: np.ndarray
    v: np.ndarray
    max_mismatch: float
    phase_gap: float


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    max_mismatch: float
    phase_gap: float


@dataclass(frozen=True)
class SearchConfig:
    """Budget, seed and tolerances of the multi-start spanning search.

    restarts is the number of seeded unit starts, all solved together;
    max_iters bounds the Gauss-Newton rounds, which usually end far
    sooner (see _gauss_newton).
    """

    restarts: int = 64
    max_iters: int = 500
    seed: int = 0
    tol: Tolerances = dc_field(default_factory=Tolerances)

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")


@dataclass(frozen=True, eq=False)
class Verdict:
    status: Status
    method: str
    witness: PrWitness | None = None
    partition: PartitionWitness | None = None
    point: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """Full-spark family where spanning holds but phase retrieval fails.

    spanning_certified: the exact full-spark walk ran and found no
    deficient n-subset (False past its enumeration cap).
    """

    frame: Frame
    family: ProjectionFamily
    spanning_certified: bool
    witness: PrWitness | None
    status: Status
    method: str


def measurements(p: ProjectionFamily, x) -> np.ndarray:
    """The vector (||P_1 x||^2, ..., ||P_m x||^2)."""
    a = image_matrix(p, x)
    return np.einsum("ij,ij->j", a.conj(), a).real


def joint_normalize(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale both vectors by the same factor so the larger norm is 1.

    Per-vector normalization would destroy measurement equality whenever
    ||u|| != ||v||, so witness pairs are always rescaled jointly.
    """
    scale = max(np.linalg.norm(u), np.linalg.norm(v))
    if scale == 0.0:
        raise ValueError("cannot normalize a pair of zero vectors")
    return u / scale, v / scale


def phase_gap(u, v) -> float:
    """1 - |<u, v>| / (||u|| ||v||): zero exactly on unimodular multiples."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("phase gap needs nonzero vectors")
    s = abs(np.vdot(u, v)) / (nu * nv)
    return float(max(0.0, 1.0 - min(s, 1.0)))


def verify_pr_witness(p: ProjectionFamily, u, v, tol: Tolerances = DEFAULT_TOL) -> WitnessCheck:
    """Recompute the witness conditions from scratch.

    valid means both: measurements agree within witness_tol, and the pair
    is not phase-equivalent (phase_gap above phase_tol).
    """
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    if np.linalg.norm(u) <= tol.proj_tol or np.linalg.norm(v) <= tol.proj_tol:
        raise ValueError("witness vectors must be nonzero")
    mm = float(np.max(np.abs(measurements(p, u) - measurements(p, v))))
    pg = phase_gap(u, v)
    return WitnessCheck(valid=mm < tol.witness_tol and pg > tol.phase_tol,
                        max_mismatch=mm, phase_gap=pg)


def _certified_pair(p: ProjectionFamily, u, v, tol: Tolerances) -> PrWitness | None:
    """Rescale (u, v) jointly and re-verify it; a PrWitness only if it holds up."""
    try:
        u, v = joint_normalize(u, v)
        check = verify_pr_witness(p, u, v, tol)
    except ValueError:
        return None
    if not check.valid:
        return None
    return PrWitness(u, v, check.max_mismatch, check.phase_gap)


def pr_witness_from_nonspanning(p: ProjectionFamily, x, tol: Tolerances = DEFAULT_TOL) -> PrWitness:
    """Witness pair (x+y, x-y) from a point whose images fail to span.

    y is a unit vector orthogonal to every P_i x (null_direction of the
    images); then <P_i y, P_i x> = <y, P_i x> = 0 kills the cross terms,
    so x+y and x-y have identical measurements in either field.  Such a
    pair is phase-equivalent only if y is a unimodular multiple of x,
    which forces ||P_i x||^2 = <x, P_i x> = 0 for every i, as with
    all-zero images at x = e_n.  Only when that first pair does not
    re-verify is y taken again, as the null direction of x alone: when
    every image vanishes, any unit y orthogonal to x gives a pair.  Over
    R the phase gap is exactly 1.  Raises ValueError for a zero or
    spanning x, and RuntimeError when neither pair re-verifies.
    """
    x = ensure_finite(np.asarray(x).reshape(-1), "point")
    nx = np.linalg.norm(x)
    if nx <= tol.proj_tol:
        raise ValueError("x must be nonzero")
    x = x / nx
    y = null_direction(image_matrix(p, x), tol)
    if y is None:
        raise ValueError("images of x span the space; no witness arises from x")
    witness = _certified_pair(p, x + y, x - y, tol)
    if witness is None and (y := null_direction(x[:, None], tol)) is not None:
        witness = _certified_pair(p, x + y, x - y, tol)
    if witness is None:
        raise RuntimeError("the pair built from x does not re-verify")
    return witness


def decide_real_rank1(f: Frame, tol: Tolerances = DEFAULT_TOL, cap: int = 24) -> Verdict:
    """Exact phase-retrieval decision for a real frame (rank-1 projections).

    The complement property is decidable by finite enumeration and, over
    the reals, equivalent to phase retrieval by the frame's rank-1
    projections.  A failing bipartition is converted into a verified
    witness pair: nonspanning_point_from_cp_failure takes x as the null
    direction of side I, so its images vanish on side I and lie in the
    span of side I^c, which does not span; pr_witness_from_nonspanning
    turns x into the pair.  The verdict's point is x, a function of the
    frame and tol alone.  Under a loose rank_rtol a side can count as
    rank-deficient while x is only nearly orthogonal to it, and the pair
    can fail to re-verify; the failure is still certified, and the
    verdict then carries its partition but no witness or point.  No
    complex analogue exists; complex input is rejected.

    complement_property certifies CP through full spark when m >= 2n-1,
    at any frame size within its subset budget; cap bounds only its
    bipartition walk, and past it a frame that is not certified that way
    raises CapacityError.
    """
    if f.field is not Field.REAL:
        raise FieldError("exact complement-property decision applies to real frames only")
    w = complement_property(f, tol, cap=cap)
    if w is None:
        return Verdict(Status.CERTIFIED_HOLDS, method="complement-property")
    p = ProjectionFamily.from_frame(f, tol)
    try:
        x = nonspanning_point_from_cp_failure(p, f, w, tol)
        witness = pr_witness_from_nonspanning(p, x, tol)
    except (ValueError, RuntimeError):
        return Verdict(Status.CERTIFIED_FAILS, method="complement-property", partition=w)
    return Verdict(Status.CERTIFIED_FAILS, method="complement-property",
                   witness=witness, partition=w, point=x)


# ---------------------------------------------------------------------------
# spanning search on an operator stack

def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    return a / np.where(norms > 0.0, norms, 1.0)


def _sigma_eval(ops, X, tol: Tolerances):
    """The value |w* A(x)|, the unit w attaining it, and whether the images
    fail to span, batched over the stacked images A(x) = [A_1 x ... A_k x].

    ops is a (k, d, d) operator stack and X holds one unit point per row.
    w is the last column of the full left singular basis of A(x), so the
    value is sigma_min when k >= d and 0 when k < d.  The flag is
    image_rank's rule on the same singular values: fewer than d of them
    above rank_cutoff(max(sigma_max, 1), max(d, k)), so a stack of k < d
    operators is short at every row.
    """
    a = np.einsum("kij,rj->rik", ops, X)
    d, k = a.shape[1:]
    # with k >= d the reduced left basis is already the full one
    u, s, _ = np.linalg.svd(a, full_matrices=k < d)
    cutoff = rank_cutoff(np.maximum(s[:, 0], 1.0), max(d, k), tol)
    short = np.count_nonzero(s > cutoff[:, None], axis=1) < d
    value = s[:, -1] if k >= d else np.zeros(len(X))
    return value, u[:, :, -1], short


def _tangent_jacobian(ops, X, W):
    """Residuals r_j = w* A_j x and their Jacobian in (dx, conj dw), batched.

    The system is complex-linear in (dx, conj dw), with row j
    [w* A_j, (A_j x)^T]; restricted to the tangent spaces of both unit
    spheres (dx orthogonal to x, dw to w) it becomes
    [w* A_j - r_j x*, (A_j x)^T - r_j w^T], which maps (x, 0) and
    (0, conj w) to zero.
    """
    ax = np.einsum("kij,rj->rki", ops, X)
    wa = np.einsum("ri,kij->rkj", W.conj(), ops)
    res = np.einsum("rki,ri->rk", ax, W.conj())
    jac = np.concatenate([wa - res[..., None] * X.conj()[:, None, :],
                          ax - res[..., None] * W[:, None, :]], axis=2)
    return res, jac


_HALVINGS = 10


def _gauss_newton(ops, X, cfg: SearchConfig):
    """Batched Gauss-Newton on w* A_j x = 0 (j = 1..k) for unit x and w.

    Every row of X starts with the w of _sigma_eval.  A round takes, for
    every live row, the minimum-norm step of the tangent system (see
    _tangent_jacobian) and keeps the longest of the step and its first
    _HALVINGS halvings whose residual is below 1 - t/2 times the row's
    value at step fraction t; x and w are renormalized, and one
    _sigma_eval reads the new value, w and flag.  A row with no
    qualifying fraction stops and leaves the batch; cfg.max_iters bounds
    the rounds.  Yields (rows, values, ws), and a row only while the rank
    rule flags it: the first round it is flagged, since it may already
    answer the search, again when it stops, and after the last round, if
    it is still flagged then.  Its w comes from the same SVD that flagged
    it, so it is orthogonal to every A_j x up to the rank cutoff.  Rows
    that stop unflagged are never offered.  A caller that takes its
    answer from an early offer never resumes the generator.
    """
    X = X.copy()
    d = X.shape[1]
    frac = 0.5 ** np.arange(_HALVINGS + 1)
    val, W, short = _sigma_eval(ops, X, cfg.tol)
    # row masks rather than index sets: np.union1d imports numpy.ma (~2 MB)
    flagged, offer = short.copy(), short.copy()
    live = np.arange(len(X))
    for _ in range(cfg.max_iters):
        if offer.any():
            yield X[offer], val[offer], W[offer]
        res, jac = _tangent_jacobian(ops, X[live], W[live])
        step = -np.einsum("rij,rj->ri", np.linalg.pinv(jac), res)
        # every step fraction at once, one candidate (x, w) per row and fraction
        xs = _unit_rows(X[live, None] + frac[:, None] * step[:, None, :d])
        ws = _unit_rows(W[live, None] + frac[:, None] * step[:, None, d:].conj())
        trial = np.linalg.norm(np.einsum("kij,rtj,rti->rtk", ops, xs, ws.conj()), axis=-1)
        ok = trial < (1.0 - frac / 2.0) * val[live, None]
        moved = ok.any(axis=1)
        offer = np.zeros_like(short)
        offer[live] = short[live] & ~moved
        X[live[moved]] = xs[moved, ok[moved].argmax(axis=1)]
        live = live[moved]
        if live.size == 0:
            break
        val[live], W[live], short[live] = _sigma_eval(ops, X[live], cfg.tol)
        offer |= short & ~flagged
        flagged |= short
    offer[live] = short[live]
    if offer.any():
        yield X[offer], val[offer], W[offer]


def _lifted_stack(p: ProjectionFamily) -> np.ndarray:
    """Operators whose non-spanning points are exactly the witness points.

    Over R^n that is the projections themselves.  Over C^n the stack acts
    on R^2n: each P = R + iS becomes [[R, -S], [S, R]] and multiplication
    by i, J = [[0, -I], [I, 0]], is appended.
    """
    if p.field is Field.REAL:
        return p.projections
    re, im = p.projections.real, p.projections.imag
    eye, zero = np.eye(p.dim), np.zeros((p.dim, p.dim))
    j = np.block([[zero, -eye], [eye, zero]])
    return np.concatenate([np.block([[re, -im], [im, re]]), j[None]])


def _search_verdict(p: ProjectionFamily, ops: np.ndarray, cfg: SearchConfig,
                    method: str) -> Verdict:
    """Search ops for a non-spanning point x and certify (x+w, x-w) on p.

    cfg.restarts seeded unit starts go through one batched Gauss-Newton
    solve of w* A_j x = 0 (see _gauss_newton), which offers a row only
    while the rank rule flags its images [A_1 x ... A_k x] as failing to
    span, with a unit w from the same SVD.  Each offer is walked smallest
    value first; the first pair that re-verifies gives FALSIFIED with
    point x, none gives NO_WITNESS_FOUND.  On ops over R^2n (the lifted
    stack of a complex family) x and w are complexified and the verdict
    carries no point: a lifted point need not be a complex non-spanning
    point.
    """
    n, r, d = p.dim, cfg.restarts, ops.shape[1]
    lifted = d != n
    rng = spawn_rng(cfg.seed, _STREAM_SPAN_SEARCH)
    starts = _unit_rows(gaussian_matrix(rng, r, d, Field.infer(ops)).reshape(r, d))
    for X, val, W in _gauss_newton(ops, starts, cfg):
        order = np.argsort(val, kind="stable")
        for x, w in zip(X[order], W[order]):
            if lifted:
                x, w = x[:n] + 1j * x[n:], w[:n] + 1j * w[n:]
            witness = _certified_pair(p, x + w, x - w, cfg.tol)
            if witness is not None:
                return Verdict(Status.FALSIFIED, method=method, witness=witness,
                               point=None if lifted else x)
    return Verdict(Status.NO_WITNESS_FOUND, method=method)


def spanning_falsifier(p: ProjectionFamily, cfg: SearchConfig | None = None) -> Verdict:
    """Hunt for a point where the images {P_i x} fail to span.

    Real rank-1 families get an exact verdict through the frame reduction
    and the complement property when the bipartition walk's cap admits
    them or the full-spark shortcut certifies them (see
    decide_real_rank1).  Everything else is search: each found point x
    comes with a unit w orthogonal to every P_i x, which makes
    (x+w, x-w) a witness pair (see pr_witness_from_nonspanning); the
    first pair that re-verifies is returned with its point.  Exhausting
    the candidates is reported as inconclusive, never as proof that
    spanning holds.
    """
    cfg = cfg or SearchConfig()
    if p.field is Field.REAL and all(r == 1 for r in p.ranks):
        try:
            return decide_real_rank1(rank1_reduction(p, cfg.tol), cfg.tol)
        except CapacityError:
            pass
    return _search_verdict(p, p.projections, cfg, "spanning-search")


def pr_falsifier(p: ProjectionFamily, cfg: SearchConfig | None = None) -> Verdict:
    """Search for a witness pair breaking phase retrieval; never certifies.

    A pair (u, v) has equal measurements exactly when x = (u+v)/2 and
    w = (u-v)/2 satisfy Re <P_i x, w> = 0 for every i.  Over R^n that says
    the images {P_i x} fail to span, so by the paper's theorem the
    spanning search is the whole search.  Over C^n it says the realified
    images fail to span R^2n; adding i x to them (Im <x, w> = 0) rules
    out the trivial solution w = i x and makes the criterion exact: phase
    retrieval fails iff some x makes [P_1 x ... P_m x, i x] real-rank
    deficient (Bandeira-Cahill-Mixon-Nelson 2014, extended to
    projections by Edidin 2017).  Each candidate (x, w) of the spanning
    search on that lifted stack becomes the pair (x+w, x-w), which is
    kept only if it re-verifies.  This deliberately does not consult the
    exact complement-property decision, so the two can be played against
    each other as independent procedures.
    """
    return _search_verdict(p, _lifted_stack(p), cfg or SearchConfig(), "lifted-spanning")


# ---------------------------------------------------------------------------
# Hermitian nullspace witness

def hermitian_nullspace_witness(f: Frame, tol: Tolerances = DEFAULT_TOL,
                                seed: int = 0) -> PrWitness | None:
    """Orthogonal witness pair from an indefinite Hermitian Q with tr(Q x_i x_i*) = 0.

    Any such Q of rank two factors as u u* - v v*, and the trace
    conditions say exactly that u and v have equal measurements against
    every frame vector.  The trace conditions are m real-linear equations
    on the n^2 real dimensions of Hermitian space, so m < n^2 guarantees
    a nonzero solution.  The pair comes from pr_falsifier's lifted
    spanning search; its Q = u u* - v v* is split into its extreme
    eigenpairs, which gives the orthogonal pair sqrt(lam+) e+,
    sqrt(-lam-) e- with the same Q.  Returns None when the search comes
    up empty.
    """
    if f.field is not Field.COMPLEX:
        raise FieldError("the Hermitian nullspace construction is a complex-field device")
    n, m = f.dim, f.size
    if m >= n * n:
        raise ValueError(f"need m < n^2 real constraints (m={m}, n^2={n * n}) "
                         "to guarantee a nonzero Hermitian solution")
    p = ProjectionFamily.from_frame(f, tol)
    verdict = pr_falsifier(p, SearchConfig(seed=seed, tol=tol))
    if verdict.witness is None:
        return None
    u, v = verdict.witness.u, verdict.witness.v
    # u and v are independent, so Q has one positive and one negative eigenvalue
    lam, vecs = np.linalg.eigh(np.outer(u, u.conj()) - np.outer(v, v.conj()))
    return _certified_pair(p, np.sqrt(lam[-1]) * vecs[:, -1], np.sqrt(-lam[0]) * vecs[:, 0], tol)


# ---------------------------------------------------------------------------
# generators

def _full_spark_frame(n: int, m: int, field: Field) -> Frame:
    """The fixed full-spark frame of gen_full_spark, before its check.

    Complex: Vandermonde columns (1, t_j, ..., t_j^(n-1)) at the m-th
    roots of unity t_j = exp(2 pi i j / m).  Real: the harmonic frame at
    theta_j = 2 pi j / m, with rows 1, cos(k theta), sin(k theta) for
    k = 1..(n-1)/2 when n is odd, and cos((k+1/2) theta),
    sin((k+1/2) theta) for k = 0..n/2-1 when n is even.
    """
    j = np.arange(m)
    if field is Field.COMPLEX:
        return Frame(np.vander(np.exp(2j * np.pi * j / m), N=n, increasing=True).T, field)
    theta = 2 * np.pi * j / m
    freqs = np.arange(1, (n + 1) // 2) if n % 2 else np.arange(n // 2) + 0.5
    phases = np.outer(freqs, theta)
    rows = np.stack([np.cos(phases), np.sin(phases)], axis=1).reshape(-1, m)
    if n % 2:
        rows = np.vstack([np.ones(m), rows])
    return Frame(rows, field)


def gen_full_spark(n: int, m: int, field: Field, tol: Tolerances = DEFAULT_TOL) -> Frame:
    """Fixed frame that is full spark by construction (see _full_spark_frame).

    Complex: every n-column minor is a Vandermonde determinant on
    distinct roots of unity, hence nonzero.  Real: a column set of rank
    below n would give a nonzero real trigonometric polynomial in the
    frame's frequencies vanishing at n distinct angles in [0, 2 pi), and
    such a polynomial has at most n-1 zeros there (for half-integer
    frequencies, at most n-1 in theta/2 over [0, pi), since it changes
    sign under theta -> theta + 2 pi).  Within the enumeration cap this
    is checked under the rank rule, and a subset the rule calls
    deficient raises ValueError.
    """
    if m < n:
        raise ValueError(f"full spark needs m >= n; got m={m}, n={n}")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    f = _full_spark_frame(n, m, field)
    try:
        bad = full_spark(f, tol)
    except CapacityError:
        bad = None
    if bad is not None:
        raise ValueError(f"frame lost full spark numerically at subset {[i + 1 for i in bad]}")
    return f


def gen_random_projections(n: int, ranks, field: Field, seed: int = 0,
                           tol: Tolerances = DEFAULT_TOL) -> ProjectionFamily:
    """Seeded family of projections onto random subspaces of given ranks."""
    ranks = [int(r) for r in ranks]
    if not ranks:
        raise ValueError("need at least one rank")
    bad = [r for r in ranks if not 1 <= r <= n]
    if bad:
        raise ValueError(f"rank {bad[0]} outside [1, {n}]")
    subs = []
    for i, r in enumerate(ranks):
        rng = spawn_rng(seed, _STREAM_SUBSPACE, i)
        g = gaussian_matrix(rng, n, r, field)
        subs.append(Subspace(orthonormalize(g, tol), field))
    return ProjectionFamily.from_subspaces(subs, tol)


def gen_random_frame(n: int, m: int, field: Field, seed: int = 0) -> Frame:
    """Seeded Gaussian frame: m columns in dimension n."""
    rng = spawn_rng(seed, _STREAM_FRAME)
    return Frame(gaussian_matrix(rng, n, m, field), field)


def complex_counterexample(n: int, cfg: SearchConfig | None = None) -> CounterexampleReport:
    """Full-spark complex family with 2n-1 members: spanning without PR.

    Full spark with m = 2n-1 forces, for every nonzero x, at least n of
    the inner products <x, x_i> to be nonzero (x can be orthogonal to at
    most n-1 of them), and those x_i span; so the spanning criterion
    holds at every point, certified by one exact full-spark walk on the
    complex Vandermonde frame of gen_full_spark (not past its cap).
    Phase retrieval still fails: 2n-1 < n^2 for n >= 2, so a rank-2
    indefinite Hermitian Q with tr(Q x_i x_i*) = 0 exists, and
    pr_falsifier's lifted spanning search, run once under cfg, finds the
    witness pair it factors into.  The report takes the search verdict's
    status, witness and method.
    """
    if n < 2:
        raise ValueError("counterexample needs dimension >= 2")
    cfg = cfg or SearchConfig()
    tol = cfg.tol
    f = _full_spark_frame(n, 2 * n - 1, Field.COMPLEX)
    try:
        spanning_certified = full_spark(f, tol) is None
    except CapacityError:
        spanning_certified = False
    p = ProjectionFamily.from_frame(f, tol)
    verdict = pr_falsifier(p, cfg)
    return CounterexampleReport(frame=f, family=p, spanning_certified=spanning_certified,
                                witness=verdict.witness, status=verdict.status,
                                method=verdict.method)
