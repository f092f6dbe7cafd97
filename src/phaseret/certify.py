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

import collections
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
    """Budget, seed and tolerances of the multi-start spanning search."""

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
    witness pair: x is the null direction of side I, so its images vanish
    on side I and lie in the span of side I^c, which does not span;
    pr_witness_from_nonspanning turns x into the pair.  The verdict's
    point is x, a function of the frame and tol alone.  Under a loose
    rank_rtol a side can count as rank-deficient while x is only nearly
    orthogonal to it, and the pair can fail to re-verify; the failure is
    still certified, and the verdict then carries its partition but no
    witness or point.  No complex analogue exists; complex input is
    rejected.
    """
    if f.field is not Field.REAL:
        raise FieldError("exact complement-property decision applies to real frames only")
    w = complement_property(f, tol, cap=cap)
    if w is None:
        return Verdict(Status.CERTIFIED_HOLDS, method="complement-property")
    p = ProjectionFamily.from_frame(f, tol)
    # never None: image_rank's cutoff is at least numerical_rank's on the
    # same columns, and CP found rank_I < n
    x = null_direction(f.vectors[:, list(w.side_I)], tol)
    try:
        witness = pr_witness_from_nonspanning(p, x, tol)
    except (ValueError, RuntimeError):
        return Verdict(Status.CERTIFIED_FAILS, method="complement-property", partition=w)
    return Verdict(Status.CERTIFIED_FAILS, method="complement-property",
                   witness=witness, partition=w, point=x)


# ---------------------------------------------------------------------------
# spanning search on an operator stack

def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    return a / np.where(norms > 0.0, norms, 1.0)


def _sigma_eval(ops, X):
    """sigma_min of the stacked images A(x) = [A_1 x ... A_k x] and its gradient, batched.

    ops is a (k, d, d) operator stack and X holds one point per row.
    With (w, z) the singular pair of sigma_min, the gradient in x is
    sum_j conj(z_j) A_j* w; for complex data it realifies as (Re, Im).
    """
    a = np.einsum("kij,rj->rik", ops, X)
    uu, s, vh = np.linalg.svd(a, full_matrices=False)
    w = uu[:, :, -1]
    zbar = vh[:, -1, :]
    adj_w = np.einsum("kij,rj->rki", np.conj(np.swapaxes(ops, 1, 2)), w)
    g = np.einsum("rk,rki->ri", zbar, adj_w)
    return s[:, -1], g


_STEP_INIT = 0.1
_STEP_GROW = 1.25
_STEP_SHRINK = 0.5
_FREEZE_WINDOW = 25
_FREEZE_RTOL = 1e-3
_POLISH_HALVINGS = 10


def _descent(value_grad, X, cfg: SearchConfig, solved):
    """Multi-start projected descent with per-restart step control.

    Each row of X is renormalized to the unit sphere after every accepted
    step; a rejected candidate leaves its row and gradient as they were,
    so one evaluation per iteration serves both.  Yields (rows, values):
    first as soon as solved(x) holds for the best row, since that row may
    already answer the search, and again when the descent ends.  A caller
    that takes its answer from the first yield never resumes the descent;
    one that does not (a loose rank rule can call a point solved long
    before a witness is near) gets the rest of the budget.  cfg.max_iters
    bounds the iterations.  A restart freezes once its value fell by less
    than a relative _FREEZE_RTOL over the last _FREEZE_WINDOW iterations,
    or once its step underflowed; frozen rows leave the batch, and the
    descent ends when none is live.
    """
    X = X.copy()
    val, grad = value_grad(X)
    step = np.full(val.shape, _STEP_INIT)
    live = np.arange(val.size)
    history = collections.deque([val.copy()], maxlen=_FREEZE_WINDOW + 1)
    best, offered = np.inf, False
    for _ in range(cfg.max_iters):
        if not offered and val.min() < best:
            best = val.min()
            if solved(X[np.argmin(val)]):
                offered = True
                yield X.copy(), val.copy()
        cand = _unit_rows(X[live] - step[live, None] * grad[live])
        cval, cgrad = value_grad(cand)
        better = cval < val[live]
        moved = live[better]
        X[moved] = cand[better]
        grad[moved] = cgrad[better]
        val[moved] = cval[better]
        step[live] = np.minimum(np.where(better, step[live] * _STEP_GROW,
                                         step[live] * _STEP_SHRINK), 1e3)
        history.append(val.copy())
        frozen = step[live] < 1e-14
        if len(history) > _FREEZE_WINDOW:
            frozen |= val[live] >= (1.0 - _FREEZE_RTOL) * history[0][live]
        live = live[~frozen]
        if live.size == 0:
            break
    yield X, val


def _polish_point(ops: np.ndarray, x: np.ndarray, rounds: int = 60) -> np.ndarray:
    """Drive a near-non-spanning point onto the zero set by Gauss-Newton.

    Solves the bilinear system w* A_j x = 0 (j = 1..k) for unit x and w,
    starting from the left singular vector w of A(x) for sigma_min.  The
    system is complex-linear in (dx, conj(dw)), so each step is one small
    least-squares solve, and the minimum-norm step converges
    quadratically onto a nearby solution; exact alternating minimization
    only crawls along curved zero sets such as the lifted complex ones.
    On ill-conditioned stacks a full step can overshoot from a start that
    is not yet close, so each round takes the longest of the step and its
    first _POLISH_HALVINGS halvings that shrinks the residual by a factor
    1 - t/2 at step fraction t (a sufficient decrease: slow creeping
    near a residual floor ends the polish instead of spending its
    rounds).  The polish stops when no fraction qualifies and returns the
    best point seen.
    """
    d = ops.shape[1]
    x = x / np.linalg.norm(x)
    w = np.linalg.svd((ops @ x).T)[0][:, -1]
    a = ops @ x  # row j is A_j x
    best = float(np.linalg.norm(a @ w.conj()))
    frac = 0.5 ** np.arange(_POLISH_HALVINGS + 1)
    for _ in range(rounds):
        jac = np.concatenate([w.conj() @ ops, a], axis=1)
        step = np.linalg.lstsq(jac, -(a @ w.conj()), rcond=None)[0]
        # every step fraction at once, one candidate (x, w) per row
        xs = _unit_rows(x + frac[:, None] * step[:d])
        ws = _unit_rows(w + frac[:, None] * step[d:].conj())
        a_t = np.einsum("kij,tj->tki", ops, xs)
        res = np.linalg.norm(np.einsum("tki,ti->tk", a_t, ws.conj()), axis=1)
        better = np.flatnonzero(res < (1.0 - frac / 2.0) * best)
        if not better.size:
            break
        t = better[0]
        x, w, a, best = xs[t], ws[t], a_t[t], res[t]
    return x


def _spanning_search(ops: np.ndarray, cfg: SearchConfig):
    """Yield (x, w): unit points whose images [A_1 x ... A_k x] fail to span.

    w is a unit vector orthogonal to every A_j x.  Candidates come from
    four generic spot checks, then from a multi-start descent on
    sigma_min whose best endpoints are polished by Gauss-Newton.  The
    descent runs at most cfg.max_iters iterations: it stops once its best
    point fails to span by the rank rule of null_direction, and
    restarts that stop improving freeze on their own (see _descent).
    With fewer operators than dimensions no point spans, so the spot
    checks are all there is.  Callers take the first candidate they
    accept.
    """
    rng = spawn_rng(cfg.seed, _STREAM_SPAN_SEARCH)
    field = Field.infer(ops)
    k, d = ops.shape[0], ops.shape[1]
    for _ in range(4):
        x = gaussian_matrix(rng, d, 1, field)[:, 0]
        x /= np.linalg.norm(x)
        w = null_direction((ops @ x).T, cfg.tol)
        if w is not None:
            yield x, w
    if k < d:
        return
    r = cfg.restarts
    X = _unit_rows(gaussian_matrix(rng, r, d, field).reshape(r, d))
    for X, val in _descent(lambda X_: _sigma_eval(ops, X_), X, cfg,
                           lambda x: null_direction((ops @ x).T, cfg.tol) is not None):
        for idx in np.argsort(val, kind="stable")[:8]:
            x = _polish_point(ops, X[idx])
            w = null_direction((ops @ x).T, cfg.tol)
            if w is not None:
                yield x, w


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
    """Certify the spanning search's candidates on p: (x, w) -> (x+w, x-w).

    The first pair that re-verifies gives FALSIFIED with point x, none
    gives NO_WITNESS_FOUND.  On ops over R^2n (the lifted stack of a
    complex family) x and w are complexified and the verdict carries no
    point: a lifted point need not be a complex non-spanning point.
    """
    n = p.dim
    lifted = ops.shape[1] != n
    for x, w in _spanning_search(ops, cfg):
        if lifted:
            x, w = x[:n] + 1j * x[n:], w[:n] + 1j * w[n:]
        witness = _certified_pair(p, x + w, x - w, cfg.tol)
        if witness is not None:
            return Verdict(Status.FALSIFIED, method=method, witness=witness,
                           point=None if lifted else x)
    return Verdict(Status.NO_WITNESS_FOUND, method=method)


def spanning_falsifier(p: ProjectionFamily, cfg: SearchConfig | None = None) -> Verdict:
    """Hunt for a point where the images {P_i x} fail to span.

    Real rank-1 families within the complement-property cap get an exact
    verdict through the frame reduction and the complement property.
    Everything else is search: each found point x comes with a unit w
    orthogonal to every P_i x, which makes (x+w, x-w) a witness pair (see
    pr_witness_from_nonspanning); the first pair that re-verifies is
    returned with its point.  Exhausting the candidates is reported as
    inconclusive, never as proof that spanning holds.
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
