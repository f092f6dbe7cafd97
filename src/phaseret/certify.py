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
import math
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
    image_rank,
    rank1_reduction,
    spanning_at,
)
from .linalg import (
    DEFAULT_TOL,
    Field,
    Tolerances,
    gaussian_matrix,
    numerical_rank,
    orthogonal_complement_point,
    orthonormalize,
)
from .seeding import spawn_rng

_STREAM_SPAN_SEARCH = 4
_STREAM_NULLSPACE = 6
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
    """Budget and step policy for the multi-start spanning search."""

    restarts: int = 64
    max_iters: int = 500
    step_init: float = 0.1
    step_grow: float = 1.25
    step_shrink: float = 0.5
    seed: int = 0
    tol: Tolerances = dc_field(default_factory=Tolerances)

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if not 0.0 < self.step_shrink < 1.0 < self.step_grow:
            raise ValueError("need 0 < step_shrink < 1 < step_grow")
        if self.step_init <= 0.0:
            raise ValueError("step_init must be positive")


@dataclass(frozen=True, eq=False)
class Verdict:
    status: Status
    method: str
    witness: PrWitness | None = None
    partition: PartitionWitness | None = None
    point: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """Full-spark family where spanning holds but phase retrieval fails."""

    frame: Frame
    family: ProjectionFamily
    spanning_certified: bool
    spot_samples: int
    min_active_inner: int
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


def pr_witness_from_nonspanning(p: ProjectionFamily, x, tol: Tolerances = DEFAULT_TOL,
                                seed: int = 0) -> PrWitness:
    """Witness pair (x+y, x-y) from a point whose images fail to span.

    y is a unit vector orthogonal to every P_i x; then <P_i y, P_i x> =
    <y, P_i x> = 0 kills the cross terms, so x+y and x-y have identical
    measurements in either field, while unit x and y keep the pair far
    from phase equivalence.
    """
    x = np.asarray(x).reshape(-1)
    nx = np.linalg.norm(x)
    if nx <= tol.proj_tol:
        raise ValueError("x must be nonzero")
    x = x / nx
    report = spanning_at(p, x, tol)
    if report.spans:
        raise ValueError("images of x span the space; no witness arises from x")
    a = image_matrix(p, x)
    # images below this are float dust or too small to move the
    # measurements past witness_tol; orthogonalizing against them would
    # constrain y by noise directions
    degenerate = np.max(np.abs(a)) <= 0.01 * tol.witness_tol
    for attempt in range(16):
        # stride retries so a caller that derived x from the same seed's
        # complement stream cannot hand us back x as y
        draw_seed = seed if attempt == 0 else seed + 104729 * attempt
        if degenerate:
            y = orthogonal_complement_point(None, tol, seed=draw_seed,
                                            field=p.field, dim=p.dim)
        else:
            y = orthogonal_complement_point(a, tol, seed=draw_seed, field=p.field)
        witness = _certified_pair(p, x + y, x - y, tol)
        if witness is not None:
            return witness
    raise RuntimeError("complement draws kept producing phase-equivalent pairs")


def decide_real_rank1(f: Frame, tol: Tolerances = DEFAULT_TOL, cap: int = 24,
                      seed: int = 0) -> Verdict:
    """Exact phase-retrieval decision for a real frame (rank-1 projections).

    The complement property is decidable by finite enumeration and, over
    the reals, equivalent to phase retrieval by the frame's rank-1
    projections.  A failing bipartition is converted into a verified
    witness pair: x orthogonal to side I, y orthogonal to side I^c, pair
    (x+y, x-y).  The verdict's point is x, where the images fail to span.
    Under a loose rank_rtol a side can count as rank-deficient without
    any direction orthogonal to it within proj_tol; the failure is still
    certified, and the verdict then carries its partition but no witness
    or point.  No complex analogue exists; complex input is rejected.
    """
    if f.field is not Field.REAL:
        raise FieldError("exact complement-property decision applies to real frames only")
    w = complement_property(f, tol, cap=cap)
    if w is None:
        return Verdict(Status.CERTIFIED_HOLDS, method="complement-property")
    p = ProjectionFamily.from_frame(f, tol)
    n = f.dim
    side_i = f.vectors[:, list(w.side_I)] if w.side_I else None
    side_ic = f.vectors[:, list(w.side_Ic)] if w.side_Ic else None
    for attempt in range(16):
        try:
            x = orthogonal_complement_point(side_i, tol, seed=seed + attempt,
                                            field=f.field, dim=n)
            y = orthogonal_complement_point(side_ic, tol, seed=seed + attempt + 31,
                                            field=f.field, dim=n)
        except ValueError:
            break
        witness = _certified_pair(p, x + y, x - y, tol)
        if witness is not None:
            return Verdict(Status.CERTIFIED_FAILS, method="complement-property",
                           witness=witness, partition=w, point=x)
    return Verdict(Status.CERTIFIED_FAILS, method="complement-property", partition=w)


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


_FREEZE_WINDOW = 25
_FREEZE_RTOL = 1e-3


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
    step = np.full(val.shape, cfg.step_init)
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
        step[live] = np.minimum(np.where(better, step[live] * cfg.step_grow,
                                         step[live] * cfg.step_shrink), 1e3)
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
    Stops at the first step that fails to shrink the residual and returns
    the best point seen.
    """
    d = ops.shape[1]
    x = x / np.linalg.norm(x)
    w = np.linalg.svd((ops @ x).T)[0][:, -1]
    best, best_x = np.inf, x
    for _ in range(rounds):
        a = ops @ x  # row j is A_j x
        f = a @ w.conj()
        res = float(np.linalg.norm(f))
        if res >= best:
            break
        best, best_x = res, x
        jac = np.concatenate([w.conj() @ ops, a], axis=1)
        step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        x = x + step[:d]
        x /= np.linalg.norm(x)
        w = w + step[d:].conj()
        w /= np.linalg.norm(w)
    return best_x


def _orthogonal_direction(ops: np.ndarray, x: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """Unit w orthogonal to every A_j x when those images fail to span, else None."""
    a = (ops @ x).T
    if image_rank(a, tol) == a.shape[0]:
        return None
    # full left basis: with fewer images than dimensions the null
    # directions are the columns past the last singular value
    return np.linalg.svd(a)[0][:, -1]


def _spanning_search(ops: np.ndarray, cfg: SearchConfig):
    """Yield (x, w): unit points whose images [A_1 x ... A_k x] fail to span.

    w is a unit vector orthogonal to every A_j x.  Candidates come from
    four generic spot checks, then from a multi-start descent on
    sigma_min whose best endpoints are polished by Gauss-Newton.  The
    descent runs at most cfg.max_iters iterations: it stops once its best
    point fails to span by the rank rule of _orthogonal_direction, and
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
        w = _orthogonal_direction(ops, x, cfg.tol)
        if w is not None:
            yield x, w
    if k < d:
        return
    r = cfg.restarts
    X = _unit_rows(gaussian_matrix(rng, r, d, field).reshape(r, d))
    for X, val in _descent(lambda X_: _sigma_eval(ops, X_), X, cfg,
                           lambda x: _orthogonal_direction(ops, x, cfg.tol) is not None):
        for idx in np.argsort(val, kind="stable")[:8]:
            x = _polish_point(ops, X[idx])
            w = _orthogonal_direction(ops, x, cfg.tol)
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


def spanning_falsifier(p: ProjectionFamily, cfg: SearchConfig | None = None) -> Verdict:
    """Hunt for a point where the images {P_i x} fail to span.

    Real rank-1 families get an exact verdict through the frame reduction
    and the complement property.  Everything else is search: each found
    point x comes with a unit w orthogonal to every P_i x, which makes
    (x+w, x-w) a witness pair (see pr_witness_from_nonspanning); the
    first pair that re-verifies is returned with its point.  Exhausting
    the candidates is reported as inconclusive, never as proof that
    spanning holds.
    """
    cfg = cfg or SearchConfig()
    if p.field is Field.REAL and all(r == 1 for r in p.ranks):
        return decide_real_rank1(rank1_reduction(p, cfg.tol), cfg.tol, seed=cfg.seed)
    for x, w in _spanning_search(p.projections, cfg):
        witness = _certified_pair(p, x + w, x - w, cfg.tol)
        if witness is not None:
            return Verdict(Status.FALSIFIED, method="spanning-search", witness=witness, point=x)
    return Verdict(Status.NO_WITNESS_FOUND, method="spanning-search")


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
    cfg = cfg or SearchConfig()
    n = p.dim
    for x, w in _spanning_search(_lifted_stack(p), cfg):
        if p.field is Field.COMPLEX:
            x, w = x[:n] + 1j * x[n:], w[:n] + 1j * w[n:]
        witness = _certified_pair(p, x + w, x - w, cfg.tol)
        if witness is not None:
            point = x if p.field is Field.REAL else None
            return Verdict(Status.FALSIFIED, method="lifted-spanning",
                           witness=witness, point=point)
    return Verdict(Status.NO_WITNESS_FOUND, method="lifted-spanning")


# ---------------------------------------------------------------------------
# Hermitian nullspace construction

def hermitian_coords(q: np.ndarray) -> np.ndarray:
    """Flatten Hermitian q to real coordinates.

    Layout: n diagonal entries, then (Re q[j,k], Im q[j,k]) for j < k in
    row-major order.  This layout is the contract for the trace
    constraint matrix; keep it stable.
    """
    q = np.asarray(q)
    n = q.shape[0]
    upper = q[np.triu_indices(n, 1)]
    pairs = np.stack([upper.real, upper.imag], axis=-1)
    return np.concatenate([np.diagonal(q).real, pairs.reshape(-1)]).astype(np.float64)


def hermitian_from_coords(c: np.ndarray, n: int) -> np.ndarray:
    """Inverse of hermitian_coords; leading axes of c are a batch."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape[-1:] != (n * n,):
        raise ValueError(f"need {n * n} coordinates for Hermitian {n}x{n}")
    q = np.zeros(c.shape[:-1] + (n, n), dtype=np.complex128)
    j, k = np.triu_indices(n, 1)
    upper = c[..., n::2] + 1j * c[..., n + 1::2]
    q[..., np.arange(n), np.arange(n)] = c[..., :n]
    q[..., j, k] = upper
    q[..., k, j] = upper.conj()
    return q


def trace_constraint_matrix(f: Frame) -> np.ndarray:
    """Rows of the real-linear system tr(Q x_i x_i*) = 0 in hermitian_coords.

    For Hermitian Q, tr(Q x x*) = sum_j Q_jj |x_j|^2
    + sum_{j<k} (2 Re(conj(x_j) x_k) Re Q_jk - 2 Im(conj(x_j) x_k) Im Q_jk).
    """
    n, m = f.dim, f.size
    x = f.vectors.T
    j, k = np.triu_indices(n, 1)
    w = np.conj(x[:, j]) * x[:, k]
    rows = np.empty((m, n * n))
    rows[:, :n] = np.abs(x) ** 2
    rows[:, n::2] = 2.0 * w.real
    rows[:, n + 1::2] = -2.0 * w.imag
    return rows


def _iso_scale(n: int) -> np.ndarray:
    # Frobenius isometry: off-diagonal coordinates carry weight sqrt(2)
    s = np.ones(n * n)
    s[n:] = math.sqrt(2.0)
    return s


def _nullspace_matrices(f: Frame, tol: Tolerances) -> np.ndarray:
    """Frobenius-orthonormal Hermitian basis of the trace-zero nullspace, (d, n, n)."""
    n = f.dim
    rows = trace_constraint_matrix(f)
    scale = _iso_scale(n)
    rows_iso = rows / scale
    _, s, vh = np.linalg.svd(rows_iso, full_matrices=True)
    cutoff = tol.rank_rtol * (s[0] if s.size else 0.0) * max(rows_iso.shape)
    rank = int(np.count_nonzero(s > cutoff))
    return hermitian_from_coords(vh[rank:] / scale, n)


def _project_nullspace(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Frobenius-orthogonal projection of q onto the span of the (d, n, n) basis."""
    flat = basis.reshape(len(basis), -1)
    coef = (flat.conj() @ q.reshape(-1)).real
    return (coef @ flat).reshape(q.shape)


def _indefinite_truncation(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float] | None:
    """Nearest rank-2 one-positive-one-negative shape: keep extreme eigenpairs."""
    lam, vecs = np.linalg.eigh(q)
    if lam[-1] <= 0.0 or lam[0] >= 0.0:
        return None
    return vecs[:, -1], vecs[:, 0], float(lam[-1]), float(lam[0])


def _theta_split(field: Field, n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if field is Field.COMPLEX:
        if theta.size != 4 * n:
            raise ValueError(f"theta must have length {4 * n}")
        u = theta[:n] + 1j * theta[n:2 * n]
        v = theta[2 * n:3 * n] + 1j * theta[3 * n:]
    else:
        if theta.size != 2 * n:
            raise ValueError(f"theta must have length {2 * n}")
        u, v = theta[:n].copy(), theta[n:].copy()
    return u, v


def _theta_join(field: Field, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if field is Field.COMPLEX:
        return np.concatenate([u.real, u.imag, v.real, v.imag])
    return np.concatenate([u, v])


def _gn_polish_pair(p: ProjectionFamily, u, v, iters: int = 40):
    """Damped Gauss-Newton on the measurement mismatches alone.

    Runs unconstrained in the flat pair coordinates; the caller rescales
    and re-verifies afterwards.  The phase gap is left to look after
    itself: near a genuine witness the mismatch residuals vanish without
    moving the pair appreciably.
    """
    projs = p.projections
    u, v = u.copy(), v.copy()

    def resid(u_, v_):
        return measurements(p, u_) - measurements(p, v_)

    r = resid(u, v)
    for _ in range(iters):
        sq = float(r @ r)
        if sq == 0.0:
            break
        ju = 2.0 * np.einsum("mij,j->mi", projs, u)
        jv = -2.0 * np.einsum("mij,j->mi", projs, v)
        if p.field is Field.COMPLEX:
            jac = np.concatenate([ju.real, ju.imag, jv.real, jv.imag], axis=1)
        else:
            jac = np.concatenate([ju, jv], axis=1)
        delta, *_ = np.linalg.lstsq(jac, r, rcond=None)
        t = 1.0
        improved = False
        for _ in range(8):
            theta = _theta_join(p.field, u, v) - t * delta
            u_try, v_try = _theta_split(p.field, p.dim, theta)
            r_try = resid(u_try, v_try)
            if float(r_try @ r_try) < sq:
                u, v, r = u_try, v_try, r_try
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return u, v


def _witness_from_q(f: Frame, p: ProjectionFamily, q: np.ndarray,
                    tol: Tolerances) -> PrWitness | None:
    parts = _indefinite_truncation(q)
    if parts is None:
        return None
    e_pos, e_neg, lam_pos, lam_neg = parts
    u = math.sqrt(lam_pos) * e_pos
    v = math.sqrt(-lam_neg) * e_neg
    u, v = _gn_polish_pair(p, u, v)
    return _certified_pair(p, u, v, tol)


def hermitian_nullspace_witness(f: Frame, tol: Tolerances = DEFAULT_TOL, seed: int = 0,
                                restarts: int = 16, iters: int = 150) -> PrWitness | None:
    """Witness pair from an indefinite Hermitian Q with tr(Q x_i x_i*) = 0.

    Any such Q of rank two factors as u u* - v v*, and the trace
    conditions say exactly that u and v have equal measurements against
    every frame vector.  The trace conditions are m real-linear equations
    on the n^2 real dimensions of Hermitian space, so m < n^2 guarantees
    a nonzero solution; the rank-2 shape is automatic for n = 2 and is
    searched for by seeded descent plus alternating projections when
    n > 2.  Returns None when the rank-2 search comes up empty.
    """
    if f.field is not Field.COMPLEX:
        raise FieldError("the Hermitian nullspace construction is a complex-field device")
    n, m = f.dim, f.size
    if m >= n * n:
        raise ValueError(f"need m < n^2 real constraints (m={m}, n^2={n * n}) "
                         "to guarantee a nonzero Hermitian solution")
    p = ProjectionFamily.from_frame(f, tol)
    if numerical_rank(f.vectors, tol) < n:
        # frame does not even span: a complement point gives a witness directly
        x = orthogonal_complement_point(f.vectors, tol, seed=seed, field=f.field)
        return pr_witness_from_nonspanning(p, x, tol, seed=seed)
    basis = _nullspace_matrices(f, tol)
    if len(basis) == 0:
        return None
    rng = spawn_rng(seed, _STREAM_NULLSPACE)
    d = len(basis)
    flat = basis.reshape(d, n * n)

    def build(c):
        return (c @ flat).reshape(n, n)

    if n == 2:
        # any nonzero solution is indefinite here (a semidefinite Q with
        # zero measurements against a spanning frame must vanish)
        for c in [row for row in np.eye(d)] + [rng.standard_normal(d) for _ in range(4)]:
            w = _witness_from_q(f, p, build(c), tol)
            if w is not None:
                return w
        return None

    for _ in range(restarts):
        c = rng.standard_normal(d)
        c /= np.linalg.norm(c)
        step = 0.5
        q = build(c)
        val = _third_abs_eig(q)
        # descent on the third-largest absolute eigenvalue over the
        # nullspace sphere, then alternating projections to finish
        for _ in range(iters):
            g = _third_abs_eig_grad(q, basis)
            c_new = c - step * g
            c_new /= np.linalg.norm(c_new)
            q_new = build(c_new)
            v_new = _third_abs_eig(q_new)
            if v_new < val:
                c, q, val, step = c_new, q_new, v_new, step * 1.25
            else:
                step *= 0.5
            if step < 1e-12:
                break
        q = q / np.linalg.norm(q)
        ok = False
        for _ in range(300):
            parts = _indefinite_truncation(q)
            if parts is None:
                break
            e_pos, e_neg, lam_pos, lam_neg = parts
            q_t = lam_pos * np.outer(e_pos, e_pos.conj()) + lam_neg * np.outer(e_neg, e_neg.conj())
            q = _project_nullspace(q_t, basis)
            nrm = np.linalg.norm(q)
            if nrm < 1e-14:
                break
            q /= nrm
            if _third_abs_eig(q) < 1e-13:
                ok = True
                break
        if not ok:
            continue
        w = _witness_from_q(f, p, q, tol)
        if w is not None:
            return w
    return None


def _third_abs_eig(q: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(q)
    mags = np.sort(np.abs(lam))[::-1]
    return float(mags[2]) if mags.size > 2 else 0.0


def _third_abs_eig_grad(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Gradient of _third_abs_eig(sum_d c_d B_d) in c: sign(lam) e* B_d e."""
    lam, vecs = np.linalg.eigh(q)
    order = np.argsort(np.abs(lam))[::-1]
    t = order[2]
    e = vecs[:, t]
    sign = 1.0 if lam[t] >= 0.0 else -1.0
    return sign * np.einsum("i,dij,j->d", e.conj(), basis, e).real


# ---------------------------------------------------------------------------
# generators

def gen_full_spark(n: int, m: int, field: Field, tol: Tolerances = DEFAULT_TOL) -> Frame:
    """Vandermonde frame, full spark by construction.

    Columns are (1, t_k, t_k^2, ..., t_k^(n-1)) with fixed distinct
    nodes: t_k = k over the reals, t_k = exp(2 pi i k / m) over the
    complexes.  Every n-column minor is a Vandermonde determinant with
    distinct nodes, hence nonzero; this is double-checked numerically
    when the subset count is within the enumeration cap.
    """
    if m < n:
        raise ValueError(f"full spark needs m >= n; got m={m}, n={n}")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if field is Field.COMPLEX:
        nodes = np.exp(2j * np.pi * np.arange(m) / m)
    else:
        nodes = np.arange(m, dtype=np.float64)
    cols = np.vander(nodes, N=n, increasing=True).T
    f = Frame(cols, field)
    try:
        bad = full_spark(f, tol)
    except CapacityError:
        bad = None
    if bad is not None:
        raise AssertionError(f"Vandermonde construction lost full spark at subset {bad}")
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
        rng = spawn_rng(seed, 3, i)
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
    holds at every point.  Phase retrieval still fails: 2n-1 < n^2 for
    n >= 2, so the Hermitian nullspace construction produces a witness
    pair.  The report carries both halves plus spot-check statistics.
    """
    if n < 2:
        raise ValueError("counterexample needs dimension >= 2")
    cfg = cfg or SearchConfig()
    tol = cfg.tol
    m = 2 * n - 1
    f = gen_full_spark(n, m, Field.COMPLEX, tol)
    p = ProjectionFamily.from_frame(f, tol)
    spanning_certified = full_spark(f, tol) is None

    rng = spawn_rng(cfg.seed, 8)
    samples = max(cfg.restarts, 32)
    min_active = m
    norms = np.linalg.norm(f.vectors, axis=0)
    for _ in range(samples):
        x = gaussian_matrix(rng, n, 1, Field.COMPLEX)[:, 0]
        x /= np.linalg.norm(x)
        inner = np.abs(f.vectors.conj().T @ x)
        active = int(np.count_nonzero(inner > 1e-8 * norms))
        min_active = min(min_active, active)
        if not spanning_at(p, x, tol).spans:
            spanning_certified = False

    witness = hermitian_nullspace_witness(f, tol, seed=cfg.seed)
    method = "hermitian-nullspace"
    if witness is None:
        verdict = pr_falsifier(p, cfg)
        witness = verdict.witness
        method = verdict.method
    status = Status.FALSIFIED if witness is not None else Status.NO_WITNESS_FOUND
    return CounterexampleReport(frame=f, family=p, spanning_certified=spanning_certified,
                                spot_samples=samples, min_active_inner=min_active,
                                witness=witness, status=status, method=method)
