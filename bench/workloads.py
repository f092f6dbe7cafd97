"""The benchmark workloads: seeded inputs, one op, and the op's check.

Each workload is a closed loop with a single caller: op i runs on input
i mod len(pool) and starts only after op i-1 has returned.  Inputs come
from the benchmark's own generator, seeded by (seed, workload code, i);
the library receives only the generated arrays and files.  Searches are
seeded with the op index, so an input reused after the pool wraps around
still gets a fresh search.

Op i runs case i mod len(cases), so one cycle of len(cases) ops is the
workload's stated input mix.  An op returns (latency_s, out).  `out` is a plain dict: "status" is the
op's verdict, "witness" (when present) the claimed pair (u, v), and
"certificate" a failing bipartition or subset.  `check(inp, out)` reruns
every claim through check.py and returns None or the reason the op is
bad.  `corrupt` and `flip` damage an out dict for the checker self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import phaseret as pr
import phaseret.cli
from phaseret import serialize

import check

FALSIFIED = "falsified"
NO_WITNESS = "no-witness-found"
HOLDS = "certified-holds"
FAILS = "certified-fails"


def _rng(seed: int, code: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, code, i))


def _gaussian(rng, n: int, m: int, complex_field: bool) -> np.ndarray:
    g = rng.standard_normal((n, m))
    return g + 1j * rng.standard_normal((n, m)) if complex_field else g


def _pair(witness) -> tuple[np.ndarray, np.ndarray] | None:
    return None if witness is None else (np.array(witness.u), np.array(witness.v))


class _Search:
    """A search op: it finds a failure when it ends falsified with a witness."""

    def found(self, out: dict) -> bool:
        return out["status"] == FALSIFIED

    def corrupt(self, out: dict) -> dict:
        u, v = out["witness"]
        return {**out, "witness": (u + 1e-3, v)}

    def flip(self, out: dict) -> dict:
        return {**out, "status": NO_WITNESS if out["status"] == FALSIFIED else FALSIFIED}


# ---------------------------------------------------------------------------
# decide-search: exact decision, then the witness search, on small real frames

@dataclass(frozen=True)
class DecideInput:
    frame: pr.Frame
    holds: bool


class DecideSearch(_Search):
    """Acceptance-1 population: real Gaussian frames, n in {2,3,4}, m in [n, 2n+1].

    A generic real frame has the complement property exactly when
    m >= 2n-1, so each cell's verdict is known by construction, and the
    search must agree with the exact decision: falsified where it fails,
    no-witness-found where it holds.
    """

    name = "decide-search"
    code = 1
    cases = [(n, m) for n in (2, 3, 4) for m in range(n, 2 * n + 2)]
    pool_cycles = 40
    restarts = 50

    def build(self, seed: int, workdir: Path) -> list[DecideInput]:
        pool = []
        for i in range(self.pool_cycles * len(self.cases)):
            n, m = self.cases[i % len(self.cases)]
            vectors = _gaussian(_rng(seed, self.code, i), n, m, False)
            pool.append(DecideInput(pr.Frame(vectors, pr.Field.REAL), m >= 2 * n - 1))
        return pool

    def run(self, inp: DecideInput, op_id: int, workdir: Path):
        t0 = time.perf_counter()
        verdict = pr.decide_real_rank1(inp.frame)
        family = pr.ProjectionFamily.from_frame(inp.frame)
        search = pr.pr_falsifier(family, pr.SearchConfig(restarts=self.restarts, seed=op_id))
        latency = time.perf_counter() - t0
        part = verdict.partition
        return latency, {
            "decide": verdict.status.value,
            "partition": None if part is None else (part.side_I, part.side_Ic),
            "decide_witness": _pair(verdict.witness),
            "status": search.status.value,
            "witness": _pair(search.witness),
        }

    def check(self, inp: DecideInput, out: dict) -> str | None:
        vectors = inp.frame.vectors
        projectors = check.frame_projectors(vectors)
        expected = HOLDS if inp.holds else FAILS
        if out["decide"] != expected:
            return f"exact decision {out['decide']}, construction says {expected}"
        if out["decide"] == FAILS:
            if out["partition"] is None or out["decide_witness"] is None:
                return "certified-fails without its partition and witness"
            problem = (check.partition_problem(vectors, *out["partition"])
                       or check.witness_problem(projectors, *out["decide_witness"]))
            if problem:
                return "decision: " + problem
        agree = NO_WITNESS if inp.holds else FALSIFIED
        if out["status"] != agree:
            return f"search {out['status']} disagrees with exact decision {out['decide']}"
        if out["status"] == FALSIFIED:
            if out["witness"] is None:
                return "falsified without a witness"
            problem = check.witness_problem(projectors, *out["witness"])
            if problem:
                return "search: " + problem
        return None


# ---------------------------------------------------------------------------
# exact-enum: direct complement-property and full-spark enumerations

@dataclass(frozen=True)
class EnumInput:
    kind: str                 # "cp" or "spark"
    frame: pr.Frame
    expected: tuple | None    # the exact first failure, None where the property holds


class ExactEnum:
    """Exponential exact walks whose answer is known by construction.

    - generic frames with m >= 2n-1: CP holds, the whole walk runs;
    - planted late failure: vectors 1..m-k in one hyperplane, the last
      k = n-1 generic.  The only failing bipartition is hyperplane vs the
      rest, so the walk runs to mask 2^(m-1) - 2^(m-1-k);
    - cheap early failure: generic n=6, m=10; the first failing mask is
      31, which puts vectors 2..6 on side I^c;
    - full spark of generic real and complex frames: holds, every
      n-subset is tested.
    """

    name = "exact-enum"
    code = 2
    cases = [("cp-holds", 4, 18), ("cp-holds", 6, 18), ("cp-planted", 4, 18),
             ("cp-planted", 6, 18), ("cp-early", 6, 10), ("spark-real", 5, 26),
             ("spark-complex", 6, 20)]
    pool_cycles = 30

    def build(self, seed: int, workdir: Path) -> list[EnumInput]:
        pool = []
        for i in range(self.pool_cycles * len(self.cases)):
            case, n, m = self.cases[i % len(self.cases)]
            rng = _rng(seed, self.code, i)
            expected = None
            if case == "cp-planted":
                k = n - 1
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                inside = q[:, :n - 1] @ rng.standard_normal((n - 1, m - k))
                vectors = np.concatenate([inside, rng.standard_normal((n, k))], axis=1)
                expected = (tuple(range(m - k)), tuple(range(m - k, m)))
            else:
                vectors = _gaussian(rng, n, m, case == "spark-complex")
            if case == "cp-early":
                expected = ((0,) + tuple(range(n, m)), tuple(range(1, n)))
            field = pr.Field.COMPLEX if case == "spark-complex" else pr.Field.REAL
            pool.append(EnumInput(case.split("-")[0], pr.Frame(vectors, field), expected))
        return pool

    def run(self, inp: EnumInput, op_id: int, workdir: Path):
        t0 = time.perf_counter()
        if inp.kind == "cp":
            w = pr.complement_property(inp.frame)
        else:
            w = pr.full_spark(inp.frame)
        latency = time.perf_counter() - t0
        if w is not None and inp.kind == "cp":
            w = (w.side_I, w.side_Ic)
        return latency, {"status": "holds" if w is None else "fails", "certificate": w}

    def check(self, inp: EnumInput, out: dict) -> str | None:
        expected = "holds" if inp.expected is None else "fails"
        if out["status"] != expected:
            return f"{inp.kind} {out['status']}, construction says {expected}"
        cert = out["certificate"]
        if (cert is None) != (expected == "holds"):
            return f"{inp.kind} status {out['status']} with certificate {cert}"
        if cert is None:
            return None
        vectors = inp.frame.vectors
        if inp.kind == "spark":
            return check.subset_problem(vectors, cert)
        problem = check.partition_problem(vectors, *cert)
        if problem:
            return problem
        if tuple(map(tuple, cert)) != inp.expected:
            return f"first failing bipartition {cert}, expected {inp.expected}"
        return None

    def found(self, out: dict) -> bool:
        return out["certificate"] is not None

    def corrupt(self, out: dict) -> dict:
        side_i, side_ic = out["certificate"]
        return {**out, "certificate": (side_i[:-1], (side_i[-1],) + tuple(side_ic))}

    def flip(self, out: dict) -> dict:
        return {**out, "status": "holds" if out["status"] == "fails" else "fails"}


# ---------------------------------------------------------------------------
# complex-cli: in-process CLI calls on files written during set-up

@dataclass(frozen=True)
class CliInput:
    argv: tuple[str, ...]     # without --seed and --out, which depend on the op
    projectors: np.ndarray | None
    holds: bool               # phase retrieval holds generically: no witness may exist
    gen_n: int | None = None


def _decode(vec, field: str) -> np.ndarray:
    if field == "complex":
        return np.array([complex(re, im) for re, im in vec])
    return np.array(vec, dtype=np.float64)


class ComplexCli(_Search):
    """`phaseret falsify` and `phaseret gen --kind counterexample`, in process.

    Complex Gaussian frames with m >= 4n-4 do phase retrieval
    generically, so a witness there is a contradiction; below that the
    search may or may not find one.  Rank-2 families go through the
    higher-rank spanning search and always yielded witnesses when the
    workload was chosen.  A generated counterexample frame is checked
    against its Vandermonde construction and for full spark; the CLI does
    not write its witness to a file, so only the exit code speaks for it.
    """

    name = "complex-cli"
    code = 3
    cases = ([("pr", "frame", 3, m) for m in range(5, 9)]
             + [("pr", "frame", 4, m) for m in range(7, 13)]
             + [("spanning", "frame", 3, 6), ("spanning", "frame", 4, 9)]
             + [(mode, fam, 4, 6) for fam in ("rank2-complex", "rank2-real")
                for mode in ("pr", "spanning")]
             + [("gen", "counterexample", n, 2 * n - 1) for n in range(3, 7)])
    pool_cycles = 12
    # a quarter of the CLI's default 64: about 150 ops a run keep the quantiles steady
    restarts = 16

    def build(self, seed: int, workdir: Path) -> list[CliInput]:
        workdir.mkdir(parents=True, exist_ok=True)
        pool = []
        for i in range(self.pool_cycles * len(self.cases)):
            mode, fam, n, m = self.cases[i % len(self.cases)]
            if mode == "gen":
                argv = ("gen", "--kind", "counterexample", "--n", str(n))
                pool.append(CliInput(argv, None, False, gen_n=n))
                continue
            rng = _rng(seed, self.code, i)
            path = workdir / f"family-{i}.json"
            if fam == "frame":
                vectors = _gaussian(rng, n, m, True)
                obj = serialize.frame_to_dict(pr.Frame(vectors, pr.Field.COMPLEX))
                projectors = check.frame_projectors(vectors)
                holds = m >= 4 * n - 4
            else:
                complex_field = fam == "rank2-complex"
                mats = []
                for _ in range(m):
                    q, _ = np.linalg.qr(_gaussian(rng, n, 2, complex_field))
                    mats.append(q @ q.conj().T)
                field = pr.Field.COMPLEX if complex_field else pr.Field.REAL
                obj = serialize.family_to_dict(pr.ProjectionFamily.from_projections(mats, field))
                projectors = np.stack(mats)
                holds = False
            serialize.save_json(str(path), obj)
            pool.append(CliInput(("falsify", str(path), "--mode", mode), projectors, holds))
        return pool

    def run(self, inp: CliInput, op_id: int, workdir: Path):
        out_path = workdir / ("frame.json" if inp.gen_n else "report.json")
        argv = [*inp.argv, "--restarts", str(self.restarts), "--seed", str(op_id),
                "--out", str(out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = phaseret.cli.main(argv)
        latency = time.perf_counter() - t0
        out = {"code": code, "stderr": stderr.getvalue().strip()}
        if inp.gen_n:
            out["status"] = {0: FALSIFIED, 3: NO_WITNESS}.get(code, f"exit {code}")
            if code in (0, 3):
                d = json.loads(out_path.read_text())
                out["frame"] = np.stack([_decode(v, d["field"]) for v in d["vectors"]], axis=1)
            return latency, out
        if code in (1, 3):
            res = json.loads(out_path.read_text())["results"]
            out["status"] = res["status"]
            w = res["witness"]
            if w is not None:
                out["witness"] = (_decode(w["u"], w["field"]), _decode(w["v"], w["field"]))
            if res["point"] is not None:
                field = "complex" if np.iscomplexobj(inp.projectors) else "real"
                out["point"] = _decode(res["point"], field)
        else:
            out["status"] = f"exit {code}"
        return latency, out

    def check(self, inp: CliInput, out: dict) -> str | None:
        status, code = out["status"], out["code"]
        exit_for = {FALSIFIED: 1, NO_WITNESS: 3}
        if inp.gen_n:
            exit_for[FALSIFIED] = 0
        if status not in exit_for:
            return f"{' '.join(inp.argv[:2])}: {status} {out['stderr']}".strip()
        if code != exit_for[status]:
            return f"exit code {code} does not match status {status}"
        if inp.gen_n:
            return self._check_counterexample(inp.gen_n, out["frame"])
        if status == FALSIFIED:
            if inp.holds:
                return "falsified a family where phase retrieval holds generically"
            if "witness" not in out:
                return "falsified without a witness"
            problem = check.witness_problem(inp.projectors, *out["witness"])
            if problem is None and "point" in out:
                problem = check.nonspanning_problem(inp.projectors, out["point"])
            return problem
        return None

    @staticmethod
    def _check_counterexample(n: int, frame: np.ndarray) -> str | None:
        m = 2 * n - 1
        nodes = np.exp(2j * np.pi * np.arange(m) / m)
        expected = nodes[None, :] ** np.arange(n)[:, None]
        if frame.shape != expected.shape or not np.allclose(frame, expected, atol=1e-12):
            return f"counterexample frame for n={n} is not the Vandermonde frame"
        if not check.is_full_spark(frame):
            return f"counterexample frame for n={n} is not full spark"
        return None


WORKLOADS = {w.name: w for w in (DecideSearch(), ExactEnum(), ComplexCli())}
