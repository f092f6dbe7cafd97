"""phaseret benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload decide-search --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  With --trace 0 the run times fresh-interpreter set-ups,
then runs ops back to back for --seconds and reports the end-to-end
metrics, every time scaled to a fixed reference speed of the host (see
reference_time).  With --trace 1 it runs every op twice, once with every
public layer function wrapped and once without, and reports the per-layer
metrics and the tracing overhead.  Every op is rechecked by check.py; the run
exits 1 when any op is bad.  The last line of stdout is the JSON result.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# single-threaded BLAS baseline; must be set before numpy is imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10
REF_NOMINAL_S = 0.01
REF_STEPS = 450
SPEED_WINDOW = 4
DEFAULT_SEED = 0
VERDICTS = BENCH / "verdicts_seed0.json"
WORKLOAD_NAMES = ("decide-search", "exact-enum", "complex-cli")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


_REF_MATS = np.random.default_rng(0).standard_normal((8, 4, 6))


def reference_time() -> float:
    """Wall time of a fixed kernel of small numpy products, norms and SVDs.

    The kernel does the same kind of work as the library's ops (Python
    loops over tiny dense arrays), so it slows down with them when the
    shared host does.  It takes about REF_NOMINAL_S when the host is quiet.
    """
    t0 = time.perf_counter()
    x = np.ones(6)
    for k in range(REF_STEPS):
        a = _REF_MATS[k % len(_REF_MATS)]
        y = a.T @ (a @ x)
        x = y / np.linalg.norm(y) + 0.01
        np.linalg.svd(a, compute_uv=False)
    return time.perf_counter() - t0


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Set-up time at reference speed and on the wall clock.

    The set-up is a fresh interpreter that imports phaseret and builds the
    inputs; the reference time is the median of three timings before it.
    """
    ref = statistics.median(reference_time() for _ in range(3))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, str(BENCH / "setup_once.py"), workload, str(seed),
                    str(workdir)], check=True)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed * REF_NOMINAL_S / ref, elapsed


def run_op(wl, inp, op_id, workdir, recorded) -> dict:
    """Run one op, time it, and check what it returned."""
    t0 = time.perf_counter()
    try:
        latency, out = wl.run(inp, op_id, workdir)
    except Exception as exc:  # an op that raises is a bad op, not a crashed run
        latency, out = time.perf_counter() - t0, None
        problem = f"raised {type(exc).__name__}: {exc}"
    else:
        problem = wl.check(inp, out)
    if problem is None and op_id < len(recorded) and recorded[op_id] != out["status"] \
            and recorded[op_id] != "no-witness-found":
        problem = f"status {out['status']}, recorded verdict {recorded[op_id]}"
    return {"op": op_id, "latency": latency, "out": out, "problem": problem}


def closed_loop(wl, pool, seconds, workdir, recorded, tracer=None) -> list[dict]:
    """Run ops back to back until the deadline; check each one after it returns.

    Untraced, every op is followed by one timing of the reference kernel.
    With a tracer, every op runs twice back to back on the same input and
    search seed, once traced and once not, alternating which goes first,
    so the two halves of the run do identical work.
    """
    records = []
    deadline = time.perf_counter() + seconds
    op_id = 0
    while time.perf_counter() < deadline:
        inp = pool[op_id % len(pool)]
        if tracer is None:
            records.append({**run_op(wl, inp, op_id, workdir, recorded),
                            "ref": reference_time()})
        else:
            for traced in (op_id % 2 == 1, op_id % 2 == 0):
                if traced:
                    tracer.op_id = op_id
                    tracer.attach()
                try:
                    record = run_op(wl, inp, op_id, workdir, recorded)
                finally:
                    if traced:
                        tracer.detach()
                records.append({**record, "traced": traced})
        op_id += 1
    return records


def failed_share(records) -> float:
    return sum(r["problem"] is not None for r in records) / len(records)


def self_test(wl, pool, records) -> str | None:
    """The checker must flag a corrupted witness and a flipped status as bad ops."""
    good = next((r for r in records if r["problem"] is None and wl.found(r["out"])), None)
    if good is None:
        return "no op with a witness to corrupt"
    inp = pool[good["op"] % len(pool)]
    trial = [good] + [{"problem": wl.check(inp, damage(good["out"]))}
                      for damage in (wl.corrupt, wl.flip)]
    if failed_share(trial) != 2 / 3:
        return "checker accepted a corrupted witness or a flipped status"
    return None


def whole_cycles(wl, records) -> list[dict]:
    """The records of complete cycles, so every run times the same input mix."""
    cycle = len(wl.cases)
    keep = len(records) - len(records) % cycle
    return records[:keep] if keep else records


def at_reference_speed(records) -> list[float]:
    """Each op's latency scaled by REF_NOMINAL_S / the reference time around it.

    The reference time is the median of the kernel timings after the
    SPEED_WINDOW ops on either side of the op and after the op itself.
    """
    refs = [r["ref"] for r in records]
    return [r["latency"] * REF_NOMINAL_S
            / statistics.median(refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
            for i, r in enumerate(records)]


def ops_per_s(latencies) -> float:
    return len(latencies) / sum(latencies)


def latency_metrics(latencies) -> tuple[float, float, float, int]:
    """ops_per_s, op_p50_s, op_tail_s and the tail's index in sorted order."""
    lat = sorted(latencies)
    n = len(lat)
    tail_at = n - TAIL_BEYOND - 1 if n >= 2 * TAIL_BEYOND else n - 1
    return ops_per_s(lat), statistics.median(lat), lat[tail_at], tail_at


def end_to_end(wl, records, setups) -> tuple[dict, dict]:
    timed = whole_cycles(wl, records)
    n = len(timed)
    rate, p50, tail, tail_at = latency_metrics(at_reference_speed(timed))
    raw = latency_metrics([r["latency"] for r in timed])
    found = [wl.found(r["out"]) for r in timed if r["out"] is not None]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "witness_yield": (sum(found) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "ops_per_s": f"wall clock {raw[0]:.6g}; reference kernel median "
                     f"{statistics.median(r['ref'] for r in timed) * 1e3:.4g} ms "
                     f"(nominal {REF_NOMINAL_S * 1e3:g} ms)",
        "op_p50_s": f"wall clock {raw[1]:.6g}",
        "op_tail_s": f"p{100.0 * (tail_at + 1) / n:.1f} of {n} ops in whole cycles; "
                     f"wall clock {raw[2]:.6g}"
                     + ("" if n >= 2 * TAIL_BEYOND else " (fewer than 20 ops: the maximum)"),
        "failed_op_share": f"{failed_share(records):.4f} ratio "
                           f"({sum(r['problem'] is not None for r in records)} of {len(records)})",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s, _ in setups)
                   + "; wall clock " + ", ".join(f"{w:.4f}" for _, w in setups),
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "phaseret" / "__init__.py").is_file():
        print(f"error: no phaseret sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import phaseret
    import layertrace
    import workloads

    if Path(phaseret.__file__).resolve().parent != (ROOT / "src" / "phaseret").resolve():
        print(f"error: phaseret imported from {phaseret.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    recorded = []
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(VERDICTS.read_text()).get(args.workload, [])
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"tmp-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            reference_time()  # warm-up: the first call pays numpy's lazy set-up
            setups = [time_setup(args.workload, args.seed, work / f"setup-{k}")
                      for k in range(SETUP_REPEATS)]
            pool = wl.build(args.seed, work / "run")
            records = closed_loop(wl, pool, args.seconds, work / "run", recorded)
            values, notes = end_to_end(wl, records, setups)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        else:
            tracer = layertrace.Tracer()
            tracer.attach()  # set-up calls into the library count as op -1
            try:
                pool = wl.build(args.seed, work / "run")
            finally:
                tracer.detach()
            records = closed_loop(wl, pool, args.seconds, work / "run", recorded, tracer)
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"spans-{tag}.npz")
            units = {"calls": "count", "total_s": "s", "self_s": "s"}
            metrics = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "ratio")}
                       for k, v in tracer.metrics().items()}
            plain = ops_per_s([r["latency"] for r in records if not r["traced"]])
            traced = ops_per_s([r["latency"] for r in records if r["traced"]])
            metrics["trace.untraced_ops_per_s"] = {"value": plain, "unit": "1/s"}
            metrics["trace.traced_ops_per_s"] = {"value": traced, "unit": "1/s"}
            metrics["trace.overhead_ops_per_s"] = {"value": plain - traced, "unit": "1/s"}
            metrics["trace.op_s"] = {"value": sum(r["latency"] for r in records if r["traced"]),
                                     "unit": "s"}
            notes = {"spans": f"{len(tracer.start)} spans in .bench_out/spans-{tag}.npz"}
        bad_checker = self_test(wl, pool, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r["problem"] is not None for r in records)
    for r in records:
        if r["problem"] is not None:
            print(f"bad op {r['op']}: {r['problem']}")
    if bad_checker:
        print(f"checker self-test failed: {bad_checker}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name:48s} {m['value']:.6g} {m['unit']}" + (f"  [{note}]" if note else ""))
    for name in set(notes) - set(metrics):
        print(f"{name:48s} {notes[name]}")
    result = {"correct": failed == 0 and bad_checker is None, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "result": result, "notes": notes,
                    "ops": [{"op": r["op"], "latency": r["latency"], "ref": r.get("ref"),
                             "problem": r["problem"],
                             "status": None if r["out"] is None else r["out"]["status"]}
                            for r in records]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
