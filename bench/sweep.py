"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 0-9 [--workloads decide-search,exact-enum]
                           [--heldout-seed N] [--trace-seed 0] [--out FILE]

For every workload it runs bench/run.py once per seed, as the command in
BENCHMARK.json does, and reports each end-to-end metric's median,
quartiles and spread (the quartile distance over the median), next to
the metric's bound.  --heldout-seed runs one more seed whose results are
kept apart from the rest, so that a claim can be rechecked on a seed no
one tuned against; --trace-seed adds one traced run per workload for the
per-layer numbers.  --out writes everything, with the environment, as
JSON (a trajectory entry under bench/trajectory/).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--heldout-seed", type=int, default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "heldout_seed": args.heldout_seed, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, env = run_once(name, seed, spec["run_seconds"], 0)
            report["env"] = env
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        for metric in bounds:
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            s["bound"] = bounds[metric]
            entry["metrics"][metric] = s
            flag = "" if metric == "setup_s" or s["spread"] < bounds[metric] / 3 else \
                "  <-- spread above a third of the bound"
            print(f"  {metric:16s} median {s['median']:.5g} {s['unit']}  spread "
                  f"{s['spread']:.3f}  bound {bounds[metric]}{flag}", flush=True)
        if args.heldout_seed is not None:
            entry["heldout"], _ = run_once(name, args.heldout_seed, spec["run_seconds"], 0)
        if args.trace_seed is not None:
            entry["traced"], _ = run_once(name, args.trace_seed, spec["run_seconds"], 1)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
