"""Record the op statuses of the default seed in bench/verdicts_seed0.json.

    python3 bench/record_verdicts.py [--workloads decide-search,exact-enum,complex-cli]

run.py compares every op of a seed-0 run against these statuses.  Each op
is checked before its status is recorded; a bad op aborts the recording.
Re-record only when a workload's inputs or ops change, never to make a
run pass.
"""

import argparse
import json
import shutil
import sys

import run

RECORD_OPS = {"decide-search": 300, "exact-enum": 210, "complex-cli": 240}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(RECORD_OPS))
    args = parser.parse_args()
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]
    import workloads

    verdicts = json.loads(run.VERDICTS.read_text()) if run.VERDICTS.exists() else {}
    work = run.ROOT / ".bench_out" / "tmp-record"
    try:
        for name in args.workloads.split(","):
            wl = workloads.WORKLOADS[name]
            pool = wl.build(run.DEFAULT_SEED, work)
            statuses = []
            for op_id in range(RECORD_OPS[name]):
                inp = pool[op_id % len(pool)]
                _, out = wl.run(inp, op_id, work)
                problem = wl.check(inp, out)
                if problem:
                    raise SystemExit(f"{name} op {op_id} is bad, nothing recorded: {problem}")
                statuses.append(out["status"])
            verdicts[name] = statuses
            print(f"{name}: {len(statuses)} statuses", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.VERDICTS.write_text(json.dumps(verdicts, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
