"""One set-up, timed from outside by run.py: a fresh interpreter that imports
phaseret and phaseret.cli and builds a workload's inputs.

    python3 bench/setup_once.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import phaseret  # noqa: E402,F401
import phaseret.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name].build(seed, workdir)
