"""Walk through the full-spark counterexample construction in C^n.

For each n, build the 2n-1 member Vandermonde family, certify full
spark (which at m = 2n-1 forces the images of every point to span), and
then produce a witness pair with equal measurements that is not a phase
multiple.  Spanning everywhere without phase retrieval is a strictly
complex phenomenon; over the reals the analogous exact check ties the
two together.
"""

import argparse

import numpy as np

from phaseret import (
    SearchConfig,
    complex_counterexample,
    measurements,
    verify_pr_witness,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for n in range(2, args.n_max + 1):
        rep = complex_counterexample(n, SearchConfig(seed=args.seed))
        f, p, w = rep.frame, rep.family, rep.witness
        print(f"n = {n}: m = {f.size} vectors")
        print(f"  spanning certified by full spark at m = 2n-1: {rep.spanning_certified}")
        if w is None:
            print("  no witness found (inconclusive)")
            continue
        mu = measurements(p, w.u)
        mv = measurements(p, w.v)
        print(f"  witness: mismatch = {w.max_mismatch:.2e}, phase gap = {w.phase_gap:.3f}")
        print(f"  measurements u: {np.array2string(mu, precision=6)}")
        print(f"  measurements v: {np.array2string(mv, precision=6)}")
        check = verify_pr_witness(p, w.u, w.v)
        print(f"  independent recheck: valid = {check.valid}")


if __name__ == "__main__":
    main()
