"""Deterministic PRNG stream splitting.

All randomness in the toolkit flows from a single 64-bit root seed.  A
consumer derives its own independent stream from the root seed plus an
integer path that names the consumer, via numpy's SeedSequence:

    rng = spawn_rng(root_seed, stream_code, index, ...)

Stream codes used by the library (paths are (root, code, *indices)):

    1  orthogonal-complement completion draws
    2  basis rotations when forming a basis union
    3  random subspace generation (index: subspace position)
    4  multistart descent starting points
    6  nullspace witness search starting points
    7  survey trial frames (indices: n, m, trial)
    8  counterexample spanning spot checks
    9  random frame generation

Reusing a path reproduces the stream bit for bit; distinct paths give
statistically independent streams.
"""

from __future__ import annotations

import numpy as np


def spawn_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Derive a deterministic, independent generator for (root_seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(root_seed), *map(int, path))))
