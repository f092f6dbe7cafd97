"""Certification and falsification toolkit for phase retrieval.

Decides or empirically refutes phase-retrieval properties of vector
frames and orthogonal-projection families over real and complex spaces:
exact finite checks (complement property, full spark), witness
constructions from spanning failures, and a seeded multi-start search
for counterexample pairs on the lifted spanning criterion.
"""

__version__ = "0.1.0"

from .errors import CapacityError, FieldError
from .linalg import (
    DEFAULT_TOL,
    Field,
    Tolerances,
    numerical_rank,
    orthonormalize,
)
from .frames import (
    Frame,
    PartitionWitness,
    ProjectionFamily,
    SpanningReport,
    complement_property,
    full_spark,
    image_matrix,
    nonspanning_point_from_cp_failure,
    onb_union,
    spanning_at,
)
from .certify import (
    CounterexampleReport,
    PrWitness,
    SearchConfig,
    Status,
    Verdict,
    WitnessCheck,
    complex_counterexample,
    decide_real_rank1,
    gen_full_spark,
    gen_random_frame,
    gen_random_projections,
    hermitian_nullspace_witness,
    joint_normalize,
    measurements,
    phase_gap,
    pr_falsifier,
    pr_witness_from_nonspanning,
    spanning_falsifier,
    verify_pr_witness,
)
from .seeding import spawn_rng

__all__ = [
    "CapacityError",
    "CounterexampleReport",
    "DEFAULT_TOL",
    "Field",
    "FieldError",
    "Frame",
    "PartitionWitness",
    "PrWitness",
    "ProjectionFamily",
    "SearchConfig",
    "SpanningReport",
    "Status",
    "Tolerances",
    "Verdict",
    "WitnessCheck",
    "complement_property",
    "complex_counterexample",
    "decide_real_rank1",
    "full_spark",
    "gen_full_spark",
    "gen_random_frame",
    "gen_random_projections",
    "hermitian_nullspace_witness",
    "image_matrix",
    "joint_normalize",
    "measurements",
    "nonspanning_point_from_cp_failure",
    "numerical_rank",
    "onb_union",
    "orthonormalize",
    "phase_gap",
    "pr_falsifier",
    "pr_witness_from_nonspanning",
    "spanning_at",
    "spanning_falsifier",
    "spawn_rng",
    "verify_pr_witness",
]
