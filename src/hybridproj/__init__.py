"""Parallel hybrid-projection solver library.

Finds a common element of the solution sets of finitely many generalized
equilibrium problems and the common fixed points of finitely many
(asymptotically) strictly pseudocontractive mappings over a closed convex
subset of R^d. Candidate generation is data-parallel and deterministic; the
outer loop projects a fixed anchor onto a shrinking intersection of
halfspace cuts.
"""

from .geometry import (
    Ball,
    BaseSet,
    Box,
    CustomSet,
    Halfspace,
    InfeasibleSetError,
    NestedSet,
    ProjectionFailure,
    as_vector,
    contains,
    halfspace_from_iterate,
    project_nested,
)
from .operators import (
    Bifunction,
    CustomBifunction,
    FamilyReport,
    InvalidModelError,
    IsmOperator,
    ProblemFamily,
    PseudoContraction,
    ResolventFailure,
    ScalarMonotoneBifunction,
    ZeroBifunction,
    affine_operator,
    apply_power,
    identity_map,
    resolvent,
    resolvent_scalar,
    verify_family,
    zero_operator,
)
from .problems import (
    IntervalSolution,
    PointSolution,
    Section4Spec,
    build_section4,
    default_schedule,
    preset,
    section4_bifunction,
    section4_map,
)
from .solver import (
    IterationRecord,
    ParamSchedule,
    Report,
    ResidualBelow,
    SolverConfig,
    SolverState,
    ToleranceToReference,
    iterate,
    solve,
)

__version__ = "0.1.0"
