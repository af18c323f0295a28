"""Exact ergodic optimization on one-sided subshifts of finite type.

Everything runs over rationals: minimizing values, Mane and Peierls
barriers, calibrated and separating sub-actions, plus brute-force
cross-checks for all of it.
"""

from .errors import (
    BudgetExceeded,
    EmptyRowOrColumn,
    ErgoptError,
    IncompatibleOrder,
    InstanceFormatError,
    LambdaOutOfRange,
    NoPathExists,
    NotASubAction,
    NotCalibrated,
    NotInConstraintSet,
    NotIrreducible,
    OracleMismatch,
    TooLarge,
)
from .instances import (
    dump_instance,
    load_instance,
    parse_instance,
    random_instance,
    random_two_sided,
)
from .oracle import (
    NonwanderingReport,
    SEpsilonQuery,
    brute_cycles,
    holonomic_value_brute,
    is_nonwandering,
    path_min_sums,
    point_barrier,
    s_epsilon,
)
from .pipeline import SolveBundle, solve_instance
from .potential import (
    OneSidedPotential,
    TwoSidedPotential,
    build_one_sided,
    build_two_sided,
    compile_weights,
    reduce_two_sided,
    truncate,
)
from .subactions import (
    ContactSet,
    GapReport,
    SeparatingCertificate,
    SubAction,
    Verdict,
    calibrated_from_boundary,
    contact_locus,
    convex_combination,
    dominant_calibrated,
    gap_analysis,
    normalize,
    separating_subaction,
    verify,
)
from .symbolic import (
    DeBruijnGraph,
    Edge,
    LassoPoint,
    SftSystem,
    build_sft,
    lasso_distance,
    lasso_shift,
    lift_to,
    node_of,
    refine,
)
from .tropical import (
    BarrierMatrices,
    Component,
    ConstraintPolytope,
    CriticalStructure,
    calibrated_fixed_point,
    constraint_polytope,
    critical_structure,
    lax_oleinik_step,
    mane_matrix,
    minimizing_value,
    peierls_matrix,
)

__version__ = "0.1.0"
