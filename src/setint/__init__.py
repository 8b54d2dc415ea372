"""Riemann integration of set-valued maps into finite-dimensional normed
spaces: Minkowski arithmetic, Hausdorff distances, tagged partitions, sign
balancing, and the explicit constructions separating a multifunction from its
convex hull."""

from .balance import (
    SelectionProblem,
    estimate_infratype_constant,
    hull_sum_onesided_greedy,
    infratype_ratio,
    power_sum_check,
    select_points,
    sign_balance_exact,
    sign_balance_greedy,
)
from .counterexamples import (
    DIVERGENCE_BOUND,
    hilbert_example_sum_norm,
    l1_counterexample_bruteforce,
    l1_counterexample_eval,
    l1_counterexample_lower_bound,
    simplex_generators,
    witness_distance,
)
from .errors import (
    ConfigError,
    InvalidArgumentError,
    ResourceLimitError,
    SetintError,
    SolverFailureError,
)
from .integrate import (
    ConvergenceReport,
    Row,
    Verdict,
    integrate,
    riemann_sum,
)
from .partition import (
    Constant,
    ConvexHullOf,
    CounterexampleL1,
    MovingFinite,
    Multifunction,
    PiecewiseConstant,
    TaggedPartition,
    eval_mf,
    eval_mf_many,
    halve_with_tags,
    mf_from_json,
    mf_to_json,
    random_partition,
    uniform_partition,
    validate_bounds,
)
from .setops import (
    PointSet,
    PrunedSet,
    dist_point_to_hull,
    dist_point_to_set,
    hausdorff,
    hausdorff_hulls,
    minkowski,
    one_sided_hausdorff,
    pointset_from_json,
    pointset_to_json,
    prune,
    scale,
    translate,
)
from .spaces import (
    SpaceDescriptor,
    c1_from,
    hilbert_c1,
    infratype_from_json,
    l1,
    l2,
    linf,
    norm,
    norms,
    space_from_json,
    space_to_json,
)

__version__ = "0.1.0"
