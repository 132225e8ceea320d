"""warpconv: numerical laboratory for warped-product metric spaces."""

from .core import (
    TAU,
    BaseSpace,
    BumpLatticeProfile,
    BumpProfile,
    ConstantProfile,
    DomainError,
    FiberSpace,
    HypothesisError,
    InvalidDescriptor,
    PolylineCurve,
    SurfacePoint,
    WarpedSpace,
    WarpingProfile,
    bilipschitz_lambda,
    cinch_bump,
    circle_base,
    curve_length,
    diameter_upper_bound,
    interval_base,
    lp_profile_distance,
    ridge_bump,
    sandwich_bounds,
    segment_length,
    theta_energy,
)
from .convergence import (
    AuditRow,
    ConvergenceReport,
    DiscrepancyResult,
    PlanValues,
    StageRow,
    audit_theorem_bounds,
    default_grid,
    exact_gap,
    flat_upper_bound,
    gh_upper_bound,
    reference_space,
    run_family_experiment,
)
from .families import LimitMetric, SequenceFamily
from .geodesy import (
    ANISOTROPY_BOUND,
    GridGraph,
    GridSizeError,
    GridSpec,
    cinch_limit_distance,
    flat_product_distance,
    level_set_distance,
    neighborhood_offsets,
    stencil_anisotropy,
)
from .ret import ret_distance
from .sampling import (
    SamplePlan,
    default_plan,
    halton_points,
    radical_inverse,
    surface_samples,
)
from .torus3 import (
    BumpField,
    ConstantField,
    Grid3Graph,
    Grid3Spec,
    Point3,
    Torus3Family,
    bilip_lambda3,
    cube_samples,
    diameter3_upper_bound,
    limit3_distance,
    run_torus3_experiment,
    stencil_anisotropy3,
)

__version__ = "0.1.0"
