"""Safe stabilization on the unit n-sphere under conic and star-shaped constraints."""

from .constraints import (
    ConicCap,
    ConstraintArrangement,
    EuclideanStarBody,
    PowerSumProfile,
    ProjectedStarShape,
    RadialTableProfile,
    build_projected_star,
    pairwise_separation,
    phi,
    region_membership,
    suggest_epsilon,
    validate_kernel,
    validate_region_disjointness,
)
from .controllers import (
    ConicControllerParams,
    ConicGradientController,
    StarControllerParams,
    StarPiecewiseController,
    conic_control_fd,
    smoothstep,
    suggest_kappa,
)
from .geometry import (
    GreatCircleArc,
    TangentVector,
    UnitPoint,
    distance_to_arc,
    normalize,
    project_to_tangent,
    sample_uniform,
    slerp,
    spherical_distance,
)
from .scenario import (
    Scenario,
    parse_scenario,
    run_scenario,
    validate_scenario,
)
from .simulate import (
    SimConfig,
    Trajectory,
    closed_loop_field,
    integrate,
    integrate_quaternion,
    jacobian_fd,
    lyapunov_alignment,
    monitor_safety,
    quaternion_adapter,
)

__version__ = "0.1.0"
