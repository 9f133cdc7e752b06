"""Explicit finite-difference tools for melting fronts.

The package splits into infrastructure (``grid``, ``heat``, ``mollifier``),
the front solvers (``stefan1d``, ``stefan3d``), audit instruments
(``verify``), and a command line front end (``cli``).
"""

__version__ = "0.1.0"

from .grid import (
    Grid,
    ParabolicCylinder,
    TemperatureField,
    discrete_laplacian,
    format_float,
    neighborhood_radius,
    read_field_csv,
    write_field_csv,
)
from .heat import (
    HeatTrajectory,
    OperatorCoefficients,
    caloric_replacement,
    conservation_residual,
    cylinder_masks,
    heat_kernel_field,
    interior_trapezoid_weights,
    radial_average,
    solve_dirichlet,
    stability_limit,
    trapezoid_weights,
    write_trajectory,
)
from .mollifier import (
    MollifierKernel,
    admissible_mask,
    build_kernel,
    bump_profile,
    l2_convergence,
    mollify,
    smoothness_report,
)
from .stefan1d import (
    FrontTrajectory,
    SimilaritySolution,
    StefanResult,
    StefanSpec1D,
    similarity_oracle,
    solve_stefan,
    transcendental_residual,
    write_front_csv,
)
from .stefan3d import (
    GraphFront,
    PhaseDomain,
    Stefan3DResult,
    StefanSpec3D,
    coupled_step_3d,
    front_field,
    solve3d,
    stability_limit_3d,
)
from .verify import (
    BarrierParams,
    barrier_field,
    barrier_residual_constant,
    delta_of_t,
    heat_residual_field,
    initial_continuity_metric,
    max_principle_audit,
)

__all__ = [
    "__version__",
    # grid
    "Grid", "TemperatureField", "ParabolicCylinder", "discrete_laplacian",
    "neighborhood_radius", "format_float", "read_field_csv", "write_field_csv",
    # heat
    "OperatorCoefficients", "HeatTrajectory", "stability_limit",
    "solve_dirichlet", "heat_kernel_field", "conservation_residual",
    "caloric_replacement", "cylinder_masks", "radial_average",
    "trapezoid_weights", "interior_trapezoid_weights", "write_trajectory",
    # mollifier
    "MollifierKernel", "build_kernel", "bump_profile", "admissible_mask",
    "mollify", "smoothness_report", "l2_convergence",
    # stefan1d
    "StefanSpec1D", "StefanResult", "FrontTrajectory", "SimilaritySolution",
    "similarity_oracle", "transcendental_residual", "solve_stefan",
    "write_front_csv",
    # stefan3d
    "StefanSpec3D", "Stefan3DResult", "GraphFront", "PhaseDomain",
    "coupled_step_3d", "solve3d", "stability_limit_3d", "front_field",
    # verify
    "BarrierParams", "barrier_residual_constant", "barrier_field",
    "heat_residual_field", "max_principle_audit", "initial_continuity_metric",
    "delta_of_t",
]
