"""Numerical toolkit for radial singular Liouville systems.

Computes radial global solutions with a singular weight, their energies and
tail data, the quadratic energy identity with finite-radius defects, the
initial-value-to-energy shooting map and its Newton inversion, the
bubble-comparison scaling transforms, flat-torus Green functions, and the
closed-form leading-term coefficients of the blowup-parameter expansion.
"""

from .algebra import (
    CoefficientMatrix,
    FrakM,
    HeightQuadratic,
    RegionClassification,
    SingularityProfile,
    StructureReport,
    as_rho,
    classify_region,
    critical_values,
    frak_m,
    lambda_L,
    q_point,
    solve_height_quadratic,
    validate_structure,
)
from .blowup import (
    BlowupConfiguration,
    a_integral,
    b_coefficient,
    h_relation_residual,
    leading_term_Q,
    leading_term_general,
    location_residual,
    location_search,
)
from .energy import (
    SolutionSummary,
    asymptotic_fit_error,
    extract_summary,
    pohozaev_residual,
    pohozaev_tail_table,
)
from .fields import (
    CoefficientField,
    ConstantField,
    SinusoidalField,
    field_from_config,
)
from .green import (
    GStarMatrix,
    TorusGreen,
    green_eval,
    green_gradient,
    gstar_matrix,
    regular_part,
    torus_distance,
)
from .radial import (
    ProblemSpec,
    RadialProfile,
    evaluate,
    integrate,
    origin_series,
    truncated_sigma,
)
from .scaling import (
    BubbleComparison,
    ScalingHeights,
    bubble_distance,
    d_relation_residual,
    eta_rescale,
    hat_rescale,
    height_match,
    mu_transform,
)
from .shooting import ShootingPoint, alpha_to_sigma, invert_sigma

__version__ = "0.1.0"
