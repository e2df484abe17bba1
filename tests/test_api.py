"""The public names of ``liouville``, pinned.

Adding or removing a public function or class is then an edit of PUBLIC,
made on purpose, rather than a side effect of an import.
"""

import types

import liouville as lv

PUBLIC = {
    # algebra
    "CoefficientMatrix",
    "FrakM",
    "HeightQuadratic",
    "RegionClassification",
    "SingularityProfile",
    "StructureReport",
    "as_rho",
    "classify_region",
    "critical_values",
    "frak_m",
    "lambda_L",
    "q_point",
    "solve_height_quadratic",
    "validate_structure",
    # blowup
    "BlowupConfiguration",
    "b_coefficient",
    "h_relation_residual",
    "leading_term_Q",
    "leading_term_general",
    "location_residual",
    "location_search",
    # energy
    "SolutionSummary",
    "asymptotic_fit_error",
    "extract_summary",
    "pohozaev_residual",
    "pohozaev_tail_table",
    # fields
    "CoefficientField",
    "ConstantField",
    "SinusoidalField",
    "field_from_config",
    # green
    "GStarMatrix",
    "TorusGreen",
    "a_integral",
    "green_eval",
    "green_gradient",
    "gstar_matrix",
    "regular_part",
    "torus_distance",
    # radial
    "ProblemSpec",
    "RadialProfile",
    "evaluate",
    "integrate",
    "origin_series",
    "truncated_sigma",
    # scaling
    "BubbleComparison",
    "ScalingHeights",
    "bubble_distance",
    "d_relation_residual",
    "eta_rescale",
    "hat_rescale",
    "height_match",
    "mu_transform",
    # shooting
    "ShootingPoint",
    "alpha_to_sigma",
    "invert_sigma",
}


def test_public_names_are_pinned():
    names = {
        name
        for name, value in vars(lv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(names - PUBLIC) == [], "new public names"
    assert sorted(PUBLIC - names) == [], "public names gone"
