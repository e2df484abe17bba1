"""The public names of ``liouville``, pinned.

Adding or removing a public function or class is then an edit of PUBLIC,
made on purpose, rather than a side effect of an import.
"""

import dataclasses
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
    "a_integral",
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


def test_array_records_compare_by_identity():
    # a generated __eq__ would compare the arrays and raise numpy's
    # "truth value ... is ambiguous" ValueError; hashing would raise TypeError
    records = [
        value
        for value in vars(lv).values()
        if dataclasses.is_dataclass(value)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(value))
    ]
    assert {cls.__name__ for cls in records} >= {
        "BlowupConfiguration",
        "CoefficientMatrix",
        "FrakM",
        "GStarMatrix",
        "ProblemSpec",
        "RadialProfile",
        "SolutionSummary",
    }
    for cls in records:
        assert cls.__eq__ is object.__eq__, cls.__name__
        assert cls.__hash__ is object.__hash__, cls.__name__
    a = lv.CoefficientMatrix([[1.0, 2.0], [2.0, 1.0]])
    b = lv.CoefficientMatrix([[1.0, 2.0], [2.0, 1.0]])
    assert (a == a, a == b, a != b) == (True, False, True)
    frak = lv.frak_m([3.0, 1.0], a, 1.0)
    assert frak == frak and frak != lv.frak_m([3.0, 1.0], a, 1.0)
    assert len({a, b, frak, frak}) == 3
