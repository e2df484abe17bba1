"""Numerical toolkit for radial singular Liouville systems.

Computes radial global solutions with a singular weight, their energies and
tail data, the quadratic energy identity with finite-radius defects, the
initial-value-to-energy shooting map and its Newton inversion, the
bubble-comparison scaling transforms, flat-torus Green functions, and the
closed-form leading-term coefficients of the blowup-parameter expansion.

Each public name loads its home module the first time it is read (PEP 562),
so ``import liouville`` imports none of them and a command runs only the
modules it uses; the name is then a plain attribute of the package.
"""

import importlib

_HOMES = {
    "algebra": (
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
    ),
    "blowup": (
        "BlowupConfiguration",
        "a_integral",
        "b_coefficient",
        "h_relation_residual",
        "leading_term_Q",
        "leading_term_general",
        "location_residual",
        "location_search",
    ),
    "energy": (
        "SolutionSummary",
        "asymptotic_fit_error",
        "extract_summary",
        "pohozaev_residual",
        "pohozaev_tail_table",
    ),
    "fields": (
        "CoefficientField",
        "ConstantField",
        "SinusoidalField",
        "field_from_config",
    ),
    "green": (
        "GStarMatrix",
        "TorusGreen",
        "green_eval",
        "green_gradient",
        "gstar_matrix",
        "regular_part",
        "torus_distance",
    ),
    "radial": (
        "ProblemSpec",
        "RadialProfile",
        "evaluate",
        "integrate",
        "origin_series",
        "truncated_sigma",
    ),
    "scaling": (
        "BubbleComparison",
        "ScalingHeights",
        "bubble_distance",
        "d_relation_residual",
        "eta_rescale",
        "hat_rescale",
        "height_match",
        "mu_transform",
    ),
    "shooting": ("ShootingPoint", "alpha_to_sigma", "invert_sigma"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
