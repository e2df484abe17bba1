"""The public names of ``liouville``, pinned, and input checks that name
what they reject.

Adding or removing a public function or class is then an edit of PUBLIC,
made on purpose, rather than a side effect of an import.
"""

import ast
import dataclasses
import importlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import liouville as lv
from liouville.errors import DomainError, InputError

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


def public_names() -> set[str]:
    """The names ``dir(lv)`` lists that are neither private nor a module."""
    return {
        name
        for name in dir(lv)
        if not name.startswith("_") and not isinstance(getattr(lv, name), types.ModuleType)
    }


def test_public_names_are_pinned():
    names = public_names()
    assert sorted(names - PUBLIC) == [], "new public names"
    assert sorted(PUBLIC - names) == [], "public names gone"


def test_public_names_resolve_to_their_home_module():
    for name in PUBLIC:
        value = getattr(lv, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        lv.no_such_name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from liouville import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_import_loads_no_submodule():
    # each public name loads its module on first use, so a bare import loads none
    code = "import liouville, sys; print(sorted(m for m in sys.modules if m.startswith('liouville.')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


# The package's modules, each checked for imports it never reads.
MODULES = sorted(p.name for p in Path(lv.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module's import statements bind and its code never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_is_found():
    source = "import math\nimport numpy as np\nfrom .algebra import frak_m, q_point\nfrak_m(np)\n"
    assert unused_imports(source) == ["math", "q_point"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    # no linter in the toolchain: a leftover import fails here instead
    assert unused_imports((Path(lv.__file__).parent / module).read_text()) == []


# What ROADMAP item 6 keeps out of src/, by module: caches keyed on inputs
# and settings read from the environment.
BANNED = {"functools": {"cache", "cached_property", "lru_cache"}, "os": {"environ", "getenv"}}
# A memo cache by hand: a function that stores into a module-level dict, list
# or set, by a subscript assignment or one of these methods.
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
STORES = {"setdefault", "update", "append", "add"}


def _module_containers(tree) -> set[str]:
    """The module-level names bound to a dict, list or set display or call."""
    names = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(value, CONTAINERS)
            or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in {"dict", "list", "set"})
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def caches_and_environment(source: str) -> list[str]:
    """The names of BANNED that a module imports or reads, as module.name,
    and each function that stores into a module-level container, as
    "function stores into name"."""
    tree = ast.parse(source)
    containers = _module_containers(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in BANNED:
            found.update(f"{node.module}.{a.name}" for a in node.names
                         if a.name in BANNED[node.module])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in BANNED.get(node.value.id, ()):
                found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = getattr(inner, "targets", None) or [inner.target]
                    stored = [t.value for t in targets if isinstance(t, ast.Subscript)]
                elif isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
                    stored = [inner.func.value] if inner.func.attr in STORES else []
                else:
                    continue
                found.update(f"{node.name} stores into {t.id}" for t in stored
                             if isinstance(t, ast.Name) and t.id in containers)
    return sorted(found)


def test_cache_and_environment_are_found():
    source = (
        "import functools, os\nfrom functools import lru_cache as lc, reduce\n"
        "from os import getenv\n@functools.cache\ndef f(): return os.environ.get('X')\n"
        "os.path.join('a')\n"
    )
    assert caches_and_environment(source) == [
        "functools.cache", "functools.lru_cache", "os.environ", "os.getenv"]


def test_hand_made_memo_caches_are_found():
    # stores into module-level containers, by subscript or by method; a
    # local container, a read, a constant and globals()[...] are not stores
    source = (
        "_SEEN = {}\n_ORDER: list = []\nKEYS = set()\nTABLE = {'a': 1}\nLIMIT = 3\n"
        "def solve(alpha0):\n"
        "    if alpha0 in _SEEN:\n        return _SEEN[alpha0]\n"
        "    _SEEN[alpha0] = out = TABLE['a'] + LIMIT\n    return out\n"
        "def log(x):\n    _ORDER.append(x)\n    KEYS.add(x)\n"
        "def merge(d):\n    TABLE.update(d)\n    TABLE.setdefault('b', 2)\n"
        "def fine(name, value):\n    local = {}\n    local[name] = value\n"
        "    globals()[name] = value\n    return local\n"
    )
    assert caches_and_environment(source) == [
        "log stores into KEYS", "log stores into _ORDER", "merge stores into TABLE",
        "solve stores into _SEEN"]


@pytest.mark.parametrize("module", MODULES)
def test_no_cache_and_no_environment(module):
    assert caches_and_environment((Path(lv.__file__).parent / module).read_text()) == []


def test_array_records_compare_by_identity():
    # a generated __eq__ would compare the arrays and raise numpy's
    # "truth value ... is ambiguous" ValueError; hashing would raise TypeError
    records = [
        value
        for value in (getattr(lv, name) for name in public_names())
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


def _two_regular_points(**changes):
    """Two regular points with n = 1 at rho = 8 pi: normalized mass 2."""
    args = dict(
        points=[[0.2, 0.2], [0.7, 0.7]],
        strengths=(lv.SingularityProfile(0.0),) * 2,
        matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
        rho=[8.0 * math.pi],
        h_fields=(lv.ConstantField(1.0),),
        curvature=[0.0, 0.0],
        D=[0.0],
        alpha=[0.0],
    )
    return lv.BlowupConfiguration(**{**args, **changes})


# (case id, the call, given a fixture getter, its error, what the message names)
INPUT_CHECKS = [
    ("critical-values-21-strengths",
     lambda get: lv.critical_values([lv.SingularityProfile(0.0)] * 21, 1),
     InputError, "strengths must hold at most 20 points, got 21"),
    ("critical-values-20-strengths-m-max-20",
     lambda get: lv.critical_values([lv.SingularityProfile(0.0)] * 20, 20),
     InputError, "strengths of 20 points and m_max = 20 give (m_max + 1) 2^N = 22020096 "
     "levels, over 2^20"),
    ("strength-count",
     lambda get: _two_regular_points(strengths=(lv.SingularityProfile(0.0),)),
     InputError, "strengths must have one entry per point, got 1"),
    ("h-relation-mass-2",
     lambda get: lv.h_relation_residual(_two_regular_points(), 0, 0, 0, 1),
     DomainError, "normalized mass of component 0 must exceed 2, got 2.0"),
    ("frequency-1.5",
     lambda get: lv.SinusoidalField(amplitude=0.2, frequency=(1.5, 0)),
     InputError, "frequency must be integers"),
    ("base-at-amplitude",
     lambda get: lv.SinusoidalField(amplitude=-1.0, frequency=(1, 0)),
     InputError, "base > |amplitude|"),
    ("base-below-amplitude",
     lambda get: lv.SinusoidalField(amplitude=0.5, frequency=(1, 0), base=0.25),
     InputError, "base > |amplitude|"),
    ("gstar-points-3-columns",
     lambda get: lv.gstar_matrix(lv.TorusGreen(), [[0.1, 0.2, 0.3]]),
     InputError, r"points must be an (N, 2) array, got (1, 3)"),
    ("gstar-points-3-d",
     lambda get: lv.gstar_matrix(lv.TorusGreen(), [[[0.1, 0.2]]]),
     InputError, r"points must be an (N, 2) array, got (1, 1, 2)"),
    ("eta-0", lambda get: lv.eta_rescale(get("f1_profile"), 0.0),
     InputError, "eta must be positive, got 0.0"),
    ("eta-negative", lambda get: lv.eta_rescale(get("f1_profile"), -2.0),
     InputError, "eta must be positive, got -2.0"),
    ("bubble-distance-n",
     lambda get: lv.bubble_distance(get("f1_summary"), get("f3_summary")),
     InputError, "summary_p has 1 components and summary_q 2"),
]


@pytest.mark.parametrize(
    "call, error, said", [c[1:] for c in INPUT_CHECKS], ids=[c[0] for c in INPUT_CHECKS]
)
def test_input_check_names_what_it_rejects(request, call, error, said):
    with pytest.raises(error) as info:
        call(request.getfixturevalue)
    assert type(info.value) is error and said in str(info.value)
