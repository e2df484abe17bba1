"""Interaction-matrix checks and the closed-form parameter-space objects.

Everything here is exact linear algebra on the interaction matrix A and the
parameter vector rho: the set of critical levels, the quadratic surface gap
Lambda_L, the normalized masses m_i = (A rho)_i / (2 pi n_L) with their
minimizer set, the symmetric point Q solving A Q = 8 pi n_L 1, region
classification between consecutive critical surfaces, and the quadratic
solved by the height ratio of two bubbling profiles.

Index sets returned by these functions are 0-based.

The frozen records of this package that hold numpy arrays (here
``CoefficientMatrix`` and ``FrakM``) are declared with ``eq=False``: they
compare and hash by identity, since comparing their arrays field by field
has no single truth value.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    InputError,
    NoRealRootError,
    as_array,
    as_count,
    as_number,
)

# Relative tolerance used for minimizer ties and critical-value dedup
# (double precision floor).
TIE_RTOL = 1e-12
# Relative band used to flag membership on a critical surface.
BOUNDARY_RTOL = 1e-10

EIGHT_PI = 8.0 * np.pi


# The strong hypotheses, which gate construction of CoefficientMatrix, and
# the sign conditions on the inverse, which are only recorded.
H1_CLAUSES = ("symmetric", "nonnegative", "irreducible", "invertible")
H2_CLAUSES = (
    "inverse diagonal nonpositive",
    "inverse off-diagonal nonnegative",
    "inverse row sums nonnegative",
)


@dataclass(frozen=True)
class StructureReport:
    """Outcome of each clause, by name. The H2 clauses are absent (and
    ``h2_ok`` is False) when A has no inverse."""

    clauses: Mapping[str, bool]

    def __hash__(self) -> int:  # the generated one cannot hash the mapping
        return hash(frozenset(self.clauses.items()))

    @property
    def h1_ok(self) -> bool:
        return all(self.clauses[name] for name in H1_CLAUSES)

    @property
    def h2_ok(self) -> bool:
        return all(self.clauses.get(name, False) for name in H2_CLAUSES)


def _is_irreducible(entries: np.ndarray) -> bool:
    """Connectivity of the graph with an edge wherever a_ij > 0."""
    n = entries.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and (entries[i, j] > 0.0 or i == j):
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def _structure(entries) -> tuple[np.ndarray, StructureReport, np.ndarray | None]:
    """The checked matrix, its report and its inverse (None if singular)."""
    a = as_array(entries, "interaction matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"interaction matrix must be square, got shape {a.shape}")

    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    eye = np.eye(a.shape[0], dtype=bool)
    clauses = {
        "symmetric": bool(np.array_equal(a, a.T)),
        "nonnegative": bool(np.all(a >= 0.0)),
        "irreducible": _is_irreducible(a),
        "invertible": inv is not None
        and bool(np.max(np.abs(inv @ a - eye)) < 1e-12),
    }
    if inv is not None:
        clauses["inverse diagonal nonpositive"] = bool(np.all(np.diag(inv) <= 0.0))
        clauses["inverse off-diagonal nonnegative"] = bool(np.all(inv[~eye] >= 0.0))
        clauses["inverse row sums nonnegative"] = bool(np.all(inv.sum(axis=1) >= 0.0))
    return a, StructureReport(MappingProxyType(clauses)), inv


def validate_structure(entries) -> StructureReport:
    """Evaluate every structural clause on a candidate interaction matrix.

    The strong clauses (``H1_CLAUSES``: symmetric, nonnegative, irreducible,
    invertible) gate construction of :class:`CoefficientMatrix`, however it
    is built; invertible means max |A^-1 A - I| < 1e-12. The inverse-sign
    clauses (``H2_CLAUSES``) are evaluated whenever A can be inverted and
    recorded as warnings only, since the radial solver and the energy
    machinery are well defined without them.

    Raises
    ------
    InputError
        If the input is not a finite square matrix (no clause can be
        evaluated in that case).
    """
    return _structure(entries)[1]


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """Symmetric nonnegative irreducible invertible interaction matrix.

    Every instance is checked on construction, whether it is built by
    ``from_entries``, by the constructor or by ``dataclasses.replace``: it
    fails with ``InputError`` unless the strong hypotheses hold. It carries
    the inverse that ``validate_structure`` verified, from which ``q_point``
    reads Q, and the report, whose inverse-sign checks are summarized by
    ``h2_ok``.
    """

    entries: np.ndarray
    inverse_entries: np.ndarray = field(init=False)
    report: StructureReport = field(init=False, repr=False)

    def __post_init__(self):
        a, report, inv = _structure(self.entries)
        if not report.h1_ok:
            names = ", ".join(name for name in H1_CLAUSES if not report.clauses[name])
            raise InputError(f"interaction matrix fails structural checks: {names}")
        a = a.copy()
        a.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "inverse_entries", inv)
        object.__setattr__(self, "report", report)

    @classmethod
    def from_entries(cls, entries) -> "CoefficientMatrix":
        return cls(entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def h2_ok(self) -> bool:
        return self.report.h2_ok


@dataclass(frozen=True)
class SingularityProfile:
    """Strength of one singular source: gamma in (-1, 0], mu = 1 + gamma.

    gamma = 0 encodes a regular point.
    """

    gamma: float

    def __post_init__(self):
        gamma = as_number(self.gamma, "gamma")
        if not -1.0 < gamma <= 0.0:
            raise InputError(f"gamma must lie in (-1, 0], got {gamma}")
        object.__setattr__(self, "gamma", gamma)

    @property
    def mu(self) -> float:
        return 1.0 + self.gamma

    @property
    def is_regular(self) -> bool:
        return self.gamma == 0.0


def as_rho(values, n: int) -> np.ndarray:
    """Validate a parameter vector: n finite, nonnegative entries."""
    rho = as_array(values, "rho", (n,))
    if np.any(rho < 0.0):
        raise InputError("rho entries must be nonnegative")
    return rho


def as_level(n_L) -> float:
    """Validate a critical level: a finite positive number."""
    n_L = as_number(n_L, "n_L")
    if n_L <= 0.0:
        raise InputError(f"n_L must be positive, got {n_L}")
    return n_L


@dataclass(frozen=True, eq=False)
class FrakM:
    """Normalized masses (A rho)_i / (2 pi n_L), their min and minimizers."""

    values: np.ndarray
    minimum: float
    minimizers: frozenset[int]  # 0-based


@dataclass(frozen=True)
class HeightQuadratic:
    """Coefficients of lam^2 + B lam + C = 1 + E for the height ratio."""

    B: float
    C: float
    E: float = 0.0

    def __post_init__(self):
        for name in ("B", "C", "E"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))


@dataclass(frozen=True)
class RegionClassification:
    """Position of rho relative to the critical surfaces.

    ``level`` = L means the point sits between the L-th and (L+1)-th
    surfaces (L = 0: below the first). ``boundary_index`` is the 0-based
    index into the critical list when the point lies on a surface.
    """

    level: int
    on_boundary: bool
    boundary_index: int | None = None


def critical_values(
    strengths: list[SingularityProfile], m_max: int
) -> np.ndarray:
    """All levels 8 m pi + sum of 8 pi mu over point subsets, 0 excluded.

    Sorted ascending, deduplicated to relative tolerance 1e-12; m_max <= 20,
    at most N = 20 points, and at most 2^20 levels (m_max + 1) 2^N to build.
    """
    m_max = as_count(m_max, "m_max", 0, 20)
    if not isinstance(strengths, (list, tuple)) or not all(
        isinstance(s, SingularityProfile) for s in strengths
    ):
        raise InputError(f"strengths must be a list of SingularityProfiles, got {strengths!r}")
    mus = [s.mu for s in strengths]
    if len(mus) > 20:
        raise InputError(f"strengths must hold at most 20 points, got {len(mus)}")
    if (m_max + 1) * 2 ** len(mus) > 2**20:
        raise InputError(f"strengths of {len(mus)} points and m_max = {m_max} give "
                         f"(m_max + 1) 2^N = {(m_max + 1) * 2 ** len(mus)} levels, over 2^20")
    subset_sums = set()
    for k in range(len(mus) + 1):
        for combo in itertools.combinations(mus, k):
            subset_sums.add(sum(combo))
    values = sorted(
        EIGHT_PI * (m + s) for m in range(m_max + 1) for s in subset_sums
    )
    out: list[float] = []
    for v in values:
        if v <= 0.0:
            continue
        if out and abs(v - out[-1]) <= TIE_RTOL * abs(v):
            continue
        out.append(v)
    return np.array(out)


def _rho_form(rho: np.ndarray, A: CoefficientMatrix) -> float:
    """The quadratic form rho.A.rho (of rho or a multiple of it), which
    must be a finite float."""
    with np.errstate(over="ignore", invalid="ignore"):
        form = float(rho @ A.entries @ rho)
    if not np.isfinite(form):
        raise InputError(f"rho is out of range: its quadratic form is {form}")
    return form


def lambda_L(rho, A: CoefficientMatrix, n_L: float) -> float:
    """Quadratic gap whose zero set is the L-th critical surface."""
    x = as_rho(rho, A.n) / (2.0 * np.pi * as_level(n_L))
    return float(4.0 * x.sum() - _rho_form(x, A))


def frak_m(rho, A: CoefficientMatrix, n_L: float) -> FrakM:
    """Normalized masses, minimum, and minimizer set (ties to 1e-12 rel)."""
    values = A.entries @ (as_rho(rho, A.n) / (2.0 * np.pi * as_level(n_L)))
    minimum = float(values.min())
    band = TIE_RTOL * max(abs(minimum), 1.0)
    minimizers = frozenset(
        int(i) for i in np.nonzero(values <= minimum + band)[0]
    )
    values.setflags(write=False)
    return FrakM(values=values, minimum=minimum, minimizers=minimizers)


def q_point(A: CoefficientMatrix, n_L: float) -> np.ndarray:
    """The point where every normalized mass equals 4: A Q = 8 pi n_L.

    Read from the inverse that construction verified: Q = 8 pi n_L A^-1 1.
    """
    return EIGHT_PI * as_level(n_L) * A.inverse_entries.sum(axis=1)


def classify_region(
    rho, A: CoefficientMatrix, sigma_values
) -> RegionClassification:
    """Locate rho between consecutive critical surfaces.

    Compares the quadratic form rho.A rho with 8 pi n_L sum(rho) for every
    critical level; equality within 1e-10 relative flags membership on
    that surface.
    """
    rho = as_rho(rho, A.n)
    sigma_values = as_array(sigma_values, "critical values")
    if sigma_values.ndim != 1:
        raise InputError(f"critical values must be 1-D, got shape {sigma_values.shape}")
    if sigma_values.size == 0:
        raise InputError("critical value list is empty")
    if np.any(np.diff(sigma_values) <= 0.0):
        raise InputError("critical values must be sorted ascending")
    s2 = _rho_form(rho, A)
    s1 = float(rho.sum())
    if s1 == 0.0:
        raise InputError(f"rho = {rho.tolist()} has no region: its entries sum to 0")

    level = 0
    for idx, c in enumerate(sigma_values):
        lhs = c * s1
        scale = max(abs(s2), abs(lhs))
        if abs(s2 - lhs) <= BOUNDARY_RTOL * scale:
            return RegionClassification(
                level=idx, on_boundary=True, boundary_index=idx
            )
        if s2 > lhs:
            level = idx + 1
    return RegionClassification(level=level, on_boundary=False)


def solve_height_quadratic(q: HeightQuadratic) -> float:
    """Root near 1 of lam^2 + B lam + C = 1 + E (the "+" branch)."""
    disc = q.B * q.B / 4.0 - (q.C - 1.0 - q.E)
    if disc < 0.0:
        raise NoRealRootError(f"negative discriminant {disc:.3e}")
    return float(-q.B / 2.0 + np.sqrt(disc))
