"""Interaction-matrix checks and the closed-form parameter-space objects.

Everything here is exact linear algebra on the interaction matrix A and the
parameter vector rho: the set of critical levels, the quadratic surface gap
Lambda_L, the normalized masses m_i = (A rho)_i / (2 pi n_L) with their
minimizer set, the symmetric point Q solving A Q = 8 pi n_L 1, region
classification between consecutive critical surfaces, and the quadratic
solved by the height ratio of two bubbling profiles.

Index sets returned by these functions are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InputError,
    LinearSolveError,
    NoRealRootError,
    UndefinedRegionError,
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


@dataclass(frozen=True)
class StructureClause:
    """One structural check: its hypothesis group, outcome and detail."""

    name: str
    hypothesis: str  # "H1" or "H2"
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    clauses: tuple[StructureClause, ...]

    @property
    def h1_ok(self) -> bool:
        return all(c.passed for c in self.clauses if c.hypothesis == "H1")

    @property
    def h2_ok(self) -> bool:
        return all(c.passed for c in self.clauses if c.hypothesis == "H2")

    def failed(self) -> list[StructureClause]:
        return [c for c in self.clauses if not c.passed]


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


def validate_structure(entries) -> StructureReport:
    """Evaluate every structural clause on a candidate interaction matrix.

    The strong clauses (symmetric, nonnegative, irreducible, invertible)
    gate construction of :class:`CoefficientMatrix`; the inverse-sign
    clauses are recorded as warnings only, since the radial solver and the
    energy machinery are well defined without them.

    Raises
    ------
    InputError
        If the input is not a finite square matrix (no clause can be
        evaluated in that case).
    """
    a = as_array(entries, "interaction matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"interaction matrix must be square, got shape {a.shape}")

    clauses = []
    sym = bool(np.allclose(a, a.T, rtol=0.0, atol=0.0))
    clauses.append(StructureClause("symmetric", "H1", sym))
    nonneg = bool(np.all(a >= 0.0))
    clauses.append(StructureClause("nonnegative", "H1", nonneg))
    irred = _is_irreducible(a)
    clauses.append(StructureClause("irreducible", "H1", irred))

    inv = None
    try:
        inv = np.linalg.inv(a)
        resid = float(np.max(np.abs(inv @ a - np.eye(a.shape[0]))))
        invertible = resid < 1e-12
        detail = f"max |A^-1 A - I| = {resid:.3e}"
    except np.linalg.LinAlgError:
        invertible = False
        detail = "singular"
    clauses.append(StructureClause("invertible", "H1", invertible, detail))

    if inv is not None:
        diag_ok = bool(np.all(np.diag(inv) <= 0.0))
        clauses.append(
            StructureClause("inverse diagonal nonpositive", "H2", diag_ok)
        )
        off = inv[~np.eye(a.shape[0], dtype=bool)]
        off_ok = bool(off.size == 0 or np.all(off >= 0.0))
        clauses.append(
            StructureClause("inverse off-diagonal nonnegative", "H2", off_ok)
        )
        rows_ok = bool(np.all(inv.sum(axis=1) >= 0.0))
        clauses.append(
            StructureClause("inverse row sums nonnegative", "H2", rows_ok)
        )
    else:
        for name in (
            "inverse diagonal nonpositive",
            "inverse off-diagonal nonnegative",
            "inverse row sums nonnegative",
        ):
            clauses.append(StructureClause(name, "H2", False, "no inverse"))

    return StructureReport(tuple(clauses))


@dataclass(frozen=True)
class CoefficientMatrix:
    """Symmetric nonnegative irreducible invertible interaction matrix.

    Carries its inverse and the sign report on the inverse. Construction
    fails unless the strong hypotheses hold; the inverse-sign checks are
    recorded in ``report`` and summarized by ``h2_ok``.
    """

    entries: np.ndarray
    inverse_entries: np.ndarray
    report: StructureReport = field(repr=False)

    @classmethod
    def from_entries(cls, entries) -> "CoefficientMatrix":
        report = validate_structure(entries)
        if not report.h1_ok:
            names = ", ".join(c.name for c in report.failed() if c.hypothesis == "H1")
            raise InputError(f"interaction matrix fails structural checks: {names}")
        a = np.array(entries, dtype=float)
        a.setflags(write=False)
        inv = np.linalg.inv(a)
        inv.setflags(write=False)
        return cls(entries=a, inverse_entries=inv, report=report)

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


def as_rho(values) -> np.ndarray:
    """Validate a parameter vector: finite, nonnegative entries."""
    rho = as_array(values, "rho")
    if rho.ndim != 1:
        raise InputError(f"rho must be a vector, got shape {rho.shape}")
    if np.any(rho < 0.0):
        raise InputError("rho entries must be nonnegative")
    return rho


def as_level(n_L) -> float:
    """Validate a critical level: a finite positive number."""
    n_L = as_number(n_L, "n_L")
    if n_L <= 0.0:
        raise InputError(f"n_L must be positive, got {n_L}")
    return n_L


@dataclass(frozen=True)
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

    Sorted ascending, deduplicated to relative tolerance 1e-12.
    """
    m_max = as_count(m_max, "m_max", 0)
    mus = [s.mu for s in strengths]
    if len(mus) > 20:
        raise InputError("too many singular points for subset enumeration")
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


def lambda_L(rho, A: CoefficientMatrix, n_L: float) -> float:
    """Quadratic gap whose zero set is the L-th critical surface."""
    x = as_rho(rho) / (2.0 * np.pi * as_level(n_L))
    return float(4.0 * x.sum() - x @ A.entries @ x)


def frak_m(rho, A: CoefficientMatrix, n_L: float) -> FrakM:
    """Normalized masses, minimum, and minimizer set (ties to 1e-12 rel)."""
    values = A.entries @ (as_rho(rho) / (2.0 * np.pi * as_level(n_L)))
    minimum = float(values.min())
    band = TIE_RTOL * max(abs(minimum), 1.0)
    minimizers = frozenset(
        int(i) for i in np.nonzero(values <= minimum + band)[0]
    )
    values.setflags(write=False)
    return FrakM(values=values, minimum=minimum, minimizers=minimizers)


def q_point(A: CoefficientMatrix, n_L: float) -> np.ndarray:
    """The point where every normalized mass equals 4: A Q = 8 pi n_L."""
    n_L = as_level(n_L)
    b = np.full(A.n, EIGHT_PI * n_L)
    try:
        q = np.linalg.solve(A.entries, b)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"singular interaction matrix: {exc}") from exc
    resid = float(np.max(np.abs(A.entries @ q - b)))
    if resid >= 1e-10 * max(1.0, EIGHT_PI * n_L):
        raise LinearSolveError(f"ill-conditioned solve, residual {resid:.3e}")
    return q


def classify_region(
    rho, A: CoefficientMatrix, sigma_values
) -> RegionClassification:
    """Locate rho between consecutive critical surfaces.

    Compares the quadratic form rho.A rho with 8 pi n_L sum(rho) for every
    critical level; equality within 1e-10 relative flags membership on
    that surface.
    """
    rho = as_rho(rho)
    sigma_values = as_array(sigma_values, "critical values")
    if sigma_values.size == 0:
        raise InputError("critical value list is empty")
    if np.any(np.diff(sigma_values) <= 0.0):
        raise InputError("critical values must be sorted ascending")
    s1 = float(rho.sum())
    if s1 == 0.0:
        raise UndefinedRegionError("rho = 0 has no region")
    s2 = float(rho @ A.entries @ rho)

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
