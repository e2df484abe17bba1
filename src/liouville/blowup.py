"""Closed-form leading-term coefficients for blowup configurations.

A blowup configuration is a set of points on the flat torus with singular
strengths mu_t summing to the critical level n_L, an interaction matrix, a
parameter vector rho on the critical surface, per-component coefficient
fields, Gaussian curvature samples, and the tail constants (D_i, alpha_i)
of the limiting radial profile. From these the module assembles:

* the per-point coefficients b_it of the two-sided expansion at the
  symmetric point Q (regular blowup points only),
* the leading-term coefficient D away from Q, combining the cell-domain
  integrals with the pairwise Green-function weights B_it,
* the gradient conditions locating regular blowup points, and
* the pairwise compatibility residuals of the coefficient fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .algebra import CoefficientMatrix, FrakM, SingularityProfile, frak_m, lambda_L, q_point
from .errors import (
    DomainError,
    GeometryError,
    InputError,
    WrongRegimeError,
    as_array,
    as_number,
)
from .fields import CoefficientField
from .green import (
    GStarMatrix,
    TorusGreen,
    a_integral,
    green_gradient,
    gstar_matrix,
)

_TWO_PI = 2.0 * math.pi
_Q_RTOL = 1e-8
_SURFACE_RTOL = 1e-8


@dataclass(frozen=True)
class BlowupConfiguration:
    """Blowup points with strengths, fields and limit constants.

    ``D`` and ``alpha`` are per-component constants taken from an extracted
    radial summary chosen by the caller; this module never manufactures
    them. ``curvature`` holds K(p_t) per point (0 on the flat torus).
    """

    points: np.ndarray
    strengths: tuple[SingularityProfile, ...]
    matrix: CoefficientMatrix
    rho: np.ndarray
    h_fields: tuple[CoefficientField, ...]
    curvature: np.ndarray
    D: np.ndarray
    alpha: np.ndarray
    geometry: TorusGreen = TorusGreen()
    frak: FrakM = field(init=False, repr=False)
    gstar: GStarMatrix = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(as_array(self.points, "points"))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InputError(f"points must be (N, 2), got {pts.shape}")
        n_pts, n = pts.shape[0], self.matrix.n
        if len(self.strengths) != n_pts:
            raise InputError("one strength per point is required")
        if len(self.h_fields) != n:
            raise InputError("one coefficient field per component is required")
        object.__setattr__(self, "points", pts)
        shapes = {"rho": (n,), "curvature": (n_pts,), "D": (n,), "alpha": (n,)}
        for name, shape in shapes.items():
            object.__setattr__(self, name, as_array(getattr(self, name), name, shape))
        for i, f in enumerate(self.h_fields):
            for p in pts:
                if float(f.value(p)) <= 0.0:
                    raise InputError(f"coefficient field {i} is not positive")
        for name in ("points", "rho", "curvature", "D", "alpha"):
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "strengths", tuple(self.strengths))
        object.__setattr__(self, "h_fields", tuple(self.h_fields))
        object.__setattr__(self, "frak", frak_m(self.rho, self.matrix, self.n_L))
        object.__setattr__(self, "gstar", gstar_matrix(self.geometry, pts))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def mus(self) -> np.ndarray:
        return np.array([s.mu for s in self.strengths])

    @property
    def n_L(self) -> float:
        """Critical level carried by the configuration: sum of strengths."""
        return float(sum(s.mu for s in self.strengths))

    @property
    def regular_set(self) -> tuple[int, ...]:
        """Indices of regular blowup points (strength 1)."""
        return tuple(t for t, s in enumerate(self.strengths) if s.is_regular)

    def is_at_q(self, rtol: float = _Q_RTOL) -> bool:
        """Whether rho sits at the symmetric point (all masses equal 4)."""
        return bool(np.max(np.abs(self.frak.values - 4.0)) <= 4.0 * rtol)

    def gstar_gradient(self, t: int) -> np.ndarray:
        """sum_l mu_l grad_1 Gstar(p_t, p_l); the diagonal term grad gamma is 0."""
        total = np.zeros(2)
        for l in range(self.n_points):
            if l != t:
                total += self.mus[l] * green_gradient(
                    self.geometry, self.points[t], self.points[l]
                )
        return total


def _require_regular(config: BlowupConfiguration, t: int) -> None:
    if t not in config.regular_set:
        raise DomainError(f"point {t} is a singular source, not a regular point")


def _require_on_surface(config: BlowupConfiguration) -> None:
    gap = lambda_L(config.rho, config.matrix, config.n_L)
    scale = 4.0 * float(np.sum(config.rho)) / (_TWO_PI * config.n_L)
    if abs(gap) > _SURFACE_RTOL * max(scale, 1.0):
        raise InputError(
            f"rho is not on the critical surface: surface gap {gap:.3e}"
        )


def b_coefficient(
    config: BlowupConfiguration, i: int, t: int, level_mass: float | None = None
) -> float:
    """Per-point coefficient of the expansion at the symmetric point.

    e^(D_i - alpha_i) [ Delta(log h_i)(p_t)/4 - K(p_t)/2 + 2 pi n_L
    + |grad(log h_i)(p_t) + 8 pi sum_l mu_l grad_1 Gstar(p_t, p_l)|^2 / 4 ].

    ``level_mass`` overrides the mass sum n_L in the constant term for
    callers that want to reinterpret it.
    """
    _require_regular(config, t)
    mass = config.n_L if level_mass is None else as_number(level_mass, "level_mass")
    p_t = config.points[t]
    fld = config.h_fields[i]
    grad_term = fld.grad_log(p_t) + 4.0 * _TWO_PI * config.gstar_gradient(t)
    bracket = (
        0.25 * fld.lap_log(p_t)
        - 0.5 * float(config.curvature[t])
        + _TWO_PI * mass
        + 0.25 * float(grad_term @ grad_term)
    )
    return math.exp(float(config.D[i] - config.alpha[i])) * bracket


@dataclass(frozen=True)
class LeadingTermGeneral:
    """Leading coefficient away from the symmetric point, with diagnostics."""

    D: float
    prediction: float
    eps_k: float
    frak_m: float
    cell_terms: tuple  # rows (i, t, B_it, A(delta0), A(delta0/2), extrapolated)


def _as_eps(eps_k) -> float:
    """The blowup scale of a leading-term prediction: a number in (0, 1)."""
    eps_k = as_number(eps_k, "eps_k")
    if not 0.0 < eps_k < 1.0:
        raise InputError(f"eps_k must lie in (0, 1), got {eps_k}")
    return eps_k


def leading_term_general(
    config: BlowupConfiguration, delta0: float, eps_k: float
) -> LeadingTermGeneral:
    """Leading coefficient D and the predicted surface gap away from Q.

    D sums B_it times the delta0 -> 0 limit of the cell-domain integrals
    over the minimizing components and all points; the limit is realized by
    evaluating at delta0 and delta0/2 and extrapolating with the known
    leading power. The prediction is D eps_k^(m - 2) / n_L.
    """
    eps_k = _as_eps(eps_k)
    fm = config.frak.minimum
    if fm <= 2.0:
        raise DomainError(f"minimal normalized mass must exceed 2, got {fm}")
    _require_on_surface(config)
    if config.is_at_q() and config.regular_set:
        raise WrongRegimeError(
            "rho is at the symmetric point with regular blowup points; "
            "use leading_term_Q"
        )
    mus = config.mus
    gstar_rows = config.gstar.values @ mus
    rows = []
    total = 0.0
    for i in sorted(config.frak.minimizers):
        h_i = config.h_fields[i]
        h_ref = float(h_i.value(config.points[0]))
        coeff_ref = math.exp(float(config.D[i] - config.alpha[i]))
        for t in range(config.n_points):
            b_it = (
                math.exp(_TWO_PI * fm * float(gstar_rows[t] - gstar_rows[0]))
                * float(h_i.value(config.points[t]))
                / h_ref
                * coeff_ref
            )
            a_full = a_integral(config, i, t, delta0)
            a_half = a_integral(config, i, t, delta0 / 2.0)
            decay = mus[t] * (2.0 - fm) + 2.0  # leading delta0 power of the gap
            w = 2.0 ** (-decay)
            a_lim = (a_half - w * a_full) / (1.0 - w)
            rows.append((i, t, b_it, a_full, a_half, a_lim))
            total += b_it * a_lim
    prediction = total * eps_k ** (fm - 2.0) / config.n_L
    return LeadingTermGeneral(
        D=total,
        prediction=prediction,
        eps_k=eps_k,
        frak_m=fm,
        cell_terms=tuple(rows),
    )


def leading_term_Q(config: BlowupConfiguration, eps_k: float) -> float:
    """Predicted surface gap when rho sits at the symmetric point.

    -4 sum_i sum_{t regular} b_it eps_k^2 log(1/eps_k); requires all
    normalized masses to equal 4 and at least one regular point.
    """
    if not config.is_at_q():
        raise WrongRegimeError(
            "rho is away from the symmetric point; use leading_term_general"
        )
    if not config.regular_set:
        raise WrongRegimeError(
            "no regular blowup point: the symmetric-point expansion is empty"
        )
    eps_k = _as_eps(eps_k)
    total = sum(
        b_coefficient(config, i, t)
        for i in range(config.n)
        for t in config.regular_set
    )
    return -4.0 * total * eps_k**2 * math.log(1.0 / eps_k)


def location_residual(config: BlowupConfiguration, t: int, regime: str) -> np.ndarray:
    """Gradient condition at a regular blowup point.

    regime "general": sum_i rho_i [grad log h_i(p_t)
        + 2 pi m sum_s mu_s grad_1 Gstar(p_t, p_s)];
    regime "Q": the same with weights q_i from the symmetric point and
        coupling 8 pi instead of 2 pi m. Small residuals characterize true
        blowup locations.
    """
    _require_regular(config, t)
    green_term = config.gstar_gradient(t)
    if regime == "general":
        weights = config.rho
        coupling = _TWO_PI * config.frak.minimum
    elif regime == "Q":
        weights = q_point(config.matrix, config.n_L)
        coupling = 4.0 * _TWO_PI
    else:
        raise InputError(f"regime must be 'general' or 'Q', got {regime!r}")
    total = np.zeros(2)
    for i in range(config.n):
        total += weights[i] * (
            config.h_fields[i].grad_log(config.points[t]) + coupling * green_term
        )
    return total


def location_search(
    config: BlowupConfiguration, t: int, regime: str, tol: float = 1e-10
):
    """Move point t to locally minimize the squared location residual.

    Returns (optimized point, residual there). The other points stay fixed.
    """
    _require_regular(config, t)

    def moved(p):
        pts = config.points.copy()
        pts[t] = p
        return BlowupConfiguration(
            points=pts,
            strengths=config.strengths,
            matrix=config.matrix,
            rho=config.rho,
            h_fields=config.h_fields,
            curvature=config.curvature,
            D=config.D,
            alpha=config.alpha,
            geometry=config.geometry,
        )

    def objective(p):
        try:
            r = location_residual(moved(p), t, regime)
        except GeometryError:
            return 1e6
        return float(r @ r)

    result = optimize.minimize(
        objective,
        config.points[t],
        method="Nelder-Mead",
        options={"xatol": tol, "fatol": tol**2, "maxiter": 400},
    )
    best = np.mod(result.x, [config.geometry.lx, config.geometry.ly])
    return best, location_residual(moved(best), t, regime)


def h_relation_residual(
    config: BlowupConfiguration, i: int, j: int, t: int, s: int
) -> float:
    """Compatibility defect of the coefficient fields between two points.

    With H_it = 2 pi m_i/(m_i - 2) sum_l mu_l Gstar(p_t, p_l)
    + log(h_i(p_t) / mu_t^(m_i)) / (m_i - 2), returns
    (H_it - H_is) - (H_jt - H_js). True bubbling data drive this to the
    size of the expansion error.
    """
    if t == s:
        raise InputError("compatibility residual needs two distinct points")
    mus = config.mus
    gstar_rows = config.gstar.values @ mus

    def h_term(comp: int, pt: int) -> float:
        fm_i = float(config.frak.values[comp])
        if fm_i <= 2.0:
            raise DomainError(
                f"normalized mass of component {comp} must exceed 2, got {fm_i}"
            )
        h_val = float(config.h_fields[comp].value(config.points[pt]))
        return (
            _TWO_PI * fm_i / (fm_i - 2.0) * float(gstar_rows[pt])
            + math.log(h_val / mus[pt] ** fm_i) / (fm_i - 2.0)
        )

    return (h_term(i, t) - h_term(i, s)) - (h_term(j, t) - h_term(j, s))
