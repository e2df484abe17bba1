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
* the gradient conditions locating regular blowup points, with a Newton
  search for their zeros on the exact Hessians, and
* the pairwise compatibility residuals of the coefficient fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import CoefficientMatrix, FrakM, SingularityProfile, frak_m, lambda_L, q_point
from .errors import (
    DomainError,
    GeometryError,
    InputError,
    NonConvergenceError,
    WrongRegimeError,
    as_array,
    as_count,
    as_fraction,
)
from .fields import CoefficientField
from .green import (
    GStarMatrix,
    TorusGreen,
    _green,
    a_integral,
    cell_fit,
    gstar_matrix,
)

_TWO_PI = 2.0 * math.pi
_Q_RTOL = 1e-8
_SURFACE_RTOL = 1e-8
_MAX_NEWTON_STEPS = 50
_MAX_HALVINGS = 30


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
        gstar = gstar_matrix(self.geometry, self.points)
        pts = gstar.points
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
        for name in ("rho", "curvature", "D", "alpha"):
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "strengths", tuple(self.strengths))
        object.__setattr__(self, "h_fields", tuple(self.h_fields))
        object.__setattr__(self, "frak", frak_m(self.rho, self.matrix, self.n_L))
        object.__setattr__(self, "gstar", gstar)

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

    def is_at_q(self) -> bool:
        """Whether rho sits at the symmetric point (all masses equal 4)."""
        return bool(np.max(np.abs(self.frak.values - 4.0)) <= 4.0 * _Q_RTOL)

    def gstar_gradient(self, t: int) -> np.ndarray:
        """sum_l mu_l grad_1 Gstar(p_t, p_l); the diagonal term grad gamma is 0."""
        return self._gstar_derivative(t, 1)

    def gstar_hessian(self, t: int) -> np.ndarray:
        """sum_l mu_l Hess_1 Gstar(p_t, p_l); grad gamma(p, p) = 0 adds nothing."""
        return self._gstar_derivative(t, 2)

    def _gstar_derivative(self, t: int, order: int) -> np.ndarray:
        others = np.arange(self.n_points) != t
        terms = _green(self.geometry, self.points[t] - self.points[others], order=order)
        return (self.mus[others].reshape((-1,) + (1,) * order) * terms).sum(axis=0)


def _regular_index(config: BlowupConfiguration, t) -> int:
    """t, checked to index a regular point of the configuration."""
    t = as_count(t, "t", 0, config.n_points - 1)
    if t not in config.regular_set:
        raise DomainError(f"point {t} is a singular source, not a regular point")
    return t


def _require_on_surface(config: BlowupConfiguration) -> None:
    gap = lambda_L(config.rho, config.matrix, config.n_L)
    scale = 4.0 * float(np.sum(config.rho)) / (_TWO_PI * config.n_L)
    if abs(gap) > _SURFACE_RTOL * max(scale, 1.0):
        raise InputError(
            f"rho is not on the critical surface: surface gap {gap:.3e}"
        )


def b_coefficient(config: BlowupConfiguration, i: int, t: int) -> float:
    """Per-point coefficient of the expansion at the symmetric point.

    e^(D_i - alpha_i) [ Delta(log h_i)(p_t)/4 - K(p_t)/2 + 2 pi n_L
    + |grad(log h_i)(p_t) + 8 pi sum_l mu_l grad_1 Gstar(p_t, p_l)|^2 / 4 ].
    """
    i = as_count(i, "i", 0, config.n - 1)
    t = _regular_index(config, t)
    p_t = config.points[t]
    fld = config.h_fields[i]
    grad_term = fld.grad_log(p_t) + 4.0 * _TWO_PI * config.gstar_gradient(t)
    bracket = (
        0.25 * fld.lap_log(p_t)
        - 0.5 * float(config.curvature[t])
        + _TWO_PI * config.n_L
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


def leading_term_general(
    config: BlowupConfiguration, delta0: float, eps_k: float
) -> LeadingTermGeneral:
    """Leading coefficient D and the predicted surface gap away from Q.

    D sums B_it times the delta0 -> 0 limit of the cell-domain integrals
    over the minimizing components and all points; the limit is realized by
    evaluating at delta0 and delta0/2 and extrapolating with the known
    leading power. The prediction is D eps_k^(m - 2) / n_L.
    """
    eps_k = as_fraction(eps_k, "eps_k")
    fm = config.frak.minimum
    if fm <= 2.0:
        raise DomainError(f"minimal normalized mass must exceed 2, got {fm}")
    _require_on_surface(config)
    if config.is_at_q() and config.regular_set:
        raise WrongRegimeError(
            "rho is at the symmetric point with regular blowup points; "
            "use leading_term_Q"
        )
    for t in range(config.n_points):
        cell_fit(config, t, delta0)
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
    eps_k = as_fraction(eps_k, "eps_k")
    total = sum(
        b_coefficient(config, i, t)
        for i in range(config.n)
        for t in config.regular_set
    )
    return -4.0 * total * eps_k**2 * math.log(1.0 / eps_k)


def _location_weights(config: BlowupConfiguration, t: int, regime: str):
    """Component weights and Green coupling of the gradient condition."""
    _regular_index(config, t)
    if regime == "general":
        return config.rho, _TWO_PI * config.frak.minimum
    if regime == "Q":
        return q_point(config.matrix, config.n_L), 4.0 * _TWO_PI
    raise InputError(f"regime must be 'general' or 'Q', got {regime!r}")


def location_residual(config: BlowupConfiguration, t: int, regime: str) -> np.ndarray:
    """Gradient condition at a regular blowup point.

    regime "general": sum_i rho_i [grad log h_i(p_t)
        + 2 pi m sum_s mu_s grad_1 Gstar(p_t, p_s)];
    regime "Q": the same with weights q_i from the symmetric point and
        coupling 8 pi instead of 2 pi m. Small residuals characterize true
        blowup locations.
    """
    weights, coupling = _location_weights(config, t, regime)
    green_term = coupling * config.gstar_gradient(t)
    p_t = config.points[t]
    return sum(
        w * (h.grad_log(p_t) + green_term) for w, h in zip(weights, config.h_fields)
    )


def _location_jacobian(config: BlowupConfiguration, t: int, regime: str) -> np.ndarray:
    """Exact Jacobian of location_residual in p_t: the same sum of Hessians."""
    weights, coupling = _location_weights(config, t, regime)
    green_term = coupling * config.gstar_hessian(t)
    p_t = config.points[t]
    return sum(
        w * (h.hess_log(p_t) + green_term) for w, h in zip(weights, config.h_fields)
    )


def location_search(
    config: BlowupConfiguration, t: int, regime: str, tol: float = 1e-10
):
    """Move point t to a zero of its location residual; the others stay fixed.

    Damped Newton on location_residual(p_t) = 0 with the exact Jacobian
    (Hessians of log h_i and of the Green function). The step solves
    J s = -r in the least-squares sense, so a Jacobian that is singular
    along a symmetry of the data (say a field constant in y) still moves
    p_t onto the zero set. Each step is halved, at most 30 times, until
    |r|^2 decreases; a trial closer than 1e-4 to another point is rejected
    like one that does not decrease. Iterates are wrapped into the
    periods. Once the full step's sup norm is at most ``tol`` (in (0, 1)),
    that step is taken and the search ends. At most 50 steps.

    Returns (point, residual there).

    Raises
    ------
    NonConvergenceError
        After 50 steps, when no halving decreases |r|^2, or when J is
        singular and the residual has a part above ``tol`` that J cannot
        remove; carries the best point and its sup-norm residual.
    """
    tol = as_fraction(tol, "tol")
    periods = np.array([config.geometry.lx, config.geometry.ly])

    def at(p):
        pts = config.points.copy()
        pts[t] = np.mod(p, periods)
        moved = replace(config, points=pts)
        return moved, location_residual(moved, t, regime)

    def failure(message):
        return NonConvergenceError(
            f"location search for point {t}: {message}",
            best=current.points[t].copy(),
            best_residual=float(np.max(np.abs(resid))),
        )

    current, resid = config, location_residual(config, t, regime)
    for _ in range(_MAX_NEWTON_STEPS):
        jac = _location_jacobian(current, t, regime)
        step, _, rank, _ = np.linalg.lstsq(jac, -resid, rcond=None)
        if rank < 2 and np.max(np.abs(resid + jac @ step)) > tol:
            raise failure("singular Jacobian with the residual above tol")
        p = current.points[t]
        if np.max(np.abs(step)) <= tol:
            moved, moved_resid = at(p + step)
            return moved.points[t].copy(), moved_resid
        merit, lam = float(resid @ resid), 1.0
        for _ in range(_MAX_HALVINGS + 1):
            try:
                trial, trial_resid = at(p + lam * step)
            except GeometryError:  # too close to another point
                lam *= 0.5
                continue
            if float(trial_resid @ trial_resid) < merit:
                break
            lam *= 0.5
        else:
            raise failure(f"no decrease of |r|^2 in {_MAX_HALVINGS} halvings")
        current, resid = trial, trial_resid
    raise failure(f"no convergence in {_MAX_NEWTON_STEPS} steps")


def h_relation_residual(
    config: BlowupConfiguration, i: int, j: int, t: int, s: int
) -> float:
    """Compatibility defect of the coefficient fields between two points.

    With H_it = 2 pi m_i/(m_i - 2) sum_l mu_l Gstar(p_t, p_l)
    + log(h_i(p_t) / mu_t^(m_i)) / (m_i - 2), returns
    (H_it - H_is) - (H_jt - H_js). True bubbling data drive this to the
    size of the expansion error.
    """
    i = as_count(i, "i", 0, config.n - 1)
    j = as_count(j, "j", 0, config.n - 1)
    t = as_count(t, "t", 0, config.n_points - 1)
    s = as_count(s, "s", 0, config.n_points - 1)
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
