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
* the gradient conditions locating regular blowup points, with a damped
  Newton search (``newton``) for their zeros on the exact Hessians, and
* the pairwise compatibility residuals of the coefficient fields.

Which expansion applies is the configuration's ``regime``: "Q" when rho
sits at Q and some blowup point is regular, "general" otherwise.

Away from Q, D = sum_it B_it A_it, where B_it is a Green-function weight
and A_it the delta0 -> 0 limit of the cell-domain integral ``a_integral``:
over the Voronoi cell of p_t minus the ball of radius delta0, with
P = (2 - m) mu_t and the log singularity of G(x, p_t) absorbed into the
radial power r^(P - 2). Each sector between the cell's corner angles is a
rectangle in (theta, tau), where v = r^P / P is linear in tau. One
adaptive product Gauss-Kronrod cubature per sector evaluates G at all
nodes of a panel, or of both halves of a bisected one, and all sources in
one batch. Over an annulus a < r < b inside the cell the same substitution
gives one rectangle [0, 2 pi] x [0, 1] with no corner breaks. So
``leading_term_general`` integrates each cell once, at radius delta0, and
gets the cell integral at delta0/2 by adding the annulus
delta0/2 < r < delta0:

    A(delta0/2) = A(delta0) + ((delta0/2)^P - delta0^P) / mu_t
                  - (m - 2)/(2 pi) I(delta0/2, delta0),

I being the integrand over the annulus, inside the cell since delta0 fits
it. A(delta0) - A(0) falls off like delta0^(P + 2), and the limit is
extrapolated from the two radii with that power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CoefficientMatrix, FrakM, SingularityProfile, frak_m, lambda_L
from .errors import (
    _LOG_FLOAT_MAX,
    DomainError,
    GeometryError,
    InputError,
    NonConvergenceError,
    WrongRegimeError,
    as_array,
    as_count,
    as_fraction,
    as_number,
)
from .fields import CoefficientField
from .green import GStarMatrix, TorusGreen, _green, _length, gstar_matrix, wrap_displacement
from .newton import damped_newton

_TWO_PI = 2.0 * math.pi
_Q_RTOL = 1e-8
_SURFACE_RTOL = 1e-8
# The sup norm of the location residual at which location_search stops.
_LOCATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BlowupConfiguration:
    """Blowup points with strengths, fields and limit constants.

    ``D`` and ``alpha`` are per-component constants taken from an extracted
    radial summary chosen by the caller; this module never manufactures
    them, and each e^(D_i - alpha_i) must be a finite float. ``curvature``
    holds K(p_t) per point (0 on the flat torus). ``points`` are stored
    reduced modulo the periods (``gstar_matrix``) before anything reads them.
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
            raise InputError(f"strengths must have one entry per point, got {len(self.strengths)}")
        if len(self.h_fields) != n:
            raise InputError("one coefficient field per component is required")
        object.__setattr__(self, "points", pts)
        shapes = {"rho": (n,), "curvature": (n_pts,), "D": (n,), "alpha": (n,)}
        for name, shape in shapes.items():
            object.__setattr__(self, name, as_array(getattr(self, name), name, shape))
        if np.any(self.D - self.alpha > _LOG_FLOAT_MAX):
            raise InputError(f"D = {self.D.tolist()}: e^(D_i - alpha_i) overflows")
        _require_positive(self.h_fields, pts)
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

    @property
    def regime(self) -> str:
        """The expansion that applies: "Q" at the symmetric point with a
        regular blowup point, "general" otherwise."""
        return "Q" if self.is_at_q() and self.regular_set else "general"

    def gstar_gradient(self, t: int) -> np.ndarray:
        """sum_l mu_l grad_1 Gstar(p_t, p_l); the diagonal term grad gamma is 0."""
        t = as_count(t, "t", 0, self.n_points - 1)
        return _point_green(self, t, _displacements(self, t, self.points[t]), 1)


def _require_positive(h_fields, points) -> None:
    for i, f in enumerate(h_fields):
        if np.any(f.value(points) <= 0.0):
            raise InputError(f"coefficient field {i} is not positive")


def _displacements(config: BlowupConfiguration, t: int, p) -> np.ndarray:
    """p - p_l for the points l != t, wrapped into the periods: shape
    (..., N - 1, 2) for points p of shape (..., 2)."""
    others = config.points[np.arange(config.n_points) != t]
    return wrap_displacement(config.geometry, p[..., None, :] - others)


def _point_green(config: BlowupConfiguration, t: int, w, order: int) -> np.ndarray:
    """sum_{l != t} mu_l D^order_1 G(p, p_l): point t's Green terms with p_t
    moved to p and the other points where they are, from the wrapped
    displacements w = p - p_l (``_displacements``), of shape (..., 2) at
    order 1 and (..., 2, 2) at order 2 for points p of shape (..., 2)."""
    others = np.arange(config.n_points) != t
    terms = _green(config.geometry, w, order=order)
    return (config.mus[others].reshape((-1,) + (1,) * order) * terms).sum(axis=-1 - order)


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
    + |grad(log h_i)(p_t) + 8 pi sum_l mu_l grad_1 Gstar(p_t, p_l)|^2 / 4 ];
    an InputError naming D where that product overflows.
    """
    i = as_count(i, "i", 0, config.n - 1)
    t = _regular_index(config, t)
    p_t = config.points[t]
    fld = config.h_fields[i]
    grad_term = fld.grad_log(p_t) + 4.0 * _TWO_PI * config.gstar_gradient(t)
    bracket = (
        0.25 * float(fld.lap_log(p_t))
        - 0.5 * float(config.curvature[t])
        + _TWO_PI * config.n_L
        + 0.25 * float(grad_term @ grad_term)
    )
    b = math.exp(float(config.D[i] - config.alpha[i])) * bracket
    if not math.isfinite(b):
        raise InputError(
            f"D = {config.D.tolist()}: b at i = {i + 1}, t = {t + 1}, e^(D_i - alpha_i) "
            f"times {bracket:.6e}, overflows"
        )
    return b


# The cell-domain integral A_it (see the module docstring).

# Smallest delta0: on the inner circle delta0/2 of the annulus the offset
# x - p_t of a torus point keeps half its digits; from about 1e-17 it
# rounds to 0, where the Green kernel takes the log of 0.
_DELTA0_MIN = 2.0**-25

# 15-point Gauss-Kronrod pair (QUADPACK constants).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469]
)
# All 15 nodes on [-1, 1]; the Gauss weights are zero on the Kronrod-only ones.
_NODES = np.concatenate([-_XGK, _XGK[6::-1]])
_KRONROD = np.concatenate([_WGK, _WGK[6::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.concatenate([_WG, _WG[2::-1]])

MAX_PANELS = 600
# The relative error each sector's cubature in a_integral aims at.
EPSREL = 1e-8


def _nodes(lo: float, hi: float) -> np.ndarray:
    """The 15 Gauss-Kronrod nodes on [lo, hi]."""
    return 0.5 * (lo + hi + (hi - lo) * _NODES)


def _panel(vals, box):
    """Value, error and worse axis of a panel from f's K x K values on its nodes.

    An axis's error is the value minus the rule with Gauss weights on it.
    """
    (a, b), (c, d) = box
    vals = (0.25 * (b - a) * (d - c)) * vals
    rows, cols = vals @ _KRONROD, _KRONROD @ vals
    value = float(_KRONROD @ rows)
    errs = abs(value - float(_GAUSS @ rows)), abs(value - float(cols @ _GAUSS))
    return value, errs[0] + errs[1], int(errs[1] > errs[0]), box


def _cubature(f, box):
    """Globally adaptive product Gauss-Kronrod cubature over a rectangle.

    f maps node vectors along the two axes to the grid of its values.
    Bisects the panel with the largest error along its worse axis until the
    summed error meets max(1e-13, EPSREL |total|); both halves take one
    call of f, on the bisected axis's 30 nodes. Returns the total and the
    number of panels evaluated: one, and two more per bisection, so f is
    called (panels + 1) / 2 times.
    """
    panels = [_panel(f(_nodes(*box[0]), _nodes(*box[1])), box)]
    while True:
        total = sum(p[0] for p in panels)
        err = sum(p[1] for p in panels)
        if err <= max(1e-13, EPSREL * abs(total)):
            return total, 2 * len(panels) - 1
        if len(panels) >= MAX_PANELS:
            raise GeometryError(
                f"quadrature did not converge: error {err:.3e} "
                f"with {MAX_PANELS} panels"
            )
        worst = max(range(len(panels)), key=lambda k: panels[k][1])
        _, _, axis, box = panels.pop(worst)
        lo, hi = box[axis]
        halves = (lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)
        grid = [_nodes(*box[0]), _nodes(*box[1])]
        grid[axis] = np.concatenate([_nodes(*half) for half in halves])
        for half, vals in zip(halves, np.split(f(*grid), 2, axis=axis)):
            panels.append(_panel(vals, (half, box[1]) if axis == 0 else (box[0], half)))


def _cell_geometry(geom: TorusGreen, points: np.ndarray, t: int):
    """Half-plane data of the Voronoi cell of points[t] among all images."""
    shifts = np.array([(a * geom.lx, b * geom.ly) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    vecs = (points[:, None, :] + shifts - points[t]).reshape(-1, 2)
    vecs = np.delete(vecs, 9 * t + 4, axis=0)  # p_t itself, with no shift
    dists = 0.5 * np.hypot(vecs[:, 0], vecs[:, 1])
    phis = np.arctan2(vecs[:, 1], vecs[:, 0])
    return dists, phis


def _cell_radius(dists, phis, theta):
    """Distance from the cell center to the boundary along direction theta."""
    cosines = np.cos(np.subtract.outer(theta, phis))
    with np.errstate(divide="ignore"):
        candidates = np.where(cosines > 1e-12, dists / cosines, np.inf)
    return candidates.min(axis=-1)


def _cell_corner_angles(dists, phis):
    """Polar angles of the cell's vertices, sorted and distinct.

    The vertices are the pairwise intersections of the bisector lines
    x . (cos phi, sin phi) = dist that satisfy every half-plane.
    """
    normals = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    i, j = np.triu_indices(len(dists), k=1)
    det = normals[i, 0] * normals[j, 1] - normals[i, 1] * normals[j, 0]
    crossing = np.abs(det) > 1e-12
    i, j, det = i[crossing], j[crossing], det[crossing]
    x = (dists[i] * normals[j, 1] - dists[j] * normals[i, 1]) / det
    y = (dists[j] * normals[i, 0] - dists[i] * normals[j, 0]) / det
    inside = np.all(normals @ np.stack([x, y]) <= dists[:, None] + 1e-12, axis=0)
    angles = np.sort(np.mod(np.arctan2(y[inside], x[inside]), _TWO_PI))
    # several bisectors can meet in one vertex; keep one angle per vertex
    gaps = np.diff(angles, append=angles[0] + _TWO_PI)
    return angles[gaps > 1e-12].tolist()


def cell_fit(config: BlowupConfiguration, t: int, delta0):
    """delta0, checked to fit in the cell of point t, and that cell's half-planes."""
    delta0 = as_number(delta0, "delta0")
    if delta0 < _DELTA0_MIN:
        raise InputError(
            f"delta0 must be at least 2^-25 = {_DELTA0_MIN:.3e}, so that x - p_t on the "
            f"ball's edge keeps half its digits, got {delta0}"
        )
    dists, phis = _cell_geometry(config.geometry, config.points, t)
    if delta0 >= float(dists.min()):
        raise GeometryError(
            f"delta0 = {delta0} does not fit inside the cell of point {t} "
            f"(inradius {float(dists.min()):.6f})"
        )
    return delta0, dists, phis


def _cell_integral(config, i: int, t: int, planes, r_lo: float, r_hi=None):
    """A(r_lo) of a_integral, or A(r_lo) - A(r_hi), and the panels evaluated.

    With r_hi None the domain is the Voronoi cell of p_t, whose half-planes
    ``planes`` are (dists, phis) from ``cell_fit``, minus the ball of radius
    r_lo; with r_hi, it is the annulus r_lo < |x - p_t| < r_hi, which must
    lie in the cell. Each sector between corner angles (one sector,
    [0, 2 pi], for the annulus) is the box [lo, hi] x [0, 1] in
    (theta, tau), with v = r^P / P (P = (2 - m) mu_t, nonzero) linear in
    tau from r_lo^P / P to R(theta)^P / P, R the cell boundary or r_hi.
    """
    dists, phis = planes
    geom = config.geometry
    points = config.points
    mus = config.mus
    fm = config.frak.minimum
    mu_t = float(mus[t])
    power = (2.0 - fm) * mu_t  # radial exponent after absorbing the log
    gstar_t = float(mus @ config.gstar.values[t])
    field = config.h_fields[i]
    p_t = points[t]
    h_ref = float(field.value(p_t))
    v_lo = r_lo**power / power

    def integrand(theta, tau):
        if r_hi is None:
            r_out = _cell_radius(dists, phis, theta)
        else:
            r_out = np.full_like(theta, r_hi)
        v_span = r_out**power / power - v_lo
        r = (power * (v_lo + np.outer(v_span, tau))) ** (1.0 / power)
        ray = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        x = p_t + r[..., None] * ray[:, None]
        # all nodes and sources at once; within the cell the wrapped distance
        # to p_t is r itself, so the log term leaves the regular part there
        acc = _green(geom, x[..., None, :] - points) @ mus
        acc += mu_t * np.log(r) / _TWO_PI
        ratio = field.value(x) / h_ref
        return v_span[:, None] * ratio * np.exp(_TWO_PI * fm * (acc - gstar_t))

    corners = _cell_corner_angles(dists, phis) if r_hi is None else ()
    breaks = sorted({0.0, _TWO_PI, *corners})
    sectors = [
        _cubature(integrand, ((lo, hi), (0.0, 1.0)))
        for lo, hi in zip(breaks[:-1], breaks[1:])
        if hi - lo >= 1e-13
    ]
    total = sum(value for value, _ in sectors)
    if r_hi is None:
        ends = r_lo**power / mu_t
    else:
        ends = (r_lo**power - r_hi**power) / mu_t
    return ends - (fm - 2.0) / _TWO_PI * total, sum(n for _, n in sectors)


def a_integral(config: BlowupConfiguration, i: int, t: int, delta0: float) -> float:
    """Cell-domain coefficient of the leading-term expansion.

    delta0^(mu_t (2 - m)) / mu_t minus (m - 2)/(2 pi) times the integral,
    over the Voronoi cell of p_t minus the ball of radius delta0, of

        |x - p_t|^((2 - m) mu_t - 2) (h_i(x) / h_i(p_t))
        * exp(2 pi m [mu_t gamma(x, p_t) + sum_{l != t} mu_l G(x, p_l)
                      - sum_l mu_l Gstar(p_t, p_l)]),

    where m is the minimal normalized mass of the configuration and the
    log singularity of G(x, p_t) has been absorbed into the radial power.
    The integral is ``_cell_integral`` over the cell, whose sectors'
    cubatures each aim at the relative error ``EPSREL``. At m = 2 the
    integral has weight zero and A is 1 / mu_t. ``leading_term_general``
    gets A(delta0) from the same helper and A(delta0/2) by adding the
    annulus delta0/2 < |x - p_t| < delta0, so it does not call this.
    """
    i = as_count(i, "i", 0, config.n - 1)
    t = as_count(t, "t", 0, config.n_points - 1)
    delta0, *planes = cell_fit(config, t, delta0)
    if config.frak.minimum == 2.0:
        return 1.0 / float(config.mus[t])
    return _cell_integral(config, i, t, planes, delta0)[0]


@dataclass(frozen=True)
class LeadingTermGeneral:
    """Leading coefficient away from the symmetric point, with diagnostics."""

    D: float
    prediction: float
    eps_k: float
    frak_m: float
    # rows (i, t, B_it, A(delta0), A(delta0/2), extrapolated); A(delta0/2) is
    # A(delta0) plus the annulus delta0/2 < |x - p_t| < delta0
    cell_terms: tuple
    panels: int  # cubature panels evaluated over every cell and annulus


def leading_term_general(
    config: BlowupConfiguration, delta0: float, eps_k: float
) -> LeadingTermGeneral:
    """Leading coefficient D and the predicted surface gap away from Q.

    D sums B_it times the delta0 -> 0 limit of the cell-domain integrals
    A_it over the minimizing components and all points, each cell
    integrated once and extrapolated as the module docstring describes.
    The prediction is D eps_k^(m - 2) / n_L.
    """
    eps_k = as_fraction(eps_k, "eps_k")
    fm = config.frak.minimum
    if fm <= 2.0:
        raise DomainError(f"minimal normalized mass must exceed 2, got {fm}")
    _require_on_surface(config)
    if config.regime == "Q":
        raise WrongRegimeError(
            "rho is at the symmetric point with regular blowup points; "
            "use leading_term_Q"
        )
    cells = [cell_fit(config, t, delta0) for t in range(config.n_points)]
    mus = config.mus
    gstar_rows = config.gstar.values @ mus
    rows = []
    total = 0.0
    panels = 0
    for i in sorted(config.frak.minimizers):
        h_values = config.h_fields[i].value(config.points)
        coeff_ref = math.exp(float(config.D[i] - config.alpha[i]))
        for t, (delta0, *planes) in enumerate(cells):
            b_it = (
                math.exp(_TWO_PI * fm * float(gstar_rows[t] - gstar_rows[0]))
                * float(h_values[t])
                / float(h_values[0])
                * coeff_ref
            )
            a_full, n_cell = _cell_integral(config, i, t, planes, delta0)
            ring, n_ring = _cell_integral(config, i, t, planes, delta0 / 2.0, delta0)
            panels += n_cell + n_ring
            a_half = a_full + ring
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
        panels=panels,
    )


def leading_term_Q(config: BlowupConfiguration, eps_k: float) -> float:
    """Predicted surface gap when rho sits at the symmetric point.

    -4 sum_i sum_{t regular} b_it eps_k^2 log(1/eps_k); requires all
    normalized masses to equal 4 and at least one regular point; an
    InputError naming D where the sum overflows.
    """
    if config.regime != "Q":
        raise WrongRegimeError(
            "no regular blowup point: the symmetric-point expansion is empty"
            if config.is_at_q()
            else "rho is away from the symmetric point; use leading_term_general"
        )
    eps_k = as_fraction(eps_k, "eps_k")
    total = sum(
        b_coefficient(config, i, t)
        for i in range(config.n)
        for t in config.regular_set
    )
    prediction = -4.0 * total * eps_k**2 * math.log(1.0 / eps_k)
    if not math.isfinite(prediction):
        raise InputError(f"D = {config.D.tolist()}: the sum of the b_it, {total:.6e}, "
                         "times -4 eps_k^2 log(1/eps_k) overflows")
    return prediction


def _location_terms(config: BlowupConfiguration, t: int, p, w, order: int) -> np.ndarray:
    """Point t's gradient condition at p (order 1), or its exact Jacobian in p
    (order 2, the same sum of Hessians); the other points stay fixed, and w
    holds p's wrapped displacements from them (``_displacements``). Trial
    points p of shape (..., 2) give (..., 2) residuals or (..., 2, 2)
    Jacobians in one pass; a single point is the case with no leading axis."""
    green_term = _TWO_PI * config.frak.minimum * _point_green(config, t, w, order)
    log_h = [h.grad_log if order == 1 else h.hess_log for h in config.h_fields]
    return sum(c * (d(p) + green_term) for c, d in zip(config.rho, log_h))


def location_residual(config: BlowupConfiguration, t: int, regime: str) -> np.ndarray:
    """Gradient condition at a regular blowup point:

        sum_i rho_i [grad log h_i(p_t) + 2 pi m sum_s mu_s grad_1 Gstar(p_t, p_s)].

    One condition serves both regimes: at the symmetric point rho is Q and
    2 pi m is 8 pi. ``regime`` only states the configuration's derived
    ``regime``; any other value is an InputError that names both. Small
    residuals characterize true blowup locations.
    """
    t = _regular_index(config, t)
    if regime != config.regime:
        raise InputError(
            f"regime {regime!r} is not the configuration's regime {config.regime!r}"
        )
    p = config.points[t]
    return _location_terms(config, t, p, _displacements(config, t, p), 1)


def location_search(config: BlowupConfiguration, t: int):
    """Move point t to a zero of its location residual; the others stay fixed.

    ``newton.damped_newton`` on location_residual(p_t) = 0 with its exact
    Jacobian (Hessians of log h_i and of the Green function), down to a sup
    norm of the residual, not of the step, of ``_LOCATION_TOL``. A trial
    closer than 1e-4 to another point lies outside the domain, and iterates
    are wrapped into the periods. Only point t's terms are evaluated at a
    trial, and its displacements from the others are wrapped once there,
    for the distance check, the residual and the Jacobian alike; the
    configuration is not rebuilt. Returns (point, residual there); a
    NonConvergenceError carries the best point, wrapped too.
    """
    t = _regular_index(config, t)
    geom = config.geometry
    periods = np.array([geom.lx, geom.ly])

    def place(p):
        """p wrapped into the periods and its displacements from the other
        points, or None within 1e-4 of another point."""
        p = np.mod(p, periods)
        w = _displacements(config, t, p)
        if np.any(_length(w) < 1e-4):
            return None
        _require_positive(config.h_fields, p)
        return p, w

    def f(p, _norm):
        trial = place(p)
        if trial is None:
            return None
        return (
            _location_terms(config, t, *trial, 1),
            lambda: _location_terms(config, t, *trial, 2),
        )

    try:
        p, _ = damped_newton(
            f, config.points[t], _LOCATION_TOL, f"location search for point {t}"
        )
    except NonConvergenceError as exc:
        exc.best = np.mod(exc.best, periods)
        raise
    root = place(p)
    if root is None:
        raise GeometryError(f"location search put point {t} within 1e-4 of another point")
    return root[0], _location_terms(config, t, *root, 1)


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
