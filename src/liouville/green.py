"""Green function of the flat unit-area torus and the cell-domain integral.

For a rectangular torus with side lengths Lx * Ly = 1 the Green function of
the (positive) Laplacian with unit mean subtracted,

    -Delta G(x, p) = delta_p - 1,   integral G = 0,

is the spectral sum sum_{k != 0} e^(2 pi i k.(x-p)) / (4 pi^2 |k|^2). The sum
over the first lattice index is carried out in closed form, and the dominant
image terms of the remaining geometric series are extracted as explicit
logarithms. With u = frac(d1/Lx), b = d2/Ly and beta = Lx/Ly:

    G(d) = (Lx^2/2) (u^2 - u + 1/6) + GF(beta u, b) + GF(beta (1-u), b)
           + sum_{k>=1} cos(2 pi k b)
             (e^(-2 pi k beta (u+1)) + e^(-2 pi k beta (2-u)))
             / (2 pi k (1 - e^(-2 pi k beta))),

    GF(a, b) = -(1/2 pi) log|1 - e^(-2 pi a + 2 pi i b)|.

The remaining series converges like e^(-2 pi beta k) uniformly in position,
so the mode cutoff n_modes is far beyond double precision already at ~10.
The log singularity -(1/2 pi) log|d| sits entirely in the first GF term.

Letting d -> 0 in the expansion gives the diagonal regular part
gamma = lim (G(d) + (1/2 pi) log|d|) in closed form, with q_k = e^(-2 pi k beta):

    gamma = Lx^2/12 - (1/2 pi) log(2 pi / Ly) - (1/2 pi) log(1 - q_1)
            + sum_{k>=1} q_k (1 + q_k) / (2 pi k (1 - q_k)).

This is Kronecker's limit formula (Lin & Wang, Ann. of Math. 172 (2010)):
gamma = -(1/2 pi) log(2 pi Lx |eta(i beta)|^2) with the Dedekind eta
eta(tau) = q^(1/24) prod_{n>=1} (1 - q^n), q = e^(2 pi i tau). Since G is
even in d, the gradient of gamma on the diagonal is exactly zero.

The domain integral a_integral accumulates, over a Voronoi cell minus a
small ball, the weighted coefficient-field/Green-function integrand whose
radial power |x - p_t|^((2-m) mu_t - 2) is absorbed analytically by a power
substitution; the angular direction is split at the cell's corner angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError, SingularityError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusGreen:
    """Flat rectangular torus of unit area with a spectral mode cutoff."""

    periods: tuple = ((1.0, 0.0), (0.0, 1.0))
    n_modes: int = 12

    def __post_init__(self):
        p = np.asarray(self.periods, dtype=float)
        if p.shape != (2, 2) or not np.all(np.isfinite(p)):
            raise InputError("periods must be two finite 2-vectors")
        if abs(float(p[0] @ p[1])) > 1e-14:
            raise InputError("only rectangular (orthogonal) lattices are supported")
        if not (p[0][1] == 0.0 and p[1][0] == 0.0):
            raise InputError("lattice vectors must be axis-aligned")
        area = abs(p[0][0] * p[1][1])
        if abs(area - 1.0) > 1e-12:
            raise InputError(f"torus area must be 1, got {area}")
        if not isinstance(self.n_modes, (int, np.integer)) or self.n_modes < 1:
            raise InputError(f"n_modes must be an integer >= 1, got {self.n_modes!r}")
        object.__setattr__(
            self, "periods", ((p[0][0], p[0][1]), (p[1][0], p[1][1]))
        )

    @property
    def lx(self) -> float:
        return self.periods[0][0]

    @property
    def ly(self) -> float:
        return self.periods[1][1]


def wrap_displacement(geom: TorusGreen, d) -> np.ndarray:
    """Shortest representative of a displacement, coordinates in (-L/2, L/2]."""
    d = np.asarray(d, dtype=float)
    w1 = d[..., 0] - geom.lx * np.round(d[..., 0] / geom.lx)
    w2 = d[..., 1] - geom.ly * np.round(d[..., 1] / geom.ly)
    return np.stack([w1, w2], axis=-1)


def torus_distance(geom: TorusGreen, x, p) -> np.ndarray:
    w = wrap_displacement(geom, np.asarray(x, dtype=float) - np.asarray(p, dtype=float))
    return np.hypot(w[..., 0], w[..., 1])


def _gf(a, b):
    """-(1/2 pi) log|1 - e^(-2 pi a + 2 pi i b)|, elementwise."""
    q = np.exp(-_TWO_PI * a)
    arg = 1.0 - 2.0 * q * np.cos(_TWO_PI * b) + q * q
    return -np.log(arg) / (2.0 * _TWO_PI)


def _gf_ratio(a, b):
    """w / (1 - w) with w = e^(-2 pi a + 2 pi i b); drives the GF gradient."""
    w = np.exp(-_TWO_PI * a + 2j * math.pi * b)
    return w / (1.0 - w)


def _core_value(geom: TorusGreen, d1, d2):
    lx, ly = geom.lx, geom.ly
    beta = lx / ly
    u = np.mod(np.asarray(d1, dtype=float) / lx, 1.0)
    b = np.asarray(d2, dtype=float) / ly
    val = (lx * lx / 2.0) * (u * u - u + 1.0 / 6.0)
    val = val + _gf(beta * u, b) + _gf(beta * (1.0 - u), b)
    for k in range(1, geom.n_modes + 1):
        qk = math.exp(-_TWO_PI * k * beta)
        if qk == 0.0:  # both image terms are at most qk, as are all later ones
            break
        ek = np.exp(-_TWO_PI * k * beta * u)
        val = val + (
            np.cos(_TWO_PI * k * b)
            * qk
            * (ek + qk / ek)
            / (_TWO_PI * k * (1.0 - qk))
        )
    return val


def _core_gradient(geom: TorusGreen, d1, d2):
    lx, ly = geom.lx, geom.ly
    beta = lx / ly
    u = np.mod(np.asarray(d1, dtype=float) / lx, 1.0)
    b = np.asarray(d2, dtype=float) / ly
    r_lo = _gf_ratio(beta * u, b)
    r_hi = _gf_ratio(beta * (1.0 - u), b)
    g1 = (lx / 2.0) * (2.0 * u - 1.0) + (beta / lx) * (-r_lo.real + r_hi.real)
    g2 = (1.0 / ly) * (-r_lo.imag - r_hi.imag)
    for k in range(1, geom.n_modes + 1):
        qk = math.exp(-_TWO_PI * k * beta)
        if qk == 0.0:
            break
        ek = np.exp(-_TWO_PI * k * beta * u)
        common = qk / (1.0 - qk)
        g1 = g1 - (beta / lx) * np.cos(_TWO_PI * k * b) * common * (ek - qk / ek)
        g2 = g2 - (1.0 / ly) * np.sin(_TWO_PI * k * b) * common * (ek + qk / ek)
    return g1, g2


def green_eval(geom: TorusGreen, x, p):
    """G(x, p); broadcasts over leading axes of x and p.

    Raises SingularityError when any pair is closer than 1e-8 on the torus.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    d = x - p
    if np.any(torus_distance(geom, x, p) < 1e-8):
        raise SingularityError("Green function evaluated on the diagonal")
    out = _core_value(geom, d[..., 0], d[..., 1])
    return float(out) if out.ndim == 0 else out


def green_gradient(geom: TorusGreen, x, p):
    """Gradient of G in the first argument; broadcasts like green_eval."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    d = x - p
    if np.any(torus_distance(geom, x, p) < 1e-8):
        raise SingularityError("Green gradient evaluated on the diagonal")
    g1, g2 = _core_gradient(geom, d[..., 0], d[..., 1])
    return np.stack([g1, g2], axis=-1)


def _diagonal_gamma(geom: TorusGreen) -> float:
    """gamma(p, p), the same for every p on the torus (closed form above)."""
    beta = geom.lx / geom.ly
    value = (
        geom.lx * geom.lx / 12.0
        - math.log(_TWO_PI / geom.ly) / _TWO_PI
        - math.log1p(-math.exp(-_TWO_PI * beta)) / _TWO_PI
    )
    for k in range(1, geom.n_modes + 1):
        qk = math.exp(-_TWO_PI * k * beta)
        value += qk * (1.0 + qk) / (_TWO_PI * k * (1.0 - qk))
    return float(value)


def regular_part(geom: TorusGreen, p):
    """Diagonal regular part gamma(p, p) and its first-argument gradient.

    gamma(x, p) = G(x, p) + (1/2 pi) log|x - p| extended to the diagonal.
    Both are exact: the value is the closed form in the module docstring,
    and the gradient is zero because G is even.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise InputError(f"p must be a finite 2-vector, got {p!r}")
    return _diagonal_gamma(geom), np.zeros(2)


@dataclass(frozen=True)
class GStarMatrix:
    """Pairwise Green values with the regular part on the diagonal."""

    points: np.ndarray
    values: np.ndarray


def gstar_matrix(geom: TorusGreen, points) -> GStarMatrix:
    """Fill G(p_t, p_s) off the diagonal and gamma(p_t, p_t) on it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError(f"points must be an (N, 2) array, got {pts.shape}")
    n_pts = pts.shape[0]
    values = np.empty((n_pts, n_pts))
    diag = _diagonal_gamma(geom)
    for t in range(n_pts):
        values[t, t] = diag
        for s in range(t + 1, n_pts):
            if torus_distance(geom, pts[t], pts[s]) < 1e-4:
                raise GeometryError(
                    f"points {t} and {s} are closer than 1e-4 on the torus"
                )
            values[t, s] = values[s, t] = green_eval(geom, pts[t], pts[s])
    pts = pts.copy()
    for arr in (pts, values):
        arr.setflags(write=False)
    return GStarMatrix(points=pts, values=values)


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


def _gk_panel(f, a, b):
    """Kronrod estimate, error proxy, on one panel; f is vectorized."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = np.concatenate([mid - half * _XGK[:7], [mid], mid + half * _XGK[6::-1]])
    vals = f(nodes)
    left, center, right = vals[:7], vals[7], vals[8:][::-1]
    kron = half * (float(_WGK[:7] @ (left + right)) + _WGK[7] * center)
    gauss = half * (
        float(_WG[:3] @ (left[1::2] + right[1::2])) + _WG[3] * center
    )
    return kron, abs(kron - gauss)


def adaptive_quadrature(f, a, b, epsabs=1e-12, epsrel=1e-9, limit=600):
    """Globally adaptive Gauss-Kronrod integration of a vectorized integrand."""
    panels = [(_gk_panel(f, a, b), a, b)]
    while True:
        total = sum(p[0][0] for p in panels)
        err = sum(p[0][1] for p in panels)
        if err <= max(epsabs, epsrel * abs(total)):
            return total, err
        if len(panels) >= limit:
            raise GeometryError(
                f"quadrature did not converge: error {err:.3e} with {limit} panels"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][0][1])
        (_, _), lo, hi = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels.append((_gk_panel(f, lo, mid), lo, mid))
        panels.append((_gk_panel(f, mid, hi), mid, hi))


def _cell_geometry(geom: TorusGreen, points: np.ndarray, t: int):
    """Half-plane data of the Voronoi cell of points[t] among all images."""
    offsets = []
    for l in range(points.shape[0]):
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                if l == t and a == 0 and b == 0:
                    continue
                offsets.append(
                    points[l] + np.array([a * geom.lx, b * geom.ly]) - points[t]
                )
    vecs = np.array(offsets)
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


def a_integral(
    geom: TorusGreen,
    config,
    i: int,
    t: int,
    delta0: float,
    epsrel: float = 1e-8,
) -> float:
    """Cell-domain coefficient of the leading-term expansion.

    delta0^(mu_t (2 - m)) / mu_t minus (m - 2)/(2 pi) times the integral,
    over the Voronoi cell of p_t minus the ball of radius delta0, of

        |x - p_t|^((2 - m) mu_t - 2) (h_i(x) / h_i(p_t))
        * exp(2 pi m [mu_t gamma(x, p_t) + sum_{l != t} mu_l G(x, p_l)
                      - sum_l mu_l Gstar(p_t, p_l)]),

    where m is the minimal normalized mass of the configuration and the
    log singularity of G(x, p_t) has been absorbed into the radial power.
    The radial integrals use the exact power substitution; the angular
    integral is split at the cell corner angles. ``geom`` is the
    configuration's geometry: the Gstar values come from ``config.gstar``.
    """
    points = np.asarray(config.points, dtype=float)
    mus = np.array([s.mu for s in config.strengths])
    fm = config.frak.minimum
    mu_t = float(mus[t])
    dists, phis = _cell_geometry(geom, points, t)

    for s in range(points.shape[0]):
        d_s, _ = _cell_geometry(geom, points, s)
        if delta0 >= float(d_s.min()):
            raise GeometryError(
                f"delta0 = {delta0} does not fit inside the cell of point {s} "
                f"(inradius {float(d_s.min()):.6f})"
            )

    gstar_t = float(mus @ config.gstar.values[t])
    field = config.h_fields[i]
    h_ref = float(field.value(points[t]))
    p_t = points[t]
    power = (2.0 - fm) * mu_t  # radial exponent after absorbing the log

    def along_ray(theta):
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def integrand_of_r(r):
            x = np.stack([p_t[0] + r * cos_t, p_t[1] + r * sin_t], axis=-1)
            # regular part of G(x, p_t) along the ray: within the cell the
            # wrapped distance to p_t is r itself
            acc = mu_t * (
                _core_value(geom, x[..., 0] - p_t[0], x[..., 1] - p_t[1])
                + np.log(r) / _TWO_PI
            )
            for l in range(points.shape[0]):
                if l == t:
                    continue
                acc = acc + mus[l] * _core_value(
                    geom, x[..., 0] - points[l][0], x[..., 1] - points[l][1]
                )
            ratio = np.asarray(field.value(x), dtype=float) / h_ref
            return ratio * np.exp(_TWO_PI * fm * (acc - gstar_t))

        r_out = float(_cell_radius(dists, phis, np.array([theta]))[0])
        if power != 0.0:
            t_lo = delta0**power / power
            t_hi = r_out**power / power

            def f_sub(tt):
                r = (power * tt) ** (1.0 / power)
                return integrand_of_r(r)

        else:
            t_lo, t_hi = math.log(delta0), math.log(r_out)

            def f_sub(tt):
                return integrand_of_r(np.exp(tt))

        val, _ = adaptive_quadrature(
            f_sub, t_lo, t_hi, epsabs=1e-14, epsrel=epsrel / 20.0
        )
        return val

    corners = _cell_corner_angles(dists, phis)
    breaks = sorted({0.0, _TWO_PI, *corners})
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-13:
            continue
        val, _ = adaptive_quadrature(
            lambda th: np.array([along_ray(x) for x in np.atleast_1d(th)]),
            lo,
            hi,
            epsabs=1e-13,
            epsrel=epsrel,
        )
        total += val

    return delta0 ** (mu_t * (2.0 - fm)) / mu_t - (fm - 2.0) / _TWO_PI * total
