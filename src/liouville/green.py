"""Green function of the flat unit-area torus and the cell-domain integral.

``TorusGreen(lx)`` is the rectangular torus with sides Lx = lx along x and
Ly = 1/lx along y, so its area is 1. Its Green function of the (positive)
Laplacian with unit mean subtracted,

    -Delta G(x, p) = delta_p - 1,   integral G = 0,

is the spectral sum sum_{k != 0} e^(2 pi i k.(x-p)) / (4 pi^2 |k|^2). The
coordinates are taken with the long side first: L1 = max(Lx, Ly),
L2 = min(Lx, Ly), beta = L1 / L2 >= 1, and (d1, d2) the wrapped displacement
along L1 and L2. Summing over the lattice index along L2 in closed form
leaves one sum over the images of the source along L1. With u = d1/L1 and
b = d2/L2 in [-1/2, 1/2]:

    G(d) = (L1^2/2) (u^2 - |u| + 1/6) + sum_m K(-2 pi beta |u + m|, b),

    K(x, b) = -(1/4 pi) log|1 - e^(x + 2 pi i b)|^2
            = -(1/4 pi) log(expm1(x)^2 + 4 e^x sin^2(pi b)).

Image m decays like e^(-2 pi beta |m|) = e^(-2 pi max(Lx/Ly, Ly/Lx) |m|)
(at most e^(-2 pi beta (|m| - 1/2)), since |u| <= 1/2), so about a dozen
images reach double precision on every rectangular torus, and their number
follows from beta alone. The expm1 form keeps the log singularity
-(1/2 pi) log|d|, which sits in the m = 0 image, free of cancellation.
The gradient and the Hessian of G come from the same image sum.

One kernel, ``_green``, evaluates all three. Each public entry point wraps
the displacements once, checks their length on the wrapped values, and
hands those to the kernel, which does not wrap again. The kernel lays each
block of points out image-major, (images, points), so the sum or product
over the dozen images combines whole contiguous rows of points. Only the
images m = -1, 0, 1 of a point take an exponential, and m = 0 alone expm1:
since |u| <= 1/2, e^x of image m >= 1 is that of image 1 times
e^(-2 pi beta (m - 1)), and alike for m <= -1, with the factors in a table
cached per beta. Off m = 0, e^x <= e^(-pi), so expm1(x) = e^x - 1 there
loses nothing.

Letting d -> 0 gives the diagonal regular part
gamma = lim (G(d) + (1/2 pi) log|d|) in closed form:

    gamma = L1^2/12 - (1/2 pi) log(2 pi / L2) + sum_{m != 0} K(-2 pi beta |m|, 0)
          = L1^2/12 - (1/2 pi) log(2 pi / L2)
            - (1/pi) sum_{k>=1} log(1 - e^(-2 pi beta k)).

This is Kronecker's limit formula (Lin & Wang, Ann. of Math. 172 (2010)):
gamma = -(1/2 pi) log(2 pi Lx |eta(i Lx/Ly)|^2) with the Dedekind eta
eta(tau) = q^(1/24) prod_{n>=1} (1 - q^n), q = e^(2 pi i tau). Since G is
even in d, the gradient of gamma on the diagonal is exactly zero.

The domain integral a_integral accumulates, over a Voronoi cell minus a
small ball, the weighted coefficient-field/Green-function integrand. Each
sector between the cell's corner angles is a rectangle in (theta, tau), where
v = r^P / P, linear in tau, absorbs the radial power r^(P - 2). One adaptive
product Gauss-Kronrod cubature per sector evaluates G at all nodes of a
panel, or of both halves of a bisected one, and all sources in one batch.
Over an annulus a < r < b inside the cell the same substitution gives one
rectangle [0, 2 pi] x [0, 1] with no corner breaks; the leading term adds it
to the cell integral at radius b to get the one at radius a, instead of
integrating the cell again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    GeometryError,
    InputError,
    SingularityError,
    as_array,
    as_count,
    as_number,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusGreen:
    """Flat rectangular torus of unit area, sides lx along x and ly = 1/lx."""

    lx: float = 1.0

    def __post_init__(self):
        lx = as_number(self.lx, "lx")
        if lx <= 0.0:
            raise InputError(f"lx must be positive, got {lx}")
        object.__setattr__(self, "lx", lx)

    @property
    def ly(self) -> float:
        return 1.0 / self.lx


def wrap_displacement(geom: TorusGreen, d) -> np.ndarray:
    """Shortest representative of a displacement, coordinates in [-L/2, L/2].

    The shift runs in Fortran order, so numpy's inner loop goes along the
    points of each coordinate and not along the last axis of length 2.
    """
    periods = np.array([geom.lx, geom.ly])
    d = np.asarray(d, dtype=float)
    shift = np.divide(d, periods, order="F")
    np.rint(shift, out=shift)
    shift *= periods
    return np.subtract(d, shift, order="C")


def _points(x, p):
    """x and p as finite arrays with a last axis of 2 that broadcast."""
    x, p = as_array(x, "x"), as_array(p, "p")
    for name, arr in (("x", x), ("p", p)):
        if arr.shape[-1:] != (2,):
            raise InputError(
                f"{name} must have a last axis of length 2, got shape {arr.shape}"
            )
    try:
        np.broadcast_shapes(x.shape, p.shape)
    except ValueError:
        raise InputError(
            f"x of shape {x.shape} and p of shape {p.shape} do not broadcast"
        ) from None
    return x, p


def _length(w) -> np.ndarray:
    """Length of wrapped displacements w (last axis 2)."""
    return np.hypot(w[..., 0], w[..., 1])


def torus_distance(geom: TorusGreen, x, p) -> np.ndarray:
    """Distance from x to p on the torus; broadcasts like green_eval."""
    x, p = _points(x, p)
    return _length(wrap_displacement(geom, x - p))


def _sides(geom: TorusGreen):
    """Long period, short period, and whether the long side is the y side."""
    if geom.lx >= geom.ly:
        return geom.lx, geom.ly, False
    return geom.ly, geom.lx, True


# The images m = -1, 0, 1 of a point, as offsets of u.
_NEAREST = np.array([[-1.0], [0.0], [1.0]])


@lru_cache(maxsize=64)
def _image_table(beta: float):
    """Weights from the images m = -1, 0, 1 to m = -M..M, and sign(m).

    Row m of the weights holds e^(-2 pi beta (|m| - 1)) in the column of
    sign(m) (1 for m = 0) and zeros elsewhere; the signs are 1 at m = 0.
    Past M the images weigh below e^(-40) ~ 4e-18.
    """
    reach = max(0, math.ceil(40.0 / (_TWO_PI * beta) - 0.5))
    m = np.arange(-reach, reach + 1)
    weights = np.zeros((len(m), 3))
    weights[np.arange(len(m)), np.sign(m) + 1] = np.exp(
        -_TWO_PI * beta * np.maximum(np.abs(m) - 1.0, 0.0)
    )
    signs = np.where(m < 0, -1.0, 1.0)
    for arr in (weights, signs):
        arr.setflags(write=False)
    return weights, signs


def _image_rows(u, s2, beta: float):
    """e^x, expm1(x) and |1 - e^(x + 2 pi i b)|^2 at x = -2 pi beta |u + m|.

    Rows m = -M..M, with the points u in [-1/2, 1/2] and s2 = sin^2(pi b)
    in columns; the third set of rows is expm1(x)^2 + 4 e^x s2. exp runs on
    the images m = -1, 0, 1 and expm1 on m = 0 alone (see the module
    docstring); the weights make every other row with one product per
    entry, as a matrix product whose other terms are exact zeros.
    """
    x = (-_TWO_PI * beta) * np.abs(u + _NEAREST)
    ex = _image_table(beta)[0] @ np.exp(x)
    em1 = ex - 1.0
    em1[len(em1) // 2] = np.expm1(x[1])
    return ex, em1, em1 * em1 + ex * (4.0 * s2)


def _signed_sum(rows, sign_u, signs) -> np.ndarray:
    """sum over m of sign(u + m) times row m; scales the m = 0 row in place.

    The sign is that of m (``signs``) except on the m = 0 row, sign(u).
    """
    rows[len(rows) // 2] *= sign_u
    return signs @ rows


# Points per broadcast over the images: enough for numpy to do the work,
# few enough to keep the (images x points) temporaries small.
_BLOCK = 2048


def _green(geom: TorusGreen, w, order: int = 0) -> np.ndarray:
    """G at wrapped displacements w (last axis 2), or its derivatives of one order.

    w must already be wrapped into the periods (``wrap_displacement``);
    the kernel does not wrap it again. Order 0 gives G, order 1 the
    gradient on a last axis of 2, order 2 the Hessian on two last axes of
    2. u and b are taken as contiguous rows, and the points go through in
    blocks of ``_BLOCK``. All three orders take their image rows,
    (images, block) with m = -M..M, from ``_image_rows``, so a sum or
    product over the images combines whole rows; the sign of u + m is that
    of m, except on the m = 0 row (``_signed_sum``). Each image term is
    Re F with F(z) = -(1/2 pi) log(1 - e^z), z = x + 2 pi i b, holomorphic,
    and z is d scaled by 2 pi / L2 (up to the sign along L1). So the image
    terms add (2 pi / L2^2) [[Re q, sign Im q], [sign Im q, -Re q]] to the
    Hessian, with q = e^z / (1 - e^z)^2, and the quadratic term adds 1 to
    the long-side entry: off the pole the trace is exactly 1.
    """
    l1, l2, swap = _sides(geom)
    beta = l1 / l2
    signs = _image_table(beta)[1]
    shape = w.shape[:-1]
    w = w.reshape(-1, 2)
    out = np.empty((2**order, len(w)))
    for lo in range(0, len(w), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        u, b = w[block, int(swap)] / l1, w[block, 1 - int(swap)] / l2
        s2 = np.sin(math.pi * b) ** 2
        ex, em1, f = _image_rows(u, s2, beta)
        if order == 2:
            # 1 - e^z = (2 e^x s2 - expm1(x)) - i e^x sin(2 pi b): no cancellation
            one_minus = (2.0 * ex * s2 - em1) - 1j * ex * np.sin(_TWO_PI * b)
            q = (_TWO_PI / (l2 * l2)) * ex * np.exp(1j * _TWO_PI * b) / one_minus**2
            h11 = q.real.sum(axis=0)
            h12 = _signed_sum(q.imag, np.sign(u), signs)
            out[:, block] = 1.0 + h11, h12, h12, -h11
        elif order == 1:  # in place: e^x / f, and (expm1 + 2 s2) e^x / f
            ex /= f
            em1 += 2.0 * s2
            em1 *= ex
            sign_u = np.sign(u)
            images = _signed_sum(em1, sign_u, signs)
            out[0, block] = l1 * (u - 0.5 * sign_u) + images / l2
            out[1, block] = ex.sum(axis=0) * np.sin(_TWO_PI * b) / -l2
        else:
            out[0, block] = (l1 * l1 / 2.0) * (
                u * u - np.abs(u) + 1.0 / 6.0
            ) - np.log(np.prod(f, axis=0)) / (2.0 * _TWO_PI)
    out = out.T.reshape((-1,) + (2,) * order)
    if swap:  # every derivative axis back from (long, short) to (x, y)
        out = out[(slice(None),) + (slice(None, None, -1),) * order]
    return out.reshape(shape + (2,) * order)


def _displacement(geom: TorusGreen, x, p) -> np.ndarray:
    """Wrapped x - p for checked points (see ``_points``), off the diagonal."""
    x, p = _points(x, p)
    w = wrap_displacement(geom, x - p)
    if np.any(_length(w) < 1e-8):
        raise SingularityError("Green function evaluated on the diagonal")
    return w


def green_eval(geom: TorusGreen, x, p):
    """G(x, p); broadcasts over leading axes of x and p.

    Raises SingularityError when any pair is closer than 1e-8 on the torus.
    """
    out = _green(geom, _displacement(geom, x, p))
    return float(out) if out.ndim == 0 else out


def green_gradient(geom: TorusGreen, x, p):
    """Gradient of G in the first argument; broadcasts like green_eval."""
    return _green(geom, _displacement(geom, x, p), order=1)


def _diagonal_gamma(geom: TorusGreen) -> float:
    """gamma(p, p), the same for every p on the torus (closed form above)."""
    l1, l2, _ = _sides(geom)
    beta = l1 / l2
    ex = _image_rows(np.zeros(1), np.zeros(1), beta)[0][:, 0]  # at d = 0
    images = np.delete(ex, len(ex) // 2)  # e^(-2 pi beta |m|), m != 0
    return float(
        l1 * l1 / 12.0
        - math.log(_TWO_PI / l2) / _TWO_PI
        - np.log1p(-images).sum() / _TWO_PI
    )


def regular_part(geom: TorusGreen, p):
    """Diagonal regular part gamma(p, p) and its first-argument gradient.

    gamma(x, p) = G(x, p) + (1/2 pi) log|x - p| extended to the diagonal.
    Both are exact: the value is the closed form in the module docstring,
    and the gradient is zero because G is even.
    """
    as_array(p, "p", (2,))
    return _diagonal_gamma(geom), np.zeros(2)


@dataclass(frozen=True, eq=False)
class GStarMatrix:
    """Pairwise Green values with the regular part on the diagonal."""

    points: np.ndarray
    values: np.ndarray


def gstar_matrix(geom: TorusGreen, points) -> GStarMatrix:
    """Fill G(p_t, p_s) off the diagonal and gamma(p_t, p_t) on it."""
    pts = np.atleast_2d(as_array(points, "points"))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError(f"points must be an (N, 2) array, got {pts.shape}")
    t, s = np.triu_indices(pts.shape[0], k=1)
    w = wrap_displacement(geom, pts[t] - pts[s])
    close = _length(w) < 1e-4
    if close.any():
        k = np.argmax(close)
        raise GeometryError(f"points {t[k]} and {s[k]} are closer than 1e-4 on the torus")
    values = np.full((pts.shape[0],) * 2, _diagonal_gamma(geom))
    values[t, s] = values[s, t] = _green(geom, w)
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


def cell_fit(config, t: int, delta0):
    """delta0, checked to fit in the cell of point t, and that cell's half-planes."""
    delta0 = as_number(delta0, "delta0")
    if delta0 <= 0.0:
        raise InputError(f"delta0 must be positive, got {delta0}")
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
        acc = _green(geom, wrap_displacement(geom, x[..., None, :] - points)) @ mus
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


def a_integral(config, i: int, t: int, delta0: float) -> float:
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
