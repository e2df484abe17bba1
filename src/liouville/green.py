"""Green function of the flat unit-area torus.

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

One kernel, ``_green``, evaluates all three. It takes raw displacements
and wraps each block of points where it divides them by the periods
anyway; the public entry points hand it x - p and the 1e-8 floor, which it
checks in the same block on a row it has already computed. It lays each
block out image-major, (images, points), in one work array per call, so
the sum or product over the dozen images combines whole contiguous rows of
points. Only the images m = -1, 0, 1 of a point take an exponential, and
m = 0 alone expm1: since |u| <= 1/2, e^x of image m >= 1 is that of image
1 times e^(-2 pi beta (m - 1)), and alike for m <= -1, with the factors in
a table cached per beta. Off m = 0, e^x <= e^(-pi), so expm1(x) = e^x - 1
there loses nothing.

Letting d -> 0 gives the diagonal regular part
gamma = lim (G(d) + (1/2 pi) log|d|) in closed form:

    gamma = L1^2/12 - (1/2 pi) log(2 pi / L2) + sum_{m != 0} K(-2 pi beta |m|, 0)
          = L1^2/12 - (1/2 pi) log(2 pi / L2)
            - (1/pi) sum_{k>=1} log(1 - e^(-2 pi beta k)).

This is Kronecker's limit formula (Lin & Wang, Ann. of Math. 172 (2010)):
gamma = -(1/2 pi) log(2 pi Lx |eta(i Lx/Ly)|^2) with the Dedekind eta
eta(tau) = q^(1/24) prod_{n>=1} (1 - q^n), q = e^(2 pi i tau). Since G is
even in d, the gradient of gamma on the diagonal is exactly zero.
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
    as_number,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusGreen:
    """Flat rectangular torus of unit area, sides lx along x and ly = 1/lx.

    The kernel takes x = -2 pi beta |u + m| with beta = max(lx, ly)^2 and
    |u + m| up to 3/2 on the nearest images, so lx must keep 3 pi beta
    finite: about 2.29e-154 < lx < 4.37e153.
    """

    lx: float = 1.0

    def __post_init__(self):
        lx = as_number(self.lx, "lx")
        if lx <= 0.0:
            raise InputError(f"lx must be positive, got {lx}")
        object.__setattr__(self, "lx", lx)
        # (lx, ly), read by every wrap and every kernel block; not a field
        object.__setattr__(self, "_periods", np.array([lx, 1.0 / lx]))
        self._periods.setflags(write=False)
        l1, l2, _ = _sides(self)
        if not math.isfinite(_TWO_PI * (l1 / l2) * 1.5):
            raise InputError(f"lx = {lx} is out of range: 3 pi max(lx, 1/lx)^2 overflows")

    @property
    def ly(self) -> float:
        return 1.0 / self.lx


def wrap_displacement(geom: TorusGreen, d) -> np.ndarray:
    """Shortest representative of a displacement, coordinates in [-L/2, L/2].

    The shift runs in Fortran order, so numpy's inner loop goes along the
    points of each coordinate and not along the last axis of length 2.
    """
    periods = geom._periods
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


def _displacement(x, p) -> np.ndarray:
    """x - p for checked points (see ``_points``), not wrapped."""
    x, p = _points(x, p)
    return x - p


def _length(w) -> np.ndarray:
    """Length of wrapped displacements w (last axis 2)."""
    return np.hypot(w[..., 0], w[..., 1])


def torus_distance(geom: TorusGreen, x, p) -> np.ndarray:
    """Distance from x to p on the torus; broadcasts like green_eval."""
    return _length(wrap_displacement(geom, _displacement(x, p)))


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


def _image_rows(rows, u, s2, beta: float):
    """e^x, expm1(x) and |1 - e^(x + 2 pi i b)|^2 at x = -2 pi beta |u + m|.

    Written into rows, a (3, images, points) slice of the kernel's work
    array, and returned as its three sets: rows m = -M..M of each, with the
    points u in [-1/2, 1/2] and s2 = sin^2(pi b) in columns; the third set
    is expm1(x)^2 + 4 e^x s2. exp runs on the images m = -1, 0, 1 and expm1
    on m = 0 alone (see the module docstring); the weights make every other
    row with one product per entry, as a matrix product whose other terms
    are exact zeros.
    """
    ex, em1, f = rows[0], rows[1], rows[2]
    x = (-_TWO_PI * beta) * np.abs(u + _NEAREST)
    np.matmul(_image_table(beta)[0], np.exp(x), out=ex)
    np.subtract(ex, 1.0, out=em1)
    np.expm1(x[1], out=em1[len(em1) // 2])
    np.multiply(em1, em1, out=f)
    f += ex * (4.0 * s2)
    return ex, em1, f


def _signed_sum(rows, sign_u, signs) -> np.ndarray:
    """sum over m of sign(u + m) times row m; scales the m = 0 row in place.

    The sign is that of m (``signs``) except on the m = 0 row, sign(u).
    """
    rows[len(rows) // 2] *= sign_u
    return signs @ rows


# Points per broadcast over the images: enough for numpy to do the work,
# few enough to keep the (images x points) work array and temporaries small.
_BLOCK = 2048


def _green(geom: TorusGreen, d, order: int = 0, floor: float | None = None) -> np.ndarray:
    """G at displacements d (last axis 2), or its derivatives of one order.

    d need not be wrapped: the kernel divides each block by the periods and
    wraps it there, u - rint(u) and b - rint(b), so any number of whole
    periods is dropped. Given ``floor``, it raises SingularityError when a
    point lies closer than floor to a pole on the torus. The test is cheap
    and exact: for Re z <= 0, |1 - e^z| <= |z| = 2 pi |d| / L2, so a block
    whose m = 0 row of f = |1 - e^z|^2 is at least (2 pi floor / L2)^2
    everywhere, with a relative margin above rounding, holds no such point;
    only a block that fails it computes the wrapped lengths. Without
    ``floor`` (the internal callers) nothing is checked.

    Order 0 gives G, order 1 the gradient on a last axis of 2, order 2 the
    Hessian on two last axes of 2. u and b are taken as contiguous rows,
    and the points go through in blocks of ``_BLOCK``. All three orders
    take their image rows, (images, block) with m = -M..M, from
    ``_image_rows``, which writes them into one work array allocated per
    call, so a sum or product over the images combines whole rows; the
    sign of u + m is that of m, except on the m = 0 row (``_signed_sum``).
    Each image term is Re F with F(z) = -(1/2 pi) log(1 - e^z),
    z = x + 2 pi i b, holomorphic, and z is d scaled by 2 pi / L2 (up to
    the sign along L1). So the image terms add
    (2 pi / L2^2) [[Re q, sign Im q], [sign Im q, -Re q]] to the Hessian,
    with q = e^z / (1 - e^z)^2, and the quadratic term adds 1 to the
    long-side entry: off the pole the trace is exactly 1.
    """
    l1, l2, swap = _sides(geom)
    beta = l1 / l2
    signs = _image_table(beta)[1]
    if floor is not None:  # (2 pi floor / L2)^2, inf past the floats
        reach = _TWO_PI * floor / l2
        bound = reach * reach * (1.0 + 1e-12)
    shape = d.shape[:-1]
    d = d.reshape(-1, 2)
    out = np.empty((2**order, len(d)))
    work = np.empty((3, len(signs), min(len(d), _BLOCK)))
    for lo in range(0, len(d), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        # Fortran order: the divide's inner loop runs along the points, and
        # u and b come out as contiguous columns
        ub = np.divide(d[block], geom._periods, order="F")
        ub -= np.rint(ub)
        u, b = ub[:, int(swap)], ub[:, 1 - int(swap)]
        s2 = np.sin(math.pi * b) ** 2
        ex, em1, f = _image_rows(work[:, :, : len(ub)], u, s2, beta)
        if floor is not None and not (f[len(f) // 2] >= bound).all():
            if np.any(np.hypot(l1 * u, l2 * b) < floor):
                raise SingularityError("Green function evaluated on the diagonal")
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
            ) - np.log(f.prod(axis=0)) / (2.0 * _TWO_PI)
    out = out.T.reshape(shape + (2,) * order)
    if swap:  # every derivative axis back from (long, short) to (x, y)
        out = out[(Ellipsis,) + (slice(None, None, -1),) * order]
    return out


# The distance to a pole below which the entry points refuse a point.
_FLOOR = 1e-8


def green_eval(geom: TorusGreen, x, p):
    """G(x, p); broadcasts over leading axes of x and p.

    Raises SingularityError when any pair is closer than 1e-8 on the torus.
    """
    out = _green(geom, _displacement(x, p), floor=_FLOOR)
    return float(out) if out.ndim == 0 else out


def green_gradient(geom: TorusGreen, x, p):
    """Gradient of G in the first argument; broadcasts like green_eval."""
    return _green(geom, _displacement(x, p), order=1, floor=_FLOOR)


def _diagonal_gamma(geom: TorusGreen) -> float:
    """gamma(p, p), the same for every p on the torus (closed form above)."""
    l1, l2, _ = _sides(geom)
    beta = l1 / l2
    rows = np.empty((3, len(_image_table(beta)[1]), 1))
    ex = _image_rows(rows, np.zeros(1), np.zeros(1), beta)[0][:, 0]  # at d = 0
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
    """Fill G(p_t, p_s) off the diagonal and gamma(p_t, p_t) on it.

    The points are first reduced modulo the periods with np.mod, so a point
    given whole periods outside the cell is the same point; the result
    carries them reduced.
    """
    pts = np.atleast_2d(as_array(points, "points"))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError(f"points must be an (N, 2) array, got {pts.shape}")
    pts = np.mod(pts, geom._periods)
    t, s = np.triu_indices(pts.shape[0], k=1)
    w = wrap_displacement(geom, pts[t] - pts[s])
    close = _length(w) < 1e-4
    if close.any():
        k = np.argmax(close)
        raise GeometryError(f"points {t[k]} and {s[k]} are closer than 1e-4 on the torus")
    values = np.full((pts.shape[0],) * 2, _diagonal_gamma(geom))
    values[t, s] = values[s, t] = _green(geom, w)
    for arr in (pts, values):
        arr.setflags(write=False)
    return GStarMatrix(points=pts, values=values)
