"""Radial solver for the coupled exponential system with singular weight.

The radial system

    U_i''(r) + U_i'(r)/r = -sum_j a_ij r^(2 gamma) e^(U_j),  0 < r < infinity,

is integrated in the log-radius variable s = log r, where it becomes

    d^2 U_i / ds^2 = -sum_j a_ij exp(2 mu s + U_j),  mu = 1 + gamma,

with a smooth right-hand side even though the weight r^(2 gamma) is singular
at the origin. Initial data at r_series = 1e-6 come from the two-term origin
expansion. Besides (U_i, dU_i/ds) the state carries, per component, the
running weighted mass integral int_0^r t^(2 gamma + 1) e^(U_i(t)) dt and its
log-weighted counterpart, so downstream energy quadratures inherit the
adaptive step control of the solver and stay bitwise deterministic.

The stepper is the Dormand-Prince 5(4) embedded pair with a PI step-size
controller and FSAL reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CoefficientMatrix, SingularityProfile
from .errors import (
    BlowupError,
    DomainError,
    InputError,
    IntegrationError,
    OutOfRangeError,
    as_array,
    as_number,
)

# Radius below which the origin series supplies values; integration starts here.
R_SERIES = 1e-6
# Abort threshold for any solution component (e^U overflows long after this).
U_OVERFLOW = 50.0

_TOL_MIN, _TOL_MAX = 1e-13, 1e-4


@dataclass(frozen=True)
class ProblemSpec:
    """Interaction matrix, singularity strength, and initial values U_i(0)."""

    matrix: CoefficientMatrix
    singularity: SingularityProfile
    alpha0: np.ndarray

    def __post_init__(self):
        a0 = as_array(self.alpha0, "alpha0", (self.matrix.n,)).copy()
        a0.setflags(write=False)
        object.__setattr__(self, "alpha0", a0)

    @property
    def n(self) -> int:
        return self.matrix.n


@dataclass(frozen=True)
class RadialProfile:
    """A computed radial solution on a strictly increasing log-radius grid.

    Arrays are indexed (node, component). ``dvalues`` is dU/ds; ``d2values``
    is its node derivative (the ODE right-hand side); ``mass`` and
    ``logmass`` are the running energy integrals described in the module
    docstring, with node derivatives ``wnode`` and s*``wnode``.
    """

    spec: ProblemSpec
    grid: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    d2values: np.ndarray
    mass: np.ndarray
    logmass: np.ndarray
    wnode: np.ndarray
    r_max: float

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def r_first(self) -> float:
        return float(math.exp(self.grid[0]))


def origin_series(spec: ProblemSpec, r: float):
    """Two-term origin expansion: values and d/dr at a small radius.

    U_i(r) = alpha0_i - S_i r^(2 mu) / (2 mu)^2 + O(r^(4 mu)) with
    S_i = sum_j a_ij e^(alpha0_j). Rejected when the second term is no
    longer small.
    """
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
    mu = spec.singularity.mu
    s_vec = spec.matrix.entries @ np.exp(spec.alpha0)
    scale = float(np.max(np.abs(s_vec))) * r ** (2.0 * mu) / (2.0 * mu) ** 2
    if scale > 0.05:
        raise DomainError(
            f"r = {r} is outside the origin-series validity range "
            f"(second term {scale:.3e} > 0.05)"
        )
    values = spec.alpha0 - s_vec * r ** (2.0 * mu) / (2.0 * mu) ** 2
    if r == 0.0:
        if 2.0 * mu > 1.0:
            derivs = np.zeros_like(values)
        elif 2.0 * mu == 1.0:
            derivs = -s_vec / (2.0 * mu)
        else:
            derivs = np.full_like(values, -np.inf)
    else:
        derivs = -s_vec * r ** (2.0 * mu - 1.0) / (2.0 * mu)
    return values, derivs


def _series_energy_seeds(spec: ProblemSpec, r0: float):
    """Mass and log-weighted-mass integrals over [0, r0] from the series.

    int_0^r0 t^(2mu-1) e^(U_i) dt and int_0^r0 log(t) t^(2mu-1) e^(U_i) dt
    with e^(U_i) = e^(alpha0_i) (1 - S_i t^(2mu) / (2mu)^2 + ...).
    """
    mu = spec.singularity.mu
    s_vec = spec.matrix.entries @ np.exp(spec.alpha0)
    e0 = np.exp(spec.alpha0)
    b2, b4 = 2.0 * mu, 4.0 * mu
    log_r0 = math.log(r0)
    mass0 = e0 * (r0**b2 / b2 - s_vec / b2**2 * r0**b4 / b4)
    logmass0 = e0 * (
        r0**b2 * (log_r0 / b2 - 1.0 / b2**2)
        - s_vec / b2**2 * r0**b4 * (log_r0 / b4 - 1.0 / b4**2)
    )
    return mass0, logmass0


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Difference between 5th- and 4th-order weights (local error estimate).
_DP_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


def integrate(spec: ProblemSpec, r_max: float = 1e4, tol: float = 1e-10) -> RadialProfile:
    """Integrate the system from the origin series out to r_max.

    ``tol`` controls the local error per step (mixed absolute/relative,
    absolute floor tol * 1e-3).

    Raises
    ------
    BlowupError
        When a component exceeds the overflow guard.
    IntegrationError
        On step-size underflow; carries the last good radius.
    """
    r_max = as_number(r_max, "r_max")
    if r_max < 10.0:
        raise InputError(f"r_max must be at least 10, got {r_max}")
    tol = as_number(tol, "tol")
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise InputError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")

    n = spec.n
    mu = spec.singularity.mu
    a_mat = spec.matrix.entries
    # radial solutions decrease from the origin, so the guard binds there
    if float(np.max(spec.alpha0)) > U_OVERFLOW:
        raise BlowupError(
            f"initial value exceeds the overflow guard {U_OVERFLOW}",
            last_radius=0.0,
        )

    # shrink the start radius until the dropped r^(4 mu) series term is
    # negligible; small mu needs far smaller starts than the 1e-6 default
    s_max_coeff = float(np.max(spec.matrix.entries @ np.exp(spec.alpha0)))
    r_start = R_SERIES
    target = 1e-8 * (2.0 * mu) ** 2 / s_max_coeff
    if r_start ** (2.0 * mu) > target:
        r_start = max(target ** (1.0 / (2.0 * mu)), 1e-250)

    s0, s_end = math.log(r_start), math.log(r_max)
    u0, du_dr0 = origin_series(spec, r_start)
    mass0, logmass0 = _series_energy_seeds(spec, r_start)
    y = np.concatenate([u0, du_dr0 * r_start, mass0, logmass0])

    def rhs(s, y):
        w = np.exp(2.0 * mu * s + y[:n])
        out = np.empty(4 * n)
        out[:n] = y[n : 2 * n]
        out[n : 2 * n] = -(a_mat @ w)
        out[2 * n : 3 * n] = w
        out[3 * n :] = s * w
        return out

    atol = tol * 1e-3
    s = s0
    h = 1e-2
    err_prev = 1.0
    k1 = rhs(s, y)
    nodes = [s]
    states = [y]
    k_stages = [None] * 7
    max_h = 1.0

    # tolerance-based endpoint: the last accepted step may land one ulp short
    while s_end - s > 1e-13 * max(1.0, abs(s_end)):
        h = min(h, s_end - s, max_h)
        if h < 1e-14 * max(1.0, abs(s)):
            raise IntegrationError(
                f"step size underflow at s = {s:.6f}", last_radius=math.exp(s)
            )
        k_stages[0] = k1
        for i in range(1, 7):
            yi = y + h * sum(
                aij * k_stages[j] for j, aij in enumerate(_DP_A[i]) if aij != 0.0
            )
            k_stages[i] = rhs(s + _DP_C[i] * h, yi)
        y_new = yi  # 7th stage is evaluated at the 5th-order solution (FSAL)
        err_vec = h * sum(e * k_stages[i] for i, e in enumerate(_DP_E) if e != 0.0)
        scale = atol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err <= 1.0:
            s += h
            y = y_new
            k1 = k_stages[6]
            nodes.append(s)
            states.append(y)
            if float(np.max(y[:n])) > U_OVERFLOW:
                raise BlowupError(
                    f"solution component exceeded {U_OVERFLOW} at r = "
                    f"{math.exp(s):.3e}",
                    last_radius=math.exp(s),
                )
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0) if err > 0.0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err ** (-0.2))

    grid = np.array(nodes)
    state = np.array(states)
    values = state[:, :n]
    dvalues = state[:, n : 2 * n]
    mass = state[:, 2 * n : 3 * n]
    logmass = state[:, 3 * n :]
    wnode = np.exp(2.0 * mu * grid[:, None] + values)
    d2values = -(wnode @ a_mat.T)
    for arr in (grid, values, dvalues, d2values, mass, logmass, wnode):
        arr.setflags(write=False)
    return RadialProfile(
        spec=spec,
        grid=grid,
        values=values,
        dvalues=dvalues,
        d2values=d2values,
        mass=mass,
        logmass=logmass,
        wnode=wnode,
        r_max=float(math.exp(grid[-1])),
    )


def _hermite(grid, y, dy, s):
    """Cubic Hermite interpolation of (y, dy) columns at scalar abscissa s."""
    k = int(np.searchsorted(grid, s, side="right") - 1)
    k = min(max(k, 0), len(grid) - 2)
    h = grid[k + 1] - grid[k]
    t = (s - grid[k]) / h
    h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
    h10 = t * (1.0 - t) ** 2
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    return (
        h00 * y[k] + h10 * h * dy[k] + h01 * y[k + 1] + h11 * h * dy[k + 1]
    )


def _radius(profile: RadialProfile, r) -> float:
    """r as a float in [0, r_max]; NaN is an InputError, not a NaN result."""
    r = as_number(r, "r")
    if not 0.0 <= r <= profile.r_max * (1.0 + 1e-12):
        raise OutOfRangeError(f"r = {r} outside [0, {profile.r_max}]")
    return r


def evaluate(profile: RadialProfile, r: float):
    """Values U_i(r) and radial derivatives U_i'(r) anywhere in [0, r_max].

    Below the first grid node the origin series is used; elsewhere cubic
    Hermite interpolation on the log-radius grid.
    """
    r = _radius(profile, r)
    if r < profile.r_first:
        return origin_series(profile.spec, r)
    s = math.log(min(r, profile.r_max))
    u = _hermite(profile.grid, profile.values, profile.dvalues, s)
    du_ds = _hermite(profile.grid, profile.dvalues, profile.d2values, s)
    return u, du_ds / r


def interp_mass(profile: RadialProfile, r: float) -> np.ndarray:
    """Running mass integrals int_0^r t^(2 gamma + 1) e^(U_i) dt."""
    r = _radius(profile, r)
    if r < profile.r_first:
        return _series_energy_seeds(profile.spec, r)[0] if r > 0.0 else np.zeros(profile.n)
    s = math.log(min(r, profile.r_max))
    return _hermite(profile.grid, profile.mass, profile.wnode, s)


def profile_to_csv(profile: RadialProfile, stream, comments=()) -> None:
    """Write the profile grid as CSV: r, U_1..U_n, dU_1..dU_n.

    17 significant digits per field; optional comment lines are prefixed
    with '#'.
    """
    n = profile.n
    for line in comments:
        stream.write(f"# {line}\n")
    header = (
        ["r"]
        + [f"U_{i + 1}" for i in range(n)]
        + [f"dU_{i + 1}" for i in range(n)]
    )
    stream.write(",".join(header) + "\n")
    r_nodes = np.exp(profile.grid)
    du_dr = profile.dvalues / r_nodes[:, None]
    for k in range(len(r_nodes)):
        fields = [r_nodes[k], *profile.values[k], *du_dr[k]]
        stream.write(",".join(f"{v:.17g}" for v in fields) + "\n")
