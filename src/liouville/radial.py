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
controller and FSAL reuse. Its seven stages are the rows of one (7, N) array
and every stage value is one product with the Butcher matrix. On request it
also carries the forward sensitivities S = dY/d alpha0: the state becomes a
(4n, 1 + n) block whose column 0 is the state and whose other columns obey
the variational equations

    S_U' = S_V,  S_V' = -A diag(w) S_U,  S_mass' = diag(w) S_U,
    S_logmass' = s diag(w) S_U,  w = exp(2 mu s + U),

seeded by the alpha0-derivative of the origin series. Error control, the
overflow guard and the recorded nodes read column 0 only, so the
sensitivities never steer the step size.
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

# Attempted steps (accepted or rejected) one integration may take.
MAX_STEPS = 100_000

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
    ``sensitivity`` is None unless requested from ``integrate``; then it is
    d(state at r_max)/d alpha0, shape (4n, n), rows U, dU/ds, mass, logmass.
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
    sensitivity: np.ndarray | None = None

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


# Dormand-Prince 5(4) tableau; row i of _DP_A gives stage i's value, and
# row 6 is the 5th-order solution (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
# Difference between 5th- and 4th-order weights (local error estimate).
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _series_sensitivity(spec: ProblemSpec, r0: float) -> np.ndarray:
    """d(series state at the fixed radius r0)/d alpha0, shape (4n, n)."""
    mu = spec.singularity.mu
    e0 = np.exp(spec.alpha0)
    ds = spec.matrix.entries * e0  # d S_i / d alpha0_j
    b2, b4 = 2.0 * mu, 4.0 * mu
    mass0, logmass0 = _series_energy_seeds(spec, r0)
    c_mass = e0 * r0**b4 / (b2**2 * b4)
    c_log = e0 * r0**b4 * (math.log(r0) / b4 - 1.0 / b4**2) / b2**2
    return np.vstack([
        np.eye(spec.n) - ds * r0**b2 / b2**2,
        -ds * r0**b2 / b2,
        np.diag(mass0) - c_mass[:, None] * ds,
        np.diag(logmass0) - c_log[:, None] * ds,
    ])


def integrate(
    spec: ProblemSpec,
    r_max: float = 1e4,
    tol: float = 1e-10,
    sensitivity: bool = False,
) -> RadialProfile:
    """Integrate the system from the origin series out to r_max.

    ``tol`` controls the local error per step (mixed absolute/relative,
    absolute floor tol * 1e-3). With ``sensitivity`` the profile also
    carries d(state at r_max)/d alpha0; step control still reads the state
    alone, so the grid has the same nodes up to rounding.

    Raises
    ------
    BlowupError
        When a component exceeds the overflow guard.
    IntegrationError
        On step-size underflow or after MAX_STEPS attempted steps; carries
        the last good radius.
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
    block = np.concatenate([u0, du_dr0 * r_start, mass0, logmass0])[:, None]
    if sensitivity:
        block = np.hstack([block, _series_sensitivity(spec, r_start)])
    # the (4n, q) block is flattened row by row, so the state is y[::q]
    q = block.shape[1]
    y = block.ravel()

    neg_a = -a_mat

    def rhs(s, y, out):
        """Write Y' into the (4n, q) block out; one pass for state and S."""
        blk = y.reshape(4 * n, q)
        w = np.exp(2.0 * mu * s + blk[:n, 0])
        wm = w[:, None] * blk[:n]  # [w | diag(w) dU]
        wm[:, 0] = w
        out[:n] = blk[n : 2 * n]
        np.matmul(neg_a, wm, out=out[n : 2 * n])
        out[2 * n : 3 * n] = wm
        np.multiply(s, wm, out=out[3 * n :])

    atol = tol * 1e-3
    s = s0
    h = 1e-2
    err_prev = 1.0
    stages = np.empty((7, y.size))
    blocks = stages.reshape(7, 4 * n, q)  # the same memory, one block per stage
    rhs(s, y, blocks[0])
    nodes = [s]
    states = [y[::q]]
    max_h = 1.0
    attempts = 0

    # tolerance-based endpoint: the last accepted step may land one ulp short
    while s_end - s > 1e-13 * max(1.0, abs(s_end)):
        if attempts == MAX_STEPS:
            raise IntegrationError(
                f"no arrival at r_max after {MAX_STEPS} steps (s = {s:.6f})",
                last_radius=math.exp(s),
            )
        attempts += 1
        h = min(h, s_end - s, max_h)
        if h < 1e-14 * max(1.0, abs(s)):
            raise IntegrationError(
                f"step size underflow at s = {s:.6f}", last_radius=math.exp(s)
            )
        for i in range(1, 7):
            y_new = y + h * (_DP_A[i, :i] @ stages[:i])
            rhs(s + _DP_C[i] * h, y_new, blocks[i])
        # y_new is the 5th-order solution, at which stage 6 was evaluated
        err_vec = h * (_DP_E @ stages[:, ::q])
        scale = atol + tol * np.maximum(np.abs(y[::q]), np.abs(y_new[::q]))
        ratio = err_vec / scale
        err = math.sqrt(float(ratio @ ratio) / ratio.size)

        if err <= 1.0:
            s += h
            y = y_new
            stages[0] = stages[6]
            nodes.append(s)
            states.append(y[::q])
            if float(y[: n * q : q].max()) > U_OVERFLOW:
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
    sens = y.reshape(4 * n, q)[:, 1:].copy() if sensitivity else None
    for arr in (grid, values, dvalues, d2values, mass, logmass, wnode, sens):
        if arr is not None:
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
        sensitivity=sens,
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

