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
controller and FSAL reuse. On request it also carries the forward
sensitivities S = dY/d alpha0: the state becomes a (4n, 1 + n) block whose
column 0 is the state and whose other columns obey the variational equations

    S_U' = S_V,  S_V' = -A diag(w) S_U,  S_mass' = diag(w) S_U,
    S_logmass' = s diag(w) S_U,  w = exp(2 mu s + U),

seeded by the alpha0-derivative of the origin series. Error control, the
overflow guard and the recorded nodes read column 0 only, so the
sensitivities never steer the step size.

Each step works on the weights W = w [1 | S_U], the only nonlinear term
(U' = V, V' = -A W, mass' = W, logmass' = s W): a stage's U is a fixed
combination of U, V and the earlier stages' -A W, and one product of the
seven stages' W and -A W with a matrix in h and h s gives the new V, mass
and logmass and the error estimate (see ``_step_basis``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

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
    ``stats`` holds the integration's deterministic counters: ``accepted``
    and ``rejected`` steps, ``evaluations`` of the weights exp(2 mu s + U),
    the smallest and largest accepted step in s (``h_min``, ``h_max``) and
    ``r_start``; it is empty for profiles made by transforming another.
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
    stats: Mapping[str, float] = field(default_factory=lambda: MappingProxyType({}))

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


def _step_basis() -> np.ndarray:
    """Coefficients of 1, h, h^2 and h s in every linear combination of a step.

    Only W_l = w_l [1 | S_U] is nonlinear; with G_l = -A W_l (that is V')
    at stage l, a step is linear in the rows of the (18, n, q) array

        F = [W_0 .. W_6, U, V, mass, logmass, G_0 .. G_6].

    Since V_l = V + h sum_m a_lm G_m, stage j's U is

        U_j = U + c_j h V + h^2 sum_l (A^2)_jl G_l,

    and U_6 is the new U (FSAL). The new V, mass and logmass are
    V + h b.G, mass + h b.W and logmass + h s b.W + h^2 (b c).W; the error
    rows of U, V, mass and logmass are h^2 (E A).G, h E.G, h E.W and
    h s E.W + h^2 (E c).W (the V term of U's vanishes: sum E = 0).
    Columns: the (7, 11) stage matrix over F[7:], then the (7, 18) end
    matrix over F with rows V, mass, logmass and the four error rows.
    """
    b, w, g = _DP_A[6], slice(0, 7), slice(11, 18)
    stage = np.zeros((4, 7, 11))
    stage[0, :, 0] = 1.0
    stage[1, :, 1] = _DP_C
    stage[2, :, 4:] = _DP_A @ _DP_A
    end = np.zeros((4, 7, 18))
    end[0, [0, 1, 2], [8, 9, 10]] = 1.0
    end[1, 0, g] = b
    end[1, 1, w] = b
    end[2, 2, w], end[3, 2, w] = b * _DP_C, b
    end[2, 3, g] = _DP_E @ _DP_A
    end[1, 4, g] = _DP_E
    end[1, 5, w] = _DP_E
    end[2, 6, w], end[3, 6, w] = _DP_E * _DP_C, _DP_E
    return np.hstack([stage.reshape(4, -1), end.reshape(4, -1)])


_STEP_BASIS = _step_basis()


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
    q = block.shape[1]

    neg_a = -a_mat
    mu2 = 2.0 * mu
    c = _DP_C.tolist()
    coef = np.empty(_STEP_BASIS.shape[1])
    end_coef = coef[7 * 11 :].reshape(7, 18)  # after the stage matrix
    # F of _STEP_BASIS; rows 7-10 hold the state, column 0 of each row
    # the solution and columns 1.. its sensitivities
    weights = np.empty((18, n, q))
    flat = weights.reshape(18, n * q)
    state = weights[7:11]
    state[:] = block.reshape(4, n, q)
    # the step's outcome: U_6, then the end matrix's rows
    new = np.empty((8, n, q))
    u_stage = [weights[7], *np.empty((5, n, q)), new[0]]
    # per stage j, made once: its row of the stage matrix and the rows of F
    # it reads, U_j flat and as (solution, sensitivities), W_j likewise and
    # whole, and G_j
    stages = [
        (
            coef[11 * j : 11 * j + 4 + j], flat[7 : 11 + j], u.reshape(-1), u[:, :1],
            u[:, 1:], weights[j, :, :1], weights[j, :, 1:], weights[j], weights[11 + j],
        )
        for j, u in enumerate(u_stage)
    ]

    def weigh(j, s_j):
        """W_j = w [1 | S_U] and G_j = -A W_j from U_j, w = exp(2 mu s_j + U)."""
        _, _, _, u_sol, u_sens, w_sol, w_sens, w_j, g_j = stages[j]
        np.exp(mu2 * s_j + u_sol, out=w_sol)
        if sensitivity:
            np.multiply(u_sens, w_sol, out=w_sens)
        np.matmul(neg_a, w_j, out=g_j)

    atol = tol * 1e-3
    s = s0
    h = 1e-2
    err_prev = 1.0
    weigh(0, s)
    nodes = [s]
    states = [state[:, :, 0].copy()]
    size = np.abs(states[0])
    err_vec = new[4:, :, 0]
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
        np.dot((1.0, h, h * h, h * s), _STEP_BASIS, out=coef)
        for j in range(1, 7):
            row, reads, u_j = stages[j][:3]
            np.matmul(row, reads, out=u_j)
            weigh(j, s + c[j] * h)
        np.matmul(end_coef, flat, out=new[1:].reshape(7, n * q))
        # new[:4] is the 5th-order solution, at whose U stage 6 was evaluated
        size_new = np.abs(new[:4, :, 0])
        ratio = err_vec / (atol + tol * np.maximum(size, size_new))
        err = math.sqrt(float(np.vdot(ratio, ratio)) / ratio.size)

        if err <= 1.0:
            s += h
            state[:] = new[:4]
            weights[0::11] = weights[6::11]  # FSAL: W_0, G_0 <- W_6, G_6
            size = size_new
            nodes.append(s)
            states.append(state[:, :, 0].copy())
            if float(state[0, :, 0].max()) > U_OVERFLOW:
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
    values, dvalues, mass, logmass = np.array(states).transpose(1, 0, 2)
    wnode = np.exp(2.0 * mu * grid[:, None] + values)
    d2values = -(wnode @ a_mat.T)
    sens = state[:, :, 1:].reshape(4 * n, n).copy() if sensitivity else None
    steps = np.diff(grid)
    stats = {
        "accepted": len(steps),
        "rejected": attempts - len(steps),
        "evaluations": 1 + 6 * attempts,
        "h_min": float(steps.min()),
        "h_max": float(steps.max()),
        "r_start": r_start,
    }
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
        stats=MappingProxyType(stats),
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

