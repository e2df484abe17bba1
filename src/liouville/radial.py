"""Radial solver for the coupled exponential system with singular weight.

The radial system

    U_i''(r) + U_i'(r)/r = -sum_j a_ij r^(2 gamma) e^(U_j),  0 < r < infinity,

is integrated in the log-radius variable s = log r, where it becomes

    d^2 U_i / ds^2 = -sum_j a_ij exp(2 mu s + U_j),  mu = 1 + gamma,

with a smooth right-hand side even though the weight r^(2 gamma) is singular
at the origin. The solve (at mu = 1, below) starts from the origin series,
K = 16 terms in x = r^(2 mu), at its start radius: the largest r at which
its last terms are below 2^-52 of its first (``_series_terms``), and at
least one e-fold below r_max if one is given. ``_series`` alone sums it: the start state,
its alpha0-derivative and the values below the first node. The first step
is the one at which the pair's error estimate on the weights' growth
e^(2s) there reads 1/40 (``_FIRST_STEP``), 0.15 at tol 1e-10. Besides
(U_i, dU_i/ds) the state carries, per component, the running weighted mass
integral int_0^r t^(2 gamma + 1) e^(U_i(t)) dt and its log-weighted
counterpart, so downstream energy quadratures inherit the adaptive step
control of the solver and stay bitwise deterministic.

The stepper is DOP853, the 8th-order Dormand-Prince pair with 5th- and
3rd-order error estimates (Hairer, Norsett and Wanner, Solving ODEs I,
II.10), with a PI step-size controller and FSAL reuse. Each step works on
the weights w = exp(2 mu s + U), the only nonlinear term (U' = V, V' = -A w,
mass' = w, logmass' = s w): with a constant row 2 mu beside the state, a
stage's exponent is one fixed combination of it, U, V and the earlier
stages' -A w, and one product of the thirteen stages' w and -A w with a
matrix gives the new state and both error estimates. Every coefficient is
linear in (1, h, h^2, h s, s) (see ``_step_basis``), so a stage costs one
dot, one exp and one product with -A.

On request ``integrate`` also returns the forward sensitivities
S = dY/d alpha0, (4n, n), which obey the variational equations

    S_U' = S_V,  S_V' = -A diag(w) S_U,  S_mass' = diag(w) S_U,
    S_logmass' = s diag(w) S_U,

seeded by the alpha0-derivative of the origin series. Its coefficients'
derivatives come after the values, one matrix product per order
(``_series_terms``): dc_k = (W_k / k)(de_(k-1) + diag e_(k-1)) with d_k =
W_k e_(k-1), and de_k = sum_l diag(e_(k-l)) dc_l, since exp(U_j -
alpha0_j) is the exponential of the series. The sensitivities never steer
the step size, so the step loop is the same with or without them: it only
keeps each accepted step's size and stage weights. After the solve, one
batched pass over the accepted steps builds every step's variational step
matrix (the Runge-Kutta map differentiated at frozen weights, "internal
differentiation") from the same basis, three numpy calls per stage, and
pairwise products chain them onto the series seed. Grid and state are
bitwise those of a run without sensitivities.

The data choose the end as they choose the start. Given no r_max, the
solve ends at the first node with r >= 10 where every gap -dU_j/ds - 2 mu
is positive and the tail model's first omitted term of sigma, estimated
from the node's state alone, is at most min(tol / 10, 1e-5) of sigma
(``_TailEnd``; ``energy`` closes the tail there). That node may lie past
the float radii, out to log r = 1e9; a solve that reaches that bound
first, or whose weights overflow, is an IntegrationError. A bound on how
fast the estimate can fall skips the nodes that cannot pass, so it is
evaluated at a few nodes per solve. Given an r_max, the solve ends there.

One strength is solved: ``integrate`` steps the mu = 1 system from
alpha0 - 2 log mu out to mu log r_max (or to the tail end) and maps that
solution U to V(s) = U(mu s) + 2 log mu (``_mapped``, also behind
``scaling.mu_transform`` and ``scaling.eta_rescale``), so gamma near -1
needs no tiny start radius. The solve builds one ``RadialProfile``, from
the mapped arrays and its counters. ``RadialProfile.stats`` counts, in the
caller's s: ``accepted`` and ``rejected`` steps, weight ``evaluations``
(one, then twelve per attempt), the accepted step range ``h_min``,
``h_max``, and the first node ``s_start``; and it records the end: ``end``,
"r_max" or "tail", the last estimate ``tail_estimate`` (None given an
r_max) and ``tail_evaluations``, the nodes at which it was evaluated.

Between nodes, ``evaluate`` and ``truncated_sigma`` take one step of the same
pair from the node at or below r, so they carry the solver's own accuracy
and need nothing stored beyond the nodes. The step keeps mu, so it serves
profiles of any strength, those made by ``scaling`` too.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .algebra import CoefficientMatrix, SingularityProfile
from .errors import (
    _LOG_FLOAT_MAX,
    DomainError,
    InputError,
    IntegrationError,
    OutOfRangeError,
    as_array,
    as_number,
)

# Terms K of the origin series past alpha0, and log 2^-52, the relative
# size of its last terms at the start radius (``_series_terms``).
_SERIES_TERMS = 16
_ORDERS = np.arange(_SERIES_TERMS + 1.0)  # k = 0..K
_LOG_EPS = -52.0 * math.log(2.0)
# k - l at [k, l], clipped at 0, and whether 1 <= l <= k: the lower
# triangular Toeplitz matrix of a series is series[_LAGS] * _LAGGED
_LAGS = np.subtract.outer(_ORDERS, _ORDERS).astype(int)
_LAGGED = ((_LAGS >= 0) & (_ORDERS >= 1.0))[:, :, None].astype(float)
_LAGS = np.maximum(_LAGS, 0)
# The largest alpha0 entry integrate takes (e^U overflows long after this).
U_OVERFLOW = 50.0

# Attempted steps (accepted or rejected) one integration may take.
MAX_STEPS = 100_000

_TOL_MIN, _TOL_MAX = 1e-13, 1e-4
# The tol of integrate, alpha_to_sigma and invert_sigma when not given; with
# no r_max they end where the tail model is exact (``_TailEnd``).
DEFAULT_TOL = 1e-10
# Largest accepted estimate of sigma's relative error in the tail model.
_TAIL_ERROR_MAX = 1e-5
# The last log radius a solve with no r_max may reach, and the first it may end at.
_LOG_R_BOUND, _LOG_R_FIRST_END = 1e9, math.log(10.0)
# The strength every solve runs at (the module docstring's mu = 1 system).
_MU_ONE = SingularityProfile(0.0)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A computed radial solution on a strictly increasing log-radius grid.

    The radii are kept as their logs s = log r: every transform of
    ``scaling`` is affine in s, so a profile may end past the float radii,
    where ``r_max`` (and ``r_first``) read inf. Only a last node s that is
    not a finite float is a DomainError. Arrays are indexed (node,
    component) and read-only. ``dvalues`` is dU/ds; ``mass`` and
    ``logmass`` are the running energy integrals described in the module
    docstring. ``sensitivity`` is None unless requested from
    ``integrate``; then it is d(state at the last node)/d alpha0, shape (4n, n),
    rows U, dU/ds, mass, logmass. ``stats`` holds the integration's
    counters (module docstring); it is empty for transformed profiles.
    """

    spec: ProblemSpec
    grid: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    mass: np.ndarray
    logmass: np.ndarray
    sensitivity: np.ndarray | None = None
    stats: Mapping[str, float | str | None] = field(default_factory=lambda: MappingProxyType({}))

    def __post_init__(self):
        if not math.isfinite(self.grid[-1]):
            raise DomainError(f"the last node s = log r_max is {self.grid[-1]}, not a finite float")
        for arr in (self.grid, self.values, self.dvalues, self.mass, self.logmass):
            arr.setflags(write=False)
        if self.sensitivity is not None:
            self.sensitivity.setflags(write=False)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def r_first(self) -> float:
        return _radius_at(self.grid[0])

    @property
    def r_max(self) -> float:
        return _radius_at(self.grid[-1])


def _radius_at(s: float) -> float:
    """The radius e^s of a node, inf past the floats."""
    return math.exp(s) if s <= _LOG_FLOAT_MAX else math.inf


def origin_series(spec: ProblemSpec, r: float):
    """The origin series' values and d/dr at a radius within its range.

    U_i(r) = alpha0_i + sum_k c_ik r^(2 mu k), rows 0 and 1 of ``_series``;
    rejected past the series' start radius, where its last terms are no
    longer below the doubles. At r = 0, alpha0 and the slope's limit. A
    slope past the floats (2 mu < 1 and r tiny) reads -inf, as that limit.
    """
    r = as_number(r, "r")
    if r < 0.0:
        raise InputError(f"r must be nonnegative, got {r}")
    if r > 0.0:
        terms = _series_terms(spec)
        if math.log(r) > terms[-1]:
            raise DomainError(
                f"r = {r} is outside the origin-series range "
                f"(start radius {_radius_at(terms[-1]):.6e})"
            )
        return tuple(_series(spec, r, terms=terms)[0][:2])
    mu = spec.singularity.mu
    if 2.0 * mu > 1.0:
        derivs = np.zeros(spec.n)
    elif 2.0 * mu == 1.0:
        derivs = -(spec.matrix.entries @ np.exp(spec.alpha0)) / (2.0 * mu)
    else:
        derivs = np.full(spec.n, -np.inf)
    return spec.alpha0.copy(), derivs


def _series_terms(spec: ProblemSpec, derivative: bool = False):
    """The origin series' coefficients and the log of its start radius.

    With x = r^(2 mu), U_i = alpha0_i + sum_{k=1..K} c_ik x^k, where
    (2 mu k)^2 c_ik = -sum_j a_ij e^(alpha0_j) e_j,k-1 and e_j,k are the
    coefficients of exp(U_j - alpha0_j): e_j,0 = 1 and k e_j,k = sum_{l=1..k}
    l c_jl e_j,k-l. The start radius is the largest at which the last
    terms, e_K x^K and c_K x^(K-1) against c_1, are below 2^-52; it reads
    the coefficients, so it also holds where the radius of convergence is
    small. The recursion runs in y = |c_1| x, so that neither the
    coefficients (about e^(k alpha0)) nor the powers of x leave the
    doubles. With W_k = -a_ij e^(alpha0_j) / (|c_1| (2 mu)^2 k), an order
    is d_k = k c_k = W_k e_(k-1), then the sum over l as one product per
    component.

    The alpha0-derivative (``derivative``) holds the scale |c_1| constant
    and runs after the values, which are bitwise the same with or without
    it. Column m of W_k carries e^(alpha0_m), so dc_k = (W_k / k)(de_(k-1)
    + diag e_(k-1)); and exp(U_j - alpha0_j) = exp(sum_l c_jl y^l) gives
    de_k = sum_{l=1..k} diag(e_(k-l)) dc_l. Together, with dc_0 = I,
    dc_k = sum_{i<k} (W_k / k) diag(e_i) dc_(k-1-i): one product per order
    of a row of blocks, all made at once, with dc_0 .. dc_(k-1). The de_k
    follow in one product per component with e's Toeplitz matrix.

    Returns (coef, dcoef, log |c_1|, log start radius): coef[0, k] = k c_k
    and coef[1, k] = e_k in y, (2, K + 1, n), and dcoef their
    alpha0-derivatives, (2, K + 1, n, n), or None.
    """
    n, b2, terms = spec.n, 2.0 * spec.singularity.mu, _SERIES_TERMS
    weights = spec.matrix.entries * np.exp(spec.alpha0)  # a_ij e^(alpha0_j)
    scale = float(abs(weights.sum(axis=1)).max()) / b2**2 or 1.0
    # row k - 1: -a_ij e^(alpha0_j) / (scale b2^2 k)
    weights = weights / (-scale * b2**2 * _ORDERS[1:, None, None])
    coef = np.zeros((2, terms + 1, n))
    d, e = coef
    e[0] = 1.0
    d_rows, e_cols = d.T[:, None], e.T[:, :, None]  # d_l at [j, 0, l], e_k at [j, k, 0]
    for k in range(1, terms + 1):
        np.dot(weights[k - 1], e[k - 1], out=d[k])
        # k e_k = sum_l d_l e_(k-l)
        np.matmul(d_rows[:, :, 1 : k + 1], e_cols[:, k - 1 :: -1], out=e_cols[:, k : k + 1])
        e[k] /= k
    dcoef = None
    if derivative:
        # row k - 1: the blocks (W_k / k) diag e_i, i = K-1 .. 0, side by side
        rows = np.einsum("krc,ic->kric", weights / _ORDERS[1:, None, None], e[terms - 1 :: -1])
        rows = rows.reshape(terms, n, terms * n)
        dc = np.zeros((terms + 1, n, n))  # dc_k at [k]
        dc[0].flat[:: n + 1] = 1.0
        for k in range(1, terms + 1):
            np.dot(rows[k - 1, :, (terms - k) * n :], dc[:k].reshape(k * n, n), out=dc[k])
        dcoef = np.empty((2, terms + 1, n, n))
        np.multiply(dc, _ORDERS[:, None, None], out=dcoef[0])
        # e[_LAGS] * _LAGGED is e_(k-l) at [k, l, j] for 1 <= l <= k, else 0
        np.matmul((e[_LAGS] * _LAGGED).transpose(2, 0, 1), dc.transpose(1, 0, 2),
                  out=dcoef[1].transpose(1, 0, 2))
    # log y where the last terms reach 2^-52: c_K y^(K-1) (c_1 is 1 in y)
    # and e_K y^K; inf where they vanish
    tops = abs(coef[:, terms]).max(axis=1) / (terms, 1.0)
    log_y = min(
        (_LOG_EPS - math.log(top)) / power if top > 0.0 else math.inf
        for top, power in zip(tops.tolist(), (terms - 1, terms))
    )
    log_scale = math.log(scale)
    return coef, dcoef, log_scale, (log_y - log_scale) / b2


def _series(spec: ProblemSpec, r: float, derivative: bool = False, terms=None):
    """The origin series at r > 0: rows U, dU/dr, mass, logmass, (4, n).

    Sums the ``_series_terms`` (made here unless given); mass and logmass
    integrate t^(2 mu - 1) e^U and log(t) t^(2 mu - 1) e^U over [0, r] term
    by term; dU/dr is -inf where r^(2 mu - 1) passes the floats. With
    ``derivative`` the second value is the alpha0-derivative of the
    solver's seed (row 1 times r), (4n, n), else None.
    """
    n, b2 = spec.n, 2.0 * spec.singularity.mu
    coef, dcoef, log_scale, _ = terms or _series_terms(spec, derivative)
    log_r = math.log(r)
    y = math.exp(b2 * log_r + log_scale)
    powers = y**_ORDERS  # y^k, k = 0..K
    inv_p = 1.0 / (b2 * (_ORDERS + 1.0))
    # weights over k c_k: y^k / k and b2 y^(k-1) (dU/dr over |c_1| r^(b2-1));
    # over e_k: the mass and logmass integrals of x^(k+1), over e^alpha0 x
    on = np.zeros((4, 2, _SERIES_TERMS + 1))
    on[0, 0, 1:] = powers[1:] / _ORDERS[1:]
    on[1, 0, 1:] = b2 * powers[:-1]
    on[2, 1] = powers * inv_p
    on[3, 1] = on[2, 1] * (log_r - inv_p)
    on = on.reshape(4, -1)
    # not dU/ds over r: at 2 mu = 2 and r = 1e-200 that underflows
    try:
        slope = math.exp(log_scale) * r ** (b2 - 1.0)
    except OverflowError:  # 2 mu < 1 at a tiny r: U' is past the floats, -inf
        slope = math.inf
    mass = np.exp(spec.alpha0 + b2 * log_r)  # e^alpha0 x
    rows = on @ coef.reshape(-1, n)
    rows[0] += spec.alpha0
    rows[1] *= slope
    rows[2:] *= mass
    if not derivative:
        return rows, None
    seed = (on @ dcoef.reshape(-1, n * n)).reshape(4, n, n)
    diagonals = seed.reshape(4, n * n)[:, :: n + 1]
    diagonals[0] += 1.0
    seed[1] *= slope * r  # the solver's seed: dU/ds
    seed[2:] *= mass[:, None]
    diagonals[2:] += rows[2:]
    return rows, seed.reshape(4 * n, n)


# DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, II.10) as 13 stages,
# transcribed from scipy's dop853_coefficients: row j of _A gives stage j's
# value, and stage 12 is the 8th-order solution at the new point (row 12 is
# b), reused as the next step's stage 0 (FSAL). _E5 and _E3 are the 5th- and
# 3rd-order error weights.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0
])
_A = np.zeros((13, 13))
_A[1, :1] = [0.05260015195876773]
_A[2, :2] = [0.0197250569845379, 0.0591751709536137]
_A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
_A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
_A[5, [0, 3, 4]] = [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
_A[6, [0, 3, 4, 5]] = [
    0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
]
_A[7, [0, 3, 4, 5, 6]] = [
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023
]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996
]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627
]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196
]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636
]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259
]
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294
]
_E3 = np.zeros(13)
_E3[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082
]

# The first step. At the start the weights grow like e^(2s), the series'
# leading term at mu = 1; on that, a step h gives the relative E5 and E3 error
# rows a5 z^6 and a3 z^4 (z = 2h, to leading order), which the controller's
# norm reads as 10 a5^2 z^8 / (a3 tol). The first step is where that is 1/40.
_A5 = float(_E5 @ _C**5) / 120.0
_A3 = float(_E3 @ _C**3) / 6.0
_FIRST_STEP = 0.5 * (_A3 / (400.0 * _A5**2)) ** 0.125


def _step_basis() -> np.ndarray:
    """Coefficients of 1, h, h^2, h s and s in every linear combination of a step.

    Only the weights W_l = w_l are nonlinear; with G_l = -A W_l (that is
    V') at stage l and a constant row M = 2 mu, a step is linear in the
    rows of the 31-row array

        F = [W_0 .. W_12, M, U, V, mass, logmass, G_0 .. G_12].

    Since V_l = V + h sum_m a_lm G_m, stage j's exponent is

        2 mu s_j + U_j = (s + c_j h) M + U + c_j h V + h^2 sum_l (A^2)_jl G_l,

    so stage j's row over F[13:] gives log W_j itself. The new U is
    U + h V + h^2 (A^2)_12 . G; the new V, mass and logmass are V + h b.G,
    mass + h b.W and logmass + h s b.W + h^2 (b c).W; with E = E5 or E3 the
    error rows of U, V, mass and logmass are h^2 (E A).G, h E.G, h E.W and
    h s E.W + h^2 (E c).W (the V term of U's vanishes: sum E = 0).
    Columns: the (13, 18) stage matrix over F[13:], then the (12, 31) end
    matrix over F with rows U, V, mass, logmass and the E5 and E3 error
    rows. The variational step (``_carried_sensitivity``) reads the same
    rows with W_l = w_l S_U, where M, mass and logmass drop out, and chains
    the steps by pairwise products.
    """
    b, w, g = _A[12], slice(0, 13), slice(18, 31)
    stage = np.zeros((5, 13, 18))
    stage[4, :, 0] = 1.0
    stage[1, :, 0] = stage[1, :, 2] = _C
    stage[0, :, 1] = 1.0
    stage[2, :, 5:] = _A @ _A
    end = np.zeros((5, 12, 31))
    end[0, [0, 1, 2, 3], [14, 15, 16, 17]] = 1.0
    end[1, 0, 15] = 1.0
    end[2, 0, g] = b @ _A
    end[1, 1, g] = b
    end[1, 2, w] = b
    end[2, 3, w], end[3, 3, w] = b * _C, b
    for row, e in ((4, _E5), (8, _E3)):
        end[2, row, g] = e @ _A
        end[1, row + 1, g] = e
        end[1, row + 2, w] = e
        end[2, row + 3, w], end[3, row + 3, w] = e * _C, e
    return np.hstack([stage.reshape(5, -1), end.reshape(5, -1)])


_STEP_BASIS = _step_basis()


class _Step:
    """The weight-form step of the solution from a state at s, in buffers made once.

    ``f`` is F of ``_step_basis``, (31, n), with M = 2 mu in row 13 and the
    current state in rows 14-17, which ``state`` shows read-only.
    ``take(s, h)`` writes the state at s + h to ``new[:4]`` and the E5 and
    E3 error rows to ``new[4:]``, and leaves the stage weights in
    ``f[:13]``; ``accept()`` makes that state current, with stage 12 as the
    next stage 0 (FSAL). A stage is three calls: its row of the stage
    matrix gives the exponent, exp makes it W_j in place, and -A W_j is G_j.
    """

    def __init__(self, spec: ProblemSpec, s: float, state):
        n = spec.n
        self.neg_a = -spec.matrix.entries
        self.coef = np.empty(_STEP_BASIS.shape[1])
        self.end = self.coef[13 * 18 :].reshape(12, 31)  # after the stage matrix
        self.f = np.zeros((31, n))
        self.f[13] = 2.0 * spec.singularity.mu
        self.f[14:18] = state
        self.state = self.f[14:18].view()
        self.state.flags.writeable = False
        self.new = np.empty((12, n))
        # per stage j: its row of the stage matrix, the rows of F it reads,
        # W_j and G_j
        self.stages = [
            (self.coef[18 * j : 18 * j + 5 + j], self.f[13 : 18 + j],
             self.f[j], self.f[18 + j])
            for j in range(1, 13)
        ]
        # accept's copies: the new state, and stage 12's W and G as stage 0's
        self.copies = ((self.f[14:18], self.new[:4]), (self.f[0::18], self.f[12::18]))
        np.exp(self.f[13] * s + self.f[14], out=self.f[0])
        np.dot(self.neg_a, self.f[0], out=self.f[18])

    def take(self, s: float, h: float) -> None:
        np.dot((1.0, h, h * h, h * s, s), _STEP_BASIS, out=self.coef)
        neg_a = self.neg_a
        for row, reads, w, g in self.stages:
            np.dot(row, reads, out=w)
            np.exp(w, out=w)
            np.dot(neg_a, w, out=g)
        np.dot(self.end, self.f, out=self.new)

    def accept(self) -> None:
        for current, new in self.copies:  # FSAL: W_0, G_0 <- W_12, G_12
            current[...] = new


def _variational_rows():
    """The rows of the unit variational step (``_carried_sensitivity``).

    Read off ``_STEP_BASIS`` at (1, h, h^2, hs, s) = (1, 1, 1, 0, 0), where
    M, mass and logmass drop out. Per stage j (row j), over the rows [W_0
    .. W_11, U, V]: its G coefficients (A^2)_j, and those of U + c_j V;
    with [-A, I] these give stage j's S_U in two products. Row 13 gives
    the new V = V + b.G alike. Then the W coefficients of the new mass
    and logmass, b and (b c). (14, 2, 14) and (2, 12).
    """
    unit = np.dot((1.0, 1.0, 1.0, 0.0, 0.0), _STEP_BASIS)
    stage, end = unit[: 13 * 18].reshape(13, 18), unit[13 * 18 :].reshape(12, 31)
    rows = np.zeros((14, 2, 14))
    rows[:13, 0, :12] = stage[:, 5:17]
    rows[:13, 1, 12:] = stage[:, 1:3]
    rows[13, 0, :12] = end[1, 18:30]
    rows[13, 1, 13] = end[1, 15]
    return rows, end[2:4, :12].copy()


_STAGE_ROWS, _MASS_ROWS = _variational_rows()


def _carried_sensitivity(spec: ProblemSpec, seed, s, h, weights) -> np.ndarray:
    """d(state at the last node)/d alpha0, (4n, n), from the accepted steps.

    Step k, from s_k with size h_k and stage weights w_l, maps the
    sensitivities S linearly (the variational step, with the weights
    frozen): stage j's S_U is S_U + c_j h S_V + h^2 (A^2)_j . G with
    W_l = w_l S_U and G_l = -A W_l, and the end rows are those of the step.
    In the step's own units, h S_V and h^2 W (``weights`` holds h^2 w_l for
    l < 12), every step is one of size 1 from s = 0: its rows are those of
    ``_variational_rows``, the same for all steps. The new V and mass are
    then the unit step's divided by h, and logmass gains s times the new
    mass (its h s b.W term).

    Mass and logmass feed no stage, so with X the U, V rows of S and Y the
    mass, logmass rows, step k is the 4n x 4n block [[P_k, 0], [Q_k, I]].
    The pass applies all steps at once to the 2n unit columns of X, on the
    rows [W_0 .. W_11, U, V] (stage 12's weights feed no end row, b_12 =
    0), each (n, 2n, K): the component axis first and the steps last, so
    that a stage is one product of its two rows with all rows, the same
    for every step, one with [-A, I] and one with its weights. The blocks'
    left halves L_k = [P_k; Q_k] are then chained by pairwise products,
    L_b o L_a = L_b P_a + [0; Q_a], onto the series sensitivity ``seed``.

    The products stay small on purpose. Folding [-A, I] into the stage
    rows, one (n, 14n) by (14n, 2n K) product per stage, was faster alone
    but kept OpenBLAS in its 512-bit kernels long enough that the next
    solve ran about 15 % slower on a host with AVX-512.
    """
    n, k = spec.n, len(h)
    m = 2 * n
    eye = np.eye(n)
    neg_a_eye = np.hstack([-spec.matrix.entries, eye])  # [-A, I]
    f = np.zeros((14, n, m, k))
    f[12, :, :n] = eye[:, :, None]
    f[13, :, n:] = eye[:, :, None] * h
    flat = f.reshape(14, -1)
    pair = np.empty((2, n, m * k))  # (A^2)_j . W and U + c_j V
    out = np.empty((4, n, m, k))
    weights = weights.transpose(1, 2, 0)[:, :, None]  # w_l at [l, j, 0, k]

    def stage_u(j, u):
        """U_j = -A ((A^2)_j . W) + U + c_j V (row 13: the new V) into u."""
        np.dot(_STAGE_ROWS[j], flat, out=pair.reshape(2, -1))
        np.dot(neg_a_eye, pair.reshape(m, -1), out=u.reshape(n, -1))

    np.multiply(f[12], weights[0], out=f[0])
    for j in range(1, 12):
        stage_u(j, f[j])
        f[j] *= weights[j]
    stage_u(12, out[0])
    stage_u(13, out[1])
    np.dot(_MASS_ROWS, flat[:12], out=out[2:].reshape(2, -1))
    del f, flat  # the rows are read off; the chain needs no more than out
    # back from the step's units: V and mass over h, logmass + s mass
    out[1:3] /= h
    out[3] += out[2] * s
    steps = out.transpose(3, 0, 1, 2).reshape(k, 4 * n, m)
    while len(steps) > 1:
        if len(steps) % 2:
            steps[-2] = _compose(steps[-1:], steps[-2:-1])[0]
            steps = steps[:-1]
        steps = _compose(steps[1::2], steps[0::2])
    carried = steps[0] @ seed[:m]
    carried[m:] += seed[m:]
    return carried


def _compose(later, earlier):
    """Left halves of the products of [[P, 0], [Q, I]] blocks, pair by pair:
    L_b P_a + [0; Q_a] for L_a = [P_a; Q_a] in ``earlier`` and L_b in ``later``."""
    m = later.shape[2]
    out = np.matmul(later, earlier[:, :m])
    out[:, m:] += earlier[:, m:]
    return out


def _rescale(profile: RadialProfile, spec: ProblemSpec, log_eta: float = 0.0) -> RadialProfile:
    """A profile of strength mu_q as the solution of ``spec``, strength mu_p.

    The strength map then the dilation by eta at mu_p (``_mapped``), with
    c = mu_p / mu_q; ``spec`` must carry the new initial value.
    """
    mu = spec.singularity.mu
    return RadialProfile(spec, *_mapped(
        mu, mu / profile.spec.singularity.mu, log_eta, profile.grid, profile.values,
        profile.dvalues, profile.mass, profile.logmass, profile.sensitivity,
    ))


def _mapped(mu_p, c, log_eta, grid, values, dvalues, mass, logmass, sens):
    """The arrays of V(r) = U((eta r)^c) + 2 log c + 2 mu_p log eta from U's.

    On the grid: s -> s / c - log eta, values + 2 log c + 2 mu_p log eta,
    dU/ds and mass times c, logmass - log eta * (new mass), and the
    sensitivity rows (or None) alike. With log eta = 0 or c = 1 the other
    half is exact arithmetic on the unchanged arrays.
    """
    shift = 2.0 * math.log(c) + 2.0 * mu_p * log_eta
    mass = mass * c
    if sens is not None:
        n = values.shape[1]
        sens = (sens.reshape(4, n, n) * np.array([1.0, c, c, 1.0])[:, None, None]).reshape(4 * n, n)
        sens[3 * n :] -= log_eta * sens[2 * n : 3 * n]
    return grid / c - log_eta, values + shift, dvalues * c, mass, logmass - log_eta * mass, sens


def _solver_inputs(r_max, tol) -> tuple[float | None, float]:
    """r_max (None, the tail end, passes) and tol as floats, r_max at least
    10 and tol in [_TOL_MIN, _TOL_MAX]."""
    if r_max is not None:
        r_max = as_number(r_max, "r_max")
        if r_max < 10.0:
            raise InputError(f"r_max must be at least 10, got {r_max}")
    tol = as_number(tol, "tol")
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise InputError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")
    return r_max, tol


class _TailEnd:
    """Where a solve of the mu = 1 system with no r_max ends.

    At the first node with r >= 10 where every gap g_j = -dU_j/ds - 2 is
    positive and the tail model's first omitted term, estimated from the
    node's state and stage weights w alone,

        max_j w_j sum_k a_jk w_k / (g_k^2 (g_j + g_k)) / mass_j,

    is at most ``limit`` (``energy.extract_summary`` computes the same term
    from the closed tail). Between evaluations ``check`` skips the nodes a
    bound shows cannot pass. With A >= 0 each g only grows, towards a gap
    below G = A (mass + w / g) - 2, and each w_k decays at least at rate
    g_k, so the mass stays below mass + w / g. So at log radius s + d term
    (j, k) of the estimate is at least e^(-(G_j + G_k) d) times its value
    with G for g and mass + w / g for the mass. The next check is where
    every such bound is below twice the limit, a margin for the solution's
    own error.
    """

    def __init__(self, a: np.ndarray, limit: float):
        self.a, self.limit = a.tolist(), limit
        self.estimate, self.evaluations = None, 0

    def check(self, s: float, state, w) -> float | None:
        """None to end at the node at log radius s, else the s of the next
        node to check."""
        v = state[1].tolist()
        if max(v) >= -2.0:  # a gap g = -v - 2 not yet positive
            return s
        self.evaluations += 1
        g = [-2.0 - x for x in v]
        w, mass = w.tolist(), state[2].tolist()
        self.estimate = max(map(sum, _terms(self.a, w, g, mass)))
        if self.estimate <= self.limit:
            return None
        ceiling = [mj + wj / gj for mj, wj, gj in zip(mass, w, g)]
        big = [max(gj, sum([ajk * ck for ajk, ck in zip(row, ceiling)]) - 2.0)
               for row, gj in zip(self.a, g)]
        # the sum passes only where each of its terms does; a bound that
        # overflows reads inf, and then the next node is checked
        floor = 2.0 * self.limit
        skip = max([math.log(low / floor) / (gj + gk)
                    for row, gj in zip(_terms(self.a, w, big, ceiling), big)
                    for low, gk in zip(row, big) if low > floor], default=0.0)
        return s + skip if skip < math.inf else s


def _terms(a, w, g, mass) -> list[list[float]]:
    """The estimate's terms w_j a_jk w_k / (g_k^2 (g_j + g_k) mass_j), row j,
    in Python floats: at n <= 3 these beat some thirty numpy calls."""
    c = [wk / (gk * gk) for wk, gk in zip(w, g)]
    return [[wj * ajk * ck / ((gj + gk) * mj) for ajk, ck, gk in zip(row, c, g)]
            for row, wj, gj, mj in zip(a, w, g, mass)]


def integrate(
    spec: ProblemSpec,
    r_max: float | None = None,
    tol: float = DEFAULT_TOL,
    sensitivity: bool = False,
) -> RadialProfile:
    """Integrate the system from the origin series out to r_max, or, with
    no r_max, out to where the tail model is exact.

    Solves at mu = 1 and maps (module docstring). ``tol`` controls the local
    error per step (mixed absolute/relative, absolute floor tol * 1e-3).
    With no r_max the solve ends at the first node with r >= 10 where the
    tail model's relative error of sigma, estimated from the state, is at
    most min(tol / 10, 1e-5) (``_TailEnd``); that node may lie past the
    float radii. With ``sensitivity`` the profile also carries d(state at
    the last node)/d alpha0, computed after the solve from the accepted
    steps' stage weights; the step loop is the same, and the grid and state
    are bitwise those of a run without.

    Raises
    ------
    InputError
        On an out-of-range r_max or tol, an alpha0 above the overflow guard,
        or one whose e^alpha0 underflows to 0.
    IntegrationError
        On step-size underflow or after MAX_STEPS attempted steps, and with
        no r_max on weights that overflow or on reaching log r = 1e9 before
        the end; carries the last good radius.
    """
    r_max, tol = _solver_inputs(r_max, tol)
    # with A >= 0 each U_i decreases from alpha0_i, so the guard is checked here only
    if spec.alpha0.max() > U_OVERFLOW:
        raise InputError(f"alpha0 = {spec.alpha0.tolist()} exceeds the overflow guard {U_OVERFLOW}")
    n = spec.n
    mu = spec.singularity.mu
    # the mu = 1 system: U is the caller's less 2 log mu, s is mu times the caller's
    unit = ProblemSpec(spec.matrix, _MU_ONE, spec.alpha0 - 2.0 * math.log(mu))
    if not np.exp(unit.alpha0).any():
        raise InputError(f"alpha0 = {spec.alpha0.tolist()} is too small: e^alpha0 underflows to 0")
    # the last s, and the first node at which the tail end is checked
    if r_max is None:
        s_end, s_check = mu * _LOG_R_BOUND, mu * _LOG_R_FIRST_END
        tail = _TailEnd(spec.matrix.entries, min(0.1 * tol, _TAIL_ERROR_MAX))
    else:
        s_end, s_check, tail = mu * math.log(r_max), math.inf, None
    # from the series' start radius, capped one e-fold below r_max
    terms = _series_terms(unit, sensitivity)
    s0 = min(terms[-1], s_end - 1.0)
    r_start = math.exp(s0)
    seed, seed_sens = _series(unit, r_start, sensitivity, terms)
    seed[1] *= r_start
    step = _Step(unit, s0, seed)
    state, new, stage_weights = step.state, step.new[:4], step.f[:12]
    node_weights = step.f[0]  # after accept(), the weights at the new node
    err_rows = step.new[4:].reshape(2, 4, n)
    # the error norm's buffers: |state| before and after the step, the
    # scale atol + tol max(...) and the error rows over it
    size, size_new, scale = np.abs(state), np.empty((4, n)), np.empty((4, n))
    ratio = np.empty((2, 4, n))
    r5, r3 = ratio.reshape(2, -1)

    atol = tol * 1e-3
    # tolerance-based endpoint: the last accepted step may land one ulp short
    s_last = 1e-13 * max(1.0, abs(s_end))
    s = s0
    h = _FIRST_STEP * tol**0.125
    err_prev = 1.0
    nodes = [s]
    states = [state.copy()]
    attempts = 0
    # the accepted steps' sizes and h^2 times their stage weights 0-11, for
    # the sensitivities
    sizes, weights = [], []
    end = "r_max"

    # with no r_max a solve runs until its weights decay, and weights that
    # pass the floats first are an IntegrationError, not a numpy warning; a
    # solve given an r_max keeps numpy's default error state, under which
    # small numpy calls ran about 1 % faster
    guard = np.errstate(over="raise") if tail is not None else contextlib.nullcontext()
    try:
        with guard:
            while s_end - s > s_last:
                if attempts == MAX_STEPS:
                    raise IntegrationError(
                        f"no {'end' if tail else 'arrival at r_max'} after {MAX_STEPS} steps "
                        f"(s = {s / mu:.6f})",
                        last_radius=_radius_at(s / mu),
                    )
                attempts += 1
                h = min(h, s_end - s)
                if h < 1e-14 * max(1.0, abs(s)):
                    raise IntegrationError(
                        f"step size underflow at s = {s / mu:.6f}", last_radius=_radius_at(s / mu)
                    )
                step.take(s, h)
                np.abs(new, out=size_new)
                np.maximum(size, size_new, out=scale)
                np.multiply(scale, tol, out=scale)
                np.add(scale, atol, out=scale)
                np.divide(err_rows, scale, out=ratio)
                norm5, norm3 = float(np.vdot(r5, r5)), float(np.vdot(r3, r3))
                # DOP853's norm: the 5th-order estimate, damped where the 3rd is small
                denom = norm5 + 0.01 * norm3
                err = norm5 / math.sqrt(denom * r5.size) if denom > 0.0 else 0.0

                if err <= 1.0:
                    if sensitivity:
                        sizes.append(h)
                        weights.append(stage_weights * (h * h))
                    s += h
                    step.accept()
                    size, size_new = size_new, size
                    nodes.append(s)
                    states.append(state.copy())
                    fac = 0.9 * err ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0) if err > 0.0 else 5.0
                    err_prev = max(err, 1e-10)
                    h *= min(5.0, max(0.2, fac))
                    if s >= s_check:
                        s_check = tail.check(s, state, node_weights)
                        if s_check is None:
                            end = "tail"
                            break
                else:
                    h *= max(0.2, 0.9 * err ** (-1.0 / 8.0))
    except FloatingPointError:
        raise IntegrationError(
            f"the weights, or A times them, overflow past s = log r = {s / mu:.6g}",
            last_radius=_radius_at(s / mu),
        ) from None
    if tail is not None and end == "r_max":
        raise IntegrationError(
            f"no end before s = log r = {_LOG_R_BOUND:g}: " + (
                "the gaps -dU/ds - 2 mu never all turned positive" if tail.estimate is None
                else f"the tail model's estimated error of sigma is {tail.estimate:.2e}, "
                     f"above {tail.limit:.0e}"
            ),
            last_radius=_radius_at(s / mu),
        )

    sens = _carried_sensitivity(
        unit, seed_sens, np.array(nodes[:-1]), np.array(sizes), np.array(weights)
    ) if sensitivity else None
    # the one profile of the solve, in the caller's s
    arrays = _mapped(mu, mu, 0.0, np.array(nodes), *np.array(states).transpose(1, 0, 2), sens)
    grid = arrays[0]
    steps = grid[1:] - grid[:-1]
    stats = {
        "accepted": len(steps),
        "rejected": attempts - len(steps),
        "evaluations": 1 + 12 * attempts,
        "h_min": float(steps.min()),
        "h_max": float(steps.max()),
        "s_start": float(grid[0]),
        "end": end,
        "tail_estimate": None if tail is None else tail.estimate,
        "tail_evaluations": 0 if tail is None else tail.evaluations,
    }
    return RadialProfile(spec, *arrays, MappingProxyType(stats))


def _radius(profile: RadialProfile, r) -> float:
    """r as a float in [0, r_max]; NaN is an InputError, not a NaN result."""
    r = as_number(r, "r")
    if not 0.0 <= r <= profile.r_max * (1.0 + 1e-12):
        raise OutOfRangeError(f"r = {r} outside [0, {profile.r_max}]")
    return r


def _rows_at(profile: RadialProfile, r) -> np.ndarray:
    """Rows U, dU/dr, mass, logmass, (4, n), anywhere in [0, r_max]: the
    origin limit at 0, the origin series below the first grid node, and
    elsewhere one step of the integrator's pair from the node at or below
    log r (the node's own state when log r is a node). Transformed profiles
    solve their own spec, so this holds for them too."""
    r = _radius(profile, r)
    # r_first is 0.0 when the first node's radius underflows (gamma near -1)
    if r == 0.0:
        return np.vstack([*origin_series(profile.spec, r), np.zeros((2, profile.n))])
    if r < profile.r_first:
        return _series(profile.spec, r)[0]
    grid = profile.grid
    s = math.log(min(r, profile.r_max))
    k = max(int(np.searchsorted(grid, s, side="right")) - 1, 0)
    rows = np.array([profile.values[k], profile.dvalues[k], profile.mass[k], profile.logmass[k]])
    s_k = float(grid[k])
    if s != s_k:
        step = _Step(profile.spec, s_k, rows)
        step.take(s_k, s - s_k)
        rows = step.new[:4]
    with np.errstate(over="ignore"):  # dU/ds over a tiny r may pass the floats: -inf
        rows[1] /= r
    return rows


def evaluate(profile: RadialProfile, r: float):
    """Values U_i(r) and radial derivatives U_i'(r) anywhere in [0, r_max]."""
    return tuple(_rows_at(profile, r)[:2])


def truncated_sigma(profile: RadialProfile, r: float) -> np.ndarray:
    """Weighted masses (1/2pi) int_{B_r} |y|^(2 gamma) e^(U_i) per component.

    Read off the energy states carried by the integrator (series form below
    the first grid node), so the accuracy matches the solver tolerance.
    """
    return _rows_at(profile, r)[2]
