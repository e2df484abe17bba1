"""Asymptotic data of a radial profile: masses, tail constants, identities.

A finite-energy radial solution behaves like U_i(r) = -m_i log r + D_i -
alpha_i + o(1), where sigma_i is the weighted mass (1/2pi) int |y|^(2 gamma)
e^(U_i), m_i = sum_j a_ij sigma_j, alpha_i = -U_i(0) and D_i is the
log-weighted mass integral over the whole line. This module extracts
(sigma, m, D, alpha) from a computed profile by closing the truncated
integrals with the tail model

    e^(U_j(r)) ~ e^(D_j - alpha_j) r^(-m_j),   r > r_max,

solved self-consistently (D and m appear on both sides). The next term of
U_j's far-field expansion, integrated from R = r_max out, is the model's
first omitted term of sigma_j,

    tau_j = c_j sum_k a_jk c_k / (g_k^2 (g_j + g_k)),  c = e^(D - alpha) R^(-g),  g = m - 2 mu,

and a summary whose ``tail_error`` = max_j |tau_j| / sigma_j, the estimated
relative error of sigma, passes 1e-5 is an ExtractionError. The module also
provides the quadratic energy identity sum a_ij sigma_i sigma_j = 4 mu sum
sigma_i, its finite-radius defect table, and the three-term pointwise fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ExtractionError, InputError, as_array, as_number
from .radial import RadialProfile, evaluate, truncated_sigma

# Fixed-point iteration control for the tail closure.
_TAIL_ATOL = 1e-11
_TAIL_MAX_ITER = 100
# Largest accepted tail_error, the estimated relative error of sigma.
_TAIL_ERROR_MAX = 1e-5


@dataclass(frozen=True, eq=False)
class SolutionSummary:
    """Asymptotic data (sigma, m, D, alpha) extracted from a profile."""

    sigma: np.ndarray
    m: np.ndarray
    D: np.ndarray
    alpha: np.ndarray
    mu: float
    m_min: float
    # closure sweeps, the final sup norm of m - flux, sigma's estimated error
    sweeps: int
    flux_gap: float
    tail_error: float
    profile: RadialProfile = field(repr=False)
    # d sigma / d alpha0, (n, n), when the profile carries sensitivities
    dsigma: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def to_dict(self) -> dict:
        return {
            "sigma": [float(v) for v in self.sigma],
            "m": [float(v) for v in self.m],
            "D": [float(v) for v in self.D],
            "alpha": [float(v) for v in self.alpha],
            "mu": float(self.mu),
            "m_min": float(self.m_min),
            "tail_error": float(self.tail_error),
            "pohozaev_residual": pohozaev_residual(self),
        }


def extract_summary(profile: RadialProfile) -> SolutionSummary:
    """Solve the tail closure for (sigma, m, D, alpha) at full precision.

    Starts from the flux -r U_i'(r_max) and the truncated log-weighted
    integrals, then alternates tail corrections until sigma moves less than
    1e-11 between sweeps. When the profile carries sensitivities, the fixed
    point z = (m, D) is differentiated implicitly, (I - dF/dz) dz = dF/dp dp,
    which gives ``dsigma`` = d sigma / d alpha0 from one 2n x 2n solve.

    Raises
    ------
    ExtractionError
        If the flux at r_max is at or below 2 mu, the closure drives a mass
        exponent to or below the integrability threshold 2 mu or a tail
        e^(D - alpha - (m - 2 mu) log r_max) past the floats, the fixed
        point does not converge, or ``tail_error`` exceeds 1e-5: in the
        first and the last case r_max is too small for the profile.
    """
    mu = profile.spec.singularity.mu
    a_mat = profile.spec.matrix.entries
    log_r = float(profile.grid[-1])

    alpha = -profile.spec.alpha0
    sigma_r = profile.mass[-1].copy()
    logw_r = profile.logmass[-1].copy()
    flux = -profile.dvalues[-1]

    if (flux <= 2.0 * mu).any():
        raise ExtractionError(
            f"flux -r U' at r_max = {profile.r_max:.3g} is {flux}, at or below 2 mu = "
            f"{2 * mu}: r_max is too small for the flux to settle; increase r_max"
        )
    m = flux.copy()
    d_vec = a_mat @ logw_r
    sigma = sigma_r.copy()
    for sweeps in range(1, _TAIL_MAX_ITER + 1):
        gap = m - 2.0 * mu
        tail, logw_tail = _tail(d_vec, alpha, gap, log_r)
        if (tail == np.inf).any():
            i = int(np.argmax(d_vec - alpha - gap * log_r))
            raise ExtractionError(
                f"tail closure diverges at sweep {sweeps}: component {i + 1}'s tail "
                f"overflows; its flux -r U' is {flux[i] - 2 * mu:.4g} above 2 mu = {2 * mu}"
            )
        sigma_new = sigma_r + tail / gap
        m_new = a_mat @ sigma_new
        d_new = a_mat @ (logw_r + logw_tail)
        delta = float(abs(sigma_new - sigma).max())
        sigma, m, d_vec = sigma_new, m_new, d_new
        if (m <= 2.0 * mu).any():
            raise ExtractionError(
                f"mass exponent at or below the integrability threshold "
                f"2 mu = {2 * mu}: m = {m}"
            )
        if delta < _TAIL_ATOL:
            break
    else:
        raise ExtractionError(
            f"tail fixed point did not converge in {_TAIL_MAX_ITER} sweeps"
        )

    gap = m - 2.0 * mu
    tail, logw_tail = _tail(d_vec, alpha, gap, log_r)
    # the first omitted term of sigma, c_j sum_k a_jk c_k / (g_k^2 (g_j + g_k));
    # a NaN or an infinity here fails the test below
    with np.errstate(all="ignore"):
        omitted = tail * (a_mat * (tail / gap**2) / (gap[:, None] + gap)).sum(axis=1)
        tail_error = float((abs(omitted) / sigma).max())
    if not tail_error <= _TAIL_ERROR_MAX:
        raise ExtractionError(
            f"sigma's estimated relative error tail_error = {tail_error:.2e} is above "
            f"{_TAIL_ERROR_MAX:.0e}: r_max = {profile.r_max:.3g} is too small; increase r_max"
        )

    dsigma = None if profile.sensitivity is None else _tail_sensitivity(
        profile, gap, tail, logw_tail
    )
    for arr in (sigma, m, d_vec, alpha, dsigma):
        if arr is not None:
            arr.setflags(write=False)
    return SolutionSummary(
        sigma=sigma,
        m=m,
        D=d_vec,
        alpha=alpha,
        mu=mu,
        m_min=float(m.min()),
        sweeps=sweeps,
        flux_gap=float(abs(m - flux).max()),
        tail_error=tail_error,
        profile=profile,
        dsigma=dsigma,
    )


def _tail(d_vec, alpha, gap, log_r):
    """The tail model past r_max = e^L, e^(U_j) = t_j (r / r_max)^(-m_j):
    t = e^(D - alpha - g L) with g = m - 2 mu, whose weighted mass is t / g,
    and the log-weighted mass t (L/g + 1/g^2). A t past the floats is inf."""
    # single exp of the combined exponent: avoids inf * 0 for extreme data
    with np.errstate(over="ignore"):
        tail = np.exp(d_vec - alpha - gap * log_r)
        return tail, tail * (log_r / gap + 1.0 / gap**2)


def _tail_sensitivity(profile, gap, tail, lw_tail) -> np.ndarray:
    """d sigma / d alpha0 through the converged tail closure.

    sigma = sigma_R + t/g and D = A (logw_R + t (L/g + 1/g^2)) with
    t = exp(D - alpha - g L), g = m - 2 mu, L = log r_max and m = A sigma;
    sigma_R, logw_R move with alpha0 through the profile's sensitivities and
    alpha = -alpha0. The system (I - dF/dz) dz = dF/dp dp is assembled in
    place: its four blocks are A times the partials, negated.
    """
    n = profile.n
    a_mat = profile.spec.matrix.entries
    log_r = float(profile.grid[-1])
    # partials of sigma and of the log-weighted tail in m and in D: sig_m,
    # t/g, lw_m and lw_tail; minus each of them
    sig_m = -lw_tail
    t_g = tail / gap
    neg_lw_m = log_r * lw_tail + tail * (log_r / gap**2 + 2.0 / gap**3)
    lhs = np.empty((2, n, 2, n))
    np.multiply(a_mat, lw_tail, out=lhs[0, :, 0])
    np.multiply(a_mat, -t_g, out=lhs[0, :, 1])
    np.multiply(a_mat, neg_lw_m, out=lhs[1, :, 0])
    np.multiply(a_mat, sig_m, out=lhs[1, :, 1])
    lhs = lhs.reshape(2 * n, 2 * n)
    lhs.flat[:: 2 * n + 1] += 1.0
    # alpha0 enters t as e^(alpha0), so d/d alpha0 of t-terms is the term
    dp = profile.sensitivity[2 * n :].copy()  # d sigma_R, d logw_R over t/g and lw_tail
    dp.reshape(2, n * n)[:, :: n + 1] += (t_g, lw_tail)
    dz = np.linalg.solve(lhs, (a_mat @ dp.reshape(2, n, n)).reshape(2 * n, n))
    return t_g[:, None] * dz[n:] - lw_tail[:, None] * dz[:n] + dp[:n]


def pohozaev_residual(summary: SolutionSummary) -> float:
    """Relative defect of sum a_ij sigma_i sigma_j = 4 mu sum_i sigma_i."""
    a_mat = summary.profile.spec.matrix.entries
    quad = float(summary.sigma @ a_mat @ summary.sigma)
    lin = 4.0 * summary.mu * float(summary.sigma.sum())
    return (quad - lin) / lin


def pohozaev_tail_table(summary: SolutionSummary, radii):
    """Finite-radius defect of the energy identity against its tail model.

    Reads the truncated masses off ``summary.profile``, the profile the
    summary was extracted from. For each R: defect(R) = 4 sum_i sigma_iR/mu
    - sum_ij a_ij (sigma_iR/mu) (sigma_jR/mu), predicted(R) = 2 sum_i
    e^(D_i - alpha_i)/mu^2 * R^(2 mu - m_i). Rows are (R, defect,
    predicted, defect/predicted); a DomainError where predicted is not
    above the rounding of the defect.
    """
    radii = as_array(radii, "radii")
    if radii.ndim != 1:
        raise InputError(f"radii must be 1-D, got shape {radii.shape}")
    profile, mu = summary.profile, summary.mu
    a_mat = profile.spec.matrix.entries
    gap = summary.m - 2.0 * mu
    rows = []
    for big_r in radii:
        if not (10.0 <= big_r <= profile.r_max * (1.0 + 1e-12)):
            raise InputError(f"radius {big_r} outside [10, r_max]")
        s_r = truncated_sigma(profile, big_r) / mu
        linear, quadratic = 4.0 * float(s_r.sum()), float(s_r @ a_mat @ s_r)
        tail = _tail(summary.D, summary.alpha, gap, math.log(big_r))[0]
        predicted = float(2.0 / mu**2 * np.sum(tail))
        # the defect is a difference: below its terms' rounding the ratio
        # says nothing (predicted underflows to 0 with A = [[1e300]])
        rounding = 2.0**-52 * (abs(linear) + abs(quadratic))
        if not predicted > rounding:
            raise DomainError(
                f"at R = {big_r} the predicted defect {predicted:.3e} is not above "
                f"the rounding {rounding:.3e} of the identity's terms"
            )
        defect = linear - quadratic
        rows.append((float(big_r), defect, predicted, defect / predicted))
    return rows


def asymptotic_fit_error(summary: SolutionSummary, r: float) -> np.ndarray:
    """U_i(r) on ``summary.profile`` minus the three-term tail prediction.

    Prediction: -m_i log r + D_i - alpha_i - sum_j a_ij e^(D_j - alpha_j)
    / (m_j - 2 mu)^2 * r^(2 mu - m_j). The result decays one order faster
    than the retained correction.
    """
    r = as_number(r, "r")
    if r < 5.0:
        raise InputError(f"fit error is only meaningful for r >= 5, got {r}")
    a_mat = summary.profile.spec.matrix.entries
    gap = summary.m - 2.0 * summary.mu
    correction = a_mat @ (_tail(summary.D, summary.alpha, gap, math.log(r))[0] / gap**2)
    prediction = -summary.m * math.log(r) + summary.D - summary.alpha - correction
    u, _ = evaluate(summary.profile, r)
    return u - prediction
