"""Asymptotic data of a radial profile: masses, tail constants, identities.

A finite-energy radial solution behaves like U_i(r) = -m_i log r + D_i -
alpha_i + o(1), where sigma_i is the weighted mass (1/2pi) int |y|^(2 gamma)
e^(U_i), m_i = sum_j a_ij sigma_j, alpha_i = -U_i(0) and D_i is the
log-weighted mass integral over the whole line. This module extracts
(sigma, m, D, alpha) from a computed profile by closing the truncated
integrals with the tail model

    e^(U_j(r)) ~ e^(D_j - alpha_j) r^(-m_j),   r > r_max,

solved self-consistently (D and m appear on both sides), and provides the
quadratic energy identity sum a_ij sigma_i sigma_j = 4 mu sum sigma_i, its
finite-radius defect table, and the three-term pointwise fit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import _LOG_FLOAT_MAX, DomainError, ExtractionError, InputError, as_array, as_number
from .radial import RadialProfile, evaluate, truncated_sigma

# Fixed-point iteration control for the tail closure.
_TAIL_ATOL = 1e-11
_TAIL_MAX_ITER = 100
# m_min within this many mu of the integrability threshold 2 mu makes the
# tail model unreliable (the remainder exponents degenerate).
_NEAR_BOUNDARY_MARGIN = 0.01
# The flux -r U_i' at r_max must be this close to its limit m_i. Since
# -r U'(r_max) = A sigma(r_max) exactly, the gap m - flux at the converged
# closure is A (tail / gap), the tail model's own share of m: this bounds
# how much of m the tail model supplies, not how wrong the model is.
_FLUX_GAP_MAX = 1e-3


class TailAccuracyWarning(RuntimeWarning):
    """Tail exponents close to the integrability threshold."""


@dataclass(frozen=True, eq=False)
class SolutionSummary:
    """Asymptotic data (sigma, m, D, alpha) extracted from a profile."""

    sigma: np.ndarray
    m: np.ndarray
    D: np.ndarray
    alpha: np.ndarray
    mu: float
    m_min: float
    near_boundary: bool
    # tail-closure sweeps taken and the final sup norm of m - flux
    sweeps: int
    flux_gap: float
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
        If r_max is too small for the flux to have settled (it is at or
        below 2 mu, or too far from m after the closure), the closure drives
        a mass exponent to or below the integrability threshold 2 mu or a
        tail e^(D - alpha - (m - 2 mu) log r_max) past the floats, or the
        fixed point does not converge.
    """
    mu = profile.spec.singularity.mu
    a_mat = profile.spec.matrix.entries
    log_r = float(profile.grid[-1])

    alpha = -profile.spec.alpha0
    sigma_r = profile.mass[-1].copy()
    logw_r = profile.logmass[-1].copy()
    flux = -profile.dvalues[-1]

    if np.any(flux <= 2.0 * mu):
        raise ExtractionError(
            f"flux -r U' at r_max = {profile.r_max:.3g} is {flux}, at or below 2 mu = "
            f"{2 * mu}: r_max is too small for the flux to settle; increase r_max"
        )
    m = flux.copy()
    d_vec = a_mat @ logw_r
    sigma = sigma_r.copy()
    for sweeps in range(1, _TAIL_MAX_ITER + 1):
        if np.any(m <= 2.0 * mu):
            raise ExtractionError(
                f"mass exponent at or below the integrability threshold "
                f"2 mu = {2 * mu}: m = {m}"
            )
        gap = m - 2.0 * mu
        # single exp of the combined exponent: avoids inf * 0 for extreme data
        exponent = d_vec - alpha - gap * log_r
        if np.any(exponent > _LOG_FLOAT_MAX):
            i = int(np.argmax(exponent))
            raise ExtractionError(
                f"tail closure diverges at sweep {sweeps}: component {i + 1}'s tail "
                f"overflows; its flux -r U' is {flux[i] - 2 * mu:.4g} above 2 mu = {2 * mu}"
            )
        tail = np.exp(exponent)
        sigma_new = sigma_r + tail / gap
        logw_tail = tail * (log_r / gap + 1.0 / gap**2)
        m_new = a_mat @ sigma_new
        d_new = a_mat @ (logw_r + logw_tail)
        delta = float(np.max(np.abs(sigma_new - sigma)))
        sigma, m, d_vec = sigma_new, m_new, d_new
        if delta < _TAIL_ATOL:
            break
    else:
        raise ExtractionError(
            f"tail fixed point did not converge in {_TAIL_MAX_ITER} sweeps"
        )

    flux_gap = float(np.max(np.abs(m - flux)))
    if flux_gap > _FLUX_GAP_MAX:
        raise ExtractionError(
            f"flux -r U' at r_max is {flux_gap:.2e} away from its limit; "
            f"increase r_max"
        )

    m_min = float(m.min())
    # relative to mu, so the test is the same before and after mu_transform
    near_boundary = m_min <= 2.0 * mu + _NEAR_BOUNDARY_MARGIN * mu
    if near_boundary:
        warnings.warn(
            f"m_min = {m_min:.6f} is within {_NEAR_BOUNDARY_MARGIN * mu:.6g} "
            f"({_NEAR_BOUNDARY_MARGIN} mu) of the integrability threshold "
            f"{2 * mu}; tail corrections are unreliable",
            TailAccuracyWarning,
            stacklevel=2,
        )

    dsigma = None if profile.sensitivity is None else _tail_sensitivity(
        profile, m, d_vec, alpha
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
        m_min=m_min,
        near_boundary=near_boundary,
        sweeps=sweeps,
        flux_gap=flux_gap,
        profile=profile,
        dsigma=dsigma,
    )


def _tail_sensitivity(profile, m, d_vec, alpha) -> np.ndarray:
    """d sigma / d alpha0 through the converged tail closure.

    sigma = sigma_R + t/g and D = A (logw_R + t (L/g + 1/g^2)) with
    t = exp(D - alpha - g L), g = m - 2 mu, L = log r_max and m = A sigma;
    sigma_R, logw_R move with alpha0 through the profile's sensitivities and
    alpha = -alpha0.
    """
    n = profile.n
    a_mat = profile.spec.matrix.entries
    log_r = float(profile.grid[-1])
    gap = m - 2.0 * profile.spec.singularity.mu
    tail = np.exp(d_vec - alpha - gap * log_r)
    lw_tail = tail * (log_r / gap + 1.0 / gap**2)
    # partials of sigma and of the log-weighted tail in m and in D
    sig_m = -lw_tail
    lw_m = -log_r * lw_tail - tail * (log_r / gap**2 + 2.0 / gap**3)
    jac_z = np.block([
        [a_mat * sig_m, a_mat * (tail / gap)],
        [a_mat * lw_m, a_mat * lw_tail],
    ])
    sens = profile.sensitivity
    # alpha0 enters t as e^(alpha0), so d/d alpha0 of t-terms is the term
    dsig_p = sens[2 * n : 3 * n] + np.diag(tail / gap)
    dlw_p = sens[3 * n :] + np.diag(lw_tail)
    dz = np.linalg.solve(np.eye(2 * n) - jac_z, np.vstack([a_mat @ dsig_p, a_mat @ dlw_p]))
    return sig_m[:, None] * dz[:n] + (tail / gap)[:, None] * dz[n:] + dsig_p


def pohozaev_residual(summary: SolutionSummary) -> float:
    """Relative defect of sum a_ij sigma_i sigma_j = 4 mu sum_i sigma_i."""
    a_mat = summary.profile.spec.matrix.entries
    quad = float(summary.sigma @ a_mat @ summary.sigma)
    lin = 4.0 * summary.mu * float(summary.sigma.sum())
    return (quad - lin) / lin


def pohozaev_tail_table(profile: RadialProfile, radii, summary=None):
    """Finite-radius defect of the energy identity against its tail model.

    For each R: defect(R) = 4 sum_i sigma_iR/mu - sum_ij a_ij (sigma_iR/mu)
    (sigma_jR/mu), predicted(R) = 2 sum_i e^(D_i - alpha_i)/mu^2 *
    R^(2 mu - m_i). Rows are (R, defect, predicted, defect/predicted); a
    DomainError where predicted is not above the rounding of the defect.
    """
    radii = as_array(radii, "radii")
    if radii.ndim != 1:
        raise InputError(f"radii must be 1-D, got shape {radii.shape}")
    if summary is None:
        summary = extract_summary(profile)
    mu = summary.mu
    a_mat = profile.spec.matrix.entries
    coeff = np.exp(summary.D - summary.alpha)
    rows = []
    for big_r in radii:
        if not (10.0 <= big_r <= profile.r_max * (1.0 + 1e-12)):
            raise InputError(f"radius {big_r} outside [10, r_max]")
        s_r = truncated_sigma(profile, big_r) / mu
        linear, quadratic = 4.0 * float(s_r.sum()), float(s_r @ a_mat @ s_r)
        predicted = float(
            2.0 / mu**2 * np.sum(coeff * big_r ** (2.0 * mu - summary.m))
        )
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


def asymptotic_fit_error(profile: RadialProfile, summary: SolutionSummary, r: float) -> np.ndarray:
    """U_i(r) minus the three-term tail prediction.

    Prediction: -m_i log r + D_i - alpha_i - sum_j a_ij e^(D_j - alpha_j)
    / (m_j - 2 mu)^2 * r^(2 mu - m_j). The result decays one order faster
    than the retained correction.
    """
    r = as_number(r, "r")
    if r < 5.0:
        raise InputError(f"fit error is only meaningful for r >= 5, got {r}")
    mu = summary.mu
    a_mat = profile.spec.matrix.entries
    gap = summary.m - 2.0 * mu
    correction = a_mat @ (
        np.exp(summary.D - summary.alpha) / gap**2 * r ** (-gap)
    )
    prediction = (
        -summary.m * math.log(r) + summary.D - summary.alpha - correction
    )
    u, _ = evaluate(profile, r)
    return u - prediction
