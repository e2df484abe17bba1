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

from .errors import ExtractionError, InputError, as_number
from .radial import RadialProfile, evaluate, interp_mass

# Fixed-point iteration control for the tail closure.
_TAIL_ATOL = 1e-11
_TAIL_MAX_ITER = 100
# m_min this close to the integrability threshold 2 mu makes the tail
# model unreliable (the remainder exponents degenerate).
_NEAR_BOUNDARY_MARGIN = 0.01
# The flux -r U_i' at r_max must be this close to its limit m_i.
_FLUX_GAP_MAX = 1e-3


class TailAccuracyWarning(RuntimeWarning):
    """Tail exponents close to the integrability threshold."""


@dataclass(frozen=True)
class SolutionSummary:
    """Asymptotic data (sigma, m, D, alpha) extracted from a profile."""

    sigma: np.ndarray
    m: np.ndarray
    D: np.ndarray
    alpha: np.ndarray
    mu: float
    m_min: float
    near_boundary: bool
    profile: RadialProfile = field(repr=False)

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


def truncated_sigma(profile: RadialProfile, R: float) -> np.ndarray:
    """Weighted masses (1/2pi) int_{B_R} |y|^(2 gamma) e^(U_i) per component.

    Read off the energy states carried by the integrator (series form below
    the first grid node), so the accuracy matches the solver tolerance.
    """
    return interp_mass(profile, R)


def extract_summary(profile: RadialProfile) -> SolutionSummary:
    """Solve the tail closure for (sigma, m, D, alpha) at full precision.

    Starts from the flux -r U_i'(r_max) and the truncated log-weighted
    integrals, then alternates tail corrections until sigma moves less than
    1e-11 between sweeps.

    Raises
    ------
    ExtractionError
        If the fixed point does not converge, a mass exponent sits at or
        below the integrability threshold 2 mu, or r_max is too small for
        the flux to have settled.
    """
    mu = profile.spec.singularity.mu
    a_mat = profile.spec.matrix.entries
    big_r = profile.r_max
    log_r = math.log(big_r)

    alpha = -profile.spec.alpha0
    sigma_r = profile.mass[-1].copy()
    logw_r = profile.logmass[-1].copy()
    flux = -profile.dvalues[-1]

    m = flux.copy()
    d_vec = a_mat @ logw_r
    sigma = sigma_r.copy()
    for _ in range(_TAIL_MAX_ITER):
        if np.any(m <= 2.0 * mu):
            raise ExtractionError(
                f"mass exponent at or below the integrability threshold "
                f"2 mu = {2 * mu}: m = {m}"
            )
        gap = m - 2.0 * mu
        # single exp of the combined exponent: avoids inf * 0 for extreme data
        tail = np.exp(d_vec - alpha - gap * log_r)
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
    near_boundary = m_min <= 2.0 * mu + _NEAR_BOUNDARY_MARGIN
    if near_boundary:
        warnings.warn(
            f"m_min = {m_min:.6f} is within {_NEAR_BOUNDARY_MARGIN} of the "
            f"integrability threshold {2 * mu}; tail corrections are "
            f"unreliable",
            TailAccuracyWarning,
            stacklevel=2,
        )

    for arr in (sigma, m, d_vec, alpha):
        arr.setflags(write=False)
    return SolutionSummary(
        sigma=sigma,
        m=m,
        D=d_vec,
        alpha=alpha,
        mu=mu,
        m_min=m_min,
        near_boundary=near_boundary,
        profile=profile,
    )


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
    R^(2 mu - m_i). Rows are (R, defect, predicted, defect/predicted).
    """
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
        defect = float(4.0 * s_r.sum() - s_r @ a_mat @ s_r)
        predicted = float(
            2.0 / mu**2 * np.sum(coeff * big_r ** (2.0 * mu - summary.m))
        )
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
