"""Bubble-comparison transforms between profiles of different strengths.

Two radial profiles with singular strengths mu_q and mu_p are compared by
(1) the strength transform V~(r) = V(r^(mu_p/mu_q)) + 2 log(mu_p/mu_q),
which maps solutions of the mu_q system to solutions of the mu_p system,
(2) height matching, which fixes the dilation eta from the two per-strength
normalized maxima, and (3) the dilation V^(r) = V~(eta r) + 2 mu_p log eta.
All three are exact bookkeeping on the log-radius grid (an affine
reparametrization plus constant shifts), so the transformed profile carries
its energy integrals with no added quadrature error. A profile keeps its
radii as logs, so a transformed one may end past the float radii (its
``r_max`` reads inf); the transforms take e^(+-M/2) of the heights and eta
as floats, and ``height_match`` checks those.

The exact consequences tested downstream: transformed energies scale by
mu_p/mu_q, initial gaps between components are preserved, and the
log-weighted tail constants of the fully rescaled profile satisfy
D^_i = D_i + (m_i/mu_q) log(mu_p/mu_q) independently of the chosen heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import SingularityProfile
from .energy import SolutionSummary, extract_summary
from .errors import _LOG_FLOAT_MAX, DomainError, InputError, as_number
from .radial import RadialProfile, _rescale


@dataclass(frozen=True)
class ScalingHeights:
    """Matched heights of two bubbles and the dilation they induce."""

    M_p: float
    M_q: float
    mu_p: float
    mu_q: float
    eta: float

    @property
    def eps_p(self) -> float:
        return math.exp(-self.M_p / 2.0)

    @property
    def eps_q(self) -> float:
        return math.exp(-self.M_q / 2.0)


def height_match(M_p: float, M_q: float, mu_p: float, mu_q: float) -> ScalingHeights:
    """Dilation eta with 2 mu_p log eta = mu_p M_p - mu_q M_q - 2 log(mu_p/mu_q).

    The transforms take e^(-M/2) and e^(M/2) of both heights, and eta, so
    each must be a finite positive float; otherwise an InputError.
    """
    M_p, M_q = as_number(M_p, "M_p"), as_number(M_q, "M_q")
    mu_p, mu_q = as_number(mu_p, "mu_p"), as_number(mu_q, "mu_q")
    for name, mu in (("mu_p", mu_p), ("mu_q", mu_q)):
        if not (0.0 < mu <= 1.0):
            raise InputError(f"{name} must lie in (0, 1], got {mu}")
    log_eta = (
        mu_p * M_p - mu_q * M_q - 2.0 * math.log(mu_p / mu_q)
    ) / (2.0 * mu_p)
    # e^(|M|/2) finite makes e^(-|M|/2) positive
    checks = {f"M_p = {M_p}": abs(M_p) / 2.0, f"M_q = {M_q}": abs(M_q) / 2.0, "eta": log_eta}
    for what, x in checks.items():
        if x > _LOG_FLOAT_MAX or math.exp(x) == 0.0:
            raise InputError(f"{what} is out of range: e^({x:.6g}) is not a finite positive float")
    return ScalingHeights(M_p=M_p, M_q=M_q, mu_p=mu_p, mu_q=mu_q, eta=math.exp(log_eta))


def mu_transform(profile: RadialProfile, mu_p: float) -> RadialProfile:
    """Map a profile of strength mu_q to one of strength mu_p.

    V~(r) = V(r^(mu_p/mu_q)) + 2 log(mu_p/mu_q); on the log-radius grid this
    is s -> s/c with c = mu_p/mu_q, values shifted by 2 log c, derivatives
    scaled by c, masses scaled by c and log-masses unchanged. Every grid node
    maps exactly, so no resampling error is introduced. The map is
    ``radial._mapped`` (through ``radial._rescale``), the one ``integrate``
    uses.
    """
    mu_p = as_number(mu_p, "mu_p")
    if not (0.0 < mu_p <= 1.0):
        raise DomainError(f"target strength must lie in (0, 1], got {mu_p}")
    singularity = SingularityProfile(gamma=mu_p - 1.0)
    shift = 2.0 * math.log(singularity.mu / profile.spec.singularity.mu)
    spec = replace(profile.spec, singularity=singularity, alpha0=profile.spec.alpha0 + shift)
    return _rescale(profile, spec)


def eta_rescale(profile: RadialProfile, eta: float) -> RadialProfile:
    """Dilation W(r) = V(eta r) + 2 mu log eta at the profile's own strength.

    Preserves the weighted measure: node masses are unchanged and
    log-masses pick up -log(eta) * mass; ``radial._rescale`` at c = 1, so
    the sensitivities ride along.
    """
    eta = as_number(eta, "eta")
    if eta <= 0.0:
        raise InputError(f"eta must be positive, got {eta}")
    log_eta = math.log(eta)
    shift = 2.0 * profile.spec.singularity.mu * log_eta
    return _rescale(profile, replace(profile.spec, alpha0=profile.spec.alpha0 + shift), log_eta)


def hat_rescale(profile: RadialProfile, heights: ScalingHeights) -> RadialProfile:
    """Apply the height-matched dilation to a strength-mu_p profile."""
    mu = profile.spec.singularity.mu
    if abs(mu - heights.mu_p) > 1e-12:
        raise InputError(
            f"profile strength {mu} does not match heights.mu_p = {heights.mu_p}"
        )
    return eta_rescale(profile, heights.eta)


def d_relation_residual(
    summary_q: SolutionSummary, mu_p: float, M_p: float, M_q: float
) -> np.ndarray:
    """Defect of the tail-constant relation through the full transform chain.

    Rebuilds the unscaled profile from the q-side data, applies the strength
    transform, the height-matched dilation, and the final shrink by eps_p,
    re-extracts the log-weighted constants D^ of the result, and returns
    D^_i - [D_i + (m_i / mu_q) log(mu_p / mu_q)]. The chosen height pair
    cancels identically. Each stage maps log r affinely, so a stage may end
    past the float radii; only heights whose e^(+-M/2) or eta is not a
    float are an InputError (``height_match``).
    """
    mu_q = summary_q.mu
    heights = height_match(M_p, M_q, mu_p, mu_q)
    v_unscaled = eta_rescale(summary_q.profile, 1.0 / heights.eps_q)
    v_strength = mu_transform(v_unscaled, mu_p)
    v_matched = hat_rescale(v_strength, heights)
    u_hat = eta_rescale(v_matched, heights.eps_p)
    summary_hat = extract_summary(u_hat)
    expected = summary_q.D + (summary_q.m / mu_q) * math.log(mu_p / mu_q)
    return summary_hat.D - expected


@dataclass(frozen=True, eq=False)
class BubbleComparison:
    """Per-component normalized-energy distances between two bubbles."""

    distances: np.ndarray
    reference_scale: float | None


def bubble_distance(
    summary_p: SolutionSummary,
    summary_q: SolutionSummary,
    heights: ScalingHeights | None = None,
) -> BubbleComparison:
    """|sigma_i / mu_p - sigma_i / mu_q| per component.

    When heights are supplied the reference scale eps_p^(m_min - 2 mu_p)
    of the p-side bubble is attached for comparison; an InputError names
    M_p when that power overflows (eps_p > 1, a negative height).
    """
    if summary_p.n != summary_q.n:
        raise InputError(f"summary_p has {summary_p.n} components and summary_q {summary_q.n}")
    distances = np.abs(
        summary_p.sigma / summary_p.mu - summary_q.sigma / summary_q.mu
    )
    scale = None
    if heights is not None:
        try:
            scale = heights.eps_p ** (summary_p.m_min - 2.0 * summary_p.mu)
        except OverflowError:
            raise InputError(f"M_p = {heights.M_p}: eps_p^(m_min - 2 mu_p) overflows") from None
    return BubbleComparison(distances=distances, reference_scale=scale)
