"""Initial-value-to-energy map of the radial system and its inversion.

With the first component pinned to U_1(0) = 0, the map from the remaining
initial values (alpha_2, ..., alpha_n) to the energies (sigma_2, ...,
sigma_n) is a diffeomorphism onto its image, which lies on the (n-1)-
dimensional quadratic energy surface. This module evaluates the map by
integrating the radial system and extracting the summary, differentiates it
by centered differences, and inverts it with a damped Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import CoefficientMatrix, SingularityProfile
from .energy import SolutionSummary, extract_summary
from .errors import InputError, NonConvergenceError, as_array
from .radial import ProblemSpec, integrate

_ALPHA_BOUND = 30.0
_SIGMA_TOL = 1e-9
_MAX_NEWTON_STEPS = 50
_MAX_HALVINGS = 8


@dataclass(frozen=True)
class ShootingPoint:
    """One evaluation of the map: reduced initial values and energies."""

    matrix: CoefficientMatrix
    singularity: SingularityProfile
    reduced_alpha: np.ndarray
    full_sigma: np.ndarray
    reduced_sigma: np.ndarray
    summary: SolutionSummary = field(repr=False)


def alpha_to_sigma(
    matrix: CoefficientMatrix,
    singularity: SingularityProfile,
    reduced_alpha,
    r_max: float = 1e4,
    tol: float = 1e-10,
) -> ShootingPoint:
    """Integrate with initial values (0, alpha_2, ..., alpha_n), return sigma."""
    reduced = as_array(reduced_alpha, "reduced_alpha", (matrix.n - 1,))
    if reduced.size and float(np.max(np.abs(reduced))) > _ALPHA_BOUND:
        raise InputError(
            f"reduced initial values must lie in [-{_ALPHA_BOUND}, {_ALPHA_BOUND}]"
        )
    alpha0 = np.concatenate([[0.0], reduced])
    spec = ProblemSpec(matrix=matrix, singularity=singularity, alpha0=alpha0)
    summary = extract_summary(integrate(spec, r_max=r_max, tol=tol))
    return ShootingPoint(
        matrix=matrix,
        singularity=singularity,
        reduced_alpha=reduced,
        full_sigma=summary.sigma,
        reduced_sigma=summary.sigma[1:],
        summary=summary,
    )


def shooting_jacobian(
    matrix: CoefficientMatrix,
    singularity: SingularityProfile,
    reduced_alpha,
    h: float = 1e-4,
    r_max: float = 1e4,
    tol: float = 1e-10,
) -> np.ndarray:
    """Centered-difference Jacobian d reduced_sigma / d reduced_alpha."""
    if not (1e-6 <= h <= 1e-2):
        raise InputError(f"finite-difference step must lie in [1e-6, 1e-2], got {h}")
    reduced = as_array(reduced_alpha, "reduced_alpha", (matrix.n - 1,))
    dim = reduced.shape[0]
    jac = np.empty((dim, dim))
    for j in range(dim):
        bump = np.zeros(dim)
        bump[j] = h
        plus = alpha_to_sigma(matrix, singularity, reduced + bump, r_max, tol)
        minus = alpha_to_sigma(matrix, singularity, reduced - bump, r_max, tol)
        jac[:, j] = (plus.reduced_sigma - minus.reduced_sigma) / (2.0 * h)
    return jac


def invert_sigma(
    matrix: CoefficientMatrix,
    singularity: SingularityProfile,
    target_reduced_sigma,
    guess=None,
    r_max: float = 1e4,
    tol: float = 1e-10,
    jacobian_tol: float = 1e-8,
    fd_step: float = 1e-4,
) -> np.ndarray:
    """Recover reduced initial values whose energies hit the target.

    Damped Newton with backtracking halving (at most 8 halvings per step)
    on the sup norm of sigma(alpha) - target; success below 1e-9. The
    Jacobian uses a looser integration tolerance than the objective.

    Raises
    ------
    NonConvergenceError
        After 50 steps, or when no descent direction works; carries the
        best iterate and its residual norm.
    """
    target = as_array(target_reduced_sigma, "target_sigma", (matrix.n - 1,))
    dim = target.shape[0]
    if dim == 0:
        return np.zeros(0)
    alpha = np.zeros(dim) if guess is None else as_array(guess, "guess", (dim,)).copy()

    point = alpha_to_sigma(matrix, singularity, alpha, r_max, tol)
    resid = point.reduced_sigma - target
    norm = float(np.max(np.abs(resid)))
    best_alpha, best_norm = alpha.copy(), norm

    for _ in range(_MAX_NEWTON_STEPS):
        if norm < _SIGMA_TOL:
            return alpha
        jac = shooting_jacobian(
            matrix, singularity, alpha, h=fd_step, r_max=r_max, tol=jacobian_tol
        )
        try:
            step = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError:
            # Singular Jacobian: fall back to a residual-descent direction.
            step = -resid
        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = alpha + lam * step
            if float(np.max(np.abs(candidate))) > _ALPHA_BOUND:
                lam *= 0.5
                continue
            trial = alpha_to_sigma(matrix, singularity, candidate, r_max, tol)
            trial_resid = trial.reduced_sigma - target
            trial_norm = float(np.max(np.abs(trial_resid)))
            if trial_norm < norm * (1.0 - 1e-4 * lam):
                break
            lam *= 0.5
        else:
            raise NonConvergenceError(
                "no descent along the Newton direction; target may be "
                "outside the reachable energy set",
                best=best_alpha,
                best_residual=best_norm,
            )
        alpha, resid, norm = candidate, trial_resid, trial_norm
        if norm < best_norm:
            best_alpha, best_norm = alpha.copy(), norm

    if norm < _SIGMA_TOL:
        return alpha
    raise NonConvergenceError(
        f"Newton did not reach {_SIGMA_TOL} in {_MAX_NEWTON_STEPS} steps "
        f"(best sup-norm residual {best_norm:.3e})",
        best=best_alpha,
        best_residual=best_norm,
    )
