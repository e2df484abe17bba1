"""Initial-value-to-energy map of the radial system and its inversion.

With the first component pinned to U_1(0) = 0, the map from the remaining
initial values (alpha_2, ..., alpha_n) to the energies (sigma_2, ...,
sigma_n) is a diffeomorphism onto its image, which lies on the (n-1)-
dimensional quadratic energy surface. This module evaluates the map by
integrating the radial system and extracting the summary, and inverts it
with a damped Newton iteration. The Jacobian is exact up to the solver
tolerance: the same integration carries the forward sensitivities of the
state, and the tail closure is differentiated implicitly.
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
    """One evaluation of the map: reduced initial values and energies.

    ``jacobian`` is d reduced_sigma / d reduced_alpha when it was asked for.
    """

    matrix: CoefficientMatrix
    singularity: SingularityProfile
    reduced_alpha: np.ndarray
    full_sigma: np.ndarray
    reduced_sigma: np.ndarray
    summary: SolutionSummary = field(repr=False)
    jacobian: np.ndarray | None = field(default=None, repr=False)


def _reduced_alpha(values, name: str, dim: int) -> np.ndarray:
    """values as reduced initial values: finite, of length dim, within the bound."""
    reduced = as_array(values, name, (dim,))
    if reduced.size and float(np.max(np.abs(reduced))) > _ALPHA_BOUND:
        raise InputError(f"{name} must lie in [-{_ALPHA_BOUND}, {_ALPHA_BOUND}]")
    return reduced


def alpha_to_sigma(
    matrix: CoefficientMatrix,
    singularity: SingularityProfile,
    reduced_alpha,
    r_max: float = 1e4,
    tol: float = 1e-10,
    jacobian: bool = False,
) -> ShootingPoint:
    """Integrate with initial values (0, alpha_2, ..., alpha_n), return sigma.

    With ``jacobian`` the same integration also yields the point's Jacobian.
    """
    reduced = _reduced_alpha(reduced_alpha, "reduced_alpha", matrix.n - 1)
    alpha0 = np.concatenate([[0.0], reduced])
    spec = ProblemSpec(matrix=matrix, singularity=singularity, alpha0=alpha0)
    summary = extract_summary(
        integrate(spec, r_max=r_max, tol=tol, sensitivity=jacobian)
    )
    return ShootingPoint(
        matrix=matrix,
        singularity=singularity,
        reduced_alpha=reduced,
        full_sigma=summary.sigma,
        reduced_sigma=summary.sigma[1:],
        summary=summary,
        jacobian=summary.dsigma[1:, 1:] if jacobian else None,
    )


def invert_sigma(
    matrix: CoefficientMatrix,
    singularity: SingularityProfile,
    target_reduced_sigma,
    guess=None,
    r_max: float = 1e4,
    tol: float = 1e-10,
) -> np.ndarray:
    """Recover reduced initial values whose energies hit the target.

    Damped Newton with backtracking halving (at most 8 halvings per step)
    on the sup norm of sigma(alpha) - target; success below 1e-9, after
    which one last Newton step is taken unchecked. Every trial point is
    integrated once, with its exact Jacobian, so an accepted trial brings
    the Jacobian of the next step along.

    Raises
    ------
    NonConvergenceError
        After 50 steps, or when no descent direction works; carries the
        best iterate, its residual norm and the trace: per iterate, its
        residual norm and the step length lam = 2^-halvings and number of
        halvings that reached it (0.0 and 0 for the start).
    """
    target = as_array(target_reduced_sigma, "target_sigma", (matrix.n - 1,))
    dim = target.shape[0]
    if dim == 0:
        return np.zeros(0)
    alpha = np.zeros(dim) if guess is None else _reduced_alpha(guess, "guess", dim).copy()

    point = alpha_to_sigma(matrix, singularity, alpha, r_max, tol, jacobian=True)
    resid = point.reduced_sigma - target
    norm = float(np.max(np.abs(resid)))
    best_alpha, best_norm = alpha.copy(), norm
    trace = [(norm, 0.0, 0)]

    for _ in range(_MAX_NEWTON_STEPS):
        if norm < _SIGMA_TOL:
            break
        try:
            step = np.linalg.solve(point.jacobian, -resid)
        except np.linalg.LinAlgError:
            # Singular Jacobian: fall back to a residual-descent direction.
            step = -resid
        lam = 1.0
        for halvings in range(_MAX_HALVINGS + 1):
            candidate = alpha + lam * step
            if float(np.max(np.abs(candidate))) > _ALPHA_BOUND:
                lam *= 0.5
                continue
            trial = alpha_to_sigma(
                matrix, singularity, candidate, r_max, tol, jacobian=True
            )
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
                trace=tuple(trace),
            )
        alpha, point, resid, norm = candidate, trial, trial_resid, trial_norm
        trace.append((norm, lam, halvings))
        if norm < best_norm:
            best_alpha, best_norm = alpha.copy(), norm

    if norm >= _SIGMA_TOL:
        raise NonConvergenceError(
            f"Newton did not reach {_SIGMA_TOL} in {_MAX_NEWTON_STEPS} steps "
            f"(best sup-norm residual {best_norm:.3e})",
            best=best_alpha,
            best_residual=best_norm,
            trace=tuple(trace),
        )
    # A last Newton step needs no integration: the Jacobian at alpha is at
    # hand. Without it alpha is off by up to residual / (least singular value
    # of J), e.g. 1.1e-8 for a residual of 9.4e-10 where that value is 0.075.
    try:
        return alpha + np.linalg.solve(point.jacobian, -resid)
    except np.linalg.LinAlgError:
        return alpha
