"""Initial-value-to-energy map of the radial system and its inversion.

With the first component pinned to U_1(0) = 0, the map from the remaining
initial values (alpha_2, ..., alpha_n) to the energies (sigma_2, ...,
sigma_n) is a diffeomorphism onto its image, which lies on the (n-1)-
dimensional quadratic energy surface. This module evaluates the map by
integrating the radial system and extracting the summary, and inverts it
with the package's damped Newton iteration (``newton.damped_newton``). The
Jacobian is exact up to the solver tolerance: the same integration carries
the forward sensitivities of the state, and the tail closure is
differentiated implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CoefficientMatrix, SingularityProfile
from .energy import SolutionSummary, extract_summary
from .errors import ExtractionError, InputError, as_array
from .newton import damped_newton
from .radial import DEFAULT_R_MAX, DEFAULT_TOL, ProblemSpec, _solver_inputs, integrate

_ALPHA_BOUND = 30.0
_SIGMA_TOL = 1e-9
# invert_sigma's forcing term: a trial from an iterate with residual sup
# norm r integrates at max(tol, min(_FORCING r^2, _LOOSEST_TOL))
_FORCING = 1e-2
_LOOSEST_TOL = 1e-6


@dataclass(frozen=True, eq=False)
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
    if reduced.size and abs(reduced).max() > _ALPHA_BOUND:
        raise InputError(f"{name} must lie in [-{_ALPHA_BOUND}, {_ALPHA_BOUND}]")
    return reduced


def alpha_to_sigma(
    matrix: CoefficientMatrix,
    singularity: SingularityProfile,
    reduced_alpha,
    r_max: float = DEFAULT_R_MAX,
    tol: float = DEFAULT_TOL,
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
    r_max: float = DEFAULT_R_MAX,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Recover reduced initial values whose energies hit the target.

    ``newton.damped_newton`` on sigma(alpha) - target down to a sup norm of
    1e-9; a trial with an entry of alpha beyond 30, or whose summary is an
    ``ExtractionError`` at either tolerance below, lies outside the domain
    and is halved; at the start that error is raised.
    Each trial's integration brings its exact Jacobian along, so the last
    Newton step needs none.

    The integrations are inexact Newton (Dembo, Eisenstat and Steihaug,
    1982): a trial from an iterate whose residual has sup norm r_k
    integrates at tol_k = max(tol, min(1e-2 r_k^2, 1e-6)), so far from the
    root it takes a looser, cheaper solve, and never one looser than
    ``tol``. A trial whose residual reads below 1e-9 at a tol_k above
    ``tol`` is integrated again at ``tol`` before the stop test and the
    last step use it, so a converged inversion ends on a solve at ``tol``.

    A NonConvergenceError carries the best iterate, its residual and the
    trace; that residual may come from a solve at a tol_k above ``tol``.
    """
    target = as_array(target_reduced_sigma, "target_sigma", (matrix.n - 1,))
    dim = target.shape[0]
    start = np.zeros(dim) if guess is None else _reduced_alpha(guess, "guess", dim)
    r_max, tol = _solver_inputs(r_max, tol)
    if dim == 0:
        return np.zeros(0)

    def residual(alpha, solve_tol):
        point = alpha_to_sigma(matrix, singularity, alpha, r_max, solve_tol, jacobian=True)
        return point.reduced_sigma - target, lambda: point.jacobian

    def f(alpha, norm):
        if abs(alpha).max() > _ALPHA_BOUND:
            return None
        loose = max(tol, min(_FORCING * norm * norm, _LOOSEST_TOL))
        try:
            r, jac = residual(alpha, loose)
            if loose > tol and abs(r).max() < _SIGMA_TOL:
                return residual(alpha, tol)
        except ExtractionError:
            if math.isinf(norm):  # the start
                raise
            return None
        return r, jac

    return damped_newton(f, start, _SIGMA_TOL, "sigma inversion")[0]
