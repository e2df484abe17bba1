"""The damped Newton iteration behind both root-finders of the package:
``shooting.invert_sigma`` and ``blowup.location_search`` share its step
budget, backtracking rule, stopping test and trace.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError

MAX_STEPS = 50
MAX_HALVINGS = 30


def damped_newton(f, x, tol: float, what: str):
    """Solve r(x) = 0 from x; return the root and the trace.

    ``f(x, norm)`` returns (r, jac), the residual and a function of no
    arguments that gives its Jacobian J (called for accepted iterates
    only), or None when x lies outside f's domain (f must be defined at the
    start). ``norm`` is the residual sup norm at the last accepted iterate,
    math.inf at the start, never a rejected trial's; f may use it to choose
    how accurately to evaluate r, and may ignore it. The
    step s solves J s = -r in the least-squares sense, so a J singular
    along a symmetry of the problem still moves x onto the zero set. The
    trial x + lam s is accepted once the sup norm of r drops below
    (1 - 1e-4 lam) times the current one; otherwise, or outside the domain,
    lam is halved, at most MAX_HALVINGS times. Once the sup norm is below
    ``tol`` one last Newton step is taken unchecked. The trace holds, per
    iterate, its residual sup norm, lam = 2^-halvings and the halvings that
    reached it (0.0 and 0 for the start).

    Raises
    ------
    NonConvergenceError
        After MAX_STEPS steps, when no halving descends, or when J is
        rank-deficient and the part of r it cannot remove exceeds ``tol``;
        the message starts with ``what``, and the error carries the best
        iterate, its residual sup norm and the trace.
    """
    x = np.array(x, dtype=float)
    r, jacobian = f(x, math.inf)
    norm = float(abs(r).max())
    best, best_norm = x, norm
    trace = [(norm, 0.0, 0)]
    for steps in range(MAX_STEPS + 1):
        jac = jacobian()
        step, _, rank, _ = np.linalg.lstsq(jac, -r, rcond=None)
        if norm < tol:
            return x + step, tuple(trace)
        if rank < min(jac.shape) and abs(r + jac @ step).max() > tol:
            problem = f"singular Jacobian with the residual above {tol}"
            break
        if steps == MAX_STEPS:
            problem = f"no convergence to {tol} in {MAX_STEPS} steps"
            break
        lam = 1.0
        for halvings in range(MAX_HALVINGS + 1):
            trial = f(x + lam * step, norm)
            if trial is not None and abs(trial[0]).max() < norm * (1.0 - 1e-4 * lam):
                break
            lam *= 0.5
        else:
            problem = f"no descent in {MAX_HALVINGS} halvings"
            break
        x, (r, jacobian) = x + lam * step, trial
        norm = float(abs(r).max())
        trace.append((norm, lam, halvings))
        if norm < best_norm:
            best, best_norm = x, norm
    raise NonConvergenceError(
        f"{what}: {problem} (best sup-norm residual {best_norm:.3e})",
        best=best, best_residual=best_norm, trace=tuple(trace),
    )
