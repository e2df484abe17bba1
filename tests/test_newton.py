"""The damped Newton driver on toy problems."""

import math

import numpy as np
import pytest

from liouville import newton
from liouville.errors import NonConvergenceError


def test_trial_outside_the_domain_is_halved():
    # r = 4 (x - 1) with a Jacobian of 2: the full step from 0 lands on 2,
    # outside the domain x <= 1.5, and half of it on the root
    trials = []

    def f(x, norm):
        trials.append(float(x[0]))
        return None if x[0] > 1.5 else (4.0 * (x - 1.0), lambda: np.array([[2.0]]))

    root, trace = newton.damped_newton(f, [0.0], 1e-12, "toy")
    assert trials == [0.0, 2.0, 1.0]
    assert root[0] == 1.0
    assert trace == ((4.0, 0.0, 0), (0.0, 0.5, 1))


def test_jacobian_singular_along_a_symmetry_converges():
    # r depends on x only: J has rank 1, and the step leaves y alone
    def f(p, norm):
        return np.array([p[0] - 1.0, 2.0 * (p[0] - 1.0)]), lambda: np.array([[1.0, 0.0], [2.0, 0.0]])

    root, _ = newton.damped_newton(f, [0.25, 0.7], 1e-12, "toy")
    np.testing.assert_allclose(root, [1.0, 0.7], rtol=0, atol=1e-15)


def test_unreachable_residual_with_singular_jacobian_raises():
    # x - 1 and x + 1 cannot both vanish; J cannot remove their difference
    def f(p, norm):
        return np.array([p[0] - 1.0, p[0] + 1.0]), lambda: np.array([[1.0, 0.0], [1.0, 0.0]])

    with pytest.raises(NonConvergenceError, match="^toy: singular Jacobian") as info:
        newton.damped_newton(f, [0.25, 0.7], 1e-12, "toy")
    np.testing.assert_array_equal(info.value.best, [0.25, 0.7])
    assert info.value.best_residual == 1.25
    assert info.value.trace == ((1.25, 0.0, 0),)


def test_no_descent_raises_with_the_trace():
    # r = x with a Jacobian of the wrong sign: every step leads uphill
    trials = []

    def f(x, norm):
        trials.append(float(x[0]))
        return x.copy(), lambda: np.array([[-1.0]])

    with pytest.raises(NonConvergenceError, match="no descent in 30 halvings") as info:
        newton.damped_newton(f, [0.5], 1e-12, "toy")
    assert trials == [0.5] + [0.5 + 0.5**k for k in range(1, newton.MAX_HALVINGS + 2)]
    assert info.value.trace == ((0.5, 0.0, 0),)
    assert info.value.best[0] == 0.5


def test_budget_error_carries_best_and_trace(monkeypatch):
    # arctan from 1.5: the full first step overshoots to a larger residual,
    # half of it descends; two steps leave the residual near 6e-4. The
    # Jacobian is built at the three iterates only, not at the rejected trial
    monkeypatch.setattr(newton, "MAX_STEPS", 2)
    built = []

    def jacobian(x):
        built.append(float(x[0]))
        return np.array([[1.0 / (1.0 + x[0] ** 2)]])

    def f(x, norm):
        return np.arctan(x), lambda: jacobian(x)

    with pytest.raises(NonConvergenceError, match="in 2 steps") as info:
        newton.damped_newton(f, [1.5], 1e-12, "toy")
    trace = np.array(info.value.trace)
    assert trace.shape == (3, 3)
    assert tuple(trace[0, 1:]) == (0.0, 0.0)
    assert trace[1, 2] == 1
    np.testing.assert_array_equal(trace[1:, 1], 0.5 ** trace[1:, 2])
    assert np.all(np.diff(trace[:, 0]) < 0)
    assert info.value.best_residual == trace[-1, 0]
    assert abs(np.arctan(info.value.best[0])) == info.value.best_residual
    assert len(built) == 3 and built[-1] == info.value.best[0]
    np.testing.assert_array_equal(np.abs(np.arctan(built)), trace[:, 0])


def test_f_sees_the_accepted_norm_only():
    # arctan from 1.5 again: the full first step is rejected, so the second
    # trial still sees the start's norm; every later trial sees the norm of
    # the iterate it steps from, never a rejected trial's
    seen, residuals = [], []

    def f(x, norm):
        seen.append(norm)
        residuals.append(abs(float(np.arctan(x[0]))))
        return np.arctan(x), lambda: np.array([[1.0 / (1.0 + x[0] ** 2)]])

    _, trace = newton.damped_newton(f, [1.5], 1e-12, "toy")
    accepted = [norm for norm, _, _ in trace]
    assert seen[0] == math.inf
    assert seen[1:3] == [accepted[0], accepted[0]]
    assert residuals[1] > accepted[0] and residuals[1] not in seen
    assert seen[3:] == accepted[1:-1]
