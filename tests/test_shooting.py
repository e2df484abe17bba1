import math

import numpy as np
import pytest

import liouville as lv
from liouville.errors import InputError, NonConvergenceError

GAMMA0 = lv.SingularityProfile(0.0)


class TestAlphaToSigma:
    def test_symmetric_fixed_point(self, matrix12):
        point = lv.alpha_to_sigma(matrix12, GAMMA0, [0.0])
        np.testing.assert_allclose(point.full_sigma, 4.0 / 3.0, rtol=1e-8)
        np.testing.assert_array_equal(point.reduced_sigma, point.full_sigma[1:])

    def test_mass_ordering_and_identity(self, matrix12):
        point = lv.alpha_to_sigma(matrix12, GAMMA0, [-1.0])
        assert point.full_sigma[0] > point.full_sigma[1]
        assert abs(lv.pohozaev_residual(point.summary)) < 1e-6

    def test_scalar_degenerate(self, matrix1):
        # mass gap 1: the tail closure at r_max = 1e4 is exact to ~1e-7
        point = lv.alpha_to_sigma(matrix1, lv.SingularityProfile(-0.5), [])
        assert point.full_sigma[0] == pytest.approx(2.0, rel=1e-6)

    def test_bound_validation(self, matrix12):
        with pytest.raises(InputError):
            lv.alpha_to_sigma(matrix12, GAMMA0, [40.0])


class TestJacobian:
    def test_own_mass_response_positive(self, matrix12):
        jac = lv.shooting_jacobian(matrix12, GAMMA0, [0.0])
        assert jac.shape == (1, 1) and jac[0, 0] > 0

    def test_step_consistency(self, matrix12):
        j1 = lv.shooting_jacobian(matrix12, GAMMA0, [-0.5], h=1e-3)
        j2 = lv.shooting_jacobian(matrix12, GAMMA0, [-0.5], h=5e-4)
        assert abs(j1[0, 0] - j2[0, 0]) < 1e-5

    def test_nonsingular_on_samples(self, matrix12):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(-3.0, 0.0, size=1)
            jac = lv.shooting_jacobian(matrix12, GAMMA0, alpha, tol=1e-8)
            assert abs(jac[0, 0]) > 1e-3

    def test_step_validation(self, matrix12):
        with pytest.raises(InputError):
            lv.shooting_jacobian(matrix12, GAMMA0, [0.0], h=1.0)


class TestInvertSigma:
    def test_fixed_point(self, matrix12):
        alpha = lv.invert_sigma(matrix12, GAMMA0, [4.0 / 3.0], guess=[0.0])
        assert abs(alpha[0]) < 1e-7

    def test_round_trip(self, matrix12):
        target = lv.alpha_to_sigma(matrix12, GAMMA0, [-0.7]).reduced_sigma
        alpha = lv.invert_sigma(matrix12, GAMMA0, target, guess=[0.0])
        assert abs(alpha[0] + 0.7) < 1e-8

    def test_round_trip_n3(self):
        matrix = lv.CoefficientMatrix.from_entries(
            [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]]
        )
        sing = lv.SingularityProfile(-0.3)
        alpha = np.array([-0.4, -1.1])
        target = lv.alpha_to_sigma(matrix, sing, alpha).reduced_sigma
        recovered = lv.invert_sigma(matrix, sing, target)
        assert np.max(np.abs(recovered - alpha)) < 1e-8

    def test_unreachable_target(self, matrix12):
        # energies are positive, so a negative target cannot be hit
        with pytest.raises(NonConvergenceError) as info:
            lv.invert_sigma(matrix12, GAMMA0, [-0.5], guess=[0.0])
        assert info.value.best is not None
        assert info.value.best_residual > 0

    def test_degenerate_dimension(self, matrix1):
        assert lv.invert_sigma(matrix1, GAMMA0, []).shape == (0,)

    def test_rejects_non_finite_target(self, matrix12):
        # named as the target, not as a NaN Newton iterate further down
        with pytest.raises(InputError, match="target_sigma"):
            lv.invert_sigma(matrix12, GAMMA0, [math.nan], guess=[0.0])


class TestSwapEquivariance:
    def test_permutation_commutes(self):
        # matrix invariant under swapping the last two components
        matrix = lv.CoefficientMatrix.from_entries(
            [[1.0, 2.0, 2.0], [2.0, 1.0, 3.0], [2.0, 3.0, 1.0]]
        )
        sing = lv.SingularityProfile(-0.2)
        a, b = -0.9, -0.2
        sigma_ab = lv.alpha_to_sigma(matrix, sing, [a, b]).full_sigma
        sigma_ba = lv.alpha_to_sigma(matrix, sing, [b, a]).full_sigma
        np.testing.assert_allclose(
            sigma_ab, sigma_ba[[0, 2, 1]], rtol=1e-9, atol=1e-11
        )
