import math
import re

import numpy as np
import pytest

import liouville as lv
from liouville import newton, shooting
from liouville.errors import ExtractionError, InputError, NonConvergenceError

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
        with pytest.raises(InputError, match="reduced_alpha"):
            lv.alpha_to_sigma(matrix12, GAMMA0, [40.0])


class TestJacobian:
    def test_own_mass_response_positive(self, matrix12):
        jac = lv.alpha_to_sigma(matrix12, GAMMA0, [0.0], jacobian=True).jacobian
        assert jac.shape == (1, 1) and jac[0, 0] > 0

    @pytest.mark.parametrize(
        "entries, gamma, alpha",
        [
            ([[1.0, 2.0], [2.0, 1.0]], 0.0, [-0.5]),
            ([[1.0, 2.0], [2.0, 1.0]], -0.3, [-1.7]),
            ([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]], 0.0, [-0.4, -1.1]),
            ([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]], -0.45, [-2.0, -0.3]),
        ],
    )
    def test_matches_centred_difference(self, entries, gamma, alpha):
        # independent oracle: centred differences of the map itself
        matrix = lv.CoefficientMatrix.from_entries(entries)
        sing = lv.SingularityProfile(gamma)
        alpha = np.array(alpha)
        jac = lv.alpha_to_sigma(matrix, sing, alpha, jacobian=True).jacobian
        h = 1e-4
        for j in range(alpha.size):
            bump = np.zeros(alpha.size)
            bump[j] = h
            plus = lv.alpha_to_sigma(matrix, sing, alpha + bump, tol=1e-10)
            minus = lv.alpha_to_sigma(matrix, sing, alpha - bump, tol=1e-10)
            fd = (plus.reduced_sigma - minus.reduced_sigma) / (2.0 * h)
            np.testing.assert_allclose(jac[:, j], fd, rtol=0.0, atol=1e-6)

    def test_nonsingular_on_samples(self, matrix12):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(-3.0, 0.0, size=1)
            jac = lv.alpha_to_sigma(matrix12, GAMMA0, alpha, tol=1e-8, jacobian=True).jacobian
            assert abs(jac[0, 0]) > 1e-3

    def test_input_validation(self, matrix12):
        with pytest.raises(InputError):
            lv.alpha_to_sigma(matrix12, GAMMA0, [40.0], jacobian=True)
        with pytest.raises(InputError):
            lv.alpha_to_sigma(matrix12, GAMMA0, [0.0, 0.0], jacobian=True)


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

    def test_round_trip_past_the_residual_tolerance(self):
        # the least singular value of the Jacobian here is 0.075, so the last
        # iterate (residual 9.4e-10 < 1e-9) is still 1.1e-8 off in alpha;
        # the final Newton step removes that
        matrix = lv.CoefficientMatrix.from_entries(
            [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]]
        )
        alpha = np.array([-0.56312202, -2.89657839])
        target = lv.alpha_to_sigma(matrix, GAMMA0, alpha).reduced_sigma
        recovered = lv.invert_sigma(matrix, GAMMA0, target)
        assert np.max(np.abs(recovered - alpha)) < 1e-10

    def test_unreachable_target(self, matrix12):
        # energies are positive, so a negative target cannot be hit
        with pytest.raises(NonConvergenceError) as info:
            lv.invert_sigma(matrix12, GAMMA0, [-0.5], guess=[0.0])
        assert info.value.best is not None
        assert info.value.best_residual > 0
        # per iterate: residual, step length and halvings, starting point first
        trace = np.array(info.value.trace, dtype=float)
        assert trace.shape[0] >= 1 and trace.shape[1] == 3
        assert np.all(np.isfinite(trace))
        assert tuple(trace[0, 1:]) == (0.0, 0.0)
        np.testing.assert_array_equal(trace[1:, 1], 0.5 ** trace[1:, 2])
        assert trace[:, 0].min() == info.value.best_residual

    def test_trial_past_the_alpha_bound_is_halved(self, matrix12, monkeypatch):
        # from alpha = -5 the full Newton step towards sigma = 4/3 is about +147,
        # far past the bound 30; that trial is halved without an integration
        start = lv.alpha_to_sigma(matrix12, GAMMA0, [-5.0], jacobian=True)
        assert (4.0 / 3.0 - start.reduced_sigma[0]) / start.jacobian[0, 0] > 100.0
        seen = []
        alpha_to_sigma = shooting.alpha_to_sigma

        def recording(matrix, singularity, alpha, *args, **kwargs):
            seen.append(alpha[0])
            return alpha_to_sigma(matrix, singularity, alpha, *args, **kwargs)

        monkeypatch.setattr(shooting, "alpha_to_sigma", recording)
        alpha = lv.invert_sigma(matrix12, GAMMA0, [4.0 / 3.0], guess=[-5.0])
        assert abs(alpha[0]) < 1e-7
        assert max(abs(a) for a in seen) <= 30.0

    def test_degenerate_dimension(self, matrix1):
        assert lv.invert_sigma(matrix1, GAMMA0, []).shape == (0,)

    @pytest.mark.parametrize(
        "given, said",
        [
            ({"guess": [1.0, 2.0, 3.0]}, "guess must have shape (0,)"),
            ({"r_max": math.nan}, "r_max must be finite"),
            ({"r_max": 5.0}, "r_max must be at least 10"),
            ({"tol": 5.0}, "tol must lie in"),
        ],
    )
    def test_degenerate_dimension_checks_its_input(self, matrix1, given, said):
        # nothing to solve for, but the same input is rejected as at n > 1
        with pytest.raises(InputError, match=re.escape(said)):
            lv.invert_sigma(matrix1, GAMMA0, [], **given)

    @pytest.mark.parametrize("tol", [1e-10, 1e-8])
    def test_flux_gap_does_not_stop_the_inversion(self, matrix12, tol):
        # n = 2, gamma = -1/2, r_max 1e4: the first trial from 0, alpha =
        # -1.029, has a flux gap of 1.6e-3, which the absolute flux-gap
        # bound 1e-3 refused, ending the inversion; its sigma is right to
        # 2.75e-7, and every trial is within the tail model's bound
        sing = lv.SingularityProfile(-0.5)
        target = lv.alpha_to_sigma(matrix12, sing, [-2.98611107], r_max=1e4).reduced_sigma
        recovered = lv.invert_sigma(matrix12, sing, target, r_max=1e4, tol=tol)
        assert abs(recovered[0] + 2.98611107) < 1e-8

    def test_trial_with_an_extraction_error_is_halved(self, monkeypatch):
        # A = [[2, 1], [1, 3]], gamma = -0.99, r_max 1e4: the first trial
        # from 0, alpha = -1.9035, has tail_error 1.14e-5, above the bound
        # 1e-5; it lies outside the domain like a trial past the alpha
        # bound, so its step is halved and the target is made. At the
        # start the same error ends the inversion: there is nothing to halve
        matrix = lv.CoefficientMatrix.from_entries([[2.0, 1.0], [1.0, 3.0]])
        sing = lv.SingularityProfile(-0.99)
        target = lv.alpha_to_sigma(matrix, sing, [-1.75]).reduced_sigma
        assert target[0] == 0.005760874855510574
        refused = []
        alpha_to_sigma = shooting.alpha_to_sigma

        def recording(matrix, singularity, alpha, *args, **kwargs):
            try:
                return alpha_to_sigma(matrix, singularity, alpha, *args, **kwargs)
            except ExtractionError:
                refused.append(alpha[0])
                raise

        monkeypatch.setattr(shooting, "alpha_to_sigma", recording)
        recovered = lv.invert_sigma(matrix, sing, target)
        assert abs(recovered[0] + 1.75) < 1e-12
        assert len(refused) == 1 and abs(refused[0] + 1.9035) < 1e-4
        with pytest.raises(ExtractionError, match="tail_error = 1.14e-05"):
            lv.invert_sigma(matrix, sing, target, guess=[-1.9035])

    def test_rejects_out_of_bound_guess(self, matrix12):
        # named as the guess at the boundary, not as an iterate of the map
        with pytest.raises(InputError, match="guess"):
            lv.invert_sigma(matrix12, GAMMA0, [1.0], guess=[40.0])

    def test_rejects_non_finite_target(self, matrix12):
        # named as the target, not as a NaN Newton iterate further down
        with pytest.raises(InputError, match="target_sigma"):
            lv.invert_sigma(matrix12, GAMMA0, [math.nan], guess=[0.0])


class TestInexactNewton:
    """Each trial integrates at max(tol, min(1e-2 r^2, 1e-6)), r the sup norm
    of the residual at the iterate it steps from."""

    MATRIX3 = [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]]

    @staticmethod
    def record_tols(patch):
        """Wrap shooting.integrate; the list of the tols it is called with."""
        tols = []
        integrate = shooting.integrate
        patch.setattr(shooting, "integrate", lambda *a, **k: tols.append(k["tol"]) or integrate(*a, **k))
        return tols

    def inversions(self, matrix12, tol, monkeypatch):
        """The tols of each inversion's integrations, three inversions."""
        matrix3 = lv.CoefficientMatrix.from_entries(self.MATRIX3)
        runs = []
        for matrix, alpha in ((matrix12, [-0.7]), (matrix3, [-0.4, -1.1]), (matrix3, [-2.5, -0.3])):
            target = lv.alpha_to_sigma(matrix, GAMMA0, alpha).reduced_sigma
            with monkeypatch.context() as patch:
                runs.append(self.record_tols(patch))
                lv.invert_sigma(matrix, GAMMA0, target, tol=tol)
        return runs

    def test_loose_caller_keeps_its_tol(self, matrix12, monkeypatch):
        # 1e-5 is looser than the loosest scheduled solve, and wins
        for tols in self.inversions(matrix12, 1e-5, monkeypatch):
            assert tols and all(t == 1e-5 for t in tols)

    def test_default_tol_schedule(self, matrix12, monkeypatch):
        for tols in self.inversions(matrix12, 1e-10, monkeypatch):
            assert all(1e-10 <= t <= 1e-6 for t in tols)
            assert tols[0] == 1e-6
            # the stop test and the last step read a solve at tol
            assert tols[-1] == 1e-10

    def test_loose_converged_reading_is_solved_again(self, matrix12, monkeypatch):
        # a target made at 1e-6 reads a zero residual at its own alpha when
        # solved at 1e-6; the stop test must not take that, so the start is
        # integrated again at tol, and Newton moves on from there
        target = lv.alpha_to_sigma(matrix12, GAMMA0, [-0.7], tol=1e-6).reduced_sigma
        tols = self.record_tols(monkeypatch)
        alpha = lv.invert_sigma(matrix12, GAMMA0, target, guess=[-0.7])
        assert tols == [1e-6, 1e-10, 1e-10]
        assert 1e-9 < abs(alpha[0] + 0.7) < 1e-6

    def test_best_residual_from_a_loose_solve(self, matrix12, monkeypatch):
        # two steps from 0 towards alpha = -2.5 leave the residual near 0.12,
        # where trials integrate at 1e-6: best_residual is that solve's
        monkeypatch.setattr(newton, "MAX_STEPS", 2)
        target = lv.alpha_to_sigma(matrix12, GAMMA0, [-2.5]).reduced_sigma
        with pytest.raises(NonConvergenceError, match="in 2 steps") as info:
            lv.invert_sigma(matrix12, GAMMA0, target, guess=[0.0])
        best = info.value.best

        def residual(tol):
            return float(np.max(np.abs(lv.alpha_to_sigma(matrix12, GAMMA0, best, tol=tol).reduced_sigma - target)))

        assert info.value.best_residual == residual(1e-6) > 0.1
        assert 0.0 < abs(info.value.best_residual - residual(1e-10)) < 1e-6

    def test_sweep_converges(self):
        # n = 2, 3; four strengths; two tols; 5 seeded alpha each. Every
        # target and every trial is within the tail model's bound (the
        # largest tail_error, 2.0e-6, is a gamma = -0.99 trial), so all 80
        # targets are made and none is counted out
        matrices = [lv.CoefficientMatrix.from_entries(m) for m in ([[1.0, 2.0], [2.0, 1.0]], self.MATRIX3)]
        worst, converged, skipped = 0.0, 0, 0
        for matrix in matrices:
            for gamma in (0.0, -0.25, -0.5, -0.99):
                sing = lv.SingularityProfile(gamma)
                for tol in (1e-10, 1e-8):
                    rng = np.random.default_rng(2024)
                    for _ in range(5):
                        alpha = rng.uniform(-3.0, 0.0, size=matrix.n - 1)
                        try:
                            target = lv.alpha_to_sigma(matrix, sing, alpha, tol=tol).reduced_sigma
                        except ExtractionError:
                            skipped += 1
                            continue
                        recovered = lv.invert_sigma(matrix, sing, target, tol=tol)
                        worst = max(worst, float(np.max(np.abs(recovered - alpha))))
                        converged += 1
        assert (converged, skipped) == (80, 0)
        assert worst < 1e-8


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


def test_solver_defaults_named_once():
    # integrate, alpha_to_sigma and invert_sigma default to the same r_max
    # and tol, named in radial
    from inspect import signature

    from liouville import radial

    assert (radial.DEFAULT_R_MAX, radial.DEFAULT_TOL) == (1e4, 1e-10)
    for fn in (lv.integrate, lv.alpha_to_sigma, lv.invert_sigma):
        params = signature(fn).parameters
        assert params["r_max"].default is radial.DEFAULT_R_MAX
        assert params["tol"].default is radial.DEFAULT_TOL
