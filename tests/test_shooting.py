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


# A Jacobian solve through alpha_to_sigma at r_max 1e4, frozen: per case
# (n, gamma, tol, nodes, last node s), the stats, the last state's rows U,
# dU/ds, mass and logmass, sigma, all as float.hex, and dsigma's rows, which
# may move by 1e-14 relative. n = 2 takes A = [[1, 2], [2, 1]] and alpha =
# -1.3; n = 3 the matrix of TestInexactNewton and alpha = (-1.3, -0.7).
FROZEN_SOLVES = [
    (2, 0.0, 1e-06, 14, "0x1.26bb1bbb55516p+3",
     {"accepted": 13, "rejected": 0, "evaluations": 157,
      "h_min": 0.4448471455001697, "h_max": 1.3491724449619333,
      "s_start": -0.4894271348744848},
     ("-0x1.f0c4394e1bbedp+4 -0x1.ad0dc24bc2f7fp+5",
      "-0x1.db50aaf7f2e38p+1 -0x1.94d10b856360ep+2",
      "0x1.7d512bb488dfbp+1 0x1.77fdfd0da80ecp-2",
      "0x1.7321784347013p+1 0x1.0468db1cf3abdp-3"),
     "0x1.7d513bc554190p+1 0x1.77fdfd0da80eep-2",
     ("0x1.de8024417bfb9p-1 -0x1.de80240216be9p-1",
      "-0x1.7b1ac3dca716bp-2 0x1.7b1ac33b86e8ep-2")),
    (2, 0.0, 1e-10, 39, "0x1.26bb1bbb55516p+3",
     {"accepted": 38, "rejected": 0, "evaluations": 457,
      "h_min": 0.11916391921351122, "h_max": 0.6955781498308866,
      "s_start": -0.4894271348744848},
     ("-0x1.f0c43988f5020p+4 -0x1.ad0dc27f26418p+5",
      "-0x1.db50ab2bd48f6p+1 -0x1.94d10bafdfbd8p+2",
      "0x1.7d512bdbe3777p+1 0x1.77fdfd3fc4609p-2",
      "0x1.7321782688664p+1 0x1.0468dc3b5d72bp-3"),
     "0x1.7d513becae71ep+1 0x1.77fdfd3fc460bp-2",
     ("0x1.de802461aced1p-1 -0x1.de802461b29c8p-1",
      "-0x1.7b1ac3e312d8dp-2 0x1.7b1ac3e3129aap-2")),
    (2, -0.5, 1e-06, 11, "0x1.26bb1bbb55516p+3",
     {"accepted": 10, "rejected": 0, "evaluations": 121,
      "h_min": 0.9624902768988628, "h_max": 1.682023972938322,
      "s_start": -2.3651486308688603},
     ("-0x1.0859b88488ca4p+4 -0x1.ce3930e5876a2p+4",
      "-0x1.db1d9f8341400p+0 -0x1.949e00315aca2p+1",
      "0x1.7d1e206b634dap+0 0x1.77fdfc5f77c91p-3",
      "0x1.a72726820f826p-1 -0x1.04d384a47dc05p-3"),
     "0x1.7d5141a715b08p+0 0x1.77fdfc8cb5b84p-3",
     ("0x1.de7fec47e62c0p-2 -0x1.de80193a1ba9bp-2",
      "-0x1.7b1ac35e83f08p-3 0x1.7b1ac28815d58p-3")),
    (2, -0.5, 1e-10, 31, "0x1.26bb1bbb55516p+3",
     {"accepted": 30, "rejected": 0, "evaluations": 361,
      "h_min": 0.2842203925525792, "h_max": 0.7653905201323079,
      "s_start": -2.3651486308688603},
     ("-0x1.0859b8ce4701ap+4 -0x1.ce3931607e9dap+4",
      "-0x1.db1d9feb0686bp+0 -0x1.949e00778aa83p+1",
      "0x1.7d1e20a6615dap+0 0x1.77fdfd1294a3fp-3",
      "0x1.a72723941128ep-1 -0x1.04d3824901fe7p-3"),
     "0x1.7d5141e10fe23p+0 0x1.77fdfd3fd291bp-3",
     ("0x1.de7fefd4941c3p-2 -0x1.de80189f542d0p-2",
      "-0x1.7b1ac3e3ac778p-3 0x1.7b1ac3e37e2e5p-3")),
    (3, 0.0, 1e-06, 14, "0x1.26bb1bbb55516p+3",
     {"accepted": 13, "rejected": 0, "evaluations": 157,
      "h_min": 0.43836810016820105, "h_max": 1.3991979619745756,
      "s_start": -0.5346408563846266},
     ("-0x1.00bf32a0f3ed9p+5 -0x1.4b46f6fa3f8f5p+5 -0x1.23b2b9c99395fp+5",
      "-0x1.e578e3bbfd0b5p+1 -0x1.2e928bbc6f0b3p+2 -0x1.0da3be08744c0p+2",
      "0x1.37fe17aa30732p+1 0x1.ae74c2a75c687p-2 0x1.deb0cef3842cfp-1",
      "0x1.05504ab636199p+1 0x1.9f5dc8752bb30p-3 0x1.308fe8b4e2b37p-1"),
     "0x1.37fe1d0ffa150p+1 0x1.ae74c2a803b3dp-2 0x1.deb0cf2c38b71p-1",
     ("0x1.b4e3c4423a462p-1 -0x1.efce395088e8bp-3 -0x1.38f034f11cdc4p-1",
      "-0x1.6242e0b282ef6p-3 0x1.9a651dacbc8a6p-2 -0x1.d2875be3c4a43p-3",
      "-0x1.e97ed0e0aa919p-2 -0x1.31004c05cfb57p-2 0x1.8d3f8e3f06ca3p-1")),
    (3, 0.0, 1e-10, 38, "0x1.26bb1bbb55516p+3",
     {"accepted": 37, "rejected": 0, "evaluations": 445,
      "h_min": 0.11888378866453597, "h_max": 0.6766443543928959,
      "s_start": -0.5346408563846266},
     ("-0x1.00bf32cfe6b78p+5 -0x1.4b46f73836e11p+5 -0x1.23b2b9ff939c0p+5",
      "-0x1.e578e41193ac0p+1 -0x1.2e928bf5cfe1bp+2 -0x1.0da3be3a7b5cfp+2",
      "0x1.37fe17d424867p+1 0x1.ae74c31b186fdp-2 0x1.deb0cf68305d3p-1",
      "0x1.05504aaa8d7fap+1 0x1.9f5dc9bbd7edcp-3 0x1.308fe92658ef6p-1"),
     "0x1.37fe1d39ee06ap+1 0x1.ae74c31bbfbb2p-2 0x1.deb0cfa0e4e5cp-1",
     ("0x1.b4e3c46684f2bp-1 -0x1.efce3b5260d22p-3 -0x1.38f03591ee382p-1",
      "-0x1.6242e07705822p-3 0x1.9a651e3b34f30p-2 -0x1.d2875bff6714ap-3",
      "-0x1.e97ed121ed592p-2 -0x1.31004c1d8e3bep-2 0x1.8d3f8e9fbc9f3p-1")),
    (3, -0.5, 1e-06, 11, "0x1.26bb1bbb55516p+3",
     {"accepted": 10, "rejected": 0, "evaluations": 121,
      "h_min": 0.9362734312815997, "h_max": 1.6704365401116927,
      "s_start": -2.455576073889144},
     ("-0x1.141a607ecb589p+4 -0x1.6ea4ca38cf39fp+4 -0x1.3fb19e5d25a06p+4",
      "-0x1.e5602f85555f0p+0 -0x1.2e85924ea10a2p+1 -0x1.0d975d05e7abfp+1",
      "0x1.37e6afe6eeb1ep+0 0x1.ae745433cfc36p-3 0x1.deabd45fb2d37p-2",
      "0x1.64ae704d6e614p-2 -0x1.6ac74642b8195p-4 -0x1.b56d89523a9b5p-5"),
     "0x1.37fe1e4822abap+0 0x1.ae74c22c1838cp-3 0x1.deb0cf125173bp-2",
     ("0x1.b4e3b5ef81ad3p-2 -0x1.efce2be566d4cp-4 -0x1.38f037a681c2cp-2",
      "-0x1.6242e1613581fp-4 0x1.9a651d1a4420ap-3 -0x1.d2875ca0c8903p-4",
      "-0x1.e97ed3c389538p-3 -0x1.31004d8e609a3p-3 0x1.8d3f8df2075abp-2")),
    (3, -0.5, 1e-10, 32, "0x1.26bb1bbb55516p+3",
     {"accepted": 31, "rejected": 0, "evaluations": 373,
      "h_min": 0.2840791536566758, "h_max": 0.6614561437712592,
      "s_start": -2.455576073889144},
     ("-0x1.141a60dc990a8p+4 -0x1.6ea4cab5d3b58p+4 -0x1.3fb19eca1cdc1p+4",
      "-0x1.e560300b41e4ap+0 -0x1.2e8592acc9cf6p+1 -0x1.0d975d584da41p+1",
      "0x1.37e6b01796c7ap+0 0x1.ae74552acb1ddp-3 0x1.deabd53946e64p-2",
      "0x1.64ae6b72a9efcp-2 -0x1.6ac743a6af315p-4 -0x1.b56d892009174p-5"),
     "0x1.37fe1e7833b49p+0 0x1.ae74c3230ffc8p-3 0x1.deb0cfebc0b6ep-2",
     ("0x1.b4e3b8de6955fp-2 -0x1.efce2b4db21b7p-4 -0x1.38f036ff6c5dfp-2",
      "-0x1.6242e088bd8e9p-4 0x1.9a651e51005d6p-3 -0x1.d2875c3a919bap-4",
      "-0x1.e97ed2997e5e0p-3 -0x1.31004cd4c11dbp-3 0x1.8d3f8f2089155p-2")),
]


def _hex_floats(text):
    return [float.fromhex(v) for v in text.split()]


@pytest.mark.parametrize(
    "n, gamma, tol, nodes, last, stats, state, sigma, dsigma", FROZEN_SOLVES,
    ids=[f"n{c[0]}-gamma{c[1]}-tol{c[2]:g}" for c in FROZEN_SOLVES],
)
def test_jacobian_solve_is_frozen(n, gamma, tol, nodes, last, stats, state, sigma, dsigma):
    entries = [[1.0, 2.0], [2.0, 1.0]] if n == 2 else TestInexactNewton.MATRIX3
    alpha = [-1.3, -0.7][: n - 1]
    point = lv.alpha_to_sigma(lv.CoefficientMatrix.from_entries(entries),
                              lv.SingularityProfile(gamma), alpha, r_max=1e4, tol=tol,
                              jacobian=True)
    profile = point.summary.profile
    assert len(profile.grid) == nodes
    assert profile.grid[-1].hex() == last
    assert dict(profile.stats) == stats
    rows = (profile.values[-1], profile.dvalues[-1], profile.mass[-1], profile.logmass[-1])
    assert [[v.hex() for v in row] for row in rows] == [row.split() for row in state]
    assert [v.hex() for v in point.full_sigma] == sigma.split()
    np.testing.assert_allclose(point.summary.dsigma, [_hex_floats(row) for row in dsigma],
                               rtol=1e-14, atol=0.0)
