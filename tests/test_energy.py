import dataclasses
import math

import numpy as np
import pytest

import liouville as lv
from liouville.errors import ExtractionError, InputError, OutOfRangeError

LOG64 = math.log(64.0)


class TestTruncatedSigma:
    def test_f1_closed_form(self, f1_profile):
        # int_0^R r e^U dr = 4 - 4/(1 + R^2/8)
        for big_r in (2.0, 10.0, 500.0):
            val = lv.truncated_sigma(f1_profile, big_r)[0]
            exact = 4.0 - 4.0 / (1.0 + big_r**2 / 8.0)
            assert val == pytest.approx(exact, rel=1e-9)

    def test_vanishes_at_zero(self, f3_profile):
        np.testing.assert_array_equal(lv.truncated_sigma(f3_profile, 0.0), 0.0)
        assert np.all(lv.truncated_sigma(f3_profile, 1e-8) < 1e-15)

    def test_f3_closed_form(self, f3_profile):
        val = lv.truncated_sigma(f3_profile, 10.0)
        exact = (4.0 / 3.0) * (1.0 - 1.0 / 38.5)
        np.testing.assert_allclose(val, exact, rtol=1e-9)

    def test_out_of_range(self, f1_profile):
        with pytest.raises(OutOfRangeError):
            lv.truncated_sigma(f1_profile, 2e4)
        with pytest.raises(InputError, match="r must be finite"):
            lv.truncated_sigma(f1_profile, math.nan)


class TestExtractSummary:
    def test_f1(self, f1_summary):
        assert f1_summary.sigma[0] == pytest.approx(4.0, rel=1e-9)
        assert f1_summary.m[0] == pytest.approx(4.0, rel=1e-9)
        assert f1_summary.D[0] == pytest.approx(LOG64, abs=1e-8)
        assert f1_summary.alpha[0] == 0.0

    def test_f2(self, f2_summary):
        assert f2_summary.sigma[0] == pytest.approx(2.0, rel=1e-9)
        assert f2_summary.D[0] == pytest.approx(math.log(4.0), abs=1e-8)

    def test_f3(self, f3_summary):
        np.testing.assert_allclose(f3_summary.sigma, 4.0 / 3.0, rtol=1e-9)
        np.testing.assert_allclose(f3_summary.m, 4.0, rtol=1e-9)
        np.testing.assert_allclose(f3_summary.D, math.log(64.0 / 9.0), atol=1e-8)

    def test_mass_consistency(self, f3_summary, matrix12):
        gap = f3_summary.m - matrix12.entries @ f3_summary.sigma
        assert np.max(np.abs(gap)) < 1e-10

    def test_flux_tail_consistency(self, f3_profile, f3_summary):
        # flux at r_max corrected by the tail recovers the mass to 1e-6
        mu = f3_summary.mu
        gap = f3_summary.m - 2.0 * mu
        coeff = np.exp(f3_summary.D - f3_summary.alpha)
        tail = f3_profile.spec.matrix.entries @ (
            coeff / gap * f3_profile.r_max ** (-gap)
        )
        corrected = -f3_profile.dvalues[-1] + tail
        assert np.max(np.abs(corrected - f3_summary.m)) < 1e-6

    def test_r_max_too_small(self, matrix1):
        # close to the integrability threshold the flux cannot settle
        spec = lv.ProblemSpec(
            matrix1, lv.SingularityProfile(-0.9), np.array([0.0])
        )
        profile = lv.integrate(spec, r_max=100.0, tol=1e-10)
        with pytest.raises(ExtractionError):
            lv.extract_summary(profile)

    def test_deterministic(self, f3_profile):
        a = lv.extract_summary(f3_profile)
        b = lv.extract_summary(f3_profile)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.D, b.D)


class TestPohozaev:
    def test_fixture_residuals(self, f1_summary, f3_summary):
        assert abs(lv.pohozaev_residual(f1_summary)) < 1e-8
        assert abs(lv.pohozaev_residual(f3_summary)) < 1e-8

    def test_perturbation_detected(self, f3_summary):
        sigma = f3_summary.sigma.copy()
        sigma[0] *= 1.01
        broken = dataclasses.replace(f3_summary, sigma=sigma)
        assert abs(lv.pohozaev_residual(broken)) > 1e-4

    def test_tail_slope(self, f1_summary, f3_summary):
        # log(sigma - sigma_R) vs log R has slope -(m - 2 mu)
        for summary in (f1_summary, f3_summary):
            profile = summary.profile
            radii = np.geomspace(10.0, 100.0, 8)
            for i in range(summary.n):
                defect = [
                    summary.sigma[i] - lv.truncated_sigma(profile, r)[i]
                    for r in radii
                ]
                slope = np.polyfit(np.log(radii), np.log(defect), 1)[0]
                assert slope == pytest.approx(
                    -(summary.m[i] - 2.0 * summary.mu), abs=0.05
                )

    @pytest.mark.xfail(
        strict=True,
        reason="the exact remainder 4/(2+R) has log-log slope -0.932 over "
        "[10, 100]: the subleading O(1/R) correction shifts the finite-window "
        "slope outside the 0.05 band whenever the mass gap is 1; the window "
        "is too early for this fixture",
    )
    def test_tail_slope_f2_window_too_early(self, f2_summary):
        profile = f2_summary.profile
        radii = np.geomspace(10.0, 100.0, 8)
        defect = [
            f2_summary.sigma[0] - lv.truncated_sigma(profile, r)[0] for r in radii
        ]
        slope = np.polyfit(np.log(radii), np.log(defect), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_tail_slope_f2_asymptotic_window(self, f2_summary):
        # the law itself holds: at R in [1e3, 1e4] the slope settles to -1
        profile = f2_summary.profile
        radii = np.geomspace(1e3, 1e4, 8)
        defect = [
            f2_summary.sigma[0] - lv.truncated_sigma(profile, r)[0] for r in radii
        ]
        slope = np.polyfit(np.log(radii), np.log(defect), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.01)


class TestPohozaevTailTable:
    def test_f1_rows(self, f1_profile, f1_summary):
        rows = lv.pohozaev_tail_table(f1_profile, [10.0, 100.0], f1_summary)
        big_r, defect, predicted, ratio = rows[0]
        sigma_r = 4.0 - 4.0 / 13.5
        assert defect == pytest.approx(4 * sigma_r - sigma_r**2, rel=1e-8)
        assert predicted == pytest.approx(1.28, rel=1e-6)
        assert ratio == pytest.approx(0.857, abs=2e-3)
        assert rows[1][3] == pytest.approx(1.0, abs=0.02)

    def test_defect_shrinks(self, f3_profile, f3_summary):
        rows = lv.pohozaev_tail_table(
            f3_profile, [10.0, 30.0, 100.0, 1000.0], f3_summary
        )
        defects = [abs(r[1]) for r in rows]
        assert defects == sorted(defects, reverse=True)

    def test_radius_validation(self, f1_profile, f1_summary):
        with pytest.raises(InputError):
            lv.pohozaev_tail_table(f1_profile, [5.0], f1_summary)


class TestAsymptoticFit:
    def test_f1_matches_explicit_remainder(self, f1_profile, f1_summary):
        fit = lv.asymptotic_fit_error(f1_profile, f1_summary, 10.0)[0]
        explicit = -2.0 * math.log1p(8.0 / 100.0) + 16.0 / 100.0
        assert fit == pytest.approx(explicit, abs=5e-3)
        assert fit == pytest.approx(explicit, abs=1e-7)

    def test_next_order_decay(self, f1_profile, f1_summary):
        fit10 = lv.asymptotic_fit_error(f1_profile, f1_summary, 10.0)[0]
        fit20 = lv.asymptotic_fit_error(f1_profile, f1_summary, 20.0)[0]
        # next order is r^-4: halving dominated by ~2^-4
        assert abs(fit20 / fit10) < 0.15
        assert abs(fit20 / fit10) == pytest.approx(1.0 / 16.0, abs=0.02)

    def test_f2_far_field(self, f2_profile):
        summary = lv.extract_summary(f2_profile)
        fit = lv.asymptotic_fit_error(f2_profile, summary, 100.0)[0]
        assert abs(fit) < 1e-3

    def test_decays_faster_than_retained_term(self, f3_profile, f3_summary):
        gap = f3_summary.m_min - 2.0 * f3_summary.mu
        for r in (10.0, 40.0):
            fit = lv.asymptotic_fit_error(f3_profile, f3_summary, r)
            assert np.max(np.abs(fit)) < r ** (-gap)

    def test_radius_validation(self, f1_profile, f1_summary):
        with pytest.raises(InputError):
            lv.asymptotic_fit_error(f1_profile, f1_summary, 2.0)
        with pytest.raises(InputError, match="r must be finite"):
            lv.asymptotic_fit_error(f1_profile, f1_summary, math.nan)


class TestSummaryExport:
    def test_dict_shape(self, f3_summary):
        d = f3_summary.to_dict()
        assert set(d) == {
            "sigma",
            "m",
            "D",
            "alpha",
            "mu",
            "m_min",
            "pohozaev_residual",
        }
        assert d["mu"] == 1.0
        assert len(d["sigma"]) == 2
