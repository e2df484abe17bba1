import dataclasses
import math

import numpy as np
import pytest

import liouville as lv
from liouville import energy
from liouville.energy import _TAIL_ATOL
from liouville.errors import DomainError, ExtractionError, InputError, OutOfRangeError
from test_radial import MATRICES, ORACLE_SPECS, _oracle_spec

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

    def test_flux_below_threshold_says_r_max(self, matrix1):
        # a bubble of scale about e^350 has not begun to decay by r = 1e4:
        # the flux there is ~5e-297, which is r_max's fault, not a mass
        # exponent below the threshold
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([-700.0]))
        profile = lv.integrate(spec, r_max=1e4, tol=1e-10)
        with pytest.raises(ExtractionError, match="r_max is too small") as info:
            lv.extract_summary(profile)
        assert "integrability threshold" not in str(info.value)

    def test_messages_without_r_max_name_the_last_log_r(self, matrix1):
        # a solve given no r_max ends where its own estimate passes; a
        # closure that fails on such a profile (here altered as in
        # ``test_closure_near_the_threshold``, and with a quarter of its
        # flux) names that node's log r and the solve's estimate, never
        # r_max, which past the float radii would read inf
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        profile = lv.integrate(spec)
        altered = dataclasses.replace(profile, mass=profile.mass * 0.5005,
                                      dvalues=profile.dvalues * 0.5005, logmass=profile.logmass - 18.0)
        with pytest.raises(ExtractionError, match="tail_error = 2.2") as info:
            lv.extract_summary(altered)
        said = str(info.value)
        assert f"at log r = {profile.grid[-1]:.6g}, where the solve's own estimate read" in said
        assert "r_max" not in said
        with pytest.raises(ExtractionError, match="the profile ends before the flux settles") as info:
            lv.extract_summary(dataclasses.replace(profile, dvalues=profile.dvalues * 0.25))
        assert f"log r = {profile.grid[-1]:.6g}" in str(info.value) and "r_max" not in str(info.value)

    def test_closure_below_threshold_names_it(self, f1_profile):
        # flux 4 > 2 mu, but masses a quarter of F1's (not a solution) make
        # the first sweep's m = sigma about 1: the closure, not r_max, fails
        profile = dataclasses.replace(f1_profile, mass=f1_profile.mass * 0.25)
        with pytest.raises(ExtractionError, match="integrability threshold"):
            lv.extract_summary(profile)

    @pytest.mark.parametrize("r_max", [1e4, 1e6, 1e8])
    def test_closure_overflow_names_the_component(self, r_max):
        # component 2's flux settles at 1.0308 against 2 mu = 1, so its tail
        # e^(D - alpha - gap log r) / gap blows up: the third sweep's exponent
        # is about 1e243; it stops there, before exp, not after 98 NaN sweeps
        matrix = lv.CoefficientMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        alpha0 = np.array([-0.6621483259884229, 0.0, -0.7302803889995062])
        profile = lv.integrate(
            lv.ProblemSpec(matrix, lv.SingularityProfile(-0.5), alpha0), r_max, 1e-10
        )
        with pytest.raises(ExtractionError, match=r"sweep 3: component 2's tail") as info:
            lv.extract_summary(profile)
        assert "0.0308" in str(info.value) and "above 2 mu = 1.0" in str(info.value)

    @pytest.mark.parametrize(
        "fixture, exact_gap",
        [
            # flux gap m - (-r U'(r)) at r_max from the closed forms
            ("f1_summary", lambda r: 4.0 / (1.0 + r**2 / 8.0)),
            ("f2_summary", lambda r: 2.0 / (1.0 + r / 2.0)),
            ("f3_summary", lambda r: 4.0 / (1.0 + 3.0 * r**2 / 8.0)),
        ],
    )
    def test_closure_counters(self, request, fixture, exact_gap):
        summary = request.getfixturevalue(fixture)
        assert summary.sweeps == 2
        assert summary.flux_gap == pytest.approx(exact_gap(summary.profile.r_max), rel=1e-6)
        assert set(summary.to_dict()) == {
            "sigma", "m", "D", "alpha", "mu", "m_min", "tail_error", "pohozaev_residual"
        }

    def test_closure_out_of_sweeps(self, monkeypatch, f1_profile, f1_summary):
        # F1 closes in 2 sweeps; allowed 1, the closure says it did not converge
        assert f1_summary.sweeps == 2
        monkeypatch.setattr(energy, "_TAIL_MAX_ITER", 1)
        with pytest.raises(ExtractionError, match="tail fixed point did not converge in 1 sweeps"):
            lv.extract_summary(f1_profile)

    @pytest.mark.parametrize("n, solved", [(1, 18), (2, 16), (3, 16)])
    def test_flux_gap_is_the_tail_share(self, n, solved):
        # -r U'(r_max) = A sigma(r_max), so at the converged closure the flux
        # gap is max |A (tail / gap)|: the tail model's share of m, to the
        # closure's tolerance. The gamma = -0.9 solves whose tail_error
        # passes the bound (1.2e-5 to 5.3e-4) raise ExtractionError and are
        # counted out.
        matrix = lv.CoefficientMatrix.from_entries(MATRICES[n])
        checked = 0
        for gamma in (0.0, -0.25, -0.5, -0.9, -0.99):
            rng = np.random.default_rng(100 * n + int(-4 * gamma))
            alpha0 = rng.uniform(-2.0, 0.0, size=n)
            spec = lv.ProblemSpec(matrix, lv.SingularityProfile(gamma), alpha0 - alpha0.max())
            for r_max in (1e4, 1e8):
                for tol in (1e-10, 1e-6):
                    try:
                        summary = lv.extract_summary(lv.integrate(spec, r_max, tol))
                    except ExtractionError:
                        continue
                    gap = summary.m - 2.0 * summary.mu
                    tail = np.exp(summary.D - summary.alpha - gap * math.log(r_max))
                    share = float(np.max(np.abs(matrix.entries @ (tail / gap))))
                    assert abs(summary.flux_gap - share) <= _TAIL_ATOL
                    checked += 1
        assert checked == solved

    def test_deterministic(self, f3_profile):
        a = lv.extract_summary(f3_profile)
        b = lv.extract_summary(f3_profile)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.D, b.D)
        assert (a.sweeps, a.flux_gap) == (b.sweeps, b.flux_gap)


def _n2_half(alpha):
    """n = 2, A = [[1, 2], [2, 1]], gamma = -1/2, alpha0 = (0, alpha)."""
    matrix = lv.CoefficientMatrix.from_entries(MATRICES[2])
    return lv.ProblemSpec(matrix, lv.SingularityProfile(-0.5), np.array([0.0, alpha]))


# F1-F3 and the seeded specs of TestRowFormOracle, the scalar gamma = -0.9,
# and at n = 2, gamma = -1/2: alpha = -0.6, the target of
# test_shooting's test_flux_gap_does_not_stop_the_inversion and its first
# Newton trial
TAIL_SPECS = {
    **{name: _oracle_spec(name) for name in ORACLE_SPECS},
    "scalar-g-0.9": lv.ProblemSpec(
        lv.CoefficientMatrix.from_entries([[1.0]]), lv.SingularityProfile(-0.9), np.array([0.0])
    ),
    "n2-a-0.6": _n2_half(-0.6),
    "target": _n2_half(-2.98611107),
    "trial": _n2_half(-1.0289892155411442),
}


class TestTailError:
    """tail_error, max_j |tau_j| / sigma_j with tau the tail model's first
    omitted term, against sigma's true relative error."""

    @pytest.mark.parametrize("name", list(TAIL_SPECS))
    def test_against_the_truth(self, monkeypatch, name):
        # sigma at r_max 1e3 to 1e8 against a reference at r_max 1e16, with
        # the bound lifted: where the true error is above 1e-14 the estimate
        # is at most 1 % below it and 5 % above (measured 0.99996 to 1.040;
        # with g_j + g_k read as 2 g_j it reads down to 0.984); below 1e-14
        # the two solves' rounding takes over
        monkeypatch.setattr(energy, "_TAIL_ERROR_MAX", math.inf)
        spec = TAIL_SPECS[name]
        reference = lv.extract_summary(lv.integrate(spec, 1e16, 1e-12)).sigma
        for r_max in (1e3, 1e4, 1e6, 1e8):
            summary = lv.extract_summary(lv.integrate(spec, r_max, 1e-12))
            true = float(np.max(np.abs(summary.sigma - reference) / reference))
            if true > 1e-14:
                assert 0.99 <= summary.tail_error / true <= 1.05, r_max
            else:
                assert summary.tail_error < 1e-13, r_max

    @pytest.mark.parametrize(
        "spec, accepted",
        [
            # flux gaps 9.6e-4 here and 1.9e-3 at mu = 1, of which the
            # absolute flux-gap bound 1e-3 accepted one side only
            (_n2_half(-3.0), True),
            (TAIL_SPECS["scalar-g-0.9"], False),
        ],
    )
    def test_same_under_the_exact_transforms(self, monkeypatch, spec, accepted):
        # the profile and its images are one solution: one estimate (to
        # 1.1e-14 measured) and one outcome
        profile = lv.integrate(spec, 1e4, 1e-10)
        images = [lv.mu_transform(profile, mu) for mu in (0.3, 0.8, 1.0)]
        images += [lv.eta_rescale(profile, eta) for eta in (7.0, 1e-3)]
        for each in (profile, *images):
            try:
                lv.extract_summary(each)
            except ExtractionError as exc:
                assert not accepted and "tail_error" in str(exc)
            else:
                assert accepted
        monkeypatch.setattr(energy, "_TAIL_ERROR_MAX", math.inf)
        estimate = lv.extract_summary(profile).tail_error
        for image in images:
            assert lv.extract_summary(image).tail_error == pytest.approx(estimate, rel=1e-12)

    def test_closure_near_the_threshold(self, f1_profile):
        # F1 with mass and flux scaled by 0.5005 and log-weighted mass less
        # 18 (not a solution): the closure converges to m = 2.0025, within
        # 0.01 mu of 2 mu = 2, where tau grows like 1/(m - 2 mu)^3; its
        # estimate 2.2e-5 fails the bound
        profile = dataclasses.replace(
            f1_profile,
            mass=f1_profile.mass * 0.5005,
            dvalues=f1_profile.dvalues * 0.5005,
            logmass=f1_profile.logmass - 18.0,
        )
        with pytest.raises(ExtractionError, match="tail_error = 2.2"):
            lv.extract_summary(profile)


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
    def test_f1_rows(self, f1_summary):
        rows = lv.pohozaev_tail_table(f1_summary, [10.0, 100.0])
        big_r, defect, predicted, ratio = rows[0]
        sigma_r = 4.0 - 4.0 / 13.5
        assert defect == pytest.approx(4 * sigma_r - sigma_r**2, rel=1e-8)
        assert predicted == pytest.approx(1.28, rel=1e-6)
        assert ratio == pytest.approx(0.857, abs=2e-3)
        assert rows[1][3] == pytest.approx(1.0, abs=0.02)

    def test_defect_shrinks(self, f3_summary):
        rows = lv.pohozaev_tail_table(f3_summary, [10.0, 30.0, 100.0, 1000.0])
        defects = [abs(r[1]) for r in rows]
        assert defects == sorted(defects, reverse=True)

    def test_radius_validation(self, f1_summary):
        with pytest.raises(InputError):
            lv.pohozaev_tail_table(f1_summary, [5.0])

    def test_no_ratio_below_rounding(self):
        # A = [[1e100]]: sigma = 4e-100 and the defect 4 s - s A s is the
        # difference of two terms of 1.6e-99, against a predicted 1.3e-200;
        # the ratio came out as 1.8e89
        spec = lv.ProblemSpec(lv.CoefficientMatrix.from_entries([[1e100]]),
                              lv.SingularityProfile(0.0), np.array([0.0]))
        summary = lv.extract_summary(lv.integrate(spec))
        with pytest.raises(DomainError, match="not above the rounding"):
            lv.pohozaev_tail_table(summary, [10.0])

    @pytest.mark.parametrize(
        "radii, message",
        [(["x"], "radii must be numeric"), (10.0, r"radii must be 1-D, got shape \(\)")],
    )
    def test_radii_must_be_a_finite_1d_array(self, f1_summary, radii, message):
        # both were a bare TypeError
        with pytest.raises(InputError, match=message):
            lv.pohozaev_tail_table(f1_summary, radii)


class TestAsymptoticFit:
    def test_f1_matches_explicit_remainder(self, f1_summary):
        fit = lv.asymptotic_fit_error(f1_summary, 10.0)[0]
        explicit = -2.0 * math.log1p(8.0 / 100.0) + 16.0 / 100.0
        assert fit == pytest.approx(explicit, abs=5e-3)
        assert fit == pytest.approx(explicit, abs=1e-7)

    def test_next_order_decay(self, f1_summary):
        fit10 = lv.asymptotic_fit_error(f1_summary, 10.0)[0]
        fit20 = lv.asymptotic_fit_error(f1_summary, 20.0)[0]
        # next order is r^-4: halving dominated by ~2^-4
        assert abs(fit20 / fit10) < 0.15
        assert abs(fit20 / fit10) == pytest.approx(1.0 / 16.0, abs=0.02)

    def test_f2_far_field(self, f2_profile):
        summary = lv.extract_summary(f2_profile)
        fit = lv.asymptotic_fit_error(summary, 100.0)[0]
        assert abs(fit) < 1e-3

    def test_decays_faster_than_retained_term(self, f3_summary):
        gap = f3_summary.m_min - 2.0 * f3_summary.mu
        for r in (10.0, 40.0):
            fit = lv.asymptotic_fit_error(f3_summary, r)
            assert np.max(np.abs(fit)) < r ** (-gap)

    def test_radius_validation(self, f1_summary):
        with pytest.raises(InputError):
            lv.asymptotic_fit_error(f1_summary, 2.0)
        with pytest.raises(InputError, match="r must be finite"):
            lv.asymptotic_fit_error(f1_summary, math.nan)


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
            "tail_error",
            "pohozaev_residual",
        }
        assert d["mu"] == 1.0
        assert len(d["sigma"]) == 2
