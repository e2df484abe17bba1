import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liouville as lv
from liouville.errors import DomainError, InputError

from test_radial import interpolated_ode_residual


class TestHeightMatch:
    def test_equal_heights_identity(self):
        assert lv.height_match(7.0, 7.0, 0.7, 0.7).eta == pytest.approx(1.0)

    def test_direct_value(self):
        h = lv.height_match(10.0, 20.0, 1.0, 0.5)
        assert h.eta == pytest.approx(0.5, rel=1e-14)

    def test_shifted_heights(self):
        h = lv.height_match(12.0, 10.0, 1.0, 1.0)
        assert h.eta == pytest.approx(math.e, rel=1e-14)

    def test_defining_relation(self):
        h = lv.height_match(3.7, 11.3, 0.85, 0.4)
        lhs = 2.0 * h.mu_p * math.log(h.eta)
        rhs = h.mu_p * h.M_p - h.mu_q * h.M_q - 2.0 * math.log(h.mu_p / h.mu_q)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert h.eps_p == pytest.approx(math.exp(-h.M_p / 2.0))

    def test_validation(self):
        with pytest.raises(InputError):
            lv.height_match(1.0, 1.0, 1.5, 0.5)
        with pytest.raises(InputError):
            lv.height_match(math.inf, 1.0, 1.0, 0.5)


class TestHeightRange:
    """e^(M/2), e^(-M/2) and eta must be finite positive floats."""

    @pytest.mark.parametrize(
        "args, said",
        [
            ((2000.0, 1.0, 1.0, 0.5), "M_p = 2000.0"),  # e^(M_p/2) overflows
            ((1.0, 3000.0, 1.0, 0.5), "M_q = 3000.0"),  # so would eta's 0
            ((1420.0, 1420.0, 1.0, 1.0), "M_p = 1420.0"),
            ((-1420.0, 0.0, 1.0, 1.0), "M_p = -1420.0"),  # e^(-M_p/2) overflows
            ((0.0, -1420.0, 1.0, 1.0), "M_q = -1420.0"),
            ((710.0, -710.0, 1.0, 1.0), "eta"),  # log eta = 710
            ((-750.0, 750.0, 1.0, 1.0), "eta"),  # eta underflows to 0
            ((0.0, 100.0, 0.01, 0.5), "eta"),
        ],
    )
    def test_rejected(self, args, said):
        with pytest.raises(InputError, match=said):
            lv.height_match(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (1419.0, 1419.0, 1.0, 1.0),  # |M|/2 just below log(max float) = 709.78
            (-1419.0, -1419.0, 1.0, 1.0),
            (709.0, -709.0, 1.0, 1.0),  # log eta = 709
            (-740.0, 740.0, 1.0, 1.0),  # log eta = -740, a subnormal eta
        ],
    )
    def test_just_inside(self, args):
        h = lv.height_match(*args)
        for value in (h.eta, h.eps_p, h.eps_q, 1.0 / h.eps_p, 1.0 / h.eps_q):
            assert 0.0 < value < math.inf

    def test_reference_scale_overflow(self, f1_summary):
        # eps_p = e^370 is a float, but eps_p^(m_min - 2 mu) = e^740 is not
        heights = lv.height_match(-740.0, 740.0, 1.0, 1.0)
        with pytest.raises(InputError, match="M_p = -740.0: eps_p"):
            lv.bubble_distance(f1_summary, f1_summary, heights)


class TestMuTransform:
    def test_identity(self, f2_profile):
        same = lv.mu_transform(f2_profile, 0.5)
        np.testing.assert_array_equal(same.grid, f2_profile.grid)
        np.testing.assert_array_equal(same.values, f2_profile.values)

    def test_f2_closed_form(self, f2_deep_profile):
        # strength 1/2 -> 1 lands on log(4 / (1 + r^2/2)^2)
        transformed = lv.mu_transform(f2_deep_profile, 1.0)
        assert transformed.spec.singularity.gamma == 0.0
        for r in (0.3, 2.0, 30.0):
            u, _ = lv.evaluate(transformed, r)
            exact = math.log(4.0) - 2.0 * math.log1p(r * r / 2.0)
            assert u[0] == pytest.approx(exact, abs=3e-8)

    def test_solves_target_equation(self, f2_deep_profile):
        # the flux identity dU_i/ds = -sum_j a_ij mass_j at every node of the
        # transformed profile
        transformed = lv.mu_transform(f2_deep_profile, 1.0)
        flux = transformed.mass @ transformed.spec.matrix.entries.T
        assert float(np.max(np.abs(transformed.dvalues + flux))) < 1e-12
        # and the dense interpolant behaves like a direct integration
        assert interpolated_ode_residual(transformed, -1.0, 3.0, 0.01) < 1e-3

    def test_energy_ratio(self, f2_summary):
        transformed = lv.extract_summary(lv.mu_transform(f2_summary.profile, 1.0))
        # sigma_tilde * mu_q = sigma_bar * mu_p
        assert abs(
            transformed.sigma[0] * f2_summary.mu - f2_summary.sigma[0] * 1.0
        ) < 1e-8

    def test_initial_gaps_preserved(self, matrix12):
        spec = lv.ProblemSpec(
            matrix12, lv.SingularityProfile(-0.5), np.array([0.0, -0.7])
        )
        profile = lv.integrate(spec, 1e6, 1e-10)
        transformed = lv.mu_transform(profile, 0.8)
        gap_before = profile.spec.alpha0[0] - profile.spec.alpha0[1]
        gap_after = transformed.spec.alpha0[0] - transformed.spec.alpha0[1]
        assert gap_after == pytest.approx(gap_before, abs=1e-15)

    @given(mu_mid=st.floats(0.001, 1.0))
    @example(mu_mid=0.001)
    @example(mu_mid=0.005)
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, f2_profile, mu_mid):
        # 1/2 -> mu_mid -> 1/2 gives the profile back, each array to 1e-12
        # of its largest entry (values start near 0, so not entrywise); F2
        # ends at log r = 9.2, so below mu_mid = 0.0065 the middle profile
        # ends past e^709.78
        back = lv.mu_transform(lv.mu_transform(f2_profile, mu_mid), 0.5)
        assert back.spec.singularity.mu == 0.5
        for key in ("grid", "values", "dvalues", "mass", "logmass"):
            got, want = getattr(back, key), getattr(f2_profile, key)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key

    def test_radius_past_the_floats(self, f1_profile, f1_summary):
        # F1 ends at log r = 9.2: mu 1 -> 0.01 takes it to 921, and a
        # dilation by 1e-310 to 723, both past log(max float) = 709.8; the
        # grid stays in log r, so sigma scales by mu_p/mu_q and by 1
        for transformed, ratio in ((lv.mu_transform(f1_profile, 0.01), 0.01),
                                   (lv.eta_rescale(f1_profile, 1e-310), 1.0)):
            assert transformed.r_max == math.inf
            sigma = lv.extract_summary(transformed).sigma
            np.testing.assert_allclose(sigma, ratio * f1_summary.sigma, rtol=1e-12, atol=0.0)

    def test_degenerate_strength_rejected(self, f2_profile):
        # below about 1.1e-16, mu_p - 1 rounds to -1: the error names mu_p,
        # not a gamma the caller never passed
        for mu_p in (0.0, 1.5, 1e-17, 5e-17):
            with pytest.raises(DomainError, match=f"got mu_p = {mu_p}"):
                lv.mu_transform(f2_profile, mu_p)
        assert lv.mu_transform(f2_profile, 1e-16).spec.singularity.mu == 1.0 + (1e-16 - 1.0)


class TestOneMap:
    """mu_transform and eta_rescale are one map, radial._rescale; each still
    gives its own formula bitwise, and the dilation carries sensitivities."""

    FIXTURES = ["f1_profile", "f2_profile", "f3_profile"]

    @staticmethod
    def _assert_arrays(got, want):
        for key, array in want.items():
            np.testing.assert_array_equal(getattr(got, key), array, err_msg=key)

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("mu_p", [0.3, 0.5, 1.0])
    def test_mu_transform_formula(self, request, fixture, mu_p):
        p = request.getfixturevalue(fixture)
        got = lv.mu_transform(p, mu_p)
        # the strength as SingularityProfile stores it: 1 + (0.3 - 1) is not 0.3
        c = got.spec.singularity.mu / p.spec.singularity.mu
        self._assert_arrays(got, {
            "grid": p.grid / c,
            "values": p.values + 2.0 * math.log(c),
            "dvalues": p.dvalues * c,
            "mass": p.mass * c,
            "logmass": p.logmass,
        })

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("eta", [0.5, 3.0, 40.0])
    def test_eta_rescale_formula(self, request, fixture, eta):
        p = request.getfixturevalue(fixture)
        log_eta = math.log(eta)
        shift = 2.0 * p.spec.singularity.mu * log_eta
        got = lv.eta_rescale(p, eta)
        np.testing.assert_array_equal(got.spec.alpha0, p.spec.alpha0 + shift)
        self._assert_arrays(got, {
            "grid": p.grid - log_eta,
            "values": p.values + shift,
            "dvalues": p.dvalues,
            "mass": p.mass,
            "logmass": p.logmass - log_eta * p.mass,
        })

    @pytest.mark.parametrize("eta", [0.5, 3.0, 40.0])
    def test_dilation_keeps_dsigma(self, f3_profile, eta):
        # sigma does not depend on the dilation, so neither does its derivative
        profile = lv.integrate(f3_profile.spec, 1e4, 1e-10, sensitivity=True)
        want = lv.extract_summary(profile).dsigma
        got = lv.extract_summary(lv.eta_rescale(profile, eta)).dsigma
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestHatRescale:
    def test_unit_dilation_identity(self, f2_profile):
        heights = lv.height_match(4.0, 4.0, 0.5, 0.5)
        same = lv.hat_rescale(f2_profile, heights)
        np.testing.assert_array_equal(same.values, f2_profile.values)

    def test_measure_preserving(self, f2_deep_profile):
        transformed = lv.mu_transform(f2_deep_profile, 1.0)
        heights = lv.height_match(10.0, 20.0, 1.0, 0.5)
        rescaled = lv.hat_rescale(transformed, heights)
        s_before = lv.extract_summary(transformed).sigma
        s_after = lv.extract_summary(rescaled).sigma
        np.testing.assert_allclose(s_after, s_before, rtol=1e-10)

    def test_initial_shift(self, f2_deep_profile):
        transformed = lv.mu_transform(f2_deep_profile, 1.0)
        heights = lv.height_match(10.0, 20.0, 1.0, 0.5)
        rescaled = lv.hat_rescale(transformed, heights)
        expected = transformed.spec.alpha0 + 2.0 * 1.0 * math.log(0.5)
        np.testing.assert_allclose(rescaled.spec.alpha0, expected, rtol=1e-14)

    def test_strength_mismatch_rejected(self, f2_profile):
        heights = lv.height_match(10.0, 20.0, 1.0, 0.5)
        with pytest.raises(InputError):
            lv.hat_rescale(f2_profile, heights)  # profile strength is 1/2


class TestDRelation:
    def test_identity_strengths(self, f2_summary):
        resid = lv.d_relation_residual(f2_summary, 0.5, 6.0, 9.0)
        assert np.max(np.abs(resid)) < 1e-8

    def test_f2_to_regular(self, f2_summary):
        resid = lv.d_relation_residual(f2_summary, 1.0, 10.0, 20.0)
        assert np.max(np.abs(resid)) < 1e-6
        # the shifted tail constant lands on log 64
        expected = f2_summary.D[0] + (f2_summary.m[0] / 0.5) * math.log(2.0)
        assert expected == pytest.approx(math.log(64.0), abs=1e-7)

    def test_height_pair_independence(self, f2_summary):
        r1 = lv.d_relation_residual(f2_summary, 1.0, 10.0, 20.0)
        r2 = lv.d_relation_residual(f2_summary, 1.0, 3.7, 11.3)
        assert np.max(np.abs(r1 - r2)) < 1e-9

    def test_chain_past_the_floats(self, matrix12):
        # mu_p 0.01, M_p 0, M_q -12.7 takes the strength transform to
        # e^778; the chain stays in log r, so the height pair still cancels
        spec = lv.ProblemSpec(matrix12, lv.SingularityProfile(-0.5), np.zeros(2))
        summary = lv.extract_summary(lv.integrate(spec, 1e4, 1e-10))
        r1 = lv.d_relation_residual(summary, 0.01, 0.0, -12.7)
        r2 = lv.d_relation_residual(summary, 0.01, 0.0, 6.0)
        assert np.max(np.abs(r1 - r2)) < 1e-9
        assert np.max(np.abs(r1)) < 1e-6

    def test_multicomponent(self, matrix12):
        spec = lv.ProblemSpec(
            matrix12, lv.SingularityProfile(-0.4), np.array([0.0, -0.5])
        )
        summary = lv.extract_summary(lv.integrate(spec, 1e7, 1e-10))
        resid = lv.d_relation_residual(summary, 0.9, 5.0, 8.0)
        assert np.max(np.abs(resid)) < 1e-6


class TestBubbleDistance:
    def test_own_transform_image(self, f2_summary):
        image = lv.extract_summary(lv.mu_transform(f2_summary.profile, 1.0))
        comp = lv.bubble_distance(image, f2_summary)
        assert np.max(comp.distances) < 1e-8

    def test_scalar_fixtures_agree(self, f1_summary, f2_summary):
        comp = lv.bubble_distance(f1_summary, f2_summary)
        assert comp.distances[0] < 1e-8
        assert comp.reference_scale is None

    def test_perturbation_bounded_by_jacobian(self, matrix12):
        sing = lv.SingularityProfile(0.0)
        base = lv.alpha_to_sigma(matrix12, sing, [0.0])
        moved = lv.alpha_to_sigma(matrix12, sing, [0.1])
        comp = lv.bubble_distance(moved.summary, base.summary)
        jac = lv.alpha_to_sigma(matrix12, sing, [0.0], jacobian=True).jacobian
        bound = 3.0 * abs(jac[0, 0]) * 0.1  # slack for full-vector response
        assert 0.0 < np.max(comp.distances) < bound

    def test_reference_scale(self, f1_summary, f2_summary):
        heights = lv.height_match(10.0, 20.0, 1.0, 0.5)
        comp = lv.bubble_distance(f1_summary, f2_summary, heights)
        expected = heights.eps_p ** (f1_summary.m_min - 2.0 * f1_summary.mu)
        assert comp.reference_scale == pytest.approx(expected, rel=1e-14)
