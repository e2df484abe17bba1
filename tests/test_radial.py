import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import liouville as lv
from liouville import radial
from liouville.errors import (
    BlowupError,
    DomainError,
    InputError,
    IntegrationError,
    OutOfRangeError,
)


MATRICES = {
    1: [[1.0]],
    2: [[1.0, 2.0], [2.0, 1.0]],
    3: [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]],
}


def f1_exact(r):
    return -2.0 * np.log1p(r**2 / 8.0)


def f2_exact(r):
    return -2.0 * np.log1p(r / 2.0)


def f3_exact(r):
    return -2.0 * np.log1p(3.0 * r**2 / 8.0)


class TestOriginSeries:
    def test_scalar_regular(self, matrix1):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        vals, _ = lv.origin_series(spec, 1e-3)
        assert vals[0] == pytest.approx(-2.5e-7, rel=1e-6)

    def test_limit_is_initial_value(self, matrix12):
        spec = lv.ProblemSpec(
            matrix12, lv.SingularityProfile(-0.3), np.array([0.0, -1.0])
        )
        vals, derivs = lv.origin_series(spec, 0.0)
        np.testing.assert_array_equal(vals, spec.alpha0)
        np.testing.assert_array_equal(derivs, 0.0)

    def test_scalar_singular(self, matrix1):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(-0.5), np.array([0.0]))
        vals, _ = lv.origin_series(spec, 1e-4)
        assert vals[0] == pytest.approx(-1e-4, rel=1e-4)

    def test_remainder_order(self, matrix1):
        # halving r shrinks the series error by ~2^(4 mu) (next order)
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        errs = []
        for r in (2e-2, 1e-2):
            vals, _ = lv.origin_series(spec, r)
            errs.append(abs(vals[0] - f1_exact(r)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.05)

    def test_rejects_large_radius(self, matrix1):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        with pytest.raises(DomainError):
            lv.origin_series(spec, 2.0)


class TestIntegrate:
    def test_f1_pointwise(self, f1_profile):
        for r in (1e-4, 0.3, 1.0, 10.0, 100.0, 9000.0):
            u, du = lv.evaluate(f1_profile, r)
            assert abs(u[0] - f1_exact(r)) < 1e-8
            exact_d = -2.0 * (r / 4.0) / (1.0 + r**2 / 8.0)
            assert abs(du[0] - exact_d) < 1e-7

    def test_f2_pointwise(self, f2_profile):
        for r in (0.1, 4.0, 50.0, 5000.0):
            u, _ = lv.evaluate(f2_profile, r)
            assert abs(u[0] - f2_exact(r)) < 1e-8

    def test_f3_symmetric_reduction(self, f3_profile):
        for r in (0.5, 5.0, 200.0):
            u, _ = lv.evaluate(f3_profile, r)
            assert abs(u[0] - f3_exact(r)) < 1e-8
            assert u[0] == u[1]

    def test_parameter_validation(self, matrix1):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        with pytest.raises(InputError):
            lv.integrate(spec, r_max=5.0)
        with pytest.raises(InputError):
            lv.integrate(spec, tol=1e-20)
        with pytest.raises(InputError):
            lv.integrate(spec, tol=1e-3)

    @pytest.mark.parametrize("r_max", [math.nan, math.inf])
    def test_non_finite_r_max_rejected(self, matrix1, r_max):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        with pytest.raises(InputError, match="r_max"):
            lv.integrate(spec, r_max=r_max)

    def test_overflow_guard(self, matrix1):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([60.0]))
        with pytest.raises(BlowupError):
            lv.integrate(spec)

    def test_grid_contract(self, f1_profile):
        assert np.all(np.diff(f1_profile.grid) > 0)
        assert f1_profile.r_first <= 1e-6 * (1 + 1e-12)
        assert f1_profile.r_max == pytest.approx(1e4, rel=1e-12)

    def test_monotone_flux(self, f3_profile, f3_summary):
        # -r U' = -du/ds increases along the grid, bounded by the mass
        flux = -f3_profile.dvalues
        assert np.all(np.diff(flux, axis=0) > -1e-13)
        assert np.all(flux <= f3_summary.m[None, :] + 1e-8)

    def test_negative_derivative_outside_core(self, f1_profile):
        for r in (1.0, 2.0, 17.0, 300.0):
            _, du = lv.evaluate(f1_profile, r)
            assert du[0] < 0

    def test_determinism(self, matrix12):
        spec = lv.ProblemSpec(
            matrix12, lv.SingularityProfile(-0.25), np.array([0.0, -0.5])
        )
        a = lv.integrate(spec, 1e4, 1e-10)
        b = lv.integrate(spec, 1e4, 1e-10)
        np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.mass, b.mass)

    def test_step_bound(self, matrix12, monkeypatch):
        spec = lv.ProblemSpec(
            matrix12, lv.SingularityProfile(0.0), np.array([0.0, -0.5])
        )
        monkeypatch.setattr(radial, "MAX_STEPS", 40)
        with pytest.raises(IntegrationError, match="40 steps") as info:
            lv.integrate(spec, 1e4, 1e-10)
        assert 0.0 < info.value.last_radius < 1e4

    @pytest.mark.parametrize(
        "gamma, alpha0", [(0.0, [0.0]), (-0.5, [0.0]), (0.0, [0.0, 0.0])]
    )
    def test_sensitivity_keeps_the_grid(self, gamma, alpha0):
        # error control reads the state column only
        matrix = lv.CoefficientMatrix.from_entries(MATRICES[len(alpha0)])
        spec = lv.ProblemSpec(matrix, lv.SingularityProfile(gamma), np.array(alpha0))
        plain = lv.integrate(spec, 1e4, 1e-10)
        carried = lv.integrate(spec, 1e4, 1e-10, sensitivity=True)
        assert plain.sensitivity is None
        assert carried.sensitivity.shape == (4 * spec.n, spec.n)
        assert len(carried.grid) == len(plain.grid)
        np.testing.assert_allclose(carried.mass[-1], plain.mass[-1], rtol=1e-12)


def _dop853_final_state(spec, r0, r_max):
    """(U, dU/ds, mass, logmass) at r_max from scipy's DOP853 at rtol 1e-13,
    started from the origin series at r0."""
    n, mu, a_mat = spec.n, spec.singularity.mu, spec.matrix.entries
    u0, du0 = lv.origin_series(spec, r0)
    y0 = np.concatenate([u0, du0 * r0, *radial._series_energy_seeds(spec, r0)])

    def rhs(s, y):
        w = np.exp(2.0 * mu * s + y[:n])
        return np.concatenate([y[n : 2 * n], -(a_mat @ w), w, s * w])

    sol = solve_ivp(
        rhs, (math.log(r0), math.log(r_max)), y0, method="DOP853", rtol=1e-13, atol=1e-15
    )
    assert sol.success
    return sol.y[:, -1]


class TestIndependentSolver:
    """The in-house DP5(4) stepper against scipy's DOP853 from the same start."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, -0.25, -0.5])
    def test_final_state(self, n, gamma):
        rng = np.random.default_rng(100 * n + int(-4 * gamma))
        alpha0 = rng.uniform(-2.0, 0.0, size=n)
        alpha0 -= alpha0.max()
        spec = lv.ProblemSpec(
            lv.CoefficientMatrix.from_entries(MATRICES[n]),
            lv.SingularityProfile(gamma),
            alpha0,
        )
        profile = lv.integrate(spec, 1e4, 1e-10, sensitivity=True)
        ours = np.concatenate(
            [profile.values[-1], profile.dvalues[-1], profile.mass[-1], profile.logmass[-1]]
        )
        ref = _dop853_final_state(spec, profile.r_first, profile.r_max)
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-9)
        # sensitivities: centred differences of the oracle in each alpha0_j,
        # from the series at the same fixed start radius
        h = 1e-5
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = h
            ends = [
                _dop853_final_state(
                    lv.ProblemSpec(spec.matrix, spec.singularity, alpha0 + sign * bump),
                    profile.r_first,
                    profile.r_max,
                )
                for sign in (1.0, -1.0)
            ]
            fd = (ends[0] - ends[1]) / (2.0 * h)
            np.testing.assert_allclose(
                profile.sensitivity[:, j], fd, rtol=1e-6, atol=1e-6
            )


def interpolated_ode_residual(profile, s_lo, s_hi, h):
    """Max residual of the interpolated profile in a uniform second difference."""
    mu = profile.spec.singularity.mu
    a_mat = profile.spec.matrix.entries
    worst = 0.0
    s = s_lo
    while s < s_hi:
        u_m, _ = lv.evaluate(profile, math.exp(s - h))
        u_0, _ = lv.evaluate(profile, math.exp(s))
        u_p, _ = lv.evaluate(profile, math.exp(s + h))
        second = (u_p - 2 * u_0 + u_m) / h**2
        resid = second + a_mat @ np.exp(2 * mu * s + u_0)
        worst = max(worst, float(np.max(np.abs(resid))))
        s += (s_hi - s_lo) / 40.0
    return worst


class TestOdeResidual:
    def test_second_difference(self, f3_profile):
        # residual of the dense profile under the log-radius equation
        assert interpolated_ode_residual(f3_profile, -1.0, 4.0, 0.01) < 1e-3

    def test_residual_shrinks_with_h(self, f1_profile):
        r1 = interpolated_ode_residual(f1_profile, -1.0, 3.0, 0.02)
        r2 = interpolated_ode_residual(f1_profile, -1.0, 3.0, 0.01)
        assert r1 / r2 > 2.0  # second-order stencil


class TestFluxIdentity:
    def test_against_carried_quadrature(self, f3_profile):
        # -r U_i'(r) = sum_j a_ij int_0^r t^(2 gamma + 1) e^(U_j) dt
        a_mat = f3_profile.spec.matrix.entries
        for r in np.geomspace(0.1, 9000.0, 10):
            _, du = lv.evaluate(f3_profile, r)
            flux = -r * du
            quad = a_mat @ lv.truncated_sigma(f3_profile, r)
            assert np.max(np.abs(flux - quad)) < 1e-6 * max(1.0, np.max(np.abs(quad)))


class TestScalingCovariance:
    def test_scalar_family(self, matrix1, f1_profile):
        # U_lam(r) = U(lam^(1/(2 mu)) r) + log lam maps solutions to solutions
        lam = math.exp(-1.0)
        spec = lv.ProblemSpec(
            matrix1, lv.SingularityProfile(0.0), np.array([math.log(lam)])
        )
        shifted = lv.integrate(spec, 1e4, 1e-10)
        for r in (0.5, 2.0, 40.0, 900.0):
            u_shift, _ = lv.evaluate(shifted, r)
            u_base, _ = lv.evaluate(f1_profile, math.sqrt(lam) * r)
            assert abs(u_shift[0] - (u_base[0] + math.log(lam))) < 1e-8


class TestEvaluate:
    def test_origin_values(self, f1_profile):
        u, du = lv.evaluate(f1_profile, 0.0)
        assert u[0] == 0.0 and du[0] == 0.0

    def test_known_points(self, f1_profile, f2_profile):
        u, _ = lv.evaluate(f1_profile, 10.0)
        assert u[0] == pytest.approx(-2.0 * math.log(13.5), abs=1e-8)
        u, _ = lv.evaluate(f2_profile, 4.0)
        assert u[0] == pytest.approx(-2.0 * math.log(3.0), abs=1e-8)

    def test_below_first_node_uses_series(self, f1_profile):
        u, _ = lv.evaluate(f1_profile, 1e-8)
        assert u[0] == pytest.approx(-(1e-16) / 4.0, rel=1e-4)

    def test_out_of_range(self, f1_profile):
        with pytest.raises(OutOfRangeError):
            lv.evaluate(f1_profile, 2e4)
        with pytest.raises(OutOfRangeError):
            lv.evaluate(f1_profile, -1.0)
        with pytest.raises(InputError, match="r must be finite"):
            lv.evaluate(f1_profile, math.nan)

