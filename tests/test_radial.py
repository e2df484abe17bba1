import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import liouville as lv
from liouville import radial
from liouville.errors import (
    DomainError,
    ExtractionError,
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
        # past the start radius the K-term series misses F1's alternating
        # tails, with t = r^2 / 8 and k > K: sum 2 (-1)^k t^k / k of U, and
        # sum (-1)^k 4 t^(k+1) times 1 and log r - 1 / (2k + 2) of the mass
        # and logmass; each error is its first omitted term times a factor
        # in [1 - t, 1]
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        k = radial._SERIES_TERMS + 1
        for t in (0.5, 0.25):
            r = math.sqrt(8.0 * t)
            rows = radial._series(spec, r)[0][:, 0]
            mass = 4.0 * t / (1.0 + t)
            first = (-1.0) ** k * 4.0 * t**k
            for got, dropped in (
                (f1_exact(r) - rows[0], 2.0 * (-t) ** k / k),
                (mass - rows[2], first * t),
                (math.log(r) * mass - 2.0 * math.log1p(t) - rows[3],
                 first * t * (math.log(r) - 1.0 / (2 * k + 2))),
            ):
                assert 1.0 - t <= got / dropped <= 1.0

    def test_slope_at_origin_for_half_strength(self, matrix12):
        # 2 mu = 1: dU/dr at r = 0 is -S, S_i = sum_j a_ij e^(alpha0_j)
        spec = lv.ProblemSpec(
            matrix12, lv.SingularityProfile(-0.5), np.array([0.0, -1.0])
        )
        vals, derivs = lv.origin_series(spec, 0.0)
        np.testing.assert_array_equal(vals, spec.alpha0)
        np.testing.assert_array_equal(derivs, -(matrix12.entries @ np.exp(spec.alpha0)))

    def test_derivative_at_positive_radius(self, matrix1, matrix12):
        # dU/dr = sum_k 2 mu k c_k r^(2 mu k - 1) with c_1 = -S / (2 mu)^2; at
        # mu = 1 and r = 1e-200 it is -5e-201, where (dU/ds) / r would
        # underflow to 0
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        _, derivs = lv.origin_series(spec, 1e-200)
        assert math.isclose(derivs[0], -5e-201, rel_tol=1e-15)
        # two terms at r = 1e-6, 2 mu = 1.5: c_2 = -A (e^alpha0 c_1) / 3^2,
        # and the third term is r^3 = 1e-18 of the first
        spec = lv.ProblemSpec(
            matrix12, lv.SingularityProfile(-0.25), np.array([0.0, -1.0])
        )
        e0 = np.exp(spec.alpha0)
        c1 = -(matrix12.entries @ e0) / 1.5**2
        c2 = -(matrix12.entries @ (e0 * c1)) / 3.0**2
        r = 1e-6
        _, derivs = lv.origin_series(spec, r)
        expected = 1.5 * c1 * r**0.5 + 3.0 * c2 * r**2
        np.testing.assert_allclose(derivs, expected, rtol=1e-15, atol=0.0)

    def test_slope_past_the_floats(self, matrix12):
        # gamma = -0.99 at r = 1e-320: r^(2 mu - 1) = r^-0.98 is past the
        # floats, so dU/dr is -inf, as at r = 0 for 2 mu < 1, with no
        # warning; U and the masses are finite. Against the leading terms in
        # x = r^(2 mu), with c_1 = -S / (2 mu)^2 and c_1 x about -1.5e-3:
        # U - alpha0 = c_1 x (1 + O(c_1 x)) and mass = e^alpha0 x / (2 mu)
        # (1 + c_1 x / 2 + O((c_1 x)^2))
        spec = lv.ProblemSpec(matrix12, lv.SingularityProfile(-0.99), np.array([0.3, -0.2]))
        r, b2 = 1e-320, 2.0 * spec.singularity.mu
        x = r**b2
        c1 = -(matrix12.entries @ np.exp(spec.alpha0)) / b2**2
        vals, derivs = lv.origin_series(spec, r)
        np.testing.assert_allclose(vals - spec.alpha0, c1 * x, rtol=1e-2)
        np.testing.assert_array_equal(derivs, -np.inf)
        profile = lv.integrate(spec)
        assert r < profile.r_first
        u, du = lv.evaluate(profile, r)
        np.testing.assert_array_equal(u, vals)
        np.testing.assert_array_equal(du, -np.inf)
        mass = np.exp(spec.alpha0) * x / b2 * (1.0 + c1 * x / 2.0)
        np.testing.assert_allclose(lv.truncated_sigma(profile, r), mass, rtol=1e-5)

    @pytest.mark.parametrize("r", [0.2, 0.1, 0.05, 0.025])
    def test_energy_rows_against_f1(self, matrix1, r):
        # e^U = 1 / (1 + R)^2 with R = r^2 / 8: the mass is 4 R / (1 + R) and
        # the log-weighted mass log(r) mass - 2 log(1 + R), both checked by
        # quad; inside the start radius (0.84) the series gives them to
        # rounding (test_remainder_order checks what it leaves out past it)
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        rows = radial._series(spec, r)[0][:, 0]
        big_r = r * r / 8.0
        mass = 4.0 * big_r / (1.0 + big_r)
        logmass = math.log(r) * mass - 2.0 * math.log1p(big_r)

        def weight(t):
            return t / (1.0 + t * t / 8.0) ** 2

        for exact, integrand in ((mass, weight), (logmass, lambda t: math.log(t) * weight(t))):
            integral = quad(integrand, 0.0, r, epsabs=0.0, epsrel=1e-13)[0]
            assert integral == pytest.approx(exact, rel=1e-13)
        assert rows[2] == pytest.approx(mass, rel=1e-15, abs=0.0)
        assert rows[3] == pytest.approx(logmass, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, "x", -1.0])
    def test_rejects_bad_radius(self, matrix1, r):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        with pytest.raises(InputError, match="^r must"):
            lv.origin_series(spec, r)

    def test_rejects_large_radius(self, matrix1):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        with pytest.raises(DomainError):
            lv.origin_series(spec, 2.0)


def _exact_terms(spec, count):
    """The origin series' c_k and e_k, k = 0..count, in exact rational
    arithmetic on the spec's floats: the recursion of ``_series_terms``
    written out plainly, with no scaling."""
    n, b2 = spec.n, 2 * Fraction(spec.singularity.mu)
    a = [[Fraction(v) for v in row] for row in spec.matrix.entries.tolist()]
    w = [Fraction(math.exp(v)) for v in spec.alpha0.tolist()]
    c, e = [[Fraction(0)] * n], [[Fraction(1)] * n]
    for k in range(1, count + 1):
        c.append([-sum(a[i][j] * w[j] * e[k - 1][j] for j in range(n)) / (b2 * k) ** 2
                  for i in range(n)])
        e.append([sum(l * c[l][j] * e[k - l][j] for l in range(1, k + 1)) / k
                  for j in range(n)])
    return c, e


class TestSeriesOracle:
    """``radial._series`` against closed forms, exact arithmetic and differences."""

    @pytest.mark.parametrize("name, alpha0, kappa", [
        ("F1", 0.0, 1.0 / 8.0), ("F1", 2.0, math.exp(2.0) / 8.0), ("F1", -3.0, math.exp(-3.0) / 8.0),
        ("F2", 0.0, 0.5), ("F3", 0.0, 3.0 / 8.0),
    ])
    @pytest.mark.parametrize("t", [0.5, 0.25, 0.01])
    def test_closed_form_coefficients(self, name, alpha0, kappa, t):
        # U = alpha0 - 2 log(1 + t) with t = kappa x, x = r^(2 mu): c_k =
        # 2 (-1)^k kappa^k / k, and the mass e^alpha0 x / (2 mu) sum_k (-t)^k.
        # Past the start radius too, the rows are the K-term partial sums.
        spec = _oracle_spec(name)
        spec = lv.ProblemSpec(spec.matrix, spec.singularity, spec.alpha0 + alpha0)
        mu = spec.singularity.mu
        x = t / kappa
        r = x ** (1.0 / (2.0 * mu))
        terms = range(1, radial._SERIES_TERMS + 1)
        u = alpha0 + math.fsum(2.0 * (-t) ** k / k for k in terms)
        mass = math.exp(alpha0) * x / (2.0 * mu) * math.fsum((-t) ** k for k in (0, *terms))
        rows = radial._series(spec, r)[0]
        np.testing.assert_allclose(rows[0], u, rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(rows[2], mass, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name, alpha0", [
        ("F1", 0.0), ("F1", 2.0), ("F1", -3.0), ("F2", 0.0), ("F3", 0.0),
    ])
    def test_closed_form_terms(self, name, alpha0):
        # in y = |c_1| x = 2 t the terms are dyadic: k c_k = 2 (-1/2)^k and
        # e_k = (k + 1) (-1/2)^k, the same for every alpha0 and strength
        spec = _oracle_spec(name)
        spec = lv.ProblemSpec(spec.matrix, spec.singularity, spec.alpha0 + alpha0)
        coef = radial._series_terms(spec)[0]
        k = np.arange(radial._SERIES_TERMS + 1.0)
        half = (-0.5) ** k
        np.testing.assert_allclose(coef[0, 1:] / (2.0 * half[1:, None]), 1.0, rtol=1e-14)
        np.testing.assert_allclose(coef[1] / ((k + 1.0) * half)[:, None], 1.0, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("gamma", [0.0, -0.5, -0.9])
    def test_derivative_seed(self, n, gamma):
        # the seed's alpha0-derivative against centred differences of the
        # rows (row 1 times r) at the start radius, held fixed
        spec = _seeded_spec(n, gamma)
        r = math.exp(radial._series_terms(spec)[-1])
        seed = radial._series(spec, r, derivative=True)[1]
        eps = 1e-6
        for j in range(n):
            ends = []
            for sign in (1.0, -1.0):
                bumped = lv.ProblemSpec(spec.matrix, spec.singularity,
                                        spec.alpha0 + sign * eps * np.eye(n)[j])
                rows = radial._series(bumped, r)[0]
                rows[1] *= r
                ends.append(rows.reshape(-1))
            fd = (ends[0] - ends[1]) / (2.0 * eps)
            np.testing.assert_allclose(seed[:, j], fd, rtol=1e-8, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, -0.5, -0.9])
    @pytest.mark.parametrize("alpha0", ["zero", "seeded", "large"])
    def test_derivative_terms_are_homogeneous(self, n, gamma, alpha0):
        # with the scale |c_1| held, c_k and e_k are homogeneous of degree k
        # in e^alpha0, so the alpha0-derivative columns of each sum to k
        # times it (Euler's identity); the values and the start radius are
        # the same with or without the derivative
        spec = _seeded_spec(n, gamma)
        if alpha0 != "seeded":
            start = np.zeros(n) if alpha0 == "zero" else np.array([50.0, 49.0, 48.0][:n])
            spec = lv.ProblemSpec(spec.matrix, spec.singularity, start)
        coef, dcoef, log_scale, log_start = radial._series_terms(spec, derivative=True)
        plain = radial._series_terms(spec)
        np.testing.assert_array_equal(plain[0], coef)
        assert plain[1] is None and plain[2:] == (log_scale, log_start)
        k = np.arange(radial._SERIES_TERMS + 1.0)[:, None]
        np.testing.assert_allclose(dcoef.sum(axis=-1), k * coef, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", [
        "F1", "F2", "F3", *(f"n{n}-g{g}" for n in (2, 3) for g in (0.0, -0.5, -0.9)),
        "alpha0-50", "alpha0-50-n2",
    ])
    def test_omitted_terms_at_the_start_radius(self, name):
        # the first omitted terms, c_(K+1) x^(K+1) against c_1 x and
        # e_(K+1) x^(K+1) against e_0 = 1, in exact arithmetic, are below
        # 2^-52 where the solve starts; the last kept ones reach it
        if name.startswith("alpha0"):
            n = 2 if name.endswith("n2") else 1
            spec = lv.ProblemSpec(lv.CoefficientMatrix.from_entries(MATRICES[n]),
                                  lv.SingularityProfile(0.0), np.array([50.0, 49.0][:n]))
        elif name.startswith("F"):
            spec = _oracle_spec(name)
        else:
            n, gamma = name[1:].split("-g")
            spec = _seeded_spec(int(n), float(gamma))
        log_start = radial._series_terms(spec)[-1]
        if name.startswith("alpha0"):
            assert log_start < -24.0
        x = Fraction(math.exp(2.0 * spec.singularity.mu * log_start))
        count = radial._SERIES_TERMS
        c, e = _exact_terms(spec, count + 1)
        first = max(abs(v) for v in c[1]) * x
        eps = Fraction(2) ** -52

        def sizes(k):
            return (max(abs(v) for v in c[k]) * x**k / first, max(abs(v) for v in e[k]) * x**k)

        assert all(size < eps for size in sizes(count + 1))
        assert max(sizes(count)) > eps / 2


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
        # an out-of-range input, like an underflowing alpha0 (below)
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([60.0]))
        with pytest.raises(InputError, match=r"alpha0 = \[60.0\] exceeds the overflow guard 50.0"):
            lv.integrate(spec)

    def test_underflowing_alpha0_rejected(self, matrix1):
        # e^-750 is 0.0: the weights vanish and there is no system to solve
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([-750.0]))
        with pytest.raises(InputError, match="alpha0"):
            lv.integrate(spec)

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_last_node_not_finite_rejected(self, f1_profile, last):
        # a last node past the float radii is fine (r_max reads inf); one
        # that is not a float at all is not
        grid = np.append(f1_profile.grid[:-1], last)
        with pytest.raises(DomainError, match="not a finite float"):
            lv.RadialProfile(f1_profile.spec, grid, f1_profile.values, f1_profile.dvalues,
                             f1_profile.mass, f1_profile.logmass)

    def test_grid_contract(self, f1_profile):
        # F1 is solved at its own strength, from the series' start radius
        assert np.all(np.diff(f1_profile.grid) > 0)
        assert f1_profile.grid[0] == radial._series_terms(f1_profile.spec)[-1]
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
        monkeypatch.setattr(radial, "MAX_STEPS", 20)
        with pytest.raises(IntegrationError, match="20 steps") as info:
            lv.integrate(spec, 1e4, 1e-10)
        assert 0.0 < info.value.last_radius < 1e4

    def test_step_size_underflow(self, f1_profile, monkeypatch):
        # a first step below the floor fails at once, at the start radius
        monkeypatch.setattr(radial, "_FIRST_STEP", 1e-30)
        with pytest.raises(IntegrationError, match="step size underflow") as info:
            lv.integrate(f1_profile.spec, 1e4, 1e-10)
        assert info.value.last_radius == pytest.approx(f1_profile.r_first, rel=1e-12)

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
        for key in ("grid", "values", "dvalues", "mass", "logmass"):
            np.testing.assert_array_equal(getattr(carried, key), getattr(plain, key))


def _dop853_final_state(spec, r0, r_max):
    """(U, dU/ds, mass, logmass) at r_max from scipy's DOP853 at rtol 1e-13,
    started from the origin series at r0."""
    n, mu, a_mat = spec.n, spec.singularity.mu, spec.matrix.entries
    y0 = radial._series(spec, r0)[0]
    y0[1] *= r0
    y0 = y0.reshape(-1)

    def rhs(s, y):
        w = np.exp(2.0 * mu * s + y[:n])
        return np.concatenate([y[n : 2 * n], -(a_mat @ w), w, s * w])

    sol = solve_ivp(
        rhs, (math.log(r0), math.log(r_max)), y0, method="DOP853", rtol=1e-13, atol=1e-15
    )
    assert sol.success
    return sol.y[:, -1]


def _seeded_spec(n, gamma):
    """A spec with seeded random alpha0 <= 0 whose largest entry is 0."""
    rng = np.random.default_rng(100 * n + int(-4 * gamma))
    alpha0 = rng.uniform(-2.0, 0.0, size=n)
    alpha0 -= alpha0.max()
    return lv.ProblemSpec(
        lv.CoefficientMatrix.from_entries(MATRICES[n]), lv.SingularityProfile(gamma), alpha0
    )


class TestIndependentSolver:
    """The in-house DOP853 stepper against scipy's DOP853 from the same start.

    scipy steps the system at the spec's own strength, so for gamma != 0 it
    also checks the map from the mu = 1 solve.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, -0.25, -0.5, -0.9])
    def test_final_state(self, n, gamma):
        spec = _seeded_spec(n, gamma)
        alpha0 = spec.alpha0
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
        # the tail closure on scipy's final state, as a two-node profile
        # whose first node is ours (extract_summary reads the last only)
        first = [profile.values[0], profile.dvalues[0], profile.mass[0], profile.logmass[0]]
        nodes = np.stack([np.concatenate(first), ref]).reshape(2, 4, n)
        scipy_profile = lv.RadialProfile(spec, profile.grid[[0, -1]], *nodes.swapaxes(0, 1))
        if gamma == -0.9:
            # r = 1e4 is too near for the tail model: sigma's estimated
            # error is 1.6e-4 to 5.3e-4, for either solver
            for each in (profile, scipy_profile):
                with pytest.raises(ExtractionError, match="tail_error"):
                    lv.extract_summary(each)
            return
        summary, scipy_summary = lv.extract_summary(profile), lv.extract_summary(scipy_profile)
        for key in ("sigma", "m", "D"):
            got, want = getattr(summary, key), getattr(scipy_summary, key)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), key


# F1-F3 and the nine seeded specs of TestIndependentSolver, as (n, gamma,
# alpha0); alpha0 None means the seeded one
ORACLE_SPECS = {
    "F1": (1, 0.0, [0.0]),
    "F2": (1, -0.5, [0.0]),
    "F3": (2, 0.0, [0.0, 0.0]),
    **{f"n{n}-g{gamma}": (n, gamma, None) for n in (1, 2, 3) for gamma in (0.0, -0.25, -0.5)},
}


def _oracle_spec(name):
    n, gamma, alpha0 = ORACLE_SPECS[name]
    if alpha0 is None:
        return _seeded_spec(n, gamma)
    matrix = lv.CoefficientMatrix.from_entries(MATRICES[n])
    return lv.ProblemSpec(matrix, lv.SingularityProfile(gamma), np.array(alpha0))


class TestRowFormOracle:
    """DOP853 against the DP5(4) weight-form loop it replaced.

    (The class keeps the name it had when its oracle was the row-form DP5(4)
    loop, so that its test IDs carry on.)

    The two methods take different steps, so they agree to the tolerance,
    not to rounding: sigma, D, the final state and the sensitivities within
    10 tol. At tol 1e-10 DOP853 needs at most a third of the nodes; at
    tol 1e-6 the oracle runs near its step cap of 1, which alone asks for
    23 steps from r = 1e-6 to 1e4, so there DOP853 needs at most two thirds.
    """

    @pytest.mark.parametrize("sensitivity", [False, True])
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_same_solution(self, dp5_integrate, name, tol, sensitivity):
        spec = _oracle_spec(name)
        oracle = dp5_integrate(spec, 1e4, tol, sensitivity)
        profile = lv.integrate(spec, 1e4, tol, sensitivity=sensitivity)
        share = 1.0 / 3.0 if tol == 1e-10 else 2.0 / 3.0
        assert len(profile.grid) - 1 <= share * (len(oracle.grid) - 1)
        ours, theirs = lv.extract_summary(profile), lv.extract_summary(oracle)
        pairs = [
            (ours.sigma, theirs.sigma),
            (ours.D, theirs.D),
            *((getattr(profile, key)[-1], getattr(oracle, key)[-1])
              for key in ("values", "dvalues", "mass", "logmass")),
        ]
        if sensitivity:
            pairs.append((profile.sensitivity, oracle.sensitivity))
        else:
            assert profile.sensitivity is None
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=10 * tol, atol=10 * tol)


class TestSensitivityReplay:
    """The carried sensitivities against a replay of the profile's own grid.

    ``radial._Step`` steps the solution from the series at alpha0 +- eps e_j
    over exactly the profile's nodes; the centred difference of the two end
    states is then the derivative of the same discrete map, so it matches
    to rounding over eps (about 1e-8 measured), not to the solver
    tolerance. A stage or step misindexed by one fails here. At gamma = 0
    the solve is at the spec's own strength, so no map intervenes.
    """

    EPS = 1e-6

    @staticmethod
    def _replay(spec, grid):
        r0 = math.exp(grid[0])
        seed = radial._series(spec, r0)[0]
        seed[1] *= r0
        step = radial._Step(spec, grid[0], seed)
        for s, s_next in zip(grid[:-1], grid[1:]):
            step.take(s, s_next - s)
            step.accept()
        return step.state.reshape(-1).copy()

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("name", ["F1", "F3", "n2-g0.0", "n3-g0.0"])
    def test_centred_difference(self, name, tol):
        spec = _oracle_spec(name)
        profile = lv.integrate(spec, 1e4, tol, sensitivity=True)
        for j in range(spec.n):
            ends = [
                self._replay(
                    lv.ProblemSpec(spec.matrix, spec.singularity,
                                   spec.alpha0 + sign * self.EPS * np.eye(spec.n)[j]),
                    profile.grid,
                )
                for sign in (1.0, -1.0)
            ]
            fd = (ends[0] - ends[1]) / (2.0 * self.EPS)
            column = profile.sensitivity[:, j]
            assert np.max(np.abs(column - fd)) <= 1e-7 * np.max(np.abs(column))


# accepted and rejected steps of the seeded specs, per n and gamma, at
# (tol, r_max) = (1e-6, 1e4), (1e-6, 1e8), (1e-8, 1e4), ..., (1e-10, 1e8),
# from the series' start radius and the first step of the module docstring
# (1,621 attempted in all)
STEP_COUNTS = {
    (1, 0.0): [(13, 0), (16, 0), (22, 2), (26, 2), (36, 0), (42, 0)],
    (1, -0.25): [(11, 0), (15, 0), (19, 0), (25, 0), (33, 0), (41, 0)],
    (1, -0.5): [(10, 0), (14, 0), (17, 0), (23, 0), (30, 0), (38, 0)],
    (1, -0.9): [(7, 0), (8, 0), (12, 0), (14, 0), (21, 0), (24, 0)],
    (2, 0.0): [(13, 0), (16, 0), (22, 0), (26, 0), (39, 1), (45, 1)],
    (2, -0.25): [(12, 0), (16, 0), (21, 0), (26, 0), (36, 0), (44, 0)],
    (2, -0.5): [(10, 0), (14, 0), (17, 0), (23, 0), (30, 0), (39, 0)],
    (2, -0.9): [(7, 0), (8, 0), (13, 0), (14, 0), (22, 0), (25, 0)],
    (3, 0.0): [(13, 0), (17, 0), (22, 0), (27, 0), (38, 0), (45, 0)],
    (3, -0.25): [(14, 0), (17, 0), (23, 0), (29, 0), (40, 0), (49, 0)],
    (3, -0.5): [(10, 0), (14, 0), (18, 0), (23, 0), (31, 0), (39, 0)],
    (3, -0.9): [(7, 0), (9, 0), (13, 0), (15, 0), (22, 0), (25, 0)],
}


class TestStepOracle:
    """``radial._Step`` against the step it replaced (conftest's
    ``four_coefficient_step``), whose stage dot gave U_j and added the
    exponent offset 2 mu (s + c_j h) after it. The two sum in a different
    order, so they agree to rounding, not bitwise."""

    @pytest.mark.parametrize(
        "name", ["F1", "F2", "F3", *(f"n{n}-g{g}" for n in (2, 3) for g in (0.0, -0.5, -0.9))]
    )
    def test_one_step_from_every_node(self, four_coefficient_step, name):
        # the profile's own spec: gamma != 0 steps at mu != 1, as _state_at does
        if name.startswith("F"):
            spec = _oracle_spec(name)
        else:
            n, gamma = name[1:].split("-g")
            spec = _seeded_spec(int(n), float(gamma))
        profile = lv.integrate(spec, 1e4, 1e-10)
        for k, (s, s_next) in enumerate(zip(profile.grid[:-1], profile.grid[1:])):
            state = np.array([profile.values[k], profile.dvalues[k], profile.mass[k],
                              profile.logmass[k]])
            ours = radial._Step(profile.spec, s, state)
            theirs = four_coefficient_step(profile.spec, s, state)
            ours.take(s, s_next - s)
            theirs.take(s, s_next - s)
            got, want = ours.new.reshape(3, 4, -1), theirs.new.reshape(3, 4, -1)
            assert np.all(np.abs(got[0] - want[0]) <= 1e-14 * np.maximum(1.0, np.abs(want[0])))
            assert np.all(np.abs(got[1:] - want[1:]) <= 1e-14 * np.maximum(1.0, np.abs(state)))

    @pytest.mark.parametrize("n, gamma", list(STEP_COUNTS))
    def test_same_step_counts(self, n, gamma):
        # the controller sees the error rows to rounding (the test above),
        # so the counts pin the start radius, the first step and the control
        spec = _seeded_spec(n, gamma)
        counts = []
        for tol in (1e-6, 1e-8, 1e-10):
            for r_max in (1e4, 1e8):
                stats = lv.integrate(spec, r_max, tol).stats
                counts.append((stats["accepted"], stats["rejected"]))
        assert counts == STEP_COUNTS[n, gamma]


class TestSensitivityPass:
    @pytest.mark.parametrize("n", [2, 3])
    def test_peak_memory(self, monkeypatch, n):
        # the longest solves, about 110 accepted steps: the pass's transient
        # memory stays below the (K, 30, n, 2n) float buffer it once held
        spec = lv.ProblemSpec(lv.CoefficientMatrix.from_entries(MATRICES[n]),
                              lv.SingularityProfile(-0.25), np.linspace(0.0, -1.0, n))
        carried, calls = radial._carried_sensitivity, []
        monkeypatch.setattr(radial, "_carried_sensitivity",
                            lambda *args: calls.append(args) or carried(*args))
        lv.integrate(spec, 1e300, 1e-13, sensitivity=True)
        (args,) = calls
        k = len(args[3])
        assert k >= 100
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            carried(*args)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 8 * k * 30 * n * 2 * n


class TestTableau:
    def test_literals_are_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        np.testing.assert_array_equal(radial._A[:12, :12], ref.A[:12, :12])
        np.testing.assert_array_equal(radial._A[12, :12], ref.B)
        np.testing.assert_array_equal(radial._A[:, 12], 0.0)
        np.testing.assert_array_equal(radial._C, [*ref.C[:12], 1.0])
        np.testing.assert_array_equal(radial._E3, ref.E3)
        np.testing.assert_array_equal(radial._E5, ref.E5)

    def test_order_conditions(self):
        assert abs(radial._A[12].sum() - 1.0) <= 1e-15
        assert np.max(np.abs(radial._A.sum(axis=1) - radial._C)) <= 1e-15
        assert abs(radial._E3.sum()) <= 1e-15 and abs(radial._E5.sum()) <= 1e-15


class TestStats:
    @pytest.mark.parametrize("fixture", ["f1_profile", "f2_profile", "f3_profile"])
    def test_counters(self, request, fixture):
        profile = request.getfixturevalue(fixture)
        stats = profile.stats
        steps = np.diff(profile.grid)
        assert stats["accepted"] == len(profile.grid) - 1
        assert stats["evaluations"] == 1 + 12 * (stats["accepted"] + stats["rejected"])
        assert stats["h_min"] == steps.min() and stats["h_max"] == steps.max()
        assert stats["s_start"] == profile.grid[0]
        with pytest.raises(TypeError):
            stats["accepted"] = 0

    def test_one_profile_per_solve(self, monkeypatch, f3_profile):
        # the solve maps its arrays and builds the caller's profile once,
        # stats included; no unit-strength or intermediate profile
        made = []
        post_init = lv.RadialProfile.__post_init__
        monkeypatch.setattr(lv.RadialProfile, "__post_init__",
                            lambda self: made.append(self) or post_init(self))
        spec = lv.ProblemSpec(f3_profile.spec.matrix, lv.SingularityProfile(-0.5),
                              f3_profile.spec.alpha0)
        profile = lv.integrate(spec, 1e4, 1e-8, sensitivity=True)
        assert made == [profile] and profile.stats["accepted"] > 0

    def test_rejected_steps_counted(self, matrix1):
        # at tol 1e-8 the controller overshoots once leaving the core
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
        profile = lv.integrate(spec, 1e4, 1e-8)
        stats = profile.stats
        assert stats["rejected"] > 0
        assert stats["accepted"] == len(profile.grid) - 1
        assert stats["evaluations"] == 1 + 12 * (stats["accepted"] + stats["rejected"])

    def test_start_radius_at_small_mu(self, matrix1):
        # mu = 0.05: the mu = 1 solve's start radius maps to the start radius
        # of the spec's own series (the series' terms map with the strength),
        # near r = e^-63
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(-0.95), np.array([0.0]))
        profile = lv.integrate(spec, 1e4, 1e-10)
        s_start = profile.stats["s_start"]
        assert s_start == profile.grid[0]
        assert s_start == pytest.approx(radial._series_terms(spec)[-1], rel=1e-14)
        assert s_start < -60.0

    @pytest.mark.parametrize("name", ["F1", "F2", "F3"])
    @pytest.mark.parametrize("r_max", [1e4, 1e8])
    def test_sensitivity_keeps_the_counters(self, name, r_max):
        # the solution is computed by the same calls with or without the
        # sensitivities, which never steer the step size
        spec = _oracle_spec(name)
        plain = lv.integrate(spec, r_max, 1e-10).stats
        carried = lv.integrate(spec, r_max, 1e-10, sensitivity=True).stats
        assert dict(carried) == dict(plain)

    @pytest.mark.parametrize("name", ["F1", "F2", "F3"])
    @pytest.mark.parametrize("r_max", [1e4, 1e8])
    def test_step_budget(self, name, r_max):
        # these take 30-45 accepted steps; the bound was set when they took
        # 67-85, and stays
        assert lv.integrate(_oracle_spec(name), r_max, 1e-10).stats["accepted"] <= 90

    def test_transformed_profile_has_none(self, f1_profile):
        assert dict(lv.eta_rescale(f1_profile, 2.0).stats) == {}


class TestNearMinusOne:
    """gamma near -1, where a direct solve at mu would start below the doubles.

    The scalar system has sigma = 4 mu, so m - 2 mu = 2 mu, and at r_max
    1e300 the tail model's estimated error stays far below its bound.
    """

    @pytest.mark.parametrize("gamma", [-0.99, -0.995, -0.999])
    def test_scalar_sigma(self, matrix1, gamma):
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(gamma), np.array([0.0]))
        profile = lv.integrate(spec, 1e300, 1e-10)
        summary = lv.extract_summary(profile)
        assert summary.sigma[0] == pytest.approx(4.0 * spec.singularity.mu, rel=1e-9)
        assert profile.r_max == pytest.approx(1e300, rel=1e-10)

    def test_origin_below_an_underflowed_first_node(self, matrix1):
        # at mu = 0.001 the first node sits near s = -7083, so r_first is 0.0
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(-0.999), np.array([0.0]))
        profile = lv.integrate(spec, 1e300, 1e-10)
        assert profile.r_first == 0.0 and profile.stats["s_start"] < -1000.0
        assert lv.evaluate(profile, 0.0)[0][0] == 0.0
        assert lv.truncated_sigma(profile, 0.0)[0] == 0.0
        # at r = 1e-320, one step from a node: U' = (dU/ds) / r is past the
        # floats, -inf with no warning, while U and the mass are finite
        u, du = lv.evaluate(profile, 1e-320)
        assert math.isfinite(u[0]) and du[0] == -math.inf
        assert 0.0 < lv.truncated_sigma(profile, 1e-320)[0] < 1.0
        # the closed form U = -2 log(1 + r^(2 mu) / (8 mu^2)), at r = 1
        u, _ = lv.evaluate(profile, 1.0)
        exact = -2.0 * math.log1p(1.0 / (8.0 * spec.singularity.mu**2))
        assert u[0] == pytest.approx(exact, abs=1e-9)


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

    @pytest.mark.parametrize(
        "fixture, exact, mass",
        [
            ("f1_profile", f1_exact, lambda r: 4.0 * r**2 / (8.0 + r**2)),
            ("f2_profile", f2_exact, lambda r: 2.0 * r / (2.0 + r)),
            ("f3_profile", f3_exact, lambda r: 4.0 * r**2 / (8.0 + 3.0 * r**2)),
        ],
    )
    def test_one_step_from_the_node_below(self, request, fixture, exact, mass):
        profile = request.getfixturevalue(fixture)
        grid = profile.grid
        for s in (grid[:-1] + grid[1:]) / 2.0:
            u, _ = lv.evaluate(profile, math.exp(s))
            assert np.max(np.abs(u - exact(math.exp(s)))) < 1e-9
        # at a node (where log r gives the node back) the node's own state
        nodes = [k for k, s in enumerate(grid) if math.log(math.exp(s)) == s]
        assert len(nodes) > len(grid) // 2
        for k in nodes:
            r = math.exp(grid[k])
            u, du = lv.evaluate(profile, r)
            np.testing.assert_array_equal(u, profile.values[k])
            np.testing.assert_array_equal(du, profile.dvalues[k] / r)
            np.testing.assert_array_equal(lv.truncated_sigma(profile, r), profile.mass[k])
        for r in (1.0, 10.0, 100.0):
            assert np.max(np.abs(lv.truncated_sigma(profile, r) - mass(r))) < 1e-9

    def test_out_of_range(self, f1_profile):
        with pytest.raises(OutOfRangeError):
            lv.evaluate(f1_profile, 2e4)
        with pytest.raises(OutOfRangeError):
            lv.evaluate(f1_profile, -1.0)
        with pytest.raises(InputError, match="r must be finite"):
            lv.evaluate(f1_profile, math.nan)

