import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville as lv
from liouville.errors import (
    InputError,
    NoRealRootError,
)

PI = math.pi


class TestValidateStructure:
    def test_h1_h2_pass(self, matrix12):
        report = lv.validate_structure([[1, 2], [2, 1]])
        assert report.h1_ok and report.h2_ok
        expected_inverse = np.array([[-1 / 3, 2 / 3], [2 / 3, -1 / 3]])
        np.testing.assert_allclose(matrix12.inverse_entries, expected_inverse, atol=1e-14)

    def test_scalar_h2_fails(self):
        report = lv.validate_structure([[1.0]])
        assert report.h1_ok and not report.h2_ok
        assert report.clauses["inverse diagonal nonpositive"] is False

    def test_weak_coupling_h2_fails(self):
        # inverse diagonal 4/3 > 0
        report = lv.validate_structure([[1, 0.5], [0.5, 1]])
        assert report.h1_ok and not report.h2_ok

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            lv.validate_structure([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(InputError):
            lv.validate_structure([[np.nan]])
        with pytest.raises(InputError, match="matrix"):
            lv.CoefficientMatrix.from_entries([[1.0], [1.0, 2.0]])

    def test_h1_failures(self):
        assert not lv.validate_structure([[1, 2], [3, 1]]).h1_ok  # asymmetric
        assert not lv.validate_structure([[1, -1], [-1, 1]]).h1_ok  # negative
        assert not lv.validate_structure([[1, 0], [0, 1]]).h1_ok  # reducible
        assert not lv.validate_structure([[1, 1], [1, 1]]).h1_ok  # singular

    def test_report_hashes_like_it_compares(self):
        report = lv.CoefficientMatrix([[1, 2], [2, 1]]).report
        same = lv.validate_structure([[1.0, 2.0], [2.0, 1.0]])
        other = lv.validate_structure([[1, 0.5], [0.5, 1]])
        assert report == same and hash(report) == hash(same)
        assert report != other
        assert len({report, same, other}) == 2

    def test_construction_requires_h1(self):
        with pytest.raises(InputError):
            lv.CoefficientMatrix.from_entries([[1, 0], [0, 1]])
        # H2 failure is only recorded
        m = lv.CoefficientMatrix.from_entries([[1.0]])
        assert not m.h2_ok


class TestSingularityProfile:
    def test_mu(self):
        assert lv.SingularityProfile(-0.5).mu == 0.5
        assert lv.SingularityProfile(0.0).is_regular

    @pytest.mark.parametrize("gamma", [-1.0, 0.5, -2.0, float("nan")])
    def test_range(self, gamma):
        with pytest.raises(InputError):
            lv.SingularityProfile(gamma)


class TestCriticalValues:
    def test_no_sources(self):
        np.testing.assert_allclose(
            lv.critical_values([], 2), [8 * PI, 16 * PI], rtol=1e-15
        )

    def test_one_half_source(self):
        vals = lv.critical_values([lv.SingularityProfile(-0.5)], 1)
        np.testing.assert_allclose(vals, [4 * PI, 8 * PI, 12 * PI], rtol=1e-15)

    def test_duplicate_strengths_dedup(self):
        vals = lv.critical_values([lv.SingularityProfile(-0.5)] * 2, 0)
        np.testing.assert_allclose(vals, [4 * PI, 8 * PI], rtol=1e-15)

    def test_shift_closure_and_monotone(self):
        strengths = [lv.SingularityProfile(g) for g in (-0.5, -0.25)]
        vals = lv.critical_values(strengths, 3)
        assert np.all(np.diff(vals) > 0)
        # shifting by 8 pi lands in the enumeration with one more level
        extended = lv.critical_values(strengths, 4)
        for v in vals:
            assert np.min(np.abs(extended - (v + 8 * PI))) < 1e-9

    @pytest.mark.parametrize("strengths", [[0.5], 0.5], ids=["list", "float"])
    def test_rejects_strengths_that_are_not_profiles(self, strengths):
        # were an AttributeError on float.mu and a TypeError on iteration
        with pytest.raises(InputError, match="strengths must be a list of SingularityProfiles"):
            lv.critical_values(strengths, 2)

    @pytest.mark.parametrize("m_max", [2.7, math.nan, -1, True, "2"])
    def test_rejects_bad_m_max(self, m_max):
        with pytest.raises(InputError, match="m_max"):
            lv.critical_values([], m_max)


class TestLambdaAndQ:
    def test_direct_value(self, matrix12):
        assert lv.lambda_L([2 * PI, 2 * PI], matrix12, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_vanishes_at_q(self, matrix12):
        q = lv.q_point(matrix12, 1.0)
        assert abs(lv.lambda_L(q, matrix12, 1.0)) < 1e-12

    def test_scalar_zero(self, matrix1):
        assert lv.lambda_L([8 * PI], matrix1, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_q_values(self, matrix12, matrix1):
        np.testing.assert_allclose(
            lv.q_point(matrix12, 1.0), [8 * PI / 3, 8 * PI / 3], rtol=1e-14
        )
        np.testing.assert_allclose(lv.q_point(matrix1, 1.0), [8 * PI], rtol=1e-14)
        # linear in the level
        np.testing.assert_allclose(
            lv.q_point(matrix12, 0.5), [4 * PI / 3, 4 * PI / 3], rtol=1e-14
        )

    def test_q_residual_contract(self, matrix12):
        q = lv.q_point(matrix12, 2.0)
        resid = matrix12.entries @ q - 8 * PI * 2.0
        assert np.max(np.abs(resid)) < 1e-10

    def test_sign_change_along_ray(self, matrix12):
        q = lv.q_point(matrix12, 1.0)
        for t in (0.25, 0.5, 0.99):
            assert lv.lambda_L(t * q, matrix12, 1.0) > 0
        for t in (1.01, 1.5, 1.9):
            assert lv.lambda_L(t * q, matrix12, 1.0) < 0

    @pytest.mark.parametrize("n_L", [math.nan, math.inf, 0.0, -1.0, "1"])
    def test_rejects_bad_level(self, matrix12, n_L):
        rho = [2 * PI, 2 * PI]
        for call in (
            lambda: lv.q_point(matrix12, n_L),
            lambda: lv.frak_m(rho, matrix12, n_L),
            lambda: lv.lambda_L(rho, matrix12, n_L),
        ):
            with pytest.raises(InputError, match="n_L"):
                call()


class TestFrakM:
    def test_at_q_all_four(self, matrix12):
        fm = lv.frak_m(lv.q_point(matrix12, 1.0), matrix12, 1.0)
        np.testing.assert_allclose(fm.values, [4.0, 4.0], rtol=1e-13)
        assert fm.minimizers == frozenset({0, 1})

    def test_direct(self, matrix12):
        fm = lv.frak_m([2 * PI, 4 * PI], matrix12, 1.0)
        np.testing.assert_allclose(fm.values, [5.0, 4.0], rtol=1e-13)
        assert fm.minimum == pytest.approx(4.0)
        assert fm.minimizers == frozenset({1})

    def test_scalar(self, matrix1):
        fm = lv.frak_m([6 * PI], matrix1, 1.0)
        assert fm.values[0] == pytest.approx(3.0, rel=1e-14)

    @given(c=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, c):
        matrix = lv.CoefficientMatrix.from_entries([[1.0, 2.0], [2.0, 1.0]])
        rho = np.array([2 * PI, 5 * PI])
        base = lv.frak_m(rho, matrix, 1.0).values
        scaled = lv.frak_m(c * rho, matrix, 1.0).values
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)


class TestClassifyRegion:
    def test_below_first(self, matrix12):
        out = lv.classify_region([2 * PI, 2 * PI], matrix12, [8 * PI, 16 * PI])
        assert out.level == 0 and not out.on_boundary

    def test_boundary_at_q(self, matrix12):
        q = lv.q_point(matrix12, 1.0)
        out = lv.classify_region(q, matrix12, [8 * PI, 16 * PI])
        assert out.on_boundary and out.boundary_index == 0

    def test_between_first_and_second(self, matrix1):
        out = lv.classify_region([12 * PI], matrix1, [8 * PI, 16 * PI])
        assert out.level == 1 and not out.on_boundary

    def test_zero_rho_rejected(self, matrix1):
        with pytest.raises(InputError, match=r"rho = \[0.0\] has no region"):
            lv.classify_region([0.0], matrix1, [8 * PI])

    def test_input_validation(self, matrix1):
        with pytest.raises(InputError):
            lv.classify_region([PI], matrix1, [])
        with pytest.raises(InputError):
            lv.classify_region([PI], matrix1, [16 * PI, 8 * PI])

    def test_rejects_critical_values_not_1d(self, matrix12):
        # was numpy's "truth value ... is ambiguous" ValueError
        with pytest.raises(InputError, match=r"critical values must be 1-D, got shape \(2, 2\)"):
            lv.classify_region([10, 10], matrix12, [[25, 50], [75, 100]])


class TestHeightQuadratic:
    def test_trivial_exact(self):
        assert lv.solve_height_quadratic(lv.HeightQuadratic(0.0, 0.0, 0.0)) == 1.0

    def test_direct_values(self):
        lam = lv.solve_height_quadratic(lv.HeightQuadratic(0.1, 0.0, 0.0))
        assert lam == pytest.approx(-0.05 + math.sqrt(1.0025), rel=1e-15)
        lam = lv.solve_height_quadratic(lv.HeightQuadratic(0.0, 0.01, 0.0))
        assert lam == pytest.approx(math.sqrt(0.99), rel=1e-15)

    def test_solves_equation(self):
        q = lv.HeightQuadratic(0.07, -0.03, 0.002)
        lam = lv.solve_height_quadratic(q)
        assert abs(lam**2 + q.B * lam + q.C - (1.0 + q.E)) < 1e-12

    def test_rejects_non_finite_coefficient(self):
        # solve_height_quadratic returned nan
        with pytest.raises(InputError, match="B must be finite"):
            lv.solve_height_quadratic(lv.HeightQuadratic(math.nan, 0.0, 0.0))

    def test_rejects_non_numeric_coefficient(self):
        # was a TypeError
        with pytest.raises(InputError, match="B must be numeric"):
            lv.HeightQuadratic("x", 0.0, 0.0)

    def test_negative_discriminant(self):
        with pytest.raises(NoRealRootError):
            lv.solve_height_quadratic(lv.HeightQuadratic(0.0, 3.0, 0.0))

    @given(
        b=st.floats(-0.1, 0.1),
        c=st.floats(-0.1, 0.1),
        e=st.floats(-0.1, 0.1),
    )
    @settings(max_examples=200, deadline=None)
    def test_near_one_bound(self, b, c, e):
        lam = lv.solve_height_quadratic(lv.HeightQuadratic(b, c, e))
        assert abs(lam - 1.0) <= 2.0 * (abs(b) + abs(c) + abs(e)) + 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda m: lv.lambda_L([1.0, 2.0, 3.0], m, 1.0),
        lambda m: lv.frak_m([1.0], m, 1.0),
        lambda m: lv.classify_region([1.0, 2.0, 3.0], m, [8 * PI]),
    ],
    ids=["lambda_L", "frak_m", "classify_region"],
)
def test_rho_of_the_wrong_length_rejected(matrix12, call):
    # named as rho, not a bare matmul ValueError
    with pytest.raises(InputError, match=r"^rho must have shape \(2,\)"):
        call(matrix12)


@pytest.mark.parametrize(
    "call",
    [
        lambda m, rho: lv.lambda_L(rho, m, 1.0),
        lambda m, rho: lv.classify_region(rho, m, [8 * PI, 16 * PI]),
    ],
    ids=["lambda_L", "classify_region"],
)
def test_rho_whose_form_overflows_rejected(matrix12, call):
    # rho.A.rho = 6e400 is not a float: no -inf gap, no boundary by inf <= inf
    with pytest.raises(InputError, match="rho is out of range: its quadratic form is inf"):
        call(matrix12, [1e200, 1e200])
    call(matrix12, [1e153, 1e153])  # a form of 6e306 is a float


def test_replace_with_a_singular_matrix_is_rejected(matrix12):
    # construction checks run however the matrix is built
    with pytest.raises(InputError, match="invertible"):
        dataclasses.replace(matrix12, entries=[[1, 1], [1, 1]])
