import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville as lv
from liouville import blowup
from liouville.errors import (
    DomainError,
    GeometryError,
    InputError,
    NonConvergenceError,
    WrongRegimeError,
)

TWO_PI = 2.0 * math.pi


def make_config(**overrides):
    base = dict(
        points=[[0.5, 0.5]],
        strengths=(lv.SingularityProfile(0.0),),
        matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
        rho=[8.0 * math.pi],
        h_fields=(lv.ConstantField(1.0),),
        curvature=[0.0],
        D=[math.log(64.0)],
        alpha=[0.0],
    )
    base.update(overrides)
    return lv.BlowupConfiguration(**base)


class TestConfiguration:
    def test_level_is_strength_sum(self, singular_point_config):
        assert singular_point_config.n_L == 0.5
        assert make_config().n_L == 1.0

    def test_regular_set(self, singular_point_config):
        assert make_config().regular_set == (0,)
        assert singular_point_config.regular_set == ()

    def test_validation(self):
        with pytest.raises(InputError):
            make_config(curvature=[0.0, 0.0])
        with pytest.raises(InputError):
            make_config(h_fields=())
        with pytest.raises(InputError):
            make_config(rho=[1.0, 2.0])
        with pytest.raises(InputError, match="D must"):
            make_config(D=[math.nan])
        with pytest.raises(InputError, match="points"):
            make_config(points=[[0.5, math.nan]])


class TestFieldDerivatives:
    @pytest.mark.parametrize(
        "frequency, phase",
        [((1, 0), 0.0), ((1, 2), 0.7), ((-2, 1), 2.1), ((0, 3), -1.3)],
    )
    def test_hess_log_matches_central_difference(self, frequency, phase):
        field = lv.SinusoidalField(amplitude=0.4, frequency=frequency, phase=phase)
        eps = 1e-6
        for x in ([0.13, 0.71], [0.5, 0.5], [0.92, 0.04]):
            x = np.array(x)
            fd = np.array(
                [
                    (field.grad_log(x + eps * e) - field.grad_log(x - eps * e)) / (2 * eps)
                    for e in np.eye(2)
                ]
            )
            hess = field.hess_log(x)
            np.testing.assert_allclose(hess, fd, rtol=0, atol=1e-6 * np.abs(hess).max())
            assert field.lap_log(x) == np.trace(hess)

    def test_constant_field_is_flat(self):
        field = lv.ConstantField(2.5)
        np.testing.assert_array_equal(field.hess_log([0.3, 0.4]), np.zeros((2, 2)))
        assert field.lap_log([0.3, 0.4]) == 0.0


class TestBCoefficient:
    def test_flat_symmetric_value(self, single_point_config):
        # all derivative terms vanish; the bracket is 2 pi n_L
        b = lv.b_coefficient(single_point_config, 0, 0)
        assert b == pytest.approx(64.0 * TWO_PI, rel=1e-9)

    def test_scaling_h_leaves_b_unchanged(self):
        # only log-derivatives of h enter the bracket
        sinus = lv.SinusoidalField(amplitude=0.1, frequency=(1, 0))
        scaled = lv.SinusoidalField(amplitude=0.3, frequency=(1, 0), base=3.0)
        b1 = lv.b_coefficient(make_config(h_fields=(sinus,)), 0, 0)
        b2 = lv.b_coefficient(make_config(h_fields=(scaled,)), 0, 0)
        assert b2 == pytest.approx(b1, rel=1e-10)

    def test_sinusoidal_terms_match_symbolic(self):
        field = lv.SinusoidalField(amplitude=0.1, frequency=(1, 0))
        p = np.array([0.23, 0.5])
        cfg = make_config(points=[p], h_fields=(field,))
        b = lv.b_coefficient(cfg, 0, 0)
        # independent symbolic derivation of the log-derivatives
        angle = TWO_PI * p[0]
        h = 1.0 + 0.1 * math.sin(angle)
        grad_log = TWO_PI * 0.1 * math.cos(angle) / h
        lap_log = -(TWO_PI**2) * 0.1 * math.sin(angle) / h - grad_log**2
        green_grad = cfg.gstar_gradient(0)
        vec = np.array([grad_log, 0.0]) + 4.0 * TWO_PI * green_grad
        bracket = 0.25 * lap_log + TWO_PI * 1.0 + 0.25 * float(vec @ vec)
        assert b == pytest.approx(64.0 * bracket, rel=1e-10)

    def test_curvature_term(self):
        b_flat = lv.b_coefficient(make_config(), 0, 0)
        b_curved = lv.b_coefficient(make_config(curvature=[0.4]), 0, 0)
        assert b_flat - b_curved == pytest.approx(64.0 * 0.2, rel=1e-10)

    def test_singular_point_rejected(self, singular_point_config):
        with pytest.raises(DomainError):
            lv.b_coefficient(singular_point_config, 0, 0)


class TestLeadingTermQ:
    def test_composition_value(self, single_point_config):
        pred = lv.leading_term_Q(single_point_config, 1e-3)
        oracle = -4.0 * (TWO_PI * 64.0) * 1e-6 * math.log(1e3)
        assert pred == pytest.approx(oracle, rel=1e-12)

    def test_vanishes_monotonically(self, single_point_config):
        eps = [1e-3, 1e-4, 1e-5]
        preds = [abs(lv.leading_term_Q(single_point_config, e)) for e in eps]
        assert preds[0] > preds[1] > preds[2]

    def test_two_identical_points_double_the_sum(self):
        two = lv.BlowupConfiguration(
            points=[[0.25, 0.25], [0.75, 0.75]],
            strengths=(lv.SingularityProfile(0.0),) * 2,
            matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
            rho=[16.0 * math.pi],
            h_fields=(lv.ConstantField(1.0),),
            curvature=[0.0, 0.0],
            D=[math.log(64.0)],
            alpha=[0.0],
        )
        assert two.is_at_q()
        # symmetric offsets kill the gradient sums: each b is the single-point
        # b plus e^(D - alpha) 2 pi (n_L - 1), the constant term at level 2
        b_each = lv.b_coefficient(two, 0, 0)
        b_ref = lv.b_coefficient(make_config(), 0, 0) + 64.0 * TWO_PI * (2.0 - 1.0)
        assert b_each == pytest.approx(b_ref, rel=1e-8)
        pred = lv.leading_term_Q(two, 1e-3)
        single_term = -4.0 * b_each * 1e-6 * math.log(1e3)
        assert pred == pytest.approx(2.0 * single_term, rel=1e-12)

    def test_wrong_regime(self, singular_point_config, single_point_config):
        with pytest.raises(WrongRegimeError):
            lv.leading_term_Q(singular_point_config, 1e-3)  # not at Q
        off_q = make_config(rho=[7.0 * math.pi])
        with pytest.raises(WrongRegimeError):
            lv.leading_term_Q(off_q, 1e-3)
        with pytest.raises(InputError):
            lv.leading_term_Q(single_point_config, 2.0)


class TestLeadingTermGeneral:
    def test_single_source_composition(self, singular_point_config):
        cfg = singular_point_config
        out = lv.leading_term_general(cfg, 0.01, 1e-3)
        # one minimizing component, one point: D = e^(D_1 - alpha_1) * lim A
        ((i, t, b_it, a_full, a_half, a_lim),) = out.cell_terms
        assert (i, t) == (0, 0)
        assert b_it == pytest.approx(4.0, rel=1e-12)  # reference-point ratio is 1
        assert out.D == pytest.approx(4.0 * a_lim, rel=1e-12)
        assert out.prediction == pytest.approx(
            out.D * 1e-3 ** (cfg.frak.minimum - 2.0) / cfg.n_L, rel=1e-12
        )
        # extrapolated limit sits below both evaluations and within their gap
        assert a_lim < a_half < a_full

    def test_linear_in_tail_constant(self, singular_point_config):
        cfg = singular_point_config
        doubled = lv.BlowupConfiguration(
            points=cfg.points,
            strengths=cfg.strengths,
            matrix=cfg.matrix,
            rho=cfg.rho,
            h_fields=cfg.h_fields,
            curvature=cfg.curvature,
            D=cfg.D + math.log(2.0),
            alpha=cfg.alpha,
            geometry=cfg.geometry,
        )
        base = lv.leading_term_general(cfg, 0.02, 1e-3)
        twice = lv.leading_term_general(doubled, 0.02, 1e-3)
        assert twice.D == pytest.approx(2.0 * base.D, rel=1e-9)

    def test_relabeling_invariance_symmetric(self):
        matrix = lv.CoefficientMatrix.from_entries([[1.0, 7.0], [7.0, 1.0]])
        strengths = (lv.SingularityProfile(-0.5), lv.SingularityProfile(-0.5))
        common = dict(
            matrix=matrix,
            rho=TWO_PI * np.array([1.25, 0.25]),
            h_fields=(lv.ConstantField(1.0), lv.ConstantField(1.0)),
            curvature=[0.0, 0.0],
            D=[math.log(4.0), math.log(4.0)],
            alpha=[0.0, 0.0],
        )
        pts = [[0.2, 0.3], [0.7, 0.8]]
        a = lv.leading_term_general(
            lv.BlowupConfiguration(points=pts, strengths=strengths, **common),
            0.02,
            1e-3,
        )
        b = lv.leading_term_general(
            lv.BlowupConfiguration(points=pts[::-1], strengths=strengths, **common),
            0.02,
            1e-3,
        )
        assert a.D == pytest.approx(b.D, rel=1e-7)

    def test_every_cell_fit_checked_before_integrating(self, monkeypatch):
        # delta0 = 0.1 fits the cell of point 0 (inradius 0.28) but not that
        # of point 1 (inradius 0.056); no cell is integrated before the error
        cfg = lv.BlowupConfiguration(
            points=[[0.1, 0.1], [0.5, 0.5], [0.6, 0.55]],
            strengths=(lv.SingularityProfile(-2.0 / 3.0),) * 3,
            matrix=lv.CoefficientMatrix.from_entries([[1.0, 7.0], [7.0, 1.0]]),
            rho=TWO_PI * np.array([1.25, 0.25]),
            h_fields=(lv.ConstantField(1.0), lv.ConstantField(1.0)),
            curvature=[0.0, 0.0, 0.0],
            D=[0.0, 0.0],
            alpha=[0.0, 0.0],
        )
        calls = []
        integral = blowup.a_integral
        monkeypatch.setattr(
            blowup, "a_integral", lambda *a, **k: calls.append(a) or integral(*a, **k)
        )
        with pytest.raises(GeometryError, match="cell of point 1 "):
            lv.leading_term_general(cfg, 0.1, 1e-3)
        assert calls == []
        lv.leading_term_general(cfg, 0.02, 1e-3)
        assert len(calls) == 6  # delta0 and delta0/2 for each of three cells

    def test_regime_and_domain_errors(self, single_point_config, singular_point_config):
        with pytest.raises(WrongRegimeError):
            lv.leading_term_general(single_point_config, 0.01, 1e-3)
        for eps_k in (math.nan, 5.0, 0.0):
            with pytest.raises(InputError, match="eps_k"):
                lv.leading_term_general(singular_point_config, 0.01, eps_k)
        low_mass = make_config(
            strengths=(lv.SingularityProfile(-0.5),), rho=[1.8 * math.pi]
        )  # normalized mass 1.8 at level 1/2
        with pytest.raises(DomainError):
            lv.leading_term_general(low_mass, 0.01, 1e-3)
        off_surface = lv.BlowupConfiguration(
            points=[[0.31, 0.62]],
            strengths=(lv.SingularityProfile(-0.5),),
            matrix=lv.CoefficientMatrix.from_entries([[1.0, 7.0], [7.0, 1.0]]),
            rho=TWO_PI * np.array([1.3, 0.25]),
            h_fields=(lv.ConstantField(1.0), lv.ConstantField(1.0)),
            curvature=[0.0],
            D=[0.0, 0.0],
            alpha=[0.0, 0.0],
        )
        with pytest.raises(InputError):
            lv.leading_term_general(off_surface, 0.01, 1e-3)


class TestLocationResidual:
    def test_two_point_parity(self):
        cfg = lv.BlowupConfiguration(
            points=[[0.2, 0.3], [0.7, 0.8]],
            strengths=(lv.SingularityProfile(0.0),) * 2,
            matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
            rho=[16.0 * math.pi],
            h_fields=(lv.ConstantField(1.0),),
            curvature=[0.0, 0.0],
            D=[math.log(64.0)],
            alpha=[0.0],
        )
        resid = lv.location_residual(cfg, 0, "Q")
        assert np.max(np.abs(resid)) < 1e-8

    def test_single_point_diagonal(self, single_point_config):
        resid = lv.location_residual(single_point_config, 0, "Q")
        assert np.max(np.abs(resid)) < 1e-8

    def test_sinusoidal_closed_form(self):
        field = lv.SinusoidalField(amplitude=0.1, frequency=(1, 0))
        p = np.array([0.37, 0.5])
        cfg = make_config(points=[p], h_fields=(field,))
        resid = lv.location_residual(cfg, 0, "general")
        angle = TWO_PI * p[0]
        expected = (
            8.0
            * math.pi
            * TWO_PI
            * 0.1
            * math.cos(angle)
            / (1.0 + 0.1 * math.sin(angle))
        )
        assert resid[0] == pytest.approx(expected, abs=1e-7)
        assert abs(resid[1]) < 1e-7

    def test_regime_validation(self, single_point_config, singular_point_config):
        with pytest.raises(InputError):
            lv.location_residual(single_point_config, 0, "other")
        with pytest.raises(DomainError):
            lv.location_residual(singular_point_config, 0, "Q")

    @given(
        shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        freq=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        phase=st.floats(0.0, TWO_PI),
        regime=st.sampled_from(["general", "Q"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, shift, start, freq, phase, regime):
        # translate the whole configuration: points and the field together
        shift = np.array(shift)

        def translated(points, by):
            n = len(points)
            field = lv.SinusoidalField(
                amplitude=0.3, frequency=freq, phase=phase - TWO_PI * np.dot(freq, by)
            )
            return make_config(
                points=np.mod(np.add(points, by), 1.0),
                strengths=(lv.SingularityProfile(0.0),) * n,
                curvature=[0.0] * n,
                h_fields=(field,),
            )

        pair = [start, np.add(start, 0.5)]
        a = lv.location_residual(translated(pair, np.zeros(2)), 0, regime)
        b = lv.location_residual(translated(pair, shift), 0, regime)
        assert np.max(np.abs(a - b)) <= 1e-9
        # one point: the search is a Newton iteration along the frequency,
        # stable under rounding; with more points a damped path can pass a
        # near-singular Jacobian, where rounding picks the root
        best, _ = lv.location_search(translated([start], np.zeros(2)), 0, regime)
        moved, _ = lv.location_search(translated([start], shift), 0, regime)
        gap = best + shift - moved
        assert np.max(np.abs(gap - np.round(gap))) <= 1e-9

    def test_search_finds_gradient_zero(self):
        field = lv.SinusoidalField(amplitude=0.1, frequency=(1, 0))
        cfg = make_config(points=[[0.3, 0.5]], h_fields=(field,))
        best, resid = lv.location_search(cfg, 0, "general")
        assert np.max(np.abs(resid)) < 1e-6
        assert min(abs(best[0] - 0.25), abs(best[0] - 0.75)) < 1e-4


def two_point_config():
    """Two regular points and a field with a nondegenerate location zero."""
    return lv.BlowupConfiguration(
        points=[[0.2, 0.3], [0.75, 0.7]],
        strengths=(lv.SingularityProfile(0.0),) * 2,
        matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
        rho=[16.0 * math.pi],
        h_fields=(lv.SinusoidalField(amplitude=0.2, frequency=(1, 1), phase=0.3),),
        curvature=[0.0, 0.0],
        D=[0.0],
        alpha=[0.0],
    )


class TestLocationSearch:
    @pytest.mark.parametrize("regime", ["general", "Q"])
    def test_jacobian_matches_central_difference(self, regime):
        cfg = two_point_config()
        eps = 1e-6
        columns = []
        for axis in range(2):
            sides = []
            for sign in (1.0, -1.0):
                pts = cfg.points.copy()
                pts[0, axis] += sign * eps
                moved = dataclasses.replace(cfg, points=pts)
                sides.append(lv.location_residual(moved, 0, regime))
            columns.append((sides[0] - sides[1]) / (2.0 * eps))
        jac = blowup._location_jacobian(cfg, 0, regime)
        np.testing.assert_allclose(jac, np.array(columns).T, rtol=0, atol=1e-6 * np.abs(jac).max())

    def test_two_points_converge_in_six_steps(self, monkeypatch):
        # one Jacobian per Newton step; quadratic convergence from 100 to 1e-13
        # in five damped steps, then the step below tol
        calls = []
        jacobian = blowup._location_jacobian
        monkeypatch.setattr(
            blowup, "_location_jacobian", lambda *a: calls.append(1) or jacobian(*a)
        )
        best, resid = lv.location_search(two_point_config(), 0, "general")
        assert len(calls) == 6
        assert np.max(np.abs(resid)) <= 1e-10
        np.testing.assert_allclose(best, [0.32141282, 0.27141282], atol=1e-8)

    def test_step_budget_carries_best_iterate(self, monkeypatch):
        cfg = two_point_config()
        start = np.max(np.abs(lv.location_residual(cfg, 0, "general")))
        monkeypatch.setattr(blowup, "_MAX_NEWTON_STEPS", 2)
        with pytest.raises(NonConvergenceError, match="2 steps") as info:
            lv.location_search(cfg, 0, "general")
        pts = cfg.points.copy()
        pts[0] = info.value.best
        resid = lv.location_residual(dataclasses.replace(cfg, points=pts), 0, "general")
        assert info.value.best_residual == np.max(np.abs(resid))
        assert info.value.best_residual < start

    def test_singular_jacobian_with_residual_raises(self, monkeypatch):
        cfg = two_point_config()
        monkeypatch.setattr(blowup, "_location_jacobian", lambda *a: np.zeros((2, 2)))
        with pytest.raises(NonConvergenceError, match="singular") as info:
            lv.location_search(cfg, 0, "general")
        np.testing.assert_array_equal(info.value.best, cfg.points[0])

    def test_zero_residual_with_zero_jacobian_returns(self, single_point_config):
        best, resid = lv.location_search(single_point_config, 0, "Q")
        np.testing.assert_array_equal(best, [0.5, 0.5])
        assert np.max(np.abs(resid)) == 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10, 1.0, "1e-10"])
    def test_rejects_bad_tol(self, single_point_config, tol):
        with pytest.raises(InputError, match="tol"):
            lv.location_search(single_point_config, 0, "Q", tol=tol)


class TestHRelation:
    def test_equal_masses_and_proportional_fields_cancel(self):
        matrix = lv.CoefficientMatrix.from_entries([[1.0, 2.0], [2.0, 1.0]])
        q_vec = lv.q_point(matrix, 2.0)
        cfg = lv.BlowupConfiguration(
            points=[[0.2, 0.2], [0.7, 0.7]],
            strengths=(lv.SingularityProfile(0.0),) * 2,
            matrix=matrix,
            rho=q_vec,
            h_fields=(
                lv.SinusoidalField(amplitude=0.1, frequency=(1, 1)),
                lv.SinusoidalField(amplitude=0.2, frequency=(1, 1), base=2.0),
            ),
            curvature=[0.0, 0.0],
            D=[1.0, 1.0],
            alpha=[0.0, 0.0],
        )
        # equal masses (at Q) and h_2 = 2 h_1: constants cancel in differences
        assert lv.h_relation_residual(cfg, 0, 1, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_q_point_with_constant_fields(self):
        matrix = lv.CoefficientMatrix.from_entries([[1.0, 2.0], [2.0, 1.0]])
        cfg = lv.BlowupConfiguration(
            points=[[0.1, 0.4], [0.6, 0.9]],
            strengths=(lv.SingularityProfile(0.0),) * 2,
            matrix=matrix,
            rho=lv.q_point(matrix, 2.0),
            h_fields=(lv.ConstantField(3.0), lv.ConstantField(0.25)),
            curvature=[0.0, 0.0],
            D=[1.0, 1.0],
            alpha=[0.0, 0.0],
        )
        assert lv.h_relation_residual(cfg, 0, 1, 0, 1) == 0.0

    def test_generic_nonzero(self):
        matrix = lv.CoefficientMatrix.from_entries([[1.0, 7.0], [7.0, 1.0]])
        cfg = lv.BlowupConfiguration(
            points=[[0.2, 0.3], [0.7, 0.8]],
            strengths=(lv.SingularityProfile(-0.5),) * 2,
            matrix=matrix,
            rho=TWO_PI * np.array([1.25, 0.25]),
            h_fields=(
                lv.SinusoidalField(amplitude=0.2, frequency=(1, 0)),
                lv.ConstantField(1.0),
            ),
            curvature=[0.0, 0.0],
            D=[0.0, 0.0],
            alpha=[0.0, 0.0],
        )
        assert abs(lv.h_relation_residual(cfg, 0, 1, 0, 1)) > 1e-4

    def test_validation(self, singular_point_config):
        with pytest.raises(InputError):
            lv.h_relation_residual(singular_point_config, 0, 1, 0, 0)


# (case id, function, configuration fixture, arguments after the configuration,
# the index the error names); single_point_config has n = 1 and one point,
# singular_point_config n = 2 and one point
INDEX_PROBES = [
    ("residual-t-float", lv.location_residual, "single_point_config", (0.0, "Q"), "t"),
    ("residual-t-past", lv.location_residual, "single_point_config", (5, "Q"), "t"),
    ("residual-t-neg", lv.location_residual, "single_point_config", (-1, "Q"), "t"),
    ("search-t-past", lv.location_search, "single_point_config", (1, "Q"), "t"),
    ("b-i-neg", lv.b_coefficient, "single_point_config", (-1, 0), "i"),
    ("b-i-past", lv.b_coefficient, "single_point_config", (1, 0), "i"),
    ("b-t-past", lv.b_coefficient, "single_point_config", (0, 1), "t"),
    ("a-t-neg", lv.a_integral, "singular_point_config", (0, -1, 0.01), "t"),
    ("a-i-past", lv.a_integral, "singular_point_config", (2, 0, 0.01), "i"),
    ("a-i-bool", lv.a_integral, "singular_point_config", (True, 0, 0.01), "i"),
    ("h-i-past", lv.h_relation_residual, "singular_point_config", (2, 0, 0, 0), "i"),
    ("h-j-neg", lv.h_relation_residual, "singular_point_config", (0, -1, 0, 0), "j"),
    ("h-t-float", lv.h_relation_residual, "singular_point_config", (0, 1, 0.0, 0), "t"),
    ("h-s-past", lv.h_relation_residual, "singular_point_config", (0, 0, 0, 3), "s"),
]


@pytest.mark.parametrize(
    "fn, config, args, name", [p[1:] for p in INDEX_PROBES], ids=[p[0] for p in INDEX_PROBES]
)
def test_bad_index_rejected(request, fn, config, args, name):
    # a point or component index is checked once, on entry, and named;
    # never a bare IndexError, a wrapped-around value or a geometry error
    with pytest.raises(InputError, match=f"^{name} must"):
        fn(request.getfixturevalue(config), *args)
