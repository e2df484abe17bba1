import math

import numpy as np
import pytest

import liouville as lv
from liouville.errors import DomainError, InputError, WrongRegimeError

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

    def test_level_mass_override(self, single_point_config):
        b = lv.b_coefficient(single_point_config, 0, 0, level_mass=2.0)
        assert b == pytest.approx(64.0 * 2.0 * TWO_PI, rel=1e-9)

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
        # symmetric offsets kill the gradient sums: each b equals the
        # single-point b evaluated at this level's mass
        b_each = lv.b_coefficient(two, 0, 0)
        b_ref = lv.b_coefficient(make_config(), 0, 0, level_mass=2.0)
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

    def test_translation_equivariance(self):
        # translate the whole configuration: points and the field together
        shift = np.array([0.41, 0.17])
        freq = (1, 2)
        field = lv.SinusoidalField(amplitude=0.1, frequency=freq)
        moved_field = lv.SinusoidalField(
            amplitude=0.1,
            frequency=freq,
            phase=-2.0 * math.pi * (freq[0] * shift[0] + freq[1] * shift[1]),
        )
        cfg = make_config(points=[[0.3, 0.62]], h_fields=(field,))
        moved = make_config(
            points=[np.array([0.3, 0.62]) + shift], h_fields=(moved_field,)
        )
        a = lv.location_residual(cfg, 0, "general")
        b = lv.location_residual(moved, 0, "general")
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_search_finds_gradient_zero(self):
        field = lv.SinusoidalField(amplitude=0.1, frequency=(1, 0))
        cfg = make_config(points=[[0.3, 0.5]], h_fields=(field,))
        best, resid = lv.location_search(cfg, 0, "general")
        assert np.max(np.abs(resid)) < 1e-6
        assert min(abs(best[0] - 0.25), abs(best[0] - 0.75)) < 1e-4


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
