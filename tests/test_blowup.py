import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville as lv
from liouville import blowup, green, newton
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


def three_source_config():
    """Three gamma = -5/6 sources splitting n_L = 1/2, masses (3, 9)."""
    return lv.BlowupConfiguration(
        points=[[0.12, 0.2], [0.47, 0.71], [0.83, 0.38]],
        strengths=(lv.SingularityProfile(-5.0 / 6.0),) * 3,
        matrix=lv.CoefficientMatrix.from_entries([[1.0, 7.0], [7.0, 1.0]]),
        rho=np.pi * np.array([1.25, 0.25]),
        h_fields=(
            lv.SinusoidalField(amplitude=0.3, frequency=(1, 0), phase=0.4),
            lv.ConstantField(2.0),
        ),
        curvature=[0.0, 0.0, 0.0],
        D=[math.log(4.0), math.log(4.0)],
        alpha=[0.0, 0.0],
    )


class TestConfiguration:
    def test_level_is_strength_sum(self, singular_point_config):
        assert singular_point_config.n_L == 0.5
        assert make_config().n_L == 1.0

    def test_regular_set(self, singular_point_config):
        assert make_config().regular_set == (0,)
        assert singular_point_config.regular_set == ()

    def test_regime(self, singular_point_config):
        # "Q" only at the symmetric point with a regular point; a singular
        # source alone at Q (mass 4 at level 1/2) takes the general expansion
        singular_at_q = make_config(
            strengths=(lv.SingularityProfile(-0.5),), rho=[4.0 * math.pi]
        )
        assert singular_at_q.is_at_q() and not singular_at_q.regular_set
        off_q = make_config(rho=[7.0 * math.pi])
        assert make_config().regime == "Q"
        for cfg in (singular_at_q, singular_point_config, off_q):
            assert cfg.regime == "general"
        # leading_term_Q refuses the general regime with the reason
        with pytest.raises(WrongRegimeError, match="no regular blowup point"):
            lv.leading_term_Q(singular_at_q, 1e-3)
        with pytest.raises(WrongRegimeError, match="away from the symmetric point"):
            lv.leading_term_Q(off_q, 1e-3)
        with pytest.raises(WrongRegimeError, match="use leading_term_Q"):
            lv.leading_term_general(make_config(), 0.01, 1e-3)

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

    def test_tail_coefficient_past_the_floats_rejected(self):
        # b_coefficient and leading_term_general take e^(D_i - alpha_i)
        with pytest.raises(InputError, match=r"D = \[800.0\]: e\^\(D_i - alpha_i\) overflows"):
            make_config(D=[800.0])
        with pytest.raises(InputError, match="D = "):
            make_config(D=[0.0], alpha=[-710.0])
        make_config(D=[709.0])  # e^709 is a float
        assert math.isfinite(lv.b_coefficient(make_config(D=[700.0]), 0, 0))


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

    @pytest.mark.parametrize(
        "field", [lv.SinusoidalField(0.4, (-2, 1), 2.1, base=1.5), lv.ConstantField(2.5)]
    )
    def test_batched_calls_equal_stacked_single_points(self, field):
        # one convention: leading axes of x broadcast, one point has none
        x = np.random.default_rng(8).uniform(-1.0, 2.0, (7, 5, 2))
        for method, tail in [("value", ()), ("grad_log", (2,)), ("hess_log", (2, 2)),
                             ("lap_log", ())]:
            batch = getattr(field, method)(x)
            single = [getattr(field, method)(p) for p in x.reshape(-1, 2)]
            assert batch.shape == (7, 5) + tail
            np.testing.assert_array_equal(batch, np.reshape(single, batch.shape))


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
        integral = blowup._cell_integral
        monkeypatch.setattr(
            blowup,
            "_cell_integral",
            lambda *a, **k: calls.append(a) or integral(*a, **k),
        )
        with pytest.raises(GeometryError, match="cell of point 1 "):
            lv.leading_term_general(cfg, 0.1, 1e-3)
        assert calls == []
        lv.leading_term_general(cfg, 0.02, 1e-3)
        # positional (config, i, t, planes, r_lo) for a cell, then r_hi for
        # an annulus: each cell is integrated once, plus delta0/2 < r < delta0
        cells = [a[2] for a in calls if len(a) == 5]
        rings = [(a[2],) + a[4:] for a in calls if len(a) == 6]
        assert cells == [0, 1, 2]
        assert rings == [(t, 0.01, 0.02) for t in range(3)]

    def test_panel_count(self):
        cfg = three_source_config()
        out = lv.leading_term_general(cfg, 0.01, 1e-3)
        assert out.panels == 108  # a deterministic work counter
        # the same cells integrated in full at delta0 and at delta0/2
        two_full = 0
        for i, t, *_ in out.cell_terms:
            _, *planes = blowup.cell_fit(cfg, t, 0.01)
            for delta0 in (0.01, 0.005):
                two_full += blowup._cell_integral(cfg, i, t, planes, delta0)[1]
        assert out.panels <= 0.55 * two_full

    @pytest.mark.parametrize(
        "name", ["singular_point_config", "sinusoidal", "three_sources"]
    )
    def test_annulus_matches_two_cell_integrals(self, name, request):
        if name == "sinusoidal":
            base = request.getfixturevalue("singular_point_config")
            field = lv.SinusoidalField(amplitude=0.3, frequency=(1, 1), phase=0.4)
            cfg = dataclasses.replace(base, h_fields=(field, lv.ConstantField(2.0)))
        elif name == "three_sources":
            cfg = three_source_config()
        else:
            cfg = request.getfixturevalue(name)
        delta0 = 0.01
        fm = cfg.frak.minimum
        out = lv.leading_term_general(cfg, delta0, 1e-3)
        total = 0.0
        for i, t, b_it, a_full, a_half, _ in out.cell_terms:
            assert a_full == lv.a_integral(cfg, i, t, delta0)
            direct = lv.a_integral(cfg, i, t, delta0 / 2.0)
            assert a_half == pytest.approx(direct, rel=1e-10, abs=0.0)
            w = 2.0 ** -((2.0 - fm) * cfg.mus[t] + 2.0)
            total += b_it * (direct - w * a_full) / (1.0 - w)
        assert out.D == pytest.approx(total, rel=1e-10, abs=0.0)

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
        resid = lv.location_residual(cfg, 0, "Q")
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

    @pytest.mark.parametrize("n, n_pts", [(1, 2), (2, 2), (2, 3), (3, 1), (3, 2), (1, 3)])
    def test_q_formula_oracle(self, n, n_pts):
        # at Q the one condition is the symmetric-point formula:
        # sum_i q_i [grad log h_i(p_t) + 8 pi sum_{s != t} mu_s grad G(p_t, p_s)]
        rng = np.random.default_rng(10 * n + n_pts)
        entries = rng.uniform(0.5, 2.0, (n, n))
        matrix = lv.CoefficientMatrix.from_entries(entries + entries.T + 2.0 * n * np.eye(n))
        fields = tuple(
            lv.SinusoidalField(
                rng.uniform(0.1, 0.5), tuple(int(k) for k in rng.integers(-2, 3, 2)),
                rng.uniform(0.0, TWO_PI),
            )
            for _ in range(n)
        )
        points = np.array([[0.1, 0.2], [0.55, 0.8], [0.8, 0.35]])[:n_pts]
        q = lv.q_point(matrix, float(n_pts))
        cfg = lv.BlowupConfiguration(
            points=points + rng.uniform(-0.05, 0.05, (n_pts, 2)),
            strengths=(lv.SingularityProfile(0.0),) * n_pts,
            matrix=matrix,
            rho=q,
            h_fields=fields,
            curvature=[0.0] * n_pts,
            D=[0.0] * n,
            alpha=[0.0] * n,
        )
        assert cfg.regime == "Q"
        for t in range(n_pts):
            p_t = cfg.points[t]
            green_term = 8.0 * math.pi * sum(
                lv.green_gradient(cfg.geometry, p_t, cfg.points[s])
                for s in range(n_pts) if s != t
            )
            terms = [q_i * (h.grad_log(p_t) + green_term) for q_i, h in zip(q, fields)]
            scale = np.sum(np.abs(terms), axis=0).max()
            resid = lv.location_residual(cfg, t, "Q")
            assert np.max(np.abs(resid - sum(terms))) <= 1e-13 * scale

    def test_regime_validation(self, single_point_config, singular_point_config):
        # regime only states the configuration's regime; it selects nothing
        with pytest.raises(InputError, match="'other' is not the configuration's regime 'Q'"):
            lv.location_residual(single_point_config, 0, "other")
        with pytest.raises(InputError, match="'general' is not the configuration's regime 'Q'"):
            lv.location_residual(single_point_config, 0, "general")
        off_q = two_point_config(rho=[12.0 * math.pi])
        with pytest.raises(InputError, match="'Q' is not the configuration's regime 'general'"):
            lv.location_residual(off_q, 0, "Q")
        # the point is checked first
        with pytest.raises(DomainError):
            lv.location_residual(singular_point_config, 0, "Q")

    @given(
        shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        freq=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        phase=st.floats(0.0, TWO_PI),
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, shift, start, freq, phase):
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
        a = lv.location_residual(translated(pair, np.zeros(2)), 0, "general")
        b = lv.location_residual(translated(pair, shift), 0, "general")
        assert np.max(np.abs(a - b)) <= 1e-9
        # one point: the search is a Newton iteration along the frequency,
        # stable under rounding; with more points a damped path can pass a
        # near-singular Jacobian, where rounding picks the root
        best, _ = lv.location_search(translated([start], np.zeros(2)), 0)
        moved, _ = lv.location_search(translated([start], shift), 0)
        gap = best + shift - moved
        assert np.max(np.abs(gap - np.round(gap))) <= 1e-9

    def test_search_finds_gradient_zero(self):
        field = lv.SinusoidalField(amplitude=0.1, frequency=(1, 0))
        cfg = make_config(points=[[0.3, 0.5]], h_fields=(field,))
        best, resid = lv.location_search(cfg, 0)
        assert np.max(np.abs(resid)) < 1e-6
        assert min(abs(best[0] - 0.25), abs(best[0] - 0.75)) < 1e-4


def two_point_config(**overrides):
    """Two regular points and a field with a nondegenerate location zero, at
    the symmetric point unless ``overrides`` move rho."""
    base = dict(
        points=[[0.2, 0.3], [0.75, 0.7]],
        strengths=(lv.SingularityProfile(0.0),) * 2,
        matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
        rho=[16.0 * math.pi],
        h_fields=(lv.SinusoidalField(amplitude=0.2, frequency=(1, 1), phase=0.3),),
        curvature=[0.0, 0.0],
        D=[0.0],
        alpha=[0.0],
    )
    base.update(overrides)
    return lv.BlowupConfiguration(**base)


def random_two_point_configs(shift, count=150, seed=5):
    """Two regular points and one sinusoidal field, drawn at random; pairs
    closer than 0.05 in a coordinate are skipped. Everything is moved by
    ``shift`` on the torus, the field's phase with it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        start, other = rng.uniform(0.0, 1.0, 2), rng.uniform(0.0, 1.0, 2)
        if np.min(np.abs((start - other + 0.5) % 1.0 - 0.5)) < 0.05:
            continue
        frequency = tuple(int(v) for v in rng.integers(-2, 3, 2))
        if frequency == (0, 0):
            frequency = (1, 1)
        phase = rng.uniform(0.0, TWO_PI) - TWO_PI * np.dot(frequency, shift)
        yield lv.BlowupConfiguration(
            points=np.mod(np.add([start, other], shift), 1.0),
            strengths=(lv.SingularityProfile(0.0),) * 2,
            matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
            rho=[16.0 * math.pi],
            h_fields=(lv.SinusoidalField(0.3, frequency, phase),),
            curvature=[0.0, 0.0],
            D=[0.0],
            alpha=[0.0],
        )


def lockstep_roots(cfg, t, starts, tol=1e-10):
    """Roots of point t's location residual, one damped Newton per start.

    The searches run in lockstep on the batched location terms, with the
    rule and budget of ``newton.damped_newton``: each start keeps its own
    lam, a trial must descend by the factor 1 - 1e-4 lam, at most
    MAX_HALVINGS halvings and MAX_STEPS steps, and trials within 1e-4 of
    another point are halved. The steps come from ``np.linalg.solve``, and
    a start whose Jacobian is singular is dropped, as is one that fails.
    Returns the roots, wrapped, of the starts that converged.
    """
    periods = np.array([cfg.geometry.lx, cfg.geometry.ly])

    def place(p):
        """Wrapped p, its displacements and its residuals (NaN near a point)."""
        p = np.mod(p, periods)
        w = blowup._displacements(cfg, t, p)
        r = np.full(p.shape, np.nan)
        inside = np.all(green._length(w) >= 1e-4, axis=-1)
        r[inside] = blowup._location_terms(cfg, t, p[inside], w[inside], 1)
        return p, w, r

    x, w, r = place(starts)
    roots = []
    for steps in range(newton.MAX_STEPS + 1):
        jac = blowup._location_terms(cfg, t, x, w, 2)
        keep = np.linalg.matrix_rank(jac) == 2
        x, w, r, jac = x[keep], w[keep], r[keep], jac[keep]
        step = np.linalg.solve(jac, -r[..., None])[..., 0]
        norm = np.max(np.abs(r), axis=-1)
        done = norm < tol  # then one last step, unchecked
        roots.append(np.mod(x[done] + step[done], periods))
        x, w, r, step, norm = (a[~done] for a in (x, w, r, step, norm))
        if steps == newton.MAX_STEPS or not len(x):
            break
        lam = np.ones(len(x))
        searching = np.ones(len(x), dtype=bool)
        for _ in range(newton.MAX_HALVINGS + 1):
            k = np.flatnonzero(searching)
            trial = place(x[k] + lam[k, None] * step[k])
            down = np.max(np.abs(trial[2]), axis=-1) < norm[k] * (1.0 - 1e-4 * lam[k])
            for arr, new in zip((x, w, r), trial):
                arr[k[down]] = new[down]
            searching[k[down]] = False
            lam[searching] *= 0.5
            if not searching.any():
                break
        x, w, r = x[~searching], w[~searching], r[~searching]
    return np.concatenate(roots)


def certified_roots(cfg, t=0, m=16):
    """Distinct roots of point t's location residual on a two-point
    configuration, from an m x m grid of starts placed relative to the other
    (fixed) point, and their count sum (-1)^(Morse index): #min - #saddle
    + #max. Roots closer than 1e-7 are one; each index is the number of
    negative eigenvalues of the Jacobian there, the Hessian of the
    location function."""
    geom = cfg.geometry
    grid = (np.arange(m) + 0.5) / m
    offsets = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    found = lockstep_roots(cfg, t, cfg.points[1 - t] + offsets * [geom.lx, geom.ly])
    close = lv.torus_distance(geom, found[:, None], found[None]) <= 1e-7
    roots = found[np.argmax(close, axis=1) == np.arange(len(found))]
    hess = blowup._location_terms(cfg, t, roots, blowup._displacements(cfg, t, roots), 2)
    index = np.count_nonzero(np.linalg.eigvalsh(hess) < 0.0, axis=-1)
    return roots, int(np.sum((-1) ** index))


class TestLocationSearch:
    @pytest.mark.parametrize("regime", ["general", "Q"])
    def test_jacobian_matches_central_difference(self, regime):
        # m = 3 away from the symmetric point, m = 4 at it
        cfg = two_point_config(rho=[(12.0 if regime == "general" else 16.0) * math.pi])
        assert cfg.regime == regime
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
        p = cfg.points[0]
        jac = blowup._location_terms(cfg, 0, p, blowup._displacements(cfg, 0, p), 2)
        np.testing.assert_allclose(jac, np.array(columns).T, rtol=0, atol=1e-6 * np.abs(jac).max())

    def test_two_points_converge_in_six_steps(self, monkeypatch):
        # one Jacobian per Newton step; quadratic convergence from 100 to 1e-13
        # in five damped steps, then the step below tol
        orders = []
        terms = blowup._location_terms
        monkeypatch.setattr(
            blowup, "_location_terms", lambda *a: orders.append(a[-1]) or terms(*a)
        )
        best, resid = lv.location_search(two_point_config(), 0)
        assert orders.count(2) == 6
        assert np.max(np.abs(resid)) <= 1e-10
        np.testing.assert_allclose(best, [0.32141282, 0.27141282], atol=1e-8)

    def test_random_configurations_mostly_converge(self):
        # 125 random configurations, searched where they are and moved by
        # (0.3, 0.6): 2 fail both ways; with 8 halvings in place of 30, 6 did
        failing = set()
        for shift in [(0.0, 0.0), (0.3, 0.6)]:
            for k, cfg in enumerate(random_two_point_configs(shift)):
                try:
                    lv.location_search(cfg, 0)
                except NonConvergenceError:
                    failing.add(k)
        assert k == 124
        assert len(failing) <= 2

    def test_scan_counters(self, monkeypatch):
        # the scan above, pinned: its failing runs and the residuals (order 1)
        # and Jacobians (order 2) the searches evaluate
        orders, failing = [], set()
        terms = blowup._location_terms
        monkeypatch.setattr(
            blowup, "_location_terms", lambda *a: orders.append(a[-1]) or terms(*a)
        )
        for shift in [(0.0, 0.0), (0.3, 0.6)]:
            for k, cfg in enumerate(random_two_point_configs(shift)):
                try:
                    lv.location_search(cfg, 0)
                except NonConvergenceError:
                    failing.add((shift, k))
        assert failing == {((0.0, 0.0), 77), ((0.0, 0.0), 117), ((0.3, 0.6), 77)}
        assert (orders.count(1), orders.count(2)) == (3725, 1797)

    def test_searches_land_on_certified_roots(self):
        # Poincare-Hopf: the location function tends to +inf at the other
        # point, so its critical points on the once-punctured torus count
        # #min - #saddle + #max = -1; config 0 needs more than 8 x 8 starts
        configs = list(random_two_point_configs((0.0, 0.0)))
        for k in [0, 1, 2, 3, 4, 5, 6, 7, 77, 117]:
            cfg = configs[k]
            roots, count = certified_roots(cfg)
            assert count == -1, k
            try:
                best, _ = lv.location_search(cfg, 0)
            except NonConvergenceError:
                continue
            assert lv.torus_distance(cfg.geometry, roots, best).min() <= 1e-7, k

    @pytest.mark.parametrize("regime", ["general", "Q"])
    def test_batched_terms_equal_stacked_single_points(self, regime):
        # 16 trial points in one pass; the order-1 kernel reduces over the
        # images on another shape, so it may differ in the last bit
        cfg = three_source_config()
        if regime == "Q":  # the same points and fields, all regular, at Q
            cfg = dataclasses.replace(
                cfg, strengths=(lv.SingularityProfile(0.0),) * 3, rho=lv.q_point(cfg.matrix, 3.0)
            )
        assert cfg.regime == regime
        p = np.random.default_rng(0).uniform(0.0, 1.0, (16, 2))
        w = blowup._displacements(cfg, 0, p)
        for order in (1, 2):
            batch = blowup._location_terms(cfg, 0, p, w, order)
            single = np.array([
                blowup._location_terms(cfg, 0, q, blowup._displacements(cfg, 0, q), order)
                for q in p
            ])
            assert batch.shape == (16,) + (2,) * order
            if order == 2:
                np.testing.assert_array_equal(batch, single)
            else:
                assert np.max(np.abs(batch - single)) <= 1e-15 * np.max(np.abs(single))

    def test_one_wrap_per_trial(self, monkeypatch):
        # each trial's displacements are wrapped once, for the distance
        # check, the residual and the Jacobian alike; the root once more
        wraps, trials = [], []
        wrap, solve = blowup.wrap_displacement, blowup.damped_newton
        monkeypatch.setattr(blowup, "wrap_displacement", lambda *a: wraps.append(1) or wrap(*a))
        monkeypatch.setattr(
            blowup, "damped_newton",
            lambda f, *a: solve(lambda p, norm: trials.append(1) or f(p, norm), *a),
        )
        converged = 0
        for cfg in random_two_point_configs((0.0, 0.0), count=30):
            wraps.clear()
            trials.clear()
            try:
                lv.location_search(cfg, 0)
            except NonConvergenceError:
                assert len(wraps) == len(trials)
            else:
                assert len(wraps) == len(trials) + 1
                converged += 1
        assert converged >= 20

    def test_step_budget_carries_best_iterate(self, monkeypatch):
        cfg = two_point_config()
        start = np.max(np.abs(lv.location_residual(cfg, 0, "Q")))
        monkeypatch.setattr(newton, "MAX_STEPS", 2)
        with pytest.raises(NonConvergenceError, match="2 steps") as info:
            lv.location_search(cfg, 0)
        pts = cfg.points.copy()
        pts[0] = info.value.best
        resid = lv.location_residual(dataclasses.replace(cfg, points=pts), 0, "Q")
        assert info.value.best_residual == np.max(np.abs(resid))
        assert info.value.best_residual < start
        # per iterate: sup-norm residual, step length and halvings
        trace = np.array(info.value.trace)
        assert trace.shape == (3, 3)
        assert tuple(trace[0]) == (start, 0.0, 0.0)
        np.testing.assert_array_equal(trace[1:, 1], 0.5 ** trace[1:, 2])
        assert trace[:, 0].min() == info.value.best_residual

    def test_trial_onto_another_point_is_halved(self, monkeypatch):
        # a first Jacobian that aims the full step at the other point: that
        # trial is a GeometryError, halved without a residual
        cfg = two_point_config()
        aim = cfg.points[1] - cfg.points[0]
        r0 = lv.location_residual(cfg, 0, "Q")
        terms = blowup._location_terms
        calls, seen = [], []

        def first_aims_at_the_other_point(config, t, p, w, order):
            if order == 1:  # the residual at each trial that is in the domain
                seen.append(p.copy())
                return terms(config, t, p, w, order)
            calls.append(1)
            return np.diag(-r0 / aim) if len(calls) == 1 else terms(config, t, p, w, order)

        monkeypatch.setattr(blowup, "_location_terms", first_aims_at_the_other_point)
        best, resid = lv.location_search(cfg, 0)
        assert np.max(np.abs(resid)) <= 1e-10
        np.testing.assert_allclose(seen[1], cfg.points[0] + 0.5 * aim, rtol=0, atol=1e-15)
        monkeypatch.undo()
        moved = dataclasses.replace(cfg, points=np.array([best, cfg.points[1]]))
        assert np.max(np.abs(lv.location_residual(moved, 0, "Q"))) <= 1e-10

    def test_trial_where_a_field_is_not_positive_raises(self):
        # h = x - 1/4 alone: the Newton steps double the distance to 1/4,
        # from 0.5 to 0.75 and on to 1.25, which wraps onto the zero of h
        class Ramp(lv.CoefficientField):
            def value(self, x):
                return np.asarray(x, dtype=float)[..., 0] - 0.25

            def grad_log(self, x):
                return np.array([1.0 / self.value(x), 0.0])

            def hess_log(self, x):
                return np.array([[-1.0 / self.value(x) ** 2, 0.0], [0.0, 0.0]])

        with pytest.raises(InputError, match="coefficient field 0 is not positive"):
            lv.location_search(make_config(h_fields=(Ramp(),)), 0)

    def test_root_next_to_another_point_is_rejected(self, monkeypatch):
        # the last Newton step is unchecked by the driver; the search checks it
        cfg = two_point_config()
        near = cfg.points[1] + [5e-5, 0.0]
        monkeypatch.setattr(blowup, "damped_newton", lambda *args: (near, ()))
        with pytest.raises(GeometryError, match="1e-4"):
            lv.location_search(cfg, 0)

    def test_singular_jacobian_with_residual_raises(self, monkeypatch):
        cfg = two_point_config()
        terms = blowup._location_terms
        monkeypatch.setattr(
            blowup, "_location_terms",
            lambda *a: terms(*a) if a[-1] == 1 else np.zeros((2, 2)),
        )
        with pytest.raises(NonConvergenceError, match="singular") as info:
            lv.location_search(cfg, 0)
        np.testing.assert_array_equal(info.value.best, cfg.points[0])

    def test_zero_residual_with_zero_jacobian_returns(self, single_point_config):
        best, resid = lv.location_search(single_point_config, 0)
        np.testing.assert_array_equal(best, [0.5, 0.5])
        assert np.max(np.abs(resid)) == 0.0


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
    ("search-t-past", lv.location_search, "single_point_config", (1,), "t"),
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


@pytest.mark.parametrize("method", ["gstar_gradient"])
@pytest.mark.parametrize("t", [-1, 2, 0.0, "a"])
def test_gstar_derivative_checks_t(method, t):
    # a negative t would keep the point among the others, 2 is past the end
    with pytest.raises(InputError, match="^t must"):
        getattr(two_point_config(), method)(t)
