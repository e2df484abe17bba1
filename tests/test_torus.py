import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

import liouville as lv
from liouville import blowup, green
from liouville.errors import GeometryError, InputError, SingularityError
from liouville.blowup import _cell_corner_angles, _cell_geometry

# Frozen from the earlier Fourier-mode form once doubling its mode count moved
# it by less than 1e-10; the image sum in green.py agrees to 1e-16.
G_HALF_HALF = -0.05515890003816293
# Frozen from an offset extrapolation that stabilized below 1e-11; the exact
# closed form in green.py agrees to 1e-12, and so does the independent value
# -(1/2 pi) log(2 pi eta(i)^2) with eta(i) = Gamma(1/4)/(2 pi^(3/4)).
GAMMA_DIAG = -0.20857779324374073


class TestGreenEval:
    def test_symmetry_random_pairs(self, geometry):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            x, p = rng.random(2), rng.random(2)
            worst = max(
                worst,
                abs(lv.green_eval(geometry, x, p) - lv.green_eval(geometry, p, x)),
            )
        assert worst < 1e-10

    def test_frozen_value(self, geometry):
        val = lv.green_eval(geometry, np.array([0.5, 0.5]), np.zeros(2))
        assert val == pytest.approx(G_HALF_HALF, abs=1e-10)

    @pytest.mark.parametrize("lx", [0.3, 0.5, 1.0, 2.0, 3.0])
    def test_matches_fourier_series(self, lx, fourier_green):
        # the image sum against the 400-mode Fourier series, away from the pole
        geom = lv.TorusGreen(lx)
        rng = np.random.default_rng(5)
        x = rng.random((400, 2)) * [lx, 1.0 / lx]
        p = rng.random(2) * [lx, 1.0 / lx]
        x = x[lv.torus_distance(geom, x, p) >= 0.05]
        value, grad = fourier_green(lx, x - p)
        assert np.max(np.abs(lv.green_eval(geom, x, p) - value)) < 1e-12
        assert np.max(np.abs(lv.green_gradient(geom, x, p) - grad)) < 1e-11

    @pytest.mark.parametrize("lx", [0.3, 1.0, 3.0])
    def test_regular_part_at_the_pole(self, lx):
        # G + log|d|/2 pi - gamma is O(|d|^2); at |d| = 1e-6 nothing cancels
        geom = lv.TorusGreen(lx)
        gamma = lv.regular_part(geom, np.zeros(2))[0]
        p = np.array([0.31 * lx, 0.62 / lx])
        for angle in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            x = p + 1e-6 * np.array([math.cos(angle), math.sin(angle)])
            d = x - p
            reg = lv.green_eval(geom, x, p) + math.log(math.hypot(*d)) / (2.0 * math.pi)
            assert abs(reg - gamma) < 1e-11

    @pytest.mark.parametrize("a", [0.3, 2.0])
    def test_orientation(self, a):
        # the torus (a, 1/a) is the torus (1/a, a) with the axes exchanged
        wide = lv.TorusGreen(a)
        tall = lv.TorusGreen(1.0 / a)
        rng = np.random.default_rng(19)
        x = rng.random((50, 2)) * [a, 1.0 / a]
        p = np.array([0.05, 0.03])
        np.testing.assert_allclose(
            lv.green_eval(wide, x, p),
            lv.green_eval(tall, x[:, ::-1], p[::-1]),
            rtol=0.0,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            lv.green_gradient(wide, x, p),
            lv.green_gradient(tall, x[:, ::-1], p[::-1])[:, ::-1],
            rtol=0.0,
            atol=1e-13,
        )

    def test_mean_zero(self, geometry):
        n_grid = 512
        xs = (np.arange(n_grid) + 0.5) / n_grid
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        vals = lv.green_eval(geometry, grid, np.zeros(2))
        assert abs(vals.mean()) < 1e-6

    def test_diagonal_rejected(self, geometry):
        with pytest.raises(SingularityError):
            lv.green_eval(geometry, np.array([0.2, 0.2]), np.array([0.2, 0.2]))
        with pytest.raises(SingularityError):
            lv.green_eval(geometry, np.array([1.2 + 1e-10, 0.2]), np.array([0.2, 0.2]))

    def test_pde_residual_five_point(self, geometry):
        # the 5-point stencil is only a valid instrument where its own
        # truncation ~ h^2/(2 pi r^4) sits below the tolerance
        n_grid = 128
        h = 1.0 / n_grid
        xs = np.arange(n_grid) * h
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        p = np.array([0.3711234, 0.6289507])
        vals = lv.green_eval(geometry, grid, p)
        lap = (
            np.roll(vals, 1, 0)
            + np.roll(vals, -1, 0)
            + np.roll(vals, 1, 1)
            + np.roll(vals, -1, 1)
            - 4 * vals
        ) / h**2
        dist = lv.torus_distance(geometry, grid, p)
        outer = dist > 0.35
        assert np.max(np.abs(-lap[outer] + 1.0)) < 1e-3
        # inner disk: subtract the local log so the stencil sees a smooth field
        d = grid - p
        local = np.hypot(
            d[..., 0] - np.round(d[..., 0]), d[..., 1] - np.round(d[..., 1])
        )
        smooth = vals + np.log(local) / (2 * math.pi)
        lap_s = (
            np.roll(smooth, 1, 0)
            + np.roll(smooth, -1, 0)
            + np.roll(smooth, 1, 1)
            + np.roll(smooth, -1, 1)
            - 4 * smooth
        ) / h**2
        inner = (dist > 3.5 * h) & (dist < 0.35)
        assert np.max(np.abs(-lap_s[inner] + 1.0)) < 1e-3


class TestGreenGradient:
    def test_center_offset_vanishes(self, geometry):
        grad = lv.green_gradient(geometry, np.array([0.5, 0.5]), np.zeros(2))
        assert np.max(np.abs(grad)) < 1e-14

    def test_axis_offset_first_component(self, geometry):
        grad = lv.green_gradient(geometry, np.array([0.5, 0.0]), np.zeros(2))
        assert abs(grad[0]) < 1e-14

    def test_matches_finite_differences(self, geometry):
        rng = np.random.default_rng(11)
        eps = 1e-6
        for _ in range(10):
            x, p = rng.random(2), rng.random(2)
            if float(lv.torus_distance(geometry, x, p)) < 0.05:
                continue
            grad = lv.green_gradient(geometry, x, p)
            for axis in range(2):
                bump = np.zeros(2)
                bump[axis] = eps
                fd = (
                    lv.green_eval(geometry, x + bump, p)
                    - lv.green_eval(geometry, x - bump, p)
                ) / (2 * eps)
                assert abs(grad[axis] - fd) < 1e-6


def hessian(geom, d):
    """Hess G at displacement d; the kernel wraps d in its blocks itself."""
    return green._green(geom, np.asarray(d, dtype=float), order=2)


def green_derivatives(geom, x, p):
    """G, grad G and Hess G at (x, p)."""
    return (
        lv.green_eval(geom, x, p),
        lv.green_gradient(geom, x, p),
        hessian(geom, np.subtract(x, p)),
    )


# |G|, |grad G| and |Hess G| below about 1, 3 and 64 for pairs 0.05 apart;
# the shifts move the displacement by an ulp of its period, the orientation
# changes the periods by an ulp and the symmetry the order of the image
# sums (worst of 20,000 random pairs: 4e-15, 9e-14 and 3e-12)
PROPERTY_ATOL = (1e-13, 1e-12, 1e-10)


def assert_derivatives_close(actual, expected):
    for a, e, atol in zip(actual, expected, PROPERTY_ATOL):
        np.testing.assert_allclose(a, e, rtol=0.0, atol=atol)


class TestGreenProperties:
    """Symmetry, periodicity and orientation of G and its derivatives on
    rectangular tori, for pairs at least 0.05 apart."""

    pairs = dict(
        lx=st.floats(0.25, 4.0),
        x=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        p=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )

    @staticmethod
    def _placed(lx, x, p):
        """The torus and the pair, given as fractions of its periods."""
        geom = lv.TorusGreen(lx)
        periods = np.array([lx, 1.0 / lx])
        x, p = np.multiply(x, periods), np.multiply(p, periods)
        assume(float(lv.torus_distance(geom, x, p)) >= 0.05)
        return geom, periods, x, p

    @given(**pairs)
    @settings(max_examples=100, deadline=None)
    def test_exchange_symmetry(self, lx, x, p):
        # G and Hess G are even in the displacement, grad G odd
        geom, _, x, p = self._placed(lx, x, p)
        g, grad, hess = green_derivatives(geom, p, x)
        assert_derivatives_close(green_derivatives(geom, x, p), (g, -grad, hess))

    @given(**pairs)
    @settings(max_examples=100, deadline=None)
    def test_periodicity(self, lx, x, p):
        geom, periods, x, p = self._placed(lx, x, p)
        here = green_derivatives(geom, x, p)
        for shift in np.diag(periods):
            assert_derivatives_close(green_derivatives(geom, x + shift, p), here)

    @given(**pairs)
    @settings(max_examples=100, deadline=None)
    def test_orientation_identity(self, lx, x, p):
        # TorusGreen(lx) is TorusGreen(1/lx) with the coordinates exchanged
        geom, _, x, p = self._placed(lx, x, p)
        g, grad, hess = green_derivatives(lv.TorusGreen(1.0 / lx), x[::-1], p[::-1])
        assert_derivatives_close(
            green_derivatives(geom, x, p), (g, grad[::-1], hess[::-1, ::-1])
        )


class TestKernelBlocks:
    @pytest.mark.parametrize("lx", [1.0, 0.4])  # 0.4: the long side is y
    def test_one_call_matches_point_by_point(self, lx):
        # two full blocks and a block of one point
        geom = lv.TorusGreen(lx)
        n = 2 * green._BLOCK + 1
        rng = np.random.default_rng(17)
        d = green.wrap_displacement(geom, rng.random((n, 2)) * [lx, 1.0 / lx])
        for order in (0, 1, 2):
            whole = green._green(geom, d, order)
            single = np.array([green._green(geom, w, order) for w in d])
            assert whole.shape == single.shape == (n,) + (2,) * order
            # derivatives: relative to the largest entry, as the sums over
            # images of a lone point and of a block round differently
            scale = 1.0 if order == 0 else np.abs(whole).max()
            np.testing.assert_allclose(single, whole, rtol=0.0, atol=1e-14 * scale)


class TestKernelOracle:
    # beta = lx^2 (or 1/lx^2): 1, 6.25 (long side y), 16, 161.3 and 163.8,
    # and 12.7 and 12.8, either side of 12.73, where the images beyond m = 0 go
    @pytest.mark.parametrize(
        "lx", [1.0, 0.4, 4.0, 1.0 / 12.7, 12.8, math.sqrt(12.7), math.sqrt(12.8)]
    )
    def test_matches_image_by_image_kernel(self, lx, image_by_image_green):
        geom = lv.TorusGreen(lx)
        periods = np.array([lx, 1.0 / lx])
        rng = np.random.default_rng(23)
        angles = rng.uniform(0.0, 2.0 * math.pi, 16)
        d = np.concatenate(
            [
                rng.uniform(-0.5, 0.5, (300, 2)) * periods,
                # u = +-1/2 exactly on either side, with b anywhere
                np.outer([1, -1, 1, -1], periods * [0.5, 0.0])
                + np.outer([0, 0, 1, -1], periods * [0.0, 0.3]),
                np.outer([1, -1, 1, -1], periods * [0.0, 0.5])
                + np.outer([0, 0, 1, -1], periods * [0.2, 0.0]),
                # just outside the 1e-8 ball around the pole
                1.0001e-8 * np.stack([np.cos(angles), np.sin(angles)], axis=-1),
            ]
        )
        w = green.wrap_displacement(geom, d)
        for order in (0, 1, 2):
            got = green._green(geom, w, order)
            want = image_by_image_green(geom, w, order)
            # per point, relative to its largest entry (|Hess G| ~ 1e16 at the pole)
            axes = tuple(range(1, order + 1))
            scale = np.maximum(1.0, np.abs(want).max(axis=axes, initial=0.0))
            err = np.abs(got - want).max(axis=axes, initial=0.0)
            assert np.all(err <= 1e-14 * scale), (order, float(np.max(err / scale)))


# the kernel wraps raw displacements and checks the floor in its blocks
WRAP_TORI = [1.0, 0.4, 3.0]  # square, long side along y, and beta = 9


class TestKernelWrap:
    @staticmethod
    def _ring(n, radius):
        angles = np.random.default_rng(29).uniform(0.0, 2.0 * math.pi, n)
        return radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    @pytest.mark.parametrize("lx", WRAP_TORI)
    def test_raw_matches_wrapped(self, lx):
        # up to 3 whole periods on either axis
        geom = lv.TorusGreen(lx)
        periods = np.array([lx, 1.0 / lx])
        rng = np.random.default_rng(31)
        w = rng.uniform(-0.5, 0.5, (400, 2)) * periods
        w = w[lv.torus_distance(geom, w, np.zeros(2)) > 0.05 * min(periods)]
        d = w + rng.integers(-3, 4, w.shape) * periods
        for order in (0, 1, 2):
            got = green._green(geom, d, order)
            want = green._green(geom, green.wrap_displacement(geom, d), order)
            # per point, relative to its largest entry (G itself crosses 0).
            # Both wraps round d/L - k, which is up to 3 whole periods, so
            # they differ by an ulp of 3 periods; near the pole the
            # derivatives see that relative to |d| (2.8e-14 at lx = 0.4 and
            # 3.4e-14 at lx = 3 for the Hessian), while a wrong wrap is off
            # by O(1).
            axes = tuple(range(1, order + 1))
            scale = np.maximum(1.0, np.abs(want).max(axis=axes, initial=0.0))
            err = np.abs(got - want).max(axis=axes, initial=0.0)
            assert np.all(err <= 1e-13 * scale), (order, float(np.max(err / scale)))

    @pytest.mark.parametrize("lx", WRAP_TORI)
    @pytest.mark.parametrize("fn", [lv.green_eval, lv.green_gradient])
    def test_pole_images_rejected(self, lx, fn):
        geom = lv.TorusGreen(lx)
        p = np.array([0.3 * lx, 0.7 / lx])
        for k in range(-3, 4):
            for j in range(-3, 4):
                image = p + [k * lx, j / lx]
                for step in ([1e-10, 0.0], [0.0, -1e-10], [-1e-10, 1e-10]):
                    with pytest.raises(SingularityError):
                        fn(geom, image + step, p)

    @pytest.mark.parametrize("lx", WRAP_TORI)
    @pytest.mark.parametrize("fn", [lv.green_eval, lv.green_gradient])
    def test_pole_in_the_last_block_rejected(self, lx, fn):
        # two full blocks pass the test, and the one point of the third
        # block sits 0.99e-8 from the pole, two periods away
        geom = lv.TorusGreen(lx)
        periods = np.array([lx, 1.0 / lx])
        p = np.array([0.1 * lx, 0.4 / lx])
        rng = np.random.default_rng(37)
        x = p + (rng.uniform(0.1, 0.4, (2 * green._BLOCK + 1, 2)) * periods)
        x[-1] = p + 2.0 * periods + self._ring(1, 0.99e-8)[0]
        fn(geom, x[:-1], p)
        with pytest.raises(SingularityError):
            fn(geom, x, p)

    @pytest.mark.parametrize("lx", WRAP_TORI)
    @pytest.mark.parametrize("fn", [lv.green_eval, lv.green_gradient])
    def test_ring_outside_the_floor_accepted(self, lx, fn):
        # the 1.0001e-8 ring of TestKernelOracle, around a pole at 0 and
        # around its image a period away on each axis
        geom = lv.TorusGreen(lx)
        ring = self._ring(16, 1.0001e-8)
        for p in ([0.0, 0.0], [lx, -1.0 / lx]):
            assert np.all(np.isfinite(fn(geom, ring, np.array(p))))
        # two points inside the block test's rounding margin, where the
        # wrapped length decides (x - p exact: the pole at 0)
        edge = 1e-8 * (1.0 + 1e-13)
        assert np.all(np.isfinite(fn(geom, np.array([[edge, 0.0], [0.0, -edge]]), np.zeros(2))))

    def test_results_share_no_memory(self, geometry):
        # a work array kept between calls would alias one result to the next
        x = np.random.default_rng(41).random((300, 2))
        first = lv.green_eval(geometry, x, np.array([0.5, 0.5]))
        kept = first.copy()
        second = lv.green_gradient(geometry, x, np.array([0.1, 0.9]))
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(first, second)


# square, narrow (beta = 4) with the long side along x and along y, and beta = 9
TORI = [1.0, 2.0, 0.5, 3.0]


class TestGreenHessian:
    @pytest.mark.parametrize("lx", TORI)
    def test_matches_central_difference(self, lx):
        geom = lv.TorusGreen(lx)
        half = np.array([lx, 1.0 / lx]) / 2.0
        rng = np.random.default_rng(5)
        # random displacements plus some whose wrapped value sits at +-L/2,
        # so that the difference stencil straddles the wrap
        ds = [(rng.random(2) - 0.5) * 2.0 * half for _ in range(12)]
        ds += [half * s + [0.0, 0.1 / lx] for s in ([1, 0], [-1, 0])]
        ds += [half * s + [0.1 * lx, 0.0] for s in ([0, 1], [0, -1])]
        ds += [half * (1.0 - 1e-9), -half]
        eps = 1e-6
        for d in ds:
            if float(lv.torus_distance(geom, d, np.zeros(2))) < 0.1:
                continue
            fd = np.array(
                [
                    (
                        lv.green_gradient(geom, d + eps * e, np.zeros(2))
                        - lv.green_gradient(geom, d - eps * e, np.zeros(2))
                    )
                    / (2 * eps)
                    for e in np.eye(2)
                ]
            )
            hess = hessian(geom, d)
            np.testing.assert_allclose(
                hess, fd, rtol=0, atol=1e-6 * max(np.abs(hess).max(), 1.0)
            )

    @pytest.mark.parametrize("lx", TORI)
    def test_trace_is_one(self, lx):
        # -Delta G = delta - 1 on the unit-area torus: off the pole Delta G = 1
        geom = lv.TorusGreen(lx)
        d = (np.random.default_rng(6).random((200, 2)) - 0.5) * [lx, 1.0 / lx]
        d = d[lv.torus_distance(geom, d, np.zeros(2)) > 0.01]
        hess = hessian(geom, d)
        np.testing.assert_allclose(np.trace(hess, axis1=-2, axis2=-1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("lx", TORI)
    def test_symmetric_and_even(self, lx):
        geom = lv.TorusGreen(lx)
        d = (np.random.default_rng(7).random((50, 2)) - 0.5) * [lx, 1.0 / lx]
        d = d[lv.torus_distance(geom, d, np.zeros(2)) > 0.01]
        hess = hessian(geom, d)
        np.testing.assert_array_equal(hess, np.swapaxes(hess, -1, -2))
        np.testing.assert_allclose(hessian(geom, -d), hess, rtol=1e-12, atol=1e-12)


class TestRegularPart:
    def test_frozen_value_and_eta_oracle(self, geometry):
        val, _ = lv.regular_part(geometry, np.array([0.3, 0.3]))
        assert val == pytest.approx(GAMMA_DIAG, abs=1e-10)
        eta_i = gamma_fn(0.25) / (2.0 * math.pi**0.75)
        closed_form = -math.log(2.0 * math.pi * eta_i**2) / (2.0 * math.pi)
        assert val == pytest.approx(closed_form, abs=1e-10)

    def test_translation_invariance(self, geometry):
        rng = np.random.default_rng(13)
        vals = [
            lv.regular_part(geometry, rng.random(2))[0] for _ in range(5)
        ]
        assert max(vals) - min(vals) < 1e-8

    def test_gradient_vanishes(self, geometry):
        _, grad = lv.regular_part(geometry, np.array([0.62, 0.17]))
        assert np.max(np.abs(grad)) < 1e-8

    @pytest.mark.parametrize("lx", [0.3, 0.5, 0.8, 2.0])
    def test_dedekind_eta_oracle(self, lx):
        # Kronecker's limit formula: gamma = -(1/2 pi) log(2 pi Lx |eta(i beta)|^2)
        geom = lv.TorusGreen(lx)
        q = math.exp(-2.0 * math.pi * lx * lx)  # beta = Lx / Ly = Lx^2
        eta = q ** (1.0 / 24.0) * math.prod(1.0 - q**n for n in range(1, 200))
        oracle = -math.log(2.0 * math.pi * lx * eta**2) / (2.0 * math.pi)
        val, _ = lv.regular_part(geom, np.array([0.1, 0.2]))
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_offset_average(self, geometry):
        # the 4-direction average cancels the odd terms; the rest is O(h^2)
        p, h = np.array([0.3, 0.6]), 1e-3
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        avg = float(np.mean(lv.green_eval(geometry, p + h * dirs, p)))
        avg += math.log(h) / (2.0 * math.pi)
        assert abs(avg - lv.regular_part(geometry, p)[0]) < 1e-5

    @pytest.mark.parametrize(
        "p", [[0.1], [0.1, 0.2, 0.3], [math.nan, 0.2], [0.1, math.inf]]
    )
    def test_rejects_bad_point(self, geometry, p):
        with pytest.raises(InputError):
            lv.regular_part(geometry, np.array(p))
        # the Green entry points take either argument with a last axis of 2
        other = np.full(len(p), 0.5)
        for fn in (lv.green_eval, lv.green_gradient, lv.torus_distance):
            for x, q in ((p, other), (other, p)):
                with pytest.raises(InputError):
                    fn(geometry, x, q)

    def test_rejects_unbroadcastable_points(self, geometry):
        rng = np.random.default_rng(3)
        x, p = rng.random((3, 2)), rng.random((4, 2))
        for fn in (lv.green_eval, lv.green_gradient, lv.torus_distance):
            with pytest.raises(InputError, match=r"\(3, 2\).*\(4, 2\)"):
                fn(geometry, x, p)


class TestGeometryValidation:
    def test_rectangle_supported(self):
        geom = lv.TorusGreen(2.0)
        x, p = np.array([0.7, 0.1]), np.array([1.6, 0.4])
        assert lv.green_eval(geom, x, p) == pytest.approx(
            lv.green_eval(geom, p, x), abs=1e-12
        )
        eps = 1e-6
        grad = lv.green_gradient(geom, x, p)
        for axis in range(2):
            bump = np.zeros(2)
            bump[axis] = eps
            fd = (
                lv.green_eval(geom, x + bump, p) - lv.green_eval(geom, x - bump, p)
            ) / (2 * eps)
            assert abs(grad[axis] - fd) < 1e-6

    def test_rejects_bad_lattices(self):
        # the one free side: ly = 1/lx keeps the area at 1
        for lx in (0.0, -1.0, math.nan, "x"):
            with pytest.raises(InputError, match="lx"):
                lv.TorusGreen(lx)

    # The extreme sides TorusGreen accepts: past them 3 pi max(lx, 1/lx)^2,
    # the nearest images' scale in the kernel, overflows.
    LX_EDGES = (2.2896957801606944e-154, 4.36739242245456e153)

    def test_rejects_sides_past_the_finite_kernel(self):
        lo, hi = self.LX_EDGES
        outside = (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), 1e-154, 1e154, 5e-324)
        for lx in outside:
            with pytest.raises(InputError, match="out of range"):
                lv.TorusGreen(lx)

    @pytest.mark.parametrize("lx", [*LX_EDGES, 1e-150, 1e150])
    def test_finite_just_inside(self, lx):
        # warnings are errors: no intermediate overflows either, on points
        # that reach |u| = 1/2 and |b| = 1/2
        geom = lv.TorusGreen(lx)
        periods = np.array([geom.lx, geom.ly])
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.random((64, 2)), [[0.5, 0.5], [0.5, 0.2], [0.2, 0.5]]]) * periods
        x = x[lv.torus_distance(geom, x, np.zeros(2)) > 1e-8]
        w = green.wrap_displacement(geom, x)
        for order in (0, 1, 2):
            assert np.all(np.isfinite(green._green(geom, w, order)))
        assert np.all(np.isfinite(lv.green_eval(geom, x, np.zeros(2))))
        assert math.isfinite(lv.regular_part(geom, np.zeros(2))[0])
        assert np.all(np.isfinite(lv.gstar_matrix(geom, x[:4]).values))


class TestGeometryOnce:
    """TorusGreen computes what the geometry fixes at construction, as plain
    attributes beside its one field lx."""

    DERIVED = ("_periods", "_l1", "_l2", "_swap", "_beta", "_weights", "_signs", "_gamma")

    def test_holds_exactly_the_derived_values(self):
        assert set(vars(lv.TorusGreen(2.0))) == {"lx", *self.DERIVED}

    def test_replace_recomputes_every_derived_value(self):
        geom = lv.TorusGreen(2.0)
        for lx in (0.4, 0.25):  # each value differs from lx = 2's
            moved, fresh = dataclasses.replace(geom, lx=lx), lv.TorusGreen(lx)
            for name in self.DERIVED:
                assert np.array_equal(getattr(moved, name), getattr(fresh, name)), name
                assert not np.array_equal(getattr(moved, name), getattr(geom, name)), name

    def test_compares_and_hashes_by_lx(self):
        a, b = lv.TorusGreen(2.0), lv.TorusGreen(2.0)
        assert a == b and hash(a) == hash(b)
        assert a != lv.TorusGreen(0.5)  # the same torus turned, another lx
        assert [f.name for f in dataclasses.fields(lv.TorusGreen)] == ["lx"]

    def test_entry_points_read_the_stored_geometry(self, monkeypatch):
        calls = []
        for name in ("_image_table", "_diagonal_gamma"):
            fn = getattr(green, name)
            monkeypatch.setattr(green, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        geom = lv.TorusGreen(0.4)
        assert calls == ["_image_table", "_diagonal_gamma"]
        pts = np.random.default_rng(7).random((5, 2)) * geom._periods
        lv.gstar_matrix(geom, pts)
        lv.regular_part(geom, pts[0])
        lv.green_eval(geom, pts[1:], pts[0])
        lv.green_gradient(geom, pts[1:], pts[0])
        for order in (0, 1, 2):
            green._green(geom, pts[1:] - pts[0], order)
        assert calls == ["_image_table", "_diagonal_gamma"]


class TestGStarMatrix:
    def test_single_point(self, geometry):
        out = lv.gstar_matrix(geometry, [[0.2, 0.8]])
        assert out.values.shape == (1, 1)
        assert out.values[0, 0] == pytest.approx(GAMMA_DIAG, abs=1e-10)

    def test_two_points_structure(self, geometry):
        out = lv.gstar_matrix(geometry, [[0.1, 0.1], [0.6, 0.6]])
        assert out.values[0, 0] == out.values[1, 1]
        assert out.values[0, 1] == out.values[1, 0]
        assert out.values[0, 1] == pytest.approx(G_HALF_HALF, abs=1e-10)

    def test_permutation(self, geometry):
        pts = [[0.1, 0.2], [0.5, 0.9], [0.8, 0.4]]
        a = lv.gstar_matrix(geometry, pts).values
        perm = [2, 0, 1]
        b = lv.gstar_matrix(geometry, [pts[i] for i in perm]).values
        np.testing.assert_allclose(b, a[np.ix_(perm, perm)], atol=1e-13)

    def test_coincident_points_rejected(self, geometry):
        with pytest.raises(GeometryError):
            lv.gstar_matrix(geometry, [[0.1, 0.1], [0.1, 0.1 + 1e-5]])
        # the first close pair is named, also across the periodic boundary
        pts = [[0.5, 0.5], [0.2, 0.99999], [0.2, 1e-5], [0.9, 0.1], [0.9, 0.1]]
        with pytest.raises(GeometryError, match="points 1 and 2 "):
            lv.gstar_matrix(geometry, pts)

    def test_matches_pairwise_kernels(self, geometry):
        # one kernel call for G* and one for its gradient give the values of
        # the checked pairwise entry points
        rng = np.random.default_rng(17)
        pts = rng.random((6, 2))
        gammas = (0.0, -0.5, -0.2, 0.0, -0.7, -0.1)
        cfg = lv.BlowupConfiguration(
            points=pts,
            strengths=tuple(lv.SingularityProfile(g) for g in gammas),
            matrix=lv.CoefficientMatrix.from_entries([[1.0]]),
            rho=[8.0 * math.pi],
            h_fields=(lv.ConstantField(1.0),),
            curvature=[0.0] * 6,
            D=[0.0],
            alpha=[0.0],
        )
        values = cfg.gstar.values
        assert np.all(cfg.points == pts)
        for t in range(6):
            assert values[t, t] == pytest.approx(GAMMA_DIAG, abs=1e-12)
            expected = np.zeros(2)
            for s in range(6):
                if s != t:
                    pair = lv.green_eval(geometry, pts[t], pts[s])
                    assert values[t, s] == pytest.approx(pair, rel=1e-15, abs=1e-15)
                    expected += cfg.mus[s] * lv.green_gradient(geometry, pts[t], pts[s])
            np.testing.assert_allclose(
                cfg.gstar_gradient(t), expected, rtol=1e-15, atol=1e-15
            )


class TestAIntegral:
    # fixture value frozen after quadrature refinement stabilized to 1e-5
    FIXTURE_A_005 = 1.9258955483

    def test_frozen_regression(self, singular_point_config):
        cfg = singular_point_config
        val = lv.a_integral(cfg, 0, 0, 0.05)
        assert val == pytest.approx(self.FIXTURE_A_005, abs=1e-5)

    def test_mass_two_is_one_over_mu(self, matrix1):
        # m = 2 gives the integral weight zero: A = 1 / mu_t exactly
        cfg = lv.BlowupConfiguration(
            points=[[0.31, 0.62]],
            strengths=(lv.SingularityProfile(-0.5),),
            matrix=matrix1,
            rho=[2.0 * math.pi],
            h_fields=(lv.ConstantField(1.0),),
            curvature=[0.0],
            D=[0.0],
            alpha=[0.0],
        )
        assert cfg.frak.minimum == 2.0
        assert lv.a_integral(cfg, 0, 0, 0.05) == 2.0

    def test_independent_quadrature_oracle(self, singular_point_config):
        # dumb polar midpoint grid over the square cell, written without the
        # production quadrature machinery
        cfg = singular_point_config
        geom = cfg.geometry
        p = cfg.points[0]
        fm, mu_t, delta0 = 3.0, 0.5, 0.05
        gamma_pp = lv.regular_part(geom, p)[0]
        total = 0.0
        n_theta, n_r = 360, 800
        thetas = (np.arange(n_theta) + 0.5) * 2.0 * np.pi / n_theta
        for theta in thetas:
            c, s = math.cos(theta), math.sin(theta)
            r_out = 0.5 / max(abs(c), abs(s))
            edges = np.linspace(delta0, r_out, n_r + 1)
            mids = 0.5 * (edges[1:] + edges[:-1])
            x = p[None, :] + mids[:, None] * np.array([c, s])
            reg = lv.green_eval(geom, x, p) + np.log(mids) / (2.0 * np.pi)
            f = (
                mids ** ((2.0 - fm) * mu_t - 2.0)
                * np.exp(2.0 * np.pi * fm * mu_t * (reg - gamma_pp))
                * mids
            )
            total += float(f @ np.diff(edges)) * 2.0 * np.pi / n_theta
        oracle = delta0 ** (mu_t * (2.0 - fm)) / mu_t - (fm - 2.0) / (
            2.0 * np.pi
        ) * total
        production = lv.a_integral(cfg, 0, 0, delta0)
        assert production == pytest.approx(oracle, abs=5e-4)

    def test_quadrature_refinement_stable(self, singular_point_config, monkeypatch):
        cfg = singular_point_config
        monkeypatch.setattr(blowup, "EPSREL", 1e-6)
        coarse = lv.a_integral(cfg, 0, 0, 0.05)
        monkeypatch.setattr(blowup, "EPSREL", 1e-9)
        fine = lv.a_integral(cfg, 0, 0, 0.05)
        assert abs(coarse - fine) < 1e-5

    def test_cauchy_behavior(self, singular_point_config):
        cfg = singular_point_config
        vals = [lv.a_integral(cfg, 0, 0, d) for d in (0.02, 0.01, 0.005)]
        gaps = np.abs(np.diff(vals))
        assert gaps[1] < gaps[0]
        # gap law ~ delta0^(mu_t (2 - m) + 2) = delta0^1.5 here
        assert gaps[0] / gaps[1] == pytest.approx(2.0**1.5, rel=0.1)

    def test_translation_invariance(self, singular_point_config):
        cfg = singular_point_config
        shifted = lv.BlowupConfiguration(
            points=cfg.points + np.array([0.37, -0.21]),
            strengths=cfg.strengths,
            matrix=cfg.matrix,
            rho=cfg.rho,
            h_fields=cfg.h_fields,
            curvature=cfg.curvature,
            D=cfg.D,
            alpha=cfg.alpha,
            geometry=cfg.geometry,
        )
        a = lv.a_integral(cfg, 0, 0, 0.04)
        b = lv.a_integral(shifted, 0, 0, 0.04)
        assert abs(a - b) < 1e-8

    def test_oversized_ball_rejected(self, singular_point_config):
        cfg = singular_point_config
        with pytest.raises(GeometryError):
            lv.a_integral(cfg, 0, 0, 0.6)
        for delta0 in (0.0, -0.02, math.nan):
            with pytest.raises(InputError, match="delta0"):
                lv.a_integral(cfg, 0, 0, delta0)

    @pytest.mark.parametrize(
        "field",
        [lv.ConstantField(1.0), lv.SinusoidalField(0.3, (1, 0), phase=0.4)],
        ids=["constant", "sinusoidal"],
    )
    def test_dblquad_oracle(self, singular_point_config, field):
        # scipy's nested adaptive quadrature in (theta, r) over the four
        # sectors of the square cell, with pointwise Green values
        from scipy import integrate

        base = singular_point_config
        cfg = lv.BlowupConfiguration(
            points=base.points,
            strengths=base.strengths,
            matrix=base.matrix,
            rho=base.rho,
            h_fields=(field, base.h_fields[1]),
            curvature=base.curvature,
            D=base.D,
            alpha=base.alpha,
        )
        geom, p = cfg.geometry, cfg.points[0]
        fm, mu_t, delta0 = 3.0, 0.5, 0.05
        gamma_pp = lv.regular_part(geom, p)[0]
        h_ref = float(field.value(p))

        def f(r, theta):
            x = p + r * np.array([math.cos(theta), math.sin(theta)])
            reg = lv.green_eval(geom, x, p) + math.log(r) / (2.0 * math.pi)
            return (
                r ** ((2.0 - fm) * mu_t - 1.0)
                * float(field.value(x)) / h_ref
                * math.exp(2.0 * math.pi * fm * mu_t * (reg - gamma_pp))
            )

        def edge(theta):
            return 0.5 / max(abs(math.cos(theta)), abs(math.sin(theta)))

        total = 0.0
        for k in range(4):
            lo = -math.pi / 4 + k * math.pi / 2
            val, _ = integrate.dblquad(
                f, lo, lo + math.pi / 2, delta0, edge, epsabs=0.0, epsrel=1e-12
            )
            total += val
        oracle = delta0 ** ((2.0 - fm) * mu_t) / mu_t - (fm - 2.0) / (
            2.0 * math.pi
        ) * total
        assert lv.a_integral(cfg, 0, 0, delta0) == pytest.approx(oracle, rel=1e-10)

    def test_green_call_budget(self, singular_point_config, monkeypatch):
        # one kernel call for a sector's first panel and one for both halves
        # of each bisection, (panels + 1) / 2 per sector: 28 calls for the 51
        # panels of one call per panel, against 1,699 calls for the former
        # per-ray quadrature
        kernel, cubature = blowup._green, blowup._cubature
        calls, sectors = [], []

        def counted(f, box):
            total, panels = cubature(f, box)
            sectors.append(panels)
            return total, panels

        monkeypatch.setattr(
            blowup, "_green", lambda *a, **k: calls.append(1) or kernel(*a, **k)
        )
        monkeypatch.setattr(blowup, "_cubature", counted)
        lv.a_integral(singular_point_config, 0, 0, 0.005)
        assert sectors == [9, 11, 11, 11, 9]
        assert len(calls) == sum((n + 1) // 2 for n in sectors) == 28

    def test_panel_bound(self, singular_point_config, monkeypatch):
        monkeypatch.setattr(blowup, "MAX_PANELS", 3)
        with pytest.raises(GeometryError, match="3 panels"):
            lv.a_integral(singular_point_config, 0, 0, 0.005)

    def test_continuity_near_mass_two(self, matrix1):
        # near m = 2 the ball term approaches 1/mu_t and the integral is small
        def config_with_mass(fm):
            return lv.BlowupConfiguration(
                points=[[0.5, 0.5]],
                strengths=(lv.SingularityProfile(-0.5),),
                matrix=matrix1,
                rho=[fm * math.pi],  # normalized mass = rho / (2 pi n_L), n_L = 1/2
                h_fields=(lv.ConstantField(1.0),),
                curvature=[0.0],
                D=[0.0],
                alpha=[0.0],
            )

        vals = []
        for fm in (2.02, 2.05, 2.1):
            cfg = config_with_mass(fm)
            assert cfg.frak.minimum == pytest.approx(fm, rel=1e-12)
            vals.append(lv.a_integral(cfg, 0, 0, 0.05))
        diffs = np.abs(np.diff(vals))
        assert np.all(diffs < 0.35)  # continuous in the mass parameter
        ball_term = 0.05 ** (0.5 * (2.0 - 2.02)) / 0.5
        assert ball_term == pytest.approx(2.0, rel=0.05)


def test_cell_corners_catch_short_edges(geometry):
    # the shortest edge of this cell subtends 1.4e-3 rad, less than one step
    # of a 1440-step angular scan; 2e6-angle sampling confirms 8 corners
    points = np.array(
        [
            [0.49742269548761897, 0.5293121601967704],
            [0.7857857007138075, 0.4146558493556708],
            [0.7344835717887294, 0.7111428779897498],
        ]
    )
    corners = _cell_corner_angles(*_cell_geometry(geometry, points, 0))
    assert len(corners) == 8
    assert np.all(np.diff(corners) > 1e-6)


def test_square_cell_corners(geometry):
    # one point: the cell is the unit square, and three bisectors meet in
    # each corner
    corners = _cell_corner_angles(*_cell_geometry(geometry, np.array([[0.3, 0.4]]), 0))
    np.testing.assert_allclose(corners, [math.pi / 4 * k for k in (1, 3, 5, 7)], atol=1e-14)


def test_two_point_cell_integral_smoke(geometry, matrix1):
    # two singular points: the foreign-point factor stays integrable and the
    # quadrature resolves the shared cell boundary
    cfg = lv.BlowupConfiguration(
        points=[[0.25, 0.25], [0.75, 0.75]],
        strengths=(lv.SingularityProfile(-0.5), lv.SingularityProfile(-0.5)),
        matrix=matrix1,
        rho=[3.0 * 2.0 * math.pi],  # normalized mass 3 at level 1
        h_fields=(lv.ConstantField(1.0),),
        curvature=[0.0, 0.0],
        D=[0.0],
        alpha=[0.0],
    )
    val = lv.a_integral(cfg, 0, 0, 0.05)
    half = lv.a_integral(cfg, 0, 1, 0.05)
    assert np.isfinite(val)
    # symmetric configuration: both cells give the same value
    assert val == pytest.approx(half, rel=1e-7)
