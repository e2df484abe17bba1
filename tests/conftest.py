"""Shared fixtures: the three closed-form solution fixtures and geometry.

F1: scalar, gamma = 0, U = -2 log(1 + r^2/8); sigma = 4, m = 4, D = log 64.
F2: scalar, gamma = -1/2, U = -2 log(1 + r/2); sigma = 2, m = 2, D = log 4.
F3: n = 2 symmetric, A = [[1,2],[2,1]], U_i = -2 log(1 + 3 r^2/8);
    sigma = 4/3, m = 4, D = log(64/9).
"""

import math

import numpy as np
import pytest

import liouville as lv


@pytest.fixture(scope="session")
def matrix1():
    return lv.CoefficientMatrix.from_entries([[1.0]])


@pytest.fixture(scope="session")
def matrix12():
    return lv.CoefficientMatrix.from_entries([[1.0, 2.0], [2.0, 1.0]])


@pytest.fixture(scope="session")
def f1_profile(matrix1):
    spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(0.0), np.array([0.0]))
    return lv.integrate(spec, r_max=1e4, tol=1e-10)


@pytest.fixture(scope="session")
def f1_summary(f1_profile):
    return lv.extract_summary(f1_profile)


@pytest.fixture(scope="session")
def f2_profile(matrix1):
    spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(-0.5), np.array([0.0]))
    return lv.integrate(spec, r_max=1e4, tol=1e-10)


@pytest.fixture(scope="session")
def f2_deep_profile(matrix1):
    # r_max = 1e8 so the strength transform (which square-roots the radial
    # range) still leaves two decades beyond the turning region
    spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(-0.5), np.array([0.0]))
    return lv.integrate(spec, r_max=1e8, tol=1e-10)


@pytest.fixture(scope="session")
def f2_summary(f2_deep_profile):
    return lv.extract_summary(f2_deep_profile)


@pytest.fixture(scope="session")
def f3_profile(matrix12):
    spec = lv.ProblemSpec(matrix12, lv.SingularityProfile(0.0), np.array([0.0, 0.0]))
    return lv.integrate(spec, r_max=1e4, tol=1e-10)


@pytest.fixture(scope="session")
def f3_summary(f3_profile):
    return lv.extract_summary(f3_profile)


@pytest.fixture(scope="session")
def geometry():
    return lv.TorusGreen()


def _fourier_green(lx, d, n_modes=400):
    """G and grad G on the torus (lx, 1/lx) by the Fourier-mode series.

    An independent form of G: two images in closed form along x plus
    n_modes Fourier modes along y, each mode a geometric series over the
    remaining images. Slow to converge when lx is small, hence 400 modes.
    """
    two_pi = 2.0 * math.pi
    ly, beta = 1.0 / lx, lx * lx
    d = np.asarray(d, dtype=float)
    u, b = np.mod(d[..., 0] / lx, 1.0), d[..., 1] / ly
    w_lo = np.exp(-two_pi * beta * u + 1j * two_pi * b)
    w_hi = np.exp(-two_pi * beta * (1.0 - u) + 1j * two_pi * b)
    value = (lx * lx / 2.0) * (u * u - u + 1.0 / 6.0) - (
        np.log(np.abs(1.0 - w_lo)) + np.log(np.abs(1.0 - w_hi))
    ) / two_pi
    r_lo, r_hi = w_lo / (1.0 - w_lo), w_hi / (1.0 - w_hi)
    g1 = (lx / 2.0) * (2.0 * u - 1.0) + (beta / lx) * (r_hi.real - r_lo.real)
    g2 = -(r_lo.imag + r_hi.imag) / ly
    for k in range(1, n_modes + 1):
        qk = math.exp(-two_pi * k * beta)
        if qk == 0.0:  # this mode and all later ones are below double precision
            break
        ek = np.exp(-two_pi * k * beta * u)
        weight = qk / (1.0 - qk)
        value = value + np.cos(two_pi * k * b) * weight * (ek + qk / ek) / (two_pi * k)
        g1 = g1 - (beta / lx) * np.cos(two_pi * k * b) * weight * (ek - qk / ek)
        g2 = g2 - np.sin(two_pi * k * b) * weight * (ek + qk / ek) / ly
    return value, np.stack([g1, g2], axis=-1)


@pytest.fixture(scope="session")
def fourier_green():
    return _fourier_green


# Dormand-Prince 5(4) tableau; row i of _DP_A gives stage i's value, and
# row 6 is the 5th-order solution (FSAL)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
# difference between the 5th- and 4th-order weights (local error estimate)
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _dp5_step_basis():
    """The (4, 7 * 11 + 7 * 18) step matrix of the DP5(4) weight form.

    F = [W_0 .. W_6, U, V, mass, logmass, G_0 .. G_6] with G_l = -A W_l;
    stage j's U is U + c_j h V + h^2 (A^2)_j . G, U_6 is the new U, and the
    end rows are V, mass, logmass and the error rows of U, V, mass and
    logmass, each with coefficients in (1, h, h^2, h s).
    """
    b, w, g = _DP_A[6], slice(0, 7), slice(11, 18)
    stage = np.zeros((4, 7, 11))
    stage[0, :, 0] = 1.0
    stage[1, :, 1] = _DP_C
    stage[2, :, 4:] = _DP_A @ _DP_A
    end = np.zeros((4, 7, 18))
    end[0, [0, 1, 2], [8, 9, 10]] = 1.0
    end[1, 0, g] = b
    end[1, 1, w] = b
    end[2, 2, w], end[3, 2, w] = b * _DP_C, b
    end[2, 3, g] = _DP_E @ _DP_A
    end[1, 4, g] = _DP_E
    end[1, 5, w] = _DP_E
    end[2, 6, w], end[3, 6, w] = _DP_E * _DP_C, _DP_E
    return np.hstack([stage.reshape(4, -1), end.reshape(4, -1)])


def _dp5_integrate(spec, r_max, tol, sensitivity=False):
    """The DP5(4) weight-form loop that ``liouville.integrate`` ran before DOP853.

    The same origin series, PI controller (order-5 exponents) and error
    norm (column 0, mass rows included); the state and its sensitivities
    are one (18, n, 1 + n) array. Unlike ``integrate`` it steps the system
    at the spec's own strength, from the start radius that loop used, so it
    checks the strength map too. Returns a RadialProfile, so
    ``extract_summary`` reads it like the solver's own.
    """
    from liouville import radial

    n, mu, a_mat = spec.n, spec.singularity.mu, spec.matrix.entries
    s_max_coeff = float(np.max(a_mat @ np.exp(spec.alpha0)))
    r_start = 1e-6
    target = 1e-8 * (2.0 * mu) ** 2 / s_max_coeff
    if r_start ** (2.0 * mu) > target:
        r_start = max(target ** (1.0 / (2.0 * mu)), 1e-250)
    s0, s_end = math.log(r_start), math.log(r_max)
    seed, seed_sens = radial._series(spec, r_start, sensitivity)
    seed[1] *= r_start
    block = seed.reshape(-1, 1)
    if sensitivity:
        block = np.hstack([block, seed_sens])
    q = block.shape[1]

    basis = _dp5_step_basis()
    weights = np.empty((18, n, q))
    flat = weights.reshape(18, n * q)
    state = weights[7:11]
    state[:] = block.reshape(4, n, q)
    new = np.empty((8, n, q))
    u_stage = [weights[7], *np.empty((5, n, q)), new[0]]

    def weigh(j, s_j):
        w = np.exp(2.0 * mu * s_j + u_stage[j][:, 0])
        weights[j] = w[:, None] * u_stage[j]
        weights[j, :, 0] = w
        weights[11 + j] = -a_mat @ weights[j]

    atol = tol * 1e-3
    s, h, err_prev = s0, 1e-2, 1.0
    weigh(0, s)
    nodes, states = [s], [state[:, :, 0].copy()]
    size = np.abs(states[0])
    for _ in range(radial.MAX_STEPS):
        if s_end - s <= 1e-13 * max(1.0, abs(s_end)):
            break
        h = min(h, s_end - s, 1.0)
        coef = np.dot((1.0, h, h * h, h * s), basis)
        for j in range(1, 7):
            row = coef[11 * j : 11 * j + 4 + j]
            u_stage[j][:] = (row @ flat[7 : 11 + j]).reshape(n, q)
            weigh(j, s + _DP_C[j] * h)
        new[1:] = (coef[7 * 11 :].reshape(7, 18) @ flat).reshape(7, n, q)
        size_new = np.abs(new[:4, :, 0])
        ratio = new[4:, :, 0] / (atol + tol * np.maximum(size, size_new))
        err = math.sqrt(float(np.vdot(ratio, ratio)) / ratio.size)
        if err <= 1.0:
            s += h
            state[:] = new[:4]
            weights[0::11] = weights[6::11]
            size = size_new
            nodes.append(s)
            states.append(state[:, :, 0].copy())
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0) if err > 0.0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err ** (-0.2))
    else:
        raise AssertionError("the DP5(4) oracle did not reach r_max")
    values, dvalues, mass, logmass = np.array(states).transpose(1, 0, 2)
    return lv.RadialProfile(
        spec=spec,
        grid=np.array(nodes),
        values=values,
        dvalues=dvalues,
        mass=mass,
        logmass=logmass,
        sensitivity=state[:, :, 1:].reshape(4 * n, n).copy() if sensitivity else None,
    )


@pytest.fixture(scope="session")
def dp5_integrate():
    return _dp5_integrate


def _four_coefficient_basis():
    """The (4, 13 * 17 + 11 * 30) step matrix the DOP853 step used before
    its stage rows gave the exponent: coefficients of (1, h, h^2, h s).

    F = [W_0 .. W_12, U, V, mass, logmass, G_0 .. G_12] with G_l = -A W_l;
    stage j's row over F[13:] gives U_j = U + c_j h V + h^2 (A^2)_j . G,
    U_12 is the new U, and the end rows over F are V, mass, logmass and
    the E5 and E3 error rows of U, V, mass and logmass.
    """
    from liouville import radial

    a, c, b = radial._A, radial._C, radial._A[12]
    w, g = slice(0, 13), slice(17, 30)
    stage = np.zeros((4, 13, 17))
    stage[0, :, 0] = 1.0
    stage[1, :, 1] = c
    stage[2, :, 4:] = a @ a
    end = np.zeros((4, 11, 30))
    end[0, [0, 1, 2], [14, 15, 16]] = 1.0
    end[1, 0, g] = b
    end[1, 1, w] = b
    end[2, 2, w], end[3, 2, w] = b * c, b
    for row, e in ((3, radial._E5), (7, radial._E3)):
        end[2, row, g] = e @ a
        end[1, row + 1, g] = e
        end[1, row + 2, w] = e
        end[2, row + 3, w], end[3, row + 3, w] = e * c, e
    return np.hstack([stage.reshape(4, -1), end.reshape(4, -1)])


class _FourCoefficientStep:
    """The DOP853 weight-form step as ``radial._Step`` took it before: per
    stage a dot for U_j, the exponent 2 mu (s + c_j h) + U_j added after
    it, exp and -A W_j. ``take(s, h)`` writes the new state to ``new[:4]``
    and the E5 and E3 error rows to ``new[4:]``.
    """

    basis = None

    def __init__(self, spec, s, state):
        from liouville import radial

        if _FourCoefficientStep.basis is None:
            _FourCoefficientStep.basis = _four_coefficient_basis()
        n = spec.n
        self.mu2 = 2.0 * spec.singularity.mu
        self.neg_a = -spec.matrix.entries
        self.coef = np.empty(self.basis.shape[1])
        self.end = self.coef[13 * 17 :].reshape(11, 30)
        self.f = np.zeros((30, n))
        self.f[13:17] = state
        self.new = np.empty((12, n))
        u_stage = [self.f[13], *np.empty((11, n)), self.new[0]]
        self.stages = [
            (float(radial._C[j]), self.coef[17 * j : 17 * j + 4 + j], self.f[13 : 17 + j],
             u, self.f[j], self.f[17 + j])
            for j, u in enumerate(u_stage)
        ]
        np.exp(self.mu2 * s + self.f[13], out=self.f[0])
        np.dot(self.neg_a, self.f[0], out=self.f[17])

    def take(self, s, h):
        np.dot((1.0, h, h * h, h * s), self.basis, out=self.coef)
        for c_j, row, reads, u, w, g in self.stages[1:]:
            np.dot(row, reads, out=u)
            np.exp(self.mu2 * (s + c_j * h) + u, out=w)
            np.dot(self.neg_a, w, out=g)
        np.dot(self.end, self.f, out=self.new[1:])


@pytest.fixture(scope="session")
def four_coefficient_step():
    return _FourCoefficientStep


def _image_by_image_green(geom, w, order=0):
    """G, grad G or Hess G at wrapped displacements w, image by image.

    The earlier form of ``green._green``: exp and expm1 of
    x = -2 pi beta |u + m| on every image m = -M..M of every point, with
    the same image count and formulas, and no blocks.
    """
    two_pi = 2.0 * math.pi
    swap = geom.lx < geom.ly
    l1, l2 = (geom.ly, geom.lx) if swap else (geom.lx, geom.ly)
    beta = l1 / l2
    reach = max(0, math.ceil(40.0 / (two_pi * beta) - 0.5))
    m = np.arange(-reach, reach + 1.0)[:, None]
    shape = w.shape[:-1]
    w = w.reshape(-1, 2)[:, ::-1] if swap else w.reshape(-1, 2)
    u, b = (w / (l1, l2)).T
    um = u + m
    s2 = np.sin(math.pi * b) ** 2
    x = -two_pi * beta * np.abs(um)
    ex, em1 = np.exp(x), np.expm1(x)
    f = em1 * em1 + ex * (4.0 * s2)
    if order == 2:
        one_minus = (2.0 * ex * s2 - em1) - 1j * ex * np.sin(two_pi * b)
        q = (two_pi / (l2 * l2)) * ex * np.exp(1j * two_pi * b) / one_minus**2
        h11 = q.real.sum(axis=0)
        h12 = (np.sign(um) * q.imag).sum(axis=0)
        out = np.stack([1.0 + h11, h12, h12, -h11])
    elif order == 1:
        grad_u = (em1 + 2.0 * s2) * (ex / f) * np.sign(um)
        out = np.stack([
            l1 * (u - 0.5 * np.sign(u)) + grad_u.sum(axis=0) / l2,
            -np.sin(two_pi * b) * (ex / f).sum(axis=0) / l2,
        ])
    else:
        out = ((l1 * l1 / 2.0) * (u * u - np.abs(u) + 1.0 / 6.0)
               - np.log(np.prod(f, axis=0)) / (2.0 * two_pi))[None]
    out = out.T.reshape((-1,) + (2,) * order)
    if swap:
        out = out[(slice(None),) + (slice(None, None, -1),) * order]
    return out.reshape(shape + (2,) * order)


@pytest.fixture(scope="session")
def image_by_image_green():
    return _image_by_image_green


@pytest.fixture(scope="session")
def single_point_config(matrix1):
    """One regular blowup point at the symmetric point of the scalar system."""
    return lv.BlowupConfiguration(
        points=[[0.5, 0.5]],
        strengths=(lv.SingularityProfile(0.0),),
        matrix=matrix1,
        rho=[8.0 * math.pi],
        h_fields=(lv.ConstantField(1.0),),
        curvature=[0.0],
        D=[math.log(64.0)],
        alpha=[0.0],
    )


@pytest.fixture(scope="session")
def singular_point_config():
    """One singular source with minimal normalized mass 3 (surface point).

    For n = 1 the critical surface forces all normalized masses to 4, so a
    mass-3 surface point needs n = 2: A = [[1,7],[7,1]], rho = pi (5/4, 1/4)
    with one gamma = -1/2 source gives masses (3, 9) and a vanishing gap.
    """
    matrix = lv.CoefficientMatrix.from_entries([[1.0, 7.0], [7.0, 1.0]])
    return lv.BlowupConfiguration(
        points=[[0.31, 0.62]],
        strengths=(lv.SingularityProfile(-0.5),),
        matrix=matrix,
        rho=np.pi * np.array([1.25, 0.25]),
        h_fields=(lv.ConstantField(1.0), lv.ConstantField(1.0)),
        curvature=[0.0],
        D=[math.log(4.0), math.log(4.0)],
        alpha=[0.0, 0.0],
    )
