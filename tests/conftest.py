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


# Dormand-Prince 5(4) tableau, written out again for the row-form oracle
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _row_form_integrate(spec, r_max, tol, sensitivity=False):
    """The DP5(4) loop in row form: every stage is a full right-hand side.

    The same method, start radius, PI controller and error norm as
    ``liouville.integrate``, with each stage value formed as
    y + h (A row) @ stages over the whole (7, 4n q) stage array. Returns
    the grid, the (node, 4n) state and, with ``sensitivity``, d(state at
    r_max)/d alpha0 as a (4n, n) array.
    """
    from liouville import radial

    n, mu, a_mat = spec.n, spec.singularity.mu, spec.matrix.entries
    s_max_coeff = float(np.max(a_mat @ np.exp(spec.alpha0)))
    r_start = radial.R_SERIES
    target = 1e-8 * (2.0 * mu) ** 2 / s_max_coeff
    if r_start ** (2.0 * mu) > target:
        r_start = max(target ** (1.0 / (2.0 * mu)), 1e-250)
    s0, s_end = math.log(r_start), math.log(r_max)
    u0, du_dr0 = lv.origin_series(spec, r_start)
    mass0, logmass0 = radial._series_energy_seeds(spec, r_start)
    block = np.concatenate([u0, du_dr0 * r_start, mass0, logmass0])[:, None]
    if sensitivity:
        block = np.hstack([block, radial._series_sensitivity(spec, r_start)])
    q = block.shape[1]
    y = block.ravel()

    def rhs(s, y, out):
        blk = y.reshape(4 * n, q)
        w = np.exp(2.0 * mu * s + blk[:n, 0])
        wm = w[:, None] * blk[:n]
        wm[:, 0] = w
        out[:n] = blk[n : 2 * n]
        np.matmul(-a_mat, wm, out=out[n : 2 * n])
        out[2 * n : 3 * n] = wm
        np.multiply(s, wm, out=out[3 * n :])

    atol = tol * 1e-3
    s, h, err_prev = s0, 1e-2, 1.0
    stages = np.empty((7, y.size))
    blocks = stages.reshape(7, 4 * n, q)
    rhs(s, y, blocks[0])
    nodes, states = [s], [y[::q]]
    while s_end - s > 1e-13 * max(1.0, abs(s_end)):
        h = min(h, s_end - s, 1.0)
        for i in range(1, 7):
            y_new = y + h * (_DP_A[i, :i] @ stages[:i])
            rhs(s + _DP_C[i] * h, y_new, blocks[i])
        err_vec = h * (_DP_E @ stages[:, ::q])
        scale = atol + tol * np.maximum(np.abs(y[::q]), np.abs(y_new[::q]))
        ratio = err_vec / scale
        err = math.sqrt(float(ratio @ ratio) / ratio.size)
        if err <= 1.0:
            s += h
            y = y_new
            stages[0] = stages[6]
            nodes.append(s)
            states.append(y[::q])
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0) if err > 0.0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err ** (-0.2))
    sens = y.reshape(4 * n, q)[:, 1:] if sensitivity else None
    return np.array(nodes), np.array(states), sens


@pytest.fixture(scope="session")
def row_form_integrate():
    return _row_form_integrate


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
