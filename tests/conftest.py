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
