"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Criterion 4 has a sub-case that cannot pass as stated (window too early for
the slow fixture); it is kept as a strict expected failure, with the analysis
in its xfail reason.
"""

import math
import time

import numpy as np
import pytest

import liouville as lv
from liouville import radial, shooting

TWO_PI = 2.0 * math.pi


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_scalar_gold_oracle(matrix1):
    closed_d = {0.0: math.log(64.0), -0.5: math.log(4.0)}
    worst = 0.0
    for gamma in (0.0, -0.25, -0.5):
        t0 = time.time()
        spec = lv.ProblemSpec(matrix1, lv.SingularityProfile(gamma), np.array([0.0]))
        summary = lv.extract_summary(lv.integrate(spec, 1e4, 1e-10))
        elapsed = time.time() - t0
        mu = 1.0 + gamma
        assert elapsed < 5.0
        assert abs(summary.sigma[0] - 4 * mu) / (4 * mu) < 1e-6
        assert abs(summary.m[0] - 4 * mu) < 1e-6
        if gamma in closed_d:
            assert abs(summary.D[0] - closed_d[gamma]) < 1e-5
        else:
            # explicit family: tail constant log(64 mu^4)
            assert abs(summary.D[0] - math.log(64.0 * mu**4)) < 1e-5
        worst = max(worst, abs(summary.sigma[0] - 4 * mu) / (4 * mu))
    report(1, "scalar gold oracle (gamma 0, -1/4, -1/2)", True, f"worst sigma rel {worst:.1e}")


def test_criterion_02_symmetric_system(f3_summary):
    ok = (
        np.max(np.abs(f3_summary.sigma - 4.0 / 3.0)) / (4.0 / 3.0) < 1e-6
        and np.max(np.abs(f3_summary.m - 4.0)) < 1e-6
        and np.max(np.abs(f3_summary.D - math.log(64.0 / 9.0))) < 1e-5
    )
    report(2, "symmetric-system oracle F3", ok)


def test_criterion_03_pohozaev_random_specs(matrix12):
    matrix3 = lv.CoefficientMatrix.from_entries(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]]
    )
    rng = np.random.default_rng(2024)
    gammas = (0.0, -0.25, -0.5)
    worst = 0.0
    for k in range(50):
        matrix = matrix12 if k < 25 else matrix3
        alpha0 = rng.uniform(-2.0, 0.0, size=matrix.n)
        alpha0 -= alpha0.max()
        spec = lv.ProblemSpec(
            matrix, lv.SingularityProfile(gammas[k % 3]), alpha0
        )
        # slow tails (mass gap down to ~0.64 here) need the deeper domain
        summary = lv.extract_summary(lv.integrate(spec, 1e6, 1e-10))
        worst = max(worst, abs(lv.pohozaev_residual(summary)))
    report(3, "quadratic energy identity on 50 random specs", worst < 1e-6, f"worst {worst:.2e}")


def _tail_slope(summary, radii):
    profile = summary.profile
    slopes = []
    for i in range(summary.n):
        defect = [
            summary.sigma[i] - lv.truncated_sigma(profile, r)[i] for r in radii
        ]
        slopes.append(np.polyfit(np.log(radii), np.log(defect), 1)[0])
    return np.array(slopes)


def test_criterion_04_tail_law(f1_summary, f2_summary, f3_summary):
    radii = np.geomspace(10.0, 100.0, 8)
    ok = True
    details = []
    for name, summary in (("F1", f1_summary), ("F3", f3_summary)):
        slopes = _tail_slope(summary, radii)
        target = -(summary.m - 2.0 * summary.mu)
        ok &= bool(np.max(np.abs(slopes - target)) < 0.05)
        details.append(f"{name} {slopes[0]:+.3f}")
    f2_slope = _tail_slope(f2_summary, radii)[0]
    details.append(f"F2 {f2_slope:+.3f} sub-case FAILS as stated (window defect, see the F2 xfail)")
    report(4, "truncated-mass tail slope, F1/F3", ok, "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the F2 remainder 4/(2+R) has slope -0.932 over "
    "[10, 100]; the 0.05 band around -1 is unattainable on this window, "
    "which ends before the remainder reaches its -1 asymptote",
)
def test_criterion_04_f2_subcase(f2_summary):
    slopes = _tail_slope(f2_summary, np.geomspace(10.0, 100.0, 8))
    assert abs(slopes[0] + 1.0) < 0.05


def test_criterion_05_three_term_fit(f1_profile, f1_summary):
    fit10 = lv.asymptotic_fit_error(f1_summary, 10.0)[0]
    fit20 = lv.asymptotic_fit_error(f1_summary, 20.0)[0]
    explicit = -2.0 * math.log1p(8.0 / 100.0) + 16.0 / 100.0
    ok = abs(fit10 - explicit) < 5e-3 and abs(fit20 / fit10) < 0.15
    report(5, "pointwise three-term fit on F1", ok, f"ratio {fit20 / fit10:.4f}")


def test_criterion_06_identity_tail_ratio(f1_profile, f1_summary):
    rows = lv.pohozaev_tail_table(f1_summary, [100.0])
    ratio = rows[0][3]
    report(6, "finite-radius identity defect ratio at R=100", abs(ratio - 1.0) < 0.02, f"{ratio:.5f}")


def test_criterion_07_round_trips(matrix12, monkeypatch):
    matrix3 = lv.CoefficientMatrix.from_entries(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]]
    )
    sing = lv.SingularityProfile(0.0)
    rng = np.random.default_rng(99)
    worst = 0.0
    calls, checks = [], []  # per integration, its attempted steps and end-rule estimates

    def counting(*args, **kwargs):
        profile = radial.integrate(*args, **kwargs)
        calls.append(profile.stats["accepted"] + profile.stats["rejected"])
        checks.append(profile.stats["tail_evaluations"])
        return profile

    for matrix in (matrix12, matrix3):
        for _ in range(20):
            alpha = rng.uniform(-3.0, 0.0, size=matrix.n - 1)
            target = lv.alpha_to_sigma(matrix, sing, alpha).reduced_sigma
            with monkeypatch.context() as patch:
                patch.setattr(shooting, "integrate", counting)
                recovered = lv.invert_sigma(matrix, sing, target)
            worst = max(worst, float(np.max(np.abs(recovered - alpha))))
    report(
        7,
        "shooting-map round trips (20 per dimension)",
        worst < 1e-8,
        f"worst {worst:.2e}, {len(calls)} integrations, {sum(calls)} attempted steps",
    )
    # one integration per Newton trial, Jacobian included; centred
    # differences spent 836 on these inversions, and 836 / 2.5 = 334
    assert len(calls) <= 334
    # the attempted steps, pinned: loose solves far from the root, each
    # from the series' start radius and first step, and each ending where
    # the tail model is exact (4,841 when they ran to r_max 1e4 and the
    # loosest trial tol was 1e-6)
    assert sum(calls) == 3500
    # the end rule skips the nodes that cannot pass: at most 4 estimates per
    # solve on average, where one at every node past r = 10 took 6.5
    assert sum(checks) <= 4 * len(checks)


def test_criterion_08_scaling_identities(f2_summary):
    checks = []
    # energy ratio under the strength transform
    image = lv.extract_summary(lv.mu_transform(f2_summary.profile, 1.0))
    checks.append(
        abs(image.sigma[0] * f2_summary.mu - f2_summary.sigma[0] * 1.0) < 1e-8
    )
    # tail-constant relation
    resid = lv.d_relation_residual(f2_summary, 1.0, 10.0, 20.0)
    checks.append(float(np.max(np.abs(resid))) < 1e-6)
    # height-pair independence
    resid2 = lv.d_relation_residual(f2_summary, 1.0, 3.7, 11.3)
    checks.append(float(np.max(np.abs(resid - resid2))) < 1e-9)
    # initial-gap preservation through the chain ("exact" = one common float
    # shift per stage, so only a few ulp of rounding remain)
    spec = lv.ProblemSpec(
        f2_summary.profile.spec.matrix,
        lv.SingularityProfile(-0.5),
        np.array([0.0]),
    )
    matrix12 = lv.CoefficientMatrix.from_entries([[1.0, 2.0], [2.0, 1.0]])
    spec2 = lv.ProblemSpec(matrix12, lv.SingularityProfile(-0.5), np.array([0.0, -0.7]))
    profile2 = lv.integrate(spec2, 1e6, 1e-10)
    heights = lv.height_match(5.0, 9.0, 0.8, 0.5)
    chained = lv.hat_rescale(lv.mu_transform(profile2, 0.8), heights)
    gap_before = profile2.spec.alpha0[0] - profile2.spec.alpha0[1]
    gap_after = chained.spec.alpha0[0] - chained.spec.alpha0[1]
    checks.append(abs(gap_after - gap_before) <= 1e-15)
    report(8, "scaling identities", all(checks), f"{sum(checks)}/{len(checks)} sub-checks")


def test_criterion_09_torus_green(geometry, fourier_green):
    checks = []
    rng = np.random.default_rng(41)
    # symmetry
    sym = max(
        abs(lv.green_eval(geometry, x, p) - lv.green_eval(geometry, p, x))
        for x, p in (tuple(rng.random((2, 2))) for _ in range(100))
    )
    checks.append(sym < 1e-10)
    # mean zero
    n_grid = 512
    xs = (np.arange(n_grid) + 0.5) / n_grid
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    mean = float(np.abs(lv.green_eval(geometry, grid, np.zeros(2)).mean()))
    checks.append(mean < 1e-6)
    # PDE residual where the 5-point stencil is a valid instrument
    n_grid = 256
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
    off_diag = lv.torus_distance(geometry, grid, p) > 0.25
    lap_resid = float(np.max(np.abs(-lap[off_diag] + 1.0)))
    checks.append(lap_resid < 1e-3)
    # diagonal gradient of the regular part
    _, grad = lv.regular_part(geometry, np.array([0.4, 0.7]))
    checks.append(float(np.max(np.abs(grad))) < 1e-8)
    # the image sum against the 400-mode Fourier series at distance >= 0.05,
    # on wide and narrow tori alike
    series_gap = 0.0
    for lx in (0.3, 0.5, 1.0, 2.0, 3.0):
        torus = lv.TorusGreen(lx)
        x, q = rng.random((40, 2)) * [lx, 1.0 / lx], rng.random(2) * [lx, 1.0 / lx]
        x = x[lv.torus_distance(torus, x, q) >= 0.05]
        series_gap = max(
            series_gap,
            float(np.max(np.abs(lv.green_eval(torus, x, q) - fourier_green(lx, x - q)[0]))),
        )
    checks.append(series_gap < 1e-12)
    report(
        9,
        "torus Green function",
        all(checks),
        f"sym {sym:.1e}, mean {mean:.1e}, pde {lap_resid:.1e}, series {series_gap:.1e}",
    )


def test_criterion_10_cell_integral_cauchy(singular_point_config):
    cfg = singular_point_config
    deltas = [0.005, 0.0025, 0.00125, 0.000625]
    vals = [lv.a_integral(cfg, 0, 0, d) for d in deltas]
    gaps = np.abs(np.diff(vals))
    ok = bool(gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-4)
    report(10, "cell-integral Cauchy behavior", ok, f"gaps {gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e}")


def test_criterion_11_algebraic_layer(matrix12):
    checks = []
    matrix3 = lv.CoefficientMatrix.from_entries(
        [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]]
    )
    for matrix, n_l in ((matrix12, 1.0), (matrix12, 0.5), (matrix3, 2.0)):
        q = lv.q_point(matrix, n_l)
        checks.append(abs(lv.lambda_L(q, matrix, n_l)) < 1e-12)
    q = lv.q_point(matrix12, 1.0)
    checks.append(
        all(lv.lambda_L(t * q, matrix12, 1.0) > 0 for t in (0.3, 0.9, 0.99))
    )
    checks.append(
        all(lv.lambda_L(t * q, matrix12, 1.0) < 0 for t in (1.01, 1.4, 1.9))
    )
    checks.append(lv.solve_height_quadratic(lv.HeightQuadratic(0.0, 0.0, 0.0)) == 1.0)
    vals = lv.critical_values([lv.SingularityProfile(-0.5)], 2)
    hand = np.array([4.0, 8.0, 12.0, 16.0, 20.0]) * math.pi
    checks.append(bool(np.allclose(vals, hand, rtol=1e-13)))
    report(11, "algebraic layer", all(checks), f"{sum(checks)}/{len(checks)} sub-checks")


def test_criterion_12_leading_term_composition(matrix1, f1_summary):
    config = lv.BlowupConfiguration(
        points=[[0.5, 0.5]],
        strengths=(lv.SingularityProfile(0.0),),
        matrix=matrix1,
        rho=[8.0 * math.pi],
        h_fields=(lv.ConstantField(1.0),),
        curvature=[0.0],
        D=[float(f1_summary.D[0])],
        alpha=[float(f1_summary.alpha[0])],
    )
    eps = 1e-3
    prediction = lv.leading_term_Q(config, eps)
    coeff = math.exp(float(f1_summary.D[0] - f1_summary.alpha[0]))
    oracle = -4.0 * (TWO_PI * coeff) * eps**2 * math.log(1.0 / eps)
    rel = abs(prediction - oracle) / abs(oracle)
    report(12, "symmetric-point expansion composition", rel < 1e-9, f"rel {rel:.2e}")
