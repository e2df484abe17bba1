import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import liouville as lv
from liouville import cli, radial
from liouville.errors import NonConvergenceError


def run(tmp_path, command, config, name="config.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    return (
        cli.main([command, "--config", str(path), "--out", str(out_dir), "--quiet", *extra]),
        out_dir,
    )


def read_json(out_dir, name):
    return json.loads((out_dir / name).read_text())


class TestSolve:
    def test_scalar_fixture(self, tmp_path):
        code, out = run(
            tmp_path,
            "solve",
            {"matrix": [[1.0]], "gamma": 0.0, "alpha0": [0.0]},
        )
        assert code == 0
        payload = read_json(out, "summary.json")
        assert payload["summary"]["sigma"][0] == pytest.approx(4.0, rel=1e-6)
        assert payload["artifact_version"]
        assert payload["config"]["gamma"] == 0.0
        header = [
            line
            for line in (out / "profile.csv").read_text().splitlines()
            if not line.startswith("#")
        ][0]
        assert header == "r,U_1,dU_1"

    def test_profile_csv_format(self, tmp_path, f3_profile):
        # the F3 fixture's grid: comment lines, header, one row per node,
        # 17 significant digits that read back to the computed floats
        code, out = run(
            tmp_path,
            "solve",
            {
                "matrix": [[1.0, 2.0], [2.0, 1.0]],
                "gamma": 0.0,
                "alpha0": [0.0, 0.0],
                "r_max": 1e4,
                "tol": 1e-10,
            },
        )
        assert code == 0
        lines = (out / "profile.csv").read_text().splitlines()
        summary = read_json(out, "summary.json")
        assert lines[0] == f"# artifact_version: {summary['artifact_version']}"
        assert json.loads(lines[1].removeprefix("# config: ")) == summary["config"]
        assert lines[2] == "r,U_1,U_2,dU_1,dU_2"
        assert len(lines) == 3 + len(f3_profile.grid)
        assert float(lines[3].split(",")[0]) == pytest.approx(f3_profile.r_first, rel=1e-12)
        k = len(f3_profile.grid) // 2
        row = [float(v) for v in lines[3 + k].split(",")]
        r = np.exp(f3_profile.grid)[k]
        assert row[0] == r
        assert row[1:3] == f3_profile.values[k].tolist()
        assert row[3:] == (f3_profile.dvalues[k] / r).tolist()

    def test_near_minus_one(self, tmp_path):
        # gamma = -0.99: sigma = 4 mu = 0.04; the first nodes' radii
        # underflow, so profile.csv starts at the first node with a float
        # dU/dr and every row it writes is finite
        code, out = run(
            tmp_path,
            "solve",
            {"matrix": [[1.0]], "gamma": -0.99, "alpha0": [0.0], "r_max": 1e300},
        )
        assert code == 0
        sigma = read_json(out, "summary.json")["summary"]["sigma"]
        assert sigma[0] == pytest.approx(0.04, rel=1e-9)
        rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=3, ndmin=2)
        assert np.all(np.isfinite(rows)) and rows[0, 0] > 0.0
        assert np.all(np.diff(rows[:, 0]) > 0.0) and rows[-1, 0] == pytest.approx(1e300)

    def test_r_max_too_small_for_the_bubble(self, tmp_path, capsys):
        # bubble scale about e^350: at r_max = 1e4 the flux has not settled,
        # and the message says so instead of naming the threshold 2 mu
        code, _ = run(tmp_path, "solve",
                      {"matrix": [[1.0]], "gamma": 0.0, "alpha0": [-700.0], "r_max": 1e4})
        assert code == 3
        err = capsys.readouterr().err
        assert "r_max is too small" in err and "increase r_max" in err

    def test_tol_flag_rejected(self, tmp_path, capsys):
        # the tolerance comes from the config's "tol" only, so the embedded
        # config always describes the run
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "solve", BASES["solve"], extra=("--tol", "1e-6"))
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_gamma_out_of_range(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "solve", {"matrix": [[1.0]], "gamma": -1.5, "alpha0": [0.0]}
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "gamma" in err and "(-1, 0]" in err

    def test_tol_out_of_range(self, tmp_path):
        code, _ = run(
            tmp_path,
            "solve",
            {"matrix": [[1.0]], "gamma": 0.0, "alpha0": [0.0], "tol": 1e-20},
        )
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "solve",
            {"matrix": [[1.0]], "gamma": 0.0, "alpha0": [0.0], "mystery": 1},
        )
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_json_syntax_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"matrix": [[1.0]],\n  "gamma": }')
        code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        cfg = {"matrix": [[1.0]], "gamma": -0.25, "alpha0": [0.0]}
        _, out1 = run(tmp_path, "solve", cfg, name="a.json")
        code, _ = run(tmp_path, "solve", cfg, name="b.json")
        assert code == 0
        # second run reuses the same out dir; rewrite into a fresh one
        out2 = tmp_path / "out2"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        cli.main(["solve", "--config", str(path), "--out", str(out2), "--quiet"])
        assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestInvert:
    def test_round_trip(self, tmp_path):
        code, out = run(
            tmp_path,
            "invert",
            {
                "matrix": [[1.0, 2.0], [2.0, 1.0]],
                "gamma": 0.0,
                "target_sigma": [4.0 / 3.0],
                "guess": [0.0],
            },
        )
        assert code == 0
        payload = read_json(out, "invert.json")
        assert payload["converged"]
        assert abs(payload["alpha"][0]) < 1e-7

    def test_degenerate_dimension(self, tmp_path):
        code, out = run(
            tmp_path,
            "invert",
            {"matrix": [[1.0]], "gamma": 0.0, "target_sigma": []},
        )
        assert code == 0
        payload = read_json(out, "invert.json")
        assert payload["alpha"] == []
        assert payload["sigma"][0] == pytest.approx(4.0, rel=1e-6)

    def test_unreachable_target(self, tmp_path, capsys):
        code, out = run(
            tmp_path,
            "invert",
            {
                "matrix": [[1.0, 2.0], [2.0, 1.0]],
                "gamma": 0.0,
                "target_sigma": [-0.5],
            },
        )
        assert code == 4
        assert "best iterate" in capsys.readouterr().err
        assert read_json(out, "invert.json")["converged"] is False

    def test_non_convergence_writes_the_trace(self, tmp_path):
        # the Newton history the error carries: residual, lam and halvings
        cfg = {"matrix": [[1.0, 2.0], [2.0, 1.0]], "gamma": 0.0, "target_sigma": [-0.5]}
        code, out = run(tmp_path, "invert", cfg)
        assert code == 4
        payload = read_json(out, "invert.json")
        with pytest.raises(NonConvergenceError) as info:
            lv.invert_sigma(lv.CoefficientMatrix.from_entries(cfg["matrix"]),
                            lv.SingularityProfile(0.0), cfg["target_sigma"])
        assert payload["trace"] == [
            {"residual": norm, "lam": lam, "halvings": halvings}
            for norm, lam, halvings in info.value.trace
        ]
        assert len(payload["trace"]) > 1
        assert (payload["trace"][0]["lam"], payload["trace"][0]["halvings"]) == (0.0, 0)
        assert min(row["residual"] for row in payload["trace"]) == payload["best_residual"]


class TestSurface:
    def test_report(self, tmp_path):
        code, out = run(
            tmp_path,
            "surface",
            {
                "matrix": [[1.0, 2.0], [2.0, 1.0]],
                "surface": {
                    "rho": [8 * math.pi / 3, 8 * math.pi / 3],
                    "n_L": 1.0,
                    "m_max": 2,
                    "gammas": [-0.5],
                    "sweep": {"t_min": 0.5, "t_max": 1.5, "count": 21},
                },
            },
        )
        assert code == 0
        payload = read_json(out, "surface.json")
        np.testing.assert_allclose(
            payload["critical_values"],
            [4 * math.pi * k for k in (1, 2, 3, 4, 5)],
            rtol=1e-12,
        )
        assert payload["on_boundary"] is True
        assert abs(payload["lambda"]) < 1e-12
        rows = [
            line.split(",")
            for line in (out / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ]
        t_vals = np.array([float(r[0]) for r in rows])
        lam = np.array([float(r[1]) for r in rows])
        assert np.all(lam[t_vals < 0.999] > 0)
        assert np.all(lam[t_vals > 1.001] < 0)

    @pytest.mark.parametrize("past", [0, 1])
    def test_caps(self, tmp_path, capsys, past):
        # m_max <= 20, (m_max + 1) 2^N <= 2^20 and count <= 10,000:
        # critical_values builds (m_max + 1) 2^N levels and linspace count
        # points before any output
        cfg = copy.deepcopy(BASES["surface"])
        cfg["surface"]["m_max"] = 20 + past
        cfg["surface"]["sweep"]["count"] = 10_000 + past
        code, out = run(tmp_path, "surface", cfg)
        if past:
            assert code == 2
            assert "m_max must be in [0, 20], got 21" in capsys.readouterr().err
            cfg["surface"]["m_max"] = 20
            assert run(tmp_path, "surface", cfg)[0] == 2
            assert "count must be in [0, 10000], got 10001" in capsys.readouterr().err
            # each argument in range, but (20 + 1) 2^20 levels: refused before any output
            cfg["surface"]["sweep"]["count"] = 10_000
            cfg["surface"]["gammas"] = [-0.5] * 20
            code, out = run(tmp_path, "surface", cfg)
            assert code == 2 and not any(out.iterdir())
            assert "20 points and m_max = 20 give" in capsys.readouterr().err
        else:
            assert code == 0
            # 8 pi m + {0, 4 pi}: the 42 levels 4 pi k, k = 1..41
            assert len(read_json(out, "surface.json")["critical_values"]) == 41
            assert len((out / "sweep.csv").read_text().splitlines()) == 3 + 10_000


class TestCompare:
    def test_identity_strengths(self, tmp_path):
        code, out = run(
            tmp_path,
            "compare",
            {
                "matrix": [[1.0]],
                "gamma": -0.5,
                "alpha0": [0.0],
                "compare": {"mu_p": 0.5, "M_p": 6.0, "M_q": 6.0},
            },
        )
        assert code == 0
        payload = read_json(out, "compare.json")
        assert payload["eta"] == pytest.approx(1.0)
        assert max(abs(v) for v in payload["d_relation_residual"]) < 1e-8

    def test_strength_transform_report(self, tmp_path):
        code, out = run(
            tmp_path,
            "compare",
            {
                "matrix": [[1.0]],
                "gamma": -0.5,
                "alpha0": [0.0],
                "r_max": 1e8,
                "compare": {"mu_p": 1.0, "M_p": 10.0, "M_q": 20.0},
            },
        )
        assert code == 0
        payload = read_json(out, "compare.json")
        assert payload["eta"] == pytest.approx(0.5, rel=1e-12)
        assert max(abs(v) for v in payload["d_relation_residual"]) < 1e-6
        assert max(abs(v) for v in payload["distances"]) < 1e-8
        rows = [
            line
            for line in (out / "compare.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0] == "i,sigma_p_over_mu_p,sigma_q_over_mu_q,distance,reference_scale"
        assert len(rows) == 2


class TestLeading:
    def test_q_regime_value(self, tmp_path):
        code, out = run(
            tmp_path,
            "leading",
            {
                "matrix": [[1.0]],
                "blowup": {
                    "points": [[0.5, 0.5]],
                    "gammas": [0.0],
                    "rho": [8.0 * math.pi],
                    "h_fields": [{"type": "constant", "value": 1.0}],
                    "D": [math.log(64.0)],
                    "alpha": [0.0],
                    "eps_k": 1e-3,
                    "regime": "Q",
                },
            },
        )
        assert code == 0
        payload = read_json(out, "leading.json")
        oracle = -4.0 * (2 * math.pi * 64.0) * 1e-6 * math.log(1e3)
        assert payload["prediction"] == pytest.approx(oracle, rel=1e-9)

    def test_wrong_regime_exit(self, tmp_path, capsys):
        # blowup.regime only states the regime, which the data decide: a
        # statement that does not hold is a config error naming both
        cases = [(7.0, "Q", "general"), (8.0, "general", "Q"), (8.0, "sideways", "Q")]
        for k, (rho, stated, derived) in enumerate(cases):
            blowup = {
                "points": [[0.5, 0.5]],
                "gammas": [0.0],
                "rho": [rho * math.pi],
                "h_fields": [{"type": "constant"}],
                "D": [0.0],
                "alpha": [0.0],
                "regime": stated,
            }
            (tmp_path / str(k)).mkdir()
            code, out = run(tmp_path / str(k), "leading", {"matrix": [[1.0]], "blowup": blowup})
            assert code == 2
            err = capsys.readouterr().err
            assert f"blowup.regime is {stated!r}" in err and f"in the {derived!r} regime" in err
            assert not any(out.iterdir())

    def test_default_regime_without_regular_point(self, tmp_path):
        # at the symmetric point (rho = 8 pi mu) with no regular point the Q
        # expansion is empty, so the default regime is the general one
        blowup = {
            "points": [[0.5, 0.5]],
            "gammas": [-0.5],
            "rho": [4.0 * math.pi],
            "h_fields": [{"type": "constant"}],
            "D": [math.log(4.0)],
            "alpha": [0.0],
        }
        code, out = run(tmp_path, "leading", {"matrix": [[1.0]], "blowup": blowup})
        assert code == 0
        payload = read_json(out, "leading.json")
        assert payload["regime"] == "general"
        blowup["regime"] = "general"
        code, out = run(tmp_path, "leading", {"matrix": [[1.0]], "blowup": blowup})
        assert code == 0
        assert read_json(out, "leading.json")["prediction"] == payload["prediction"]

    def test_general_regime_stability_rows(self, tmp_path):
        code, out = run(
            tmp_path,
            "leading",
            {
                "matrix": [[1.0, 7.0], [7.0, 1.0]],
                "blowup": {
                    "points": [[0.31, 0.62]],
                    "gammas": [-0.5],
                    "rho": [1.25 * math.pi, 0.25 * math.pi],
                    "h_fields": [{"type": "constant"}, {"type": "constant"}],
                    "D": [math.log(4.0), math.log(4.0)],
                    "alpha": [0.0, 0.0],
                    "eps_k": 1e-3,
                    "delta0": 0.02,
                    "regime": "general",
                },
            },
        )
        assert code == 0
        payload = read_json(out, "leading.json")
        (row,) = payload["cell_terms"]
        assert abs(row["A_delta0_half"] - row["A_extrapolated"]) < abs(
            row["A_delta0"] - row["A_extrapolated"]
        )
        assert payload["D"] == pytest.approx(row["B"] * row["A_extrapolated"], rel=1e-12)

    def test_general_regime_sinusoidal_field_matches_the_api(self, tmp_path):
        cfg = copy.deepcopy(BASES["leading-general"])
        field = {"type": "sinusoidal", "amplitude": 0.2, "frequency": [1, 0], "phase": 0.4}
        cfg["blowup"]["h_fields"][0] = field
        code, out = run(tmp_path, "leading", cfg)
        assert code == 0
        sub = cfg["blowup"]
        config = lv.BlowupConfiguration(
            points=sub["points"],
            strengths=(lv.SingularityProfile(-0.5),),
            matrix=lv.CoefficientMatrix.from_entries(cfg["matrix"]),
            rho=sub["rho"],
            h_fields=(
                lv.SinusoidalField(amplitude=0.2, frequency=(1, 0), phase=0.4),
                lv.ConstantField(1.0),
            ),
            curvature=[0.0],
            D=sub["D"],
            alpha=sub["alpha"],
        )
        api = lv.leading_term_general(config, sub["delta0"], sub["eps_k"])
        payload = read_json(out, "leading.json")
        assert payload["prediction"] == api.prediction
        assert payload["panels"] == api.panels > 0

    @pytest.mark.parametrize("x", [1e16, 1e300, -1e300, 1.31])
    def test_point_far_outside_the_cell(self, tmp_path, x):
        # the points are reduced modulo the periods before anything reads
        # them, so a point whole periods away is the same point; x = 1e16
        # and +-1e300 are 0 mod 1, and 1.31 is 0.31 up to rounding
        cfg = copy.deepcopy(BASES["leading-general"])
        cfg["blowup"]["h_fields"][0] = {
            "type": "sinusoidal", "amplitude": 0.2, "frequency": [1, 0], "phase": 0.4
        }
        predictions = []
        for k, first in enumerate((x, float(np.mod(x, 1.0)))):
            cfg["blowup"]["points"][0][0] = first
            (tmp_path / str(k)).mkdir()
            code, out = run(tmp_path / str(k), "leading", cfg)
            assert code == 0
            predictions.append(read_json(out, "leading.json")["prediction"])
        assert predictions[0] == predictions[1]
        if x == 1.31:
            cfg["blowup"]["points"][0][0] = 0.31
            code, out = run(tmp_path, "leading", cfg)
            assert read_json(out, "leading.json")["prediction"] == pytest.approx(
                predictions[0], rel=1e-12
            )


class TestGreen:
    def test_report(self, tmp_path):
        code, out = run(
            tmp_path,
            "green",
            {
                "green": {
                    "points": [[0.1, 0.2], [0.6, 0.7]],
                    "pairs": [[[0.5, 0.5], [0.0, 0.0]]],
                }
            },
        )
        assert code == 0
        payload = read_json(out, "green.json")
        assert payload["gamma_diagonal"] == pytest.approx(-0.2085777932, abs=1e-9)
        assert payload["values"][0]["G"] == pytest.approx(-0.0551589000, abs=1e-9)
        assert payload["gstar"][0][0] == payload["gstar"][1][1]
        gstar_rows = [
            line
            for line in (out / "gstar.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert gstar_rows[0] == "p1,p2"

    @pytest.mark.parametrize("n_modes", [2.5, math.nan])
    def test_non_integer_modes(self, tmp_path, capsys, n_modes):
        # the image count follows from the torus: n_modes is no key at all
        code, _ = run(tmp_path, "green", {"green": {"n_modes": n_modes}})
        assert code == 2
        assert "unknown key 'n_modes'" in capsys.readouterr().err


# Small valid configs, one per command; each probe below breaks one value.
BASES = {
    "solve": {"matrix": [[1.0]], "gamma": 0.0, "alpha0": [0.0]},
    "invert": {
        "matrix": [[1.0, 2.0], [2.0, 1.0]],
        "gamma": 0.0,
        "target_sigma": [4.0 / 3.0],
        "guess": [0.0],
    },
    "surface": {
        "matrix": [[1.0, 2.0], [2.0, 1.0]],
        "surface": {
            "rho": [8 * math.pi / 3, 8 * math.pi / 3],
            "n_L": 1.0,
            "m_max": 2,
            "gammas": [-0.5],
            "sweep": {"t_min": 0.5, "t_max": 1.5, "count": 21},
        },
    },
    "compare": {
        "matrix": [[1.0]],
        "gamma": -0.5,
        "alpha0": [0.0],
        "compare": {"mu_p": 0.5, "M_p": 6.0, "M_q": 6.0},
    },
    "leading-Q": {
        "matrix": [[1.0]],
        "blowup": {
            "points": [[0.5, 0.5]],
            "gammas": [0.0],
            "rho": [8.0 * math.pi],
            "h_fields": [{"type": "constant", "value": 1.0}],
            "D": [math.log(64.0)],
            "alpha": [0.0],
            "eps_k": 1e-3,
            "regime": "Q",
        },
    },
    "leading-general": {
        "matrix": [[1.0, 7.0], [7.0, 1.0]],
        "blowup": {
            "points": [[0.31, 0.62]],
            "gammas": [-0.5],
            "rho": [1.25 * math.pi, 0.25 * math.pi],
            "h_fields": [{"type": "constant"}, {"type": "constant"}],
            "D": [math.log(4.0), math.log(4.0)],
            "alpha": [0.0, 0.0],
            "eps_k": 1e-3,
            "delta0": 0.02,
            "regime": "general",
        },
    },
    "green": {"green": {"points": [[0.1, 0.2], [0.6, 0.7]]}},
}

# (case id, base, dotted path to the broken value, the value, key named in the error)
PROBES = [
    ("eps_k-nan", "leading-general", "blowup.eps_k", math.nan, "eps_k"),
    ("eps_k-5", "leading-general", "blowup.eps_k", 5, "eps_k"),
    ("D-nan", "leading-general", "blowup.D", [math.nan, 0.0], "D must"),
    # e^(D - alpha) overflows: not an OverflowError traceback
    ("D-overflow", "leading-Q", "blowup.D", [800.0], "D = [800.0]"),
    # e^(D - alpha) is finite but b = e^(D - alpha) times its bracket is not
    ("D-b-overflow", "leading-Q", "blowup.D", [709.0], "D = [709.0]: b at i = 1, t = 1"),
    ("points-nan", "leading-general", "blowup.points", [[math.nan, 0.62]], "points"),
    ("green-points-nan", "green", "green.points", [[0.1, math.nan], [0.6, 0.7]], "points"),
    # level_mass is not a key: the constant term of b uses the level n_L
    ("level_mass-nan", "leading-Q", "blowup.level_mass", math.nan, "unknown key 'level_mass'"),
    ("n_L-nan", "surface", "surface.n_L", math.nan, "n_L"),
    ("m_max-2.7", "surface", "surface.m_max", 2.7, "m_max"),
    ("m_max-nan", "surface", "surface.m_max", math.nan, "m_max"),
    ("count-2.5", "surface", "surface.sweep.count", 2.5, "count"),
    ("count-neg", "surface", "surface.sweep.count", -3, "count"),
    ("sweep-number", "surface", "surface.sweep", 3, "sweep"),
    ("pairs-short-point", "green", "green.pairs", [[[0.5], [0.0, 0.0]]], "pairs"),
    ("delta0-nan", "leading-general", "blowup.delta0", math.nan, "delta0"),
    ("delta0-neg", "leading-general", "blowup.delta0", -0.02, "delta0"),
    ("delta0-0", "leading-general", "blowup.delta0", 0, "delta0"),
    # x - p_t rounds to 0 near the ball's edge: the Green kernel's log of 0
    ("delta0-1e-300", "leading-general", "blowup.delta0", 1e-300, "delta0 must be at least"),
    # n_modes is not a key: the Green function sets its own image count
    ("n_modes-12", "leading-general", "blowup.n_modes", 12, "unknown key 'n_modes'"),
    # json writes and reads NaN and Infinity as bare words
    ("r_max-nan", "solve", "r_max", math.nan, "r_max"),
    ("r_max-inf", "solve", "r_max", math.inf, "r_max"),
    ("r_max-string", "solve", "r_max", "big", "r_max"),
    ("gamma-null", "solve", "gamma", None, "gamma"),
    ("gamma-string", "solve", "gamma", "x", "gamma"),
    ("matrix-ragged", "solve", "matrix", [[1.0], [1.0, 2.0]], "matrix"),
    ("alpha0-string", "solve", "alpha0", "x", "alpha0"),
    # e^alpha0 underflows to 0: the weights vanish
    ("alpha0-underflow", "solve", "alpha0", [-750.0], "alpha0"),
    ("guess-string", "invert", "guess", "x", "guess"),
    ("mu_p-string", "compare", "compare.mu_p", "x", "mu_p"),
    ("h_fields-number", "leading-Q", "blowup.h_fields", 3, "h_fields"),
    (
        "field-no-amplitude",
        "leading-Q",
        "blowup.h_fields",
        [{"type": "sinusoidal", "frequency": [1, 0]}],
        "amplitude",
    ),
    ("target_sigma-nan", "invert", "target_sigma", [math.nan], "target_sigma"),
    ("rho-length-3", "surface", "surface.rho", [1.0, 2.0, 3.0], "rho"),
    # rho.A.rho overflows: no "lambda": -Infinity in the JSON
    ("rho-form-overflow", "surface", "surface.rho", [1e200, 1e200], "rho is out of range"),
    # rho = 0 lies in no region: a config error, not a solver error
    ("rho-zero", "surface", "surface.rho", [0, 0], "rho = [0.0, 0.0] has no region"),
    ("field-no-type", "leading-Q", "blowup.h_fields", [{"value": 1.0}], "'type'"),
    ("field-unknown-type", "leading-Q", "blowup.h_fields", [{"type": "gauss"}], "field type"),
]


@pytest.mark.parametrize("probe", PROBES, ids=[p[0] for p in PROBES])
def test_bad_value_exits_2(tmp_path, capsys, probe):
    # a wrong type, a non-finite or an out-of-range value is a config error
    # that names its key, never a traceback, a NaN artifact or a solver error
    _, base, path, value, key = probe
    cfg = copy.deepcopy(BASES[base])
    *parents, leaf = path.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[leaf] = value
    code, _ = run(tmp_path, base.split("-")[0], cfg)
    assert code == 2
    assert key in capsys.readouterr().err


def _numeric_leaves(node, path=()):
    """The paths (keys and list indices) to every number in a config tree."""
    if isinstance(node, dict):
        for key, item in node.items():
            yield from _numeric_leaves(item, (*path, key))
    elif isinstance(node, list):
        for j, item in enumerate(node):
            yield from _numeric_leaves(item, (*path, j))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


# every number of every base config, each set in turn to each of these values
LEAVES = [(base, path) for base in BASES for path in _numeric_leaves(BASES[base])]
SWEEP_VALUES = (0, -1, 1e-300, 1e300, -1e300, 709, -709, 1e16, 3, 0.999999)


def _no_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize(
    "base, path", LEAVES, ids=[f"{base}-{'.'.join(map(str, path))}" for base, path in LEAVES]
)
def test_sweep_every_number(tmp_path, base, path):
    # any number in any slot ends in a known exit code without a warning, and
    # whatever it writes is strict: finite numbers only, and a finite
    # tail_error in every summary
    for k, value in enumerate(SWEEP_VALUES):
        cfg = copy.deepcopy(BASES[base])
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (tmp_path / str(k)).mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path / str(k), base.split("-")[0], cfg)
        assert code in (0, 2, 3, 4), value
        for artifact in out.glob("*.json"):
            payload = json.loads(artifact.read_text(), parse_constant=_no_constant)
            for key in ("summary", "summary_p", "summary_q"):
                if key in payload:
                    assert math.isfinite(payload[key]["tail_error"]), value
        for artifact in out.glob("*.csv"):
            rows = artifact.read_text().splitlines()[3:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")), value


# the line each command prints without --quiet; green prints none
SAID = {
    "solve": "sigma = [",
    "invert": "alpha = [",
    "surface": "lambda = ",
    "compare": "max normalized-energy distance = ",
    "leading-Q": "prediction = ",
    "leading-general": "prediction = ",
    "green": "",
}


@pytest.mark.parametrize("base", BASES)
def test_stdout_only_without_quiet(tmp_path, capsys, base):
    code, _ = run(tmp_path, base.split("-")[0], BASES[base])
    assert code == 0 and capsys.readouterr().out == ""
    path = tmp_path / "config.json"
    code = cli.main([base.split("-")[0], "--config", str(path), "--out", str(tmp_path / "out")])
    said = capsys.readouterr().out
    assert code == 0 and said.startswith(SAID[base]) and bool(said) == bool(SAID[base])


@pytest.mark.parametrize("name", ["absent.json", "."])
def test_unreadable_config_exits_2(tmp_path, capsys, name):
    path = tmp_path / name
    code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"cannot read config {path}" in capsys.readouterr().err


# (case id, base, the top-level key removed, what the error says)
MISSING = [
    ("matrix", "solve", "matrix", "'matrix'"),
    ("alpha0", "solve", "alpha0", "missing required key 'alpha0'"),
]


@pytest.mark.parametrize("base, key, said", [m[1:] for m in MISSING], ids=[m[0] for m in MISSING])
def test_missing_key_exits_2(tmp_path, capsys, base, key, said):
    cfg = copy.deepcopy(BASES[base])
    del cfg[key]
    code, _ = run(tmp_path, base, cfg)
    assert code == 2
    assert said in capsys.readouterr().err


# Every nesting level of the config schema: (name in the message, base
# config, the keys that lead there, what it must be)
LEVELS = [
    ("top level", "solve", (), "object"),
    ("surface", "surface", ("surface",), "object"),
    ("surface.sweep", "surface", ("surface", "sweep"), "object"),
    ("compare", "compare", ("compare",), "object"),
    ("blowup", "leading-Q", ("blowup",), "object"),
    ("blowup.h_fields[1]", "leading-general", ("blowup", "h_fields", 1), "object"),
    ("green", "green", ("green",), "object"),
    ("green.pairs", "green", ("green", "pairs"), "list"),
    ("output", "solve", ("output",), "object"),
]


def _level(base, keys):
    """A copy of BASES[base] and the container at keys in it (made if absent)."""
    cfg = copy.deepcopy(BASES[base])
    node = cfg
    for key in keys:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    return cfg, node


@pytest.mark.parametrize(
    "where, base, keys", [level[:3] for level in LEVELS if level[3] == "object"],
    ids=[level[0] for level in LEVELS if level[3] == "object"],
)
def test_unknown_key_at_every_level(tmp_path, capsys, where, base, keys):
    cfg, node = _level(base, keys)
    node["extra"] = 1
    code, _ = run(tmp_path, base.split("-")[0], cfg)
    assert code == 2
    assert f"unknown key 'extra' at {where}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("invert", "alpha0", [0.0]),
        ("invert", "compare", {"mu_p": 0.5}),
        ("surface", "r_max", 1e6),
        ("surface", "tol", 1e-8),
        ("green", "matrix", [[1.0]]),
        ("solve", "target_sigma", [1.0]),
    ],
)
def test_key_of_another_command_rejected(tmp_path, capsys, command, key, value):
    # a key the command does not read would ride along in every artifact's
    # embedded config as if the run had used it
    code, out_dir = run(tmp_path, command, {**BASES[command], key: value})
    assert code == 2
    assert f"unknown key {key!r} at top level" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "where, base, keys, kind", LEVELS, ids=[level[0] for level in LEVELS]
)
def test_wrong_container_at_every_level(tmp_path, capsys, where, base, keys, kind):
    wrong = [] if kind == "object" else {}
    if keys:
        cfg, parent = _level(base, keys[:-1])
        parent[keys[-1]] = wrong
    else:
        cfg = [BASES[base]]
    code, _ = run(tmp_path, base.split("-")[0], cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert where in err and "must be" in err and kind in err


# The package modules each command loads, on top of liouville and
# liouville.errors. A config the schema rejects loads none; one that an input
# check rejects loads what its command imports before the check.
SOLVE_MODULES = {"algebra", "radial", "energy"}
COMMAND_MODULES = {
    "green": (BASES["green"], {"green"}),
    "surface": (BASES["surface"], {"algebra"}),
    "solve": (BASES["solve"], SOLVE_MODULES),
    "compare": (BASES["compare"], SOLVE_MODULES | {"scaling"}),
    "invert": (BASES["invert"], SOLVE_MODULES | {"shooting", "newton"}),
    "leading": (BASES["leading-Q"], {"algebra", "blowup", "fields", "green", "newton"}),
    "unknown-key": ({**BASES["solve"], "tolerance": 1e-8}, set()),
    "tol-range": ({**BASES["solve"], "tol": 1e-3}, SOLVE_MODULES),
    "nonfinite-r_max": ({**BASES["solve"], "r_max": math.inf}, SOLVE_MODULES),
}

# ``python -m liouville.cli``, then the liouville and scipy modules loaded at
# exit; -m runs cli.py as __main__, so liouville.cli itself is not listed
RUN_AND_LIST = """
import runpy, sys
try:
    runpy.run_module("liouville.cli", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(m for m in sys.modules if m.partition(".")[0] in ("liouville", "scipy")))
"""


@pytest.mark.parametrize("case", COMMAND_MODULES)
def test_cold_command_loads_only_its_modules(tmp_path, case):
    # a cold process imports only the modules its command runs; scipy, a
    # test dependency only, never: it would cost a cold start several times numpy's
    config, modules = COMMAND_MODULES[case]
    command = case if case in cli._COMMANDS else "solve"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == (0 if case in cli._COMMANDS else 2), out.stderr
    loaded = set(out.stdout.split())
    assert loaded == {"liouville", "liouville.errors"} | {f"liouville.{m}" for m in modules}


class TestStrictOutput:
    """No artifact holds a NaN or an infinity: a result that would is a
    solver error (exit 3) that names the artifact, and no file is written."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_write_json(self, tmp_path, value):
        out = cli._Out(str(tmp_path), {}, quiet=True)
        with pytest.raises(cli.OutputError, match="x.json would hold a non-finite number"):
            out.write_json("x.json", {"v": [1.0, value]})
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_write_csv(self, tmp_path, value):
        out = cli._Out(str(tmp_path), {}, quiet=True)
        with pytest.raises(cli.OutputError, match="x.csv would hold a non-finite number"):
            out.write_csv("x.csv", ["a", "b"], ((1.0, 2.0), (3.0, value)))
        assert not (tmp_path / "x.csv").exists()

    def test_overflowing_prediction_exits_2(self, tmp_path, capsys):
        # two regular points, each b about 9e307: their sum, and with it the
        # prediction, overflows; it is D's fault, as for one b
        cfg = copy.deepcopy(BASES["leading-Q"])
        cfg["blowup"].update(points=[[0.25, 0.25], [0.75, 0.75]], gammas=[0.0, 0.0],
                             rho=[16.0 * math.pi], D=[706.8], eps_k=0.5)
        code, out = run(tmp_path, "leading", cfg)
        assert code == 2
        assert "D = [706.8]: the sum of the b_it, inf," in capsys.readouterr().err
        assert not (out / "leading.json").exists()

    def test_tail_table_below_rounding_exits_3(self, tmp_path, capsys):
        # A = [[1e300]]: the predicted defect underflows to 0, and the ratio
        # column was a ZeroDivisionError; no artifact is written
        cfg = {"matrix": [[1e300]], "gamma": 0.0, "alpha0": [0.0]}
        code, out = run(tmp_path, "solve", cfg)
        assert code == 3
        assert "at R = 10.0 the predicted defect 0.000e+00" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestOutputPaths:
    """A bad output prefix or directory exits 2 before any command runs."""

    @pytest.fixture
    def no_command(self, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "solve", lambda *a: pytest.fail("command ran"))

    @pytest.mark.parametrize("prefix", ["sub/", 7, None, ["a"], "a\0b"])
    def test_bad_prefix(self, tmp_path, capsys, no_command, prefix):
        cfg = {**BASES["solve"], "output": {"prefix": prefix}}
        code, out = run(tmp_path, "solve", cfg)
        assert code == 2
        assert "output.prefix" in capsys.readouterr().err
        assert not out.exists()

    def test_out_names_a_file(self, tmp_path, capsys, no_command):
        target = tmp_path / "taken"
        target.write_text("")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BASES["solve"]))
        code = cli.main(["solve", "--config", str(path), "--out", str(target), "--quiet"])
        assert code == 2
        assert "cannot make output directory" in capsys.readouterr().err

    def test_prefix_names_the_files(self, tmp_path):
        cfg = {**BASES["solve"], "output": {"prefix": "run1_"}}
        code, out = run(tmp_path, "solve", cfg)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "run1_profile.csv", "run1_summary.json", "run1_tail_table.csv"
        ]


@pytest.mark.parametrize(
    "heights, said",
    [
        ({"M_p": 2000.0, "M_q": 1.0}, "M_p = 2000.0"),
        ({"M_p": 1.0, "M_q": 3000.0}, "M_q = 3000.0"),
        ({"M_p": 1400.0, "M_q": -1400.0}, "eta"),
        ({"M_p": -1000.0, "M_q": 1000.0}, "eta"),
    ],
)
def test_compare_heights_out_of_range_exit_2(tmp_path, capsys, monkeypatch, heights, said):
    # rejected before the solve: no traceback, no zero eta
    monkeypatch.setattr(radial, "integrate", lambda *a, **k: pytest.fail("solved"))
    cfg = copy.deepcopy(BASES["compare"])
    cfg["compare"].update(heights)
    code, _ = run(tmp_path, "compare", cfg)
    assert code == 2
    assert said in capsys.readouterr().err


# (log r_max - M_q/2) mu_q/mu_p, where d_relation_residual's strength
# transform ends, is 9.21 + 6.35 = 15.56 times 50 = 778.0 at M_q = -12.7
# and 709.27 at M_q = -9.95; e^x overflows past 709.78
FLOAT_EDGE = {"matrix": [[1.0, 2.0], [2.0, 1.0]], "gamma": -0.5, "alpha0": [0.0, 0.0]}


def test_compare_transform_past_the_floats(tmp_path):
    # the profiles live in log r, so a chain that passes e^778 is exact
    cfg = {**FLOAT_EDGE, "compare": {"mu_p": 0.01, "M_p": 0.0, "M_q": -12.7}}
    code, out = run(tmp_path, "compare", cfg)
    assert code == 0
    residual = read_json(out, "compare.json")["d_relation_residual"]
    assert max(map(abs, residual)) < 1e-6


def test_compare_transform_just_inside(tmp_path):
    cfg = {**FLOAT_EDGE, "compare": {"mu_p": 0.01, "M_p": 0.0, "M_q": -9.95}}
    code, out = run(tmp_path, "compare", cfg)
    assert code == 0
    assert all(map(math.isfinite, read_json(out, "compare.json")["d_relation_residual"]))


@pytest.mark.parametrize(
    "heights",
    [
        {"mu_p": 1.0, "M_p": 1419.0, "M_q": 1419.0},  # |M|/2 just below 709.78
        {"mu_p": 0.01, "M_p": 0.0, "M_q": 45.2},  # log eta = -738.8
    ],
)
def test_compare_heights_just_inside(tmp_path, heights):
    cfg = copy.deepcopy(BASES["compare"])
    cfg["compare"].update(heights)
    code, out = run(tmp_path, "compare", cfg)
    assert code == 0
    assert 0.0 < read_json(out, "compare.json")["eta"] < math.inf
