import json
import math

import numpy as np
import pytest

from liouville import cli


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

    def test_reduced_alpha_entry(self, tmp_path):
        code, out = run(
            tmp_path,
            "solve",
            {
                "matrix": [[1.0, 2.0], [2.0, 1.0]],
                "gamma": 0.0,
                "reduced_alpha": [0.0],
            },
        )
        assert code == 0
        sigma = read_json(out, "summary.json")["summary"]["sigma"]
        assert sigma[0] == pytest.approx(4.0 / 3.0, rel=1e-6)

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

    @pytest.mark.parametrize("r_max", [math.nan, math.inf])
    def test_non_finite_r_max(self, tmp_path, capsys, r_max):
        # json writes and reads these as the bare words NaN and Infinity
        code, _ = run(
            tmp_path,
            "solve",
            {"matrix": [[1.0]], "gamma": 0.0, "alpha0": [0.0], "r_max": r_max},
        )
        assert code == 2
        assert "r_max" in capsys.readouterr().err

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
        code, _ = run(
            tmp_path,
            "leading",
            {
                "matrix": [[1.0]],
                "blowup": {
                    "points": [[0.5, 0.5]],
                    "gammas": [0.0],
                    "rho": [7.0 * math.pi],
                    "h_fields": [{"type": "constant"}],
                    "D": [0.0],
                    "alpha": [0.0],
                    "regime": "Q",
                },
            },
        )
        assert code == 3

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


class TestGreen:
    def test_report(self, tmp_path):
        code, out = run(
            tmp_path,
            "green",
            {
                "green": {
                    "n_modes": 12,
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
        code, _ = run(tmp_path, "green", {"green": {"n_modes": n_modes}})
        assert code == 2
        assert "n_modes" in capsys.readouterr().err

    def test_many_modes(self, tmp_path):
        # past k ~ 119 the mode weights underflow; the sum must stay finite
        code, out = run(
            tmp_path,
            "green",
            {"green": {"n_modes": 200, "pairs": [[[0.5, 0.5], [0.0, 0.0]]]}},
        )
        assert code == 0
        payload = read_json(out, "green.json")
        assert payload["grad_gamma_diagonal"] == [0.0, 0.0]
        assert payload["gamma_diagonal"] == pytest.approx(-0.2085777932, abs=1e-9)
        assert payload["values"][0]["G"] == pytest.approx(-0.0551589000, abs=1e-9)
