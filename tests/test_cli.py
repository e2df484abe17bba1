import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        assert float(lines[3].split(",")[0]) == pytest.approx(1e-6, rel=1e-12)
        k = len(f3_profile.grid) // 2
        row = [float(v) for v in lines[3 + k].split(",")]
        r = np.exp(f3_profile.grid)[k]
        assert row[0] == r
        assert row[1:3] == f3_profile.values[k].tolist()
        assert row[3:] == (f3_profile.dvalues[k] / r).tolist()

    def test_tol_flag_rejected(self, tmp_path, capsys):
        # the tolerance comes from the config's "tol" only, so the embedded
        # config always describes the run
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "solve", BASES["solve"], extra=("--tol", "1e-6"))
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

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


def test_cold_start_imports_no_scipy():
    # scipy is a test dependency only; at run time its import would cost
    # every command a cold start several times that of numpy
    code = (
        "import liouville, liouville.cli, sys; "
        "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
