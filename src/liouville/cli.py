"""Configuration-driven command line for reproducible experiments.

One JSON config file drives every command; unknown keys are rejected with
the offending path so configs stay in sync with the code. All outputs embed
the resolved config and the package version, contain no timestamps, and are
byte-identical across reruns of the same config (diagnostics go to stderr).

Commands: solve | invert | surface | compare | leading | green.
Exit codes: 0 ok, 2 config error, 3 solver error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import (
    CoefficientMatrix,
    SingularityProfile,
    classify_region,
    critical_values,
    frak_m,
    lambda_L,
    q_point,
)
from .blowup import (
    BlowupConfiguration,
    b_coefficient,
    leading_term_Q,
    leading_term_general,
)
from .energy import extract_summary, pohozaev_residual, pohozaev_tail_table
from .errors import InputError, LiouvilleError, NonConvergenceError
from .fields import field_from_config
from .green import TorusGreen, green_eval, gstar_matrix, regular_part
from .radial import ProblemSpec, integrate, profile_to_csv
from .scaling import bubble_distance, d_relation_residual, height_match, mu_transform
from .shooting import alpha_to_sigma, invert_sigma


class ConfigError(LiouvilleError):
    """Unparseable or invalid configuration file."""


_TOP_KEYS = {
    "matrix",
    "gamma",
    "alpha0",
    "reduced_alpha",
    "r_max",
    "tol",
    "target_sigma",
    "guess",
    "surface",
    "compare",
    "blowup",
    "green",
    "output",
    "seed",
}
_SURFACE_KEYS = {"rho", "n_L", "m_max", "gammas", "sweep"}
_SWEEP_KEYS = {"t_min", "t_max", "count"}
_COMPARE_KEYS = {"mu_p", "M_p", "M_q"}
_BLOWUP_KEYS = {
    "points",
    "gammas",
    "rho",
    "h_fields",
    "curvature",
    "D",
    "alpha",
    "eps_k",
    "delta0",
    "regime",
    "level_mass",
    "n_modes",
}
_GREEN_KEYS = {"n_modes", "points", "pairs"}
_OUTPUT_KEYS = {"prefix"}
_FIELD_KEYS = {"type", "value", "amplitude", "frequency", "phase", "base"}


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} at {path or 'top level'}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "")
    for section, keys in (
        ("surface", _SURFACE_KEYS),
        ("compare", _COMPARE_KEYS),
        ("blowup", _BLOWUP_KEYS),
        ("green", _GREEN_KEYS),
        ("output", _OUTPUT_KEYS),
    ):
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"{section!r} must be an object")
            _check_keys(cfg[section], keys, section)
    if "surface" in cfg and "sweep" in cfg["surface"]:
        _check_keys(cfg["surface"]["sweep"], _SWEEP_KEYS, "surface.sweep")
    if "blowup" in cfg:
        for j, fld in enumerate(cfg["blowup"].get("h_fields", [])):
            if not isinstance(fld, dict):
                raise ConfigError(f"blowup.h_fields[{j}] must be an object")
            _check_keys(fld, _FIELD_KEYS, f"blowup.h_fields[{j}]")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _get_matrix(cfg: dict) -> CoefficientMatrix:
    return CoefficientMatrix.from_entries(_require(cfg, "matrix"))


def _get_gamma(cfg: dict) -> SingularityProfile:
    gamma = float(_require(cfg, "gamma"))
    if not (-1.0 < gamma <= 0.0):
        raise ConfigError(f"gamma = {gamma} is outside the valid range (-1, 0]")
    return SingularityProfile(gamma)


def _get_solver_params(cfg: dict, tol_override) -> tuple[float, float]:
    r_max = float(cfg.get("r_max", 1e4))
    tol = float(tol_override if tol_override is not None else cfg.get("tol", 1e-10))
    return r_max, tol


def _alpha0_from(cfg: dict, n: int) -> np.ndarray:
    if "alpha0" in cfg and "reduced_alpha" in cfg:
        raise ConfigError("give either 'alpha0' or 'reduced_alpha', not both")
    if "alpha0" in cfg:
        alpha0 = np.asarray(cfg["alpha0"], dtype=float)
    elif "reduced_alpha" in cfg:
        alpha0 = np.concatenate([[0.0], np.asarray(cfg["reduced_alpha"], dtype=float)])
    else:
        raise ConfigError("missing 'alpha0' (or 'reduced_alpha')")
    if alpha0.shape != (n,):
        raise ConfigError(
            f"initial values have length {alpha0.shape[0]}, matrix needs {n}"
        )
    return alpha0


class _Out:
    """Output sink: resolves paths, embeds config + version everywhere."""

    def __init__(self, out_dir: str, cfg: dict, quiet: bool):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.quiet = quiet
        self.prefix = cfg.get("output", {}).get("prefix", "")

    def path(self, name: str) -> Path:
        return self.dir / f"{self.prefix}{name}"

    def write_json(self, name: str, payload: dict) -> Path:
        body = {
            "artifact_version": __version__,
            "config": self.cfg,
            **payload,
        }
        target = self.path(name)
        target.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        return target

    def csv_comments(self) -> list[str]:
        return [
            f"artifact_version: {__version__}",
            f"config: {json.dumps(self.cfg, sort_keys=True)}",
        ]

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)


def cmd_solve(cfg: dict, out: _Out, tol_override=None) -> int:
    matrix = _get_matrix(cfg)
    sing = _get_gamma(cfg)
    r_max, tol = _get_solver_params(cfg, tol_override)
    alpha0 = _alpha0_from(cfg, matrix.n)
    spec = ProblemSpec(matrix=matrix, singularity=sing, alpha0=alpha0)
    profile = integrate(spec, r_max=r_max, tol=tol)
    summary = extract_summary(profile)
    with open(out.path("profile.csv"), "w") as stream:
        profile_to_csv(profile, stream, comments=out.csv_comments())
    out.write_json(
        "summary.json",
        {"summary": summary.to_dict(), "h2_ok": matrix.h2_ok},
    )
    radii = np.geomspace(10.0, min(100.0, r_max), 5)
    with open(out.path("tail_table.csv"), "w") as stream:
        for line in out.csv_comments():
            stream.write(f"# {line}\n")
        stream.write("R,defect,predicted,ratio\n")
        for row in pohozaev_tail_table(profile, radii, summary):
            stream.write(",".join(f"{v:.17g}" for v in row) + "\n")
    out.say(f"sigma = {[float(v) for v in summary.sigma]}")
    out.say(f"pohozaev residual = {pohozaev_residual(summary):.3e}")
    return 0


def cmd_invert(cfg: dict, out: _Out, tol_override=None) -> int:
    matrix = _get_matrix(cfg)
    sing = _get_gamma(cfg)
    r_max, tol = _get_solver_params(cfg, tol_override)
    target = np.asarray(_require(cfg, "target_sigma"), dtype=float)
    if target.shape != (matrix.n - 1,):
        raise ConfigError(
            f"target_sigma must have length n - 1 = {matrix.n - 1}, "
            f"got {target.shape[0]}"
        )
    guess = cfg.get("guess")
    try:
        alpha = invert_sigma(
            matrix, sing, target, guess=guess, r_max=r_max, tol=tol
        )
    except NonConvergenceError as exc:
        print(
            f"inversion did not converge: {exc}\n"
            f"best iterate: {None if exc.best is None else list(exc.best)}",
            file=sys.stderr,
        )
        out.write_json(
            "invert.json",
            {
                "converged": False,
                "best_alpha": None if exc.best is None else [float(v) for v in exc.best],
                "best_residual": exc.best_residual,
            },
        )
        return 4
    point = alpha_to_sigma(matrix, sing, alpha, r_max=r_max, tol=tol)
    out.write_json(
        "invert.json",
        {
            "converged": True,
            "alpha": [float(v) for v in alpha],
            "sigma": [float(v) for v in point.full_sigma],
            "summary": point.summary.to_dict(),
        },
    )
    out.say(f"alpha = {[float(v) for v in alpha]}")
    return 0


def cmd_surface(cfg: dict, out: _Out, tol_override=None) -> int:
    matrix = _get_matrix(cfg)
    sub = _require(cfg, "surface")
    gammas = sub.get("gammas", [])
    strengths = [SingularityProfile(float(g)) for g in gammas]
    m_max = int(sub.get("m_max", 3))
    sigma_values = critical_values(strengths, m_max)
    n_l = float(_require(sub, "n_L"))
    q_vec = q_point(matrix, n_l)
    payload: dict = {
        "critical_values": [float(v) for v in sigma_values],
        "n_L": n_l,
        "Q": [float(v) for v in q_vec],
        "h2_ok": matrix.h2_ok,
    }
    if "rho" in sub:
        rho = np.asarray(sub["rho"], dtype=float)
        fm = frak_m(rho, matrix, n_l)
        region = classify_region(rho, matrix, sigma_values)
        payload.update(
            {
                "rho": [float(v) for v in rho],
                "lambda": lambda_L(rho, matrix, n_l),
                "frak_m": [float(v) for v in fm.values],
                "frak_m_min": fm.minimum,
                "minimizers": sorted(fm.minimizers),
                "region_level": region.level,
                "on_boundary": region.on_boundary,
                "boundary_index": region.boundary_index,
            }
        )
        out.say(f"lambda = {payload['lambda']:.6e} region = {region.level}")
    if "sweep" in sub:
        sweep = sub["sweep"]
        t_vals = np.linspace(
            float(sweep.get("t_min", 0.5)),
            float(sweep.get("t_max", 1.5)),
            int(sweep.get("count", 21)),
        )
        with open(out.path("sweep.csv"), "w") as stream:
            for line in out.csv_comments():
                stream.write(f"# {line}\n")
            stream.write("t,lambda\n")
            for t in t_vals:
                lam = lambda_L(t * q_vec, matrix, n_l)
                stream.write(f"{t:.17g},{lam:.17g}\n")
    out.write_json("surface.json", payload)
    return 0


def cmd_compare(cfg: dict, out: _Out, tol_override=None) -> int:
    matrix = _get_matrix(cfg)
    sing = _get_gamma(cfg)
    r_max, tol = _get_solver_params(cfg, tol_override)
    sub = _require(cfg, "compare")
    mu_p = float(_require(sub, "mu_p"))
    alpha0 = _alpha0_from(cfg, matrix.n)
    spec = ProblemSpec(matrix=matrix, singularity=sing, alpha0=alpha0)
    profile_q = integrate(spec, r_max=r_max, tol=tol)
    summary_q = extract_summary(profile_q)
    transformed = mu_transform(profile_q, mu_p)
    summary_p = extract_summary(transformed)
    m_p = float(sub.get("M_p", 10.0))
    m_q = float(sub.get("M_q", 10.0))
    heights = height_match(m_p, m_q, mu_p, summary_q.mu)
    comparison = bubble_distance(summary_p, summary_q, heights)
    residual = d_relation_residual(summary_q, mu_p, m_p, m_q)
    with open(out.path("compare.csv"), "w") as stream:
        for line in out.csv_comments():
            stream.write(f"# {line}\n")
        stream.write("i,sigma_p_over_mu_p,sigma_q_over_mu_q,distance,reference_scale\n")
        for i in range(matrix.n):
            stream.write(
                f"{i + 1},{summary_p.sigma[i] / summary_p.mu:.17g},"
                f"{summary_q.sigma[i] / summary_q.mu:.17g},"
                f"{comparison.distances[i]:.17g},"
                f"{comparison.reference_scale:.17g}\n"
            )
    out.write_json(
        "compare.json",
        {
            "mu_p": mu_p,
            "mu_q": summary_q.mu,
            "eta": heights.eta,
            "summary_q": summary_q.to_dict(),
            "summary_p": summary_p.to_dict(),
            "distances": [float(v) for v in comparison.distances],
            "d_relation_residual": [float(v) for v in residual],
        },
    )
    out.say(f"max normalized-energy distance = {float(np.max(comparison.distances)):.3e}")
    return 0


def _blowup_from(cfg: dict) -> tuple[BlowupConfiguration, dict]:
    matrix = _get_matrix(cfg)
    sub = _require(cfg, "blowup")
    gammas = _require(sub, "gammas")
    strengths = tuple(SingularityProfile(float(g)) for g in gammas)
    fields = tuple(field_from_config(f) for f in _require(sub, "h_fields"))
    points = np.asarray(_require(sub, "points"), dtype=float)
    geometry = TorusGreen(n_modes=sub.get("n_modes", 12))
    config = BlowupConfiguration(
        points=points,
        strengths=strengths,
        matrix=matrix,
        rho=np.asarray(_require(sub, "rho"), dtype=float),
        h_fields=fields,
        curvature=np.asarray(
            sub.get("curvature", [0.0] * points.shape[0]), dtype=float
        ),
        D=np.asarray(_require(sub, "D"), dtype=float),
        alpha=np.asarray(_require(sub, "alpha"), dtype=float),
        geometry=geometry,
    )
    return config, sub


def cmd_leading(cfg: dict, out: _Out, tol_override=None) -> int:
    config, sub = _blowup_from(cfg)
    eps_k = float(sub.get("eps_k", 1e-3))
    regime = sub.get("regime", "Q" if config.is_at_q() else "general")
    payload: dict = {
        "regime": regime,
        "eps_k": eps_k,
        "n_L": config.n_L,
        "frak_m": [float(v) for v in config.frak.values],
        "h2_ok": config.matrix.h2_ok,
    }
    if regime == "Q":
        level_mass = sub.get("level_mass")
        b_table = [
            {
                "i": i + 1,
                "t": t + 1,
                "b": b_coefficient(config, i, t, level_mass=level_mass),
            }
            for i in range(config.n)
            for t in config.regular_set
        ]
        payload["b_coefficients"] = b_table
        payload["prediction"] = leading_term_Q(config, eps_k)
    elif regime == "general":
        delta0 = float(sub.get("delta0", 0.01))
        result = leading_term_general(config, delta0, eps_k)
        payload["delta0"] = delta0
        payload["D"] = result.D
        payload["prediction"] = result.prediction
        payload["cell_terms"] = [
            {
                "i": i + 1,
                "t": t + 1,
                "B": b_it,
                "A_delta0": a_full,
                "A_delta0_half": a_half,
                "A_extrapolated": a_lim,
            }
            for (i, t, b_it, a_full, a_half, a_lim) in result.cell_terms
        ]
    else:
        raise ConfigError(f"blowup.regime must be 'Q' or 'general', got {regime!r}")
    out.write_json("leading.json", payload)
    out.say(f"prediction = {payload['prediction']:.9e}")
    return 0


def cmd_green(cfg: dict, out: _Out, tol_override=None) -> int:
    sub = _require(cfg, "green")
    geometry = TorusGreen(n_modes=sub.get("n_modes", 12))
    gamma_diag, grad_diag = regular_part(geometry, np.zeros(2))
    payload: dict = {
        "gamma_diagonal": gamma_diag,
        "grad_gamma_diagonal": [float(v) for v in grad_diag],
        "n_modes": geometry.n_modes,
    }
    if "pairs" in sub:
        payload["values"] = [
            {
                "x": [float(v) for v in pair[0]],
                "p": [float(v) for v in pair[1]],
                "G": green_eval(geometry, np.asarray(pair[0]), np.asarray(pair[1])),
            }
            for pair in sub["pairs"]
        ]
    if "points" in sub:
        gstar = gstar_matrix(geometry, np.asarray(sub["points"], dtype=float))
        with open(out.path("gstar.csv"), "w") as stream:
            for line in out.csv_comments():
                stream.write(f"# {line}\n")
            n_pts = gstar.values.shape[0]
            stream.write(",".join(f"p{t + 1}" for t in range(n_pts)) + "\n")
            for row in gstar.values:
                stream.write(",".join(f"{v:.17g}" for v in row) + "\n")
        payload["gstar"] = [[float(v) for v in row] for row in gstar.values]
    out.write_json("green.json", payload)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "invert": cmd_invert,
    "surface": cmd_surface,
    "compare": cmd_compare,
    "leading": cmd_leading,
    "green": cmd_green,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liouville",
        description="Radial singular Liouville systems: solve, invert, and "
        "evaluate blowup-parameter formulas from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = _Out(args.out, cfg, args.quiet)
        return _COMMANDS[args.command](cfg, out, tol_override=args.tol)
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except LiouvilleError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
