"""Configuration-driven command line for reproducible experiments.

One JSON config file drives every command; a key the command does not read
is rejected with its path, so configs stay in sync with the code. All outputs embed
the config as loaded, without the defaults of the keys it leaves out, and
the package version; they contain no timestamps and are byte-identical
across reruns of the same config (diagnostics go to stderr).

Values pass to the package unconverted: the API checks each one once and
rejects a wrong type, a non-finite or an out-of-range value with an
InputError that names it, so such a config exits 2 before any solve.

Commands: solve | invert | surface | compare | leading | green. Each command
imports the package modules it runs when it starts, so a cold process loads
only those, and a config rejected by the schema loads none.
Exit codes, set by ``main`` alone: 0 ok, 2 config error, 3 solver error, 4
non-convergence. A result with a NaN or an infinity is a solver error that
names the artifact; no artifact holds one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import (
    InputError,
    LiouvilleError,
    NonConvergenceError,
    as_array,
    as_count,
    as_number,
)

if TYPE_CHECKING:
    from .algebra import CoefficientMatrix, SingularityProfile
    from .blowup import BlowupConfiguration


class ConfigError(LiouvilleError):
    """Unparseable or invalid configuration file."""


class OutputError(LiouvilleError):
    """A result that strict JSON or CSV cannot hold: NaN or an infinity."""


# The config tree: an object is a dict of its keys, a list is a one-item
# list of its item's schema, and a plain value is None.
_SCHEMA = {
    **dict.fromkeys(["matrix", "gamma", "alpha0", "r_max", "tol", "target_sigma", "guess"]),
    "surface": {
        **dict.fromkeys(["rho", "n_L", "m_max"]),
        "gammas": [None],
        "sweep": dict.fromkeys(["t_min", "t_max", "count"]),
    },
    "compare": dict.fromkeys(["mu_p", "M_p", "M_q"]),
    "blowup": {
        **dict.fromkeys(["points", "rho", "curvature", "D", "alpha", "eps_k", "delta0", "regime"]),
        "gammas": [None],
        "h_fields": [dict.fromkeys(["type", "value", "amplitude", "frequency", "phase", "base"])],
    },
    "green": {"points": None, "pairs": [None]},
    "output": {"prefix": None},
}
# The top-level keys each command reads; every command also takes ``output``.
_SOLVER_KEYS = ["matrix", "gamma", "r_max", "tol"]
_COMMAND_KEYS = {
    "solve": [*_SOLVER_KEYS, "alpha0"], "invert": [*_SOLVER_KEYS, "target_sigma", "guess"],
    "compare": [*_SOLVER_KEYS, "alpha0", "compare"],
    "surface": ["matrix", "surface"], "leading": ["matrix", "blowup"], "green": ["green"],
}


def _check(value, schema, path: str) -> None:
    """Reject an unknown key or a wrong container anywhere below ``path``."""
    where = path or "top level"
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        for key, item in value.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} at {where}")
            _check(item, schema[key], f"{path}.{key}" if path else key)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        for j, item in enumerate(value):
            _check(item, schema[0], f"{path}[{j}]")


def load_config(path: str, command: str) -> dict:
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
    _check(cfg, {key: _SCHEMA[key] for key in [*_COMMAND_KEYS[command], "output"]}, "")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _get_matrix(cfg: dict) -> CoefficientMatrix:
    from .algebra import CoefficientMatrix

    return CoefficientMatrix.from_entries(_require(cfg, "matrix"))


def _get_gamma(cfg: dict) -> SingularityProfile:
    from .algebra import SingularityProfile

    return SingularityProfile(_require(cfg, "gamma"))


def _solver_params(cfg: dict) -> dict:
    """The r_max and tol the config sets; integrate supplies the defaults."""
    return {key: cfg[key] for key in ("r_max", "tol") if key in cfg}


class _Out:
    """Output sink: resolves paths, embeds the loaded config + version everywhere."""

    def __init__(self, out_dir: str, cfg: dict, quiet: bool):
        self.prefix = cfg.get("output", {}).get("prefix", "")
        if not isinstance(self.prefix, str) or {os.sep, "/", "\0"} & set(self.prefix):
            raise ConfigError(f"output.prefix must name no directory, got {self.prefix!r}")
        self.dir = Path(out_dir)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from exc
        self.cfg = cfg
        self.quiet = quiet

    def path(self, name: str) -> Path:
        return self.dir / f"{self.prefix}{name}"

    def write_json(self, name: str, payload: dict) -> Path:
        """Strict JSON: a NaN or an infinity is an OutputError, and no file."""
        body = {
            "artifact_version": __version__,
            "config": self.cfg,
            **payload,
        }
        try:
            text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise OutputError(f"{name} would hold a non-finite number ({exc})") from exc
        target = self.path(name)
        target.write_text(text + "\n")
        return target

    def write_csv(self, name: str, header, rows) -> None:
        """Comment lines, the header, then rows of numbers to 17 digits; a
        NaN or an infinity is an OutputError, and no file."""
        rows = np.asarray(list(rows), dtype=float)
        if not np.all(np.isfinite(rows)):
            raise OutputError(f"{name} would hold a non-finite number")
        with open(self.path(name), "w") as stream:
            stream.write(f"# artifact_version: {__version__}\n")
            stream.write(f"# config: {json.dumps(self.cfg, sort_keys=True)}\n")
            stream.write(",".join(header) + "\n")
            for row in rows:
                stream.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)


def cmd_solve(cfg: dict, out: _Out) -> int:
    from .energy import extract_summary, pohozaev_residual, pohozaev_tail_table
    from .radial import ProblemSpec, integrate

    matrix = _get_matrix(cfg)
    spec = ProblemSpec(matrix, _get_gamma(cfg), _require(cfg, "alpha0"))
    profile = integrate(spec, **_solver_params(cfg))
    summary = extract_summary(profile)
    # the grid nodes: r, U_i, and dU_i/dr = (dU_i/ds) / r, where dU/dr is a
    # float (near gamma = -1 the first nodes' radii underflow to 0)
    with np.errstate(all="ignore"):
        r_nodes = np.exp(profile.grid)
        rows = np.column_stack([r_nodes, profile.values, profile.dvalues / r_nodes[:, None]])
    radii = np.geomspace(10.0, min(100.0, profile.r_max), 5)
    table = pohozaev_tail_table(summary, radii)
    components = range(1, matrix.n + 1)
    out.write_csv(
        "profile.csv",
        ["r", *(f"U_{i}" for i in components), *(f"dU_{i}" for i in components)],
        rows[np.isfinite(rows).all(axis=1)],
    )
    out.write_json(
        "summary.json",
        {"summary": summary.to_dict(), "h2_ok": matrix.h2_ok},
    )
    out.write_csv("tail_table.csv", ["R", "defect", "predicted", "ratio"], table)
    out.say(f"sigma = {summary.sigma.tolist()}")
    out.say(f"pohozaev residual = {pohozaev_residual(summary):.3e}")
    return 0


def cmd_invert(cfg: dict, out: _Out) -> int:
    from .shooting import alpha_to_sigma, invert_sigma

    matrix = _get_matrix(cfg)
    sing = _get_gamma(cfg)
    params = _solver_params(cfg)
    target = _require(cfg, "target_sigma")
    try:
        alpha = invert_sigma(matrix, sing, target, guess=cfg.get("guess"), **params)
    except NonConvergenceError as exc:
        out.write_json(
            "invert.json",
            {
                "converged": False,
                "best_alpha": exc.best.tolist(),
                "best_residual": exc.best_residual,
                "trace": [
                    {"residual": norm, "lam": lam, "halvings": halvings}
                    for norm, lam, halvings in exc.trace
                ],
            },
        )
        raise
    point = alpha_to_sigma(matrix, sing, alpha, **params)
    out.write_json(
        "invert.json",
        {
            "converged": True,
            "alpha": alpha.tolist(),
            "sigma": point.full_sigma.tolist(),
            "summary": point.summary.to_dict(),
        },
    )
    out.say(f"alpha = {alpha.tolist()}")
    return 0


def cmd_surface(cfg: dict, out: _Out) -> int:
    from .algebra import (
        SingularityProfile,
        as_level,
        as_rho,
        classify_region,
        critical_values,
        frak_m,
        lambda_L,
        q_point,
    )

    matrix = _get_matrix(cfg)
    sub = _require(cfg, "surface")
    strengths = [SingularityProfile(g) for g in sub.get("gammas", [])]
    sigma_values = critical_values(strengths, sub.get("m_max", 3))
    n_l = as_level(_require(sub, "n_L"))
    q_vec = q_point(matrix, n_l)
    payload: dict = {
        "critical_values": sigma_values.tolist(),
        "n_L": n_l,
        "Q": q_vec.tolist(),
        "h2_ok": matrix.h2_ok,
    }
    if "rho" in sub:
        rho = as_rho(sub["rho"], matrix.n)
        fm = frak_m(rho, matrix, n_l)
        region = classify_region(rho, matrix, sigma_values)
        payload.update(
            {
                "rho": rho.tolist(),
                "lambda": lambda_L(rho, matrix, n_l),
                "frak_m": fm.values.tolist(),
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
            as_number(sweep.get("t_min", 0.5), "surface.sweep.t_min"),
            as_number(sweep.get("t_max", 1.5), "surface.sweep.t_max"),
            as_count(sweep.get("count", 21), "surface.sweep.count", 0, 10_000),
        )
        out.write_csv(
            "sweep.csv",
            ["t", "lambda"],
            ((t, lambda_L(t * q_vec, matrix, n_l)) for t in t_vals),
        )
    out.write_json("surface.json", payload)
    return 0


def cmd_compare(cfg: dict, out: _Out) -> int:
    from .energy import extract_summary
    from .radial import ProblemSpec, integrate
    from .scaling import bubble_distance, d_relation_residual, height_match, mu_transform

    matrix = _get_matrix(cfg)
    sing = _get_gamma(cfg)
    sub = _require(cfg, "compare")
    heights = height_match(
        sub.get("M_p", 10.0), sub.get("M_q", 10.0), _require(sub, "mu_p"), sing.mu
    )
    spec = ProblemSpec(matrix, sing, _require(cfg, "alpha0"))
    profile_q = integrate(spec, **_solver_params(cfg))
    summary_q = extract_summary(profile_q)
    summary_p = extract_summary(mu_transform(profile_q, heights.mu_p))
    comparison = bubble_distance(summary_p, summary_q, heights)
    residual = d_relation_residual(summary_q, heights.mu_p, heights.M_p, heights.M_q)
    out.write_csv(
        "compare.csv",
        ["i", "sigma_p_over_mu_p", "sigma_q_over_mu_q", "distance", "reference_scale"],
        np.column_stack(
            [
                np.arange(1, matrix.n + 1),
                summary_p.sigma / summary_p.mu,
                summary_q.sigma / summary_q.mu,
                comparison.distances,
                np.full(matrix.n, comparison.reference_scale),
            ]
        ),
    )
    out.write_json(
        "compare.json",
        {
            "mu_p": heights.mu_p,
            "mu_q": summary_q.mu,
            "eta": heights.eta,
            "summary_q": summary_q.to_dict(),
            "summary_p": summary_p.to_dict(),
            "distances": comparison.distances.tolist(),
            "d_relation_residual": residual.tolist(),
        },
    )
    out.say(f"max normalized-energy distance = {np.max(comparison.distances):.3e}")
    return 0


def _blowup_from(cfg: dict) -> tuple[BlowupConfiguration, dict]:
    from .algebra import SingularityProfile
    from .blowup import BlowupConfiguration
    from .fields import field_from_config

    matrix = _get_matrix(cfg)
    sub = _require(cfg, "blowup")
    strengths = tuple(SingularityProfile(g) for g in _require(sub, "gammas"))
    config = BlowupConfiguration(
        points=_require(sub, "points"),
        strengths=strengths,
        matrix=matrix,
        rho=_require(sub, "rho"),
        h_fields=tuple(field_from_config(f) for f in _require(sub, "h_fields")),
        curvature=sub.get("curvature", [0.0] * len(strengths)),
        D=_require(sub, "D"),
        alpha=_require(sub, "alpha"),
    )
    return config, sub


def cmd_leading(cfg: dict, out: _Out) -> int:
    from .blowup import b_coefficient, leading_term_Q, leading_term_general

    config, sub = _blowup_from(cfg)
    # echoed as given: the leading-term functions reject all but floats in (0, 1)
    eps_k = sub.get("eps_k", 1e-3)
    # the key only states the regime, which the data decide
    regime = config.regime
    if sub.get("regime", regime) != regime:
        raise ConfigError(
            f"blowup.regime is {sub['regime']!r}, but the data put this configuration "
            f"in the {regime!r} regime"
        )
    payload: dict = {
        "regime": regime,
        "eps_k": eps_k,
        "n_L": config.n_L,
        "frak_m": config.frak.values.tolist(),
        "h2_ok": config.matrix.h2_ok,
    }
    if regime == "Q":
        b_table = [
            {"i": i + 1, "t": t + 1, "b": b_coefficient(config, i, t)}
            for i in range(config.n)
            for t in config.regular_set
        ]
        payload["b_coefficients"] = b_table
        payload["prediction"] = leading_term_Q(config, eps_k)
    else:
        # echoed as given too: cell_fit rejects all but floats inside every cell
        delta0 = sub.get("delta0", 0.01)
        result = leading_term_general(config, delta0, eps_k)
        payload["delta0"] = delta0
        payload["D"] = result.D
        payload["prediction"] = result.prediction
        payload["panels"] = result.panels
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
    out.write_json("leading.json", payload)
    out.say(f"prediction = {payload['prediction']:.9e}")
    return 0


def cmd_green(cfg: dict, out: _Out) -> int:
    from .green import TorusGreen, green_eval, gstar_matrix, regular_part

    sub = _require(cfg, "green")
    geometry = TorusGreen()
    gamma_diag, grad_diag = regular_part(geometry, np.zeros(2))
    payload: dict = {
        "gamma_diagonal": gamma_diag,
        "grad_gamma_diagonal": grad_diag.tolist(),
    }
    if "pairs" in sub:
        pairs = [
            as_array(pair, f"green.pairs[{j}]", (2, 2))
            for j, pair in enumerate(sub["pairs"])
        ]
        payload["values"] = [
            {"x": x.tolist(), "p": p.tolist(), "G": green_eval(geometry, x, p)}
            for x, p in pairs
        ]
    if "points" in sub:
        gstar = gstar_matrix(geometry, sub["points"])
        out.write_csv(
            "gstar.csv", [f"p{t + 1}" for t in range(len(gstar.values))], gstar.values
        )
        payload["gstar"] = gstar.values.tolist()
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
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command)
        out = _Out(args.out, cfg, args.quiet)
        return _COMMANDS[args.command](cfg, out)
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}\nbest iterate: {exc.best.tolist()}", file=sys.stderr)
        return 4
    except LiouvilleError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
