"""The benchmark's workloads: seeded inputs, operations and their checks.

Each workload is a closed loop with one client in one process and one
thread: the next operation starts when the previous one has returned. Inputs
come from ``numpy.random.default_rng(seed)``; the program sees only the
generated inputs. Operations come in blocks of fixed composition (the seed
picks parameters and order, not the mix), and a run ends on a block
boundary, so every run has the same mix and the median and tail of a
workload fall inside the same kind of operation from run to run.

Operations call only public functions of ``liouville`` and none of the
tuning knobs (``fd_step``, ``jacobian_tol``, ``h0``, ``levels``,
``quad_epsrel``) that later refactors may remove.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import liouville as lv
from liouville import cli as lv_cli

TWO_PI = 2.0 * math.pi
ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")

MATRICES = {
    1: [[1.0]],
    2: [[1.0, 2.0], [2.0, 1.0]],
    3: [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]],
}


class CheckFailed(Exception):
    """An operation returned a value outside its stated tolerance."""


class WrongExit(Exception):
    """A CLI command exited with another code than the correct one."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@dataclass
class Op:
    kind: str
    args: dict
    prepared: dict = field(default_factory=dict)


class Workload:
    """Interface: a seeded op stream, the timed call, and the check."""

    name = ""
    trace_blocks = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def warm_up(self) -> None:
        """Fill the program's caches before the first timed op."""

    def block(self) -> list[Op]:
        raise NotImplementedError

    def prepare(self, op: Op) -> None:
        """Untimed program calls an op needs first (a forward solve)."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------
# radial-sweep


FIXTURES = {
    # name: (n, gamma, sigma, D) of the closed-form solutions
    "F1": (1, 0.0, 4.0, math.log(64.0)),
    "F2": (1, -0.5, 2.0, math.log(4.0)),
    "F3": (2, 0.0, 4.0 / 3.0, math.log(64.0 / 9.0)),
}
TOLS = (1e-10, 1e-8, 1e-6)


class RadialSweep(Workload):
    """Forward solves: integrate -> extract_summary -> check.

    Block of 12: each tolerance four times, once with r_max = 1e6 and three
    times with 1e8; F1, F2, F3 once each, two compare ops and seven random
    specs. Each (tol, r_max) pair is a mode of the latency distribution; with
    equal weights the median would sit between two modes and jump between
    them from run to run, with 1:3 it falls inside the (1e-8, 1e8) mode.
    """

    name = "radial-sweep"
    trace_blocks = 5

    def warm_up(self):
        self.run(Op("solve", self._spec_args(2, 0.0, np.array([0.0, -0.5]), 1e6, 1e-6)))

    @staticmethod
    def _spec_args(n, gamma, alpha0, r_max, tol):
        return {"n": n, "gamma": gamma, "alpha0": alpha0, "r_max": r_max, "tol": tol}

    def block(self):
        rng = self.rng
        settings = [(tol, r_max) for tol in TOLS for r_max in (1e6, 1e8, 1e8, 1e8)]
        kinds = rng.permutation(["F1", "F2", "F3", "compare", "compare"] + ["solve"] * 7)
        ops = []
        for kind, k in zip(kinds, rng.permutation(len(settings))):
            tol, r_max = settings[k]
            if kind in FIXTURES:
                n, gamma, _, _ = FIXTURES[kind]
                alpha0 = np.zeros(n)
            else:
                n = int(rng.integers(1, 4))
                gamma = float(rng.choice([0.0, -0.25, -0.5]))
                alpha0 = rng.uniform(-2.0, 0.0, size=n)
                alpha0 -= alpha0.max()
            args = self._spec_args(n, gamma, alpha0, r_max, tol)
            if kind == "compare":
                args["mu_p"] = float(rng.uniform(0.5, 1.0))
                args["heights"] = [float(v) for v in rng.uniform(2.0, 12.0, size=4)]
            ops.append(Op(str(kind), args))
        return ops

    def run(self, op):
        a = op.args
        matrix = lv.CoefficientMatrix.from_entries(MATRICES[a["n"]])
        spec = lv.ProblemSpec(matrix, lv.SingularityProfile(a["gamma"]), a["alpha0"])
        profile = lv.integrate(spec, r_max=a["r_max"], tol=a["tol"])
        summary = lv.extract_summary(profile)
        out = {"summary": summary, "pohozaev": lv.pohozaev_residual(summary)}
        if op.kind == "compare":
            mu_p = a["mu_p"]
            m_p, m_q, m_p2, m_q2 = a["heights"]
            image = lv.extract_summary(lv.mu_transform(profile, mu_p))
            heights = lv.height_match(m_p, m_q, mu_p, summary.mu)
            out["image"] = image
            out["distance"] = lv.bubble_distance(image, summary, heights)
            out["d_resid"] = lv.d_relation_residual(summary, mu_p, m_p, m_q)
            out["d_resid2"] = lv.d_relation_residual(summary, mu_p, m_p2, m_q2)
        return out

    def check(self, op, out):
        summary = out["summary"]
        _require(abs(out["pohozaev"]) < 1e-6, f"Pohozaev residual {out['pohozaev']:.2e}")
        if op.kind in FIXTURES:
            _, _, sigma, d_val = FIXTURES[op.kind]
            err_s = float(np.max(np.abs(summary.sigma / sigma - 1.0)))
            err_d = float(np.max(np.abs(summary.D - d_val)))
            _require(err_s < 1e-6, f"{op.kind} sigma relative error {err_s:.2e}")
            _require(err_d < 1e-5, f"{op.kind} D error {err_d:.2e}")
        if op.kind == "compare":
            mu_p, mu_q = op.args["mu_p"], summary.mu
            ratio = float(np.max(np.abs(out["image"].sigma * mu_q - summary.sigma * mu_p)))
            d_err = float(np.max(np.abs(out["d_resid"])))
            pair = float(np.max(np.abs(out["d_resid"] - out["d_resid2"])))
            dist = float(np.max(out["distance"].distances))
            _require(ratio < 1e-8, f"energy ratio defect {ratio:.2e}")
            _require(d_err < 1e-6, f"tail-constant relation defect {d_err:.2e}")
            _require(pair < 1e-9, f"height-pair dependence {pair:.2e}")
            _require(dist < 1e-8, f"normalized-energy distance {dist:.2e}")


# --------------------------------------------------------------------------
# shooting-invert


class ShootingInvert(Workload):
    """Round trips alpha -> sigma -> invert_sigma for n = 2 and n = 3.

    Block of 6: two round trips with n = 2 and four with n = 3, alpha in
    U[-3, 0] stratified per coordinate into as many equal parts as there are
    round trips of that n (Latin hypercube), so each block covers the cheap
    and the expensive end of the Newton iteration count. The 1:2 mix puts
    the median inside the n = 3 ops rather than between the two sizes.
    """

    name = "shooting-invert"
    trips = {2: 2, 3: 4}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.matrices = {n: lv.CoefficientMatrix.from_entries(MATRICES[n]) for n in (2, 3)}
        self.sing = lv.SingularityProfile(0.0)

    def warm_up(self):
        lv.alpha_to_sigma(self.matrices[2], self.sing, [-1.0])

    def block(self):
        rng = self.rng
        ops = []
        for n, count in self.trips.items():
            strata = np.stack([rng.permutation(count) for _ in range(n - 1)], axis=1)
            for row in strata:
                alpha = -3.0 + 3.0 * (row + rng.random(n - 1)) / count
                ops.append(Op(f"invert-n{n}", {"n": n, "alpha": alpha}))
        return [ops[k] for k in rng.permutation(len(ops))]

    def prepare(self, op):
        matrix = self.matrices[op.args["n"]]
        point = lv.alpha_to_sigma(matrix, self.sing, op.args["alpha"])
        op.prepared["target"] = point.reduced_sigma

    def run(self, op):
        matrix = self.matrices[op.args["n"]]
        return lv.invert_sigma(matrix, self.sing, op.prepared["target"])

    def check(self, op, recovered):
        err = float(np.max(np.abs(np.asarray(recovered) - op.args["alpha"])))
        _require(err < 1e-8, f"round-trip error {err:.2e}")


# --------------------------------------------------------------------------
# torus-leading

# One source of the test fixtures: A = [[1,7],[7,1]], rho = pi (5/4, 1/4) and
# gamma = -1/2 give normalized masses (3, 9) on the critical surface; the
# strength n_L = 1/2 is split equally over 1, 2 or 3 singular sources.
LEADING_MATRIX = [[1.0, 7.0], [7.0, 1.0]]
LEADING_RHO = (1.25 * math.pi, 0.25 * math.pi)
LEADING_N_L = 0.5
LEADING_D = (math.log(4.0), math.log(4.0))
DELTAS = (0.005, 0.01)
FIELD_KINDS = ("constant", "sinusoidal")
POINT_SETS = 3
_CATALOGUE_SEED = 2112


def leading_point_sets() -> dict[int, list[list[list[float]]]]:
    """Fixed source positions per source count, at least 0.3 apart on the torus.

    The set is fixed (not drawn from the run seed) because the leading
    coefficients are checked against values recorded at the seed commit.
    """
    rng = np.random.default_rng(_CATALOGUE_SEED)
    sets = {}
    for k in (1, 2, 3):
        chosen = []
        while len(chosen) < POINT_SETS:
            pts = np.round(rng.random((k, 2)), 3)
            if _min_torus_gap(pts) >= 0.3:
                chosen.append(pts.tolist())
        sets[k] = chosen
    return sets


def leading_catalogue() -> list[tuple[int, str, float]]:
    """(point set, field, delta0) for one source count, in a fixed mixed order."""
    entries = [(j, f, d) for j in range(POINT_SETS) for f in FIELD_KINDS for d in DELTAS]
    order = np.random.default_rng(_CATALOGUE_SEED).permutation(len(entries))
    return [entries[i] for i in order]


def leading_fields(kind: str):
    if kind == "constant":
        return (lv.ConstantField(1.0), lv.ConstantField(1.0))
    return (
        lv.SinusoidalField(amplitude=0.3, frequency=(1, 0), phase=0.4, base=1.0),
        lv.ConstantField(2.0),
    )


def leading_key(k: int, j: int, field_kind: str, delta0: float | None = None) -> str:
    key = f"k{k}-p{j}-{field_kind}"
    return key if delta0 is None else f"{key}-d{delta0}"


def leading_config(points, field_kind: str):
    k = len(points)
    gamma = LEADING_N_L / k - 1.0
    return lv.BlowupConfiguration(
        points=points,
        strengths=tuple(lv.SingularityProfile(gamma) for _ in range(k)),
        matrix=lv.CoefficientMatrix.from_entries(LEADING_MATRIX),
        rho=list(LEADING_RHO),
        h_fields=leading_fields(field_kind),
        curvature=[0.0] * k,
        D=list(LEADING_D),
        alpha=[0.0, 0.0],
    )


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


FIELD_GRID = 256
FIELD_OPS = 10


class TorusLeading(Workload):
    """The green and blowup layers, used in two ways.

    Block of 17: one Q op, six leading ops (four with 1 source, one with 2,
    one with 3) and ten field ops. Leading ops walk through the catalogue of
    recorded configurations in a fixed order, so every run of a given length
    meets the same ones; the seed draws eps_k, the Q-regime configurations,
    the field-op inputs and the order in a block. Leading ops are checked
    against the recorded values, Q ops against the closed form of acceptance
    criterion 12, field ops by symmetry. With this mix the median falls on
    the field ops and the tail (the 11th slowest op) on the 1-source leading
    ops for runs of 2 to 5 blocks.
    """

    name = "torus-leading"
    sources = (1, 1, 1, 1, 2, 3)
    points_per_op = 2 * FIELD_GRID * FIELD_GRID

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.points = leading_point_sets()
        self.reference = load_reference()
        self.catalogue = {k: iter(()) for k in self.sources}
        self.geometry = lv.TorusGreen()
        xs = (np.arange(FIELD_GRID) + 0.5) / FIELD_GRID
        self.grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)

    def warm_up(self):
        leading_config(self.points[1][0], "constant")

    def _next_entry(self, k: int) -> tuple:
        entry = next(self.catalogue[k], None)
        if entry is None:
            self.catalogue[k] = iter(leading_catalogue())
            entry = next(self.catalogue[k])
        return entry

    def block(self):
        rng = self.rng
        ops = [self._q_op()]
        for k in self.sources:
            j, field_kind, delta0 = self._next_entry(k)
            ops.append(Op("leading", {
                "k": k, "j": j, "field": field_kind, "delta0": delta0,
                "eps_k": float(10.0 ** rng.uniform(-4.0, -2.0)),
            }))
        ops += [self._field_op() for _ in range(FIELD_OPS)]
        return [ops[k] for k in rng.permutation(len(ops))]

    def _field_op(self):
        """G and grad G on the grid against a seeded pole, and G* of 6 points."""
        rng = self.rng
        pole = rng.random(2)
        while float(np.min(lv.torus_distance(self.geometry, self.grid, pole))) < 1e-6:
            pole = rng.random(2)
        pts = rng.random((6, 2))
        while _min_torus_gap(pts) < 1e-3:
            pts = rng.random((6, 2))
        spots = rng.integers(FIELD_GRID, size=(8, 2))
        return Op("field", {"pole": pole, "points": pts, "spots": spots})

    def _q_op(self):
        """Regular points at Q; a second point sits half a period away, where
        the Green gradient vanishes, so the closed form stays exact."""
        rng = self.rng
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        p = rng.random(2)
        points = [p]
        if k == 2:
            shift = [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5)][int(rng.integers(3))]
            points.append(np.mod(p + shift, 1.0))
        return Op("q", {
            "n": n,
            "points": np.array(points),
            "fields": [float(v) for v in rng.uniform(0.5, 2.0, size=n)],
            "D": rng.uniform(1.0, 5.0, size=n),
            "alpha": rng.uniform(-1.0, 0.0, size=n),
            "eps_k": float(10.0 ** rng.uniform(-4.0, -2.0)),
        })

    def run(self, op):
        a = op.args
        if op.kind == "field":
            values = lv.green_eval(self.geometry, self.grid, a["pole"])
            grads = lv.green_gradient(self.geometry, self.grid, a["pole"])
            return values, grads, lv.gstar_matrix(self.geometry, a["points"])
        if op.kind == "leading":
            config = leading_config(self.points[a["k"]][a["j"]], a["field"])
            return config, lv.leading_term_general(config, a["delta0"], a["eps_k"])
        matrix = lv.CoefficientMatrix.from_entries(MATRICES[a["n"]])
        k = len(a["points"])
        config = lv.BlowupConfiguration(
            points=a["points"],
            strengths=tuple(lv.SingularityProfile(0.0) for _ in range(k)),
            matrix=matrix,
            rho=lv.q_point(matrix, float(k)),
            h_fields=tuple(lv.ConstantField(v) for v in a["fields"]),
            curvature=[0.0] * k,
            D=a["D"],
            alpha=a["alpha"],
        )
        prediction = lv.leading_term_Q(config, a["eps_k"])
        b = [[lv.b_coefficient(config, i, t) for t in range(k)] for i in range(a["n"])]
        loc = [lv.location_residual(config, t, "Q") for t in range(k)]
        return config, (prediction, b, loc)

    def check(self, op, out):
        if op.kind == "field":
            self._check_field(op, *out)
            return
        config, result = out
        a = op.args
        if op.kind == "leading":
            key = leading_key(a["k"], a["j"], a["field"])
            ref = self.reference["leading"][leading_key(a["k"], a["j"], a["field"], a["delta0"])]
            err = _rel(result.D, ref)
            _require(err <= 1e-8, f"leading D differs from the reference by {err:.2e}")
            gstar = np.array(self.reference["gstar"][key])
            g_err = float(np.max(np.abs(config.gstar.values - gstar)))
            _require(g_err <= 1e-10 * float(np.max(np.abs(gstar))), f"G* differs by {g_err:.2e}")
            fm = config.frak.minimum
            expected = result.D * a["eps_k"] ** (fm - 2.0) / config.n_L
            _require(_rel(result.prediction, expected) <= 1e-12, "prediction != D eps^(m-2) / n_L")
            return
        prediction, b, loc = result
        k = len(a["points"])
        coeff = np.exp(a["D"] - a["alpha"])
        # criterion 12: b_it = e^(D_i - alpha_i) 2 pi n_L with constant fields,
        # zero curvature and a vanishing Green-gradient sum
        b_exact = coeff * TWO_PI * k
        for i in range(a["n"]):
            for t in range(k):
                _require(_rel(b[i][t], b_exact[i]) <= 1e-9, f"b[{i}][{t}] off the closed form")
        eps = a["eps_k"]
        exact = -4.0 * k * float(b_exact.sum()) * eps**2 * math.log(1.0 / eps)
        err = _rel(prediction, exact)
        _require(err <= 1e-9, f"Q prediction differs from the closed form by {err:.2e}")
        # the residual is 8 pi sum_i q_i times the Green-gradient sum, which
        # criterion 09 bounds by 1e-8
        scale = 4.0 * TWO_PI * float(np.sum(config.rho))
        worst = max(float(np.max(np.abs(r))) for r in loc)
        _require(worst <= 1e-8 * scale, f"location residual {worst:.2e} at a symmetric point")

    def _check_field(self, op, values, grads, gstar):
        pole = op.args["pole"]
        for i, j in op.args["spots"]:
            x = self.grid[i, j]
            sym = abs(lv.green_eval(self.geometry, pole, x) - values[i, j])
            _require(sym < 1e-10, f"G(x, p) - G(p, x) = {sym:.2e}")
            anti = float(np.max(np.abs(lv.green_gradient(self.geometry, pole, x) + grads[i, j])))
            _require(anti < 1e-10 * max(1.0, float(np.max(np.abs(grads[i, j])))),
                     f"grad G(x, p) + grad G(p, x) = {anti:.2e}")
        g = gstar.values
        _require(bool(np.array_equal(g, g.T)), "G* is not symmetric")
        diag = self.reference["gamma_diagonal"]
        _require(float(np.max(np.abs(np.diag(g) - diag))) <= 1e-10 * abs(diag),
                 "G* diagonal differs from the recorded regular part")


def _min_torus_gap(pts) -> float:
    """Smallest distance on the unit torus between two of the points."""
    d = pts[:, None, :] - pts[None, :, :]
    d -= np.round(d)
    return float((np.hypot(d[..., 0], d[..., 1]) + 9.0 * np.eye(len(pts))).min())


# --------------------------------------------------------------------------
# cli-cold

COMMANDS = ("solve", "invert", "surface", "compare", "leading", "green")
MALFORMED = ("unknown-key", "tol-range", "nonfinite-r_max")


class CliCold(Workload):
    """Fresh ``python -m liouville.cli <command>`` processes, one at a time.

    Block of 9: each of the six commands once on a small valid config, and
    three malformed configs that must exit 2: an unknown key, tol out of
    range, and a non-finite r_max (NaN or Infinity, which ``json`` parses).
    """

    name = "cli-cold"
    trace_blocks = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.count = 0
        self.matrix2 = lv.CoefficientMatrix.from_entries(MATRICES[2])
        self.reference = load_reference()
        self.warm = False  # run commands in-process through cli.main

    def block(self):
        rng = self.rng
        ops = [self._valid(cmd) for cmd in COMMANDS]
        ops += [self._malformed(kind) for kind in MALFORMED]
        return [ops[k] for k in rng.permutation(len(ops))]

    def _write(self, cmd: str, cfg: dict, expect: int, kind: str, check=None) -> Op:
        self.count += 1
        path = self.workdir / f"cfg{self.count}.json"
        path.write_text(json.dumps(cfg))
        out = self.workdir / f"out{self.count}"
        return Op(kind, {"cmd": cmd, "config": str(path), "out": str(out),
                         "expect": expect, "check": check})

    def _solve_cfg(self):
        rng = self.rng
        n = int(rng.integers(1, 3))
        alpha0 = rng.uniform(-2.0, 0.0, size=n)
        alpha0 -= alpha0.max()
        return {"matrix": MATRICES[n], "gamma": float(rng.choice([0.0, -0.25, -0.5])),
                "alpha0": alpha0.tolist(), "r_max": 1e6, "tol": 1e-8}

    def _valid(self, cmd):
        rng = self.rng
        if cmd == "solve":
            return self._write(cmd, self._solve_cfg(), 0, cmd)
        if cmd == "invert":
            alpha = float(rng.uniform(-2.0, 0.0))
            target = lv.alpha_to_sigma(self.matrix2, lv.SingularityProfile(0.0), [alpha]).reduced_sigma
            cfg = {"matrix": MATRICES[2], "gamma": 0.0, "target_sigma": target.tolist(),
                   "guess": [alpha + float(rng.uniform(-0.1, 0.1))]}
            return self._write(cmd, cfg, 0, cmd, check=alpha)
        if cmd == "surface":
            n = int(rng.integers(2, 4))
            n_l = float(rng.choice([0.5, 1.0, 2.0]))
            cfg = {"matrix": MATRICES[n], "surface": {
                "n_L": n_l, "gammas": [-0.5], "m_max": 2,
                "rho": rng.uniform(5.0, 30.0, size=n).tolist(), "sweep": {"count": 21}}}
            q = np.linalg.solve(np.array(MATRICES[n]), np.full(n, 4.0 * TWO_PI * n_l))
            return self._write(cmd, cfg, 0, cmd, check=q.tolist())
        if cmd == "compare":
            cfg = {"matrix": [[1.0]], "gamma": -0.5, "alpha0": [0.0], "r_max": 1e6,
                   "compare": {"mu_p": float(rng.uniform(0.5, 1.0)),
                               "M_p": float(rng.uniform(2.0, 12.0)),
                               "M_q": float(rng.uniform(2.0, 12.0))}}
            return self._write(cmd, cfg, 0, cmd)
        if cmd == "leading":
            d_val = float(rng.uniform(1.0, 5.0))
            eps = float(10.0 ** rng.uniform(-4.0, -2.0))
            cfg = {"matrix": [[1.0]], "blowup": {
                "points": [rng.random(2).tolist()], "gammas": [0.0],
                "rho": [8.0 * math.pi], "h_fields": [{"type": "constant", "value": 1.0}],
                "D": [d_val], "alpha": [0.0], "eps_k": eps, "regime": "Q"}}
            exact = -4.0 * TWO_PI * math.exp(d_val) * eps**2 * math.log(1.0 / eps)
            return self._write(cmd, cfg, 0, cmd, check=exact)
        pts = rng.random((3, 2))
        while _min_torus_gap(pts) < 1e-3:
            pts = rng.random((3, 2))
        cfg = {"green": {"points": pts.tolist(),
                         "pairs": [[rng.random(2).tolist(), rng.random(2).tolist()]]}}
        return self._write(cmd, cfg, 0, cmd, check=self.reference["gamma_diagonal"])

    def _malformed(self, kind):
        rng = self.rng
        cfg = self._solve_cfg()
        cmd = "solve"
        if kind == "unknown-key":
            cmd = str(rng.choice(COMMANDS))
            cfg["tolerance"] = 1e-8
        elif kind == "tol-range":
            cfg["tol"] = float(rng.choice([1e-3, 1e-15]))
        else:
            cfg["r_max"] = float(rng.choice([math.nan, math.inf]))
        return self._write(cmd, cfg, 2, kind)

    def run(self, op):
        a = op.args
        argv = [a["cmd"], "--config", a["config"], "--out", a["out"], "--quiet"]
        if self.warm:
            with contextlib.redirect_stderr(io.StringIO()):
                return lv_cli.main(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "liouville.cli", *argv],
            cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=120, check=False,
        )
        return proc.returncode

    def check(self, op, code):
        a = op.args
        try:
            if code != a["expect"]:
                raise WrongExit(f"{op.kind}: exit {code}, expected {a['expect']}")
            if a["expect"] == 0:
                self._check_artifact(a["cmd"], Path(a["out"]), a["check"])
        finally:
            shutil.rmtree(a["out"], ignore_errors=True)

    @staticmethod
    def _check_artifact(cmd, out: Path, expected):
        data = json.loads((out / f"{cmd}.json" if cmd != "solve" else out / "summary.json").read_text())
        if cmd == "solve":
            poh = data["summary"]["pohozaev_residual"]
            _require(abs(poh) < 1e-6, f"solve: Pohozaev residual {poh:.2e}")
        elif cmd == "invert":
            _require(data["converged"], "invert: not converged")
            err = abs(data["alpha"][0] - expected)
            _require(err < 1e-8, f"invert: round-trip error {err:.2e}")
        elif cmd == "surface":
            err = float(np.max(np.abs(np.subtract(data["Q"], expected))))
            _require(err < 1e-12 * float(np.max(np.abs(expected))), f"surface: Q differs by {err:.2e}")
        elif cmd == "compare":
            err = max(abs(v) for v in data["d_relation_residual"])
            _require(err < 1e-6, f"compare: tail-constant relation defect {err:.2e}")
        elif cmd == "leading":
            err = _rel(data["prediction"], expected)
            _require(err < 1e-9, f"leading: prediction off the closed form by {err:.2e}")
        else:
            err = _rel(data["gamma_diagonal"], expected)
            _require(err < 1e-9, f"green: regular part differs by {err:.2e}")


WORKLOADS = {
    w.name: w for w in (RadialSweep, ShootingInvert, TorusLeading, CliCold)
}
