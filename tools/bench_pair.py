"""Run the benchmark on two checkouts, seed by seed, and write one BENCH file.

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR --workload radial-sweep \
        --seeds 1-5 --out BENCH_10.json

Each seed runs ``bench/run.py --trace 0`` once in each checkout, one run at
a time and for the ``run_seconds`` that BENCHMARK.json sets; the checkout that goes first alternates from seed to seed, so a
drift in host speed hits both sides alike. ``--layers`` adds, per seed, one
traced run (``--trace 1``) in each checkout in the same alternating order,
and records the per-layer metrics under ``layers``: every traced run, and
their per-side medians and quartiles and the change's wins, as for the
untraced runs (directions from BENCHMARK.json's ``per_layer``). The output
holds every run's metrics, the per-side medians and quartiles, how many
seeds the change won on each metric, a verdict per metric (see
``verdicts``), the machine (CPU count, Python and numpy versions, and
``bytecode_cached``: false when PYTHONDONTWRITEBYTECODE is set, so every
fresh process compiles ``src/`` again; ``stale_bytecode``, per side, the
``src/**/*.py`` whose cached bytecode no longer matches them, which then
recompile in every process: with bytecode not written, any such file stops
the pair before it runs), each side's ``src_lines``, the
line count of its ``src/**/*.py``, and ``src_lines_net``, change minus parent;
``src_code_lines`` and ``src_code_lines_net`` count only the lines that hold
code, so moved code and docstring edits do not read as a change in size;
``src_code_lines_by_module`` holds that count per module and side (keyed by
the path under ``src/``) and ``src_code_lines_net_by_module`` change minus
parent per module, a module missing on one side counting 0 there.
``revisions`` holds each side's commit: its HEAD when the checkout is the
top of its own git work tree, else the commit ``--parent-rev`` or
``--change-rev`` names, which such a side requires (a ``git archive``
export carries no HEAD of its own). ``--claim METRIC`` also judges a
claimed gain on that metric. The exit
status is 1 if any run reports ``correct: false``. Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import json
import os
import platform
import statistics
import struct
import subprocess
import sys
import tokenize
from pathlib import Path

SIDES = ("parent", "change")
# Tokens that are not code: comments and the layout of lines and blocks.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
# The nodes that can carry a docstring.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def parse_seeds(text: str) -> list[int]:
    """'1-5' or '1,3,7' (or a mix, '1-3,9') as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench run in a checkout; its result line as a dict."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_pairs(args, workload: str, seconds: float, trace: int) -> list[dict]:
    """One run per seed in each checkout, the side that goes first alternating."""
    runs = []
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_bench(getattr(args, side), workload, seed, seconds, trace)
            print(f"{workload} seed {seed} {side}{' traced' if trace else ''}: "
                  + ", ".join(f"{name}={value:.4g}"
                              for name, value in run[side]["metrics"].items()),
                  file=sys.stderr)
        runs.append(run)
    return runs


def summarize(runs: list[dict], better: dict) -> dict:
    """Medians and quartiles per side, the change's wins per metric, and
    whether every change run beats every parent run."""
    out = {}
    for side in SIDES:
        names = runs[0][side]["metrics"]
        out[side] = {}
        for name in names:
            values = [run[side]["metrics"][name] for run in runs]
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            out[side][name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    wins, beats_all = {}, {}
    for name, direction in better.items():
        if name in out["parent"]:
            sign = 1.0 if direction == "higher" else -1.0
            parent, change = ([sign * run[side]["metrics"][name] for run in runs]
                              for side in SIDES)
            wins[name] = sum(c > p for c, p in zip(change, parent))
            beats_all[name] = min(change) > max(parent)
    out["change_wins"] = wins
    out["change_beats_all"] = beats_all
    return out


def verdicts(summary: dict, n_runs: int, metrics: list[dict], claim: str | None = None) -> dict:
    """Per end-to-end metric of BENCHMARK.json, how the change compares.

    ``gain`` is the signed relative change of the median (positive is
    better), ``parent_spread`` the parent's (q3 - q1) / median, ``wins`` the
    seeds the change won, and ``within_bound`` whether the change's median
    is no worse than the parent's by more than the metric's relative
    ``bound``. ``resolved`` is false when the parent's spread exceeds that
    bound, so the runs cannot tell a change within it from none, unless
    every change run beats every parent run. The claimed metric also gets
    ``claim_met``: the change won at least 9 in 10 seeds and its median
    beats the parent's by more than the parent's q3 - q1.
    """
    out = {}
    for metric in metrics:
        name = metric["name"]
        if name not in summary["parent"]:
            continue
        parent, change = summary["parent"][name], summary["change"][name]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        gap = sign * (change["median"] - parent["median"])
        spread = parent["q3"] - parent["q1"]
        scale = abs(parent["median"]) or 1.0  # absolute terms for a zero median
        wins = summary["change_wins"][name]
        out[name] = {
            "gain": gap / scale,
            "parent_spread": spread / scale,
            "wins": wins,
            "within_bound": gap / scale >= -metric["bound"],
            "resolved": spread / scale <= metric["bound"] or summary["change_beats_all"][name],
        }
        if name == claim:
            out[name]["claim_met"] = 10 * wins >= 9 * n_runs and gap > spread
    return out


def machine() -> dict:
    probe = "import numpy, sys; print(numpy.__version__); print(sys.version.split()[0])"
    numpy_version, python_version = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": python_version, "numpy": numpy_version,
            "bytecode_cached": not os.environ.get("PYTHONDONTWRITEBYTECODE")}


def stale_bytecode(checkout: Path) -> list[str]:
    """The checkout's src/**/*.py whose cached .pyc no longer matches them.

    A timestamp .pyc is current while its header holds the source's mtime
    and size (a hash-based one, the source's hash); Python compiles a stale
    module again on import. Paths relative to the checkout.
    """
    stale = []
    for path in sorted((checkout / "src").rglob("*.py")):
        cached = Path(importlib.util.cache_from_source(str(path)))
        if not cached.is_file():
            continue
        header = cached.read_bytes()[:16]
        if header[4:8] == bytes(4):
            st = path.stat()
            source = struct.pack("<II", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
        else:
            source = importlib.util.source_hash(path.read_bytes())
        if header[:4] != importlib.util.MAGIC_NUMBER or header[8:16] != source:
            stale.append(path.relative_to(checkout).as_posix())
    return stale


def src_lines(checkout: Path) -> int:
    """Lines in the checkout's src/**/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def code_lines(source: str) -> int:
    """Lines of Python source that hold code: not blank, a comment or a docstring.

    A line counts when a token other than a comment or layout starts or
    spans it; the lines of a module, class or function docstring do not.
    """
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def module_code_lines(checkout: Path) -> dict[str, int]:
    """``code_lines`` of each of the checkout's src/**/*.py, by its path under src/."""
    src = checkout / "src"
    return {path.relative_to(src).as_posix(): code_lines(path.read_text())
            for path in sorted(src.rglob("*.py"))}


def revision(checkout: Path) -> str | None:
    """The checkout's HEAD if the checkout is the top of its own git work
    tree, else None: an export made by ``git archive`` inside another
    repository would read that repository's HEAD."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, check=False).stdout.strip()

    top = git("rev-parse", "--show-toplevel")
    if not top or Path(top).resolve() != checkout.resolve():
        return None
    return git("rev-parse", "HEAD") or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    parser.add_argument("--layers", action="store_true",
                        help="add one traced run per seed, side and workload")
    parser.add_argument("--claim", metavar="METRIC",
                        help="end-to-end metric on which the change claims a gain")
    parser.add_argument("--out", type=Path, required=True)
    for side in SIDES:
        parser.add_argument(f"--{side}-rev", metavar="REV",
                            help=f"the {side}'s commit, required when the {side} checkout "
                                 "is not the top of its own git work tree")
    args = parser.parse_args(argv)
    revisions = {side: getattr(args, f"{side}_rev") or revision(getattr(args, side))
                 for side in SIDES}
    missing = [side for side in SIDES if revisions[side] is None]
    if missing:
        parser.error(", ".join(f"--{side}-rev" for side in missing) + ": "
                     + " and ".join(missing) + " not the top of a git work tree; name the commit")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in spec.get("per_layer", [])}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")

    host = machine()
    stale = {side: stale_bytecode(getattr(args, side)) for side in SIDES}
    if not host["bytecode_cached"] and any(stale.values()):
        parser.error(
            "stale bytecode, compiled again by every run since PYTHONDONTWRITEBYTECODE "
            "is set: " + "; ".join(f"{side} {', '.join(files)}"
                                   for side, files in stale.items() if files)
            + "; delete these modules' __pycache__ files or unset PYTHONDONTWRITEBYTECODE"
        )
    lines = {side: src_lines(getattr(args, side)) for side in SIDES}
    modules = {side: module_code_lines(getattr(args, side)) for side in SIDES}
    code = {side: sum(modules[side].values()) for side in SIDES}
    record = {
        "command": ["bench/run.py", "--seconds", seconds, "--trace", 0],
        "machine": {**host, "stale_bytecode": stale},
        "revisions": revisions,
        "src_lines": lines,
        "src_lines_net": lines["change"] - lines["parent"],
        "src_code_lines": code,
        "src_code_lines_net": code["change"] - code["parent"],
        "src_code_lines_by_module": modules,
        "src_code_lines_net_by_module": {
            name: modules["change"].get(name, 0) - modules["parent"].get(name, 0)
            for name in sorted(modules["parent"].keys() | modules["change"].keys())
        },
        "workloads": {},
    }
    for workload in workloads:
        runs = run_pairs(args, workload, seconds, 0)
        summary = summarize(runs, better)
        entry = {"runs": runs, **summary,
                 "verdict": verdicts(summary, len(runs), spec["end_to_end"], args.claim)}
        if args.layers:
            traced = run_pairs(args, workload, seconds, 1)
            entry["layers"] = {"runs": traced, **summarize(traced, layer_better)}
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    wrong = [f"{workload} seed {run['seed']} {side}"
             for workload, entry in record["workloads"].items()
             for run in entry["runs"] + entry.get("layers", {}).get("runs", [])
             for side in SIDES if not run[side]["correct"]]
    if wrong:
        print("runs with correct: false: " + ", ".join(wrong), file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
