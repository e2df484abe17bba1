"""Benchmark of the liouville package: one workload, one seed, one result line.

    python3 bench/run.py --workload radial-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is used from ``src`` as is.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics of a
traced run. The lines before it say in words what was measured. The exit
code is 0 only when a result line was printed.

Each workload runs in its own process (``bench/worker.py``) with BLAS pinned
to one thread. ``setup_s`` is the median over ``SETUPS`` launches of the
time from starting that process to its first timed operation. Times are
scaled to a nominal host speed by ``bench/speed.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("radial-sweep", "shooting-invert", "torus-leading", "cli-cold")
SETUPS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
       "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The run could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PIN})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _lines(proc, deadline: float):
    """Yield (arrival time, line) from the worker's stdout until it closes."""
    fd = proc.stdout.fileno()
    pending = b""
    while True:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("the workload process ran past the deadline")
        if not select.select([fd], [], [], timeout)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        now = time.monotonic()
        if not chunk:
            return
        pending += chunk
        *lines, pending = pending.split(b"\n")
        for line in lines:
            yield now, line.decode()


def run_worker(args, mode: str, deadline: float):
    """Start one workload process; return (set-up seconds, last output line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.monotonic()
    # own process group, so that killing it also ends the CLI processes it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            start_new_session=True)
    setup, last = None, None
    try:
        for now, line in _lines(proc, deadline):
            if line == "READY" and setup is None:
                setup = now - start
            elif line.strip():
                last = line
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise BenchError(f"workload process ({mode}) exited with code {code}")
    return setup, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liouville" / "__init__.py").is_file():
        print(f"bench: no liouville package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still stops its workload process (see run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            _, line = run_worker(args, "trace", deadline)
            result = json.loads(line)
            correct = result["wrong"] == 0 and result["counters_repeat"]
            metrics = result["metrics"]
        else:
            setups = []
            for mode in ["setup"] * (SETUPS - 1) + ["measure"]:
                setup, line = run_worker(args, mode, deadline)
                result = json.loads(line)
                setups.append(setup * result["setup_factor"])
            correct = result["wrong"] == 0
            metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                       **result["metrics"]}
    except (BenchError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    describe(args, result, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def describe(args, result, metrics) -> None:
    """Human-readable lines before the result line."""
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed} ({mode}): {result['attempted']} ops, "
          f"{result['failed']} failed, {result['wrong']} with a wrong value")
    for message, count in sorted(result["failures"].items()):
        print(f"  failure x{count}: {message}")
    if args.trace:
        if result["absent"]:
            print(f"  absent (not traced): {', '.join(result['absent'])}")
        if not result["counters_repeat"]:
            print(f"  counters differ between the two traced passes: {result['counters']}")
    else:
        info = result["info"]
        raw = info["raw"]
        print(f"  {info['blocks']} blocks in {info['elapsed_s']:.2f} s; op_ms_tail is "
              f"p{info['tail_percentile']:.1f} of {info['samples']} samples")
        print(f"  speed probe median {info['probe_ms']:.3f} ms; unscaled: ops_per_s "
              f"{raw['ops_per_s']:.4g}, op_ms_p50 {raw['op_ms_p50']:.4g}, "
              f"op_ms_tail {raw['op_ms_tail']:.4g}")
        for kind, k in info["kinds"].items():
            print(f"  {kind}: {k['ops']} ops, {k['per_s']:.4g}/s verified, p50 "
                  f"{k['ms_p50']:.4g} ms, tail {k['ms_tail']:.4g} ms "
                  f"(p{k['tail_percentile']:.1f})")
        if "green_points_per_s" in info:
            print(f"  green_points_per_s = {info['green_points_per_s']:.6g} 1/s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
