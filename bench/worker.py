"""Workload process: set up one workload, then time it or trace it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

``bench/run.py`` starts this process with ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread. It prints ``READY`` once set-up is done (interpreter,
``import liouville``, input generation, warm-up), so the parent can time
set-up from launch. Modes:

* ``setup``: after ``READY``, print only the speed factor that scales the
  set-up time.
* ``measure``: run whole blocks of operations until the next block would
  end past ``--seconds``; print the end-to-end metrics as one JSON line.
* ``trace``: run a fixed number of blocks once untraced and twice traced,
  check that the exact counters repeat, write the spans under
  ``.bench_work/trace/`` and print the per-layer metrics as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from spans import OP_PREFIX, SPAN_METRICS, Tracer, span_metrics
from speed import Probes, factor, probe_ms
from workloads import COMMANDS, WORKLOADS, CheckFailed, CliCold, WrongExit

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

OK, WRONG, EXIT, RAISED = "ok", "wrong", "exit", "raised"
STARTUP_REPEATS = 5
SETUP_PROBES = 25


def execute(wl, op, tracer=None):
    """Run one op; return (latency in s, status, message).

    Only ``run`` is timed. ``WRONG`` is a value outside its tolerance,
    ``EXIT`` a wrong CLI exit code, ``RAISED`` an exception from the program.
    """
    latency = 0.0
    try:
        index = tracer.open(OP_PREFIX + op.kind) if tracer else None
        try:
            wl.prepare(op)
            start = time.perf_counter()
            result = wl.run(op)
            latency = time.perf_counter() - start
        finally:
            if tracer:
                tracer.close(index)
        with tracer.paused() if tracer else contextlib.nullcontext():
            wl.check(op, result)
    except CheckFailed as exc:
        return latency, WRONG, str(exc)
    except WrongExit as exc:
        return latency, EXIT, str(exc)
    except Exception as exc:  # one failing op must not end the run
        return latency, RAISED, f"{op.kind}: {type(exc).__name__}: {exc}"
    return latency, OK, ""


def tally(records) -> dict:
    """Attempted, failed and wrong counts plus the distinct failure messages."""
    failures: dict[str, int] = {}
    for record in records:
        if record[2] != OK:
            failures[record[3]] = failures.get(record[3], 0) + 1
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r[2] != OK),
        "wrong": sum(1 for r in records if r[2] == WRONG),
        "failures": failures,
    }


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, pct).

    With ten samples or fewer no such percentile exists; the maximum stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(wl, block, seconds: float) -> dict:
    """Whole blocks until the next one would end past ``seconds``.

    Each op's wall time is scaled by the speed probes (``speed.py``) taken
    between ops within one op duration of it on either side, so a long op is
    scaled by the host speed around it and a short one by the probes just
    before and after it. Throughput is the median over blocks of verified
    ops per second.
    """
    probes = Probes()
    records = []  # (kind, latency s, status, message), then its speed factor
    spans = []  # (start, end) of each op
    blocks = []  # (first record, verified ops, seconds without probes)
    start = time.perf_counter()
    probes.take()
    while True:
        block_start, first, probing = time.perf_counter(), len(records), probes.spent
        for op in block:
            t0 = time.perf_counter()
            latency, status, message = execute(wl, op)
            t1 = time.perf_counter()
            probes.take()
            records.append((op.kind, latency, status, message))
            spans.append((t0, t1))
        now = time.perf_counter()
        passed = sum(1 for r in records[first:] if r[2] == OK)
        blocks.append((first, passed, now - block_start - (probes.spent - probing)))
        elapsed = now - start
        if elapsed * (len(blocks) + 1) / len(blocks) > seconds:
            break
        block = wl.block()
    records = [r + (probes.factor(*span),) for r, span in zip(records, spans)]
    rates = []
    for k, (first, passed, seconds_busy) in enumerate(blocks):
        last = blocks[k + 1][0] if k + 1 < len(blocks) else len(records)
        done = records[first:last]
        weighted = sum(r[1] * r[4] for r in done) / (sum(r[1] for r in done) or 1.0)
        rates.append((passed / seconds_busy, weighted))
    out = tally(records)
    raw_ms = [1e3 * r[1] for r in records]
    latencies_ms = [ms * r[4] for ms, r in zip(raw_ms, records)]
    tail_ms, tail_pct = tail(latencies_ms)
    passed = out["attempted"] - out["failed"]
    out["metrics"] = {
        "pass_ratio": {"value": passed / out["attempted"], "unit": "1"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        "ops_per_s": {"value": statistics.median(rate / f for rate, f in rates), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "op_ms_tail": {"value": tail_ms, "unit": "ms"},
    }
    out["info"] = {
        "blocks": len(blocks), "elapsed_s": elapsed, "samples": len(latencies_ms),
        "tail_percentile": tail_pct,
        "probe_ms": statistics.median(probes.ms),
        "raw": {"ops_per_s": statistics.median(rate for rate, _ in rates),
                "op_ms_p50": statistics.median(raw_ms), "op_ms_tail": tail(raw_ms)[0]},
        "kinds": {},
    }
    for kind in sorted({r[0] for r in records}):
        lat = [ms for ms, r in zip(latencies_ms, records) if r[0] == kind]
        ok = sum(1 for r in records if r[0] == kind and r[2] == OK)
        kind_tail, kind_pct = tail(lat)
        out["info"]["kinds"][kind] = {
            "ops": len(lat), "per_s": ok / elapsed, "ms_p50": statistics.median(lat),
            "ms_tail": kind_tail, "tail_percentile": kind_pct,
        }
        if kind == "field":
            out["info"]["green_points_per_s"] = wl.points_per_op * ok / (1e-3 * sum(lat))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(wl, ops, records, tracer=None) -> float:
    start = time.perf_counter()
    for op in ops:
        records.append((op.kind, *execute(wl, op, tracer)))
    return time.perf_counter() - start


def startup_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of ``import liouville`` minus it."""
    def wall(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        return time.perf_counter() - start

    interp = statistics.median(wall("pass") for _ in range(STARTUP_REPEATS))
    imported = statistics.median(wall("import liouville") for _ in range(STARTUP_REPEATS))
    return 1e3 * interp, 1e3 * (imported - interp)


def trace(wl, block, label: str) -> dict:
    ops = list(block)
    for _ in range(wl.trace_blocks - 1):
        ops += wl.block()
    # cli-cold: one pass of cold processes, then the passes run in-process
    cold = []
    if isinstance(wl, CliCold):
        run_pass(wl, ops, cold)
        wl.warm = True
    plain = []
    untraced = run_pass(wl, ops, plain)
    records = cold + plain
    tracers, traced = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(wl, ops, records, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    cli_ms = {}
    for cmd in COMMANDS:
        cli_ms[f"cli.{cmd}.cold_ms"] = _median_ms(cold, cmd)
        cli_ms[f"cli.{cmd}.warm_ms"] = _median_ms(plain, cmd) if cold else 0.0

    (first, counters1), (second, counters2) = (span_metrics(t.spans) for t in tracers)
    repeat = counters1 == counters2
    WORK.joinpath("trace").mkdir(parents=True, exist_ok=True)
    for k, tracer in enumerate(tracers, 1):
        header = {"workload": wl.name, "label": label, "pass": k, "absent": tracer.absent,
                  "counters": counters1 if k == 1 else counters2}
        tracer.write(WORK / "trace" / f"{label}-pass{k}.jsonl", header)

    interp, imported = startup_ms()
    metrics = {
        name: {"value": (first[name] + second[name]) / 2.0, "unit": unit}
        for name, unit in SPAN_METRICS.items()
    }
    metrics["cli.interp_ms"] = {"value": interp, "unit": "ms"}
    metrics["cli.import_ms"] = {"value": imported, "unit": "ms"}
    metrics.update({k: {"value": v, "unit": "ms"} for k, v in cli_ms.items()})
    metrics["trace.overhead_ratio"] = {
        "value": statistics.mean(traced) / untraced, "unit": "1"
    }
    out = tally(records)
    out["metrics"] = metrics
    out["counters_repeat"] = repeat
    out["counters"] = [counters1, counters2] if not repeat else counters1
    out["absent"] = tracers[0].absent
    return out


def _median_ms(records, kind) -> float:
    values = [1e3 * r[1] for r in records if r[0] == kind and r[2] == OK]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        block = wl.block()
        print("READY", flush=True)
        # the host speed right after set-up scales the set-up time
        setup_factor = factor(statistics.median(probe_ms() for _ in range(SETUP_PROBES)))
        if args.mode == "measure":
            result = measure(wl, block, args.seconds)
        elif args.mode == "trace":
            result = trace(wl, block, f"{args.workload}-seed{args.seed}")
        else:
            result = {}
        result["setup_factor"] = setup_factor
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
