"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py [workload ...]

Runs each workload of ``BENCHMARK.json`` (or the ones named) for one block
of operations untraced (``--seconds 1``) and once traced, and checks each
result line: its keys, ``correct``, whole ``attempted``/``failed`` counts,
and that the metrics are exactly the ones ``BENCHMARK.json`` declares for
that mode, each with its declared unit. Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def problems(result: dict, declared: dict) -> list[str]:
    found = []
    if set(result) != KEYS:
        found.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        found.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            found.append(f"{key} is not a whole number")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        found.append(f"metrics differ: missing {sorted(set(declared) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            found.append(f"{name}: unit {metric.get('unit')!r}, declared {unit!r}")
        if not isinstance(metric.get("value"), (int, float)):
            found.append(f"{name}: value {metric.get('value')!r} is not a number")
    return found


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (argv if argv is not None else sys.argv[1:]) or [w["name"] for w in spec["workloads"]]
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for name in names:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                found = [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                found = problems(json.loads(lines[-1]), declared[trace])
            print(f"{name} trace={trace}: {'ok' if not found else '; '.join(found)}")
            failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
