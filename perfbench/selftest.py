"""Tiny-size self-test of the benchmark's output contract.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny size, untraced and
traced, and checks that the last line is the result object with exactly
the keys correct, attempted, failed and metrics; that the run was correct
with no failed operation; and that every metric BENCHMARK.json names is
emitted with its unit as a finite number.  Two untraced runs with the same
seed must report the same artifact digests.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), None


def _problems(result: dict, expected: dict) -> list:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        out.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        out.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        out.append(f"missing {sorted(set(expected) - set(metrics))}, "
                   f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit:
            out.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"{name}: value {value!r}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = []
        for trace in (0, 1, 0):
            record, result, error = _run(workload, trace)
            problems = [error] if error else _problems(result, expected[trace])
            if record is not None and trace == 0:
                digests.append(record["artifacts"])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(problems)
        if len(digests) == 2 and digests[0] != digests[1]:
            print(f"{workload}: FAIL artifact digests differ between two runs with one seed")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
