#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny sizes; finishes in well under a minute.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json through `bench/run.py --tiny`,
untraced and traced, and checks that each run exits 0 with a last line that
parses as the result object, passes its correctness checks and names exactly
the metrics BENCHMARK.json lists, with their units. It also checks that the
benchmark fails, printing no result, when the program's sources are absent.
Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("train-synth700", "train-wide")
END_TO_END = ("setup_s", "train_s", "tag_tokens_per_s", "peak_rss_mb")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)


def result_problems(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if metric.get("unit") != expected.get(name):
            problems.append(f"{name} unit {metric.get('unit')!r}, expected {expected.get(name)!r}")
    return problems


def main() -> int:
    problems = []
    listed = [w["name"] for w in SPEC["workloads"]]
    if sorted(listed) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {listed}")
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    if sorted(e2e) != sorted(END_TO_END):
        problems.append(f"BENCHMARK.json end-to-end metrics {e2e}")

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload in listed:
            found = result_problems(run(ROOT, workload, trace), expected)
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")

    # without src/ the benchmark must fail and print no result
    with tempfile.TemporaryDirectory(prefix=".work-smoke-", dir=BENCH) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith('{"correct"')):
            problems.append("a checkout without src/ did not fail")
        print(f"without src/: exit {proc.returncode}")

    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
