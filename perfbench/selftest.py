#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

For every workload, a timed and a traced run at toy size must exit 0, pass
their output checks, and emit exactly the metrics BENCHMARK.json names; the
traced run's spans must nest.  Without the program next to it, the
benchmark must exit non-zero and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import nesting_errors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            out = _run(ROOT, workload, trace)
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}: {out.stderr[-300:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ expected[trace])}")
            if trace:
                path = ROOT / ".perfbench" / "trace" / f"{workload}-seed{SEED}.jsonl"
                lines = [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines()]
                spans = [s for s in lines if "name" in s]
                if len(spans) < 3:
                    problems.append(f"{label}: only {len(spans)} spans")
                problems.extend(f"{label}: {e}" for e in nesting_errors(spans)[:5])
            print(f"ok {label}" if not problems else f"checked {label}", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(bare, spec["workloads"][0]["name"], 0)
    if out.returncode == 0 or out.stdout.strip():
        problems.append(f"without the program: exit {out.returncode}, stdout {out.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
