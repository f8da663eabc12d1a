#!/usr/bin/env python3
"""Benchmark of the ngg estimator pipeline.

    python3 perfbench/run.py --workload simulate_n2000 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7       # every workload, one table

Run from the root of a checkout; the program is imported from ``src/``.
One client drives one op at a time (closed loop).  ``--trace 0`` measures
the end-to-end metrics with the program untouched; ``--trace 1`` runs the
ops in-process, alternating untraced and traced ops, and reports per-layer
metrics from the spans.  Every metric is printed as ``name = value unit``;
the last line of stdout is the JSON result.  Scratch files, results and
span dumps go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics, nesting_errors, self_times
from workloads import (
    DEFAULT_SEED,
    REFERENCE_PATH,
    WORKLOADS,
    CheckFailed,
    compare_reference,
    load_references,
    run_child,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes (self-test)")
    p.add_argument("--record-reference", action="store_true",
                   help=f"store this run's outputs in {REFERENCE_PATH.name} (default seed)")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_program():
    if not (ROOT / "src" / "ngg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {ROOT / 'src' / 'ngg'}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import ngg
    import ngg.cli  # noqa: F401  (traced through its module attributes)

    return ngg


def _git_rev():
    """HEAD of the checkout, or None when the checkout is not itself a git
    work tree (``src_sha256`` identifies the program then)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ngg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = os.cpu_count() or 1
    ngg_threads = os.environ.get("NGG_THREADS")
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "NGG_THREADS": ngg_threads,
        # the program's rule: NGG_THREADS if set, else min(4, nproc)
        "ngg_threads_effective": ngg_threads or str(min(4, nproc)),
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
    }


def _tail(walls):
    """Highest percentile with at least 10 ops beyond it, or None."""
    for q in TAIL_PERCENTILES:
        if len(walls) * (1 - q / 100) >= 10:
            return q, float(np.percentile(walls, q))
    return None


class Run:
    """Bookkeeping of one run: ops attempted, failures, output checks."""

    def __init__(self, wl, record: bool):
        self.wl = wl
        self.record = record
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None
        if wl.seed == DEFAULT_SEED and not wl.toy and not record:
            self.reference = load_references().get(wl.name)
            if self.reference is None:
                raise SystemExit(f"perfbench: no reference outputs for {wl.name}")

    def fail(self, message):
        self.attempted += 1
        self.failures.append(message)

    def account(self, result: dict) -> dict:
        """Count one op; a failed output check marks it failed."""
        self.attempted += 1
        if result["error"] is None and self.reference is not None:
            try:
                compare_reference(result["summary"], self.reference)
            except CheckFailed as exc:
                result["error"] = f"reference: {exc}"
        if result["error"] is not None:
            self.failures.append(result["error"])
        elif self.record and self.attempted == 1:
            refs = load_references()
            refs[self.wl.name] = {"seed": self.wl.seed, **self.wl.config(), **result["summary"]}
            body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items())
            REFERENCE_PATH.write_text("{\n" + body + "\n}\n", encoding="utf-8")
        return result

    def risk(self, ops):
        risks = [op["summary"]["risk"] for op in ops if op["error"] is None]
        return float(np.mean(risks)) if risks else 0.0


def _loop(seconds, step):
    """Closed loop: call ``step(i)`` until ``seconds`` have passed and it has
    returned True at least once."""
    t0 = time.perf_counter()
    i, done = 0, False
    while not done or time.perf_counter() - t0 < seconds:
        done = step(i) or done
        i += 1


def timed_run(wl, ngg, run: Run, seconds) -> tuple[dict, dict]:
    setups = []
    for i in range(SETUP_REPEATS):
        log = wl.work / f"probe{i}.stderr"
        code, wall, _ = run_child(wl.probe_argv(), ROOT, wl.env, log)
        if code != 0:
            run.fail(f"set-up probe exit code {code}: {log.read_text(errors='replace')[-400:]}")
        setups.append(wall)
    wl.setup(ngg)
    if wl.inprocess:
        wl.warmup()
    ops = []

    def step(_):
        ops.append(run.account(wl.op(inprocess=wl.inprocess)))
        return True

    _loop(seconds, step)
    walls = [op["wall"] for op in ops]
    metrics = {
        "ops_per_s": (sum(op["units"] for op in ops) / sum(walls), "1/s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(op["rss_mb"] for op in ops), "MB"),
        "risk": (run.risk(ops), "delta2_sq"),
        "ok_ratio": ((run.attempted - len(run.failures)) / run.attempted, "ratio"),
    }
    tail = _tail(walls)
    extra = {"ops": ops, "setup_walls": setups, "op_count": len(ops),
             "tail": {"percentile": tail[0], "op_s": tail[1]} if tail else None}
    return metrics, extra


def traced_run(wl, ngg, run: Run, seconds) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer.traced_op(ngg, "setup"):
        wl.setup(ngg)
    wl.warmup()
    plain, traced = [], []

    def step(i):
        if i % 2 == 0:
            plain.append(run.account(wl.op(inprocess=True)))
            return False
        with tracer.traced_op(ngg, len(traced) + 1):
            traced.append(run.account(wl.op(inprocess=True)))
        return True

    _loop(seconds, step)
    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(op["wall"] for op in traced)
        / statistics.median(op["wall"] for op in plain), "ratio")
    nesting = nesting_errors(tracer.spans)
    if nesting:
        run.fail(f"trace: {len(nesting)} spans do not nest, first: {nesting[0]}")
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    spans_path = OUT / "trace" / f"{wl.name}-seed{wl.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    op_spans = [s for s in tracer.spans if s["op"] != "setup"]
    self_s = self_times(op_spans)
    extra = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
             "nesting_errors": len(nesting), "ops": plain + traced,
             "self_s_per_op": {k: v / len(traced) for k, v in sorted(self_s.items())}}
    return metrics, extra


def run_one(args) -> int:
    ngg = _load_program()
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed, args.toy)
        run = Run(wl, args.record_reference)
        wl.prepare()
        measure = traced_run if args.trace else timed_run
        metrics, extra = measure(wl, ngg, run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        tail = extra["tail"]
        print(f"ops = {extra['op_count']}; tail: " + (
            f"p{tail['percentile']:g} = {tail['op_s']:.6g} s" if tail
            else "none (fewer than 20 ops)"))
    else:
        for name, secs in extra["self_s_per_op"].items():
            print(f"self {name} = {secs:.6g} s/op")
    for msg in sorted(set(run.failures))[:5]:
        print(f"FAILED ({run.failures.count(msg)}x): {msg}")
    print("env " + json.dumps(env))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    detail = {"workload": wl.name, "config": wl.config(), "trace": args.trace,
              "seconds": args.seconds, "env": env, **result, **extra}
    path = OUT / "results" / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload); one
    combined table and result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv + (["--toy"] if args.toy else []), cwd=ROOT,
                             capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            raise SystemExit(f"perfbench: workload {name} exited with {out.returncode}")
        print(f"## {name} (seed {args.seed})")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def probe(args) -> int:
    """Set-up probe of an in-process workload: import, basis, reference
    quadrature and one toy op, in a fresh process."""
    ngg = _load_program()
    wl = WORKLOADS[args.workload](ROOT, Path(args.work), DEFAULT_SEED, True)
    wl.setup(ngg)
    wl.warmup()
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
