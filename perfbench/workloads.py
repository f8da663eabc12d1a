"""The three benchmark workloads: their inputs, one op each, and the checks
every op's output must pass.

``simulate_n2000`` and ``estimate_n4000`` run the ``ngg`` command line, as a
child process when timed (thread policy lives at the entry point) or through
``ngg.cli.main`` when traced.  ``fit_r6`` calls the library in-process on a
spectrum the benchmark computed itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import synth

DEFAULT_SEED = 0
# Reference outputs are compared with this tolerance: BLAS thread count alone
# moves the last digit of the eigenvalues, so bit-exact would be too strict.
RTOL = 1e-7
ATOL = 1e-12
# Recomputed quantities (stage run means, delta2, spectrum moments) agree to
# rounding; this is far below any change an estimator defect would make.
RECOMPUTE_RTOL = 1e-9
CHILD_TIMEOUT_S = 170.0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    pass


def _close(name, got, want, rtol, atol=ATOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=atol):
        raise CheckFailed(f"{name}: got {got.tolist()}, expected {want.tolist()}")


def _argmin_r(rows) -> int:
    """Selected resolution rule: least objective, ties to the smallest r."""
    return min(rows, key=lambda rc: (rc[1], rc[0]))[0]


def _check_risk_ceiling(risk: float, truth: np.ndarray):
    trivial = float(np.sum(synth.dims(truth.size - 1) * truth**2))
    if not (math.isfinite(risk) and risk < 0.5 * trivial):
        raise CheckFailed(f"risk {risk!r} is not below half the zero estimator's {trivial:.6g}")


def compare_reference(summary: dict, ref: dict):
    """Exact on selected_r and every resolution's ordering; RTOL/ATOL on
    every resolution's stages and on risk."""
    for key in ("selected_r", "ordering"):
        if summary[key] != ref[key]:
            raise CheckFailed(f"{key}: got {summary[key]}, reference {ref[key]}")
    for got_graph, want_graph in zip(summary["stages"], ref["stages"], strict=True):
        for got, want in zip(got_graph, want_graph, strict=True):
            _close("stages", got, want, RTOL)
    _close("risk", summary["risk"], ref["risk"], RTOL)


def load_references() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return {}


def run_child(argv, cwd: Path, env: dict, log: Path):
    """Run one child to completion; return (exit code, wall s, peak RSS MB).
    ``os.wait4`` gives this child's own peak RSS; a timer kills a hung child."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Workload:
    """One workload at one seed.  ``units`` is the work in one op (replicates
    for simulate, 1 otherwise)."""

    name = ""
    envelope = ""
    units = 1
    inprocess = False  # timed ops run in this process (else a child each)

    def __init__(self, root: Path, work: Path, seed: int, toy: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.toy = toy
        self.size = self.TOY if toy else self.FULL
        self.truth = synth.truth_coefficients(self.envelope)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self._ops = 0

    def config(self) -> dict:
        return {"seed": self.seed, "toy": self.toy, **self.size}

    def prepare(self):
        """Build the inputs from the seed (untimed, not part of set-up)."""

    def probe_argv(self) -> list[str]:
        """A fresh process that sets the program up and runs one toy op."""
        raise NotImplementedError

    def setup(self, ngg):
        """In-process set-up before the first op of this process."""
        self.ngg = ngg

    def warmup(self):
        """Untimed toy op in this process, run before in-process timing."""

    def op(self, inprocess: bool) -> dict:
        """One timed op: wall, units, peak RSS, output summary or error."""
        raise NotImplementedError

    def _finish(self, wall, rss_mb, read_summary) -> dict:
        result = {"wall": wall, "units": self.units, "rss_mb": rss_mb, "error": None,
                  "summary": None}
        try:
            result["summary"] = read_summary()
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError,
                StopIteration) as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
        return result


class _CliWorkload(Workload):
    """A workload whose op is one ``ngg`` command-line invocation."""

    def cli_args(self, size: dict, out: Path) -> list[str]:
        raise NotImplementedError

    def probe_argv(self):
        out = self.work / f"{self.name}-probe.json"
        return [sys.executable, "-m", "ngg", *self.cli_args(self.TOY, out)]

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.ngg.cli.main(self.cli_args(self.TOY, self.work / f"{self.name}-warm.json"))

    def op(self, inprocess):
        self._ops += 1
        out = self.work / f"{self.name}-op{self._ops}.json"
        args = self.cli_args(self.size, out)
        if inprocess:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.ngg.cli.main(args)
            except Exception as exc:  # a failed op is counted, not fatal
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            rss = self_peak_rss_mb()
        else:
            log = out.with_suffix(".stderr")
            code, wall, rss = run_child([sys.executable, "-m", "ngg", *args],
                                        self.root, self.env, log)

        def read():
            if code != 0:
                tail = "" if inprocess else log.read_text(errors="replace")[-400:]
                raise CheckFailed(f"exit {code}: {tail.strip()}")
            report = json.loads(out.read_text(encoding="utf-8"))
            return self.check(report)

        result = self._finish(wall, rss, read)
        for path in (out, out.with_suffix(".csv"), out.with_suffix(".stderr")):
            path.unlink(missing_ok=True)
        return result


class SimulateN2000(_CliWorkload):
    """Replicate-parallel generation and eigensolves through ``ngg simulate``."""

    name = "simulate_n2000"
    envelope = "p5"
    FULL = {"n": 2000, "replicates": 8, "r_max": 4}
    TOY = {"n": 100, "replicates": 2, "r_max": 4}

    def __init__(self, *a):
        super().__init__(*a)
        self.units = self.size["replicates"]

    def cli_args(self, size, out):
        return ["simulate", "--space", "sphere:3", "--envelope", self.envelope,
                "--n", str(size["n"]), "--replicates", str(size["replicates"]),
                "--r-max", str(size["r_max"]), "--seed", str(self.seed), "--out", str(out)]

    def check(self, report: dict) -> dict:
        n, reps = self.size["n"], self.size["replicates"]
        records = report["records"]
        if len(records) != reps:
            raise CheckFailed(f"{len(records)} records for {reps} replicates")
        c0 = self.truth[0]
        summary = {"selected_r": [], "ordering": [], "stages": [], "risk": 0.0}
        errors = []
        for rec in records:
            if "error" in rec:
                raise CheckFailed(f"replicate {rec.get('replicate')}: {rec['error']}")
            if rec["n"] != n:
                raise CheckFailed(f"record n = {rec['n']}, expected {n}")
            density = rec["edge_count"] / (n * (n - 1) / 2)
            if abs(density - c0) > 0.05:
                raise CheckFailed(f"edge density {density:.4f} far from p5's mean {c0:.4f}")
            r = rec["selected_r"]
            if r != _argmin_r([(row[0], row[3]) for row in rec["gl_rows"]]):
                raise CheckFailed(f"selected_r {r} does not minimize the objective")
            fit = next(f for f in rec["fits"] if f["r"] == r)
            err = synth.squared_error(fit["stages"], self.truth)
            _close("delta2_selected_vs_truth^2", rec["delta2_selected_vs_truth"] ** 2, err,
                   RECOMPUTE_RTOL, atol=1e-10)
            errors.append(err)
            fits = sorted(rec["fits"], key=lambda f: f["r"])
            summary["selected_r"].append(r)
            summary["ordering"].append([f["ordering"] for f in fits])
            summary["stages"].append([f["stages"] for f in fits])
        summary["risk"] = float(np.mean(errors))
        reported = report["aggregates"]["per_n"][str(n)]["mean_sq_delta2_selected"]
        _close("mean_sq_delta2_selected", reported, summary["risk"], RECOMPUTE_RTOL, atol=1e-10)
        _check_risk_ceiling(summary["risk"], self.truth)
        return summary


class EstimateN4000(_CliWorkload):
    """One large eigensolve of an edge list read through ``ngg estimate``."""

    name = "estimate_n4000"
    envelope = "p6"
    FULL = {"n": 4000, "r_max": 4}
    TOY = {"n": 300, "r_max": 4}

    def prepare(self):
        self.edges = synth.sample_edges(self.seed, self.size["n"], self.envelope)
        self.n = int(self.edges.max()) + 1
        synth.write_edge_list(self.work / "edges.txt", self.edges)
        synth.write_edge_list(self.work / "probe-edges.txt",
                              synth.sample_edges(self.seed, self.TOY["n"], self.envelope))

    def cli_args(self, size, out):
        edges = "edges.txt" if size is self.size else "probe-edges.txt"
        return ["estimate", "--input", str(self.work / edges), "--dim", "3",
                "--r-max", str(size["r_max"]), "--out", str(out)]

    def check(self, report: dict) -> dict:
        n = self.n
        if report["n"] != n:
            raise CheckFailed(f"report n = {report['n']}, edge list has {n} nodes")
        values = np.asarray(report["spectrum"], dtype=float)
        if values.size != n or np.any(np.diff(values) > 0):
            raise CheckFailed("spectrum is not n values in descending order")
        # trace(A/n) = 0 and ||A/n||_F^2 = 2E / n^2 hold exactly for any graph
        if abs(values.sum()) > 1e-9:
            raise CheckFailed(f"eigenvalues sum to {values.sum()!r}, not 0")
        _close("sum of squared eigenvalues", np.sum(values**2),
               2 * len(self.edges) / n**2, RECOMPUTE_RTOL)
        return _fit_summary(report["selected_r"],
                            [(row["r"], row["objective"]) for row in report["per_r"]],
                            {row["r"]: row for row in report["per_r"]},
                            values, self.truth)


def _fit_summary(selected_r, objectives, fits, values, truth) -> dict:
    """Checks shared by the spectrum-level workloads; ``fits[r]`` has
    ``stages`` and ``ordering`` for every fitted resolution r."""
    if selected_r != _argmin_r(objectives):
        raise CheckFailed(f"selected_r {selected_r} does not minimize the objective")
    orderings, stages = [], []
    for r in sorted(fits):
        orderings.append([int(s) for s in fits[r]["ordering"]])
        stages.append([float(v) for v in fits[r]["stages"]])
        _close(f"r={r} stages vs run means of the ordering", stages[-1],
               synth.run_means(values, orderings[-1], r), RECOMPUTE_RTOL)
    risk = synth.squared_error(fits[selected_r]["stages"], truth)
    _check_risk_ceiling(risk, truth)
    return {"selected_r": [selected_r], "ordering": [orderings], "stages": [stages],
            "risk": risk}


class FitR6(Workload):
    """Staircase fit over R = 1..6 and selection, in-process."""

    name = "fit_r6"
    envelope = "p4"
    inprocess = True
    FULL = {"n": 1000, "r_max": 6}
    TOY = {"n": 200, "r_max": 4}

    def _spectrum(self, n):
        return synth.spectrum(synth.sample_edges(self.seed, n, self.envelope), n)

    def prepare(self):
        self.spectrum = self._spectrum(self.size["n"])
        np.save(self.work / "probe-spectrum.npy", self._spectrum(self.TOY["n"]))

    def probe_argv(self):
        return [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
                "--workload", self.name, "--probe", "--work", str(self.work)]

    def setup(self, ngg):
        super().setup(ngg)
        self.basis = ngg.harmonic_basis(ngg.sphere(3), synth.TRUTH_DEGREE)
        envelope = ngg.builtin_envelope(int(self.envelope[1:]))
        program_truth = ngg.true_coefficients(self.basis, envelope)
        _close("program reference coefficients", program_truth,
               self.truth[: program_truth.size], RECOMPUTE_RTOL, atol=1e-12)

    def _fit(self, values, r_max):
        ngg = self.ngg
        config = ngg.AdaptConfig(n=values.size, r_max=r_max, kappa=0.25)
        fits = ngg.fit_all_resolutions(values, self.basis, config)
        return fits, ngg.select_resolution(fits, config, self.basis)

    def warmup(self):
        self._fit(np.load(self.work / "probe-spectrum.npy"), self.TOY["r_max"])

    def op(self, inprocess=True):
        values = self.spectrum
        error = None
        t0 = time.perf_counter()
        try:
            fits, result = self._fit(values, self.size["r_max"])
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0

        def read():
            if error:
                raise CheckFailed(error)
            return _fit_summary(
                result.selected_r,
                [(row.r, row.objective) for row in result.rows],
                {r: {"stages": f.stage_values, "ordering": f.ordering} for r, f in fits.items()},
                values, self.truth)

        return self._finish(wall, self_peak_rss_mb(), read)


WORKLOADS = {cls.name: cls for cls in (SimulateN2000, FitR6, EstimateN4000)}
