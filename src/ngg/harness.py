"""The estimation chain ``fit_graph``, which ``ngg estimate`` and every
replicate run, and the seeded Monte Carlo drivers: full estimation runs
and concentration rate checks.

Replicates run one after another in the calling thread; each derives its
seed as ``base_seed + replicate_index`` so reruns and cross-``n`` comparisons
pair up exactly.  Reports split into a deterministic JSON part (config, records,
aggregates) and a CSV part that additionally carries wall-clock timings.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from .adapt import AdaptConfig, fit_all_resolutions, resolution_grid, select_resolution
from .errors import DomainError
from .estimator import SpectrumEstimate, estimate_vector, spectrum_vector
from .model import Envelope, generate_graph, probability_matrix, sample_latent
from .reports import csv_beside, write_csv, write_json
from .spaces import (
    HarmonicBasis,
    LatentSpace,
    cumulative_dim,
    envelope_coefficients,
    harmonic_basis,
)
from .spectral import as_spectrum, check_dense_size, delta2, eigenvalues_symmetric, operator_norm

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "fit_graph",
    "run_experiment",
    "concentration_check",
    "replicate_graph",
    "true_coefficients",
    "build_identifier",
    "TRUTH_DEGREE",
]

# Highest degree of the reference expansion, and of the basis that
# coefficient-file envelopes are built on.
TRUTH_DEGREE = 64
_TRUTH_TAIL_TOL = 1e-12
_TRUTH_CHUNK = 8


def build_identifier() -> str:
    try:
        version = metadata.version("ngg")
    except metadata.PackageNotFoundError:
        version = "unpackaged"
    rev = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            rev = out.stdout.strip()
    except OSError:
        pass
    return f"ngg-{version}+{rev}"


def _check_run(n_values, replicates: int, seed: int) -> None:
    """Checks shared by every seeded run: at least one graph size and none
    twice, at least one replicate, and a nonnegative base seed."""
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
    if not n_values:
        raise DomainError("at least one graph size is required")
    if len(set(n_values)) != len(n_values):
        raise DomainError(f"graph sizes must be distinct, got {list(n_values)}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def true_coefficients(basis: HarmonicBasis, envelope: Envelope) -> np.ndarray:
    """Reference expansion of the envelope up to ``TRUTH_DEGREE``, cut short as
    soon as a whole chunk of degrees carries weighted mass below the tail tolerance."""
    max_degree = min(TRUTH_DEGREE, basis.max_degree)
    top = min(_TRUTH_CHUNK, max_degree)
    coeffs = envelope_coefficients(basis, envelope, top)
    while top < max_degree:
        lo = top + 1
        top = min(top + _TRUTH_CHUNK, max_degree)
        coeffs = envelope_coefficients(basis, envelope, top)
        dims = np.asarray(basis.dims[lo : top + 1], dtype=float)
        if float(np.sum(dims * coeffs[lo:] ** 2)) < _TRUTH_TAIL_TOL:
            break
    return coeffs


@dataclass(frozen=True)
class ExperimentConfig:
    space: LatentSpace
    envelope: Envelope
    n_values: tuple[int, ...]
    replicates: int
    r_max: int = 4
    kappa: float = 0.25
    base_seed: int = 0
    include_r0: bool = False

    def __post_init__(self):
        _check_run(self.n_values, self.replicates, self.base_seed)
        for n in self.n_values:
            self.adapt_config(n)  # kappa, and a candidate grid that is not empty
            need = 2 * cumulative_dim(self.space, self.r_max)
            if n < max(need, 2):
                raise DomainError(
                    f"n = {n} violates n >= 2 * cum_dim(r_max) = {need}"
                )
            check_dense_size(n, "graph size")

    def adapt_config(self, n: int) -> AdaptConfig:
        """The selection settings of a replicate on ``n`` nodes."""
        return AdaptConfig(n=n, r_max=self.r_max, kappa=self.kappa, include_r0=self.include_r0)

    def to_dict(self) -> dict:
        d: dict = {
            "space": f"{self.space.kind.value}:{self.space.dim}",
            "envelope": self.envelope.name,
            "n_values": list(self.n_values),
            "replicates": self.replicates,
            "r_max": self.r_max,
            "kappa": self.kappa,
            "base_seed": self.base_seed,
            "include_r0": self.include_r0,
        }
        if self.envelope.known_coeffs is not None:
            d["envelope_coeffs"] = [
                [int(ell), float(v)] for ell, v in self.envelope.known_coeffs
            ]
        return d


def _graph_seed(rep_seed: int) -> int:
    # independent stream for the Bernoulli draws, reproducible from rep_seed
    return int(np.random.SeedSequence([rep_seed, 0x9E3779B9]).generate_state(1, np.uint64)[0])


def replicate_graph(space: LatentSpace, envelope: Envelope, n: int, rep_seed: int):
    """The latent sample and the adjacency matrix of the replicate seeded
    ``rep_seed``, drawn exactly as ``run_experiment`` draws them."""
    latent = sample_latent(space, n, rep_seed)
    return latent, generate_graph(latent, envelope, _graph_seed(rep_seed))


@dataclass
class ExperimentReport:
    config: dict
    build: str
    truth: dict
    records: list
    aggregates: dict
    timings: list = field(default_factory=list)  # CSV-only, wall-clock per phase

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "simulation",
            "build": self.build,
            "config": self.config,
            "truth": self.truth,
            "records": self.records,
            "aggregates": self.aggregates,
        }

    def write(self, json_path, csv_path=None):
        if csv_path is None:
            csv_path = csv_beside(json_path)
        write_json(json_path, self.to_json_dict())
        r_max = self.config["r_max"]
        header = ["n", "replicate", "seed", "selected_r", "delta2_selected_vs_truth"]
        header += [f"stage_{ell}_at_rmax" for ell in range(r_max + 1)]
        header += ["t_sample", "t_generate", "t_eig", "t_fit", "t_adapt"]
        rows = []
        timing = {(t["n"], t["replicate"]): t for t in self.timings}
        for rec in self.records:
            if "error" in rec:
                continue
            stages = next(f["stages"] for f in rec["fits"] if f["r"] == r_max)
            t = timing.get((rec["n"], rec["replicate"]), {})
            rows.append(
                [rec["n"], rec["replicate"], rec["seed"], rec["selected_r"],
                 rec["delta2_selected_vs_truth"]]
                + list(stages)
                + [t.get(k, float("nan")) for k in
                   ("t_sample", "t_generate", "t_eig", "t_fit", "t_adapt")]
            )
        write_csv(csv_path, header, rows)


def fit_graph(adjacency: np.ndarray, basis: HarmonicBasis, config: AdaptConfig) -> tuple:
    """Spectrum of ``adjacency / n``, the staircase fit at every candidate
    resolution and the Goldenshluger-Lepski selection, as ``(spectrum,
    estimates, result, seconds)``; ``seconds`` times the scaling and solve,
    the fits, and the selection.  ``adjacency`` is consumed: it is divided by
    ``n`` in place (bit for bit ``adjacency / n``) and the solver overwrites it.

    The chain lives in this module because ``perfbench/tracing.py`` times its
    steps by wrapping the names this module looks them up by
    (``ngg.harness.eigenvalues_symmetric``, ``fit_all_resolutions``,
    ``select_resolution``).
    """
    t0 = time.perf_counter()
    adjacency /= adjacency.shape[0]
    spectrum = eigenvalues_symmetric(adjacency, overwrite=True)
    t1 = time.perf_counter()
    estimates = fit_all_resolutions(spectrum, basis, config)
    t2 = time.perf_counter()
    result = select_resolution(estimates, config, basis)
    t3 = time.perf_counter()
    return spectrum, estimates, result, (t1 - t0, t2 - t1, t3 - t2)


def _fit_fields(est: SpectrumEstimate) -> dict:
    """Report fields of one fit: a ``simulate`` record's ``fits`` and an
    ``estimate`` report's ``per_r`` both carry them."""
    return {"stages": [float(v) for v in est.stage_values], "score": float(est.score),
            "ordering": list(est.ordering)}


def _one_replicate(config: ExperimentConfig, basis: HarmonicBasis, truth: np.ndarray,
                   n: int, rep: int):
    rep_seed = config.base_seed + rep
    gseed = _graph_seed(rep_seed)
    t0 = time.perf_counter()
    latent = sample_latent(config.space, n, rep_seed)
    t1 = time.perf_counter()
    a = generate_graph(latent, config.envelope, gseed)
    t2 = time.perf_counter()
    edge_count = int(np.count_nonzero(a)) // 2  # before fit_graph consumes a
    _, estimates, result, (t_eig, t_fit, t_adapt) = fit_graph(a, basis, config.adapt_config(n))
    timing = {"n": n, "replicate": rep, "t_sample": t1 - t0, "t_generate": t2 - t1,
              "t_eig": t_eig, "t_fit": t_fit, "t_adapt": t_adapt}
    truth_full = as_spectrum(spectrum_vector(truth, basis.dims))
    fits = []
    for r in sorted(estimates):
        est = estimates[r]
        vec = as_spectrum(estimate_vector(est, basis.dims))
        fits.append(
            {
                "r": r,
                **_fit_fields(est),
                "delta2_vs_truth_r": delta2(vec, spectrum_vector(truth[: r + 1], basis.dims)),
                "delta2_vs_truth": delta2(vec, truth_full),
            }
        )
    record = {
        "n": n,
        "replicate": rep,
        "seed": rep_seed,
        "graph_seed": gseed,
        "edge_count": edge_count,
        "selected_r": result.selected_r,
        "gl_rows": [[row.r, row.bias, row.penalty, row.objective] for row in result.rows],
        "fits": fits,
        "delta2_selected_vs_truth": next(
            f["delta2_vs_truth"] for f in fits if f["r"] == result.selected_r),
    }
    return record, timing


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Sample, generate, eigendecompose, fit every candidate resolution,
    select, and record -- for every (n, replicate) pair.

    A failing replicate is recorded with its error message; it never aborts
    the rest of the run.
    """
    basis = harmonic_basis(config.space, max(TRUTH_DEGREE, config.r_max))
    truth = true_coefficients(basis, config.envelope)
    # one record per (n, replicate), in sorted order whatever the order of n_values
    tasks = sorted({(n, rep) for n in config.n_values for rep in range(config.replicates)})

    records, timings = [], []
    for n, rep in tasks:
        try:
            record, timing = _one_replicate(config, basis, truth, n, rep)
        except Exception as exc:  # recorded, not swallowed
            record = {"n": n, "replicate": rep, "seed": config.base_seed + rep,
                      "error": f"{type(exc).__name__}: {exc}"}
            timing = {"n": n, "replicate": rep}
        records.append(record)
        timings.append(timing)
    aggregates = _aggregate(config, basis, truth, records)
    return ExperimentReport(
        config=config.to_dict(),
        build=build_identifier(),
        truth={
            "max_degree": truth.size - 1,
            "dims": list(basis.dims[: truth.size]),
            "coefficients": [float(v) for v in truth],
        },
        records=records,
        aggregates=aggregates,
        timings=timings,
    )


def _aggregate(config: ExperimentConfig, basis: HarmonicBasis, truth: np.ndarray, records):
    per_n = {}
    for n in config.n_values:
        recs = [r for r in records if r.get("n") == n and "error" not in r]
        if not recs:
            per_n[str(n)] = {"replicates_ok": 0}
            continue
        d2 = np.asarray([r["delta2_selected_vs_truth"] for r in recs])
        hist = {}
        for r in recs:
            hist[str(r["selected_r"])] = hist.get(str(r["selected_r"]), 0) + 1
        risk_fixed = {}
        for rr in resolution_grid(config.adapt_config(n)):
            vals = [f["delta2_vs_truth_r"] for rec in recs for f in rec["fits"] if f["r"] == rr]
            risk_fixed[str(rr)] = float(np.mean(np.square(vals)))
        stages_rmax = np.asarray(
            [next(f["stages"] for f in rec["fits"] if f["r"] == config.r_max) for rec in recs]
        )
        bias = stages_rmax.mean(axis=0) - truth[: config.r_max + 1]
        per_n[str(n)] = {
            "replicates_ok": len(recs),
            "mean_sq_delta2_selected": float(np.mean(d2**2)),
            "median_sq_delta2_selected": float(np.median(d2**2)),
            "selected_r_histogram": hist,
            "risk_fixed": risk_fixed,
            "coef_bias_at_rmax": [float(v) for v in bias],
        }
    agg = {"per_n": per_n}
    ok_ns = [n for n in config.n_values if per_n[str(n)].get("replicates_ok")]
    slope = _log_slope(ok_ns, [per_n[str(n)]["mean_sq_delta2_selected"] for n in ok_ns])
    if slope is not None:
        agg["rate"] = {"log_slope_mean_sq_delta2_selected": slope}
    return agg


def _log_slope(ns, ys) -> float | None:
    """Least-squares slope of log y against log n; None for fewer than two
    points or any y <= 0, where the log-log fit is undefined."""
    if len(ns) < 2 or not all(v > 0 for v in ys):
        return None
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# concentration diagnostics


@dataclass(frozen=True)
class ConcentrationTable:
    rows: tuple[dict, ...]          # one per n: means over replicates
    op_norm: dict                   # (n, rep) -> ||A/n - theta/n||
    spectrum_error: dict            # (n, rep) -> delta2(spec(theta/n), truth)
    slopes: dict

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "concentration",
            "rows": list(self.rows),
            "slopes": self.slopes,
        }


def concentration_check(
    envelope: Envelope,
    space: LatentSpace,
    n_values,
    replicates: int,
    seed: int,
) -> ConcentrationTable:
    """Empirical operator-norm error of A/n around theta/n and spectrum error
    of theta/n against the reference expansion, with log-log slope fits."""
    n_values = tuple(int(n) for n in n_values)
    _check_run(n_values, replicates, seed)
    basis = harmonic_basis(space, TRUTH_DEGREE)
    truth = as_spectrum(spectrum_vector(true_coefficients(basis, envelope), basis.dims))

    def run(n, rep):  # a function, so one replicate's n x n matrices are freed before the next
        latent, diff = replicate_graph(space, envelope, n, seed + rep)
        theta = probability_matrix(latent, envelope)
        diff -= theta
        diff /= n
        o = operator_norm(diff)
        theta /= n
        return o, delta2(eigenvalues_symmetric(theta, overwrite=True), truth)

    results = {(n, rep): run(n, rep) for n in n_values for rep in range(replicates)}
    op = {task: o for task, (o, _) in results.items()}
    sperr = {task: s for task, (_, s) in results.items()}

    rows = []
    for n in n_values:
        rows.append(
            {
                "n": n,
                "mean_op_norm_error": float(np.mean([op[(n, r)] for r in range(replicates)])),
                "mean_delta2_theta_spectrum": float(
                    np.mean([sperr[(n, r)] for r in range(replicates)])
                ),
            }
        )
    slopes = {}
    for key in ("mean_op_norm_error", "mean_delta2_theta_spectrum"):
        slope = _log_slope([row["n"] for row in rows], [row[key] for row in rows])
        if slope is not None:
            slopes[key] = slope
    return ConcentrationTable(
        rows=tuple(rows), op_norm=op, spectrum_error=sperr, slopes=slopes
    )
