"""The estimation chain ``fit_graph``, which ``ngg estimate`` and every
replicate run, and the seeded Monte Carlo drivers: full estimation runs
and concentration rate checks.

Both drivers run one replicate loop.  It draws each graph in the calling
thread as its edge keys (``EdgeListData``, as ``estimate`` reads a graph),
seeded ``base_seed + replicate_index`` so reruns and cross-``n``
comparisons pair up exactly, and hands its triangle writers to one worker
thread, the lane, which writes each float64 triangle and runs stage 1 of
its eigensolve before writing the next.  Per replicate k, in the calling
thread: draw graph k + 1 while the lane reduces graph k and hand it to the
lane, which writes its ``A / n`` (``EdgeListData.triangle()``: the upper
triangle of the rows, on ``lazy_zeros`` pages that become resident where
written) once that stage 1 has returned and freed graph k's matrix; then
finish replicate k (stage 2, the fits, the selection and the record).  The
concentration check writes (A - theta)/n onto that same ``A / n``, then
theta/n onto ``lazy_zeros``, both by ``write_triangle``, which owns stage
1's thread rule.  So one float64 ``n x n`` matrix is alive at a time, in
both drivers.  A record compares each fit with the reference expansion as
their runs, values with their multiplicities (``delta2_runs``), and so
does the concentration check with theta/n's spectrum: none is expanded,
however many values the reference stands for.  Reports split into a
deterministic JSON part (config, records, aggregates) and a CSV part that
adds each replicate's phase seconds, timed by one timer, ``_clock``.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .adapt import (AdaptConfig, check_settings, fit_all_resolutions, resolution_grid,
                    select_resolution)
from .edgelist import EdgeListData
from .errors import DomainError, check_integer
from .estimator import SpectrumEstimate
from .model import Envelope, generate_graph, probability_rows, sample_latent
from .reports import csv_beside, write_csv, write_json
from .spaces import (
    HarmonicBasis,
    LatentSpace,
    cumulative_dim,
    envelope_coefficients,
    harmonic_basis,
)
from .spectral import (
    Band,
    SignedRuns,
    Triangle,
    band_spectrum,
    check_dense_size,
    delta2_runs,
    lazy_zeros,
    reduce_to_band,
    signed_runs,
    write_triangle,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "fit_graph",
    "run_experiment",
    "concentration_check",
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
    """``ngg-<__version__>+<git revision>``; ``subprocess`` is imported here,
    where git runs, so that importing ``ngg`` does not load it."""
    import subprocess

    from . import __version__

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
    return f"ngg-{__version__}+{rev}"


def _check_run(n_values, replicates: int, seed: int) -> None:
    """Checks shared by every seeded run, before any draw: a sequence of at
    least one positive graph size, none twice or too large for memory, at
    least one replicate and a nonnegative seed, each an integer
    (``check_integer``)."""
    if not isinstance(n_values, Sequence):
        raise DomainError(f"graph sizes must be a sequence, got {type(n_values).__name__}")
    for label, v, least in (("replicates", replicates, 1), ("seed", seed, 0),
                            *(("graph size", n, 1) for n in n_values)):
        check_integer(v, label, least)
    if not n_values:
        raise DomainError("at least one graph size is required")
    if len(set(n_values)) != len(n_values):
        raise DomainError(f"graph sizes must be distinct, got {list(n_values)}")
    for n in n_values:
        check_dense_size(n, "graph size")


def true_coefficients(basis: HarmonicBasis, envelope: Envelope) -> np.ndarray:
    """Reference expansion of the envelope up to ``TRUTH_DEGREE``, cut short as
    soon as a whole chunk of degrees carries weighted mass below the tail
    tolerance: by quadrature, but exactly ``known_coeffs`` (0.0 elsewhere) for
    a constant or coefficient-file envelope, refused unless finite at t = +-1."""
    max_degree = min(TRUTH_DEGREE, basis.max_degree)
    known = None
    if envelope.known_coeffs is not None:
        for t, value in zip((-1.0, 1.0), envelope(np.array([-1.0, 1.0]))):
            if not np.isfinite(value):
                raise DomainError(f"envelope is not finite at t = {t:.17g}")
        known = np.zeros(max_degree + 1)
        for ell, v in envelope.known_coeffs:
            if ell <= max_degree:
                known[ell] = v

    def expansion(top):
        return envelope_coefficients(basis, envelope, top) if known is None else known[: top + 1]

    top = min(_TRUTH_CHUNK, max_degree)
    while True:
        lo, top = top + 1, min(top + _TRUTH_CHUNK, max_degree)
        coeffs = expansion(top)
        dims = np.asarray(basis.dims[lo : top + 1], dtype=float)
        if top == max_degree or float(np.sum(dims * coeffs[lo:] ** 2)) < _TRUTH_TAIL_TOL:
            return coeffs


def _truth(space: LatentSpace, envelope: Envelope) -> tuple[HarmonicBasis, np.ndarray]:
    """A run's basis and reference expansion, built once for both drivers."""
    basis = harmonic_basis(space, TRUTH_DEGREE)
    return basis, true_coefficients(basis, envelope)


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
        check_settings(self.r_max, self.kappa, self.include_r0)
        need = 2 * cumulative_dim(self.space, self.r_max)
        for n in self.n_values:
            if n < max(need, 2):
                raise DomainError(f"n = {n} violates n >= 2 * cum_dim(r_max) = {need}")

    def adapt_config(self, n: int) -> AdaptConfig:
        """The selection settings of a replicate on ``n`` nodes."""
        return AdaptConfig(n=n, r_max=self.r_max, kappa=self.kappa, include_r0=self.include_r0)

    def to_dict(self) -> dict:
        d: dict = {
            "space": self.space.name,
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


@dataclass
class ExperimentReport:
    config: dict
    build: str
    truth: dict
    records: list
    aggregates: dict
    timings: list = field(default_factory=list)  # CSV-only: each record's phase seconds

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

    def write(self, json_path):
        """Write the JSON report to ``json_path`` and its per-replicate CSV
        table to ``csv_beside(json_path)``."""
        csv_path = csv_beside(json_path)
        write_json(json_path, self.to_json_dict())
        r_max = self.config["r_max"]
        header = ["n", "replicate", "seed", "selected_r", "delta2_selected_vs_truth"]
        header += [f"stage_{ell}_at_rmax" for ell in range(r_max + 1)]
        columns = ["t_sample", "t_generate", "t_eig", "t_fit", "t_adapt"]
        header += columns
        rows = []
        for rec, t in zip(self.records, self.timings, strict=True):
            if "error" in rec:
                continue
            stages = next(f["stages"] for f in rec["fits"] if f["r"] == r_max)
            rows.append(
                [rec["n"], rec["replicate"], rec["seed"], rec["selected_r"],
                 rec["delta2_selected_vs_truth"]]
                + list(stages)
                + [t[k] for k in columns]
            )
        write_csv(csv_path, header, rows)


@contextlib.contextmanager
def _clock(timing: dict, key: str):
    """Add the seconds the ``with`` body takes to ``timing[key]``, one of a
    replicate's CSV timings."""
    start = time.perf_counter()
    yield
    timing[key] = timing.get(key, 0.0) + time.perf_counter() - start


def _reduce(writers: list, timing: dict) -> list[Band]:
    """Stage 1 of a replicate, on the lane: each triangle writer popped off
    ``writers`` in turn, its ``Triangle`` written and reduced to band form,
    which destroys and frees it, before the next is written, so one triangle
    is alive at a time.  Returns the bands; the time goes to ``t_eig``."""
    bands = []
    with _clock(timing, "t_eig"):
        while writers:
            bands.append(reduce_to_band(writers.pop(0)()))
    return bands


def _fit_band(band: Band, basis: HarmonicBasis, config: AdaptConfig, timing: dict) -> tuple:
    """Second half of ``fit_graph``: the spectrum of the band, the fits and
    the selection, each step's seconds added to ``timing``."""
    with _clock(timing, "t_eig"):
        spectrum = band_spectrum(band)
    with _clock(timing, "t_fit"):
        estimates = fit_all_resolutions(spectrum, basis, config)
    with _clock(timing, "t_adapt"):
        result = select_resolution(estimates, config, basis)
    return spectrum, estimates, result


def fit_graph(graph, basis: HarmonicBasis, config: AdaptConfig) -> tuple:
    """Spectrum of ``A / n``, the staircase fit at every candidate
    resolution and the Goldenshluger-Lepski selection, as ``(spectrum,
    estimates, result)``.  ``graph`` is the ``EdgeListData`` of ``A``, as
    ``generate_graph`` and ``read_edge_list`` return it, solved by its
    ``triangle()``, or that ``Triangle`` of ``A / n`` itself, which the
    solver destroys; any other input is refused.

    The chain is two halves: stage 1 of the solve (``reduce_to_band``), then
    stage 2 (``band_spectrum``), the fits and the selection.  ``run_experiment``
    runs the same halves in the replicate loop, overlapping one replicate's
    first half with the previous replicate's second.  They live in this
    module because ``perfbench/tracing.py`` times steps by wrapping the names
    this module looks them up by (``fit_all_resolutions``,
    ``select_resolution``).
    """
    if isinstance(graph, EdgeListData):
        graph = graph.triangle()
    elif not isinstance(graph, Triangle):
        raise DomainError(f"fit_graph takes an EdgeListData or the Triangle of its A / n, "
                          f"not {type(graph).__name__}")
    return _fit_band(reduce_to_band(graph), basis, config, {})


def _fit_fields(est: SpectrumEstimate) -> dict:
    """Report fields of one fit: a ``simulate`` record's ``fits`` and an
    ``estimate`` report's ``per_r`` both carry them."""
    return {"stages": [float(v) for v in est.stage_values], "score": float(est.score),
            "ordering": list(est.ordering)}


class _Drawn(NamedTuple):
    """A replicate's graph once drawn: its seed, the future of ``_reduce`` on
    its triangle writers, its timings so far and its edge count."""

    seed: int
    stage1: Future
    timing: dict
    edge_count: int | None = None


def _replicates(space: LatentSpace, envelope: Envelope, base_seed: int, tasks, writers,
                dump=None):
    """The seeded replicate loop of both drivers: ``(n, rep, drawn)`` for
    each ``(n, rep)`` of ``tasks`` in turn, the graph seeded ``base_seed +
    rep`` and drawn in the calling thread as its ``EdgeListData``, which
    ``dump(n, rep, graph)``, if given, receives, each step timed into
    ``drawn.timing``.  ``drawn.stage1`` is the future of ``_reduce`` on one
    worker thread, the lane, of the triangle writers ``writers(latent,
    graph)``, run once the last graph's stage 1 has returned: the lane
    alone sets the pace.  A replicate whose graph cannot be drawn is
    yielded at once, with a future that raises the error, before the next
    graph is drawn."""
    from concurrent.futures import Future, ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ngg-stage1") as lane:
        ahead = []  # (n, rep, drawn) of the replicate whose stage 1 is on the lane
        for n, rep in tasks:
            seed, timing = base_seed + rep, {}
            try:
                with _clock(timing, "t_sample"):
                    latent = sample_latent(space, n, seed)
                with _clock(timing, "t_generate"):
                    graph = generate_graph(latent, envelope, _graph_seed(seed))
            except Exception as exc:  # raised when the replicate is settled
                failed = Future()
                failed.set_exception(exc)
                yield from ahead
                yield n, rep, _Drawn(seed, failed, timing)
                ahead = []
                continue
            # outside the try: an error of ``dump``, such as a failed write,
            # ends the run instead of becoming the replicate's
            if dump is not None:
                dump(n, rep, graph)
            stage1 = lane.submit(_reduce, writers(latent, graph), timing)
            edge_count = graph.keys.size
            del latent, graph  # the writers hold the draw until they have written
            yield from ahead
            ahead = [(n, rep, _Drawn(seed, stage1, timing, edge_count))]
        yield from ahead


def _one_replicate(config: ExperimentConfig, basis: HarmonicBasis, truth: np.ndarray,
                   truth_runs: SignedRuns, n: int, rep: int, drawn: _Drawn) -> dict:
    """Record of replicate (n, rep) as ``_replicates`` yields it: its band
    solved, fitted, selected and compared with the truth, each step's
    seconds added to ``drawn.timing``.  Each fit's staircase is compared, as
    their runs (``delta2_runs``), with the truth's first ``r + 1``
    coefficients and with the whole expansion (``truth_runs``), each
    coefficient counted ``basis.dims`` times: no spectrum is expanded."""
    (band,) = drawn.stage1.result()
    _, estimates, result = _fit_band(band, basis, config.adapt_config(n), drawn.timing)
    fits = []
    for r in sorted(estimates):
        est = estimates[r]
        runs = signed_runs(est.stage_values, basis.dims)
        fits.append(
            {
                "r": r,
                **_fit_fields(est),
                "delta2_vs_truth_r": delta2_runs(runs, signed_runs(truth[: r + 1], basis.dims)),
                "delta2_vs_truth": delta2_runs(runs, truth_runs),
            }
        )
    return {
        "n": n,
        "replicate": rep,
        "seed": drawn.seed,
        "graph_seed": _graph_seed(drawn.seed),
        "edge_count": drawn.edge_count,
        "selected_r": result.selected_r,
        "gl_rows": [[row.r, row.bias, row.penalty, row.objective] for row in result.rows],
        "fits": fits,
        "delta2_selected_vs_truth": next(
            f["delta2_vs_truth"] for f in fits if f["r"] == result.selected_r),
    }


def run_experiment(config: ExperimentConfig, dump=None) -> ExperimentReport:
    """Sample, generate, eigendecompose, fit every candidate resolution,
    select, and record -- for every (n, replicate) pair.

    The replicate loop (``_replicates``, see the module docstring) solves
    each graph's ``EdgeListData.triangle()``, as ``estimate`` does.  A stage
    1 of at most ``ONE_THREAD_MAX_N`` rows runs on one OpenBLAS thread, so
    the two threads share two cores; the records are those of a serial
    loop.  ``dump(n, rep, graph)``, if given, is called in the calling thread
    with each graph drawn; an error it raises ends the run.  A failing
    replicate is recorded with its error message and never aborts the rest
    of the run.
    """
    basis, truth = _truth(config.space, config.envelope)
    truth_runs = signed_runs(truth, basis.dims)
    records, timings = [], []
    # one record per (n, replicate), in sorted order whatever the order of
    # n_values, walked lazily: a run holds no replicate ahead of the loop
    tasks = ((n, rep) for n in sorted(config.n_values) for rep in range(config.replicates))
    for n, rep, drawn in _replicates(config.space, config.envelope, config.base_seed, tasks,
                                     lambda latent, graph: [graph.triangle], dump):
        try:
            record = _one_replicate(config, basis, truth, truth_runs, n, rep, drawn)
        except Exception as exc:  # recorded, not swallowed
            record = {"n": n, "replicate": rep, "seed": drawn.seed,
                      "error": f"{type(exc).__name__}: {exc}"}
        records.append(record)
        timings.append(drawn.timing)
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
        hist = dict(Counter(str(r["selected_r"]) for r in recs))  # in order of first sight
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


def concentration_check(envelope: Envelope, space: LatentSpace, n_values, replicates: int,
                        seed: int) -> ConcentrationTable:
    """Empirical operator-norm error of A/n around theta/n and spectrum error
    of theta/n against the reference expansion, with log-log slope fits.

    The graphs are drawn by ``run_experiment``'s replicate loop, in the
    calling thread.  On the lane, the upper triangle of (A - theta)/n is
    written in row blocks (``write_triangle``, which applies stage 1's
    thread rule to the blocks' BLAS calls) onto the graph's own ``A / n``
    (``EdgeListData.triangle()``, the one scatter of A's entries), theta/n
    subtracted a block at a time as it is evaluated (``probability_rows``),
    and reduced; then theta/n is written onto ``lazy_zeros`` in the same way
    and reduced: one triangle is alive at a time, and theta is never held
    whole.  Their spectra are taken in the calling thread.  An edge's entry
    is 1/n - theta/n.  The operator norm is the larger of |lambda_max| and
    |lambda_min| of (A - theta)/n; the spectrum error is ``delta2_runs`` of
    theta/n's n eigenvalues against the reference runs."""
    _check_run(n_values, replicates, seed)
    basis, coefficients = _truth(space, envelope)
    truth_runs = signed_runs(coefficients, basis.dims)

    def writers(latent, graph):
        n = graph.n

        def theta(block):  # theta[block] / n, evaluated where it is written
            rows = probability_rows(latent, envelope, block[0].start, block[0].stop)
            return np.divide(rows, n, out=rows)

        return [lambda: write_triangle(graph.triangle().matrix,
                                       lambda block, out: np.subtract(out, theta(block), out=out)),
                lambda: write_triangle(lazy_zeros(n),
                                       lambda block, out: np.copyto(out, theta(block)))]

    op, sperr = {}, {}
    tasks = ((n, rep) for n in n_values for rep in range(replicates))
    for n, rep, drawn in _replicates(space, envelope, seed, tasks, writers):
        diff, theta = drawn.stage1.result()
        values = band_spectrum(diff).values  # descending: the norm is at an end
        op[(n, rep)] = float(max(abs(values[0]), abs(values[-1])))
        sperr[(n, rep)] = delta2_runs(signed_runs(band_spectrum(theta).values, [1] * n),
                                      truth_runs)
    rows = [{"n": n,
             "mean_op_norm_error": float(np.mean([op[(n, r)] for r in range(replicates)])),
             "mean_delta2_theta_spectrum": float(np.mean([sperr[(n, r)]
                                                          for r in range(replicates)]))}
            for n in n_values]
    slopes = {}
    for key in ("mean_op_norm_error", "mean_delta2_theta_spectrum"):
        slope = _log_slope([row["n"] for row in rows], [row[key] for row in rows])
        if slope is not None:
            slopes[key] = slope
    return ConcentrationTable(
        rows=tuple(rows), op_norm=op, spectrum_error=sperr, slopes=slopes
    )
