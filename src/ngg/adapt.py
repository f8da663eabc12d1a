"""Resolution selection by the Goldenshluger-Lepski rule, plus envelope
reconstruction from fitted stage values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError
from .estimator import MAX_RESOLUTION, SpectrumEstimate, _fit_resolutions
from .model import Envelope
from .spaces import HarmonicBasis
from .spectral import SignedRuns, as_spectrum, delta2_runs, signed_runs

__all__ = [
    "AdaptConfig",
    "check_settings",
    "ResolutionRow",
    "AdaptResult",
    "resolution_grid",
    "penalty",
    "fit_all_resolutions",
    "select_resolution",
    "reconstruct_envelope",
]


@dataclass(frozen=True)
class AdaptConfig:
    """Selection hyper-parameters.

    ``kappa`` scales the penalty kappa * sqrt(cum_dim(R) * log(n) / n).  The
    candidate grid is 1..r_max by default; ``include_r0`` adds the constant
    model R = 0 (useful for degenerate, near-constant graphs).  ``r_max`` is
    at most ``MAX_RESOLUTION``, the largest resolution the fit supports.
    """

    n: int
    r_max: int = 4
    kappa: float = 0.25
    include_r0: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be positive")
        check_settings(self.r_max, self.kappa, self.include_r0)


def check_settings(r_max: int, kappa: float, include_r0: bool) -> None:
    """The ``AdaptConfig`` checks that do not need ``n``: a finite ``kappa > 0``
    and a non-empty candidate grid topped by ``r_max <= MAX_RESOLUTION``.
    ``estimate`` runs them before it reads its input."""
    if not (math.isfinite(kappa) and kappa > 0):
        raise DomainError(f"kappa must be a finite positive number, got {kappa}")
    if r_max < (0 if include_r0 else 1):
        raise DomainError("r_max too small for the candidate grid")
    if r_max > MAX_RESOLUTION:
        raise DomainError(
            f"r_max = {r_max} exceeds the largest supported resolution {MAX_RESOLUTION}"
        )


def resolution_grid(config: AdaptConfig) -> range:
    return range(0 if config.include_r0 else 1, config.r_max + 1)


def penalty(config: AdaptConfig, basis: HarmonicBasis, r: int) -> float:
    """kappa * sqrt(cum_dim(r) * log(n) / n), natural log."""
    return config.kappa * math.sqrt(basis.cum_dims[r] * math.log(config.n) / config.n)


def fit_all_resolutions(
    spectrum, basis: HarmonicBasis, config: AdaptConfig
) -> dict[int, SpectrumEstimate]:
    """Staircase fits for every resolution on the candidate grid, all from
    one sort of the spectrum and one set of its prefix sums, in as few DP
    passes as the fit's cost chunk allows.  The one checked entry to the
    fit: ``r_max`` within the basis, and ``config.n`` values (the size the
    penalty is priced at) with room for the model at ``r_max``."""
    if config.r_max > basis.max_degree:
        raise DomainError(
            f"r_max = {config.r_max} exceeds basis max_degree {basis.max_degree}"
        )
    if basis.cum_dims[config.r_max] > config.n:
        raise DomainError(
            f"n = {config.n} is below the model dimension "
            f"{basis.cum_dims[config.r_max]} at r_max = {config.r_max}"
        )
    spectrum = as_spectrum(spectrum)
    if spectrum.n != config.n:
        raise DomainError(f"spectrum has {spectrum.n} values, config.n = {config.n}")
    grid = tuple(resolution_grid(config))
    return dict(zip(grid, _fit_resolutions(spectrum, basis, grid)))


def _fit_runs(
    estimates: Mapping[int, SpectrumEstimate], config: AdaptConfig, basis: HarmonicBasis
) -> dict[int, SignedRuns]:
    """The model spectrum of each fit on the candidate grid as its signed
    runs, stage values with their ``basis.dims`` multiplicities; a missing
    fit or a non-finite stage value is refused."""
    runs = {}
    for r in resolution_grid(config):
        if r not in estimates:
            raise DomainError(f"missing estimate for resolution {r}")
        try:
            runs[r] = signed_runs(estimates[r].stage_values, basis.dims)
        except DomainError as exc:  # the only refusal is a non-finite value
            raise DomainError(f"the fit at resolution {r} has a non-finite stage value") from exc
    return runs


@dataclass(frozen=True)
class ResolutionRow:
    r: int
    bias: float
    penalty: float
    objective: float


@dataclass(frozen=True)
class AdaptResult:
    selected_r: int
    rows: tuple[ResolutionRow, ...]
    envelope: Envelope


def select_resolution(
    estimates: Mapping[int, SpectrumEstimate],
    config: AdaptConfig,
    basis: HarmonicBasis,
) -> AdaptResult:
    """Pick the resolution minimizing bias proxy + penalty (ties: smallest r),
    and reconstruct the clamped envelope at the winner.

    The bias proxy of r is max over r' of [ delta2(fit r', fit min(r', r))
    - penalty(r') ], taken literally, without flooring at zero.  All rows come
    from one pass.  No model spectrum is expanded or sorted: each fit is
    held as its signed runs, at most r + 1 stage values with their
    ``basis.dims`` multiplicities (``signed_runs``), and ``delta2_runs``
    merges the runs of each pair r < r' once, summing the squares of its at
    most 2(r' + 2) stretches with one rounding; ``delta2`` of the
    expansions is its test oracle.  A term with r' <= r compares a fit with
    itself and is exactly -penalty(r').  On the grid 1..6 at n = 1000 (the
    ``fit_r6`` op, 2-vCPU Xeon) the selection takes about 0.07 ms of the
    op's 0.3 ms, against 0.19 ms of 0.49 ms when each fit was expanded.
    """
    runs = _fit_runs(estimates, config, basis)
    pens = {r: penalty(config, basis, r) for r in runs}
    rows = []
    for r in runs:
        b = max((delta2_runs(runs[rp], runs[r]) if rp > r else 0.0) - pen
                for rp, pen in pens.items())
        rows.append(ResolutionRow(r=r, bias=b, penalty=pens[r], objective=b + pens[r]))
    best = min(rows, key=lambda row: (row.objective, row.r))
    selected = best.r
    return AdaptResult(
        selected_r=selected,
        rows=tuple(rows),
        envelope=reconstruct_envelope(estimates[selected], basis),
    )


def reconstruct_envelope(est: SpectrumEstimate, basis: HarmonicBasis) -> Envelope:
    """Envelope whose expansion coefficients are the fitted stage values,
    clamped pointwise into [0, 1]; ``basis.reconstruct`` gives the unclamped
    expansion."""
    if est.r > basis.max_degree:
        raise DomainError("estimate resolution exceeds the basis")
    coeffs = np.asarray(est.stage_values, dtype=float)

    def fn(t, _coeffs=coeffs, _basis=basis):
        return np.clip(_basis.reconstruct(_coeffs, t), 0.0, 1.0)

    return Envelope(fn, f"fit:r={est.r}")
