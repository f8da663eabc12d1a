"""Resolution selection by the Goldenshluger-Lepski rule, plus envelope
reconstruction from fitted stage values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError
from .estimator import SpectrumEstimate, estimate_vector, fit_resolution
from .model import Envelope
from .spaces import HarmonicBasis
from .spectral import delta2

__all__ = [
    "AdaptConfig",
    "ResolutionRow",
    "AdaptResult",
    "resolution_grid",
    "penalty",
    "fit_all_resolutions",
    "bias_proxy",
    "select_resolution",
    "reconstruct_envelope",
]


@dataclass(frozen=True)
class AdaptConfig:
    """Selection hyper-parameters.

    ``kappa`` scales the penalty kappa * sqrt(cum_dim(R) * log(n) / n).  The
    candidate grid is 1..r_max by default; ``include_r0`` adds the constant
    model R = 0 (useful for degenerate, near-constant graphs).
    """

    n: int
    r_max: int = 4
    kappa: float = 0.25
    include_r0: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be positive")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise DomainError(f"kappa must be a finite positive number, got {self.kappa}")
        if self.r_max < (0 if self.include_r0 else 1):
            raise DomainError("r_max too small for the candidate grid")


def resolution_grid(config: AdaptConfig) -> range:
    return range(0 if config.include_r0 else 1, config.r_max + 1)


def penalty(config: AdaptConfig, basis: HarmonicBasis, r: int) -> float:
    """kappa * sqrt(cum_dim(r) * log(n) / n), natural log."""
    return config.kappa * math.sqrt(basis.cum_dims[r] * math.log(config.n) / config.n)


def fit_all_resolutions(
    spectrum, basis: HarmonicBasis, config: AdaptConfig
) -> dict[int, SpectrumEstimate]:
    """Staircase fits for every resolution on the candidate grid."""
    if basis.cum_dims[config.r_max] > config.n:
        raise DomainError(
            f"n = {config.n} is below the model dimension "
            f"{basis.cum_dims[config.r_max]} at r_max = {config.r_max}"
        )
    return {r: fit_resolution(spectrum, basis, r) for r in resolution_grid(config)}


def _expansions(
    estimates: Mapping[int, SpectrumEstimate], basis: HarmonicBasis
) -> dict[int, np.ndarray]:
    return {r: estimate_vector(est, basis.dims) for r, est in estimates.items()}


def bias_proxy(
    estimates: Mapping[int, SpectrumEstimate],
    r: int,
    config: AdaptConfig,
    basis: HarmonicBasis,
) -> float:
    """max over r' of [ distance(fit r', fit min(r', r)) - penalty(r') ].

    Implemented literally, without flooring at zero: terms with r' <= r
    contribute -penalty(r'), which only shifts all objectives by a shared
    amount.
    """
    grid = list(resolution_grid(config))
    for rr in grid:
        if rr not in estimates:
            raise DomainError(f"missing estimate for resolution {rr}")
    vecs = _expansions(estimates, basis)
    return max(
        delta2(vecs[rp], vecs[min(rp, r)]) - penalty(config, basis, rp) for rp in grid
    )


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
    estimates: dict[int, SpectrumEstimate]
    envelope: Envelope


def select_resolution(
    estimates: Mapping[int, SpectrumEstimate],
    config: AdaptConfig,
    basis: HarmonicBasis,
) -> AdaptResult:
    """Pick the resolution minimizing bias proxy + penalty (ties: smallest r),
    and reconstruct the clamped envelope at the winner."""
    rows = []
    for r in sorted(resolution_grid(config)):
        b = bias_proxy(estimates, r, config, basis)
        pen = penalty(config, basis, r)
        rows.append(ResolutionRow(r=r, bias=b, penalty=pen, objective=b + pen))
    best = min(rows, key=lambda row: (row.objective, row.r))
    selected = best.r
    return AdaptResult(
        selected_r=selected,
        rows=tuple(rows),
        estimates=dict(estimates),
        envelope=reconstruct_envelope(estimates[selected], basis),
    )


def reconstruct_envelope(
    est: SpectrumEstimate, basis: HarmonicBasis, clamp: bool = True
) -> Envelope:
    """Envelope whose expansion coefficients are the fitted stage values,
    clamped pointwise into [0, 1] unless ``clamp`` is off."""
    if est.r > basis.max_degree:
        raise DomainError("estimate resolution exceeds the basis")
    coeffs = np.asarray(est.stage_values, dtype=float)

    def fn(t, _coeffs=coeffs, _basis=basis, _clamp=clamp):
        out = _basis.reconstruct(_coeffs, t)
        return np.clip(out, 0.0, 1.0) if _clamp else out

    name = f"fit:r={est.r}" + ("" if clamp else ":raw")
    return Envelope(fn, name, known_coeffs=tuple((i, float(c)) for i, c in enumerate(coeffs)))
