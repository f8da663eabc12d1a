"""Dense symmetric eigenvalues and the rearrangement distance between spectra."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

__all__ = ["Spectrum", "check_dense_size", "eigenvalues_symmetric", "operator_norm", "delta2"]

_SYM_TOL = 1e-10
_RESIDUAL_FACTOR = 1e-9
_BLOCK = 256  # rows per block of the symmetry check
_LAPACK_LOCK = threading.Lock()


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of one symmetric matrix, sorted descending."""

    values: np.ndarray
    source_dim: int
    residual_bound: float


def _scale_and_asymmetry(m: np.ndarray) -> tuple[float, float]:
    """``max|M_ij|`` and ``max|M_ij - M_ji|``, one block of rows at a time so
    the only temporaries are ``_BLOCK x n``; a non-finite entry is refused."""
    scale = asym = 0.0
    for lo in range(0, m.shape[0], _BLOCK):
        rows = m[lo : lo + _BLOCK]
        block_scale = float(np.max(np.abs(rows)))
        if not np.isfinite(block_scale):  # max propagates NaN and inf
            raise DomainError("matrix has non-finite entries")
        diff = rows - m[:, lo : lo + _BLOCK].T
        scale = max(scale, block_scale)
        asym = max(asym, float(np.max(np.abs(diff, out=diff))))
    return scale, asym


def check_dense_size(n: int, label) -> None:
    """Refuse a graph whose dense float64 adjacency cannot fit in memory;
    ``label`` (an input path, or the option that set ``n``) starts the message."""
    try:
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return
    need = 8 * n * n
    if need > phys:
        raise DomainError(
            f"{label}: n = {n} nodes needs {need / 2**30:.1f} GiB for the dense "
            f"adjacency matrix, more than the {phys / 2**30:.1f} GiB of physical memory"
        )


def eigenvalues_symmetric(matrix) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues only.

    The input is checked for finite entries and for symmetry to
    ``1e-10 * max|M_ij|`` in row blocks, so the check allocates no ``n x n``
    temporary; LAPACK (through numpy) then makes the one copy it works in.
    A module-wide lock runs one dense solve at a time: replicate threads
    that called LAPACK together would each share a BLAS pool that already
    uses every core, and run slower than one after the other.  The residual
    bound recorded is the backward-stability contract
    ``1e-9 * n * max|M_ij|``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("matrix must be square")
    scale, asym = _scale_and_asymmetry(m)
    if asym > _SYM_TOL * max(scale, 1e-300):
        raise DomainError("matrix is not symmetric")
    try:
        with _LAPACK_LOCK:
            vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"eigenvalue computation failed: {exc}") from exc
    return Spectrum(
        values=vals[::-1].copy(),
        source_dim=m.shape[0],
        residual_bound=_RESIDUAL_FACTOR * m.shape[0] * scale,
    )


def operator_norm(matrix) -> float:
    """Largest absolute eigenvalue (= spectral norm for symmetric input)."""
    vals = eigenvalues_symmetric(matrix).values
    if vals.size == 0:
        return 0.0
    return float(max(abs(vals[0]), abs(vals[-1])))


def delta2(x, y) -> float:
    """l2 rearrangement distance between two real multisets.

    Both inputs are implicitly padded with zeros; by the Hardy-Littlewood
    rearrangement inequality the optimal matching aligns the nonnegative
    entries downward from the largest and the negative entries upward from
    the smallest, surplus entries on either side matching zero.  Exact zeros
    count as nonnegative (either convention gives the same distance).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    xp = np.sort(x[x >= 0])[::-1]
    yp = np.sort(y[y >= 0])[::-1]
    xn = np.sort(x[x < 0])  # most negative first
    yn = np.sort(y[y < 0])
    kp = max(xp.size, yp.size)
    kn = max(xn.size, yn.size)
    xp = np.pad(xp, (0, kp - xp.size))
    yp = np.pad(yp, (0, kp - yp.size))
    xn = np.pad(xn, (0, kn - xn.size))
    yn = np.pad(yn, (0, kn - yn.size))
    return float(np.sqrt(np.sum((xp - yp) ** 2) + np.sum((xn - yn) ** 2)))
