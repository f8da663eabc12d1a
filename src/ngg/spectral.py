"""Dense symmetric eigenvalues and the rearrangement distance between spectra."""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "Spectrum",
    "as_spectrum",
    "check_dense_size",
    "eigenvalues_symmetric",
    "eigenvalues_tridiagonal",
    "operator_norm",
    "delta2",
]

_SYM_TOL = 1e-10
_BLOCK = 256  # tile side of the symmetry check
_LAPACK_LOCK = threading.Lock()
_LAPACK_COL_MAJOR = 102  # LAPACKE matrix_layout
# LAPACKE routines with 64-bit integers are looked up under the prefixed names
# of the OpenBLAS that numpy's wheels bundle, then under the plain names
_LAPACKE_PREFIXES = ("scipy_LAPACKE_", "LAPACKE_")


@dataclass(frozen=True)
class Spectrum:
    """A finite real multiset sorted descending, such as the eigenvalues of a
    symmetric matrix: its first ``nonneg`` values are the nonnegative ones
    (exact zeros of either sign included), and ``s1[k]`` and ``s2[k]`` are the
    sums of its ``k`` largest values and of their squares (``s1[0] = s2[0] =
    0``), taken on first use: ``delta2`` never reads them.  A prefix sum that
    overflows reads inf, which the fit refuses.  Built by ``as_spectrum`` and
    ``eigenvalues_symmetric``."""

    values: np.ndarray
    nonneg: int

    @functools.cached_property
    def s1(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.concatenate(([0.0], np.cumsum(self.values)))

    @functools.cached_property
    def s2(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.concatenate(([0.0], np.cumsum(self.values * self.values)))


def _descending(v: np.ndarray) -> Spectrum:
    """The ``Spectrum`` of values already sorted descending, checked finite."""
    if not np.isfinite(v).all():
        raise DomainError("spectrum has non-finite values")
    return Spectrum(v, int(np.count_nonzero(v >= 0)))


def as_spectrum(x) -> Spectrum:
    """``x`` as a ``Spectrum``: one is returned as it is, anything else is
    flattened and sorted descending once, so a multiset that is fitted or
    compared many times is prepared once."""
    if isinstance(x, Spectrum):
        return x
    return _descending(np.sort(np.asarray(x, dtype=float).ravel())[::-1])


def _scale_and_asymmetry(m: np.ndarray) -> tuple[float, float]:
    """``max|M_ij|`` and ``max|M_ij - M_ji|``, one pair of mirrored
    ``_BLOCK x _BLOCK`` tiles at a time, so every entry is read once (twice on
    the diagonal tiles) and the only temporary is one tile; a non-finite
    entry is refused."""
    scale = asym = 0.0
    n = m.shape[0]
    for lo in range(0, n, _BLOCK):
        for lo2 in range(lo, n, _BLOCK):
            upper = m[lo : lo + _BLOCK, lo2 : lo2 + _BLOCK]
            lower = m[lo2 : lo2 + _BLOCK, lo : lo + _BLOCK]
            tile_scale = max(float(np.max(np.abs(upper))), float(np.max(np.abs(lower))))
            if not np.isfinite(tile_scale):  # max propagates NaN and inf
                raise DomainError("matrix has non-finite entries")
            diff = upper - lower.T
            scale = max(scale, tile_scale)
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


@functools.cache
def _lapacke(name: str, *argtypes):
    """LAPACKE routine ``name`` (64-bit integers) from the LAPACK numpy already
    loaded, with ``argtypes`` and an integer result, or ``None`` when that
    build does not export it.

    Resolved on first use, not at import.  ``dlsym`` on numpy's linalg
    extension searches its dependency tree, so the symbol is found wherever
    the wheel put the library.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):  # no such module, or not loadable
        return None
    for prefix in _LAPACKE_PREFIXES:
        fn = getattr(lib, f"{prefix}{name}64_", None)
        if fn is not None:
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int64
            return fn
    return None


def _two_stage_routine():
    """LAPACKE ``dsyevd_2stage``, or ``None``."""
    return _lapacke("dsyevd_2stage", ctypes.c_int, ctypes.c_char, ctypes.c_char,
                    ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)


def _tridiagonal_routine():
    """LAPACKE ``dsterf`` (eigenvalues of a symmetric tridiagonal matrix by
    the root-free QL/QR iteration), or ``None``."""
    return _lapacke("dsterf", ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)


def _solve(m: np.ndarray, overwrite: bool) -> np.ndarray:
    """Ascending eigenvalues of the checked symmetric matrix ``m``; the caller
    holds ``_LAPACK_LOCK``."""
    syevd = _two_stage_routine()
    if syevd is None:
        return np.linalg.eigvalsh(m)
    n = m.shape[0]
    if not (overwrite and m.flags.c_contiguous and m.flags.writeable):
        m = np.array(m, order="C")  # float64 already: eigenvalues_symmetric converted it
    w = np.empty(n)
    if n:
        # a C-ordered symmetric matrix is its own column-major transpose, so
        # LAPACK works on the buffer as it is; its 'L' triangle is the upper
        # triangle of the C-ordered rows
        info = syevd(_LAPACK_COL_MAJOR, b"N", b"L", n, m.ctypes.data, n, w.ctypes.data)
        if info != 0:
            raise SolverError(f"eigenvalue computation failed: dsyevd_2stage info = {info}")
    return w


def eigenvalues_symmetric(matrix, *, overwrite: bool = False) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues only.

    The input is checked for finite entries and for symmetry to
    ``1e-10 * max|M_ij|`` in tiles, so the check allocates no ``n x n``
    temporary.  The solve is LAPACK's two-stage routine ``dsyevd_2stage``
    (full -> band -> tridiagonal, most of the reduction in BLAS-3 calls),
    called through ctypes in the LAPACK numpy already loaded.  By default the
    caller's array is left untouched and LAPACK works in one C-ordered copy;
    with ``overwrite=True`` a C-contiguous, writable float64 array is solved
    in place and its contents are destroyed (any other array is copied
    anyway).  If that LAPACK does not export the routine, the solve falls back
    to ``np.linalg.eigvalsh`` (one-stage ``dsyevd``, which always copies).
    The routine reads the upper triangle of the rows, ``eigvalsh`` the lower:
    on an input symmetric only to the tolerance the two can differ by up to
    that asymmetry.

    A module-wide lock runs one dense solve at a time, so callers that solve
    from several threads at once get the same spectra as serial calls: every
    solve keeps the default BLAS pool, whereas fewer BLAS threads per solve
    would change the rounding (1 against 2 OpenBLAS threads moves
    eigenvalues by up to about 1e-15).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("matrix must be square")
    scale, asym = _scale_and_asymmetry(m)
    if asym > _SYM_TOL * max(scale, 1e-300):
        raise DomainError("matrix is not symmetric")
    try:
        with _LAPACK_LOCK:
            vals = _solve(m, overwrite)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"eigenvalue computation failed: {exc}") from exc
    return _descending(vals[::-1].copy())  # LAPACK's order is ascending


def eigenvalues_tridiagonal(diag, offdiag) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with diagonal
    ``diag`` (length m) and off-diagonal ``offdiag`` (length m - 1).

    The solve is LAPACK's ``dsterf``, O(m^2) and serial, called through
    ctypes in the LAPACK numpy already loaded; without it, the dense matrix
    goes to ``np.linalg.eigvalsh``.
    """
    d = np.array(diag, dtype=float)  # copies: dsterf overwrites both arrays
    e = np.array(offdiag, dtype=float)
    m = d.size
    if e.size != max(m - 1, 0):
        raise DomainError("off-diagonal must be one shorter than the diagonal")
    sterf = _tridiagonal_routine()
    if sterf is None:
        dense = np.diag(d)
        i = np.arange(m - 1)
        dense[i, i + 1] = dense[i + 1, i] = e
        return np.linalg.eigvalsh(dense)
    if m:
        info = sterf(m, d.ctypes.data, e.ctypes.data)
        if info != 0:
            raise SolverError(f"eigenvalue computation failed: dsterf info = {info}")
    return d


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
    count as nonnegative (either convention gives the same distance).  Both
    inputs go through ``as_spectrum``, so a non-finite entry is refused and a
    multiset compared with many others can be sorted once beforehand.  A
    distance too large for a float64 is refused.
    """
    x, y = as_spectrum(x), as_spectrum(y)
    xn, yn = x.values.size - x.nonneg, y.values.size - y.nonneg
    kp = max(x.nonneg, y.nonneg)
    pad = np.zeros((2, kp + max(xn, yn)))  # x then y: nonnegative run, then negative run
    pad[0, : x.nonneg] = x.values[: x.nonneg]
    pad[1, : y.nonneg] = y.values[: y.nonneg]
    pad[0, kp : kp + xn] = x.values[::-1][:xn]  # most negative first
    pad[1, kp : kp + yn] = y.values[::-1][:yn]
    with np.errstate(over="ignore"):
        sq = (pad[0] - pad[1]) ** 2
        dist = math.sqrt(sq[:kp].sum() + sq[kp:].sum())
    if not math.isfinite(dist):
        raise DomainError("delta2 overflows float64")
    return dist
