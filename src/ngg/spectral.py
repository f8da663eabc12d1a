"""Dense symmetric eigenvalues and the rearrangement distance between spectra.

The dense solve is LAPACK's two-stage reduction, called step by step:
stage 1 (``reduce_to_band``) reduces the matrix to band form, the O(n^3)
part; stage 2 (``band_spectrum``) reduces the band to a tridiagonal matrix
T and takes eigenvalues of T.  All ``n`` of them come from ``dsterf``; the
``k`` largest and ``k`` smallest alone, which is all a staircase fit with at
most ``k`` model eigenvalues reads, come from ``dstebz`` bisection (Barth,
Martin & Wilkinson 1967) together with the sum and the sum of squares of
the whole spectrum, read off T.  That partial form of a ``Spectrum`` can
still give the whole spectrum of the same T on demand.  The five LAPACK
routines are bound together or not at all (``_lapack``): without any one of
them every solve is ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "ONE_THREAD_MAX_N",
    "Band",
    "Spectrum",
    "as_spectrum",
    "band_spectrum",
    "check_dense_size",
    "eigenvalues_symmetric",
    "eigenvalues_tridiagonal",
    "operator_norm",
    "delta2",
    "reduce_to_band",
]

_SYM_TOL = 1e-10
_BLOCK = 256  # tile side of the symmetry check
_LAPACK_LOCK = threading.Lock()
# Symbols of the OpenBLAS that numpy's wheels bundle carry 64-bit integers, a
# "scipy_" prefix and a "64_" suffix; other builds may lack the prefix
_SYMBOL_PREFIXES = ("scipy_", "")
# Stage 1 of a matrix with at most this many rows runs on one OpenBLAS thread,
# larger ones on the default pool.  On a 2-vCPU Xeon (OpenBLAS 0.3.31) a lone
# stage 1 on the pool of 2 threads ran 1.1-1.2x as fast as on one thread at
# n = 1000, 1.3-1.6x at 2000 to 2500 and 1.6x at 4000, and at n = 100 the
# pool's wake-ups made a whole solve 20x slower (32 ms against 1.4 ms).  Up to
# n = 2048 one pinned thread beside the rest of the previous replicate beats
# the pool: simulate at n = 2000 ran 17% more replicates per second, while the
# same overlap on the pool measured no gain.
ONE_THREAD_MAX_N = 2048
# dsyevd_2stage scales a matrix whose largest entry lies outside [RMIN, RMAX]
# (the square roots of LAPACK's smlnum = 2^-970 and bignum = 2^970) before
# reducing it, and scales the eigenvalues back
_RMIN, _RMAX = 2.0**-485, 2.0**485


@dataclass(frozen=True)
class Spectrum:
    """A finite real multiset of ``n`` values sorted descending, such as the
    eigenvalues of a symmetric matrix, in one of two forms.

    The full form holds all ``n`` values; its first ``nonneg`` values are the
    nonnegative ones (exact zeros of either sign included).  ``s1[k]`` and
    ``s2[k]`` are the sums of its ``k`` largest values and of their squares
    (``s1[0] = s2[0] = 0``), taken on first use: ``delta2`` never reads them.

    The partial form, from ``band_spectrum(band, k)``, holds only the ``k``
    largest values followed by the ``k`` smallest (``2k <= n``), and
    ``moments``, the sum and the sum of squares of all ``n`` values.  Its
    ``s1`` and ``s2`` hold the same sums at indices ``<= k`` and ``>= n - k``
    and NaN between: a staircase fit with at most ``k`` model eigenvalues
    reads no other index, since its zero block spans the middle.  ``nonneg``
    counts the nonnegative ones among ``values``.  ``delta2`` refuses the
    partial form.  ``full`` is the whole spectrum: the full form itself, or
    the one the partial form was taken from, computed on first use.

    A prefix sum that overflows reads inf, which the fit refuses.  Built by
    ``as_spectrum``, ``eigenvalues_symmetric`` and ``band_spectrum``."""

    values: np.ndarray
    nonneg: int
    n: int
    moments: tuple[float, float] | None = None
    _complete: Callable[[], Spectrum] | None = field(default=None, repr=False, compare=False)

    @property
    def partial(self) -> bool:
        return self.moments is not None

    @property
    def k(self) -> int:
        """How many of the largest, and of the smallest, values it holds."""
        return self.values.size // 2 if self.partial else self.n

    @property
    def full(self) -> Spectrum:
        return self._complete() if self.partial else self

    @functools.cached_property
    def s1(self) -> np.ndarray:
        return self._prefix(0)

    @functools.cached_property
    def s2(self) -> np.ndarray:
        return self._prefix(1)

    def _prefix(self, power: int) -> np.ndarray:
        """Prefix sums of the values (``power`` 0) or of their squares (1); in
        the partial form, the bottom end's are the moment less the sum of
        the values after each index."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.values * self.values if power else self.values
            if not self.partial:
                return np.concatenate(([0.0], np.cumsum(v)))
            k, n, total = self.k, self.n, self.moments[power]
            out = np.full(n + 1, np.nan)
            out[0], out[n] = 0.0, total
            out[1 : k + 1] = np.cumsum(v[:k])
            out[n - k : n] = total - np.cumsum(v[: k - 1 : -1])[::-1]
            return out


def _descending(v: np.ndarray) -> Spectrum:
    """The ``Spectrum`` of values already sorted descending, checked finite."""
    if not np.isfinite(v).all():
        raise DomainError("spectrum has non-finite values")
    return Spectrum(v, int(np.count_nonzero(v >= 0)), v.size)


def _ends(top: np.ndarray, bottom: np.ndarray, n: int, moments, complete) -> Spectrum:
    """The partial ``Spectrum`` of ``n`` values whose ``k`` largest and ``k``
    smallest are ``top`` and ``bottom`` (each descending), with the sum and
    the sum of squares ``moments`` of all ``n``, checked finite;
    ``complete()`` gives the whole spectrum."""
    values = np.concatenate((top, bottom))
    if not (np.isfinite(values).all() and np.isfinite(moments).all()):
        raise DomainError("spectrum has non-finite values")
    return Spectrum(values, int(np.count_nonzero(values >= 0)), n,
                    (float(moments[0]), float(moments[1])), complete)


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
        gib = Decimal(need) / 2**30  # an n of any size: a float would overflow
        raise DomainError(
            f"{label}: n = {n} nodes needs {gib:.1f} GiB for the dense "
            f"adjacency matrix, more than the {phys / 2**30:.1f} GiB of physical memory"
        )


@functools.cache
def _symbol(name: str, restype, *argtypes):
    """Function ``name`` of the OpenBLAS numpy already loaded, with
    ``restype`` and ``argtypes``, or ``None`` when that build does not export
    it.  A Fortran routine's ``name`` ends in ``_``.

    Resolved on first use, not at import.  ``dlsym`` on numpy's linalg
    extension searches its dependency tree, so the symbol is found wherever
    the wheel put the library.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):  # no such module, or not loadable
        return None
    for prefix in _SYMBOL_PREFIXES:
        fn = getattr(lib, f"{prefix}{name}64_", None)
        if fn is not None:
            fn.argtypes = argtypes
            fn.restype = restype
            return fn
    return None


_FORTRAN_TYPES = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64), "a": ctypes.c_void_p}


def _fortran_routine(name: str, restype, signature: str):
    """Fortran routine ``name`` (``_symbol``) typed by ``signature``, one
    letter per argument: ``c`` a character string, ``i`` an integer, ``a``
    an array; gfortran appends one hidden length per character argument."""
    types = [_FORTRAN_TYPES[k] for k in signature] + [ctypes.c_size_t] * signature.count("c")
    return _symbol(name, restype, *types)


def _fortran(fn, *args):
    """Call a ``_fortran_routine``: an int goes by reference as a 64-bit
    integer, an array as its data pointer, and ``bytes`` as a character
    string whose hidden length follows all the other arguments."""
    refs, lengths = [], []
    for a in args:
        if isinstance(a, bytes):
            refs.append(ctypes.c_char_p(a))
            lengths.append(ctypes.c_size_t(len(a)))
        elif isinstance(a, np.ndarray):
            refs.append(ctypes.c_void_p(a.ctypes.data))
        else:
            refs.append(ctypes.byref(ctypes.c_int64(a)))
    return fn(*refs, *lengths)


# The LAPACK routines of the dense solve, with their ``_fortran_routine``
# return types and signatures
_ROUTINES = {
    "ilaenv2stage": (ctypes.c_int64, "icciiii"),
    "dsytrd_sy2sb": (None, "ciiaiaiaaia"),
    "dsytrd_sb2st": (None, "ccciiaiaaaiaia"),
    "dsterf": (None, "iaaa"),
    "dstebz": (None, "cciaaiiaaaaaaaaaaa"),
}


def _lapack():
    """LAPACK's routines of the dense solve by name, or ``None`` unless all
    five are exported: ``ilaenv2stage`` (the band width), ``dsytrd_sy2sb``
    (stage 1), ``dsytrd_sb2st`` (band to tridiagonal), ``dsterf`` (every
    eigenvalue of a symmetric tridiagonal matrix, by the root-free QL/QR
    iteration) and ``dstebz`` (selected ones, by bisection)."""
    found = {name: _fortran_routine(f"{name}_", restype, signature)
             for name, (restype, signature) in _ROUTINES.items()}
    return None if None in found.values() else found


@contextlib.contextmanager
def _blas_threads(count):
    """OpenBLAS runs on ``count`` threads inside the block, then on as many
    as before.  The setting is process-wide, so the caller holds
    ``_LAPACK_LOCK``; nothing changes when ``count`` is ``None`` or numpy's
    BLAS is not OpenBLAS."""
    get = _symbol("openblas_get_num_threads", ctypes.c_int)
    put = _symbol("openblas_set_num_threads", None, ctypes.c_int)
    if count is None or get is None or put is None:
        yield
        return
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)


@dataclass(frozen=True)
class Band:
    """A symmetric matrix after stage 1 of the eigensolve, from
    ``reduce_to_band``: its lower band, ``kd`` subdiagonals wide, in LAPACK's
    band storage (column-major ``(kd + 1) x n``, so C-ordered ``(n, kd + 1)``),
    of the matrix multiplied by ``sigma``.  Without the LAPACK routines of
    ``_lapack``, and for ``n <= 1``, the solve is already done: ``ab`` is
    ``None`` and ``eigenvalues`` holds the spectrum, ascending."""

    ab: np.ndarray | None
    kd: int = 0
    sigma: float = 1.0
    eigenvalues: np.ndarray | None = None


def reduce_to_band(matrix, *, overwrite: bool = False) -> Band:
    """Stage 1 of ``eigenvalues_symmetric``: the matrix checked and reduced
    to band form by LAPACK's ``dsytrd_sy2sb``.  This is the O(n^3) part of the
    solve, in BLAS-3 calls, and the only one that reads the ``n x n`` matrix:
    once it returns, the matrix may be freed.

    The input is checked for finite entries and for symmetry to
    ``1e-10 * max|M_ij|`` in tiles, so the check allocates no ``n x n``
    temporary.  By default the caller's array is left untouched and LAPACK
    works in one C-ordered copy; with ``overwrite=True`` a C-contiguous,
    writable float64 array is reduced in place and its contents are
    destroyed (any other array is copied anyway).  LAPACK reads the upper
    triangle of the rows.  A matrix whose largest entry is below 2^-485 or
    above 2^485 is scaled first, as ``dsyevd_2stage`` does.

    A matrix of at most ``ONE_THREAD_MAX_N`` rows is reduced on one OpenBLAS
    thread, a larger one on the default pool, so the band depends on ``n``
    alone for small matrices and on the machine's thread count for large
    ones.  The reduction runs under a module-wide lock that also guards that
    process-wide pin: one stage 1 at a time, so callers that solve from
    several threads at once get the same bands as serial calls, while
    ``band_spectrum`` needs no lock.  If numpy's LAPACK lacks any of the
    five routines of ``_lapack``, the whole spectrum is taken here by
    ``np.linalg.eigvalsh`` (one-stage ``dsyevd``, which always copies and
    reads the lower triangle).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("matrix must be square")
    scale, asym = _scale_and_asymmetry(m)
    if asym > _SYM_TOL * max(scale, 1e-300):
        raise DomainError("matrix is not symmetric")
    n = m.shape[0]
    if n <= 1:  # dsyevd_2stage's own shortcut
        return Band(None, eigenvalues=m.diagonal().copy())
    lapack = _lapack()
    if lapack is None:
        try:
            with _LAPACK_LOCK:
                return Band(None, eigenvalues=np.linalg.eigvalsh(m))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise SolverError(f"eigenvalue computation failed: {exc}") from exc
    sy2sb = lapack["dsytrd_sy2sb"]
    if not (overwrite and m.flags.c_contiguous and m.flags.writeable):
        m = np.array(m, order="C")  # float64 already
    sigma = 1.0
    if 0.0 < scale < _RMIN or scale > _RMAX:
        sigma = (_RMIN if scale < _RMIN else _RMAX) / scale
        m *= sigma
    # dsytrd_2stage's band width; a C-ordered symmetric matrix is its own
    # column-major transpose, so LAPACK's 'L' triangle is the rows' upper one
    kd = int(_fortran(lapack["ilaenv2stage"], 1, b"DSYTRD_2STAGE", b"N", n, -1, -1, -1))
    ab = np.zeros((n, kd + 1))
    tau = np.empty(n - 1)
    info = np.zeros(1, dtype=np.int64)
    size = np.zeros(1)
    with _LAPACK_LOCK, _blas_threads(1 if n <= ONE_THREAD_MAX_N else None):
        _fortran(sy2sb, b"L", n, kd, m, n, ab, kd + 1, tau, size, -1, info)  # workspace query
        work = np.empty(max(int(size[0]), 1))
        _fortran(sy2sb, b"L", n, kd, m, n, ab, kd + 1, tau, work, work.size, info)
    if info[0] != 0:
        raise SolverError(f"eigenvalue computation failed: dsytrd_sy2sb info = {info[0]}")
    return Band(ab, kd, sigma)


def _tridiagonal(band: Band) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal matrix that LAPACK's
    ``dsytrd_sb2st`` reduces a copy of the band to, reading only the band."""
    sb2st = _lapack()["dsytrd_sb2st"]
    n, kd = band.ab.shape[0], band.kd
    ab = band.ab.copy()  # sb2st overwrites it
    d, e = np.empty(n), np.empty(n - 1)
    info = np.zeros(1, dtype=np.int64)
    hsize, wsize = np.zeros(1), np.zeros(1)

    def sb2st_call(hous, work, lhous, lwork):
        _fortran(sb2st, b"Y", b"N", b"L", n, kd, ab, kd + 1, d, e, hous, lhous, work,
                 lwork, info)

    sb2st_call(hsize, wsize, -1, -1)  # workspace query
    hous, work = np.empty(max(int(hsize[0]), 1)), np.empty(max(int(wsize[0]), 1))
    sb2st_call(hous, work, hous.size, work.size)
    if info[0] != 0:
        raise SolverError(f"eigenvalue computation failed: dsytrd_sb2st info = {info[0]}")
    return d, e


def _extremes(d: np.ndarray, e: np.ndarray, k: int):
    """The ``k`` largest and the ``k`` smallest eigenvalues of the symmetric
    tridiagonal matrix ``(d, e)``, each run descending, by ``dstebz``
    bisection to full accuracy (``ABSTOL`` twice the underflow threshold,
    as LAPACK advises); ``None`` if the routine reports a failure.  ``d``
    and ``e`` are only read."""
    stebz, n = _lapack()["dstebz"], d.size
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(size, dtype=np.int64) for size in (n, n, 3 * n))
    m, nsplit, info = (np.zeros(1, dtype=np.int64) for _ in range(3))
    unused, abstol = np.zeros(1), np.array([2 * np.finfo(float).tiny])
    runs = []
    for il in (n - k + 1, 1):  # RANGE = 'I': the il-th to (il + k - 1)-th smallest
        _fortran(stebz, b"I", b"E", n, unused, unused, il, il + k - 1, abstol, d, e, m,
                 nsplit, w, iblock, isplit, work, iwork, info)
        if info[0] != 0 or m[0] != k:
            return None
        runs.append(w[k - 1 :: -1].copy())  # ORDER = 'E': ascending
    return runs


def band_spectrum(band: Band, k: int | None = None) -> Spectrum:
    """Stage 2 of ``eigenvalues_symmetric``: the spectrum of a matrix that
    ``reduce_to_band`` reduced.  LAPACK's ``dsytrd_sb2st`` reduces a copy of
    the band to a tridiagonal matrix T, reading only the band.

    Without ``k``, or when ``2k > n``, the result is all ``n`` eigenvalues of
    T by ``eigenvalues_tridiagonal`` (``dsterf``).  With ``k``, it is the
    partial ``Spectrum``: the ``k`` largest and ``k`` smallest eigenvalues
    by ``dstebz`` bisection, with the sum and the sum of squares of all of
    them read off T (its trace, and ``sum d^2 + 2 sum e^2``), and ``full``
    the ``dsterf`` spectrum of the same T, so T is computed once whatever
    is asked.  A band solved in stage 1, and a ``dstebz`` call that reports
    a failure, have their ends cut from the whole spectrum instead, with
    its sums.  None of these calls threaded BLAS, so this half gives the
    same bits on any number of OpenBLAS threads and takes no lock: it can
    run beside another matrix's stage 1."""
    if k is not None and k < 1:
        raise DomainError(f"the number of extreme eigenvalues must be positive, got {k}")
    if band.eigenvalues is None:
        d, e = _tridiagonal(band)
        n, inv = d.size, 1.0 / band.sigma

        @functools.cache
        def whole() -> Spectrum:
            vals = eigenvalues_tridiagonal(d, e)
            if band.sigma != 1.0:
                vals *= inv  # as dsyevd_2stage scales back
            return _descending(vals[::-1].copy())
    else:  # solved in stage 1
        done = _descending(band.eigenvalues[::-1].copy())  # LAPACK's order is ascending
        n, whole = done.n, lambda: done
    if k is None or 2 * k > n:
        return whole()
    runs = _extremes(d, e, k) if band.eigenvalues is None else None
    if runs is not None:
        moments = (np.sum(d) * inv, (np.sum(d * d) + 2.0 * np.sum(e * e)) * inv * inv)
        return _ends(runs[0] * inv, runs[1] * inv, n, moments, whole)
    v = whole().values  # no bisection: the ends are cut from the whole spectrum
    return _ends(v[:k], v[n - k :], n, (np.sum(v), np.sum(v * v)), whole)


def eigenvalues_symmetric(matrix, k: int | None = None, *, overwrite: bool = False) -> Spectrum:
    """The spectrum of a symmetric matrix, eigenvalues only: stage 1,
    ``reduce_to_band``, then stage 2, ``band_spectrum``; with ``k``, the
    partial ``Spectrum`` of its ``k`` largest and ``k`` smallest eigenvalues.

    Together the two stages are LAPACK's two-stage routine
    ``dsyevd_2stage`` (full -> band -> tridiagonal -> ``dsterf``), called
    step by step through ctypes in the LAPACK numpy already loaded, and give
    its bits at the same BLAS thread count.  ``overwrite`` is
    ``reduce_to_band``'s: with ``overwrite=True`` a C-contiguous, writable
    float64 array is solved in place and its contents are destroyed.

    Stage 1 runs under a module-wide lock, which also guards the
    process-wide pin of OpenBLAS to one thread while a matrix of at most
    ``ONE_THREAD_MAX_N`` rows is reduced.  So the spectrum of such a matrix
    does not depend on the machine's thread count, and callers that solve
    from several threads at once get the same spectra as serial calls.  A
    larger matrix keeps the default BLAS pool, whose thread count moves its
    eigenvalues at round-off level (1 against 2 OpenBLAS threads, by up to
    about 1e-15).
    """
    return band_spectrum(reduce_to_band(matrix, overwrite=overwrite), k)


def eigenvalues_tridiagonal(diag, offdiag) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with diagonal
    ``diag`` (length m) and off-diagonal ``offdiag`` (length m - 1).

    The solve is LAPACK's ``dsterf``, O(m^2) and serial, called through
    ctypes in the LAPACK numpy already loaded; where ``_lapack`` does not
    resolve, the dense matrix goes to ``np.linalg.eigvalsh``.
    """
    d = np.array(diag, dtype=float)  # copies: dsterf overwrites both arrays
    e = np.array(offdiag, dtype=float)
    m = d.size
    if e.size != max(m - 1, 0):
        raise DomainError("off-diagonal must be one shorter than the diagonal")
    lapack = _lapack()
    if lapack is None:
        dense = np.diag(d)
        i = np.arange(m - 1)
        dense[i, i + 1] = dense[i + 1, i] = e
        return np.linalg.eigvalsh(dense)
    info = np.zeros(1, dtype=np.int64)
    _fortran(lapack["dsterf"], m, d, e, info)
    if info[0] != 0:
        raise SolverError(f"eigenvalue computation failed: dsterf info = {info[0]}")
    return d


def operator_norm(matrix) -> float:
    """Largest absolute eigenvalue (= spectral norm for symmetric input),
    from the largest and the smallest eigenvalue alone, by bisection.
    ``matrix`` may also be the ``Band`` that ``reduce_to_band`` made of it."""
    band = matrix if isinstance(matrix, Band) else reduce_to_band(matrix)
    vals = band_spectrum(band, 1).values
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
    if x.partial or y.partial:
        raise DomainError("delta2 needs every value: a partial spectrum holds only its ends")
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
