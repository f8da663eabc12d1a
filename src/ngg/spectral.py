"""Dense symmetric eigenvalues and the rearrangement distance between spectra.

The dense solve is LAPACK's two-stage reduction, called step by step:
stage 1 (``reduce_to_band``) reduces the matrix to band form, the O(n^3)
part; stage 2 (``band_spectrum``) reduces the band to a tridiagonal matrix
T and takes all ``n`` eigenvalues of T by ``dsterf``.  Stage 1 is
``dsytrd_sy2sb``'s own sequence of LAPACK and BLAS calls (``_sy2sb``), with
its one symmetric multiply ``dsymm`` done in column tiles (``_symm``): it
gives ``dsyevd_2stage``'s bits while the trailing matrix fits one tile, and
the same eigenvalues to round-off beyond it.  The LAPACK and BLAS routines
are bound together or not at all (``_lapack``): without any one of them
every solve is ``np.linalg.eigvalsh``.

Stage 1 takes one input, a ``Triangle``: the upper triangle of the C-ordered
rows (LAPACK's ``'L'`` triangle of the column-major matrix) on ``lazy_zeros``
pages that become resident where they are written, about half of the
``8 n^2`` bytes.  ``EdgeListData.triangle()`` writes the ``A / n`` of a
graph, and ``write_triangle`` any symmetric matrix in row blocks, onto a new
``lazy_zeros`` matrix or onto a graph's ``A / n``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import threading
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "ONE_THREAD_MAX_N",
    "Band",
    "Spectrum",
    "Triangle",
    "as_spectrum",
    "band_spectrum",
    "check_dense_size",
    "eigenvalues_tridiagonal",
    "lazy_zeros",
    "delta2_runs",
    "reduce_to_band",
    "SignedRuns",
    "signed_runs",
    "write_triangle",
]

_BLOCK = 256  # rows of a triangle's block
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
# Column tile of stage 1's symmetric multiply (``_symm``).  On a 2-vCPU Xeon
# (OpenBLAS 0.3.31) one m = 4000, k = 32 product took 54-66 ms by dsymm and
# 34-39 ms in tiles of 512 on one thread (15-19 against 26-31 GFLOP/s, about
# dgemm's rate), and 41-43 ms against 23-25 ms on two; stage 1 of a 4000-node
# A / n on the pool of two took 1.61 s against 1.94 s (medians of 6).
_SYMM_TILE = 512


@dataclass(frozen=True)
class Spectrum:
    """A finite real multiset of ``n`` values sorted descending, such as the
    eigenvalues of a symmetric matrix.  ``s1[k]`` and ``s2[k]`` are the sums
    of its ``k`` largest values and of their squares (``s1[0] = s2[0] =
    0``), taken on first use.  A prefix sum that overflows reads inf, which
    the fit refuses.  Built by ``as_spectrum`` and ``band_spectrum``."""

    values: np.ndarray
    n: int

    @functools.cached_property
    def s1(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.concatenate(([0.0], np.cumsum(self.values)))

    @functools.cached_property
    def s2(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.concatenate(([0.0], np.cumsum(self.values * self.values)))


class Triangle(NamedTuple):
    """A symmetric matrix as stage 1 reads it.  ``matrix`` is a C-ordered
    float64 ``n x n`` array whose upper triangle of the rows stands for the
    whole matrix; the rest is never read.  ``scale`` is the largest magnitude
    of an entry.  ``EdgeListData.triangle()`` writes one from a graph's edge
    keys and ``write_triangle`` from row blocks of any symmetric matrix, both
    on ``lazy_zeros`` pages, for ``reduce_to_band``, the one input of the
    solve."""

    matrix: np.ndarray
    scale: float


def _descending(v: np.ndarray) -> Spectrum:
    """The ``Spectrum`` of values already sorted descending, checked finite."""
    if not np.isfinite(v).all():
        raise DomainError("spectrum has non-finite values")
    return Spectrum(v, v.size)


def as_spectrum(x) -> Spectrum:
    """``x`` as a ``Spectrum``: one is returned as it is, anything else is
    flattened and sorted descending once, so a multiset that is fitted or
    compared many times is prepared once."""
    if isinstance(x, Spectrum):
        return x
    return _descending(np.sort(np.asarray(x, dtype=float).ravel())[::-1])


def check_dense_size(n: int, label) -> None:
    """Refuse a graph whose dense float64 adjacency cannot fit in memory;
    ``label`` (an input path, or the option that set ``n``) starts the message."""
    try:
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return
    if 8 * n * n > phys:
        gib = Decimal(8 * n * n) / 2**30  # a need of any size: a float would overflow
        raise DomainError(
            f"{label}: n = {n} nodes needs {gib:.1f} GiB for the dense adjacency matrix, "
            f"more than the {phys / 2**30:.1f} GiB of physical memory"
        )


def lazy_zeros(n: int) -> np.ndarray:
    """An ``n x n`` float64 zero matrix on an anonymous private ``mmap``,
    whose pages become resident only where they are written.  numpy asks for
    huge pages on its own large arrays, so writing one triangle of an
    ``np.zeros`` matrix makes nearly every 2 MiB page of it resident; these
    pages are 4 KiB where the platform lets ``madvise`` say so.  The map is
    freed with the last array that views it."""
    buf = mmap.mmap(-1, max(8 * n * n, 1), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64, count=n * n).reshape(n, n)


def write_triangle(m: np.ndarray, fill) -> Triangle:
    """The ``Triangle`` of a symmetric ``n x n`` matrix ``M``, written in row
    blocks onto ``m``, a new ``lazy_zeros(n)`` or a graph's own
    ``EdgeListData.triangle().matrix``: ``fill(block, out)`` updates ``out =
    m[block]`` in place to ``M[block]`` for each ``block`` of ``_BLOCK`` rows
    from the diagonal on, so the upper triangle of the rows is written and,
    of the other, only the diagonal blocks.  The fills run under stage 1's
    thread rule (``_stage_one_threads``).  An ``m`` that is not a square,
    C-ordered, writable float64 array is refused, and so is a non-finite entry."""
    if not (isinstance(m, np.ndarray) and m.dtype == np.float64 and m.ndim == 2
            and m.shape[0] == m.shape[1] and m.flags.c_contiguous and m.flags.writeable):
        raise DomainError("write_triangle takes a square, C-ordered, writable float64 matrix")
    n = m.shape[0]
    scale = 0.0
    with _stage_one_threads(n):
        for lo in range(0, n, _BLOCK):
            block = np.s_[lo : lo + _BLOCK, lo:]
            out = m[block]
            fill(block, out)
            top = max(float(out.max()), -float(out.min()))  # NaN if any entry is NaN
            if not math.isfinite(top):
                raise DomainError("matrix has non-finite entries")
            scale = max(scale, top)
    return Triangle(m, scale)


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


_FORTRAN_TYPES = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64),
                  "d": ctypes.POINTER(ctypes.c_double), "a": ctypes.c_void_p}


def _fortran_routine(name: str, restype, signature: str):
    """Fortran routine ``name`` (``_symbol``) typed by ``signature``, one
    letter per argument: ``c`` a character string, ``i`` an integer, ``d`` a
    double, ``a`` an array; gfortran appends one hidden length per character
    argument."""
    types = [_FORTRAN_TYPES[k] for k in signature] + [ctypes.c_size_t] * signature.count("c")
    return _symbol(name, restype, *types)


def _fortran(fn, *args):
    """Call a ``_fortran_routine``: an int goes by reference as a 64-bit
    integer, a float as a double, an array as its data pointer, and
    ``bytes`` as a character string whose hidden length follows all the
    other arguments."""
    refs, lengths = [], []
    for a in args:
        if isinstance(a, bytes):
            refs.append(ctypes.c_char_p(a))
            lengths.append(ctypes.c_size_t(len(a)))
        elif isinstance(a, np.ndarray):
            refs.append(ctypes.c_void_p(a.ctypes.data))
        elif isinstance(a, float):
            refs.append(ctypes.byref(ctypes.c_double(a)))
        else:
            refs.append(ctypes.byref(ctypes.c_int64(a)))
    return fn(*refs, *lengths)


# The LAPACK and BLAS routines of the dense solve, with their
# ``_fortran_routine`` return types and signatures
_ROUTINES = {
    "ilaenv2stage": (ctypes.c_int64, "icciiii"),
    "dgeqrf": (None, "iiaiaaia"),
    "dlaset": (None, "ciiddai"),
    "dlarft": (None, "cciiaiaai"),
    "dgemm": (None, "cciiidaiaidai"),
    "dsymm": (None, "cciidaiaidai"),
    "dsyr2k": (None, "cciidaiaidai"),
    "dsytrd_sb2st": (None, "ccciiaiaaaiaia"),
    "dsterf": (None, "iaaa"),
}


def _lapack():
    """LAPACK's and BLAS's routines of the dense solve by name, or ``None``
    unless all of them are exported: ``ilaenv2stage`` (the band width), the
    six of stage 1 (``_sy2sb``), ``dsytrd_sb2st`` (band to tridiagonal) and
    ``dsterf`` (every eigenvalue of a symmetric tridiagonal matrix, by the
    root-free QL/QR iteration)."""
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


@contextlib.contextmanager
def _stage_one_threads(n: int):
    """Stage 1 of an ``n``-row matrix, or the BLAS calls writing its triangle, run
    inside: one at a time under ``_LAPACK_LOCK``, on one OpenBLAS thread up to
    ``ONE_THREAD_MAX_N`` rows and on the default pool beyond."""
    with _LAPACK_LOCK, _blas_threads(1 if n <= ONE_THREAD_MAX_N else None):
        yield


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


def _copy_band(ab: np.ndarray, m: np.ndarray, lo: int, hi: int) -> None:
    """Columns ``lo:hi`` of the lower band of the column-major ``m`` into
    ``ab``: ``ab[j, :k] = m[j, j:j + k]``, ``k`` = ``kd + 1`` or what is left
    of row ``j``, the copies ``dsytrd_sy2sb`` makes by ``dcopy``."""
    n, width = ab.shape
    for j in range(lo, hi):
        k = min(width, n - j)
        ab[j, :k] = m[j, j : j + k]


def _symm(lapack, pn: int, pk: int, a22: np.ndarray, n: int, b: np.ndarray,
          c: np.ndarray) -> None:
    """``C = A22 B``, the ``dsymm('L', 'L')`` of ``dsytrd_sy2sb``: ``A22`` is
    ``pn x pn`` symmetric with its lower triangle stored, ``B`` and ``C`` are
    ``pn x pk``, all column-major with leading dimension ``n``.

    The product is made in column tiles of ``A22``, ``_SYMM_TILE`` wide: a
    ``dsymm`` on the tile's diagonal block, then the block below it times
    ``B`` by ``dgemm`` and its transpose times ``B`` by ``dgemm`` again, as
    OpenBLAS's ``dgemm`` runs much faster than its ``dsymm``.  A ``pn`` of at
    most one tile is ``dsytrd_sy2sb``'s own single call."""
    symm, gemm = lapack["dsymm"], lapack["dgemm"]
    for lo in range(0, pn, _SYMM_TILE):
        hi = min(lo + _SYMM_TILE, pn)
        beta = 0.0 if lo == 0 else 1.0  # the first tile writes all of C
        _fortran(symm, b"L", b"L", hi - lo, pk, 1.0, a22[lo * (n + 1):], n, b[lo:], n, beta,
                 c[lo:], n)
        if hi < pn:
            below = a22[lo * n + hi:]
            _fortran(gemm, b"N", b"N", pn - hi, pk, hi - lo, 1.0, below, n, b[lo:], n, beta,
                     c[hi:], n)
            _fortran(gemm, b"T", b"N", hi - lo, pk, pn - hi, 1.0, below, n, b[hi:], n, 1.0,
                     c[lo:], n)


def _sy2sb(lapack, m: np.ndarray, kd: int) -> np.ndarray:
    """The lower band, ``kd`` wide, of LAPACK's ``dsytrd_sy2sb('L')`` on the
    column-major ``n x n`` matrix ``m``, of which it reads and destroys only
    the lower triangle (the upper one of the C-ordered rows): the routine's
    own calls, panel by panel of ``kd`` columns, but with ``_symm`` for its
    ``dsymm``.  Each panel below the band is QR-factored (``dgeqrf``), its
    band columns copied out, its reflectors made unit (``dlaset``) and
    blocked (``dlarft``), and the trailing matrix updated by
    ``A := A - V W' - W V'`` (``dgemm``, ``_symm``, two ``dgemm``,
    ``dsyr2k``)."""
    n = m.shape[0]
    a = m.reshape(-1)  # A(r, c) is a[r + c * n]
    ab = np.zeros((n, kd + 1))
    # T is zeroed once, as LAPACK does: dlarft writes only its upper
    # triangle, and the first dgemm reads all of it
    tau, t, s1 = np.empty(n), np.zeros(kd * kd), np.empty(kd * kd)
    s2, w = np.empty(n * kd), np.empty(n * kd)  # n x kd, leading dimension n
    info = np.zeros(1, dtype=np.int64)
    gemm = lapack["dgemm"]
    panels = range(0, n - kd, kd) if n > kd + 1 else ()  # none: LAPACK's quick return
    for i in panels:
        pn = n - i - kd
        pk = min(pn, kd)
        v, a22 = a[i * n + i + kd:], a[(i + kd) * (n + 1):]  # A(i+kd, i), A(i+kd, i+kd)
        # the whole kd columns, as LAPACK factors them, also where pn < kd
        _fortran(lapack["dgeqrf"], pn, kd, v, n, tau[i:], s2, s2.size, info)
        if info[0] != 0:
            raise SolverError(f"eigenvalue computation failed: dgeqrf info = {info[0]}")
        _copy_band(ab, m, i, i + pk)
        _fortran(lapack["dlaset"], b"U", pk, pk, 0.0, 1.0, v, n)
        _fortran(lapack["dlarft"], b"F", b"C", pn, pk, v, n, tau[i:], t, kd)
        _fortran(gemm, b"N", b"N", pn, pk, pk, 1.0, v, n, t, kd, 0.0, s2, n)
        _symm(lapack, pn, pk, a22, n, s2, w)
        _fortran(gemm, b"T", b"N", pk, pk, pn, 1.0, s2, n, w, n, 0.0, s1, kd)
        _fortran(gemm, b"N", b"N", pn, pk, pk, -0.5, v, n, s1, kd, 1.0, w, n)
        _fortran(lapack["dsyr2k"], b"L", b"N", pn, pk, -1.0, v, n, w, n, 1.0, a22, n)
    _copy_band(ab, m, n - kd if panels else 0, n)
    return ab


def reduce_to_band(triangle: Triangle) -> Band:
    """Stage 1 of the solve: the symmetric matrix that ``triangle`` stands
    for, reduced to band form by LAPACK's ``dsytrd_sy2sb`` call sequence
    (``_sy2sb``), whose symmetric multiply runs in column tiles (``_symm``).
    Only the upper triangle of the rows of ``triangle.matrix`` is read, and
    it is destroyed.  Where the trailing matrix of every panel fits one tile
    (``n - kd <= _SYMM_TILE``, so ``n <= 544`` with OpenBLAS's ``kd = 32``)
    the band is ``dsytrd_sy2sb``'s bit for bit; beyond it the band differs at
    round-off level.  This is the O(n^3) part of the solve, in BLAS-3 calls,
    and the only one that reads the ``n x n`` matrix: once it returns, the
    matrix may be freed or refilled.  A matrix whose largest entry
    (``triangle.scale``) is below 2^-485 or above 2^485 is scaled first, as
    ``dsyevd_2stage`` does; one with a non-finite entry is refused, and so is
    any input other than a ``Triangle``.

    The reduction runs under ``_stage_one_threads``: one stage 1 at a time, on
    one OpenBLAS thread up to ``ONE_THREAD_MAX_N`` rows, so the band depends on
    ``n`` alone for small matrices and on the machine's thread count for large
    ones (1 against 2 threads moves the eigenvalues by up to about 1e-15), and
    callers that solve from several threads at once get the same bands as
    serial calls, while ``band_spectrum`` needs no lock.  If numpy's LAPACK
    lacks any of the routines of ``_lapack``, the whole spectrum is taken here
    by ``np.linalg.eigvalsh`` (one-stage ``dsyevd``) of the transpose, whose
    lower triangle is the rows' upper one.
    """
    if not isinstance(triangle, Triangle):
        raise DomainError(
            f"the solve takes a Triangle, as EdgeListData.triangle() or write_triangle "
            f"writes it, not {type(triangle).__name__}")
    m, scale = triangle
    if not math.isfinite(scale):
        raise DomainError("matrix has non-finite entries")
    n = m.shape[0]
    if n <= 1:  # dsyevd_2stage's own shortcut
        return Band(None, eigenvalues=m.diagonal().copy())
    lapack = _lapack()
    if lapack is None:
        try:
            with _LAPACK_LOCK:
                return Band(None, eigenvalues=np.linalg.eigvalsh(m.T))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise SolverError(f"eigenvalue computation failed: {exc}") from exc
    sigma = 1.0
    if 0.0 < scale < _RMIN or scale > _RMAX:
        sigma = (_RMIN if scale < _RMIN else _RMAX) / scale
        for lo in range(0, n, _BLOCK):
            m[lo : lo + _BLOCK, lo:] *= sigma
    # dsytrd_2stage's band width; a C-ordered symmetric matrix is its own
    # column-major transpose, so LAPACK's 'L' triangle is the rows' upper one
    kd = int(_fortran(lapack["ilaenv2stage"], 1, b"DSYTRD_2STAGE", b"N", n, -1, -1, -1))
    with _stage_one_threads(n):
        ab = _sy2sb(lapack, m, kd)
    return Band(ab, kd, sigma)


def band_spectrum(band: Band) -> Spectrum:
    """Stage 2 of the solve: the spectrum of a matrix that ``reduce_to_band``
    reduced.  LAPACK's ``dsytrd_sb2st`` reduces a copy of the band to a
    tridiagonal matrix T, reading only the band, and ``eigenvalues_tridiagonal``
    (``dsterf``) takes all ``n`` eigenvalues of T; a band solved in stage 1
    already holds them.  Neither routine calls threaded BLAS, so this half
    gives the same bits on any number of OpenBLAS threads and takes no lock:
    it can run beside another matrix's stage 1."""
    vals = band.eigenvalues
    if vals is None:
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
        vals = eigenvalues_tridiagonal(d, e)
        if band.sigma != 1.0:
            vals *= 1.0 / band.sigma  # as dsyevd_2stage scales back
    return _descending(vals[::-1].copy())  # LAPACK's order is ascending


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


class SignedRuns(NamedTuple):
    """A multiset of values with multiplicities, such as a staircase model
    spectrum, split as the l2 rearrangement distance aligns it: ``nonneg``
    holds the ``(value, count)`` runs of the values ``>= 0`` (exact zeros of
    either sign included) by decreasing value, ``neg`` those below zero by
    increasing value.  By the Hardy-Littlewood rearrangement inequality the
    optimal matching of two zero-padded multisets pairs their nonnegative
    values downward from the largest and their negative ones upward from the
    smallest.  Built by ``signed_runs``, compared by ``delta2_runs``."""

    nonneg: list
    neg: list


def signed_runs(values, counts) -> SignedRuns:
    """The ``SignedRuns`` of the multiset holding ``values[k]`` ``counts[k]``
    times, for ``k`` up to the shorter length, such as stage values or
    expansion coefficients with their ``basis.dims``; a non-finite value is
    refused, as ``as_spectrum`` refuses it."""
    values = np.asarray(values, dtype=float).tolist()
    if not all(map(math.isfinite, values)):
        raise DomainError("spectrum has non-finite values")
    runs = SignedRuns([], [])
    for v, c in zip(values, counts):
        if c:
            (runs.nonneg if v >= 0 else runs.neg).append((v, int(c)))
    runs.nonneg.sort(reverse=True)
    runs.neg.sort()
    return runs


_END = (0.0, math.inf)  # past a list's last run: zeros without end


def _aligned_squares(xs: list, ys: list, terms: list) -> None:
    """Append ``count * (a - b)**2`` for each stretch of ``count`` positions
    on which the runs ``xs`` and ``ys``, laid out one position after
    another and padded with zeros, hold ``a`` and ``b``."""
    xi, yi = iter(xs), iter(ys)
    (a, ca), (b, cb) = next(xi, _END), next(yi, _END)
    add = terms.append
    while True:
        d = a - b
        if ca < cb:
            add(ca * (d * d))
            cb -= ca
            a, ca = next(xi, _END)
        elif cb < ca:
            add(cb * (d * d))
            ca -= cb
            b, cb = next(yi, _END)
        elif ca == math.inf:  # both lists ended
            return
        else:
            add(ca * (d * d))
            (a, ca), (b, cb) = next(xi, _END), next(yi, _END)


def delta2_runs(x: SignedRuns, y: SignedRuns) -> float:
    """The l2 rearrangement distance (delta2) of two multisets given as
    ``SignedRuns``, without expanding either: the stretches on which both
    sign lists hold one value each, at most as many as their runs together,
    give ``count * (a - b)**2`` each, summed with one rounding
    (``math.fsum``).  ``(a - b)**2`` is rounded as the distance of the
    expanded values rounds it (its oracle, ``delta2`` in the tests'
    ``oracles.py``), so only the two sums differ.  A distance too large for
    a float64 is refused."""
    terms = []
    _aligned_squares(x.nonneg, y.nonneg, terms)
    _aligned_squares(x.neg, y.neg, terms)
    try:
        dist = math.sqrt(math.fsum(terms))
    except OverflowError:  # a partial sum overflowed
        dist = math.inf
    if not math.isfinite(dist):
        raise DomainError("delta2 overflows float64")
    return dist
