import ctypes
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngg
from ngg.errors import DomainError

_PERMS7 = np.array(list(itertools.permutations(range(7))))


def delta2_oracle(x, y):
    """Exhaustive minimum over permutations of zero-padded length-7 vectors."""
    x = np.pad(np.asarray(x, float), (0, 7 - len(x)))
    y = np.pad(np.asarray(y, float), (0, 7 - len(y)))
    diffs = x[None, :] - y[_PERMS7]
    return math.sqrt(np.min(np.sum(diffs * diffs, axis=1)))


# --- eigenvalues ----------------------------------------------------------------


def test_eigenvalues_identity_and_diag():
    s = ngg.eigenvalues_symmetric(np.eye(3))
    assert np.array_equal(s.values, [1.0, 1.0, 1.0])
    s = ngg.eigenvalues_symmetric(np.diag([2.0, -1.0, 0.0]))
    assert np.array_equal(s.values, [2.0, 0.0, -1.0])


def test_eigenvalues_rank_one_shift():
    # analytic oracle: a (J - I) / n has eigenvalues a(n-1)/n and -a/n (x n-1)
    n, a = 40, 0.7
    m = a * (np.ones((n, n)) - np.eye(n)) / n
    vals = ngg.eigenvalues_symmetric(m).values
    assert vals[0] == pytest.approx(a * (n - 1) / n, rel=1e-12)
    assert np.allclose(vals[1:], -a / n, atol=1e-12)


def test_eigenvalues_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(DomainError):
        ngg.eigenvalues_symmetric(m)
    with pytest.raises(DomainError):
        ngg.eigenvalues_symmetric(np.zeros((2, 3)))


@pytest.mark.parametrize("j", [0, 280])
def test_eigenvalues_rejects_asymmetry_in_last_partial_block(rng, j):
    # the check walks 256x256 tiles; row 299 is in the last, partial tile
    a = rng.standard_normal((300, 300))
    m = (a + a.T) / 2
    assert ngg.eigenvalues_symmetric(m).values.size == 300
    m[299, j] += 1e-6
    with pytest.raises(DomainError, match="not symmetric"):
        ngg.eigenvalues_symmetric(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalues_rejects_non_finite(bad):
    m = np.eye(300)
    m[5, 280] = m[280, 5] = bad
    with pytest.raises(DomainError, match="non-finite"):
        ngg.eigenvalues_symmetric(m)


def test_eigenvalue_residual_contract(rng):
    a = rng.standard_normal((50, 50))
    m = (a + a.T) / 2
    spec = ngg.eigenvalues_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    residuals = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    # backward stability: residuals within 1e-9 * n * max|M_ij|
    assert np.max(residuals) <= 1e-9 * m.shape[0] * np.max(np.abs(m))
    # eigh and eigvalsh take different LAPACK paths; agreement to round-off
    assert np.allclose(spec.values, np.sort(vals)[::-1], rtol=0, atol=1e-12)
    assert np.all(np.diff(spec.values) <= 0)


def test_weyl_stability(rng):
    for _ in range(10):
        a = rng.standard_normal((30, 30))
        e = 0.1 * rng.standard_normal((30, 30))
        m = (a + a.T) / 2
        pert = (e + e.T) / 2
        lam = ngg.eigenvalues_symmetric(m).values
        mu = ngg.eigenvalues_symmetric(m + pert).values
        assert np.max(np.abs(mu - lam)) <= ngg.operator_norm(pert) + 1e-8


# --- rearrangement distance ------------------------------------------------------


def test_delta2_trivial_cases():
    x = [0.5, -0.2, 0.1]
    assert ngg.delta2(x, x) == 0.0
    assert ngg.delta2([], []) == 0.0
    assert ngg.delta2([1.0, -2.0], [3.0]) == pytest.approx(delta2_oracle([1, -2], [3]))
    assert ngg.delta2([1.0, -2.0], [3.0]) == pytest.approx(math.sqrt(8))


def test_delta2_indistinguishable_pair():
    # two distinct degree-4 coefficient patterns with identical spectra
    mu = 0.04
    lam_a = [0.5] + [mu] * 3 + [0.0] * 5 + [0.0] * 7 + [mu] * 9
    lam_b = [0.5] + [0.0] * 3 + [mu] * 5 + [mu] * 7 + [0.0] * 9
    assert ngg.delta2(lam_a, lam_b) == 0.0


def test_delta2_zero_padding_invariance():
    x = [0.3, -0.4]
    assert ngg.delta2(x, x + [0.0, 0.0]) == 0.0
    assert ngg.delta2(x + [0.0], [-0.4, 0.3]) == 0.0


_vals = st.floats(-4, 4, allow_nan=False, width=32)


@given(st.lists(_vals, max_size=4), st.lists(_vals, max_size=3))
def test_delta2_matches_exhaustive_oracle(x, y):
    assert ngg.delta2(x, y) == pytest.approx(delta2_oracle(x, y), abs=1e-12)


@given(st.lists(_vals, max_size=5), st.lists(_vals, max_size=5))
def test_delta2_symmetry(x, y):
    assert ngg.delta2(x, y) == pytest.approx(ngg.delta2(y, x), abs=1e-12)


@given(st.lists(_vals, max_size=6), st.lists(_vals, max_size=6))
def test_delta2_of_presplit_runs_is_bit_identical(x, y):
    # inputs converted by as_spectrum beforehand give the raw inputs' distance
    runs_x, runs_y = ngg.as_spectrum(x), ngg.as_spectrum(y)
    assert ngg.as_spectrum(runs_x) is runs_x
    want = ngg.delta2(x, y)
    assert ngg.delta2(runs_x, runs_y) == want
    assert ngg.delta2(runs_x, y) == want
    assert ngg.delta2(x, runs_y) == want


@given(st.lists(_vals, max_size=4), st.lists(_vals, max_size=4), st.lists(_vals, max_size=4))
def test_delta2_triangle_inequality(x, y, z):
    assert ngg.delta2(x, z) <= ngg.delta2(x, y) + ngg.delta2(y, z) + 1e-9


@given(st.lists(_vals, min_size=1, max_size=6), st.data())
def test_delta2_zero_on_permutations(x, data):
    perm = data.draw(st.permutations(x))
    assert ngg.delta2(x, perm) == 0.0


def delta2_padded(x, y):
    """The distance with each signed run zero-padded by ``np.pad``: the
    reference for the single-buffer padding."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    xp = np.sort(x[x >= 0])[::-1]
    yp = np.sort(y[y >= 0])[::-1]
    xn = np.sort(x[x < 0])
    yn = np.sort(y[y < 0])
    kp = max(xp.size, yp.size)
    kn = max(xn.size, yn.size)
    xp = np.pad(xp, (0, kp - xp.size))
    yp = np.pad(yp, (0, kp - yp.size))
    xn = np.pad(xn, (0, kn - xn.size))
    yn = np.pad(yn, (0, kn - yn.size))
    return float(np.sqrt(np.sum((xp - yp) ** 2) + np.sum((xn - yn) ** 2)))


_signed = st.one_of(st.floats(-4, 4, allow_nan=False), st.sampled_from([0.0, -0.0, 0.1, -0.1]))


@settings(max_examples=200)
@given(st.lists(_signed, max_size=40), st.lists(_signed, max_size=40))
def test_delta2_equals_padded_reference(x, y):
    assert ngg.delta2(x, y) == delta2_padded(x, y)


def test_delta2_equals_padded_reference_edge_cases():
    rng = np.random.default_rng(3)
    big_x, big_y = rng.normal(size=20_000), rng.normal(size=15_001)
    cases = [
        ([], []),
        ([], [0.2, -0.3]),
        ([-1.0, -2.0, -0.5], [-0.25]),  # all negative
        ([-1.0, -2.0], [0.5, 1.5, 2.5]),
        ([0.0, 0.0, 0.0], [0.0]),  # all zero
        ([-0.0, 0.0, -0.0], [0.0, 0.3]),
        ([-0.0], [-0.4, 0.4, -0.0]),
        (np.round(rng.normal(size=49), 1), np.round(rng.normal(size=36), 1)),
        (big_x, big_y),  # longer than one reduction buffer
    ]
    for x, y in cases:
        assert ngg.delta2(x, y) == delta2_padded(x, y), (x, y)
        assert ngg.delta2(y, x) == delta2_padded(y, x), (x, y)


@pytest.mark.parametrize(
    "x, y",
    [
        ([np.nan], [0.0]),  # x >= 0 and x < 0 are both false for NaN
        ([np.nan, 1.0], [1.0]),
        ([np.inf], [1.0]),
        ([0.5], [-np.inf, 0.2]),
    ],
)
def test_delta2_refuses_non_finite_entries(x, y):
    with pytest.raises(DomainError, match="non-finite"):
        ngg.delta2(x, y)
    with pytest.raises(DomainError, match="non-finite"):
        ngg.delta2(y, x)


@pytest.mark.parametrize(
    "x, y",
    [
        ([1e200], [-1e200]),  # a square overflows
        ([1.5e308], [-1.5e308]),  # each matched with zero, and 1.5e308 squared overflows
        ([1e154, 1e154], [0.0]),  # each square is finite, their sum overflows
    ],
)
def test_delta2_refuses_overflow(x, y):
    with pytest.raises(DomainError, match="overflows"):
        ngg.delta2(x, y)
    with pytest.raises(DomainError, match="overflows"):
        ngg.delta2(y, x)


def test_as_spectrum_fields():
    s = ngg.as_spectrum([[0.5, -1.0], [0.0, 2.0]])
    assert s.values.tolist() == [2.0, 0.5, 0.0, -1.0]
    assert s.s1.tolist() == [0.0, 2.0, 2.5, 2.5, 1.5]
    assert s.s2.tolist() == [0.0, 4.0, 4.25, 4.25, 5.25]
    assert s.nonneg == 3
    assert ngg.as_spectrum(s) is s
    assert ngg.as_spectrum([-0.0, -2.0]).nonneg == 1  # -0.0 counts as nonnegative
    empty = ngg.as_spectrum([])
    assert empty.values.size == 0 and empty.s1.tolist() == [0.0] and empty.nonneg == 0


def test_eigenvalues_symmetric_spectrum_equals_converted_values():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(60, 60))
    spec = ngg.eigenvalues_symmetric(m + m.T)
    again = ngg.as_spectrum(spec.values.copy())
    for field in ("values", "s1", "s2"):
        assert getattr(spec, field).tobytes() == getattr(again, field).tobytes()
    assert spec.nonneg == again.nonneg == int(np.count_nonzero(spec.values >= 0))


# --- the two-stage routine against numpy's eigvalsh ---------------------------------


@st.composite
def _symmetric_inputs(draw):
    """A random symmetric matrix or a 0/1 adjacency divided by ``n``."""
    n = draw(st.sampled_from([0, 1, 2, 3, 7, 64, 65, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.standard_normal((n, n))
        return (a + a.T) / 2
    upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.05, 0.5])), 1)
    return (upper | upper.T).astype(float) / max(n, 1)


@settings(max_examples=40)
@given(_symmetric_inputs())
def test_two_stage_matches_eigvalsh(m):
    n = m.shape[0]
    oracle = np.linalg.eigvalsh(m)[::-1]
    vals = ngg.eigenvalues_symmetric(m).values
    assert vals.shape == (n,)
    if n:
        tol = 8 * np.finfo(float).eps * n * np.max(np.abs(m))
        assert np.max(np.abs(vals - oracle)) <= tol


def _threads():
    """OpenBLAS's get- and set-thread-count functions, or ``None``."""
    get = ngg.spectral._symbol("openblas_get_num_threads", ctypes.c_int)
    put = ngg.spectral._symbol("openblas_set_num_threads", None, ctypes.c_int)
    return None if get is None or put is None else (get, put)


def _dsyevd_2stage(m):
    """Ascending eigenvalues of ``m`` by LAPACKE ``dsyevd_2stage`` on the
    upper triangle of the C-ordered rows, in one call: the routine that the
    solver's two stages and ``dsterf`` spell out."""
    syevd = ngg.spectral._symbol("LAPACKE_dsyevd_2stage", ctypes.c_int64, ctypes.c_int,
                                 ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                                 ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    if syevd is None:
        pytest.skip("numpy's LAPACK lacks dsyevd_2stage")
    a = np.array(m, dtype=float, order="C")
    n = a.shape[0]
    w = np.empty(n)
    assert syevd(102, b"N", b"L", n, a.ctypes.data, n, w.ctypes.data) == 0  # column-major
    return w


def _at_solver_threads(n, fn, *args):
    """``fn(*args)`` on as many OpenBLAS threads as stage 1 of an ``n``-row
    matrix uses: one up to ``ONE_THREAD_MAX_N`` rows, else the default."""
    with ngg.spectral._LAPACK_LOCK, ngg.spectral._blas_threads(
            1 if n <= ngg.spectral.ONE_THREAD_MAX_N else None):
        return fn(*args)


@pytest.mark.parametrize("n, scale", [
    (2, 1.0), (33, 1.0), (34, 1.0), (300, 1.0),
    (65, 2.0**-600), (65, 1e-320), (65, 3.0**500),  # scaled first, as dsyevd_2stage does
    (ngg.spectral.ONE_THREAD_MAX_N, 1.0), (ngg.spectral.ONE_THREAD_MAX_N + 1, 1.0),
])
def test_two_stages_are_dsyevd_2stage_bit_for_bit(n, scale, monkeypatch):
    # one tile of the symmetric multiply holds every trailing matrix: the
    # tiled product is float-level, the single dsymm LAPACK's own
    monkeypatch.setattr(ngg.spectral, "_SYMM_TILE", max(n, ngg.spectral._SYMM_TILE))
    rng = np.random.default_rng(n)
    if scale == 1.0:  # a graph's A / n, as fit_graph solves it
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        m = (upper | upper.T).astype(float) / n
    else:
        a = rng.standard_normal((n, n))
        m = (a + a.T) * (scale / 2)
    oracle = _at_solver_threads(n, _dsyevd_2stage, m)[::-1]
    band = ngg.spectral.reduce_to_band(m)
    assert band.ab.shape == (n, band.kd + 1) and (band.sigma != 1.0) == (scale != 1.0)
    assert ngg.spectral.band_spectrum(band).values.tobytes() == oracle.tobytes()
    assert ngg.eigenvalues_symmetric(m).values.tobytes() == oracle.tobytes()


def _dsytrd_sy2sb(m, kd):
    """The ``(n, kd + 1)`` band of LAPACK's own ``dsytrd_sy2sb('L')`` on the
    C-ordered rows of ``m``, which stage 1 spells out call by call."""
    sy2sb = ngg.spectral._fortran_routine("dsytrd_sy2sb_", None, "ciiaiaiaaia")
    if sy2sb is None:
        pytest.skip("numpy's LAPACK lacks dsytrd_sy2sb")
    a = np.array(m, dtype=float, order="C")
    n = a.shape[0]
    ab, tau = np.zeros((n, kd + 1)), np.empty(n - 1)
    info, size = np.zeros(1, dtype=np.int64), np.zeros(1)
    call = ngg.spectral._fortran
    call(sy2sb, b"L", n, kd, a, n, ab, kd + 1, tau, size, -1, info)  # workspace query
    work = np.empty(max(int(size[0]), 1))
    call(sy2sb, b"L", n, kd, a, n, ab, kd + 1, tau, work, work.size, info)
    assert info[0] == 0
    return ab


# ilaenv2stage chooses kd = 32 in OpenBLAS: n = 2 and 32 are at most kd and
# 33 is kd + 1 (LAPACK's quick return: the band is copied out); kd does not
# divide n - kd at 100, 130 and 2000, so the last panel is partial; 2049
# rows run on the default pool
@pytest.mark.parametrize("n", [2, 32, 33, 34, 100, 130, 2000, 2049])
def test_untiled_stage_one_is_dsytrd_sy2sb_bit_for_bit(n, monkeypatch):
    monkeypatch.setattr(ngg.spectral, "_SYMM_TILE", max(n, ngg.spectral._SYMM_TILE))
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    m = (upper | upper.T).astype(float) / n
    band = ngg.spectral.reduce_to_band(m)
    oracle = _at_solver_threads(n, _dsytrd_sy2sb, m, band.kd)
    assert band.ab.tobytes() == oracle.tobytes()


# n = 300: every trailing matrix in one dsymm; 1500: tiled, on one thread;
# 2049: tiled, on the default pool
@pytest.mark.parametrize("n", [300, 1500, 2049])
def test_stage_one_reads_only_its_triangle(n):
    # NaN below the diagonal of the rows: a read of it would reach the band;
    # band and spectrum are those of the whole symmetric matrix, bit for bit
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    m = (upper | upper.T).astype(float) / n
    whole = ngg.spectral.reduce_to_band(m.copy(), overwrite=True)  # reduced in place
    half = ngg.spectral.lazy_zeros(n)
    half[...] = np.where(np.tri(n, k=-1, dtype=bool), np.nan, m)
    band = ngg.spectral.reduce_to_band(ngg.spectral.Triangle(half, 1.0 / n))
    assert band.ab.tobytes() == whole.ab.tobytes()
    spectrum = ngg.spectral.band_spectrum(band).values
    assert spectrum.tobytes() == ngg.spectral.band_spectrum(whole).values.tobytes()
    # the checked entry copies only that triangle of the caller's matrix
    copied = ngg.spectral.reduce_to_band(m)
    assert copied.ab.tobytes() == whole.ab.tobytes()


def test_lazy_zeros_is_a_writable_float64_zero_matrix():
    for n in (0, 1, 2, 700):
        m = ngg.spectral.lazy_zeros(n)
        assert m.shape == (n, n) and m.dtype == np.float64 and m.flags.c_contiguous
        assert m.flags.writeable and not m.any()
    m[3, 699] = 2.0
    assert m.sum() == 2.0


def test_triangle_of_a_badly_scaled_matrix_is_scaled_as_dsyevd_2stage_does():
    # the scaling multiplies the triangle alone; the NaN below it stays unread
    n = 65
    a = np.random.default_rng(3).standard_normal((n, n))
    m = (a + a.T) * (2.0**-600 / 2)
    whole = ngg.spectral.reduce_to_band(m)
    half = ngg.spectral.lazy_zeros(n)
    half[...] = np.where(np.tri(n, k=-1, dtype=bool), np.nan, m)
    band = ngg.spectral.reduce_to_band(ngg.spectral.Triangle(half, float(np.max(np.abs(m)))))
    assert band.sigma == whole.sigma != 1.0
    assert band.ab.tobytes() == whole.ab.tobytes()


@st.composite
def _tiled_graphs(draw):
    """A tile width of the symmetric multiply and a graph's ``A / n`` of up
    to about three tiles, with its edge count."""
    tile = draw(st.sampled_from([8, 64, ngg.spectral._SYMM_TILE]))
    n = draw(st.integers(2, 3 * tile + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.05, 0.5])), 1)
    return tile, (upper | upper.T).astype(float) / n, int(np.count_nonzero(upper))


@settings(max_examples=15)
@given(_tiled_graphs())
def test_tiled_stage_one_keeps_the_spectrum(graph):
    # the tiled product sums in another order than dsymm: eigenvalues agree
    # with dsyevd_2stage's to round-off, and keep trace(A / n) = 0 and
    # ||A / n||_F^2 = 2E / n^2
    tile, m, edges = graph
    n = m.shape[0]
    oracle = _at_solver_threads(n, _dsyevd_2stage, m)[::-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngg.spectral, "_SYMM_TILE", tile)
        vals = ngg.eigenvalues_symmetric(m).values
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(vals - oracle)) <= 1e-13 * scale
    assert abs(math.fsum(vals)) <= 1e-12
    want = 2 * edges / n**2
    assert abs(math.fsum(vals * vals) - want) <= 1e-12 * max(want, 1e-300)


def test_band_spectrum_is_the_same_on_one_and_two_threads():
    # stage 2 and dsterf call no threaded BLAS, so they may run beside a
    # stage 1 that has pinned OpenBLAS to one thread, or not
    if _threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, _ = _threads()
    n = 1000
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    band = ngg.spectral.reduce_to_band((upper | upper.T).astype(float) / n)
    spectra = []
    for count in (1, 2):
        with ngg.spectral._LAPACK_LOCK, ngg.spectral._blas_threads(count):
            assert get() == count
            spectra.append(ngg.spectral.band_spectrum(band).values.tobytes())
    assert spectra[0] == spectra[1]
    assert ngg.spectral.band_spectrum(band).values.tobytes() == spectra[0]  # band reusable


def test_small_solve_pins_one_thread_and_restores_the_count(monkeypatch):
    if _threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, _ = _threads()
    before = get()
    seen = []
    call = ngg.spectral._fortran

    def spying(fn, *args):
        seen.append(get())
        return call(fn, *args)

    monkeypatch.setattr(ngg.spectral, "_fortran", spying)
    ngg.spectral.reduce_to_band(np.eye(ngg.spectral.ONE_THREAD_MAX_N // 8))
    # the band width, then every call of the stage-1 loop on one thread
    assert len(seen) > 2 and set(seen[1:]) == {1}
    assert get() == before


def test_concurrent_solves_restore_the_thread_count_and_match_serial_ones():
    # the pin is process-wide state: stage 1 sets and restores it under the
    # lock, so four threads on two cores, switching often, lose no restore
    # and get the serial spectra, while their stage 2s run unlocked
    if _threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = _threads()
    rng = np.random.default_rng(8)
    mats = []
    for n in (40, 120, 300):
        a = rng.standard_normal((n, n))
        mats.append((a + a.T) / 2)
    before, interval = get(), sys.getswitchinterval()
    put(2)
    try:
        serial = [ngg.eigenvalues_symmetric(m).values.tobytes() for m in mats]
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda m: ngg.eigenvalues_symmetric(m).values.tobytes(), m)
                       for _ in range(8) for m in mats]
            got = [f.result(timeout=120) for f in futures]
        assert got == serial * 8
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(before)


def test_overwrite_keeps_or_consumes_the_input(rng):
    a = rng.standard_normal((65, 65))
    m = (a + a.T) / 2
    before = m.copy()
    kept = ngg.eigenvalues_symmetric(m).values
    assert m.tobytes() == before.tobytes()
    consumed = ngg.eigenvalues_symmetric(m, overwrite=True).values
    assert np.array_equal(consumed, kept)


def _read_only(m):
    m.flags.writeable = False
    return m


@pytest.mark.parametrize(
    "make", [lambda m: np.asfortranarray(m), lambda m: m.astype(np.float32), _read_only],
    ids=["fortran-order", "float32", "read-only"],
)
def test_overwrite_leaves_an_unsuitable_array_alone(rng, make):
    # n = 65: below about 64 LAPACK works in a copy of its own whatever it is given
    a = rng.standard_normal((65, 65))
    m = make((a + a.T) / 2)
    before = m.copy()
    vals = ngg.eigenvalues_symmetric(m, overwrite=True).values
    assert m.tobytes() == before.tobytes()
    oracle = np.linalg.eigvalsh(np.asarray(m, dtype=float))[::-1]
    assert np.max(np.abs(vals - oracle)) <= 8 * np.finfo(float).eps * 65 * np.max(np.abs(m))


def test_repeated_solves_are_bitwise_equal(rng):
    upper = np.triu(rng.random((600, 600)) < 0.1, 1)
    m = (upper | upper.T).astype(float) / 600
    first = ngg.eigenvalues_symmetric(m).values
    for _ in range(4):
        assert ngg.eigenvalues_symmetric(m).values.tobytes() == first.tobytes()


def test_fallback_is_eigvalsh(rng, monkeypatch):
    # a LAPACK without the band routines: the whole solve is numpy's eigvalsh
    symbol = ngg.spectral._symbol
    monkeypatch.setattr(ngg.spectral, "_symbol",
                        lambda name, *a: None if "sytrd" in name else symbol(name, *a))
    assert ngg.spectral._lapack() is None
    a = rng.standard_normal((64, 64))
    m = (a + a.T) / 2
    band = ngg.spectral.reduce_to_band(m)
    assert band.ab is None
    assert np.array_equal(ngg.spectral.band_spectrum(band).values, np.linalg.eigvalsh(m)[::-1])
    vals = ngg.eigenvalues_symmetric(m, overwrite=True).values
    assert np.array_equal(vals, np.linalg.eigvalsh(m)[::-1])


def test_fallback_reads_only_the_triangle(monkeypatch):
    # eigvalsh of the transpose reads the rows' upper triangle: the bits of
    # eigvalsh on the whole symmetric matrix
    monkeypatch.setattr(ngg.spectral, "_lapack", lambda: None)
    n = 100
    a = np.random.default_rng(6).standard_normal((n, n))
    m = (a + a.T) / 2
    half = ngg.spectral.lazy_zeros(n)
    half[...] = np.where(np.tri(n, k=-1, dtype=bool), np.nan, m)
    band = ngg.spectral.reduce_to_band(ngg.spectral.Triangle(half, float(np.max(np.abs(m)))))
    assert band.eigenvalues.tobytes() == np.linalg.eigvalsh(m).tobytes()


@pytest.mark.parametrize("hidden", [f"{name}_" for name in ngg.spectral._ROUTINES])
def test_any_missing_gate_routine_falls_back_to_eigvalsh(monkeypatch, hidden):
    # numpy's LAPACK without any one of the four routines: the whole solve
    # is eigvalsh's, and it agrees with the spectrum through the gate
    rng = np.random.default_rng(4)
    upper = np.triu(rng.random((120, 120)) < 0.3, 1)
    m = (upper | upper.T) / 120
    gated = ngg.eigenvalues_symmetric(m).values
    symbol = ngg.spectral._symbol
    monkeypatch.setattr(ngg.spectral, "_symbol",
                        lambda name, *a: None if name == hidden else symbol(name, *a))
    assert ngg.spectral._lapack() is None
    assert ngg.spectral.reduce_to_band(m).ab is None
    vals = ngg.eigenvalues_symmetric(m).values
    assert vals.tobytes() == np.linalg.eigvalsh(m)[::-1].tobytes()
    assert np.allclose(vals, gated, rtol=0, atol=1e-15)


def _numpy_uses_scipy_openblas() -> bool:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return any(deps.get(k, {}).get("name") == "scipy-openblas" for k in ("blas", "lapack"))


@pytest.mark.skipif(not _numpy_uses_scipy_openblas(),
                    reason="numpy is not built against scipy-openblas")
def test_two_stage_routine_resolves_on_scipy_openblas():
    # the wheels that bundle scipy-openblas export both stages, dsterf and
    # the thread setting; a silent fallback to eigvalsh there would cost the
    # benchmark its solve time, and a missing pin the thread-count invariance
    lapack = ngg.spectral._lapack()
    assert lapack is not None
    assert sorted(lapack) == ["dgemm", "dgeqrf", "dlarft", "dlaset", "dsterf", "dsymm",
                              "dsyr2k", "dsytrd_sb2st", "ilaenv2stage"]
    assert _threads() is not None


@settings(max_examples=30)
@given(st.sampled_from([1, 255, 256, 257, 513]), st.integers(0, 2**32 - 1))
def test_tiled_symmetry_check_matches_whole_matrix(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    m = (a + a.T) / 2
    i, j = rng.integers(0, n, size=2)
    m[i, j] += rng.choice([1e-3, 7.0])
    scale, asym = ngg.spectral._scale_and_asymmetry(m)
    assert scale == np.max(np.abs(m))
    assert asym == np.max(np.abs(m - m.T))


def test_lapack_failure_is_a_solver_error(monkeypatch, fail_lapack):
    m = np.eye(40)
    for name in ("dgeqrf", "dsytrd_sb2st", "dsterf"):  # the routines with an INFO
        fail_lapack(monkeypatch, name, 3)
        with pytest.raises(ngg.SolverError, match=f"{name} info = 3"):
            ngg.eigenvalues_symmetric(m)
        monkeypatch.undo()
    assert np.array_equal(ngg.eigenvalues_symmetric(m).values, np.ones(40))


@pytest.mark.parametrize("m", [0, 1, 2, 200])
def test_tridiagonal_eigenvalues_match_eigvalsh(rng, m, monkeypatch):
    diag, off = rng.standard_normal(m), rng.standard_normal(max(m - 1, 0))
    before = diag.copy(), off.copy()
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    oracle = np.linalg.eigvalsh(dense)
    vals = ngg.spectral.eigenvalues_tridiagonal(diag, off)
    assert np.array_equal(diag, before[0]) and np.array_equal(off, before[1])
    assert vals.shape == (m,) and np.all(np.diff(vals) >= 0)
    if m:
        assert np.max(np.abs(vals - oracle)) <= 8 * np.finfo(float).eps * m * np.max(np.abs(dense))
    monkeypatch.setattr(ngg.spectral, "_symbol", lambda *args: None)
    assert np.array_equal(ngg.spectral.eigenvalues_tridiagonal(diag, off), oracle)


def test_tridiagonal_shapes_and_failure_are_errors(monkeypatch, fail_lapack):
    with pytest.raises(ngg.DomainError, match="one shorter"):
        ngg.spectral.eigenvalues_tridiagonal([1.0, 2.0], [0.5, 0.5])
    fail_lapack(monkeypatch, "dsterf", 2)  # the iteration did not converge
    with pytest.raises(ngg.SolverError, match="dsterf info = 2"):
        ngg.spectral.eigenvalues_tridiagonal([1.0, 2.0], [0.5])


def test_operator_norm_is_the_larger_end(rng):
    for n in (1, 2, 5, 80):
        a = rng.standard_normal((n, n))
        m = (a + a.T) / 2
        vals = np.linalg.eigvalsh(m)
        assert ngg.operator_norm(m) == pytest.approx(max(-vals[0], vals[-1]), rel=1e-14)
    assert ngg.operator_norm(np.zeros((0, 0))) == 0.0
