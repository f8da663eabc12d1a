import ctypes
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngg
from conftest import delta2_merge_bound, dense, exact_squared_distance, gamma, graph_of
from ngg.edgelist import read_edge_list, write_edge_list
from ngg.errors import DomainError
from ngg.spectral import Band, Triangle, delta2_runs, reduce_to_band, signed_runs, write_triangle
from oracles import delta2, eigenvalues, triangle, triangle_count

_PERMS7 = np.array(list(itertools.permutations(range(7))))


def delta2_oracle(x, y):
    """Exhaustive minimum over permutations of zero-padded length-7 vectors."""
    x = np.pad(np.asarray(x, float), (0, 7 - len(x)))
    y = np.pad(np.asarray(y, float), (0, 7 - len(y)))
    diffs = x[None, :] - y[_PERMS7]
    return math.sqrt(np.min(np.sum(diffs * diffs, axis=1)))


# --- eigenvalues ----------------------------------------------------------------


def test_eigenvalues_identity_and_diag():
    s = eigenvalues(np.eye(3))
    assert np.array_equal(s.values, [1.0, 1.0, 1.0])
    s = eigenvalues(np.diag([2.0, -1.0, 0.0]))
    assert np.array_equal(s.values, [2.0, 0.0, -1.0])


def test_eigenvalues_rank_one_shift():
    # analytic oracle: a (J - I) / n has eigenvalues a(n-1)/n and -a/n (x n-1)
    n, a = 40, 0.7
    m = a * (np.ones((n, n)) - np.eye(n)) / n
    vals = eigenvalues(m).values
    assert vals[0] == pytest.approx(a * (n - 1) / n, rel=1e-12)
    assert np.allclose(vals[1:], -a / n, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalues_rejects_non_finite(bad):
    # the writer refuses the row block holding it, and stage 1 a triangle
    # whose largest entry is not finite
    m = np.eye(300)
    m[5, 280] = m[280, 5] = bad
    with pytest.raises(DomainError, match="non-finite"):
        triangle(m)
    with pytest.raises(DomainError, match="non-finite"):
        reduce_to_band(Triangle(np.eye(3), abs(bad)))


@pytest.mark.parametrize("given", [np.eye(3), [[1.0, 0.0], [0.0, 1.0]], Band(None)],
                         ids=["ndarray", "list", "band"])
def test_stage_one_refuses_anything_but_a_triangle(given):
    with pytest.raises(DomainError, match="takes a Triangle"):
        reduce_to_band(given)


def test_eigenvalue_residual_contract(rng):
    a = rng.standard_normal((50, 50))
    m = (a + a.T) / 2
    spec = eigenvalues(m)
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
        lam = eigenvalues(m).values
        mu = eigenvalues(m + pert).values
        assert np.max(np.abs(mu - lam)) <= np.max(np.abs(np.linalg.eigvalsh(pert))) + 1e-8


# --- rearrangement distance ------------------------------------------------------


def test_delta2_trivial_cases():
    x = [0.5, -0.2, 0.1]
    assert delta2(x, x) == 0.0
    assert delta2([], []) == 0.0
    assert delta2([1.0, -2.0], [3.0]) == pytest.approx(delta2_oracle([1, -2], [3]))
    assert delta2([1.0, -2.0], [3.0]) == pytest.approx(math.sqrt(8))


def test_delta2_indistinguishable_pair():
    # two distinct degree-4 coefficient patterns with identical spectra
    mu = 0.04
    lam_a = [0.5] + [mu] * 3 + [0.0] * 5 + [0.0] * 7 + [mu] * 9
    lam_b = [0.5] + [0.0] * 3 + [mu] * 5 + [mu] * 7 + [0.0] * 9
    assert delta2(lam_a, lam_b) == 0.0


def test_delta2_zero_padding_invariance():
    x = [0.3, -0.4]
    assert delta2(x, x + [0.0, 0.0]) == 0.0
    assert delta2(x + [0.0], [-0.4, 0.3]) == 0.0


_vals = st.floats(-4, 4, allow_nan=False, width=32)


@given(st.lists(_vals, max_size=4), st.lists(_vals, max_size=3))
def test_delta2_matches_exhaustive_oracle(x, y):
    assert delta2(x, y) == pytest.approx(delta2_oracle(x, y), abs=1e-12)


@given(st.lists(_vals, max_size=5), st.lists(_vals, max_size=5))
def test_delta2_symmetry(x, y):
    assert delta2(x, y) == pytest.approx(delta2(y, x), abs=1e-12)


@given(st.lists(_vals, max_size=6), st.lists(_vals, max_size=6))
def test_delta2_of_presplit_runs_is_bit_identical(x, y):
    # inputs converted by as_spectrum beforehand give the raw inputs' distance
    runs_x, runs_y = ngg.as_spectrum(x), ngg.as_spectrum(y)
    assert ngg.as_spectrum(runs_x) is runs_x
    want = delta2(x, y)
    assert delta2(runs_x, runs_y) == want
    assert delta2(runs_x, y) == want
    assert delta2(x, runs_y) == want


@given(st.lists(_vals, max_size=4), st.lists(_vals, max_size=4), st.lists(_vals, max_size=4))
def test_delta2_triangle_inequality(x, y, z):
    assert delta2(x, z) <= delta2(x, y) + delta2(y, z) + 1e-9


@given(st.lists(_vals, min_size=1, max_size=6), st.data())
def test_delta2_zero_on_permutations(x, data):
    perm = data.draw(st.permutations(x))
    assert delta2(x, perm) == 0.0


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
    assert delta2(x, y) == delta2_padded(x, y)


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
        assert delta2(x, y) == delta2_padded(x, y), (x, y)
        assert delta2(y, x) == delta2_padded(y, x), (x, y)


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
        delta2(x, y)
    with pytest.raises(DomainError, match="non-finite"):
        delta2(y, x)


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
        delta2(x, y)
    with pytest.raises(DomainError, match="overflows"):
        delta2(y, x)


# --- the rearrangement distance of staircases, run by run ---------------------

_STAIRCASE_DIMS = {
    name: ngg.harmonic_basis(space, top).dims
    for name, space, top in [
        ("sphere:3", ngg.sphere(3), 16),
        ("rp:3", ngg.real_projective(3), 16),
        ("cp:2", ngg.complex_projective(2), 16),
        ("sphere:10", ngg.sphere(10), 4),  # 935 values at degree 4
    ]
}
# degrees 40..64 of sphere:10, 6.9e8 to 2.3e10 each: too many to expand
_LARGE_DIMS = ngg.harmonic_basis(ngg.sphere(10), 64).dims[40:]


def _stages(size, values=st.floats(-2, 2, allow_nan=False)):
    """Stage values of resolutions whose degree blocks number ``size``: any,
    with ties, with zeros of both signs, or all negative."""
    tied = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.5])
    return st.one_of(st.lists(values, min_size=1, max_size=size),
                     st.lists(st.one_of(values, tied), min_size=1, max_size=size),
                     st.lists(tied, min_size=1, max_size=size),
                     st.lists(st.floats(-2, -1e-3), min_size=1, max_size=size))


@settings(max_examples=300)
@given(st.sampled_from(sorted(_STAIRCASE_DIMS)), st.data())
def test_delta2_runs_matches_delta2_of_the_expansions(space, data):
    dims = _STAIRCASE_DIMS[space]
    x = data.draw(_stages(len(dims)))
    y = data.draw(st.one_of(_stages(len(dims)), st.permutations(x)))
    vx, vy = np.repeat(x, dims[: len(x)]), np.repeat(y, dims[: len(y)])
    got = delta2_runs(signed_runs(x, dims), signed_runs(y, dims))
    assert abs(got - delta2(vx, vy)) <= delta2_merge_bound(got, vx.size + vy.size)


@settings(max_examples=200)
@given(st.sampled_from([*sorted(_STAIRCASE_DIMS), "large"]), st.data())
def test_delta2_runs_of_one_multiset_is_zero_and_symmetric(space, data):
    dims = _LARGE_DIMS if space == "large" else _STAIRCASE_DIMS[space]
    x, y = data.draw(_stages(len(dims))), data.draw(_stages(len(dims)))
    rx, ry = signed_runs(x, dims), signed_runs(y, dims)
    assert delta2_runs(rx, rx) == 0.0
    assert delta2_runs(rx, ry) == delta2_runs(ry, rx)


@settings(max_examples=200)
@given(st.data())
def test_delta2_runs_with_multiplicities_too_large_to_expand(data):
    # against exact arithmetic: the merge rounds each difference, its
    # square, each count times it, their sum and its root, so its square
    # lies within gamma(7) of the exact squared distance.  Values below
    # 1e-100 are taken as 0, so that no square underflows, where no
    # relative bound holds
    normal = st.floats(-2, 2).map(lambda v: v if abs(v) > 1e-100 else 0.0)
    x, y = data.draw(_stages(5, normal)), data.draw(_stages(5, normal))
    got = delta2_runs(signed_runs(x, _LARGE_DIMS), signed_runs(y, _LARGE_DIMS))
    want = exact_squared_distance((x, _LARGE_DIMS), (y, _LARGE_DIMS))
    assert abs(Fraction(got) ** 2 - want) <= gamma(7) * want


def test_delta2_runs_edge_cases():
    dims = _STAIRCASE_DIMS["sphere:3"]
    cases = [
        ([0.0], [-0.0]),  # zeros of both signs
        ([0.0, 0.0], [0.3]),
        ([-0.5, -0.25, -1.0], [-0.25]),  # all negative
        ([-0.5, -0.25], [0.5, 0.25, 0.125]),  # one sign each
        ([0.25, 0.25, -0.25, 0.25], [0.25, -0.25]),  # ties within and across fits
        (list(np.linspace(-1, 1, 17)), list(np.linspace(1, -1, 17) ** 3)),  # r = 16
    ]
    for x, y in cases:
        vx, vy = np.repeat(x, dims[: len(x)]), np.repeat(y, dims[: len(y)])
        got = delta2_runs(signed_runs(x, dims), signed_runs(y, dims))
        assert abs(got - delta2(vx, vy)) <= delta2_merge_bound(got, vx.size + vy.size), (x, y)
        assert got == delta2_runs(signed_runs(y, dims), signed_runs(x, dims))
    assert delta2_runs(signed_runs([], dims), signed_runs([0.0], dims)) == 0.0


def test_signed_runs_layout_and_refusals():
    runs = signed_runs(np.array([0.5, -0.25, -0.0, 0.5, -1.0]), (1, 3, 5, 7, 0))
    assert runs.nonneg == [(0.5, 7), (0.5, 1), (-0.0, 5)]
    assert runs.neg == [(-0.25, 3)]  # a value counted 0 times is left out
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="non-finite"):
            signed_runs([0.5, bad], (1, 3))
    for x, y in [(([1e200], (3,)), ([-1e200], (3,))),  # a square overflows
                 (([1e154], (3,)), ([0.0], (1,))),  # a count times a square
                 (([1e154, 1e154], (1, 1)), ([0.0], (1,)))]:  # each term finite, not their sum
        with pytest.raises(DomainError, match="overflows"):
            delta2_runs(signed_runs(*x), signed_runs(*y))


def test_as_spectrum_fields():
    s = ngg.as_spectrum([[0.5, -1.0], [0.0, 2.0]])
    assert s.values.tolist() == [2.0, 0.5, 0.0, -1.0]
    assert s.s1.tolist() == [0.0, 2.0, 2.5, 2.5, 1.5]
    assert s.s2.tolist() == [0.0, 4.0, 4.25, 4.25, 5.25]
    assert s.n == 4
    assert ngg.as_spectrum(s) is s
    empty = ngg.as_spectrum([])
    assert empty.values.size == empty.n == 0 and empty.s1.tolist() == [0.0]


def test_eigenvalues_symmetric_spectrum_equals_converted_values():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(60, 60))
    spec = eigenvalues(m + m.T)
    again = ngg.as_spectrum(spec.values.copy())
    for field in ("values", "s1", "s2"):
        assert getattr(spec, field).tobytes() == getattr(again, field).tobytes()
    assert spec.n == again.n == 60


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
    vals = eigenvalues(m).values
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
    band = reduce_to_band(triangle(m))
    assert band.ab.shape == (n, band.kd + 1) and (band.sigma != 1.0) == (scale != 1.0)
    assert ngg.spectral.band_spectrum(band).values.tobytes() == oracle.tobytes()
    assert eigenvalues(m).values.tobytes() == oracle.tobytes()


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
    band = reduce_to_band(triangle(m))
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
    whole = ngg.spectral.reduce_to_band(ngg.spectral.Triangle(m.copy(), 1.0 / n))
    half = ngg.spectral.lazy_zeros(n)
    half[...] = np.where(np.tri(n, k=-1, dtype=bool), np.nan, m)
    band = ngg.spectral.reduce_to_band(ngg.spectral.Triangle(half, 1.0 / n))
    assert band.ab.tobytes() == whole.ab.tobytes()
    spectrum = ngg.spectral.band_spectrum(band).values
    assert spectrum.tobytes() == ngg.spectral.band_spectrum(whole).values.tobytes()
    # write_triangle copies that triangle of an array and leaves it as it is
    before = m.copy()
    copied = reduce_to_band(triangle(m))
    assert copied.ab.tobytes() == whole.ab.tobytes()
    assert m.tobytes() == before.tobytes()


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
    whole = reduce_to_band(triangle(m))
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
        vals = eigenvalues(m).values
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(vals - oracle)) <= 1e-13 * scale
    assert abs(math.fsum(vals)) <= 1e-12
    want = 2 * edges / n**2
    assert abs(math.fsum(vals * vals) - want) <= 1e-12 * max(want, 1e-300)


def test_triangle_count_of_a_small_graph():
    a = np.zeros((5, 5))
    for i, j in ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 4)):
        a[i, j] = a[j, i] = 1.0
    assert triangle_count(graph_of(a)) == 3  # 012, 234, 024
    # trace(A^3) / 6, the closed walks of length 3, on random graphs
    rng = np.random.default_rng(3)
    for n, density in ((1, 0.5), (2, 1.0), (7, 1.0), (40, 0.0), (40, 0.3), (90, 0.7)):
        a = np.triu(rng.random((n, n)) < density, 1).astype(np.int64)
        a += a.T
        assert triangle_count(graph_of(a)) * 6 == np.trace(a @ a @ a), (n, density)


def _assert_cubes_count_the_triangles(vals, graph):
    """sum(l^3) = trace((A / n)^3) = 6T / n^3 for the spectrum ``vals`` of
    ``A / n``, T the triangle count of ``graph`` (closed walks of length 3)."""
    n = graph.n
    want = 6 * triangle_count(graph) / n**3
    # A backward-stable solve returns the exact eigenvalues of A/n + E with
    # ||E||_2 <= n eps max|l|.  Then sum(l^3) moves by 3 trace((A/n)^2 E) +
    # O(E^2), at most 3 sum(l^2) ||E||_2 <= 3 n^2 eps max|l|^3; the n cubes
    # (two roundings each), their correctly rounded fsum and the division of
    # want add at most (2n + 1) eps max|l|^3
    big = float(np.max(np.abs(vals)))
    tol = 3 * (n * n + n) * np.finfo(float).eps * big**3
    cubes = math.fsum(vals * vals * vals)
    assert abs(cubes - want) <= tol, (cubes, want, tol)


@pytest.mark.parametrize("build", ["matrix", "edge list", "rewritten"])
@pytest.mark.parametrize("n", [300, 544, 545, 1100])
def test_spectrum_cubes_count_the_triangles(n, build, tmp_path):
    # an entry written at the wrong place keeps sum(l) and sum(l^2) but
    # moves sum(l^3).  n = 544 runs stage 1's single dsymm, 545 and up its
    # 512-column tiles.  "rewritten" is A / n written again in 256-row blocks
    # by write_triangle from the upper triangle of A set from the keys, the
    # form the concentration check writes (A - theta) / n from
    graph = ngg.generate_graph(ngg.sample_latent(ngg.sphere(3), n, n), ngg.builtin_envelope(5), n)
    if build == "matrix":
        vals = eigenvalues(dense(graph) / n).values
    elif build == "edge list":
        write_edge_list(tmp_path / "g.txt", graph, ngg.sphere(3))
        band = ngg.spectral.reduce_to_band(read_edge_list(tmp_path / "g.txt").triangle())
        vals = ngg.spectral.band_spectrum(band).values
    else:
        upper = np.zeros((n, n), dtype=bool)
        upper.reshape(-1)[graph.keys] = True
        written = write_triangle(n, lambda block, out: np.divide(upper[block], n, out=out))
        assert written.scale == 1 / n
        upper = np.triu(np.ones((n, n), dtype=bool))
        assert written.matrix[upper].tobytes() == (dense(graph) / n)[upper].tobytes()
        vals = ngg.spectral.band_spectrum(reduce_to_band(written)).values
    _assert_cubes_count_the_triangles(vals, graph)


def test_spectrum_cubes_count_the_triangles_on_the_blas_pool():
    # n = 2049, the first size whose stage 1 runs on OpenBLAS's default pool,
    # drawn straight from generate_graph and solved from its keys' triangle,
    # as simulate solves it
    n = 2049
    graph = ngg.generate_graph(ngg.sample_latent(ngg.sphere(3), n, 1), ngg.builtin_envelope(5), 2)
    assert n == ngg.spectral.ONE_THREAD_MAX_N + 1
    band = ngg.spectral.reduce_to_band(graph.triangle())
    _assert_cubes_count_the_triangles(ngg.spectral.band_spectrum(band).values, graph)


@pytest.mark.parametrize("envelope", [2, 6], ids=["p2", "p6"])
@pytest.mark.parametrize("space", [ngg.real_projective(3), ngg.complex_projective(2)],
                         ids=["rp3", "cp2"])
def test_spectrum_cubes_count_the_triangles_on_projective_spaces(space, envelope):
    # other cosine laws and envelopes: a jump (p2) and a sparse kink (p6);
    # n = 600 crosses stage 1's tile and the writer's 256-row blocks
    n = 600
    graph = ngg.generate_graph(ngg.sample_latent(space, n, envelope),
                               ngg.builtin_envelope(envelope), n)
    _assert_cubes_count_the_triangles(eigenvalues(dense(graph) / n).values, graph)


def test_band_spectrum_is_the_same_on_one_and_two_threads():
    # stage 2 and dsterf call no threaded BLAS, so they may run beside a
    # stage 1 that has pinned OpenBLAS to one thread, or not
    if _threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, _ = _threads()
    n = 1000
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    band = reduce_to_band(triangle((upper | upper.T).astype(float) / n))
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
    reduce_to_band(triangle(np.eye(ngg.spectral.ONE_THREAD_MAX_N // 8)))
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
        serial = [eigenvalues(m).values.tobytes() for m in mats]
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda m: eigenvalues(m).values.tobytes(), m)
                       for _ in range(8) for m in mats]
            got = [f.result(timeout=120) for f in futures]
        assert got == serial * 8
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(before)


def _read_only(m):
    m.flags.writeable = False
    return m


@pytest.mark.parametrize(
    "make", [lambda m: m, np.asfortranarray, lambda m: m.astype(np.float32), _read_only,
             lambda m: m > 0],
    ids=["c-order", "fortran-order", "float32", "read-only", "boolean"],
)
def test_solve_leaves_its_input_alone(rng, make):
    # write_triangle copies any array's triangle one row block at a time,
    # converted to float64 block by block: the input keeps its bits, and the
    # spectrum is that of the float64 matrix of the same values, bit for bit
    a = rng.standard_normal((300, 300))
    m = make((a + a.T) / 2)
    before = m.copy()
    vals = eigenvalues(m).values
    assert m.tobytes() == before.tobytes()
    as_float = np.array(m, dtype=float)
    assert vals.tobytes() == eigenvalues(as_float).values.tobytes()
    oracle = np.linalg.eigvalsh(as_float)[::-1]
    assert np.max(np.abs(vals - oracle)) <= 8 * np.finfo(float).eps * 300 * np.max(np.abs(m))


def test_boolean_matrix_is_never_copied_whole_to_float64(rng):
    # write_triangle converts one row block at a time, onto lazily mapped
    # pages, which tracemalloc does not see: the traced peak (stage 1's
    # workspace) stays far below the 8 n^2 bytes of a float64 copy
    n = 1500
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    a = upper | upper.T
    tracemalloc.start()
    try:
        band = reduce_to_band(triangle(a))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4, peak / (8 * n * n)
    assert band.ab.tobytes() == reduce_to_band(triangle(a.astype(float))).ab.tobytes()


def test_repeated_solves_are_bitwise_equal(rng):
    upper = np.triu(rng.random((600, 600)) < 0.1, 1)
    m = (upper | upper.T).astype(float) / 600
    first = eigenvalues(m).values
    for _ in range(4):
        assert eigenvalues(m).values.tobytes() == first.tobytes()


def test_fallback_is_eigvalsh(rng, monkeypatch):
    # a LAPACK without the band routines: the whole solve is numpy's eigvalsh
    symbol = ngg.spectral._symbol
    monkeypatch.setattr(ngg.spectral, "_symbol",
                        lambda name, *a: None if "sytrd" in name else symbol(name, *a))
    assert ngg.spectral._lapack() is None
    a = rng.standard_normal((64, 64))
    m = (a + a.T) / 2
    band = reduce_to_band(triangle(m))
    assert band.ab is None
    assert np.array_equal(ngg.spectral.band_spectrum(band).values, np.linalg.eigvalsh(m)[::-1])
    before = m.copy()
    vals = eigenvalues(m).values
    assert np.array_equal(vals, np.linalg.eigvalsh(m)[::-1])
    assert m.tobytes() == before.tobytes()


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
    gated = eigenvalues(m).values
    symbol = ngg.spectral._symbol
    monkeypatch.setattr(ngg.spectral, "_symbol",
                        lambda name, *a: None if name == hidden else symbol(name, *a))
    assert ngg.spectral._lapack() is None
    assert reduce_to_band(triangle(m)).ab is None
    vals = eigenvalues(m).values
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


def test_lapack_failure_is_a_solver_error(monkeypatch, fail_lapack):
    m = np.eye(40)
    for name in ("dgeqrf", "dsytrd_sb2st", "dsterf"):  # the routines with an INFO
        fail_lapack(monkeypatch, name, 3)
        with pytest.raises(ngg.SolverError, match=f"{name} info = 3"):
            eigenvalues(m)
        monkeypatch.undo()
    assert np.array_equal(eigenvalues(m).values, np.ones(40))


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
    # the concentration check's operator norm: the larger magnitude of the
    # two ends of the descending spectrum
    for n in (1, 2, 5, 80):
        a = rng.standard_normal((n, n))
        m = (a + a.T) / 2
        vals = np.linalg.eigvalsh(m)
        ends = eigenvalues(m).values[[0, -1]]
        assert max(abs(ends)) == pytest.approx(max(-vals[0], vals[-1]), rel=1e-14)
