import itertools
import math

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
    monkeypatch.setattr(ngg.spectral, "_two_stage_routine", lambda: None)
    a = rng.standard_normal((64, 64))
    m = (a + a.T) / 2
    vals = ngg.eigenvalues_symmetric(m, overwrite=True).values
    assert np.array_equal(vals, np.linalg.eigvalsh(m)[::-1])


def _numpy_uses_scipy_openblas() -> bool:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return any(deps.get(k, {}).get("name") == "scipy-openblas" for k in ("blas", "lapack"))


@pytest.mark.skipif(not _numpy_uses_scipy_openblas(),
                    reason="numpy is not built against scipy-openblas")
def test_two_stage_routine_resolves_on_scipy_openblas():
    # the wheels that bundle scipy-openblas export dsyevd_2stage; a silent
    # fallback to eigvalsh there would cost the benchmark its solve time
    assert ngg.spectral._two_stage_routine() is not None


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


def test_lapack_failure_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(ngg.spectral, "_two_stage_routine", lambda: lambda *args: 3)
    with pytest.raises(ngg.SolverError, match="info = 3"):
        ngg.eigenvalues_symmetric(np.eye(3))
