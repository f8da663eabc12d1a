import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    # the check runs in blocks of 256 rows; row 299 is in the partial block
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
    assert np.max(residuals) <= spec.residual_bound
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


@given(st.lists(_vals, max_size=4), st.lists(_vals, max_size=4), st.lists(_vals, max_size=4))
def test_delta2_triangle_inequality(x, y, z):
    assert ngg.delta2(x, z) <= ngg.delta2(x, y) + ngg.delta2(y, z) + 1e-9


@given(st.lists(_vals, min_size=1, max_size=6), st.data())
def test_delta2_zero_on_permutations(x, data):
    perm = data.draw(st.permutations(x))
    assert ngg.delta2(x, perm) == 0.0
