import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

import ngg
from conftest import dense, graph_of
from ngg.errors import DomainError, ModelError


# --- builtin envelopes --------------------------------------------------------


def test_builtin_envelope_values():
    p1, p2, p3, p4, p5, p6 = (ngg.builtin_envelope(i) for i in range(1, 7))
    assert p1(1.0) == 1.0
    assert p1(-1.0) == 0.0
    assert p2(0.5) == 0.0
    assert p2(0.71) == 1.0
    assert p2.jump_points == (0.7,)
    assert p3(1.0) == 1.0
    assert p4(1.0) == pytest.approx(1.0)
    assert p4(-1.0) == pytest.approx(0.0)
    assert p5(1.0) == pytest.approx(1 / 3 + 2 / 3)
    assert p5.known_coeffs is None  # its expansion depends on the space
    assert p6(-0.5) == 0.0
    assert p6(0.5) == pytest.approx(0.5**10)


def test_builtin_envelope_range():
    t = np.linspace(-1, 1, 2001)
    for i in range(1, 7):
        v = ngg.builtin_envelope(i)(t)
        assert np.min(v) >= 0.0 and np.max(v) <= 1.0


def test_builtin_envelope_bad_index():
    for bad in (0, 7, -1):
        with pytest.raises(DomainError):
            ngg.builtin_envelope(bad)


# --- latent sampling -----------------------------------------------------------


def test_sample_latent_moments(sphere3):
    n = 100_000
    lat = ngg.sample_latent(sphere3, n, 123)
    assert np.max(np.abs(np.linalg.norm(lat.points, axis=1) - 1.0)) < 1e-12
    assert abs(lat.points[:, -1].mean()) < 4 / math.sqrt(3 * n)
    # E[x_j^2] = 1/d; Var(x_j^2) = 3/(d(d+2)) - 1/d^2
    for d in (3, 5):
        pts = ngg.sample_latent(ngg.sphere(d), n, 5).points
        var = 3 / (d * (d + 2)) - 1 / d**2
        assert abs((pts[:, 0] ** 2).mean() - 1 / d) < 5 * math.sqrt(var / n)


def test_sample_latent_deterministic(sphere3):
    a = ngg.sample_latent(sphere3, 1, 99).points
    b = ngg.sample_latent(sphere3, 1, 99).points
    assert np.array_equal(a, b)


def test_sample_latent_unsupported():
    with pytest.raises(DomainError):
        ngg.sample_latent(ngg.quaternionic_projective(2), 5, 0)
    with pytest.raises(DomainError):
        ngg.sample_latent(ngg.sphere(3), 0, 0)


def test_pairwise_cosine_basics(sphere3):
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert ngg.cosines(sphere3, e1, e1) == 1.0
    assert ngg.cosines(sphere3, e1, e2) == 0.0
    rp = ngg.real_projective(3)
    assert ngg.cosines(rp, e1, -e1) == 1.0  # antipodes are identified
    cp = ngg.complex_projective(2)
    z = np.array([1.0 + 0j, 0.0])
    assert ngg.cosines(cp, z, np.exp(0.7j) * z) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ngg.LatentSample(sphere3, np.stack([2 * e1, e2]))


_S = 1 / math.sqrt(2)
_E1, _E2, _E3 = np.eye(3)
_Z1 = np.array([1.0 + 0j, 0.0])
_Z2 = np.array([1.0 + 0j, 1j]) * _S
_Z3 = np.array([0.0 + 0j, 1.0])


@pytest.mark.parametrize(
    "space,x,y,expected",
    [
        # sphere: <x, y>
        (ngg.sphere(3), [_E1, (_E1 + _E2) * _S], [_E1, _E2, -_E1],
         [[1.0, 0.0, -1.0], [_S, _S, -_S]]),
        # real projective: 2 <x, y>^2 - 1
        (ngg.real_projective(3), [_E1, (_E1 + _E2) * _S], [_E1, _E2, -_E1],
         [[1.0, -1.0, 1.0], [0.0, 0.0, 0.0]]),
        # complex projective: 2 |<x, y>|^2 - 1, blind to a phase on either point
        (ngg.complex_projective(2), [_Z1, _Z2], [_Z1, 1j * _Z3, np.exp(0.3j) * _Z2],
         [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
    ],
    ids=["sphere3", "rp3", "cp2"],
)
def test_cosines_per_space_formula(space, x, y, expected):
    x, y, expected = np.array(x), np.array(y), np.array(expected)
    assert np.allclose(ngg.cosines(space, x, y), expected, rtol=0, atol=1e-15)
    for j in range(len(y)):  # a single point (d,) gives one column
        assert np.allclose(ngg.cosines(space, x, y[j]), expected[:, j], rtol=0, atol=1e-15)


def test_latent_sample_rejects_non_unit_rows(sphere3):
    pts = ngg.sample_latent(sphere3, 5, 0).points
    assert ngg.LatentSample(sphere3, pts).n == 5
    for bad in (pts * np.array([[1.0], [1.0], [1.001], [1.0], [1.0]]),
                np.vstack([pts, np.full(3, np.nan)]),
                pts[0]):
        with pytest.raises(DomainError):
            ngg.LatentSample(sphere3, bad)


@pytest.mark.parametrize(
    "space,shape",
    [
        (ngg.real_projective(3), (1.0, 0.5)),
        (ngg.complex_projective(3), (2.0, 1.0)),
        (ngg.sphere(4), (1.5, 1.5)),
    ],
)
def test_pairwise_cosine_law(space, shape):
    # the cosine between two independent uniform points follows the Beta law
    # of the space; oracle = incomplete-beta CDF via scipy
    n = 100_000
    x = ngg.sample_latent(space, n, 11).points
    y = ngg.sample_latent(space, n, 12).points
    if space.kind is ngg.SpaceKind.SPHERE:
        t = np.einsum("ij,ij->i", x, y)
    elif space.kind is ngg.SpaceKind.REAL_PROJECTIVE:
        t = 2.0 * np.einsum("ij,ij->i", x, y) ** 2 - 1.0
    else:
        t = 2.0 * np.abs(np.einsum("ij,ij->i", x, y.conj())) ** 2 - 1.0
    alpha, beta = shape
    # Beta(alpha, beta) on [-1, 1] with (1-t) carrying alpha
    cdf = lambda s: scipy.stats.beta(beta, alpha).cdf((1 + np.asarray(s)) / 2)
    stat = scipy.stats.kstest(t, cdf).statistic
    assert stat < 0.01


# --- probability matrix and graphs ---------------------------------------------


def test_probability_matrix_trivial(sphere3):
    lat = ngg.sample_latent(sphere3, 6, 0)
    assert np.array_equal(ngg.model.probability_rows(lat, ngg.constant_envelope(0.0), 0, lat.n),
                          np.zeros((6, 6)))
    m = ngg.model.probability_rows(lat, ngg.constant_envelope(0.3), 0, lat.n)
    assert np.allclose(m, 0.3 * (np.ones((6, 6)) - np.eye(6)))


def test_probability_matrix_identical_points(sphere3):
    e = np.array([0.0, 0.0, 1.0])
    lat = ngg.LatentSample(sphere3, np.stack([e, e]))
    m = ngg.model.probability_rows(lat, ngg.builtin_envelope(1), 0, lat.n)
    assert m[0, 1] == 1.0 and m[1, 0] == 1.0 and m[0, 0] == 0.0


def test_probability_matrix_of_a_coefficient_envelope(sphere3):
    # the envelope sees one-dimensional blocks of cosines, as in generate_graph
    env = ngg.envelope_from_coefficients(ngg.harmonic_basis(sphere3, 4), [(0, 0.4), (2, 0.05)])
    lat = ngg.sample_latent(sphere3, 500, 4)
    t = ngg.cosines(sphere3, lat.points, lat.points)
    expect = env(t.ravel()).reshape(t.shape)
    np.fill_diagonal(expect, 0.0)
    assert np.array_equal(ngg.model.probability_rows(lat, env, 0, lat.n), expect)


def test_probability_rows_clips_its_cosines_in_place(sphere3):
    # one row block of theta, as the concentration check writes it: its
    # cosines, 8 bytes an entry, are clipped in place and overwritten by the
    # envelope one chunk of _BLOCK_COSINES at a time, so the traced peak is
    # the block, one chunk's envelope values and their clipped copy (8 bytes
    # each), and a few small objects.  A clipped copy of the block's cosines
    # exceeds it
    n, rows, chunk = 3000, ngg.spectral._BLOCK, ngg.model._BLOCK_COSINES
    lat = ngg.sample_latent(sphere3, n, 0)
    tracemalloc.start()
    try:
        theta = ngg.model.probability_rows(lat, ngg.constant_envelope(0.5), 0, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta.shape == (rows, n)
    bound = 8 * rows * n + 2 * 8 * chunk + (1 << 16)
    assert bound < 2 * 8 * rows * n
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("pairs", [[(-1, 0.5)], [(-2, 0.5)], [(0, 0.4), (-3, 0.1)]])
def test_envelope_from_coefficients_refuses_negative_degrees(pairs):
    with pytest.raises(DomainError, match="nonnegative"):
        ngg.envelope_from_coefficients(ngg.harmonic_basis(ngg.sphere(3), 4), pairs)


def test_envelope_out_of_range_is_error(sphere3):
    lat = ngg.sample_latent(sphere3, 5, 1)
    with pytest.raises(ModelError):
        ngg.model.probability_rows(lat, ngg.constant_envelope(1.2), 0, lat.n)
    with pytest.raises(ModelError):
        ngg.generate_graph(lat, ngg.constant_envelope(-0.1), 0)


def test_generate_graph_extremes(sphere3):
    lat = ngg.sample_latent(sphere3, 12, 3)
    full = ngg.generate_graph(lat, ngg.constant_envelope(1.0), 0)
    assert isinstance(full, ngg.edgelist.EdgeListData) and full.n == 12
    assert full.keys.dtype == np.int64 and not full.keys.flags.writeable
    assert np.array_equal(dense(full), np.ones((12, 12)) - np.eye(12))
    empty = ngg.generate_graph(lat, ngg.constant_envelope(0.0), 0)
    assert empty.n == 12 and empty.keys.size == 0 and empty.keys.dtype == np.int64


def test_generate_graph_density(sphere3):
    n = 500
    lat = ngg.sample_latent(sphere3, n, 21)
    a = ngg.generate_graph(lat, ngg.constant_envelope(0.5), 22)
    pairs = n * (n - 1) / 2
    density = a.keys.size / pairs
    assert abs(density - 0.5) < 3 * math.sqrt(0.25 / pairs)


@given(st.integers(0, 2**63 - 1))
def test_generate_graph_symmetric_zero_diagonal(seed):
    # the keys are the pairs i < j, sorted: their matrix is symmetric with a
    # false diagonal
    lat = ngg.sample_latent(ngg.sphere(3), 25, 4)
    g = ngg.generate_graph(lat, ngg.builtin_envelope(4), seed)
    i, j = np.divmod(g.keys, 25)
    assert np.all(i < j) and np.all(j < 25)
    assert np.all(np.diff(g.keys) > 0)
    assert g.warnings == ()


def test_generate_graph_deterministic(sphere3):
    lat = ngg.sample_latent(sphere3, 40, 5)
    p = ngg.builtin_envelope(1)
    a = ngg.generate_graph(lat, p, 17)
    b = ngg.generate_graph(lat, p, 17)
    assert a.n == b.n and np.array_equal(a.keys, b.keys)


def test_conditional_edge_frequency(sphere3):
    # binned empirical edge frequency tracks the envelope for smooth p
    n = 2000
    lat = ngg.sample_latent(sphere3, n, 8)
    p = ngg.builtin_envelope(4)
    g = ngg.generate_graph(lat, p, 9)
    t = ngg.cosines(sphere3, lat.points, lat.points)
    iu = np.triu_indices(n, k=1)
    tv = t[iu]
    av = dense(g)[iu]
    edges = np.linspace(-1, 1, 21)
    worst = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (tv >= lo) & (tv < hi)
        if mask.sum() < 200:
            continue
        worst = max(worst, abs(av[mask].mean() - p(tv[mask]).mean()))
    assert worst < 0.05


# --- block generation against the row loop --------------------------------------


def _row_loop_graph(latent, p, seed):
    """Reference generator: one row of pairs at a time, as generation was first
    written, into a symmetric boolean matrix; the block version must give the
    keys of the same graph."""
    rng = np.random.default_rng(seed)
    n, pts = latent.n, latent.points
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        probs = np.clip(p(ngg.cosines(latent.space, pts[i + 1 :], pts[i])), 0.0, 1.0)
        adj[i, i + 1 :] = rng.random(n - 1 - i) < probs
    adj |= adj.T
    return adj


def _oracle_envelopes(space):
    basis = ngg.harmonic_basis(space, 2)
    coeffs = ngg.envelope_from_coefficients(basis, [(0, 0.4), (1, 0.02), (2, 0.01)])
    return [ngg.builtin_envelope(i) for i in range(1, 7)] + [
        coeffs, ngg.constant_envelope(0.3)]


def _past_block():
    """One past the largest graph whose pairs fit in a single block."""
    return math.isqrt(ngg.model._BLOCK_COSINES) + 2


@pytest.mark.parametrize("space", [ngg.sphere(3), ngg.sphere(5), ngg.real_projective(3),
                                   ngg.complex_projective(2)],
                         ids=["sphere3", "sphere5", "rp3", "cp2"])
def test_generate_graph_matches_row_loop(space):
    for p in _oracle_envelopes(space):
        for n in (1, 2, 3, _past_block(), 300):
            for seed in (0, 1, 2):
                lat = ngg.sample_latent(space, n, seed + 10)
                got = ngg.generate_graph(lat, p, seed)
                want = graph_of(_row_loop_graph(lat, p, seed))
                assert got.n == n and got.keys.dtype == np.int64
                assert np.array_equal(got.keys, want.keys), (p.name, n, seed)


@pytest.mark.parametrize("budget", [1, 5, 64, 1000])
def test_generate_graph_small_blocks_match_row_loop(monkeypatch, budget):
    # many block boundaries at small n, including blocks of a single row
    monkeypatch.setattr(ngg.model, "_BLOCK_COSINES", budget)
    for space in (ngg.sphere(3), ngg.complex_projective(2)):
        for p in _oracle_envelopes(space):
            for n in (2, 3, 17, 60):
                lat = ngg.sample_latent(space, n, n)
                got = ngg.generate_graph(lat, p, 5)
                assert np.array_equal(got.keys, graph_of(_row_loop_graph(lat, p, 5)).keys), \
                    (p.name, n)


def test_generate_graph_envelope_calls_per_block(sphere3):
    calls = []
    p5 = ngg.builtin_envelope(5)
    counted = ngg.Envelope(lambda t: calls.append(t.size) or p5(t), "p5")
    n = 2000
    ngg.generate_graph(ngg.sample_latent(sphere3, n, 0), counted, 1)
    assert sum(calls) == n * (n - 1) // 2
    assert len(calls) <= 20


@pytest.mark.parametrize("budget", [1, 1 << 17])
def test_generate_graph_range_check_in_last_block(monkeypatch, budget):
    # only the last pair, two equal points, leaves [0, 1]
    n = _past_block()
    monkeypatch.setattr(ngg.model, "_BLOCK_COSINES", budget)
    space = ngg.sphere(3)
    pts = ngg.sample_latent(space, n, 2).points
    pts[-1] = pts[-2]
    lat = ngg.LatentSample(space, pts)
    bump = ngg.Envelope(lambda t: np.where(t > 1.0 - 1e-9, 1.5, 0.5), "bump")
    with pytest.raises(ModelError, match="bump"):
        ngg.generate_graph(lat, bump, 0)


def test_nan_envelope_is_refused(sphere3):
    lat = ngg.sample_latent(sphere3, 50, 0)
    nan = ngg.Envelope(lambda t: np.full_like(t, np.nan), "nan")
    with pytest.raises(ModelError, match="'nan' has a non-finite value"):
        ngg.generate_graph(lat, nan, 0)
    with pytest.raises(ModelError, match="'nan' has a non-finite value"):
        ngg.model.probability_rows(lat, nan, 0, lat.n)


@pytest.mark.parametrize("budget", [1, 1 << 17])
def test_nan_at_the_last_pair_is_refused(monkeypatch, budget):
    # two equal points, so only the last pair reaches t = 1
    n = _past_block()
    monkeypatch.setattr(ngg.model, "_BLOCK_COSINES", budget)
    space = ngg.sphere(3)
    pts = ngg.sample_latent(space, n, 2).points
    pts[-1] = pts[-2]
    lat = ngg.LatentSample(space, pts)
    hole = ngg.Envelope(lambda t: np.where(t > 1.0 - 1e-9, np.nan, 0.5), "hole")
    with pytest.raises(ModelError, match="'hole' has a non-finite value"):
        ngg.generate_graph(lat, hole, 0)
    with pytest.raises(ModelError, match="'hole' has a non-finite value"):
        ngg.model.probability_rows(lat, hole, 0, lat.n)


# --- even powers without libm's negative-base pow -------------------------------


def _envelope_grid():
    t = np.random.default_rng(0).uniform(-1.0, 1.0, 1_000_000)
    return np.concatenate([t, np.linspace(-1.0, 1.0, 200_001), [-0.0, 0.0, 5e-324, -5e-324]])


def test_p6_values_unchanged():
    t = _envelope_grid()
    old = np.where(t > 0.0, t**10, 0.0)
    assert np.array_equal(ngg.builtin_envelope(6)(t), old)


def test_p5_values_within_float_tolerance():
    t = _envelope_grid()
    old = 1.0 / 3.0 + (35.0 * t**4 - 30.0 * t**2 + 3.0) / 12.0
    assert np.max(np.abs(ngg.builtin_envelope(5)(t) - old)) <= 4 * np.finfo(float).eps
