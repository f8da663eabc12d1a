import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ngg
from ngg.errors import DomainError, QuadratureError


# --- dimensions -------------------------------------------------------------


def _sphere_dim(d, ell):
    """Closed form for the sphere in R^d: C(ell+d-1, ell) - C(ell+d-3, ell-2)."""
    return math.comb(ell + d - 1, ell) - (math.comb(ell + d - 3, ell - 2) if ell >= 2 else 0)


_DIM_SPACES = [
    ngg.sphere(3), ngg.sphere(4), ngg.sphere(5),
    ngg.real_projective(3), ngg.real_projective(4), ngg.real_projective(5),
    ngg.complex_projective(2), ngg.complex_projective(3),
    ngg.quaternionic_projective(2), ngg.quaternionic_projective(3),
    ngg.octonionic_plane(),
]


@pytest.mark.parametrize("space", _DIM_SPACES, ids=lambda s: f"{s.kind.value}:{s.dim}")
def test_dims_obey_the_addition_theorem(space):
    # Z_ell(1)^2 = d_ell for the orthonormal zonal polynomial of every family
    b = ngg.harmonic_basis(space, 64)
    at_one = b.orthonormal_all(64, 1.0)[:, 0] ** 2
    for ell, d in enumerate(b.dims):
        assert type(d) is int
        assert abs(at_one[ell] - d) <= 1e-15 * d, ell
    assert b.cum_dims == tuple(itertools.accumulate(b.dims))
    assert ngg.cumulative_dim(space, 64) == b.cum_dims[64]
    assert [ngg.dim_of_degree(space, ell) for ell in range(65)] == list(b.dims)


def test_dims_of_coinciding_families():
    # CP^1 is the 2-sphere and HP^1 the 4-sphere; RP^(d-1) keeps the even
    # harmonics of S^(d-1); the octonionic plane's multiplicities are known
    dims = lambda sp, top: ngg.harmonic_basis(sp, top).dims
    assert dims(ngg.complex_projective(2), 12) == dims(ngg.sphere(3), 12)
    assert dims(ngg.quaternionic_projective(2), 12) == dims(ngg.sphere(5), 12)
    for d in (3, 4, 5, 8):
        assert dims(ngg.real_projective(d), 12) == dims(ngg.sphere(d), 24)[::2]
    assert dims(ngg.octonionic_plane(), 3) == (1, 26, 324, 2652)


@pytest.mark.parametrize("space", [ngg.real_projective(3), ngg.complex_projective(2)],
                         ids=lambda s: f"{s.kind.value}:{s.dim}")
def test_kernel_rank_is_the_model_dimension(space):
    # p1 is a quartic in t, so the full kernel matrix has exactly cum_dims[4]
    # nonzero eigenvalues, the multiplicities of degrees 0..4
    latent = ngg.sample_latent(space, 300, 3)
    theta = ngg.builtin_envelope(1)(ngg.cosines(space, latent.points, latent.points))
    rank = np.linalg.matrix_rank(theta, hermitian=True)
    assert rank == ngg.harmonic_basis(space, 4).cum_dims[4]


def test_sphere_dims_examples():
    assert ngg.dim_of_degree(ngg.sphere(3), 5) == 11  # 2*5 + 1
    for d in (3, 4, 5, 7):
        assert ngg.dim_of_degree(ngg.sphere(d), 0) == 1
        assert ngg.dim_of_degree(ngg.sphere(d), 1) == d
    # independent count for S^3: dimension of degree-l harmonics is (l+1)^2
    for ell in range(8):
        assert ngg.dim_of_degree(ngg.sphere(4), ell) == (ell + 1) ** 2


def test_sphere_dims_match_the_closed_form():
    for d in (*range(3, 13), 101, 10000):
        dims = ngg.harmonic_basis(ngg.sphere(d), 64).dims
        assert dims == tuple(_sphere_dim(d, ell) for ell in range(65)), d
        # cumulative: C(L+d-1, L) + C(L+d-2, L-1)
        assert ngg.cumulative_dim(ngg.sphere(d), 64) == math.comb(64 + d - 1, 64) + math.comb(
            64 + d - 2, 63
        )


def test_cumulative_dims():
    s3 = ngg.sphere(3)
    assert ngg.cumulative_dim(s3, 1) == 4
    assert ngg.cumulative_dim(s3, 0) == 1
    assert ngg.cumulative_dim(ngg.real_projective(4), 0) == 1
    # oracle: direct odd-number summation
    assert ngg.cumulative_dim(s3, 4) == 1 + 3 + 5 + 7 + 9 == 25


def test_sphere_dims_monotone():
    for d in (3, 4, 5, 8):
        dims = [ngg.dim_of_degree(ngg.sphere(d), ell) for ell in range(30)]
        assert all(dims[ell] < dims[ell + 1] for ell in range(1, 29))


def test_sphere_dims_growth_order():
    # d_ell grows like ell^(d-2): doubling ell multiplies by ~2^(d-2)
    for d in (3, 5):
        lo = ngg.dim_of_degree(ngg.sphere(d), 64)
        hi = ngg.dim_of_degree(ngg.sphere(d), 128)
        assert 0.8 * 2 ** (d - 2) < hi / lo < 1.25 * 2 ** (d - 2)


def test_table_dims_validation():
    # every family: exact integers, 1 at degree zero, increasing after it
    for sp in _DIM_SPACES:
        dims = ngg.harmonic_basis(sp, 12).dims
        assert all(type(d) is int for d in dims)
        assert dims[0] == 1
        assert all(dims[ell] < dims[ell + 1] for ell in range(12))


def test_space_domain_errors():
    with pytest.raises(DomainError):
        ngg.sphere(2)
    with pytest.raises(DomainError):
        ngg.real_projective(2)
    with pytest.raises(DomainError):
        ngg.dim_of_degree(ngg.sphere(3), -1)


# --- polynomial evaluation ---------------------------------------------------


def test_orthonormal_all_is_the_scaled_legendre_family(basis3):
    # d = 3 polynomials are the Legendre family, scaled to unit norm under
    # the uniform law on [-1, 1]: Z_ell = sqrt(2 ell + 1) P_ell
    t = np.linspace(-1, 1, 41)
    z = basis3.orthonormal_all(3, t)
    assert np.all(z[0] == 1.0)
    assert np.allclose(z[2], math.sqrt(5) * (3 * t**2 - 1) / 2, atol=1e-14)
    assert basis3.orthonormal_all(2, 0.5)[2, 0] == pytest.approx(-0.125 * math.sqrt(5), abs=1e-15)
    assert np.allclose(z[3], math.sqrt(7) * (5 * t**3 - 3 * t) / 2, atol=1e-14)


def _jacobi_ratios_exact(a, b, max_degree, ts):
    """P^(a,b)_ell(t) / P^(a,b)_ell(1) for ell = 0..max_degree, in exact rationals."""
    rows = [[Fraction(1)] * len(ts), [(a + 1) + (a + b + 2) * (t - 1) / 2 for t in ts]]
    at_one = [Fraction(1), a + 1]
    for ell in range(2, max_degree + 1):
        c1 = 2 * ell * (ell + a + b) * (2 * ell + a + b - 2)
        c2 = (2 * ell + a + b - 1) * (a * a - b * b)
        c3 = (2 * ell + a + b - 1) * (2 * ell + a + b) * (2 * ell + a + b - 2)
        c4 = 2 * (ell + a - 1) * (ell + b - 1) * (2 * ell + a + b)
        rows.append([((c2 + c3 * t) * p - c4 * q) / c1
                     for t, p, q in zip(ts, rows[-1], rows[-2])])
        at_one.append(at_one[-1] * (ell + a) / ell)
    return [[p / one for p in row] for row, one in zip(rows, at_one)]


@pytest.mark.parametrize("space", _DIM_SPACES, ids=lambda s: f"{s.kind.value}:{s.dim}")
def test_orthonormal_all_matches_an_exact_jacobi_oracle(space):
    # Z_ell = sqrt(d_ell) P_ell(t) / P_ell(1) with P the Jacobi polynomial of
    # the cosine law, checked at the dyadic points t = k/64 - 1
    alpha, beta = ngg.beta_shape(space)
    a, b = Fraction(round(2 * alpha) - 2, 2), Fraction(round(2 * beta) - 2, 2)
    ts = [Fraction(k, 64) - 1 for k in range(129)]
    basis = ngg.harmonic_basis(space, 64)
    z = basis.orthonormal_all(64, np.array([float(t) for t in ts]))
    ratios = _jacobi_ratios_exact(a, b, 64, ts)
    for ell, (row, d) in enumerate(zip(ratios, basis.dims)):
        root = math.sqrt(d)
        want = np.array([float(r) for r in row]) * root
        assert np.max(np.abs(z[ell] - want)) <= 1e-14 * root, ell


@pytest.mark.parametrize("dim, top", [(1000, 307), (10000, 134)])
def test_orthonormal_all_is_finite_at_the_largest_accepted_degree(dim, top):
    with pytest.raises(DomainError):
        ngg.harmonic_basis(ngg.sphere(dim), top + 1)
    basis = ngg.harmonic_basis(ngg.sphere(dim), top)
    with np.errstate(all="raise"):
        z = basis.orthonormal_all(top, [-1.0, 1.0])
    assert np.all(np.isfinite(z))


def test_orthonormal_value_at_one_squares_to_dim():
    for d in (3, 4, 5, 6):
        b = ngg.harmonic_basis(ngg.sphere(d), 10)
        at_one = b.orthonormal_all(10, 1.0)[:, 0]
        for ell in range(11):
            assert at_one[ell] > 0
            assert at_one[ell] ** 2 == pytest.approx(b.dims[ell], rel=1e-10)


def test_orthonormal_all_domain_error(basis3):
    with pytest.raises(DomainError):
        basis3.orthonormal_all(2, 1.5)
    with pytest.raises(DomainError):
        basis3.orthonormal_all(2, np.array([0.0, -1.01]))
    with pytest.raises(DomainError):
        basis3.orthonormal_all(17, 0.5)


def test_orthonormality_gram_small(orthonormality_gram):
    for d in (3, 4, 5):
        b = ngg.harmonic_basis(ngg.sphere(d), 12)
        g = orthonormality_gram(b, 12)
        assert np.max(np.abs(g - np.eye(13))) < 1e-8


def test_beta_density_normalization():
    # quadrature of the density over [-1, 1] equals 1 (checks b_d and friends)
    from ngg.spaces import _panel_rule

    for sp in (ngg.sphere(3), ngg.sphere(4), ngg.real_projective(3), ngg.octonionic_plane()):
        alpha, beta = ngg.beta_shape(sp)
        _, w = _panel_rule(alpha, beta, -1.0, 1.0, 40)
        assert abs(w.sum() - 1.0) < 1e-10


def beta_density_const(alpha, beta):
    """Normalizer of the Beta density on [-1, 1]:
    Gamma(a+b) / (2^(a+b-1) Gamma(a) Gamma(b))."""
    return math.exp(-ngg.spaces._log_mass(alpha - 1.0, beta - 1.0))


def beta_density(alpha, beta, t):
    t = np.asarray(t, dtype=float)
    return beta_density_const(alpha, beta) * (1.0 - t) ** (alpha - 1.0) * (1.0 + t) ** (beta - 1.0)


def test_sphere_weight_const_matches_beta():
    # b_d = Gamma(d/2) / (Gamma(1/2) Gamma((d-1)/2)) equals the Beta normalizer
    for d in (3, 4, 5, 9):
        b_d = math.exp(
            math.lgamma(d / 2) - math.lgamma(0.5) - math.lgamma((d - 1) / 2)
        )
        alpha = (d - 1) / 2
        assert b_d == pytest.approx(beta_density_const(alpha, alpha), rel=1e-13)


# --- Gauss-Jacobi rules ------------------------------------------------------


_RULE_SPACES = [
    ngg.sphere(3), ngg.sphere(4), ngg.sphere(10000), ngg.real_projective(3),
    ngg.real_projective(5), ngg.complex_projective(2), ngg.complex_projective(3),
    ngg.quaternionic_projective(2), ngg.octonionic_plane(),
]


def _requested_pairs():
    """Every Jacobi exponent pair (a, b) that ``_panel_rule`` asks a rule for on
    ``_RULE_SPACES``: whole interval, panels ending at -1 or 1, interior panels."""
    pairs = set()
    rule = ngg.spaces._jacobi_rule
    try:
        ngg.spaces._jacobi_rule = lambda m, a, b: pairs.add((a, b)) or rule(m, a, b)
        for space in _RULE_SPACES:
            for lo, hi in ((-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (-0.5, 0.5)):
                ngg.spaces._panel_rule(*ngg.beta_shape(space), lo, hi, 4)
    finally:
        ngg.spaces._jacobi_rule = rule
    return sorted(pairs)


_PAIRS = _requested_pairs()
_STEEP = 1000.0  # exponents of sphere:10000


def _exact_moments(a, b, top):
    """E[t^k], k = 0..top, under the law proportional to (1-t)^a (1+t)^b, in
    exact rationals: integrating t^k d[(1-t)^(a+1) (1+t)^(b+1)] by parts gives
    (a+b+2+k) M_(k+1) = (b-a) M_k + k M_(k-1)."""
    a, b = Fraction(a), Fraction(b)
    moments = [Fraction(1), (b - a) / (a + b + 2)]
    for k in range(1, top):
        moments.append(((b - a) * moments[k] + k * moments[k - 1]) / (a + b + 2 + k))
    return moments[: top + 1]


@pytest.mark.parametrize(
    "a, b, m",
    [(a, b, m) for a, b in _PAIRS for m in (24, 96, 384)
     if m <= 96 or max(a, b) < _STEEP],  # beyond, high moments of the steep laws underflow
)
def test_jacobi_rule_is_exact_on_polynomials(a, b, m):
    t, log_w = ngg.spaces._jacobi_rule(m, a, b)
    w = np.exp(log_w)
    power = np.ones(m)
    for k, exact in enumerate(_exact_moments(a, b, 2 * m - 1)):
        assert abs(w @ power - float(exact)) <= 1e-13 * (w @ np.abs(power)), k
        power *= t


@pytest.mark.parametrize("m", [24, 96, 384, 3072])
@pytest.mark.parametrize("a, b", _PAIRS)
def test_jacobi_rule_agrees_with_scipy(a, b, m):
    import scipy.special

    t, log_w = ngg.spaces._jacobi_rule(m, a, b)
    assert np.all(np.diff(t) > 0) and -1.0 < t[0] and t[-1] < 1.0
    w = np.exp(log_w)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) < 1e-13
    with np.errstate(all="ignore"):  # scipy's rule overflows on the steep laws
        ts, ws = scipy.special.roots_jacobi(m, a, b)
        ws = ws * np.exp(-ngg.spaces._log_mass(a, b))
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ws))):
        assert max(a, b) > _STEEP
        return
    eps = np.finfo(float).eps
    assert np.max(np.abs(t - ts)) <= 4 * eps
    # scipy's weights near a singular end drift from the exact ones by up to
    # about m^3 eps of the largest weight (measured against 50-digit arithmetic)
    assert np.max(np.abs(w - ws)) <= 4 * m**3 * eps * ws.max()


def test_jacobi_rule_falls_back_to_eigvalsh(monkeypatch):
    rule = ngg.spaces._jacobi_rule
    expected = {pair: rule(384, *pair)[0] for pair in ((0.0, 0.0), (1.0, -0.5), (7.0, 3.0))}
    rule.cache_clear()
    monkeypatch.setattr(ngg.spectral, "_symbol", lambda *args: None)
    try:
        assert ngg.spectral._lapack() is None
        for pair, nodes in expected.items():
            assert np.max(np.abs(rule(384, *pair)[0] - nodes)) <= 1e-14
    finally:
        rule.cache_clear()  # no rule of the fallback outlives the patch


def test_steep_rules_underflow_quietly():
    # the panels of sphere:10000 that end at -1 or 1, and rules far longer
    # than a quadrature there asks for: weights too small for a float read 0
    alpha, beta = ngg.beta_shape(ngg.sphere(10000))
    with np.errstate(all="raise"):
        for lo, hi in ((-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (0.7, 1.0), (-0.5, 0.5)):
            for m in (24, 3072):
                x, w = ngg.spaces._panel_rule(alpha, beta, lo, hi, m)
                assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
                assert lo < x[0] and x[-1] < hi
        assert ngg.spaces._panel_rule(alpha, beta, -1.0, 1.0, 3072)[1].sum() == pytest.approx(1.0)
        assert ngg.spaces._panel_rule(alpha, beta, 0.7, 1.0, 24)[1].max() == 0.0


def _scipy_panel_rule(alpha, beta, lo, hi, m):
    """The panel rule of the scipy-based quadrature, kept as an oracle: scipy's
    Gauss-Jacobi rule, with the density folded in by direct powers."""
    import scipy.special

    a, b = alpha - 1.0, beta - 1.0
    const = beta_density_const(alpha, beta)
    if lo == -1.0 and hi == 1.0:
        x, w = scipy.special.roots_jacobi(m, a, b)
        return x, const * w
    if hi == 1.0:
        y, w = scipy.special.roots_jacobi(m, a, 0.0)
        h = (1.0 - lo) / 2.0
        x = lo + h * (y + 1.0)
        return x, const * w * h ** (a + 1.0) * (1.0 + x) ** b
    if lo == -1.0:
        y, w = scipy.special.roots_jacobi(m, 0.0, b)
        h = (hi + 1.0) / 2.0
        x = -1.0 + h * (y + 1.0)
        return x, const * w * h ** (b + 1.0) * (1.0 - x) ** a
    y, w = scipy.special.roots_legendre(m)
    h = (hi - lo) / 2.0
    x = (hi + lo) / 2.0 + h * y
    return x, const * w * h * (1.0 - x) ** a * (1.0 + x) ** b


@pytest.mark.parametrize("space", _RULE_SPACES, ids=lambda s: f"{s.kind.value}:{s.dim}")
def test_true_coefficients_match_the_scipy_oracle(space, monkeypatch):
    basis = ngg.harmonic_basis(space, ngg.harness.TRUTH_DEGREE)
    # on sphere:10000 the oracle itself errs by up to about 4e-12: against
    # 30-digit quadrature, its c_0 of p3 is 2.3e-12 off and the new rule's 1e-16
    tol = 1e-11 if space.dim == 10000 else 1e-12
    for index in range(1, 7):
        envelope = ngg.builtin_envelope(index)
        if space.dim == 10000 and envelope.jump_points:
            continue  # the oracle's endpoint panels overflow there
        got = ngg.true_coefficients(basis, envelope)
        with monkeypatch.context() as patch:
            patch.setattr(ngg.spaces, "_panel_rule", _scipy_panel_rule)
            want = ngg.true_coefficients(basis, envelope)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol, envelope.name


def test_true_mean_of_p5_on_a_steep_sphere_is_exact():
    # E t^2 = 1/d and E t^4 = 3/(d(d+2)) on the sphere in R^d
    d = 10000
    exact = Fraction(1, 3) + (35 * Fraction(3, d * (d + 2)) - Fraction(30, d) + 3) / 12
    got = ngg.true_coefficients(ngg.harmonic_basis(ngg.sphere(d), 8), ngg.builtin_envelope(5))
    assert abs(got[0] - float(exact)) <= 2e-16


# --- coefficients ------------------------------------------------------------


def _fixed_node_coefficients(basis, fn, R, nodes=10_000):
    """Independent oracle: plain Gauss-Legendre at a fixed node count with the
    weight folded in explicitly."""
    import scipy.special

    x, w = scipy.special.roots_legendre(nodes)
    alpha, beta = basis.beta_shape
    dens = beta_density(alpha, beta, x)
    z = basis.orthonormal_all(R, x)
    raw = z @ (w * dens * fn(x))
    return raw / np.sqrt(np.asarray(basis.dims[: R + 1], float))


def test_constant_envelope_coefficients(basis3):
    c = ngg.envelope_coefficients(basis3, ngg.constant_envelope(0.37), 5)
    assert c[0] == pytest.approx(0.37, abs=1e-12)
    assert np.max(np.abs(c[1:])) < 1e-12


def test_quartic_envelope_coefficients(basis3):
    p5 = ngg.builtin_envelope(5)
    c = ngg.envelope_coefficients(basis3, p5, 4)
    oracle = _fixed_node_coefficients(basis3, p5.fn, 4)
    assert np.allclose(c, oracle, atol=1e-12)
    assert c[0] == pytest.approx(1 / 3, abs=1e-10)
    assert c[4] == pytest.approx(2 / 27, abs=1e-10)
    assert np.max(np.abs(c[[1, 2, 3]])) < 1e-10


@pytest.mark.parametrize("d", [4, 5])
def test_even_dimension_coefficients(d):
    # even d puts half-integer exponents in the weight; the endpoint-absorbed
    # panels must still match the brute-force fixed-node rule
    basis = ngg.harmonic_basis(ngg.sphere(d), 10)
    p1 = ngg.builtin_envelope(1)
    c = ngg.envelope_coefficients(basis, p1, 6)
    oracle = _fixed_node_coefficients(basis, p1.fn, 6)
    assert np.max(np.abs(c - oracle)) < 1e-11


def test_single_degree_reproduction(basis3):
    # an envelope proportional to one basis polynomial has one nonzero entry
    m = 3
    env = ngg.envelope_from_coefficients(basis3, [(m, 1.0)], name="pure")
    c = ngg.envelope_coefficients(basis3, env, 6)
    expected = np.zeros(7)
    expected[m] = 1.0
    assert np.allclose(c, expected, atol=1e-11)


def test_step_envelope_coefficients(basis3):
    # declared jump: exact piecewise-polynomial quadrature; oracle = analytic
    p2 = ngg.builtin_envelope(2)
    c = ngg.envelope_coefficients(basis3, p2, 2)
    t0 = 0.7
    assert c[0] == pytest.approx((1 - t0) / 2, abs=1e-12)
    assert c[1] == pytest.approx((1 - t0**2) / 4, abs=1e-12)
    assert c[2] == pytest.approx((t0 - t0**3) / 4, abs=1e-12)


@given(
    st.lists(st.floats(-0.5, 0.5, allow_nan=False, width=32), min_size=1, max_size=7)
)
def test_coefficient_round_trip(coeffs):
    basis = ngg.harmonic_basis(ngg.sphere(3), 16)
    u = np.asarray(coeffs, float)
    env = ngg.Envelope(lambda t: basis.reconstruct(u, t), "roundtrip")
    rec = ngg.envelope_coefficients(basis, env, u.size - 1)
    assert np.max(np.abs(rec - u)) < 1e-9


def test_round_trip_other_spaces():
    for sp in (ngg.real_projective(3), ngg.complex_projective(3)):
        basis = ngg.harmonic_basis(sp, 8)
        u = np.array([0.4, -0.1, 0.05, 0.2])
        env = ngg.Envelope(lambda t: basis.reconstruct(u, t), "roundtrip")
        rec = ngg.envelope_coefficients(basis, env, 3)
        assert np.max(np.abs(rec - u)) < 1e-9


def test_quadrature_failure_carries_last_estimate(basis3):
    noisy = ngg.Envelope(lambda t: np.floor(1e7 * np.asarray(t) ** 2) % 2.0, "noise")
    with pytest.raises(QuadratureError) as err:
        ngg.envelope_coefficients(basis3, noisy, 0)
    assert err.value.last_estimate is not None
    assert err.value.last_estimate.shape == (1,)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_envelope_is_refused_at_the_first_rule(basis3, monkeypatch, bad):
    rules = []
    panel_rule = ngg.spaces._panel_rule
    monkeypatch.setattr(ngg.spaces, "_panel_rule", lambda *a: rules.append(a) or panel_rule(*a))
    env = ngg.Envelope(lambda t: np.where(np.asarray(t) < -0.5, bad, 0.5), "bad")
    with np.errstate(all="raise"), pytest.raises(DomainError, match="not finite at t = -0.9"):
        ngg.envelope_coefficients(basis3, env, 4)
    assert len(rules) == 1


def test_envelope_coefficients_degree_checks(basis3):
    with pytest.raises(DomainError):
        ngg.envelope_coefficients(basis3, ngg.constant_envelope(0.5), 99)


def test_import_leaves_scipy_special_unloaded():
    # ngg runs on numpy alone; scipy is only an oracle of the tests
    code = ("import sys, ngg, ngg.cli; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = {**os.environ, "PYTHONPATH": str(Path(ngg.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_harmonic_basis_refuses_dimensions_beyond_floats():
    with pytest.raises(DomainError, match="degree-135 eigenspace dimension"):
        ngg.harmonic_basis(ngg.sphere(10000), 200)
    assert ngg.harmonic_basis(ngg.sphere(10000), 134).max_degree == 134


def test_reconstruct_overflow_is_silent_inf(basis3):
    with np.errstate(all="raise"):
        v = basis3.reconstruct([1e308, 1e308], np.array([-1.0, 1.0]))
    assert np.isneginf(v[0]) and np.isposinf(v[1])


@pytest.mark.parametrize("space", [ngg.sphere(3), ngg.real_projective(3),
                                   ngg.complex_projective(2)], ids=["sphere3", "rp3", "cp2"])
def test_reconstruct_takes_t_of_any_shape(space):
    # as builtin envelopes do: a coefficient-file envelope may be handed a
    # whole matrix of cosines
    basis = ngg.harmonic_basis(space, 4)
    coeffs = [0.4, 0.03, -0.02, 0.01, 0.005]
    t = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 7))
    flat = basis.reconstruct(coeffs, t.ravel())
    assert basis.reconstruct(coeffs, t).shape == (6, 7)
    assert np.array_equal(basis.reconstruct(coeffs, t), flat.reshape(6, 7))
    assert np.array_equal(basis.reconstruct(coeffs, t[None]), flat.reshape(1, 6, 7))
    assert basis.reconstruct(coeffs, 0.25) == basis.reconstruct(coeffs, [0.25])[0]
    envelope = ngg.envelope_from_coefficients(basis, list(enumerate(coeffs)))
    assert np.array_equal(envelope(t), flat.reshape(6, 7))
    assert np.array_equal(envelope.fn(t), flat.reshape(6, 7))
