import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ngg
from ngg.errors import DomainError, QuadratureError
from ngg.spaces import beta_density_const


# --- dimensions -------------------------------------------------------------


def test_sphere_dims_examples():
    assert ngg.dim_of_degree(ngg.sphere(3), 5) == 11  # 2*5 + 1
    for d in (3, 4, 5, 7):
        assert ngg.dim_of_degree(ngg.sphere(d), 0) == 1
        assert ngg.dim_of_degree(ngg.sphere(d), 1) == d
    # independent count for S^3: dimension of degree-l harmonics is (l+1)^2
    for ell in range(8):
        assert ngg.dim_of_degree(ngg.sphere(4), ell) == (ell + 1) ** 2


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
    # all families: positive and 1 at degree zero
    spaces = [
        ngg.sphere(3),
        ngg.real_projective(3),
        ngg.real_projective(5),
        ngg.complex_projective(2),
        ngg.complex_projective(3),
        ngg.quaternionic_projective(2),
        ngg.octonionic_plane(),
    ]
    for sp in spaces:
        assert ngg.dim_of_degree(sp, 0) == 1
        assert all(ngg.dim_of_degree(sp, ell) >= 1 for ell in range(12))
    # the projective formulas are integral except on the octonionic plane,
    # whose printed formula is non-integer from degree 1 on; flagged, not hidden
    assert ngg.flag_noninteger_dims(ngg.real_projective(3), 12) == ()
    assert ngg.flag_noninteger_dims(ngg.complex_projective(3), 12) == ()
    assert ngg.flag_noninteger_dims(ngg.quaternionic_projective(2), 12) == ()
    assert 1 in ngg.flag_noninteger_dims(ngg.octonionic_plane(), 12)
    assert ngg.harmonic_basis(ngg.octonionic_plane(), 6).flagged_degrees != ()


def test_space_domain_errors():
    with pytest.raises(DomainError):
        ngg.sphere(2)
    with pytest.raises(DomainError):
        ngg.real_projective(2)
    with pytest.raises(DomainError):
        ngg.dim_of_degree(ngg.sphere(3), -1)


# --- polynomial evaluation ---------------------------------------------------


def test_basis_poly_degree_zero_and_legendre(basis3):
    for t in (-1.0, -0.3, 0.0, 0.8, 1.0):
        assert basis3.basis_poly(0, t) == 1.0
    # d = 3 polynomials are the Legendre family: oracle = explicit formulas
    t = np.linspace(-1, 1, 41)
    assert np.allclose(basis3.basis_poly(2, t), (3 * t**2 - 1) / 2, atol=1e-14)
    assert basis3.basis_poly(2, 0.5) == pytest.approx(-0.125, abs=1e-15)
    assert np.allclose(basis3.basis_poly(3, t), (5 * t**3 - 3 * t) / 2, atol=1e-14)


def test_basis_poly_value_at_one_is_dim_over_normalizer():
    for d in (3, 4, 5, 6):
        b = ngg.harmonic_basis(ngg.sphere(d), 10)
        for ell in range(11):
            expected = b.dims[ell] / b.normalizers[ell]
            assert b.basis_poly(ell, 1.0) == pytest.approx(expected, rel=1e-12)


def test_orthonormal_value_at_one_squares_to_dim():
    for d in (3, 4, 5):
        b = ngg.harmonic_basis(ngg.sphere(d), 10)
        for ell in range(11):
            assert b.orthonormal(ell, 1.0) ** 2 == pytest.approx(b.dims[ell], rel=1e-10)


def test_basis_poly_domain_error(basis3):
    with pytest.raises(DomainError):
        basis3.basis_poly(2, 1.5)
    with pytest.raises(DomainError):
        basis3.orthonormal(2, np.array([0.0, -1.01]))


def test_orthonormality_gram_small():
    for d in (3, 4, 5):
        b = ngg.harmonic_basis(ngg.sphere(d), 12)
        g = ngg.orthonormality_gram(b, 12)
        assert np.max(np.abs(g - np.eye(13))) < 1e-8


def test_beta_density_normalization():
    # quadrature of the density over [-1, 1] equals 1 (checks b_d and friends)
    from ngg.spaces import _panel_rule

    for sp in (ngg.sphere(3), ngg.sphere(4), ngg.real_projective(3), ngg.octonionic_plane()):
        alpha, beta = ngg.beta_shape(sp)
        _, w = _panel_rule(alpha, beta, -1.0, 1.0, 40)
        assert abs(w.sum() - 1.0) < 1e-10


def test_sphere_weight_const_matches_beta():
    # b_d = Gamma(d/2) / (Gamma(1/2) Gamma((d-1)/2)) equals the Beta normalizer
    for d in (3, 4, 5, 9):
        b_d = math.exp(
            math.lgamma(d / 2) - math.lgamma(0.5) - math.lgamma((d - 1) / 2)
        )
        alpha = (d - 1) / 2
        assert b_d == pytest.approx(beta_density_const(alpha, alpha), rel=1e-13)


# --- coefficients ------------------------------------------------------------


def _fixed_node_coefficients(basis, fn, R, nodes=10_000):
    """Independent oracle: plain Gauss-Legendre at a fixed node count with the
    weight folded in explicitly."""
    import scipy.special

    from ngg.spaces import beta_density

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


def test_envelope_coefficients_degree_checks(basis3):
    with pytest.raises(DomainError):
        ngg.envelope_coefficients(basis3, ngg.constant_envelope(0.5), 99)


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is most of the import time; only quadrature and the
    # Jacobi norms of the projective spaces need it
    code = "import sys, ngg, ngg.cli; assert 'scipy.special' not in sys.modules"
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
