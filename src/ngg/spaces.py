"""Rank-one latent spaces: eigenspace dimensions, zonal polynomial bases, quadrature.

Every space supported here (real spheres and the real/complex/quaternionic
projective families plus the octonionic plane) carries a Beta law on [-1, 1]
describing the cosine of the distance between a uniform point and a pole, and
a family of orthogonal polynomials for that law. The degree-``ell`` polynomial
is the zonal profile of the degree-``ell`` eigenspace of any distance-kernel
integral operator, and the eigenspace dimension ``d_ell`` is the multiplicity
of the corresponding eigenvalue.  Everything downstream (graph simulation,
spectral fitting, envelope reconstruction) consumes these objects.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "SpaceKind",
    "LatentSpace",
    "sphere",
    "real_projective",
    "complex_projective",
    "quaternionic_projective",
    "octonionic_plane",
    "dim_of_degree",
    "cumulative_dim",
    "flag_noninteger_dims",
    "beta_shape",
    "beta_density_const",
    "HarmonicBasis",
    "harmonic_basis",
    "envelope_coefficients",
    "orthonormality_gram",
    "QUAD_NODE_CAP",
]

_T_SLACK = 1e-12  # tolerance for arguments nominally in [-1, 1]


class SpaceKind(Enum):
    SPHERE = "sphere"
    REAL_PROJECTIVE = "real-projective"
    COMPLEX_PROJECTIVE = "complex-projective"
    QUATERNIONIC = "quaternionic"
    OCTONIONIC = "octonionic"


@dataclass(frozen=True)
class LatentSpace:
    """One latent space, identified by its family and ambient dimension ``d``.

    ``dim`` counts homogeneous coordinates: the sphere lives in R^d, the
    projective families use d coordinates over their base field.  The
    octonionic plane is a single space; its ``dim`` is pinned to 3.
    """

    kind: SpaceKind
    dim: int

    def __post_init__(self):
        if self.kind in (SpaceKind.SPHERE, SpaceKind.REAL_PROJECTIVE):
            # the sphere normalizer (2*ell + d - 2) / (d - 2) degenerates at d = 2
            if self.dim < 3:
                raise DomainError(f"{self.kind.value} requires ambient dimension >= 3")
        elif self.kind in (SpaceKind.COMPLEX_PROJECTIVE, SpaceKind.QUATERNIONIC):
            if self.dim < 2:
                raise DomainError(f"{self.kind.value} requires ambient dimension >= 2")
        elif self.kind is SpaceKind.OCTONIONIC:
            if self.dim != 3:
                raise DomainError("the octonionic plane has exactly 3 homogeneous coordinates")


def sphere(d: int) -> LatentSpace:
    return LatentSpace(SpaceKind.SPHERE, d)


def real_projective(d: int) -> LatentSpace:
    return LatentSpace(SpaceKind.REAL_PROJECTIVE, d)


def complex_projective(d: int) -> LatentSpace:
    return LatentSpace(SpaceKind.COMPLEX_PROJECTIVE, d)


def quaternionic_projective(d: int) -> LatentSpace:
    return LatentSpace(SpaceKind.QUATERNIONIC, d)


def octonionic_plane() -> LatentSpace:
    return LatentSpace(SpaceKind.OCTONIONIC, 3)


def _comb(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _dim_exact(space: LatentSpace, ell: int) -> Fraction:
    """Eigenspace dimension as an exact rational; degree 0 is always 1."""
    d = space.dim
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    if ell == 0:
        return Fraction(1)
    if space.kind is SpaceKind.SPHERE:
        return Fraction(_comb(ell + d - 1, ell) - _comb(ell + d - 3, ell - 2))
    if space.kind is SpaceKind.REAL_PROJECTIVE:
        poly = 6 + d * d + 8 * ell * (2 * ell - 3) + d * (8 * ell - 5)
        # Gamma(d + 2 ell - 3) / (Gamma(d - 1) Gamma(2 ell + 1)), all integer arguments
        return Fraction(poly) * Fraction(
            math.factorial(d + 2 * ell - 4),
            math.factorial(d - 2) * math.factorial(2 * ell),
        )
    if space.kind is SpaceKind.COMPLEX_PROJECTIVE:
        lead = Fraction(2 * ell + d, d) * _comb(ell + d - 1, d - 1) ** 2
        sub = Fraction(2 * ell + d - 2, d) * _comb(ell + d - 2, d - 1) ** 2
        return lead - sub
    if space.kind is SpaceKind.QUATERNIONIC:
        poly = d * (4 * d * d - 1) + 2 * d * (4 * d - 1) * ell + (4 * d - 1) * ell * ell
        return Fraction(2 * (ell + 1) * poly) * Fraction(
            math.factorial(2 * d + ell - 2) * math.factorial(2 * d + ell - 1),
            math.factorial(2 * d - 1)
            * math.factorial(2 * d + 1)
            * math.factorial(ell + 1) ** 2,
        )
    if space.kind is SpaceKind.OCTONIONIC:
        return Fraction((4 + ell) * (5 + ell) ** 2 * (6 + ell), 924)
    raise DomainError(f"unsupported space {space!r}")


def dim_of_degree(space: LatentSpace, ell: int) -> int:
    """Dimension of the degree-``ell`` eigenspace (rounded when the formula
    yields a non-integer; see :func:`flag_noninteger_dims`)."""
    v = _dim_exact(space, ell)
    n = round(v)
    return max(int(n), 1)


def flag_noninteger_dims(space: LatentSpace, max_degree: int) -> tuple[int, ...]:
    """Degrees up to ``max_degree`` whose dimension formula is not an integer."""
    return tuple(
        ell
        for ell in range(max_degree + 1)
        if _dim_exact(space, ell).denominator != 1
    )


def cumulative_dim(space: LatentSpace, max_degree: int) -> int:
    """Total dimension of eigenspaces of degree <= ``max_degree``."""
    if max_degree < 0:
        raise DomainError("degree must be nonnegative")
    total = sum(dim_of_degree(space, ell) for ell in range(max_degree + 1))
    if space.kind is SpaceKind.SPHERE:
        d = space.dim
        closed = _comb(max_degree + d - 1, max_degree) + _comb(max_degree + d - 2, max_degree - 1)
        if total != closed:
            raise AssertionError(
                f"cumulative dimension {total} disagrees with closed form {closed}"
            )
    return total


def beta_shape(space: LatentSpace) -> tuple[float, float]:
    """Shape (alpha, beta) of the cosine law: density proportional to
    (1-t)^(alpha-1) (1+t)^(beta-1) on [-1, 1]."""
    d = space.dim
    if space.kind is SpaceKind.SPHERE:
        return ((d - 1) / 2.0, (d - 1) / 2.0)
    if space.kind is SpaceKind.REAL_PROJECTIVE:
        return ((d - 1) / 2.0, 0.5)
    if space.kind is SpaceKind.COMPLEX_PROJECTIVE:
        return (float(d - 1), 1.0)
    if space.kind is SpaceKind.QUATERNIONIC:
        return (float(2 * d - 2), 2.0)
    if space.kind is SpaceKind.OCTONIONIC:
        return (8.0, 4.0)
    raise DomainError(f"unsupported space {space!r}")


def beta_density_const(alpha: float, beta: float) -> float:
    """Normalizer of the Beta density on [-1, 1]:
    Gamma(a+b) / (2^(a+b-1) Gamma(a) Gamma(b))."""
    return math.exp(
        math.lgamma(alpha + beta)
        - (alpha + beta - 1) * math.log(2.0)
        - math.lgamma(alpha)
        - math.lgamma(beta)
    )


def beta_density(alpha: float, beta: float, t):
    t = np.asarray(t, dtype=float)
    return beta_density_const(alpha, beta) * (1.0 - t) ** (alpha - 1.0) * (1.0 + t) ** (beta - 1.0)


# ---------------------------------------------------------------------------
# polynomial evaluation (three-term recurrences; no monomial expansion)


def _check_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _T_SLACK):
        raise DomainError("argument outside [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def _gegenbauer_all(lam: float, max_degree: int, t: np.ndarray) -> np.ndarray:
    """Ultraspherical C^lam_0..L stacked along axis 0 (standard normalization,
    C^lam_ell(1) = binom(ell + 2 lam - 1, ell))."""
    out = np.empty((max_degree + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = 2.0 * lam * t
    for ell in range(2, max_degree + 1):
        out[ell] = (
            2.0 * t * (ell + lam - 1.0) * out[ell - 1] - (ell + 2.0 * lam - 2.0) * out[ell - 2]
        ) / ell
    return out


def _jacobi_all(a: float, b: float, max_degree: int, t: np.ndarray) -> np.ndarray:
    """Jacobi P^(a,b)_0..L stacked along axis 0 (P(1) = binom(ell + a, ell))."""
    out = np.empty((max_degree + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = (a + 1.0) + (a + b + 2.0) * (t - 1.0) / 2.0
    for ell in range(2, max_degree + 1):
        c1 = 2.0 * ell * (ell + a + b) * (2.0 * ell + a + b - 2.0)
        c2 = (2.0 * ell + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * ell + a + b - 1.0) * (2.0 * ell + a + b) * (2.0 * ell + a + b - 2.0)
        c4 = 2.0 * (ell + a - 1.0) * (ell + b - 1.0) * (2.0 * ell + a + b)
        out[ell] = ((c2 + c3 * t) * out[ell - 1] - c4 * out[ell - 2]) / c1
    return out


def _jacobi_density_norms(alpha: float, beta: float, max_degree: int) -> np.ndarray:
    """L2 norms of Jacobi P^(alpha-1, beta-1) under the Beta(alpha, beta)
    density, via log-gamma (norm of degree 0 is exactly 1)."""
    from scipy.special import gammaln  # lazily: most of `import ngg`'s time

    a, b = alpha - 1.0, beta - 1.0
    ells = np.arange(max_degree + 1, dtype=float)
    log_sq = (
        math.lgamma(a + b + 2.0)
        - np.log(2.0 * ells + a + b + 1.0)
        - math.lgamma(a + 1.0)
        - math.lgamma(b + 1.0)
        + gammaln(ells + a + 1.0)
        + gammaln(ells + b + 1.0)
        - gammaln(ells + a + b + 1.0)
        - gammaln(ells + 1.0)
    )
    return np.exp(0.5 * log_sq)


@dataclass(frozen=True)
class HarmonicBasis:
    """Eigenspace dimensions and zonal polynomials of one latent space.

    Immutable after construction; all methods are pure, so instances can be
    shared freely across threads.

    Attributes
    ----------
    dims, cum_dims:
        ``d_0..d_L`` and their running sums.
    beta_shape:
        shape parameters of the cosine law.
    normalizers:
        sphere only: the constants ``c_ell = (2 ell + d - 2) / (d - 2)``
        relating the orthonormal family to the raw ultraspherical one.
    weight_const:
        normalizer of the Beta density (the sphere's ``b_d``).
    flagged_degrees:
        degrees at which the dimension formula was not an integer (the value
        was rounded); empty for spheres.
    """

    space: LatentSpace
    max_degree: int
    dims: tuple[int, ...]
    cum_dims: tuple[int, ...]
    beta_shape: tuple[float, float]
    normalizers: tuple[float, ...] | None
    weight_const: float
    flagged_degrees: tuple[int, ...]
    _ortho_norms: tuple[float, ...]

    # -- evaluation ---------------------------------------------------

    def _raw_all(self, max_degree: int, t: np.ndarray) -> np.ndarray:
        alpha, beta = self.beta_shape
        if self.space.kind is SpaceKind.SPHERE:
            lam = (self.space.dim - 2) / 2.0
            return _gegenbauer_all(lam, max_degree, t)
        return _jacobi_all(alpha - 1.0, beta - 1.0, max_degree, t)

    def basis_poly(self, ell: int, t):
        """Raw basis polynomial of degree ``ell``: the ultraspherical
        polynomial for spheres (value d_ell / c_ell at t = 1), the classical
        Jacobi polynomial otherwise."""
        self._check_degree(ell)
        t = _check_t(t)
        scalar = t.ndim == 0
        v = self._raw_all(ell, np.atleast_1d(t))[ell]
        return float(v[0]) if scalar else v

    def orthonormal(self, ell: int, t):
        """Degree-``ell`` member of the orthonormal family for the cosine law
        (positive at t = 1; for spheres its value there squares to d_ell)."""
        self._check_degree(ell)
        t = _check_t(t)
        scalar = t.ndim == 0
        v = self._raw_all(ell, np.atleast_1d(t))[ell] / self._ortho_norms[ell]
        return float(v[0]) if scalar else v

    def orthonormal_all(self, max_degree: int, t) -> np.ndarray:
        """All orthonormal polynomials up to ``max_degree`` at once,
        shape (max_degree + 1, len(t))."""
        self._check_degree(max_degree)
        t = np.atleast_1d(_check_t(t))
        raw = self._raw_all(max_degree, t)
        norms = np.asarray(self._ortho_norms[: max_degree + 1])
        return raw / norms[:, None]

    def reconstruct(self, coefficients: Sequence[float], t):
        """Evaluate sum_ell sqrt(d_ell) u_ell Z_ell(t); for spheres this equals
        sum_ell u_ell c_ell G_ell(t)."""
        coefficients = np.asarray(coefficients, dtype=float)
        top = coefficients.size - 1
        self._check_degree(top)
        tt = _check_t(t)
        scalar = tt.ndim == 0
        z = self.orthonormal_all(top, np.atleast_1d(tt))
        scale = np.sqrt(np.asarray(self.dims[: top + 1], dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):  # callers refuse inf and nan
            out = (coefficients * scale) @ z
        return float(out[0]) if scalar else out

    def _check_degree(self, ell: int):
        if ell < 0 or ell > self.max_degree:
            raise DomainError(f"degree {ell} outside 0..{self.max_degree}")


def harmonic_basis(space: LatentSpace, max_degree: int) -> HarmonicBasis:
    if max_degree < 0:
        raise DomainError("max_degree must be nonnegative")
    dims = tuple(dim_of_degree(space, ell) for ell in range(max_degree + 1))
    for ell, v in enumerate(dims):  # sqrt(d_ell) scales every evaluation
        if v > sys.float_info.max:
            raise DomainError(
                f"the degree-{ell} eigenspace dimension of {space.kind.value}:{space.dim} "
                "exceeds the float range"
            )
    cum = []
    total = 0
    for v in dims:
        total += v
        cum.append(total)
    cumulative_dim(space, max_degree)  # sphere closed-form cross-check
    alpha, beta = beta_shape(space)
    wconst = beta_density_const(alpha, beta)
    if space.kind is SpaceKind.SPHERE:
        d = space.dim
        normalizers = tuple((2.0 * ell + d - 2.0) / (d - 2.0) for ell in range(max_degree + 1))
        # |G_ell| under the density is sqrt(d_ell) / c_ell, hence Z = (c/sqrt(d)) G
        ortho = tuple(
            math.sqrt(dims[ell]) / normalizers[ell] for ell in range(max_degree + 1)
        )
        flagged: tuple[int, ...] = ()
    else:
        normalizers = None
        ortho = tuple(_jacobi_density_norms(alpha, beta, max_degree))
        flagged = flag_noninteger_dims(space, max_degree)
    return HarmonicBasis(
        space=space,
        max_degree=max_degree,
        dims=dims,
        cum_dims=tuple(cum),
        beta_shape=(alpha, beta),
        normalizers=normalizers,
        weight_const=wconst,
        flagged_degrees=flagged,
        _ortho_norms=ortho,
    )


# ---------------------------------------------------------------------------
# quadrature against the cosine law


@lru_cache(maxsize=256)
def _jacobi_rule(m: int, a: float, b: float):
    from scipy.special import roots_jacobi  # lazily, as in _jacobi_density_norms

    x, w = roots_jacobi(m, a, b)
    return np.asarray(x), np.asarray(w)


def _panel_rule(alpha: float, beta: float, lo: float, hi: float, m: int):
    """Nodes/weights integrating f against the full Beta(alpha, beta) density
    over [lo, hi].  Endpoint panels absorb the possibly-singular density factor
    into the rule; interior panels fold the (there smooth) density into the
    weights."""
    a, b = alpha - 1.0, beta - 1.0
    const = beta_density_const(alpha, beta)
    if lo == -1.0 and hi == 1.0:
        x, w = _jacobi_rule(m, a, b)
        return x, const * w
    if hi == 1.0:
        y, w = _jacobi_rule(m, a, 0.0)
        h = (1.0 - lo) / 2.0
        x = lo + h * (y + 1.0)
        return x, const * w * h ** (a + 1.0) * (1.0 + x) ** b
    if lo == -1.0:
        y, w = _jacobi_rule(m, 0.0, b)
        h = (hi + 1.0) / 2.0
        x = -1.0 + h * (y + 1.0)
        return x, const * w * h ** (b + 1.0) * (1.0 - x) ** a
    y, w = _jacobi_rule(m, 0.0, 0.0)  # Gauss-Legendre
    h = (hi - lo) / 2.0
    x = (hi + lo) / 2.0 + h * y
    return x, const * w * h * (1.0 - x) ** a * (1.0 + x) ** b


def _vectorized(fn: Callable) -> Callable:
    probe = np.array([-0.5, 0.25])
    try:
        out = np.asarray(fn(probe), dtype=float)
        if out.shape == probe.shape:
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


_QUAD_START = 24
QUAD_NODE_CAP = 3072  # most Gauss nodes per panel before bisection
_QUAD_MAX_DEPTH = 10
_QUAD_TOL = 1e-10


def _integrate_panel(basis, fn, max_degree, lo, hi, tol, depth, failures):
    alpha, beta = basis.beta_shape
    m = _QUAD_START
    prev = None
    while m <= QUAD_NODE_CAP:
        x, w = _panel_rule(alpha, beta, lo, hi, m)
        z = basis.orthonormal_all(max_degree, x)
        with np.errstate(all="ignore"):  # a non-finite value is refused just below
            fx = np.asarray(fn(x), dtype=float)
        bad = x[~np.isfinite(fx)]
        if bad.size:
            raise DomainError(f"envelope is not finite at t = {bad[0]:.17g}")
        est = z @ (w * fx)
        # relative to the envelope's size once it exceeds 1, so a large
        # smooth envelope converges like its rescaled copy
        scale = max(1.0, float(np.max(np.abs(fx))))
        if prev is not None and np.max(np.abs(est - prev)) <= tol * scale:
            return est
        prev = est
        m *= 2
    if depth < _QUAD_MAX_DEPTH:
        mid = (lo + hi) / 2.0
        return _integrate_panel(
            basis, fn, max_degree, lo, mid, tol / 2.0, depth + 1, failures
        ) + _integrate_panel(basis, fn, max_degree, mid, hi, tol / 2.0, depth + 1, failures)
    failures.append((lo, hi))
    return prev


def envelope_coefficients(basis: HarmonicBasis, envelope, max_degree: int) -> np.ndarray:
    """Coefficients (one per degree 0..max_degree) of a function of the cosine
    in the eigenbasis of its kernel operator.

    The degree-``ell`` output is <f, Z_ell> / sqrt(d_ell) under the cosine law;
    it is exactly the degree-``ell`` operator eigenvalue, carrying multiplicity
    ``d_ell``.  Integrals use adaptive Gauss rules: node doubling until two
    successive estimates agree to ``_QUAD_TOL`` times ``max(1, max|f|)`` over the
    rule's nodes, the domain pre-split at any jump
    the envelope declares, and recursive bisection as a fallback.

    Raises
    ------
    DomainError
        if the envelope is not finite at a node, on the first rule that
        meets it.
    QuadratureError
        if some sub-panel never converges; the error carries the last
        (unconverged) full estimate.
    """
    if max_degree < 0 or max_degree > basis.max_degree:
        raise DomainError(f"max_degree {max_degree} outside 0..{basis.max_degree}")
    fn = _vectorized(getattr(envelope, "fn", envelope))
    jumps = getattr(envelope, "jump_points", None) or ()
    cuts = sorted({float(j) for j in jumps if -1.0 < float(j) < 1.0})
    edges = [-1.0, *cuts, 1.0]
    failures: list[tuple[float, float]] = []
    total = np.zeros(max_degree + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        share = _QUAD_TOL * max((hi - lo) / 2.0, 1e-3)
        total = total + _integrate_panel(basis, fn, max_degree, lo, hi, share, 0, failures)
    raw = total / np.sqrt(np.asarray(basis.dims[: max_degree + 1], dtype=float))
    if failures:
        raise QuadratureError(
            f"quadrature did not converge on {len(failures)} panel(s): {failures[:4]}",
            last_estimate=raw,
        )
    return raw


def orthonormality_gram(basis: HarmonicBasis, max_degree: int) -> np.ndarray:
    """Gram matrix of the orthonormal family under the cosine law, by exact
    Gauss-Jacobi quadrature (identity up to round-off for a correct basis)."""
    if max_degree > basis.max_degree:
        raise DomainError("max_degree exceeds the basis")
    alpha, beta = basis.beta_shape
    x, w = _panel_rule(alpha, beta, -1.0, 1.0, max_degree + 1)
    z = basis.orthonormal_all(max_degree, x)
    return (z * w) @ z.T
