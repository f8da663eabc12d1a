"""Rank-one latent spaces: eigenspace dimensions, zonal polynomial bases, quadrature.

Every space supported here (real spheres and the real/complex/quaternionic
projective families plus the octonionic plane) carries a Beta law on [-1, 1]
describing the cosine of the distance between a uniform point and a pole, and
a family of orthogonal polynomials for that law. The degree-``ell`` polynomial
is the zonal profile of the degree-``ell`` eigenspace of any distance-kernel
integral operator, and the eigenspace dimension ``d_ell`` is the multiplicity
of the corresponding eigenvalue.  One formula in the law's Jacobi parameters
gives ``d_ell`` on every family (see ``_dims``).  Everything downstream (graph
simulation, spectral fitting, envelope reconstruction) consumes these objects.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DomainError, QuadratureError, check_integer
from .spectral import eigenvalues_tridiagonal

if TYPE_CHECKING:  # model imports this module
    from .model import Envelope

__all__ = [
    "SpaceKind",
    "LatentSpace",
    "sphere",
    "real_projective",
    "complex_projective",
    "quaternionic_projective",
    "octonionic_plane",
    "parse_space",
    "dim_of_degree",
    "cumulative_dim",
    "beta_shape",
    "HarmonicBasis",
    "harmonic_basis",
    "envelope_coefficients",
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
        check_integer(self.dim, "ambient dimension", 2)  # the least of any family
        if self.kind in (SpaceKind.SPHERE, SpaceKind.REAL_PROJECTIVE):
            # at d = 2, a + b = -1 and _dims divides by a + b + 1 = 0
            if self.dim < 3:
                raise DomainError(f"{self.kind.value} requires ambient dimension >= 3")
        elif self.kind in (SpaceKind.COMPLEX_PROJECTIVE, SpaceKind.QUATERNIONIC):
            if self.dim < 2:
                raise DomainError(f"{self.kind.value} requires ambient dimension >= 2")
        elif self.kind is SpaceKind.OCTONIONIC:
            if self.dim != 3:
                raise DomainError("the octonionic plane has exactly 3 homogeneous coordinates")

    @property
    def name(self) -> str:
        """``kind:dim``, e.g. ``sphere:3``, as reports and edge lists record it."""
        return f"{self.kind.value}:{self.dim}"


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


# every name ``LatentSpace.name`` writes, and the short aliases
_SPACE_NAMES = {kind.value: kind for kind in SpaceKind} | {
    "rp": SpaceKind.REAL_PROJECTIVE,
    "cp": SpaceKind.COMPLEX_PROJECTIVE,
}


def parse_space(text: str) -> LatentSpace:
    """The space a name such as ``sphere:3``, ``rp:3`` or ``LatentSpace.name``
    denotes."""
    name, _, dim = text.partition(":")
    kind = _SPACE_NAMES.get(name.strip().lower())
    if kind is None or not dim:
        raise DomainError(f"cannot parse space {text!r}; expected e.g. sphere:3")
    try:
        return LatentSpace(kind, int(dim))
    except ValueError as exc:
        raise DomainError(f"cannot parse space {text!r}: {exc}") from exc


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


def _dims(space: LatentSpace, max_degree: int) -> tuple[int, ...]:
    """Eigenspace dimensions d_0..d_max_degree, exact integers.

    With the Jacobi parameters (a, b) = beta_shape - 1 of the cosine law,
    d_ell = (2 ell + a + b + 1) / (a + b + 1) * prod_{k <= ell} (a+b+k)(a+k) / (k (b+k)),
    the squared value at t = 1 of the degree-``ell`` orthonormal polynomial
    (the addition theorem).  a and b are half-integers, so the product runs
    over the integers 2a and 2b, one factor per degree, kept as a reduced
    fraction; each d_ell is then an exact integer quotient.
    """
    a2, b2 = (round(2.0 * s) - 2 for s in beta_shape(space))
    out = [1]
    num = den = 1
    for ell in range(1, max_degree + 1):
        num *= (a2 + b2 + 2 * ell) * (a2 + 2 * ell)
        den *= 2 * ell * (b2 + 2 * ell)
        g = math.gcd(num, den)
        num //= g
        den //= g
        out.append(num * (4 * ell + a2 + b2 + 2) // (den * (a2 + b2 + 2)))
    return tuple(out)


def dim_of_degree(space: LatentSpace, ell: int) -> int:
    """Dimension of the degree-``ell`` eigenspace."""
    check_integer(ell, "degree", 0)
    return _dims(space, ell)[ell]


def cumulative_dim(space: LatentSpace, max_degree: int) -> int:
    """Total dimension of eigenspaces of degree <= ``max_degree``."""
    check_integer(max_degree, "degree", 0)
    return sum(_dims(space, max_degree))


def _log_mass(a: float, b: float) -> float:
    """Log of the mass of (1-t)^a (1+t)^b on [-1, 1], 2^(a+b+1) B(a+1, b+1)."""
    return (
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )


# ---------------------------------------------------------------------------
# polynomial evaluation (three-term recurrences; no monomial expansion)


def _check_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _T_SLACK):
        raise DomainError("argument outside [-1, 1]")
    return np.clip(t, -1.0, 1.0)


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
        # dividing by c1 first keeps every product near P_ell(1) <= d_ell, so
        # no basis that harmonic_basis accepts overflows here
        out[ell] = (c2 / c1 + c3 / c1 * t) * out[ell - 1] - c4 / c1 * out[ell - 2]
    return out


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
    """

    space: LatentSpace
    max_degree: int
    dims: tuple[int, ...]
    cum_dims: tuple[int, ...]
    beta_shape: tuple[float, float]
    _ortho_norms: tuple[float, ...]

    # -- evaluation ---------------------------------------------------

    def orthonormal_all(self, max_degree: int, t) -> np.ndarray:
        """All orthonormal polynomials up to ``max_degree`` at once, shape
        (max_degree + 1, len(t)); each is positive at t = 1, where its value
        squares to d_ell."""
        self._check_degree(max_degree)
        t = np.atleast_1d(_check_t(t))
        alpha, beta = self.beta_shape
        raw = _jacobi_all(alpha - 1.0, beta - 1.0, max_degree, t)
        norms = np.asarray(self._ortho_norms[: max_degree + 1])
        return raw / norms[:, None]

    def reconstruct(self, coefficients: Sequence[float], t):
        """Evaluate sum_ell sqrt(d_ell) u_ell Z_ell(t) at ``t`` of any shape,
        elementwise: on ``t`` flattened, then shaped as ``t``."""
        coefficients = np.asarray(coefficients, dtype=float)
        top = coefficients.size - 1
        self._check_degree(top)
        tt = _check_t(t)
        z = self.orthonormal_all(top, tt.ravel())
        scale = np.sqrt(np.asarray(self.dims[: top + 1], dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):  # callers refuse inf and nan
            out = (coefficients * scale) @ z
        return float(out[0]) if tt.ndim == 0 else out.reshape(tt.shape)

    def _check_degree(self, ell: int):
        if ell < 0 or ell > self.max_degree:
            raise DomainError(f"degree {ell} outside 0..{self.max_degree}")


def harmonic_basis(space: LatentSpace, max_degree: int) -> HarmonicBasis:
    check_integer(max_degree, "max_degree", 0)
    dims = _dims(space, max_degree)
    for ell, v in enumerate(dims):  # sqrt(d_ell) scales every evaluation
        if v > sys.float_info.max:
            raise DomainError(
                f"the degree-{ell} eigenspace dimension of {space.name} "
                "exceeds the float range"
            )
    alpha, beta = beta_shape(space)
    # the addition theorem Z_ell(1)^2 = d_ell fixes the norm of P_ell under
    # the cosine law at P_ell(1) / sqrt(d_ell)
    at_one = _jacobi_all(alpha - 1.0, beta - 1.0, max_degree, np.ones(1))[:, 0]
    ortho = tuple(p / math.sqrt(d) for p, d in zip(at_one, dims))
    return HarmonicBasis(
        space=space,
        max_degree=max_degree,
        dims=dims,
        cum_dims=tuple(accumulate(dims)),
        beta_shape=(alpha, beta),
        _ortho_norms=ortho,
    )


# ---------------------------------------------------------------------------
# quadrature against the cosine law


_RESCALE_BITS = 300  # a node's values shrink by 2^-300 once its sum passes 2^600


@lru_cache(maxsize=256)
def _jacobi_rule(m: int, a: float, b: float):
    """The ``m``-node Gauss rule of the probability law proportional to
    (1-t)^a (1+t)^b on [-1, 1], as ascending nodes and the logs of their weights.

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the orthonormal Jacobi polynomials p_k
    (p_0 = 1), and the weight of node t is the Christoffel function
    1 / sum_{k<m} p_k(t)^2.  One sweep of the three-term recurrence over all
    nodes at once gives p_m, its derivative, that sum and the sum's derivative;
    each node then takes one Newton step on p_m, and its sum follows the step
    to first order.  The step matters near the ends, where the weights vary on
    a scale of 1/m^2 and an eigenvalue a few ulps off costs them digits.
    Whenever a node's sum passes 2^600, its values are scaled down by an exact
    power of two and the scaling is added back in the log, so nothing
    overflows however far a node lies in the tail of a steep law.
    """
    k = np.arange(1.0, m + 1.0)
    s = 2.0 * k + a + b
    off = 2.0 / s * np.sqrt(k * (k + a) * (k + b) * (k + a + b) / ((s - 1.0) * (s + 1.0)))
    s = s[:-1]
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))))
    t = eigenvalues_tridiagonal(diag, off[:-1])
    p_prev, p, dp_prev, dp = np.zeros(m), np.ones(m), np.zeros(m), np.zeros(m)
    total, dtotal = np.zeros(m), np.zeros(m)  # sum_k p_k^2, sum_k p_k p_k'
    scalings = np.zeros(m)
    big_sum, shrink = 2.0 ** (2 * _RESCALE_BITS), 2.0**-_RESCALE_BITS
    with np.errstate(under="ignore"):  # a value far below its node's sum reads 0
        for j in range(m):
            total += p * p
            dtotal += p * dp
            big = total > big_sum
            if big.any():
                for v in (p, p_prev, dp, dp_prev):
                    v[big] *= shrink
                total[big] *= shrink * shrink
                dtotal[big] *= shrink * shrink
                scalings[big] += 1
            shifted = t - diag[j]
            p_next = shifted * p
            dp_next = shifted * dp + p
            if j:
                p_next -= off[j - 1] * p_prev
                dp_next -= off[j - 1] * dp_prev
            p_prev, p = p, p_next / off[j]
            dp_prev, dp = dp, dp_next / off[j]
    step = p / dp  # p is p_m now
    total -= 2.0 * step * dtotal
    nodes = t - step
    log_w = -np.log(total) - scalings * (2 * _RESCALE_BITS * math.log(2.0))
    nodes.flags.writeable = log_w.flags.writeable = False  # cached: shared by every caller
    return nodes, log_w


def _panel_rule(alpha: float, beta: float, lo: float, hi: float, m: int):
    """Nodes/weights integrating f against the full Beta(alpha, beta) density
    over [lo, hi].  A panel that ends at -1 or 1 absorbs the possibly-singular
    density factor at that end into its Jacobi rule, and the rest of the
    density (smooth on the panel) is folded into the weights; on [-1, 1] that
    is the Gauss-Jacobi rule of the density itself, bit for bit, as every
    folded term is an exact 0.  Weights are assembled in logs, so no factor
    overflows on its own and a weight too small for a float reads 0."""
    a, b = alpha - 1.0, beta - 1.0
    ra = a if hi == 1.0 else 0.0
    rb = b if lo == -1.0 else 0.0
    y, log_w = _jacobi_rule(m, ra, rb)
    h = (hi - lo) / 2.0
    x = (hi + lo) / 2.0 + h * y
    log_w = (
        log_w
        + (_log_mass(ra, rb) - _log_mass(a, b) + (ra + rb + 1.0) * math.log(h))
        + (a - ra) * np.log1p(-x)
        + (b - rb) * np.log1p(x)
    )
    with np.errstate(under="ignore"):
        return x, np.exp(log_w)


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


def envelope_coefficients(basis: HarmonicBasis, envelope: Envelope,
                          max_degree: int) -> np.ndarray:
    """Coefficients (one per degree 0..max_degree) of an envelope, a function
    of the cosine, in the eigenbasis of its kernel operator.

    The degree-``ell`` output is <f, Z_ell> / sqrt(d_ell) under the cosine law;
    it is exactly the degree-``ell`` operator eigenvalue, carrying multiplicity
    ``d_ell``.  Integrals use adaptive Gauss rules: node doubling until two
    successive estimates agree to ``_QUAD_TOL`` times ``max(1, max|f|)`` over the
    rule's nodes, the domain pre-split at any jump
    the envelope declares, and recursive bisection as a fallback.  The
    envelope's ``fn`` must map an array of cosines to an array of values.

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
    cuts = sorted({float(j) for j in envelope.jump_points or () if -1.0 < float(j) < 1.0})
    edges = [-1.0, *cuts, 1.0]
    failures: list[tuple[float, float]] = []
    total = np.zeros(max_degree + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        share = _QUAD_TOL * max((hi - lo) / 2.0, 1e-3)
        total = total + _integrate_panel(basis, envelope.fn, max_degree, lo, hi, share, 0,
                                         failures)
    raw = total / np.sqrt(np.asarray(basis.dims[: max_degree + 1], dtype=float))
    if failures:
        raise QuadratureError(
            f"quadrature did not converge on {len(failures)} panel(s): {failures[:4]}",
            last_estimate=raw,
        )
    return raw
