"""Envelope functions, latent sampling, and Bernoulli graph generation.

A graph model here is a latent space, an envelope ``p: [-1, 1] -> [0, 1]``,
and a size ``n``: nodes get i.i.d. uniform latent positions, and an edge
between ``i`` and ``j`` appears independently with probability ``p`` of the
pairwise cosine.  A drawn graph is its sorted edge keys (``EdgeListData``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .edgelist import EdgeListData
from .errors import DomainError, ModelError
from .spaces import HarmonicBasis, LatentSpace, SpaceKind

__all__ = [
    "Envelope",
    "builtin_envelope",
    "constant_envelope",
    "envelope_from_coefficients",
    "LatentSample",
    "sample_latent",
    "cosines",
    "generate_graph",
]

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Envelope:
    """A function of the pairwise cosine, plus optional metadata.

    ``fn`` must accept numpy arrays.  ``known_coeffs`` records the expansion
    coefficients (degree, value) a constant or coefficient-file envelope is
    defined by; ``jump_points`` lists interior discontinuities so quadrature
    can split there.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str
    known_coeffs: tuple[tuple[int, float], ...] | None = None
    jump_points: tuple[float, ...] | None = None

    def __call__(self, t):
        return self.fn(t)


def builtin_envelope(index: int) -> Envelope:
    """The six study envelopes p1..p6 (index 1-based)."""
    if index == 1:
        return Envelope(lambda t: ((1.0 + np.asarray(t, float)) / 2.0) ** 4, "p1")
    if index == 2:
        return Envelope(
            lambda t: np.where(np.asarray(t, float) > 0.7, 1.0, 0.0),
            "p2",
            jump_points=(0.7,),
        )
    if index == 3:
        return Envelope(lambda t: np.exp(-((np.asarray(t, float) - 1.0) ** 2)), "p3")
    if index == 4:
        return Envelope(
            lambda t: 0.5 + 0.5 * np.sin(0.5 * np.pi * np.asarray(t, float)), "p4"
        )
    if index == 5:
        # |t| ** 4, not t ** 4: numpy's power is several times slower on
        # negative bases (libm's pow), and both agree within an ulp
        return Envelope(
            lambda t: 1.0 / 3.0
            + (35.0 * np.abs(np.asarray(t, float)) ** 4 - 30.0 * np.asarray(t, float) ** 2 + 3.0)
            / 12.0,
            "p5",
        )
    if index == 6:
        return Envelope(
            # the power sees no negative base (see p5); the values are unchanged
            lambda t: np.where(
                np.asarray(t, float) > 0.0, np.maximum(np.asarray(t, float), 0.0) ** 10, 0.0
            ),
            "p6",
            jump_points=(0.0,),  # kink, not a jump; still a useful split point
        )
    raise DomainError(f"builtin envelope index must be 1..6, got {index}")


def constant_envelope(value: float) -> Envelope:
    return Envelope(
        lambda t, v=float(value): np.full_like(np.asarray(t, float), v),
        f"const:{value:g}",
        known_coeffs=((0, float(value)),),
    )


def envelope_from_coefficients(
    basis: HarmonicBasis, pairs: Sequence[tuple[int, float]], name: str = "coeffs"
) -> Envelope:
    """Envelope defined by expansion coefficients; unlisted degrees are zero."""
    pairs = tuple((int(ell), float(v)) for ell, v in pairs)
    if not pairs:
        raise DomainError("at least one coefficient is required")
    if any(ell < 0 for ell, _ in pairs):
        raise DomainError("degrees must be nonnegative")
    top = max(ell for ell, _ in pairs)
    if top > basis.max_degree:
        raise DomainError(f"degree {top} exceeds basis max_degree {basis.max_degree}")
    coeffs = np.zeros(top + 1)
    for ell, v in pairs:
        coeffs[ell] += v
    return Envelope(
        lambda t: basis.reconstruct(coeffs, t),
        name,
        known_coeffs=tuple((ell, float(coeffs[ell])) for ell in range(top + 1)),
    )


# ---------------------------------------------------------------------------
# latent sampling


@dataclass(frozen=True)
class LatentSample:
    """n i.i.d. uniform latent points in homogeneous coordinates."""

    space: LatentSpace
    points: np.ndarray  # (n, d); complex for the complex projective family

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 2 or not np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= _UNIT_TOL):
            raise DomainError("latent points must be an (n, d) array of unit vectors")

    @property
    def n(self) -> int:
        return self.points.shape[0]


def sample_latent(space: LatentSpace, n: int, seed: int) -> LatentSample:
    """Uniform sampling via normalized Gaussian vectors; projective points are
    sphere points up to scalar, stored with a canonical representative."""
    if n < 1:
        raise DomainError("n must be positive")
    rng = np.random.default_rng(seed)
    d = space.dim
    if space.kind is SpaceKind.SPHERE:
        x = rng.standard_normal((n, d))
    elif space.kind is SpaceKind.REAL_PROJECTIVE:
        x = rng.standard_normal((n, d))
        flip = np.where(x[:, -1] < 0.0, -1.0, 1.0)
        x = x * flip[:, None]
    elif space.kind is SpaceKind.COMPLEX_PROJECTIVE:
        x = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / math.sqrt(2.0)
    else:
        raise DomainError(f"sampling is not supported on {space.kind.value}")
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return LatentSample(space=space, points=x)


def cosines(space: LatentSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cosines of the (normalized) distances between the rows of ``x`` and the
    rows of ``y``, clipped to [-1, 1]; ``y`` may also be a single point ``(d,)``.

    Sphere: <x, y>.  Real projective: 2 <x, y>^2 - 1.  Complex projective:
    2 |<x, y>|^2 - 1.  The projective forms follow from the pole formula and
    two-point homogeneity.  Points are taken to be unit vectors, as
    ``LatentSample`` guarantees.
    """
    if space.kind is SpaceKind.SPHERE:
        t = x @ y.T
    elif space.kind is SpaceKind.REAL_PROJECTIVE:
        t = 2.0 * (x @ y.T) ** 2 - 1.0
    elif space.kind is SpaceKind.COMPLEX_PROJECTIVE:
        t = 2.0 * np.abs(x @ y.conj().T) ** 2 - 1.0
    else:
        raise DomainError(f"pairwise cosine not supported on {space.kind.value}")
    # in place: t is a new real array, or a scalar for two single points
    return np.clip(t, -1.0, 1.0, out=t if isinstance(t, np.ndarray) else None)


# ---------------------------------------------------------------------------
# edge probabilities and graph generation

_RANGE_TOL = 1e-12
# Cosines per generation block.  1 MB float64 arrays stay in cache (2^16 to
# 2^17 ran fastest on a 2-vCPU Xeon, 2^22 twice as slow) and keep an
# n = 2000 graph to 17 envelope calls.
_BLOCK_COSINES = 1 << 17


def _checked_probabilities(p: Envelope, t: np.ndarray) -> np.ndarray:
    vals = np.asarray(p(t), dtype=float)
    if vals.size:
        lo, hi = float(np.min(vals)), float(np.max(vals))  # NaN if any value is NaN
        if not (lo >= -_RANGE_TOL and hi <= 1.0 + _RANGE_TOL):
            finite = math.isfinite(lo) and math.isfinite(hi)
            what = "leaves [0, 1]" if finite else "has a non-finite value"
            raise ModelError(f"envelope {p.name!r} {what}: range [{lo:.3g}, {hi:.3g}]")
    return np.clip(vals, 0.0, 1.0)


def probability_rows(latent: LatentSample, p: Envelope, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of the matrix of edge probabilities p(cosine) from
    column ``lo`` on, ``theta[lo:hi, lo:]``, with a zero diagonal.  The
    envelope sees the cosines in row-major blocks of ``_BLOCK_COSINES``
    values and overwrites them, so its temporaries are the size of a block."""
    pts = latent.points
    theta = cosines(latent.space, pts[lo:hi], pts[lo:])
    np.fill_diagonal(theta, 1.0)
    flat = theta.reshape(-1)  # a view: cosines returns a new C-ordered matrix
    for at in range(0, flat.size, _BLOCK_COSINES):
        flat[at : at + _BLOCK_COSINES] = _checked_probabilities(p, flat[at : at + _BLOCK_COSINES])
    np.fill_diagonal(theta, 0.0)
    return theta


def generate_graph(latent: LatentSample, p: Envelope, seed: int) -> EdgeListData:
    """Draw one Bernoulli graph: independent edges for i < j with probability
    p applied to the pairwise cosine, returned as its sorted edge keys
    ``i * n + j`` (``EdgeListData``, the type ``read_edge_list`` returns;
    ``fit_graph`` solves it as ``A / n``).

    Generation walks blocks of consecutive rows, each holding at most
    ``_BLOCK_COSINES`` cosines (at least one row).  A block draws its
    uniforms in one call over its pairs in row-major order, so the RNG stream
    is consumed pair by pair exactly as a row-by-row loop consumes it, into a
    ``(hi - lo) x n`` boolean block whose nonzero positions, offset by
    ``lo * n``, are its keys in order.  The blocks wait as bits (``n^2 / 8``
    bytes in all) until the edge count is known, so the keys are written
    once, 8 bytes an edge.
    Identical (latent, p, seed) reproduce the keys bit for bit.
    """
    rng = np.random.default_rng(seed)
    n = latent.n
    pts = latent.points
    blocks = []  # (first key, edges, draws as bits) of each block
    lo = 0
    while lo < n - 1:
        width = n - 1 - lo  # pairs in row lo: columns lo + 1 .. n - 1
        hi = min(n - 1, lo + max(1, _BLOCK_COSINES // width))
        upper = np.arange(n) > np.arange(lo, hi)[:, None]  # column j > row i
        t = cosines(latent.space, pts[lo:hi], pts[lo + 1 :])[upper[:, lo + 1 :]]
        block = np.zeros_like(upper)
        block[upper] = rng.random(t.size) < _checked_probabilities(p, t)
        blocks.append((lo * n, np.count_nonzero(block), np.packbits(block)))
        lo = hi
    keys = np.empty(sum(edges for _, edges, _ in blocks), dtype=np.int64)
    at = 0
    for first, edges, bits in blocks:  # the bits' zero padding adds no key
        np.add(np.flatnonzero(np.unpackbits(bits)), first, out=keys[at : at + edges])
        at += edges
    keys.flags.writeable = False
    return EdgeListData(n=n, keys=keys, warnings=())
