"""The benchmark's own inputs and reference arithmetic, in plain numpy.

Nothing here imports ``ngg``: workload inputs and the values outputs are
checked against must not change when a layer of the program changes.
Everything is specific to the 2-sphere (``sphere:3``), where the pairwise
cosine of two uniform points is uniform on [-1, 1], the degree-``l``
eigenspace has dimension ``2l + 1``, and the operator eigenvalue of an
envelope ``p`` at degree ``l`` is ``(1/2) * int_{-1}^{1} p(t) P_l(t) dt``.
"""

from __future__ import annotations

import numpy as np

TRUTH_DEGREE = 64
_BLOCK_ROWS = 512
_QUAD_NODES = 200


def _p4(t):
    return 0.5 + 0.5 * np.sin(0.5 * np.pi * t)


def _p5(t):
    return 1.0 / 3.0 + (35.0 * t**4 - 30.0 * t**2 + 3.0) / 12.0


def _p6(t):
    return np.where(t > 0.0, t**10, 0.0)


# name -> (function, points where it is not smooth)
ENVELOPES = {"p4": (_p4, ()), "p5": (_p5, ()), "p6": (_p6, (0.0,))}


def dims(max_degree: int) -> np.ndarray:
    return 2 * np.arange(max_degree + 1) + 1


def sample_edges(seed: int, n: int, envelope: str) -> np.ndarray:
    """Bernoulli graph on n uniform points of the 2-sphere: (m, 2) int array
    of 0-based pairs i < j in row order.  Rows are drawn in blocks so only
    a block of the probability matrix is resident."""
    fn = ENVELOPES[envelope][0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    cols = np.arange(n)
    parts = []
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        p = fn(np.clip(x[lo:hi] @ x.T, -1.0, 1.0))
        hit = (rng.random(p.shape) < p) & (cols[None, :] > np.arange(lo, hi)[:, None])
        i, j = np.nonzero(hit)
        parts.append(np.column_stack((i + lo, j)))
    return np.concatenate(parts)


def write_edge_list(path, edges: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("% benchmark graph: 0-based node pairs\n")
        fh.write("\n".join(f"{i} {j}" for i, j in edges.tolist()))
        fh.write("\n")


def spectrum(edges: np.ndarray, n: int) -> np.ndarray:
    """All eigenvalues of A / n, sorted descending."""
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    return np.linalg.eigvalsh(a / n)[::-1].copy()


def truth_coefficients(envelope: str, max_degree: int = TRUTH_DEGREE) -> np.ndarray:
    """Operator eigenvalues c_0..c_max_degree by Gauss-Legendre quadrature,
    split at the envelope's non-smooth points."""
    fn, kinks = ENVELOPES[envelope]
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    edges = (-1.0, *kinks, 1.0)
    coeffs = np.zeros(max_degree + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * weights * fn(t)
        p_prev, p = np.zeros_like(t), np.ones_like(t)
        for ell in range(max_degree + 1):
            coeffs[ell] += 0.5 * float(np.dot(w, p))
            p_prev, p = p, ((2 * ell + 1) * t * p - ell * p_prev) / (ell + 1)
    return coeffs


def expand(values, max_degree: int) -> np.ndarray:
    """Model spectrum vector: value l repeated 2l + 1 times."""
    return np.repeat(np.asarray(values, dtype=float), dims(max_degree))


def delta2(x, y) -> float:
    """l2 rearrangement distance between two multisets padded with zeros:
    nonnegative parts matched largest first, negative parts smallest first."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def part(v, positive):
        return np.sort(v[v >= 0])[::-1] if positive else np.sort(v[v < 0])

    total = 0.0
    for positive in (True, False):
        a, b = part(x, positive), part(y, positive)
        k = max(a.size, b.size)
        total += float(np.sum((np.pad(a, (0, k - a.size)) - np.pad(b, (0, k - b.size))) ** 2))
    return float(np.sqrt(total))


def squared_error(stages, truth: np.ndarray) -> float:
    """delta2(estimate, truth)^2 for stage values at resolution len(stages) - 1."""
    return delta2(expand(stages, len(stages) - 1), expand(truth, truth.size - 1)) ** 2


def run_means(values: np.ndarray, ordering, r: int) -> np.ndarray:
    """Stage values implied by a block ordering: the descending spectrum is cut
    into runs of lengths d_l (zero block, symbol -1: the rest) in ordering
    order, and stage l is the mean of its run."""
    d = dims(r)
    stages = np.zeros(r + 1)
    pos = 0
    for sym in ordering:
        length = values.size - int(d.sum()) if sym < 0 else int(d[sym])
        if sym >= 0:
            stages[sym] = values[pos : pos + length].mean()
        pos += length
    return stages
