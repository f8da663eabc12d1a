"""Fixed-resolution spectral fit by an exact subset DP over block orderings.

At resolution ``R`` the model spectrum consists of one stage value per degree
``ell <= R``, each repeated ``d_ell`` times, plus zero with multiplicity
``n - sum(d_ell)``.  Matching such a staircase to the sorted observed spectrum
in least squares reduces to choosing an ordering of the ``R + 2`` blocks
(degree blocks plus the zero block) over contiguous runs of the sorted
eigenvalues; the optimal stage value of each degree block is the mean of its
run.  ``fit_resolution`` finds the best ordering with a Bellman/Held-Karp
dynamic program over subsets of blocks, ``O(2^(R+2) (R+2))`` steps instead of
scoring all ``(R + 2)!`` orderings.  ``score_ordering`` scores one ordering;
the exhaustive search over all of them is kept in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spaces import HarmonicBasis
from .spectral import Spectrum

__all__ = [
    "ZERO_BLOCK",
    "score_ordering",
    "SpectrumEstimate",
    "fit_resolution",
    "estimate_vector",
    "spectrum_vector",
]

ZERO_BLOCK = -1  # ordering symbol for the zero block


def _values(spectrum) -> np.ndarray:
    if isinstance(spectrum, Spectrum):
        v = spectrum.values
    else:
        v = np.sort(np.asarray(spectrum, dtype=float).ravel())[::-1]
    if not np.all(np.isfinite(v)):
        raise DomainError("spectrum has non-finite values")
    return v


def score_ordering(spectrum, ordering, dims):
    """Stage values and squared-deviation score of one block ordering.

    The sorted eigenvalues are cut into consecutive runs with lengths given by
    the ordering; a degree block contributes the run's squared deviation from
    its mean (the fitted stage), the zero block contributes the run's raw sum
    of squares.
    """
    v = _values(spectrum)
    n = v.size
    r = len(ordering) - 2
    dims = tuple(int(d) for d in dims[: r + 1])
    total = sum(dims)
    if total > n:
        raise DomainError(f"need n >= {total} eigenvalues, got {n}")
    lengths = {sym: (dims[sym] if sym != ZERO_BLOCK else n - total) for sym in ordering}
    if sum(lengths.values()) != n:
        raise AssertionError("block lengths do not partition the spectrum")
    s1 = np.concatenate(([0.0], np.cumsum(v)))
    s2 = np.concatenate(([0.0], np.cumsum(v * v)))
    stages = np.zeros(r + 1)
    score = 0.0
    pos = 0
    for sym in ordering:
        ln = lengths[sym]
        a, b = pos, pos + ln
        run_sum = s1[b] - s1[a]
        run_sq = s2[b] - s2[a]
        if sym == ZERO_BLOCK:
            score += run_sq
        else:
            stages[sym] = run_sum / ln
            score += run_sq - run_sum * run_sum / ln
        pos = b
    return stages, max(float(score), 0.0)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Best staircase fit at one resolution."""

    r: int
    stage_values: np.ndarray
    ordering: tuple[int, ...]
    score: float
    n: int


def fit_resolution(spectrum, basis: HarmonicBasis, r: int) -> SpectrumEstimate:
    """Least-squares staircase fit at resolution ``r``.

    ``G(T)``, the least cost of packing the block set ``T`` into the last
    ``|T|`` positions of the sorted spectrum, satisfies
    ``G(T) = min over b in T of cost(b, n - |T|) + G(T minus b)`` with
    ``G(empty) = 0``; the optimum is ``G(all blocks)``.

    Tie rule: the returned ordering is the lexicographically first one (symbols
    compared as integers, the zero block ``-1`` first) whose score is within
    ``1e-12 * sum(v**2)`` of the minimum.  It is rebuilt from position 0,
    taking at each step the smallest remaining symbol that keeps the
    accumulated excess over the minimum within that tolerance.  Stage values
    and score are those of ``score_ordering`` for the chosen ordering.
    """
    if r < 0:
        raise DomainError("resolution must be nonnegative")
    if r > basis.max_degree:
        raise DomainError(f"resolution {r} exceeds basis max_degree {basis.max_degree}")
    v = _values(spectrum)
    n = v.size
    if n < basis.cum_dims[r]:
        raise DomainError(
            f"n = {n} is below the model dimension {basis.cum_dims[r]} at resolution {r}"
        )
    symbols = (ZERO_BLOCK, *range(r + 1))  # bit i of a block set is symbols[i]
    lengths = (n - basis.cum_dims[r], *(int(d) for d in basis.dims[: r + 1]))
    s1 = np.concatenate(([0.0], np.cumsum(v))).tolist()
    s2 = np.concatenate(([0.0], np.cumsum(v * v))).tolist()

    def cost(i, a):
        b = a + lengths[i]
        run_sq = s2[b] - s2[a]
        if i == 0:
            return run_sq
        run_sum = s1[b] - s1[a]
        return run_sq - run_sum * run_sum / lengths[i]

    m = len(symbols)
    full = (1 << m) - 1
    size = [0] * (full + 1)
    best = [0.0] * (full + 1)
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        size[mask] = size[mask & (mask - 1)] + lengths[low]
        start = n - size[mask]
        best[mask] = min(
            cost(i, start) + best[mask ^ (1 << i)] for i in range(m) if mask >> i & 1
        )

    # The argmin symbol at each step has excess exactly 0.0, so some symbol
    # always fits the remaining slack.
    ordering, rest, pos, slack = [], full, 0, 1e-12 * s2[n]
    while rest:
        for i in range(m):
            if rest >> i & 1:
                excess = cost(i, pos) + best[rest ^ (1 << i)] - best[rest]
                if excess <= slack:
                    break
        ordering.append(symbols[i])
        slack -= excess
        pos += lengths[i]
        rest ^= 1 << i
    ordering = tuple(ordering)
    stages, score = score_ordering(v, ordering, basis.dims)
    return SpectrumEstimate(r=r, stage_values=stages, ordering=ordering, score=score, n=n)


def spectrum_vector(values, dims) -> np.ndarray:
    """Repeat the value of each degree ``ell`` ``dims[ell]`` times: the model
    spectrum of stage values or expansion coefficients of degrees 0..len-1."""
    values = np.asarray(values, dtype=float)
    return np.repeat(values, np.asarray(dims[: values.size], dtype=int))


def estimate_vector(est: SpectrumEstimate, dims) -> np.ndarray:
    """Expand stage values with their multiplicities into the model spectrum
    vector (length cum_dims[r])."""
    return spectrum_vector(est.stage_values, dims)
