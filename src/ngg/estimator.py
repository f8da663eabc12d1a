"""Fixed-resolution spectral fit by an exact subset DP over block orderings.

At resolution ``R`` the model spectrum consists of one stage value per degree
``ell <= R``, each repeated ``d_ell`` times, plus zero with multiplicity
``n - sum(d_ell)``.  Matching such a staircase to the sorted observed spectrum
in least squares reduces to choosing an ordering of the ``R + 2`` blocks
(degree blocks plus the zero block) over contiguous runs of the sorted
eigenvalues; the optimal stage value of each degree block is the mean of its
run.  ``fit_resolution`` finds the best ordering with a Bellman/Held-Karp
dynamic program over subsets of blocks, ``O(2^(R+2) (R+2))`` steps instead of
scoring all ``(R + 2)!`` orderings.  The DP runs in numpy one popcount level
at a time, over a per-block-count table of subset transitions built once per
process, so ``R`` is capped at ``MAX_RESOLUTION``.

Every run cost reads prefix sums of the sorted values and of their squares,
which a ``Spectrum`` carries; every fit and ``score_ordering`` accept one in
place of a raw spectrum, so ``fit_all_resolutions`` prepares the spectrum
once for all resolutions.  One helper holds the run-mean and run-cost
formula for the DP and for ``score_ordering``, which scores one ordering;
the exhaustive search over all orderings is kept in the tests as the oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spaces import HarmonicBasis
from .spectral import Spectrum, as_spectrum

__all__ = [
    "MAX_RESOLUTION",
    "ZERO_BLOCK",
    "score_ordering",
    "SpectrumEstimate",
    "fit_resolution",
    "estimate_vector",
    "spectrum_vector",
]

ZERO_BLOCK = -1  # ordering symbol for the zero block

# Largest resolution fitted.  The DP over R + 2 blocks holds 2^(R+2) states and
# (R + 2) 2^(R+1) transitions: at R = 16 its cached table takes about 16 MB,
# and one fit about 0.1 s and 40 MB of temporaries; each step up doubles all.
MAX_RESOLUTION = 16

_COST_CHUNK = 1 << 16  # transitions costed per numpy pass, to bound temporaries


def _run_costs(spec: Spectrum, starts, ends, zero):
    """Mean and cost of the runs ``[starts, ends)`` of the sorted values,
    elementwise over arrays.  A degree-block run costs its squared deviation
    from its mean (the fitted stage); a zero-block run (``zero`` true) costs
    its raw sum of squares, may be empty, and its mean is unused.  A run's
    squared sum is at most ``n`` times the total sum of squares, so a finite
    bound keeps every cost finite; a spectrum without one is refused."""
    if not math.isfinite(spec.n * float(spec.s2[-1])):
        raise DomainError("spectrum values are too large: their sum of squares overflows")
    run_sum = spec.s1[ends] - spec.s1[starts]
    run_sq = spec.s2[ends] - spec.s2[starts]
    div = np.where(zero, 1, ends - starts)
    return run_sum / div, np.where(zero, run_sq, run_sq - run_sum * run_sum / div)


def score_ordering(spectrum, ordering, dims):
    """Stage values and squared-deviation score of one block ordering.

    The sorted eigenvalues are cut into consecutive runs with lengths given by
    the ordering; a degree block contributes the run's squared deviation from
    its mean (the fitted stage), the zero block contributes the run's raw sum
    of squares.
    """
    spec = as_spectrum(spectrum)
    n = spec.n
    r = len(ordering) - 2
    if sorted(ordering) != [ZERO_BLOCK, *range(r + 1)]:
        raise DomainError(f"ordering {tuple(ordering)} is not a permutation of -1, 0..r")
    if len(dims) <= r:
        raise DomainError(f"need {r + 1} dimensions for the ordering, got {len(dims)}")
    dims = tuple(int(d) for d in dims[: r + 1])
    total = sum(dims)
    if total > n:
        raise DomainError(f"need n >= {total} eigenvalues, got {n}")
    lengths = {sym: (dims[sym] if sym != ZERO_BLOCK else n - total) for sym in ordering}
    ends = np.cumsum([lengths[sym] for sym in ordering])
    starts = np.concatenate(([0], ends[:-1]))
    means, costs = _run_costs(spec, starts, ends, np.equal(ordering, ZERO_BLOCK))
    stages = np.zeros(r + 1)
    score = 0.0
    for sym, mean, cost in zip(ordering, means.tolist(), costs.tolist()):
        if sym != ZERO_BLOCK:
            stages[sym] = mean
        score += cost
    return stages, max(score, 0.0)


@dataclass(frozen=True)
class _SubsetLevels:
    """Transitions of the subset DP over ``m`` blocks.  Transition ``j`` takes
    block ``bit[j]`` out of a set and leaves the set ``pred[j]``; the
    transitions of each set are stored together, in ascending ``bit``, from
    ``row_start[set]`` on, and ``levels`` lists, per popcount ``k = 1..m``, the
    sets of that size and the slice of their ``k``-wide rows."""

    bit: np.ndarray
    pred: np.ndarray
    row_start: np.ndarray
    levels: tuple


@functools.lru_cache(maxsize=None)  # at most MAX_RESOLUTION + 2 entries
def _subset_levels(m: int) -> _SubsetLevels:
    sets = np.arange(1 << m)
    member = np.zeros((1 << m, m), dtype=bool)
    for i in range(m):
        member[:, i] = sets >> i & 1
    count = member.sum(axis=1)
    bits, preds, levels = [], [], []
    row_start = np.zeros(1 << m, dtype=np.intp)
    off = 0
    for k in range(1, m + 1):
        level = sets[count == k]
        bit = np.nonzero(member[level])[1]  # row by row, ascending within a row
        bits.append(bit.astype(np.int8))
        preds.append((np.repeat(level, k) ^ (1 << bit)).astype(np.int32))
        row_start[level] = off + k * np.arange(level.size)
        levels.append((level, slice(off, off + k * level.size), k))
        off += k * level.size
    table = _SubsetLevels(np.concatenate(bits), np.concatenate(preds), row_start, tuple(levels))
    for a in (table.bit, table.pred, table.row_start, *(lv[0] for lv in levels)):
        a.setflags(write=False)
    return table


@dataclass(frozen=True)
class SpectrumEstimate:
    """Best staircase fit at one resolution."""

    r: int
    stage_values: np.ndarray
    ordering: tuple[int, ...]
    score: float


def fit_resolution(spectrum, basis: HarmonicBasis, r: int) -> SpectrumEstimate:
    """Least-squares staircase fit at resolution ``r``, at most
    ``MAX_RESOLUTION``.  ``spectrum`` may be a ``Spectrum``, which is used
    without sorting again.

    ``G(T)``, the least cost of packing the block set ``T`` into the last
    ``|T|`` positions of the sorted spectrum, satisfies
    ``G(T) = min over b in T of cost(b, n - |T|) + G(T minus b)`` with
    ``G(empty) = 0``; the optimum is ``G(all blocks)``.  All transition costs
    are computed in a few numpy passes, then ``G`` one set size at a time.

    Tie rule: the returned ordering is the lexicographically first one (symbols
    compared as integers, the zero block ``-1`` first) whose score is within
    ``1e-12 * sum(v**2)`` of the minimum.  It is rebuilt from position 0,
    taking at each step the smallest remaining symbol that keeps the
    accumulated excess over the minimum within that tolerance.  Stage values
    and score are those of ``score_ordering`` for the chosen ordering.
    """
    if r < 0:
        raise DomainError("resolution must be nonnegative")
    if r > MAX_RESOLUTION:
        raise DomainError(f"resolution {r} exceeds the largest supported {MAX_RESOLUTION}")
    if r > basis.max_degree:
        raise DomainError(f"resolution {r} exceeds basis max_degree {basis.max_degree}")
    spec = as_spectrum(spectrum)
    n = spec.n
    if n < basis.cum_dims[r]:
        raise DomainError(
            f"n = {n} is below the model dimension {basis.cum_dims[r]} at resolution {r}"
        )
    symbols = (ZERO_BLOCK, *range(r + 1))  # bit i of a block set is symbols[i]
    lengths = np.array((n - basis.cum_dims[r], *basis.dims[: r + 1]), dtype=np.int64)
    m = len(symbols)
    table = _subset_levels(m)
    size = np.zeros(1 << m, dtype=np.int64)  # total length of each block set
    for i, ln in enumerate(lengths):
        size[1 << i : 2 << i] = size[: 1 << i] + ln

    # total[j] = cost of transition j's block on the run just before its
    # remaining set's positions, plus G(remaining set)
    total = np.empty(table.bit.size)
    for lo in range(0, total.size, _COST_CHUNK):
        bit = table.bit[lo : lo + _COST_CHUNK]
        ends = n - size[table.pred[lo : lo + _COST_CHUNK]]
        total[lo : lo + _COST_CHUNK] = _run_costs(spec, ends - lengths[bit], ends, bit == 0)[1]
    best = np.zeros(1 << m)
    for level, rows, k in table.levels:
        total[rows] += best[table.pred[rows]]
        best[level] = total[rows].reshape(-1, k).min(axis=1)

    # The argmin symbol at each step has excess exactly 0.0, so some symbol
    # always fits the remaining slack.
    ordering, rest, slack = [], (1 << m) - 1, 1e-12 * float(spec.s2[n])
    while rest:
        lo, k = table.row_start[rest], m - len(ordering)
        row = total[lo : lo + k] - best[rest]
        candidates = (i for i in range(m) if rest >> i & 1)
        for i, excess in zip(candidates, row.tolist()):
            if excess <= slack:
                break
        ordering.append(symbols[i])
        slack -= excess
        rest ^= 1 << i
    ordering = tuple(ordering)
    stages, score = score_ordering(spec, ordering, basis.dims)
    return SpectrumEstimate(r=r, stage_values=stages, ordering=ordering, score=score)


def spectrum_vector(values, dims) -> np.ndarray:
    """Repeat the value of each degree ``ell`` ``dims[ell]`` times: the model
    spectrum of stage values or expansion coefficients of degrees 0..len-1."""
    values = np.asarray(values, dtype=float)
    return np.repeat(values, np.asarray(dims[: values.size], dtype=int))


def estimate_vector(est: SpectrumEstimate, dims) -> np.ndarray:
    """Expand stage values with their multiplicities into the model spectrum
    vector (length cum_dims[r])."""
    return spectrum_vector(est.stage_values, dims)
